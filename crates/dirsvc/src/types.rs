//! Directory server data structures: cells, peer protocol, WAL records.
//!
//! Directory servers "store directory information as webs of linked
//! fixed-size cells representing name entries and file attributes ...
//! indexed by hash chains keyed by an MD5 hash fingerprint on the parent
//! file handle and name. The directory servers place keys in each newly
//! minted file handle ... Attribute cells may include a remote key to
//! reference an entry on another server, enabling cross-site links"
//! (paper §4.3).

use slice_nfsproto::{Fattr3, Fhandle, NfsStatus, NfsTime};

/// A compact reference to a child object, sufficient to mint its handle
/// and to find its attribute cell (possibly on a remote site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildRef {
    /// File id.
    pub file: u64,
    /// Home site holding the attribute cell.
    pub home: u32,
    /// Handle flag bits (directory, symlink, mirrored, ...).
    pub flags: u8,
    /// Handle generation.
    pub gen: u16,
    /// The MD5 cell key minted at create time.
    pub key: u64,
}

impl ChildRef {
    /// Mints the NFS handle for this child.
    pub fn fhandle(&self) -> Fhandle {
        Fhandle::new(self.file, self.home, self.flags, self.key, self.gen)
    }

    /// Builds a reference from a handle.
    pub fn from_fhandle(fh: &Fhandle) -> Self {
        ChildRef {
            file: fh.file_id(),
            home: fh.home_site(),
            flags: fh.flags(),
            gen: fh.generation(),
            key: fh.cell_key(),
        }
    }
}

/// A name-entry cell: one `(parent, name) -> child` binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameCell {
    /// Parent directory file id.
    pub parent: u64,
    /// Entry name.
    pub name: String,
    /// The referenced child.
    pub child: ChildRef,
}

/// An attribute cell: the authoritative metadata for one object.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrCell {
    /// NFS attributes (nlink is authoritative here).
    pub attr: Fattr3,
    /// Live entries under this directory (all sites combined); maintained
    /// through parent-update peer messages, and what rmdir checks.
    pub entry_count: u32,
    /// Symlink target, for symlink cells.
    pub symlink: Option<String>,
    /// The MD5 cell key stamped into this object's handles (the "remote
    /// key" other sites use to reference it).
    pub key: u64,
}

/// Peer-to-peer messages between directory servers (paper §4.3: "a simple
/// peer-peer protocol to update link counts ... and to follow cross-site
/// links"). Every message carries a globally unique `op` id so re-sent
/// operations after recovery apply at most once.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerMsg {
    /// Fetch attributes of a remote object (cross-site lookup/getattr).
    GetAttr {
        /// Op id.
        op: u64,
        /// Target file.
        file: u64,
    },
    /// Adjust a remote object's link count; reports the new attributes. The
    /// owner retires the cell and has the data removed when the count
    /// reaches zero.
    LinkDelta {
        /// Op id.
        op: u64,
        /// Target file.
        file: u64,
        /// Signed adjustment.
        delta: i32,
        /// Change time to stamp.
        ctime: NfsTime,
    },
    /// Update a remote parent directory after a child create/remove.
    ParentUpdate {
        /// Op id.
        op: u64,
        /// Parent directory file id.
        dir: u64,
        /// Signed live-entry adjustment.
        entry_delta: i32,
        /// Signed nlink adjustment (for mkdir/rmdir of subdirectories).
        nlink_delta: i32,
        /// Modify time to stamp.
        mtime: NfsTime,
    },
    /// Insert a name entry on the remote site (orphan mkdir under mkdir
    /// switching; rename/link targets). Reports any replaced child.
    InsertEntry {
        /// Op id.
        op: u64,
        /// Cell key (MD5 of parent handle + name).
        key: u64,
        /// Parent directory file id.
        parent: u64,
        /// Entry name.
        name: String,
        /// The child to bind.
        child: ChildRef,
        /// If false, an existing binding fails with `EXIST` instead of
        /// being replaced (create/mkdir/link); rename replaces.
        replace: bool,
    },
    /// Check a remote directory for emptiness and, if empty, retire its
    /// attribute cell (rmdir of an orphan directory).
    RemoveDirIfEmpty {
        /// Op id.
        op: u64,
        /// Directory file id.
        dir: u64,
    },
    /// Acknowledge a peer operation.
    Ack {
        /// Op id being acknowledged.
        op: u64,
        /// Operation status.
        status: NfsStatus,
        /// Result payload.
        info: PeerInfo,
    },
}

/// Result payload carried in a peer [`PeerMsg::Ack`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeerInfo {
    /// No payload.
    None,
    /// Attributes (and symlink target) of the requested object.
    Attr {
        /// The attributes.
        attr: Fattr3,
        /// Symlink target if the object is a symlink.
        symlink: Option<String>,
    },
    /// Child displaced by an insert (rename over an existing name).
    Replaced {
        /// The displaced child, if any.
        child: Option<ChildRef>,
    },
}

/// WAL records for directory state. Replaying a durable prefix rebuilds
/// the cell store exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum DirLog {
    /// A name cell was bound.
    PutName {
        /// Cell key.
        key: u64,
        /// The cell.
        cell: NameCell,
    },
    /// A name cell was unbound.
    DelName {
        /// Cell key.
        key: u64,
    },
    /// An attribute cell reached this state (full snapshot).
    PutAttr {
        /// File id.
        file: u64,
        /// The cell.
        cell: AttrCell,
    },
    /// An attribute cell was retired.
    DelAttr {
        /// File id.
        file: u64,
    },
    /// A peer op id was applied (idempotence across recovery).
    AppliedPeer {
        /// The op id.
        op: u64,
    },
    /// A multisite operation began (intent); completion is implied by a
    /// later matching `IntentDone`.
    Intent {
        /// Local transaction id.
        txid: u64,
    },
    /// A multisite operation finished.
    IntentDone {
        /// Local transaction id.
        txid: u64,
    },
}
