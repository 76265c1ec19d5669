//! NFS file handles as Slice mints them.
//!
//! An NFS V3 file handle is opaque to the client but structured for the
//! service. Slice's directory servers "place keys in each newly minted file
//! handle, allowing them to locate any resident cell if presented with an
//! fhandle or an (fhandle, name) pair" (§4.3), and the µproxy routes on
//! fields it extracts from the handle: the fileID, the home directory-server
//! site, and per-file attribute bits such as mirroring (§3.1).
//!
//! Our handles are a fixed 32 bytes:
//!
//! ```text
//! offset  field
//! 0       magic (1 byte) + flags (1 byte) + generation (2 bytes)
//! 4       fileID (8 bytes)          — unique id, assigned at create
//! 12      cell key (8 bytes)        — MD5 fingerprint of (parent fh, name)
//! 20      home site (4 bytes)       — logical directory-server id
//! 24      volume id (4 bytes)
//! 28      reserved (4 bytes)
//! ```

use slice_xdr::{XdrDecoder, XdrEncoder, XdrError};

/// Wire size of a Slice file handle.
pub const FH_SIZE: usize = 32;

const FH_MAGIC: u8 = 0x5c; // "Slice"

/// Flag bit: the handle names a directory.
pub const FH_FLAG_DIR: u8 = 0x01;
/// Flag bit: file data is mirrored (replicated) across storage nodes.
pub const FH_FLAG_MIRRORED: u8 = 0x02;
/// Flag bit: the handle names a symbolic link.
pub const FH_FLAG_SYMLINK: u8 = 0x04;
/// Flag bit: block placement uses coordinator block maps rather than the
/// static striping function.
pub const FH_FLAG_MAPPED: u8 = 0x08;

/// A Slice NFS file handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fhandle(pub [u8; FH_SIZE]);

impl Fhandle {
    /// Mints a handle.
    pub fn new(file_id: u64, home_site: u32, flags: u8, cell_key: u64, generation: u16) -> Self {
        let mut b = [0u8; FH_SIZE];
        b[0] = FH_MAGIC;
        b[1] = flags;
        b[2..4].copy_from_slice(&generation.to_be_bytes());
        b[4..12].copy_from_slice(&file_id.to_be_bytes());
        b[12..20].copy_from_slice(&cell_key.to_be_bytes());
        b[20..24].copy_from_slice(&home_site.to_be_bytes());
        Fhandle(b)
    }

    /// The root directory handle of the (single, unified) Slice volume.
    pub fn root() -> Self {
        Fhandle::new(1, 0, FH_FLAG_DIR, 0, 0)
    }

    /// The file's unique id.
    pub fn file_id(&self) -> u64 {
        u64::from_be_bytes(self.0[4..12].try_into().expect("fixed slice"))
    }

    /// The MD5 cell key stamped at create time.
    pub fn cell_key(&self) -> u64 {
        u64::from_be_bytes(self.0[12..20].try_into().expect("fixed slice"))
    }

    /// The logical directory-server site that minted the handle (and holds
    /// the authoritative attribute cell).
    pub fn home_site(&self) -> u32 {
        u32::from_be_bytes(self.0[20..24].try_into().expect("fixed slice"))
    }

    /// Raw flag bits.
    pub fn flags(&self) -> u8 {
        self.0[1]
    }

    /// Handle generation (bumped when a fileID is reused).
    pub fn generation(&self) -> u16 {
        u16::from_be_bytes(self.0[2..4].try_into().expect("fixed slice"))
    }

    /// True for directory handles.
    pub fn is_dir(&self) -> bool {
        self.0[1] & FH_FLAG_DIR != 0
    }

    /// True for symlink handles.
    pub fn is_symlink(&self) -> bool {
        self.0[1] & FH_FLAG_SYMLINK != 0
    }

    /// True when file data is mirrored across storage nodes.
    pub fn is_mirrored(&self) -> bool {
        self.0[1] & FH_FLAG_MIRRORED != 0
    }

    /// True when block placement is governed by a coordinator block map.
    pub fn is_mapped(&self) -> bool {
        self.0[1] & FH_FLAG_MAPPED != 0
    }

    /// XDR-encodes as `opaque fhandle<>`.
    pub fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(&self.0);
    }

    /// Decodes an `opaque fhandle<>`; any length other than [`FH_SIZE`] is
    /// rejected as a bad handle.
    pub fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let raw = dec.get_opaque()?;
        let bytes: [u8; FH_SIZE] = raw.try_into().map_err(|_| XdrError::InvalidValue {
            what: "fhandle length",
            value: raw.len() as u32,
        })?;
        Ok(Fhandle(bytes))
    }
}

impl std::fmt::Debug for Fhandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fh(id={}, site={}, flags={:02x}, gen={})",
            self.file_id(),
            self.home_site(),
            self.flags(),
            self.generation()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_roundtrip() {
        let fh = Fhandle::new(
            0xdead_beef_cafe,
            7,
            FH_FLAG_DIR | FH_FLAG_MIRRORED,
            0x1234_5678,
            3,
        );
        assert_eq!(fh.0[0], FH_MAGIC);
        assert_eq!(fh.file_id(), 0xdead_beef_cafe);
        assert_eq!(fh.home_site(), 7);
        assert_eq!(fh.cell_key(), 0x1234_5678);
        assert_eq!(fh.generation(), 3);
        assert!(fh.is_dir());
        assert!(fh.is_mirrored());
        assert!(!fh.is_symlink());
    }

    #[test]
    fn xdr_roundtrip() {
        let fh = Fhandle::new(42, 1, 0, 99, 0);
        let mut e = XdrEncoder::new();
        fh.encode(&mut e);
        let b = e.into_bytes();
        assert_eq!(b.len(), 4 + FH_SIZE);
        let got = Fhandle::decode(&mut XdrDecoder::new(&b)).unwrap();
        assert_eq!(got, fh);
    }

    #[test]
    fn wrong_length_rejected() {
        let mut e = XdrEncoder::new();
        e.put_opaque(&[0u8; 16]);
        let b = e.into_bytes();
        assert!(Fhandle::decode(&mut XdrDecoder::new(&b)).is_err());
    }

    #[test]
    fn root_is_directory() {
        let r = Fhandle::root();
        assert!(r.is_dir());
        assert_eq!(r.0[0], FH_MAGIC);
        assert_eq!(r.file_id(), 1);
    }
}
