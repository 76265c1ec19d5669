//! The name-intensive `untar` benchmark (paper §5).
//!
//! "The benchmark repeatedly unpacks (untar) a set of zero-length files in
//! a directory tree that mimics the FreeBSD source distribution. Each file
//! create generates seven NFS operations: lookup, access, create, getattr,
//! lookup, setattr, setattr." Each process creates 36,000 files and
//! directories, generating ~250,000 NFS operations; the measured result is
//! the total latency perceived by the process (Figures 3 and 4).

use slice_core::{ClientIo, Workload};
use slice_nfsproto::{
    Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, SetTime, Windows,
};
use slice_sim::SimTime;

/// The FreeBSD-src-like tree shape: directories hold ~11 files each, with
/// a new subdirectory opened after every `FILES_PER_DIR` creations.
const FILES_PER_DIR: u64 = 12;

/// The seven-op create sequence indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Lookup1,
    Access,
    Create,
    Getattr,
    Lookup2,
    Setattr1,
    Setattr2,
    Mkdir,
}

/// One untar process.
pub struct Untar {
    /// Distinct namespace prefix (process id).
    id: u64,
    /// Total files + directories to create.
    target: u64,
    created: u64,
    cwd: Fhandle,
    cwd_path: u64,
    current_fh: Option<Fhandle>,
    phase: Phase,
    started: Option<SimTime>,
    finished_at: Option<SimTime>,
    done: bool,
    nfs_ops: u64,
}

impl Untar {
    /// Creates a process that will create `files` files/directories under
    /// a per-process subtree.
    pub fn new(id: u64, files: u64) -> Self {
        Untar {
            id,
            target: files,
            created: 0,
            cwd: Fhandle::root(),
            cwd_path: 0,
            current_fh: None,
            phase: Phase::Mkdir,
            started: None,
            finished_at: None,
            done: false,
            nfs_ops: 0,
        }
    }

    /// Total elapsed time (available once finished).
    pub fn elapsed(&self) -> Option<slice_sim::SimDuration> {
        Some(self.finished_at? - self.started?)
    }

    /// NFS operations issued.
    pub fn nfs_ops(&self) -> u64 {
        self.nfs_ops
    }

    fn file_name(&self) -> String {
        format!("p{}f{}.c", self.id, self.created)
    }

    fn dir_name(&self) -> String {
        format!("p{}d{}", self.id, self.created)
    }

    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        self.nfs_ops += 1;
        let req = match self.phase {
            Phase::Mkdir => NfsRequest::Mkdir {
                dir: self.cwd,
                name: self.dir_name(),
                attr: Sattr3::default(),
            },
            Phase::Lookup1 | Phase::Lookup2 => NfsRequest::Lookup {
                dir: self.cwd,
                name: self.file_name(),
            },
            Phase::Access => NfsRequest::Access {
                fh: self.cwd,
                mask: 0x3f,
            },
            Phase::Create => NfsRequest::Create {
                dir: self.cwd,
                name: self.file_name(),
                attr: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
            Phase::Getattr => NfsRequest::Getattr {
                fh: self.current_fh.expect("created file"),
            },
            Phase::Setattr1 => NfsRequest::Setattr {
                fh: self.current_fh.expect("created file"),
                attr: Sattr3 {
                    mtime: SetTime::ServerTime,
                    ..Default::default()
                },
            },
            Phase::Setattr2 => NfsRequest::Setattr {
                fh: self.current_fh.expect("created file"),
                attr: Sattr3 {
                    mode: Some(0o644),
                    atime: SetTime::ServerTime,
                    ..Default::default()
                },
            },
        };
        io.call(0, req);
    }

    fn advance(&mut self, reply: &NfsReply<Windows>) {
        self.phase = match self.phase {
            Phase::Mkdir => {
                if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                    self.cwd = *fh;
                    self.cwd_path += 1;
                }
                self.created += 1;
                Phase::Lookup1
            }
            Phase::Lookup1 => {
                debug_assert_eq!(reply.status, NfsStatus::NoEnt, "fresh name must be absent");
                Phase::Access
            }
            Phase::Access => Phase::Create,
            Phase::Create => {
                if let ReplyBody::Create { fh } = &reply.body {
                    self.current_fh = *fh;
                }
                Phase::Getattr
            }
            Phase::Getattr => Phase::Lookup2,
            Phase::Lookup2 => Phase::Setattr1,
            Phase::Setattr1 => Phase::Setattr2,
            Phase::Setattr2 => {
                self.created += 1;
                if self.created.is_multiple_of(FILES_PER_DIR) {
                    Phase::Mkdir
                } else {
                    Phase::Lookup1
                }
            }
        };
    }
}

impl Workload for Untar {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.started = Some(io.now());
        self.issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, _tag: u64, reply: &NfsReply<Windows>) {
        self.advance(reply);
        if self.created >= self.target {
            self.finished_at = Some(io.now());
            self.done = true;
            return;
        }
        self.issue(io);
    }

    fn finished(&self) -> bool {
        self.done
    }
}
