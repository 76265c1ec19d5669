//! The big-directory workload: every operation targets entries of one
//! shared directory.
//!
//! This is the workload class the paper introduces name hashing for:
//! "Mkdir switching ... binds large directories to a single server. For
//! workloads with very large directories, name hashing yields
//! probabilistically balanced request distributions independent of
//! workload" (§3.2). Under mkdir switching, every operation on the shared
//! directory routes to its home site; under name hashing the entries
//! spread over all sites.

use slice_core::{ClientIo, Workload};
use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, ReplyBody, Sattr3, Windows};
use slice_sim::SimTime;

/// One client process hammering a single shared directory.
pub struct BigDir {
    id: u64,
    files: u64,
    created: u64,
    looked_up: u64,
    dir: Option<Fhandle>,
    phase_create: bool,
    started: Option<SimTime>,
    finished_at: Option<SimTime>,
    done: bool,
}

impl BigDir {
    /// Creates a process that makes `files` entries in the shared
    /// directory `bigdir` (created by whichever process gets there first)
    /// and then looks each of them up once.
    pub fn new(id: u64, files: u64) -> Self {
        BigDir {
            id,
            files,
            created: 0,
            looked_up: 0,
            dir: None,
            phase_create: true,
            started: None,
            finished_at: None,
            done: false,
        }
    }

    /// Total elapsed time once finished.
    pub fn elapsed(&self) -> Option<slice_sim::SimDuration> {
        Some(self.finished_at? - self.started?)
    }

    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        let Some(dir) = self.dir else {
            io.call(
                0,
                NfsRequest::Mkdir {
                    dir: Fhandle::root(),
                    name: "bigdir".into(),
                    attr: Sattr3::default(),
                },
            );
            return;
        };
        if self.phase_create {
            io.call(
                1,
                NfsRequest::Create {
                    dir,
                    name: format!("p{}e{}", self.id, self.created),
                    attr: Sattr3 {
                        mode: Some(0o644),
                        ..Default::default()
                    },
                },
            );
        } else {
            io.call(
                2,
                NfsRequest::Lookup {
                    dir,
                    name: format!("p{}e{}", self.id, self.looked_up),
                },
            );
        }
    }
}

impl Workload for BigDir {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.started = Some(io.now());
        self.issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        match tag {
            0 => {
                // Mkdir result: either we created it or it already exists
                // (another process won the race); resolve via lookup.
                match &reply.body {
                    ReplyBody::Create { fh: Some(fh) } => self.dir = Some(*fh),
                    _ => {
                        io.call(
                            3,
                            NfsRequest::Lookup {
                                dir: Fhandle::root(),
                                name: "bigdir".into(),
                            },
                        );
                        return;
                    }
                }
            }
            3 => {
                if let ReplyBody::Lookup { fh, .. } = &reply.body {
                    self.dir = Some(*fh);
                }
            }
            1 => {
                self.created += 1;
                if self.created >= self.files {
                    self.phase_create = false;
                }
            }
            2 => {
                self.looked_up += 1;
                if self.looked_up >= self.files {
                    self.finished_at = Some(io.now());
                    self.done = true;
                    return;
                }
            }
            _ => {}
        }
        self.issue(io);
    }

    fn finished(&self) -> bool {
        self.done
    }
}
