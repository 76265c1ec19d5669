//! Scripted workloads: a deterministic sequence of file-system steps with
//! built-in verification, used by integration tests and examples.

use slice_core::{ClientIo, Workload};
use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow};

/// A handle slot; slot 0 always holds the volume root.
pub type Slot = usize;

/// One scripted step.
#[derive(Debug, Clone)]
pub enum Step {
    /// Create a directory under `parent`, saving the handle in `save`.
    Mkdir {
        /// Parent slot.
        parent: Slot,
        /// New directory name.
        name: String,
        /// Slot to store the new handle.
        save: Slot,
    },
    /// Create a file under `parent`, saving the handle. A nonzero
    /// `mode_extra` is OR-ed into the create mode (e.g. the mirrored-file
    /// policy bit).
    Create {
        /// Parent slot.
        parent: Slot,
        /// New file name.
        name: String,
        /// Slot to store the new handle.
        save: Slot,
        /// Extra mode bits (per-file policy hook).
        mode_extra: u32,
    },
    /// Look up `name` under `parent`; expect success iff `expect_ok`.
    Lookup {
        /// Parent slot.
        parent: Slot,
        /// Name to resolve.
        name: String,
        /// Slot to store the resolved handle (when ok).
        save: Slot,
        /// Expected outcome.
        expect_ok: bool,
    },
    /// Write `len` bytes of `pattern` at `offset`.
    Write {
        /// File slot.
        fh: Slot,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u32,
        /// Fill byte.
        pattern: u8,
        /// Stability.
        stable: StableHow,
    },
    /// Read `len` bytes at `offset`; if `verify` is set, every byte must
    /// match.
    Read {
        /// File slot.
        fh: Slot,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u32,
        /// Expected fill byte.
        verify: Option<u8>,
    },
    /// Commit the file.
    Commit {
        /// File slot.
        fh: Slot,
    },
    /// Remove a name.
    Remove {
        /// Parent slot.
        parent: Slot,
        /// Victim name.
        name: String,
    },
    /// Remove a directory.
    Rmdir {
        /// Parent slot.
        parent: Slot,
        /// Victim name.
        name: String,
    },
    /// Rename.
    Rename {
        /// Source parent slot.
        from: Slot,
        /// Source name.
        from_name: String,
        /// Destination parent slot.
        to: Slot,
        /// Destination name.
        to_name: String,
    },
    /// Getattr; optionally assert the size.
    Getattr {
        /// File slot.
        fh: Slot,
        /// Expected size, if asserted.
        expect_size: Option<u64>,
    },
    /// Setattr (e.g. truncate).
    Setattr {
        /// File slot.
        fh: Slot,
        /// Attributes to set.
        attr: Sattr3,
    },
    /// Hard link `fh` as `name` under `parent`.
    Link {
        /// Existing file slot.
        fh: Slot,
        /// Parent slot.
        parent: Slot,
        /// New name.
        name: String,
    },
    /// Create a symlink.
    Symlink {
        /// Parent slot.
        parent: Slot,
        /// Link name.
        name: String,
        /// Target path.
        target: String,
        /// Slot to store the handle.
        save: Slot,
    },
    /// Readlink; verify the target.
    Readlink {
        /// Symlink slot.
        fh: Slot,
        /// Expected target.
        expect: String,
    },
    /// Read the whole directory, expecting exactly `expect` entries.
    ReaddirCount {
        /// Directory slot.
        fh: Slot,
        /// Expected entry count.
        expect: usize,
    },
}

/// Executes steps sequentially, validating each reply.
pub struct ScriptWorkload {
    steps: Vec<Step>,
    pc: usize,
    slots: Vec<Option<Fhandle>>,
    /// Accumulated validation failures (empty on success).
    pub errors: Vec<String>,
    /// Per-step client-observed latency, indexed like `steps`.
    pub step_latencies: Vec<slice_sim::SimDuration>,
    issued_at: Option<slice_sim::SimTime>,
    done: bool,
    /// Readdir pagination state.
    readdir_seen: usize,
    readdir_cookie: u64,
}

impl ScriptWorkload {
    /// Builds a script with `slots` handle slots (slot 0 = root).
    pub fn new(steps: Vec<Step>, slots: usize) -> Self {
        let mut s = vec![None; slots.max(1)];
        s[0] = Some(Fhandle::root());
        ScriptWorkload {
            steps,
            pc: 0,
            slots: s,
            errors: Vec::new(),
            step_latencies: Vec::new(),
            issued_at: None,
            done: false,
            readdir_seen: 0,
            readdir_cookie: 0,
        }
    }

    /// True when the script ran to completion without validation errors.
    pub fn passed(&self) -> bool {
        self.done && self.errors.is_empty()
    }

    fn fh(&self, slot: Slot) -> Fhandle {
        self.slots[slot].expect("script referenced an unset slot")
    }

    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        {
            if self.pc >= self.steps.len() {
                self.done = true;
                return;
            }
            let step = self.steps[self.pc].clone();
            let tag = self.pc as u64;
            let req = match step {
                Step::Mkdir { parent, name, .. } => NfsRequest::Mkdir {
                    dir: self.fh(parent),
                    name,
                    attr: Sattr3::default(),
                },
                Step::Create {
                    parent,
                    name,
                    mode_extra,
                    ..
                } => NfsRequest::Create {
                    dir: self.fh(parent),
                    name,
                    attr: Sattr3 {
                        mode: Some(0o644 | mode_extra),
                        ..Default::default()
                    },
                },
                Step::Lookup { parent, name, .. } => NfsRequest::Lookup {
                    dir: self.fh(parent),
                    name,
                },
                Step::Write {
                    fh,
                    offset,
                    len,
                    pattern,
                    stable,
                } => NfsRequest::Write {
                    fh: self.fh(fh),
                    offset,
                    stable,
                    data: vec![pattern; len as usize],
                },
                Step::Read {
                    fh, offset, len, ..
                } => NfsRequest::Read {
                    fh: self.fh(fh),
                    offset,
                    count: len,
                },
                Step::Commit { fh } => NfsRequest::Commit {
                    fh: self.fh(fh),
                    offset: 0,
                    count: 0,
                },
                Step::Remove { parent, name } => NfsRequest::Remove {
                    dir: self.fh(parent),
                    name,
                },
                Step::Rmdir { parent, name } => NfsRequest::Rmdir {
                    dir: self.fh(parent),
                    name,
                },
                Step::Rename {
                    from,
                    from_name,
                    to,
                    to_name,
                } => NfsRequest::Rename {
                    from_dir: self.fh(from),
                    from_name,
                    to_dir: self.fh(to),
                    to_name,
                },
                Step::Getattr { fh, .. } => NfsRequest::Getattr { fh: self.fh(fh) },
                Step::Setattr { fh, attr } => NfsRequest::Setattr {
                    fh: self.fh(fh),
                    attr,
                },
                Step::Link { fh, parent, name } => NfsRequest::Link {
                    fh: self.fh(fh),
                    dir: self.fh(parent),
                    name,
                },
                Step::Symlink {
                    parent,
                    name,
                    target,
                    ..
                } => NfsRequest::Symlink {
                    dir: self.fh(parent),
                    name,
                    target,
                    attr: Sattr3::default(),
                },
                Step::Readlink { fh, .. } => NfsRequest::Readlink { fh: self.fh(fh) },
                Step::ReaddirCount { fh, .. } => NfsRequest::Readdir {
                    dir: self.fh(fh),
                    cookie: self.readdir_cookie,
                    cookieverf: 0,
                    count: 8192,
                },
            };
            self.issued_at = Some(io.now());
            io.call(tag, req);
        }
    }

    fn check(&mut self, reply: &NfsReply) {
        let step = self.steps[self.pc].clone();
        let fail = |s: &mut Self, msg: String| {
            s.errors.push(format!("step {}: {msg}", s.pc));
        };
        match step {
            Step::Mkdir { save, name, .. } | Step::Create { save, name, .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("create/mkdir {name}: {:?}", reply.status));
                } else if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                    self.slots[save] = Some(*fh);
                } else {
                    fail(self, format!("create/mkdir {name}: no handle"));
                }
            }
            Step::Lookup {
                save,
                name,
                expect_ok,
                ..
            } => {
                let ok = reply.status == NfsStatus::Ok;
                if ok != expect_ok {
                    fail(self, format!("lookup {name}: status {:?}", reply.status));
                } else if ok {
                    if let ReplyBody::Lookup { fh, .. } = &reply.body {
                        self.slots[save] = Some(*fh);
                    }
                }
            }
            Step::Write { len, .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("write: {:?}", reply.status));
                } else if let ReplyBody::Write { count, .. } = &reply.body {
                    if *count != len {
                        fail(self, format!("write: short ({count} of {len})"));
                    }
                }
            }
            Step::Read { len, verify, .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("read: {:?}", reply.status));
                } else if let ReplyBody::Read { data, .. } = &reply.body {
                    if data.len() != len as usize {
                        fail(self, format!("read: got {} of {len}", data.len()));
                    } else if let Some(p) = verify {
                        if let Some(pos) = data.iter().position(|&b| b != p) {
                            fail(
                                self,
                                format!("read: byte {pos} is {:#x}, wanted {p:#x}", data[pos]),
                            );
                        }
                    }
                }
            }
            Step::Commit { .. }
            | Step::Remove { .. }
            | Step::Rmdir { .. }
            | Step::Rename { .. }
            | Step::Setattr { .. }
            | Step::Link { .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("{step:?}: {:?}", reply.status));
                }
            }
            Step::Getattr { expect_size, .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("getattr: {:?}", reply.status));
                } else if let (Some(want), Some(attr)) = (expect_size, reply.attr.as_ref()) {
                    if attr.size != want {
                        fail(self, format!("getattr: size {} wanted {want}", attr.size));
                    }
                }
            }
            Step::Symlink { save, .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("symlink: {:?}", reply.status));
                } else if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                    self.slots[save] = Some(*fh);
                }
            }
            Step::Readlink { expect, .. } => match &reply.body {
                ReplyBody::Readlink { target } if *target == expect => {}
                other => fail(self, format!("readlink: {other:?}")),
            },
            Step::ReaddirCount { expect, .. } => {
                if let ReplyBody::Readdir { entries, eof, .. } = &reply.body {
                    self.readdir_seen += entries.len();
                    if !eof {
                        // Continue paging: stay on this step.
                        self.readdir_cookie = entries
                            .last()
                            .map(|e| e.cookie)
                            .unwrap_or(self.readdir_cookie);
                        return; // pc unchanged; re-issue below
                    }
                    if self.readdir_seen != expect {
                        fail(
                            self,
                            format!("readdir: {} entries, wanted {expect}", self.readdir_seen),
                        );
                    }
                    self.readdir_seen = 0;
                    self.readdir_cookie = 0;
                } else {
                    fail(self, format!("readdir: {:?}", reply.status));
                }
            }
        }
        self.pc += 1;
    }
}

impl Workload for ScriptWorkload {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply) {
        debug_assert_eq!(tag as usize, self.pc, "replies arrive in order");
        if let Some(t0) = self.issued_at.take() {
            self.step_latencies.push(io.now() - t0);
        }
        self.check(reply);
        if !self.done {
            self.issue(io);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.done
    }
}
