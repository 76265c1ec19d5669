//! Scripted workloads: a deterministic sequence of file-system steps,
//! each issued once the previous one answered and checked against its
//! reply. Integration tests, examples and the `slice-check` explorer's
//! generated scenarios all run through [`ScriptWorkload`].

use crate::client::{ClientIo, Workload};
use slice_nfsproto::{
    Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow, Windows,
};

/// A handle slot; slot 0 always holds the volume root.
pub type Slot = usize;

/// One scripted step.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Read the whole directory, page by page; with `expect`, it must
    /// hold exactly that many entries.
    Readdir {
        /// Directory slot.
        fh: Slot,
        /// Expected entry count, if asserted.
        expect: Option<usize>,
    },
}

/// Executes steps sequentially, validating each reply. One call is in
/// flight at a time, so program order is real-time order and a recorded
/// history is sequential.
pub struct ScriptWorkload {
    steps: Vec<Step>,
    pc: usize,
    slots: Vec<Option<Fhandle>>,
    /// Accumulated validation failures (empty on success).
    pub errors: Vec<String>,
    /// The step index of each call, in call order (a paged listing makes
    /// several calls for one step).
    pub issued: Vec<usize>,
    /// Steps skipped because a slot they name never bound.
    pub skipped: Vec<usize>,
    done: bool,
    /// Readdir pagination state.
    readdir_seen: usize,
    readdir_cookie: u64,
}

impl ScriptWorkload {
    /// Builds a script with `slots` handle slots (slot 0 = root); a save
    /// past the last one grows the table.
    pub fn new(steps: Vec<Step>, slots: usize) -> Self {
        let mut s = vec![None; slots.max(1)];
        s[0] = Some(Fhandle::root());
        ScriptWorkload {
            steps,
            pc: 0,
            slots: s,
            errors: Vec::new(),
            issued: Vec::new(),
            skipped: Vec::new(),
            done: false,
            readdir_seen: 0,
            readdir_cookie: 0,
        }
    }

    /// True when the script ran to completion without validation errors.
    pub fn passed(&self) -> bool {
        self.done && self.errors.is_empty()
    }

    /// The handle in `slot`, if it ever bound.
    fn fh(&self, slot: Slot) -> Option<Fhandle> {
        self.slots.get(slot).copied().flatten()
    }

    fn bind(&mut self, slot: Slot, fh: Fhandle) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, None);
        }
        self.slots[slot] = Some(fh);
    }

    /// The call `step` makes, or `None` when a slot it names never bound.
    fn request(&self, step: &Step) -> Option<NfsRequest> {
        Some(match step.clone() {
            Step::Mkdir { parent, name, .. } => NfsRequest::Mkdir {
                dir: self.fh(parent)?,
                name,
                attr: Sattr3::default(),
            },
            Step::Create {
                parent,
                name,
                mode_extra,
                ..
            } => NfsRequest::Create {
                dir: self.fh(parent)?,
                name,
                attr: Sattr3 {
                    mode: Some(0o644 | mode_extra),
                    ..Default::default()
                },
            },
            Step::Lookup { parent, name, .. } => NfsRequest::Lookup {
                dir: self.fh(parent)?,
                name,
            },
            Step::Write {
                fh,
                offset,
                len,
                pattern,
                stable,
            } => NfsRequest::Write {
                fh: self.fh(fh)?,
                offset,
                stable,
                data: vec![pattern; len as usize],
            },
            Step::Read {
                fh, offset, len, ..
            } => NfsRequest::Read {
                fh: self.fh(fh)?,
                offset,
                count: len,
            },
            Step::Commit { fh } => NfsRequest::Commit {
                fh: self.fh(fh)?,
                offset: 0,
                count: 0,
            },
            Step::Remove { parent, name } => NfsRequest::Remove {
                dir: self.fh(parent)?,
                name,
            },
            Step::Rmdir { parent, name } => NfsRequest::Rmdir {
                dir: self.fh(parent)?,
                name,
            },
            Step::Rename {
                from,
                from_name,
                to,
                to_name,
            } => NfsRequest::Rename {
                from_dir: self.fh(from)?,
                from_name,
                to_dir: self.fh(to)?,
                to_name,
            },
            Step::Getattr { fh, .. } => NfsRequest::Getattr { fh: self.fh(fh)? },
            Step::Setattr { fh, attr } => NfsRequest::Setattr {
                fh: self.fh(fh)?,
                attr,
            },
            Step::Link { fh, parent, name } => NfsRequest::Link {
                fh: self.fh(fh)?,
                dir: self.fh(parent)?,
                name,
            },
            Step::Symlink {
                parent,
                name,
                target,
                ..
            } => NfsRequest::Symlink {
                dir: self.fh(parent)?,
                name,
                target,
                attr: Sattr3::default(),
            },
            Step::Readlink { fh, .. } => NfsRequest::Readlink { fh: self.fh(fh)? },
            Step::Readdir { fh, .. } => NfsRequest::Readdir {
                dir: self.fh(fh)?,
                cookie: self.readdir_cookie,
                cookieverf: 0,
                count: 64 * 1024,
            },
        })
    }

    /// Issues the next step that can be issued. A step naming a slot that
    /// never bound is skipped and fails the script.
    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        while self.pc < self.steps.len() {
            if let Some(req) = self.request(&self.steps[self.pc]) {
                self.issued.push(self.pc);
                io.call(self.pc as u64, req);
                return;
            }
            self.skipped.push(self.pc);
            self.errors
                .push(format!("step {}: names a slot that never bound", self.pc));
            self.pc += 1;
        }
        self.done = true;
    }

    fn check(&mut self, reply: &NfsReply<Windows>) {
        let step = self.steps[self.pc].clone();
        let fail = |s: &mut Self, msg: String| {
            s.errors.push(format!("step {}: {msg}", s.pc));
        };
        match step {
            Step::Mkdir { save, name, .. } | Step::Create { save, name, .. } => {
                if reply.status != NfsStatus::Ok {
                    fail(self, format!("create/mkdir {name}: {:?}", reply.status));
                } else if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                    self.bind(save, *fh);
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
                        self.bind(save, *fh);
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
                        let mut bytes = data.iter().flat_map(|w| w.iter().copied()).enumerate();
                        if let Some((pos, b)) = bytes.find(|&(_, b)| b != p) {
                            fail(self, format!("read: byte {pos} is {b:#x}, wanted {p:#x}"));
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
                    self.bind(save, *fh);
                }
            }
            Step::Readlink { expect, .. } => match &reply.body {
                ReplyBody::Readlink { target } if *target == expect => {}
                other => fail(self, format!("readlink: {other:?}")),
            },
            Step::Readdir { expect, .. } => {
                if let ReplyBody::Readdir { entries, eof, .. } = &reply.body {
                    self.readdir_seen += entries.len();
                    if !eof {
                        // Page on: stay on this step, re-issued from the
                        // last cookie.
                        self.readdir_cookie = entries
                            .last()
                            .map(|e| e.cookie)
                            .unwrap_or(self.readdir_cookie);
                        return;
                    }
                    let seen = self.readdir_seen;
                    if let Some(want) = expect.filter(|&want| want != seen) {
                        fail(self, format!("readdir: {seen} entries, wanted {want}"));
                    }
                } else {
                    fail(self, format!("readdir: {:?}", reply.status));
                }
                self.readdir_seen = 0;
                self.readdir_cookie = 0;
            }
        }
        self.pc += 1;
    }
}

impl Workload for ScriptWorkload {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        debug_assert_eq!(tag as usize, self.pc, "replies arrive in order");
        self.check(reply);
        self.issue(io);
    }

    fn finished(&self) -> bool {
        self.done
    }
}
