//! Bulk sequential I/O: the `dd`-style workload of Table 2.
//!
//! Writes (or reads back) a large file in NFS-block-sized requests with a
//! bounded window of outstanding operations, reproducing the paper's
//! mount configuration: 32 KB NFS block size, read-ahead depth of four
//! blocks, asynchronous write-behind. Optionally creates the file with the
//! mirrored-striping policy bit.

use slice_core::{calib, ClientIo, Workload};
use slice_nfsproto::{
    ByteBuf, CallView, Fhandle, NfsReply, NfsRequest, ReplyBody, Sattr3, StableHow, Windows,
};
use slice_sim::SimTime;

/// Per-file policy bit: OR-ed into the create mode to request mirrored
/// striping (outside the POSIX 12-bit mode space).
pub const MODE_MIRRORED: u32 = 1 << 16;

/// Direction of the bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkMode {
    /// Create then stream writes, finishing with a commit.
    Write,
    /// Look up an existing file and stream reads.
    Read,
}

/// The bulk I/O workload.
pub struct BulkIo {
    mode: BulkMode,
    file_name: String,
    total: u64,
    block: u32,
    window: usize,
    mirrored: bool,
    /// A writer's data: one block of its fill byte, each WRITE a window
    /// of it.
    source: ByteBuf,
    fh: Option<Fhandle>,
    next_offset: u64,
    completed: u64,
    outstanding: usize,
    started: Option<SimTime>,
    finished_at: Option<SimTime>,
    committing: bool,
    done: bool,
}

impl BulkIo {
    /// A sequential writer of `total` bytes (paper: 1.25 GB, 32 KB blocks,
    /// write-behind window).
    pub fn writer(file_name: &str, total: u64, mirrored: bool) -> Self {
        BulkIo {
            mode: BulkMode::Write,
            file_name: file_name.to_string(),
            total,
            block: calib::NFS_BLOCK,
            window: calib::CLIENT_WRITE_WINDOW,
            mirrored,
            source: ByteBuf::from(vec![0x5a; calib::NFS_BLOCK as usize]),
            fh: None,
            next_offset: 0,
            completed: 0,
            outstanding: 0,
            started: None,
            finished_at: None,
            committing: false,
            done: false,
        }
    }

    /// A sequential reader of `total` bytes with the FreeBSD read-ahead
    /// bound of four blocks.
    pub fn reader(file_name: &str, total: u64) -> Self {
        BulkIo {
            mode: BulkMode::Read,
            file_name: file_name.to_string(),
            total,
            block: calib::NFS_BLOCK,
            window: calib::CLIENT_READAHEAD,
            mirrored: false,
            source: ByteBuf::default(),
            fh: None,
            next_offset: 0,
            completed: 0,
            outstanding: 0,
            started: None,
            finished_at: None,
            committing: false,
            done: false,
        }
    }

    /// Delivered bandwidth in bytes/second (available once finished).
    pub fn bandwidth(&self) -> Option<f64> {
        let (s, f) = (self.started?, self.finished_at?);
        let secs = (f - s).as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.total as f64 / secs)
    }

    fn pump(&mut self, io: &mut ClientIo<'_, '_>) {
        let fh = self.fh.expect("pump before setup");
        while self.outstanding < self.window && self.next_offset < self.total {
            let len = self.block.min((self.total - self.next_offset) as u32);
            let call = match self.mode {
                BulkMode::Write => CallView::Write {
                    fh,
                    offset: self.next_offset,
                    stable: StableHow::Unstable,
                    data: self.source.slice(0, len as usize).into(),
                },
                BulkMode::Read => CallView::Other(NfsRequest::Read {
                    fh,
                    offset: self.next_offset,
                    count: len,
                }),
            };
            io.send(1, call);
            self.next_offset += u64::from(len);
            self.outstanding += 1;
        }
        if self.outstanding == 0 && self.completed >= self.total {
            match self.mode {
                BulkMode::Write if !self.committing => {
                    self.committing = true;
                    io.call(
                        2,
                        NfsRequest::Commit {
                            fh,
                            offset: 0,
                            count: 0,
                        },
                    );
                }
                BulkMode::Read => {
                    self.finished_at = Some(io.now());
                    self.done = true;
                }
                _ => {}
            }
        }
    }
}

impl Workload for BulkIo {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        match self.mode {
            BulkMode::Write => {
                let mode_extra = if self.mirrored { MODE_MIRRORED } else { 0 };
                io.call(
                    0,
                    NfsRequest::Create {
                        dir: Fhandle::root(),
                        name: self.file_name.clone(),
                        attr: Sattr3 {
                            mode: Some(0o644 | mode_extra),
                            ..Default::default()
                        },
                    },
                );
            }
            BulkMode::Read => {
                io.call(
                    0,
                    NfsRequest::Lookup {
                        dir: Fhandle::root(),
                        name: self.file_name.clone(),
                    },
                );
            }
        }
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        match tag {
            0 => {
                // Setup finished: harvest the handle and start streaming.
                self.fh = match &reply.body {
                    ReplyBody::Create { fh } => *fh,
                    ReplyBody::Lookup { fh, .. } => Some(*fh),
                    _ => None,
                };
                assert!(self.fh.is_some(), "bulk setup failed: {:?}", reply.status);
                self.started = Some(io.now());
                self.pump(io);
            }
            1 => {
                self.outstanding -= 1;
                self.completed += u64::from(self.block);
                self.pump(io);
            }
            2 => {
                // Commit done: the write stream is stable.
                self.finished_at = Some(io.now());
                self.done = true;
            }
            _ => unreachable!("unknown tag"),
        }
    }

    fn finished(&self) -> bool {
        self.done
    }
}
