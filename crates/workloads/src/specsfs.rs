//! A SPECsfs97-like workload generator (Figures 5 and 6).
//!
//! SPECsfs97 is a licensed benchmark we cannot ship; this generator
//! reproduces its documented structure: the published SFS97 NFS V3
//! operation mix, a file set skewed heavily toward small files (94 % of
//! files at or below 64 KB), self-scaling file-set size proportional to
//! the offered load, an unmeasured setup phase that creates and populates
//! the file set, open-loop request arrivals at the offered rate, and
//! scoring by delivered throughput (IOPS) and mean latency over a
//! measurement window.
//!
//! One deliberate scale substitution (recorded in DESIGN.md): the paper-era
//! benchmark sizes the file set at ~10 MB per offered op/s; we default to
//! [`SpecSfsConfig::fileset_bytes_per_ops`] = 1 MB per op/s and shrink the
//! server caches proportionally in the harness, preserving the
//! cache-overflow behaviour that shapes Figure 6 at a simulation-friendly
//! scale.

use slice_core::{ClientIo, Workload, THRESHOLD};
use slice_nfsproto::{
    ByteBuf, CallView, Fhandle, NfsProc, NfsReply, NfsRequest, ReplyBody, Sattr3, StableHow,
    Windows,
};
use slice_sim::{FxHashMap, LatencyStats, SimDuration, SimTime};

/// The SFS97 NFS V3 operation mix (percent).
pub const SFS97_MIX: &[(NfsProc, u32)] = &[
    (NfsProc::Lookup, 27),
    (NfsProc::Read, 18),
    (NfsProc::Getattr, 11),
    (NfsProc::Readdirplus, 9),
    (NfsProc::Write, 9),
    (NfsProc::Access, 7),
    (NfsProc::Readlink, 7),
    (NfsProc::Commit, 5),
    (NfsProc::Readdir, 2),
    (NfsProc::Fsstat, 2),
    (NfsProc::Create, 1),
    (NfsProc::Remove, 1),
    (NfsProc::Setattr, 1),
];

/// Configuration for one SPECsfs-like client process.
#[derive(Debug, Clone)]
pub struct SpecSfsConfig {
    /// Distinct process id (namespaces the file set).
    pub id: u64,
    /// Offered load, operations per second.
    pub offered_ops_per_sec: f64,
    /// Unmeasured warm-up after setup.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// File-set bytes per offered op/s (see module docs).
    pub fileset_bytes_per_ops: u64,
    /// Maximum operations in flight.
    pub max_outstanding: usize,
}

impl SpecSfsConfig {
    /// A process offering `ops_per_sec`.
    pub fn new(id: u64, ops_per_sec: f64) -> Self {
        SpecSfsConfig {
            id,
            offered_ops_per_sec: ops_per_sec,
            warmup: SimDuration::from_secs(5),
            measure: SimDuration::from_secs(20),
            fileset_bytes_per_ops: 1024 * 1024,
            max_outstanding: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    SetupDirs,
    SetupFiles,
    Running,
    Done,
}

/// One SPECsfs-like process.
pub struct SpecSfs {
    cfg: SpecSfsConfig,
    stage: Stage,
    dirs: Vec<Fhandle>,
    files: Vec<(Fhandle, u32)>, // handle, size
    symlinks: Vec<Fhandle>,
    file_sizes: Vec<u32>,
    setup_ix: usize,
    setup_dir_target: usize,
    outstanding: usize,
    queued_arrivals: u64,
    run_started: Option<SimTime>,
    measure_started: Option<SimTime>,
    /// Latency of measured operations.
    pub latency: LatencyStats,
    measured_ops: u64,
    issued_ops: u64,
    dynamic_names: u64,
    removable: Vec<(Fhandle, String)>, // (parent dir, name)
    inflight: FxHashMap<u64, (SimTime, bool)>,
    /// One block of the fill byte; every measured WRITE is a window of it.
    source: ByteBuf,
}

impl SpecSfs {
    /// Creates a process from `cfg`.
    pub fn new(cfg: SpecSfsConfig) -> Self {
        // Self-scaling file set: bytes proportional to offered load, sizes
        // skewed so 94 % of files are <= 64 KB (about 24 % of the bytes in
        // the larger 6 %... the paper reports 24 % of bytes accessed in
        // small files; we keep the documented 94 % count skew).
        let total_bytes = (cfg.offered_ops_per_sec * cfg.fileset_bytes_per_ops as f64) as u64;
        let mut sizes = Vec::new();
        let mut acc = 0u64;
        let mut k = 0u64;
        while acc < total_bytes {
            let size: u32 = if k % 50 < 47 {
                // Small file: 1 KB .. 64 KB, deterministic spread.
                1024 + ((k * 7919) % 63) as u32 * 1024
            } else {
                // Large file: 128 KB .. 512 KB.
                128 * 1024 + ((k * 104729) % 4) as u32 * 128 * 1024
            };
            acc += u64::from(size);
            sizes.push(size);
            k += 1;
        }
        let n_files = sizes.len().max(8);
        sizes.resize(n_files, 8192);
        let dir_target = (n_files / 16).clamp(1, 256);
        SpecSfs {
            cfg,
            stage: Stage::SetupDirs,
            dirs: Vec::new(),
            files: Vec::with_capacity(n_files),
            symlinks: Vec::new(),
            file_sizes: sizes,
            setup_ix: 0,
            setup_dir_target: dir_target,
            outstanding: 0,
            queued_arrivals: 0,
            run_started: None,
            measure_started: None,
            latency: LatencyStats::new(),
            measured_ops: 0,
            issued_ops: 0,
            dynamic_names: 0,
            removable: Vec::new(),
            inflight: FxHashMap::default(),
            source: ByteBuf::from(vec![0x5a; 8192]),
        }
    }

    /// Delivered throughput over the measurement window, ops/second.
    pub fn delivered_iops(&self, now: SimTime) -> f64 {
        match self.measure_started {
            Some(start) => {
                let end = (start + self.cfg.measure).min(now);
                let secs = (end - start).as_secs_f64();
                if secs <= 0.0 {
                    0.0
                } else {
                    self.measured_ops as f64 / secs
                }
            }
            None => 0.0,
        }
    }

    /// (delivered IOPS, mean latency ms, measured samples) — the scoring
    /// triple a harness aggregates across processes.
    pub fn summary(&self, now: SimTime) -> (f64, f64, usize) {
        (
            self.delivered_iops(now),
            self.latency.mean().as_secs_f64() * 1e3,
            self.latency.count(),
        )
    }

    fn setup_issue(&mut self, io: &mut ClientIo<'_, '_>) {
        match self.stage {
            Stage::SetupDirs => {
                let name = format!("sfs{}d{}", self.cfg.id, self.dirs.len());
                io.call(
                    0,
                    NfsRequest::Mkdir {
                        dir: Fhandle::root(),
                        name,
                        attr: Sattr3::default(),
                    },
                );
            }
            Stage::SetupFiles => {
                let ix = self.setup_ix;
                if ix % 64 == 63 {
                    // Sprinkle symlinks for the readlink mix component.
                    let dir = self.dirs[ix % self.dirs.len()];
                    io.call(
                        2,
                        NfsRequest::Symlink {
                            dir,
                            name: format!("sfs{}l{}", self.cfg.id, ix),
                            target: "target/elsewhere".into(),
                            attr: Sattr3::default(),
                        },
                    );
                } else {
                    let dir = self.dirs[ix % self.dirs.len()];
                    io.call(
                        1,
                        NfsRequest::Create {
                            dir,
                            name: format!("sfs{}f{}", self.cfg.id, ix),
                            attr: Sattr3 {
                                mode: Some(0o644),
                                ..Default::default()
                            },
                        },
                    );
                }
            }
            _ => {}
        }
    }

    fn schedule_next_arrival(&mut self, io: &mut ClientIo<'_, '_>) {
        // Exponential interarrival at the offered rate.
        let u: f64 = io.rng().gen_range(1e-9..1.0);
        let gap = -u.ln() / self.cfg.offered_ops_per_sec;
        io.wake_in(SimDuration::from_secs_f64(gap));
    }

    fn pick_op(&mut self, io: &mut ClientIo<'_, '_>) -> CallView<Windows> {
        let total: u32 = SFS97_MIX.iter().map(|(_, w)| w).sum();
        let mut roll = io.rng().gen_range(0..total);
        let mut proc = NfsProc::Lookup;
        for (p, w) in SFS97_MIX {
            if roll < *w {
                proc = *p;
                break;
            }
            roll -= w;
        }
        let fi = io.rng().gen_range(0..self.files.len());
        let (fh, size) = self.files[fi];
        let di = io.rng().gen_range(0..self.dirs.len());
        let dir = self.dirs[di];
        CallView::Other(match proc {
            NfsProc::Lookup => NfsRequest::Lookup {
                dir,
                name: format!("sfs{}probe{}", self.cfg.id, io.rng().gen_range(0..1000u32)),
            },
            NfsProc::Read => {
                let blocks = (size / 8192).max(1);
                let block = io.rng().gen_range(0..blocks);
                NfsRequest::Read {
                    fh,
                    offset: u64::from(block) * 8192,
                    count: 8192,
                }
            }
            NfsProc::Write => {
                let blocks = (size / 8192).max(1);
                let block = io.rng().gen_range(0..blocks);
                return CallView::Write {
                    fh,
                    offset: u64::from(block) * 8192,
                    stable: StableHow::Unstable,
                    data: self.source.clone().into(),
                };
            }
            NfsProc::Getattr => NfsRequest::Getattr { fh },
            NfsProc::Setattr => NfsRequest::Setattr {
                fh,
                attr: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
            NfsProc::Access => NfsRequest::Access { fh, mask: 0x3f },
            NfsProc::Readlink => {
                let l = self.symlinks[io.rng().gen_range(0..self.symlinks.len())];
                NfsRequest::Readlink { fh: l }
            }
            NfsProc::Readdir => NfsRequest::Readdir {
                dir,
                cookie: 0,
                cookieverf: 0,
                count: 4096,
            },
            NfsProc::Readdirplus => NfsRequest::Readdirplus {
                dir,
                cookie: 0,
                cookieverf: 0,
                dircount: 1024,
                maxcount: 4096,
            },
            NfsProc::Fsstat => NfsRequest::Fsstat {
                fh: Fhandle::root(),
            },
            NfsProc::Commit => NfsRequest::Commit {
                fh,
                offset: 0,
                count: 0,
            },
            NfsProc::Create => {
                self.dynamic_names += 1;
                let name = format!("sfs{}dyn{}", self.cfg.id, self.dynamic_names);
                self.removable.push((dir, name.clone()));
                NfsRequest::Create {
                    dir,
                    name,
                    attr: Sattr3 {
                        mode: Some(0o644),
                        ..Default::default()
                    },
                }
            }
            NfsProc::Remove => match self.removable.pop() {
                Some((d, name)) => NfsRequest::Remove { dir: d, name },
                None => NfsRequest::Getattr { fh },
            },
            _ => NfsRequest::Getattr { fh },
        })
    }

    fn run_issue(&mut self, io: &mut ClientIo<'_, '_>) {
        while self.queued_arrivals > 0 && self.outstanding < self.cfg.max_outstanding {
            self.queued_arrivals -= 1;
            let call = self.pick_op(io);
            self.outstanding += 1;
            self.issued_ops += 1;
            let measured = self
                .measure_started
                .map(|s| io.now() >= s && io.now() < s + self.cfg.measure)
                .unwrap_or(false);
            let tag = 1000 + self.issued_ops;
            self.inflight.insert(tag, (io.now(), measured));
            io.send(tag, call);
        }
    }
}

impl Workload for SpecSfs {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.setup_issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        match self.stage {
            Stage::SetupDirs => {
                if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                    self.dirs.push(*fh);
                }
                if self.dirs.len() >= self.setup_dir_target {
                    self.stage = Stage::SetupFiles;
                }
                self.setup_issue(io);
            }
            Stage::SetupFiles => {
                match tag {
                    1 => {
                        if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                            let size = self.file_sizes[self.setup_ix];
                            self.files.push((*fh, size));
                            // Populate: one write covering the below-
                            // threshold region (contents don't matter),
                            // windows of the shared zero buffer.
                            let mut data = Windows::default();
                            data.push_zeros(u64::from(size).min(THRESHOLD) as usize);
                            io.send(
                                3,
                                CallView::Write {
                                    fh: *fh,
                                    offset: 0,
                                    stable: StableHow::FileSync,
                                    data,
                                },
                            );
                            return; // next create issued when the write lands
                        }
                        self.advance_setup(io);
                    }
                    2 => {
                        if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                            self.symlinks.push(*fh);
                        }
                        self.advance_setup(io);
                    }
                    3 => {
                        self.advance_setup(io);
                    }
                    _ => {}
                }
            }
            Stage::Running => {
                self.outstanding = self.outstanding.saturating_sub(1);
                if let Some((issued_at, measured)) = self.inflight.remove(&tag) {
                    if measured {
                        self.measured_ops += 1;
                        self.latency.record(io.now() - issued_at);
                    }
                }
                if io.now()
                    >= self
                        .measure_started
                        .map(|s| s + self.cfg.measure)
                        .unwrap_or(SimTime::MAX)
                {
                    self.stage = Stage::Done;
                    return;
                }
                self.run_issue(io);
            }
            Stage::Done => {}
        }
    }

    fn on_wake(&mut self, io: &mut ClientIo<'_, '_>) {
        if self.stage != Stage::Running {
            return;
        }
        if io.now()
            >= self
                .measure_started
                .map(|s| s + self.cfg.measure)
                .unwrap_or(SimTime::MAX)
        {
            self.stage = Stage::Done;
            return;
        }
        self.queued_arrivals += 1;
        self.schedule_next_arrival(io);
        self.run_issue(io);
    }

    fn finished(&self) -> bool {
        self.stage == Stage::Done
    }
}

impl SpecSfs {
    fn advance_setup(&mut self, io: &mut ClientIo<'_, '_>) {
        self.setup_ix += 1;
        if self.setup_ix >= self.file_sizes.len() {
            // Setup complete: begin the run.
            self.stage = Stage::Running;
            if self.symlinks.is_empty() {
                // Guarantee at least one symlink for the readlink mix.
                self.symlinks.push(self.files[0].0);
            }
            self.run_started = Some(io.now());
            self.measure_started = Some(io.now() + self.cfg.warmup);
            self.schedule_next_arrival(io);
            return;
        }
        self.setup_issue(io);
    }
}
