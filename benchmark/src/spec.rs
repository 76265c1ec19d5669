//! The benchmark's metric and workload tables: names, units, direction
//! and regression bounds. `BENCHMARK.json` at the repository root states
//! the same tables for the driver; a unit test keeps the two equal.

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric with its regression bound (share of the parent's
/// median by which it may worsen).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `sim_*` units are simulated time, everything else is host.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// A per-layer metric (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix up to the first `.` is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// How long one run measures (`run_seconds` in `BENCHMARK.json`): the
/// frozen sizes give 2.0–2.6 s repetitions on the reference box, so a
/// run holds six or seven timed repetitions.
pub const RUN_SECONDS: u64 = 15;

/// The workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "untar_meta",
        "name-intensive: 3.4 M events of ~150-byte packets, so per-event and per-packet cost (engine, codec, uproxy, dirsvc) sets host time and dir-server CPU sets simulated time",
    ),
    (
        "bulk_mirror",
        "byte-intensive: 1 M events carrying ~5 GB of 32 KiB packets, so per-byte cost (checksum, buffers, pool, storage node) dominates and the engine and dirsvc do little",
    ),
    (
        "sfs_mix",
        "SPECsfs-like open-loop mix whose file set overflows the caches: the only load on smallfile, disk arms, LRU caches and timers",
    ),
    (
        "repair_mix",
        "crash, degraded I/O, resync, coded rebuild and join/drain with real bytes: the redundancy and repair paths clean bulk I/O never runs",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics. Each bound is about three times the widest spread
/// (interquartile distance over median of ten runs, a different seed
/// each) measured on the reference box, capped at the contract's 0.25:
/// for host metrics that is the shared box's noise, for simulated metrics
/// it is the variation of the inputs across *seeds* — for one seed they
/// repeat exactly, and `--compare` reports any drift at all.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_s", "s", Better::Lower, 0.25),
    e2e("host_peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("sim_ops_per_s", "ops/sim_s", Better::Higher, 0.15),
    e2e("sim_op_mean_ms", "sim_ms", Better::Lower, 0.15),
    e2e("sim_op_p99_ms", "sim_ms", Better::Lower, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics; layer = crate name.
pub const PER_LAYER: &[PerLayer] = &[
    // sim
    lo("sim.engine.events", "count"),
    lo("sim.engine.peak_live_events", "count"),
    lo("sim.engine.windows", "count"),
    lo("sim.engine.ns_per_event", "ns"),
    lo("sim.engine.timer_ns", "ns"),
    lo("sim.engine.budgeted_ns_per_event", "ns"),
    lo("sim.engine.host_ns_per_event", "ns"),
    lo("sim.shard.wall_ratio_2", "ratio"),
    lo("sim.shard.barrier_rounds", "count"),
    lo("sim.net.packets", "count"),
    lo("sim.net.bytes", "B"),
    lo("sim.net.dropped", "count"),
    hi("sim.pool.hits", "count"),
    lo("sim.pool.misses", "count"),
    hi("sim.pool.hit_ratio", "ratio"),
    hi("sim.pool.recycled_bytes", "B"),
    lo("sim.pool.held_bytes", "B"),
    lo("sim.pool.cycle_ns", "ns"),
    lo("sim.disk.submit_ns", "ns"),
    lo("sim.cache.op_ns", "ns"),
    lo("sim.util.client_cpu", "ratio"),
    lo("sim.util.dir_cpu", "ratio"),
    lo("sim.util.sf_cpu", "ratio"),
    lo("sim.util.storage_cpu", "ratio"),
    lo("sim.util.coord_cpu", "ratio"),
    lo("sim.util.disk_arm", "ratio"),
    // hashes, xdr
    lo("hashes.inet_checksum_ns_per_kb", "ns/KiB"),
    lo("hashes.incremental_update_ns", "ns"),
    lo("hashes.name_fingerprint_ns", "ns"),
    lo("xdr.roundtrip_ns_per_kb", "ns/KiB"),
    // nfsproto
    lo("nfsproto.encode_call_ns", "ns"),
    lo("nfsproto.decode_call_ns", "ns"),
    lo("nfsproto.encode_reply_ns", "ns"),
    lo("nfsproto.decode_reply_ns", "ns"),
    lo("nfsproto.packet_new_ns", "ns"),
    lo("nfsproto.packet_rewrite_ns", "ns"),
    lo("nfsproto.bytebuf.shallow_clones", "count"),
    lo("nfsproto.bytebuf.deep_copies", "count"),
    lo("nfsproto.bytebuf.deep_copy_bytes", "B"),
    // uproxy
    lo("uproxy.outbound_ns", "ns"),
    lo("uproxy.inbound_ns", "ns"),
    lo("uproxy.packets_out", "count"),
    lo("uproxy.packets_in", "count"),
    hi("uproxy.attr_cache.hit_ratio", "ratio"),
    lo("uproxy.soft_state_entries", "count"),
    lo("uproxy.ec.coded_writes", "count"),
    lo("uproxy.ec.degraded_reads", "count"),
    lo("uproxy.ec.reconstructed_bytes", "B"),
    lo("uproxy.ha.read_failovers", "count"),
    lo("uproxy.ha.degraded_writes", "count"),
    lo("uproxy.phase.intercept_ns", "ns"),
    lo("uproxy.phase.decode_ns", "ns"),
    lo("uproxy.phase.rewrite_ns", "ns"),
    lo("uproxy.phase.soft_ns", "ns"),
    lo("uproxy.phase.overhead_frac", "ratio"),
    // core
    hi("core.client.ops", "count"),
    lo("core.client.op_p50_ms", "sim_ms"),
    lo("core.client.retransmits", "count"),
    lo("core.client.timeouts", "count"),
    hi("core.client.bytes_read", "B"),
    hi("core.client.bytes_written", "B"),
    lo("core.ensemble.build_ns", "ns"),
    lo("core.ensemble.collect_obs_ns", "ns"),
    // dirsvc, smallfile
    lo("dirsvc.handle_nfs_ns", "ns"),
    lo("dirsvc.ops_served", "count"),
    lo("dirsvc.peer_ops", "count"),
    lo("dirsvc.multisite_ops", "count"),
    lo("dirsvc.wal.syncs", "count"),
    lo("smallfile.handle_nfs_ns", "ns"),
    lo("smallfile.served", "count"),
    hi("smallfile.cache_hit_ratio", "ratio"),
    lo("smallfile.alloc.spills", "B"),
    // storage
    lo("storage.node.handle_nfs_ns", "ns"),
    lo("storage.node.reads", "count"),
    lo("storage.node.writes", "count"),
    hi("storage.node.cache_hit_ratio", "ratio"),
    lo("storage.disk.seeks", "count"),
    hi("storage.disk.seq_hit_ratio", "ratio"),
    lo("storage.disk.bytes", "B"),
    lo("storage.object.write_ns_per_kb", "ns/KiB"),
    lo("storage.coord.handle_ns", "ns"),
    lo("storage.coord.wal.appends", "count"),
    lo("storage.coord.map_entries", "count"),
    lo("storage.coord.resync_bytes", "B"),
    lo("storage.coord.migrated_bytes", "B"),
    lo("storage.coord.dirty_ranges_left", "count"),
    // ec
    lo("ec.encode_ns_per_kb", "ns/KiB"),
    lo("ec.reconstruct_ns_per_kb", "ns/KiB"),
    lo("ec.update_parity_ns_per_kb", "ns/KiB"),
    // workload phases
    lo("repair.mirror.host_share", "ratio"),
    lo("repair.coded.host_share", "ratio"),
    lo("repair.migrate.host_share", "ratio"),
    lo("repair.mirror.resync_sim_s", "sim_s"),
    lo("repair.coded.rebuild_sim_s", "sim_s"),
    lo("repair.migrate.drain_sim_s", "sim_s"),
    lo("repair.failover_sim_ms", "sim_ms"),
    hi("sfs.sat_iops", "ops/sim_s"),
    // obs, check
    lo("obs.export_json_ns", "ns"),
    lo("check.oracles_ns", "ns"),
    // ledger and tracing
    lo("ledger.share.engine", "ratio"),
    lo("ledger.share.codec", "ratio"),
    lo("ledger.share.checksum", "ratio"),
    lo("ledger.share.uproxy", "ratio"),
    lo("ledger.share.servers", "ratio"),
    lo("ledger.share.ec", "ratio"),
    hi("ledger.attributed_frac", "ratio"),
    lo("trace.overhead_frac", "ratio"),
    lo("trace.spans", "count"),
    // failures and the cold first repetition
    lo("ops_failed_frac", "ratio"),
    lo("host.cold_rep_s", "s"),
];

/// The whole of `BENCHMARK.json`, generated from the tables above
/// (`run.sh --spec` prints it).
pub fn benchmark_json() -> crate::json::Value {
    use crate::json::Value;
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Per-layer metrics that are exact counts of one repetition: they must
/// be identical in every repetition of one seed, traced or not, and
/// `--compare` reports any difference between two sets at the same seed.
pub fn is_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.name == name && matches!(m.unit, "count" | "B"))
        && !matches!(
            name,
            "sim.shard.barrier_rounds" | "trace.spans" | "sim.pool.held_bytes"
        )
}

/// Counts that must be zero outside `repair_mix`: the redundancy and
/// repair paths are that workload's alone. (`core.client.retransmits` is
/// not among them: it also counts attribute write-backs the µproxy
/// re-pushed, and `sfs_mix` has a couple of those.)
pub const REPAIR_ONLY: [&str; 8] = [
    "uproxy.ec.coded_writes",
    "uproxy.ec.degraded_reads",
    "uproxy.ec.reconstructed_bytes",
    "uproxy.ha.read_failovers",
    "uproxy.ha.degraded_writes",
    "storage.coord.resync_bytes",
    "storage.coord.migrated_bytes",
    "sim.net.dropped",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc, benchmark_json(), "regenerate with `run.sh --spec`");
        assert!(text.len() <= 64 * 1024);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    /// Build settings change speed without changing code: the benchmark
    /// must be built exactly as the root workspace builds the crates.
    #[test]
    fn release_profile_equals_the_roots() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let text = std::fs::read_to_string(manifest).expect(manifest);
            let mut settings: Vec<String> = text
                .lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty())
                .map(|l| l.split_whitespace().collect::<String>())
                .collect();
            settings.sort();
            settings
        }
        let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let roots = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(
            !roots.is_empty(),
            "the root manifest has a [profile.release]"
        );
        assert_eq!(ours, roots);
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(ok_name(n) && seen.insert(n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{n}: why too long");
        }
        for m in END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for n in REPAIR_ONLY {
            assert!(is_count(n), "{n} must be a per-layer count");
        }
    }
}
