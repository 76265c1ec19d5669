//! One workload, start to finish: set-up samples, warm-up, timed
//! repetitions, the traced repetition with its oracle pass, the layer
//! probes, the ledger, the output checks, and the result files.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use slice_check::state;
use slice_core::SliceEnsemble;

use crate::json::Value;
use crate::probes::{self, Budget};
use crate::scenario::{self, Drive, Kind, Rep, Scale};
use crate::spans::Recorder;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed repetitions measure, seconds.
    pub seconds: f64,
    /// `Some(false)`: end-to-end metrics only (`--trace 0`).
    /// `Some(true)`: per-layer metrics only (`--trace 1`).
    /// `None`: both, as one result set needs.
    pub trace: Option<bool>,
    /// About 1/20 size (tests).
    pub smoke: bool,
    /// Where `result-<workload>.json` and `trace-<workload>.json` go.
    pub out: PathBuf,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was wrong (empty when it held).
    pub detail: String,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median where there are samples).
    pub value: f64,
    /// The samples behind the value (host metrics only).
    pub samples: Vec<f64>,
}

/// Everything one workload's run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Client ops attempted in one repetition.
    pub attempted: u64,
    /// Client ops failed in one repetition.
    pub failed: u64,
    /// End-to-end metrics (empty under `--trace 1`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty under `--trace 0`).
    pub per_layer: Vec<Metric>,
    /// The checks.
    pub checks: Vec<Check>,
}

/// `setup_s` is the median of this many set-ups.
const SETUP_SAMPLES: usize = 7;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Checks(Vec<Check>);

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }
}

/// The exact quantities of a repetition that every other repetition of
/// the seed must reproduce.
fn fingerprint(rep: &Rep) -> BTreeMap<String, f64> {
    let mut f: BTreeMap<String, f64> = rep
        .counts
        .iter()
        // What the pool holds when a repetition starts is what the one
        // before left behind, so its counters settle one repetition later
        // than everything else (see `pool_counts`).
        .filter(|(k, _)| !k.starts_with("sim.pool."))
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    for (k, v) in &rep.sim_phase {
        f.insert(k.to_string(), *v);
    }
    f.insert("sim_ops_per_s".into(), rep.sim_ops_per_s);
    f.insert("sim_op_mean_ms".into(), rep.sim_op_mean_ms);
    f.insert("sim_op_p50_ms".into(), rep.sim_op_p50_ms);
    f.insert("sim_op_p99_ms".into(), rep.sim_op_p99_ms);
    f.insert("latency_samples".into(), rep.latency_samples as f64);
    f.insert("attempted".into(), rep.attempted as f64);
    f.insert("failed".into(), rep.failed as f64);
    f
}

fn first_differences(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> String {
    let mut out: Vec<String> = a
        .iter()
        .filter(|(k, v)| b.get(*k) != Some(v))
        .take(4)
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
        .collect();
    if a.len() != b.len() {
        out.push(format!("{} vs {} quantities", a.len(), b.len()));
    }
    out.join("; ")
}

/// Runs the structural oracles on a finished ensemble. `check_structural`
/// covers the directory service, block maps, attribute caches, mirror
/// convergence (`check_mirror_convergence`) and coded reconstruction
/// (`check_coded_reconstruction`).
fn oracles(ens: &SliceEnsemble, drained: &[usize]) -> Vec<String> {
    let mut v = state::check_structural(ens);
    if !drained.is_empty() {
        v.extend(state::check_drained(ens, drained));
    }
    v.iter().map(ToString::to_string).collect()
}

/// One untraced repetition.
fn plain_rep(opts: &Options, scale: &Scale, shards: usize) -> Rep {
    scenario::run_rep(
        opts.kind,
        opts.seed,
        scale,
        shards,
        &mut Drive::Plain,
        &mut |_, _, _| {},
    )
}

/// Runs one workload as `opts` asks and writes its result files.
pub fn run(opts: &Options, process_start: Instant) -> Outcome {
    let kind = opts.kind;
    let scale = if opts.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let timed = opts.trace != Some(true);
    let layered = opts.trace != Some(false);
    let mut checks = Checks(Vec::new());

    // Set-up, several times over: the median is `setup_s`. Building an
    // ensemble alone takes tens of microseconds and mostly measures the
    // allocator's mood, so one set-up is what the benchmark really does
    // before it can measure: build the scenario from the seed, start it,
    // and run a 1/20-size pass of it to warm the process up.
    let small = Scale::smoke();
    let setup_samples: Vec<f64> = (0..if timed { SETUP_SAMPLES } else { 0 })
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(plain_rep(opts, &small, 1).attempted);
            t.elapsed().as_secs_f64()
        })
        .collect();

    // Full-size warm-up: first-touch page faults at the real footprint.
    let warm = plain_rep(opts, &scale, 1);
    let cold_s = process_start.elapsed().as_secs_f64();
    let cold_rep_s = warm.host_s;
    let reference = fingerprint(&warm);
    drop(warm);

    // Timed repetitions of the identical scenario, tracing off.
    let min_reps = match (timed, opts.smoke) {
        (false, _) => 1,
        (true, true) => 2,
        (true, false) => 5,
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < min_reps || (timed && measured < opts.seconds) {
        let rep = plain_rep(opts, &scale, 1);
        measured += rep.host_s;
        reps.push(rep);
    }
    let rss_mb = peak_rss_mb();
    let host_samples: Vec<f64> = reps.iter().map(|r| r.host_s).collect();
    let host_s = stats::median(&host_samples);
    let first = &reps[0];
    let drifted: Vec<String> = reps
        .iter()
        .enumerate()
        .map(|(i, rep)| (i, fingerprint(rep)))
        .filter(|(_, f)| f != &reference)
        .map(|(i, f)| format!("rep {}: {}", i + 1, first_differences(&reference, &f)))
        .collect();
    checks.add(
        &format!(
            "all {} repetitions (warm-up included) agree on every count, op and latency quantile",
            reps.len() + 1
        ),
        drifted.is_empty(),
        || drifted.join(" | "),
    );
    let pool_counts = |rep: &Rep| -> Vec<f64> {
        [
            "sim.pool.hits",
            "sim.pool.misses",
            "sim.pool.recycled_bytes",
        ]
        .iter()
        .map(|k| rep.counts[k])
        .collect()
    };
    let steady = reps.last().expect("at least one repetition");
    checks.add(
        "pool counters repeat once the pool is warm (second timed repetition on)",
        reps.iter()
            .skip(1)
            .all(|r| pool_counts(r) == pool_counts(steady)),
        || format!("{:?}", reps.iter().map(pool_counts).collect::<Vec<_>>()),
    );
    checks.add(
        "every client finished",
        first.unfinished_clients == 0,
        || format!("{} clients unfinished", first.unfinished_clients),
    );
    checks.add("no client op failed", first.failed == 0, || {
        format!("{} of {} ops failed", first.failed, first.attempted)
    });
    if kind != Kind::RepairMix {
        let stray: Vec<String> = spec::REPAIR_ONLY
            .iter()
            .filter(|k| first.counts.get(*k).copied().unwrap_or(0.0) != 0.0)
            .map(|k| format!("{k} = {}", first.counts[k]))
            .collect();
        checks.add(
            "redundancy and repair counts are zero off repair_mix",
            stray.is_empty(),
            || stray.join(", "),
        );
    } else {
        checks.add(
            "repair left no dirty range or pending migration",
            first.counts["storage.coord.dirty_ranges_left"] == 0.0,
            || {
                format!(
                    "{} dirty ranges left",
                    first.counts["storage.coord.dirty_ranges_left"]
                )
            },
        );
        let repaired = ["storage.coord.resync_bytes", "storage.coord.migrated_bytes"]
            .iter()
            .all(|k| first.counts[k] > 0.0)
            && first.counts["uproxy.ec.degraded_reads"] > 0.0;
        checks.add(
            "repair_mix exercised resync, migration and degraded reads",
            repaired,
            || "a repair path moved no bytes".into(),
        );
    }

    let mut end_to_end = Vec::new();
    if timed {
        let setup_s = stats::median(&setup_samples);
        for m in END_TO_END {
            let (value, samples) = match m.name {
                "setup_s" => (setup_s, setup_samples.clone()),
                "host_s" => (host_s, host_samples.clone()),
                "host_peak_rss_mb" => (rss_mb, vec![rss_mb]),
                "sim_ops_per_s" => (first.sim_ops_per_s, vec![]),
                "sim_op_mean_ms" => (first.sim_op_mean_ms, vec![]),
                "sim_op_p99_ms" => (first.sim_op_p99_ms, vec![]),
                other => unreachable!("unreported end-to-end metric {other}"),
            };
            end_to_end.push(Metric {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            });
        }
    }

    let mut per_layer = Vec::new();
    let mut recorder = Recorder::new();
    if layered {
        let budget = Budget {
            // 50 ms batches at the full 15 s run, scaled with `--seconds`.
            batch: Duration::from_secs_f64(
                (0.050 * opts.seconds / spec::RUN_SECONDS as f64).clamp(0.0005, 0.050),
            ),
        };
        let layer = layers(
            opts,
            &scale,
            budget,
            first,
            steady,
            host_s,
            cold_rep_s,
            &reference,
            &mut recorder,
            &mut checks,
        );
        for m in PER_LAYER {
            per_layer.push(Metric {
                name: m.name,
                unit: m.unit,
                value: layer.get(m.name).copied().unwrap_or(0.0),
                samples: vec![],
            });
        }
    }

    let outcome = Outcome {
        correct: checks.0.iter().all(|c| c.ok),
        attempted: first.attempted.max(1),
        failed: first.failed,
        end_to_end,
        per_layer,
        checks: checks.0,
    };
    report(opts, &outcome, first, &host_samples, cold_s);
    write_files(opts, &outcome, &recorder, layered);
    outcome
}

/// The traced repetition, the probes and the ledger.
#[allow(clippy::too_many_arguments)]
fn layers(
    opts: &Options,
    scale: &Scale,
    budget: Budget,
    first: &Rep,
    steady: &Rep,
    host_s: f64,
    cold_rep_s: f64,
    reference: &BTreeMap<String, f64>,
    recorder: &mut Recorder,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let kind = opts.kind;
    let mut layer: BTreeMap<&'static str, f64> = first.counts.clone();
    // Pool counters from the last repetition, where the pool is warm.
    layer.extend(
        steady
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("sim.pool."))
            .map(|(k, v)| (*k, *v)),
    );
    layer.extend(first.sim_phase.iter().map(|(k, v)| (*k, *v)));
    for (name, s) in &first.phase_host_s {
        layer.insert(name, *s / first.host_s);
    }
    layer.insert("core.client.op_p50_ms", first.sim_op_p50_ms);
    layer.insert("host.cold_rep_s", cold_rep_s);
    layer.insert(
        "ops_failed_frac",
        first.failed as f64 / first.attempted.max(1) as f64,
    );
    let events = first.counts["sim.engine.events"];
    layer.insert("sim.engine.host_ns_per_event", host_s * 1e9 / events);

    // The traced repetition: slice-obs on, one span per simulated second,
    // then the oracle pass and the probes that need a finished ensemble.
    let mut violations: Vec<String> = Vec::new();
    let mut oracle_ns = 0.0;
    let mut on_ensemble: BTreeMap<&'static str, f64> = BTreeMap::new();
    recorder.set_rep(1);
    let traced = scenario::run_rep(
        kind,
        opts.seed,
        scale,
        1,
        &mut Drive::Traced(recorder),
        &mut |ens, drained, rec| {
            let rec = rec.expect("traced repetitions carry the recorder");
            let t = Instant::now();
            rec.scope("verify.oracles", |_| {
                violations.extend(oracles(ens, drained));
            });
            oracle_ns += t.elapsed().as_nanos() as f64;
            if on_ensemble.is_empty() {
                rec.scope("collect_obs", |_| {
                    let t = Instant::now();
                    ens.collect_obs();
                    let mut best = t.elapsed();
                    for _ in 0..4 {
                        let t = Instant::now();
                        ens.collect_obs();
                        best = best.min(t.elapsed());
                    }
                    on_ensemble.insert("core.ensemble.collect_obs_ns", best.as_nanos() as f64);
                });
                rec.scope("probe.obs", |_| {
                    let mut best = Duration::MAX;
                    for _ in 0..3 {
                        let t = Instant::now();
                        std::hint::black_box(ens.engine.export_obs_json());
                        best = best.min(t.elapsed());
                    }
                    on_ensemble.insert("obs.export_json_ns", best.as_nanos() as f64);
                });
            }
        },
    );
    layer.extend(on_ensemble);
    layer.extend(traced.util.iter().map(|(k, v)| (*k, *v)));
    layer.insert("check.oracles_ns", oracle_ns);
    layer.insert("trace.overhead_frac", traced.host_s / host_s - 1.0);
    let f = fingerprint(&traced);
    checks.add(
        "the traced repetition reproduces the untraced counts",
        &f == reference,
        || first_differences(reference, &f),
    );
    checks.add("oracles report no violation", violations.is_empty(), || {
        violations
            .iter()
            .take(4)
            .cloned()
            .collect::<Vec<_>>()
            .join("; ")
    });
    drop(traced);

    // Sharded wall is informational: the same small cell, serial and on
    // two engine shards, must agree on every count.
    recorder.set_rep(2);
    let small = Scale::smoke();
    let (serial, sharded) = recorder.scope("probe.shard", |_| {
        (plain_rep(opts, &small, 1), plain_rep(opts, &small, 2))
    });
    layer.insert("sim.shard.wall_ratio_2", sharded.host_s / serial.host_s);
    layer.insert(
        "sim.shard.barrier_rounds",
        sharded.counts["sim.shard.barrier_rounds"],
    );
    let invariant = |rep: &Rep| {
        let mut f = fingerprint(rep);
        // Windows, barriers and the live-event peak are per shard.
        f.retain(|k, _| {
            !matches!(
                k.as_str(),
                "sim.engine.windows" | "sim.shard.barrier_rounds" | "sim.engine.peak_live_events"
            )
        });
        // Shard workers keep their own payload counters.
        f.retain(|k, _| !k.starts_with("nfsproto.bytebuf."));
        f
    };
    let (a, b) = (invariant(&serial), invariant(&sharded));
    checks.add(
        "two engine shards reproduce the serial counts",
        a == b,
        || first_differences(&a, &b),
    );

    if kind == Kind::SfsMix {
        let sat = recorder.scope("probe.sfs_ladder", |_| {
            scenario::sfs_saturation(opts.seed, scale)
        });
        layer.insert("sfs.sat_iops", sat);
    }

    let build_ns = recorder.scope("probe.core", |_| {
        let samples: Vec<f64> = (0..9)
            .map(|_| scenario::setup_only(kind, opts.seed, scale))
            .collect();
        samples.into_iter().fold(f64::INFINITY, f64::min) * 1e9
    });
    layer.insert("core.ensemble.build_ns", build_ns);

    let probed = probes::run_all(kind, opts.seed, budget, recorder);
    layer.extend(probed);

    // The ledger: probe cost per call times calls counted in the run, as
    // a share of the run's host time.
    let host_ns = host_s * 1e9;
    let g = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let server_requests = g("dirsvc.ops_served")
        + g("smallfile.served")
        + g("storage.node.reads")
        + g("storage.node.writes");
    let shares = [
        ("ledger.share.engine", g("sim.engine.ns_per_event") * events),
        (
            "ledger.share.codec",
            g("core.client.ops") * (g("nfsproto.encode_call_ns") + g("nfsproto.decode_reply_ns"))
                + server_requests * (g("nfsproto.decode_call_ns") + g("nfsproto.encode_reply_ns")),
        ),
        (
            "ledger.share.checksum",
            g("sim.net.bytes") / 1024.0 * g("hashes.inet_checksum_ns_per_kb"),
        ),
        (
            "ledger.share.uproxy",
            g("core.client.ops") * g("uproxy.outbound_ns")
                + g("uproxy.packets_in") * g("uproxy.inbound_ns"),
        ),
        (
            "ledger.share.servers",
            g("dirsvc.ops_served") * g("dirsvc.handle_nfs_ns")
                + g("smallfile.served") * g("smallfile.handle_nfs_ns")
                + (g("storage.node.reads") + g("storage.node.writes"))
                    * g("storage.node.handle_nfs_ns")
                + g("coord.messages") * g("storage.coord.handle_ns"),
        ),
        (
            "ledger.share.ec",
            // Each coded write patches both parity shards of the bytes it
            // changed; degraded reads decode what they return.
            g("uproxy.ec.coded_writes") * 2.0 * 32.0 * g("ec.update_parity_ns_per_kb")
                + g("uproxy.ec.reconstructed_bytes") / 1024.0 * g("ec.reconstruct_ns_per_kb"),
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        layer.insert(name, ns / host_ns);
        attributed += ns / host_ns;
    }
    layer.insert("ledger.attributed_frac", attributed);
    layer.insert("trace.spans", recorder.spans().len() as f64);
    layer
}

fn report(opts: &Options, o: &Outcome, first: &Rep, host_samples: &[f64], cold_s: f64) {
    let w = opts.kind.name();
    println!(
        "== {w}  seed {}  {}  {} timed repetitions (n = {})",
        opts.seed,
        if opts.smoke {
            "smoke scale"
        } else {
            "full scale"
        },
        host_samples.len(),
        host_samples.len()
    );
    if !o.end_to_end.is_empty() {
        let [min, q1, med, q3, max] = stats::five_numbers(host_samples);
        println!(
            "   host_s samples: min {min:.4} q1 {q1:.4} median {med:.4} q3 {q3:.4} max {max:.4}; \
             process start to end of warm-up {cold_s:.3} s"
        );
        println!(
            "   latency over n = {} samples: mean {:.6} p50 {:.6} p99 {:.6} sim_ms; \
             {} of {} ops failed",
            first.latency_samples,
            first.sim_op_mean_ms,
            first.sim_op_p50_ms,
            first.sim_op_p99_ms,
            first.failed,
            first.attempted
        );
        for (name, s) in &first.phase_host_s {
            println!("   {name}: {s:.4} host s of the first timed repetition");
        }
    }
    for m in o.end_to_end.iter().chain(&o.per_layer) {
        println!("   {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for c in &o.checks {
        if c.ok {
            println!("   check ok    {}", c.name);
        } else {
            println!("   check FAIL  {}: {}", c.name, c.detail);
        }
    }
}

fn metric_map(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::str(m.unit)),
                ];
                if with_samples && !m.samples.is_empty() {
                    fields.push((
                        "samples".to_string(),
                        Value::Arr(m.samples.iter().map(|&s| Value::Num(s)).collect()),
                    ));
                }
                (m.name.to_string(), Value::Obj(fields))
            })
            .collect(),
    )
}

/// The driver's result object: `correct`, `attempted`, `failed`, and the
/// metrics of the family `--trace` selected (both without `--trace`).
pub fn result_line(o: &Outcome) -> String {
    let all: Vec<Metric> = o.end_to_end.iter().chain(&o.per_layer).cloned().collect();
    Value::obj([
        ("correct", Value::Bool(o.correct)),
        ("attempted", Value::Num(o.attempted as f64)),
        ("failed", Value::Num(o.failed as f64)),
        ("metrics", metric_map(&all, false)),
    ])
    .to_compact()
}

fn write_files(opts: &Options, o: &Outcome, recorder: &Recorder, layered: bool) {
    let w = opts.kind.name();
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("benchmark: cannot create {}: {e}", opts.out.display());
        return;
    }
    let doc = Value::obj([
        ("workload", Value::str(w)),
        ("seed", Value::Num(opts.seed as f64)),
        (
            "scale",
            Value::str(if opts.smoke { "smoke" } else { "full" }),
        ),
        ("seconds", Value::Num(opts.seconds)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("correct", Value::Bool(o.correct)),
        ("attempted", Value::Num(o.attempted as f64)),
        ("failed", Value::Num(o.failed as f64)),
        (
            "checks",
            Value::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("name", Value::str(&c.name)),
                            ("ok", Value::Bool(c.ok)),
                            ("detail", Value::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metric_map(&o.end_to_end, true)),
        ("per_layer", metric_map(&o.per_layer, true)),
    ]);
    let mut files = vec![(format!("result-{w}.json"), doc.to_pretty())];
    if layered {
        files.push((format!("trace-{w}.json"), recorder.to_json(w)));
    }
    for (name, text) in files {
        let path = opts.out.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
}
