//! The Slice benchmark (`BENCHMARK.json`): four workloads, two clocks,
//! and a per-layer ledger measured from outside the crates under test.
//!
//! ```text
//! slice-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                 [--out DIR] [--smoke]
//! slice-benchmark --compare DIR_A DIR_B
//! slice-benchmark --spec
//! ```
//!
//! `run.sh` builds this and either passes the driver's arguments through
//! or, without `--workload`, runs every workload in a process of its own.
//! The last line of standard output is the driver's result object; the
//! exit code is non-zero when any output check failed.

mod bench;
mod compare;
mod json;
mod probes;
mod scenario;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use scenario::Kind;

const USAGE: &str =
    "usage: slice-benchmark --workload <untar_meta|bulk_mirror|sfs_mix|repair_mix> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n       \
slice-benchmark --compare DIR_A DIR_B\n       \
slice-benchmark --spec   (prints BENCHMARK.json)";

enum Command {
    Run(bench::Options),
    Compare(PathBuf, PathBuf),
    Spec,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut kind = None;
    let mut seed = 42u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} wants a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--compare" => {
                let (a, b) = (value()?.into(), value()?.into());
                return Ok(Command::Compare(a, b));
            }
            "--spec" => return Ok(Command::Spec),
            "--workload" => {
                let name = value()?;
                kind = Some(
                    Kind::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed wants a whole number: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds wants a number in (0, 600]")?;
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
                });
            }
            "--out" => out = value()?.into(),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let kind = kind.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(Command::Run(bench::Options {
        kind,
        seed,
        seconds,
        trace,
        smoke,
        out,
    }))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Ok(Command::Compare(a, b)) => match compare::run(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Spec) => {
            print!("{}", spec::benchmark_json().to_pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(opts)) => {
            let outcome = bench::run(&opts, process_start);
            println!("{}", bench::result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let Ok(Command::Run(o)) = parse(&args("--workload sfs_mix --seed 9 --seconds 3 --trace 1"))
        else {
            panic!("driver arguments must parse");
        };
        assert_eq!(o.kind, Kind::SfsMix);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3.0, Some(true)));
        assert!(parse(&args("--seed 9")).is_err(), "workload is required");
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload sfs_mix --trace 2")).is_err());
        assert!(parse(&args("--workload sfs_mix --seconds 0")).is_err());
        assert!(matches!(
            parse(&args("--compare a b")),
            Ok(Command::Compare(..))
        ));
    }

    /// Every workload at about 1/20 size: both metric families come out
    /// complete, every output check passes, the result files round-trip,
    /// and a set compares clean against itself.
    #[test]
    fn smoke_scale_runs_every_workload_and_check() {
        // Inside the package's own (ignored) output directory.
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("smoke-test-{}", std::process::id()));
        for kind in Kind::ALL {
            let opts = bench::Options {
                kind,
                seed: 7,
                seconds: 0.3,
                trace: None,
                smoke: true,
                out: out.clone(),
            };
            let o = bench::run(&opts, Instant::now());
            for c in &o.checks {
                assert!(c.ok, "{}: {}: {}", kind.name(), c.name, c.detail);
            }
            assert!(o.correct && o.failed == 0 && o.attempted > 1);
            assert_eq!(o.end_to_end.len(), spec::END_TO_END.len());
            assert_eq!(o.per_layer.len(), spec::PER_LAYER.len());
            for m in o.end_to_end.iter().chain(&o.per_layer) {
                assert!(m.value.is_finite(), "{} is not a number", m.name);
            }
            for m in &o.end_to_end {
                assert!(m.value > 0.0, "{} must never be 0", m.name);
            }
            let line = json::parse(&bench::result_line(&o)).expect("result line parses");
            let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
            assert_eq!(metrics.len(), o.end_to_end.len() + o.per_layer.len());
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

            let file = out.join(format!("result-{}.json", kind.name()));
            let doc = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
            let trace = out.join(format!("trace-{}.json", kind.name()));
            let spans = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
            let names: Vec<&str> = spans
                .get("spans")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .filter_map(|s| s.get("name").and_then(Value::as_str))
                .collect();
            for want in [
                "setup.build",
                "run.start",
                "run.step",
                "collect_obs",
                "verify.oracles",
                "probe.uproxy",
            ] {
                assert!(names.contains(&want), "{}: no `{want}` span", kind.name());
            }
        }
        assert_eq!(compare::run(&out, &out), Ok(true));
        let _ = std::fs::remove_dir_all(&out);
    }
}
