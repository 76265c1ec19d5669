//! `--compare A B`: judges result set B against base set A, one row per
//! (metric, workload), with the bounds the benchmark fixed.
//!
//! A result set is a directory of `result-<workload>.json` files as
//! `run.sh --out DIR` writes them.

use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;

/// The judgement of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Either set's run-to-run spread is wider than the bound: the rows
    /// cannot tell a regression from noise, so they claim neither.
    Unresolved,
    /// An exact quantity (a count, or a simulated metric at one seed)
    /// differs at all: the program's behaviour changed.
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Judges a bounded metric from both medians and both spreads.
pub fn judge(
    better: Better,
    bound: f64,
    base: f64,
    new: f64,
    base_spread: f64,
    new_spread: f64,
) -> Verdict {
    if base_spread.max(new_spread) > bound {
        Verdict::Unresolved
    } else if worse_by(better, base, new) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("result-{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric<'a>(doc: &'a Value, family: &str, name: &str) -> Option<&'a Value> {
    doc.get(family)?.get(name)
}

fn samples(m: &Value) -> Vec<f64> {
    m.get("samples")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn spread_of(m: &Value) -> f64 {
    let s = samples(m);
    if s.len() < 2 {
        0.0
    } else {
        stats::spread(&s)
    }
}

/// Compares two result sets; prints the table and returns whether every
/// row is `ok` (or `unresolved`, which claims nothing).
pub fn run(base_dir: &Path, new_dir: &Path) -> Result<bool, String> {
    let mut clean = true;
    let mut rows = 0usize;
    println!(
        "{:<24} {:<12} {:>16} {:>16} {:>9}  verdict",
        "metric", "workload", "base (A)", "new (B)", "B/A"
    );
    for (workload, _) in spec::WORKLOADS {
        let (a, b) = match (load(base_dir, workload), load(new_dir, workload)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(ea), Err(_)) => {
                eprintln!("compare: skipping {workload}: {ea}");
                continue;
            }
            (Err(e), _) | (_, Err(e)) => return Err(e),
        };
        let same_seed = a.get("seed") == b.get("seed") && a.get("scale") == b.get("scale");
        let mut row = |name: &str, va: f64, vb: f64, verdict: Verdict| {
            rows += 1;
            let ratio = if va != 0.0 { vb / va } else { f64::NAN };
            println!(
                "{name:<24} {workload:<12} {va:>16.6} {vb:>16.6} {ratio:>9.4}  {}",
                verdict.as_str()
            );
            clean &= matches!(verdict, Verdict::Ok | Verdict::Unresolved);
        };
        for m in spec::END_TO_END {
            let (Some(ma), Some(mb)) = (
                metric(&a, "end_to_end", m.name),
                metric(&b, "end_to_end", m.name),
            ) else {
                continue;
            };
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Value::as_f64),
                mb.get("value").and_then(Value::as_f64),
            ) else {
                continue;
            };
            // Simulated metrics repeat exactly for one seed: any drift is
            // a behaviour change, whatever the bound across seeds allows.
            let verdict = if same_seed && m.name.starts_with("sim_") && va != vb {
                Verdict::Changed
            } else {
                judge(m.better, m.bound, va, vb, spread_of(ma), spread_of(mb))
            };
            row(m.name, va, vb, verdict);
        }
        if !same_seed {
            continue;
        }
        for m in spec::PER_LAYER {
            if !spec::is_count(m.name) {
                continue;
            }
            let value = |doc: &Value| {
                metric(doc, "per_layer", m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            if let (Some(va), Some(vb)) = (value(&a), value(&b)) {
                if va != vb {
                    row(m.name, va, vb, Verdict::Changed);
                }
            }
        }
    }
    if rows == 0 {
        return Err("no workload has a result in both sets".into());
    }
    println!(
        "compare: {rows} rows, base = {} (ratios are B/A; counts print only when they differ)",
        base_dir.display()
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_better_bounds() {
        // 8 % slower against a 10 % bound: ok. 12 %: regressed.
        assert_eq!(
            judge(Better::Lower, 0.10, 2.0, 2.16, 0.01, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, 2.0, 2.24, 0.01, 0.02),
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(judge(Better::Lower, 0.10, 2.0, 1.0, 0.0, 0.0), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_bounds() {
        assert_eq!(
            judge(Better::Higher, 0.05, 1000.0, 960.0, 0.0, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.05, 1000.0, 940.0, 0.0, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.05, 1000.0, 2000.0, 0.0, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // Either side's spread beyond the bound blocks any claim, even
        // when the medians look identical or clearly apart.
        assert_eq!(
            judge(Better::Lower, 0.10, 2.0, 2.0, 0.12, 0.01),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, 2.0, 3.0, 0.01, 0.30),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worse_by_handles_zero_bases() {
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert!(worse_by(Better::Lower, 0.0, 1.0).is_infinite());
        assert!((worse_by(Better::Lower, 4.0, 5.0) - 0.25).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 4.0, 3.0) - 0.25).abs() < 1e-12);
    }
}
