//! Pins what the explorer draws and what it concludes, through the public
//! API only: every schedule pool's events for seeds 1–4 at a fixed
//! horizon, and every mode's outcomes for two seeds × two schedules (plus
//! each seed's crash-free reference). Each is an FNV-1a fold. A refactor
//! of `crates/check` leaves both constants alone; a change of behaviour
//! re-pins on purpose and says why (the failure message prints the new
//! value).
//!
//! The sweep report cannot stand in for these: it holds per-seed op and
//! run counts only, which are equal in all five modes, so a changed draw
//! or a changed ensemble would still `cmp` equal.

use slice_check::{
    chaos_schedules, coded_chaos_schedules, generate_scenario, reconf_schedules, run_schedule,
    standard_schedules, Injection, Mode, NetFault, Role, RunOutcome, Schedule,
};
use slice_hashes::{fnv1a, fnv1a_continue};

/// A schedule pool: `(seed, m, horizon_ms) -> schedules`.
type Pool = fn(u64, usize, u64) -> Vec<Schedule>;

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a_continue(h, &v.to_le_bytes())
}

/// One event as `(at_ms, kind, site, magnitude, duration)`.
fn event_tuple(at_ms: u64, inject: &Injection) -> (u64, &'static str, u64, u64, u64) {
    let (kind, site, magnitude, duration) = match *inject {
        Injection::Crash {
            role,
            site,
            down_ms,
        } => {
            let kind = match role {
                Role::Dir => "dir",
                Role::SmallFile => "sf",
                Role::Storage => "storage",
                Role::Coord => "coord",
            };
            (kind, site as u64, 0, down_ms)
        }
        Injection::Net {
            fault,
            level,
            dur_ms,
        } => {
            let kind = match fault {
                NetFault::Loss => "loss",
                NetFault::Dup => "dup",
                NetFault::Reorder => "reorder",
            };
            (kind, 0, level, dur_ms)
        }
        Injection::JoinStorage { site } => ("join", site as u64, 0, 0),
        Injection::DrainStorage { site } => ("drain", site as u64, 0, 0),
        Injection::WidenHot => ("widen", 0, 0, 0),
    };
    (at_ms, kind, site, magnitude, duration)
}

fn fold_schedule(mut h: u64, s: &Schedule) -> u64 {
    h = fold_u64(h, s.events.len() as u64);
    for e in &s.events {
        let (at_ms, kind, site, magnitude, duration) = event_tuple(e.at_ms, &e.inject);
        h = fold_u64(h, at_ms);
        h = fnv1a_continue(h, kind.as_bytes());
        h = fold_u64(h, site);
        h = fold_u64(h, magnitude);
        h = fold_u64(h, duration);
    }
    h
}

fn fold_outcome(mut h: u64, out: &RunOutcome) -> u64 {
    h = fold_u64(h, out.finish.as_nanos());
    h = fold_u64(h, out.completed_ops as u64);
    h = fold_u64(h, out.skipped_ops as u64);
    for (path, e) in &out.snapshot.entries {
        h = fnv1a_continue(h, path.as_bytes());
        h = fnv1a_continue(h, e.kind.as_bytes());
        h = fold_u64(h, e.size);
        h = fold_u64(h, e.nlink as u64);
    }
    h = fold_u64(h, out.violations.len() as u64);
    for v in &out.violations {
        h = fnv1a_continue(h, v.oracle.as_bytes());
        h = fnv1a_continue(h, v.detail.as_bytes());
    }
    h
}

#[test]
fn every_pool_draws_the_pinned_schedules() {
    let pools: [(&str, Pool); 4] = [
        ("standard", standard_schedules),
        ("chaos", chaos_schedules),
        ("coded chaos", coded_chaos_schedules),
        ("reconf", reconf_schedules),
    ];
    let mut h = fnv1a(b"");
    let mut events = 0;
    for (name, pool) in pools {
        h = fnv1a_continue(h, name.as_bytes());
        for seed in 1..=4 {
            // Twelve schedules reach every branch of every pool: the
            // chaos pool's stacked crash cycles through four classes
            // every third schedule.
            for s in pool(seed, 12, 4000) {
                events += s.events.len();
                h = fold_schedule(h, &s);
            }
        }
    }
    assert_eq!(events, 324, "event count moved");
    assert_eq!(h, 1853718101979283207, "schedule fold moved: {h}");
}

#[test]
fn every_mode_reaches_the_pinned_outcomes() {
    let modes = [
        ("standard", Mode::Standard),
        ("coded", Mode::Coded),
        ("chaos", Mode::Chaos),
        ("chaos coded", Mode::ChaosCoded),
        ("reconf", Mode::Reconf),
    ];
    let mut h = fnv1a(b"");
    for (name, mode) in modes {
        h = fnv1a_continue(h, name.as_bytes());
        let mut n = 0;
        for seed in [1, 2] {
            let scenario = generate_scenario(seed, 48);
            let reference = run_schedule(seed, &scenario, &Schedule::default(), None, mode);
            h = fold_outcome(h, &reference);
            n += reference.completed_ops;
            let horizon_ms = reference.finish.as_nanos() / 1_000_000;
            for s in mode.schedules(seed, 2, horizon_ms) {
                let out = run_schedule(seed, &scenario, &s, Some(&reference.snapshot), mode);
                h = fold_schedule(h, &s);
                h = fold_outcome(h, &out);
                n += out.completed_ops;
            }
        }
        assert!(n > 0, "{name} checked nothing");
    }
    assert_eq!(h, 15734141987673967405, "outcome fold moved: {h}");
}
