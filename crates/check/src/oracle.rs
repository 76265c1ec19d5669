//! History oracles: per-file linearizability of read/write/truncate over
//! a chunk-register model, with an NFS-aware notion of which operations
//! *must* have taken effect.
//!
//! Every recorded operation is projected onto the 1 KiB chunks it fully
//! covers (see `slice_core::history::CHUNK_BYTES`). Each `(file, chunk)`
//! pair becomes an independent atomic register with initial value 0
//! (NFS holes read as zeroes), and the recorded operations become register
//! reads and writes:
//!
//! * a **required** write is one that completed `NFS3_OK` with stability
//!   `DATA_SYNC`/`FILE_SYNC` — the server promised durability, so the
//!   write must be linearizable;
//! * an **optional** write either never completed (the effect may or may
//!   not have landed before the client gave up), completed with an error,
//!   or was `UNSTABLE` (V3 permits losing it in a crash before COMMIT);
//! * a completed `NFS3_OK` truncate to size `s` is a required write of 0
//!   to every chunk at or above `ceil(s / CHUNK)` that the history ever
//!   touched;
//! * a completed `NFS3_OK` read of a fully covered, uniform-valued chunk
//!   asserts the register held that value at some instant inside the
//!   read's begin/end window.
//!
//! Every register that holds a read takes one Wing & Gong search for an
//! order of its operations that respects real time and in which every
//! read sees the value the operations before it left; optional writes may
//! be dropped instead of placed. The search is memoised on (unplaced
//! operations, register value), so a totally ordered register, which has
//! one operation at its turn at every step, is judged in a single pass. A
//! failed register is labelled `close_to_open` when a read began after a
//! required write of another value completed with no other write able to
//! fall between them (DESIGN.md §8), and `linearizability` otherwise.
//! Registers beyond the search bounds are *skipped and counted*, never
//! silently dropped: [`OracleStats::registers_skipped`] reports them, and
//! a sweep's report carries the count per seed
//! (`checker.seed.N.registers_skipped`, when non-zero), so a sweep can't
//! claim coverage it didn't have.

use slice_sim::{FxHashMap, FxHashSet};

use slice_core::history::{OpHistory, OpRecord, CHUNK_BYTES};
use slice_nfsproto::{NfsStatus, StableHow};

use crate::Violation;

/// Search bounds: the unplaced set is one bit per op of a `u128`, and a
/// search visits at most `MAX_SEARCH_STATES` states.
const MAX_REGISTER_OPS: usize = u128::BITS as usize;
const MAX_SEARCH_STATES: usize = 100_000;

/// Counters describing how much the history oracles actually covered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OracleStats {
    /// Recorded operations considered.
    pub ops_considered: u64,
    /// `(file, chunk)` registers fully checked.
    pub registers_checked: u64,
    /// Registers skipped because they exceeded the search bounds.
    pub registers_skipped: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegKind {
    /// A write of a uniform byte; `None` = mixed (unknown) bytes.
    Write(Option<u8>),
    /// A read that observed a uniform byte.
    Read(u8),
}

#[derive(Debug, Clone, Copy)]
struct RegOp {
    begin: u64,
    /// `None` = never completed; the effect window extends forever.
    end: Option<u64>,
    kind: RegKind,
    /// Required ops must linearize; optional ops may be dropped.
    required: bool,
}

/// Runs every history oracle over the merged per-client histories.
pub fn check_histories(histories: &[&OpHistory]) -> (Vec<Violation>, OracleStats) {
    let mut violations = Vec::new();
    let mut stats = OracleStats::default();

    // Hard-status oracle: these statuses mean the ensemble itself failed,
    // regardless of what the data oracles can prove.
    for h in histories {
        for rec in h.records() {
            stats.ops_considered += 1;
            if let Some(st) = rec.status {
                if matches!(
                    st,
                    NfsStatus::Io | NfsStatus::ServerFault | NfsStatus::NotSupp
                ) {
                    violations.push(Violation::new(
                        "hard_status",
                        format!("{} xid={} returned {:?}", rec.op, rec.xid, st),
                    ));
                }
            }
        }
    }

    // Project the histories onto chunk registers. Sort by (file, chunk)
    // so violation order — and therefore checker output — is
    // deterministic regardless of hash-map iteration order.
    let mut registers: Vec<_> = build_registers(histories).into_iter().collect();
    registers.sort_by_key(|(key, _)| *key);
    for ((file, chunk), ops) in registers {
        match check_register(file, chunk, &ops) {
            RegisterVerdict::Ok => stats.registers_checked += 1,
            RegisterVerdict::Skipped => stats.registers_skipped += 1,
            RegisterVerdict::Violation(v) => {
                stats.registers_checked += 1;
                violations.push(v);
            }
        }
    }

    (violations, stats)
}

fn build_registers(histories: &[&OpHistory]) -> FxHashMap<(u64, u64), Vec<RegOp>> {
    let mut regs: FxHashMap<(u64, u64), Vec<RegOp>> = FxHashMap::default();
    // Highest chunk index each file's history ever touched, so truncates
    // know how far to project their zeroing.
    let mut max_chunk: FxHashMap<u64, u64> = FxHashMap::default();

    let completed_ok = |r: &OpRecord| r.end.is_some() && r.status == Some(NfsStatus::Ok);

    for h in histories {
        for rec in h.records() {
            match rec.op {
                "write" => {
                    let required = completed_ok(rec) && rec.stable != Some(StableHow::Unstable);
                    for (i, v) in rec.wrote.iter().enumerate() {
                        let chunk = rec.chunk0 + i as u64;
                        let top = max_chunk.entry(rec.file).or_insert(0);
                        *top = (*top).max(chunk);
                        regs.entry((rec.file, chunk)).or_default().push(RegOp {
                            begin: rec.begin.as_nanos(),
                            end: rec.end.map(|t| t.as_nanos()),
                            kind: RegKind::Write(*v),
                            required,
                        });
                    }
                }
                "read" if completed_ok(rec) => {
                    for (i, v) in rec.read.iter().enumerate() {
                        let Some(v) = v else { continue };
                        let chunk = rec.chunk0 + i as u64;
                        let top = max_chunk.entry(rec.file).or_insert(0);
                        *top = (*top).max(chunk);
                        regs.entry((rec.file, chunk)).or_default().push(RegOp {
                            begin: rec.begin.as_nanos(),
                            end: rec.end.map(|t| t.as_nanos()),
                            kind: RegKind::Read(*v),
                            required: true,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    // Second pass: truncates zero every touched chunk at or above the new
    // size (shrink discards data; re-extension exposes holes that read 0).
    for h in histories {
        for rec in h.records() {
            let Some(s) = rec.truncate_to else { continue };
            if rec.op != "setattr" {
                continue;
            }
            let required = completed_ok(rec);
            if rec.end.is_none() || required {
                let first = s.div_ceil(CHUNK_BYTES);
                let top = max_chunk.get(&rec.file).copied().unwrap_or(0);
                for chunk in first..=top {
                    regs.entry((rec.file, chunk)).or_default().push(RegOp {
                        begin: rec.begin.as_nanos(),
                        end: rec.end.map(|t| t.as_nanos()),
                        kind: RegKind::Write(Some(0)),
                        required,
                    });
                }
            }
        }
    }

    regs
}

enum RegisterVerdict {
    Ok,
    Skipped,
    Violation(Violation),
}

fn check_register(file: u64, chunk: u64, ops: &[RegOp]) -> RegisterVerdict {
    if !ops.iter().any(|o| matches!(o.kind, RegKind::Read(_))) {
        return RegisterVerdict::Ok; // nothing observable to contradict
    }
    if ops.len() > MAX_REGISTER_OPS {
        return RegisterVerdict::Skipped;
    }
    let mut search = Search {
        ops,
        dead: FxHashSet::default(),
        budget: MAX_SEARCH_STATES,
    };
    match search.linearizes(u128::MAX >> (u128::BITS as usize - ops.len()), Some(0)) {
        Some(true) => RegisterVerdict::Ok,
        Some(false) => RegisterVerdict::Violation(explain(file, chunk, ops)),
        None => RegisterVerdict::Skipped,
    }
}

/// A Wing & Gong search over (unplaced ops, register value) states. The
/// value `None` is the unknown bytes a write of mixed bytes leaves: any
/// read may follow it, and pins the value it saw.
struct Search<'a> {
    ops: &'a [RegOp],
    /// States already searched without finding an order.
    dead: FxHashSet<(u128, Option<u8>)>,
    /// States left to visit before the register is skipped.
    budget: usize,
}

impl Search<'_> {
    /// Whether every `unplaced` op can be placed, or dropped if optional,
    /// in turn after a register holding `value`; `None` once the budget
    /// is spent.
    fn linearizes(&mut self, unplaced: u128, value: Option<u8>) -> Option<bool> {
        if unplaced == 0 {
            return Some(true);
        }
        if !self.dead.insert((unplaced, value)) {
            return Some(false);
        }
        self.budget = self.budget.checked_sub(1)?;
        let ops = self.ops;
        let members = || (0..ops.len()).filter(move |&i| unplaced & (1 << i) != 0);
        // An op's turn has come when no other unplaced op ended at or
        // before it began. Every op takes positive time, so its own end
        // never holds it back.
        let first_end = members().filter_map(|i| ops[i].end).min();
        for i in members().filter(|&i| first_end.is_none_or(|e| ops[i].begin < e)) {
            let op = ops[i];
            let placed = match op.kind {
                RegKind::Write(v) => Some(v),
                RegKind::Read(v) => value.is_none_or(|cur| cur == v).then_some(Some(v)),
            };
            let dropped = (!op.required).then_some(value);
            for next in placed.into_iter().chain(dropped) {
                if self.linearizes(unplaced & !(1 << i), next)? {
                    return Some(true);
                }
            }
        }
        Some(false)
    }
}

/// Whether `a` may take effect before `b`: `b` did not end at or before
/// `a` began.
fn may_precede(a: &RegOp, b: &RegOp) -> bool {
    b.end.is_none_or(|e| e > a.begin)
}

/// Names a register that has no order. It is `close_to_open` (DESIGN.md
/// §8) when a read began after a required write of another value
/// completed and no other write could fall between the two; otherwise
/// `linearizability`.
fn explain(file: u64, chunk: u64, ops: &[RegOp]) -> Violation {
    let writes = || {
        ops.iter()
            .enumerate()
            .filter(|(_, o)| matches!(o.kind, RegKind::Write(_)))
    };
    let stale = ops.iter().find_map(|read| {
        let RegKind::Read(seen) = read.kind else {
            return None;
        };
        writes().find_map(|(k, write)| match write.kind {
            RegKind::Write(Some(wrote))
                if write.required
                    && wrote != seen
                    && !may_precede(read, write)
                    && !writes()
                        .any(|(j, x)| j != k && may_precede(write, x) && may_precede(x, read)) =>
            {
                Some((wrote, seen))
            }
            _ => None,
        })
    });
    match stale {
        Some((wrote, seen)) => Violation::new(
            "close_to_open",
            format!("file {file} chunk {chunk}: read observed {seen:#04x} after a completed write of {wrote:#04x}"),
        ),
        None => Violation::new(
            "linearizability",
            format!("file {file} chunk {chunk}: no linearization of {} ops", ops.len()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slice_sim::Rng;

    fn w(begin: u64, end: u64, v: u8, required: bool) -> RegOp {
        RegOp {
            begin,
            end: Some(end),
            kind: RegKind::Write(Some(v)),
            required,
        }
    }

    fn r(begin: u64, end: u64, v: u8) -> RegOp {
        RegOp {
            begin,
            end: Some(end),
            kind: RegKind::Read(v),
            required: true,
        }
    }

    #[test]
    fn sequential_read_after_write_passes() {
        let ops = vec![w(0, 10, 5, true), r(20, 30, 5)];
        assert!(matches!(check_register(1, 0, &ops), RegisterVerdict::Ok));
    }

    #[test]
    fn sequential_stale_read_is_close_to_open() {
        let ops = vec![w(0, 10, 5, true), r(20, 30, 6)];
        match check_register(1, 0, &ops) {
            RegisterVerdict::Violation(v) => assert_eq!(v.oracle, "close_to_open"),
            _ => panic!("expected violation"),
        }
    }

    #[test]
    fn optional_write_may_or_may_not_land() {
        // An unstable write that may have been lost: reading either the
        // old or the new value is fine.
        let old = vec![w(0, 10, 1, true), w(20, 30, 2, false), r(40, 50, 1)];
        let new = vec![w(0, 10, 1, true), w(20, 30, 2, false), r(40, 50, 2)];
        assert!(matches!(check_register(1, 0, &old), RegisterVerdict::Ok));
        assert!(matches!(check_register(1, 0, &new), RegisterVerdict::Ok));
        let neither = vec![w(0, 10, 1, true), w(20, 30, 2, false), r(40, 50, 3)];
        assert!(matches!(
            check_register(1, 0, &neither),
            RegisterVerdict::Violation(_)
        ));
    }

    #[test]
    fn concurrent_overlapping_writes_allow_either_order() {
        // Two overlapping required writes, then a read that could see
        // whichever linearized last.
        for seen in [7u8, 8u8] {
            let ops = vec![w(0, 100, 7, true), w(50, 150, 8, true), r(200, 210, seen)];
            assert!(matches!(check_register(1, 0, &ops), RegisterVerdict::Ok));
        }
        let ops = vec![w(0, 100, 7, true), w(50, 150, 8, true), r(200, 210, 9)];
        assert!(matches!(
            check_register(1, 0, &ops),
            RegisterVerdict::Violation(_)
        ));
    }

    #[test]
    fn concurrent_read_respects_real_time_order() {
        // The write finished before the read began, and no other write
        // exists: the read must see it.
        let ops = vec![
            w(0, 100, 7, true),
            r(50, 150, 7), // overlaps the write: may see 0 or 7? must see 7 or 0
            r(200, 210, 0),
        ];
        // The late read of 0 cannot linearize after the required write.
        assert!(matches!(
            check_register(1, 0, &ops),
            RegisterVerdict::Violation(_)
        ));
    }

    #[test]
    fn incomplete_write_is_optional_and_unordered() {
        // A write with no reply may land at any time — a later read may
        // see either value.
        let dangling = RegOp {
            begin: 20,
            end: None,
            kind: RegKind::Write(Some(9)),
            required: false,
        };
        for seen in [0u8, 9u8] {
            let ops = vec![dangling, r(100, 110, seen)];
            assert!(matches!(check_register(1, 0, &ops), RegisterVerdict::Ok));
        }
    }

    #[test]
    fn a_read_that_begins_as_a_write_ends_is_ordered_after_it() {
        // W6 ends in the nanosecond the last read begins, so the read
        // follows it and must see 6. The same must hold when an unrelated
        // read overlaps the first write and the register is no longer
        // totally ordered.
        let touching = vec![w(0, 10, 5, true), w(11, 20, 6, true), r(20, 30, 5)];
        let mut overlapped = touching.clone();
        overlapped.push(r(2, 8, 5));
        for ops in [touching, overlapped] {
            assert!(
                matches!(check_register(1, 0, &ops), RegisterVerdict::Violation(_)),
                "{ops:?}"
            );
        }
    }

    #[test]
    fn initial_value_is_zero() {
        let ops = vec![r(0, 10, 0)];
        assert!(matches!(check_register(1, 0, &ops), RegisterVerdict::Ok));
        let ops = vec![r(0, 10, 3)];
        assert!(matches!(
            check_register(1, 0, &ops),
            RegisterVerdict::Violation(_)
        ));
    }

    #[test]
    fn seven_unstable_writes_do_not_hide_a_stale_read() {
        // The stale read ends before any of the unstable writes begins,
        // so none of them can explain it, however many there are.
        let mut ops = vec![w(0, 10, 1, true), r(20, 30, 2)];
        ops.extend((0..7).map(|k| w(40 + k, 100, 2, false)));
        match check_register(1, 0, &ops) {
            RegisterVerdict::Violation(v) => assert_eq!(v.oracle, "close_to_open"),
            _ => panic!("expected violation"),
        }
    }

    /// A register of one to six ops of positive duration over the values
    /// 0..3: reads, required and optional writes, writes of mixed bytes
    /// and writes that never completed.
    fn random_register(rng: &mut Rng) -> Vec<RegOp> {
        (0..rng.gen_range(1..=6usize))
            .map(|_| {
                let begin = rng.gen_range(0..40u64);
                let end = Some(begin + rng.gen_range(1..20u64));
                let v = rng.gen_range(0..3u8);
                let (end, kind, required) = match rng.gen_range(0..6u32) {
                    0 | 1 => (end, RegKind::Read(v), true),
                    2 => (end, RegKind::Write(Some(v)), true),
                    3 => (end, RegKind::Write(Some(v)), false),
                    4 => (end, RegKind::Write(None), rng.gen_bool(0.5)),
                    _ => (None, RegKind::Write(rng.gen_bool(0.8).then_some(v)), false),
                };
                RegOp {
                    begin,
                    end,
                    kind,
                    required,
                }
            })
            .collect()
    }

    /// Whether some permutation of `ops[k..]` after `ops[..k]` passes `ok`.
    fn some_order(ops: &mut [RegOp], k: usize, ok: &dyn Fn(&[RegOp]) -> bool) -> bool {
        if k == ops.len() {
            return ok(ops);
        }
        (k..ops.len()).any(|i| {
            ops.swap(k, i);
            let found = some_order(ops, k + 1, ok);
            ops.swap(k, i);
            found
        })
    }

    /// No op ends at or before an op placed ahead of it begins.
    fn respects_real_time(order: &[RegOp]) -> bool {
        order.iter().enumerate().all(|(a, first)| {
            order[a + 1..]
                .iter()
                .all(|later| later.end.is_none_or(|e| e > first.begin))
        })
    }

    /// Every read sees the value the ops before it left: 0 at first, any
    /// value after a write of mixed bytes until a read pins it.
    fn reads_see_writes(order: &[RegOp]) -> bool {
        let mut value = Some(0u8);
        order.iter().all(|op| match op.kind {
            RegKind::Write(v) => {
                value = v;
                true
            }
            RegKind::Read(v) => {
                let seen = value.is_none_or(|cur| cur == v);
                value = Some(v);
                seen
            }
        })
    }

    /// The reference: every subset of the optional ops, kept in every
    /// order that respects real time.
    fn brute_force(ops: &[RegOp]) -> bool {
        let optional: Vec<usize> = (0..ops.len()).filter(|&i| !ops[i].required).collect();
        (0..1u32 << optional.len()).any(|dropped| {
            let mut kept: Vec<RegOp> = (0..ops.len())
                .filter(|i| {
                    optional
                        .iter()
                        .position(|o| o == i)
                        .is_none_or(|k| dropped & (1 << k) == 0)
                })
                .map(|i| ops[i])
                .collect();
            some_order(&mut kept, 0, &|order| {
                respects_real_time(order) && reads_see_writes(order)
            })
        })
    }

    #[test]
    fn the_register_checker_agrees_with_brute_force_enumeration() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..50_000 {
            let ops = random_register(&mut rng);
            let linearizable = match check_register(1, 0, &ops) {
                RegisterVerdict::Ok => true,
                RegisterVerdict::Violation(_) => false,
                RegisterVerdict::Skipped => panic!("skipped {ops:?}"),
            };
            assert_eq!(linearizable, brute_force(&ops), "{ops:?}");
        }
    }
}
