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
//! Registers whose operations are totally ordered in real time take a
//! linear-time sequential pass (which doubles as the close-to-open
//! oracle); registers with genuine concurrency get a bounded Wing & Gong
//! search. Registers exceeding the search bounds are *skipped and
//! counted*, never silently dropped: [`OracleStats::registers_skipped`]
//! reports them, and a sweep's report carries the count per seed
//! (`checker.seed.N.registers_skipped`, when non-zero), so a sweep can't
//! claim coverage it didn't have.

use slice_sim::{FxHashMap, FxHashSet};

use slice_core::history::{OpHistory, OpRecord, CHUNK_BYTES};
use slice_nfsproto::{NfsStatus, StableHow};

use crate::Violation;

/// Search bounds for the concurrent register checker.
const MAX_REGISTER_OPS: usize = 24;
const MAX_OPTIONAL_WRITES: usize = 6;
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

/// A set of possible register values: a 256-bit set plus a wildcard flag
/// for "some unknown byte was written".
#[derive(Debug, Clone, Copy)]
struct ValSet {
    bits: [u64; 4],
    wildcard: bool,
}

impl ValSet {
    fn single(v: u8) -> Self {
        let mut s = ValSet {
            bits: [0; 4],
            wildcard: false,
        };
        s.insert(v);
        s
    }

    fn insert(&mut self, v: u8) {
        self.bits[(v >> 6) as usize] |= 1 << (v & 63);
    }

    fn contains(&self, v: u8) -> bool {
        self.wildcard || self.bits[(v >> 6) as usize] & (1 << (v & 63)) != 0
    }
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
    let mut sorted: Vec<RegOp> = ops.to_vec();
    sorted.sort_by_key(|o| (o.begin, o.end.unwrap_or(u64::MAX)));

    // Sequential fast path: no two effect windows overlap.
    let mut sequential = true;
    for w in sorted.windows(2) {
        match w[0].end {
            Some(e) if e <= w[1].begin => {}
            _ => {
                sequential = false;
                break;
            }
        }
    }
    if sequential {
        return check_sequential(file, chunk, &sorted);
    }
    check_concurrent(file, chunk, &sorted)
}

/// Walks a totally ordered register history tracking the set of values
/// the register could hold. This subsumes NFS close-to-open consistency:
/// a read that begins after a stable write completed must observe it
/// (absent an intervening write).
fn check_sequential(file: u64, chunk: u64, sorted: &[RegOp]) -> RegisterVerdict {
    let mut set = ValSet::single(0);
    // The last write before the current point, for violation tagging.
    let mut last_write: Option<&RegOp> = None;
    for op in sorted {
        match op.kind {
            RegKind::Write(Some(v)) => {
                if op.required {
                    set = ValSet::single(v);
                } else {
                    set.insert(v);
                }
                last_write = Some(op);
            }
            RegKind::Write(None) => {
                set.wildcard = true;
                last_write = Some(op);
            }
            RegKind::Read(v) => {
                if set.contains(v) {
                    set = ValSet::single(v);
                } else {
                    // A stale read directly after a completed stable write
                    // is the classic close-to-open failure; anything else
                    // is a generic linearizability violation.
                    let oracle = match last_write {
                        Some(w) if w.required && w.end.is_some() => "close_to_open",
                        _ => "linearizability",
                    };
                    return RegisterVerdict::Violation(Violation::new(
                        oracle,
                        format!("file {file} chunk {chunk}: read observed {v:#04x}, impossible at that point"),
                    ));
                }
            }
        }
    }
    RegisterVerdict::Ok
}

/// Bounded Wing & Gong search for registers with overlapping operations.
/// Optional writes are pre-branched (each either linearizes or is
/// dropped); required ops must all linearize in some real-time-respecting
/// order.
fn check_concurrent(file: u64, chunk: u64, sorted: &[RegOp]) -> RegisterVerdict {
    if sorted
        .iter()
        .any(|o| matches!(o.kind, RegKind::Write(None)))
    {
        return RegisterVerdict::Skipped; // unknown-value writes: no claim
    }
    let required: Vec<RegOp> = sorted.iter().copied().filter(|o| o.required).collect();
    let optional: Vec<RegOp> = sorted.iter().copied().filter(|o| !o.required).collect();
    if optional.len() > MAX_OPTIONAL_WRITES || required.len() + optional.len() > MAX_REGISTER_OPS {
        return RegisterVerdict::Skipped;
    }
    let mut budget = MAX_SEARCH_STATES;
    for subset in 0..(1u32 << optional.len()) {
        let mut ops = required.clone();
        for (i, o) in optional.iter().enumerate() {
            if subset & (1 << i) != 0 {
                ops.push(*o);
            }
        }
        ops.sort_by_key(|o| (o.begin, o.end.unwrap_or(u64::MAX)));
        let mut visited = FxHashSet::default();
        match linearize(&ops, (1u32 << ops.len()) - 1, 0, &mut visited, &mut budget) {
            SearchResult::Found => return RegisterVerdict::Ok,
            SearchResult::Exhausted => {}
            SearchResult::OutOfBudget => return RegisterVerdict::Skipped,
        }
    }
    RegisterVerdict::Violation(Violation::new(
        "linearizability",
        format!(
            "file {file} chunk {chunk}: no linearization of {} concurrent ops",
            sorted.len()
        ),
    ))
}

enum SearchResult {
    Found,
    Exhausted,
    OutOfBudget,
}

fn linearize(
    ops: &[RegOp],
    remaining: u32,
    value: u8,
    visited: &mut FxHashSet<(u32, u8)>,
    budget: &mut usize,
) -> SearchResult {
    if remaining == 0 {
        return SearchResult::Found;
    }
    if !visited.insert((remaining, value)) {
        return SearchResult::Exhausted;
    }
    if *budget == 0 {
        return SearchResult::OutOfBudget;
    }
    *budget -= 1;
    for i in 0..ops.len() {
        if remaining & (1 << i) == 0 {
            continue;
        }
        // Real-time order: `i` can only go next if no other remaining op
        // finished strictly before `i` began.
        let precluded = (0..ops.len()).any(|j| {
            j != i && remaining & (1 << j) != 0 && matches!(ops[j].end, Some(e) if e < ops[i].begin)
        });
        if precluded {
            continue;
        }
        let next_value = match ops[i].kind {
            RegKind::Write(Some(v)) => v,
            RegKind::Write(None) => unreachable!("filtered before search"),
            RegKind::Read(v) => {
                if v != value {
                    continue;
                }
                value
            }
        };
        match linearize(ops, remaining & !(1 << i), next_value, visited, budget) {
            SearchResult::Found => return SearchResult::Found,
            SearchResult::Exhausted => {}
            SearchResult::OutOfBudget => return SearchResult::OutOfBudget,
        }
    }
    SearchResult::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn initial_value_is_zero() {
        let ops = vec![r(0, 10, 0)];
        assert!(matches!(check_register(1, 0, &ops), RegisterVerdict::Ok));
        let ops = vec![r(0, 10, 3)];
        assert!(matches!(
            check_register(1, 0, &ops),
            RegisterVerdict::Violation(_)
        ));
    }
}
