//! Write-ahead logging with group commit.
//!
//! Slice file managers are *dataless*: "each manager journals its updates
//! in a write-ahead log; the system can recover the state of any manager
//! from its backing objects together with its log" (§2.3). Both the
//! directory servers and the block-service coordinator use this WAL. The
//! log is modelled as an append-only stream on a dedicated log disk in the
//! shared network storage array: appends issued while a log write is in
//! flight join the next batch, which amortizes the per-write latency across
//! operations — the paper's "amortizing intention logging costs across
//! multiple operations" (§3.3.2).
//!
//! The WAL survives node crashes (it lives in shared network storage);
//! records whose batch had not reached the disk by crash time are lost,
//! which is exactly the window the recovery protocols must tolerate.
//!
//! A log holds the records *not yet folded* into its owner's backing
//! objects. An owner that keeps a durable image takes each record out
//! once it is durable ([`Wal::pop_durable`]) and its log stays as short as
//! the batch in flight; an owner that keeps none leaves every record in
//! and replays them all ([`Wal::iter`]).

use std::collections::VecDeque;

use slice_sim::time::{SimDuration, SimTime};

// The log device is a dedicated log region on a Cheetah-class disk:
// sub-millisecond positioning (sequential) plus media rate.

/// Latency of one physical log write (position + commit a batch).
const WRITE_LATENCY: SimDuration = SimDuration::from_micros(500);
/// Sequential bandwidth of the log device, bytes/second.
const BANDWIDTH_BPS: f64 = 30_000_000.0;

/// A crash-surviving log of typed records: appended at the back, folded
/// away from the front.
#[derive(Debug, Clone)]
pub struct Wal<T> {
    /// Group commit: appends that arrive while a log write is in flight
    /// join its batch.
    batched: bool,
    /// (instant the record is durable, record), oldest first. Durable
    /// instants never decrease, so the durable records are a prefix.
    records: VecDeque<(SimTime, T)>,
    /// Log device busy until this instant.
    device_free: SimTime,
    appended_bytes: u64,
    appends: u64,
    batches: u64,
}

impl<T> Wal<T> {
    /// Creates an empty log. `batched` turns group commit on; without it
    /// (an ablation) every record pays one full-latency write.
    pub fn new(batched: bool) -> Self {
        Wal {
            batched,
            records: VecDeque::new(),
            device_free: SimTime::ZERO,
            appended_bytes: 0,
            appends: 0,
            batches: 0,
        }
    }

    /// Appends a record of `size` bytes at `now`; returns the instant the
    /// record is durable. Appends that arrive while the device is busy join
    /// the in-flight batch window and share its completion.
    pub fn append(&mut self, now: SimTime, record: T, size: usize) -> SimTime {
        self.appends += 1;
        self.appended_bytes += size as u64;
        let media = SimDuration::from_secs_f64(size as f64 / BANDWIDTH_BPS);
        let durable = if now >= self.device_free {
            // Device idle: start a new batch.
            self.batches += 1;
            let d = now + WRITE_LATENCY + media;
            self.device_free = d;
            d
        } else if self.batched {
            // Join the batch in flight; only marginal media time is added.
            let d = self.device_free + media;
            self.device_free = d;
            d
        } else {
            // No group commit: queue a full write behind the device.
            self.batches += 1;
            let d = self.device_free + WRITE_LATENCY + media;
            self.device_free = d;
            d
        };
        self.records.push_back((durable, record));
        durable
    }

    /// Records held: appended, neither lost to a crash nor popped.
    pub fn held(&self) -> usize {
        self.records.len()
    }

    /// Every record held, oldest first, with the instant it is durable.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &T)> {
        self.records.iter().map(|(d, r)| (*d, r))
    }

    /// Takes the oldest record out if its batch has reached the disk by
    /// `now`, for the owner to fold into its backing objects.
    pub fn pop_durable(&mut self, now: SimTime) -> Option<T> {
        if self.records.front()?.0 > now {
            return None;
        }
        self.records.pop_front().map(|(_, r)| r)
    }

    /// A crash at `crash_time`: the records whose batch had not reached
    /// the disk by then are discarded, and no later recovery sees them.
    /// What stays held is what a recovery scan reads back.
    pub fn recover(&mut self, crash_time: SimTime) {
        let durable = self.records.partition_point(|(d, _)| *d <= crash_time);
        self.records.truncate(durable);
    }

    /// (appends, physical batches, bytes) over the log's lifetime —
    /// batching effectiveness.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.appends, self.batches, self.appended_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn append_is_durable_after_latency() {
        let mut wal: Wal<u32> = Wal::new(true);
        let d = wal.append(t(10), 1, 128);
        assert!(d > t(10));
        assert!(d < t(11));
    }

    #[test]
    fn group_commit_amortizes() {
        let mut wal: Wal<u32> = Wal::new(true);
        let d1 = wal.append(t(0), 1, 100);
        // Second append lands while the first batch is in flight: its extra
        // cost is media time only, far below the write latency.
        let d2 = wal.append(t(0), 2, 100);
        assert!(d2 > d1);
        assert!((d2 - d1) < SimDuration::from_micros(50));
        let (appends, batches, _) = wal.stats();
        assert_eq!(appends, 2);
        assert_eq!(batches, 1);
    }

    #[test]
    fn idle_gap_starts_new_batch() {
        let mut wal: Wal<u32> = Wal::new(true);
        wal.append(t(0), 1, 100);
        wal.append(t(50), 2, 100);
        let (_, batches, _) = wal.stats();
        assert_eq!(batches, 2);
    }

    /// What a recovery scan after a crash at `crash_time` reads back.
    fn scan<T: Clone>(wal: &Wal<T>, crash_time: SimTime) -> Vec<T> {
        let mut wal = wal.clone();
        wal.recover(crash_time);
        wal.iter().map(|(_, r)| r.clone()).collect()
    }

    #[test]
    fn recovery_sees_only_durable_records() {
        let mut wal: Wal<&'static str> = Wal::new(true);
        let d1 = wal.append(t(0), "first", 64);
        let _d2 = wal.append(t(20), "second", 64);
        // Crash right after the first record becomes durable.
        assert_eq!(scan(&wal, d1), vec!["first"]);
        // Much later, both are durable.
        assert_eq!(scan(&wal, t(1000)), vec!["first", "second"]);
        // Crash before anything is durable loses everything.
        assert!(scan(&wal, SimTime::ZERO).is_empty());
    }

    /// Defect 1(viii): a record that was not durable at a crash is gone,
    /// whatever instant the next crash strikes at.
    #[test]
    fn a_record_lost_at_one_crash_stays_lost_at_the_next() {
        let mut wal: Wal<u32> = Wal::new(true);
        wal.append(t(0), 1, 64);
        wal.append(t(20), 2, 64);
        wal.append(t(20), 3, 64);
        wal.recover(t(20));
        assert_eq!(wal.held(), 1);
        wal.append(t(40), 4, 64);
        assert_eq!(scan(&wal, t(1000)), vec![1, 4]);
    }

    #[test]
    fn durability_boundary_is_inclusive() {
        let mut wal: Wal<u32> = Wal::new(true);
        let d = wal.append(t(5), 9, 256);
        // A crash exactly at the durable instant sees the record; any
        // instant before it does not. The same instant decides a pop.
        assert_eq!(scan(&wal, d), vec![9]);
        assert!(scan(&wal, d - SimDuration::from_nanos(1)).is_empty());
        assert_eq!(wal.pop_durable(d - SimDuration::from_nanos(1)), None);
        assert_eq!(wal.pop_durable(d), Some(9));
    }

    #[test]
    fn pop_durable_takes_the_durable_prefix_and_nothing_else() {
        let mut wal: Wal<u32> = Wal::new(true);
        for i in 0..10 {
            wal.append(t(i * 10), i as u32, 32);
        }
        // At t = 65 ms the records of t = 0 .. 60 have reached the disk.
        let folded: Vec<u32> = std::iter::from_fn(|| wal.pop_durable(t(65))).collect();
        assert_eq!(folded, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(wal.held(), 3);
        // What was popped is the owner's now: no crash brings it back, and
        // a crash still loses what was not durable among the rest.
        assert_eq!(scan(&wal, t(85)), vec![7, 8]);
        assert_eq!(scan(&wal, t(10_000)), vec![7, 8, 9]);
        // The statistics are of the log's lifetime, not of what it holds.
        assert_eq!(wal.stats().0, 10);
    }

    #[test]
    fn pop_durable_splits_a_batch_at_the_instant() {
        // Two records sharing one batch become durable at distinct
        // instants (media time separates them).
        let mut wal: Wal<u32> = Wal::new(true);
        let d1 = wal.append(t(0), 1, 100_000);
        let d2 = wal.append(t(0), 2, 100_000);
        assert_eq!(wal.stats().1, 1);
        assert_eq!(wal.pop_durable(d1), Some(1));
        assert_eq!(wal.pop_durable(d2 - SimDuration::from_nanos(1)), None);
        assert_eq!(wal.pop_durable(d2), Some(2));
        assert_eq!(wal.held(), 0);
    }
}
