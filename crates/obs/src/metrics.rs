//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Everything here is deterministic by construction: names map through
//! `BTreeMap`s (so iteration — and therefore JSON export — is sorted),
//! histogram buckets are fixed at creation, and no wall-clock time is
//! consulted anywhere. Values are stamped with *simulated* time only at
//! export ([`crate::Obs::export_json`] takes the sim clock), so two runs
//! with the same seed serialize byte-identically.

use std::collections::BTreeMap;

/// Default latency bucket upper bounds: powers of two from 1 µs to
/// ~33.5 s, in nanoseconds. Bucket `i` counts values in
/// `[bounds[i-1], bounds[i])`; one final bucket absorbs everything at or
/// above the last bound.
pub fn default_latency_bounds() -> Vec<u64> {
    (0..26).map(|i| 1_000u64 << i).collect()
}

/// A fixed-bucket histogram over `u64` samples (latencies in
/// nanoseconds, sizes in bytes, ...).
///
/// With bounds `[b0, b1, ..., bn]` there are `n + 2` buckets:
/// `[0, b0)`, `[b0, b1)`, ..., `[b(n-1), bn)`, and `[bn, ∞)`.
/// A sample exactly on a bound lands in the bucket *above* it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given strictly ascending upper
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. The running sum saturates rather than wrapping.
    pub fn record(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b <= v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// `q`-th sample (the exact max for the overflow bucket). 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// Named counters, gauges, and histograms.
///
/// Counters are monotone `u64`s with both incremental ([`Registry::add`])
/// and absolute ([`Registry::set`]) update forms; the absolute form makes
/// folding component-local statistics idempotent — harvesting twice never
/// double-counts. Gauges are point-in-time `f64` readings. Histograms are
/// created on first observation with caller-chosen (or default latency)
/// bounds.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets counter `name` to an absolute value (idempotent fold of a
    /// component-local statistic).
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into histogram `name`, creating it with the default
    /// latency bounds if absent.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.observe_with(name, &default_latency_bounds(), v);
    }

    /// Records `v` into histogram `name`, creating it with `bounds` if
    /// absent (existing histograms keep their original bounds).
    pub fn observe_with(&mut self, name: &str, bounds: &[u64], v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .record(v);
    }

    /// Histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Sorted iteration over counters (for export).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sorted iteration over gauges (for export).
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sorted iteration over histograms (for export).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_set() {
        let mut r = Registry::new();
        r.add("a", 2);
        r.inc("a");
        assert_eq!(r.counter("a"), 3);
        r.set("a", 10);
        r.set("a", 10);
        assert_eq!(r.counter("a"), 10);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn zero_lands_in_first_bucket() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.record(0);
        assert_eq!(h.counts(), &[1, 0, 0, 0]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn boundary_lands_in_upper_bucket() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        // A sample exactly on a bound belongs to the bucket above it:
        // bucket i is [bounds[i-1], bounds[i]).
        h.record(9);
        h.record(10);
        h.record(99);
        h.record(100);
        h.record(999);
        h.record(1000);
        assert_eq!(h.counts(), &[1, 2, 2, 1]);
    }

    #[test]
    fn overflow_bucket_saturates() {
        let mut h = Histogram::new(&[10]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.counts(), &[0, 2]);
        assert_eq!(h.max(), u64::MAX);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_from_buckets() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..90 {
            h.record(5);
        }
        for _ in 0..10 {
            h.record(500);
        }
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.95), 1000);
        assert_eq!(h.mean(), (90.0 * 5.0 + 10.0 * 500.0) / 100.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn default_bounds_cover_microseconds_to_seconds() {
        let b = default_latency_bounds();
        assert_eq!(b[0], 1_000);
        assert!(*b.last().unwrap() > 30_000_000_000);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histograms_keep_first_bounds() {
        let mut r = Registry::new();
        r.observe_with("h", &[5, 50], 3);
        r.observe_with("h", &[1, 2, 3], 60);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.bounds(), &[5, 50]);
        assert_eq!(h.counts(), &[1, 0, 1]);
    }
}
