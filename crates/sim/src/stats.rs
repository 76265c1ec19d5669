//! Measurement helpers: latency distributions and labelled series used by
//! the workload generators and the experiment harness.

use crate::time::SimDuration;

/// Accumulates latency samples and reports summary statistics.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean; zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| u128::from(s)).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0–1.0); zero if empty.
    pub fn quantile(&mut self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let idx = ((self.samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        SimDuration::from_nanos(self.samples[idx])
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// A labelled (x, y) series, the output unit of every figure harness.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label, e.g. `"Slice-4"`.
    pub label: String,
    /// The data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders the series as aligned text rows, one `x y` pair per line.
    pub fn to_rows(&self) -> String {
        let mut out = String::new();
        for (x, y) in &self.points {
            out.push_str(&format!("{x:>12.3} {y:>14.3}\n"));
        }
        out
    }
}

/// Renders a table of series side by side for terminal output, with the x
/// column first and one column per series.
pub fn render_table(x_label: &str, y_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>12}", x_label));
    for s in series {
        out.push_str(&format!(" {:>14}", s.label));
    }
    out.push_str(&format!("   ({y_label})\n"));
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.0))
            .unwrap_or(f64::NAN);
        out.push_str(&format!("{x:>12.2}"));
        for s in series {
            match s.points.get(i) {
                Some((_, y)) => out.push_str(&format!(" {y:>14.2}")),
                None => out.push_str(&format!(" {:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary() {
        let mut l = LatencyStats::new();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            l.record(SimDuration::from_millis(ms));
        }
        assert_eq!(l.count(), 10);
        assert_eq!(l.mean(), SimDuration::from_micros(5500));
        assert_eq!(l.quantile(0.5), SimDuration::from_millis(6));
        assert_eq!(l.quantile(1.0), SimDuration::from_millis(10));
    }

    #[test]
    fn empty_latency_is_zero() {
        let mut l = LatencyStats::new();
        assert_eq!(l.mean(), SimDuration::ZERO);
        assert_eq!(l.quantile(0.99), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(SimDuration::from_millis(1));
        let mut b = LatencyStats::new();
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_millis(2));
    }

    #[test]
    fn table_rendering() {
        let mut s1 = Series::new("Slice-1");
        s1.push(1.0, 100.0);
        s1.push(2.0, 190.0);
        let mut s2 = Series::new("Slice-2");
        s2.push(1.0, 100.0);
        let t = render_table("clients", "IOPS", &[s1, s2]);
        assert!(t.contains("Slice-1"));
        assert!(t.contains("190.00"));
        assert!(t.lines().count() == 3);
    }
}
