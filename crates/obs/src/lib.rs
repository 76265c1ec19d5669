//! # slice-obs — unified observability for the Slice reproduction
//!
//! One zero-dependency crate that every layer of the stack reports into:
//!
//! * a [`Registry`] of named counters, gauges, and fixed-bucket
//!   [`Histogram`]s — the *accounting* plane, used by the bench binaries
//!   to emit figures and tables;
//! * a bounded [`Trace`] ring of typed [`EventKind`] records with
//!   per-[`Subsystem`] enable flags — the *narrative* plane, for
//!   debugging what the simulator actually did;
//! * a deterministic JSON exporter ([`Obs::export_json`]) consumed by
//!   `slice-bench`'s figure/table binaries instead of bespoke printing.
//!
//! Determinism is the design center: all timestamps are caller-supplied
//! simulated nanoseconds (this crate never reads a clock), map iteration
//! is `BTreeMap`-sorted, and float formatting is Rust's stable shortest
//! round-trip — so two runs with the same seed export byte-identical
//! JSON. The repo's regression suite asserts exactly that.
//!
//! Dependency direction: `slice-obs` sits below `slice-sim` (it knows
//! nothing about the simulator), so the sim engine, the server classes,
//! and the µproxy can all depend on it without cycles.

#![forbid(unsafe_code)]

mod json;
mod metrics;
mod trace;

pub use json::{escape_str, export};
pub use metrics::{default_latency_bounds, Histogram, Registry};
pub use trace::{EventKind, Subsystem, Trace, TraceEvent, DEFAULT_TRACE_CAPACITY};

/// The combined observability sink: one registry + one trace ring.
///
/// The sim engine owns one of these and hands it to actors through
/// `Ctx::obs()`; standalone harnesses (the Table 3 µproxy bench) can
/// own one directly.
#[derive(Debug, Default, Clone)]
pub struct Obs {
    /// Aggregate counters, gauges, histograms.
    pub registry: Registry,
    /// Recent structured events.
    pub trace: Trace,
}

impl Obs {
    /// Creates an `Obs` with an empty registry and a default-capacity
    /// trace ring (all subsystems enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an `Obs` whose trace retains at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Obs {
            registry: Registry::new(),
            trace: Trace::with_capacity(capacity),
        }
    }

    /// Records a trace event at sim time `at_ns` (no-op if the
    /// subsystem is disabled).
    pub fn record(&mut self, at_ns: u64, subsystem: Subsystem, kind: EventKind) {
        self.trace.record(at_ns, subsystem, kind);
    }

    /// Serializes the full snapshot as one deterministic JSON document,
    /// stamped with the simulated time `now_ns`.
    pub fn export_json(&self, now_ns: u64) -> String {
        export(now_ns, &self.registry, &self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_export_identical_json() {
        let build = || {
            let mut obs = Obs::with_trace_capacity(16);
            obs.registry.add("ops", 3);
            obs.registry.set_gauge("util", 0.5);
            obs.registry.observe("lat_ns", 1_500);
            obs.record(
                10,
                Subsystem::Client,
                EventKind::OpStart { op: "read", xid: 1 },
            );
            obs.export_json(99)
        };
        assert_eq!(build(), build());
    }
}
