//! **hls-telemetry** — structured tracing, metrics and profiling for the
//! moveframe-hls synthesis pipeline.
//!
//! The paper's central claim is that MFS/MFSA converge through a
//! sequence of Liapunov-energy-decreasing *moves* (frame computation →
//! energy minimisation → local rescheduling). This crate makes that
//! sequence observable without perturbing it:
//!
//! * a typed [`TraceEvent`] model covering the whole pipeline — frames,
//!   energy evaluations, committed moves, local reschedulings and timed
//!   phase spans;
//! * a [`TraceSink`] trait with [`NullSink`] (disabled, zero-cost),
//!   [`MemorySink`] (tests/analysis) and [`JsonlSink`] (streams JSON
//!   Lines to any writer) implementations;
//! * a [`Metrics`] registry of monotonic counters and log₂ histograms
//!   with text and JSON reports;
//! * a Chrome `trace_event` exporter ([`chrome_trace`]) that turns
//!   phase spans into an `about://tracing`/Perfetto flame chart;
//! * [`Instrument`], the handle producers thread through a run, pairing
//!   a sink with a metrics registry and timing nested phases.
//!
//! Instrumentation is strictly write-only: nothing a sink observes can
//! feed back into scheduling, so a run with a [`NullSink`] is
//! bit-identical to an instrumented one (the workspace tests assert
//! this).
//!
//! ```
//! use hls_telemetry::{Instrument, MemorySink, Metrics, TraceEvent};
//!
//! let mut sink = MemorySink::new();
//! let mut metrics = Metrics::new();
//! let mut instr = Instrument::new(&mut sink, &mut metrics);
//! let answer = instr.span("demo.phase", |instr| {
//!     instr.inc("demo.widgets", 3);
//!     if instr.enabled() {
//!         instr.emit(TraceEvent::EnergyEvaluated { op: 0, pos: (1, 1), v: 9 });
//!     }
//!     42
//! });
//! assert_eq!(answer, 42);
//! assert_eq!(metrics.counter("demo.widgets"), 3);
//! assert_eq!(sink.events().len(), 2); // the energy event + the span
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod metrics;
mod sink;

pub use chrome::chrome_trace;
pub use event::{escape_json, TraceEvent};
pub use metrics::{Histogram, Metrics};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};

use std::time::Instant;

/// Nanoseconds since the process's trace epoch (the first call in the
/// process). All [`TraceEvent::PhaseSpan`] timestamps share this epoch,
/// so spans from different pipeline stages line up on one timeline.
pub fn epoch_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The instrumentation handle a pipeline stage threads through a run:
/// one sink for events, one registry for metrics.
///
/// Cheap to construct; borrow-scoped so several stages can reuse the
/// same sink and registry sequentially.
pub struct Instrument<'a> {
    sink: &'a mut dyn TraceSink,
    metrics: &'a mut Metrics,
}

impl<'a> Instrument<'a> {
    /// Pairs a sink with a metrics registry.
    pub fn new(sink: &'a mut dyn TraceSink, metrics: &'a mut Metrics) -> Self {
        Instrument { sink, metrics }
    }

    /// Whether the sink wants events. Producers must gate construction
    /// of per-candidate events on this (counters are always cheap and
    /// always recorded).
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Sends one event to the sink (dropped when disabled).
    pub fn emit(&mut self, event: TraceEvent) {
        if self.sink.enabled() {
            self.sink.record(event);
        }
    }

    /// Adds `by` to counter `name`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        self.metrics.inc(name, by);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.metrics.observe(name, value);
    }

    /// Folds a locally tallied histogram into histogram `name`: the
    /// same count, sum, min, max and buckets as observing each of its
    /// samples here.
    pub fn merge_histogram(&mut self, name: &'static str, histogram: &Histogram) {
        self.metrics.merge_histogram(name, histogram);
    }

    /// Runs `f` as the timed phase `name`: wall time lands in the
    /// histogram `phase.<name>.ns` and, when the sink is enabled, as a
    /// [`TraceEvent::PhaseSpan`]. Phases nest.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start_ns = epoch_ns();
        let started = Instant::now();
        let out = f(self);
        let dur_ns = started.elapsed().as_nanos() as u64;
        self.metrics.observe(format!("phase.{name}.ns"), dur_ns);
        if self.sink.enabled() {
            self.sink.record(TraceEvent::PhaseSpan {
                phase: name.into(),
                start_ns,
                dur_ns,
            });
        }
        out
    }

    /// Read access to the accumulating metrics.
    pub fn metrics(&self) -> &Metrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotone() {
        let a = epoch_ns();
        let b = epoch_ns();
        assert!(b >= a);
    }

    #[test]
    fn spans_nest_and_time() {
        let mut sink = MemorySink::new();
        let mut metrics = Metrics::new();
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        instr.span("outer", |i| {
            i.span("inner", |i| i.inc("n", 1));
        });
        assert_eq!(metrics.counter("n"), 1);
        assert!(metrics.histogram("phase.outer.ns").is_some());
        assert!(metrics.histogram("phase.inner.ns").is_some());
        // Inner span is recorded first (it finishes first).
        let phases: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseSpan { phase, .. } => Some(phase.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec!["inner", "outer"]);
    }

    #[test]
    fn disabled_sink_still_collects_metrics() {
        let mut sink = NullSink;
        let mut metrics = Metrics::new();
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        assert!(!instr.enabled());
        instr.span("p", |i| {
            i.emit(TraceEvent::EnergyEvaluated {
                op: 0,
                pos: (1, 1),
                v: 1,
            });
            i.inc("c", 2);
        });
        assert_eq!(metrics.counter("c"), 2);
        assert_eq!(metrics.histogram("phase.p.ns").unwrap().count(), 1);
    }
}
