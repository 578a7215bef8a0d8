//! The traced run's span recorder: one span around every call the
//! benchmark makes into a layer, kept in memory and written out at exit.
//!
//! Spans nest through an explicit stack, so each one knows its parent
//! and the pass (or request) it belongs to. A layer's self time is its
//! span minus the time its child spans cover; the recorder is
//! single-threaded, so children never overlap and that is a plain sum
//! over the spans naming it as parent.

use std::collections::BTreeMap;
use std::time::Instant;

use moveframe_hls::telemetry::Metrics;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The pass or request the span belongs to.
    pub pass: u32,
}

/// Totals of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder plus the registry the traced `*_traced` calls
/// write their in-program phase histograms and counters into.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    /// Counters and phase histograms from the program itself, filled by
    /// `*_traced` calls with a disabled sink.
    pub metrics: Metrics,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            metrics: Metrics::new(),
        }
    }

    /// Starts the next pass (or request); later spans carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().map(|&p| p as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns: 0,
            parent,
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_ns = self.now_ns() - start_ns;
        out
    }

    /// Records an already-measured span (the serve client times its
    /// requests itself, on its own thread).
    pub fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns,
            parent: None,
            pass: self.pass,
        });
        self.pass += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Count, total time and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += own;
        }
        out
    }

    /// Per pass, the share (0..=1) of its `name` spans' time that no
    /// child span covers.
    pub fn self_shares(&self, name: &str) -> Vec<f64> {
        let mut per_pass: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                let e = per_pass.entry(s.pass).or_default();
                e.0 += own;
                e.1 += s.dur_ns;
            }
        }
        per_pass
            .values()
            .map(|&(own, all)| own as f64 / all.max(1) as f64)
            .collect()
    }
}
