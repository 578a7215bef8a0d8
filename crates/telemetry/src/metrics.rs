//! The metrics registry: monotonic counters and log₂-bucket histograms.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::escape_json;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value has `i` significant bits
/// (bucket 0 counts zeros), i.e. boundaries at 1, 2, 4, 8, …. Exact
/// count/sum/min/max are kept alongside, so means are exact and
/// quantiles are right up to one power of two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`); exact up to one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        self.max
    }

    /// The inclusive upper bound of bucket `i`: bucket 0 holds zeros,
    /// bucket `i ≥ 1` holds values with `i` significant bits, i.e.
    /// `[2^(i-1), 2^i − 1]`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// The cumulative bucket view used by the Prometheus exposition:
    /// `(le, cumulative_count)` pairs over the non-empty prefix of the
    /// fixed power-of-two buckets. Because the bucket boundaries are
    /// fixed (never resampled or rebalanced), merging shards and then
    /// reading this view is bit-identical to one sink observing every
    /// sample — the property that makes percentiles deterministic
    /// across thread counts.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&n| n > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut cum = 0;
        (0..=last)
            .map(|i| {
                cum += self.buckets[i];
                (Self::bucket_upper_bound(i), cum)
            })
            .collect()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// A named registry of monotonic counters and histograms.
///
/// Names are dot-namespaced by producer (`"mfs.moves_committed"`,
/// `"phase.mfsa.move_loop.ns"`). The registry renders itself as an
/// aligned text report or a JSON object, and registries merge, so a
/// bench harness can aggregate across runs.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<Cow<'static, str>, u64>,
    histograms: BTreeMap<Cow<'static, str>, Histogram>,
    /// Prometheus exposition ids, sanitised once when a name is first
    /// registered (never per render).
    prom_ids: BTreeMap<Cow<'static, str>, String>,
}

/// Maps a dot-namespaced metric name onto the Prometheus metric-name
/// charset (`serve.http.200` → `serve_http_200`).
fn prom_sanitise(name: &str) -> String {
    let mut id = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => id.push(c),
            '0'..='9' if i > 0 => id.push(c),
            _ => id.push('_'),
        }
    }
    id
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the sanitised exposition id of a freshly registered name.
    // Takes `&Cow` (not `&str`) so a `Cow::Borrowed` key clones for
    // free instead of re-allocating a `String`.
    #[allow(clippy::ptr_arg)]
    fn register(&mut self, name: &Cow<'static, str>) {
        if !self.prom_ids.contains_key(name.as_ref()) {
            self.prom_ids.insert(name.clone(), prom_sanitise(name));
        }
    }

    /// Adds `by` to the counter `name`, creating it at zero.
    pub fn inc(&mut self, name: impl Into<Cow<'static, str>>, by: u64) {
        let name = name.into();
        // A known counter is already registered: one lookup, no clone.
        if let Some(count) = self.counters.get_mut(name.as_ref()) {
            *count += by;
            return;
        }
        self.register(&name);
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Records `value` into the histogram `name`, creating it empty.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        let name = name.into();
        if let Some(histogram) = self.histograms.get_mut(name.as_ref()) {
            histogram.observe(value);
            return;
        }
        self.register(&name);
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Folds `histogram` into the histogram `name`, creating it empty.
    pub fn merge_histogram(&mut self, name: impl Into<Cow<'static, str>>, histogram: &Histogram) {
        let name = name.into();
        self.register(&name);
        self.histograms.entry(name).or_default().merge(histogram);
    }

    /// The current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Keeps only entries whose name satisfies `keep` (e.g. dropping
    /// nondeterministic `*.ns` timings before a committed snapshot).
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.counters.retain(|k, _| keep(k));
        self.histograms.retain(|k, _| keep(k));
        self.prom_ids
            .retain(|k, _| self.counters.contains_key(k) || self.histograms.contains_key(k));
    }

    /// Folds `other` into `self` (counters add, histograms merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, &v) in &other.counters {
            self.register(k);
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.register(k);
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// An aligned, human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.histograms.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  n={} min={} mean={:.1} p90≤{} max={}",
                    h.count(),
                    h.min(),
                    h.mean(),
                    h.quantile(0.9),
                    h.max()
                );
            }
        }
        out
    }

    /// The sanitised Prometheus exposition id of `name` (computed once
    /// at registration; falls back to sanitising on the spot for names
    /// that entered through an old serialised registry).
    fn prom_id<'a>(&'a self, name: &str) -> Cow<'a, str> {
        match self.prom_ids.get(name) {
            Some(id) => Cow::Borrowed(id.as_str()),
            None => Cow::Owned(prom_sanitise(name)),
        }
    }

    /// The registry in the Prometheus text exposition format (v0.0.4),
    /// as served by `hls-serve`'s `/metrics` endpoint.
    ///
    /// Dot-namespaced names were sanitised to the metric-name charset
    /// when first registered (`serve.http.200` → `serve_http_200`), so
    /// rendering is a pure walk over the sorted registry — the output
    /// is byte-deterministic for a given registry state, with metric
    /// families in sorted name order. Counters render as `counter`
    /// samples; each histogram renders as a `histogram` family with
    /// cumulative `<name>_bucket{le="..."}` samples at the fixed
    /// power-of-two bucket bounds plus exact `<name>_sum` and
    /// `<name>_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        // Merge-walk the two sorted maps so families come out in one
        // global name order, not counters-then-histograms.
        let mut counters = self.counters.iter().peekable();
        let mut histograms = self.histograms.iter().peekable();
        loop {
            let counter_first = match (counters.peek(), histograms.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((ck, _)), Some((hk, _))) => ck <= hk,
            };
            if counter_first {
                let (name, value) = counters.next().unwrap();
                let id = self.prom_id(name);
                let _ = writeln!(out, "# TYPE {id} counter");
                let _ = writeln!(out, "{id} {value}");
            } else {
                let (name, h) = histograms.next().unwrap();
                let id = self.prom_id(name);
                let _ = writeln!(out, "# TYPE {id} histogram");
                for (le, cum) in h.cumulative_buckets() {
                    let _ = writeln!(out, "{id}_bucket{{le=\"{le}\"}} {cum}");
                }
                let _ = writeln!(out, "{id}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{id}_sum {}", h.sum());
                let _ = writeln!(out, "{id}_count {}", h.count());
            }
        }
        out
    }

    /// The registry as one JSON object:
    /// `{"counters":{...},"histograms":{name:{count,sum,min,max,mean}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json(&mut s, name);
            let _ = write!(s, "\":{value}");
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json(&mut s, name);
            let _ = write!(
                s,
                "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean()
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("mfs.moves_committed", 1);
        m.inc("mfs.moves_committed", 2);
        assert_eq!(m.counter("mfs.moves_committed"), 3);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) >= 64, "100 lives in the [64,128) bucket");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Metrics::new();
        a.inc("c", 1);
        a.observe("h", 4);
        let mut b = Metrics::new();
        b.inc("c", 2);
        b.inc("d", 5);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 5);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
    }

    #[test]
    fn merging_a_tallied_histogram_equals_observing_each_sample() {
        // A producer may tally samples locally and fold them in once;
        // the registry must read as if it had observed each one, on
        // top of samples it already holds.
        let samples = [0u64, 7, 1, 300, 7, 64];
        let mut observed = Metrics::new();
        let mut merged = Metrics::new();
        let mut local = Histogram::new();
        for m in [&mut observed, &mut merged] {
            m.observe("h", 5);
        }
        for &v in &samples {
            observed.observe("h", v);
            local.observe(v);
        }
        merged.merge_histogram("h", &local);
        assert_eq!(merged.histogram("h"), observed.histogram("h"));
    }

    #[test]
    fn reports_render() {
        let mut m = Metrics::new();
        m.inc("runs", 2);
        m.observe("ns", 1500);
        let text = m.render_text();
        assert!(text.contains("runs"));
        assert!(text.contains("histograms:"));
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"runs\":2"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn empty_report_says_so() {
        assert!(Metrics::new().render_text().contains("no metrics"));
    }

    #[test]
    fn prometheus_rendering_sanitises_names_at_registration() {
        let mut m = Metrics::new();
        m.inc("serve.http.200", 3);
        m.observe("serve.request.wall_ns", 1000);
        m.observe("serve.request.wall_ns", 3000);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE serve_http_200 counter\nserve_http_200 3\n"));
        assert!(text.contains("# TYPE serve_request_wall_ns histogram\n"));
        // 1000 has 10 significant bits (bucket le 1023), 3000 has 12
        // (le 4095); the bucket samples are cumulative.
        assert!(text.contains("serve_request_wall_ns_bucket{le=\"1023\"} 1\n"));
        assert!(text.contains("serve_request_wall_ns_bucket{le=\"4095\"} 2\n"));
        assert!(text.contains("serve_request_wall_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_request_wall_ns_sum 4000\n"));
        assert!(text.contains("serve_request_wall_ns_count 2\n"));
        assert!(Metrics::new().render_prometheus().is_empty());
    }

    #[test]
    fn prometheus_output_is_sorted_and_deterministic() {
        // Register names in shuffled order; the exposition must come
        // out sorted by family name, identically across renders and
        // across a merge that replays the same observations.
        let mut m = Metrics::new();
        for name in ["z.last", "a.first", "m.middle", "serve.http.200"] {
            m.inc(name, 1);
        }
        m.observe("z.hist", 5);
        m.observe("a.hist", 7);
        let text = m.render_prometheus();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let mut sorted = families.clone();
        sorted.sort_unstable();
        assert_eq!(families, sorted, "{text}");
        assert_eq!(text, m.render_prometheus(), "repeat renders are identical");
        let mut replay = Metrics::new();
        replay.merge(&m);
        assert_eq!(text, replay.render_prometheus(), "merge preserves output");
    }

    #[test]
    fn cumulative_buckets_cover_every_sample() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 7, 8, u64::MAX] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.first(), Some(&(0, 1)), "zeros land in le=0");
        assert_eq!(
            buckets.last(),
            Some(&(u64::MAX, 6)),
            "the final cumulative count equals count()"
        );
        assert!(
            buckets
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "bounds strictly increase, counts are monotone: {buckets:?}"
        );
        assert!(Histogram::new().cumulative_buckets().is_empty());
    }
}
