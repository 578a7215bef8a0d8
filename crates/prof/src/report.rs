//! [`ProfileReport`]: the rendered combination of profiler ledgers and
//! the metrics registry.

use std::fmt::Write as _;

use hls_telemetry::{escape_json, Metrics};

use crate::profiler::{Hotspot, PhaseLedger, Profiler, StepLedger};

/// A cost-attribution report for one profiled run.
///
/// Built from a [`Profiler`]'s event-derived ledgers plus the run's
/// [`Metrics`] counters (which also count work the event stream carries,
/// so the two sides cross-check: `coverage_pct` is the share of counted
/// energy evaluations the profiler attributed to specific nodes).
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Energy evaluations according to the counters
    /// (`mfs.energy_evaluations` + `mfsa.energy_evaluations`).
    pub counted_evals: u64,
    /// Energy evaluations the profiler attributed to specific nodes.
    pub attributed_evals: u64,
    /// `attributed / counted`, as a percentage (100 when both are 0).
    pub coverage_pct: f64,
    /// Grand totals over the event stream.
    pub totals: PhaseLedger,
    /// Incremental frame-bounds fast-path hits (`mfs.bounds.fast_path`).
    pub bounds_fast_path: u64,
    /// Frame-bounds boundary walks (`mfs.bounds.boundary_walks`).
    pub bounds_boundary_walks: u64,
    /// MFSA reuse-cost memo hits (`mfsa.reuse_memo.hits`).
    pub memo_hits: u64,
    /// MFSA reuse-cost memo fills (`mfsa.reuse_memo.fills`).
    pub memo_fills: u64,
    /// Memo fills answered by the safe one-op mux insertion rule
    /// without a repack (`mfsa.reuse_memo.insert_hits`).
    pub memo_insert_hits: u64,
    /// Memo fills that fell back to a full repack
    /// (`mfsa.reuse_memo.insert_fallbacks`).
    pub memo_insert_fallbacks: u64,
    /// Liapunov lower bounds computed by the pruned MFSA search
    /// (`mfsa.bound.evals`) — the full candidate universe; the counted
    /// energy evaluations are the bound survivors.
    pub bound_evals: u64,
    /// Candidate steps cut wholesale by the incumbent
    /// (`mfsa.prune.cut_steps`).
    pub cut_steps: u64,
    /// Instance candidates cut before the `f_MUX` recompute
    /// (`mfsa.prune.cut_instances`).
    pub cut_instances: u64,
    /// Frame recomputations skipped (`mfs.frames.reused` +
    /// `mfsa.frames.reused`).
    pub frames_reused: u64,
    /// Phase ledgers, sorted by total wall time descending (ties on
    /// name), so the flame-chart order matches the table order.
    pub phases: Vec<(String, PhaseLedger)>,
    /// The top-K node hotspots by energy evaluations.
    pub hotspots: Vec<Hotspot>,
    /// The top-K control-step hotspots by candidate probes.
    pub step_hotspots: Vec<(u32, StepLedger)>,
    /// Local reschedulings by unit class, sorted by count descending.
    pub reschedules_by_kind: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Combines `profiler` ledgers with `metrics` counters, keeping the
    /// top `top` node and step hotspots.
    pub fn build(profiler: &Profiler, metrics: &Metrics, top: usize) -> Self {
        let counted_evals =
            metrics.counter("mfs.energy_evaluations") + metrics.counter("mfsa.energy_evaluations");
        let attributed_evals = profiler.totals().energy_evals;
        let coverage_pct = if counted_evals == 0 {
            100.0
        } else {
            attributed_evals as f64 / counted_evals as f64 * 100.0
        };
        let mut phases: Vec<(String, PhaseLedger)> = profiler
            .phases()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        phases.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        let mut reschedules_by_kind: Vec<(String, u64)> = profiler
            .reschedules_by_kind()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        reschedules_by_kind.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ProfileReport {
            counted_evals,
            attributed_evals,
            coverage_pct,
            totals: *profiler.totals(),
            bounds_fast_path: metrics.counter("mfs.bounds.fast_path"),
            bounds_boundary_walks: metrics.counter("mfs.bounds.boundary_walks"),
            memo_hits: metrics.counter("mfsa.reuse_memo.hits"),
            memo_fills: metrics.counter("mfsa.reuse_memo.fills"),
            memo_insert_hits: metrics.counter("mfsa.reuse_memo.insert_hits"),
            memo_insert_fallbacks: metrics.counter("mfsa.reuse_memo.insert_fallbacks"),
            bound_evals: metrics.counter("mfsa.bound.evals"),
            cut_steps: metrics.counter("mfsa.prune.cut_steps"),
            cut_instances: metrics.counter("mfsa.prune.cut_instances"),
            frames_reused: metrics.counter("mfs.frames.reused")
                + metrics.counter("mfsa.frames.reused"),
            phases,
            hotspots: profiler.hotspots(top),
            step_hotspots: profiler.step_hotspots(top),
            reschedules_by_kind,
        }
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let t = &self.totals;
        out.push_str("== profile summary ==\n");
        let _ = writeln!(
            out,
            "energy evaluations   {} counted, {} attributed ({:.1}% coverage)",
            self.counted_evals, self.attributed_evals, self.coverage_pct
        );
        let _ = writeln!(
            out,
            "work                 {} frames, {} moves, {} local reschedules",
            t.frames_computed, t.moves_committed, t.reschedules
        );
        let _ = writeln!(
            out,
            "bounds               {} fast-path, {} boundary walks",
            self.bounds_fast_path, self.bounds_boundary_walks
        );
        let _ = writeln!(
            out,
            "reuse                {} memo hits, {} memo fills, {} frames reused",
            self.memo_hits, self.memo_fills, self.frames_reused
        );
        if self.memo_insert_hits + self.memo_insert_fallbacks > 0 {
            let _ = writeln!(
                out,
                "mux insertion        {} neutral inserts, {} repack fallbacks",
                self.memo_insert_hits, self.memo_insert_fallbacks
            );
        }
        if self.bound_evals > 0 {
            let _ = writeln!(
                out,
                "pruning              {} bound evals, {} step cuts, {} instance cuts",
                self.bound_evals, self.cut_steps, self.cut_instances
            );
        }
        if !self.reschedules_by_kind.is_empty() {
            let kinds: Vec<String> = self
                .reschedules_by_kind
                .iter()
                .map(|(k, n)| format!("'{k}'×{n}"))
                .collect();
            let _ = writeln!(out, "reschedules by kind  {}", kinds.join(" "));
        }

        if !self.phases.is_empty() {
            out.push_str("\n== phases (by wall time) ==\n");
            out.push_str(
                "phase                        calls   total_ms      evals      moves     frames\n",
            );
            for (name, p) in &self.phases {
                let _ = writeln!(
                    out,
                    "{name:<28} {:>5} {:>10.3} {:>10} {:>10} {:>10}",
                    p.calls,
                    p.total_ns as f64 / 1e6,
                    p.energy_evals,
                    p.moves_committed,
                    p.frames_computed
                );
            }
        }

        if !self.hotspots.is_empty() {
            let _ = writeln!(out, "\n== top {} node hotspots ==", self.hotspots.len());
            out.push_str(
                "node        evals     frames   mf_cells      moves  committed(fu,step)\n",
            );
            for h in &self.hotspots {
                let committed = match h.ledger.committed {
                    Some((fu, step)) => format!("({fu},{step})"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{:<6} {:>10} {:>10} {:>10} {:>10}  {committed}",
                    h.op,
                    h.ledger.energy_evals,
                    h.ledger.frames_computed,
                    h.ledger.mf_cells,
                    h.ledger.moves_committed
                );
            }
        }

        if !self.step_hotspots.is_empty() {
            let _ = writeln!(
                out,
                "\n== top {} step hotspots ==",
                self.step_hotspots.len()
            );
            out.push_str("step        evals      moves\n");
            for (step, s) in &self.step_hotspots {
                let _ = writeln!(
                    out,
                    "{:<6} {:>10} {:>10}",
                    step, s.energy_evals, s.moves_committed
                );
            }
        }
        out
    }

    /// The machine-readable report, as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let t = &self.totals;
        let _ = write!(
            s,
            "{{\"summary\":{{\"counted_evals\":{},\"attributed_evals\":{},\"coverage_pct\":{:.3},\
             \"frames_computed\":{},\"moves_committed\":{},\"local_reschedules\":{},\
             \"bounds_fast_path\":{},\"bounds_boundary_walks\":{},\
             \"memo_hits\":{},\"memo_fills\":{},\
             \"memo_insert_hits\":{},\"memo_insert_fallbacks\":{},\"frames_reused\":{},\
             \"bound_evals\":{},\"cut_steps\":{},\"cut_instances\":{}}}",
            self.counted_evals,
            self.attributed_evals,
            self.coverage_pct,
            t.frames_computed,
            t.moves_committed,
            t.reschedules,
            self.bounds_fast_path,
            self.bounds_boundary_walks,
            self.memo_hits,
            self.memo_fills,
            self.memo_insert_hits,
            self.memo_insert_fallbacks,
            self.frames_reused,
            self.bound_evals,
            self.cut_steps,
            self.cut_instances
        );
        s.push_str(",\"phases\":[");
        for (i, (name, p)) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"phase\":\"");
            escape_json(&mut s, name);
            let _ = write!(
                s,
                "\",\"calls\":{},\"total_ns\":{},\"evals\":{},\"moves\":{},\"frames\":{}}}",
                p.calls, p.total_ns, p.energy_evals, p.moves_committed, p.frames_computed
            );
        }
        s.push_str("],\"hotspots\":[");
        for (i, h) in self.hotspots.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"op\":{},\"evals\":{},\"frames\":{},\"mf_cells\":{},\"moves\":{}",
                h.op,
                h.ledger.energy_evals,
                h.ledger.frames_computed,
                h.ledger.mf_cells,
                h.ledger.moves_committed
            );
            if let Some((fu, step)) = h.ledger.committed {
                let _ = write!(s, ",\"committed\":[{fu},{step}]");
            }
            s.push('}');
        }
        s.push_str("],\"step_hotspots\":[");
        for (i, (step, l)) in self.step_hotspots.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"step\":{step},\"evals\":{},\"moves\":{}}}",
                l.energy_evals, l.moves_committed
            );
        }
        s.push_str("],\"reschedules_by_kind\":{");
        for (i, (kind, n)) in self.reschedules_by_kind.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json(&mut s, kind);
            let _ = write!(s, "\":{n}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_telemetry::{TraceEvent, TraceSink};

    fn sample_profiler() -> (Profiler, Metrics) {
        let mut p = Profiler::new();
        let mut m = Metrics::new();
        for step in [1u32, 1, 2] {
            p.record(TraceEvent::EnergyEvaluated {
                op: 4,
                pos: (1, step),
                v: 9,
            });
        }
        m.inc("mfs.energy_evaluations", 3);
        p.record(TraceEvent::MoveCommitted {
            op: 4,
            from: None,
            to: (1, 1),
            v: 9,
            system_v: None,
        });
        p.record(TraceEvent::PhaseSpan {
            phase: "mfs.move_loop".into(),
            start_ns: 0,
            dur_ns: 2_000_000,
        });
        m.inc("mfs.bounds.fast_path", 2);
        m.inc("mfs.bounds.boundary_walks", 1);
        m.inc("mfsa.bound.evals", 12);
        m.inc("mfsa.prune.cut_steps", 2);
        m.inc("mfsa.prune.cut_instances", 9);
        (p, m)
    }

    #[test]
    fn report_combines_ledgers_and_counters() {
        let (p, m) = sample_profiler();
        let r = ProfileReport::build(&p, &m, 20);
        assert_eq!(r.counted_evals, 3);
        assert_eq!(r.attributed_evals, 3);
        assert!((r.coverage_pct - 100.0).abs() < 1e-9);
        assert_eq!(r.bounds_fast_path, 2);
        assert_eq!(r.bound_evals, 12);
        assert_eq!(r.cut_steps, 2);
        assert_eq!(r.cut_instances, 9);
        assert_eq!(r.hotspots.len(), 1);
        assert_eq!(r.hotspots[0].op, 4);
        assert_eq!(r.phases[0].0, "mfs.move_loop");
        assert_eq!(r.phases[0].1.energy_evals, 3);
    }

    #[test]
    fn text_and_json_render() {
        let (p, m) = sample_profiler();
        let r = ProfileReport::build(&p, &m, 20);
        let text = r.render_text();
        assert!(text.contains("== profile summary =="));
        assert!(text.contains("100.0% coverage"));
        assert!(text.contains("mfs.move_loop"));
        assert!(text.contains("pruning              12 bound evals, 2 step cuts, 9 instance cuts"));
        let json = r.to_json();
        assert!(json.contains("\"bound_evals\":12,\"cut_steps\":2,\"cut_instances\":9"));
        assert!(json.starts_with("{\"summary\":{\"counted_evals\":3"));
        assert!(json.contains("\"hotspots\":[{\"op\":4,\"evals\":3"));
        assert!(json.contains("\"committed\":[1,1]"));
        assert!(json.ends_with("\"reschedules_by_kind\":{}}"));
    }

    #[test]
    fn empty_report_has_full_coverage() {
        let r = ProfileReport::build(&Profiler::new(), &Metrics::new(), 5);
        assert_eq!(r.counted_evals, 0);
        assert!((r.coverage_pct - 100.0).abs() < 1e-9);
        assert!(r.hotspots.is_empty());
        assert!(r.to_json().contains("\"phases\":[]"));
    }
}
