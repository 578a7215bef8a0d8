//! The iterate-vs-one-shot sweep behind `BENCH_iterate.json` (the
//! `iterate` row of [`crate::snapshots`]).
//!
//! Each workload is scheduled one-shot at `cs = cp + slack` (the
//! padded constraint mirrors how time-constrained synthesis is used in
//! practice), then refined by `hls_iterate::refine` with the standard
//! iteration ladder. Two baselines are swept:
//!
//! * **mfs** — the paper's scheduler. These rows pin the refiner's
//!   fixpoint: move-frame schedules are already resource-minimal, so
//!   the refiner must *hold* the objective, and any committed splice
//!   would be a regression elsewhere.
//! * **fds** — the force-directed (HAL) baseline. These rows carry the
//!   quality claim: feedback-guided refinement compresses the spread
//!   schedules back toward the critical path within the committed
//!   resource envelope.
//!
//! Every entry records the `(csteps, registers)` objective before and
//! after refinement, the splice counters, and the refined schedule's
//! fingerprint — everything except `wall_ms` is bit-stable across
//! runs, machines and `--threads` values.

use std::time::Instant;

use hls_benchmarks::generate::{generate, scaling_workload};
use hls_benchmarks::{classic, memory};
use hls_celllib::TimingSpec;
use hls_dfg::{CriticalPath, Dfg};
use hls_iterate::{refine, IterateConfig};
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsConfig};

use crate::scaling::fingerprint;
use crate::snapshots::{Fresh, Sweep};

/// Iteration-ladder length of every sweep entry.
pub const ITERATIONS: u32 = 4;

/// The committed snapshot must show at least this many entries with a
/// strict `(csteps, registers)` improvement — the quality claim the
/// iterate subsystem makes.
pub const MIN_IMPROVED: usize = 3;

/// Which one-shot scheduler produced the baseline schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Move-frame scheduling (the refiner's quality floor).
    Mfs,
    /// Force-directed scheduling (the refiner's lift target).
    Fds,
}

impl Baseline {
    fn name(self) -> &'static str {
        match self {
            Baseline::Mfs => "mfs",
            Baseline::Fds => "fds",
        }
    }
}

/// One sweep workload: a graph, the one-shot scheduler, and the slack
/// above the critical path the time budget allows.
pub struct Workload {
    /// Unique entry name (`fds:` prefix for force-directed rows).
    pub name: String,
    /// The graph.
    pub dfg: Dfg,
    /// One-shot scheduler.
    pub baseline: Baseline,
    /// Budget padding: `cs = cp + slack`.
    pub slack: u32,
}

impl Workload {
    fn new(name: &str, dfg: Dfg, baseline: Baseline, slack: u32) -> Workload {
        Workload {
            name: name.into(),
            dfg,
            baseline,
            slack,
        }
    }
}

/// One iterate-vs-one-shot measurement (everything but `wall_ms` is
/// deterministic).
pub struct Entry {
    /// Workload name.
    pub name: String,
    /// One-shot scheduler name (`"mfs"` / `"fds"`).
    pub baseline: &'static str,
    /// Node count of the graph.
    pub nodes: usize,
    /// Critical path — the horizon lower bound.
    pub cp: u32,
    /// Time constraint the one-shot scheduler ran at (`cp + slack`).
    pub cs: u32,
    /// Achieved horizon of the one-shot schedule.
    pub csteps_before: u32,
    /// Achieved horizon after refinement.
    pub csteps_after: u32,
    /// Peak register pressure of the one-shot schedule.
    pub registers_before: usize,
    /// Peak register pressure after refinement.
    pub registers_after: usize,
    /// Refinement rounds actually run (≤ [`ITERATIONS`]).
    pub iterations_run: u32,
    /// Splices committed (verifier + port safety + strict improvement).
    pub splices_accepted: u32,
    /// Splices discarded.
    pub splices_rejected: u32,
    /// Whether the refined objective strictly beats the one-shot one.
    pub improved: bool,
    /// Machine-local wall time of one-shot + refinement — excluded
    /// from every comparison.
    pub wall_ms: f64,
    /// FNV-1a fingerprint of the refined schedule.
    pub fingerprint: u64,
}

impl Entry {
    /// The deterministic identity used to pair fresh entries with
    /// committed snapshot lines.
    pub fn key(&self) -> String {
        format!("\"name\":\"{}\"", self.name)
    }

    /// One snapshot line.
    pub fn render(&self) -> String {
        format!(
            "    {{{},\"baseline\":\"{}\",\"nodes\":{},\"cp\":{},\"cs\":{},\"csteps_before\":{},\"csteps_after\":{},\"registers_before\":{},\"registers_after\":{},\"iterations_run\":{},\"splices_accepted\":{},\"splices_rejected\":{},\"improved\":{},\"wall_ms\":{:.1},\"fingerprint\":\"{:016x}\"}}",
            self.key(),
            self.baseline,
            self.nodes,
            self.cp,
            self.cs,
            self.csteps_before,
            self.csteps_after,
            self.registers_before,
            self.registers_after,
            self.iterations_run,
            self.splices_accepted,
            self.splices_rejected,
            self.improved,
            self.wall_ms,
            self.fingerprint
        )
    }
}

/// The workload list of the full sweep: the paper benchmarks, the
/// memory kernels and a generated graph under MFS, plus the
/// force-directed rows that carry the quality claim.
pub fn full_workloads() -> Vec<Workload> {
    let mut w = quick_workloads();
    w.push(Workload::new("fir16", classic::fir(16), Baseline::Mfs, 2));
    w.push(Workload::new("ewf", classic::ewf(), Baseline::Mfs, 2));
    w.push(Workload::new(
        "matvec",
        memory::matvec(3, 2),
        Baseline::Mfs,
        8,
    ));
    w.push(Workload::new(
        "gen:2000",
        generate(&scaling_workload(2_000)),
        Baseline::Mfs,
        2,
    ));
    w.push(Workload::new("fds:ewf", classic::ewf(), Baseline::Fds, 4));
    w.push(Workload::new(
        "fds:fir16",
        classic::fir(16),
        Baseline::Fds,
        4,
    ));
    w.push(Workload::new("fds:dct8", classic::dct8(), Baseline::Fds, 4));
    w.push(Workload::new(
        "fds:ar",
        classic::ar_filter(),
        Baseline::Fds,
        4,
    ));
    w
}

/// The CI smoke subset: small, fast, still covering the MFS fixpoint,
/// a banked-memory kernel, and one force-directed lift.
pub fn quick_workloads() -> Vec<Workload> {
    vec![
        Workload::new("diffeq", classic::diffeq(), Baseline::Mfs, 2),
        Workload::new("array_fir", memory::array_fir(8, 2), Baseline::Mfs, 8),
        Workload::new("fds:diffeq", classic::diffeq(), Baseline::Fds, 4),
    ]
}

/// Runs one workload (one-shot at `cp + slack`, then refinement) and
/// appends the entry; progress goes to stderr.
pub fn bench_one(w: &Workload, entries: &mut Vec<Entry>) {
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&w.dfg, &spec).steps() as u32;
    let cs = cp + w.slack;
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let start = Instant::now();
    let refined = {
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        let schedule = match w.baseline {
            Baseline::Mfs => {
                let config = MfsConfig::time_constrained(cs);
                mfs::schedule_traced(&w.dfg, &spec, &config, &mut instr)
                    .unwrap_or_else(|e| panic!("one-shot mfs {} at cs={cs}: {e}", w.name))
                    .schedule
            }
            Baseline::Fds => hls_baselines::force_directed_schedule(&w.dfg, &spec, cs)
                .unwrap_or_else(|e| panic!("one-shot fds {} at cs={cs}: {e}", w.name)),
        };
        refine(
            &w.dfg,
            &spec,
            &schedule,
            &IterateConfig::new(ITERATIONS),
            &mut instr,
        )
        .unwrap_or_else(|e| panic!("refine {}: {e}", w.name))
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let entry = Entry {
        name: w.name.clone(),
        baseline: w.baseline.name(),
        nodes: w.dfg.node_count(),
        cp,
        cs,
        csteps_before: refined.csteps_before,
        csteps_after: refined.csteps_after,
        registers_before: refined.registers_before,
        registers_after: refined.registers_after,
        iterations_run: refined.iterations_run,
        splices_accepted: refined.splices_accepted,
        splices_rejected: refined.splices_rejected,
        improved: (refined.csteps_after, refined.registers_after)
            < (refined.csteps_before, refined.registers_before),
        wall_ms,
        fingerprint: fingerprint(&refined.schedule),
    };
    eprintln!(
        "# {}: cp {} cs {} | ({}, {}) -> ({}, {}) in {} round(s), {} splice(s), {:.1} ms",
        entry.name,
        entry.cp,
        entry.cs,
        entry.csteps_before,
        entry.registers_before,
        entry.csteps_after,
        entry.registers_after,
        entry.iterations_run,
        entry.splices_accepted,
        entry.wall_ms
    );
    entries.push(entry);
}

/// Regenerates `BENCH_iterate.json`: the smoke subset under
/// [`Sweep::Quick`], every workload otherwise.
pub fn snapshot(sweep: &Sweep) -> Fresh {
    let workloads = match sweep {
        Sweep::Quick => quick_workloads(),
        _ => full_workloads(),
    };
    let mut entries = Vec::new();
    for w in &workloads {
        bench_one(w, &mut entries);
    }
    Fresh::keyed(&entries, Entry::key, render(&entries))
}

/// Renders the full `BENCH_iterate.json` document.
pub fn render(entries: &[Entry]) -> String {
    let rows: Vec<String> = entries.iter().map(Entry::render).collect();
    format!(
        "{{\n  \"note\": \"iterate-vs-one-shot sweep: one-shot at cs = cp + slack, then {ITERATIONS} feedback-guided refinement rounds; mfs rows pin the refiner's fixpoint, fds rows its lift; all fields except wall_ms are deterministic and pinned by bench_diff\",\n  \"entries\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    )
}

/// The quality gate on the committed document: at least
/// [`MIN_IMPROVED`] entries must show a strict `(csteps, registers)`
/// improvement over one-shot scheduling. The keyed comparison pins
/// each swept entry to its committed line, so the claim holds for
/// fresh runs too.
pub fn require_improvements(committed: &str) -> Vec<String> {
    let improved = committed.matches("\"improved\":true").count();
    if improved >= MIN_IMPROVED {
        Vec::new()
    } else {
        vec![format!(
            "only {improved} iterate entries improve on one-shot scheduling (need {MIN_IMPROVED})"
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        Entry {
            name: "fds:diffeq".into(),
            baseline: "fds",
            nodes: 11,
            cp: 4,
            cs: 8,
            csteps_before: 8,
            csteps_after: 4,
            registers_before: 7,
            registers_after: 7,
            iterations_run: 3,
            splices_accepted: 2,
            splices_rejected: 2,
            improved: true,
            wall_ms: 1.5,
            fingerprint: 0xabcd,
        }
    }

    /// `committed` held against the document rendered from `fresh`, as
    /// the `iterate` snapshot row compares them.
    fn diff_exact(fresh: &[Entry], committed: &str) -> Vec<String> {
        Fresh::keyed(fresh, Entry::key, render(fresh)).diff(committed)
    }

    #[test]
    fn exact_diff_ignores_wall_clock_only() {
        let snapshot = render(&[entry()]);
        let mut fresh = entry();
        fresh.wall_ms = 99.9;
        assert!(diff_exact(&[fresh], &snapshot).is_empty());

        let mut drifted = entry();
        drifted.csteps_after += 1;
        drifted.improved = false;
        drifted.fingerprint ^= 1;
        let drift = diff_exact(&[drifted], &snapshot);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift[0].contains("csteps_after 4 -> 5"), "{drift:?}");
        assert!(drift[1].contains("fingerprint"), "{drift:?}");
        assert!(drift[2].contains("improved true -> false"), "{drift:?}");
    }

    #[test]
    fn exact_diff_reports_missing_entries() {
        let mut other = entry();
        other.name = "fds:ewf".into();
        let drift = diff_exact(&[other], &render(&[entry()]));
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("no committed entry"), "{drift:?}");
    }

    #[test]
    fn improvement_gate_counts_strict_improvements() {
        let line = "{\"name\":\"x\",\"improved\":true}\n";
        assert!(require_improvements(&line.repeat(3)).is_empty());
        let gate = require_improvements(&line.replace("true", "false").repeat(3));
        assert_eq!(gate.len(), 1);
        assert!(gate[0].contains("need 3"), "{gate:?}");
    }

    #[test]
    fn quick_sweep_is_deterministic_and_lifts_the_fds_row() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for w in quick_workloads() {
            bench_one(&w, &mut a);
            bench_one(&w, &mut b);
        }
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint, "{}", x.name);
            assert_eq!(x.csteps_after, y.csteps_after, "{}", x.name);
            assert_eq!(x.registers_after, y.registers_after, "{}", x.name);
        }
        assert!(diff_exact(&a, &render(&b)).is_empty());
        let fds = a.iter().find(|e| e.name == "fds:diffeq").unwrap();
        assert!(fds.improved, "fds row should compress: {}", fds.render());
        let mfs = a.iter().find(|e| e.name == "diffeq").unwrap();
        assert_eq!(mfs.csteps_before, mfs.csteps_after, "mfs fixpoint holds");
    }
}
