//! The dense-scheduler scaling sweep behind `BENCH_core.json` (the
//! `core` row of [`crate::snapshots`]).
//!
//! Generates seeded layered random DFGs at several sizes and runs the
//! two paper kernels in both constraint styles. Every entry records the
//! wall time plus the deterministic work counters and an FNV-1a
//! fingerprint of the resulting schedule. Counters and fingerprints are
//! bit-stable across runs and machines; wall times are not and are
//! ignored by every comparison.

use std::time::Instant;

use hls_benchmarks::generate::{generate, scaling_workload, SCALING_SEED};
use hls_celllib::{Library, TimingSpec};
use hls_dfg::{CriticalPath, Dfg};
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig, Weights};

use crate::snapshots::{Fresh, Sweep};

/// Requested op counts of the full sweep; the generator rounds up to
/// full layers.
pub const FULL_SIZES: [usize; 6] = [1_000, 5_000, 20_000, 50_000, 100_000, 200_000];
/// The smallest size only — the CI smoke subset.
pub const QUICK_SIZES: [usize; 1] = [1_000];
/// The sweep's workload seed (the canonical scaling seed).
pub const SEED: u64 = SCALING_SEED;
/// Control-step slack above the critical path (wide move frames).
pub const SLACK: u32 = 8;

/// One benchmark measurement (everything but `wall_ms` is
/// deterministic).
pub struct Entry {
    /// Node count of the generated graph.
    pub nodes: usize,
    /// Kernel name (`"mfs"` / `"mfsa"`).
    pub alg: &'static str,
    /// Constraint style (`"time"` / `"resource"` / `"area"`).
    pub mode: &'static str,
    /// The control-step budget the run used.
    pub cs: u32,
    /// Machine-local wall time — excluded from every comparison.
    pub wall_ms: f64,
    /// Move frames computed (deterministic).
    pub frames_computed: u64,
    /// Liapunov energies evaluated (deterministic).
    pub energy_evaluations: u64,
    /// Local reschedulings / new instances (deterministic).
    pub reschedules: u64,
    /// Liapunov lower bounds computed by the pruned MFSA loop — the
    /// candidate universe the branch-and-bound inspected. Zero for MFS
    /// rows, which have no bounded search.
    pub bound_evals: u64,
    /// Candidate steps discarded wholesale by the step-level cut.
    pub cut_steps: u64,
    /// Instance candidates cut before their full `f_MUX` recompute.
    pub cut_instances: u64,
    /// Free hosts never bounded because a lower-numbered host of their
    /// stranger bucket (or bank) has the same key:
    /// `bound_evals == energy_evaluations + cut_instances + dominated`
    /// on MFSA rows.
    pub dominated: u64,
    /// FNV-1a fingerprint of the `(node, step, unit)` triples.
    pub fingerprint: u64,
}

impl Entry {
    /// The deterministic identity used to pair fresh entries with
    /// committed snapshot lines.
    pub fn key(&self) -> String {
        format!(
            "\"nodes\":{},\"alg\":\"{}\",\"mode\":\"{}\"",
            self.nodes, self.alg, self.mode
        )
    }

    /// One snapshot line.
    pub fn render(&self) -> String {
        format!(
            "    {{{},\"cs\":{},\"wall_ms\":{:.1},\"frames_computed\":{},\"energy_evaluations\":{},\"reschedules\":{},\"bound_evals\":{},\"cut_steps\":{},\"cut_instances\":{},\"dominated\":{},\"fingerprint\":\"{:016x}\"}}",
            self.key(),
            self.cs,
            self.wall_ms,
            self.frames_computed,
            self.energy_evaluations,
            self.reschedules,
            self.bound_evals,
            self.cut_steps,
            self.cut_instances,
            self.dominated,
            self.fingerprint
        )
    }
}

/// Bisects `0..len` for the first index at which `probe` succeeds,
/// assuming monotone feasibility (once feasible, always feasible for
/// larger indices). Returns `len` when no index succeeds. Under that
/// monotonicity this lands on exactly the index a linear scan would
/// find, in ⌈log₂ len⌉ + 1 probes.
pub fn first_feasible(len: usize, mut probe: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if probe(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// FNV-1a over the schedule's `(node, step, unit)` triples — a cheap,
/// stable witness that a code change kept the output bit-identical.
pub fn fingerprint(schedule: &hls_schedule::Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    for (node, slot) in schedule.iter() {
        mix(&(node.index() as u32).to_le_bytes());
        mix(&slot.step.get().to_le_bytes());
        mix(slot.unit.to_string().as_bytes());
    }
    h
}

fn run_mfs(dfg: &Dfg, spec: &TimingSpec, config: &MfsConfig, mode: &'static str) -> Entry {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let start = Instant::now();
    let out = {
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        mfs::schedule_traced(dfg, spec, config, &mut instr)
            .unwrap_or_else(|e| panic!("mfs/{mode} at {} nodes: {e}", dfg.node_count()))
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Entry {
        nodes: dfg.node_count(),
        alg: "mfs",
        mode,
        cs: config.control_steps(),
        wall_ms,
        frames_computed: metrics.counter("mfs.frames_computed"),
        energy_evaluations: metrics.counter("mfs.energy_evaluations"),
        reschedules: metrics.counter("mfs.local_reschedules"),
        bound_evals: 0,
        cut_steps: 0,
        cut_instances: 0,
        dominated: 0,
        fingerprint: fingerprint(&out.schedule),
    }
}

fn run_mfsa(dfg: &Dfg, spec: &TimingSpec, config: &MfsaConfig, mode: &'static str) -> Entry {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let start = Instant::now();
    let out = {
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        mfsa::schedule_traced(dfg, spec, config, &mut instr)
            .unwrap_or_else(|e| panic!("mfsa/{mode} at {} nodes: {e}", dfg.node_count()))
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Entry {
        nodes: dfg.node_count(),
        alg: "mfsa",
        mode,
        cs: config.control_steps(),
        wall_ms,
        frames_computed: metrics.counter("mfsa.moves_committed"),
        energy_evaluations: metrics.counter("mfsa.energy_evaluations"),
        reschedules: metrics.counter("mfsa.new_instances"),
        bound_evals: metrics.counter("mfsa.bound.evals"),
        cut_steps: metrics.counter("mfsa.prune.cut_steps"),
        cut_instances: metrics.counter("mfsa.prune.cut_instances"),
        dominated: metrics.counter("mfsa.prune.dominated"),
        fingerprint: fingerprint(&out.schedule),
    }
}

/// Runs the four kernel/mode combinations at one size and appends the
/// entries; progress goes to stderr.
pub fn bench_size(ops: usize, entries: &mut Vec<Entry>) {
    let spec = TimingSpec::uniform_single_cycle();
    // The canonical fixed-depth workload shared with `mfhls profile
    // gen:OPS`, so hotspot reports attribute exactly this sweep's work.
    let dfg = generate(&scaling_workload(ops));
    let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
    let cs = cp + SLACK;
    eprintln!("# {} nodes (critical path {cp}, cs {cs})", dfg.node_count());

    let first = entries.len();
    let time_cfg = MfsConfig::time_constrained(cs);
    entries.push(run_mfs(&dfg, &spec, &time_cfg, "time"));
    // Resource-constrained MFS starts from the unit budgets the time
    // run discovered; the greedy pass is not complete, so widen the
    // budgets by a (deterministic) margin until a feasible layout is
    // found.
    let budgets = {
        let out = mfs::schedule(&dfg, &spec, &time_cfg).expect("time run succeeded above");
        out.fu_counts()
    };
    // The margin ladder is proportional so it scales with graph
    // width: +p% of each class budget (at least +p units at p ≥ 1).
    // Feasibility is monotone in the margin — more units never turn
    // a feasible budget infeasible — so bisect for the first
    // feasible rung: ⌈log₂ 8⌉ = 3 probe schedules instead of up to
    // 8, landing on exactly the rung a linear scan would pick.
    let ladder = [0u32, 5, 10, 20, 40, 80, 160, 320];
    let cfg_at = |pct: u32| {
        let mut cfg = MfsConfig::resource_constrained(cs);
        for (&class, &limit) in &budgets {
            let margin = (limit * pct).div_ceil(100).max(pct.min(1));
            cfg = cfg.with_fu_limit(class, limit + margin);
        }
        cfg
    };
    let rung = first_feasible(ladder.len(), |i| {
        mfs::schedule(&dfg, &spec, &cfg_at(ladder[i])).is_ok()
    });
    assert!(
        rung < ladder.len(),
        "a feasible budget margin within the +320% ladder"
    );
    let res_cfg = cfg_at(ladder[rung]);
    entries.push(run_mfs(&dfg, &spec, &res_cfg, "resource"));

    entries.push(run_mfsa(
        &dfg,
        &spec,
        &MfsaConfig::new(cs, Library::ncr_like()),
        "time",
    ));
    entries.push(run_mfsa(
        &dfg,
        &spec,
        &MfsaConfig::new(cs, Library::ncr_like()).with_weights(Weights {
            time: 0,
            alu: 1,
            mux: 1,
            reg: 1,
        }),
        "area",
    ));
    for e in &entries[first..] {
        eprintln!(
            "#   {}/{}: {:.1} ms, {} frames, {} evals, {} bounds",
            e.alg, e.mode, e.wall_ms, e.frames_computed, e.energy_evaluations, e.bound_evals
        );
    }
}

/// Regenerates `BENCH_core.json` at the sweep's op counts.
pub fn snapshot(sweep: &Sweep) -> Fresh {
    let mut entries = Vec::new();
    for &ops in sweep.sizes(&QUICK_SIZES, &FULL_SIZES) {
        bench_size(ops, &mut entries);
    }
    Fresh::keyed(&entries, Entry::key, render(&entries))
}

/// Renders the full `BENCH_core.json` document.
pub fn render(entries: &[Entry]) -> String {
    let rows: Vec<String> = entries.iter().map(Entry::render).collect();
    format!(
        "{{\n  \"note\": \"dense scheduler core scaling sweep; counters and fingerprints are deterministic, wall_ms is machine-local and ignored by bench_diff\",\n  \"seed\": {SEED},\n  \"slack\": {SLACK},\n  \"entries\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        Entry {
            nodes: 1024,
            alg: "mfsa",
            mode: "time",
            cs: 40,
            wall_ms: 1.5,
            frames_computed: 10,
            energy_evaluations: 100,
            reschedules: 2,
            bound_evals: 400,
            cut_steps: 7,
            cut_instances: 250,
            dominated: 50,
            fingerprint: 0xabcd,
        }
    }

    /// `committed` held against the document rendered from `fresh`, as
    /// the `core` snapshot row compares them.
    fn diff_exact(fresh: &[Entry], committed: &str) -> Vec<String> {
        Fresh::keyed(fresh, Entry::key, render(fresh)).diff(committed)
    }

    #[test]
    fn exact_diff_ignores_wall_clock_only() {
        let snapshot = render(&[entry()]);
        let mut fresh = entry();
        fresh.wall_ms = 9999.0;
        assert!(diff_exact(&[fresh], &snapshot).is_empty());

        let mut drifted = entry();
        drifted.energy_evaluations += 1;
        drifted.fingerprint ^= 1;
        let drift = diff_exact(&[drifted], &snapshot);
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(
            drift[0].contains("energy_evaluations 100 -> 101"),
            "{drift:?}"
        );
        assert!(
            drift[1].contains("fingerprint \"000000000000abcd\" -> \"000000000000abcc\""),
            "{drift:?}"
        );
    }

    #[test]
    fn exact_diff_reports_missing_entries() {
        let mut other = entry();
        other.mode = "resource";
        let drift = diff_exact(&[other], &render(&[entry()]));
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("no committed entry"), "{drift:?}");
    }

    #[test]
    fn exact_diff_pins_the_prune_counters() {
        let snapshot = render(&[entry()]);
        let mut drifted = entry();
        drifted.cut_instances -= 1;
        drifted.dominated += 1;
        let drift = diff_exact(&[drifted], &snapshot);
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift[0].contains("cut_instances 250 -> 249"), "{drift:?}");
        assert!(drift[1].contains("dominated 50 -> 51"), "{drift:?}");
    }

    #[test]
    fn bisection_matches_a_linear_scan_on_every_monotone_ladder() {
        // All 9 monotone predicates over an 8-rung ladder: infeasible
        // below rung t, feasible from t on (t = 8 means never).
        for t in 0..=8usize {
            let linear = (0..8).find(|&i| i >= t).unwrap_or(8);
            assert_eq!(first_feasible(8, |i| i >= t), linear, "threshold {t}");
        }
    }
}
