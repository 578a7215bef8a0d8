//! Differential verification of the pruned MFSA branch-and-bound
//! against the exhaustive oracle.
//!
//! The pruned loop (`moveframe::mfsa::schedule`) cuts candidates whose
//! Liapunov lower bound already loses to the incumbent; the oracle
//! (`moveframe::mfsa::ExhaustiveMfsa`) scores every candidate the old
//! way. Pruning is only sound if it is *invisible*: byte-identical
//! schedules, allocations, traces and committed moves, with every
//! skipped candidate accounted for by a prune counter. This suite pins
//! that contract across random DAGs (seeds × shape × constraint mix ×
//! styles × weights), the Table-2 examples with chaining and
//! pipelining, and the memory benchmarks with 1/2/4-port banks.

use std::collections::HashSet;

use hls_bench::mfsa_point;
use hls_benchmarks::generate::{generate, scaling_workload, GeneratorConfig};
use moveframe::mfsa::ExhaustiveMfsa;
use moveframe_hls::benchmarks::{examples, memory};
use moveframe_hls::prelude::*;
use proptest::prelude::*;

/// One instrumented run: outcome, final counters and captured events.
struct Run {
    outcome: mfsa::MfsaOutcome,
    metrics: Metrics,
    events: Vec<TraceEvent>,
}

fn run(dfg: &hls_dfg::Dfg, spec: &TimingSpec, config: &MfsaConfig, pruned: bool) -> Run {
    let mut sink = MemorySink::new();
    let mut metrics = Metrics::new();
    let outcome = {
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        if pruned {
            mfsa::schedule_traced(dfg, spec, config, &mut instr)
        } else {
            ExhaustiveMfsa::schedule_traced(dfg, spec, config, &mut instr)
        }
        .unwrap_or_else(|e| panic!("{}: mfsa failed: {e}", dfg.name()))
    };
    Run {
        outcome,
        metrics,
        events: sink.into_events(),
    }
}

/// Asserts the full equivalence contract between a pruned and an
/// exhaustive run of the same problem.
fn assert_equivalent(dfg: &hls_dfg::Dfg, spec: &TimingSpec, config: &MfsaConfig) {
    let config = config.clone().with_trace();
    let pruned = run(dfg, spec, &config, true);
    let oracle = run(dfg, spec, &config, false);
    let name = dfg.name();

    // The outcome must be byte-identical.
    assert_eq!(
        pruned.outcome.schedule, oracle.outcome.schedule,
        "{name}: schedules diverge"
    );
    assert_eq!(
        hls_bench::scaling::fingerprint(&pruned.outcome.schedule),
        hls_bench::scaling::fingerprint(&oracle.outcome.schedule),
        "{name}: fingerprints diverge"
    );
    assert_eq!(
        pruned.outcome.allocation, oracle.outcome.allocation,
        "{name}: allocations diverge"
    );
    assert_eq!(
        pruned.outcome.cost, oracle.outcome.cost,
        "{name}: cost reports diverge"
    );
    assert_eq!(
        pruned.outcome.trace, oracle.outcome.trace,
        "{name}: iteration traces diverge"
    );

    // The committed-move event streams must match exactly, and every
    // candidate the pruned loop *did* score must also have been scored
    // (with the same energy) by the oracle — pruning may only remove
    // evaluations, never alter or invent them.
    let commits = |r: &Run| -> Vec<TraceEvent> {
        r.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MoveCommitted { .. }))
            .cloned()
            .collect()
    };
    assert_eq!(
        commits(&pruned),
        commits(&oracle),
        "{name}: committed moves diverge"
    );
    let energies = |r: &Run| -> Vec<(u32, (u32, u32), u64)> {
        r.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::EnergyEvaluated { op, pos, v } => Some((*op, *pos, *v)),
                _ => None,
            })
            .collect()
    };
    let oracle_set: HashSet<_> = energies(&oracle).into_iter().collect();
    for ev in energies(&pruned) {
        assert!(
            oracle_set.contains(&ev),
            "{name}: pruned loop scored {ev:?}, which the oracle never saw"
        );
    }

    // Counter accounting: nothing is silently skipped.
    let c = |r: &Run, n: &str| r.metrics.counter(n);
    let p_evals = c(&pruned, "mfsa.energy_evaluations");
    let o_evals = c(&oracle, "mfsa.energy_evaluations");
    assert!(
        p_evals <= o_evals,
        "{name}: pruned evals {p_evals} > exhaustive {o_evals}"
    );
    assert_eq!(
        c(&pruned, "mfsa.steps.feasible"),
        c(&oracle, "mfsa.steps.feasible"),
        "{name}: the loops disagree on the feasible-step count"
    );
    assert_eq!(
        c(&pruned, "mfsa.steps.feasible"),
        c(&pruned, "mfsa.steps.expanded") + c(&pruned, "mfsa.prune.cut_steps"),
        "{name}: feasible steps != expanded + cut"
    );
    assert_eq!(
        c(&pruned, "mfsa.bound.evals"),
        p_evals + c(&pruned, "mfsa.prune.cut_instances"),
        "{name}: bound evals != full evals + instance cuts"
    );
    // The oracle never prunes: its bound evals are its full evals.
    assert_eq!(c(&oracle, "mfsa.bound.evals"), o_evals);
    assert_eq!(c(&oracle, "mfsa.prune.cut_steps"), 0);
    assert_eq!(c(&oracle, "mfsa.prune.cut_instances"), 0);
    assert_eq!(
        c(&pruned, "mfsa.moves_committed"),
        c(&oracle, "mfsa.moves_committed"),
        "{name}: committed-move counts diverge"
    );
}

/// The weight presets the sweep exercises: the paper default, a
/// time-indifferent mix (f_TIME ≡ 0, so the wholesale step cut never
/// helps and correctness rests on the instance-level bound), and a
/// register-heavy mix.
fn weight_presets() -> [Weights; 3] {
    [
        Weights::default(),
        Weights {
            time: 0,
            alu: 1,
            mux: 1,
            reg: 1,
        },
        Weights {
            time: 1,
            alu: 1,
            mux: 1,
            reg: 4,
        },
    ]
}

proptest! {
    #[test]
    fn pruned_matches_exhaustive_on_random_dags(
        seed in 0u64..1_000_000,
        layers in 2usize..7,
        width in 1usize..7,
        branchy in 0u32..2,
        slack in 0u32..6,
        style_bit in 0u32..2,
        weight_idx in 0usize..3,
        sharing_bit in 0u32..2,
    ) {
        let dfg = generate(&GeneratorConfig {
            seed,
            layers,
            width,
            branch_pct: branchy * 40,
            ..GeneratorConfig::default()
        });
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec);
        let style = if style_bit == 0 {
            DesignStyle::Unrestricted
        } else {
            DesignStyle::NoSelfLoop
        };
        let config = MfsaConfig::new(cp.steps() as u32 + slack, Library::ncr_like())
            .with_style(style)
            .with_weights(weight_presets()[weight_idx]);
        // Sharing off prices every stored signal as its own mux line.
        let config = if sharing_bit == 0 {
            config
        } else {
            config.without_interconnect_sharing()
        };
        assert_equivalent(&dfg, &spec, &config);
    }
}

#[test]
fn every_table2_config_matches_exhaustive() {
    // The curated examples cover chaining (clocked specs), functional
    // pipelining (latency) and multicycle operators; the §5.7 ablation
    // (interconnect sharing off) prices per-signal mux lines.
    for e in examples::all() {
        for (style, sharing) in [(1, true), (2, true), (1, false)] {
            let config = mfsa_point(&e, e.mfsa_cs, style)
                .mfsa_config(Library::ncr_like(), &CancelToken::never());
            let config = if sharing {
                config
            } else {
                config.without_interconnect_sharing()
            };
            assert_equivalent(&e.dfg, &e.spec, &config);
        }
    }
}

/// Asserts that the pruned loop scores at most one port of a memory
/// access per step: a second free port at the same step has the first's
/// exact key but a higher port number, so it is a sure loser.
fn assert_one_port_per_step(dfg: &hls_dfg::Dfg, spec: &TimingSpec, config: &MfsaConfig) {
    let accesses: HashSet<u32> = dfg
        .nodes()
        .filter(|(_, node)| node.kind().is_mem_access())
        .map(|(id, _)| id.index() as u32)
        .collect();
    let mut scored = HashSet::new();
    for event in run(dfg, spec, config, true).events {
        if let TraceEvent::EnergyEvaluated { op, pos, .. } = event {
            assert!(
                !accesses.contains(&op) || scored.insert((op, pos.1)),
                "{}: op {op} scored a second port at step {}",
                dfg.name(),
                pos.1
            );
        }
    }
}

#[test]
fn memory_benchmarks_match_exhaustive_across_ports() {
    let spec = TimingSpec::uniform_single_cycle();
    for ports in [1, 2, 4] {
        assert_equivalent(
            &memory::array_fir(8, ports),
            &spec,
            &MfsaConfig::new(28, Library::ncr_like()),
        );
        assert_equivalent(
            &memory::matvec(3, ports),
            &spec,
            &MfsaConfig::new(24, Library::ncr_like()),
        );
        assert_one_port_per_step(
            &memory::array_fir(8, ports),
            &spec,
            &MfsaConfig::new(28, Library::ncr_like()),
        );
        assert_one_port_per_step(
            &memory::matvec(3, ports),
            &spec,
            &MfsaConfig::new(24, Library::ncr_like()),
        );
    }
}

#[test]
fn pruning_cuts_most_evaluations_on_the_scaling_workload() {
    // The acceptance bar is a ≥10× reduction at 5k nodes (checked by
    // BENCH_core.json); this in-tree guard pins a 4× floor at a size
    // small enough for CI.
    let dfg = generate(&scaling_workload(512));
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&dfg, &spec);
    let config = MfsaConfig::new(cp.steps() as u32 + 8, Library::ncr_like());
    let pruned = run(&dfg, &spec, &config, true);
    let oracle = run(&dfg, &spec, &config, false);
    assert_eq!(pruned.outcome.schedule, oracle.outcome.schedule);
    let p = pruned.metrics.counter("mfsa.energy_evaluations");
    let o = oracle.metrics.counter("mfsa.energy_evaluations");
    assert!(p * 4 <= o, "expected >=4x eval reduction, got {o} -> {p}");
    assert!(
        pruned.metrics.counter("mfsa.prune.cut_steps") > 0,
        "the step-level cut never fired"
    );
    assert!(
        pruned.metrics.counter("mfsa.prune.cut_instances") > 0,
        "the instance-level cut never fired"
    );
}

/// Pinned from the random sweep: a branchy graph where a mutually
/// exclusive sibling makes an occupied instance reusable in the same
/// step — the instance-level bound must not cut it, because mux reuse
/// makes the full energy *equal* to the incumbent's only at a later
/// tie-break component.
#[test]
fn branchy_graph_with_zero_time_weight_pins_tie_breaks() {
    let dfg = generate(&GeneratorConfig {
        seed: 7,
        layers: 4,
        width: 6,
        branch_pct: 100,
        ..GeneratorConfig::default()
    });
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&dfg, &spec);
    for weights in weight_presets() {
        let config =
            MfsaConfig::new(cp.steps() as u32 + 3, Library::ncr_like()).with_weights(weights);
        assert_equivalent(&dfg, &spec, &config);
    }
}
