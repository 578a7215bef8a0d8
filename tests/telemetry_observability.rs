//! Observability contract tests: the instrumented schedulers emit a
//! monotone committed-energy trajectory (the paper's Liapunov descent)
//! and never perturb the result they observe.

use moveframe_hls::benchmarks::classic;
use moveframe_hls::prelude::*;

/// MFS on the paper's Figure-1 differential-equation example at cs = 6:
/// within each scheduling pass, every committed move lowers (or keeps)
/// the system Liapunov energy. A local rescheduling grows the unit
/// capacity, which changes the Liapunov function itself, so the
/// trajectory restarts at each [`TraceEvent::LocalReschedule`].
#[test]
fn mfs_committed_energy_is_monotone_non_increasing() {
    let dfg = classic::diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let config = MfsConfig::time_constrained(6);

    let mut sink = MemorySink::new();
    let mut metrics = Metrics::new();
    let outcome = mfs::schedule_traced(
        &dfg,
        &spec,
        &config,
        &mut Instrument::new(&mut sink, &mut metrics),
    )
    .expect("diffeq schedules at cs=6");
    assert!(outcome.schedule.is_complete());

    let mut passes: Vec<Vec<u64>> = vec![Vec::new()];
    for event in sink.events() {
        match event {
            TraceEvent::LocalReschedule { .. } => passes.push(Vec::new()),
            TraceEvent::MoveCommitted {
                system_v: Some(v), ..
            } => passes.last_mut().unwrap().push(*v),
            _ => {}
        }
    }
    let final_pass = passes.last().unwrap();
    assert_eq!(
        final_pass.len(),
        dfg.node_ids().count(),
        "the final pass commits one move per operation"
    );
    for energies in &passes {
        assert!(
            energies.windows(2).all(|w| w[1] <= w[0]),
            "system Liapunov energy must be non-increasing within a pass: {energies:?}"
        );
    }
    // The final pass commits one move per operation node.
    let ops = dfg.node_ids().count() as u64;
    assert!(metrics.counter("mfs.moves_committed") >= ops);
    assert!(metrics.counter("mfs.frames_computed") >= ops);
    assert!(metrics.counter("mfs.energy_evaluations") >= ops);
}

/// Instrumentation is observation only: a run through a [`NullSink`]
/// (and through a recording [`MemorySink`]) is bit-identical to the
/// plain `mfs::schedule` entry point.
///
/// The two sinks also take different frame paths: a recording run lists
/// every free cell off the masks, while an untraced time-mode run
/// counts most frames off the grid's per-row occupancy. The recording
/// run is the oracle: every counter and every non-timing histogram
/// must be identical, and `mfs.energy_evaluations` must equal the
/// recorded `EnergyEvaluated` events. Besides diffeq, generated branchy
/// graphs (shared cells, two-cycle multiplies) run with and without a
/// latency wrap, in both objectives, and a 2,000-op draw of the scaling
/// family at `cp + 8` puts many ops with exclusions on grids wider than
/// one 64-column word.
#[test]
fn mfs_instrumented_run_matches_uninstrumented() {
    use moveframe_hls::benchmarks::generate::{generate, scaling_workload, GeneratorConfig};

    let diffeq = classic::diffeq();
    let single = TimingSpec::uniform_single_cycle();
    let mut cases: Vec<(Dfg, TimingSpec, MfsConfig)> = [4, 6, 8]
        .into_iter()
        .map(|cs| {
            (
                diffeq.clone(),
                single.clone(),
                MfsConfig::time_constrained(cs),
            )
        })
        .collect();
    for seed in 1..=6u64 {
        let dfg = generate(&GeneratorConfig {
            seed,
            layers: 4 + seed as usize % 3,
            width: 3 + seed as usize,
            branch_pct: 40,
            ..GeneratorConfig::default()
        });
        let spec = TimingSpec::two_cycle_multiply();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let cs = cp + seed as u32 % 3;
        cases.push((dfg.clone(), spec.clone(), MfsConfig::time_constrained(cs)));
        cases.push((
            dfg.clone(),
            spec.clone(),
            MfsConfig::time_constrained(cs).with_latency(cp),
        ));
        cases.push((dfg, spec, MfsConfig::resource_constrained(cs + 4)));
    }
    let wide = generate(&GeneratorConfig {
        seed: 43,
        ..scaling_workload(2_000)
    });
    let cp = CriticalPath::compute(&wide, &single).steps() as u32;
    cases.push((wide, single.clone(), MfsConfig::time_constrained(cp + 8)));

    for (dfg, spec, config) in &cases {
        let label = format!(
            "{} cs={} {:?}",
            dfg.name(),
            config.control_steps(),
            config.objective()
        );
        let plain = mfs::schedule(dfg, spec, config).expect("plain run");

        let mut null = NullSink;
        let mut counted = Metrics::new();
        let nulled = mfs::schedule_traced(
            dfg,
            spec,
            config,
            &mut Instrument::new(&mut null, &mut counted),
        )
        .expect("NullSink run");

        let mut mem = MemorySink::new();
        let mut listed = Metrics::new();
        let recorded = mfs::schedule_traced(
            dfg,
            spec,
            config,
            &mut Instrument::new(&mut mem, &mut listed),
        )
        .expect("MemorySink run");

        for traced in [&nulled, &recorded] {
            assert_eq!(traced.schedule, plain.schedule, "{label}");
            assert_eq!(traced.grids, plain.grids, "{label}");
            assert_eq!(traced.reschedule_count, plain.reschedule_count, "{label}");
        }
        assert!(!mem.events().is_empty());

        let counters = |m: &Metrics| {
            m.counters()
                .map(|(name, n)| (name.to_string(), n))
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&counted), counters(&listed), "{label}");
        // Phase histograms hold wall times: only their counts compare.
        let histograms = |m: &Metrics| {
            m.histograms()
                .map(|(name, h)| match name.starts_with("phase.") {
                    true => (name.to_string(), h.count(), None),
                    false => (name.to_string(), h.count(), Some(h.clone())),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(histograms(&counted), histograms(&listed), "{label}");
        let evaluated = mem
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::EnergyEvaluated { .. }))
            .count() as u64;
        assert_eq!(
            listed.counter("mfs.energy_evaluations"),
            evaluated,
            "{label}"
        );
    }
}

/// Same contract for MFSA: tracing does not change the schedule,
/// allocation or cost, and the candidate counters line up with the
/// recorded evaluation events.
#[test]
fn mfsa_instrumented_run_matches_uninstrumented() {
    let dfg = classic::diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let config = MfsaConfig::new(4, Library::ncr_like());
    let plain = mfsa::schedule(&dfg, &spec, &config).expect("plain MFSA run");

    let mut mem = MemorySink::new();
    let mut metrics = Metrics::new();
    let traced = mfsa::schedule_traced(
        &dfg,
        &spec,
        &config,
        &mut Instrument::new(&mut mem, &mut metrics),
    )
    .expect("traced MFSA run");

    assert_eq!(traced.schedule, plain.schedule);
    assert_eq!(traced.allocation, plain.allocation);
    assert_eq!(traced.cost, plain.cost);

    let evaluations = mem
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::EnergyEvaluated { .. }))
        .count() as u64;
    assert_eq!(metrics.counter("mfsa.energy_evaluations"), evaluations);
    let ops = dfg.node_ids().count() as u64;
    assert_eq!(metrics.counter("mfsa.moves_committed"), ops);
    assert_eq!(
        metrics.counter("mfsa.reuse_moves")
            + metrics.counter("mfsa.upgrade_moves")
            + metrics.counter("mfsa.new_instances"),
        ops
    );
}

/// The profiler obeys the same write-only sink contract as every other
/// sink: a run observed by [`Profiler`] is bit-identical to the plain
/// entry points, and the attribution it derives is complete — every
/// counted energy evaluation lands on a specific node and a specific
/// control step.
#[test]
fn profiled_run_matches_unprofiled_and_attributes_every_evaluation() {
    use moveframe_hls::benchmarks::generate::{generate, scaling_workload};
    let spec = TimingSpec::uniform_single_cycle();

    // MFS on the canonical scaling workload (the shape `mfhls profile
    // gen:OPS` reports on).
    let dfg = generate(&scaling_workload(200));
    let config = MfsConfig::time_constrained(40);
    let plain = mfs::schedule(&dfg, &spec, &config).expect("plain run");
    let mut profiler = Profiler::new();
    let mut metrics = Metrics::new();
    let profiled = mfs::schedule_traced(
        &dfg,
        &spec,
        &config,
        &mut Instrument::new(&mut profiler, &mut metrics),
    )
    .expect("profiled run");
    assert_eq!(profiled.schedule, plain.schedule);
    assert_eq!(profiled.grids, plain.grids);
    assert_eq!(profiled.reschedule_count, plain.reschedule_count);

    let report = ProfileReport::build(&profiler, &metrics, 20);
    assert_eq!(
        report.counted_evals,
        metrics.counter("mfs.energy_evaluations")
    );
    assert_eq!(report.attributed_evals, report.counted_evals);
    assert!(report.coverage_pct >= 95.0, "{}", report.coverage_pct);
    let by_node: u64 = profiler.nodes().values().map(|l| l.energy_evals).sum();
    let by_step: u64 = profiler.steps().values().map(|l| l.energy_evals).sum();
    assert_eq!(by_node, report.counted_evals);
    assert_eq!(by_step, report.counted_evals);

    // Same contract for MFSA, including allocation and cost.
    let dfg = classic::diffeq();
    let config = MfsaConfig::new(4, Library::ncr_like());
    let plain = mfsa::schedule(&dfg, &spec, &config).expect("plain MFSA run");
    let mut profiler = Profiler::new();
    let mut metrics = Metrics::new();
    let profiled = mfsa::schedule_traced(
        &dfg,
        &spec,
        &config,
        &mut Instrument::new(&mut profiler, &mut metrics),
    )
    .expect("profiled MFSA run");
    assert_eq!(profiled.schedule, plain.schedule);
    assert_eq!(profiled.allocation, plain.allocation);
    assert_eq!(profiled.cost, plain.cost);
    let report = ProfileReport::build(&profiler, &metrics, 20);
    assert_eq!(
        report.counted_evals,
        metrics.counter("mfsa.energy_evaluations")
    );
    assert_eq!(report.attributed_evals, report.counted_evals);
}

/// Hotspot rankings break every tie on the node index, so two profiled
/// runs of the same design render identical reports once the
/// machine-local wall-clock fields are stripped.
#[test]
fn profile_reports_are_deterministic_across_runs() {
    use moveframe_hls::benchmarks::generate::{generate, scaling_workload};
    // Drops the `"total_ns":N` values — the one nondeterministic field
    // in the JSON report.
    fn strip_wall_clock(json: &str) -> String {
        let mut out = String::with_capacity(json.len());
        let mut rest = json;
        while let Some(at) = rest.find("\"total_ns\":") {
            let tail = &rest[at + "\"total_ns\":".len()..];
            let digits = tail.chars().take_while(char::is_ascii_digit).count();
            out.push_str(&rest[..at]);
            out.push_str("\"total_ns\":0");
            rest = &tail[digits..];
        }
        out.push_str(rest);
        out
    }
    let run = || {
        let dfg = generate(&scaling_workload(200));
        let spec = TimingSpec::uniform_single_cycle();
        let mut profiler = Profiler::new();
        let mut metrics = Metrics::new();
        mfs::schedule_traced(
            &dfg,
            &spec,
            &MfsConfig::time_constrained(40),
            &mut Instrument::new(&mut profiler, &mut metrics),
        )
        .expect("profiled run");
        ProfileReport::build(&profiler, &metrics, 20).to_json()
    };
    let json_a = strip_wall_clock(&run());
    let json_b = strip_wall_clock(&run());
    assert_eq!(json_a, json_b);
    assert!(json_a.contains("\"hotspots\":[{\"op\":"));
    assert!(json_a.contains("\"coverage_pct\":100.000"));
}

/// The JSONL and Chrome exports of a recorded run are well-formed.
#[test]
fn exports_are_well_formed() {
    let dfg = classic::diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let mut sink = MemorySink::new();
    let mut metrics = Metrics::new();
    mfs::schedule_traced(
        &dfg,
        &spec,
        &MfsConfig::time_constrained(6),
        &mut Instrument::new(&mut sink, &mut metrics),
    )
    .expect("diffeq schedules at cs=6");

    for event in sink.events() {
        let json = event.to_json();
        assert!(
            json.starts_with("{\"event\":\"") && json.ends_with('}'),
            "{json}"
        );
    }
    let chrome = chrome_trace(sink.events().iter());
    assert!(chrome.starts_with('{') && chrome.ends_with('}'));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("mfs.move_loop"));
}
