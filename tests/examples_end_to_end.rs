//! End-to-end MFS over the paper's six examples: every sweep point of
//! Table 1 must produce a schedule that the independent verifier
//! accepts, including the chaining / functional / structural pipelining
//! features.

use hls_bench::mfs_point;
use moveframe_hls::benchmarks::examples::{self, Feature};
use moveframe_hls::explore::{run_move_frame, MoveFrameRun};
use moveframe_hls::prelude::*;

/// Runs one (example, T) Table-1 point as the Table-1 harness does.
fn run_mfs(e: &examples::Example, t: u32) -> MoveFrameRun {
    run_move_frame(
        &e.dfg,
        &e.spec,
        &mfs_point(e, t),
        &CancelToken::never(),
        &mut Instrument::new(&mut NullSink, &mut Metrics::new()),
    )
    .unwrap_or_else(|err| panic!("ex{} T={t}: {err}", e.id))
}

/// Total functional units of an MFS run, with structurally pipelined
/// stages folded back to whole pipelined units.
fn total_units(run: &MoveFrameRun) -> u32 {
    match run {
        MoveFrameRun::Mfs {
            expanded: Some(_),
            outcome,
        } => pipelined_fu_counts(outcome).values().sum(),
        MoveFrameRun::Mfs { outcome, .. } => outcome.fu_counts().values().sum(),
        MoveFrameRun::Mfsa(_) => unreachable!("Table-1 points run MFS"),
    }
}

/// Runs one (example, T) point and verifies its schedule: against the
/// stage-expanded graph when operators are structurally pipelined.
fn run_and_verify(e: &examples::Example, t: u32) {
    let point = mfs_point(e, t);
    let opts = VerifyOptions {
        clock: point.clock_period(),
        latency: point.latency,
    };
    let MoveFrameRun::Mfs { expanded, outcome } = run_mfs(e, t) else {
        unreachable!("Table-1 points run MFS")
    };
    let dfg = match &expanded {
        Some(expanded) => {
            assert!(
                expanded.node_count() > e.dfg.node_count(),
                "ex{}: nothing was pipelined",
                e.id
            );
            expanded
        }
        None => &e.dfg,
    };
    let v = verify(dfg, &outcome.schedule, &e.spec, opts);
    assert!(v.is_empty(), "ex{} T={t}: {v:?}", e.id);
}

#[test]
fn every_table1_cell_verifies() {
    for e in examples::all() {
        for &t in &e.time_constraints {
            run_and_verify(&e, t);
        }
    }
}

#[test]
fn tightest_constraint_is_the_critical_path() {
    // One step below the tightest sweep point must fail for the
    // examples whose tightest T equals the critical path.
    let e = examples::ex6();
    let cp = CriticalPath::compute(&e.dfg, &e.spec);
    assert_eq!(cp.steps(), 17);
    let config = MfsConfig::time_constrained(16);
    assert!(mfs::schedule(&e.dfg, &e.spec, &config).is_err());
}

#[test]
fn unit_counts_decrease_along_each_sweep() {
    // Within one example, a looser time constraint never needs more
    // total units (the monotone trade-off of Table 1).
    for e in examples::all() {
        if matches!(e.feature, Feature::FunctionalPipelining(_)) {
            // Latency changes with T there; not comparable.
            continue;
        }
        let mut last_total = u32::MAX;
        for &t in &e.time_constraints {
            let total = total_units(&run_mfs(&e, t));
            assert!(
                total <= last_total,
                "ex{}: units grew from {last_total} to {total} at T={t}",
                e.id
            );
            last_total = total;
        }
    }
}

#[test]
fn loosest_constraint_never_needs_more_units_than_the_tightest() {
    // The end points of every sweep, the functional-pipelining example
    // included: its latency changes with T, but the loosest point still
    // needs no more units than the tightest.
    for e in examples::all() {
        let tight = total_units(&run_mfs(&e, e.time_constraints[0]));
        let loose = total_units(&run_mfs(&e, *e.time_constraints.last().unwrap()));
        assert!(
            loose <= tight,
            "ex{}: {loose} units at loose T vs {tight} at tight T",
            e.id
        );
    }
}

#[test]
fn hierarchical_loop_scheduling_end_to_end() {
    // An outer accumulation loop around the diffeq body.
    let mut b = DfgBuilder::new("looped");
    let x = b.input("x");
    let n = b.input("n");
    b.begin_loop("iterate", 6);
    let t1 = b.op("t1", OpKind::Mul, &[x, x]).unwrap();
    let t2 = b.op("t2", OpKind::Add, &[t1, x]).unwrap();
    let t3 = b.op("t3", OpKind::Mul, &[t2, x]).unwrap();
    b.end_loop();
    let cmp = b.op("cmp", OpKind::Lt, &[t3, n]).unwrap();
    b.op("out", OpKind::Add, &[cmp, x]).unwrap();
    let dfg = b.finish().unwrap();
    let spec = TimingSpec::uniform_single_cycle();
    let out = schedule_hierarchical(&dfg, &spec, 9, MfsConfig::time_constrained).unwrap();
    assert_eq!(out.levels.len(), 1);
    let v = verify(
        &out.levels[0].body,
        &out.levels[0].outcome.schedule,
        &spec,
        VerifyOptions::default(),
    );
    assert!(v.is_empty(), "{v:?}");
    let v = verify(
        &out.top_dfg,
        &out.top.schedule,
        &spec,
        VerifyOptions::default(),
    );
    assert!(v.is_empty(), "{v:?}");
    // The folded loop occupies 6 consecutive steps of the outer
    // schedule.
    let sup = out.top_dfg.node_by_name("iterate").unwrap();
    let start = out.top.schedule.start(sup).unwrap();
    let finish = out.top.schedule.finish(sup, &out.top_dfg, &spec).unwrap();
    assert_eq!(finish.get() - start.get() + 1, 6);
}
