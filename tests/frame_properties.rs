//! Property tests for the frame algebra of §3.2: for every operation at
//! its scheduling moment the move frame satisfies
//! `MF = PF − (RF ∪ FF ∪ AF)` — it lies inside the primary frame, never
//! touches the redundant columns, the dependency-forbidden steps, or
//! the access-conflict steps of a fully-occupied memory bank — and the
//! move loop's local rescheduling terminates within its column budget.
//! The word-level frame queries (`Grid::free_starts`,
//! `StaticLiapunov::min_position`) agree with the cell-by-cell
//! enumeration they replace.

use proptest::prelude::*;

use moveframe_hls::benchmarks::generate::{generate, GeneratorConfig};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::mem::{check_port_safety, port_pressure};
use moveframe_hls::moveframe::{FrameSnapshot, Position, StaticLiapunov};
use moveframe_hls::prelude::*;
use moveframe_hls::schedule::{FuIndex, Grid};

/// The same layered-DAG strategy as `property_tests.rs`.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (1u64..1000, 1usize..6, 1usize..7, 2usize..6, 0u32..100).prop_map(
        |(seed, layers, width, inputs, locality)| GeneratorConfig {
            seed,
            layers,
            width,
            inputs,
            locality_pct: locality,
            ..GeneratorConfig::default()
        },
    )
}

/// Schedules with frame recording on and returns the final pass's
/// snapshots plus the outcome.
fn schedule_recorded(
    dfg: &Dfg,
    spec: &TimingSpec,
    t: u32,
) -> (
    Vec<FrameSnapshot>,
    moveframe_hls::moveframe::mfs::MfsOutcome,
) {
    let config = MfsConfig::time_constrained(t).with_frame_recording();
    let outcome = mfs::schedule(dfg, spec, &config).expect("feasible time constraint");
    (outcome.snapshots.clone(), outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn move_frames_stay_inside_the_primary_frame(
        config in config_strategy(),
        slack in 0u32..4,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (snapshots, _) = schedule_recorded(&dfg, &spec, cp + slack);
        prop_assert_eq!(snapshots.len(), dfg.node_count());
        for snap in &snapshots {
            let (asap, alap) = snap.primary;
            prop_assert!(asap <= alap);
            for p in &snap.movable {
                // MF ⊆ PF: inside the time range and the column budget.
                prop_assert!(
                    p.step >= asap && p.step <= alap,
                    "node {:?}: step {} outside PF [{}, {}]",
                    snap.node, p.step.get(), asap.get(), alap.get()
                );
                prop_assert!(
                    p.fu.get() >= 1 && p.fu.get() <= snap.max_fu,
                    "node {:?}: column {} outside [1, {}]",
                    snap.node, p.fu.get(), snap.max_fu
                );
            }
        }
    }

    #[test]
    fn move_frames_never_touch_the_redundant_frame(config in config_strategy()) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (snapshots, _) = schedule_recorded(&dfg, &spec, cp + 1);
        for snap in &snapshots {
            // RF = columns (current_j, max_j]: invisible to the frame.
            prop_assert!(snap.current_fu <= snap.max_fu);
            for p in &snap.movable {
                prop_assert!(
                    p.fu.get() <= snap.current_fu,
                    "node {:?}: column {} is in RF (current_j = {})",
                    snap.node, p.fu.get(), snap.current_fu
                );
            }
        }
    }

    #[test]
    fn move_frames_never_touch_the_forbidden_frame(
        config in config_strategy(),
        slack in 0u32..3,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (snapshots, _) = schedule_recorded(&dfg, &spec, cp + slack);
        for snap in &snapshots {
            // FF = dependency-excluded steps below `earliest_feasible`
            // or above `latest_feasible`.
            for p in &snap.movable {
                prop_assert!(
                    p.step >= snap.earliest_feasible && p.step <= snap.latest_feasible,
                    "node {:?}: step {} is in FF (feasible [{}, {}])",
                    snap.node, p.step.get(),
                    snap.earliest_feasible.get(), snap.latest_feasible.get()
                );
            }
        }
    }

    #[test]
    fn committed_moves_respect_predecessor_precedence(
        config in config_strategy(),
        slack in 0u32..4,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::two_cycle_multiply();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (_, outcome) = schedule_recorded(&dfg, &spec, cp + slack);
        prop_assert!(outcome.schedule.is_complete());
        let v = verify(&dfg, &outcome.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
        for node in dfg.node_ids() {
            let start = outcome.schedule.start(node).expect("complete schedule");
            for &p in dfg.preds(node) {
                let pf = outcome
                    .schedule
                    .finish(p, &dfg, &spec)
                    .expect("complete schedule");
                prop_assert!(
                    start > pf,
                    "{:?} starts at {} but its predecessor {:?} finishes at {}",
                    node, start.get(), p, pf.get()
                );
            }
        }
    }

    #[test]
    fn local_rescheduling_terminates_within_the_column_budget(
        config in config_strategy(),
    ) {
        // Each empty frame either widens current_j toward max_j or grows
        // a derived max_j toward node_count + 1, so per class the bumps
        // are bounded by ~2 · (node_count + 2); termination is
        // structural, not lucky.
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (_, outcome) = schedule_recorded(&dfg, &spec, cp);
        let classes = dfg.class_counts().len() as u32;
        let bound = classes * 2 * (dfg.node_count() as u32 + 2);
        prop_assert!(
            outcome.reschedule_count <= bound,
            "{} reschedules exceed the structural bound {}",
            outcome.reschedule_count, bound
        );
    }
}

/// Schedules a memory-bearing DFG with frame recording on, searching
/// upward from the dependency critical path for the first time
/// constraint the bank ports admit.
fn schedule_memory_recorded(
    dfg: &Dfg,
    spec: &TimingSpec,
    slack: u32,
) -> (
    Vec<FrameSnapshot>,
    moveframe_hls::moveframe::mfs::MfsOutcome,
) {
    let cp = CriticalPath::compute(dfg, spec).steps() as u32;
    for t in cp..cp + 64 {
        let config = MfsConfig::time_constrained(t + slack).with_frame_recording();
        if let Ok(outcome) = mfs::schedule(dfg, spec, &config) {
            return (outcome.snapshots.clone(), outcome);
        }
    }
    panic!("no feasible time constraint within cp + 64");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn move_frames_never_touch_the_access_conflict_frame(
        taps in 2usize..6,
        ports in 1u32..4,
        slack in 0u32..3,
    ) {
        let dfg = memory::array_fir(taps, ports);
        let spec = TimingSpec::uniform_single_cycle();
        let (snapshots, _) = schedule_memory_recorded(&dfg, &spec, slack);
        prop_assert_eq!(snapshots.len(), dfg.node_count());
        let mut saw_af = false;
        for snap in &snapshots {
            if !matches!(snap.class, FuClass::Mem(_)) {
                // AF is a memory-port notion; a fully-occupied step of an
                // ALU class is an ordinary resource conflict, not AF.
                prop_assert!(
                    snap.af_steps.is_empty(),
                    "node {:?}: non-memory class {:?} has AF {:?}",
                    snap.node, snap.class, snap.af_steps
                );
                continue;
            }
            saw_af |= !snap.af_steps.is_empty();
            for s in &snap.af_steps {
                // AF ⊆ the dependency-feasible range: it collects steps
                // excluded *solely* by port occupancy, so FF and AF are
                // disjoint by construction.
                prop_assert!(
                    *s >= snap.earliest_feasible && *s <= snap.latest_feasible,
                    "node {:?}: AF step {} outside the feasible range [{}, {}]",
                    snap.node, s.get(),
                    snap.earliest_feasible.get(), snap.latest_feasible.get()
                );
            }
            for p in &snap.movable {
                // MF ∩ AF = ∅: the move frame never offers a step whose
                // bank ports are all taken.
                prop_assert!(
                    !snap.af_steps.contains(&p.step),
                    "node {:?}: movable step {} is in AF {:?}",
                    snap.node, p.step.get(), snap.af_steps
                );
            }
        }
        if ports == 1 && slack == 0 {
            // At one port and zero slack the load phase is saturated, so
            // at least one access must have seen a port-conflict step.
            prop_assert!(saw_af, "expected a non-empty AF at ports=1");
        }
    }

    #[test]
    fn schedules_never_exceed_bank_port_counts(
        n in 2usize..5,
        ports in 1u32..4,
        slack in 0u32..3,
    ) {
        let dfg = memory::matvec(n, ports);
        let spec = TimingSpec::uniform_single_cycle();
        let (_, outcome) = schedule_memory_recorded(&dfg, &spec, slack);
        prop_assert!(outcome.schedule.is_complete());
        // The independent witness re-derives occupancy from the bound
        // schedule: no step oversubscribes a bank, no port is
        // double-booked, no binding names a port past the bank's count.
        let violations = check_port_safety(&dfg, &outcome.schedule)
            .expect("complete, port-bound schedule");
        prop_assert!(violations.is_empty(), "{violations:?}");
        let pressure = port_pressure(&dfg, &outcome.schedule)
            .expect("complete, port-bound schedule");
        for bank in dfg.memory().banks() {
            prop_assert!(
                pressure.peak(bank.id()) <= bank.ports(),
                "bank {} peak {} exceeds {} port(s)",
                bank.name(), pressure.peak(bank.id()), bank.ports()
            );
        }
    }
}

/// The cells of `[lo, hi] × [1, columns]` where `node` fits, probed one
/// by one with `Grid::is_free_for` in `(step, fu)` order — the oracle
/// for the word-level `Grid::free_starts`.
fn enumerate_free(
    grid: &Grid,
    dfg: &Dfg,
    node: NodeId,
    (lo, hi): (u32, u32),
    cycles: u8,
    columns: u32,
) -> Vec<(CStep, FuIndex)> {
    let mut cells = Vec::new();
    for step in lo..=hi {
        for fu in 1..=columns {
            let (step, fu) = (CStep::new(step), FuIndex::new(fu));
            if grid.is_free_for(dfg, node, step, fu, cycles) {
                cells.push((step, fu));
            }
        }
    }
    cells
}

/// The steps of `window` with no free cell in `cells` — the AF scan.
fn full_steps((lo, hi): (u32, u32), cells: &[(CStep, FuIndex)]) -> Vec<CStep> {
    (lo..=hi)
        .map(CStep::new)
        .filter(|s| cells.iter().all(|(step, _)| step != s))
        .collect()
}

/// Checks every word-level answer for one query against the
/// enumeration: the cells, |MF|, the argmin under both static Liapunov
/// functions (with lexicographic weights and with weights small enough
/// to force the general minimum), and the steps no column leaves free
/// (the AF scan).
fn check_free_starts(
    grid: &Grid,
    dfg: &Dfg,
    node: NodeId,
    window: (u32, u32),
    cycles: u8,
    columns: u32,
) -> Result<(), TestCaseError> {
    let cells = enumerate_free(grid, dfg, node, window, cycles, columns);
    let (lo, hi) = (CStep::new(window.0), CStep::new(window.1));
    let starts = grid.free_starts(dfg, node, lo, hi, cycles, columns);
    prop_assert_eq!(&starts.positions().collect::<Vec<_>>(), &cells);
    prop_assert_eq!(starts.count(), cells.len());
    // The MFS weights, plus weights below the visible columns (time
    // mode) or the window (resource mode), which make the form
    // non-lexicographic and force the general minimum.
    let span = window.1.saturating_sub(window.0) + 1;
    for (n, cs) in [
        (dfg.node_count() as u32, grid.control_steps()),
        (columns.max(1), span),
        ((columns / 2).max(1), (span / 2).max(1)),
        (1, 1),
    ] {
        for objective in [
            MfsObjective::TimeConstrained,
            MfsObjective::ResourceConstrained,
        ] {
            let v = StaticLiapunov::new(objective, n, cs);
            let expected = cells
                .iter()
                .min_by_key(|(s, f)| (v.value(f.get(), s.get()), *s, *f))
                .map(|&(step, fu)| Position { step, fu });
            prop_assert_eq!(
                v.min_position(&starts),
                expected,
                "{} n={} cs={}",
                objective,
                n,
                cs
            );
        }
    }
    prop_assert_eq!(starts.full_steps(hi), full_steps(window, &cells));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random occupy/vacate scripts on a branchy graph (shared cells)
    /// over grids one word high, several words high (cs ≥ 130) and
    /// latency-wrapped, probed with multi-cycle spans and with more
    /// visible columns than are materialised or budgeted.
    #[test]
    fn word_level_frame_queries_match_the_cell_enumeration(
        seed in 1u64..500,
        shape in 0usize..6,
        script in proptest::collection::vec(
            (0usize..64, 0u32..10_000, 1u32..8, 1u8..4, 0u8..4),
            1..48,
        ),
    ) {
        let dfg = generate(&GeneratorConfig {
            seed,
            layers: 4,
            width: 4,
            branch_pct: 60,
            ..GeneratorConfig::default()
        });
        let (cs, latency) = [(8, None), (40, Some(3)), (130, None), (200, None), (150, Some(70)), (12, Some(2))][shape];
        let max_fu = 5;
        let grid = Grid::new(cs, max_fu);
        let mut grid = match latency {
            Some(l) => grid.with_latency(l),
            None => grid,
        };
        for &(ni, r, f, cycles, action) in &script {
            let node = NodeId::from_index(ni % dfg.node_count());
            let step = 1 + r % cs;
            match action {
                0 => {
                    let (s, fu) = (CStep::new(step), FuIndex::new(f.min(max_fu)));
                    if grid.placement(node).is_none() && grid.is_free_for(&dfg, node, s, fu, cycles) {
                        grid.occupy(&dfg, node, s, fu, cycles);
                    }
                }
                1 => {
                    grid.vacate(&dfg, node);
                }
                _ => {
                    // A window from `step`, possibly empty (from step
                    // 2 on), possibly running past the last start a
                    // span fits.
                    let hi = (step - 1 + (r / 7) % (cs - step + 2)).max(1);
                    check_free_starts(&grid, &dfg, node, (step, hi), cycles, f)?;
                }
            }
        }
        // Every column, including the untouched ones, once more.
        for (node, _) in dfg.nodes() {
            check_free_starts(&grid, &dfg, node, (1, cs), 1, max_fu + 2)?;
        }
    }
}

/// Replays the final pass of a recorded MFS run on fresh grids and
/// checks each snapshot against the cell enumeration at its moment:
/// the move frame, the AF steps and the committed cell, which must be
/// the enumeration's minimum in the objective's lexicographic order —
/// `(step, fu)` for time-constrained, `(fu, step)` for
/// resource-constrained.
fn replay_matches_enumeration(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsConfig,
) -> Result<(), TestCaseError> {
    let outcome = mfs::schedule(dfg, spec, config).expect("feasible configuration");
    prop_assert_eq!(outcome.snapshots.len(), dfg.node_count());
    let cs = config.control_steps();
    let mut grids: std::collections::BTreeMap<FuClass, Grid> = Default::default();
    for snap in &outcome.snapshots {
        let grid = grids.entry(snap.class).or_insert_with(|| {
            let grid = Grid::new(cs, snap.max_fu);
            match config.latency() {
                Some(l) => grid.with_latency(l),
                None => grid,
            }
        });
        let cycles = dfg.node(snap.node).kind().cycles(spec);
        let window = (snap.earliest_feasible.get(), snap.latest_feasible.get());
        let cells = enumerate_free(grid, dfg, snap.node, window, cycles, snap.current_fu);
        let movable: Vec<(CStep, FuIndex)> = snap.movable.iter().map(|p| (p.step, p.fu)).collect();
        prop_assert_eq!(&movable, &cells, "node {:?}", snap.node);
        if matches!(snap.class, FuClass::Mem(_)) {
            prop_assert_eq!(
                &snap.af_steps,
                &full_steps(window, &cells),
                "node {:?}",
                snap.node
            );
        }
        let best = match config.objective() {
            MfsObjective::TimeConstrained => cells.iter().min().copied(),
            MfsObjective::ResourceConstrained => {
                cells.iter().min_by_key(|(s, f)| (*f, *s)).copied()
            }
        };
        let slot = outcome.schedule.slot(snap.node).expect("complete schedule");
        let fu = match slot.unit {
            moveframe_hls::schedule::UnitId::Fu { index, .. } => index,
            other => panic!("MFS binds FUs, got {other:?}"),
        };
        prop_assert_eq!(best, Some((slot.step, fu)), "node {:?}", snap.node);
        grid.occupy(dfg, snap.node, slot.step, fu, cycles);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Branchy graphs with shared cells, two-cycle multiplies, wide
    /// (multi-word) and latency-wrapped grids, under both objectives.
    #[test]
    fn mfs_moves_are_the_enumerated_argmin(
        config in config_strategy(),
        slack in 0u32..3,
        wide in 0u8..2,
        latency in 0u32..3,
        resource in 0u8..2,
    ) {
        let dfg = generate(&GeneratorConfig { branch_pct: 50, ..config.clone() });
        let spec = TimingSpec::two_cycle_multiply();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        // Wide frames put every column on two or three mask words.
        let cs = cp + slack + if wide == 1 { 130 } else { 0 };
        let mut mfs_config = if resource == 1 {
            let mut c = MfsConfig::resource_constrained(cs);
            for class in dfg.class_counts().keys() {
                c = c.with_fu_limit(*class, dfg.node_count() as u32);
            }
            c
        } else {
            MfsConfig::time_constrained(cs)
        };
        if latency > 0 {
            mfs_config = mfs_config.with_latency(latency + 1);
        }
        replay_matches_enumeration(&dfg, &spec, &mfs_config.with_frame_recording())?;
    }

    /// Memory banks: port columns, AF steps and both objectives.
    #[test]
    fn mfs_memory_moves_are_the_enumerated_argmin(
        taps in 2usize..6,
        ports in 1u32..4,
        slack in 0u32..3,
        resource in 0u8..2,
    ) {
        let dfg = memory::array_fir(taps, ports);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let config = (cp + slack..cp + slack + 64)
            .map(|cs| {
                if resource == 1 {
                    MfsConfig::resource_constrained(cs)
                } else {
                    MfsConfig::time_constrained(cs)
                }
                .with_frame_recording()
            })
            .find(|config| mfs::schedule(&dfg, &spec, config).is_ok())
            .expect("a feasible time constraint within cp + 64");
        replay_matches_enumeration(&dfg, &spec, &config)?;
    }
}

/// Resource-constrained MFS as it ran before the resume: on an empty
/// move frame, widen `current_j`, or grow a derived `max_j` (a class
/// with no user limit and no bank ports, up to the operation count),
/// and restart the pass from the first operation on fresh grids.
/// Returns the schedule, the number of local reschedulings and how many
/// of them grew a `max_j`, or `None` when some frame stays empty at the
/// full budget.
fn restarting_resource_mfs(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsConfig,
) -> Option<(Schedule, u32, u32)> {
    use moveframe_hls::moveframe::Placement;
    use moveframe_hls::schedule::{priority_order_with, Slot, UnitId};
    use std::collections::BTreeMap;

    let cs = config.control_steps();
    let frames = TimeFrames::for_clock(dfg, spec, config.clock(), cs).ok()?;
    let order = priority_order_with(dfg, spec, &frames, config.priority_rule());
    let counts = dfg.class_counts();
    let hard_limit = |class: FuClass| {
        let user = config.fu_limit(class);
        match class {
            FuClass::Mem(bank) => {
                Some(user.map_or(dfg.bank_ports(bank), |u| u.min(dfg.bank_ports(bank))))
            }
            _ => user,
        }
    };
    // A derived max_j is the peak per-class concurrency of the ASAP and
    // the ALAP schedule, with the effective cycles of the placement.
    let cycles = Placement::new(dfg, spec, config.clock(), frames.clone());
    let mut peaks: BTreeMap<(FuClass, u32, bool), u32> = BTreeMap::new();
    for node in dfg.node_ids() {
        let class = dfg.node(node).kind().fu_class();
        for (alap, start) in [(false, frames.asap(node)), (true, frames.alap(node))] {
            for k in 0..cycles.cycles(node) as u32 {
                *peaks
                    .entry((class, (start.get() + k).min(cs), alap))
                    .or_insert(0) += 1;
            }
        }
    }
    let mut max_fu: BTreeMap<FuClass, u32> = counts
        .keys()
        .map(|&class| {
            let derived = peaks
                .iter()
                .filter(|((c, _, _), _)| *c == class)
                .map(|(_, &n)| n)
                .max()
                .unwrap_or(1)
                .max(1);
            (class, hard_limit(class).unwrap_or(derived))
        })
        .collect();
    let n_bound = max_fu
        .values()
        .copied()
        .max()
        .unwrap_or(1)
        .max(dfg.node_count() as u32)
        + 1;
    let liapunov = StaticLiapunov::new(config.objective(), n_bound, cs);
    let mut current: BTreeMap<FuClass, u32> = counts
        .iter()
        .map(|(&class, &n)| {
            let start = if config.lazy_columns() {
                1
            } else {
                (n as u32).div_ceil(cs)
            };
            (class, start.clamp(1, max_fu[&class]))
        })
        .collect();
    let growth_bound = dfg.node_count() as u32 + 1;
    let (mut reschedules, mut grown) = (0, 0);
    'restart: loop {
        let mut placement = Placement::new(dfg, spec, config.clock(), frames.clone());
        let mut grids: BTreeMap<FuClass, Grid> = max_fu
            .iter()
            .map(|(&class, &max)| {
                let grid = Grid::new(cs, max);
                match config.latency() {
                    Some(l) => (class, grid.with_latency(l)),
                    None => (class, grid),
                }
            })
            .collect();
        for &node in &order {
            let class = dfg.node(node).kind().fu_class();
            let (_, starts) = placement.frame(node, &grids[&class], current[&class], false);
            match liapunov.min_position(&starts) {
                Some(pos) => {
                    let cycles = placement.cycles(node);
                    grids
                        .get_mut(&class)
                        .unwrap()
                        .occupy(dfg, node, pos.step, pos.fu, cycles);
                    let unit = UnitId::Fu {
                        class,
                        index: pos.fu,
                    };
                    placement.assign(
                        node,
                        Slot {
                            step: pos.step,
                            unit,
                        },
                    );
                }
                None => {
                    reschedules += 1;
                    let cur = current.get_mut(&class).unwrap();
                    let max = max_fu.get_mut(&class).unwrap();
                    if *cur < *max {
                        *cur += 1;
                    } else if hard_limit(class).is_none() && *max < growth_bound {
                        *max += 1;
                        *cur = *max;
                        grown += 1;
                    } else {
                        return None;
                    }
                    continue 'restart;
                }
            }
        }
        return Some((placement.into_parts().0, reschedules, grown));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resource mode resumes at the failing operation instead of
    /// replaying the pass (DESIGN §13): under hard FU budgets, bank
    /// ports and classes with no limit (whose derived `max_j` grows),
    /// with two-cycle multiplies, a latency wrap and lazy columns
    /// (every class starts from one column), the resumed run places
    /// every operation where the restarting oracle does, after as many
    /// local reschedulings, and fails exactly when it fails.
    #[test]
    fn resource_mode_resume_matches_the_restarting_oracle(
        config in config_strategy(),
        memory_graph in 0u8..3,
        taps in 2usize..6,
        ports in 1u32..4,
        limits in proptest::collection::vec((0u32..12).prop_map(|x| x.saturating_sub(5)), 8..9),
        slack in 0u32..6,
        latency in 0u32..6,
        lazy in 0u8..2,
    ) {
        let (dfg, spec) = if memory_graph == 0 {
            (memory::array_fir(taps, ports), TimingSpec::uniform_single_cycle())
        } else {
            (
                generate(&GeneratorConfig { branch_pct: 30, ..config.clone() }),
                TimingSpec::two_cycle_multiply(),
            )
        };
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mut mfs_config = MfsConfig::resource_constrained(cp + slack);
        for (i, &class) in dfg.class_counts().keys().enumerate() {
            // A zero (half the draws) leaves the class unlimited.
            let limit = limits[i % limits.len()];
            if limit > 0 && !matches!(class, FuClass::Mem(_)) {
                mfs_config = mfs_config.with_fu_limit(class, limit);
            }
        }
        if lazy == 1 {
            // Every class starts from one visible column.
            mfs_config = mfs_config.with_lazy_columns();
        }
        if latency > 0 {
            // A latency of 5/6 down to 1/6 of the step budget wraps the
            // grids; the tighter wraps outgrow a derived max_j.
            mfs_config = mfs_config.with_latency(((cp + slack) * (6 - latency) / 6).max(1));
        }
        let resumed = mfs::schedule(&dfg, &spec, &mfs_config);
        let oracle = restarting_resource_mfs(&dfg, &spec, &mfs_config);
        match (resumed, oracle) {
            (Ok(out), Some((schedule, reschedules, _))) => {
                prop_assert_eq!(&out.schedule, &schedule);
                prop_assert_eq!(out.reschedule_count, reschedules);
            }
            (Err(_), None) => {}
            (resumed, oracle) => prop_assert!(
                false,
                "resumed {:?} vs oracle {:?}",
                resumed.map(|o| o.reschedule_count),
                oracle.map(|(_, r, _)| r)
            ),
        }
    }
}

/// The growth branch of the resume, pinned: with no limit on any class
/// and the grids wrapped at a third of the step budget, some passes
/// outgrow their derived `max_j`, and the resumed run still matches the
/// restarting oracle, which rebuilds its grids at the grown width.
#[test]
fn resource_mode_resume_matches_the_oracle_when_a_derived_max_grows() {
    let mut grown = 0;
    for seed in 1..=12 {
        let dfg = generate(&GeneratorConfig {
            seed,
            layers: 4,
            width: 5,
            inputs: 3,
            branch_pct: 30,
            ..GeneratorConfig::default()
        });
        let spec = TimingSpec::two_cycle_multiply();
        let cs = CriticalPath::compute(&dfg, &spec).steps() as u32 + 2;
        let config = MfsConfig::resource_constrained(cs).with_latency((cs / 3).max(1));
        let out = mfs::schedule(&dfg, &spec, &config).expect("unlimited classes always fit");
        let (schedule, reschedules, grew) =
            restarting_resource_mfs(&dfg, &spec, &config).expect("unlimited classes always fit");
        assert_eq!(out.schedule, schedule, "seed {seed}");
        assert_eq!(out.reschedule_count, reschedules, "seed {seed}");
        grown += grew;
    }
    assert!(grown > 0, "no derived max_j grew");
}
