//! The MFS move loop (paper §3.2).

use std::collections::BTreeMap;

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{priority_order_with, CStep, Grid, Schedule, Slot, TimeFrames, UnitId};

use hls_telemetry::{Histogram, Instrument, Metrics, NullSink, TraceEvent};

use crate::frame::{FrameSnapshot, Placement};
use crate::mfs::MfsConfig;
use crate::{MfsObjective, MoveFrameError, StaticLiapunov};

/// The result of an MFS run.
#[derive(Debug, Clone)]
pub struct MfsOutcome {
    /// The complete schedule (every unit is a [`UnitId::Fu`]).
    pub schedule: Schedule,
    /// The per-class placement grids (Figure-1 state).
    pub grids: BTreeMap<FuClass, Grid>,
    /// The ASAP/ALAP frames the run was based on.
    pub frames: TimeFrames,
    /// How many local reschedulings (`current_j` bumps) occurred.
    pub reschedule_count: u32,
    /// Frame snapshots per placement, in scheduling order (only when
    /// [`MfsConfig::with_frame_recording`] was set).
    pub snapshots: Vec<FrameSnapshot>,
}

impl MfsOutcome {
    /// Units used per class — the paper's Table-1 numbers.
    pub fn fu_counts(&self) -> BTreeMap<FuClass, u32> {
        self.schedule.fu_counts()
    }
}

/// Peak concurrency per class id of an ASAP or ALAP schedule — the
/// paper's default `max_j` "upper bound" when the user gives no
/// resource constraint. `class_of` is the node-indexed class id of
/// [`Dfg::class_ids`], with `classes` ids in all.
fn peak_concurrency(
    class_of: &[u32],
    classes: usize,
    starts: impl Fn(NodeId) -> CStep,
    cycles_of: impl Fn(NodeId) -> u8,
    cs: u32,
) -> Vec<u32> {
    let steps = cs as usize;
    let mut per_step = vec![0u32; classes * steps];
    for (i, &class) in class_of.iter().enumerate() {
        let id = NodeId::from_index(i);
        let start = starts(id).get();
        for k in 0..cycles_of(id) as u32 {
            let step = (start + k).min(cs);
            per_step[class as usize * steps + step as usize - 1] += 1;
        }
    }
    per_step
        .chunks_exact(steps)
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .collect()
}

/// Runs Move Frame Scheduling on `dfg` under `spec` and `config`.
///
/// The four steps of §3.2: (1) ASAP/ALAP frames, (2) `max_j` and
/// priorities, (3) the per-operation frame tables, (4) the move loop —
/// each operation takes the minimum-Liapunov position of its move frame,
/// with `current_j` grown (*local rescheduling*) whenever the frame is
/// empty.
///
/// # Errors
///
/// * [`MoveFrameError::Schedule`] if the time constraint is below the
///   critical path;
/// * [`MoveFrameError::NoPosition`] if a user resource limit (or, for
///   derived limits, the graph size bound) leaves some operation without
///   a valid position.
pub fn schedule(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsConfig,
) -> Result<MfsOutcome, MoveFrameError> {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    schedule_traced(
        dfg,
        spec,
        config,
        &mut Instrument::new(&mut sink, &mut metrics),
    )
}

/// [`schedule`] with instrumentation: phase spans, counters and (when
/// the sink is enabled) per-move trace events flow into `instr`.
///
/// Event conventions (see `hls-telemetry`):
///
/// * `FrameComputed` — one per placement attempt, with the PF length,
///   hidden RF columns, FF step count and the move-frame size;
/// * `EnergyEvaluated` — one per free cell of the move frame;
/// * `MoveCommitted` — `from` is the present position `O^p` (the ALFAP
///   corner at the current column), `to` the committed cell, `v` its
///   static Liapunov energy, and `system_v` the total system energy
///   after the move (placed operations at their committed energy,
///   unplaced ones at their grid's worst cell) — non-increasing over a
///   pass by construction;
/// * `LocalReschedule` — one per empty-frame retry, with the widened
///   `current_j`.
///
/// Instrumentation is write-only: the returned outcome is bit-identical
/// to [`schedule`]'s for any sink.
///
/// # Errors
///
/// As for [`schedule`].
pub fn schedule_traced(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsConfig,
    instr: &mut Instrument<'_>,
) -> Result<MfsOutcome, MoveFrameError> {
    let cs = config.control_steps();
    config.cancel().checkpoint()?;

    // Step 1: time frames (chaining-aware when a clock is given).
    let frames = instr.span("mfs.frames", |_| {
        TimeFrames::for_clock(dfg, spec, config.clock(), cs)
    })?;

    // The dense placement state; effective cycles (chaining can stretch
    // slow ops over steps) live in its bounds cache. Every pass clears it
    // and starts from an empty schedule.
    let mut placement = Placement::new(dfg, spec, config.clock(), frames);

    // Step 2: max_j per class (user constraint, else ASAP/ALAP peak).
    // A memory bank's declared port count is a *hard* column budget, just
    // like a user FU limit: the grid never grows past the ports that
    // physically exist, and local rescheduling can only widen `current_j`
    // up to it.
    let hard_limit = |class: FuClass| -> Option<u32> {
        let user = config.fu_limit(class);
        match class {
            FuClass::Mem(bank) => {
                let ports = dfg.bank_ports(bank);
                Some(user.map_or(ports, |u| u.min(ports)))
            }
            _ => user,
        }
    };
    // Every per-class table is a vector indexed by the class id.
    let (classes, class_of) = dfg.class_ids();
    let mut class_counts = vec![0u32; classes.len()];
    for &c in &class_of {
        class_counts[c as usize] += 1;
    }
    let frames = placement.frames();
    let cycles = |n| placement.cycles(n);
    let asap_peak = peak_concurrency(&class_of, classes.len(), |n| frames.asap(n), cycles, cs);
    let alap_peak = peak_concurrency(&class_of, classes.len(), |n| frames.alap(n), cycles, cs);
    let mut max_fu: Vec<u32> = classes
        .iter()
        .enumerate()
        .map(|(c, &class)| hard_limit(class).unwrap_or(asap_peak[c].max(alap_peak[c]).max(1)))
        .collect();

    // The Liapunov weight n: the paper's "presummed big number" upper
    // bound on any max_j, so earlier steps always dominate even when a
    // derived max_j later grows.
    let n_bound = max_fu
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .max(dfg.node_count() as u32)
        + 1;
    let liapunov = StaticLiapunov::new(config.objective(), n_bound, cs);

    // Step 3: grids (the ASNAP/ALFAP tables reduce to per-class grids
    // bounded by [1, cs] × [1, max_j]).
    let mut grids: Vec<Grid> = max_fu
        .iter()
        .map(|&m| {
            let grid = Grid::new(cs, m);
            match config.latency() {
                Some(l) => grid.with_latency(l),
                None => grid,
            }
        })
        .collect();

    // current_j = ⌈N_j / cs⌉ (clamped into [1, max_j]).
    let mut current: Vec<u32> = class_counts
        .iter()
        .zip(&max_fu)
        .map(|(&n, &max)| {
            if config.lazy_columns() {
                1
            } else {
                n.div_ceil(cs).clamp(1, max)
            }
        })
        .collect();

    // Step 2 (cont.): priority order.
    let order = instr.span("mfs.priority", |_| {
        priority_order_with(dfg, spec, placement.frames(), config.priority_rule())
    });

    // Step 4: the move loop. When an operation's move frame is empty,
    // `current_j` grows — the paper's local rescheduling "by going back
    // to step 3" (the tables are rebuilt with the wider visible column
    // range). In time mode the pass restarts, since a new column is free
    // at every step and may pull an earlier operation to an earlier
    // step. In resource mode the failing operation is re-framed and the
    // pass resumes: `V = cs·x + y` puts the new columns above every
    // placed operation's argmin, so a replay would place the prefix
    // identically (DESIGN §13).
    let mut reschedule_count = 0u32;
    // A derived max_j may grow at most to the operation count; a user
    // limit never grows.
    let growth_bound = dfg.node_count() as u32 + 1;
    let time_mode = config.objective() == MfsObjective::TimeConstrained;
    // Cell lists feed trace events and frame recording; without them a
    // time-mode frame is counted rather than built where it can be.
    let list_cells = instr.enabled() || config.records_frames();
    let mut tally = Tally::default();

    let outcome = instr.span("mfs.move_loop", |instr| {
        'restart: loop {
            config.cancel().checkpoint()?;
            placement.clear();
            let mut snapshots = Vec::new();
            let mut pass_grids = grids.clone();

            // System energy of this pass: placed operations contribute their
            // committed V, unplaced ones their grid's worst cell. Every
            // commit replaces a worst-cell term with a no-larger chosen-cell
            // term, so the trace is non-increasing by construction.
            let system_energy = |placement: &Placement<'_>, max_fu: &[u32]| {
                dfg.node_ids()
                    .map(|n| match placement.schedule().slot(n) {
                        Some(Slot {
                            step,
                            unit: UnitId::Fu { index, .. },
                        }) => liapunov.value(index.get(), step.get()),
                        _ => liapunov.value(max_fu[class_of[n.index()] as usize], cs),
                    })
                    .sum::<u64>()
            };
            let mut system_v = if instr.enabled() {
                system_energy(&placement, &max_fu)
            } else {
                0
            };

            let mut next = 0;
            while let Some(&node) = order.get(next) {
                config.cancel().checkpoint()?;
                let c = class_of[node.index()] as usize;
                let cycles = placement.cycles(node);
                let grid = &pass_grids[c];
                let counted = if time_mode && !list_cells {
                    placement.frame_size(node, grid, current[c])
                } else {
                    None
                };
                let (mf_size, best, snap) = match counted {
                    Some((size, first)) => (size, first, None),
                    None => {
                        let (snap, starts) = placement.frame(node, grid, current[c], list_cells);
                        debug_assert!(
                            liapunov.is_lexicographic(&starts),
                            "n_bound covers every column and the window lies within cs"
                        );
                        (starts.count(), liapunov.min_position(&starts), Some(snap))
                    }
                };
                tally.frames += 1;
                {
                    // Which bound derivation ran: the O(1) cached formula,
                    // or the chaining boundary walk (a scheduled
                    // predecessor finishes inside the primary frame)?
                    let m = placement.bounds().pred_finish(node);
                    let frames = placement.frames();
                    if m != 0 && m >= frames.asap(node).get() && m <= frames.alap(node).get() {
                        tally.boundary_walks += 1;
                    } else {
                        tally.fast_path += 1;
                    }
                }
                tally.energy_evals += mf_size as u64;
                tally.mf_size.observe(mf_size as u64);
                if let Some(snap) = snap.as_ref().filter(|s| !s.af_steps.is_empty()) {
                    // Bank-port saturation carved steps out of this frame.
                    tally.port_conflicts += 1;
                    tally.af_steps_excluded += snap.af_steps.len() as u64;
                }
                if instr.enabled() {
                    let snap = snap.as_ref().expect("traced frames are listed");
                    let (asap, alap) = snap.primary;
                    // Forbidden steps: [ASAP, earliest) and (latest, ALAP].
                    let ff = snap.earliest_feasible.get().saturating_sub(asap.get())
                        + alap.get().saturating_sub(snap.latest_feasible.get());
                    instr.emit(TraceEvent::FrameComputed {
                        op: node.index() as u32,
                        pf: alap.get() - asap.get() + 1,
                        rf: snap.max_fu - snap.current_fu,
                        ff,
                        mf_size: mf_size as u32,
                    });
                    for p in &snap.movable {
                        instr.emit(TraceEvent::EnergyEvaluated {
                            op: node.index() as u32,
                            pos: (p.fu.get(), p.step.get()),
                            v: liapunov.value(p.fu.get(), p.step.get()),
                        });
                    }
                }
                match best {
                    Some(pos) => {
                        pass_grids[c].occupy(dfg, node, pos.step, pos.fu, cycles);
                        placement.assign(
                            node,
                            Slot {
                                step: pos.step,
                                unit: UnitId::Fu {
                                    class: classes[c],
                                    index: pos.fu,
                                },
                            },
                        );
                        tally.moves += 1;
                        if instr.enabled() {
                            let snap = snap.as_ref().expect("traced frames are listed");
                            let v = liapunov.value(pos.fu.get(), pos.step.get());
                            system_v -= liapunov.value(max_fu[c], cs) - v;
                            instr.emit(TraceEvent::MoveCommitted {
                                op: node.index() as u32,
                                // O^p: the ALFAP corner of the frame at the
                                // current column (paper §3.2).
                                from: Some((snap.current_fu, snap.primary.1.get())),
                                to: (pos.fu.get(), pos.step.get()),
                                v,
                                system_v: Some(system_v),
                            });
                        }
                        if let Some(snap) = snap.filter(|_| config.records_frames()) {
                            snapshots.push(snap);
                        }
                        next += 1;
                    }
                    None => {
                        // Local rescheduling: widen the visible columns.
                        reschedule_count += 1;
                        tally.reschedules += 1;
                        let class = classes[c];
                        if matches!(class, FuClass::Mem(_)) {
                            tally.port_reschedules += 1;
                        }
                        let (cur, max) = (&mut current[c], &mut max_fu[c]);
                        if *cur < *max {
                            *cur += 1;
                        } else if hard_limit(class).is_none() && *max < growth_bound {
                            *max += 1;
                            *cur = *max;
                            for grids in [&mut grids, &mut pass_grids] {
                                grids[c].grow_max_fu(*max);
                            }
                        } else {
                            return Err(MoveFrameError::NoPosition {
                                node,
                                class,
                                max_fu: *max,
                            });
                        }
                        if instr.enabled() {
                            instr.emit(TraceEvent::LocalReschedule {
                                op_kind: class.to_string(),
                                current_j: current[c],
                            });
                        }
                        if time_mode {
                            continue 'restart;
                        }
                        // Resource mode re-frames the same node. A grown
                        // max_j raises the unplaced nodes' worst cell, so
                        // the energy trajectory restarts from the new sum.
                        if instr.enabled() {
                            system_v = system_energy(&placement, &max_fu);
                        }
                    }
                }
            }

            let (schedule, frames) = placement.into_parts();
            return Ok(MfsOutcome {
                schedule,
                grids: classes.iter().copied().zip(pass_grids).collect(),
                frames,
                reschedule_count,
                snapshots,
            });
        }
    });
    tally.flush(instr);
    outcome
}

/// The move loop's counters, tallied locally and flushed into the
/// instrument once per run (on the error paths too), so an operation
/// costs no string-keyed registry lookup. Each flushed counter exists
/// exactly when the per-operation recording of the same values would
/// have created it.
#[derive(Default)]
struct Tally {
    /// Frames computed, one per placement attempt.
    frames: u64,
    /// Bound derivations that walked the chaining boundary, and those
    /// that read the cached formula.
    boundary_walks: u64,
    fast_path: u64,
    /// Free cells over all frames, and their per-frame histogram.
    energy_evals: u64,
    mf_size: Histogram,
    /// Committed moves.
    moves: u64,
    /// Frames with access-conflict steps, and those steps.
    port_conflicts: u64,
    af_steps_excluded: u64,
    /// Local reschedulings: all, and those of bank ports.
    reschedules: u64,
    port_reschedules: u64,
}

impl Tally {
    fn flush(&self, instr: &mut Instrument<'_>) {
        if self.frames > 0 {
            instr.inc("mfs.frames_computed", self.frames);
            instr.inc("mfs.energy_evaluations", self.energy_evals);
            instr.merge_histogram("mfs.mf_size", &self.mf_size);
        }
        for (name, n) in [
            ("mfs.bounds.boundary_walks", self.boundary_walks),
            ("mfs.bounds.fast_path", self.fast_path),
            ("mem.port_conflicts", self.port_conflicts),
            ("mem.af_steps_excluded", self.af_steps_excluded),
            ("mfs.moves_committed", self.moves),
            ("mfs.local_reschedules", self.reschedules),
            ("mem.port_reschedules", self.port_reschedules),
        ] {
            if n > 0 {
                instr.inc(name, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::{ClockPeriod, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_schedule::{verify, VerifyOptions};

    fn assert_valid(dfg: &Dfg, spec: &TimingSpec, outcome: &MfsOutcome, opts: VerifyOptions) {
        let violations = verify(dfg, &outcome.schedule, spec, opts);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn balanced_schedule_of_independent_adds() {
        // 6 independent adds in 3 steps: current_+ = 2, perfectly
        // balanced, no rescheduling.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..6 {
            b.op(&format!("a{i}"), OpKind::Add, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsConfig::time_constrained(3)).unwrap();
        assert_valid(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Add)], 2);
        assert_eq!(out.reschedule_count, 0);
    }

    #[test]
    fn rescheduling_grows_units_when_dependencies_force_concurrency() {
        // Two adds pinned to step 1 by successors at step 2, cs = 2:
        // current_+ starts at 1 and must grow to 2.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a1 = b.op("a1", OpKind::Add, &[x, x]).unwrap();
        let a2 = b.op("a2", OpKind::Add, &[x, x]).unwrap();
        b.op("s1", OpKind::Sub, &[a1, x]).unwrap();
        b.op("s2", OpKind::Sub, &[a2, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsConfig::time_constrained(2)).unwrap();
        assert_valid(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Add)], 2);
        assert!(out.reschedule_count >= 1);
    }

    #[test]
    fn user_limit_is_respected_or_fails() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..4 {
            b.op(&format!("a{i}"), OpKind::Add, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        // 4 adds, 2 steps, limit 1 adder: impossible.
        let config = MfsConfig::time_constrained(2).with_fu_limit(FuClass::Op(OpKind::Add), 1);
        assert!(matches!(
            schedule(&g, &spec, &config),
            Err(MoveFrameError::NoPosition { .. })
        ));
        // Limit 2 adders: exactly feasible.
        let config = MfsConfig::time_constrained(2).with_fu_limit(FuClass::Op(OpKind::Add), 2);
        let out = schedule(&g, &spec, &config).unwrap();
        assert_valid(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Add)], 2);
    }

    #[test]
    fn resource_constrained_minimises_steps_on_existing_units() {
        // 4 independent adds, 1 adder, bound 6 steps: uses steps 1–4.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..4 {
            b.op(&format!("a{i}"), OpKind::Add, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsConfig::resource_constrained(6).with_fu_limit(FuClass::Op(OpKind::Add), 1);
        let out = schedule(&g, &spec, &config).unwrap();
        assert_valid(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Add)], 1);
        assert_eq!(out.schedule.steps_used(&g, &spec, None), 4);
    }

    #[test]
    fn time_constrained_uses_early_steps() {
        // A single op with full mobility must land in step 1 (the
        // Liapunov function prefers earlier steps).
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("only", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsConfig::time_constrained(5)).unwrap();
        let only = g.node_by_name("only").unwrap();
        assert_eq!(out.schedule.start(only), Some(CStep::new(1)));
    }

    #[test]
    fn mutually_exclusive_ops_share_one_unit() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        b.op("e", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsConfig::time_constrained(1)).unwrap();
        assert_valid(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Add)], 1);
    }

    #[test]
    fn multicycle_multiplies_occupy_consecutive_steps() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Mul, &[x, x]).unwrap();
        b.op("a", OpKind::Add, &[m, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let out = schedule(&g, &spec, &MfsConfig::time_constrained(3)).unwrap();
        assert_valid(&g, &spec, &out, VerifyOptions::default());
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(out.schedule.start(m), Some(CStep::new(1)));
        assert_eq!(out.schedule.start(a), Some(CStep::new(3)));
    }

    #[test]
    fn functional_pipelining_latency_is_respected() {
        // 4 independent multiplies, cs=4, latency 2: steps {1,3} and
        // {2,4} collide, so 2 multipliers are needed.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..4 {
            b.op(&format!("m{i}"), OpKind::Mul, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsConfig::time_constrained(4).with_latency(2);
        let out = schedule(&g, &spec, &config).unwrap();
        let opts = VerifyOptions {
            latency: Some(2),
            ..Default::default()
        };
        assert_valid(&g, &spec, &out, opts);
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Mul)], 2);
    }

    #[test]
    fn chaining_packs_dependent_adds_into_one_step() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op("a", OpKind::Add, &[x, y]).unwrap();
        b.op("c", OpKind::Add, &[a, y]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::with_delays();
        let clock = ClockPeriod::new(100);
        let config = MfsConfig::time_constrained(1).with_chaining(clock);
        let out = schedule(&g, &spec, &config).unwrap();
        let opts = VerifyOptions {
            clock: Some(clock),
            ..Default::default()
        };
        assert_valid(&g, &spec, &out, opts);
        // Both in step 1, on different adders.
        let a = g.node_by_name("a").unwrap();
        let c = g.node_by_name("c").unwrap();
        assert_eq!(out.schedule.start(a), Some(CStep::new(1)));
        assert_eq!(out.schedule.start(c), Some(CStep::new(1)));
        assert_eq!(out.fu_counts()[&FuClass::Op(OpKind::Add)], 2);
    }

    #[test]
    fn infeasible_time_constraint_errors() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a = b.op("a", OpKind::Add, &[x, x]).unwrap();
        b.op("c", OpKind::Add, &[a, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        assert!(matches!(
            schedule(&g, &spec, &MfsConfig::time_constrained(1)),
            Err(MoveFrameError::Schedule(_))
        ));
    }

    #[test]
    fn frame_recording_captures_one_snapshot_per_op() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a = b.op("a", OpKind::Add, &[x, x]).unwrap();
        b.op("c", OpKind::Sub, &[a, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsConfig::time_constrained(2).with_frame_recording();
        let out = schedule(&g, &spec, &config).unwrap();
        assert_eq!(out.snapshots.len(), 2);
        assert!(out.snapshots.iter().all(|s| !s.movable.is_empty()));
    }

    #[test]
    fn stage_nodes_schedule_consecutively_and_overlap() {
        use hls_dfg::transform::expand_structural_stages;
        // Two 2-cycle multiplies on a pipelined multiplier: stages let
        // them overlap so ONE pipelined unit (per stage class) suffices
        // in 3 steps.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("m1", OpKind::Mul, &[x, x]).unwrap();
        b.op("m2", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let (expanded, _) =
            expand_structural_stages(&g, &spec, &[OpKind::Mul].into_iter().collect()).unwrap();
        let out = schedule(&expanded, &spec, &MfsConfig::time_constrained(3)).unwrap();
        assert_valid(&expanded, &spec, &out, VerifyOptions::default());
        for (class, count) in out.fu_counts() {
            assert_eq!(count, 1, "stage class {class} should need one unit");
        }
        // Stage 2 of each op directly follows its stage 1.
        for base in ["m1", "m2"] {
            let s1 = expanded.node_by_name(&format!("{base}.s1")).unwrap();
            let s2 = expanded.node_by_name(&format!("{base}.s2")).unwrap();
            let t1 = out.schedule.start(s1).unwrap().get();
            let t2 = out.schedule.start(s2).unwrap().get();
            assert_eq!(t2, t1 + 1);
        }
    }
}

/// Finds the smallest time constraint for which `config_at(cs)` admits a
/// schedule, searching `cs` in `[lower, upper]` by bisection (the
/// feasibility predicate is monotone in `cs`), and returns it with the
/// outcome.
///
/// The classic use is minimum-latency-under-resources: build the config
/// with hard [`MfsConfig::with_fu_limit`] budgets.
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
/// use hls_dfg::{DfgBuilder, FuClass};
/// use moveframe::mfs::{minimize_steps, MfsConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// for i in 0..4 {
///     b.op(&format!("a{i}"), OpKind::Add, &[x, x])?;
/// }
/// let dfg = b.finish()?;
/// let spec = TimingSpec::uniform_single_cycle();
/// // One adder: 4 independent adds need exactly 4 steps.
/// let (cs, _) = minimize_steps(&dfg, &spec, 1, 16, |cs| {
///     MfsConfig::time_constrained(cs).with_fu_limit(FuClass::Op(OpKind::Add), 1)
/// })?;
/// assert_eq!(cs, 4);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns the `upper`-bound attempt's error when even `upper` steps are
/// infeasible under the configuration.
pub fn minimize_steps(
    dfg: &Dfg,
    spec: &TimingSpec,
    lower: u32,
    upper: u32,
    config_at: impl Fn(u32) -> MfsConfig,
) -> Result<(u32, MfsOutcome), MoveFrameError> {
    assert!(lower >= 1 && lower <= upper, "need 1 <= lower <= upper");
    // Feasibility first: if even `upper` fails, surface that error.
    let mut best = match schedule(dfg, spec, &config_at(upper)) {
        Ok(outcome) => (upper, outcome),
        Err(e) => return Err(e),
    };
    let (mut lo, mut hi) = (lower, upper);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match schedule(dfg, spec, &config_at(mid)) {
            Ok(outcome) => {
                best = (mid, outcome);
                hi = mid;
            }
            Err(_) => lo = mid + 1,
        }
    }
    Ok(best)
}

#[cfg(test)]
mod minimize_tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    #[test]
    fn finds_the_critical_path_without_limits() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let p = b.op("p", OpKind::Add, &[x, x]).unwrap();
        let q = b.op("q", OpKind::Add, &[p, x]).unwrap();
        b.op("r", OpKind::Add, &[q, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let (cs, out) = minimize_steps(&dfg, &spec, 1, 10, MfsConfig::time_constrained).unwrap();
        assert_eq!(cs, 3);
        assert!(out.schedule.is_complete());
    }

    #[test]
    fn resource_limits_stretch_the_minimum() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..6 {
            b.op(&format!("m{i}"), OpKind::Mul, &[x, x]).unwrap();
        }
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let (cs, _) = minimize_steps(&dfg, &spec, 1, 16, |cs| {
            MfsConfig::time_constrained(cs).with_fu_limit(FuClass::Op(OpKind::Mul), 2)
        })
        .unwrap();
        assert_eq!(cs, 3);
        let (cs, _) = minimize_steps(&dfg, &spec, 1, 16, |cs| {
            MfsConfig::time_constrained(cs).with_fu_limit(FuClass::Op(OpKind::Mul), 3)
        })
        .unwrap();
        assert_eq!(cs, 2);
    }

    #[test]
    fn infeasible_upper_bound_errors() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let p = b.op("p", OpKind::Add, &[x, x]).unwrap();
        b.op("q", OpKind::Add, &[p, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        assert!(minimize_steps(&dfg, &spec, 1, 1, MfsConfig::time_constrained).is_err());
    }
}
