//! The MFS move loop (paper §3.2).

use std::collections::BTreeMap;

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{priority_order_with, CStep, Grid, Schedule, Slot, TimeFrames, UnitId};

use hls_telemetry::{Instrument, Metrics, NullSink, TraceEvent};

use crate::frame::{FrameSnapshot, Placement};
use crate::mfs::MfsConfig;
use crate::{MoveFrameError, StaticLiapunov};

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

/// Peak per-class concurrency of an ASAP or ALAP schedule — the paper's
/// default `max_j` "upper bound" when the user gives no resource
/// constraint.
fn peak_concurrency(
    dfg: &Dfg,
    starts: impl Fn(NodeId) -> CStep,
    cycles_of: impl Fn(NodeId) -> u8,
    cs: u32,
) -> BTreeMap<FuClass, u32> {
    let mut per_step: BTreeMap<(FuClass, u32), u32> = BTreeMap::new();
    for id in dfg.node_ids() {
        let class = dfg.node(id).kind().fu_class();
        let start = starts(id).get();
        for k in 0..cycles_of(id) as u32 {
            let step = (start + k).min(cs);
            *per_step.entry((class, step)).or_insert(0) += 1;
        }
    }
    let mut peaks = BTreeMap::new();
    for ((class, _), count) in per_step {
        let p = peaks.entry(class).or_insert(0);
        *p = (*p).max(count);
    }
    peaks
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
    let class_counts = dfg.class_counts();
    let frames = placement.frames();
    let asap_peak = peak_concurrency(dfg, |n| frames.asap(n), |n| placement.cycles(n), cs);
    let alap_peak = peak_concurrency(dfg, |n| frames.alap(n), |n| placement.cycles(n), cs);
    let mut max_fu: BTreeMap<FuClass, u32> = BTreeMap::new();
    for &class in class_counts.keys() {
        let derived = asap_peak
            .get(&class)
            .copied()
            .unwrap_or(1)
            .max(alap_peak.get(&class).copied().unwrap_or(1))
            .max(1);
        max_fu.insert(class, hard_limit(class).unwrap_or(derived));
    }

    // The Liapunov weight n: the paper's "presummed big number" upper
    // bound on any max_j, so earlier steps always dominate even when a
    // derived max_j later grows.
    let n_bound = max_fu
        .values()
        .copied()
        .max()
        .unwrap_or(1)
        .max(dfg.node_count() as u32)
        + 1;
    let liapunov = StaticLiapunov::new(config.objective(), n_bound, cs);

    // Step 3: grids (the ASNAP/ALFAP tables reduce to per-class grids
    // bounded by [1, cs] × [1, max_j]).
    let mut grids: BTreeMap<FuClass, Grid> = max_fu
        .iter()
        .map(|(&class, &m)| {
            let grid = Grid::new(class, cs, m);
            let grid = match config.latency() {
                Some(l) => grid.with_latency(l),
                None => grid,
            };
            (class, grid)
        })
        .collect();

    // current_j = ⌈N_j / cs⌉ (clamped into [1, max_j]).
    let mut current: BTreeMap<FuClass, u32> = class_counts
        .iter()
        .map(|(&class, &n)| {
            let c = if config.lazy_columns() {
                1
            } else {
                ((n as u32).div_ceil(cs)).clamp(1, max_fu[&class])
            };
            (class, c)
        })
        .collect();

    // Step 2 (cont.): priority order.
    let order = instr.span("mfs.priority", |_| {
        priority_order_with(dfg, spec, placement.frames(), config.priority_rule())
    });

    // Step 4: the move loop. When an operation's move frame is empty,
    // `current_j` grows and the pass restarts — the paper's local
    // rescheduling "by going back to step 3" (the tables are rebuilt
    // with the wider visible column range).
    let mut reschedule_count = 0u32;
    // A derived max_j may grow at most to the operation count; a user
    // limit never grows.
    let growth_bound = dfg.node_count() as u32 + 1;

    instr.span("mfs.move_loop", |instr| {
        'restart: loop {
            config.cancel().checkpoint()?;
            placement.clear();
            let mut snapshots = Vec::new();
            let mut pass_grids = grids.clone();

            // System energy of this pass: placed operations contribute their
            // committed V, unplaced ones their grid's worst cell. Every
            // commit replaces a worst-cell term with a no-larger chosen-cell
            // term, so the trace is non-increasing by construction.
            let mut system_v = if instr.enabled() {
                dfg.node_ids()
                    .map(|n| {
                        let class = dfg.node(n).kind().fu_class();
                        liapunov.value(max_fu[&class], cs)
                    })
                    .sum::<u64>()
            } else {
                0
            };

            for &node in &order {
                config.cancel().checkpoint()?;
                let class = dfg.node(node).kind().fu_class();
                let cycles = placement.cycles(node);
                let (snap, starts) = placement.frame(
                    node,
                    &pass_grids[&class],
                    current[&class],
                    instr.enabled() || config.records_frames(),
                );
                instr.inc("mfs.frames_computed", 1);
                {
                    // Which bound derivation ran: the O(1) cached formula,
                    // or the chaining boundary walk (a scheduled
                    // predecessor finishes inside the primary frame)?
                    let m = placement.bounds().pred_finish(node);
                    let (asap_b, alap_b) = snap.primary;
                    if m != 0 && m >= asap_b.get() && m <= alap_b.get() {
                        instr.inc("mfs.bounds.boundary_walks", 1);
                    } else {
                        instr.inc("mfs.bounds.fast_path", 1);
                    }
                }
                let mf_size = starts.count();
                instr.inc("mfs.energy_evaluations", mf_size as u64);
                instr.observe("mfs.mf_size", mf_size as u64);
                if !snap.af_steps.is_empty() {
                    // Bank-port saturation carved steps out of this frame.
                    instr.inc("mem.port_conflicts", 1);
                    instr.inc("mem.af_steps_excluded", snap.af_steps.len() as u64);
                }
                if instr.enabled() {
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
                debug_assert!(
                    liapunov.is_lexicographic(&starts),
                    "n_bound covers every column and the window lies within cs"
                );
                match liapunov.min_position(&starts) {
                    Some(pos) => {
                        pass_grids
                            .get_mut(&class)
                            .expect("grid exists for every class")
                            .occupy(node, pos.step, pos.fu, cycles);
                        placement.assign(
                            node,
                            Slot {
                                step: pos.step,
                                unit: UnitId::Fu {
                                    class,
                                    index: pos.fu,
                                },
                            },
                        );
                        instr.inc("mfs.moves_committed", 1);
                        if instr.enabled() {
                            let v = liapunov.value(pos.fu.get(), pos.step.get());
                            system_v -= liapunov.value(max_fu[&class], cs) - v;
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
                        if config.records_frames() {
                            snapshots.push(snap);
                        }
                    }
                    None => {
                        // Local rescheduling: widen the visible columns and
                        // go back to step 3.
                        reschedule_count += 1;
                        instr.inc("mfs.local_reschedules", 1);
                        if matches!(class, FuClass::Mem(_)) {
                            instr.inc("mem.port_reschedules", 1);
                        }
                        let cur = current.get_mut(&class).expect("class present");
                        let max = max_fu.get_mut(&class).expect("class present");
                        if *cur < *max {
                            *cur += 1;
                        } else if hard_limit(class).is_none() && *max < growth_bound {
                            *max += 1;
                            *cur = *max;
                            grids
                                .get_mut(&class)
                                .expect("grid exists")
                                .grow_max_fu(*max);
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
                                current_j: *current.get(&class).expect("class present"),
                            });
                        }
                        continue 'restart;
                    }
                }
            }

            let (schedule, frames) = placement.into_parts();
            return Ok(MfsOutcome {
                schedule,
                grids: pass_grids,
                frames,
                reschedule_count,
                snapshots,
            });
        }
    })
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
