//! Frame computation: `MF = PF − (RF ∪ FF)` (paper §3.2, step 4).

use hls_celllib::{ClockPeriod, Delay, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{CStep, FreeStarts, FuIndex, Grid, Schedule, TimeFrames};

/// One candidate cell of a placement grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Control step (`y`).
    pub step: CStep,
    /// Unit column (`x`).
    pub fu: FuIndex,
}

/// The frames computed for one operation at the moment it is scheduled —
/// the data behind the paper's Figure 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSnapshot {
    /// The operation being placed.
    pub node: NodeId,
    /// Its functional-unit class (which grid the frames live in).
    pub class: FuClass,
    /// Primary-frame time range `[ASAP, ALAP]`.
    pub primary: (CStep, CStep),
    /// Columns visible to the move frame (`current_j`); columns
    /// `current_j+1 ..= max_fu` form the redundant frame.
    pub current_fu: u32,
    /// The grid's column budget (`max_j`).
    pub max_fu: u32,
    /// Steps of the primary range excluded by data dependencies (the
    /// forbidden frame): every step strictly below this bound.
    pub earliest_feasible: CStep,
    /// Steps of the primary range excluded by already-scheduled
    /// successors: every step strictly above this bound.
    pub latest_feasible: CStep,
    /// The access-conflict frame `AF`: dependency-feasible steps excluded
    /// solely because every visible port of the node's memory bank is
    /// already occupied. Always empty for non-memory classes, where a
    /// fully-occupied step is an ordinary resource conflict rather than a
    /// port conflict. `MF = PF − (RF ∪ FF ∪ AF)`.
    pub af_steps: Vec<CStep>,
    /// The resulting move frame: free, dependency-feasible positions.
    pub movable: Vec<Position>,
}

impl FrameSnapshot {
    /// Whether the move frame is empty (triggers local rescheduling).
    pub fn is_empty(&self) -> bool {
        self.movable.is_empty()
    }
}

/// Incrementally-maintained per-node scheduling bounds.
///
/// Frame computation needs, for every unscheduled operation, the latest
/// finish step among its *scheduled* predecessors (the forbidden-frame
/// floor) and the earliest start step among its *scheduled* successors
/// (the ceiling). Rescanning the neighbour lists for every candidate
/// step of every operation made `feasible_step_range` the scheduler's
/// hottest loop; this cache updates the two numbers on each
/// occupy/vacate of a neighbour instead:
///
/// * [`BoundsCache::on_assign`] — O(degree) max/min merges;
/// * [`BoundsCache::on_unassign`] — O(degree × neighbour degree)
///   recomputation, paid only on the rare local-rescheduling path.
///
/// Effective cycle counts (declared cycles, or `⌈delay/T⌉` under a
/// chaining clock) are precomputed per node as well, since they are
/// pure functions of the graph and clock.
#[derive(Debug, Clone)]
pub struct BoundsCache {
    /// Effective cycles per node under the (optional) clock.
    cycles: Vec<u8>,
    /// Whether the node may share a step boundary under chaining.
    chainable: Vec<bool>,
    /// Combinational delay per node, for repairing chained finish
    /// offsets after a vacate.
    delays: Vec<Delay>,
    /// Max finish step over scheduled predecessors (0 = none).
    pred_finish: Vec<u32>,
    /// Min start step over scheduled successors (`u32::MAX` = none).
    succ_start: Vec<u32>,
}

impl BoundsCache {
    /// Builds the cache for an empty schedule.
    pub fn new(dfg: &Dfg, spec: &TimingSpec, clock: Option<ClockPeriod>) -> Self {
        let n = dfg.node_count();
        let mut cycles = Vec::with_capacity(n);
        let mut chainable = Vec::with_capacity(n);
        let mut delays = Vec::with_capacity(n);
        for (_, node) in dfg.nodes() {
            let kind = node.kind();
            let declared = kind.cycles(spec);
            let eff = match clock {
                None => declared,
                Some(t) => {
                    let d = kind.delay(spec).as_u32();
                    let derived = if d == 0 {
                        1
                    } else {
                        d.div_ceil(t.as_u32()) as u8
                    };
                    declared.max(derived)
                }
            };
            cycles.push(eff);
            chainable.push(clock.is_some() && eff == 1 && kind.delay(spec).as_u32() > 0);
            delays.push(kind.delay(spec));
        }
        BoundsCache {
            cycles,
            chainable,
            delays,
            pred_finish: vec![0; n],
            succ_start: vec![u32::MAX; n],
        }
    }

    /// Effective cycle count of `node`.
    pub fn cycles(&self, node: NodeId) -> u8 {
        self.cycles[node.index()]
    }

    /// Records that `node` was scheduled to start at `step`: its
    /// neighbours' bounds tighten monotonically.
    pub fn on_assign(&mut self, dfg: &Dfg, node: NodeId, step: CStep) {
        let finish = step.finish(self.cycles[node.index()]).get();
        for &s in dfg.succs(node) {
            let f = &mut self.pred_finish[s.index()];
            *f = (*f).max(finish);
        }
        for &p in dfg.preds(node) {
            let s = &mut self.succ_start[p.index()];
            *s = (*s).min(step.get());
        }
    }

    /// Records that `node` was unscheduled (local rescheduling): its
    /// neighbours' bounds are recomputed from their remaining scheduled
    /// neighbours, its own entry in `offsets` is reset, and the chained
    /// finish offsets of its scheduled dependents are repaired.
    /// `schedule` must already reflect the removal.
    ///
    /// The offset repair closes a staleness edge: a dependent that
    /// chained *after* the vacated node in the same step keeps carrying
    /// the vacated node's within-step delay in its accumulated offset,
    /// so a later `probe_move_frame` of one of *its* successors sees an
    /// inflated chaining base and can report a feasible range that
    /// opens one step too late. Scheduled chainable transitive
    /// successors are therefore recomputed here, in dependency (node
    /// index) order, from their remaining same-step predecessors.
    pub fn on_unassign(
        &mut self,
        dfg: &Dfg,
        schedule: &Schedule,
        offsets: &mut [Delay],
        node: NodeId,
    ) {
        for &s in dfg.succs(node) {
            self.pred_finish[s.index()] = dfg
                .preds(s)
                .iter()
                .filter_map(|&p| {
                    schedule
                        .start(p)
                        .map(|st| st.finish(self.cycles[p.index()]).get())
                })
                .max()
                .unwrap_or(0);
        }
        for &p in dfg.preds(node) {
            self.succ_start[p.index()] = dfg
                .succs(p)
                .iter()
                .filter_map(|&q| schedule.start(q))
                .map(|st| st.get())
                .min()
                .unwrap_or(u32::MAX);
        }

        offsets[node.index()] = Delay::ZERO;
        // Offsets only accumulate through scheduled chainable nodes, so
        // only those can go stale.
        let mut affected: Vec<NodeId> = Vec::new();
        let mut seen = vec![false; dfg.node_count()];
        let mut stack: Vec<NodeId> = dfg.succs(node).to_vec();
        while let Some(q) = stack.pop() {
            if seen[q.index()] || !self.chainable[q.index()] || schedule.start(q).is_none() {
                continue;
            }
            seen[q.index()] = true;
            affected.push(q);
            stack.extend_from_slice(dfg.succs(q));
        }
        // Builder node indices respect dependencies, so index order is a
        // topological order of the repair set.
        affected.sort_unstable();
        for &q in &affected {
            let start = schedule.start(q).expect("repair set is scheduled");
            let mut base = Delay::ZERO;
            for &p in dfg.preds(q) {
                if !self.chainable[p.index()] {
                    continue;
                }
                if let Some(ps) = schedule.start(p) {
                    if ps.finish(self.cycles[p.index()]) == start {
                        base = base.max(offsets[p.index()]);
                    }
                }
            }
            offsets[q.index()] = base + self.delays[q.index()];
        }
    }

    /// Max finish step over `node`'s scheduled predecessors (0 = none).
    pub fn pred_finish(&self, node: NodeId) -> u32 {
        self.pred_finish[node.index()]
    }

    /// Min start step over `node`'s scheduled successors
    /// (`u32::MAX` = none).
    pub fn succ_start(&self, node: NodeId) -> u32 {
        self.succ_start[node.index()]
    }
}

/// Everything frame computation needs to see.
pub(crate) struct FrameCtx<'a> {
    pub dfg: &'a Dfg,
    pub spec: &'a TimingSpec,
    pub frames: &'a TimeFrames,
    pub schedule: &'a Schedule,
    /// Chaining clock; `None` disables chaining.
    pub clock: Option<ClockPeriod>,
    /// Finish offsets (accumulated within-step delay) of scheduled
    /// chainable operations, `NodeId`-indexed.
    pub offsets: &'a [Delay],
    /// Incremental per-node bounds, kept in lock-step with `schedule`.
    pub bounds: &'a BoundsCache,
}

impl FrameCtx<'_> {
    /// Effective cycle count of `node` under the (optional) clock: the
    /// declared cycles, or `⌈delay/T⌉` for operations slower than the
    /// clock.
    pub(crate) fn effective_cycles(&self, node: NodeId) -> u8 {
        self.bounds.cycles[node.index()]
    }

    /// Whether `node` may share a step boundary with a dependent op.
    fn chainable(&self, node: NodeId) -> bool {
        self.bounds.chainable[node.index()]
    }

    /// Finish step of a scheduled node.
    fn finish_step(&self, node: NodeId) -> Option<CStep> {
        self.schedule
            .start(node)
            .map(|s| s.finish(self.effective_cycles(node)))
    }

    /// Whether placing `node` at `step` satisfies every *scheduled*
    /// predecessor and, under chaining, the within-step delay budget.
    ///
    /// Almost always a single compare against the cached predecessor
    /// bound: any step past the latest scheduled-predecessor finish is
    /// feasible with a zero chaining base, any step before it is not.
    /// Only the boundary step itself needs the per-predecessor walk
    /// (chaining may or may not admit it).
    pub(crate) fn dep_feasible(&self, node: NodeId, step: CStep) -> bool {
        let bound = self.bounds.pred_finish[node.index()];
        if step.get() > bound {
            return true;
        }
        if step.get() < bound {
            return false;
        }
        let node_chainable = self.chainable(node);
        let mut offset_base = Delay::ZERO;
        for &p in self.dfg.preds(node) {
            let Some(pf) = self.finish_step(p) else {
                continue;
            };
            if step > pf {
                continue;
            }
            if step == pf && node_chainable && self.chainable(p) {
                offset_base = offset_base.max(self.offsets[p.index()]);
                continue;
            }
            return false;
        }
        if node_chainable && offset_base > Delay::ZERO {
            let d = self.dfg.node(node).kind().delay(self.spec);
            let clock = self.clock.expect("chainable implies clock");
            if !clock.fits(offset_base, d) {
                return false;
            }
        }
        true
    }

    /// The finish offset `node` would have when placed at `step`.
    pub(crate) fn offset_after(&self, node: NodeId, step: CStep) -> Delay {
        if !self.chainable(node) {
            return Delay::ZERO;
        }
        let mut base = Delay::ZERO;
        for &p in self.dfg.preds(node) {
            if self.finish_step(p) == Some(step) && self.chainable(p) {
                base = base.max(self.offsets[p.index()]);
            }
        }
        base + self.dfg.node(node).kind().delay(self.spec)
    }
}

/// The dependency-feasible start-step range `[earliest, latest]` of
/// `node` under the current partial schedule (empty when
/// `earliest > latest`). This is the time extent of `PF − FF`, shared by
/// MFS and MFSA.
///
/// Derived in O(1) from the [`BoundsCache`] instead of scanning the
/// primary range: with `M` the latest scheduled-predecessor finish,
/// every step below `M` is dependency-infeasible, `M` itself is feasible
/// exactly when chaining admits the boundary, and everything above `M`
/// is feasible — so the earliest feasible step is the ASAP/ALAP clamp of
/// that threshold, bit-identical to the scan it replaces.
pub(crate) fn feasible_step_range(ctx: &FrameCtx<'_>, node: NodeId) -> (CStep, CStep) {
    let cycles = ctx.effective_cycles(node);
    let asap = ctx.frames.asap(node);
    let alap = ctx.frames.alap(node);

    // A pipeline stage (index > 0) must start EXACTLY one step after its
    // predecessor stage — "must be scheduled in consecutive control
    // steps" (§5.5.1). Once the predecessor stage is placed, the frame
    // collapses to that single step.
    if let hls_dfg::NodeKind::Stage { index, .. } = ctx.dfg.node(node).kind() {
        if index > 0 {
            let stage_pred = ctx
                .dfg
                .preds(node)
                .iter()
                .copied()
                .find(|&p| matches!(ctx.dfg.node(p).kind(), hls_dfg::NodeKind::Stage { .. }));
            if let Some(step) = stage_pred.and_then(|p| ctx.schedule.start(p)) {
                let fixed = step.offset(1);
                return if ctx.dep_feasible(node, fixed) {
                    (fixed, fixed)
                } else {
                    // Unsatisfiable fixed slot: return an empty range so
                    // the caller reschedules.
                    (fixed.offset(1), fixed)
                };
            }
        }
    }

    // Forbidden frame lower bound: the smallest dependency-feasible step,
    // clamped into [ASAP, ALAP + 1]. (Chaining can make feasibility
    // non-monotonic only at the single boundary step M.)
    let m = ctx.bounds.pred_finish[node.index()];
    let mut earliest = if m < asap.get() {
        asap
    } else if m > alap.get() {
        alap.offset(1)
    } else if ctx.dep_feasible(node, CStep::new(m)) {
        CStep::new(m)
    } else {
        CStep::new(m + 1)
    };

    // Scheduled successors cap the start step from above.
    let mut latest = alap;
    let s_min = ctx.bounds.succ_start[node.index()];
    if s_min != u32::MAX {
        // finish(node) ≤ start(succ) − 1 ⇒ start ≤ start(succ) − cycles.
        let bound = s_min.saturating_sub(cycles as u32);
        if bound < latest.get() {
            if bound == 0 {
                // No feasible step at all; empty range.
                latest = CStep::FIRST;
                earliest = latest.offset(1);
            } else {
                latest = CStep::new(bound);
            }
        }
    }
    (earliest, latest)
}

/// Computes the move frame of `node` on `grid` with `current_fu` visible
/// columns, as per-column masks of its free start steps.
///
/// The snapshot's `movable` list is filled only when `list_cells` is
/// set (trace events, frame recording, probes); the move loop itself
/// reads the size and the argmin straight off the masks.
pub(crate) fn compute_move_frame(
    ctx: &FrameCtx<'_>,
    node: NodeId,
    grid: &Grid,
    current_fu: u32,
    list_cells: bool,
) -> (FrameSnapshot, FreeStarts) {
    let class = ctx.dfg.node(node).kind().fu_class();
    let cycles = ctx.effective_cycles(node);
    let asap = ctx.frames.asap(node);
    let alap = ctx.frames.alap(node);
    let (earliest, latest) = feasible_step_range(ctx, node);
    // `feasible_step_range` admits the boundary step only when chaining
    // allows it, so every step of the range is dependency-feasible.
    debug_assert!(earliest > latest || ctx.dep_feasible(node, earliest));

    let starts = grid.free_starts(ctx.dfg, node, earliest, latest, cycles, current_fu);
    // Steps where every visible port of the bank is taken belong to the
    // access-conflict frame.
    let af_steps = if matches!(class, FuClass::Mem(_)) {
        starts.full_steps(latest)
    } else {
        Vec::new()
    };
    let movable = if list_cells {
        starts
            .positions()
            .map(|(step, fu)| Position { step, fu })
            .collect()
    } else {
        Vec::new()
    };

    let snap = FrameSnapshot {
        node,
        class,
        primary: (asap, alap),
        current_fu,
        max_fu: grid.max_fu(),
        earliest_feasible: earliest,
        latest_feasible: latest,
        af_steps,
        movable,
    };
    (snap, starts)
}

/// Computes the move frame of `node` from caller-owned state — the
/// public probing entry used by tests and microbenchmarks. `offsets` is
/// `NodeId`-indexed (use `Delay::ZERO` for unscheduled or non-chainable
/// nodes) and `bounds` must be consistent with `schedule` (every
/// assignment mirrored through [`BoundsCache::on_assign`] /
/// [`BoundsCache::on_unassign`]).
#[allow(clippy::too_many_arguments)]
pub fn probe_move_frame(
    dfg: &Dfg,
    spec: &TimingSpec,
    frames: &TimeFrames,
    schedule: &Schedule,
    clock: Option<ClockPeriod>,
    offsets: &[Delay],
    bounds: &BoundsCache,
    node: NodeId,
    grid: &Grid,
    current_fu: u32,
) -> FrameSnapshot {
    let ctx = FrameCtx {
        dfg,
        spec,
        frames,
        schedule,
        clock,
        offsets,
        bounds,
    };
    compute_move_frame(&ctx, node, grid, current_fu, true).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;
    use hls_schedule::{Slot, UnitId};

    fn ctx_fixture() -> (Dfg, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Add, &[p, y]).unwrap();
        (b.finish().unwrap(), TimingSpec::uniform_single_cycle())
    }

    #[test]
    fn forbidden_frame_excludes_predecessor_steps() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 4).unwrap();
        let mut sched = hls_schedule::Schedule::new(&g, 4);
        let mut bounds = BoundsCache::new(&g, &spec, None);
        // Schedule p late (step 2): q's frame must start at 3.
        sched.assign(
            p,
            Slot {
                step: CStep::new(2),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Add),
                    index: FuIndex::new(1),
                },
            },
        );
        bounds.on_assign(&g, p, CStep::new(2));
        let offsets = vec![Delay::ZERO; g.node_count()];
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: None,
            offsets: &offsets,
            bounds: &bounds,
        };
        let grid = Grid::new(FuClass::Op(OpKind::Add), 4, 2);
        let snap = compute_move_frame(&ctx, q, &grid, 2, true).0;
        assert_eq!(snap.earliest_feasible, CStep::new(3));
        assert!(snap.movable.iter().all(|pos| pos.step >= CStep::new(3)));
        assert!(!snap.is_empty());
    }

    #[test]
    fn scheduled_successor_caps_the_frame() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 4).unwrap();
        let mut sched = hls_schedule::Schedule::new(&g, 4);
        let mut bounds = BoundsCache::new(&g, &spec, None);
        sched.assign(
            q,
            Slot {
                step: CStep::new(3),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Add),
                    index: FuIndex::new(1),
                },
            },
        );
        bounds.on_assign(&g, q, CStep::new(3));
        let offsets = vec![Delay::ZERO; g.node_count()];
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: None,
            offsets: &offsets,
            bounds: &bounds,
        };
        let grid = Grid::new(FuClass::Op(OpKind::Add), 4, 2);
        let snap = compute_move_frame(&ctx, p, &grid, 2, true).0;
        assert_eq!(snap.latest_feasible, CStep::new(2));
        assert!(snap.movable.iter().all(|pos| pos.step <= CStep::new(2)));
    }

    #[test]
    fn occupied_columns_shrink_the_move_frame() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 2).unwrap();
        let sched = hls_schedule::Schedule::new(&g, 2);
        let bounds = BoundsCache::new(&g, &spec, None);
        let offsets = vec![Delay::ZERO; g.node_count()];
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: None,
            offsets: &offsets,
            bounds: &bounds,
        };
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 2, 1);
        grid.occupy(p, CStep::new(1), FuIndex::new(1), 1);
        // q (ASAP 2, ALAP 2) still fits at step 2.
        let snap = compute_move_frame(&ctx, q, &grid, 1, true).0;
        assert_eq!(snap.movable.len(), 1);
        assert_eq!(snap.movable[0].step, CStep::new(2));
        // Another op occupying step 2 empties the frame.
        grid.vacate(p);
        grid.occupy(p, CStep::new(2), FuIndex::new(1), 1);
        let snap = compute_move_frame(&ctx, q, &grid, 1, true).0;
        assert!(snap.is_empty());
    }

    #[test]
    fn chaining_admits_the_boundary_step() {
        let (g, _) = ctx_fixture();
        let spec = TimingSpec::with_delays(); // add = 48
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let clock = ClockPeriod::new(100);
        let frames = hls_schedule::chained_frames(&g, &spec, clock, 2)
            .unwrap()
            .into_frames();
        let mut sched = hls_schedule::Schedule::new(&g, 2);
        let mut bounds = BoundsCache::new(&g, &spec, Some(clock));
        sched.assign(
            p,
            Slot {
                step: CStep::new(1),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Add),
                    index: FuIndex::new(1),
                },
            },
        );
        bounds.on_assign(&g, p, CStep::new(1));
        let mut offsets = vec![Delay::ZERO; g.node_count()];
        offsets[p.index()] = Delay::new(48);
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: Some(clock),
            offsets: &offsets,
            bounds: &bounds,
        };
        let grid = Grid::new(FuClass::Op(OpKind::Add), 2, 2);
        let snap = compute_move_frame(&ctx, q, &grid, 2, true).0;
        // q may share step 1 (48 + 48 ≤ 100).
        assert_eq!(snap.earliest_feasible, CStep::new(1));
        assert_eq!(ctx.offset_after(q, CStep::new(1)), Delay::new(96));
        // With a tighter clock the boundary step is rejected.
        let tight = ClockPeriod::new(90);
        let bounds_tight = BoundsCache::new(&g, &spec, Some(tight));
        let mut bounds_tight = bounds_tight;
        bounds_tight.on_assign(&g, p, CStep::new(1));
        let ctx = FrameCtx {
            clock: Some(tight),
            bounds: &bounds_tight,
            ..ctx
        };
        assert!(!ctx.dep_feasible(q, CStep::new(1)));
        assert!(ctx.dep_feasible(q, CStep::new(2)));
    }
}
