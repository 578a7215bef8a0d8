//! Frame computation: `MF = PF − (RF ∪ FF)` (paper §3.2, step 4), and
//! the dense [`Placement`] state every move-frame loop works on.

use hls_celllib::{effective_cycles, ClockPeriod, Delay, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{CStep, FreeStarts, FuIndex, Grid, Schedule, Slot, TimeFrames};

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
/// step of every operation made the feasible-range query the
/// scheduler's hottest loop; this cache updates the two numbers on each
/// occupy/vacate of a neighbour instead:
///
/// * [`BoundsCache::on_assign`] — O(degree) max/min merges;
/// * the vacate repair in [`Placement::unassign`] — O(degree ×
///   neighbour degree) recomputation, paid only on the rare
///   local-rescheduling path.
///
/// Effective cycle counts ([`hls_celllib::effective_cycles`]) are
/// precomputed per node as well, since they are pure functions of the
/// graph and clock. A [`Placement`] owns one cache and keeps it in
/// lock-step with its schedule; standing alone, the cache is the cold
/// reference the contract tests rebuild.
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
            let delay = kind.delay(spec);
            let eff = effective_cycles(kind.cycles(spec), delay, clock);
            cycles.push(eff);
            chainable.push(clock.is_some() && eff == 1 && delay.as_u32() > 0);
            delays.push(delay);
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

/// The dense state of one move-frame placement: the [`Schedule`], its
/// [`BoundsCache`] and the chaining finish offsets, plus the
/// [`TimeFrames`] they are framed against.
///
/// MFS, MFSA and the exhaustive MFSA oracle all place and vacate
/// operations through [`Placement::assign`] and
/// [`Placement::unassign`], which keep the three structures in
/// lock-step — the bounds merge or repair, and the offset table
/// follows the `offset_after` rule on assign and the transitive repair
/// on vacate; a restarted MFS pass empties all three at once. Frame
/// queries ([`Placement::frame`], [`Placement::feasible_range`])
/// therefore always see a consistent state. Occupancy grids stay with the caller:
/// MFS widens them per class, MFSA binds ALU instances instead.
#[derive(Debug, Clone)]
pub struct Placement<'a> {
    dfg: &'a Dfg,
    spec: &'a TimingSpec,
    /// Chaining clock; `None` disables chaining.
    clock: Option<ClockPeriod>,
    frames: TimeFrames,
    schedule: Schedule,
    bounds: BoundsCache,
    /// Finish offsets (accumulated within-step delay) of scheduled
    /// chainable operations, `NodeId`-indexed; zero everywhere else.
    offsets: Vec<Delay>,
}

impl<'a> Placement<'a> {
    /// An empty placement over `frames.control_steps()` steps.
    pub fn new(
        dfg: &'a Dfg,
        spec: &'a TimingSpec,
        clock: Option<ClockPeriod>,
        frames: TimeFrames,
    ) -> Self {
        Placement {
            dfg,
            spec,
            clock,
            schedule: Schedule::new(dfg, frames.control_steps()),
            bounds: BoundsCache::new(dfg, spec, clock),
            offsets: vec![Delay::ZERO; dfg.node_count()],
            frames,
        }
    }

    /// Vacates every operation (a restarted pass), keeping the frames.
    pub(crate) fn clear(&mut self) {
        for node in self.dfg.node_ids() {
            self.schedule.unassign(node);
        }
        self.bounds.pred_finish.fill(0);
        self.bounds.succ_start.fill(u32::MAX);
        self.offsets.fill(Delay::ZERO);
    }

    /// The graph being placed.
    pub fn dfg(&self) -> &'a Dfg {
        self.dfg
    }

    /// The time frames placements are framed against.
    pub fn frames(&self) -> &TimeFrames {
        &self.frames
    }

    /// The current schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The bounds cache, consistent with [`Placement::schedule`].
    pub fn bounds(&self) -> &BoundsCache {
        &self.bounds
    }

    /// The chained finish offset of `node` (zero unless it is a placed
    /// chainable operation).
    pub fn offset(&self, node: NodeId) -> Delay {
        self.offsets[node.index()]
    }

    /// Effective cycle count of `node` under the placement's clock.
    pub fn cycles(&self, node: NodeId) -> u8 {
        self.bounds.cycles[node.index()]
    }

    /// Consumes the placement, returning its schedule and frames.
    pub fn into_parts(self) -> (Schedule, TimeFrames) {
        (self.schedule, self.frames)
    }

    /// Places the unplaced `node` at `slot`. Its neighbours' bounds
    /// tighten, and its chained finish offset is derived from its
    /// same-step predecessors.
    pub fn assign(&mut self, node: NodeId, slot: Slot) {
        debug_assert!(self.schedule.slot(node).is_none(), "{node:?} is placed");
        let offset = self.offset_after(node, slot.step);
        self.schedule.assign(node, slot);
        self.bounds.on_assign(self.dfg, node, slot.step);
        self.offsets[node.index()] = offset;
    }

    /// Vacates `node`, returning its old slot. Its neighbours' bounds are
    /// recomputed from their remaining placed neighbours, its own offset
    /// resets, and the chained finish offsets of its placed dependents
    /// are repaired.
    ///
    /// The offset repair closes a staleness edge: a dependent that
    /// chained *after* the vacated node in the same step keeps carrying
    /// the vacated node's within-step delay in its accumulated offset,
    /// so a later frame of one of *its* successors sees an inflated
    /// chaining base and can report a feasible range that opens one
    /// step too late. Placed chainable transitive successors are
    /// therefore recomputed here, in dependency (node index) order,
    /// from their remaining same-step predecessors.
    pub fn unassign(&mut self, node: NodeId) -> Option<Slot> {
        let slot = self.schedule.unassign(node)?;
        let Placement {
            dfg,
            schedule,
            bounds,
            offsets,
            ..
        } = self;
        for &s in dfg.succs(node) {
            bounds.pred_finish[s.index()] = dfg
                .preds(s)
                .iter()
                .filter_map(|&p| {
                    schedule
                        .start(p)
                        .map(|st| st.finish(bounds.cycles[p.index()]))
                })
                .map(CStep::get)
                .max()
                .unwrap_or(0);
        }
        for &p in dfg.preds(node) {
            bounds.succ_start[p.index()] = dfg
                .succs(p)
                .iter()
                .filter_map(|&q| schedule.start(q))
                .map(CStep::get)
                .min()
                .unwrap_or(u32::MAX);
        }

        offsets[node.index()] = Delay::ZERO;
        // Offsets only accumulate through placed chainable nodes, so only
        // those can go stale.
        let mut affected: Vec<NodeId> = Vec::new();
        let mut seen = vec![false; dfg.node_count()];
        let mut stack: Vec<NodeId> = dfg.succs(node).to_vec();
        while let Some(q) = stack.pop() {
            if seen[q.index()] || !bounds.chainable[q.index()] || schedule.start(q).is_none() {
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
            let start = schedule.start(q).expect("repair set is placed");
            let mut base = Delay::ZERO;
            for &p in dfg.preds(q) {
                if !bounds.chainable[p.index()] {
                    continue;
                }
                if let Some(ps) = schedule.start(p) {
                    if ps.finish(bounds.cycles[p.index()]) == start {
                        base = base.max(offsets[p.index()]);
                    }
                }
            }
            offsets[q.index()] = base + bounds.delays[q.index()];
        }
        Some(slot)
    }

    /// Whether `node` may share a step boundary with a dependent op.
    fn chainable(&self, node: NodeId) -> bool {
        self.bounds.chainable[node.index()]
    }

    /// Finish step of a scheduled node.
    fn finish_step(&self, node: NodeId) -> Option<CStep> {
        self.schedule
            .start(node)
            .map(|s| s.finish(self.cycles(node)))
    }

    /// Whether placing `node` at `step` satisfies every *scheduled*
    /// predecessor and, under chaining, the within-step delay budget.
    ///
    /// Almost always a single compare against the cached predecessor
    /// bound: any step past the latest scheduled-predecessor finish is
    /// feasible with a zero chaining base, any step before it is not.
    /// Only the boundary step itself needs the per-predecessor walk
    /// (chaining may or may not admit it).
    fn dep_feasible(&self, node: NodeId, step: CStep) -> bool {
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
    fn offset_after(&self, node: NodeId, step: CStep) -> Delay {
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

    /// The dependency-feasible start-step range `[earliest, latest]` of
    /// `node` under the current partial schedule (empty when
    /// `earliest > latest`). This is the time extent of `PF − FF`, shared
    /// by MFS and MFSA; every step of the range is dependency-feasible.
    ///
    /// Derived in O(1) from the [`BoundsCache`] instead of scanning the
    /// primary range: with `M` the latest scheduled-predecessor finish,
    /// every step below `M` is dependency-infeasible, `M` itself is
    /// feasible exactly when chaining admits the boundary, and everything
    /// above `M` is feasible — so the earliest feasible step is the
    /// ASAP/ALAP clamp of that threshold.
    pub fn feasible_range(&self, node: NodeId) -> (CStep, CStep) {
        let cycles = self.cycles(node);
        let asap = self.frames.asap(node);
        let alap = self.frames.alap(node);

        // A pipeline stage (index > 0) must start EXACTLY one step after
        // its predecessor stage — "must be scheduled in consecutive
        // control steps" (§5.5.1). Once the predecessor stage is placed,
        // the frame collapses to that single step.
        if let hls_dfg::NodeKind::Stage { index, .. } = self.dfg.node(node).kind() {
            if index > 0 {
                let stage_pred =
                    self.dfg.preds(node).iter().copied().find(|&p| {
                        matches!(self.dfg.node(p).kind(), hls_dfg::NodeKind::Stage { .. })
                    });
                if let Some(step) = stage_pred.and_then(|p| self.schedule.start(p)) {
                    let fixed = step.offset(1);
                    return if self.dep_feasible(node, fixed) {
                        (fixed, fixed)
                    } else {
                        // Unsatisfiable fixed slot: return an empty range
                        // so the caller reschedules.
                        (fixed.offset(1), fixed)
                    };
                }
            }
        }

        // Forbidden frame lower bound: the smallest dependency-feasible
        // step, clamped into [ASAP, ALAP + 1]. (Chaining can make
        // feasibility non-monotonic only at the single boundary step M.)
        let m = self.bounds.pred_finish[node.index()];
        let mut earliest = if m < asap.get() {
            asap
        } else if m > alap.get() {
            alap.offset(1)
        } else if self.dep_feasible(node, CStep::new(m)) {
            CStep::new(m)
        } else {
            CStep::new(m + 1)
        };

        // Scheduled successors cap the start step from above.
        let mut latest = alap;
        let s_min = self.bounds.succ_start[node.index()];
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

    /// The steps of [`Placement::feasible_range`] whose span also ends
    /// within the frames' horizon, in ascending order — MFSA's candidate
    /// steps.
    pub(crate) fn feasible_steps(&self, node: NodeId) -> impl Iterator<Item = CStep> {
        let (earliest, latest) = self.feasible_range(node);
        let cycles = self.cycles(node);
        let cs = self.frames.control_steps();
        (earliest.get()..=latest.get())
            .map(CStep::new)
            .filter(move |s| s.finish(cycles).get() <= cs)
    }

    /// The move frame of `node` on `grid` with `current_fu` visible
    /// columns, as per-column masks of its free start steps.
    ///
    /// The snapshot's `movable` list is filled only when `list_cells` is
    /// set (trace events, frame recording, probes); the move loop itself
    /// reads the size and the argmin straight off the masks.
    pub fn frame(
        &self,
        node: NodeId,
        grid: &Grid,
        current_fu: u32,
        list_cells: bool,
    ) -> (FrameSnapshot, FreeStarts) {
        let class = self.dfg.node(node).kind().fu_class();
        let (earliest, latest) = self.feasible_range(node);
        debug_assert!(earliest > latest || self.dep_feasible(node, earliest));

        let starts = grid.free_starts(
            self.dfg,
            node,
            earliest,
            latest,
            self.cycles(node),
            current_fu,
        );
        // Steps where every visible port of the bank is taken belong to
        // the access-conflict frame.
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
            primary: (self.frames.asap(node), self.frames.alap(node)),
            current_fu,
            max_fu: grid.max_fu(),
            earliest_feasible: earliest,
            latest_feasible: latest,
            af_steps,
            movable,
        };
        (snap, starts)
    }

    /// The size and the earliest cell of `node`'s move frame on `grid`
    /// with `current_fu` visible columns — the [`FreeStarts::count`] and
    /// [`FreeStarts::earliest`] of [`Placement::frame`] — counted off
    /// the grid's per-row occupancy ([`Grid::free_cells`]) in
    /// `O(range)` instead of built as masks.
    ///
    /// A node with exclusions counts too: the grid tallies the cells it
    /// may share by their occupants' path classes.
    ///
    /// `None` when counting does not size the frame: a multi-cycle node
    /// (its span covers several rows), a memory access (its
    /// access-conflict steps come off the masks), or occupancy past the
    /// visible columns (a capped width). The caller then builds the
    /// frame.
    pub fn frame_size(
        &self,
        node: NodeId,
        grid: &Grid,
        current_fu: u32,
    ) -> Option<(usize, Option<Position>)> {
        if self.cycles(node) != 1
            || matches!(self.dfg.node(node).kind().fu_class(), FuClass::Mem(_))
        {
            return None;
        }
        let (earliest, latest) = self.feasible_range(node);
        let (size, first) = grid.free_cells(self.dfg, node, earliest, latest, current_fu)?;
        Some((size, first.map(|(step, fu)| Position { step, fu })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;
    use hls_schedule::UnitId;

    fn ctx_fixture() -> (Dfg, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Add, &[p, y]).unwrap();
        (b.finish().unwrap(), TimingSpec::uniform_single_cycle())
    }

    fn add_slot(step: u32) -> Slot {
        Slot {
            step: CStep::new(step),
            unit: UnitId::Fu {
                class: FuClass::Op(OpKind::Add),
                index: FuIndex::new(1),
            },
        }
    }

    #[test]
    fn forbidden_frame_excludes_predecessor_steps() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 4).unwrap();
        let mut placement = Placement::new(&g, &spec, None, frames);
        // Schedule p late (step 2): q's frame must start at 3.
        placement.assign(p, add_slot(2));
        let grid = Grid::new(4, 2);
        let snap = placement.frame(q, &grid, 2, true).0;
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
        let mut placement = Placement::new(&g, &spec, None, frames);
        placement.assign(q, add_slot(3));
        let grid = Grid::new(4, 2);
        let snap = placement.frame(p, &grid, 2, true).0;
        assert_eq!(snap.latest_feasible, CStep::new(2));
        assert!(snap.movable.iter().all(|pos| pos.step <= CStep::new(2)));
    }

    #[test]
    fn occupied_columns_shrink_the_move_frame() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 2).unwrap();
        let placement = Placement::new(&g, &spec, None, frames);
        let mut grid = Grid::new(2, 1);
        grid.occupy(&g, p, CStep::new(1), FuIndex::new(1), 1);
        // q (ASAP 2, ALAP 2) still fits at step 2.
        let snap = placement.frame(q, &grid, 1, true).0;
        assert_eq!(snap.movable.len(), 1);
        assert_eq!(snap.movable[0].step, CStep::new(2));
        // Another op occupying step 2 empties the frame.
        grid.vacate(&g, p);
        grid.occupy(&g, p, CStep::new(2), FuIndex::new(1), 1);
        let snap = placement.frame(q, &grid, 1, true).0;
        assert!(snap.is_empty());
    }

    #[test]
    fn chaining_admits_the_boundary_step() {
        let (g, _) = ctx_fixture();
        let spec = TimingSpec::with_delays(); // add = 48
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let clock = ClockPeriod::new(100);
        let frames = TimeFrames::for_clock(&g, &spec, Some(clock), 2).unwrap();
        let mut placement = Placement::new(&g, &spec, Some(clock), frames.clone());
        placement.assign(p, add_slot(1));
        assert_eq!(placement.offset(p), Delay::new(48));
        let grid = Grid::new(2, 2);
        let snap = placement.frame(q, &grid, 2, true).0;
        // q may share step 1 (48 + 48 ≤ 100).
        assert_eq!(snap.earliest_feasible, CStep::new(1));
        assert_eq!(placement.offset_after(q, CStep::new(1)), Delay::new(96));
        placement.assign(q, add_slot(1));
        assert_eq!(placement.offset(q), Delay::new(96));
        assert_ne!(placement.bounds().pred_finish(q), 0);
        assert_ne!(placement.bounds().succ_start(p), u32::MAX);
        // Clearing restores the empty state over the same frames.
        placement.clear();
        assert_eq!(placement.schedule().assigned_count(), 0);
        assert_eq!(placement.offset(q), Delay::ZERO);
        assert_eq!(placement.bounds().pred_finish(q), 0);
        assert_eq!(placement.bounds().succ_start(p), u32::MAX);
        assert_eq!(placement.frames(), &frames);
        // With a tighter clock the boundary step is rejected.
        let tight = ClockPeriod::new(90);
        let mut placement = Placement::new(&g, &spec, Some(tight), frames);
        placement.assign(p, add_slot(1));
        assert!(!placement.dep_feasible(q, CStep::new(1)));
        assert!(placement.dep_feasible(q, CStep::new(2)));
    }
}
