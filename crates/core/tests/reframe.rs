//! Vacate/re-frame determinism: removing an operation from a
//! [`Placement`] (schedule slot, bounds cache, offset table) and its
//! occupancy grid and re-placing it identically must reproduce the
//! *exact* `FrameSnapshot` a cold rebuild computes — including the
//! chaining boundary step and the memory `af_steps`. This is the
//! contract that lets local rescheduling mutate state in place instead
//! of rebuilding.

use hls_celllib::{ClockPeriod, Delay, OpKind, TimingSpec};
use hls_dfg::{Dfg, DfgBuilder, NodeId, SignalSource};
use hls_schedule::{CStep, FuIndex, Grid, Slot, TimeFrames, UnitId};
use moveframe::{FrameSnapshot, Placement};

/// A placement plus the occupancy grid of the one class under test.
struct Fixture<'a> {
    placement: Placement<'a>,
    grid: Grid,
}

impl<'a> Fixture<'a> {
    fn new(
        dfg: &'a Dfg,
        spec: &'a TimingSpec,
        clock: Option<ClockPeriod>,
        frames: &TimeFrames,
        grid: Grid,
    ) -> Self {
        Fixture {
            placement: Placement::new(dfg, spec, clock, frames.clone()),
            grid,
        }
    }

    fn place(&mut self, node: NodeId, step: u32, fu: u32) {
        let (step, fu) = (CStep::new(step), FuIndex::new(fu));
        let class = self.placement.dfg().node(node).kind().fu_class();
        let unit = UnitId::Fu { class, index: fu };
        self.placement.assign(node, Slot { step, unit });
        let cycles = self.placement.cycles(node);
        self.grid
            .occupy(self.placement.dfg(), node, step, fu, cycles);
    }

    fn vacate(&mut self, node: NodeId) {
        self.placement.unassign(node);
        self.grid.vacate(node);
    }

    fn probe(&self, node: NodeId, columns: u32) -> FrameSnapshot {
        self.placement.frame(node, &self.grid, columns, true).0
    }
}

fn node_of(dfg: &Dfg, sig: hls_dfg::SignalId) -> NodeId {
    match dfg.signal(sig).source() {
        SignalSource::Node(n) => n,
        _ => unreachable!("op outputs come from nodes"),
    }
}

#[test]
fn reframe_after_vacate_matches_cold_recompute_with_chaining() {
    // a = x + y ; c = a + y ; d = c + y, under a 100ns clock with 48ns
    // adds: a and c chain into step 1, so d's frame opens at the chained
    // boundary (step 1 is infeasible — 3 × 48 > 100 — but step 2 is not
    // gated by a full extra step).
    let mut b = DfgBuilder::new("g");
    let x = b.input("x");
    let y = b.input("y");
    let a = b.op("a", OpKind::Add, &[x, y]).unwrap();
    let c = b.op("c", OpKind::Add, &[a, y]).unwrap();
    let d = b.op("d", OpKind::Add, &[c, y]).unwrap();
    let dfg = b.finish().unwrap();
    let (a, c, d) = (node_of(&dfg, a), node_of(&dfg, c), node_of(&dfg, d));
    let spec = TimingSpec::with_delays();
    let clock = Some(ClockPeriod::new(100));
    let cs = 3;
    let frames = TimeFrames::for_clock(&dfg, &spec, clock, cs).unwrap();
    let fresh = || Fixture::new(&dfg, &spec, clock, &frames, Grid::new(cs, 2));

    // Warm state: place a and c, snapshot d's frame.
    let mut warm = fresh();
    warm.place(a, 1, 1);
    warm.place(c, 1, 2);
    assert_eq!(warm.placement.offset(c), Delay::new(96), "c chains after a");
    let before = warm.probe(d, 2);
    // The chained boundary must actually be in play for this test to
    // mean anything: step 1 is excluded only by the clock budget.
    assert_eq!(before.earliest_feasible, CStep::new(2));

    // Vacate c, then re-place it identically: the incremental state must
    // round-trip.
    warm.vacate(c);
    let widened = warm.probe(d, 2);
    assert_eq!(
        widened.earliest_feasible,
        CStep::new(2),
        "with only a placed, d still sits above a's successor chain"
    );
    warm.place(c, 1, 2);
    let after = warm.probe(d, 2);
    assert_eq!(before, after, "vacate + identical re-place must round-trip");

    // Cold rebuild from scratch must agree bit-for-bit.
    let mut cold = fresh();
    cold.place(a, 1, 1);
    cold.place(c, 1, 2);
    assert_eq!(before, cold.probe(d, 2), "cold recompute must match");
}

#[test]
fn vacated_chain_source_does_not_leave_a_stale_feasible_range() {
    // Regression: a = x + y ; c = a + y ; d = c + y under a 100ns clock
    // with 48ns adds, with a and c chained into step 2 (one step past
    // their ASAP, so the static frame cannot mask the boundary check).
    // c's finish offset is 96 and d's frame opens at step 3
    // (96 + 48 > 100). After vacating a, c's true chain offset drops to
    // 48, so d fits into step 2 (48 + 48 ≤ 100). The vacate used to
    // repair only the pred/succ step bounds and leave c's accumulated
    // offset at 96, making a probe of d report `earliest_feasible = 3`
    // — one step stale — until c itself was touched.
    let mut b = DfgBuilder::new("g");
    let x = b.input("x");
    let y = b.input("y");
    let a = b.op("a", OpKind::Add, &[x, y]).unwrap();
    let c = b.op("c", OpKind::Add, &[a, y]).unwrap();
    let d = b.op("d", OpKind::Add, &[c, y]).unwrap();
    let dfg = b.finish().unwrap();
    let (a, c, d) = (node_of(&dfg, a), node_of(&dfg, c), node_of(&dfg, d));
    let spec = TimingSpec::with_delays();
    let clock = Some(ClockPeriod::new(100));
    let cs = 3;
    let frames = TimeFrames::for_clock(&dfg, &spec, clock, cs).unwrap();
    let fresh = || Fixture::new(&dfg, &spec, clock, &frames, Grid::new(cs, 2));

    let mut st = fresh();
    st.place(a, 2, 1);
    st.place(c, 2, 2);
    assert_eq!(st.probe(d, 2).earliest_feasible, CStep::new(3));

    st.vacate(a);
    assert_eq!(
        st.placement.offset(c),
        Delay::new(48),
        "vacating a must rebase c's chained offset"
    );
    assert_eq!(
        st.probe(d, 2).earliest_feasible,
        CStep::new(2),
        "with a gone, d chains after c inside step 2"
    );

    // A cold rebuild of the post-vacate state agrees bit-for-bit.
    let mut cold = fresh();
    cold.place(c, 2, 2);
    assert_eq!(
        st.probe(d, 2),
        cold.probe(d, 2),
        "cold recompute must match"
    );
}

#[test]
fn reframe_after_vacate_matches_cold_recompute_with_af_steps() {
    // One single-port bank, three loads: with two loads saturating steps
    // 1 and 2, the third load's frame carves both steps into `af_steps`.
    let mut b = DfgBuilder::new("mem");
    let i = b.input("i");
    let bank = b.declare_bank("ram", 1);
    let arr = b.declare_array("buf", 16, bank);
    let l0 = b.load("l0", arr, i).unwrap();
    let l1 = b.load("l1", arr, i).unwrap();
    let l2 = b.load("l2", arr, i).unwrap();
    let dfg = b.finish().unwrap();
    let (l0, l1, l2) = (node_of(&dfg, l0), node_of(&dfg, l1), node_of(&dfg, l2));
    let spec = TimingSpec::uniform_single_cycle();
    let cs = 4;
    let frames = TimeFrames::compute(&dfg, &spec, cs).unwrap();
    let fresh = || Fixture::new(&dfg, &spec, None, &frames, Grid::new(cs, 1));

    let mut warm = fresh();
    warm.place(l0, 1, 1);
    warm.place(l1, 2, 1);
    let before = warm.probe(l2, 1);
    assert_eq!(
        before.af_steps,
        vec![CStep::new(1), CStep::new(2)],
        "saturated port steps belong to the access-conflict frame"
    );

    warm.vacate(l1);
    let widened = warm.probe(l2, 1);
    assert_eq!(
        widened.af_steps,
        vec![CStep::new(1)],
        "vacating frees step 2 for the probe"
    );
    warm.place(l1, 2, 1);
    let after = warm.probe(l2, 1);
    assert_eq!(before, after, "vacate + identical re-place must round-trip");

    let mut cold = fresh();
    cold.place(l0, 1, 1);
    cold.place(l1, 2, 1);
    assert_eq!(before, cold.probe(l2, 1), "cold recompute must match");
}

#[test]
fn region_vacate_and_replace_matches_cold_recompute_under_banks() {
    // Vacate a whole region of bank accesses at once, then re-place
    // it in topo order at *different* (earlier) slots. The
    // incrementally-maintained state after the re-place must be
    // bit-identical to a cold rebuild of the new placement — af_steps
    // included — independently of hls-partition's stitcher.
    let mut b = DfgBuilder::new("mem");
    let i = b.input("i");
    let bank = b.declare_bank("ram", 1);
    let arr = b.declare_array("buf", 16, bank);
    let l0 = b.load("l0", arr, i).unwrap();
    let l1 = b.load("l1", arr, i).unwrap();
    let l2 = b.load("l2", arr, i).unwrap();
    let l3 = b.load("l3", arr, i).unwrap();
    let dfg = b.finish().unwrap();
    let (l0, l1, l2, l3) = (
        node_of(&dfg, l0),
        node_of(&dfg, l1),
        node_of(&dfg, l2),
        node_of(&dfg, l3),
    );
    let spec = TimingSpec::uniform_single_cycle();
    let cs = 5;
    let frames = TimeFrames::compute(&dfg, &spec, cs).unwrap();
    let fresh = || Fixture::new(&dfg, &spec, None, &frames, Grid::new(cs, 1));

    // l3 stays unscheduled and is the probe target throughout.
    let mut warm = fresh();
    warm.place(l0, 1, 1);
    warm.place(l1, 3, 1);
    warm.place(l2, 4, 1);
    assert_eq!(
        warm.probe(l3, 1).af_steps,
        vec![CStep::new(1), CStep::new(3), CStep::new(4)],
        "every occupied port step is access-conflict for l3"
    );

    // Whole-region vacate: both nodes leave before anything returns.
    warm.vacate(l2);
    warm.vacate(l1);
    assert_eq!(
        warm.probe(l3, 1).af_steps,
        vec![CStep::new(1)],
        "a vacated region frees all its port slots at once"
    );

    // Re-place compressed (the Earlier sweep): l1 and l2 move up a step.
    warm.place(l1, 2, 1);
    warm.place(l2, 3, 1);
    let after = warm.probe(l3, 1);
    assert_eq!(
        after.af_steps,
        vec![CStep::new(1), CStep::new(2), CStep::new(3)],
        "re-placed region claims its new port slots"
    );

    // Cold rebuild of the compressed placement agrees bit-for-bit.
    let mut cold = fresh();
    cold.place(l0, 1, 1);
    cold.place(l1, 2, 1);
    cold.place(l2, 3, 1);
    assert_eq!(after, cold.probe(l3, 1), "cold recompute must match");
}

#[test]
fn store_hazard_tokens_survive_region_reframe() {
    // load → store → load on one array: the hazard tokens serialise the
    // accesses, so after vacating the store+second-load region the first
    // load alone bounds the region, and an identical re-place restores
    // the exact pre-vacate frame for a trailing probe.
    let mut b = DfgBuilder::new("mem");
    let i = b.input("i");
    let bank = b.declare_bank("ram", 1);
    let arr = b.declare_array("buf", 16, bank);
    let l0 = b.load("l0", arr, i).unwrap();
    let s0 = b.store("s0", arr, i, l0).unwrap();
    let l1 = b.load("l1", arr, i).unwrap();
    let l2 = b.load("l2", arr, i).unwrap();
    let dfg = b.finish().unwrap();
    let (l0, s0, l1, l2) = (
        node_of(&dfg, l0),
        node_of(&dfg, s0),
        node_of(&dfg, l1),
        node_of(&dfg, l2),
    );
    let spec = TimingSpec::uniform_single_cycle();
    let cs = 5;
    let frames = TimeFrames::compute(&dfg, &spec, cs).unwrap();
    let fresh = || Fixture::new(&dfg, &spec, None, &frames, Grid::new(cs, 1));

    let mut warm = fresh();
    warm.place(l0, 1, 1);
    warm.place(s0, 2, 1);
    warm.place(l1, 3, 1);
    let before = warm.probe(l2, 1);
    assert_eq!(
        before.earliest_feasible,
        CStep::new(3),
        "the WAR token chains l2 behind the store"
    );
    assert_eq!(
        before.af_steps,
        vec![CStep::new(3)],
        "only the dependency-feasible saturated step is access-conflict"
    );

    warm.vacate(l1);
    warm.vacate(s0);
    let widened = warm.probe(l2, 1);
    assert_eq!(
        widened.earliest_feasible,
        CStep::new(3),
        "the static frame still floors l2 at its token-chain ASAP"
    );
    assert!(
        widened.af_steps.is_empty(),
        "the vacated region frees every in-range port slot"
    );

    warm.place(s0, 2, 1);
    warm.place(l1, 3, 1);
    let after = warm.probe(l2, 1);
    assert_eq!(before, after, "vacate + identical re-place must round-trip");

    let mut cold = fresh();
    cold.place(l0, 1, 1);
    cold.place(s0, 2, 1);
    cold.place(l1, 3, 1);
    assert_eq!(before, cold.probe(l2, 1), "cold recompute must match");
}
