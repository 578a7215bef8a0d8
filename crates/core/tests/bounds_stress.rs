//! Randomized stress: a [`Placement`]'s incrementally-maintained
//! `BoundsCache` and chaining offset table must agree with a cold
//! rebuild after any interleaving of frame-driven placements and
//! vacates, for every node, under plain, multicycle and chained specs.

use hls_celllib::{ClockPeriod, Delay, OpKind, TimingSpec};
use hls_dfg::{Dfg, DfgBuilder, NodeId, SignalId, SignalSource};
use hls_schedule::{CStep, FuIndex, Grid, Schedule, Slot, TimeFrames, UnitId};
use moveframe::{BoundsCache, Placement};
use proptest::prelude::*;

/// A cold cache for the current schedule: replay every live assignment
/// onto a fresh cache (the monotone merges then yield the true bounds).
fn cold(dfg: &Dfg, spec: &TimingSpec, clock: Option<ClockPeriod>, sched: &Schedule) -> BoundsCache {
    let mut b = BoundsCache::new(dfg, spec, clock);
    for id in dfg.node_ids() {
        if let Some(step) = sched.start(id) {
            b.on_assign(dfg, id, step);
        }
    }
    b
}

/// The true finish offsets of the current schedule, recomputed from
/// scratch in dependency (index) order: a chainable scheduled node
/// accumulates the largest offset among same-step chainable
/// predecessors plus its own delay.
fn cold_offsets(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    bounds: &BoundsCache,
    sched: &Schedule,
) -> Vec<Delay> {
    let chainable = |n: NodeId| {
        clock.is_some() && bounds.cycles(n) == 1 && dfg.node(n).kind().delay(spec).as_u32() > 0
    };
    let mut offsets = vec![Delay::ZERO; dfg.node_count()];
    for q in dfg.node_ids() {
        let Some(start) = sched.start(q) else {
            continue;
        };
        if !chainable(q) {
            continue;
        }
        let mut base = Delay::ZERO;
        for &p in dfg.preds(q) {
            if !chainable(p) {
                continue;
            }
            if let Some(ps) = sched.start(p) {
                if ps.finish(bounds.cycles(p)) == start {
                    base = base.max(offsets[p.index()]);
                }
            }
        }
        offsets[q.index()] = base + dfg.node(q).kind().delay(spec);
    }
    offsets
}

fn assert_state_matches(
    dfg: &Dfg,
    placement: &Placement<'_>,
    cold: &BoundsCache,
    cold_offsets: &[Delay],
    trail: &str,
) {
    let warm = placement.bounds();
    for id in dfg.node_ids() {
        assert_eq!(
            warm.pred_finish(id),
            cold.pred_finish(id),
            "stale pred_finish for {} after {trail}",
            dfg.node(id).name()
        );
        assert_eq!(
            warm.succ_start(id),
            cold.succ_start(id),
            "stale succ_start for {} after {trail}",
            dfg.node(id).name()
        );
        assert_eq!(
            placement.offset(id),
            cold_offsets[id.index()],
            "stale chaining offset for {} after {trail}",
            dfg.node(id).name()
        );
    }
}

/// A small layered DAG whose shape is driven by `seed`.
fn random_dag(seed: u64, layers: usize, width: usize) -> Dfg {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |m: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as usize
    };
    let mut b = DfgBuilder::new("stress");
    let mut values: Vec<SignalId> = (0..3).map(|i| b.input(&format!("in{i}"))).collect();
    for l in 0..layers {
        let mut layer = Vec::new();
        for w in 0..width {
            let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul];
            let kind = kinds[next(kinds.len())];
            let a = values[next(values.len())];
            let c = values[next(values.len())];
            layer.push(b.op(&format!("l{l}n{w}"), kind, &[a, c]).unwrap());
        }
        values.extend(layer);
    }
    b.finish().unwrap()
}

/// A banked-memory DAG: a burst of loads feeds an arithmetic layer
/// whose results are stored back, with the builder's hazard tokens
/// serialising the accesses — the shape the iterate splice path
/// re-frames under the access-conflict frame.
fn random_banked_dag(seed: u64, ports: u32) -> Dfg {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |m: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as usize
    };
    let mut b = DfgBuilder::new("banked");
    let i = b.input("i");
    let bank = b.declare_bank("ram", ports);
    let arr = b.declare_array("buf", 16, bank);
    let mut values = vec![i];
    for k in 0..2 + next(3) {
        values.push(b.load(&format!("ld{k}"), arr, i).unwrap());
    }
    for k in 0..2 + next(4) {
        let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul];
        let kind = kinds[next(kinds.len())];
        let a = values[next(values.len())];
        let c = values[next(values.len())];
        values.push(b.op(&format!("op{k}"), kind, &[a, c]).unwrap());
    }
    for k in 0..1 + next(2) {
        let v = values[next(values.len())];
        b.store(&format!("st{k}"), arr, i, v).unwrap();
    }
    b.finish().unwrap()
}

fn node_of(dfg: &Dfg, sig: SignalId) -> NodeId {
    match dfg.signal(sig).source() {
        SignalSource::Node(n) => n,
        _ => unreachable!(),
    }
}

fn stress(dfg: &Dfg, spec: &TimingSpec, clock: Option<ClockPeriod>, seed: u64, cs: u32) {
    let frames = TimeFrames::for_clock(dfg, spec, clock, cs).unwrap();
    let mut placement = Placement::new(dfg, spec, clock, frames);
    let ids: Vec<NodeId> = dfg.node_ids().collect();
    let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    let mut next = move |m: u64| -> u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    let mut trail = String::new();
    for _ in 0..64 {
        let id = ids[next(ids.len() as u64) as usize];
        if placement.unassign(id).is_some() {
            trail.push_str(&format!("vacate({}) ", dfg.node(id).name()));
        } else {
            // Frame the dependency-feasible range and pick a random step
            // inside it — the placements a real scheduler would make.
            let class = dfg.node(id).kind().fu_class();
            let probe_grid = Grid::new(cs, 1);
            let snap = placement.frame(id, &probe_grid, 1, true).0;
            if snap.earliest_feasible > snap.latest_feasible {
                continue;
            }
            let span = u64::from(snap.latest_feasible.get() - snap.earliest_feasible.get()) + 1;
            let step = CStep::new(snap.earliest_feasible.get() + next(span) as u32);
            if step.finish(placement.cycles(id)).get() > cs {
                continue;
            }
            let unit = UnitId::Fu {
                class,
                index: FuIndex::new(1),
            };
            placement.assign(id, Slot { step, unit });
            trail.push_str(&format!("place({}@{}) ", dfg.node(id).name(), step.get()));
        }
        let sched = placement.schedule();
        let reference = cold(dfg, spec, clock, sched);
        let reference_offsets = cold_offsets(dfg, spec, clock, &reference, sched);
        assert_state_matches(dfg, &placement, &reference, &reference_offsets, &trail);
    }
}

proptest! {
    #[test]
    fn warm_bounds_and_offsets_match_cold_rebuild(
        seed in 0u64..100_000,
        layers in 1usize..4,
        width in 1usize..4,
        spec_idx in 0usize..3,
    ) {
        let dfg = random_dag(seed, layers, width);
        let (spec, clock) = match spec_idx {
            0 => (TimingSpec::uniform_single_cycle(), None),
            1 => (TimingSpec::two_cycle_multiply(), None),
            _ => (TimingSpec::with_delays(), Some(ClockPeriod::new(100))),
        };
        stress(&dfg, &spec, clock, seed, 12);
    }

    /// Same contract under memory banks: hazard-token edges and the
    /// access-conflict frame must not leave the warm cache or offset
    /// table stale through any vacate/place interleaving.
    #[test]
    fn warm_bounds_match_cold_rebuild_under_banks(
        seed in 0u64..100_000,
        ports in 1u32..3,
        spec_idx in 0usize..2,
    ) {
        let dfg = random_banked_dag(seed, ports);
        let spec = match spec_idx {
            0 => TimingSpec::uniform_single_cycle(),
            _ => TimingSpec::two_cycle_multiply(),
        };
        stress(&dfg, &spec, None, seed, 12);
    }
}

/// The simplest staleness shape: a node whose only predecessor is
/// vacated must see its bound reset immediately.
#[test]
fn vacating_the_only_predecessor_resets_the_bound() {
    let mut b = DfgBuilder::new("g");
    let x = b.input("x");
    let p = b.op("p", OpKind::Add, &[x, x]).unwrap();
    let q = b.op("q", OpKind::Add, &[p, x]).unwrap();
    let dfg = b.finish().unwrap();
    let (p, q) = (node_of(&dfg, p), node_of(&dfg, q));
    let spec = TimingSpec::uniform_single_cycle();
    let frames = TimeFrames::compute(&dfg, &spec, 8).unwrap();
    let mut placement = Placement::new(&dfg, &spec, None, frames);
    let unit = UnitId::Fu {
        class: dfg.node(p).kind().fu_class(),
        index: FuIndex::new(1),
    };
    let step = CStep::new(3);
    placement.assign(p, Slot { step, unit });
    assert_eq!(placement.bounds().pred_finish(q), 3);
    placement.unassign(p);
    assert_eq!(
        placement.bounds().pred_finish(q),
        0,
        "stale bound after vacate"
    );
    assert_eq!(placement.bounds().succ_start(p), u32::MAX);
}
