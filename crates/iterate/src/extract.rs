//! Bottleneck extraction: carve the subgraph worth re-scheduling.
//!
//! Three evidence sources feed the region, mirroring the feedback
//! signals the telemetry substrate already collects:
//!
//! 1. **Critical cone** — every operation finishing at the achieved
//!    horizon, closed backwards over *tight* dependency edges (zero
//!    slack between producer finish and consumer start). These are the
//!    operations whose placement pins the schedule length.
//! 2. **Port-saturated banks** — memory accesses on banks whose peak
//!    per-step demand meets the declared port count (the steps PR 4's
//!    access-conflict frames carve out). Compressing around them frees
//!    AF steps for the rest of the graph.
//! 3. **Caller hints** — e.g. LocalReschedule hotspots harvested from
//!    an MFS run's frame snapshots or profiler ledgers.
//!
//! The region is capped at [`crate::IterateConfig::max_region`] nodes
//! with a deterministic breadth-first expansion (seeds and frontier
//! both visited in node-index order), and returned in topological
//! order — the sweep order of both splice kernels. Boundary nodes
//! (everything outside the region) stay frozen: the splice kernels
//! never vacate them, they only constrain the re-placement through the
//! [`moveframe::BoundsCache`] bounds.

use std::collections::VecDeque;

use hls_celllib::{effective_cycles, ClockPeriod, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::Schedule;

/// The extracted bottleneck region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region nodes in topological order (the splice sweep order).
    pub nodes: Vec<NodeId>,
    /// How many nodes the critical-cone closure contributed.
    pub critical: usize,
    /// How many nodes the port-saturation source contributed.
    pub port_hot: usize,
    /// How many caller hint nodes were admitted.
    pub hinted: usize,
}

/// Per-node start/finish steps of a complete schedule, plus the
/// achieved horizon. Clock-multicycled operations span their effective
/// `⌈delay/T⌉` steps.
pub(crate) fn spans(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &Schedule,
) -> (Vec<u32>, Vec<u32>, u32) {
    let n = dfg.node_count();
    let mut start = vec![0u32; n];
    let mut finish = vec![0u32; n];
    let mut horizon = 0u32;
    for (node, slot) in schedule.iter() {
        let kind = dfg.node(node).kind();
        let cycles = effective_cycles(kind.cycles(spec), kind.delay(spec), clock);
        start[node.index()] = slot.step.get();
        finish[node.index()] = slot.step.finish(cycles).get();
        horizon = horizon.max(finish[node.index()]);
    }
    (start, finish, horizon)
}

/// Carves the bottleneck region of `schedule`. See the module docs.
pub fn extract_region(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &Schedule,
    hints: &[NodeId],
    max_region: usize,
) -> Region {
    let n = dfg.node_count();
    let (start, finish, horizon) = spans(dfg, spec, clock, schedule);

    let mut in_region = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut admitted = 0usize;
    let admit = |id: NodeId,
                 in_region: &mut Vec<bool>,
                 queue: &mut VecDeque<NodeId>,
                 admitted: &mut usize|
     -> bool {
        if *admitted >= max_region || in_region[id.index()] {
            return false;
        }
        in_region[id.index()] = true;
        queue.push_back(id);
        *admitted += 1;
        true
    };

    // Source 1 seeds: horizon finishers, in index order.
    let mut critical = 0usize;
    for id in dfg.node_ids() {
        if finish[id.index()] == horizon && admit(id, &mut in_region, &mut queue, &mut admitted) {
            critical += 1;
        }
    }

    // Source 2: accesses on port-saturated banks, in index order.
    let mut port_hot = 0usize;
    if let Ok(pressure) = hls_mem::port_pressure(dfg, schedule) {
        let saturated: Vec<bool> = dfg
            .memory()
            .banks()
            .iter()
            .map(|b| pressure.peak(b.id()) >= b.ports())
            .collect();
        if saturated.iter().any(|&s| s) {
            for id in dfg.node_ids() {
                if let FuClass::Mem(bank) = dfg.node(id).kind().fu_class() {
                    if saturated[bank.index()]
                        && admit(id, &mut in_region, &mut queue, &mut admitted)
                    {
                        port_hot += 1;
                    }
                }
            }
        }
    }

    // Source 3: caller hints (e.g. LocalReschedule hotspots).
    let mut hinted = 0usize;
    let mut sorted_hints: Vec<NodeId> = hints.to_vec();
    sorted_hints.sort();
    sorted_hints.dedup();
    for id in sorted_hints {
        if id.index() < n && admit(id, &mut in_region, &mut queue, &mut admitted) {
            hinted += 1;
        }
    }

    // Close the seed set backwards over tight edges: a predecessor with
    // no slack against an in-region consumer joins the cone.
    while let Some(node) = queue.pop_front() {
        let s = start[node.index()];
        let mut tight: Vec<NodeId> = dfg
            .preds(node)
            .iter()
            .copied()
            .filter(|p| finish[p.index()] + 1 >= s)
            .collect();
        tight.sort();
        for p in tight {
            admit(p, &mut in_region, &mut queue, &mut admitted);
        }
    }

    let nodes: Vec<NodeId> = dfg
        .topo_order()
        .iter()
        .copied()
        .filter(|id| in_region[id.index()])
        .collect();
    Region {
        nodes,
        critical,
        port_hot,
        hinted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::{DfgBuilder, SignalSource};
    use hls_schedule::{CStep, FuIndex, Slot, UnitId};

    fn node_of(dfg: &Dfg, sig: hls_dfg::SignalId) -> NodeId {
        match dfg.signal(sig).source() {
            SignalSource::Node(n) => n,
            _ => unreachable!(),
        }
    }

    fn place(sched: &mut Schedule, dfg: &Dfg, n: NodeId, step: u32, fu: u32) {
        sched.assign(
            n,
            Slot {
                step: CStep::new(step),
                unit: UnitId::Fu {
                    class: dfg.node(n).kind().fu_class(),
                    index: FuIndex::new(fu),
                },
            },
        );
    }

    #[test]
    fn cone_follows_tight_edges_and_skips_slack() {
        // chain a -> b -> d (tight), plus c with 2 steps of slack.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a = b.op("a", OpKind::Add, &[x, x]).unwrap();
        let bb = b.op("b", OpKind::Add, &[a, x]).unwrap();
        let c = b.op("c", OpKind::Add, &[x, x]).unwrap();
        let d = b.op("d", OpKind::Add, &[bb, c]).unwrap();
        let dfg = b.finish().unwrap();
        let (a, bb, c, d) = (
            node_of(&dfg, a),
            node_of(&dfg, bb),
            node_of(&dfg, c),
            node_of(&dfg, d),
        );
        let spec = TimingSpec::uniform_single_cycle();
        let mut sched = Schedule::new(&dfg, 3);
        place(&mut sched, &dfg, a, 1, 1);
        place(&mut sched, &dfg, bb, 2, 1);
        place(&mut sched, &dfg, c, 1, 2);
        place(&mut sched, &dfg, d, 3, 1);
        let region = extract_region(&dfg, &spec, None, &sched, &[], 64);
        assert_eq!(region.critical, 1, "only d finishes at the horizon");
        assert!(region.nodes.contains(&d));
        assert!(region.nodes.contains(&bb), "tight predecessor joins");
        assert!(region.nodes.contains(&a), "tightness is transitive");
        assert!(
            !region.nodes.contains(&c),
            "c has slack and stays frozen: {:?}",
            region.nodes
        );
    }

    #[test]
    fn saturated_bank_accesses_join_the_region() {
        let mut b = DfgBuilder::new("mem");
        let i = b.input("i");
        let bank = b.declare_bank("ram", 1);
        let arr = b.declare_array("buf", 16, bank);
        let l0 = b.load("l0", arr, i).unwrap();
        let l1 = b.load("l1", arr, i).unwrap();
        let s = b.op("s", OpKind::Add, &[l0, l1]).unwrap();
        let dfg = b.finish().unwrap();
        let (l0, l1, s) = (node_of(&dfg, l0), node_of(&dfg, l1), node_of(&dfg, s));
        let spec = TimingSpec::uniform_single_cycle();
        let mut sched = Schedule::new(&dfg, 3);
        place(&mut sched, &dfg, l0, 1, 1);
        place(&mut sched, &dfg, l1, 2, 1);
        place(&mut sched, &dfg, s, 3, 1);
        let region = extract_region(&dfg, &spec, None, &sched, &[], 64);
        assert!(region.port_hot > 0, "single-port bank is saturated");
        assert!(region.nodes.contains(&l0));
        assert!(region.nodes.contains(&l1));
    }

    #[test]
    fn region_cap_is_respected_deterministically() {
        let mut b = DfgBuilder::new("wide");
        let x = b.input("x");
        let mut outs = Vec::new();
        for i in 0..8 {
            outs.push(b.op(&format!("o{i}"), OpKind::Add, &[x, x]).unwrap());
        }
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut sched = Schedule::new(&dfg, 1);
        for (i, &o) in outs.iter().enumerate() {
            let n = node_of(&dfg, o);
            place(&mut sched, &dfg, n, 1, i as u32 + 1);
        }
        let a = extract_region(&dfg, &spec, None, &sched, &[], 3);
        let b2 = extract_region(&dfg, &spec, None, &sched, &[], 3);
        assert_eq!(a.nodes, b2.nodes, "capped extraction is deterministic");
        assert_eq!(a.nodes.len(), 3);
    }
}
