//! Telescoping merge of shard schedules and boundary re-framing.
//!
//! **Merge.** Shards are placed onto a shared global time axis in shard
//! order. Each shard gets the minimal step offset that (a) satisfies
//! every incoming cut edge — the consumer's global start must fall
//! strictly after the producer's global finish — and (b) keeps every
//! memory bank's per-step access count within its port budget. Because
//! independent shards overlap in time ("telescoping"), the merged
//! horizon is far below the naive sum of per-shard budgets; the steps
//! saved are reported as a counter. Unit columns are disjoint across
//! shards for non-memory classes (each shard's columns are shifted past
//! the previous shards'), and likewise for ALU instances. Memory bank
//! ports are a *global* hard budget, so memory accesses are instead
//! re-bound to the first free port of their bank at their global step —
//! the capacity check in (b) guarantees one exists.
//!
//! **Stitch.** The merged schedule is exact but conservative around the
//! seams: a boundary node was scheduled knowing only its own shard.
//! The stitcher sweeps the boundary nodes in topological order and, for
//! each, vacates it from the dense [`Placement`] and its occupancy grids
//! and re-frames it with [`Placement::frame`] — the same vacate→re-frame
//! machinery `crates/core/tests/reframe.rs` pins — taking the earliest
//! feasible position if that improves on its current slot. For
//! MFSA-merged schedules (ALU-bound units, outside the class-grid world
//! of the move frame) the stitcher instead runs [`Placement::slide`],
//! which moves boundary nodes to the earliest free step on their own
//! unit. Sweeps repeat until a fixpoint or the sweep cap.

use std::collections::BTreeMap;

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{CStep, FuIndex, Grid, Schedule, Slot, UnitId};
use moveframe::Placement;

use crate::cut::Partition;
use crate::extract::ShardGraph;
use crate::shard::ShardSchedule;
use crate::PartitionError;

/// Columns the re-frame probe exposes per class. Boundary compression
/// only needs *a* free column at an earlier step, not the full
/// (potentially tens of thousands wide) column space, and the probe
/// cost is linear in the visible columns.
const STITCH_COLUMN_CAP: u32 = 64;

/// The merged global schedule plus merge/stitch statistics.
#[derive(Debug)]
pub struct MergeOutcome {
    /// The stitched global schedule (horizon = `csteps`).
    pub schedule: Schedule,
    /// Achieved horizon: the last occupied control step.
    pub csteps: u32,
    /// Per-shard global step offsets chosen by the telescoping merge.
    pub shard_offsets: Vec<u32>,
    /// Steps saved versus naively concatenating the shard budgets.
    pub telescoped_saved: u64,
    /// Boundary moves the stitcher committed.
    pub stitch_moves: u64,
    /// Stitch sweeps run (including the final fixpoint sweep).
    pub stitch_sweeps: u64,
}

/// Merges the shard schedules onto one global time axis and stitches
/// the seams. See the module docs.
pub fn merge_and_stitch(
    dfg: &Dfg,
    spec: &TimingSpec,
    partition: &Partition,
    shards: &[ShardGraph],
    scheds: &[ShardSchedule],
    max_stitch_sweeps: usize,
) -> Result<MergeOutcome, PartitionError> {
    let n = dfg.node_count();
    let mut slots: Vec<Option<Slot>> = vec![None; n];
    // Per-node global finish step, for cut-edge lower bounds.
    let mut finish = vec![0u32; n];
    let bank_ports: Vec<u32> = dfg.memory().banks().iter().map(|b| b.ports()).collect();
    // Per-bank per-step access counts and port occupancy on the global
    // axis; grown as the horizon extends.
    let mut bank_usage: Vec<Vec<u32>> = vec![Vec::new(); bank_ports.len()];
    let mut port_busy: Vec<Vec<Vec<bool>>> = bank_ports
        .iter()
        .map(|&p| vec![Vec::new(); p as usize])
        .collect();

    // Column bases: non-memory classes and ALU instances are shifted
    // per shard so units stay disjoint across shards.
    let mut class_base: BTreeMap<FuClass, u32> = BTreeMap::new();
    let mut alu_base = 0u32;
    let mut naive_offset = 0u64;
    let mut shard_offsets = Vec::with_capacity(scheds.len());
    let mut telescoped_saved = 0u64;
    let mut horizon = 0u32;

    for (si, (shard, sched)) in shards.iter().zip(scheds).enumerate() {
        // (a) Precedence lower bound over incoming cut edges.
        let mut lower = 0u32;
        for (local, &global) in shard.to_global.iter().enumerate() {
            let local_id = NodeId::from_index(local);
            let start = sched
                .schedule
                .slot(local_id)
                .ok_or_else(|| {
                    PartitionError::Internal(format!("shard {si}: unscheduled local node {local}"))
                })?
                .step
                .get();
            for &p in dfg.preds(global) {
                if partition.shard_of(p) != si {
                    // global start = local start + offset must exceed
                    // the producer's global finish.
                    let need = (finish[p.index()] + 1).saturating_sub(start);
                    lower = lower.max(need);
                }
            }
        }

        // (b) Bank-port capacity: local per-step access histogram must
        // fit on top of the accumulated global histogram.
        let mut local_mem: Vec<Vec<(u32, u8)>> = vec![Vec::new(); bank_ports.len()];
        for (local, &global) in shard.to_global.iter().enumerate() {
            if let FuClass::Mem(bank) = dfg.node(global).kind().fu_class() {
                let local_id = NodeId::from_index(local);
                let slot = sched.schedule.slot(local_id).expect("checked above");
                let cycles = dfg.node(global).kind().cycles(spec);
                local_mem[bank.index()].push((slot.step.get(), cycles));
            }
        }
        let mut offset = lower;
        'fit: loop {
            for (bank, accesses) in local_mem.iter().enumerate() {
                let mut extra: BTreeMap<u32, u32> = BTreeMap::new();
                for &(start, cycles) in accesses {
                    for k in 0..cycles as u32 {
                        *extra.entry(offset + start + k).or_insert(0) += 1;
                    }
                }
                for (&step, &count) in &extra {
                    let used = bank_usage[bank].get(step as usize).copied().unwrap_or(0);
                    if used + count > bank_ports[bank] {
                        offset += 1;
                        continue 'fit;
                    }
                }
            }
            break;
        }
        shard_offsets.push(offset);
        telescoped_saved += naive_offset.saturating_sub(offset as u64);
        naive_offset += sched.csteps as u64;

        // Commit this shard's placements to the global axis.
        for (local, &global) in shard.to_global.iter().enumerate() {
            let local_id = NodeId::from_index(local);
            let slot = sched.schedule.slot(local_id).expect("checked above");
            let step = CStep::new(slot.step.get() + offset);
            let cycles = dfg.node(global).kind().cycles(spec);
            let unit = match slot.unit {
                UnitId::Fu {
                    class: class @ FuClass::Mem(bank),
                    ..
                } => {
                    // Re-bind to the first port of the bank free over
                    // the access span; capacity check (b) guarantees a
                    // per-step port exists, and single-step accesses
                    // make the greedy choice exact.
                    let ports = &mut port_busy[bank.index()];
                    let span: Vec<usize> = (0..cycles as u32)
                        .map(|k| (step.get() + k) as usize)
                        .collect();
                    let port = (0..ports.len())
                        .find(|&p| {
                            span.iter()
                                .all(|&s| !ports[p].get(s).copied().unwrap_or(false))
                        })
                        .ok_or_else(|| {
                            PartitionError::Internal(format!(
                                "no free port on bank {bank:?} at step {step}"
                            ))
                        })?;
                    for &s in &span {
                        if ports[port].len() <= s {
                            ports[port].resize(s + 1, false);
                        }
                        ports[port][s] = true;
                        let usage = &mut bank_usage[bank.index()];
                        if usage.len() <= s {
                            usage.resize(s + 1, 0);
                        }
                        usage[s] += 1;
                    }
                    UnitId::Fu {
                        class,
                        index: FuIndex::new(port as u32 + 1),
                    }
                }
                UnitId::Fu { class, index } => UnitId::Fu {
                    class,
                    index: FuIndex::new(index.get() + class_base.get(&class).copied().unwrap_or(0)),
                },
                UnitId::Alu { instance } => UnitId::Alu {
                    instance: instance + alu_base,
                },
            };
            slots[global.index()] = Some(Slot { step, unit });
            finish[global.index()] = step.finish(cycles).get();
            horizon = horizon.max(finish[global.index()]);
        }
        for (&class, &count) in &sched.fu_counts {
            if !matches!(class, FuClass::Mem(_)) {
                *class_base.entry(class).or_insert(0) += count;
            }
        }
        alu_base += sched.alu_instances;
    }

    let mut schedule = Schedule::new(dfg, horizon.max(1));
    for (i, slot) in slots.iter().enumerate() {
        let slot = slot
            .ok_or_else(|| PartitionError::Internal(format!("merge left node {i} unscheduled")))?;
        schedule.assign(NodeId::from_index(i), slot);
    }

    let mut placement = Placement::from_schedule(dfg, spec, None, schedule, horizon)
        .map_err(|e| PartitionError::Internal(format!("stitch frames: {e}")))?;
    let order = boundary_in_topo_order(dfg, partition);
    let (stitch_moves, stitch_sweeps) = match placement.class_grids() {
        Some(mut grids) => stitch_reframe(&mut placement, &mut grids, &order, max_stitch_sweeps),
        None => placement.slide(&order, max_stitch_sweeps),
    };
    let schedule = placement.into_parts().0;

    // The horizon can only shrink under stitching; re-derive it.
    let csteps = schedule
        .iter()
        .map(|(n, s)| s.step.finish(dfg.node(n).kind().cycles(spec)).get())
        .max()
        .unwrap_or(1);
    Ok(MergeOutcome {
        schedule,
        csteps,
        shard_offsets,
        telescoped_saved,
        stitch_moves,
        stitch_sweeps,
    })
}

/// Boundary nodes in topological order — the sweep order of both
/// stitchers.
fn boundary_in_topo_order(dfg: &Dfg, partition: &Partition) -> Vec<NodeId> {
    let boundary = partition.boundary_nodes();
    let mut is_boundary = vec![false; dfg.node_count()];
    for &b in &boundary {
        is_boundary[b.index()] = true;
    }
    dfg.topo_order()
        .iter()
        .copied()
        .filter(|id| is_boundary[id.index()])
        .collect()
}

/// Move-frame stitching for class-grid (MFS-merged) schedules: vacate
/// each boundary node and re-place it at the earliest position of its
/// re-computed move frame. Returns `(moves, sweeps)`.
fn stitch_reframe(
    placement: &mut Placement<'_>,
    grids: &mut BTreeMap<FuClass, Grid>,
    order: &[NodeId],
    max_sweeps: usize,
) -> (u64, u64) {
    let mut moves = 0u64;
    let mut sweeps = 0u64;
    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut moved = false;
        for &node in order {
            // Vacate from the placement and the grid…
            let cur = placement
                .unassign(node)
                .expect("merged schedule is complete");
            let UnitId::Fu { class, index } = cur.unit else {
                unreachable!("class grids bind every node to a column");
            };
            let grid = grids.get_mut(&class).expect("class grid exists");
            grid.vacate(placement.dfg(), node);
            // …re-frame…
            let snapshot = placement
                .frame(node, grid, grid.max_fu().min(STITCH_COLUMN_CAP), true)
                .0;
            // …and take the earliest (step, column), keeping the old
            // slot when nothing better is visible.
            let old = (cur.step, index);
            let (step, fu) = snapshot
                .movable
                .iter()
                .map(|p| (p.step, p.fu))
                .min()
                .filter(|&p| p < old)
                .unwrap_or(old);
            let unit = UnitId::Fu { class, index: fu };
            placement.assign(node, Slot { step, unit });
            grid.occupy(placement.dfg(), node, step, fu, placement.cycles(node));
            if (step, fu) != old {
                moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    (moves, sweeps)
}
