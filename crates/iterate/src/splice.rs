//! Constrained re-scheduling splices: vacate the region nodes from a
//! dense [`Placement`] of the schedule and re-place them under the
//! **achieved** horizon — one control step tighter every time an
//! iteration lands.
//!
//! The binding world picks the kernel:
//!
//! * [`sweep_fu`] (class-grid schedules, MFS and the baselines):
//!   vacate the whole region from the placement and its occupancy
//!   grids, then re-frame each node with [`Placement::frame`] — the
//!   vacate→re-frame contract `crates/core/tests/reframe.rs` pins,
//!   including chained offsets and the memory access-conflict frames.
//! * ALU-bound schedules (MFSA) run [`Placement::slide`]: each region
//!   node slides along its *own* unit, preserving both the allocation
//!   and (for memory accesses) the port binding — the same kernel the
//!   hls-partition stitcher runs on MFSA-merged schedules.
//!
//! Both kernels sweep the region in topological order and repeat until
//! a fixpoint or the sweep cap; every data structure is ordered
//! (`BTreeMap`, index-sorted vectors), so the result is a pure function
//! of the inputs.

use std::collections::BTreeMap;

use hls_celllib::{ClockPeriod, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{Grid, Schedule, Slot, UnitId};
use moveframe::{Direction, Placement};

use crate::IterateError;

/// Columns the re-frame probe exposes per class — compression needs *a*
/// free column at a better step, not the full column space (same cap as
/// the partition stitcher).
const COLUMN_CAP: u32 = 64;

/// Runs one splice on a copy of `schedule` under its achieved horizon:
/// the move-frame sweep for class-grid schedules, the same-unit slide
/// for ALU-bound ones. Returns the candidate and its committed moves.
pub(crate) fn splice(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &Schedule,
    region: &[NodeId],
    direction: Direction,
    max_sweeps: usize,
) -> Result<(Schedule, u64), IterateError> {
    let horizon = schedule.steps_used(dfg, spec, clock);
    let mut placement = Placement::from_schedule(dfg, spec, clock, schedule.clone(), horizon)
        .map_err(|e| IterateError::Internal(format!("splice frames: {e}")))?;
    let moves = match placement.class_grids() {
        Some(mut grids) => sweep_fu(&mut placement, &mut grids, region, direction, max_sweeps),
        None => placement.slide(region, direction, max_sweeps).0,
    };
    Ok((placement.into_parts().0, moves))
}

/// Move-frame splice for class-grid schedules; returns the number of
/// committed moves (zero when some region node finds no cell).
fn sweep_fu(
    placement: &mut Placement<'_>,
    grids: &mut BTreeMap<FuClass, Grid>,
    region: &[NodeId],
    direction: Direction,
    max_sweeps: usize,
) -> u64 {
    let horizon = placement.frames().control_steps();
    // Re-place the *whole* region per sweep, not one node at a time: a
    // critical cone is tight by construction, so no single node can
    // move while its neighbours hold their slots — the region must be
    // vacated as a unit before any of it can shift. Earlier sweeps
    // re-place in dependency order (predecessors claim the earliest
    // cells first); Later sweeps in reverse (consumers anchor at the
    // horizon, producers drift toward them).
    let order: Vec<NodeId> = match direction {
        Direction::Earlier => region.to_vec(),
        Direction::Later => region.iter().rev().copied().collect(),
    };
    let mut moves = 0u64;
    for _ in 0..max_sweeps {
        let mut moved = false;
        let mut old: BTreeMap<NodeId, (FuClass, Slot)> = BTreeMap::new();
        for &node in region {
            let slot = placement
                .unassign(node)
                .expect("baseline schedule is complete");
            let UnitId::Fu { class, .. } = slot.unit else {
                unreachable!("class grids bind every node to a column");
            };
            grids
                .get_mut(&class)
                .expect("class grid exists")
                .vacate(node);
            old.insert(node, (class, slot));
        }
        for &node in &order {
            let (class, prev) = old[&node];
            let grid = grids.get_mut(&class).expect("class grid exists");
            let cycles = placement.cycles(node);
            let snapshot = placement
                .frame(node, grid, grid.max_fu().min(COLUMN_CAP), true)
                .0;
            let cells = snapshot.movable.iter().map(|p| (p.step, p.fu));
            let best = match direction {
                Direction::Earlier => cells.min(),
                Direction::Later => cells
                    .filter(|&(s, _)| s.finish(cycles).get() <= horizon)
                    .max_by_key(|&(s, f)| (s, std::cmp::Reverse(f))),
            };
            // A region node with no feasible cell means this direction
            // cannot re-place the subgraph — abandon the splice; the
            // caller discards the half-built candidate.
            let Some((step, fu)) = best else {
                return 0;
            };
            let unit = UnitId::Fu { class, index: fu };
            placement.assign(node, Slot { step, unit });
            grid.occupy(placement.dfg(), node, step, fu, cycles);
            if (step, unit) != (prev.step, prev.unit) {
                moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    moves
}
