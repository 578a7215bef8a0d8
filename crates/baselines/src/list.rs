//! Resource-constrained list scheduling (after Slicer, paper ref. [4]).

use std::collections::BTreeMap;

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{asap, CStep, FuIndex, Schedule, ScheduleError, Slot, UnitId};

/// List scheduling under per-class unit limits: operations become ready
/// when their predecessors finish; each step executes the highest-
/// priority ready operations up to the unit budget of their class.
/// Priority is least mobility first (mobility from an unconstrained
/// ALAP at the `cs_bound` horizon), ties by node id.
///
/// Returns a schedule of minimal-ish length within `cs_bound` steps.
/// For graphs with banked arrays, each bank's port count is merged
/// into the limits as a hard cap on its `Mem` class, so the result is
/// always port-safe.
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
/// use hls_dfg::{DfgBuilder, FuClass};
/// use hls_baselines::list_schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// for i in 0..4 {
///     b.op(&format!("a{i}"), OpKind::Add, &[x, x])?;
/// }
/// let dfg = b.finish()?;
/// let limits = [(FuClass::Op(OpKind::Add), 2)].into_iter().collect();
/// let spec = TimingSpec::uniform_single_cycle();
/// let sched = list_schedule(&dfg, &spec, &limits, 8)?;
/// // 4 adds on 2 adders: 2 steps.
/// assert!(sched.iter().all(|(_, s)| s.step.get() <= 2));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`ScheduleError::InfeasibleTime`] when the schedule does not fit in
/// `cs_bound` steps under the given limits.
pub fn list_schedule(
    dfg: &Dfg,
    spec: &TimingSpec,
    limits: &BTreeMap<FuClass, u32>,
    cs_bound: u32,
) -> Result<Schedule, ScheduleError> {
    // Bank port counts are implicit hard limits on their Mem classes:
    // memory graphs stay port-safe even with an empty limit map.
    let mut limits = limits.clone();
    for bank in dfg.memory().banks() {
        let class = FuClass::Mem(bank.id());
        let cap = limits
            .get(&class)
            .copied()
            .unwrap_or(u32::MAX)
            .min(bank.ports());
        limits.insert(class, cap);
    }
    let limits = &limits;
    let asap_starts = asap(dfg, spec);
    // Mobility against the bound horizon (for priorities only).
    let alap_starts = hls_schedule::alap(dfg, spec, cs_bound)?;
    let mobility = |n: NodeId| {
        alap_starts[n.index()]
            .get()
            .saturating_sub(asap_starts[n.index()].get())
    };

    let mut sched = Schedule::new(dfg, cs_bound);
    let mut remaining_preds: Vec<usize> = dfg.node_ids().map(|n| dfg.preds(n).len()).collect();
    let mut ready: Vec<NodeId> = dfg
        .node_ids()
        .filter(|&n| remaining_preds[n.index()] == 0)
        .collect();
    // Unit busy-until step per (class, unit index).
    let mut busy_until: BTreeMap<(FuClass, u32), u32> = BTreeMap::new();
    let mut finished_at: Vec<u32> = vec![0; dfg.node_count()];
    let mut scheduled = 0usize;

    for step in 1..=cs_bound {
        // Newly ready ops whose predecessors finished before this step.
        ready.sort_by_key(|&n| (mobility(n), n));
        let mut next_ready = Vec::new();
        for &n in &ready {
            let preds_done = dfg
                .preds(n)
                .iter()
                .all(|&p| finished_at[p.index()] != 0 && finished_at[p.index()] < step);
            let class = dfg.node(n).kind().fu_class();
            let cycles = dfg.node(n).kind().cycles(spec) as u32;
            let limit = limits.get(&class).copied().unwrap_or(u32::MAX);
            let mut placed = false;
            if preds_done && step + cycles - 1 <= cs_bound {
                // Find a unit idle through the whole span.
                for u in 1..=limit.min(dfg.node_count() as u32) {
                    let free = busy_until.get(&(class, u)).copied().unwrap_or(0) < step;
                    if free {
                        busy_until.insert((class, u), step + cycles - 1);
                        finished_at[n.index()] = step + cycles - 1;
                        sched.assign(
                            n,
                            Slot {
                                step: CStep::new(step),
                                unit: UnitId::Fu {
                                    class,
                                    index: FuIndex::new(u),
                                },
                            },
                        );
                        scheduled += 1;
                        placed = true;
                        break;
                    }
                }
            }
            if !placed {
                next_ready.push(n);
            }
        }
        // Deferred ops plus ops released by this step's completions.
        ready = next_ready;
        for n in dfg.node_ids() {
            if finished_at[n.index()] == step {
                for &s in dfg.succs(n) {
                    remaining_preds[s.index()] -= 1;
                    if remaining_preds[s.index()] == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        if scheduled == dfg.node_count() {
            break;
        }
    }

    if scheduled != dfg.node_count() {
        return Err(ScheduleError::InfeasibleTime {
            needed: cs_bound + 1,
            given: cs_bound,
        });
    }
    Ok(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;
    use hls_schedule::{verify, VerifyOptions};

    fn independent_adds(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..n {
            b.op(&format!("a{i}"), OpKind::Add, &[x, x]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn respects_unit_limits() {
        let g = independent_adds(6);
        let spec = TimingSpec::uniform_single_cycle();
        let limits = [(FuClass::Op(OpKind::Add), 2)].into_iter().collect();
        let s = list_schedule(&g, &spec, &limits, 10).unwrap();
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
        assert_eq!(s.fu_counts()[&FuClass::Op(OpKind::Add)], 2);
        assert_eq!(s.steps_used(&g, &spec), 3);
    }

    #[test]
    fn dependencies_delay_readiness() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let p = b.op("p", OpKind::Add, &[x, x]).unwrap();
        b.op("q", OpKind::Add, &[p, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let limits = [(FuClass::Op(OpKind::Add), 2)].into_iter().collect();
        let s = list_schedule(&g, &spec, &limits, 4).unwrap();
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
        assert_eq!(s.steps_used(&g, &spec), 2);
    }

    #[test]
    fn critical_ops_preempt_mobile_ones() {
        // One adder; a 3-add chain plus a free add at cs=4: the free op
        // must yield to the chain heads and land in step 4.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a1 = b.op("a1", OpKind::Add, &[x, x]).unwrap();
        let a2 = b.op("a2", OpKind::Add, &[a1, x]).unwrap();
        b.op("a3", OpKind::Add, &[a2, x]).unwrap();
        b.op("free", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let limits = [(FuClass::Op(OpKind::Add), 1)].into_iter().collect();
        let s = list_schedule(&g, &spec, &limits, 4).unwrap();
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
        let free = g.node_by_name("free").unwrap();
        assert_eq!(s.start(free), Some(CStep::new(4)));
    }

    #[test]
    fn multicycle_ops_hold_units_across_steps() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("m1", OpKind::Mul, &[x, x]).unwrap();
        b.op("m2", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let limits = [(FuClass::Op(OpKind::Mul), 1)].into_iter().collect();
        let s = list_schedule(&g, &spec, &limits, 4).unwrap();
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
        assert_eq!(s.steps_used(&g, &spec), 4);
    }

    #[test]
    fn over_constrained_budget_fails() {
        let g = independent_adds(8);
        let spec = TimingSpec::uniform_single_cycle();
        let limits = [(FuClass::Op(OpKind::Add), 1)].into_iter().collect();
        assert!(list_schedule(&g, &spec, &limits, 4).is_err());
    }
}
