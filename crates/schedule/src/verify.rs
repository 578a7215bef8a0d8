//! Independent schedule verification.
//!
//! Every scheduler in the workspace (MFS, MFSA and the baselines) is
//! checked against this verifier in the test suite; it re-derives all
//! constraints from the DFG and the timing spec rather than trusting the
//! scheduler's internal bookkeeping.

use std::collections::BTreeMap;

use hls_celllib::{effective_cycles, ClockPeriod, TimingSpec};
use hls_dfg::{Dfg, NodeId, NodeKind};

use crate::{CStep, Schedule, Slot, UnitId};

/// What to verify beyond the core constraints.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyOptions {
    /// Functional-pipelining initiation interval: resource conflicts are
    /// evaluated modulo this latency.
    pub latency: Option<u32>,
    /// Chaining clock period: dependent single-cycle operations may share
    /// a step when their accumulated delay fits within one period.
    /// Without it, dependencies must be strictly ordered by step. Under
    /// a clock every span — precedence, the horizon and unit occupancy —
    /// is counted in effective cycles, `max(declared, ⌈delay/T⌉)`, the
    /// rule every scheduler places by.
    pub clock: Option<ClockPeriod>,
}

/// A constraint violation found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// An operation has no slot.
    Unscheduled(NodeId),
    /// A successor starts before (or, without chaining, not after) its
    /// predecessor finishes.
    DependencyOrder {
        /// The producing operation.
        pred: NodeId,
        /// The consuming operation.
        succ: NodeId,
    },
    /// The accumulated combinational delay within a step exceeds the
    /// clock period.
    ChainingOverflow {
        /// The step whose delay path overflows.
        step: CStep,
        /// Accumulated delay on the worst path, in time units.
        delay: u32,
        /// The clock period, in time units.
        clock: u32,
    },
    /// Two non-exclusive operations overlap on the same unit.
    ResourceConflict {
        /// First operation.
        a: NodeId,
        /// Second operation.
        b: NodeId,
    },
    /// An operation finishes after the time constraint.
    TimeExceeded {
        /// The late operation.
        node: NodeId,
        /// Its finish step.
        finish: CStep,
    },
    /// A pipeline stage does not start exactly one step after its
    /// predecessor stage.
    StageNotConsecutive {
        /// The earlier stage.
        prev: NodeId,
        /// The later stage.
        next: NodeId,
    },
    /// An operation is bound to a single-function unit of the wrong
    /// class.
    UnitClassMismatch {
        /// The mis-bound operation.
        node: NodeId,
    },
}

/// Checks `schedule` against `dfg` and `spec`; returns every violation
/// found (empty = valid).
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
/// use hls_dfg::{DfgBuilder, FuClass};
/// use hls_schedule::{verify, CStep, FuIndex, Schedule, Slot, UnitId, VerifyOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// let t = b.op("t", OpKind::Inc, &[x])?;
/// let _u = b.op("u", OpKind::Dec, &[t])?;
/// let dfg = b.finish()?;
/// let t = dfg.node_by_name("t").unwrap();
/// let u = dfg.node_by_name("u").unwrap();
/// let spec = TimingSpec::uniform_single_cycle();
///
/// let mut s = Schedule::new(&dfg, 2);
/// let unit = |k, i| UnitId::Fu { class: FuClass::Op(k), index: FuIndex::new(i) };
/// s.assign(t, Slot { step: CStep::new(1), unit: unit(OpKind::Inc, 1) });
/// s.assign(u, Slot { step: CStep::new(2), unit: unit(OpKind::Dec, 1) });
/// assert!(verify(&dfg, &s, &spec, VerifyOptions::default()).is_empty());
/// # Ok(())
/// # }
/// ```
pub fn verify(
    dfg: &Dfg,
    schedule: &Schedule,
    spec: &TimingSpec,
    options: VerifyOptions,
) -> Vec<Violation> {
    verify_with(dfg, schedule, spec, options, resource_conflicts)
}

/// A resource-conflict finder: appends the conflicts of `schedule`,
/// given each node's effective cycles and the latency.
type ConflictFinder = fn(&Dfg, &Schedule, &[u8], Option<u32>, &mut Vec<Violation>);

fn verify_with(
    dfg: &Dfg,
    schedule: &Schedule,
    spec: &TimingSpec,
    options: VerifyOptions,
    conflicts: ConflictFinder,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let cs = schedule.control_steps();
    let cycles: Vec<u8> = dfg
        .nodes()
        .map(|(_, node)| {
            let kind = node.kind();
            effective_cycles(kind.cycles(spec), kind.delay(spec), options.clock)
        })
        .collect();
    let chainable = |id: NodeId| {
        options.clock.is_some()
            && cycles[id.index()] == 1
            && dfg.node(id).kind().delay(spec).as_u32() > 0
    };

    // Completeness & horizon.
    for id in dfg.node_ids() {
        match schedule.slot(id) {
            None => violations.push(Violation::Unscheduled(id)),
            Some(slot) => {
                let finish = slot.step.finish(cycles[id.index()]);
                if finish.get() > cs {
                    violations.push(Violation::TimeExceeded { node: id, finish });
                }
                if let UnitId::Fu { class, .. } = slot.unit {
                    if class != dfg.node(id).kind().fu_class() {
                        violations.push(Violation::UnitClassMismatch { node: id });
                    }
                }
            }
        }
    }

    // Dependency ordering (and stage consecutiveness).
    for id in dfg.node_ids() {
        let Some(slot) = schedule.slot(id) else {
            continue;
        };
        let node = dfg.node(id);
        for &p in dfg.preds(id) {
            let Some(p_slot) = schedule.slot(p) else {
                continue;
            };
            let p_node = dfg.node(p);
            let p_finish = p_slot.step.finish(cycles[p.index()]);
            let ok = if chainable(id) && chainable(p) {
                slot.step >= p_finish
            } else {
                slot.step > p_finish
            };
            if !ok {
                violations.push(Violation::DependencyOrder { pred: p, succ: id });
            }
            if let NodeKind::Stage { index, .. } = node.kind() {
                if index > 0
                    && matches!(p_node.kind(), NodeKind::Stage { .. })
                    && slot.step.get() != p_slot.step.get() + 1
                {
                    violations.push(Violation::StageNotConsecutive { prev: p, next: id });
                }
            }
        }
    }

    // Chaining delay budget per step: longest within-step delay path.
    if let Some(clock) = options.clock {
        // Only effectively single-cycle ops participate; edges within
        // the same step. An op whose delay exceeds the period is
        // multicycled by the clock — it executes sequentially and joins
        // no combinational chain.
        let mut path = vec![0u32; dfg.node_count()];
        let mut worst: BTreeMap<u32, u32> = BTreeMap::new();
        for &id in dfg.topo_order() {
            let Some(slot) = schedule.slot(id) else {
                continue;
            };
            if cycles[id.index()] != 1 {
                continue;
            }
            let d = dfg.node(id).kind().delay(spec).as_u32();
            let mut start = 0u32;
            for &p in dfg.preds(id) {
                if schedule.slot(p).map(|s| s.step) == Some(slot.step) && cycles[p.index()] == 1 {
                    start = start.max(path[p.index()]);
                }
            }
            path[id.index()] = start + d;
            let w = worst.entry(slot.step.get()).or_insert(0);
            *w = (*w).max(path[id.index()]);
        }
        for (step, delay) in worst {
            if delay > clock.as_u32() {
                violations.push(Violation::ChainingOverflow {
                    step: CStep::new(step),
                    delay,
                    clock: clock.as_u32(),
                });
            }
        }
    }

    conflicts(dfg, schedule, &cycles, options.latency, &mut violations);
    violations
}

/// Wrapped 0-based row of control step `s` under an optional latency.
fn wrap(latency: Option<u32>, s: u32) -> u32 {
    match latency {
        Some(l) => (s - 1) % l,
        None => s - 1,
    }
}

/// The scheduled nodes of each unit, as the rows `nodes[start[u]..
/// start[u + 1]]` of a compressed table: units in [`UnitId`] order, each
/// unit's nodes in id order. A counting sort over a dense unit id — the
/// class's rank and the unit index for a single-function unit, then
/// the instance for an ALU. Should the ids be sparse (far more ids than
/// scheduled nodes), they are ranked among the distinct ones first.
fn nodes_by_unit(dfg: &Dfg, schedule: &Schedule) -> (Vec<u32>, Vec<NodeId>) {
    // `unit` holds each node's class rank, then its unit id.
    let (mut classes, mut unit) = dfg.class_ids();
    let fu_class = |slot: Slot| match slot.unit {
        UnitId::Fu { class, .. } => Some(class),
        UnitId::Alu { .. } => None,
    };
    let foreign = |(n, slot): (NodeId, Slot)| {
        fu_class(slot).is_some_and(|class| class != classes[unit[n.index()] as usize])
    };
    if schedule.iter().any(foreign) {
        // A unit of another class than its node's re-ranks the classes.
        classes.extend(schedule.iter().filter_map(|(_, slot)| fu_class(slot)));
        classes.sort_unstable();
        classes.dedup();
        for (n, slot) in schedule.iter() {
            if let Some(class) = fu_class(slot) {
                unit[n.index()] = classes.binary_search(&class).expect("collected above") as u32;
            }
        }
    }
    // A slot's class rank (ALUs rank after every class) and its index
    // within the class.
    let alu = classes.len();
    let key = |rank: u32, slot: Slot| match slot.unit {
        UnitId::Fu { index, .. } => (rank as usize, u64::from(index.get() - 1)),
        UnitId::Alu { instance } => (alu, u64::from(instance)),
    };
    let mut base = vec![0u64; alu + 2];
    for (n, slot) in schedule.iter() {
        let (rank, index) = key(unit[n.index()], slot);
        base[rank + 1] = base[rank + 1].max(index + 1);
    }
    for r in 1..base.len() {
        base[r] += base[r - 1];
    }
    let id = |rank: u32, slot: Slot| {
        let (rank, index) = key(rank, slot);
        base[rank] + index
    };
    let mut units = base[alu + 1];
    if units <= 2 * dfg.node_count() as u64 + 64 {
        for (n, slot) in schedule.iter() {
            unit[n.index()] = id(unit[n.index()], slot) as u32;
        }
    } else {
        let ids: Vec<u64> = schedule
            .iter()
            .map(|(n, slot)| id(unit[n.index()], slot))
            .collect();
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for ((n, _), i) in schedule.iter().zip(&ids) {
            unit[n.index()] = distinct.binary_search(i).expect("an id of its own") as u32;
        }
        units = distinct.len() as u64;
    }
    // Counting sort: row starts from the counts, then each node placed
    // at its row's cursor, which leaves every cursor at the next row's
    // start.
    let mut start = vec![0u32; units as usize + 1];
    for (n, _) in schedule.iter() {
        start[unit[n.index()] as usize + 1] += 1;
    }
    for u in 1..start.len() {
        start[u] += start[u - 1];
    }
    let mut nodes = vec![NodeId::from_index(0); start[units as usize] as usize];
    for (n, _) in schedule.iter() {
        let at = &mut start[unit[n.index()] as usize];
        nodes[*at as usize] = n;
        *at += 1;
    }
    start.rotate_right(1);
    start[0] = 0;
    (start, nodes)
}

/// Resource conflicts: same unit, overlapping (wrapped) spans, not
/// mutually exclusive. Each unit's occupied cells — `(wrapped step,
/// position in the unit's node list)` — are sorted, so the nodes
/// sharing a cell sit side by side and only those pairs are
/// candidates: O(cells · log cells) instead of every pair on the unit.
/// Pairs are reported once each, ordered by unit and then by the two
/// positions — the order of a pairwise scan.
fn resource_conflicts(
    dfg: &Dfg,
    schedule: &Schedule,
    cycles: &[u8],
    latency: Option<u32>,
    violations: &mut Vec<Violation>,
) {
    let mut cells: Vec<(u32, u32)> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let (start, by_unit) = nodes_by_unit(dfg, schedule);
    for unit in start.windows(2) {
        let nodes = &by_unit[unit[0] as usize..unit[1] as usize];
        cells.clear();
        for (i, &n) in nodes.iter().enumerate() {
            let start = schedule.slot(n).expect("in map").step.get();
            for k in 0..cycles[n.index()] as u32 {
                cells.push((wrap(latency, start + k), i as u32));
            }
        }
        // A node longer than the latency revisits its own rows.
        cells.sort_unstable();
        cells.dedup();
        pairs.clear();
        for cell in cells.chunk_by(|x, y| x.0 == y.0) {
            for (k, &(_, i)) in cell.iter().enumerate() {
                pairs.extend(cell[k + 1..].iter().map(|&(_, j)| (i, j)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        for &(i, j) in &pairs {
            let (a, b) = (nodes[i as usize], nodes[j as usize]);
            if !dfg.mutually_exclusive(a, b) {
                violations.push(Violation::ResourceConflict { a, b });
            }
        }
    }
}

/// The pairwise scan [`resource_conflicts`] replaced, kept as the
/// differential reference: the nodes grouped per unit in a map, and
/// every pair on a unit, with a step list per pair.
#[cfg(test)]
fn resource_conflicts_pairwise(
    dfg: &Dfg,
    schedule: &Schedule,
    cycles: &[u8],
    latency: Option<u32>,
    violations: &mut Vec<Violation>,
) {
    let mut by_unit: BTreeMap<UnitId, Vec<NodeId>> = BTreeMap::new();
    for (n, slot) in schedule.iter() {
        by_unit.entry(slot.unit).or_default().push(n);
    }
    for nodes in by_unit.values() {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                if dfg.mutually_exclusive(a, b) {
                    continue;
                }
                let (sa, sb) = (
                    schedule.slot(a).expect("in map"),
                    schedule.slot(b).expect("in map"),
                );
                let ca = cycles[a.index()] as u32;
                let cb = cycles[b.index()] as u32;
                let steps_a: Vec<u32> = (0..ca).map(|k| wrap(latency, sa.step.get() + k)).collect();
                let overlap = (0..cb)
                    .map(|k| wrap(latency, sb.step.get() + k))
                    .any(|s| steps_a.contains(&s));
                if overlap {
                    violations.push(Violation::ResourceConflict { a, b });
                }
            }
        }
    }
}

/// [`verify`] with instrumentation: the check runs as the
/// `schedule.verify` phase span, and the counters
/// `schedule.verify.runs` / `schedule.verify.violations` accumulate in
/// the registry — a cheap health signal for batch harnesses.
pub fn verify_traced(
    dfg: &Dfg,
    schedule: &Schedule,
    spec: &TimingSpec,
    options: VerifyOptions,
    instr: &mut hls_telemetry::Instrument<'_>,
) -> Vec<Violation> {
    instr.span("schedule.verify", |instr| {
        let violations = verify(dfg, schedule, spec, options);
        instr.inc("schedule.verify.runs", 1);
        instr.inc("schedule.verify.violations", violations.len() as u64);
        violations
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuIndex, Slot};
    use hls_celllib::OpKind;
    use hls_dfg::{DfgBuilder, FuClass};

    fn unit(k: OpKind, i: u32) -> UnitId {
        UnitId::Fu {
            class: FuClass::Op(k),
            index: FuIndex::new(i),
        }
    }

    fn pair() -> (Dfg, NodeId, NodeId) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.op("u", OpKind::Add, &[t, x]).unwrap();
        let g = b.finish().unwrap();
        let t = g.node_by_name("t").unwrap();
        let u = g.node_by_name("u").unwrap();
        (g, t, u)
    }

    #[test]
    fn missing_slot_is_reported() {
        let (g, t, u) = pair();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 2);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        let v = verify(&g, &s, &spec, VerifyOptions::default());
        assert_eq!(v, vec![Violation::Unscheduled(u)]);
    }

    #[test]
    fn dependency_violation_is_reported() {
        let (g, t, u) = pair();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 2);
        s.assign(
            t,
            Slot {
                step: CStep::new(2),
                unit: unit(OpKind::Add, 1),
            },
        );
        s.assign(
            u,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 2),
            },
        );
        let v = verify(&g, &s, &spec, VerifyOptions::default());
        assert!(v.contains(&Violation::DependencyOrder { pred: t, succ: u }));
    }

    #[test]
    fn same_step_dependency_needs_chaining() {
        let (g, t, u) = pair();
        let mut s = Schedule::new(&g, 1);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        s.assign(
            u,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 2),
            },
        );
        // Without chaining: violation.
        let spec0 = TimingSpec::uniform_single_cycle();
        let v = verify(&g, &s, &spec0, VerifyOptions::default());
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DependencyOrder { .. })));
        // With chaining and a generous clock: fine.
        let spec = TimingSpec::with_delays();
        let opts = VerifyOptions {
            clock: Some(ClockPeriod::new(200)),
            ..Default::default()
        };
        assert!(verify(&g, &s, &spec, opts).is_empty());
        // With a tight clock: chaining overflow.
        let opts = VerifyOptions {
            clock: Some(ClockPeriod::new(90)),
            ..Default::default()
        };
        let v = verify(&g, &s, &spec, opts);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ChainingOverflow { .. })));
    }

    #[test]
    fn clock_multicycled_ops_join_no_chain() {
        // A 1-cycle op whose delay exceeds the period is multicycled by
        // the clock (effective `⌈delay/T⌉` cycles) — scheduling it alone
        // in a step is not a chaining overflow, matching the effective-
        // cycles rule the schedulers' bounds cache applies.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("m", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let m = g.node_by_name("m").unwrap();
        let spec = TimingSpec::with_delays();
        let delay = g.node(m).kind().delay(&spec).as_u32();
        assert!(delay > 100, "with_delays muls must exceed the clock");
        let mut s = Schedule::new(&g, 2);
        s.assign(
            m,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Mul, 1),
            },
        );
        let opts = VerifyOptions {
            clock: Some(ClockPeriod::new(100)),
            ..Default::default()
        };
        assert!(verify(&g, &s, &spec, opts).is_empty());
    }

    #[test]
    fn clock_multicycled_spans_count_in_effective_cycles() {
        // m (163 ns) occupies steps 1–2 under a 100 ns clock, so an add
        // consuming it cannot start before step 3 — and m alone, or a
        // second mul on its unit at step 2, overruns a 1-step horizon
        // or collides.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Mul, &[x, x]).unwrap();
        b.op("a", OpKind::Add, &[m, x]).unwrap();
        b.op("n", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let (m, a, n) = (
            g.node_by_name("m").unwrap(),
            g.node_by_name("a").unwrap(),
            g.node_by_name("n").unwrap(),
        );
        let spec = TimingSpec::with_delays();
        let opts = VerifyOptions {
            clock: Some(ClockPeriod::new(100)),
            ..Default::default()
        };
        let place = |s: &mut Schedule, node, step, k| {
            s.assign(
                node,
                Slot {
                    step: CStep::new(step),
                    unit: unit(k, 1),
                },
            )
        };
        let mut s = Schedule::new(&g, 3);
        place(&mut s, m, 1, OpKind::Mul);
        place(&mut s, a, 2, OpKind::Add);
        place(&mut s, n, 3, OpKind::Mul);
        let v = verify(&g, &s, &spec, opts);
        assert!(v.contains(&Violation::DependencyOrder { pred: m, succ: a }));
        assert!(v.contains(&Violation::TimeExceeded {
            node: n,
            finish: CStep::new(4)
        }));

        let mut s = Schedule::new(&g, 4);
        place(&mut s, m, 1, OpKind::Mul);
        place(&mut s, n, 2, OpKind::Mul);
        place(&mut s, a, 3, OpKind::Add);
        let v = verify(&g, &s, &spec, opts);
        assert_eq!(v, vec![Violation::ResourceConflict { a: m, b: n }]);
        // Without the clock both muls are single-cycle and the schedule
        // is sound.
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
    }

    #[test]
    fn resource_conflicts_are_reported() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a", OpKind::Add, &[x, x]).unwrap();
        b.op("b", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 2);
        s.assign(
            a,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        s.assign(
            bb,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        let v = verify(&g, &s, &spec, VerifyOptions::default());
        assert_eq!(v, vec![Violation::ResourceConflict { a, b: bb }]);
    }

    #[test]
    fn exclusive_ops_may_share_a_unit_and_step() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        b.op("a", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        b.op("b", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 1);
        s.assign(
            a,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        s.assign(
            bb,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
    }

    #[test]
    fn latency_wrap_finds_modulo_conflicts() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a", OpKind::Add, &[x, x]).unwrap();
        b.op("b", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 4);
        s.assign(
            a,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        s.assign(
            bb,
            Slot {
                step: CStep::new(3),
                unit: unit(OpKind::Add, 1),
            },
        );
        assert!(verify(&g, &s, &spec, VerifyOptions::default()).is_empty());
        let opts = VerifyOptions {
            latency: Some(2),
            ..Default::default()
        };
        let v = verify(&g, &s, &spec, opts);
        assert_eq!(v, vec![Violation::ResourceConflict { a, b: bb }]);
    }

    #[test]
    fn time_overrun_is_reported() {
        let (g, t, u) = pair();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 1);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Add, 1),
            },
        );
        s.assign(
            u,
            Slot {
                step: CStep::new(2),
                unit: unit(OpKind::Add, 1),
            },
        );
        let v = verify(&g, &s, &spec, VerifyOptions::default());
        assert!(v.contains(&Violation::TimeExceeded {
            node: u,
            finish: CStep::new(2)
        }));
    }

    #[test]
    fn wrong_unit_class_is_reported() {
        let (g, t, u) = pair();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 2);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Mul, 1),
            },
        );
        s.assign(
            u,
            Slot {
                step: CStep::new(2),
                unit: unit(OpKind::Add, 1),
            },
        );
        let v = verify(&g, &s, &spec, VerifyOptions::default());
        assert_eq!(v, vec![Violation::UnitClassMismatch { node: t }]);
    }

    #[test]
    fn multicycle_overlap_is_a_conflict() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a", OpKind::Mul, &[x, x]).unwrap();
        b.op("b", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let mut s = Schedule::new(&g, 3);
        s.assign(
            a,
            Slot {
                step: CStep::new(1),
                unit: unit(OpKind::Mul, 1),
            },
        );
        s.assign(
            bb,
            Slot {
                step: CStep::new(2),
                unit: unit(OpKind::Mul, 1),
            },
        );
        let v = verify(&g, &s, &spec, VerifyOptions::default());
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::ResourceConflict { .. }));
    }

    /// Differential: the cell-bucketed conflict finder against the
    /// pairwise reference, on perturbed schedules.
    mod differential {
        use super::*;
        use hls_benchmarks::generate::{generate, GeneratorConfig};
        use hls_dfg::CriticalPath;
        use proptest::prelude::*;

        /// SplitMix64: the perturbation stream.
        struct Mix(u64);

        impl Mix {
            fn below(&mut self, n: u32) -> u32 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % u64::from(n.max(1))) as u32
            }
        }

        /// An ASAP schedule — each node on the next unit of its class
        /// not yet used in its start step (`alu`: one shared ALU pool,
        /// the way MFSA binds) — with `moves` nodes then moved to a
        /// random step and one of three units, and every 32nd node left
        /// unscheduled. Small unit pools and a short horizon make cells
        /// collide, and branchy graphs make some colliding nodes
        /// mutually exclusive. `odd` moves further nodes to unit
        /// indices past 2²⁰ (sparse unit ids) and, for single-function
        /// units, to a stage class no node has.
        fn perturbed(
            dfg: &Dfg,
            spec: &TimingSpec,
            alu: bool,
            moves: u32,
            odd: u32,
            seed: u64,
        ) -> Schedule {
            let cp = CriticalPath::compute(dfg, spec).steps() as u32;
            let mut s = Schedule::new(dfg, cp + 1);
            let asap = crate::asap(dfg, spec);
            let mut used: BTreeMap<(u32, Option<FuClass>), u32> = BTreeMap::new();
            let mut rng = Mix(seed);
            for (id, node) in dfg.nodes() {
                if id.index() % 32 == 31 {
                    continue;
                }
                let step = asap[id.index()].get();
                let class = node.kind().fu_class();
                let next = used.entry((step, (!alu).then_some(class))).or_insert(0);
                *next += 1;
                let unit = if alu {
                    UnitId::Alu {
                        instance: *next - 1,
                    }
                } else {
                    UnitId::Fu {
                        class,
                        index: FuIndex::new(*next),
                    }
                };
                s.assign(
                    id,
                    Slot {
                        step: CStep::new(step),
                        unit,
                    },
                );
            }
            let n = dfg.node_count() as u32;
            for _ in 0..moves {
                let id = NodeId::from_index(rng.below(n) as usize);
                let step = CStep::new(1 + rng.below(cp + 2));
                let k = rng.below(3);
                let unit = if alu {
                    UnitId::Alu { instance: k }
                } else {
                    UnitId::Fu {
                        class: dfg.node(id).kind().fu_class(),
                        index: FuIndex::new(k + 1),
                    }
                };
                s.assign(id, Slot { step, unit });
            }
            for _ in 0..odd {
                let id = NodeId::from_index(rng.below(n) as usize);
                let step = CStep::new(1 + rng.below(cp + 2));
                let index = (1 << 20) + rng.below(2);
                let unit = if alu {
                    UnitId::Alu { instance: index }
                } else {
                    let class = match rng.below(2) {
                        0 => dfg.node(id).kind().fu_class(),
                        _ => FuClass::Stage {
                            base: OpKind::Mul,
                            index: 1,
                        },
                    };
                    UnitId::Fu {
                        class,
                        index: FuIndex::new(index + rng.below(2)),
                    }
                };
                s.assign(id, Slot { step, unit });
            }
            s
        }

        proptest! {
            #![proptest_config(ProptestConfig::default())]

            #[test]
            fn bucketed_conflicts_match_the_pairwise_scan(
                shape in (1u64..10_000, 2usize..7, 2usize..9, 0u32..90),
                spec_kind in 0u8..3,
                latency in 0u32..5,
                alu in 0u8..2,
                moves in 0u32..40,
                odd in 0u32..4,
                seed in 0u64..u64::MAX,
            ) {
                let (gseed, layers, width, branch_pct) = shape;
                let dfg = generate(&GeneratorConfig {
                    seed: gseed,
                    layers,
                    width,
                    branch_pct,
                    ..GeneratorConfig::default()
                });
                let (spec, clock) = match spec_kind {
                    0 => (TimingSpec::uniform_single_cycle(), None),
                    1 => (TimingSpec::two_cycle_multiply(), None),
                    _ => (TimingSpec::with_delays(), Some(ClockPeriod::new(100))),
                };
                let s = perturbed(&dfg, &spec, alu == 1, moves, odd, seed);
                // Latency 1 wraps every multi-cycle span onto itself.
                let options = VerifyOptions {
                    latency: (latency > 0).then_some(latency),
                    clock,
                };
                let cycles: Vec<u8> = dfg
                    .nodes()
                    .map(|(_, n)| effective_cycles(n.kind().cycles(&spec), n.kind().delay(&spec), clock))
                    .collect();
                let (mut bucketed, mut pairwise) = (Vec::new(), Vec::new());
                resource_conflicts(&dfg, &s, &cycles, options.latency, &mut bucketed);
                resource_conflicts_pairwise(&dfg, &s, &cycles, options.latency, &mut pairwise);
                prop_assert_eq!(bucketed, pairwise);
                prop_assert_eq!(
                    verify_with(&dfg, &s, &spec, options, resource_conflicts),
                    verify_with(&dfg, &s, &spec, options, resource_conflicts_pairwise)
                );
            }
        }

        #[test]
        fn the_perturbations_exercise_conflicts_and_shared_cells() {
            // Guard the generator: the differential must see conflicts,
            // wrapped spans and exclusive nodes sharing a cell.
            let dfg = generate(&GeneratorConfig {
                seed: 3,
                layers: 5,
                width: 8,
                branch_pct: 80,
                ..GeneratorConfig::default()
            });
            let spec = TimingSpec::two_cycle_multiply();
            let s = perturbed(&dfg, &spec, false, 30, 0, 7);
            let cycles: Vec<u8> = dfg.nodes().map(|(_, n)| n.kind().cycles(&spec)).collect();
            let mut found = Vec::new();
            resource_conflicts(&dfg, &s, &cycles, Some(2), &mut found);
            assert!(found.len() > 3, "{found:?}");
            let shared = dfg.node_ids().any(|a| {
                dfg.node_ids().any(|b| {
                    dfg.mutually_exclusive(a, b) && s.slot(a).is_some_and(|x| s.slot(b) == Some(x))
                })
            });
            assert!(shared, "no exclusive pair shares a cell");
        }
    }
}
