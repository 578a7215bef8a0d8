//! Control steps, units and the schedule container.

use std::collections::BTreeMap;
use std::fmt;

use hls_celllib::{effective_cycles, ClockPeriod, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};

/// A 1-based control step (`y` coordinate of the paper's placement
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CStep(u32);

impl CStep {
    /// The first control step.
    pub const FIRST: CStep = CStep(1);

    /// Creates a control step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero — steps are 1-based, as in the paper.
    pub fn new(step: u32) -> Self {
        assert!(step >= 1, "control steps are 1-based");
        CStep(step)
    }

    /// The raw 1-based value.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The step `delta` cycles later.
    pub fn offset(self, delta: u32) -> CStep {
        CStep(self.0 + delta)
    }

    /// The last step occupied by an operation of `cycles` cycles that
    /// starts here.
    pub fn finish(self, cycles: u8) -> CStep {
        CStep(self.0 + cycles as u32 - 1)
    }

    /// The previous step, or `None` at step 1.
    pub fn prev(self) -> Option<CStep> {
        (self.0 > 1).then(|| CStep(self.0 - 1))
    }
}

impl fmt::Display for CStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A 1-based functional-unit column index (`x` coordinate of the paper's
/// placement table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuIndex(u32);

impl FuIndex {
    /// The first column.
    pub const FIRST: FuIndex = FuIndex(1);

    /// Creates a column index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero — columns are 1-based, as in the paper.
    pub fn new(index: u32) -> Self {
        assert!(index >= 1, "FU indices are 1-based");
        FuIndex(index)
    }

    /// The raw 1-based value.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FuIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// The hardware unit an operation is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitId {
    /// MFS binding: the `index`-th single-function unit of `class`.
    Fu {
        /// The functional-unit class ("type j").
        class: FuClass,
        /// 1-based unit index within the class.
        index: FuIndex,
    },
    /// MFSA binding: a concrete (possibly multifunction) ALU instance,
    /// numbered globally across the data path.
    Alu {
        /// 0-based global ALU instance number.
        instance: u32,
    },
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitId::Fu { class, index } => write!(f, "{class}[{}]", index.get()),
            UnitId::Alu { instance } => write!(f, "ALU{instance}"),
        }
    }
}

/// One operation's placement: the step its first cycle executes in, plus
/// the unit it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// Start control step.
    pub step: CStep,
    /// Bound hardware unit.
    pub unit: UnitId,
}

/// A (partial or complete) schedule: per-operation slots within a fixed
/// number of control steps.
///
/// Produced by MFS, MFSA and all baselines; consumed by the verifier,
/// the statistics helpers, the RTL builder and the renderers.
///
/// ```
/// use hls_celllib::OpKind;
/// use hls_dfg::{DfgBuilder, FuClass};
/// use hls_schedule::{CStep, FuIndex, Schedule, Slot, UnitId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// let _t = b.op("t", OpKind::Inc, &[x])?;
/// let dfg = b.finish()?;
/// let t = dfg.node_by_name("t").unwrap();
///
/// let mut sched = Schedule::new(&dfg, 3);
/// assert!(!sched.is_complete());
/// sched.assign(t, Slot {
///     step: CStep::new(2),
///     unit: UnitId::Fu { class: FuClass::Op(OpKind::Inc), index: FuIndex::new(1) },
/// });
/// assert!(sched.is_complete());
/// assert_eq!(sched.start(t), Some(CStep::new(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    cs: u32,
    node_count: usize,
    /// `NodeId`-indexed slots (`node_count` entries) — O(1) lookup and
    /// assignment; iteration in index order matches the previous
    /// `BTreeMap<NodeId, _>` key order exactly.
    slots: Vec<Option<Slot>>,
    assigned: usize,
}

impl Schedule {
    /// An empty schedule for `dfg` over `cs` control steps.
    ///
    /// # Panics
    ///
    /// Panics if `cs` is zero.
    pub fn new(dfg: &Dfg, cs: u32) -> Self {
        assert!(cs >= 1, "a schedule needs at least one control step");
        Schedule {
            cs,
            node_count: dfg.node_count(),
            slots: vec![None; dfg.node_count()],
            assigned: 0,
        }
    }

    /// The time constraint (total control steps).
    pub fn control_steps(&self) -> u32 {
        self.cs
    }

    /// Assigns (or reassigns) a slot to `node`.
    pub fn assign(&mut self, node: NodeId, slot: Slot) {
        if self.slots[node.index()].replace(slot).is_none() {
            self.assigned += 1;
        }
    }

    /// Removes `node`'s slot (local rescheduling).
    pub fn unassign(&mut self, node: NodeId) -> Option<Slot> {
        let old = self.slots[node.index()].take();
        if old.is_some() {
            self.assigned -= 1;
        }
        old
    }

    /// The slot of `node`, if assigned.
    pub fn slot(&self, node: NodeId) -> Option<Slot> {
        self.slots[node.index()]
    }

    /// The start step of `node`, if assigned.
    pub fn start(&self, node: NodeId) -> Option<CStep> {
        self.slot(node).map(|s| s.step)
    }

    /// The last step occupied by `node` under `spec`, if assigned.
    pub fn finish(&self, node: NodeId, dfg: &Dfg, spec: &TimingSpec) -> Option<CStep> {
        self.slot(node)
            .map(|s| s.step.finish(dfg.node(node).kind().cycles(spec)))
    }

    /// The number of control steps actually used: the last finish step
    /// over every assigned operation (0 for an empty schedule). Under a
    /// chaining `clock` an operation whose delay exceeds the period
    /// spans its [`effective_cycles`], as in the verifier.
    pub fn steps_used(&self, dfg: &Dfg, spec: &TimingSpec, clock: Option<ClockPeriod>) -> u32 {
        self.iter()
            .map(|(node, slot)| {
                let kind = dfg.node(node).kind();
                let cycles = effective_cycles(kind.cycles(spec), kind.delay(spec), clock);
                slot.step.finish(cycles).get()
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether every operation has a slot.
    pub fn is_complete(&self) -> bool {
        self.assigned == self.node_count
    }

    /// Number of assigned operations.
    pub fn assigned_count(&self) -> usize {
        self.assigned
    }

    /// Iterates `(node, slot)` over assigned operations in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (NodeId::from_index(i), s)))
    }

    /// The number of distinct ALU instances bound (MFSA schedules).
    pub fn alu_instance_count(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for (_, slot) in self.iter() {
            if let UnitId::Alu { instance } = slot.unit {
                set.insert(instance);
            }
        }
        set.len()
    }

    /// Per-class highest bound FU index (MFS schedules): the number of
    /// functional units of each type the schedule requires.
    pub fn fu_counts(&self) -> BTreeMap<FuClass, u32> {
        let mut counts = BTreeMap::new();
        for (_, slot) in self.iter() {
            if let UnitId::Fu { class, index } = slot.unit {
                let entry = counts.entry(class).or_insert(0);
                *entry = (*entry).max(index.get());
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    fn graph() -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let t = b.op("t", OpKind::Mul, &[x, x]).unwrap();
        b.op("u", OpKind::Add, &[t, x]).unwrap();
        b.finish().unwrap()
    }

    fn fu(class: FuClass, index: u32) -> UnitId {
        UnitId::Fu {
            class,
            index: FuIndex::new(index),
        }
    }

    #[test]
    fn assign_and_query() {
        let g = graph();
        let t = g.node_by_name("t").unwrap();
        let mut s = Schedule::new(&g, 4);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: fu(FuClass::Op(OpKind::Mul), 1),
            },
        );
        assert_eq!(s.start(t), Some(CStep::new(1)));
        assert_eq!(s.assigned_count(), 1);
        assert!(!s.is_complete());
    }

    #[test]
    fn finish_accounts_for_multicycle() {
        let g = graph();
        let t = g.node_by_name("t").unwrap();
        let mut s = Schedule::new(&g, 4);
        s.assign(
            t,
            Slot {
                step: CStep::new(2),
                unit: fu(FuClass::Op(OpKind::Mul), 1),
            },
        );
        let spec = hls_celllib::TimingSpec::two_cycle_multiply();
        assert_eq!(s.finish(t, &g, &spec), Some(CStep::new(3)));
    }

    #[test]
    fn unassign_supports_rescheduling() {
        let g = graph();
        let t = g.node_by_name("t").unwrap();
        let mut s = Schedule::new(&g, 4);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: fu(FuClass::Op(OpKind::Mul), 1),
            },
        );
        assert!(s.unassign(t).is_some());
        assert_eq!(s.start(t), None);
        assert!(s.unassign(t).is_none());
    }

    #[test]
    fn fu_counts_take_max_index() {
        let g = graph();
        let t = g.node_by_name("t").unwrap();
        let u = g.node_by_name("u").unwrap();
        let mut s = Schedule::new(&g, 4);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: fu(FuClass::Op(OpKind::Mul), 2),
            },
        );
        s.assign(
            u,
            Slot {
                step: CStep::new(2),
                unit: fu(FuClass::Op(OpKind::Add), 1),
            },
        );
        let counts = s.fu_counts();
        assert_eq!(counts[&FuClass::Op(OpKind::Mul)], 2);
        assert_eq!(counts[&FuClass::Op(OpKind::Add)], 1);
    }

    #[test]
    fn alu_instances_are_counted_distinctly() {
        let g = graph();
        let t = g.node_by_name("t").unwrap();
        let u = g.node_by_name("u").unwrap();
        let mut s = Schedule::new(&g, 4);
        s.assign(
            t,
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        s.assign(
            u,
            Slot {
                step: CStep::new(2),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        assert_eq!(s.alu_instance_count(), 1);
    }

    #[test]
    fn cstep_helpers() {
        let s = CStep::new(3);
        assert_eq!(s.finish(1), CStep::new(3));
        assert_eq!(s.finish(2), CStep::new(4));
        assert_eq!(s.offset(2), CStep::new(5));
        assert_eq!(s.prev(), Some(CStep::new(2)));
        assert_eq!(CStep::FIRST.prev(), None);
        assert_eq!(s.to_string(), "t3");
    }

    #[test]
    fn unit_display() {
        assert_eq!(UnitId::Alu { instance: 3 }.to_string(), "ALU3");
        let u = fu(FuClass::Op(OpKind::Mul), 2);
        assert_eq!(u.to_string(), "*[2]");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_step_panics() {
        let _ = CStep::new(0);
    }
}
