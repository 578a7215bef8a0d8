//! Operation nodes and functional-unit classes.

use std::fmt;

use hls_celllib::{Delay, OpKind, TimingSpec};

use crate::memory::{ArrayId, BankId};
use crate::name::Name;
use crate::signal::{BranchPath, SignalId};

/// Identifier of a [`Node`] within one [`crate::Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from [`NodeId::index`] — for dense, index-addressed
    /// side tables (schedules, grids, bound caches). The caller is
    /// responsible for only using indices obtained from the same graph.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a loop region (used by loop folding, paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub(crate) u32);

impl LoopId {
    /// Creates a loop id.
    pub fn new(raw: u32) -> Self {
        LoopId(raw)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// What a node computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An ordinary operation.
    Op(OpKind),
    /// One stage of a structurally pipelined multi-cycle operation
    /// (paper §5.5.1): stage `index` of `of` of a pipelined `base` unit.
    /// Stage nodes are produced by
    /// [`crate::transform::expand_structural_stages`] and "represent
    /// different stages of a multi-stage pipelined functional unit".
    Stage {
        /// The operation being pipelined (e.g. `Mul`).
        base: OpKind,
        /// Zero-based stage index.
        index: u8,
        /// Total number of stages.
        of: u8,
    },
    /// A folded inner loop treated "as a single operation with an
    /// execution time that is equal to the loop's local time constraint"
    /// (paper §5.2).
    LoopBody {
        /// The folded loop.
        loop_id: LoopId,
        /// Its local time constraint in control steps.
        cycles: u8,
    },
    /// A memory read `load a[i]`: input 0 is the index signal; further
    /// inputs are ordering tokens from earlier stores to the same array.
    /// Scheduled on a port of the array's bank ([`FuClass::Mem`]).
    Load {
        /// The array being read.
        array: ArrayId,
        /// The bank the array lives in (denormalised from the array
        /// declaration so [`NodeKind::fu_class`] needs no graph access).
        bank: BankId,
    },
    /// A memory write `store a[i] = v`: input 0 is the index signal,
    /// input 1 the stored value; further inputs are ordering tokens from
    /// earlier accesses to the same array. The output signal carries the
    /// stored value (and serves as the ordering token for later
    /// accesses).
    Store {
        /// The array being written.
        array: ArrayId,
        /// The bank the array lives in.
        bank: BankId,
    },
}

impl NodeKind {
    /// The plain operation kind, when the node is an ordinary op.
    pub fn op(self) -> Option<OpKind> {
        match self {
            NodeKind::Op(k) => Some(k),
            _ => None,
        }
    }

    /// Control steps this node occupies under `spec`.
    pub fn cycles(self, spec: &TimingSpec) -> u8 {
        match self {
            NodeKind::Op(k) => spec.cycles(k),
            NodeKind::Stage { .. } => 1,
            NodeKind::LoopBody { cycles, .. } => cycles,
            // One step per access: the bank is synchronous single-cycle.
            NodeKind::Load { .. } | NodeKind::Store { .. } => 1,
        }
    }

    /// Combinational delay of the node under `spec` (used by chaining).
    pub fn delay(self, spec: &TimingSpec) -> Delay {
        match self {
            NodeKind::Op(k) => spec.delay(k),
            // A pipeline stage occupies a full step by construction.
            NodeKind::Stage { .. } => Delay::ZERO,
            NodeKind::LoopBody { .. } => Delay::ZERO,
            // Accesses occupy their full step; they never chain.
            NodeKind::Load { .. } | NodeKind::Store { .. } => Delay::ZERO,
        }
    }

    /// The functional-unit class ("type j" in the paper's 3-D placement
    /// space) this node is scheduled on.
    pub fn fu_class(self) -> FuClass {
        match self {
            NodeKind::Op(k) => FuClass::Op(k),
            NodeKind::Stage { base, index, .. } => FuClass::Stage { base, index },
            NodeKind::LoopBody { loop_id, .. } => FuClass::Loop(loop_id),
            NodeKind::Load { bank, .. } | NodeKind::Store { bank, .. } => FuClass::Mem(bank),
        }
    }

    /// The accessed array, when the node is a load or store.
    pub fn array(self) -> Option<ArrayId> {
        match self {
            NodeKind::Load { array, .. } | NodeKind::Store { array, .. } => Some(array),
            _ => None,
        }
    }

    /// Whether the node is a memory access (load or store).
    pub fn is_mem_access(self) -> bool {
        matches!(self, NodeKind::Load { .. } | NodeKind::Store { .. })
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Op(k) => write!(f, "{k}"),
            NodeKind::Stage { base, index, of } => write!(f, "{base}#{}/{of}", index + 1),
            NodeKind::LoopBody { loop_id, cycles } => write!(f, "{loop_id}[{cycles}]"),
            NodeKind::Load { array, .. } => write!(f, "ld:{array}"),
            NodeKind::Store { array, .. } => write!(f, "st:{array}"),
        }
    }
}

/// A functional-unit *type*: one 2-D placement table of the paper's 3-D
/// space. Ordinary ops map to their operator; structural pipeline stages
/// map to per-stage classes ("single-cycle operations of different
/// types", §5.5.1); folded loops get a dedicated class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Functional units performing one operator.
    Op(OpKind),
    /// Stage `index` of a pipelined `base` unit.
    Stage {
        /// The pipelined operator.
        base: OpKind,
        /// Zero-based stage index.
        index: u8,
    },
    /// The datapath of a folded loop.
    Loop(LoopId),
    /// The access ports of a memory bank: "unit" `k` of this class is
    /// the bank's `k`-th port, and the bank's declared port count is a
    /// hard column budget (ports cannot be synthesised on demand).
    Mem(BankId),
}

impl FuClass {
    /// The underlying operator for `Op` and `Stage` classes.
    pub fn base_op(self) -> Option<OpKind> {
        match self {
            FuClass::Op(k) => Some(k),
            FuClass::Stage { base, .. } => Some(base),
            FuClass::Loop(_) | FuClass::Mem(_) => None,
        }
    }

    /// The bank for `Mem` classes.
    pub fn bank(self) -> Option<BankId> {
        match self {
            FuClass::Mem(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuClass::Op(k) => write!(f, "{k}"),
            FuClass::Stage { base, index } => write!(f, "{base}#{}", index + 1),
            FuClass::Loop(id) => write!(f, "{id}"),
            FuClass::Mem(id) => write!(f, "mem:{id}"),
        }
    }
}

/// A node's operand list: up to two ids inline — every operator — and
/// longer lists (memory accesses with ordering tokens, folded loops) on
/// the heap. Reads as a slice; compares and prints like one.
#[derive(Clone)]
pub(crate) enum Operands {
    Inline(u8, [SignalId; 2]),
    Heap(Box<[SignalId]>),
}

impl Operands {
    pub(crate) fn new(ids: &[SignalId]) -> Self {
        match *ids {
            [] => Operands::Inline(0, [SignalId(0); 2]),
            [a] => Operands::Inline(1, [a, SignalId(0)]),
            [a, b] => Operands::Inline(2, [a, b]),
            _ => Operands::Heap(ids.into()),
        }
    }
}

impl From<Vec<SignalId>> for Operands {
    fn from(ids: Vec<SignalId>) -> Self {
        if ids.len() <= 2 {
            Operands::new(&ids)
        } else {
            Operands::Heap(ids.into_boxed_slice())
        }
    }
}

impl std::ops::Deref for Operands {
    type Target = [SignalId];

    fn deref(&self) -> &[SignalId] {
        match self {
            Operands::Inline(n, ids) => &ids[..*n as usize],
            Operands::Heap(ids) => ids,
        }
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One operation node of the DFG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub(crate) name: Name,
    pub(crate) kind: NodeKind,
    pub(crate) inputs: Operands,
    pub(crate) output: SignalId,
    pub(crate) branch: BranchPath,
    pub(crate) loop_id: Option<LoopId>,
}

impl Node {
    /// The node's behavioural name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// What the node computes.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Input signals, in operand order (1 or 2 entries).
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// The produced signal.
    pub fn output(&self) -> SignalId {
        self.output
    }

    /// Conditional context (for mutual exclusion).
    pub fn branch(&self) -> &BranchPath {
        &self.branch
    }

    /// The loop region containing this node, if any.
    pub fn loop_id(&self) -> Option<LoopId> {
        self.loop_id
    }

    /// Whether this node and `other` are mutually exclusive (different
    /// arms of a common conditional) and may therefore share a position.
    pub fn excludes(&self, other: &Node) -> bool {
        self.branch.excludes(&other.branch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cycles_follow_timing_spec() {
        let spec = TimingSpec::two_cycle_multiply();
        assert_eq!(NodeKind::Op(OpKind::Mul).cycles(&spec), 2);
        assert_eq!(NodeKind::Op(OpKind::Add).cycles(&spec), 1);
    }

    #[test]
    fn stage_nodes_are_single_cycle() {
        let spec = TimingSpec::two_cycle_multiply();
        let stage = NodeKind::Stage {
            base: OpKind::Mul,
            index: 0,
            of: 2,
        };
        assert_eq!(stage.cycles(&spec), 1);
    }

    #[test]
    fn loop_body_cycles_are_fixed() {
        let spec = TimingSpec::uniform_single_cycle();
        let body = NodeKind::LoopBody {
            loop_id: LoopId(0),
            cycles: 5,
        };
        assert_eq!(body.cycles(&spec), 5);
    }

    #[test]
    fn fu_class_separates_stages() {
        let s0 = NodeKind::Stage {
            base: OpKind::Mul,
            index: 0,
            of: 2,
        };
        let s1 = NodeKind::Stage {
            base: OpKind::Mul,
            index: 1,
            of: 2,
        };
        assert_ne!(s0.fu_class(), s1.fu_class());
        assert_ne!(s0.fu_class(), NodeKind::Op(OpKind::Mul).fu_class());
        assert_eq!(s0.fu_class().base_op(), Some(OpKind::Mul));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeKind::Op(OpKind::Add).to_string(), "+");
        let s = NodeKind::Stage {
            base: OpKind::Mul,
            index: 1,
            of: 2,
        };
        assert_eq!(s.to_string(), "*#2/2");
        let l = NodeKind::LoopBody {
            loop_id: LoopId(3),
            cycles: 4,
        };
        assert_eq!(l.to_string(), "L3[4]");
        assert_eq!(FuClass::Op(OpKind::Add).to_string(), "+");
    }

    #[test]
    fn operands_read_print_and_compare_like_the_slice() {
        for n in 0..4u32 {
            let ids: Vec<SignalId> = (0..n).map(SignalId).collect();
            let ops = Operands::from(ids.clone());
            assert_eq!(&*ops, ids.as_slice());
            assert_eq!(format!("{ops:?}"), format!("{ids:?}"));
            assert_eq!(format!("{ops:#?}"), format!("{ids:#?}"));
            assert!(ops == Operands::new(&ids));
        }
    }
}
