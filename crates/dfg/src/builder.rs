//! Fluent construction of data-flow graphs.

use std::collections::BTreeMap;

use hls_celllib::OpKind;

use crate::graph::LoopRegion;
use crate::memory::{ArrayDecl, ArrayId, BankDecl, BankId, MemoryDecls};
use crate::name::{Binding, Name, NameTable, Span};
use crate::node::{LoopId, Node, NodeId, NodeKind, Operands};
use crate::signal::{BranchArm, BranchId, BranchPath, Signal, SignalId, SignalSource};
use crate::{Dfg, DfgError};

/// Per-array access-ordering state: the token signals the next access
/// must consume to preserve RAW/WAW/WAR order.
#[derive(Debug, Clone, Default)]
struct MemOrder {
    /// Output of the latest store (RAW for loads, WAW for stores).
    last_store: Option<SignalId>,
    /// Outputs of loads issued since the latest store (WAR for stores).
    loads_since: Vec<SignalId>,
}

/// What a declared name refers to: names share one namespace across
/// signals, banks and arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Declared {
    Signal(SignalId),
    Bank(BankId),
    Array(ArrayId),
}

/// Incremental builder for [`Dfg`] values.
///
/// Operations are added in behavioural order; conditional arms and loop
/// regions are entered/exited with a stack discipline:
///
/// ```
/// use hls_celllib::OpKind;
/// use hls_dfg::DfgBuilder;
///
/// # fn main() -> Result<(), hls_dfg::DfgError> {
/// let mut b = DfgBuilder::new("cond");
/// let x = b.input("x");
/// let y = b.input("y");
/// let branch = b.begin_branch();
/// b.enter_arm(branch, 0);
/// let t = b.op("t", OpKind::Add, &[x, y])?;
/// b.exit_arm();
/// b.enter_arm(branch, 1);
/// let e = b.op("e", OpKind::Sub, &[x, y])?;
/// b.exit_arm();
/// let _m = b.op("m", OpKind::Or, &[t, e])?;
/// let dfg = b.finish()?;
/// let t = dfg.node_by_name("t").unwrap();
/// let e = dfg.node_by_name("e").unwrap();
/// assert!(dfg.mutually_exclusive(t, e));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DfgBuilder {
    name: String,
    nodes: Vec<Node>,
    signals: Vec<Signal>,
    loops: Vec<LoopRegion>,
    memory: MemoryDecls,
    mem_order: BTreeMap<ArrayId, MemOrder>,
    /// Every name, stored once: the graph's future name arena and the
    /// one keyed index every lookup by name goes through.
    names: NameTable,
    next_branch: u32,
    branch_stack: Vec<BranchArm>,
    loop_stack: Vec<LoopId>,
}

impl DfgBuilder {
    /// Starts an empty graph named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder::with_names(name.into(), NameTable::default())
    }

    /// Starts an empty graph whose names begin with the ones a parser
    /// has already claimed.
    pub(crate) fn with_names(name: String, names: NameTable) -> Self {
        DfgBuilder {
            name,
            nodes: Vec::new(),
            signals: Vec::new(),
            loops: Vec::new(),
            memory: MemoryDecls::default(),
            mem_order: BTreeMap::new(),
            names,
            next_branch: 0,
            branch_stack: Vec::new(),
            loop_stack: Vec::new(),
        }
    }

    /// Reserves room for `nodes` more nodes and `signals` more signals
    /// (whose names a parser has already entered).
    pub(crate) fn reserve(&mut self, nodes: usize, signals: usize) {
        self.nodes.reserve(nodes);
        self.signals.reserve(signals);
    }

    /// Whether `name` is already taken (signal, bank or array).
    pub fn has_name(&self, name: &str) -> bool {
        self.names.get(name).is_some()
    }

    /// What `name` is built as, if anything visible.
    pub(crate) fn lookup(&self, name: &str) -> Option<Declared> {
        self.lookup_at(self.names.get(name)?)
    }

    /// What name-table entry `entry` is built as, if anything visible.
    fn lookup_at(&self, entry: u32) -> Option<Declared> {
        match self.names.binding(entry) {
            Binding::Built(what) => Some(what),
            _ => None,
        }
    }

    /// The name of name-table entry `entry`.
    pub(crate) fn name_at(&self, entry: u32) -> &str {
        self.names.name(entry)
    }

    /// The signal name-table entry `entry` stands for, if it is built
    /// and visible.
    pub(crate) fn signal_at(&self, entry: u32) -> Option<SignalId> {
        match self.lookup_at(entry)? {
            Declared::Signal(id) => Some(id),
            _ => None,
        }
    }

    /// Claims a declaration of the text being parsed (see
    /// [`NameTable::declare`]).
    pub(crate) fn declare(&mut self, name: &str) -> Result<(), DfgError> {
        self.names.declare(name).map(drop)
    }

    /// The port count of a declared bank.
    pub(crate) fn bank_ports(&self, id: BankId) -> u32 {
        self.memory.banks[id.index()].ports
    }

    /// The element count of a declared array.
    pub(crate) fn array_size(&self, id: ArrayId) -> u32 {
        self.memory.arrays[id.index()].size
    }

    fn next_signal(&self) -> SignalId {
        SignalId(self.signals.len() as u32)
    }

    /// Adds an input or constant signal under its claimed name.
    fn external(&mut self, span: Span, source: SignalSource) -> SignalId {
        let id = self.next_signal();
        self.signals.push(Signal {
            name: Name::unbound(span),
            source,
        });
        id
    }

    /// Adds the input or constant a parser entered in the name table as
    /// `entry`.
    ///
    /// # Errors
    ///
    /// [`DfgError::DuplicateName`] if something is built under its name.
    pub(crate) fn external_at(
        &mut self,
        entry: u32,
        source: SignalSource,
    ) -> Result<SignalId, DfgError> {
        let what = Binding::Built(Declared::Signal(self.next_signal()));
        let span = self.names.claim_at(entry, what)?;
        Ok(self.external(span, source))
    }

    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken; inputs are declared first and
    /// a clash is a programming error in the caller's benchmark code.
    pub fn input(&mut self, name: &str) -> SignalId {
        let what = Binding::Built(Declared::Signal(self.next_signal()));
        let span = self
            .names
            .claim(name, what)
            .unwrap_or_else(|e| panic!("input: {e}"));
        self.external(span, SignalSource::PrimaryInput)
    }

    /// Declares a named constant.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (see [`DfgBuilder::input`]).
    pub fn constant(&mut self, name: &str, value: i64) -> SignalId {
        let what = Binding::Built(Declared::Signal(self.next_signal()));
        let span = self
            .names
            .claim(name, what)
            .unwrap_or_else(|e| panic!("constant: {e}"));
        self.external(span, SignalSource::Constant(value))
    }

    /// Adds a constant that [`DfgBuilder::lookup`] does not see: the
    /// parser's constant for a literal array index.
    pub(crate) fn hidden_constant(&mut self, name: &str, value: i64) -> Result<SignalId, DfgError> {
        let span = self.names.claim(name, Binding::Hidden)?;
        Ok(self.external(span, SignalSource::Constant(value)))
    }

    /// Adds an operation node named `name` computing `kind` over
    /// `inputs`; returns its output signal (also named `name`).
    ///
    /// # Errors
    ///
    /// [`DfgError::DuplicateName`] if `name` is taken;
    /// [`DfgError::ArityMismatch`] if `inputs.len()` ≠ the operator's
    /// arity; [`DfgError::ForeignSignal`] if an input id is out of range.
    pub fn op(
        &mut self,
        name: &str,
        kind: OpKind,
        inputs: &[SignalId],
    ) -> Result<SignalId, DfgError> {
        if inputs.len() != kind.arity() {
            return Err(DfgError::ArityMismatch {
                node: name.to_string(),
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        self.raw_node(name, NodeKind::Op(kind), inputs)
    }

    /// Adds a node of any [`NodeKind`] (stage and loop-body nodes are
    /// normally produced by the transformations, but the harnesses need
    /// this to construct mid-transformation graphs directly).
    ///
    /// # Errors
    ///
    /// Same as [`DfgBuilder::op`], with the arity check relaxed to
    /// 1–2 inputs for non-`Op` kinds.
    pub fn raw_node(
        &mut self,
        name: &str,
        kind: NodeKind,
        inputs: &[SignalId],
    ) -> Result<SignalId, DfgError> {
        let what = Binding::Built(Declared::Signal(self.next_signal()));
        let span = self.names.claim(name, what)?;
        self.push_node(span, kind, inputs)
    }

    /// Adds the op node a parser entered in the name table as `entry`,
    /// with inputs of the op's arity.
    ///
    /// # Errors
    ///
    /// As for [`DfgBuilder::raw_node`].
    pub(crate) fn op_at(
        &mut self,
        entry: u32,
        kind: OpKind,
        inputs: &[SignalId],
    ) -> Result<SignalId, DfgError> {
        debug_assert_eq!(inputs.len(), kind.arity());
        let what = Binding::Built(Declared::Signal(self.next_signal()));
        let span = self.names.claim_at(entry, what)?;
        self.push_node(span, NodeKind::Op(kind), inputs)
    }

    /// Adds a node under its claimed name.
    fn push_node(
        &mut self,
        span: Span,
        kind: NodeKind,
        inputs: &[SignalId],
    ) -> Result<SignalId, DfgError> {
        let output = self.next_signal();
        let name = Name::unbound(span);
        for &input in inputs {
            if input.index() >= self.signals.len() {
                return Err(DfgError::ForeignSignal(input));
            }
        }
        let node_id = NodeId(self.nodes.len() as u32);
        self.signals.push(Signal {
            name: name.clone(),
            source: SignalSource::Node(node_id),
        });
        self.nodes.push(Node {
            name,
            kind,
            inputs: Operands::new(inputs),
            output,
            branch: BranchPath::from_arms(self.branch_stack.iter().copied()),
            loop_id: self.loop_stack.last().copied(),
        });
        Ok(output)
    }

    /// Declares a memory bank with `ports` concurrent access ports.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or `ports` is zero — banks are
    /// declared up front like inputs, so either is a programming error
    /// in the caller's benchmark code.
    pub fn declare_bank(&mut self, name: &str, ports: u32) -> BankId {
        assert!(ports >= 1, "bank `{name}` must have at least one port");
        let id = BankId(self.memory.banks.len() as u32);
        let name = self
            .names
            .claim(name, Binding::Built(Declared::Bank(id)))
            .unwrap_or_else(|e| panic!("declare_bank: {e}"));
        self.memory.banks.push(BankDecl {
            id,
            name: Name::unbound(name),
            ports,
        });
        id
    }

    /// Declares an array of `size` elements living in `bank`.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken, `size` is zero, or `bank` was not
    /// declared (see [`DfgBuilder::declare_bank`]).
    pub fn declare_array(&mut self, name: &str, size: u32, bank: BankId) -> ArrayId {
        assert!(size >= 1, "array `{name}` must have at least one element");
        assert!(
            self.memory.bank(bank).is_some(),
            "array `{name}` references an undeclared bank"
        );
        let id = ArrayId(self.memory.arrays.len() as u32);
        let name = self
            .names
            .claim(name, Binding::Built(Declared::Array(id)))
            .unwrap_or_else(|e| panic!("declare_array: {e}"));
        self.memory.arrays.push(ArrayDecl {
            id,
            name: Name::unbound(name),
            size,
            bank,
        });
        id
    }

    /// Adds a `load name = array[index]` node; returns the loaded value's
    /// signal. Ordering tokens from earlier stores to the same array are
    /// appended automatically, so accesses can never be reordered across
    /// a write.
    ///
    /// # Errors
    ///
    /// [`DfgError::UnknownArray`] if `array` was not declared;
    /// [`DfgError::DuplicateName`] / [`DfgError::ForeignSignal`] as for
    /// [`DfgBuilder::op`].
    pub fn load(
        &mut self,
        name: &str,
        array: ArrayId,
        index: SignalId,
    ) -> Result<SignalId, DfgError> {
        let Some(decl) = self.memory.array(array) else {
            return Err(DfgError::UnknownArray(array.to_string()));
        };
        let bank = decl.bank;
        let mut inputs = vec![index];
        let order = self.mem_order.entry(array).or_default();
        if let Some(tok) = order.last_store {
            if tok != index {
                inputs.push(tok);
            }
        }
        let out = self.raw_node(name, NodeKind::Load { array, bank }, &inputs)?;
        self.mem_order
            .entry(array)
            .or_default()
            .loads_since
            .push(out);
        Ok(out)
    }

    /// Adds a `store array[index] = value` node; returns the store's
    /// output signal, which carries the stored value and doubles as the
    /// ordering token for later accesses. Tokens for WAW (previous
    /// store) and WAR (loads since the previous store) hazards are
    /// appended automatically.
    ///
    /// # Errors
    ///
    /// As for [`DfgBuilder::load`].
    pub fn store(
        &mut self,
        name: &str,
        array: ArrayId,
        index: SignalId,
        value: SignalId,
    ) -> Result<SignalId, DfgError> {
        let Some(decl) = self.memory.array(array) else {
            return Err(DfgError::UnknownArray(array.to_string()));
        };
        let bank = decl.bank;
        let mut inputs = vec![index, value];
        let order = self.mem_order.entry(array).or_default();
        for tok in order.last_store.iter().chain(order.loads_since.iter()) {
            if !inputs.contains(tok) {
                inputs.push(*tok);
            }
        }
        let out = self.raw_node(name, NodeKind::Store { array, bank }, &inputs)?;
        let order = self.mem_order.entry(array).or_default();
        order.last_store = Some(out);
        order.loads_since.clear();
        Ok(out)
    }

    /// Allocates a fresh conditional construct. Arms are then entered
    /// with [`DfgBuilder::enter_arm`].
    pub fn begin_branch(&mut self) -> BranchId {
        let id = BranchId::new(self.next_branch);
        self.next_branch += 1;
        id
    }

    /// Enters arm `arm` of `branch`; subsequent operations belong to it.
    pub fn enter_arm(&mut self, branch: BranchId, arm: u32) {
        self.branch_stack.push(BranchArm { branch, arm });
    }

    /// Leaves the innermost conditional arm.
    ///
    /// # Panics
    ///
    /// Panics if no arm is open (builder misuse).
    pub fn exit_arm(&mut self) {
        self.branch_stack
            .pop()
            .expect("exit_arm called with no open arm");
    }

    /// Opens a loop region with a local time constraint (control steps
    /// for one iteration, paper §5.2). Nested loops are allowed.
    pub fn begin_loop(&mut self, name: &str, time_constraint: u8) -> LoopId {
        let id = LoopId::new(self.loops.len() as u32);
        self.loops.push(LoopRegion {
            id,
            name: name.to_string(),
            parent: self.loop_stack.last().copied(),
            time_constraint,
        });
        self.loop_stack.push(id);
        id
    }

    /// Closes the innermost loop region.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open (builder misuse).
    pub fn end_loop(&mut self) {
        self.loop_stack
            .pop()
            .expect("end_loop called with no open loop");
    }

    /// Validates and returns the graph.
    ///
    /// # Errors
    ///
    /// [`DfgError::Empty`] for a graph without operations and
    /// [`DfgError::Cycle`] if the dependencies are cyclic (unreachable
    /// through this builder's safe methods, but checked uniformly).
    pub fn finish(self) -> Result<Dfg, DfgError> {
        Dfg::from_parts(
            self.name,
            self.names.into_text(),
            self.nodes,
            self.signals,
            self.loops,
            self.memory,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_op_name_is_an_error() {
        let mut b = DfgBuilder::new("dup");
        let x = b.input("x");
        let y = b.input("y");
        b.op("t", OpKind::Add, &[x, y]).unwrap();
        assert_eq!(
            b.op("t", OpKind::Sub, &[x, y]).unwrap_err(),
            DfgError::DuplicateName("t".into())
        );
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let mut b = DfgBuilder::new("arity");
        let x = b.input("x");
        assert!(matches!(
            b.op("t", OpKind::Add, &[x]),
            Err(DfgError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        let y = b.input("y");
        assert!(matches!(
            b.op("u", OpKind::Inc, &[x, y]),
            Err(DfgError::ArityMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn unary_ops_take_one_input() {
        let mut b = DfgBuilder::new("unary");
        let x = b.input("x");
        let i = b.op("i", OpKind::Inc, &[x]).unwrap();
        let _d = b.op("d", OpKind::Dec, &[i]).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn loop_membership_is_recorded() {
        let mut b = DfgBuilder::new("loops");
        let x = b.input("x");
        let outer = b.begin_loop("outer", 10);
        let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
        let inner = b.begin_loop("inner", 4);
        let _u = b.op("u", OpKind::Mul, &[t, t]).unwrap();
        b.end_loop();
        b.end_loop();
        let g = b.finish().unwrap();
        let t = g.node_by_name("t").unwrap();
        let u = g.node_by_name("u").unwrap();
        assert_eq!(g.node(t).loop_id(), Some(outer));
        assert_eq!(g.node(u).loop_id(), Some(inner));
        assert_eq!(g.loop_region(inner).unwrap().parent(), Some(outer));
        assert_eq!(g.loop_region(inner).unwrap().time_constraint(), 4);
        assert_eq!(g.loop_members(inner), vec![u]);
    }

    #[test]
    fn branch_stack_nesting() {
        let mut b = DfgBuilder::new("nest");
        let x = b.input("x");
        let outer = b.begin_branch();
        b.enter_arm(outer, 0);
        let inner = b.begin_branch();
        b.enter_arm(inner, 0);
        b.op("a", OpKind::Inc, &[x]).unwrap();
        b.exit_arm();
        b.enter_arm(inner, 1);
        b.op("c", OpKind::Dec, &[x]).unwrap();
        b.exit_arm();
        b.exit_arm();
        b.enter_arm(outer, 1);
        b.op("d", OpKind::Neg, &[x]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let a = g.node_by_name("a").unwrap();
        let c = g.node_by_name("c").unwrap();
        let d = g.node_by_name("d").unwrap();
        assert!(g.mutually_exclusive(a, c));
        assert!(g.mutually_exclusive(a, d));
        assert!(g.mutually_exclusive(c, d));
        assert_eq!(g.node(a).branch().arms().len(), 2);
    }

    #[test]
    #[should_panic(expected = "no open arm")]
    fn exit_arm_without_enter_panics() {
        let mut b = DfgBuilder::new("x");
        b.exit_arm();
    }

    #[test]
    fn foreign_signal_rejected() {
        let mut other = DfgBuilder::new("other");
        for i in 0..10 {
            other.input(&format!("i{i}"));
        }
        let foreign = SignalId(9);
        let mut b = DfgBuilder::new("b");
        let _x = b.input("x");
        assert!(matches!(
            b.op("t", OpKind::Inc, &[foreign]),
            Err(DfgError::ForeignSignal(_))
        ));
    }
}
