//! The data-flow graph itself.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use hls_celllib::OpKind;

use crate::memory::{ArrayDecl, ArrayId, BankDecl, BankId, MemoryDecls};
use crate::node::{FuClass, LoopId, Node, NodeId, NodeKind};
use crate::signal::{BranchPath, Signal, SignalId, SignalSource};
use crate::DfgError;

/// A loop region of the behaviour (paper §5.2): its nodes are marked with
/// the region's [`LoopId`]; the user supplies a *local* time constraint
/// for the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRegion {
    pub(crate) id: LoopId,
    pub(crate) name: String,
    pub(crate) parent: Option<LoopId>,
    pub(crate) time_constraint: u8,
}

impl LoopRegion {
    /// The region id.
    pub fn id(&self) -> LoopId {
        self.id
    }

    /// The region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclosing loop, for nested loops.
    pub fn parent(&self) -> Option<LoopId> {
        self.parent
    }

    /// The user-specified local time constraint, in control steps.
    pub fn time_constraint(&self) -> u8 {
        self.time_constraint
    }
}

/// A validated, acyclic data-flow graph.
///
/// Constructed via [`crate::DfgBuilder`] or [`crate::parse_dfg`]; always
/// structurally sound: operand arities match, every referenced signal
/// exists, output signals point back at their producers and the
/// dependency relation is acyclic (a topological order is precomputed).
#[derive(Debug, Clone, PartialEq)]
pub struct Dfg {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) signals: Vec<Signal>,
    pub(crate) loops: Vec<LoopRegion>,
    pub(crate) memory: MemoryDecls,
    /// Node → predecessor, node → successor and signal → consumer
    /// indexes (see [`Adjacency`]).
    adjacency: Adjacency,
    topo: Vec<NodeId>,
    /// Per-node branch-path class (paper §5.1 exclusion depends on the
    /// path alone), numbered in first-appearance order, or `u32::MAX`
    /// for unconditional nodes (which exclude nothing). Branch-free
    /// graphs pay nothing.
    path_class: Vec<u32>,
    /// Symmetric p×p bitset over the p distinct branch paths: bit
    /// `(c, d)` is set iff paths `c` and `d` are mutually exclusive.
    class_bits: Vec<u64>,
    /// Words per `class_bits` row.
    class_words: usize,
    /// One bit per node: whether it excludes at least one other node
    /// (i.e. occupancy sharing is even worth checking for it).
    excluders: Vec<u64>,
}

/// The graph's three adjacency indexes in compressed sparse-row form,
/// sharing two buffers: row `r` of the index whose rows begin at `base`
/// is `ids[start[base + r]..start[base + r + 1]]`. A node's
/// predecessors are its distinct producers in first-operand order; its
/// successors, and a signal's consumers, are listed once each in node
/// order.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    start: Vec<u32>,
    ids: Vec<NodeId>,
    /// Where the successor and the consumer rows begin in `start`; the
    /// predecessor rows begin at 0.
    succ_base: usize,
    consumer_base: usize,
}

impl Adjacency {
    /// Builds the indexes of `nodes` over `signals`: the predecessor
    /// rows in one pass that also counts the other rows, then those
    /// rows filled back to front.
    fn new(nodes: &[Node], signals: &[Signal]) -> Adjacency {
        let (n, s) = (nodes.len(), signals.len());
        let (succ_base, consumer_base) = (n + 1, 2 * n + 2);
        // While counting, a row's count sits at its own place.
        let mut start = vec![0u32; consumer_base + s + 1];
        // Each operand adds at most one predecessor (and so one
        // successor) and one consumer.
        let operands: usize = nodes.iter().map(|node| node.inputs.len()).sum();
        let mut ids = Vec::with_capacity(3 * operands);
        for (i, node) in nodes.iter().enumerate() {
            let row = ids.len();
            for sig in distinct(&node.inputs) {
                start[consumer_base + sig.index()] += 1;
                if let SignalSource::Node(p) = signals[sig.index()].source {
                    if !ids[row..].contains(&p) {
                        ids.push(p);
                        start[succ_base + p.index()] += 1;
                    }
                }
            }
            start[i + 1] = ids.len() as u32;
        }
        // Running totals turn each count into its row's end; filling a
        // row back to front then leaves its start.
        let mut total = ids.len() as u32;
        for (base, rows) in [(succ_base, n), (consumer_base, s)] {
            for at in &mut start[base..base + rows] {
                total += *at;
                *at = total;
            }
            start[base + rows] = total;
        }
        ids.resize(total as usize, NodeId(0));
        for (i, node) in nodes.iter().enumerate().rev() {
            let id = NodeId(i as u32);
            let preds = start[i] as usize..start[i + 1] as usize;
            for p in preds {
                let at = &mut start[succ_base + ids[p].index()];
                *at -= 1;
                ids[*at as usize] = id;
            }
            for sig in distinct(&node.inputs) {
                let at = &mut start[consumer_base + sig.index()];
                *at -= 1;
                ids[*at as usize] = id;
            }
        }
        Adjacency {
            start,
            ids,
            succ_base,
            consumer_base,
        }
    }

    fn row(&self, base: usize, r: usize) -> &[NodeId] {
        &self.ids[self.start[base + r] as usize..self.start[base + r + 1] as usize]
    }

    fn preds(&self, node: usize) -> &[NodeId] {
        self.row(0, node)
    }

    fn succs(&self, node: usize) -> &[NodeId] {
        self.row(self.succ_base, node)
    }

    fn consumers(&self, signal: usize) -> &[NodeId] {
        self.row(self.consumer_base, signal)
    }
}

/// The distinct entries of `ids`, in first-occurrence order.
fn distinct(ids: &[SignalId]) -> impl Iterator<Item = SignalId> + '_ {
    (0..ids.len())
        .filter(move |&j| !ids[..j].contains(&ids[j]))
        .map(move |j| ids[j])
}

/// Checks a node's operand count and memory references against its
/// kind.
fn check_kind(node: &Node, memory: &MemoryDecls) -> Result<(), DfgError> {
    let arity = |expected: usize| DfgError::ArityMismatch {
        node: node.name().to_string(),
        expected,
        got: node.inputs.len(),
    };
    match node.kind {
        NodeKind::Op(kind) => {
            if node.inputs.len() != kind.arity() {
                return Err(arity(kind.arity()));
            }
        }
        NodeKind::Stage { .. } => {
            if node.inputs.is_empty() || node.inputs.len() > 2 {
                return Err(arity(2));
            }
        }
        // A folded loop may consume any number of external signals
        // (including none, when the body only reads loop-carried or
        // constant values).
        NodeKind::LoopBody { .. } => {}
        // A load reads [index, ordering tokens…]; a store reads [index,
        // value, ordering tokens…]. Both must reference a declared array
        // whose bank matches the node kind.
        NodeKind::Load { array, bank } | NodeKind::Store { array, bank } => {
            let min = if matches!(node.kind, NodeKind::Load { .. }) {
                1
            } else {
                2
            };
            if node.inputs.len() < min {
                return Err(arity(min));
            }
            let Some(decl) = memory.array(array) else {
                return Err(DfgError::UnknownArray(array.to_string()));
            };
            if decl.bank != bank {
                return Err(DfgError::UnknownBank(bank.to_string()));
            }
        }
    }
    Ok(())
}

/// The mutual-exclusion cache of [`Dfg`] (paper §5.1). Exclusion
/// depends only on the two branch paths, so each distinct path is
/// interned once and the p distinct paths are compared pairwise instead
/// of the k branched nodes: the schedulers' hot probes stay O(1) bit
/// tests, and building the table costs O(n + p²). A branch-free graph
/// pays for two vectors and no path table.
struct Exclusion {
    path_class: Vec<u32>,
    class_bits: Vec<u64>,
    class_words: usize,
    excluders: Vec<u64>,
}

impl Exclusion {
    /// The cache for `nodes`, its per-node classes written over
    /// `scratch`, a spent per-node buffer.
    fn new(nodes: &[Node], mut scratch: Vec<u32>) -> Exclusion {
        let mut excluders = vec![0u64; nodes.len().div_ceil(64)];
        scratch.clear();
        if nodes.iter().all(|n| n.branch.is_top_level()) {
            scratch.resize(nodes.len(), u32::MAX);
            return Exclusion {
                path_class: scratch,
                class_bits: Vec::new(),
                class_words: 0,
                excluders,
            };
        }
        let mut classes: Vec<&BranchPath> = Vec::new();
        let mut class_members: Vec<u32> = Vec::new();
        let mut class_of: HashMap<&BranchPath, u32> = HashMap::new();
        scratch.extend(nodes.iter().map(|n| {
            if n.branch.is_top_level() {
                return u32::MAX;
            }
            let c = *class_of.entry(&n.branch).or_insert_with(|| {
                classes.push(&n.branch);
                class_members.push(0);
                classes.len() as u32 - 1
            });
            class_members[c as usize] += 1;
            c
        }));
        let path_class = scratch;
        let class_words = classes.len().div_ceil(64);
        let mut class_bits = vec![0u64; classes.len() * class_words];
        for (c, path) in classes.iter().enumerate() {
            for (d, other) in classes.iter().enumerate().skip(c) {
                if path.excludes(other) {
                    class_bits[c * class_words + d / 64] |= 1 << (d % 64);
                    class_bits[d * class_words + c / 64] |= 1 << (c % 64);
                }
            }
        }
        // A node excludes another node iff its class excludes another
        // class, or excludes itself (a path naming two arms of one
        // branch) and has a second member.
        let class_excludes: Vec<bool> = (0..classes.len())
            .map(|c| {
                (0..classes.len()).any(|d| {
                    class_bits[c * class_words + d / 64] >> (d % 64) & 1 == 1
                        && (d != c || class_members[c] > 1)
                })
            })
            .collect();
        for (i, &c) in path_class.iter().enumerate() {
            if c != u32::MAX && class_excludes[c as usize] {
                excluders[i / 64] |= 1 << (i % 64);
            }
        }
        Exclusion {
            path_class,
            class_bits,
            class_words,
            excluders,
        }
    }
}

impl Dfg {
    /// Validates the parts and assembles the graph, binding every name
    /// to one arena made of `arena`, the text their spans point into.
    /// Used by the builder, the parser and the transformations.
    pub(crate) fn from_parts(
        name: String,
        arena: String,
        mut nodes: Vec<Node>,
        mut signals: Vec<Signal>,
        loops: Vec<LoopRegion>,
        mut memory: MemoryDecls,
    ) -> Result<Self, DfgError> {
        if nodes.is_empty() {
            return Err(DfgError::Empty);
        }
        let arena: Arc<str> = Arc::from(arena);
        for sig in &mut signals {
            sig.name.bind(&arena);
        }
        for bank in &mut memory.banks {
            bank.name.bind(&arena);
        }
        for array in &mut memory.arrays {
            array.name.bind(&arena);
        }
        // Memory declarations must be internally sound before any node
        // can reference them.
        for bank in &memory.banks {
            if bank.ports == 0 {
                return Err(DfgError::BadPortCount(bank.name().to_string()));
            }
        }
        for array in &memory.arrays {
            if memory.bank(array.bank).is_none() {
                return Err(DfgError::UnknownBank(array.bank.to_string()));
            }
        }
        // Each node's operands and output exist, its operands suit its
        // kind, and its output points back at it.
        for (i, node) in nodes.iter_mut().enumerate() {
            node.name.bind(&arena);
            for &sig in node.inputs.iter().chain(std::iter::once(&node.output)) {
                if sig.index() >= signals.len() {
                    return Err(DfgError::ForeignSignal(sig));
                }
            }
            check_kind(node, &memory)?;
            if signals[node.output.index()].source != SignalSource::Node(NodeId(i as u32)) {
                return Err(DfgError::ForeignSignal(node.output));
            }
        }
        let adjacency = Adjacency::new(&nodes, &signals);
        // Kahn topological sort, the order doubling as the queue;
        // detects cycles.
        let mut indeg: Vec<u32> = (0..nodes.len())
            .map(|i| adjacency.preds(i).len() as u32)
            .collect();
        let mut topo: Vec<NodeId> = Vec::with_capacity(nodes.len());
        topo.extend(
            (0..nodes.len())
                .filter(|&i| indeg[i] == 0)
                .map(|i| NodeId(i as u32)),
        );
        let mut head = 0;
        while head < topo.len() {
            let n = topo[head];
            head += 1;
            for &s in adjacency.succs(n.index()) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    topo.push(s);
                }
            }
        }
        if topo.len() != nodes.len() {
            let cyclic: Vec<NodeId> = indeg
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d > 0)
                .map(|(i, _)| NodeId(i as u32))
                .collect();
            return Err(DfgError::Cycle(cyclic));
        }
        let exclusion = Exclusion::new(&nodes, indeg);
        Ok(Dfg {
            name,
            nodes,
            signals,
            loops,
            memory,
            adjacency,
            topo,
            path_class: exclusion.path_class,
            class_bits: exclusion.class_bits,
            class_words: exclusion.class_words,
            excluders: exclusion.excluders,
        })
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operation nodes (`l` in the paper's complexity bounds).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of signals (inputs, constants and operation outputs).
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids always come from this graph).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The signal with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(id, signal)` pairs in id order.
    pub fn signals(&self) -> impl Iterator<Item = (SignalId, &Signal)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s))
    }

    /// All node ids, in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Data-dependency predecessors of `id` (producers of its inputs).
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        self.adjacency.preds(id.index())
    }

    /// Data-dependency successors of `id` (consumers of its output).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        self.adjacency.succs(id.index())
    }

    /// Nodes consuming the given signal, in id order — an O(1) lookup
    /// into an index built with the graph.
    pub fn consumers(&self, sig: SignalId) -> &[NodeId] {
        self.adjacency.consumers(sig.index())
    }

    /// A precomputed topological order of the nodes.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Looks up a node by behavioural name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes()
            .find(|(_, n)| n.name() == name)
            .map(|(id, _)| id)
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }

    /// The functional-unit classes present in the graph, sorted, with the
    /// number of operations of each class (`N_j` of the paper's redundant
    /// frame rule `current_j = ⌈N_j / cs⌉`).
    pub fn class_counts(&self) -> BTreeMap<FuClass, usize> {
        let mut counts = BTreeMap::new();
        for node in &self.nodes {
            *counts.entry(node.kind.fu_class()).or_insert(0) += 1;
        }
        counts
    }

    /// The loop regions declared in the graph.
    pub fn loop_regions(&self) -> &[LoopRegion] {
        &self.loops
    }

    /// The loop region with the given id.
    pub fn loop_region(&self, id: LoopId) -> Option<&LoopRegion> {
        self.loops.iter().find(|l| l.id == id)
    }

    /// Node ids belonging directly to the given loop region.
    pub fn loop_members(&self, id: LoopId) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.loop_id == Some(id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether two nodes are mutually exclusive (paper §5.1) and may
    /// therefore share an FU in the same control step. A precomputed
    /// bitset lookup on the two nodes' path classes — O(1), no arm-list
    /// comparison. A node never excludes itself.
    pub fn mutually_exclusive(&self, a: NodeId, b: NodeId) -> bool {
        let ca = self.path_class[a.index()];
        let cb = self.path_class[b.index()];
        if ca == u32::MAX || cb == u32::MAX || a == b {
            return false;
        }
        let (ca, cb) = (ca as usize, cb as usize);
        self.class_bits[ca * self.class_words + cb / 64] >> (cb % 64) & 1 == 1
    }

    /// Whether `id` excludes at least one other node. When this is
    /// `false` (always, for unconditional nodes), an occupied grid cell
    /// can never be shared with `id`, so occupancy probes may skip the
    /// per-occupant check entirely.
    pub fn has_exclusions(&self, id: NodeId) -> bool {
        self.excluders[id.index() / 64] >> (id.index() % 64) & 1 == 1
    }

    /// The interned branch-path class of `id`: nodes on the same path
    /// share one, and exclusion depends on the classes alone. `None`
    /// for unconditional nodes.
    pub fn path_class(&self, id: NodeId) -> Option<u32> {
        Some(self.path_class[id.index()]).filter(|&c| c != u32::MAX)
    }

    /// Whether two distinct nodes on path classes `c` and `d` are
    /// mutually exclusive — [`Dfg::mutually_exclusive`] read off the
    /// classes.
    pub fn paths_exclusive(&self, c: u32, d: u32) -> bool {
        let (c, d) = (c as usize, d as usize);
        self.class_bits[c * self.class_words + d / 64] >> (d % 64) & 1 == 1
    }

    /// Each node's functional-unit class as a dense id: the distinct
    /// classes in ascending order, and per node the position of its
    /// class in that list.
    pub fn class_ids(&self) -> (Vec<FuClass>, Vec<u32>) {
        // Classes are numbered in first-appearance order, then renumbered
        // in class order. Operator classes, nearly every node's, are
        // found by the operator's index, the rest in a map.
        let mut classes: Vec<FuClass> = Vec::new();
        let mut by_op = [u32::MAX; OpKind::ALL.len()];
        let mut others: BTreeMap<FuClass, u32> = BTreeMap::new();
        let mut ids: Vec<u32> = self
            .nodes
            .iter()
            .map(|node| {
                let class = node.kind.fu_class();
                let id = match class {
                    FuClass::Op(kind) => &mut by_op[kind as usize],
                    _ => others.entry(class).or_insert(u32::MAX),
                };
                if *id == u32::MAX {
                    *id = classes.len() as u32;
                    classes.push(class);
                }
                *id
            })
            .collect();
        let mut order: Vec<u32> = (0..classes.len() as u32).collect();
        order.sort_unstable_by_key(|&c| classes[c as usize]);
        let mut rank = vec![0u32; classes.len()];
        for (r, &c) in order.iter().enumerate() {
            rank[c as usize] = r as u32;
        }
        for id in &mut ids {
            *id = rank[*id as usize];
        }
        classes.sort_unstable();
        (classes, ids)
    }

    /// The memory declarations (banks and arrays; empty for pure
    /// operator graphs).
    pub fn memory(&self) -> &MemoryDecls {
        &self.memory
    }

    /// Whether the graph contains memory accesses or declarations.
    pub fn has_memory(&self) -> bool {
        !self.memory.is_empty()
    }

    /// The declaration of `array`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids always come from this
    /// graph, where every access was validated against the declarations).
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        self.memory.array(id).expect("array id from this graph")
    }

    /// The declaration of `bank`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (see [`Dfg::array`]).
    pub fn bank(&self, id: BankId) -> &BankDecl {
        self.memory.bank(id).expect("bank id from this graph")
    }

    /// The port count of `bank` — the hard per-step access limit.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (see [`Dfg::array`]).
    pub fn bank_ports(&self, id: BankId) -> u32 {
        self.bank(id).ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Mul, &[x, y]).unwrap();
        let q = b.op("q", OpKind::Add, &[x, y]).unwrap();
        let _r = b.op("r", OpKind::Sub, &[p, q]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = diamond();
        let r = g.node_by_name("r").unwrap();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        assert_eq!(g.preds(r), &[p, q]);
        assert_eq!(g.succs(p), &[r]);
        assert!(g.preds(p).is_empty());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let pos: Vec<usize> = g
            .node_ids()
            .map(|n| g.topo_order().iter().position(|&t| t == n).unwrap())
            .collect();
        for n in g.node_ids() {
            for &p in g.preds(n) {
                assert!(pos[p.index()] < pos[n.index()]);
            }
        }
    }

    #[test]
    fn class_counts_group_by_operator() {
        let g = diamond();
        let counts = g.class_counts();
        assert_eq!(counts[&FuClass::Op(OpKind::Mul)], 1);
        assert_eq!(counts[&FuClass::Op(OpKind::Add)], 1);
        assert_eq!(counts[&FuClass::Op(OpKind::Sub)], 1);
    }

    #[test]
    fn class_ids_number_the_classes_in_order() {
        let g = diamond();
        let (classes, ids) = g.class_ids();
        assert!(classes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), g.node_count());
        for (id, node) in g.nodes() {
            assert_eq!(classes[ids[id.index()] as usize], node.kind().fu_class());
        }
        assert_eq!(classes.len(), g.class_counts().len());
    }

    #[test]
    fn consumers_finds_all_users() {
        let g = diamond();
        let x = g.signal_by_name("x").unwrap();
        let consumers = g.consumers(x);
        assert_eq!(consumers.len(), 2);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let b = DfgBuilder::new("empty");
        assert_eq!(b.finish().unwrap_err(), DfgError::Empty);
    }

    #[test]
    fn node_and_signal_lookup_by_name() {
        let g = diamond();
        assert!(g.node_by_name("p").is_some());
        assert!(g.node_by_name("zz").is_none());
        assert!(g.signal_by_name("x").is_some());
        assert!(g.signal_by_name("zz").is_none());
    }

    #[test]
    fn mutex_cache_matches_pairwise_excludes() {
        let mut b = DfgBuilder::new("branches");
        let x = b.input("x");
        let y = b.input("y");
        let br = b.begin_branch();
        b.enter_arm(br, 0);
        b.op("t", OpKind::Add, &[x, y]).unwrap();
        b.exit_arm();
        b.enter_arm(br, 1);
        b.op("e", OpKind::Add, &[x, y]).unwrap();
        b.exit_arm();
        b.op("u", OpKind::Add, &[x, y]).unwrap();
        let g = b.finish().unwrap();
        for a in g.node_ids() {
            for c in g.node_ids() {
                assert_eq!(
                    g.mutually_exclusive(a, c),
                    g.node(a).excludes(g.node(c)),
                    "cache disagrees for ({a}, {c})"
                );
            }
        }
        let t = g.node_by_name("t").unwrap();
        let u = g.node_by_name("u").unwrap();
        assert!(g.has_exclusions(t));
        assert!(!g.has_exclusions(u));
        assert_eq!(NodeId::from_index(t.index()), t);
    }

    #[test]
    fn signal_count_includes_inputs_and_outputs() {
        let g = diamond();
        // 2 inputs + 3 op outputs.
        assert_eq!(g.signal_count(), 5);
        assert_eq!(g.node_count(), 3);
    }

    mod exclusion_table {
        use super::*;
        use crate::{BranchId, BranchPath};
        use proptest::prelude::*;

        #[test]
        fn a_path_naming_two_arms_of_one_branch_excludes_its_twin() {
            // Such a path excludes itself: two nodes on it exclude each
            // other, a lone node on it excludes nothing.
            let build = |twins: usize| {
                let mut b = DfgBuilder::new("twins");
                let x = b.input("x");
                b.op("top", OpKind::Inc, &[x]).unwrap();
                for i in 0..twins {
                    b.enter_arm(BranchId::new(0), 0);
                    b.enter_arm(BranchId::new(0), 1);
                    b.op(&format!("t{i}"), OpKind::Inc, &[x]).unwrap();
                    b.exit_arm();
                    b.exit_arm();
                }
                b.finish().unwrap()
            };
            let g = build(2);
            let (t0, t1) = (g.node_by_name("t0").unwrap(), g.node_by_name("t1").unwrap());
            assert!(g.mutually_exclusive(t0, t1));
            assert!(!g.mutually_exclusive(t0, t0));
            assert!(g.has_exclusions(t0));
            let g = build(1);
            assert!(!g.has_exclusions(g.node_by_name("t0").unwrap()));
        }

        proptest! {
            #[test]
            fn path_classes_match_pairwise_excludes(
                paths in proptest::collection::vec(
                    (0usize..4, (0u32..4, 0u32..3), (0u32..4, 0u32..3), (0u32..4, 0u32..3)),
                    1..40,
                ),
            ) {
                // Nested paths of depth ≤ 3 over four branch ids and three
                // arms: siblings, shared prefixes, unrelated branches, and
                // paths naming one branch twice.
                let mut b = DfgBuilder::new("paths");
                let x = b.input("x");
                for (i, &(depth, a0, a1, a2)) in paths.iter().enumerate() {
                    let arms = [a0, a1, a2];
                    for &(branch, arm) in &arms[..depth.min(3)] {
                        b.enter_arm(BranchId::new(branch), arm);
                    }
                    b.op(&format!("n{i}"), OpKind::Inc, &[x]).unwrap();
                    for _ in 0..depth.min(3) {
                        b.exit_arm();
                    }
                }
                let g = b.finish().unwrap();
                let path = |n: NodeId| -> &BranchPath { g.node(n).branch() };
                for a in g.node_ids() {
                    let mut any = false;
                    for c in g.node_ids() {
                        let want = a != c && path(a).excludes(path(c));
                        any |= want;
                        prop_assert_eq!(g.mutually_exclusive(a, c), want, "({}, {})", a, c);
                        // Distinct nodes exclude each other exactly when
                        // their classes do; same-path nodes share one.
                        let classes = g.path_class(a).zip(g.path_class(c));
                        prop_assert_eq!(
                            a != c && classes.is_some_and(|(p, q)| g.paths_exclusive(p, q)),
                            want
                        );
                        if path(a) == path(c) {
                            prop_assert_eq!(g.path_class(a), g.path_class(c));
                        }
                    }
                    prop_assert_eq!(g.has_exclusions(a), any, "{}", a);
                }
            }
        }
    }
}
