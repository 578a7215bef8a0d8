//! The data-flow graph itself.

use std::collections::BTreeMap;

use crate::memory::{ArrayDecl, ArrayId, BankDecl, BankId, MemoryDecls};
use crate::node::{FuClass, LoopId, Node, NodeId, NodeKind};
use crate::signal::{Signal, SignalId, SignalSource};
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
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    topo: Vec<NodeId>,
    /// Signal → consumer index in CSR form: the consumers of signal `s`
    /// are `consumer_ids[consumer_start[s]..consumer_start[s + 1]]`, in
    /// node order, each listed once however often it reads `s`.
    consumer_start: Vec<u32>,
    consumer_ids: Vec<NodeId>,
    /// Per-node compact index into `mutex_bits`, or `u32::MAX` for
    /// unconditional nodes (which exclude nothing). Only nodes inside a
    /// branch arm get a row, so branch-free graphs pay nothing.
    mutex_index: Vec<u32>,
    /// Symmetric k×k bitset over the branched nodes: bit `(i, j)` is set
    /// iff their branch paths are mutually exclusive.
    mutex_bits: Vec<u64>,
    /// Words per `mutex_bits` row.
    mutex_words: usize,
    /// One bit per node: whether it excludes at least one other node
    /// (i.e. occupancy sharing is even worth checking for it).
    excluders: Vec<u64>,
}

impl Dfg {
    /// Validates the parts and assembles the graph. Used by the builder,
    /// the parser and the transformations.
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        signals: Vec<Signal>,
        loops: Vec<LoopRegion>,
        memory: MemoryDecls,
    ) -> Result<Self, DfgError> {
        if nodes.is_empty() {
            return Err(DfgError::Empty);
        }
        // Memory declarations must be internally sound before any node
        // can reference them.
        for bank in &memory.banks {
            if bank.ports == 0 {
                return Err(DfgError::BadPortCount(bank.name.clone()));
            }
        }
        for array in &memory.arrays {
            if memory.bank(array.bank).is_none() {
                return Err(DfgError::UnknownBank(array.bank.to_string()));
            }
        }
        // Arity and signal-range checks.
        for node in &nodes {
            for &sig in node.inputs.iter().chain(std::iter::once(&node.output)) {
                if sig.index() >= signals.len() {
                    return Err(DfgError::ForeignSignal(sig));
                }
            }
            match node.kind {
                NodeKind::Op(kind) => {
                    if node.inputs.len() != kind.arity() {
                        return Err(DfgError::ArityMismatch {
                            node: node.name.clone(),
                            expected: kind.arity(),
                            got: node.inputs.len(),
                        });
                    }
                }
                NodeKind::Stage { .. } => {
                    if node.inputs.is_empty() || node.inputs.len() > 2 {
                        return Err(DfgError::ArityMismatch {
                            node: node.name.clone(),
                            expected: 2,
                            got: node.inputs.len(),
                        });
                    }
                }
                // A folded loop may consume any number of external
                // signals (including none, when the body only reads
                // loop-carried or constant values).
                NodeKind::LoopBody { .. } => {}
                // A load reads [index, ordering tokens…]; a store reads
                // [index, value, ordering tokens…]. Both must reference
                // a declared array whose bank matches the node kind.
                NodeKind::Load { array, bank } | NodeKind::Store { array, bank } => {
                    let min = if matches!(node.kind, NodeKind::Load { .. }) {
                        1
                    } else {
                        2
                    };
                    if node.inputs.len() < min {
                        return Err(DfgError::ArityMismatch {
                            node: node.name.clone(),
                            expected: min,
                            got: node.inputs.len(),
                        });
                    }
                    let Some(decl) = memory.array(array) else {
                        return Err(DfgError::UnknownArray(array.to_string()));
                    };
                    if decl.bank != bank {
                        return Err(DfgError::UnknownBank(bank.to_string()));
                    }
                }
            }
        }
        // Output back-pointers.
        for (i, node) in nodes.iter().enumerate() {
            let out = &signals[node.output.index()];
            if out.source != SignalSource::Node(NodeId(i as u32)) {
                return Err(DfgError::ForeignSignal(node.output));
            }
        }
        // Dependency adjacency.
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            for &input in &node.inputs {
                if let SignalSource::Node(p) = signals[input.index()].source {
                    let id = NodeId(i as u32);
                    if !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p.index()].push(id);
                    }
                }
            }
        }
        // Consumer index: count the distinct readers of each signal,
        // prefix-sum the counts into row starts, then fill in node order.
        fn reads(node: &Node) -> impl Iterator<Item = usize> + '_ {
            let inputs = &node.inputs;
            (0..inputs.len())
                .filter(move |&j| !inputs[..j].contains(&inputs[j]))
                .map(move |j| inputs[j].index())
        }
        let mut consumer_start = vec![0u32; signals.len() + 1];
        for node in &nodes {
            for sig in reads(node) {
                consumer_start[sig + 1] += 1;
            }
        }
        for i in 1..consumer_start.len() {
            consumer_start[i] += consumer_start[i - 1];
        }
        let mut fill = consumer_start.clone();
        let mut consumer_ids = vec![NodeId(0); consumer_start[signals.len()] as usize];
        for (i, node) in nodes.iter().enumerate() {
            for sig in reads(node) {
                consumer_ids[fill[sig] as usize] = NodeId(i as u32);
                fill[sig] += 1;
            }
        }
        // Kahn topological sort; detects cycles.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(nodes.len());
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            topo.push(n);
            for &s in &succs[n.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
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
        // Mutual-exclusion cache (paper §5.1): pairwise `excludes` over
        // the branched nodes only, folded into bitsets so the schedulers'
        // hot probes are O(1) bit tests instead of arm-list walks.
        let branched: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.branch.is_top_level())
            .map(|(i, _)| i)
            .collect();
        let mut mutex_index = vec![u32::MAX; nodes.len()];
        for (compact, &i) in branched.iter().enumerate() {
            mutex_index[i] = compact as u32;
        }
        let mutex_words = branched.len().div_ceil(64);
        let mut mutex_bits = vec![0u64; branched.len() * mutex_words];
        let mut excluders = vec![0u64; nodes.len().div_ceil(64)];
        for (ia, &a) in branched.iter().enumerate() {
            for (ib, &b) in branched.iter().enumerate().skip(ia + 1) {
                if nodes[a].branch.excludes(&nodes[b].branch) {
                    mutex_bits[ia * mutex_words + ib / 64] |= 1 << (ib % 64);
                    mutex_bits[ib * mutex_words + ia / 64] |= 1 << (ia % 64);
                    excluders[a / 64] |= 1 << (a % 64);
                    excluders[b / 64] |= 1 << (b % 64);
                }
            }
        }
        Ok(Dfg {
            name,
            nodes,
            signals,
            loops,
            memory,
            preds,
            succs,
            topo,
            consumer_start,
            consumer_ids,
            mutex_index,
            mutex_bits,
            mutex_words,
            excluders,
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
        &self.preds[id.index()]
    }

    /// Data-dependency successors of `id` (consumers of its output).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Nodes consuming the given signal, in id order — an O(1) lookup
    /// into an index built with the graph.
    pub fn consumers(&self, sig: SignalId) -> &[NodeId] {
        let i = sig.index();
        &self.consumer_ids[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }

    /// A precomputed topological order of the nodes.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Looks up a node by behavioural name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes().find(|(_, n)| n.name == name).map(|(id, _)| id)
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals()
            .find(|(_, s)| s.name == name)
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
    /// bitset lookup — O(1), no arm-list comparison.
    pub fn mutually_exclusive(&self, a: NodeId, b: NodeId) -> bool {
        let ia = self.mutex_index[a.index()];
        let ib = self.mutex_index[b.index()];
        if ia == u32::MAX || ib == u32::MAX {
            return false;
        }
        let (ia, ib) = (ia as usize, ib as usize);
        self.mutex_bits[ia * self.mutex_words + ib / 64] >> (ib % 64) & 1 == 1
    }

    /// Whether `id` excludes at least one other node. When this is
    /// `false` (always, for unconditional nodes), an occupied grid cell
    /// can never be shared with `id`, so occupancy probes may skip the
    /// per-occupant check entirely.
    pub fn has_exclusions(&self, id: NodeId) -> bool {
        self.excluders[id.index() / 64] >> (id.index() % 64) & 1 == 1
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
    use hls_celllib::OpKind;

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
}
