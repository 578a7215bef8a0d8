//! The data-flow graph itself.

use std::collections::{BTreeMap, HashMap};

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
    /// Node → predecessor and node → successor indices in CSR form
    /// (see [`Csr`]): a node's predecessors in first-operand order, its
    /// successors in node order, each listed once.
    preds: Csr,
    succs: Csr,
    topo: Vec<NodeId>,
    /// Signal → consumer index in CSR form: the consumers of a signal
    /// in node order, each listed once however often it reads it.
    consumers: Csr,
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

/// A compressed sparse-row index: row `r` is
/// `ids[start[r]..start[r + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    start: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Csr {
    /// Groups `edges` — `(row, id)` pairs, with the ids of each row
    /// arriving in the order the row lists them — into `rows` rows.
    fn from_edges(rows: usize, edges: impl Iterator<Item = (usize, NodeId)> + Clone) -> Csr {
        let mut start = vec![0u32; rows + 1];
        for (row, _) in edges.clone() {
            start[row + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut ids = vec![NodeId(0); start[rows] as usize];
        for (row, id) in edges {
            ids[fill[row] as usize] = id;
            fill[row] += 1;
        }
        Csr { start, ids }
    }

    fn row(&self, r: usize) -> &[NodeId] {
        &self.ids[self.start[r] as usize..self.start[r + 1] as usize]
    }
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
                return Err(DfgError::BadPortCount(bank.name.to_string()));
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
                            node: node.name.to_string(),
                            expected: kind.arity(),
                            got: node.inputs.len(),
                        });
                    }
                }
                NodeKind::Stage { .. } => {
                    if node.inputs.is_empty() || node.inputs.len() > 2 {
                        return Err(DfgError::ArityMismatch {
                            node: node.name.to_string(),
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
                            node: node.name.to_string(),
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
        // Dependency adjacency: each node's distinct producers in
        // first-operand order, and the transposed edges grouped per
        // producer in node order.
        let mut preds = Csr {
            start: Vec::with_capacity(nodes.len() + 1),
            ids: Vec::new(),
        };
        preds.start.push(0);
        for node in &nodes {
            let row = preds.ids.len();
            for &input in node.inputs.iter() {
                if let SignalSource::Node(p) = signals[input.index()].source {
                    if !preds.ids[row..].contains(&p) {
                        preds.ids.push(p);
                    }
                }
            }
            preds.start.push(preds.ids.len() as u32);
        }
        let succs = Csr::from_edges(
            nodes.len(),
            (0..nodes.len()).flat_map(|i| {
                let id = NodeId(i as u32);
                preds.row(i).iter().map(move |p| (p.index(), id))
            }),
        );
        // Consumer index: every distinct signal a node reads, in node
        // order.
        fn reads(node: &Node) -> impl Iterator<Item = usize> + Clone + '_ {
            let inputs = &node.inputs;
            (0..inputs.len())
                .filter(move |&j| !inputs[..j].contains(&inputs[j]))
                .map(move |j| inputs[j].index())
        }
        let consumers = Csr::from_edges(
            signals.len(),
            nodes
                .iter()
                .enumerate()
                .flat_map(|(i, node)| reads(node).map(move |sig| (sig, NodeId(i as u32)))),
        );
        // Kahn topological sort; detects cycles.
        let mut indeg: Vec<usize> = (0..nodes.len()).map(|i| preds.row(i).len()).collect();
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
            for &s in succs.row(n.index()) {
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
        // Mutual-exclusion cache (paper §5.1). Exclusion depends only on
        // the two branch paths, so intern each distinct path once and
        // compare the p distinct paths pairwise instead of the k
        // branched nodes: the schedulers' hot probes stay O(1) bit
        // tests, and building the table costs O(n + p²).
        let mut classes: Vec<&BranchPath> = Vec::new();
        let mut class_members: Vec<u32> = Vec::new();
        let mut class_of: HashMap<&BranchPath, u32> = HashMap::new();
        let path_class: Vec<u32> = nodes
            .iter()
            .map(|n| {
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
            })
            .collect();
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
        let mut excluders = vec![0u64; nodes.len().div_ceil(64)];
        for (i, &c) in path_class.iter().enumerate() {
            if c != u32::MAX && class_excludes[c as usize] {
                excluders[i / 64] |= 1 << (i % 64);
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
            consumers,
            path_class,
            class_bits,
            class_words,
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
        self.preds.row(id.index())
    }

    /// Data-dependency successors of `id` (consumers of its output).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        self.succs.row(id.index())
    }

    /// Nodes consuming the given signal, in id order — an O(1) lookup
    /// into an index built with the graph.
    pub fn consumers(&self, sig: SignalId) -> &[NodeId] {
        self.consumers.row(sig.index())
    }

    /// A precomputed topological order of the nodes.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Looks up a node by behavioural name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes()
            .find(|(_, n)| &*n.name == name)
            .map(|(id, _)| id)
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals()
            .find(|(_, s)| &*s.name == name)
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
                    }
                    prop_assert_eq!(g.has_exclusions(a), any, "{}", a);
                }
            }
        }
    }
}
