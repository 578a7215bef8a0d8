//! The paper's §5 preprocessing transformations.
//!
//! All transformations are pure: they consume a [`crate::Dfg`] by
//! reference and return a fresh, re-validated graph plus a report of what
//! changed. Node and signal ids are *not* stable across a transformation;
//! use names to correlate.

mod branches;
mod instances;
mod loops;
mod stages;

pub use branches::{prune_shared_branch_ops, BranchPruneReport};
pub use instances::{duplicate_instances, InstanceCopy};
pub use loops::{fold_all_loops, fold_loop, LoopFoldReport};
pub use stages::{expand_structural_stages, StageExpansion};

use std::collections::BTreeMap;

use crate::graph::LoopRegion;
use crate::memory::{ArrayDecl, BankDecl, MemoryDecls};
use crate::name::{push_name, Name};
use crate::node::LoopId;
use crate::node::{Node, NodeId, NodeKind};
use crate::signal::{BranchPath, Signal, SignalId, SignalSource};
use crate::{Dfg, DfgError};

/// Shared machinery for rebuilding a graph with remapped ids.
pub(crate) struct Rebuilder {
    /// The new graph's name arena.
    arena: String,
    nodes: Vec<Node>,
    signals: Vec<Signal>,
    /// old signal id -> new signal id
    sig_map: BTreeMap<SignalId, SignalId>,
    /// Memory declarations carry over unchanged: transformations remap
    /// nodes and signals, never banks or arrays.
    memory: MemoryDecls,
}

impl Rebuilder {
    /// Starts a rebuild, copying every external (input/constant) signal
    /// so their ids can be remapped uniformly.
    pub(crate) fn new(dfg: &Dfg) -> Self {
        let mut rb = Rebuilder {
            arena: String::new(),
            nodes: Vec::new(),
            signals: Vec::new(),
            sig_map: BTreeMap::new(),
            memory: MemoryDecls::default(),
        };
        for bank in dfg.memory().banks() {
            let name = rb.name(bank.name());
            rb.memory.banks.push(BankDecl { name, ..*bank });
        }
        for array in dfg.memory().arrays() {
            let name = rb.name(array.name());
            rb.memory.arrays.push(ArrayDecl { name, ..*array });
        }
        for (sid, sig) in dfg.signals() {
            if sig.is_external() {
                let new_id = rb.add_external(sig.name(), sig.source());
                rb.sig_map.insert(sid, new_id);
            }
        }
        rb
    }

    /// `name`, copied into the new graph's arena.
    fn name(&mut self, name: &str) -> Name {
        Name::unbound(push_name(&mut self.arena, name))
    }

    /// New-space id for an old signal.
    ///
    /// # Panics
    ///
    /// Panics if the old signal has not been copied or redirected yet;
    /// transformations visit nodes in topological order so producers are
    /// always mapped before consumers.
    pub(crate) fn map(&self, old: SignalId) -> SignalId {
        *self
            .sig_map
            .get(&old)
            .unwrap_or_else(|| panic!("signal {old} not yet mapped"))
    }

    /// Declares that consumers of old signal `old` should read `new`
    /// (new-space) instead.
    pub(crate) fn redirect(&mut self, old: SignalId, new: SignalId) {
        self.sig_map.insert(old, new);
    }

    /// Adds a fresh external signal (used by instance duplication).
    pub(crate) fn add_external(&mut self, name: &str, source: SignalSource) -> SignalId {
        debug_assert!(!matches!(source, SignalSource::Node(_)));
        let id = SignalId(self.signals.len() as u32);
        let name = self.name(name);
        self.signals.push(Signal { name, source });
        id
    }

    /// Adds a node whose inputs are already in the new id space; returns
    /// the new node id and its output signal.
    pub(crate) fn add_node(
        &mut self,
        name: &str,
        kind: NodeKind,
        inputs: Vec<SignalId>,
        branch: BranchPath,
        loop_id: Option<LoopId>,
    ) -> (NodeId, SignalId) {
        let name = self.name(name);
        let node_id = NodeId(self.nodes.len() as u32);
        let output = SignalId(self.signals.len() as u32);
        self.signals.push(Signal {
            name: name.clone(),
            source: SignalSource::Node(node_id),
        });
        self.nodes.push(Node {
            name,
            kind,
            inputs: inputs.into(),
            output,
            branch,
            loop_id,
        });
        (node_id, output)
    }

    /// Copies `node` verbatim, remapping its inputs, and records the
    /// output mapping.
    pub(crate) fn copy_node(&mut self, dfg: &Dfg, id: NodeId) -> (NodeId, SignalId) {
        let node = dfg.node(id);
        let inputs = node.inputs().iter().map(|&s| self.map(s)).collect();
        let (new_id, out) = self.add_node(
            node.name(),
            node.kind(),
            inputs,
            node.branch().clone(),
            node.loop_id(),
        );
        self.redirect(node.output(), out);
        (new_id, out)
    }

    /// Validates and assembles the rebuilt graph.
    pub(crate) fn finish(self, name: String, loops: Vec<LoopRegion>) -> Result<Dfg, DfgError> {
        Dfg::from_parts(
            name,
            self.arena,
            self.nodes,
            self.signals,
            loops,
            self.memory,
        )
    }
}
