//! Serialisation back to the textual DFG format (the inverse of
//! [`crate::parse_dfg`]).

use std::fmt::Write as _;

use crate::signal::SignalSource;
use crate::{Dfg, NodeId, NodeKind, SignalId};

impl Dfg {
    /// Renders the graph in the textual format accepted by
    /// [`crate::parse_dfg`]. Round-trips exactly for graphs expressible
    /// in the format (no loop regions, no stage/loop-body nodes).
    ///
    /// # Errors
    ///
    /// Returns `None` when the graph contains constructs the text
    /// format cannot express (loop regions, stage nodes, folded loops).
    ///
    /// ```
    /// use hls_dfg::parse_dfg;
    ///
    /// let text = "dfg demo
    ///     input a, b
    ///     const k = 3
    ///     op p = mul(a, b)
    ///     op q = add(p, k)";
    /// let dfg = parse_dfg(text)?;
    /// let emitted = dfg.to_text().expect("expressible");
    /// let reparsed = parse_dfg(&emitted)?;
    /// assert_eq!(dfg, reparsed);
    /// # Ok::<(), hls_dfg::DfgError>(())
    /// ```
    pub fn to_text(&self) -> Option<String> {
        if !self.loops.is_empty() {
            return None;
        }
        // Index constants the parser materialises inline next to each
        // access (named `<node>.idx…`, consumed only by that node, and
        // allocated immediately before the node's output): emitting the
        // literal inside the access keeps signal ids stable across a
        // round trip.
        let inline_idx: std::collections::BTreeSet<SignalId> = self
            .nodes()
            .filter_map(|(id, node)| self.inline_index_const(id, node.inputs().first().copied()?))
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "dfg {}", self.name());
        let inputs: Vec<&str> = self
            .signals()
            .filter(|(_, s)| matches!(s.source(), SignalSource::PrimaryInput))
            .map(|(_, s)| s.name())
            .collect();
        if !inputs.is_empty() {
            let _ = writeln!(out, "input {}", inputs.join(", "));
        }
        for (id, sig) in self.signals() {
            if let SignalSource::Constant(v) = sig.source() {
                if !inline_idx.contains(&id) {
                    let _ = writeln!(out, "const {} = {v}", sig.name());
                }
            }
        }
        for bank in self.memory.banks() {
            let _ = writeln!(out, "bank {}(ports={})", bank.name(), bank.ports());
        }
        for array in self.memory.arrays() {
            let bank = self.memory.bank(array.bank())?;
            let _ = writeln!(
                out,
                "array {}[{}] @ {}",
                array.name(),
                array.size(),
                bank.name()
            );
        }
        // Node-id order is topological for any graph assembled through
        // the builder or parser (operands must exist before use), and —
        // unlike `topo_order()` — it is preserved by a parse round
        // trip, keeping `parse(to_text(g)) == g` id-exact.
        for (id, node) in self.nodes() {
            match node.kind() {
                NodeKind::Op(kind) => {
                    let args: Vec<&str> = node
                        .inputs()
                        .iter()
                        .map(|&s| self.signal(s).name())
                        .collect();
                    let _ = write!(
                        out,
                        "op {} = {}({})",
                        node.name(),
                        kind.name(),
                        args.join(", ")
                    );
                    if !node.branch().is_top_level() {
                        let arms: Vec<String> = node
                            .branch()
                            .arms()
                            .iter()
                            .map(|a| format!("{}.{}", a.branch.get(), a.arm))
                            .collect();
                        let _ = write!(out, " @branch({})", arms.join("/"));
                    }
                    out.push('\n');
                }
                NodeKind::Load { array, .. } => {
                    // Memory accesses under a branch are not expressible.
                    if !node.branch().is_top_level() {
                        return None;
                    }
                    let array = self.memory.array(array)?;
                    let idx = self.index_repr(id, node.inputs()[0], &inline_idx);
                    let _ = writeln!(out, "load {} = {}[{idx}]", node.name(), array.name());
                }
                NodeKind::Store { array, .. } => {
                    if !node.branch().is_top_level() {
                        return None;
                    }
                    let array = self.memory.array(array)?;
                    let idx = self.index_repr(id, node.inputs()[0], &inline_idx);
                    let value = self.signal(node.inputs()[1]).name();
                    let _ = writeln!(
                        out,
                        "store {} = {}[{idx}], {value}",
                        node.name(),
                        array.name()
                    );
                }
                _ => return None,
            }
        }
        Some(out)
    }

    /// The index signal of a memory access, when it is an inline
    /// parser-materialised constant (see [`Dfg::to_text`]).
    fn inline_index_const(&self, node: NodeId, index: SignalId) -> Option<SignalId> {
        let n = self.node(node);
        if !n.kind().is_mem_access() {
            return None;
        }
        let sig = self.signal(index);
        if !matches!(sig.source(), SignalSource::Constant(_)) {
            return None;
        }
        let prefix = format!("{}.idx", n.name());
        if !sig.name().starts_with(&prefix) {
            return None;
        }
        // Allocated immediately before the node's output, consumed only
        // by this node — exactly what a re-parse reproduces.
        if index.index() + 1 != n.output().index() {
            return None;
        }
        if self.consumers(index) != [node] {
            return None;
        }
        Some(index)
    }

    /// Renders an access index: the literal for inline constants, the
    /// signal name otherwise.
    fn index_repr(
        &self,
        node: NodeId,
        index: SignalId,
        inline_idx: &std::collections::BTreeSet<SignalId>,
    ) -> String {
        if inline_idx.contains(&index) && self.inline_index_const(node, index) == Some(index) {
            if let SignalSource::Constant(v) = self.signal(index).source() {
                return v.to_string();
            }
        }
        self.signal(index).name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse_dfg, DfgBuilder};
    use hls_celllib::OpKind;

    #[test]
    fn round_trips_a_branchy_graph() {
        let text = "dfg cond
            input a, b
            op t = add(a, b) @branch(0.0)
            op e = sub(a, b) @branch(0.1)
            op m = or(t, e)";
        let dfg = parse_dfg(text).unwrap();
        let emitted = dfg.to_text().unwrap();
        let reparsed = parse_dfg(&emitted).unwrap();
        assert_eq!(dfg, reparsed);
    }

    #[test]
    fn round_trips_nested_branches() {
        let text = "input a
            op t = inc(a) @branch(0.0/1.0)
            op u = dec(a) @branch(0.0/1.1)";
        let dfg = parse_dfg(text).unwrap();
        let reparsed = parse_dfg(&dfg.to_text().unwrap()).unwrap();
        assert_eq!(dfg, reparsed);
    }

    #[test]
    fn loops_are_not_expressible() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.begin_loop("l", 2);
        b.op("t", OpKind::Inc, &[x]).unwrap();
        b.end_loop();
        let g = b.finish().unwrap();
        assert!(g.to_text().is_none());
    }

    #[test]
    fn stage_nodes_are_not_expressible() {
        use crate::transform::expand_structural_stages;
        use hls_celllib::TimingSpec;
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("m", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let (e, _) =
            expand_structural_stages(&g, &spec, &[OpKind::Mul].into_iter().collect()).unwrap();
        assert!(e.to_text().is_none());
    }

    #[test]
    fn round_trips_a_memory_graph_id_exact() {
        let text = "dfg mem
            input i, v
            bank ram(ports=2)
            array a[16] @ ram
            load x = a[i]
            store a[i] = v
            load y = a[3]
            store s1 = a[7], y";
        let dfg = parse_dfg(text).unwrap();
        let emitted = dfg.to_text().unwrap();
        let reparsed = parse_dfg(&emitted).unwrap();
        assert_eq!(dfg, reparsed);
        // Literal indices stay literals across the round trip.
        assert!(emitted.contains("load y = a[3]"));
        assert!(emitted.contains("store s1 = a[7], y"));
    }

    #[test]
    fn unused_constants_survive() {
        let text = "input a\nconst k = -7\nop t = inc(a)";
        let dfg = parse_dfg(text).unwrap();
        let emitted = dfg.to_text().unwrap();
        assert!(emitted.contains("const k = -7"));
        assert_eq!(parse_dfg(&emitted).unwrap(), dfg);
    }
}
