//! Instance duplication for functional pipelining (paper §5.5.2, step 1).

use std::collections::BTreeMap;

use crate::signal::SignalSource;
use crate::transform::Rebuilder;
use crate::{Dfg, DfgError, NodeId};

/// The node names of one duplicated instance, paired with the new graph's
/// node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceCopy {
    /// 1-based instance number (1 = the original).
    pub instance: u32,
    /// New-graph node ids belonging to this instance, in topological
    /// order of the original graph.
    pub nodes: Vec<NodeId>,
}

/// Builds `DFG_double` (or triple, …): `copies` independent instances of
/// the behaviour, each with its own primary inputs, sharing constants.
///
/// This is step 1 of the paper's functional-pipelining procedure:
/// "consider a new DFG consisting of two instances with delay of `L`
/// cycles in between". The *delay* is a scheduling-time constraint (the
/// second instance's frame is offset by the latency `L`); the graph
/// itself just contains the two disjoint instance subgraphs, which this
/// function produces together with the instance↔node mapping the
/// scheduler needs.
///
/// Instance `i ≥ 2` gets nodes and inputs renamed with an `@i` suffix.
///
/// ```
/// use hls_celllib::OpKind;
/// use hls_dfg::{transform::duplicate_instances, DfgBuilder};
///
/// # fn main() -> Result<(), hls_dfg::DfgError> {
/// let mut b = DfgBuilder::new("body");
/// let x = b.input("x");
/// let t = b.op("t", OpKind::Mul, &[x, x])?;
/// let _u = b.op("u", OpKind::Add, &[t, x])?;
/// let (doubled, instances) = duplicate_instances(&b.finish()?, 2)?;
/// assert_eq!(doubled.node_count(), 4);
/// assert_eq!(instances.len(), 2);
/// assert!(doubled.node_by_name("t@2").is_some());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates graph-reconstruction errors; none are expected for valid
/// inputs.
///
/// # Panics
///
/// Panics if `copies` is zero.
pub fn duplicate_instances(dfg: &Dfg, copies: u32) -> Result<(Dfg, Vec<InstanceCopy>), DfgError> {
    assert!(copies >= 1, "at least one instance is required");
    let mut rb = Rebuilder::new(dfg);
    let mut instances = Vec::with_capacity(copies as usize);

    // Instance 1: verbatim copy.
    let mut first = InstanceCopy {
        instance: 1,
        nodes: Vec::new(),
    };
    for &id in dfg.topo_order() {
        let (new_id, _) = rb.copy_node(dfg, id);
        first.nodes.push(new_id);
    }
    instances.push(first);

    for inst in 2..=copies {
        // Fresh primary inputs for this initiation; constants shared.
        let mut local: BTreeMap<crate::SignalId, crate::SignalId> = BTreeMap::new();
        for (sid, sig) in dfg.signals() {
            match sig.source() {
                SignalSource::PrimaryInput => {
                    let new = rb.add_external(
                        &format!("{}@{inst}", sig.name()),
                        SignalSource::PrimaryInput,
                    );
                    local.insert(sid, new);
                }
                SignalSource::Constant(_) => {
                    local.insert(sid, rb.map(sid));
                }
                SignalSource::Node(_) => {}
            }
        }
        let mut copy = InstanceCopy {
            instance: inst,
            nodes: Vec::new(),
        };
        for &id in dfg.topo_order() {
            let node = dfg.node(id);
            let inputs: Vec<_> = node
                .inputs()
                .iter()
                .map(|s| {
                    *local
                        .get(s)
                        .expect("topological order maps producers first")
                })
                .collect();
            let (new_id, out) = rb.add_node(
                &format!("{}@{inst}", node.name()),
                node.kind(),
                inputs,
                node.branch().clone(),
                node.loop_id(),
            );
            local.insert(node.output(), out);
            copy.nodes.push(new_id);
        }
        instances.push(copy);
    }

    let name = format!("{}x{copies}", dfg.name());
    let out = rb.finish(name, dfg.loops.clone())?;
    Ok((out, instances))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;
    use hls_celllib::OpKind;

    fn body() -> Dfg {
        let mut b = DfgBuilder::new("body");
        let x = b.input("x");
        let k = b.constant("k", 5);
        let t = b.op("t", OpKind::Mul, &[x, k]).unwrap();
        b.op("u", OpKind::Add, &[t, x]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn instances_are_disjoint_subgraphs() {
        let (g, instances) = duplicate_instances(&body(), 2).unwrap();
        assert_eq!(g.node_count(), 4);
        let (a, b) = (&instances[0].nodes, &instances[1].nodes);
        // No dependency edges between instances.
        for &n in a {
            for &p in g.preds(n) {
                assert!(a.contains(&p));
            }
        }
        for &n in b {
            for &p in g.preds(n) {
                assert!(b.contains(&p));
            }
        }
    }

    #[test]
    fn constants_are_shared_inputs_are_not() {
        let (g, _) = duplicate_instances(&body(), 2).unwrap();
        assert!(g.signal_by_name("x@2").is_some());
        assert!(g.signal_by_name("k@2").is_none());
        // Both multiplies consume the same constant signal.
        let k = g.signal_by_name("k").unwrap();
        assert_eq!(g.consumers(k).len(), 2);
    }

    #[test]
    fn single_copy_is_identity_sized() {
        let orig = body();
        let (g, instances) = duplicate_instances(&orig, 1).unwrap();
        assert_eq!(g.node_count(), orig.node_count());
        assert_eq!(instances.len(), 1);
    }

    #[test]
    fn triple_copy() {
        let (g, instances) = duplicate_instances(&body(), 3).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(instances[2].instance, 3);
        assert!(g.node_by_name("u@3").is_some());
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_copies_panics() {
        let _ = duplicate_instances(&body(), 0);
    }
}
