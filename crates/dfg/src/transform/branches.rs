//! Mutual-exclusion preprocessing (paper §5.1).

use std::collections::BTreeMap;

use crate::signal::{BranchArm, BranchPath};
use crate::transform::Rebuilder;
use crate::{Dfg, DfgError, NodeId};

/// What [`prune_shared_branch_ops`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BranchPruneReport {
    /// `(kept, removed)` node-name pairs: each removed operation was a
    /// duplicate of the kept one in a sibling branch arm.
    pub merged: Vec<(String, String)>,
}

impl BranchPruneReport {
    /// Number of removed duplicate operations.
    pub fn removed_count(&self) -> usize {
        self.merged.len()
    }
}

fn common_prefix(a: &BranchPath, b: &BranchPath) -> Vec<BranchArm> {
    a.arms()
        .iter()
        .zip(b.arms())
        .take_while(|(x, y)| x == y)
        .map(|(x, _)| *x)
        .collect()
}

/// Removes operations duplicated across mutually exclusive branch arms,
/// keeping one representative hoisted to the arms' common branch prefix.
///
/// The paper: "we remove all of the operations which are shared between
/// branches except one of them. Obviously, those shared operations can be
/// executed by the same FU." Two operations are *shared* when they have
/// the same kind and the same input signals and live in mutually
/// exclusive branch arms.
///
/// ```
/// use hls_celllib::OpKind;
/// use hls_dfg::{transform::prune_shared_branch_ops, DfgBuilder};
///
/// # fn main() -> Result<(), hls_dfg::DfgError> {
/// let mut b = DfgBuilder::new("ite");
/// let x = b.input("x");
/// let y = b.input("y");
/// let branch = b.begin_branch();
/// b.enter_arm(branch, 0);
/// let t = b.op("t", OpKind::Add, &[x, y])?;   // then-arm: x + y
/// let _t2 = b.op("t2", OpKind::Mul, &[t, x])?;
/// b.exit_arm();
/// b.enter_arm(branch, 1);
/// let e = b.op("e", OpKind::Add, &[x, y])?;   // else-arm: x + y again
/// let _e2 = b.op("e2", OpKind::Sub, &[e, y])?;
/// b.exit_arm();
/// let dfg = b.finish()?;
/// let (pruned, report) = prune_shared_branch_ops(&dfg)?;
/// assert_eq!(report.removed_count(), 1);
/// assert_eq!(pruned.node_count(), 3);
/// // The survivor is hoisted out of the conditional:
/// let kept = pruned.node_by_name("t").unwrap();
/// assert!(pruned.node(kept).branch().is_top_level());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates graph-reconstruction errors; none are expected for valid
/// inputs.
pub fn prune_shared_branch_ops(dfg: &Dfg) -> Result<(Dfg, BranchPruneReport), DfgError> {
    let mut report = BranchPruneReport::default();
    // representative[id] = id of the node that replaces it (itself if kept).
    let mut representative: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    // The (possibly hoisted) branch path of each representative.
    let mut hoisted: BTreeMap<NodeId, BranchPath> = BTreeMap::new();

    // Process in topological order so that input signals of later nodes
    // can be compared *after* canonicalising through earlier merges.
    // key: (kind, canonical inputs) -> representative node.
    let mut seen: BTreeMap<(String, Vec<u32>), NodeId> = BTreeMap::new();
    // Canonical output signal of each original node after merging.
    let mut canon_out: BTreeMap<u32, u32> = BTreeMap::new();

    for &id in dfg.topo_order() {
        let node = dfg.node(id);
        let canon_inputs: Vec<u32> = node
            .inputs()
            .iter()
            .map(|s| {
                canon_out
                    .get(&(s.index() as u32))
                    .copied()
                    .unwrap_or(s.index() as u32)
            })
            .collect();
        let key = (format!("{}", node.kind()), canon_inputs);
        match seen.get(&key) {
            Some(&rep_id) if dfg.mutually_exclusive(rep_id, id) => {
                // A shared duplicate in a sibling arm: merge into rep.
                representative.insert(id, rep_id);
                canon_out.insert(
                    node.output().index() as u32,
                    dfg.node(rep_id).output().index() as u32,
                );
                let prefix = common_prefix(
                    hoisted
                        .get(&rep_id)
                        .unwrap_or_else(|| dfg.node(rep_id).branch()),
                    node.branch(),
                );
                hoisted.insert(rep_id, BranchPath::from_arms(prefix));
                report
                    .merged
                    .push((dfg.node(rep_id).name().to_string(), node.name().to_string()));
            }
            _ => {
                seen.insert(key, id);
                representative.insert(id, id);
            }
        }
    }

    let mut rb = Rebuilder::new(dfg);
    for &id in dfg.topo_order() {
        if representative[&id] != id {
            // Dropped: its output reads the representative's new output.
            continue;
        }
        let node = dfg.node(id);
        let inputs: Vec<_> = node
            .inputs()
            .iter()
            .map(|&s| {
                // Canonicalise through merges first (old-space), then map.
                let canon = canon_out
                    .get(&(s.index() as u32))
                    .map(|&i| crate::SignalId(i))
                    .unwrap_or(s);
                rb.map(canon)
            })
            .collect();
        let branch = hoisted
            .get(&id)
            .cloned()
            .unwrap_or_else(|| node.branch().clone());
        let (_, out) = rb.add_node(node.name(), node.kind(), inputs, branch, node.loop_id());
        rb.redirect(node.output(), out);
    }
    // Redirect removed nodes' outputs to their representatives' new outputs.
    for (&removed, &rep) in &representative {
        if removed != rep {
            let rep_new = rb.map(dfg.node(rep).output());
            rb.redirect(dfg.node(removed).output(), rep_new);
        }
    }
    // Nothing actually consumes those stale redirects (consumers were
    // canonicalised before mapping), but they keep `map` total.
    let out = rb.finish(dfg.name().to_string(), dfg.loops.clone())?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;
    use hls_celllib::OpKind;

    #[test]
    fn non_exclusive_duplicates_are_kept() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        b.op("a", OpKind::Add, &[x, y]).unwrap();
        b.op("b", OpKind::Add, &[x, y]).unwrap();
        let g = b.finish().unwrap();
        let (pruned, report) = prune_shared_branch_ops(&g).unwrap();
        assert_eq!(report.removed_count(), 0);
        assert_eq!(pruned.node_count(), 2);
    }

    #[test]
    fn consumers_are_rewired_to_the_survivor() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        let t = b.op("t", OpKind::Mul, &[x, y]).unwrap();
        let tu = b.op("tu", OpKind::Inc, &[t]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        let e = b.op("e", OpKind::Mul, &[x, y]).unwrap();
        let eu = b.op("eu", OpKind::Dec, &[e]).unwrap();
        b.exit_arm();
        b.op("join", OpKind::Or, &[tu, eu]).unwrap();
        let g = b.finish().unwrap();
        let (pruned, report) = prune_shared_branch_ops(&g).unwrap();
        assert_eq!(report.removed_count(), 1);
        assert_eq!(pruned.node_count(), 4);
        // `eu` must now read the kept multiply's output.
        let kept = pruned.node_by_name("t").unwrap();
        let eu = pruned.node_by_name("eu").unwrap();
        assert_eq!(pruned.preds(eu), &[kept]);
    }

    #[test]
    fn cascading_duplicates_merge_transitively() {
        // Both arms compute p = x*y, then q = p+x: both levels merge.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        let p0 = b.op("p0", OpKind::Mul, &[x, y]).unwrap();
        b.op("q0", OpKind::Add, &[p0, x]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        let p1 = b.op("p1", OpKind::Mul, &[x, y]).unwrap();
        b.op("q1", OpKind::Add, &[p1, x]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let (pruned, report) = prune_shared_branch_ops(&g).unwrap();
        assert_eq!(report.removed_count(), 2);
        assert_eq!(pruned.node_count(), 2);
    }

    #[test]
    fn different_inputs_are_not_shared() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        b.op("t", OpKind::Add, &[x, y]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        b.op("e", OpKind::Add, &[x, z]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let (_, report) = prune_shared_branch_ops(&g).unwrap();
        assert_eq!(report.removed_count(), 0);
    }

    #[test]
    fn three_way_case_keeps_one() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let branch = b.begin_branch();
        for arm in 0..3 {
            b.enter_arm(branch, arm);
            b.op(&format!("t{arm}"), OpKind::Add, &[x, y]).unwrap();
            b.exit_arm();
        }
        let g = b.finish().unwrap();
        let (pruned, report) = prune_shared_branch_ops(&g).unwrap();
        assert_eq!(report.removed_count(), 2);
        assert_eq!(pruned.node_count(), 1);
    }
}
