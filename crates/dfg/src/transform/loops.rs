//! Loop folding (paper §5.2).

use std::collections::BTreeSet;

use crate::node::{LoopId, NodeKind};
use crate::transform::Rebuilder;
use crate::{Dfg, DfgError};

/// What [`fold_loop`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFoldReport {
    /// The folded loop.
    pub loop_id: LoopId,
    /// Name of the super-node representing the folded loop.
    pub super_node: String,
    /// Names of the absorbed operations.
    pub absorbed: Vec<String>,
}

/// Folds the loop region `id` into a single multi-cycle super-node.
///
/// The paper: "the operations of the inner most loop are scheduled and
/// allocated first, relative to the local time constraint. When this is
/// done, the entire loop is treated as a single operation with an
/// execution time that is equal to the loop's local time constraint."
///
/// The super-node
///
/// * occupies [`crate::LoopRegion::time_constraint`] consecutive
///   control steps,
/// * depends on every out-of-loop signal the body consumed, and
/// * produces one output signal; consumers of any body-produced signal
///   are rewired to it. (Merging the loop's outputs is a deliberate
///   simplification — the folded node models *timing and ordering* for
///   the outer schedule; the inner data path was already synthesised by
///   the recursive inner run.)
///
/// The loop must be *innermost-resolved*: any nested loop inside it must
/// have been folded first (its super-node then belongs to `id` and is
/// absorbed like an ordinary member). [`fold_all_loops`] drives this
/// bottom-up order automatically.
///
/// # Errors
///
/// [`DfgError::EmptyLoop`] if the region has no member nodes.
pub fn fold_loop(dfg: &Dfg, id: LoopId) -> Result<(Dfg, LoopFoldReport), DfgError> {
    let region = dfg.loop_region(id).ok_or(DfgError::EmptyLoop(id))?.clone();
    let members: BTreeSet<_> = dfg.loop_members(id).into_iter().collect();
    if members.is_empty() {
        return Err(DfgError::EmptyLoop(id));
    }
    // Check the loop is innermost-resolved: no other region claims it as
    // parent while still having members.
    for other in dfg.loop_regions() {
        if other.parent() == Some(id) && !dfg.loop_members(other.id()).is_empty() {
            return Err(DfgError::EmptyLoop(other.id()));
        }
    }

    // External inputs consumed by the body.
    let mut external_inputs = Vec::new();
    let mut seen = BTreeSet::new();
    for &m in &members {
        for &s in dfg.node(m).inputs() {
            let produced_inside = dfg
                .signal(s)
                .source()
                .node()
                .is_some_and(|p| members.contains(&p));
            if !produced_inside && seen.insert(s) {
                external_inputs.push(s);
            }
        }
    }

    let mut report = LoopFoldReport {
        loop_id: id,
        super_node: region.name().to_string(),
        absorbed: members
            .iter()
            .map(|&m| dfg.node(m).name().to_string())
            .collect(),
    };
    report.absorbed.sort();

    let mut rb = Rebuilder::new(dfg);
    let mut super_out = None;
    let mut emitted = false;
    for &nid in dfg.topo_order() {
        if members.contains(&nid) {
            if !emitted {
                emitted = true;
                let inputs: Vec<_> = external_inputs.iter().map(|&s| rb.map(s)).collect();
                let (_, out) = rb.add_node(
                    region.name(),
                    NodeKind::LoopBody {
                        loop_id: id,
                        cycles: region.time_constraint(),
                    },
                    inputs,
                    dfg.node(nid).branch().clone(),
                    region.parent(),
                );
                super_out = Some(out);
            }
            // All body outputs read the super-node's output.
            rb.redirect(dfg.node(nid).output(), super_out.expect("emitted"));
        } else {
            rb.copy_node(dfg, nid);
        }
    }
    // Wait: nodes *after* the first member in topo order but *before*
    // later members may consume later members' outputs — impossible, as
    // that would violate topological order. Consumers of any member
    // output appear after that member, and our single super-node is
    // emitted at the first member, so every member output is redirected
    // before any outside consumer is copied... except consumers between
    // two members that read the *first* member. Those are fine: the
    // redirect is already in place. Consumers of a *later* member that
    // appear after it are fine too. The only hazard would be an outside
    // consumer of a later member appearing before that member in topo
    // order, which topological order forbids.
    let loops = dfg.loops.iter().filter(|l| l.id() != id).cloned().collect();
    let out = rb.finish(dfg.name().to_string(), loops)?;
    Ok((out, report))
}

/// Folds every loop region, innermost first, until the graph is
/// loop-free. Returns the folded graph and one report per folded loop in
/// fold order.
///
/// ```
/// use hls_celllib::OpKind;
/// use hls_dfg::{transform::fold_all_loops, DfgBuilder, NodeKind};
///
/// # fn main() -> Result<(), hls_dfg::DfgError> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// b.begin_loop("body", 3);
/// let t = b.op("t", OpKind::Mul, &[x, x])?;
/// let _u = b.op("u", OpKind::Add, &[t, x])?;
/// b.end_loop();
/// let _done = b.op("done", OpKind::Inc, &[_u])?;
/// let (folded, reports) = fold_all_loops(&b.finish()?)?;
/// assert_eq!(reports.len(), 1);
/// assert_eq!(folded.node_count(), 2); // super-node + done
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`fold_loop`] errors (e.g. an empty region).
pub fn fold_all_loops(dfg: &Dfg) -> Result<(Dfg, Vec<LoopFoldReport>), DfgError> {
    let mut current = dfg.clone();
    let mut reports = Vec::new();
    loop {
        // Depth of each region.
        let deepest = current
            .loop_regions()
            .iter()
            .filter(|r| !current.loop_members(r.id()).is_empty())
            .max_by_key(|r| {
                let mut depth = 0;
                let mut cur = r.parent();
                while let Some(p) = cur {
                    depth += 1;
                    cur = current.loop_region(p).and_then(|r| r.parent());
                }
                depth
            })
            .map(|r| r.id());
        match deepest {
            None => return Ok((current, reports)),
            Some(id) => {
                let (next, report) = fold_loop(&current, id)?;
                current = next;
                reports.push(report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, FuClass};
    use hls_celllib::{OpKind, TimingSpec};

    #[test]
    fn folded_loop_becomes_multicycle_node() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let lp = b.begin_loop("body", 4);
        let t = b.op("t", OpKind::Mul, &[x, x]).unwrap();
        let u = b.op("u", OpKind::Add, &[t, x]).unwrap();
        b.end_loop();
        b.op("after", OpKind::Inc, &[u]).unwrap();
        let g = b.finish().unwrap();
        let (folded, report) = fold_loop(&g, lp).unwrap();
        assert_eq!(report.absorbed, vec!["t".to_string(), "u".to_string()]);
        assert_eq!(folded.node_count(), 2);
        let sup = folded.node_by_name("body").unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        assert_eq!(folded.node(sup).kind().cycles(&spec), 4);
        assert_eq!(folded.node(sup).kind().fu_class(), FuClass::Loop(lp));
        // `after` depends on the super-node.
        let after = folded.node_by_name("after").unwrap();
        assert_eq!(folded.preds(after), &[sup]);
    }

    #[test]
    fn nested_loops_fold_innermost_first() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let _outer = b.begin_loop("outer", 9);
        let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
        let _inner = b.begin_loop("inner", 3);
        let v = b.op("v", OpKind::Mul, &[t, t]).unwrap();
        b.end_loop();
        b.op("w", OpKind::Sub, &[v, t]).unwrap();
        b.end_loop();
        let g = b.finish().unwrap();
        let (folded, reports) = fold_all_loops(&g).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].super_node, "inner");
        assert_eq!(reports[1].super_node, "outer");
        // Inner's super-node was absorbed by outer's fold.
        assert!(reports[1].absorbed.contains(&"inner".to_string()));
        assert_eq!(folded.node_count(), 1);
        assert_eq!(folded.loop_regions().len(), 0);
        // The remaining node is the outer super-node with 9 cycles.
        let spec = TimingSpec::uniform_single_cycle();
        let (_, only) = folded.nodes().next().unwrap();
        assert_eq!(only.kind().cycles(&spec), 9);
        assert_eq!(only.name(), "outer");
    }

    #[test]
    fn folding_outer_before_inner_is_rejected() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let outer = b.begin_loop("outer", 9);
        let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.begin_loop("inner", 3);
        b.op("v", OpKind::Mul, &[t, t]).unwrap();
        b.end_loop();
        b.end_loop();
        let g = b.finish().unwrap();
        assert!(matches!(fold_loop(&g, outer), Err(DfgError::EmptyLoop(_))));
    }

    #[test]
    fn graph_without_loops_is_unchanged() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("t", OpKind::Inc, &[x]).unwrap();
        let g = b.finish().unwrap();
        let (folded, reports) = fold_all_loops(&g).unwrap();
        assert!(reports.is_empty());
        assert_eq!(folded.node_count(), 1);
    }

    #[test]
    fn unknown_loop_is_an_error() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("t", OpKind::Inc, &[x]).unwrap();
        let g = b.finish().unwrap();
        assert!(fold_loop(&g, LoopId::new(7)).is_err());
    }
}
