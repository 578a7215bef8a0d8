//! Structural-pipelining stage expansion (paper §5.5.1).

use std::collections::BTreeSet;

use hls_celllib::{OpKind, TimingSpec};

use crate::node::NodeKind;
use crate::transform::Rebuilder;
use crate::{Dfg, DfgError};

/// What [`expand_structural_stages`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageExpansion {
    /// `(original op name, stage count)` for every expanded operation.
    pub expanded: Vec<(String, u8)>,
}

impl StageExpansion {
    /// Number of expanded operations.
    pub fn count(&self) -> usize {
        self.expanded.len()
    }
}

/// Converts every multi-cycle operation whose kind appears in
/// `pipelined` into a chain of single-cycle *stage* nodes, one per cycle.
///
/// The paper: "Change multi-cycle operations (for which pipelined FU's
/// are available) to single-cycle operations of different types. After
/// this modification, different operations represent different stages of
/// a multi-stage pipelined functional unit." A k-cycle `Mul` becomes
/// `Mul#1 → Mul#2 → … → Mul#k` with each stage a distinct
/// [`crate::FuClass`]; the scheduler keeps stages in consecutive control
/// steps while letting stage `i` of one operation overlap stage `j ≠ i`
/// of another — exactly the overlap a pipelined multiplier provides.
///
/// Operations whose kind is not in `pipelined`, or that are single-cycle
/// under `spec`, are copied unchanged.
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
/// use hls_dfg::{transform::expand_structural_stages, DfgBuilder, NodeKind};
///
/// # fn main() -> Result<(), hls_dfg::DfgError> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// let y = b.input("y");
/// let m = b.op("m", OpKind::Mul, &[x, y])?;
/// let _a = b.op("a", OpKind::Add, &[m, x])?;
/// let dfg = b.finish()?;
/// let spec = TimingSpec::two_cycle_multiply();
/// let (expanded, report) =
///     expand_structural_stages(&dfg, &spec, &[OpKind::Mul].into_iter().collect())?;
/// assert_eq!(report.count(), 1);
/// assert_eq!(expanded.node_count(), 3); // m.s1, m.s2, a
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates graph-reconstruction errors; none are expected for valid
/// inputs.
pub fn expand_structural_stages(
    dfg: &Dfg,
    spec: &TimingSpec,
    pipelined: &BTreeSet<OpKind>,
) -> Result<(Dfg, StageExpansion), DfgError> {
    let mut report = StageExpansion::default();
    let mut rb = Rebuilder::new(dfg);
    for &id in dfg.topo_order() {
        let node = dfg.node(id);
        let expand = match node.kind() {
            NodeKind::Op(k) => {
                let cycles = spec.cycles(k);
                (cycles > 1 && pipelined.contains(&k)).then_some((k, cycles))
            }
            _ => None,
        };
        match expand {
            None => {
                rb.copy_node(dfg, id);
            }
            Some((kind, cycles)) => {
                report.expanded.push((node.name().to_string(), cycles));
                let mut prev = None;
                for stage in 0..cycles {
                    let inputs = match prev {
                        // Stage 1 consumes the original operands.
                        None => node.inputs().iter().map(|&s| rb.map(s)).collect(),
                        // Later stages consume the previous stage.
                        Some(sig) => vec![sig],
                    };
                    let (_, out) = rb.add_node(
                        &format!("{}.s{}", node.name(), stage + 1),
                        NodeKind::Stage {
                            base: kind,
                            index: stage,
                            of: cycles,
                        },
                        inputs,
                        node.branch().clone(),
                        node.loop_id(),
                    );
                    prev = Some(out);
                }
                // Consumers of the original output read the last stage.
                rb.redirect(node.output(), prev.expect("cycles >= 1"));
            }
        }
    }
    let out = rb.finish(dfg.name().to_string(), dfg.loops.clone())?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, FuClass};

    fn two_muls_one_add() -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let m1 = b.op("m1", OpKind::Mul, &[x, y]).unwrap();
        let m2 = b.op("m2", OpKind::Mul, &[y, x]).unwrap();
        b.op("a", OpKind::Add, &[m1, m2]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn stages_form_a_chain() {
        let g = two_muls_one_add();
        let spec = TimingSpec::two_cycle_multiply();
        let (e, report) =
            expand_structural_stages(&g, &spec, &[OpKind::Mul].into_iter().collect()).unwrap();
        assert_eq!(report.count(), 2);
        assert_eq!(e.node_count(), 5);
        let s1 = e.node_by_name("m1.s1").unwrap();
        let s2 = e.node_by_name("m1.s2").unwrap();
        assert_eq!(e.preds(s2), &[s1]);
        let a = e.node_by_name("a").unwrap();
        assert!(e.preds(a).contains(&s2));
    }

    #[test]
    fn stage_classes_are_distinct_per_stage() {
        let g = two_muls_one_add();
        let spec = TimingSpec::two_cycle_multiply();
        let (e, _) =
            expand_structural_stages(&g, &spec, &[OpKind::Mul].into_iter().collect()).unwrap();
        let counts = e.class_counts();
        assert_eq!(
            counts[&FuClass::Stage {
                base: OpKind::Mul,
                index: 0
            }],
            2
        );
        assert_eq!(
            counts[&FuClass::Stage {
                base: OpKind::Mul,
                index: 1
            }],
            2
        );
        assert_eq!(counts[&FuClass::Op(OpKind::Add)], 1);
    }

    #[test]
    fn non_pipelined_multicycle_ops_are_untouched() {
        let g = two_muls_one_add();
        let spec = TimingSpec::two_cycle_multiply();
        let (e, report) = expand_structural_stages(&g, &spec, &BTreeSet::new()).unwrap();
        assert_eq!(report.count(), 0);
        assert_eq!(e.node_count(), g.node_count());
    }

    #[test]
    fn single_cycle_ops_are_never_expanded() {
        let g = two_muls_one_add();
        let spec = TimingSpec::uniform_single_cycle();
        let (e, report) =
            expand_structural_stages(&g, &spec, &[OpKind::Mul].into_iter().collect()).unwrap();
        assert_eq!(report.count(), 0);
        assert_eq!(e.node_count(), g.node_count());
    }

    #[test]
    fn three_stage_expansion() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Div, &[x, x]).unwrap();
        b.op("o", OpKind::Inc, &[m]).unwrap();
        let g = b.finish().unwrap();
        let mut spec = TimingSpec::uniform_single_cycle();
        spec.set(
            OpKind::Div,
            hls_celllib::OpTiming::multi_cycle(3, hls_celllib::Delay::ZERO),
        );
        let (e, report) =
            expand_structural_stages(&g, &spec, &[OpKind::Div].into_iter().collect()).unwrap();
        assert_eq!(report.expanded, vec![("m".to_string(), 3)]);
        assert_eq!(e.node_count(), 4);
        assert!(e.node_by_name("m.s3").is_some());
    }
}
