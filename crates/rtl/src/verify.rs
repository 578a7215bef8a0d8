//! Independent structural verification of a data path.

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, NodeId, NodeKind, SignalId, SignalSource};
use hls_schedule::Schedule;

use crate::{AluId, Datapath, NetSource};

/// A structural defect found by [`verify_datapath`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtlViolation {
    /// Two non-exclusive operations execute on the same ALU in
    /// overlapping steps.
    AluConflict {
        /// First operation.
        a: NodeId,
        /// Second operation.
        b: NodeId,
        /// The contended instance.
        alu: AluId,
    },
    /// An operation's operand source is missing from the corresponding
    /// mux input list.
    MuxMissingSource {
        /// The operation.
        node: NodeId,
        /// The port (1 or 2) whose mux lacks the source.
        port: u8,
    },
    /// A stored signal's register holds an overlapping life span.
    RegisterOverlap {
        /// The register with colliding spans.
        register: crate::RegId,
    },
    /// A signal consumed strictly after production has no register.
    Unstored {
        /// The signal.
        signal: SignalId,
        /// The consumer.
        consumer: NodeId,
    },
    /// Two non-exclusive memory accesses execute on the same bank port
    /// in the same control step.
    PortConflict {
        /// First access.
        a: NodeId,
        /// Second access.
        b: NodeId,
        /// The contended bank.
        bank: hls_dfg::BankId,
        /// The contended port.
        port: u32,
    },
}

/// Calls `hit(i, j)`, in `(i, j)` order, for every pair `i < j` whose
/// closed intervals `spans[i]` and `spans[j]` overlap. When the interval
/// starts ascend (as they do for a data path checked against the
/// schedule it was built from), the scan for `i` stops at the first `j`
/// starting after `spans[i]` ends: O(n + hits). Otherwise every pair is
/// tested.
fn overlapping_pairs(spans: &[(u32, u32)], mut hit: impl FnMut(usize, usize)) {
    let ascending = spans.windows(2).all(|w| w[0].0 <= w[1].0);
    for (i, &(lo, hi)) in spans.iter().enumerate() {
        for (j, &(lo2, hi2)) in spans.iter().enumerate().skip(i + 1) {
            if lo2 > hi {
                if ascending {
                    break;
                }
                continue;
            }
            if lo <= hi2 {
                hit(i, j);
            }
        }
    }
}

/// Re-derives every structural requirement of `datapath` from the graph
/// and schedule, independently of how it was built.
pub fn verify_datapath(
    dfg: &Dfg,
    schedule: &Schedule,
    datapath: &Datapath,
    spec: &TimingSpec,
) -> Vec<RtlViolation> {
    let mut violations = Vec::new();

    // ALU occupancy: operations overlapping on one instance, skipping
    // unscheduled ones.
    let mut placed: Vec<NodeId> = Vec::new();
    let mut spans: Vec<(u32, u32)> = Vec::new();
    for alu in datapath.alus() {
        placed.clear();
        spans.clear();
        for &a in &alu.ops {
            if let Some(sa) = schedule.start(a) {
                let fa = sa.finish(dfg.node(a).kind().cycles(spec));
                placed.push(a);
                spans.push((sa.get(), fa.get()));
            }
        }
        overlapping_pairs(&spans, |i, j| {
            let (a, b) = (placed[i], placed[j]);
            if !dfg.mutually_exclusive(a, b) {
                violations.push(RtlViolation::AluConflict { a, b, alu: alu.id });
            }
        });
    }

    // Mux coverage: each op's oriented sources must be on its ALU ports.
    for alu in datapath.alus() {
        let covers = |port: u8, src: NetSource| {
            datapath
                .mux(alu.id, port)
                .is_some_and(|m| m.sources.contains(&src))
        };
        for &op in &alu.ops {
            let Some((p1, p2)) = datapath.operand_sources(op) else {
                violations.push(RtlViolation::MuxMissingSource { node: op, port: 1 });
                continue;
            };
            if !covers(1, p1) {
                violations.push(RtlViolation::MuxMissingSource { node: op, port: 1 });
            }
            if p2.is_some_and(|p2| !covers(2, p2)) {
                violations.push(RtlViolation::MuxMissingSource { node: op, port: 2 });
            }
        }
    }

    // Bank-port occupancy: single-cycle accesses, so a conflict is two
    // accesses sharing a step on one port.
    for p in datapath.mem_ports() {
        placed.clear();
        spans.clear();
        for &a in &p.accesses {
            if let Some(sa) = schedule.start(a) {
                placed.push(a);
                spans.push((sa.get(), sa.get()));
            }
        }
        overlapping_pairs(&spans, |i, j| {
            let (a, b) = (placed[i], placed[j]);
            if !dfg.mutually_exclusive(a, b) {
                violations.push(RtlViolation::PortConflict {
                    a,
                    b,
                    bank: p.bank,
                    port: p.port,
                });
            }
        });
    }

    // Register life spans must not overlap within a register.
    for (reg, lifetimes) in datapath.register_allocation().iter() {
        spans.clear();
        spans.extend(lifetimes.iter().map(|l| (l.birth, l.death)));
        overlapping_pairs(&spans, |_, _| {
            violations.push(RtlViolation::RegisterOverlap { register: reg });
        });
    }

    // Every non-chained consumption must come from a register (and the
    // oriented operand sources must say so).
    for id in dfg.node_ids() {
        let node = dfg.node(id);
        if matches!(node.kind(), NodeKind::LoopBody { .. }) {
            continue;
        }
        let Some(c_start) = schedule.start(id) else {
            continue;
        };
        // A memory access's physical operands are its address (and, for
        // a store, its data); trailing ordering tokens are dependency
        // edges only and need no storage.
        let physical_inputs: &[SignalId] = if node.kind().is_mem_access() {
            let n = match node.kind() {
                NodeKind::Store { .. } => 2,
                _ => 1,
            };
            &node.inputs()[..n]
        } else {
            node.inputs()
        };
        for &sig in physical_inputs {
            if let SignalSource::Node(producer) = dfg.signal(sig).source() {
                let Some(p_finish) = schedule.finish(producer, dfg, spec) else {
                    continue;
                };
                if c_start > p_finish {
                    let stored = datapath.register_allocation().register_of(sig).is_some();
                    let sourced = datapath.operand_sources(id).is_some_and(|(a, b)| {
                        let want = datapath
                            .register_allocation()
                            .register_of(sig)
                            .map(NetSource::Register);
                        match want {
                            None => false,
                            Some(w) => a == w || b == Some(w),
                        }
                    });
                    if !stored || !sourced {
                        violations.push(RtlViolation::Unstored {
                            signal: sig,
                            consumer: id,
                        });
                    }
                }
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AluAllocation;
    use hls_celllib::{Library, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_schedule::{CStep, Slot, UnitId};
    use proptest::prelude::*;

    proptest! {
        /// The windowed scan reports exactly the overlapping pairs of the
        /// all-pairs scan, in the same order, whether the starts ascend
        /// (`sorted`) or not.
        #[test]
        fn overlapping_pairs_match_the_all_pairs_scan(
            spans in proptest::collection::vec((0u32..8, 0u32..4), 0..24),
            sorted in 0u8..2,
        ) {
            let mut spans: Vec<(u32, u32)> = spans.iter().map(|&(lo, len)| (lo, lo + len)).collect();
            if sorted == 1 {
                spans.sort_by_key(|s| s.0);
            }
            let mut got = Vec::new();
            overlapping_pairs(&spans, |i, j| got.push((i, j)));
            let mut want = Vec::new();
            for (i, a) in spans.iter().enumerate() {
                for (j, b) in spans.iter().enumerate().skip(i + 1) {
                    if a.0 <= b.1 && b.0 <= a.1 {
                        want.push((i, j));
                    }
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    fn fixture() -> (Dfg, Schedule, AluAllocation, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Sub, &[p, y]).unwrap();
        let g = b.finish().unwrap();
        let mut s = Schedule::new(&g, 2);
        s.assign(
            g.node_by_name("p").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        s.assign(
            g.node_by_name("q").unwrap(),
            Slot {
                step: CStep::new(2),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        (g, s, alloc, TimingSpec::uniform_single_cycle())
    }

    #[test]
    fn well_formed_datapath_verifies_clean() {
        let (g, s, alloc, spec) = fixture();
        let dp = Datapath::build(&g, &s, &alloc, &spec).unwrap();
        assert!(verify_datapath(&g, &s, &dp, &spec).is_empty());
    }

    #[test]
    fn alu_conflict_is_detected_when_schedule_shifts() {
        let (g, mut s, alloc, spec) = fixture();
        let dp = Datapath::build(&g, &s, &alloc, &spec).unwrap();
        // Move q onto p's step after building: conflict.
        s.assign(
            g.node_by_name("q").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        let v = verify_datapath(&g, &s, &dp, &spec);
        assert!(v
            .iter()
            .any(|x| matches!(x, RtlViolation::AluConflict { .. })));
    }
}
