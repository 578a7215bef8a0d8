//! Hierarchical (nested-loop) scheduling (paper §5.2).
//!
//! "For nested loops, the operations of the inner most loop are
//! scheduled and allocated first, relative to the local time constraint.
//! When this is done, the entire loop is treated as a single operation
//! with an execution time that is equal to the loop's local time
//! constraint. This process is repeated for all loops until the outer
//! most loop is scheduled and allocated."

use hls_celllib::TimingSpec;
use hls_dfg::transform::fold_loop;
use hls_dfg::{Dfg, DfgBuilder, LoopId, SignalSource};

use crate::mfs::{self, MfsConfig, MfsOutcome};
use crate::MoveFrameError;

/// The schedule of one folded loop level.
#[derive(Debug, Clone)]
pub struct LoopLevel {
    /// The folded loop.
    pub loop_id: LoopId,
    /// Its name.
    pub name: String,
    /// The extracted body sub-graph the level was scheduled on.
    pub body: Dfg,
    /// The body's MFS outcome (within the loop's local time constraint).
    pub outcome: MfsOutcome,
}

/// The complete hierarchical schedule: one level per loop (innermost
/// first) plus the outer, loop-free graph.
#[derive(Debug, Clone)]
pub struct HierarchicalOutcome {
    /// Inner levels, in fold (innermost-first) order.
    pub levels: Vec<LoopLevel>,
    /// The fully folded top-level graph.
    pub top_dfg: Dfg,
    /// The top level's MFS outcome.
    pub top: MfsOutcome,
}

/// Extracts the direct members of loop `id` as a standalone graph:
/// signals produced outside the loop become primary inputs (named as in
/// the parent), constants stay constants.
///
/// # Errors
///
/// [`MoveFrameError::Dfg`] when the loop has no members or an inner loop
/// is still unfolded (its members would be silently dropped otherwise).
pub fn extract_loop_body(dfg: &Dfg, id: LoopId) -> Result<Dfg, MoveFrameError> {
    let members = dfg.loop_members(id);
    if members.is_empty() {
        return Err(MoveFrameError::Dfg(hls_dfg::DfgError::EmptyLoop(id)));
    }
    for region in dfg.loop_regions() {
        if region.parent() == Some(id) && !dfg.loop_members(region.id()).is_empty() {
            return Err(MoveFrameError::Dfg(hls_dfg::DfgError::EmptyLoop(
                region.id(),
            )));
        }
    }
    let region = dfg.loop_region(id).expect("members imply the region");
    let mut b = DfgBuilder::new(format!("{}-body", region.name()));
    let mut mapping = std::collections::BTreeMap::new();
    // External signals first.
    for &m in &members {
        for &sig in dfg.node(m).inputs() {
            if mapping.contains_key(&sig) {
                continue;
            }
            let s = dfg.signal(sig);
            let produced_inside = s.source().node().is_some_and(|p| members.contains(&p));
            if produced_inside {
                continue;
            }
            let new = match s.source() {
                SignalSource::Constant(v) => b.constant(s.name(), v),
                _ => b.input(s.name()),
            };
            mapping.insert(sig, new);
        }
    }
    // Members in topological order.
    for &n in dfg.topo_order() {
        if !members.contains(&n) {
            continue;
        }
        let node = dfg.node(n);
        let inputs: Vec<_> = node.inputs().iter().map(|s| mapping[s]).collect();
        let out = b.raw_node(node.name(), node.kind(), &inputs)?;
        mapping.insert(node.output(), out);
    }
    Ok(b.finish()?)
}

/// Schedules a graph with (possibly nested) loop regions: each loop
/// body is scheduled by MFS within its local time constraint, folded
/// into a super-operation, and the process repeats until the loop-free
/// top level is scheduled within `top_cs` steps.
///
/// `configure` builds the MFS configuration for a given time budget, so
/// callers can thread chaining or resource limits through every level
/// (the default is plain time-constrained MFS):
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
/// use hls_dfg::DfgBuilder;
/// use moveframe::loops::schedule_hierarchical;
/// use moveframe::mfs::MfsConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// b.begin_loop("accumulate", 2);
/// let t = b.op("t", OpKind::Mul, &[x, x])?;
/// let u = b.op("u", OpKind::Add, &[t, x])?;
/// b.end_loop();
/// let _done = b.op("done", OpKind::Inc, &[u])?;
/// let dfg = b.finish()?;
/// let spec = TimingSpec::uniform_single_cycle();
/// let out = schedule_hierarchical(&dfg, &spec, 4, MfsConfig::time_constrained)?;
/// assert_eq!(out.levels.len(), 1);
/// assert!(out.top.schedule.is_complete());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates MFS errors from any level (e.g. a loop body that does not
/// fit its local time constraint) and graph errors from folding.
pub fn schedule_hierarchical(
    dfg: &Dfg,
    spec: &TimingSpec,
    top_cs: u32,
    configure: impl Fn(u32) -> MfsConfig,
) -> Result<HierarchicalOutcome, MoveFrameError> {
    let mut current = dfg.clone();
    let mut levels = Vec::new();
    loop {
        // Deepest region that still has members.
        let deepest = current
            .loop_regions()
            .iter()
            .filter(|r| !current.loop_members(r.id()).is_empty())
            .max_by_key(|r| {
                let mut depth = 0;
                let mut cur = r.parent();
                while let Some(p) = cur {
                    depth += 1;
                    cur = current.loop_region(p).and_then(|x| x.parent());
                }
                depth
            })
            .map(|r| (r.id(), r.name().to_string(), r.time_constraint()));
        let Some((id, name, budget)) = deepest else {
            break;
        };
        let body = extract_loop_body(&current, id)?;
        let outcome = mfs::schedule(&body, spec, &configure(budget as u32))?;
        levels.push(LoopLevel {
            loop_id: id,
            name,
            body,
            outcome,
        });
        let (folded, _) = fold_loop(&current, id)?;
        current = folded;
    }
    let top = mfs::schedule(&current, spec, &configure(top_cs))?;
    Ok(HierarchicalOutcome {
        levels,
        top_dfg: current,
        top,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_schedule::{verify, VerifyOptions};

    fn nested() -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        b.begin_loop("outer", 6);
        let t = b.op("t", OpKind::Add, &[x, y]).unwrap();
        b.begin_loop("inner", 2);
        let v = b.op("v", OpKind::Mul, &[t, t]).unwrap();
        let w = b.op("w", OpKind::Add, &[v, x]).unwrap();
        b.end_loop();
        b.op("z", OpKind::Sub, &[w, t]).unwrap();
        b.end_loop();
        b.finish().unwrap()
    }

    #[test]
    fn extract_builds_a_standalone_body() {
        let g = nested();
        let inner = g
            .loop_regions()
            .iter()
            .find(|r| r.name() == "inner")
            .unwrap();
        let body = extract_loop_body(&g, inner.id()).unwrap();
        assert_eq!(body.node_count(), 2);
        assert!(body.node_by_name("v").is_some());
        assert!(
            body.signal_by_name("t").is_some(),
            "external input kept by name"
        );
    }

    #[test]
    fn extract_refuses_outer_before_inner() {
        let g = nested();
        let outer = g
            .loop_regions()
            .iter()
            .find(|r| r.name() == "outer")
            .unwrap();
        assert!(extract_loop_body(&g, outer.id()).is_err());
    }

    #[test]
    fn hierarchical_schedule_covers_all_levels() {
        let g = nested();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule_hierarchical(&g, &spec, 8, MfsConfig::time_constrained).unwrap();
        assert_eq!(out.levels.len(), 2);
        assert_eq!(out.levels[0].name, "inner");
        assert_eq!(out.levels[1].name, "outer");
        // Every level verifies on its own graph.
        for level in &out.levels {
            let v = verify(
                &level.body,
                &level.outcome.schedule,
                &spec,
                VerifyOptions::default(),
            );
            assert!(v.is_empty(), "{}: {v:?}", level.name);
        }
        let v = verify(
            &out.top_dfg,
            &out.top.schedule,
            &spec,
            VerifyOptions::default(),
        );
        assert!(v.is_empty(), "top: {v:?}");
        // The outer body sees the inner loop as a 2-cycle super-op, so
        // its 4 "operations" fit the 6-step budget.
        assert_eq!(out.levels[1].body.node_count(), 3);
    }

    #[test]
    fn tight_inner_budget_fails_loudly() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.begin_loop("body", 1);
        let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.op("u", OpKind::Add, &[t, x]).unwrap(); // 2-step chain, budget 1
        b.end_loop();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        assert!(matches!(
            schedule_hierarchical(&g, &spec, 4, MfsConfig::time_constrained),
            Err(MoveFrameError::Schedule(_))
        ));
    }

    #[test]
    fn loop_free_graph_has_no_levels() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("t", OpKind::Inc, &[x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule_hierarchical(&g, &spec, 2, MfsConfig::time_constrained).unwrap();
        assert!(out.levels.is_empty());
        assert!(out.top.schedule.is_complete());
    }
}

/// The synthesis (MFSA) analogue of [`LoopLevel`]: a loop body with its
/// own allocated data path.
#[derive(Debug, Clone)]
pub struct LoopDatapath {
    /// The folded loop.
    pub loop_id: LoopId,
    /// Its name.
    pub name: String,
    /// The extracted body sub-graph.
    pub body: Dfg,
    /// The body's MFSA outcome (schedule + data path + cost).
    pub outcome: crate::mfsa::MfsaOutcome,
}

/// The complete hierarchical synthesis: one data path per loop level
/// plus the top level — "the operations of the inner most loop are
/// scheduled **and allocated** first, relative to the local time
/// constraint" (§5.2).
#[derive(Debug, Clone)]
pub struct HierarchicalSynthesis {
    /// Inner levels, innermost first.
    pub levels: Vec<LoopDatapath>,
    /// The fully folded top-level graph.
    pub top_dfg: Dfg,
    /// The top level's MFS outcome (the folded super-operations use the
    /// whole inner data path, not a library ALU, so the top level is
    /// scheduled rather than allocated; its loop-free operations can be
    /// re-synthesised separately if desired).
    pub top: MfsOutcome,
}

/// Hierarchical mixed scheduling-allocation: every loop body gets its
/// own MFSA data path within its local time constraint; the folded top
/// level is scheduled with MFS within `top_cs`.
///
/// # Errors
///
/// Propagates MFSA errors from any level and MFS/graph errors from the
/// folded top level.
pub fn synthesize_hierarchical(
    dfg: &Dfg,
    spec: &TimingSpec,
    top_cs: u32,
    configure: impl Fn(u32) -> crate::mfsa::MfsaConfig,
) -> Result<HierarchicalSynthesis, MoveFrameError> {
    let mut current = dfg.clone();
    let mut levels = Vec::new();
    loop {
        let deepest = current
            .loop_regions()
            .iter()
            .filter(|r| !current.loop_members(r.id()).is_empty())
            .max_by_key(|r| {
                let mut depth = 0;
                let mut cur = r.parent();
                while let Some(p) = cur {
                    depth += 1;
                    cur = current.loop_region(p).and_then(|x| x.parent());
                }
                depth
            })
            .map(|r| (r.id(), r.name().to_string(), r.time_constraint()));
        let Some((id, name, budget)) = deepest else {
            break;
        };
        let body = extract_loop_body(&current, id)?;
        // A body containing already-folded inner loops cannot be
        // allocated to library ALUs; schedule_hierarchical covers that
        // case. Here each body must be loop-free after extraction,
        // which holds because deeper levels were folded first and their
        // super-nodes are rejected by MFSA — detect and say so.
        let outcome = crate::mfsa::schedule(&body, spec, &configure(budget as u32))?;
        levels.push(LoopDatapath {
            loop_id: id,
            name,
            body,
            outcome,
        });
        let (folded, _) = fold_loop(&current, id)?;
        current = folded;
    }
    let top = mfs::schedule(&current, spec, &MfsConfig::time_constrained(top_cs))?;
    Ok(HierarchicalSynthesis {
        levels,
        top_dfg: current,
        top,
    })
}

#[cfg(test)]
mod synthesis_tests {
    use super::*;
    use hls_celllib::{Library, OpKind};
    use hls_rtl::verify_datapath;

    #[test]
    fn each_loop_level_gets_its_own_datapath() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.begin_loop("body", 3);
        let t = b.op("t", OpKind::Mul, &[x, x]).unwrap();
        let u = b.op("u", OpKind::Add, &[t, x]).unwrap();
        b.end_loop();
        b.op("after", OpKind::Inc, &[u]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = synthesize_hierarchical(&dfg, &spec, 5, |cs| {
            crate::mfsa::MfsaConfig::new(cs, Library::ncr_like())
        })
        .unwrap();
        assert_eq!(out.levels.len(), 1);
        let level = &out.levels[0];
        assert!(level.outcome.cost.total().as_u64() > 0);
        let rv = verify_datapath(
            &level.body,
            &level.outcome.schedule,
            &level.outcome.datapath,
            &spec,
        );
        assert!(rv.is_empty(), "{rv:?}");
        assert!(out.top.schedule.is_complete());
    }

    #[test]
    fn nested_loops_fail_gracefully_when_mfsa_meets_a_super_node() {
        // The outer body contains the inner super-node, which MFSA
        // cannot allocate — the error must be surfaced, not panicked.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.begin_loop("outer", 8);
        let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.begin_loop("inner", 2);
        b.op("v", OpKind::Mul, &[t, t]).unwrap();
        b.end_loop();
        b.end_loop();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let result = synthesize_hierarchical(&dfg, &spec, 10, |cs| {
            crate::mfsa::MfsaConfig::new(cs, Library::ncr_like())
        });
        assert!(result.is_err());
    }
}
