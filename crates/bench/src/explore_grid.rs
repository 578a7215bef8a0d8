//! The paper's experiment grid as `hls-explore` design points: the one
//! place an example's chaining clock, functional-pipelining latency and
//! structurally pipelined operators become scheduler knobs. Every
//! harness runs these points through the exploration engine or
//! [`hls_explore::run_move_frame`].

use hls_benchmarks::examples::{self, Example};
use hls_explore::{Algorithm, DesignPoint, Engine, ExploreOptions, ExploreReport};

/// The MFS design point for `example` at time constraint `t`, with the
/// example's chaining clock, pipelining latency and stage expansion
/// applied.
pub fn mfs_point(example: &Example, t: u32) -> DesignPoint {
    let mut p = DesignPoint::new(Algorithm::Mfs, t);
    p.clock = example.clock().map(|c| c.as_u32());
    p.latency = example.latency_for(t);
    if let Some(ops) = example.pipelined_ops() {
        p.pipeline_ops = ops.clone();
    }
    p
}

/// The MFSA design point for `example` at time constraint `t` (Table 2
/// uses `example.mfsa_cs`) in the given design style (1 or 2).
/// Structurally pipelined operators stay whole 2-cycle ALUs: Table 2
/// reports whole ALUs, and the cell library has no per-stage cells.
pub fn mfsa_point(example: &Example, t: u32, style: u8) -> DesignPoint {
    let mut p = DesignPoint::new(Algorithm::Mfsa, t);
    p.style = style;
    p.clock = example.clock().map(|c| c.as_u32());
    p.latency = example.latency_for(t);
    p
}

/// Every paper-table design point of one example: the Table-1 MFS sweep
/// followed by the two Table-2 MFSA styles.
pub fn paper_points(example: &Example) -> Vec<DesignPoint> {
    let mut points: Vec<DesignPoint> = example
        .time_constraints
        .iter()
        .map(|&t| mfs_point(example, t))
        .collect();
    points.push(mfsa_point(example, example.mfsa_cs, 1));
    points.push(mfsa_point(example, example.mfsa_cs, 2));
    points
}

/// Explores the full paper grid (all six examples), returning the
/// per-example reports in example order.
pub fn explore_paper_grid(engine: &Engine, threads: usize) -> Vec<(Example, ExploreReport)> {
    examples::all()
        .into_iter()
        .map(|e| {
            let points = paper_points(&e);
            let report = engine.explore(&e.dfg, &e.spec, &points, ExploreOptions { threads });
            (e, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_explores_every_example() {
        let engine = Engine::new();
        let grid = explore_paper_grid(&engine, 2);
        assert_eq!(grid.len(), 6);
        for (e, report) in &grid {
            assert_eq!(report.results.len(), e.time_constraints.len() + 2);
            assert!(
                report.results.iter().all(|r| r.outcome.is_ok()),
                "ex{} has failing points",
                e.id
            );
            assert!(!report.front.is_empty());
        }
    }
}
