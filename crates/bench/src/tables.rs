//! Table 1 and Table 2 regenerated through the exploration engine, so
//! the sweeps share its cache and worker pool.

use std::fmt::Write as _;
use std::time::Duration;

use hls_benchmarks::examples::{self, Example, Feature};
use hls_explore::{DesignPoint, Engine, ExploreOptions};

use crate::{mfs_point, mfsa_point};

/// One row of the regenerated Table 1 (MFS results).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Example number.
    pub example: u8,
    /// Example name.
    pub name: String,
    /// The Table-1 feature flag (`1`, `2`, `C`, `F`, `S`).
    pub feature: String,
    /// The time constraint.
    pub t: u32,
    /// The FU mix in the paper's notation.
    pub mix: String,
    /// Local reschedulings.
    pub reschedules: u32,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

fn feature_flag(e: &Example) -> String {
    match &e.feature {
        Feature::SingleCycle => "1".into(),
        Feature::TwoCycleMultiply => "2".into(),
        Feature::Chaining(_) => "1,C".into(),
        Feature::FunctionalPipelining(_) => "1,F".into(),
        Feature::StructuralPipelining(_) => "2,S".into(),
    }
}

/// Runs MFS on all six examples over their sweeps — the data behind the
/// paper's Table 1 — on `threads` engine workers. The rows come in
/// example and sweep order; only the wall times vary run to run.
pub fn table1_engine(engine: &Engine, threads: usize) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for e in examples::all() {
        let points: Vec<DesignPoint> = e
            .time_constraints
            .iter()
            .map(|&t| mfs_point(&e, t))
            .collect();
        let report = engine.explore(&e.dfg, &e.spec, &points, ExploreOptions { threads });
        for (r, &t) in report.results.iter().zip(&e.time_constraints) {
            let (mix, reschedules, wall) = match &r.outcome {
                Ok(m) => (
                    m.mix.clone(),
                    m.reschedules,
                    Duration::from_nanos(r.wall_ns),
                ),
                Err(err) => (format!("<{err}>"), 0, Duration::ZERO),
            };
            rows.push(Table1Row {
                example: e.id,
                name: e.name.to_string(),
                feature: feature_flag(&e),
                t,
                mix,
                reschedules,
                wall,
            });
        }
    }
    rows
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: MFS results for the six examples");
    let _ = writeln!(
        out,
        "{:<3} {:<17} {:<8} {:<4} {:<24} {:>6} {:>10}",
        "Ex", "name", "feature", "T", "FUs", "resch", "cpu"
    );
    let mut last = 0;
    for row in rows {
        if row.example != last {
            let _ = writeln!(out, "{}", "-".repeat(78));
            last = row.example;
        }
        let _ = writeln!(
            out,
            "#{:<2} {:<17} {:<8} {:<4} {:<24} {:>6} {:>8.2?}",
            row.example, row.name, row.feature, row.t, row.mix, row.reschedules, row.wall
        );
    }
    let total: Duration = rows.iter().map(|r| r.wall).sum();
    let _ = writeln!(out, "{}", "-".repeat(78));
    let _ = writeln!(
        out,
        "total scheduling time: {total:.2?} (paper: < 0.2 s per run on a SPARC-SLC)"
    );
    out
}

/// One row of the regenerated Table 2 (MFSA results).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Example number.
    pub example: u8,
    /// Example name.
    pub name: String,
    /// The time constraint.
    pub t: u32,
    /// 1 or 2.
    pub style: u8,
    /// The ALU set in the paper's notation (e.g. `2(+-*),(+)`).
    pub alus: String,
    /// Overall cost in µm².
    pub cost: u64,
    /// Register count.
    pub reg: usize,
    /// Real multiplexer count.
    pub mux: usize,
    /// Total mux inputs.
    pub muxin: usize,
    /// Wall-clock time.
    pub wall: Duration,
}

/// Runs MFSA (styles 1 and 2) on all six examples at their Table-2
/// time constraints on `threads` engine workers. The rows come in
/// example and style order; only the wall times vary run to run.
pub fn table2_engine(engine: &Engine, threads: usize) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for e in examples::all() {
        let points = [1, 2].map(|style| mfsa_point(&e, e.mfsa_cs, style));
        let report = engine.explore(&e.dfg, &e.spec, &points, ExploreOptions { threads });
        for (r, style) in report.results.iter().zip([1u8, 2]) {
            let row = match &r.outcome {
                Ok(m) => {
                    let d = m
                        .mfsa
                        .as_ref()
                        .expect("MFSA points always carry MFSA detail");
                    Table2Row {
                        example: e.id,
                        name: e.name.to_string(),
                        t: e.mfsa_cs,
                        style,
                        alus: d.alus.clone(),
                        cost: d.total_cost,
                        reg: m.registers,
                        mux: d.mux,
                        muxin: d.muxin,
                        wall: Duration::from_nanos(r.wall_ns),
                    }
                }
                Err(err) => Table2Row {
                    example: e.id,
                    name: e.name.to_string(),
                    t: e.mfsa_cs,
                    style,
                    alus: format!("<{err}>"),
                    cost: 0,
                    reg: 0,
                    mux: 0,
                    muxin: 0,
                    wall: Duration::ZERO,
                },
            };
            rows.push(row);
        }
    }
    rows
}

/// Renders Table 2 in the paper's layout, with the style-2 overhead
/// column the paper discusses (2–11 % in the original).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: MFSA results (NCR-like synthetic library)");
    let _ = writeln!(
        out,
        "{:<3} {:<17} {:<3} {:<5} {:<28} {:>8} {:>4} {:>4} {:>6} {:>9}",
        "Ex", "name", "T", "style", "ALUs", "cost", "REG", "MUX", "MUXin", "cpu"
    );
    let mut last = 0;
    for row in rows {
        if row.example != last {
            let _ = writeln!(out, "{}", "-".repeat(96));
            last = row.example;
        }
        let _ = writeln!(
            out,
            "#{:<2} {:<17} {:<3} {:<5} {:<28} {:>8} {:>4} {:>4} {:>6} {:>7.2?}",
            row.example,
            row.name,
            row.t,
            row.style,
            row.alus,
            row.cost,
            row.reg,
            row.mux,
            row.muxin,
            row.wall
        );
        if row.style == 2 {
            if let Some(s1) = rows
                .iter()
                .find(|r| r.example == row.example && r.t == row.t && r.style == 1)
            {
                if s1.cost > 0 && row.cost > 0 {
                    let overhead = 100.0 * (row.cost as f64 - s1.cost as f64) / s1.cost as f64;
                    let _ = writeln!(
                        out,
                        "    style-2 overhead: {overhead:+.1} % (paper: +2..11 %)"
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_sweep_points() {
        let rows = table1_engine(&Engine::new(), 2);
        // 2 + 1 + 3 + 3 + 3 + 3 sweep points.
        assert_eq!(rows.len(), 15);
        assert!(rows.iter().all(|r| !r.mix.starts_with('<')), "{rows:#?}");
        let text = render_table1(&rows);
        assert!(text.contains("Table 1"));
        assert!(text.contains("#6"));
    }

    #[test]
    fn table2_has_two_styles_per_example() {
        let rows = table2_engine(&Engine::new(), 2);
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.cost > 0), "{rows:#?}");
        for ex in 1..=6u8 {
            let s1 = rows
                .iter()
                .find(|r| r.example == ex && r.style == 1)
                .unwrap();
            let s2 = rows
                .iter()
                .find(|r| r.example == ex && r.style == 2)
                .unwrap();
            assert!(
                s2.cost as f64 >= 0.95 * s1.cost as f64,
                "ex{ex}: style 2 should not be much cheaper than style 1"
            );
        }
        let text = render_table2(&rows);
        assert!(text.contains("style-2 overhead"));
    }
}
