//! Table 1 and Table 2 regeneration.

use std::fmt::Write as _;
use std::time::Duration;

use hls_benchmarks::examples::{self, Example, Feature};
use hls_celllib::Library;
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfsa::{DesignStyle, MfsaConfig};

use crate::runner::{run_example_mfs, run_example_mfsa};

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

pub(crate) fn feature_flag(e: &Example) -> String {
    match &e.feature {
        Feature::SingleCycle => "1".into(),
        Feature::TwoCycleMultiply => "2".into(),
        Feature::Chaining(_) => "1,C".into(),
        Feature::FunctionalPipelining(_) => "1,F".into(),
        Feature::StructuralPipelining(_) => "2,S".into(),
    }
}

/// Runs MFS on all six examples over their sweeps — the data behind the
/// paper's Table 1.
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    for e in examples::all() {
        for &t in &e.time_constraints {
            match run_example_mfs(&e, t, &mut instr) {
                Ok(run) => rows.push(Table1Row {
                    example: e.id,
                    name: e.name.to_string(),
                    feature: feature_flag(&e),
                    t,
                    mix: run.mix.to_string(),
                    reschedules: run.reschedules,
                    wall: run.wall,
                }),
                Err(err) => rows.push(Table1Row {
                    example: e.id,
                    name: e.name.to_string(),
                    feature: feature_flag(&e),
                    t,
                    mix: format!("<{err}>"),
                    reschedules: 0,
                    wall: Duration::ZERO,
                }),
            }
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

/// Runs MFSA (styles 1 and 2) on all six examples at their Table-2 time
/// constraints.
pub fn table2() -> Vec<Table2Row> {
    table2_with(|cs| MfsaConfig::new(cs, Library::ncr_like()))
}

/// Like [`table2`] but with a caller-supplied configuration factory
/// (used by the ablation harness to change weights or disable
/// interconnect sharing).
pub fn table2_with(make: impl Fn(u32) -> MfsaConfig) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    for e in examples::all() {
        for (style_no, style) in [
            (1u8, DesignStyle::Unrestricted),
            (2, DesignStyle::NoSelfLoop),
        ] {
            let config = make(e.mfsa_cs).with_style(style);
            match run_example_mfsa(&e, config, &mut instr) {
                Ok((outcome, wall)) => rows.push(Table2Row {
                    example: e.id,
                    name: e.name.to_string(),
                    t: e.mfsa_cs,
                    style: style_no,
                    alus: outcome.datapath.alu_signature(),
                    cost: outcome.cost.total().as_u64(),
                    reg: outcome.cost.reg_count,
                    mux: outcome.cost.mux_count,
                    muxin: outcome.cost.mux_inputs,
                    wall,
                }),
                Err(err) => rows.push(Table2Row {
                    example: e.id,
                    name: e.name.to_string(),
                    t: e.mfsa_cs,
                    style: style_no,
                    alus: format!("<{err}>"),
                    cost: 0,
                    reg: 0,
                    mux: 0,
                    muxin: 0,
                    wall: Duration::ZERO,
                }),
            }
        }
    }
    rows
}

/// Table 2 with non-default Liapunov weights (ablation harness).
pub fn tables_with_weights(weights: moveframe::mfsa::Weights) -> Vec<Table2Row> {
    table2_with(|cs| MfsaConfig::new(cs, Library::ncr_like()).with_weights(weights))
}

/// Table 2 with interconnect sharing disabled in `f_MUX` (ablation
/// harness, paper §5.7).
pub fn tables_without_interconnect() -> Vec<Table2Row> {
    table2_with(|cs| MfsaConfig::new(cs, Library::ncr_like()).without_interconnect_sharing())
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
        let rows = table1();
        // 2 + 1 + 3 + 3 + 3 + 3 sweep points.
        assert_eq!(rows.len(), 15);
        assert!(rows.iter().all(|r| !r.mix.starts_with('<')), "{rows:#?}");
        let text = render_table1(&rows);
        assert!(text.contains("Table 1"));
        assert!(text.contains("#6"));
    }

    #[test]
    fn table2_has_two_styles_per_example() {
        let rows = table2();
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
