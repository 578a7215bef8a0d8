//! Extended design-space exploration: sweeps every example over a time
//! range around its paper sweep and prints the (T, MFS units, MFSA
//! cost/REG/MUXin) trade-off curve — the data behind the paper's
//! "hardware cost-speed tradeoffs" framing (§1).

use hls_bench::{mfs_point, mfsa_point};
use hls_benchmarks::examples;
use hls_explore::{default_threads, DesignPoint, Engine, ExploreOptions};

fn main() {
    let engine = Engine::new();
    let threads = default_threads();
    for e in examples::all() {
        println!("=== example {}: {} ===", e.id, e.name);
        println!(
            "{:<5} {:<26} {:>10} {:>5} {:>6}",
            "T", "MFS units", "MFSA cost", "REG", "MUXin"
        );
        let lo = *e.time_constraints.first().expect("sweeps are non-empty");
        let hi = *e.time_constraints.last().expect("sweeps are non-empty") + 2;
        let points: Vec<DesignPoint> = (lo..=hi)
            .flat_map(|t| [mfs_point(&e, t), mfsa_point(&e, t, 1)])
            .collect();
        let report = engine.explore(&e.dfg, &e.spec, &points, ExploreOptions { threads });
        for (t, pair) in (lo..=hi).zip(report.results.chunks(2)) {
            let mfs_cell = match &pair[0].outcome {
                Ok(m) => format!("{{{}}}", m.mix),
                Err(_) => "-".into(),
            };
            let (cost, reg, muxin) = match &pair[1].outcome {
                Ok(m) => {
                    let d = m.mfsa.as_ref().expect("MFSA points carry MFSA detail");
                    (
                        d.total_cost.to_string(),
                        m.registers.to_string(),
                        d.muxin.to_string(),
                    )
                }
                Err(_) => ("-".into(), "-".into(), "-".into()),
            };
            println!(
                "{:<5} {:<26} {:>10} {:>5} {:>6}",
                t, mfs_cell, cost, reg, muxin
            );
        }
        println!();
    }
}
