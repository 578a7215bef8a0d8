//! Regenerates the paper's Table 2 (MFSA RTL results, styles 1 and 2).
//!
//! `--ablate` appends the design-choice ablations DESIGN.md calls out:
//! Liapunov-weight sweeps and interconnect-sharing on/off.

use hls_bench::{mfsa_point, render_table2, table2_engine};
use hls_benchmarks::examples;
use hls_celllib::Library;
use hls_explore::{default_threads, Engine, ExploreOptions};
use moveframe::{mfsa, CancelToken};

fn main() {
    let engine = Engine::new();
    let threads = default_threads();
    let rows = table2_engine(&engine, threads);
    print!("{}", render_table2(&rows));
    if !std::env::args().any(|a| a == "--ablate") {
        return;
    }
    let examples = examples::all();

    println!("\n=== Ablation: Liapunov weights (style 1, cost in um^2) ===");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "weights", "ex1", "ex2", "ex3", "ex4", "ex5", "ex6"
    );
    // Liapunov weight presets as `(time, alu, mux, reg)`.
    let presets = [
        ("balanced (paper default)", (1, 1, 1, 1)),
        ("area-only (w_TIME = 0)", (0, 1, 1, 1)),
        ("alu-focused (w_ALU = 4)", (1, 4, 1, 1)),
        ("mux-focused (w_MUX = 4)", (1, 1, 4, 1)),
        ("reg-focused (w_REG = 4)", (1, 1, 1, 4)),
    ];
    for (label, weights) in presets {
        let cells: Vec<u64> = examples
            .iter()
            .map(|e| {
                let mut point = mfsa_point(e, e.mfsa_cs, 1);
                point.weights = Some(weights);
                let report = engine.explore(&e.dfg, &e.spec, &[point], ExploreOptions { threads });
                report.results[0]
                    .outcome
                    .as_ref()
                    .ok()
                    .and_then(|m| m.mfsa.as_ref())
                    .map_or(0, |d| d.total_cost)
            })
            .collect();
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            label, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
    }

    println!("\n=== Ablation: interconnect sharing in f_MUX (style 1) ===");
    println!(
        "{:<6} {:>12} {:>12} {:>7} {:>7}",
        "Ex", "shared", "unshared", "MUXin", "MUXin'"
    );
    for (e, shared) in examples.iter().zip(rows.iter().filter(|r| r.style == 1)) {
        let config = mfsa_point(e, e.mfsa_cs, 1)
            .mfsa_config(Library::ncr_like(), &CancelToken::never())
            .without_interconnect_sharing();
        let unshared = mfsa::schedule(&e.dfg, &e.spec, &config)
            .unwrap_or_else(|err| panic!("ex{} without interconnect sharing: {err}", e.id));
        println!(
            "#{:<5} {:>12} {:>12} {:>7} {:>7}",
            e.id,
            shared.cost,
            unshared.cost.total().as_u64(),
            shared.muxin,
            unshared.cost.mux_inputs
        );
    }
}
