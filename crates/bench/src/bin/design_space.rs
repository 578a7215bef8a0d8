//! Extended design-space exploration: sweeps every example over a time
//! range around its paper sweep and prints the (T, MFS units, MFSA
//! cost/REG/MUXin) trade-off curve — the data behind the paper's
//! "hardware cost-speed tradeoffs" framing (§1).

use hls_benchmarks::examples;
use hls_celllib::Library;
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfsa::MfsaConfig;

fn main() {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    for e in examples::all() {
        println!("=== example {}: {} ===", e.id, e.name);
        println!(
            "{:<5} {:<26} {:>10} {:>5} {:>6}",
            "T", "MFS units", "MFSA cost", "REG", "MUXin"
        );
        let lo = *e.time_constraints.first().expect("sweeps are non-empty");
        let hi = *e.time_constraints.last().expect("sweeps are non-empty") + 2;
        for t in lo..=hi {
            let mfs_cell = match hls_bench::run_example_mfs(&e, t, &mut instr) {
                Ok(run) => format!("{{{}}}", run.mix),
                Err(_) => "-".into(),
            };
            let config = MfsaConfig::new(t, Library::ncr_like());
            let (cost, reg, muxin) = match hls_bench::run_example_mfsa(&e, config, &mut instr) {
                Ok((out, _)) => (
                    out.cost.total().as_u64().to_string(),
                    out.cost.reg_count.to_string(),
                    out.cost.mux_inputs.to_string(),
                ),
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
