//! Design-space exploration of the elliptic-wave-filter benchmark: the
//! paper's example 6 sweep (T = 17/19/21 with a 2-cycle multiplier),
//! extended with MFSA cost points and a comparison against the
//! force-directed baseline.
//!
//! ```sh
//! cargo run --example ewf_design_space
//! ```

use std::collections::BTreeSet;

use moveframe_hls::baselines::force_directed_schedule;
use moveframe_hls::benchmarks::classic;
use moveframe_hls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dfg = classic::ewf();
    let spec = TimingSpec::two_cycle_multiply();
    let pipelined: BTreeSet<OpKind> = [OpKind::Mul].into_iter().collect();
    let cp = CriticalPath::compute(&dfg, &spec);
    println!(
        "EWF: {} ops, critical path {} steps (2-cycle multiplier)\n",
        dfg.node_count(),
        cp.steps()
    );

    println!(
        "{:<5} {:<22} {:<22} {:>12}",
        "T", "MFS (pipelined mult)", "FDS baseline", "MFSA cost"
    );
    for t in [17u32, 18, 19, 21, 23] {
        // MFS with a structurally pipelined multiplier (the paper's "S").
        let config = MfsConfig::time_constrained(t);
        let (_, _, mfs_out) = schedule_structural(
            &dfg,
            &spec,
            &config,
            &pipelined,
            &mut Instrument::new(&mut NullSink, &mut Metrics::new()),
        )?;
        let mfs_mix: OpMix = pipelined_fu_counts(&mfs_out)
            .into_iter()
            .map(|(c, n)| (c, n as usize))
            .collect();

        // Force-directed baseline (plain 2-cycle multiplier).
        let fds = force_directed_schedule(&dfg, &spec, t)?;
        let fds_mix: OpMix = fds
            .fu_counts()
            .into_iter()
            .map(|(c, n)| (c, n as usize))
            .collect();

        // MFSA cost point.
        let mfsa_out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(t, Library::ncr_like()))?;

        println!(
            "{:<5} {:<22} {:<22} {:>9} um2",
            t,
            format!("{{{mfs_mix}}}"),
            format!("{{{fds_mix}}}"),
            mfsa_out.cost.total().as_u64(),
        );
    }

    println!("\nlower T = more parallel hardware; the knee of the curve is the");
    println!("cost/performance trade-off the paper's Tables 1-2 tabulate.");
    Ok(())
}
