//! The register-count fix: MFS and MFSA report storage through one
//! definition (`hls_schedule::peak_live` over `signal_lifetimes`), so
//! `ScheduleStats::registers` always equals the data path's
//! `CostReport::reg_count` for the same schedule.

use hls_bench::mfsa_point;
use moveframe_hls::benchmarks::examples;
use moveframe_hls::prelude::*;

fn mfsa_config(e: &examples::Example) -> MfsaConfig {
    mfsa_point(e, e.mfsa_cs, 1).mfsa_config(Library::ncr_like(), &CancelToken::never())
}

/// `ScheduleStats` (the MFS reporting path) and `CostReport` (the MFSA
/// data-path) agree on every Table-2 schedule.
#[test]
fn stats_registers_match_datapath_reg_count() {
    for e in examples::all() {
        let out = mfsa::schedule(&e.dfg, &e.spec, &mfsa_config(&e))
            .unwrap_or_else(|err| panic!("ex{}: {err}", e.id));
        let stats = ScheduleStats::compute(&e.dfg, &out.schedule, &e.spec);
        assert_eq!(
            stats.registers, out.cost.reg_count,
            "ex{} ({}): ScheduleStats and CostReport disagree on registers",
            e.id, e.name
        );
    }
}

/// Pins the diffeq example's register count on both paths (Table 2
/// reports REG = 9 for example 4 at T = 8).
#[test]
fn diffeq_register_count_is_pinned() {
    let e = examples::ex4();
    assert_eq!(e.mfsa_cs, 8);

    // MFSA path: data-path register file.
    let out = mfsa::schedule(&e.dfg, &e.spec, &mfsa_config(&e)).expect("diffeq MFSA");
    assert_eq!(out.cost.reg_count, 9, "diffeq MFSA REG drifted");
    let mfsa_stats = ScheduleStats::compute(&e.dfg, &out.schedule, &e.spec);
    assert_eq!(mfsa_stats.registers, 9, "diffeq MFSA ScheduleStats drifted");

    // MFS path at the same time constraint, same counting rule. MFS
    // schedules the graph differently (no ALU sharing pressure), so its
    // peak-live count is lower; what matters is that it is stable.
    let config = MfsConfig::time_constrained(8);
    let outcome = mfs::schedule(&e.dfg, &e.spec, &config).expect("diffeq MFS");
    let mfs_stats = ScheduleStats::compute(&e.dfg, &outcome.schedule, &e.spec);
    assert_eq!(mfs_stats.registers, 6, "diffeq MFS register count drifted");
}
