//! Cross-checks between MFS and the baseline schedulers: all four
//! algorithms must agree on feasibility and the shared verifier, and
//! MFS must be competitive on the quality metric it optimises.

use moveframe_hls::baselines::{
    alap_schedule, anneal_schedule, asap_schedule, force_directed_schedule, list_schedule,
    AnnealParams,
};
use moveframe_hls::benchmarks::examples::{self, Feature};
use moveframe_hls::prelude::*;

fn plain_examples() -> Vec<examples::Example> {
    examples::all()
        .into_iter()
        .filter(|e| matches!(e.feature, Feature::SingleCycle | Feature::TwoCycleMultiply))
        .collect()
}

fn total_units(counts: &std::collections::BTreeMap<FuClass, u32>) -> u32 {
    counts.values().sum()
}

#[test]
fn all_baselines_produce_verified_schedules() {
    let lib = Library::ncr_like();
    for e in plain_examples() {
        let t = *e.time_constraints.last().unwrap();
        for (name, sched) in [
            ("asap", asap_schedule(&e.dfg, &e.spec, t).unwrap()),
            ("alap", alap_schedule(&e.dfg, &e.spec, t).unwrap()),
            ("fds", force_directed_schedule(&e.dfg, &e.spec, t).unwrap()),
            (
                "anneal",
                anneal_schedule(&e.dfg, &e.spec, t, &lib, &AnnealParams::default())
                    .unwrap()
                    .0,
            ),
        ] {
            let v = verify(&e.dfg, &sched, &e.spec, VerifyOptions::default());
            assert!(v.is_empty(), "ex{} {name}: {v:?}", e.id);
        }
    }
}

#[test]
fn mfs_is_at_least_as_lean_as_asap_and_alap() {
    for e in plain_examples() {
        for &t in &e.time_constraints {
            let mfs_units = total_units(
                &mfs::schedule(&e.dfg, &e.spec, &MfsConfig::time_constrained(t))
                    .unwrap()
                    .fu_counts(),
            );
            let asap_units = total_units(&asap_schedule(&e.dfg, &e.spec, t).unwrap().fu_counts());
            let alap_units = total_units(&alap_schedule(&e.dfg, &e.spec, t).unwrap().fu_counts());
            assert!(
                mfs_units <= asap_units.min(alap_units),
                "ex{} T={t}: MFS {mfs_units} vs ASAP {asap_units}/ALAP {alap_units}",
                e.id
            );
        }
    }
}

#[test]
fn mfs_matches_fds_within_one_unit_per_class() {
    // Both are balancing time-constrained schedulers; on these small
    // graphs they should land within one unit of each other per class.
    for e in plain_examples() {
        for &t in &e.time_constraints {
            let mfs_counts = mfs::schedule(&e.dfg, &e.spec, &MfsConfig::time_constrained(t))
                .unwrap()
                .fu_counts();
            let fds_counts = force_directed_schedule(&e.dfg, &e.spec, t)
                .unwrap()
                .fu_counts();
            for (&class, &n) in &mfs_counts {
                let f = fds_counts.get(&class).copied().unwrap_or(0);
                assert!(
                    n <= f + 1,
                    "ex{} T={t} class {class}: MFS {n} vs FDS {f}",
                    e.id
                );
            }
        }
    }
}

#[test]
fn list_schedule_meets_mfs_unit_budget() {
    // Resource duality: giving the list scheduler MFS's unit counts, it
    // must finish within the same time constraint (both are feasible
    // witnesses of the same design point).
    for e in plain_examples() {
        let t = *e.time_constraints.last().unwrap();
        let budget = mfs::schedule(&e.dfg, &e.spec, &MfsConfig::time_constrained(t))
            .unwrap()
            .fu_counts();
        let sched = list_schedule(&e.dfg, &e.spec, &budget, t)
            .unwrap_or_else(|err| panic!("ex{}: list failed with MFS budget: {err}", e.id));
        let v = verify(&e.dfg, &sched, &e.spec, VerifyOptions::default());
        assert!(v.is_empty(), "ex{}: {v:?}", e.id);
    }
}

#[test]
fn resource_constrained_mfs_agrees_with_list_on_length() {
    // With the same single-adder budget, resource-constrained MFS and
    // list scheduling should produce comparable schedule lengths.
    let mut b = DfgBuilder::new("ladder");
    let x = b.input("x");
    for i in 0..5 {
        b.op(&format!("a{i}"), OpKind::Add, &[x, x]).unwrap();
    }
    let dfg = b.finish().unwrap();
    let spec = TimingSpec::uniform_single_cycle();
    let limits = [(FuClass::Op(OpKind::Add), 1u32)].into_iter().collect();
    let list = list_schedule(&dfg, &spec, &limits, 10).unwrap();
    let list_len = list.steps_used(&dfg, &spec);
    let config = MfsConfig::resource_constrained(10).with_fu_limit(FuClass::Op(OpKind::Add), 1);
    let mfs_out = mfs::schedule(&dfg, &spec, &config).unwrap();
    let mfs_len = mfs_out.steps_used(&dfg, &spec);
    assert_eq!(list_len, 5);
    assert_eq!(mfs_len, 5);
}
