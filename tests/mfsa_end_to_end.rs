//! End-to-end MFSA: every Table-2 configuration must yield a verified
//! schedule AND a structurally verified data path whose reported cost is
//! reproducible from the netlist.

use hls_bench::mfsa_point;
use moveframe_hls::benchmarks::examples;
use moveframe_hls::prelude::*;

/// The Table-2 MFSA config of `e` in design style 1 or 2.
fn configs(e: &examples::Example, style: u8) -> MfsaConfig {
    mfsa_point(e, e.mfsa_cs, style).mfsa_config(Library::ncr_like(), &CancelToken::never())
}

#[test]
fn every_table2_cell_verifies() {
    for e in examples::all() {
        for style in [1, 2] {
            let point = mfsa_point(&e, e.mfsa_cs, style);
            let config = point.mfsa_config(Library::ncr_like(), &CancelToken::never());
            let out = mfsa::schedule(&e.dfg, &e.spec, &config)
                .unwrap_or_else(|err| panic!("ex{} style {style}: {err}", e.id));
            // Schedule-level constraints.
            let opts = VerifyOptions {
                clock: point.clock_period(),
                latency: point.latency,
            };
            let v = verify(&e.dfg, &out.schedule, &e.spec, opts);
            assert!(v.is_empty(), "ex{} style {style}: {v:?}", e.id);
            // Netlist-level constraints.
            let rv = verify_datapath(&e.dfg, &out.schedule, &out.datapath, &e.spec);
            assert!(rv.is_empty(), "ex{} style {style}: {rv:?}", e.id);
            // The reported cost is reproducible from the netlist.
            let recomputed = CostReport::compute(&out.datapath, &Library::ncr_like());
            assert_eq!(
                recomputed, out.cost,
                "ex{} style {style}: cost drifted",
                e.id
            );
        }
    }
}

#[test]
fn style2_never_coallocates_dependent_ops() {
    for e in examples::all() {
        let out = mfsa::schedule(&e.dfg, &e.spec, &configs(&e, 2))
            .unwrap_or_else(|err| panic!("ex{}: {err}", e.id));
        for alu in out.datapath.alus() {
            for (i, &a) in alu.ops.iter().enumerate() {
                for &b in &alu.ops[i + 1..] {
                    let related = e.dfg.preds(a).contains(&b) || e.dfg.succs(a).contains(&b);
                    assert!(
                        !related,
                        "ex{}: dependent ops {} and {} share {}",
                        e.id,
                        e.dfg.node(a).name(),
                        e.dfg.node(b).name(),
                        alu.id
                    );
                }
            }
        }
    }
}

#[test]
fn every_alu_supports_all_its_ops() {
    for e in examples::all() {
        let out = mfsa::schedule(&e.dfg, &e.spec, &configs(&e, 1))
            .unwrap_or_else(|err| panic!("ex{}: {err}", e.id));
        for alu in out.datapath.alus() {
            for &op in &alu.ops {
                let kind = e.dfg.node(op).kind().op().expect("plain ops");
                assert!(alu.kind.supports(kind));
            }
        }
    }
}

#[test]
fn weighted_liapunov_trades_time_for_area() {
    // With the time term muted, the area of every example is at most
    // the balanced run's area (usually strictly smaller).
    for e in examples::all() {
        let balanced = mfsa::schedule(&e.dfg, &e.spec, &configs(&e, 1)).unwrap();
        let config = configs(&e, 1).with_weights(Weights {
            time: 0,
            alu: 1,
            mux: 1,
            reg: 1,
        });
        let cheap = mfsa::schedule(&e.dfg, &e.spec, &config).unwrap();
        assert!(
            cheap.cost.alu_area <= balanced.cost.alu_area,
            "ex{}: muting w_TIME increased ALU area ({} > {})",
            e.id,
            cheap.cost.alu_area,
            balanced.cost.alu_area
        );
    }
}

#[test]
fn register_counts_match_left_edge_lower_bound() {
    use moveframe_hls::rtl::regalloc::{left_edge, peak_live, signal_lifetimes};
    for e in examples::all() {
        let out = mfsa::schedule(&e.dfg, &e.spec, &configs(&e, 1)).unwrap();
        let lifetimes = signal_lifetimes(&e.dfg, &out.schedule, &e.spec);
        let alloc = left_edge(&lifetimes);
        assert_eq!(
            alloc.register_count(),
            peak_live(&lifetimes),
            "ex{}: left-edge must meet the interval lower bound",
            e.id
        );
        assert_eq!(out.cost.reg_count, alloc.register_count());
    }
}
