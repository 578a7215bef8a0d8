//! Property-based tests over randomly generated data-flow graphs: the
//! core invariants of the move-frame algorithms hold for *every* input,
//! not just the curated benchmarks.

use proptest::prelude::*;

use moveframe_hls::benchmarks::generate::{generate, GeneratorConfig};
use moveframe_hls::prelude::*;
use moveframe_hls::rtl::regalloc::{left_edge, peak_live, signal_lifetimes};

/// A strategy over generator configurations: small-to-medium layered
/// DAGs with mixed operators.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (1u64..1000, 1usize..6, 1usize..7, 2usize..6, 0u32..100).prop_map(
        |(seed, layers, width, inputs, locality)| GeneratorConfig {
            seed,
            layers,
            width,
            inputs,
            locality_pct: locality,
            ..GeneratorConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mfs_schedules_verify_for_any_graph(config in config_strategy(), slack in 0u32..4) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let t = cp + slack;
        let outcome = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(t)).unwrap();
        prop_assert!(outcome.schedule.is_complete());
        let v = verify(&dfg, &outcome.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mfs_respects_any_satisfiable_resource_limit(config in config_strategy()) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        // Budget: whatever an unconstrained run used; re-running with
        // those numbers as hard limits must succeed and stay within.
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let free = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 2)).unwrap();
        let mut config2 = MfsConfig::time_constrained(cp + 2);
        for (class, n) in free.fu_counts() {
            config2 = config2.with_fu_limit(class, n);
        }
        let constrained = mfs::schedule(&dfg, &spec, &config2).unwrap();
        for (class, n) in constrained.fu_counts() {
            prop_assert!(n <= free.fu_counts()[&class], "class {class} exceeded its budget");
        }
    }

    #[test]
    fn mfsa_datapaths_verify_for_any_graph(config in config_strategy()) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cp + 2, Library::ncr_like()))
            .unwrap();
        let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "schedule: {v:?}");
        let rv = verify_datapath(&dfg, &out.schedule, &out.datapath, &spec);
        prop_assert!(rv.is_empty(), "datapath: {rv:?}");
        // Cost is reproducible.
        let recomputed = CostReport::compute(&out.datapath, &Library::ncr_like());
        prop_assert_eq!(recomputed, out.cost);
    }

    #[test]
    fn left_edge_is_optimal_for_any_schedule(config in config_strategy()) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 3)).unwrap();
        let lifetimes = signal_lifetimes(&dfg, &out.schedule, &spec);
        let alloc = left_edge(&lifetimes);
        prop_assert_eq!(alloc.register_count(), peak_live(&lifetimes));
        // No register holds overlapping spans.
        for (_, spans) in alloc.iter() {
            for (i, a) in spans.iter().enumerate() {
                for b in &spans[i + 1..] {
                    prop_assert!(!a.overlaps(b));
                }
            }
        }
    }

    #[test]
    fn two_cycle_ops_occupy_consecutive_steps(config in config_strategy()) {
        let dfg = generate(&config);
        let spec = TimingSpec::two_cycle_multiply();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 2)).unwrap();
        let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn functional_pipelining_respects_any_latency(
        config in config_strategy(),
        latency in 1u32..5,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let t = (cp + 2).max(latency);
        let mfs_config = MfsConfig::time_constrained(t).with_latency(latency);
        let out = mfs::schedule(&dfg, &spec, &mfs_config).unwrap();
        let opts = VerifyOptions { latency: Some(latency), ..Default::default() };
        let v = verify(&dfg, &out.schedule, &spec, opts);
        prop_assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mfs_units_never_beat_the_averaging_lower_bound(config in config_strategy()) {
        // ⌈N_j / cs⌉ is a lower bound on any schedule's unit count.
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let t = cp + 1;
        let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(t)).unwrap();
        let counts = out.fu_counts();
        for (class, n) in dfg.class_counts() {
            let bound = (n as u32).div_ceil(t);
            prop_assert!(
                counts[&class] >= bound,
                "class {class}: {} units below the ⌈N/cs⌉ = {bound} bound",
                counts[&class]
            );
        }
    }
}

#[test]
fn proptest_regression_seed_smoke() {
    // A fixed medium-size case kept outside proptest for fast CI runs.
    let config = GeneratorConfig::sized(80, 7);
    let dfg = generate(&config);
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
    let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 2)).unwrap();
    assert!(verify(&dfg, &out.schedule, &spec, VerifyOptions::default()).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plain_mobility_priority_never_produces_invalid_schedules(
        config in config_strategy(),
    ) {
        // The ablation rule does not guarantee predecessors place first.
        // It may legitimately FAIL (a successor scheduled early can pin
        // its predecessor into an empty window — the very reason the
        // paper orders by ALAP step), but when it succeeds the schedule
        // must be valid.
        use moveframe_hls::schedule::PriorityRule;
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mfs_config = MfsConfig::time_constrained(cp + 2)
            .with_priority_rule(PriorityRule::PlainMobility);
        match mfs::schedule(&dfg, &spec, &mfs_config) {
            Ok(out) => {
                let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
                prop_assert!(v.is_empty(), "{v:?}");
            }
            Err(MoveFrameError::NoPosition { .. }) => {
                // The paper's rule must succeed where the ablation fails.
                let paper = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 2));
                prop_assert!(paper.is_ok(), "paper rule must not share the deadlock");
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn lazy_columns_reach_the_same_feasibility(config in config_strategy()) {
        // Starting current_j at 1 must still find a schedule (with more
        // restarts), and never use more units than ASAP would.
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let balanced = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 1)).unwrap();
        let lazy = mfs::schedule(
            &dfg,
            &spec,
            &MfsConfig::time_constrained(cp + 1).with_lazy_columns(),
        )
        .unwrap();
        let v = verify(&dfg, &lazy.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
        prop_assert!(lazy.reschedule_count >= balanced.reschedule_count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn branchy_graphs_schedule_and_share_units(seed in 1u64..400) {
        let cfg = GeneratorConfig {
            seed,
            layers: 3,
            width: 6,
            branch_pct: 100,
            ..Default::default()
        };
        let dfg = generate(&cfg);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 1)).unwrap();
        let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
        // The same graph with exclusivity erased (rebuilt without
        // branches) can never need FEWER units.
        let flat_cfg = GeneratorConfig { branch_pct: 0, ..cfg };
        let flat = generate(&flat_cfg);
        let flat_out =
            mfs::schedule(&flat, &spec, &MfsConfig::time_constrained(cp + 1));
        if let Ok(flat_out) = flat_out {
            let shared: u32 = out.fu_counts().values().sum();
            let unshared: u32 = flat_out.fu_counts().values().sum();
            prop_assert!(shared <= unshared,
                "exclusivity must not increase units ({shared} vs {unshared})");
        }
    }

    #[test]
    fn branchy_graphs_synthesise_with_mfsa(seed in 1u64..200) {
        let cfg = GeneratorConfig {
            seed,
            layers: 3,
            width: 4,
            branch_pct: 60,
            ..Default::default()
        };
        let dfg = generate(&cfg);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cp + 2, Library::ncr_like()))
            .unwrap();
        let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
        let rv = verify_datapath(&dfg, &out.schedule, &out.datapath, &spec);
        prop_assert!(rv.is_empty(), "{rv:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dfg_text_format_round_trips_generated_graphs(config in config_strategy()) {
        let dfg = generate(&config);
        let text = dfg.to_text().expect("generated graphs are expressible");
        let reparsed = parse_dfg(&text).unwrap();
        prop_assert_eq!(&reparsed, &dfg);
        // And the round trip is a fixed point.
        prop_assert_eq!(reparsed.to_text().unwrap(), text);
    }

    #[test]
    fn branchy_text_format_round_trips(seed in 1u64..300) {
        let cfg = GeneratorConfig {
            seed,
            layers: 3,
            width: 5,
            branch_pct: 70,
            ..Default::default()
        };
        let dfg = generate(&cfg);
        let text = dfg.to_text().expect("expressible");
        let reparsed = parse_dfg(&text).unwrap();
        prop_assert_eq!(&reparsed, &dfg);
        // Exclusivity relations survive the round trip.
        for a in dfg.node_ids() {
            for b in dfg.node_ids() {
                prop_assert_eq!(
                    dfg.mutually_exclusive(a, b),
                    reparsed.mutually_exclusive(a, b)
                );
            }
        }
    }
}

#[test]
fn proptest_regression_seed_461_narrow_dag() {
    // Triaged from `property_tests.proptest-regressions`: proptest once
    // shrank a failure to this narrow 4×3 DAG (seed 461, 4 inputs,
    // locality 34 %). Kept as a directed case so the exact graph runs
    // on every CI pass, shim or real proptest alike.
    let config = GeneratorConfig {
        seed: 461,
        layers: 4,
        width: 3,
        inputs: 4,
        locality_pct: 34,
        ..GeneratorConfig::default()
    };
    let dfg = generate(&config);
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
    for slack in 0..4 {
        let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + slack)).unwrap();
        assert!(out.schedule.is_complete());
        let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        assert!(v.is_empty(), "slack {slack}: {v:?}");
    }
    let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cp + 2, Library::ncr_like())).unwrap();
    assert!(verify(&dfg, &out.schedule, &spec, VerifyOptions::default()).is_empty());
    assert!(verify_datapath(&dfg, &out.schedule, &out.datapath, &spec).is_empty());
    let lifetimes = signal_lifetimes(&dfg, &out.schedule, &spec);
    assert_eq!(
        left_edge(&lifetimes).register_count(),
        peak_live(&lifetimes)
    );
}

/// Random `.dfg` text over a growing signal pool. Operations may read
/// one signal twice (`add(s, s)`), and access indices are a literal
/// (parsed into an inline index constant that `to_text` folds back), a
/// named constant shared by several accesses, or a data signal.
fn random_dfg_text(script: &[(u8, usize, usize, u8)]) -> String {
    let mut text = String::from(
        "dfg csr\ninput x0, x1, x2\nconst k = 1\nbank ram(ports=2)\narray a[4] @ ram\n",
    );
    let mut pool: Vec<String> = ["x0", "x1", "x2", "k"].map(String::from).to_vec();
    for (i, &(kind, p, q, lit)) in script.iter().enumerate() {
        let a = pool[p % pool.len()].clone();
        let b = pool[q % pool.len()].clone();
        let index = match lit % 3 {
            0 => (lit % 4).to_string(),
            1 => "k".to_string(),
            _ => a.clone(),
        };
        let name = format!("n{i}");
        let line = match kind % 4 {
            0 => format!("op {name} = add({a}, {a})"),
            1 => format!("op {name} = sub({a}, {b})"),
            2 => format!("load {name} = a[{index}]"),
            _ => format!("store {name} = a[{index}], {b}"),
        };
        text.push_str(&line);
        text.push('\n');
        pool.push(name);
    }
    text
}

/// `Dfg::consumers` against a scan of every node's inputs.
fn consumers_match_the_scan(dfg: &Dfg) -> Result<(), TestCaseError> {
    for (sid, _) in dfg.signals() {
        let scan: Vec<NodeId> = dfg
            .nodes()
            .filter(|(_, n)| n.inputs().contains(&sid))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(dfg.consumers(sid), scan.as_slice(), "signal {:?}", sid);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn consumer_index_matches_the_scan_and_text_is_stable(
        script in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64, 0u8..9), 1..24),
    ) {
        let dfg = parse_dfg(&random_dfg_text(&script)).unwrap();
        consumers_match_the_scan(&dfg)?;
        let text = dfg.to_text().expect("top-level graphs are expressible");
        let reparsed = parse_dfg(&text).unwrap();
        consumers_match_the_scan(&reparsed)?;
        prop_assert_eq!(reparsed.to_text().unwrap(), text);
    }

    #[test]
    fn consumer_index_matches_the_scan_on_generated_graphs(
        config in config_strategy(),
        branch_pct in 0u32..80,
    ) {
        consumers_match_the_scan(&generate(&GeneratorConfig { branch_pct, ..config.clone() }))?;
    }
}

#[test]
fn consumer_index_lists_a_double_reader_once_and_folds_index_literals() {
    let dfg = parse_dfg(
        "input x\nbank ram(ports=1)\narray a[4] @ ram\nop d = add(x, x)\nload r = a[3]\nload s = a[3]\n",
    )
    .unwrap();
    let x = dfg.signal_by_name("x").unwrap();
    let d = dfg.node_by_name("d").unwrap();
    assert_eq!(dfg.consumers(x), &[d]);
    // Each literal index became a constant read only by its access, so
    // the writer folds both back into literals.
    let text = dfg.to_text().unwrap();
    assert_eq!(text.matches("a[3]").count(), 2, "{text}");
    assert_eq!(parse_dfg(&text).unwrap().to_text().unwrap(), text);
}
