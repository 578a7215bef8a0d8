//! Functional equivalence of synthesis results: for every MFSA run, the
//! generated (data path + controller) must compute exactly the values
//! the behavioural graph describes — on the curated examples and on
//! random graphs with random input vectors.

use proptest::prelude::*;

use hls_bench::mfsa_point;
use moveframe_hls::benchmarks::examples;
use moveframe_hls::benchmarks::generate::{generate, GeneratorConfig};
use moveframe_hls::prelude::*;

/// The Table-2 MFSA config of `e` in design style 1 or 2.
fn mfsa_config(e: &examples::Example, style: u8) -> MfsaConfig {
    mfsa_point(e, e.mfsa_cs, style).mfsa_config(Library::ncr_like(), &CancelToken::never())
}

#[test]
fn every_example_synthesis_is_semantics_preserving() {
    for e in examples::all() {
        for style in [1, 2] {
            let out = mfsa::schedule(&e.dfg, &e.spec, &mfsa_config(&e, style)).unwrap();
            for seed in [1u64, 2, 3] {
                let inputs = random_inputs(&e.dfg, seed);
                let mismatches =
                    check_equivalence(&e.dfg, &out.schedule, &out.datapath, &e.spec, &inputs)
                        .unwrap_or_else(|err| {
                            panic!("ex{} style {style} seed {seed}: {err}", e.id)
                        });
                assert!(
                    mismatches.is_empty(),
                    "ex{} style {style} seed {seed}: {mismatches:?}",
                    e.id
                );
            }
        }
    }
}

#[test]
fn controllers_of_all_examples_verify() {
    for e in examples::all() {
        let out = mfsa::schedule(&e.dfg, &e.spec, &mfsa_config(&e, 1)).unwrap();
        let controller =
            Controller::generate(&e.dfg, &out.schedule, &out.datapath, &e.spec).unwrap();
        let v = verify_controller(&e.dfg, &out.schedule, &out.datapath, &controller, &e.spec);
        assert!(v.is_empty(), "ex{}: {v:?}", e.id);
        // The microcode listing covers every state.
        let listing = controller.render(&e.dfg);
        assert_eq!(controller.state_count() as u32, e.mfsa_cs);
        assert!(listing.contains(&format!("{} state(s)", e.mfsa_cs)));
    }
}

#[test]
fn interpreter_matches_simulator_on_the_quickstart_program() {
    let dfg = parse_dfg(
        "input x0, x1, c0, c1
         op p0 = mul(x0, c0)
         op p1 = mul(x1, c1)
         op s = add(p0, p1)
         op d = sub(p0, p1)
         op m = and(s, d)",
    )
    .unwrap();
    let spec = TimingSpec::uniform_single_cycle();
    let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(3, Library::ncr_like())).unwrap();
    for seed in 0..10u64 {
        let inputs = random_inputs(&dfg, seed);
        let mismatches =
            check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs).unwrap();
        assert!(mismatches.is_empty(), "seed {seed}: {mismatches:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_graphs_synthesise_equivalently(
        seed in 1u64..500,
        layers in 1usize..5,
        width in 1usize..6,
        slack in 0u32..3,
        input_seed in 0u64..8,
    ) {
        let config = GeneratorConfig {
            seed,
            layers,
            width,
            inputs: 4,
            ..GeneratorConfig::default()
        };
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfsa::schedule(
            &dfg,
            &spec,
            &MfsaConfig::new(cp + 1 + slack, Library::ncr_like()),
        )
        .unwrap();
        let inputs = random_inputs(&dfg, input_seed);
        let mismatches =
            check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs).unwrap();
        prop_assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn random_multicycle_graphs_synthesise_equivalently(
        seed in 1u64..200,
        input_seed in 0u64..4,
    ) {
        let config = GeneratorConfig { seed, layers: 3, width: 4, inputs: 3, ..Default::default() };
        let dfg = generate(&config);
        let spec = TimingSpec::two_cycle_multiply();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cp + 2, Library::ncr_like()))
            .unwrap();
        let inputs = random_inputs(&dfg, input_seed);
        let mismatches =
            check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs).unwrap();
        prop_assert!(mismatches.is_empty(), "{mismatches:?}");
    }
}

#[test]
fn extended_benchmarks_synthesise_equivalently() {
    use moveframe_hls::benchmarks::classic;
    let spec = TimingSpec::uniform_single_cycle();
    for (dfg, cs) in [
        (classic::dct8(), 6u32),
        (classic::bandpass(), 7),
        (classic::fir(8), 5),
    ] {
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        assert!(cp <= cs, "{}: cp {cp} > {cs}", dfg.name());
        let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cs, Library::ncr_like()))
            .unwrap_or_else(|e| panic!("{}: {e}", dfg.name()));
        let v = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        assert!(v.is_empty(), "{}: {v:?}", dfg.name());
        for seed in [11u64, 12] {
            let inputs = random_inputs(&dfg, seed);
            let mismatches =
                check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs).unwrap();
            assert!(mismatches.is_empty(), "{}: {mismatches:?}", dfg.name());
        }
    }
}

#[test]
fn verilog_emission_covers_extended_benchmarks() {
    use moveframe_hls::benchmarks::classic;
    use moveframe_hls::control::emit_verilog;
    let spec = TimingSpec::uniform_single_cycle();
    for (dfg, cs) in [(classic::dct8(), 6u32), (classic::bandpass(), 7)] {
        let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cs, Library::ncr_like())).unwrap();
        let controller = Controller::generate(&dfg, &out.schedule, &out.datapath, &spec).unwrap();
        let v = emit_verilog(&dfg, &out.schedule, &out.datapath, &controller, &spec).unwrap();
        assert!(v.contains("module"));
        assert!(v.contains("endmodule"));
        // One output port per design output.
        let outputs = dfg
            .signals()
            .filter(|(sid, s)| {
                matches!(s.source(), moveframe_hls::dfg::SignalSource::Node(_))
                    && dfg.consumers(*sid).is_empty()
            })
            .count();
        assert_eq!(v.matches("output wire [WIDTH-1:0]").count(), outputs);
    }
}
