//! Differential tests: the refine loop against one-shot scheduling.
//!
//! * `iterations = 0` must return the baseline bit-for-bit.
//! * Every refined schedule must still pass the full verifier and the
//!   memory port-safety check.
//! * A deliberately padded schedule must actually compress.
//! * MFSA refinement must preserve the allocation while rebuilding the
//!   data path and cost report consistently.

use hls_baselines::force_directed_schedule;
use hls_benchmarks::classic::{diffeq, ewf, fir};
use hls_celllib::{ClockPeriod, Library, OpKind, TimingSpec};
use hls_dfg::{CriticalPath, Dfg, DfgBuilder, NodeId, SignalSource};
use hls_iterate::{refine, refine_mfsa, IterateConfig, IterateError};
use hls_schedule::{verify, CStep, FuIndex, Schedule, Slot, UnitId, VerifyOptions};
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig};

fn with_instr<T>(f: impl FnOnce(&mut Instrument<'_>) -> T) -> T {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    f(&mut instr)
}

fn slots(dfg: &Dfg, s: &Schedule) -> Vec<(NodeId, CStep, String)> {
    dfg.node_ids()
        .map(|n| {
            let slot = s.slot(n).expect("complete");
            (n, slot.step, slot.unit.to_string())
        })
        .collect()
}

#[test]
fn zero_iterations_return_the_baseline_untouched() {
    let dfg = diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let base = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(6)).unwrap();
    let out =
        with_instr(|i| refine(&dfg, &spec, &base.schedule, &IterateConfig::new(0), i)).unwrap();
    assert_eq!(out.iterations_run, 0);
    assert_eq!(out.splices_accepted, 0);
    assert_eq!(out.moves, 0);
    assert_eq!(out.csteps_before, out.csteps_after);
    assert_eq!(
        slots(&dfg, &base.schedule),
        slots(&dfg, &out.schedule),
        "N = 0 must be byte-identical to one-shot"
    );
}

#[test]
fn refined_paper_benchmarks_stay_verified_and_never_regress() {
    let spec = TimingSpec::uniform_single_cycle();
    for (name, dfg) in [("diffeq", diffeq()), ("fir16", fir(16)), ("ewf", ewf())] {
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        for slack in [0, 2, 4] {
            let cs = cp + slack;
            let base = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cs)).unwrap();
            let out =
                with_instr(|i| refine(&dfg, &spec, &base.schedule, &IterateConfig::new(4), i))
                    .unwrap();
            assert!(
                (out.csteps_after, out.registers_after)
                    <= (out.csteps_before, out.registers_before),
                "{name}@{cs}: objective regressed"
            );
            assert!(
                out.csteps_after >= cp,
                "{name}@{cs}: cannot beat the critical path"
            );
            let violations = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
            assert!(violations.is_empty(), "{name}@{cs}: {violations:?}");
            assert!(
                matches!(hls_mem::check_port_safety(&dfg, &out.schedule), Ok(v) if v.is_empty()),
                "{name}@{cs}: port safety"
            );
        }
    }
}

#[test]
fn a_padded_schedule_actually_compresses() {
    // a -> b is the critical chain; c is independent but parked at the
    // horizon, one grid column shared by all three. The compression
    // splice must pull c back to step 3.
    let mut b = DfgBuilder::new("pad");
    let x = b.input("x");
    let a = b.op("a", OpKind::Add, &[x, x]).unwrap();
    let bb = b.op("b", OpKind::Add, &[a, x]).unwrap();
    let c = b.op("c", OpKind::Add, &[x, x]).unwrap();
    let dfg = b.finish().unwrap();
    let node = |sig| match dfg.signal(sig).source() {
        SignalSource::Node(n) => n,
        _ => unreachable!(),
    };
    let (a, bb, c) = (node(a), node(bb), node(c));
    let spec = TimingSpec::uniform_single_cycle();
    let mut sched = Schedule::new(&dfg, 4);
    let place = |sched: &mut Schedule, n: NodeId, step: u32| {
        sched.assign(
            n,
            Slot {
                step: CStep::new(step),
                unit: UnitId::Fu {
                    class: dfg.node(n).kind().fu_class(),
                    index: FuIndex::new(1),
                },
            },
        );
    };
    place(&mut sched, a, 1);
    place(&mut sched, bb, 2);
    place(&mut sched, c, 4);
    let out = with_instr(|i| refine(&dfg, &spec, &sched, &IterateConfig::new(3), i)).unwrap();
    assert_eq!(out.csteps_before, 4);
    assert_eq!(out.csteps_after, 3, "c must compress into step 3");
    assert!(out.improved());
    assert_eq!(out.schedule.slot(c).unwrap().step, CStep::new(3));
}

#[test]
fn mfsa_refinement_preserves_the_allocation() {
    let spec = TimingSpec::uniform_single_cycle();
    let library = Library::ncr_like();
    for (name, dfg) in [("diffeq", diffeq()), ("ewf", ewf())] {
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let cs = cp + 3;
        let mut out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cs, library.clone())).unwrap();
        let signature_before = out.datapath.alu_signature();
        let res =
            with_instr(|i| refine_mfsa(&dfg, &spec, &library, &mut out, &IterateConfig::new(3), i))
                .unwrap();
        assert_eq!(
            out.datapath.alu_signature(),
            signature_before,
            "{name}: the slide splice must not change the ALU allocation"
        );
        let violations = verify(&dfg, &out.schedule, &spec, VerifyOptions::default());
        assert!(violations.is_empty(), "{name}: {violations:?}");
        if res.improved() {
            // The outcome's schedule and cost must reflect the refined
            // schedule, not the one-shot one.
            assert_eq!(
                slots(&dfg, &res.schedule),
                slots(&dfg, &out.schedule),
                "{name}: outcome schedule must be the refined one"
            );
        }
    }
}

#[test]
fn functional_pipelining_is_rejected_as_unsupported() {
    let dfg = diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let base = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(6)).unwrap();
    let mut config = IterateConfig::new(2);
    config.latency = Some(2);
    let err = with_instr(|i| refine(&dfg, &spec, &base.schedule, &config, i)).unwrap_err();
    assert!(err.to_string().contains("unsupported"), "{err}");
}

#[test]
fn a_baseline_invalid_under_the_clock_is_an_input_error() {
    // FDS ignores the clock, so its diffeq schedule chains 163 ns
    // multiplies into their consumers as if they were single-cycle —
    // invalid under a 100 ns clock, where they span two steps.
    let dfg = diffeq();
    let spec = TimingSpec::with_delays();
    let config = IterateConfig::new(3).with_clock(ClockPeriod::new(100));
    for cs in [4, 6] {
        let base = force_directed_schedule(&dfg, &spec, cs).unwrap();
        let mut sink = NullSink;
        let mut metrics = Metrics::new();
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        let err = refine(&dfg, &spec, &base, &config, &mut instr).unwrap_err();
        let IterateError::InvalidBaseline(violations) = &err else {
            panic!("cs {cs}: expected an invalid-baseline error, got {err}");
        };
        assert!(!violations.is_empty());
        assert!(
            err.to_string().contains("invalid iterate baseline"),
            "{err}"
        );
        assert!(
            metrics.is_empty(),
            "cs {cs}: the entry check moves no counter"
        );
    }
    // The variant is public, so an empty list must still format.
    assert_eq!(
        IterateError::InvalidBaseline(Vec::new()).to_string(),
        "invalid iterate baseline"
    );
}
