//! Determinism: the refine loop is a pure function of
//! `(dfg, spec, baseline, config)` — repeated runs, cloned baselines
//! and generated workloads must all produce bit-identical schedules
//! and counters.

use hls_baselines::force_directed_schedule;
use hls_benchmarks::classic::{ar_filter, diffeq, ewf, fir};
use hls_benchmarks::generate::{clustered_workload, generate_clustered};
use hls_celllib::{ClockPeriod, Library, TimingSpec};
use hls_dfg::{CriticalPath, Dfg};
use hls_iterate::{refine, refine_mfsa, IterateConfig, IterateOutcome};
use hls_schedule::{CStep, Schedule, Slot};
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig};

fn run(dfg: &Dfg, spec: &TimingSpec, base: &Schedule, config: &IterateConfig) -> IterateOutcome {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    refine(dfg, spec, base, config, &mut instr).unwrap()
}

/// FNV-1a over the `(node, step, unit)` triples — the same shape the
/// bench snapshots pin.
fn fingerprint(schedule: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    for (node, slot) in schedule.iter() {
        mix(&(node.index() as u64).to_le_bytes());
        mix(&slot.step.get().to_le_bytes());
        mix(slot.unit.to_string().as_bytes());
    }
    h
}

#[test]
fn repeated_runs_are_bit_identical() {
    let spec = TimingSpec::uniform_single_cycle();
    for dfg in [diffeq(), ewf()] {
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let base = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 3)).unwrap();
        let config = IterateConfig::new(4);
        let first = run(&dfg, &spec, &base.schedule, &config);
        for _ in 0..3 {
            let again = run(&dfg, &spec, &base.schedule, &config);
            assert_eq!(fingerprint(&first.schedule), fingerprint(&again.schedule));
            assert_eq!(first.csteps_after, again.csteps_after);
            assert_eq!(first.registers_after, again.registers_after);
            assert_eq!(first.splices_accepted, again.splices_accepted);
            assert_eq!(first.splices_rejected, again.splices_rejected);
            assert_eq!(first.moves, again.moves);
        }
    }
}

#[test]
fn chained_runs_are_bit_identical() {
    let dfg = diffeq();
    let spec = TimingSpec::with_delays();
    let clock = ClockPeriod::new(100);
    let config = MfsConfig::time_constrained(8).with_chaining(clock);
    let base = mfs::schedule(&dfg, &spec, &config).unwrap();
    let iter_config = IterateConfig::new(3).with_clock(clock);
    let first = run(&dfg, &spec, &base.schedule, &iter_config);
    let again = run(&dfg, &spec, &base.schedule, &iter_config);
    assert_eq!(fingerprint(&first.schedule), fingerprint(&again.schedule));
    assert_eq!(first.moves, again.moves);
}

#[test]
fn mfsa_runs_are_bit_identical() {
    let dfg = ewf();
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
    let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cp + 3, Library::ncr_like())).unwrap();
    let config = IterateConfig::new(3);
    let first = run(&dfg, &spec, &out.schedule, &config);
    let again = run(&dfg, &spec, &out.schedule, &config);
    assert_eq!(fingerprint(&first.schedule), fingerprint(&again.schedule));
    assert_eq!(first.splices_accepted, again.splices_accepted);
}

#[test]
fn generated_clustered_workload_is_stable() {
    // The shape CI byte-diffs through the CLI at 30k nodes; here a
    // scaled-down witness proves the library layer is already stable.
    let dfg = generate_clustered(&clustered_workload(2_000));
    let spec = TimingSpec::uniform_single_cycle();
    let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
    let base = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cp + 2)).unwrap();
    let config = IterateConfig::new(3);
    let first = run(&dfg, &spec, &base.schedule, &config);
    let again = run(&dfg, &spec, &base.schedule, &config);
    assert_eq!(fingerprint(&first.schedule), fingerprint(&again.schedule));
    assert_eq!(first.csteps_after, again.csteps_after);
    assert!(first.csteps_after <= first.csteps_before);
}

/// Folds one refine outcome into a running `(fingerprint, moves,
/// accepted splices)` aggregate.
fn fold(acc: &mut (u64, u64, u32), out: &IterateOutcome) {
    acc.0 = acc.0.rotate_left(5) ^ fingerprint(&out.schedule);
    acc.1 += out.moves;
    acc.2 += out.splices_accepted;
}

/// Golden: chained `refine` over MFS-chained baselines (clock 100) and
/// FDS baselines at clocks 200 and 250, where every `with_delays` op is
/// single-cycle, so the unchained FDS schedules are valid baselines.
#[test]
fn chained_refine_matches_its_golden() {
    let spec = TimingSpec::with_delays();
    let mut acc = (0u64, 0u64, 0u32);
    for dfg in [diffeq(), ewf(), fir(8), ar_filter()] {
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let clock = ClockPeriod::new(100);
        for cs in cp.saturating_sub(2).max(1)..=cp + 2 {
            let config = MfsConfig::time_constrained(cs).with_chaining(clock);
            let Ok(base) = mfs::schedule(&dfg, &spec, &config) else {
                continue;
            };
            let iter_config = IterateConfig::new(4).with_clock(clock);
            fold(&mut acc, &run(&dfg, &spec, &base.schedule, &iter_config));
        }
        for clock in [ClockPeriod::new(200), ClockPeriod::new(250)] {
            for cs in cp..=cp + 3 {
                let base = force_directed_schedule(&dfg, &spec, cs).unwrap();
                let iter_config = IterateConfig::new(4).with_clock(clock);
                fold(&mut acc, &run(&dfg, &spec, &base, &iter_config));
            }
        }
    }
    assert_eq!(acc, (0xc67b_c9f6_6151_bffb, 370, 33));
}

/// Golden: `refine_mfsa` on `ewf` and `diffeq` at `cp + 3`, and the
/// same MFSA schedules shifted three steps late, which the same-unit
/// slide must pull back.
#[test]
fn mfsa_refine_matches_its_golden() {
    let spec = TimingSpec::uniform_single_cycle();
    let library = Library::ncr_like();
    let mut refined = (0u64, 0u64, 0u32);
    let mut shifted = (0u64, 0u64, 0u32);
    for dfg in [ewf(), diffeq()] {
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mut out =
            mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cp + 3, library.clone())).unwrap();
        let mut late = Schedule::new(&dfg, cp + 6);
        for (node, slot) in out.schedule.iter() {
            let step = CStep::new(slot.step.get() + 3);
            late.assign(node, Slot { step, ..slot });
        }
        fold(
            &mut shifted,
            &run(&dfg, &spec, &late, &IterateConfig::new(4)),
        );
        let mut sink = NullSink;
        let mut metrics = Metrics::new();
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        let config = IterateConfig::new(4);
        let res = refine_mfsa(&dfg, &spec, &library, &mut out, &config, &mut instr).unwrap();
        fold(&mut refined, &res);
    }
    assert_eq!(refined, (0x4275_23cc_1523_ad69, 0, 0));
    assert_eq!(shifted, (0xb1ca_0f61_c691_4f75, 59, 6));
}
