//! Recorded outcomes of the equivalence checker and the waveform dump.
//!
//! `tests/golden/checker.txt` holds the `Debug` text of
//! `check_equivalence`'s full `Result` on the paper's synthesis designs,
//! on the two ~5k-op scaling draws, on a vector with a missing input and
//! on schedules perturbed after the data path was built (so the checker
//! has mismatches or unavailable values to report). The `.vcd` files are
//! `write_vcd` dumps of two designs. Any change to the simulator must
//! reproduce every byte.

use std::collections::BTreeMap;

use moveframe_hls::benchmarks::examples;
use moveframe_hls::benchmarks::generate::{generate, scaling_workload, GeneratorConfig};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::celllib::ClockPeriod;
use moveframe_hls::dfg::SignalId;
use moveframe_hls::moveframe::mfsa::MfsaOutcome;
use moveframe_hls::prelude::*;
use moveframe_hls::schedule::{CStep, Schedule, Slot};
use moveframe_hls::sim::{write_vcd, SimError};

/// One synthesis design as the benchmark's `synth` path runs it: the
/// graph re-parsed from its `.dfg` text, one MFSA point.
struct Design {
    name: String,
    dfg: Dfg,
    spec: TimingSpec,
    clock: Option<ClockPeriod>,
    cs: u32,
    latency: Option<u32>,
}

impl Design {
    fn new(name: &str, dfg: &Dfg, spec: TimingSpec, clock: Option<ClockPeriod>, cs: u32) -> Self {
        Design {
            name: name.to_string(),
            dfg: parse_dfg(&dfg.to_text().unwrap()).unwrap(),
            spec,
            clock,
            cs,
            latency: None,
        }
    }

    fn synth(&self) -> MfsaOutcome {
        let mut config = MfsaConfig::new(self.cs, Library::ncr_like());
        if let Some(clock) = self.clock {
            config = config.with_chaining(clock);
        }
        if let Some(l) = self.latency {
            config = config.with_latency(l);
        }
        mfsa::schedule(&self.dfg, &self.spec, &config).unwrap()
    }
}

fn paper_designs() -> Vec<Design> {
    let mut out = Vec::new();
    for e in examples::all() {
        let mut d = Design::new(e.name, &e.dfg, e.spec.clone(), e.clock(), e.mfsa_cs);
        d.latency = e.latency_for(e.mfsa_cs);
        out.push(d);
    }
    for (name, dfg, cs) in [
        ("array_fir", memory::array_fir(8, 2), 20),
        ("matvec", memory::matvec(4, 2), 16),
    ] {
        out.push(Design::new(
            name,
            &dfg,
            TimingSpec::uniform_single_cycle(),
            None,
            cs,
        ));
    }
    out
}

fn scaling_design(ops: usize, seed: u64) -> Design {
    let dfg = generate(&GeneratorConfig {
        seed,
        ..scaling_workload(ops)
    });
    let spec = TimingSpec::uniform_single_cycle();
    let cs = CriticalPath::compute(&dfg, &spec).steps() as u32 + 8;
    Design::new(&format!("scaling-{ops}-{seed}"), &dfg, spec, None, cs)
}

fn check(
    d: &Design,
    schedule: &Schedule,
    out: &MfsaOutcome,
    inputs: &BTreeMap<SignalId, i64>,
) -> String {
    format!(
        "{:?}",
        check_equivalence(&d.dfg, schedule, &out.datapath, &d.spec, inputs)
    )
}

/// Schedules of `d` with one operation moved up to three steps earlier
/// or later on its own unit after the data path was built: the first
/// `limit` in node order whose check reports mismatches, and the first
/// `limit` whose check reports an unavailable value.
fn perturbed(d: &Design, out: &MfsaOutcome, limit: usize) -> Vec<(String, String)> {
    let inputs = random_inputs(&d.dfg, 1);
    let (mut wrong, mut unavailable) = (Vec::new(), Vec::new());
    for (node, slot) in out.schedule.iter() {
        for delta in [-3i64, -2, -1, 1, 2, 3] {
            let step = slot.step.get() as i64 + delta;
            if step < 1 || step > out.schedule.control_steps() as i64 {
                continue;
            }
            let mut s = out.schedule.clone();
            s.assign(
                node,
                Slot {
                    step: CStep::new(step as u32),
                    unit: slot.unit,
                },
            );
            let result = check_equivalence(&d.dfg, &s, &out.datapath, &d.spec, &inputs);
            let found = match &result {
                Ok(mismatches) if !mismatches.is_empty() => &mut wrong,
                Err(SimError::ValueUnavailable { .. }) => &mut unavailable,
                _ => continue,
            };
            if found.len() < limit {
                found.push((
                    format!("{} {node} {delta:+}", d.name),
                    format!("{result:?}"),
                ));
            }
        }
    }
    wrong.extend(unavailable);
    wrong
}

fn render() -> String {
    let mut lines = Vec::new();
    let paper = paper_designs();
    for d in &paper {
        let out = d.synth();
        for k in 0..8u64 {
            let inputs = random_inputs(&d.dfg, k);
            let result = check(d, &out.schedule, &out, &inputs);
            lines.push(format!("{} v{k}: {result}", d.name));
        }
        let mut missing = random_inputs(&d.dfg, 0);
        missing.pop_first();
        lines.push(format!(
            "{} missing-input: {}",
            d.name,
            check(d, &out.schedule, &out, &missing)
        ));
        for (name, result) in perturbed(d, &out, 3) {
            lines.push(format!("{name}: {result}"));
        }
    }
    for seed in [42, 43] {
        let d = scaling_design(5_000, seed);
        let out = d.synth();
        for k in 0..2u64 {
            let inputs = random_inputs(&d.dfg, k);
            let result = check(&d, &out.schedule, &out, &inputs);
            lines.push(format!("{} v{k}: {result}", d.name));
        }
    }
    lines.join("\n") + "\n"
}

fn vcd(name: &str) -> String {
    let d = paper_designs()
        .into_iter()
        .find(|d| d.name == name)
        .unwrap();
    let out = d.synth();
    let ctl = Controller::generate(&d.dfg, &out.schedule, &out.datapath, &d.spec).unwrap();
    let inputs = random_inputs(&d.dfg, 1);
    let sim = simulate(&d.dfg, &out.schedule, &out.datapath, &ctl, &d.spec, &inputs).unwrap();
    write_vcd(&d.dfg, &out.datapath, &sim)
}

fn golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn checker_results_match_the_recorded_goldens() {
    let got = render();
    let want = golden("checker.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
fn waveforms_match_the_recorded_goldens() {
    for name in ["diffeq", "array_fir"] {
        assert!(
            vcd(name) == golden(&format!("{name}.vcd")),
            "{name}.vcd differs"
        );
    }
}
