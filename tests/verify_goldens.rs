//! Recorded outcomes of the schedule verifier.
//!
//! `tests/golden/verify.txt` holds `verify`'s full `Vec<Violation>`, in
//! order (resource and dependency violations abbreviated, the rest as
//! their `Debug` text), on MFS and MFSA schedules of the paper's designs, a
//! memory kernel and a branchy two-cycle scaling draw. Each schedule is
//! checked as scheduled and after seeded perturbations (start steps
//! shifted, units traded between operations), without options, under
//! the design's clock, and under latencies down to 1, where multi-cycle
//! spans wrap onto their own rows. The file was recorded with the
//! pairwise conflict scan; the cell-bucketed verifier must reproduce
//! every violation, in the same order.

use moveframe_hls::benchmarks::examples;
use moveframe_hls::benchmarks::generate::{generate, GeneratorConfig};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::celllib::ClockPeriod;
use moveframe_hls::prelude::*;
use moveframe_hls::schedule::{CStep, Schedule, Slot, Violation};

/// One design: a graph, its timing, an optional clock and the time
/// constraint both schedulers run at.
struct Design {
    name: String,
    dfg: Dfg,
    spec: TimingSpec,
    clock: Option<ClockPeriod>,
    cs: u32,
}

fn designs() -> Vec<Design> {
    let mut out: Vec<Design> = examples::all()
        .into_iter()
        .map(|e| Design {
            name: e.name.to_string(),
            clock: e.clock(),
            cs: e.mfsa_cs,
            spec: e.spec,
            dfg: e.dfg,
        })
        .collect();
    out.push(Design {
        name: "array_fir".into(),
        dfg: memory::array_fir(8, 2),
        spec: TimingSpec::uniform_single_cycle(),
        clock: None,
        cs: 20,
    });
    let dfg = generate(&GeneratorConfig {
        seed: 9,
        layers: 5,
        width: 8,
        branch_pct: 60,
        ..GeneratorConfig::default()
    });
    let spec = TimingSpec::two_cycle_multiply();
    let cs = CriticalPath::compute(&dfg, &spec).steps() as u32 + 3;
    out.push(Design {
        name: "branchy".into(),
        dfg,
        spec,
        clock: None,
        cs,
    });
    out
}

/// The MFS and MFSA schedules of `d` (a scheduler that finds no
/// schedule contributes none).
fn schedules(d: &Design) -> Vec<(&'static str, Schedule)> {
    let mut mfs_config = MfsConfig::time_constrained(d.cs);
    let mut mfsa_config = MfsaConfig::new(d.cs, Library::ncr_like());
    if let Some(clock) = d.clock {
        mfs_config = mfs_config.with_chaining(clock);
        mfsa_config = mfsa_config.with_chaining(clock);
    }
    let mut out = Vec::new();
    if let Ok(o) = mfs::schedule(&d.dfg, &d.spec, &mfs_config) {
        out.push(("mfs", o.schedule));
    }
    if let Ok(o) = mfsa::schedule(&d.dfg, &d.spec, &mfsa_config) {
        out.push(("mfsa", o.schedule));
    }
    out
}

/// SplitMix64: the perturbation stream.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// `s` with `moves` operations moved: each start shifted by up to three
/// steps within the horizon, and every other move also taking the unit
/// of another scheduled operation.
fn perturbed(s: &Schedule, moves: usize, rng: &mut Mix) -> Schedule {
    let placed: Vec<_> = s.iter().collect();
    let cs = s.control_steps() as i64;
    let mut out = s.clone();
    for m in 0..moves {
        let (node, slot) = placed[rng.below(placed.len())];
        let shift = rng.below(7) as i64 - 3;
        let step = (slot.step.get() as i64 + shift).clamp(1, cs) as u32;
        let unit = if m % 2 == 1 {
            placed[rng.below(placed.len())].1.unit
        } else {
            slot.unit
        };
        out.assign(
            node,
            Slot {
                step: CStep::new(step),
                unit,
            },
        );
    }
    out
}

/// One violation: `Ra-b` for a resource conflict, `Dp>s` for a
/// dependency, the `Debug` text otherwise.
fn short(v: &Violation) -> String {
    match v {
        Violation::ResourceConflict { a, b } => format!("R{}-{}", a.index(), b.index()),
        Violation::DependencyOrder { pred, succ } => format!("D{}>{}", pred.index(), succ.index()),
        other => format!("{other:?}"),
    }
}

fn render() -> String {
    let mut lines = Vec::new();
    for d in designs() {
        let options = [
            ("plain", VerifyOptions::default()),
            (
                "clock",
                VerifyOptions {
                    clock: d.clock,
                    ..VerifyOptions::default()
                },
            ),
            (
                "L1",
                VerifyOptions {
                    latency: Some(1),
                    clock: d.clock,
                },
            ),
            (
                "L2",
                VerifyOptions {
                    latency: Some(2),
                    clock: d.clock,
                },
            ),
            (
                "Lhalf",
                VerifyOptions {
                    latency: Some(d.cs.div_ceil(2)),
                    clock: d.clock,
                },
            ),
        ];
        for (alg, schedule) in schedules(&d) {
            let mut rng = Mix(d.cs as u64 * 31 + alg.len() as u64);
            for (k, moves) in [0usize, 1, 3, 8].into_iter().enumerate() {
                let s = perturbed(&schedule, moves, &mut rng);
                for (opt, o) in options {
                    let v: Vec<String> = verify(&d.dfg, &s, &d.spec, o).iter().map(short).collect();
                    lines.push(format!("{} {alg} p{k} {opt}: {}", d.name, v.join(" ")));
                }
            }
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn verify_results_match_the_recorded_golden() {
    let got = render();
    let path = format!("{}/tests/golden/verify.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
