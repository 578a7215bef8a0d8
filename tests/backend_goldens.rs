//! Recorded outputs of the RTL back end.
//!
//! `tests/golden/backend.txt` pins, for the paper's synthesis designs,
//! two memory kernels, the two ~5k-op scaling draws and a two-cycle
//! chained draw, everything the back end derives from an MFSA schedule:
//! the FNV-64 of the emitted Verilog and of the controller listing,
//! every signal's register, every operation's oriented operand sources,
//! and the full `Debug` text of `verify_datapath` and
//! `verify_controller`. The verifiers run on the schedule as built and
//! on seeded perturbations applied after the data path was built, so
//! they have violations to report; the order of those violations is
//! part of the recording. Listings longer than 4 KiB are pinned by
//! their FNV-64 and length.

use hls_bench::mfsa_point;
use moveframe_hls::benchmarks::examples;
use moveframe_hls::benchmarks::generate::{generate, scaling_workload, GeneratorConfig};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::control::emit_verilog;
use moveframe_hls::moveframe::mfsa::MfsaOutcome;
use moveframe_hls::prelude::*;
use moveframe_hls::rtl::NetSource;
use moveframe_hls::schedule::{Slot, UnitId};

/// One synthesis design: the graph re-parsed from its `.dfg` text, one
/// MFSA point.
struct Design {
    name: String,
    dfg: Dfg,
    spec: TimingSpec,
    point: DesignPoint,
}

impl Design {
    fn new(name: &str, dfg: &Dfg, spec: TimingSpec, point: DesignPoint) -> Self {
        Design {
            name: name.to_string(),
            dfg: parse_dfg(&dfg.to_text().unwrap()).unwrap(),
            spec,
            point,
        }
    }

    fn synth(&self) -> MfsaOutcome {
        let config = self
            .point
            .mfsa_config(Library::ncr_like(), &CancelToken::never());
        mfsa::schedule(&self.dfg, &self.spec, &config).unwrap()
    }
}

fn designs() -> Vec<Design> {
    let mut out = Vec::new();
    for e in examples::all() {
        let point = mfsa_point(&e, e.mfsa_cs, 1);
        out.push(Design::new(e.name, &e.dfg, e.spec.clone(), point));
    }
    for (name, dfg, cs) in [
        ("array_fir", memory::array_fir(8, 2), 20),
        ("matvec", memory::matvec(4, 2), 16),
    ] {
        let point = DesignPoint::new(Algorithm::Mfsa, cs);
        out.push(Design::new(
            name,
            &dfg,
            TimingSpec::uniform_single_cycle(),
            point,
        ));
    }
    for seed in [42, 43] {
        let dfg = generate(&GeneratorConfig {
            seed,
            ..scaling_workload(5_000)
        });
        let spec = TimingSpec::uniform_single_cycle();
        let cs = CriticalPath::compute(&dfg, &spec).steps() as u32 + 8;
        let point = DesignPoint::new(Algorithm::Mfsa, cs);
        out.push(Design::new(
            &format!("scaling-5000-{seed}"),
            &dfg,
            spec,
            point,
        ));
    }
    // Two-cycle multiplies plus chaining: two adds (48 each) fit one
    // 100-unit clock, so same-step consumers read ALU outputs directly.
    let dfg = generate(&GeneratorConfig {
        seed: 11,
        layers: 6,
        width: 8,
        branch_pct: 40,
        ..GeneratorConfig::default()
    });
    let mut spec = TimingSpec::with_delays();
    spec.set(OpKind::Mul, OpTiming::multi_cycle(2, Delay::new(163)));
    let cs = CriticalPath::compute(&dfg, &spec).steps() as u32 + 2;
    let mut point = DesignPoint::new(Algorithm::Mfsa, cs);
    point.clock = Some(100);
    out.push(Design::new("chained-two-cycle", &dfg, spec, point));
    out
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `text` itself, or its FNV-64 and length when it is over 4 KiB.
fn pinned(text: &str) -> String {
    if text.len() <= 4096 {
        text.to_string()
    } else {
        format!("fnv={:016x} len={}", fnv64(text.as_bytes()), text.len())
    }
}

fn source(s: NetSource) -> String {
    match s {
        NetSource::External(sig) => format!("x{}", sig.index()),
        other => other.to_string(),
    }
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

/// `s` with `moves` operations each shifted by up to three steps, on
/// their own units, within the horizon.
fn shifted(s: &Schedule, moves: usize, rng: &mut Mix) -> Schedule {
    let placed: Vec<_> = s.iter().collect();
    let cs = s.control_steps() as i64;
    let mut out = s.clone();
    for _ in 0..moves {
        let (node, slot) = placed[rng.below(placed.len())];
        let shift = rng.below(7) as i64 - 3;
        let step = (slot.step.get() as i64 + shift).clamp(1, cs) as u32;
        out.assign(
            node,
            Slot {
                step: CStep::new(step),
                unit: slot.unit,
            },
        );
    }
    out
}

/// `s` with collisions forced: on every `every`-th unit (in order of
/// first use) and on every memory port, the second operation moves
/// onto the first one's start step.
fn collided(s: &Schedule, every: usize) -> Schedule {
    let mut units: Vec<(UnitId, Vec<NodeId>)> = Vec::new();
    for (node, slot) in s.iter() {
        match units.iter_mut().find(|(u, _)| *u == slot.unit) {
            Some((_, nodes)) => nodes.push(node),
            None => units.push((slot.unit, vec![node])),
        }
    }
    let mut out = s.clone();
    for (i, (unit, nodes)) in units.iter().enumerate() {
        let memory = matches!(unit, UnitId::Fu { .. });
        if nodes.len() < 2 || !(memory || i % every == 0) {
            continue;
        }
        let step = s.start(nodes[0]).unwrap();
        out.assign(nodes[1], Slot { step, unit: *unit });
    }
    out
}

fn render() -> String {
    let mut lines = Vec::new();
    let (mut dp_hits, mut ctl_hits) = (0, 0);
    for d in designs() {
        let out = d.synth();
        let (dfg, spec, dp) = (&d.dfg, &d.spec, &out.datapath);
        let ctl = Controller::generate(dfg, &out.schedule, dp, spec).unwrap();
        let verilog = emit_verilog(dfg, &out.schedule, dp, &ctl, spec).unwrap();
        lines.push(format!(
            "{}: {} nodes, verilog fnv={:016x} len={}, controller fnv={:016x}",
            d.name,
            dfg.node_count(),
            fnv64(verilog.as_bytes()),
            verilog.len(),
            fnv64(ctl.render(dfg).as_bytes()),
        ));
        let regs: Vec<String> = dfg
            .signals()
            .map(|(sid, _)| {
                dp.register_allocation()
                    .register_of(sid)
                    .map_or("-".to_string(), |r| r.to_string())
            })
            .collect();
        lines.push(format!("{} registers: {}", d.name, pinned(&regs.join(" "))));
        let mut chained = 0;
        let sources: Vec<String> = dfg
            .node_ids()
            .map(|n| match dp.operand_sources(n) {
                None => "-".to_string(),
                Some((a, b)) => {
                    chained += [Some(a), b]
                        .iter()
                        .filter(|s| matches!(s, Some(NetSource::Alu(_))))
                        .count();
                    match b {
                        Some(b) => format!("{},{}", source(a), source(b)),
                        None => source(a),
                    }
                }
            })
            .collect();
        lines.push(format!(
            "{} sources ({chained} chained): {}",
            d.name,
            pinned(&sources.join(" "))
        ));

        let mut rng = Mix(u64::from(d.point.cs) * 31 + dfg.node_count() as u64);
        let every = (out.schedule.alu_instance_count() / 8).max(1);
        let mut perturbations = vec![("built".to_string(), out.schedule.clone())];
        for moves in [1, 3, 8] {
            let s = shifted(&out.schedule, moves, &mut rng);
            perturbations.push((format!("shift{moves}"), s));
        }
        perturbations.push(("collide".to_string(), collided(&out.schedule, every)));
        for (label, s) in &perturbations {
            let v = verify_datapath(dfg, s, dp, spec);
            dp_hits += usize::from(!v.is_empty());
            lines.push(format!(
                "{} {label} datapath: {}",
                d.name,
                pinned(&format!("{v:?}"))
            ));
            // The controller of the built schedule, checked against the
            // perturbed one.
            let v = verify_controller(dfg, s, dp, &ctl, spec);
            ctl_hits += usize::from(!v.is_empty());
            lines.push(format!(
                "{} {label} controller: {}",
                d.name,
                pinned(&format!("{v:?}"))
            ));
            // A controller generated from the perturbed schedule, checked
            // against it.
            let regenerated = Controller::generate(dfg, s, dp, spec)
                .map(|c| verify_controller(dfg, s, dp, &c, spec));
            lines.push(format!(
                "{} {label} regenerated: {}",
                d.name,
                pinned(&format!("{regenerated:?}"))
            ));
        }
    }
    assert!(dp_hits > 0 && ctl_hits > 0, "the perturbations must bite");
    lines.join("\n") + "\n"
}

#[test]
fn backend_outputs_match_the_recorded_golden() {
    let got = render();
    let path = format!("{}/tests/golden/backend.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
