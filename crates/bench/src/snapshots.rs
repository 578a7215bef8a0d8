//! The deterministic snapshot documents `BENCH_mem.json` and
//! `BENCH_telemetry.json`, shared by their emitter binaries and
//! `bench_diff`.

use hls_celllib::{Library, TimingSpec};
use hls_dfg::{CriticalPath, Dfg};
use hls_mem::port_pressure;
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig};

use crate::{run_example_mfs, run_example_mfsa};

const PORTS: [u32; 3] = [1, 2, 4];
/// How far past the critical path the search is willing to go before
/// declaring a kernel infeasible (never reached in practice).
const SEARCH_SPAN: u32 = 256;

/// The smallest `cs >= cp` the scheduler accepts, or `None`.
fn min_feasible(dfg: &Dfg, spec: &TimingSpec, mut try_cs: impl FnMut(u32) -> bool) -> Option<u32> {
    let cp = CriticalPath::compute(dfg, spec).steps() as u32;
    (cp..cp + SEARCH_SPAN).find(|&cs| try_cs(cs))
}

fn sweep(label: &str, build: impl Fn(u32) -> Dfg) -> String {
    let spec = TimingSpec::uniform_single_cycle();
    let mut rows = Vec::new();
    let mut last_mfsa = None;
    for ports in PORTS {
        let dfg = build(ports);
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mfs_min = min_feasible(&dfg, &spec, |cs| {
            mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cs)).is_ok()
        })
        .unwrap_or_else(|| panic!("{label} ports={ports}: MFS found no feasible cs"));
        let mut out = None;
        let mfsa_min = min_feasible(&dfg, &spec, |cs| {
            match mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cs, Library::ncr_like())) {
                Ok(o) => {
                    out = Some(o);
                    true
                }
                Err(_) => false,
            }
        })
        .unwrap_or_else(|| panic!("{label} ports={ports}: MFSA found no feasible cs"));
        let out = out.expect("search success stores the outcome");
        let pressure = port_pressure(&dfg, &out.schedule).expect("port-bound MFSA schedule");
        let peaks: Vec<String> = dfg
            .memory()
            .banks()
            .iter()
            .map(|b| {
                format!(
                    "{{\"bank\":\"{}\",\"ports\":{},\"peak\":{}}}",
                    b.name(),
                    b.ports(),
                    pressure.peak(b.id())
                )
            })
            .collect();
        // The monotonicity the CI smoke job also pins: more ports never
        // lengthen the minimum schedule.
        if let Some(prev) = last_mfsa {
            assert!(
                mfsa_min <= prev,
                "{label}: {ports} ports needs {mfsa_min} steps, more than {prev} at fewer ports"
            );
        }
        last_mfsa = Some(mfsa_min);
        rows.push(format!(
            "    {{\"ports\":{ports},\"critical_path\":{cp},\"min_csteps_mfs\":{mfs_min},\"min_csteps_mfsa\":{mfsa_min},\"peak_pressure\":[{}]}}",
            peaks.join(",")
        ));
    }
    format!("  \"{label}\": [\n{}\n  ]", rows.join(",\n"))
}

/// Regenerates the `BENCH_mem.json` document: each memory benchmark
/// kernel rebuilt at 1, 2 and 4 bank ports, with the minimum feasible
/// time constraint of MFS and MFSA found by upward search from the
/// dependency critical path, plus the peak per-bank port pressure of
/// the MFSA schedule at that minimum. Fully deterministic.
pub fn mem_snapshot() -> String {
    let fir = sweep("array_fir_8", |p| hls_benchmarks::memory::array_fir(8, p));
    let mv = sweep("matvec_3", |p| hls_benchmarks::memory::matvec(3, p));
    format!(
        "{{\n  \"note\": \"minimum feasible control steps by bank port count; searched upward from the dependency critical path\",\n{fir},\n{mv}\n}}"
    )
}

/// Regenerates the `BENCH_telemetry.json` document: every paper example
/// run through instrumented MFS (at each Table-1 time constraint) and
/// MFSA (at its Table-2 constraint), with all counters and histograms
/// merged into one registry. Timing histograms (`phase.*.ns`,
/// `bench.*.wall_ns`) vary run to run, so they are dropped unless
/// `with_timings` is set — everything left is deterministic.
pub fn telemetry_snapshot(with_timings: bool) -> String {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);

    for e in hls_benchmarks::examples::all() {
        for &t in &e.time_constraints {
            run_example_mfs(&e, t, &mut instr)
                .unwrap_or_else(|err| panic!("ex{} at T={t}: {err}", e.id));
        }
        let config = MfsaConfig::new(e.mfsa_cs, Library::ncr_like());
        run_example_mfsa(&e, config, &mut instr)
            .unwrap_or_else(|err| panic!("ex{} MFSA: {err}", e.id));
    }

    if !with_timings {
        metrics.retain(|name| !name.ends_with(".ns") && !name.ends_with("_ns"));
    }
    metrics.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_snapshot_is_deterministic_without_timings() {
        let a = telemetry_snapshot(false);
        let b = telemetry_snapshot(false);
        assert_eq!(a, b);
        assert!(a.contains("\"mfs.energy_evaluations\""));
        assert!(a.contains("\"mfsa.reuse_memo.hits\""));
        assert!(a.contains("\"mfsa.reuse_memo.insert_hits\""));
        assert!(!a.contains(".ns\""), "timing histograms must be dropped");
    }
}
