//! Feature-aware dispatch: run MFS or MFSA on one example at one time
//! constraint, applying the example's chaining/pipelining flags.

use std::time::{Duration, Instant};

use hls_benchmarks::examples::{Example, Feature};
use hls_dfg::OpMix;
use hls_telemetry::Instrument;
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig};
use moveframe::pipeline::{pipelined_fu_counts, schedule_structural};
use moveframe::MoveFrameError;

/// The distilled result of one MFS run on an example.
#[derive(Debug, Clone)]
pub struct MfsRun {
    /// Functional units required, in the paper's notation (structural
    /// pipelining already folded back to whole pipelined units).
    pub mix: OpMix,
    /// Local reschedulings performed.
    pub reschedules: u32,
    /// Wall-clock time of the scheduling call.
    pub wall: Duration,
}

/// Runs MFS on `example` at time constraint `t`, honouring its feature
/// (chaining clock, functional-pipelining latency, structural stage
/// expansion). Scheduler events and counters flow into `instr`, and the
/// runner adds `bench.mfs.runs` and a `bench.mfs.wall_ns` histogram of
/// the scheduling wall time.
///
/// # Errors
///
/// Propagates scheduling errors (an infeasible `t`, …).
pub fn run_example_mfs(
    example: &Example,
    t: u32,
    instr: &mut Instrument<'_>,
) -> Result<MfsRun, MoveFrameError> {
    let mut config = MfsConfig::time_constrained(t);
    if let Some(clock) = example.clock() {
        config = config.with_chaining(clock);
    }
    if let Some(latency) = example.latency_for(t) {
        config = config.with_latency(latency);
    }
    let start = Instant::now();
    let (mix, reschedules) = match &example.feature {
        Feature::StructuralPipelining(ops) => {
            let (_, _, outcome) =
                schedule_structural(&example.dfg, &example.spec, &config, ops, instr)?;
            let mix = pipelined_fu_counts(&outcome)
                .into_iter()
                .map(|(c, n)| (c, n as usize))
                .collect();
            (mix, outcome.reschedule_count)
        }
        _ => {
            let outcome = mfs::schedule_traced(&example.dfg, &example.spec, &config, instr)?;
            let mix = outcome
                .fu_counts()
                .into_iter()
                .map(|(c, n)| (c, n as usize))
                .collect();
            (mix, outcome.reschedule_count)
        }
    };
    let wall = start.elapsed();
    instr.inc("bench.mfs.runs", 1);
    instr.observe("bench.mfs.wall_ns", wall.as_nanos() as u64);
    Ok(MfsRun {
        mix,
        reschedules,
        wall,
    })
}

/// Runs MFSA on `example` at its Table-2 time constraint with the given
/// style, returning the outcome and the wall time. Scheduler events and
/// counters flow into `instr`, and the runner adds `bench.mfsa.runs` and
/// a `bench.mfsa.wall_ns` histogram of the scheduling wall time.
///
/// Structural-pipelining examples run on the *unexpanded* graph (the
/// multiplier is a plain 2-cycle ALU): Table 2 reports whole ALUs, and
/// the cell library has no per-stage cells.
///
/// # Errors
///
/// Propagates MFSA errors.
pub fn run_example_mfsa(
    example: &Example,
    config: MfsaConfig,
    instr: &mut Instrument<'_>,
) -> Result<(mfsa::MfsaOutcome, Duration), MoveFrameError> {
    let config = match example.clock() {
        Some(clock) => config.with_chaining(clock),
        None => config,
    };
    let config = match example.latency_for(config.control_steps()) {
        Some(latency) => config.with_latency(latency),
        None => config,
    };
    let start = Instant::now();
    let outcome = mfsa::schedule_traced(&example.dfg, &example.spec, &config, instr)?;
    let wall = start.elapsed();
    instr.inc("bench.mfsa.runs", 1);
    instr.observe("bench.mfsa.wall_ns", wall.as_nanos() as u64);
    Ok((outcome, wall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_benchmarks::examples;
    use hls_celllib::Library;
    use hls_telemetry::{Metrics, NullSink};

    fn null_run_mfs(e: &Example, t: u32) -> Result<MfsRun, MoveFrameError> {
        run_example_mfs(
            e,
            t,
            &mut Instrument::new(&mut NullSink, &mut Metrics::new()),
        )
    }

    #[test]
    fn every_example_schedules_at_every_sweep_point() {
        for e in examples::all() {
            for &t in &e.time_constraints {
                let run =
                    null_run_mfs(&e, t).unwrap_or_else(|err| panic!("ex{} at T={t}: {err}", e.id));
                assert!(run.mix.total() >= 1, "ex{} at T={t} used no units", e.id);
            }
        }
    }

    #[test]
    fn looser_constraints_never_need_more_units() {
        for e in examples::all() {
            if e.time_constraints.len() < 2 {
                continue;
            }
            let first = null_run_mfs(&e, e.time_constraints[0]).unwrap();
            let last = null_run_mfs(&e, *e.time_constraints.last().unwrap()).unwrap();
            assert!(
                last.mix.total() <= first.mix.total(),
                "ex{}: {} units at loose T vs {} at tight T",
                e.id,
                last.mix.total(),
                first.mix.total()
            );
        }
    }

    #[test]
    fn mfsa_runs_on_every_example() {
        for e in examples::all() {
            let config = MfsaConfig::new(e.mfsa_cs, Library::ncr_like());
            let (outcome, _) = run_example_mfsa(
                &e,
                config,
                &mut Instrument::new(&mut NullSink, &mut Metrics::new()),
            )
            .unwrap_or_else(|err| panic!("ex{}: {err}", e.id));
            assert!(outcome.schedule.is_complete());
            assert!(outcome.cost.total().as_u64() > 0);
        }
    }
}
