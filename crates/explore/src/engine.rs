//! The exploration engine: fan a grid of design points over a worker
//! pool, memoize through the content-addressed cache, merge telemetry,
//! and reduce to a Pareto front.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use hls_celllib::{ClockPeriod, Library, TimingSpec};
use hls_dfg::{Dfg, FuClass};
use hls_schedule::{Schedule, ScheduleStats};
use hls_telemetry::{escape_json, Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsOutcome};
use moveframe::mfsa::{self, MfsaOutcome};
use moveframe::pipeline::{pipelined_fu_counts, schedule_structural};
use moveframe::CancelToken;

use crate::cache::{ExploreCache, Tier};
use crate::fingerprint::dfg_fingerprint;
use crate::pareto::{pareto_front, FrontEntry};
use crate::point::{Algorithm, DesignPoint};
use crate::pool::{default_threads, run_indexed};

/// MFSA-specific detail of a scheduled point (Table-2 columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MfsaDetail {
    /// The allocated ALU set in the paper's notation (e.g. `2(+-*),(+)`).
    pub alus: String,
    /// Total data-path cost in µm² (ALUs + registers + muxes).
    pub total_cost: u64,
    /// Real multiplexer count.
    pub mux: usize,
    /// Total multiplexer inputs.
    pub muxin: usize,
}

/// The distilled, cacheable result of one scheduled design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointMetrics {
    /// Control steps actually used (last finish step).
    pub csteps: u32,
    /// The FU mix (paper notation) or, for MFSA, the ALU signature.
    pub mix: String,
    /// Functional-unit area in µm² (MFSA: ALU area).
    pub fu_cost: u64,
    /// Registers: peak simultaneously live values (MFSA: data-path
    /// register file — identical by the shared lifetime definition).
    pub registers: usize,
    /// Local reschedulings (MFS) — 0 for the other algorithms.
    pub reschedules: u32,
    /// Per-bank port pressure (memory-aware designs; empty otherwise).
    pub mem: Vec<BankPressure>,
    /// Present only for MFSA points.
    pub mfsa: Option<MfsaDetail>,
}

/// Per-bank port pressure of one scheduled point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankPressure {
    /// The bank's name.
    pub bank: String,
    /// Declared port count.
    pub ports: u32,
    /// Peak simultaneous per-step access demand over the schedule.
    pub peak: u32,
}

/// Per-bank pressure of a schedule (empty for pure operator graphs;
/// also empty — rather than failing the point — if the bindings are
/// not analysable, which the schedulers rule out by construction).
fn mem_pressure(dfg: &Dfg, schedule: &Schedule) -> Vec<BankPressure> {
    match hls_mem::port_pressure(dfg, schedule) {
        Ok(p) => dfg
            .memory()
            .banks()
            .iter()
            .map(|b| BankPressure {
                bank: b.name().to_string(),
                ports: b.ports(),
                peak: p.peak(b.id()),
            })
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// The outcome of one grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Position in the input grid.
    pub index: usize,
    /// Display label.
    pub label: String,
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Metrics, or the scheduling error rendered as a string.
    pub outcome: Result<PointMetrics, String>,
    /// Wall time of this lookup in ns (0-ish for cache hits;
    /// **nondeterministic** — never part of committed artifacts).
    pub wall_ns: u64,
}

/// Options for one [`Engine::explore`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreOptions {
    /// Worker threads; 0 means [`default_threads`].
    pub threads: usize,
}

/// The full report of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Per-point results, in grid order.
    pub results: Vec<PointResult>,
    /// The Pareto front (see [`pareto_front`]).
    pub front: Vec<FrontEntry>,
    /// Telemetry merged across all workers.
    pub metrics: Metrics,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the whole exploration in ns (nondeterministic).
    pub wall_ns: u64,
}

impl ExploreReport {
    /// The Pareto front as JSON — a **pure function of the grid and the
    /// DFG**: identical bytes for any thread count and any cache state.
    /// Wall times and cache hit flags are deliberately excluded.
    pub fn front_json(&self) -> String {
        let errors = self.results.iter().filter(|r| r.outcome.is_err()).count();
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"points\":{},\"errors\":{},\"front\":[",
            self.results.len(),
            errors
        );
        for (i, e) in self.front.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"label\":\"");
            escape_json(&mut s, &e.label);
            let _ = write!(
                s,
                "\",\"algorithm\":\"{}\",\"csteps\":{},\"fu_cost\":{},\"registers\":{}}}",
                e.algorithm, e.objectives.csteps, e.objectives.fu_cost, e.objectives.registers
            );
        }
        s.push_str("]}");
        s
    }

    /// A human-readable summary table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explored {} point(s) on {} thread(s) in {:.2} ms",
            self.results.len(),
            self.threads,
            self.wall_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "{:<40} {:>7} {:>10} {:>5}  mix",
            "point", "csteps", "fu_cost", "regs"
        );
        for r in &self.results {
            match &r.outcome {
                Ok(m) => {
                    let _ = writeln!(
                        out,
                        "{:<40} {:>7} {:>10} {:>5}  {}",
                        r.label, m.csteps, m.fu_cost, m.registers, m.mix
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<40} <{e}>", r.label);
                }
            }
        }
        let _ = writeln!(out, "pareto front ({} point(s)):", self.front.len());
        for e in &self.front {
            let _ = writeln!(
                out,
                "  {:<38} csteps={} fu_cost={} registers={}",
                e.label, e.objectives.csteps, e.objectives.fu_cost, e.objectives.registers
            );
        }
        out
    }
}

/// A reusable exploration engine: holds the cache across
/// [`Engine::explore`] calls, so repeated queries (interactive sweeps,
/// the bench tables) are memoized.
#[derive(Debug, Default)]
pub struct Engine {
    cache: ExploreCache,
}

impl Engine {
    /// An engine with an empty cache at the default caps.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine whose cache holds at most `results_cap` result entries
    /// (LRU-evicted past that).
    pub fn with_caps(results_cap: usize) -> Engine {
        Engine {
            cache: ExploreCache::with_caps(results_cap),
        }
    }

    /// An engine whose result cache is additionally backed by the
    /// content-addressed on-disk tier rooted at `dir` (see
    /// [`ExploreCache::with_disk`]): a fresh engine over a populated
    /// directory serves previously-computed points without scheduling.
    pub fn with_disk(results_cap: usize, dir: &std::path::Path) -> std::io::Result<Engine> {
        Ok(Engine {
            cache: ExploreCache::with_disk(results_cap, dir)?,
        })
    }

    /// Access to the cache (for tests and diagnostics).
    pub fn cache(&self) -> &ExploreCache {
        &self.cache
    }

    /// Schedules a single design point through the cache, cooperatively
    /// honouring `cancel`. `dfg_fp` is [`dfg_fingerprint`]`(dfg, spec)`:
    /// callers compute it once and reuse it (the serving hot path also
    /// keys its warm probe with it, a grid shares it across points).
    ///
    /// Returns the metrics (or the scheduling error as a string) plus
    /// whether the answer came **warm** from the cache (true = cache
    /// hit, nothing recomputed). Cancellation hygiene: a result aborted
    /// by `cancel` is reported to this caller but *forgotten* by the
    /// cache, so a later identical request recomputes instead of
    /// inheriting the timeout; symmetrically, a stale cancelled entry
    /// found by a live (non-cancelled) request is discarded and retried
    /// once.
    pub fn schedule_point(
        &self,
        dfg_fp: u64,
        dfg: &Dfg,
        spec: &TimingSpec,
        point: &DesignPoint,
        cancel: &CancelToken,
        instr: &mut Instrument<'_>,
    ) -> (Result<PointMetrics, String>, bool) {
        let point_fp = point.fingerprint();
        let (mut outcome, mut tier) = self.cache.result(dfg_fp, point_fp, || {
            run_point(dfg, spec, point, cancel, instr)
        });
        // Cancelled results never reach the disk tier, so the hygiene
        // below only ever concerns freshly computed or memory-cached
        // entries.
        if is_cancelled(&outcome) {
            if tier == Tier::Cold {
                // Our own deadline fired mid-compute: hand the error to
                // this caller, but do not let it poison the key.
                self.cache.forget(dfg_fp, point_fp);
            } else if !cancel.is_cancelled() {
                // A racing request's cancellation got cached before we
                // arrived; this request is live, so recompute.
                self.cache.forget(dfg_fp, point_fp);
                (outcome, tier) = self.cache.result(dfg_fp, point_fp, || {
                    run_point(dfg, spec, point, cancel, instr)
                });
                if tier == Tier::Cold && is_cancelled(&outcome) {
                    self.cache.forget(dfg_fp, point_fp);
                }
            }
        }
        instr.inc(
            match tier {
                Tier::Hot => "explore.cache.hit",
                Tier::Warm => "explore.cache.disk_hit",
                Tier::Cold => "explore.cache.miss",
            },
            1,
        );
        (outcome, tier != Tier::Cold)
    }

    /// A non-computing probe of the memory result tier for
    /// `(dfg_fp, point)`: `Some` iff a populated, non-cancelled entry
    /// is resident. Never blocks on compute or disk, so an event loop
    /// may call it inline; a `None` must fall back to
    /// [`Engine::schedule_point`] on a worker.
    pub fn peek_point(
        &self,
        dfg_fp: u64,
        point: &DesignPoint,
    ) -> Option<Result<PointMetrics, String>> {
        self.cache.peek_result(dfg_fp, point.fingerprint())
    }

    /// Explores `points` on `dfg` under `spec` and reduces to a Pareto
    /// front.
    ///
    /// Determinism guarantee: `results`, `front` and [`ExploreReport::
    /// front_json`] are bit-identical for any `threads` value and any
    /// prior cache state; merged telemetry counters are identical too
    /// (exactly-once computation), only `*.ns` histograms and `wall_ns`
    /// vary.
    pub fn explore(
        &self,
        dfg: &Dfg,
        spec: &TimingSpec,
        points: &[DesignPoint],
        opts: ExploreOptions,
    ) -> ExploreReport {
        let start = Instant::now();
        let threads = if opts.threads == 0 {
            default_threads()
        } else {
            opts.threads
        };
        let dfg_fp = dfg_fingerprint(dfg, spec);
        let evictions_before = self.cache.results_stats().evictions;

        let per_point = run_indexed(points.len(), threads, |i| {
            let point = &points[i];
            let job_start = Instant::now();
            let mut sink = NullSink;
            let mut metrics = Metrics::new();
            let mut instr = Instrument::new(&mut sink, &mut metrics);
            instr.inc("explore.points", 1);

            let (outcome, _warm) =
                self.schedule_point(dfg_fp, dfg, spec, point, &CancelToken::never(), &mut instr);
            if outcome.is_err() {
                instr.inc("explore.errors", 1);
            }
            let wall_ns = job_start.elapsed().as_nanos() as u64;
            instr.observe("explore.point.wall_ns", wall_ns);
            (
                PointResult {
                    index: i,
                    label: point.display_label(),
                    algorithm: point.algorithm,
                    outcome,
                    wall_ns,
                },
                metrics,
            )
        });

        let mut merged = Metrics::new();
        let mut results = Vec::with_capacity(per_point.len());
        for (result, metrics) in per_point {
            merged.merge(&metrics);
            results.push(result);
        }
        let evicted = self.cache.results_stats().evictions - evictions_before;
        if evicted > 0 {
            merged.inc("explore.cache.evict", evicted);
        }
        let front = pareto_front(&results);
        ExploreReport {
            results,
            front,
            metrics: merged,
            threads,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// One-shot exploration with a fresh cache.
pub fn explore(
    dfg: &Dfg,
    spec: &TimingSpec,
    points: &[DesignPoint],
    opts: ExploreOptions,
) -> ExploreReport {
    Engine::new().explore(dfg, spec, points, opts)
}

/// Single-function-unit area of a mix, from the NCR-like library
/// (classes without a library cell — folded loops — cost a nominal
/// 1000 µm²).
fn mix_area(counts: &BTreeMap<FuClass, u32>, library: &Library) -> u64 {
    counts
        .iter()
        .map(|(class, &n)| {
            let unit = class
                .base_op()
                .and_then(|op| library.fu_area(op).ok())
                .map(|a| a.as_u64())
                .unwrap_or(1000);
            n as u64 * unit
        })
        .sum()
}

fn fu_point_metrics(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &Schedule,
    library: &Library,
    reschedules: u32,
) -> PointMetrics {
    let stats = ScheduleStats::compute(dfg, schedule, spec);
    let counts: BTreeMap<FuClass, u32> = schedule.fu_counts();
    PointMetrics {
        csteps: schedule.steps_used(dfg, spec, clock),
        mix: stats.mix.to_string(),
        fu_cost: mix_area(&counts, library),
        registers: stats.registers,
        reschedules,
        mem: mem_pressure(dfg, schedule),
        mfsa: None,
    }
}

/// The NCR-like library, constructed once per process: every engine
/// query prices against the same table, and the serving hot path
/// must not rebuild it per request.
fn shared_library() -> &'static Library {
    static LIBRARY: OnceLock<Library> = OnceLock::new();
    LIBRARY.get_or_init(Library::ncr_like)
}

/// Whether an outcome is a cooperative-cancellation abort (matched by
/// the stable `"cancelled"` prefix of
/// [`moveframe::MoveFrameError::Cancelled`]'s display form).
fn is_cancelled(outcome: &Result<PointMetrics, String>) -> bool {
    outcome
        .as_ref()
        .err()
        .is_some_and(|e| e.starts_with("cancelled"))
}

/// An MFS or MFSA run of one design point, before the engine distils
/// it to [`PointMetrics`] or a front end renders it.
#[derive(Debug)]
pub enum MoveFrameRun {
    /// MFS. `outcome.schedule` is the refined schedule when the point
    /// iterates. `expanded` is the stage-expanded graph that was
    /// scheduled when operators are structurally pipelined.
    Mfs {
        /// The stage-expanded graph, for structurally pipelined points.
        expanded: Option<Box<Dfg>>,
        /// The scheduler's outcome.
        outcome: MfsOutcome,
    },
    /// MFSA, refined when the point iterates.
    Mfsa(MfsaOutcome),
}

/// Runs an MFS or MFSA design point: the knob checks, the lowered
/// config, the structural-pipelining branch and the refinement rounds.
/// The engine and served `emit=text` both schedule through here, so they
/// agree on every knob.
///
/// # Errors
///
/// The knob-combination or scheduling error as a string; a baseline
/// algorithm is an error too.
pub fn run_move_frame(
    dfg: &Dfg,
    spec: &TimingSpec,
    point: &DesignPoint,
    cancel: &CancelToken,
    instr: &mut Instrument<'_>,
) -> Result<MoveFrameRun, String> {
    point.check().map_err(|e| e.to_string())?;
    match point.algorithm {
        Algorithm::Mfs if point.pipeline_ops.is_empty() => {
            let mut outcome = mfs::schedule_traced(dfg, spec, &point.mfs_config(cancel), instr)
                .map_err(|e| e.to_string())?;
            if point.iterate > 0 {
                outcome.schedule = hls_iterate::refine(
                    dfg,
                    spec,
                    &outcome.schedule,
                    &point.iterate_config(),
                    instr,
                )
                .map_err(|e| e.to_string())?
                .schedule;
            }
            Ok(MoveFrameRun::Mfs {
                expanded: None,
                outcome,
            })
        }
        Algorithm::Mfs => {
            let (expanded, _, outcome) = schedule_structural(
                dfg,
                spec,
                &point.mfs_config(cancel),
                &point.pipeline_ops,
                instr,
            )
            .map_err(|e| e.to_string())?;
            Ok(MoveFrameRun::Mfs {
                expanded: Some(Box::new(expanded)),
                outcome,
            })
        }
        Algorithm::Mfsa => {
            let library = shared_library();
            let mut out = mfsa::schedule_traced(
                dfg,
                spec,
                &point.mfsa_config(library.clone(), cancel),
                instr,
            )
            .map_err(|e| e.to_string())?;
            if point.iterate > 0 {
                hls_iterate::refine_mfsa(
                    dfg,
                    spec,
                    library,
                    &mut out,
                    &point.iterate_config(),
                    instr,
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(MoveFrameRun::Mfsa(out))
        }
        other => Err(format!("{other} is not a move-frame algorithm")),
    }
}

/// Runs one design point. Pure with respect to the cache: the caller
/// memoizes the result.
fn run_point(
    dfg: &Dfg,
    spec: &TimingSpec,
    point: &DesignPoint,
    cancel: &CancelToken,
    instr: &mut Instrument<'_>,
) -> Result<PointMetrics, String> {
    if !matches!(point.algorithm, Algorithm::Mfs | Algorithm::Mfsa) {
        return run_baseline(dfg, spec, point, cancel, instr);
    }
    let library = shared_library();
    Ok(match run_move_frame(dfg, spec, point, cancel, instr)? {
        MoveFrameRun::Mfs {
            expanded: None,
            outcome,
        } => fu_point_metrics(
            dfg,
            spec,
            point.clock_period(),
            &outcome.schedule,
            library,
            outcome.reschedule_count,
        ),
        // Structural pipelining stage-expands the graph; report whole
        // pipelined units (the paper's Table-1 numbers).
        MoveFrameRun::Mfs {
            expanded: Some(expanded),
            outcome,
        } => {
            let stats = ScheduleStats::compute(&expanded, &outcome.schedule, spec);
            let folded = pipelined_fu_counts(&outcome);
            let mix: hls_dfg::OpMix = folded.iter().map(|(&c, &n)| (c, n as usize)).collect();
            PointMetrics {
                csteps: outcome
                    .schedule
                    .steps_used(&expanded, spec, point.clock_period()),
                mix: mix.to_string(),
                fu_cost: mix_area(&folded, library),
                registers: stats.registers,
                reschedules: outcome.reschedule_count,
                mem: mem_pressure(&expanded, &outcome.schedule),
                mfsa: None,
            }
        }
        MoveFrameRun::Mfsa(out) => PointMetrics {
            csteps: out.schedule.steps_used(dfg, spec, point.clock_period()),
            mix: out.datapath.alu_signature(),
            fu_cost: out.cost.alu_area.as_u64(),
            registers: out.cost.reg_count,
            reschedules: 0,
            mem: mem_pressure(dfg, &out.schedule),
            mfsa: Some(MfsaDetail {
                alus: out.datapath.alu_signature(),
                total_cost: out.cost.total().as_u64(),
                mux: out.cost.mux_count,
                muxin: out.cost.mux_inputs,
            }),
        },
    })
}

/// Runs a baseline-scheduler point, then its refinement rounds. The
/// baselines schedule without chaining awareness, so the refiner runs
/// with the unchained timing model regardless of `point.clock`.
fn run_baseline(
    dfg: &Dfg,
    spec: &TimingSpec,
    point: &DesignPoint,
    cancel: &CancelToken,
    instr: &mut Instrument<'_>,
) -> Result<PointMetrics, String> {
    point.check().map_err(|e| e.to_string())?;
    cancel.checkpoint().map_err(|e| e.to_string())?;
    let library = shared_library();
    let mut schedule = match point.algorithm {
        Algorithm::List => hls_baselines::list_schedule(dfg, spec, &point.fu_limits, point.cs),
        Algorithm::Fds => hls_baselines::force_directed_schedule(dfg, spec, point.cs),
        _ => hls_baselines::anneal_schedule(
            dfg,
            spec,
            point.cs,
            library,
            &hls_baselines::AnnealParams::default(),
        )
        .map(|(schedule, _)| schedule),
    }
    .map_err(|e| e.to_string())?;
    if point.iterate > 0 {
        let mut config = point.iterate_config();
        config.clock = None;
        schedule = hls_iterate::refine(dfg, spec, &schedule, &config, instr)
            .map_err(|e| e.to_string())?
            .schedule;
    }
    Ok(fu_point_metrics(dfg, spec, None, &schedule, library, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("d");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op("m", OpKind::Mul, &[x, y]).unwrap();
        let a = b.op("a", OpKind::Add, &[m, y]).unwrap();
        let s = b.op("s", OpKind::Sub, &[m, x]).unwrap();
        b.op("z", OpKind::Add, &[a, s]).unwrap();
        b.finish().unwrap()
    }

    fn grid() -> Vec<DesignPoint> {
        let mut points = Vec::new();
        for alg in [Algorithm::Mfs, Algorithm::List, Algorithm::Fds] {
            for cs in [3, 4, 5] {
                points.push(DesignPoint::new(alg, cs));
            }
        }
        points.push(DesignPoint::new(Algorithm::Mfsa, 4));
        let mut refined = DesignPoint::new(Algorithm::Mfs, 5);
        refined.iterate = 2;
        points.push(refined);
        let mut refined = DesignPoint::new(Algorithm::Mfsa, 4);
        refined.iterate = 2;
        points.push(refined);
        points
    }

    #[test]
    fn serial_and_parallel_agree_bit_for_bit() {
        let dfg = diamond();
        let spec = TimingSpec::uniform_single_cycle();
        let serial = explore(&dfg, &spec, &grid(), ExploreOptions { threads: 1 });
        let parallel = explore(&dfg, &spec, &grid(), ExploreOptions { threads: 8 });
        assert_eq!(serial.front_json(), parallel.front_json());
        for (a, b) in serial.results.iter().zip(parallel.results.iter()) {
            assert_eq!(a.outcome, b.outcome, "{}", a.label);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let dfg = diamond();
        let spec = TimingSpec::uniform_single_cycle();
        let engine = Engine::new();
        let first = engine.explore(&dfg, &spec, &grid(), ExploreOptions { threads: 1 });
        assert_eq!(first.metrics.counter("explore.cache.hit"), 0);
        assert_eq!(
            first.metrics.counter("explore.cache.miss"),
            grid().len() as u64
        );
        let second = engine.explore(&dfg, &spec, &grid(), ExploreOptions { threads: 1 });
        assert_eq!(
            second.metrics.counter("explore.cache.hit"),
            grid().len() as u64
        );
        assert_eq!(second.metrics.counter("explore.cache.miss"), 0);
        assert_eq!(first.front_json(), second.front_json());
        for (a, b) in first.results.iter().zip(second.results.iter()) {
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn structurally_pipelined_points_keep_their_scheduler_counters() {
        let dfg = diamond();
        let spec = TimingSpec::two_cycle_multiply();
        let mut point = DesignPoint::new(Algorithm::Mfs, 5);
        point.pipeline_ops.insert(OpKind::Mul);
        let report = explore(&dfg, &spec, &[point], ExploreOptions { threads: 1 });
        assert!(report.results[0].outcome.is_ok());
        let (expanded, _) =
            hls_dfg::transform::expand_structural_stages(&dfg, &spec, &[OpKind::Mul].into())
                .unwrap();
        assert_eq!(
            report.metrics.counter("mfs.moves_committed"),
            expanded.node_count() as u64
        );
        let expansion = report.metrics.histogram("phase.mfs.stage_expansion.ns");
        assert_eq!(expansion.map(|h| h.count()), Some(1));
    }

    #[test]
    fn chained_csteps_count_clock_multicycled_ops() {
        // The 163 ns multiply spans two 100 ns steps, so a chained
        // add → mul ends in step 3, not 2.
        let mut b = DfgBuilder::new("chain");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let s = b.op("s", OpKind::Add, &[x, y]).unwrap();
        b.op("p", OpKind::Mul, &[s, z]).unwrap();
        let dfg = b.finish().unwrap();
        let points: Vec<DesignPoint> = [Algorithm::Mfs, Algorithm::Mfsa]
            .into_iter()
            .map(|alg| {
                let mut point = DesignPoint::new(alg, 4);
                point.clock = Some(100);
                point
            })
            .collect();
        let spec = points[0].timing_spec(false);
        let report = explore(&dfg, &spec, &points, ExploreOptions { threads: 1 });
        for r in &report.results {
            assert_eq!(r.outcome.as_ref().unwrap().csteps, 3, "{}", r.label);
        }
    }

    #[test]
    fn infeasible_points_report_errors_not_panics() {
        let dfg = diamond();
        let spec = TimingSpec::uniform_single_cycle();
        let points = vec![DesignPoint::new(Algorithm::Mfs, 1)]; // below critical path
        let report = explore(&dfg, &spec, &points, ExploreOptions { threads: 1 });
        assert!(report.results[0].outcome.is_err());
        assert!(report.front.is_empty());
        assert_eq!(report.metrics.counter("explore.errors"), 1);
        assert!(report.front_json().contains("\"errors\":1"));
    }

    #[test]
    fn iterate_points_never_regress_the_one_shot_objective() {
        let dfg = diamond();
        let spec = TimingSpec::uniform_single_cycle();
        let mut one_shot = DesignPoint::new(Algorithm::Mfs, 5);
        let mut refined = one_shot.clone();
        refined.iterate = 3;
        one_shot.label = "one-shot".into();
        refined.label = "refined".into();
        let report = explore(
            &dfg,
            &spec,
            &[one_shot, refined],
            ExploreOptions { threads: 1 },
        );
        let base = report.results[0].outcome.as_ref().unwrap();
        let iter = report.results[1].outcome.as_ref().unwrap();
        assert!(
            (iter.csteps, iter.registers) <= (base.csteps, base.registers),
            "refined {iter:?} vs one-shot {base:?}"
        );
        assert_eq!(iter.reschedules, base.reschedules);
    }

    #[test]
    fn iterate_rejects_unsupported_point_shapes() {
        let dfg = diamond();
        let spec = TimingSpec::uniform_single_cycle();
        let mut pipelined = DesignPoint::new(Algorithm::Mfs, 5);
        pipelined.iterate = 1;
        pipelined.latency = Some(2);
        let mut structural = DesignPoint::new(Algorithm::Mfs, 5);
        structural.iterate = 1;
        structural.pipeline_ops.insert(OpKind::Mul);
        let report = explore(
            &dfg,
            &spec,
            &[pipelined, structural],
            ExploreOptions { threads: 1 },
        );
        let err0 = report.results[0].outcome.as_ref().unwrap_err();
        assert!(err0.contains("pipelining"), "{err0}");
        let err1 = report.results[1].outcome.as_ref().unwrap_err();
        assert!(err1.contains("pipelined"), "{err1}");
    }

    #[test]
    fn iterate_lifts_baseline_schedules() {
        // Force-directed scheduling spreads the padded diffeq budget;
        // the refiner compresses it back to the critical path.
        let dfg = hls_benchmarks::classic::diffeq();
        let spec = TimingSpec::uniform_single_cycle();
        let mut one_shot = DesignPoint::new(Algorithm::Fds, 8);
        let mut refined = one_shot.clone();
        refined.iterate = 3;
        one_shot.label = "one-shot".into();
        refined.label = "refined".into();
        let report = explore(
            &dfg,
            &spec,
            &[one_shot, refined],
            ExploreOptions { threads: 1 },
        );
        let base = report.results[0].outcome.as_ref().unwrap();
        let iter = report.results[1].outcome.as_ref().unwrap();
        assert!(
            iter.csteps < base.csteps,
            "refined {iter:?} vs one-shot {base:?}"
        );
    }

    #[test]
    fn front_is_minimal_and_sorted() {
        let dfg = diamond();
        let spec = TimingSpec::uniform_single_cycle();
        let report = explore(&dfg, &spec, &grid(), ExploreOptions { threads: 2 });
        for (i, e) in report.front.iter().enumerate() {
            for other in &report.front[i + 1..] {
                assert!(!e.objectives.dominates(&other.objectives));
                assert!(!other.objectives.dominates(&e.objectives));
            }
            if i > 0 {
                assert!(report.front[i - 1].objectives <= e.objectives);
            }
        }
    }
}
