//! # hls-iterate — feedback-guided iterative scheduling
//!
//! The paper's MFS/MFSA are one-shot global schedulers: they commit a
//! schedule in a single pass and never look back. This crate closes the
//! loop, following the extract/re-solve discipline of subgraph-based
//! iterative scheduling (ISDC): after a full schedule exists,
//!
//! 1. **Extract** ([`extract_region`]) — identify the bottleneck
//!    subgraph: the critical-path cone (tight-edge closure of the
//!    horizon finishers), accesses on port-saturated memory banks, and
//!    any caller-supplied hotspot hints. Everything outside the region
//!    is frozen.
//! 2. **Re-schedule** (`splice`) — vacate the region from a
//!    [`moveframe::Placement`] of the schedule and re-place it under the
//!    *achieved* horizon (the same state hls-partition's stitcher
//!    works on). A compression splice
//!    takes the earliest improving positions; a register re-timing
//!    splice drifts producers toward their consumers.
//! 3. **Accept or roll back** — a splice is committed only if the full
//!    schedule verifier and [`hls_mem::check_port_safety`] pass **and**
//!    the `(csteps, registers)` objective strictly improves
//!    lexicographically. Otherwise the candidate is discarded.
//! 4. **Converge** ([`refine`]) — repeat for a fixed iteration ladder,
//!    stopping early the first time an iteration commits nothing.
//!
//! Every step is a pure function of the DFG, spec and baseline
//! schedule: ordered containers throughout, no randomness, no
//! wall-clock dependence — `--iterate N` output is bit-identical for
//! any worker-thread count, and `N = 0` returns the baseline untouched.
//!
//! ```
//! use hls_benchmarks::classic::diffeq;
//! use hls_celllib::TimingSpec;
//! use hls_iterate::{refine, IterateConfig};
//! use hls_telemetry::{Instrument, Metrics, NullSink};
//! use moveframe::mfs::{self, MfsConfig};
//!
//! let dfg = diffeq();
//! let spec = TimingSpec::uniform_single_cycle();
//! let base = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(8)).unwrap();
//! let mut sink = NullSink;
//! let mut metrics = Metrics::new();
//! let mut instr = Instrument::new(&mut sink, &mut metrics);
//! let out = refine(&dfg, &spec, &base.schedule, &IterateConfig::new(3), &mut instr).unwrap();
//! assert!(out.csteps_after <= out.csteps_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod extract;
mod splice;

use hls_celllib::{ClockPeriod, Library, TimingSpec};
use hls_dfg::{Dfg, NodeId};
use hls_rtl::{CostReport, Datapath};
use hls_schedule::{verify, verify_traced, Schedule, ScheduleStats, VerifyOptions, Violation};
use hls_telemetry::Instrument;
use moveframe::mfsa::MfsaOutcome;
use moveframe::Direction;

pub use extract::{extract_region, Region};

/// Errors of the refine loop.
#[derive(Debug)]
pub enum IterateError {
    /// The baseline uses a feature the splice kernels cannot preserve
    /// (functional pipelining, incomplete schedules).
    Unsupported(String),
    /// The baseline does not verify under the configured clock; the
    /// violations the schedule verifier reports.
    InvalidBaseline(Vec<Violation>),
    /// An internal invariant violation; always a bug.
    Internal(String),
}

impl std::fmt::Display for IterateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IterateError::Unsupported(why) => write!(f, "iterate unsupported: {why}"),
            IterateError::InvalidBaseline(violations) => match violations.first() {
                Some(first) => write!(
                    f,
                    "invalid iterate baseline: {} schedule violation(s), first {first:?}",
                    violations.len()
                ),
                None => write!(f, "invalid iterate baseline"),
            },
            IterateError::Internal(why) => write!(f, "internal iterate error: {why}"),
        }
    }
}

impl std::error::Error for IterateError {}

/// Configuration of one [`refine`] run.
#[derive(Debug, Clone, Default)]
pub struct IterateConfig {
    /// Iteration ladder length (`0` = return the baseline untouched).
    pub iterations: u32,
    /// Chaining clock the baseline was scheduled under, if any.
    pub clock: Option<ClockPeriod>,
    /// Functional-pipelining latency — unsupported; `Some` is rejected
    /// with [`IterateError::Unsupported`].
    pub latency: Option<u32>,
    /// Region size cap for the bottleneck extraction.
    pub max_region: usize,
    /// Sweep cap inside each splice.
    pub max_sweeps: usize,
    /// Extra extraction seeds (e.g. LocalReschedule hotspots harvested
    /// from telemetry or profiler ledgers).
    pub hint_nodes: Vec<NodeId>,
}

impl IterateConfig {
    /// A config running `iterations` rounds at the default region cap
    /// (256) and sweep cap (4).
    pub fn new(iterations: u32) -> IterateConfig {
        IterateConfig {
            iterations,
            clock: None,
            latency: None,
            max_region: 256,
            max_sweeps: 4,
            hint_nodes: Vec::new(),
        }
    }

    /// Sets the chaining clock.
    pub fn with_clock(mut self, clock: ClockPeriod) -> IterateConfig {
        self.clock = Some(clock);
        self
    }

    /// Adds extraction hint nodes.
    pub fn with_hints(mut self, hints: Vec<NodeId>) -> IterateConfig {
        self.hint_nodes = hints;
        self
    }
}

/// The result of a [`refine`] run.
#[derive(Debug, Clone)]
pub struct IterateOutcome {
    /// The refined (or untouched) schedule; always verified.
    pub schedule: Schedule,
    /// Achieved control steps before refinement.
    pub csteps_before: u32,
    /// Achieved control steps after refinement.
    pub csteps_after: u32,
    /// Peak simultaneously-live values before refinement.
    pub registers_before: usize,
    /// Peak simultaneously-live values after refinement.
    pub registers_after: usize,
    /// Iterations actually run (≤ the configured ladder).
    pub iterations_run: u32,
    /// Splices committed (verifier + port safety + strict improvement).
    pub splices_accepted: u32,
    /// Splices discarded (no improvement or a failed check).
    pub splices_rejected: u32,
    /// Node moves committed inside candidate splices (including moves
    /// of splices that were later rolled back).
    pub moves: u64,
}

impl IterateOutcome {
    /// Whether any splice was committed.
    pub fn improved(&self) -> bool {
        self.splices_accepted > 0
    }
}

/// The `(csteps, registers)` objective, compared lexicographically.
fn objective(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &Schedule,
) -> (u32, usize) {
    let csteps = schedule.steps_used(dfg, spec, clock);
    let registers = ScheduleStats::compute(dfg, schedule, spec).registers;
    (csteps, registers)
}

/// The verifier options every baseline and candidate is checked under.
fn verify_options(clock: Option<ClockPeriod>) -> VerifyOptions {
    VerifyOptions {
        latency: None,
        clock,
    }
}

/// Whether a candidate splice passes the full verifier and the memory
/// port-safety check.
fn splice_is_sound(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    candidate: &Schedule,
    instr: &mut Instrument<'_>,
) -> bool {
    let violations = verify_traced(dfg, candidate, spec, verify_options(clock), instr);
    if !violations.is_empty() {
        return false;
    }
    matches!(hls_mem::check_port_safety(dfg, candidate), Ok(v) if v.is_empty())
}

/// Runs the extract → re-schedule → accept loop on `baseline`.
///
/// The baseline must be complete and verify under `config.clock`;
/// FU-bound schedules (MFS, the baselines) get the move-frame splice,
/// ALU-bound schedules (MFSA) the allocation-preserving slide splice.
/// Deterministic: the result is a pure function of
/// `(dfg, spec, baseline, config)`.
///
/// # Errors
///
/// [`IterateError::Unsupported`] for pipelined or incomplete baselines,
/// [`IterateError::InvalidBaseline`] for one that does not verify.
pub fn refine(
    dfg: &Dfg,
    spec: &TimingSpec,
    baseline: &Schedule,
    config: &IterateConfig,
    instr: &mut Instrument<'_>,
) -> Result<IterateOutcome, IterateError> {
    if config.latency.is_some() {
        return Err(IterateError::Unsupported(
            "functional pipelining (latency) — the splice kernels cannot preserve the \
             initiation-interval wrap"
                .into(),
        ));
    }
    if !baseline.is_complete() {
        return Err(IterateError::Unsupported(
            "incomplete baseline schedule".into(),
        ));
    }
    // Checked with the plain verifier, so no telemetry counter moves.
    let violations = verify(dfg, baseline, spec, verify_options(config.clock));
    if !violations.is_empty() {
        return Err(IterateError::InvalidBaseline(violations));
    }

    let mut current = baseline.clone();
    let (csteps_before, registers_before) = objective(dfg, spec, config.clock, &current);
    let mut best = (csteps_before, registers_before);
    let mut iterations_run = 0u32;
    let mut splices_accepted = 0u32;
    let mut splices_rejected = 0u32;
    let mut moves = 0u64;

    for _ in 0..config.iterations {
        let region = instr.span("iterate.extract", |_| {
            extract_region(
                dfg,
                spec,
                config.clock,
                &current,
                &config.hint_nodes,
                config.max_region,
            )
        });
        if region.nodes.is_empty() {
            break;
        }
        instr.inc("iterate.region_nodes", region.nodes.len() as u64);
        instr.inc("iterate.region_critical", region.critical as u64);
        instr.inc("iterate.region_port_hot", region.port_hot as u64);
        iterations_run += 1;
        let mut improved = false;

        for (direction, span_name) in [
            (Direction::Earlier, "iterate.splice.compress"),
            (Direction::Later, "iterate.splice.retime"),
        ] {
            let (candidate, splice_moves) = instr.span(span_name, |_| {
                splice::splice(
                    dfg,
                    spec,
                    config.clock,
                    &current,
                    &region.nodes,
                    direction,
                    config.max_sweeps,
                )
            })?;
            if splice_moves == 0 {
                continue;
            }
            moves += splice_moves;
            instr.inc("iterate.moves", splice_moves);
            let sound = instr.span("iterate.accept", |i| {
                splice_is_sound(dfg, spec, config.clock, &candidate, i)
            });
            let cand_obj = objective(dfg, spec, config.clock, &candidate);
            if sound && cand_obj < best {
                current = candidate;
                best = cand_obj;
                splices_accepted += 1;
                instr.inc("iterate.splices.accepted", 1);
                improved = true;
            } else {
                splices_rejected += 1;
                instr.inc("iterate.splices.rejected", 1);
            }
        }
        instr.inc("iterate.iterations", 1);
        if !improved {
            break;
        }
    }

    let (csteps_after, registers_after) = best;
    instr.inc(
        "iterate.csteps_saved",
        u64::from(csteps_before - csteps_after),
    );
    instr.inc(
        "iterate.registers_saved",
        registers_before.saturating_sub(registers_after) as u64,
    );
    Ok(IterateOutcome {
        schedule: current,
        csteps_before,
        csteps_after,
        registers_before,
        registers_after,
        iterations_run,
        splices_accepted,
        splices_rejected,
        moves,
    })
}

/// Refines an MFSA outcome in place: runs [`refine`] on its schedule
/// and, if any splice landed, rebuilds the data path and Table-2 cost
/// report from the refined schedule. The allocation is untouched — the
/// slide splice preserves every instance and port binding.
pub fn refine_mfsa(
    dfg: &Dfg,
    spec: &TimingSpec,
    library: &Library,
    outcome: &mut MfsaOutcome,
    config: &IterateConfig,
    instr: &mut Instrument<'_>,
) -> Result<IterateOutcome, IterateError> {
    let result = refine(dfg, spec, &outcome.schedule, config, instr)?;
    if result.improved() {
        outcome.schedule = result.schedule.clone();
        outcome.datapath = Datapath::build(dfg, &outcome.schedule, &outcome.allocation, spec)
            .map_err(|e| IterateError::Internal(format!("datapath rebuild: {e}")))?;
        outcome.cost = CostReport::compute(&outcome.datapath, library);
    }
    Ok(result)
}
