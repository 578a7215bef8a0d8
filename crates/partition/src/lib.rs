//! # hls-partition — hierarchical sharded synthesis
//!
//! One occupancy grid per FU class does not survive a million nodes.
//! This crate turns the single-grid scheduler into a scalable
//! hierarchical one:
//!
//! 1. **Cut** ([`partition`]): levelized seeding plus Kernighan–Lin
//!    boundary refinement splits the DFG into `k` weakly-coupled,
//!    acyclic shards with deterministic tie-breaks.
//! 2. **Extract** ([`extract`]): each shard is rebuilt as a standalone
//!    [`hls_dfg::Dfg`] — cut-in values become primary inputs, branch
//!    structure and bank/array ids are preserved exactly.
//! 3. **Schedule** ([`schedule_shards`]): shards run MFS or MFSA in
//!    parallel on the hls-explore self-scheduling pool; results return
//!    in index order, so the output is bit-identical for any thread
//!    count.
//! 4. **Merge & stitch** ([`merge_and_stitch`]): shard schedules
//!    telescope onto one global time axis (minimal offsets under cut
//!    precedence and bank-port capacity) and boundary nodes are
//!    re-framed across the seams through one
//!    [`moveframe::Placement`] of the merged schedule.
//!
//! [`synth_sharded`] threads the four phases together, emits
//! `partition.*` counters and phase spans, and verifies the final
//! schedule with [`hls_schedule::verify`] before returning it.
//!
//! ```
//! use hls_benchmarks::generate::{generate, scaling_workload};
//! use hls_celllib::TimingSpec;
//! use hls_partition::{synth_sharded, ShardAlg, ShardedConfig};
//! use hls_telemetry::{Instrument, Metrics, NullSink};
//!
//! let dfg = generate(&scaling_workload(500));
//! let spec = TimingSpec::uniform_single_cycle();
//! let config = ShardedConfig::new(4, ShardAlg::Mfs);
//! let mut sink = NullSink;
//! let mut metrics = Metrics::new();
//! let mut instr = Instrument::new(&mut sink, &mut metrics);
//! let out = synth_sharded(&dfg, &spec, &config, &mut instr).unwrap();
//! assert!(out.schedule.is_complete());
//! assert_eq!(out.shards, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cut;
pub mod extract;
pub mod shard;
pub mod stitch;

use hls_celllib::TimingSpec;
use hls_dfg::Dfg;
use hls_schedule::{verify_traced, Schedule, VerifyOptions};
use hls_telemetry::{Instrument, Metrics};

pub use cut::{auto_shards, partition, Partition};
pub use extract::{extract, ShardGraph};
pub use shard::{schedule_shards, ShardAlg, ShardSchedule};
pub use stitch::{merge_and_stitch, MergeOutcome};

/// Errors of the sharded synthesis pipeline.
#[derive(Debug)]
pub enum PartitionError {
    /// The graph uses a feature sharding cannot preserve (pipeline
    /// stages, loop regions).
    Unsupported(String),
    /// The stitched schedule failed independent verification — an
    /// internal invariant violation, never expected.
    VerificationFailed(Vec<hls_schedule::Violation>),
    /// An internal pipeline step failed; always a bug.
    Internal(String),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Unsupported(why) => write!(f, "sharding unsupported: {why}"),
            PartitionError::VerificationFailed(v) => {
                write!(
                    f,
                    "stitched schedule failed verification: {} violation(s)",
                    v.len()
                )
            }
            PartitionError::Internal(why) => write!(f, "internal sharding error: {why}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Configuration of one sharded synthesis run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Requested shard count (`0` = automatic from the node count).
    pub shards: usize,
    /// Worker threads for the shard pool (`0` = all cores). The output
    /// is identical for every value.
    pub threads: usize,
    /// The per-shard scheduler.
    pub alg: ShardAlg,
    /// Control-step slack above each shard's local critical path.
    pub shard_slack: u32,
    /// Boundary re-frame sweep cap.
    pub max_stitch_sweeps: usize,
}

impl ShardedConfig {
    /// A config with the default slack (2) and sweep cap (4).
    pub fn new(shards: usize, alg: ShardAlg) -> Self {
        ShardedConfig {
            shards,
            threads: 0,
            alg,
            shard_slack: 2,
            max_stitch_sweeps: 4,
        }
    }

    /// Overrides the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The result of a sharded synthesis run.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The verified global schedule.
    pub schedule: Schedule,
    /// Achieved horizon (last occupied control step).
    pub csteps: u32,
    /// Shard count actually used (after clamping).
    pub shards: usize,
    /// Cut edges of the final partition.
    pub cut_edges: usize,
    /// Nodes incident to a cut edge.
    pub boundary_nodes: usize,
    /// KL refinement moves committed by the partitioner.
    pub refine_moves: u64,
    /// Boundary moves committed by the stitcher.
    pub stitch_moves: u64,
    /// Steps saved by telescoping versus naive concatenation.
    pub telescoped_saved: u64,
    /// Per-shard local control-step budgets.
    pub shard_csteps: Vec<u32>,
    /// Per-shard scheduler counters, merged in shard order —
    /// deterministic for any thread count. Fold into a caller registry
    /// with [`Metrics::merge`].
    pub shard_metrics: Metrics,
}

/// Runs the full partition → extract → parallel-schedule → merge →
/// stitch → verify pipeline. Deterministic for any
/// [`ShardedConfig::threads`].
pub fn synth_sharded(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &ShardedConfig,
    instr: &mut Instrument<'_>,
) -> Result<ShardedOutcome, PartitionError> {
    let k = if config.shards == 0 {
        auto_shards(dfg.node_count())
    } else {
        config.shards
    };
    let part = instr.span("partition.cut", |_| partition(dfg, k))?;
    instr.inc("partition.shards", part.shard_count() as u64);
    instr.inc("partition.cut_edges", part.cut_edges().len() as u64);
    instr.inc("partition.refine_moves", part.refine_moves());
    let boundary = part.boundary_nodes().len();
    instr.inc("partition.boundary_nodes", boundary as u64);

    let shards = instr.span("partition.extract", |_| {
        (0..part.shard_count())
            .map(|s| extract(dfg, &part, s))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let threads = if config.threads == 0 {
        hls_explore::default_threads()
    } else {
        config.threads
    };
    let scheds = instr.span("partition.schedule_shards", |_| {
        schedule_shards(&shards, spec, &config.alg, config.shard_slack, threads)
    })?;
    let mut shard_metrics = Metrics::new();
    for s in &scheds {
        shard_metrics.merge(&s.metrics);
    }
    let shard_csteps: Vec<u32> = scheds.iter().map(|s| s.csteps).collect();

    let merged = instr.span("partition.stitch", |_| {
        merge_and_stitch(dfg, spec, &part, &shards, &scheds, config.max_stitch_sweeps)
    })?;
    instr.inc("partition.stitch_moves", merged.stitch_moves);
    instr.inc("partition.stitch_sweeps", merged.stitch_sweeps);
    instr.inc("partition.telescoped_steps_saved", merged.telescoped_saved);
    instr.inc("partition.csteps", merged.csteps as u64);

    let violations = verify_traced(dfg, &merged.schedule, spec, VerifyOptions::default(), instr);
    if !violations.is_empty() {
        return Err(PartitionError::VerificationFailed(violations));
    }

    Ok(ShardedOutcome {
        schedule: merged.schedule,
        csteps: merged.csteps,
        shards: part.shard_count(),
        cut_edges: part.cut_edges().len(),
        boundary_nodes: boundary,
        refine_moves: part.refine_moves(),
        stitch_moves: merged.stitch_moves,
        telescoped_saved: merged.telescoped_saved,
        shard_csteps,
        shard_metrics,
    })
}
