//! hls-explore: deterministic parallel design-space exploration.
//!
//! The paper's experiments sweep each example over a grid of time
//! constraints, FU mixes and design styles. This crate turns that
//! sweep into a first-class engine:
//!
//! * a grid of [`DesignPoint`]s (algorithm × time constraint × knobs)
//!   is fanned out over a self-scheduling [`std::thread`] pool
//!   ([`run_indexed`]), sized from `available_parallelism` and
//!   overridable per call;
//! * a content-addressed [`ExploreCache`] memoizes whole point results
//!   per `(DFG fingerprint, point fingerprint)`;
//! * results stream into a Pareto front over (control steps, FU cost,
//!   registers) with a stable tie-break, so the rendered front is
//!   **bit-identical for any thread count**;
//! * per-worker [`hls_telemetry`] metrics are merged, in index order,
//!   into one report.
//!
//! Every front end parses design-point knobs through one table
//! ([`KNOBS`], [`DesignPoint::set`]) and lowers a point to scheduler
//! configs through [`DesignPoint`]'s methods. Grids can be written as
//! a small TOML-subset file ([`parse_grid`]) or built programmatically. The `mfhls explore` subcommand and the
//! paper-table runner in `hls-bench` both drive this engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod diskcache;
mod engine;
mod fingerprint;
mod gridfile;
mod pareto;
mod point;
mod pool;

pub use cache::{CacheStats, ExploreCache, Tier, DEFAULT_RESULTS_CAP};
pub use diskcache::{DiskCache, DiskStats, DISK_FORMAT_VERSION};
pub use engine::{
    explore, run_move_frame, BankPressure, Engine, ExploreOptions, ExploreReport, MfsaDetail,
    MoveFrameRun, PointMetrics, PointResult,
};
pub use fingerprint::{dfg_fingerprint, Fnv1a};
pub use gridfile::{parse_grid, GridError};
pub use pareto::{pareto_front, FrontEntry, Objectives};
pub use point::{timing_spec, Algorithm, DesignPoint, Knob, KnobError, KnobKind, KNOBS};
pub use pool::{default_threads, run_indexed};
