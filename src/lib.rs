//! # moveframe-hls
//!
//! A complete Rust implementation of **Move Frame Scheduling (MFS)** and
//! **Move Frame Scheduling-Allocation (MFSA)** — Nourani &
//! Papachristou, *"Move Frame Scheduling and Mixed Scheduling-Allocation
//! for the Automated Synthesis of Digital Systems"*, DAC 1992 — together
//! with every substrate the algorithms need: a data-flow-graph
//! representation, a cell library and cost model, ASAP/ALAP analysis and
//! schedule verification, an RTL data-path builder, classic baseline
//! schedulers and the DAC-era benchmark set.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name for the examples and integration tests.
//!
//! ```
//! use moveframe_hls::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = parse_dfg(
//!     "input a, b, c
//!      op p = mul(a, b)
//!      op q = add(p, c)",
//! )?;
//! let spec = TimingSpec::uniform_single_cycle();
//! let schedule = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(2))?;
//! assert!(schedule.schedule.is_complete());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hls_baselines as baselines;
pub use hls_benchmarks as benchmarks;
pub use hls_celllib as celllib;
pub use hls_control as control;
pub use hls_dfg as dfg;
pub use hls_explore as explore;
pub use hls_mem as mem;
pub use hls_partition as partition;
pub use hls_prof as prof;
pub use hls_rtl as rtl;
pub use hls_schedule as schedule;
pub use hls_serve as serve;
pub use hls_sim as sim;
pub use hls_telemetry as telemetry;
pub use moveframe;

/// Convenience re-exports for examples and quick starts.
pub mod prelude {
    pub use hls_celllib::{
        AluKind, Area, ClockPeriod, Delay, Library, LibraryBuilder, MuxCost, OpKind, OpTiming,
        TimingSpec,
    };
    pub use hls_control::{verify_controller, Controller};
    pub use hls_dfg::{parse_dfg, CriticalPath, Dfg, DfgBuilder, FuClass, NodeId, OpMix};
    pub use hls_explore::{
        parse_grid, Algorithm, DesignPoint, Engine, ExploreOptions, ExploreReport,
    };
    pub use hls_mem::{
        access_bindings, bank_usage, check_port_safety, port_pressure, AccessBinding, BankUsage,
        MemError, PortPressure, PortViolation,
    };
    pub use hls_partition::{synth_sharded, ShardAlg, ShardedConfig, ShardedOutcome};
    pub use hls_prof::{ProfileReport, Profiler};
    pub use hls_rtl::{verify_datapath, AluAllocation, CostReport, Datapath};
    pub use hls_schedule::{
        render_schedule, verify, verify_traced, CStep, Schedule, ScheduleStats, TimeFrames,
        VerifyOptions,
    };
    pub use hls_serve::{ServeConfig, Server};
    pub use hls_sim::{check_equivalence, interpret, random_inputs, simulate};
    pub use hls_telemetry::{
        chrome_trace, Instrument, JsonlSink, MemorySink, Metrics, NullSink, TraceEvent, TraceSink,
    };
    pub use moveframe::loops::schedule_hierarchical;
    pub use moveframe::mfs::{self, MfsConfig};
    pub use moveframe::mfsa::{self, DesignStyle, MfsaConfig, Weights};
    pub use moveframe::pipeline::{
        pipelined_fu_counts, schedule_structural, schedule_two_instance,
    };
    pub use moveframe::{CancelToken, MfsObjective, MoveFrameError};
}
