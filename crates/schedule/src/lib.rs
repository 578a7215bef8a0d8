//! Scheduling substrate for the `moveframe-hls` workspace.
//!
//! This crate hosts everything MFS, MFSA and the baseline schedulers
//! share:
//!
//! * the 2-D/3-D *placement table* of the paper ([`Grid`]) — control
//!   steps × functional-unit index, one table per [`hls_dfg::FuClass`],
//!   with mutual-exclusion-aware occupancy and optional modulo-latency
//!   wrap-around for functional pipelining;
//! * the [`Schedule`] produced by every algorithm (start step plus bound
//!   unit per operation);
//! * ASAP/ALAP schedules, time frames and mobility
//!   ([`asap`], [`alap`], [`TimeFrames`]), including the chaining-aware
//!   variants driven by operation delays and a clock period;
//! * the paper's priority order ([`priority_order`]);
//! * an independent schedule verifier ([`verify`]) used by the test
//!   suite and the harnesses; and
//! * FU-usage statistics and ASCII rendering of placement tables.
//!
//! ```
//! use hls_celllib::{OpKind, TimingSpec};
//! use hls_dfg::DfgBuilder;
//! use hls_schedule::TimeFrames;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DfgBuilder::new("g");
//! let x = b.input("x");
//! let t = b.op("t", OpKind::Mul, &[x, x])?;
//! let _u = b.op("u", OpKind::Add, &[t, x])?;
//! let dfg = b.finish()?;
//! let spec = TimingSpec::uniform_single_cycle();
//! let frames = TimeFrames::compute(&dfg, &spec, 4)?;
//! let t = dfg.node_by_name("t").unwrap();
//! assert_eq!(frames.mobility(t), 2); // ASAP 1, ALAP 3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asap_alap;
mod error;
mod grid;
mod lifetime;
mod priority;
mod render;
mod schedule;
mod stats;
mod svg;
mod timing;
mod verify;

pub use asap_alap::{alap, asap, TimeFrames};
pub use error::ScheduleError;
pub use grid::{FreeStarts, Grid};
pub use lifetime::{peak_live, signal_lifetimes, Lifetime};
pub use priority::{priority_order, priority_order_with, PriorityRule};
pub use render::{render_grid, render_schedule};
pub use schedule::{CStep, FuIndex, Schedule, Slot, UnitId};
pub use stats::{fu_mix, step_concurrency, ScheduleStats};
pub use svg::render_svg;
pub use timing::{chained_frames, ChainedFrames};
pub use verify::{verify, verify_traced, VerifyOptions, Violation};
