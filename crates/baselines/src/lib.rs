//! Baseline schedulers for the `moveframe-hls` workspace.
//!
//! The DAC-1992 paper positions MFS/MFSA against three families of prior
//! work (its §1): list scheduling, force-directed scheduling (HAL) and
//! probabilistic energy methods (simulated annealing). This crate
//! implements one representative of each, over the same substrates, so
//! the runtime and quality comparisons of `EXPERIMENTS.md` are
//! apples-to-apples:
//!
//! * [`list_schedule`] — resource-constrained list scheduling with
//!   mobility priorities (after Pangrle & Gajski's Slicer);
//! * [`force_directed_schedule`] — time-constrained force-directed
//!   scheduling (after Paulin & Knight's HAL);
//! * [`anneal_schedule`] — simulated-annealing scheduling over the same
//!   move space as MFS, with an area cost (after Devadas & Newton);
//! * [`asap_schedule`] — the trivial ASAP baseline (FACET-style).
//!
//! All baselines produce an [`hls_schedule::Schedule`] that passes the
//! shared verifier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod asap;
mod fds;
mod list;

pub use anneal::{anneal_schedule, AnnealParams, AnnealStats};
pub use asap::{alap_schedule, asap_schedule};
pub use fds::force_directed_schedule;
pub use list::list_schedule;
