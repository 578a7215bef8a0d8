//! Cell-library substrate for the `moveframe-hls` workspace.
//!
//! High-level synthesis needs a *cost model*: which hardware module can
//! perform which operation, how large each module is, how expensive
//! multiplexers and registers are, and how long each operation takes.
//! The DAC-1992 paper this workspace reproduces (Nourani & Papachristou,
//! *Move Frame Scheduling and Mixed Scheduling-Allocation*) evaluates its
//! MFSA algorithm against a proprietary NCR ASIC data book; this crate
//! provides an equivalent, fully synthetic library with the same *shape*
//! (multipliers dominate, multifunction ALUs are cheaper than the sum of
//! their parts, multiplexer area is concave in the input count).
//!
//! The main entry point is [`Library`]:
//!
//! ```
//! use hls_celllib::{Library, OpKind};
//!
//! # fn main() -> Result<(), hls_celllib::LibraryError> {
//! let lib = Library::ncr_like();
//! let adder = lib.fu_area(OpKind::Add)?;
//! let mult = lib.fu_area(OpKind::Mul)?;
//! assert!(mult > adder);
//! // Multifunction ALUs that can perform an addition:
//! assert!(lib.alus_supporting(OpKind::Add).count() >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alu;
mod area;
mod error;
mod library;
mod mux;
mod op;
mod text;
mod timing;

pub use alu::{alu_merged_area, AluKind};
pub use area::Area;
pub use error::LibraryError;
pub use library::{Library, LibraryBuilder};
pub use mux::MuxCost;
pub use op::{OpKind, ParseOpKindError};
pub use text::parse_library;
pub use timing::{effective_cycles, ClockPeriod, Delay, OpTiming, TimingSpec};
