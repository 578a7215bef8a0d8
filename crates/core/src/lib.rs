//! **moveframe** — Move Frame Scheduling (MFS) and Move Frame
//! Scheduling-Allocation (MFSA), the two algorithms of Nourani &
//! Papachristou, *"Move Frame Scheduling and Mixed Scheduling-Allocation
//! for the Automated Synthesis of Digital Systems"*, DAC 1992.
//!
//! Both algorithms view scheduling as moves in a 2-D placement grid
//! (control step × unit index, one grid per unit type) guided by a scalar
//! *Liapunov* (energy) function: each operation, visited in priority
//! order, makes one energy-minimising move into its **move frame**
//! `MF = PF − (RF ∪ FF)`, where
//!
//! * `PF` (primary frame) comes from the operation's ASAP/ALAP interval,
//! * `RF` (redundant frame) hides unit columns beyond the current unit
//!   count `current_j = ⌈N_j / cs⌉` (grown on demand — *local
//!   rescheduling*), and
//! * `FF` (forbidden frame) excludes steps that would violate data
//!   dependencies (relaxed under chaining).
//!
//! [`mfs`] schedules onto single-function units with a *static* Liapunov
//! function; [`mfsa`] simultaneously schedules and allocates onto
//! (possibly multifunction) ALU instances from a cell library with a
//! *dynamic* Liapunov function whose terms price time, new ALU area,
//! multiplexer growth and register life spans.
//!
//! The §5 synthesis applications are all supported: mutually exclusive
//! operations, loop folding ([`loops`]), multi-cycle operations, chained
//! operations, and structural/functional pipelining ([`pipeline`]).
//!
//! ```
//! use hls_celllib::TimingSpec;
//! use hls_dfg::parse_dfg;
//! use moveframe::mfs::{self, MfsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = parse_dfg(
//!     "input a, b, c
//!      op p = mul(a, b)
//!      op q = mul(b, c)
//!      op r = add(p, q)",
//! )?;
//! let spec = TimingSpec::uniform_single_cycle();
//! let outcome = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(3))?;
//! assert!(outcome.schedule.is_complete());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod error;
mod frame;
mod liapunov;
pub mod loops;
pub mod mfs;
pub mod mfsa;
pub mod pipeline;

pub use cancel::CancelToken;
pub use error::MoveFrameError;
pub use frame::{BoundsCache, FrameSnapshot, Placement, Position};
pub use liapunov::{MfsObjective, StaticLiapunov};
