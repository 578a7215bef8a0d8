//! Functional verification for `moveframe-hls` synthesis results.
//!
//! Scheduling and allocation must preserve *behaviour*: the RTL
//! structure MFSA emits has to compute exactly the values the input
//! data-flow graph describes. This crate closes that loop:
//!
//! * [`interpret`] — a reference interpreter for data-flow graphs
//!   (64-bit wrapping integer semantics, comparisons to 0/1);
//! * [`simulate`] — a cycle-accurate simulator for the synthesised
//!   design (schedule + [`hls_rtl::Datapath`] +
//!   [`hls_control::Controller`]): registers are only written by the
//!   controller's write-enables and read through the allocated register
//!   file, so register-sharing or lifetime bugs surface as wrong
//!   values;
//! * [`check_equivalence`] — runs both on the same inputs and reports
//!   every operation whose RTL value differs from its behavioural
//!   value.
//!
//! The property tests in `tests/` drive this over random graphs,
//! schedules and input vectors: *synthesis is semantics-preserving*.
//!
//! ```
//! use hls_celllib::{Library, OpKind, TimingSpec};
//! use hls_dfg::DfgBuilder;
//! use hls_sim::{check_equivalence, random_inputs};
//! use moveframe::mfsa::{self, MfsaConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DfgBuilder::new("g");
//! let x = b.input("x");
//! let y = b.input("y");
//! let p = b.op("p", OpKind::Mul, &[x, y])?;
//! let _q = b.op("q", OpKind::Add, &[p, y])?;
//! let dfg = b.finish()?;
//! let spec = TimingSpec::uniform_single_cycle();
//! let out = mfsa::schedule(&dfg, &spec, &MfsaConfig::new(2, Library::ncr_like()))?;
//! let inputs = random_inputs(&dfg, 7);
//! let mismatches = check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs)?;
//! assert!(mismatches.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod eval;
mod interp;
mod rtl_sim;
mod vcd;

pub use error::SimError;
pub use eval::eval_op;
pub use interp::{interpret, interpret_with_memory, random_inputs, MemoryState};
pub use rtl_sim::{check_equivalence, simulate, Mismatch, SimOutcome, StepTrace};
pub use vcd::write_vcd;
