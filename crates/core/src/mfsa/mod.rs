//! Move Frame Scheduling-Allocation (paper §4): simultaneous scheduling
//! and allocation of (possibly multifunction) ALUs, registers and
//! multiplexers, guided by the dynamic Liapunov function
//! `V = Σ (w_T·f_TIME + w_A·f_ALU + w_M·f_MUX + w_R·f_REG)`.

mod config;
mod cost;
#[doc(hidden)]
pub mod exhaustive;
mod pool;
mod scheduler;

pub use config::{DesignStyle, MfsaConfig, Weights};
#[doc(hidden)]
pub use exhaustive::ExhaustiveMfsa;
pub use scheduler::{schedule, schedule_traced, IterationTrace, MfsaOutcome};
