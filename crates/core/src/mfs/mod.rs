//! Move Frame Scheduling (paper §3): scheduling onto single-function
//! units under a time or resource constraint, guided by a static
//! Liapunov function.

mod config;
mod scheduler;

pub use config::MfsConfig;
pub use scheduler::{minimize_steps, schedule, schedule_traced, MfsOutcome};
