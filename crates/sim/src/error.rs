//! Error type for interpretation and simulation.

use std::fmt;

use hls_control::ControlError;
use hls_dfg::{NodeId, SignalId};

/// Error produced by the interpreter or the RTL simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A primary input has no value in the supplied input map.
    MissingInput(SignalId),
    /// The graph contains a node the simulator cannot execute (a folded
    /// loop body — expand or schedule it hierarchically first).
    Unsupported(NodeId),
    /// The schedule/data path is incomplete for this node.
    Unbound(NodeId),
    /// A consumed value was not present where the data path said it
    /// would be (register never written, or read out of its life span).
    ValueUnavailable {
        /// The consuming operation.
        node: NodeId,
        /// The missing signal.
        signal: SignalId,
    },
    /// No controller can be generated for the schedule and data path.
    Controller(ControlError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput(s) => write!(f, "no value supplied for primary input {s}"),
            SimError::Unsupported(n) => write!(f, "node {n} cannot be simulated"),
            SimError::Unbound(n) => write!(f, "node {n} is not fully scheduled/allocated"),
            SimError::ValueUnavailable { node, signal } => {
                write!(
                    f,
                    "operation {node} read signal {signal} before it was available"
                )
            }
            SimError::Controller(e) => write!(f, "controller generation failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let mut b = hls_dfg::DfgBuilder::new("x");
        let s = b.input("s");
        assert!(SimError::MissingInput(s).to_string().contains("input"));
    }
}
