//! Control words: the per-step fields of the horizontal microcode.

use std::fmt;

use hls_celllib::OpKind;
use hls_dfg::{BankId, NodeId, SignalId};
use hls_rtl::{AluId, RegId};
use hls_schedule::CStep;

/// One ALU's activity in one control step: the operation it starts, the
/// function it performs and the selects of its two input multiplexers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AluActivity {
    /// The driven ALU.
    pub alu: AluId,
    /// The operation starting this step.
    pub node: NodeId,
    /// The ALU function select.
    pub function: OpKind,
    /// Port-1 mux select: index into the mux's ordered source list;
    /// `None` when the port has a single (direct) source.
    pub mux1: Option<usize>,
    /// Port-2 mux select (`None` for unary operations or direct wires).
    pub mux2: Option<usize>,
}

/// What drives a register's write port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSource {
    /// An ALU's combinational output.
    Alu(AluId),
    /// A memory bank port: the read-data line for loads, the write-data
    /// line for a store's forwarded value.
    Mem {
        /// The bank.
        bank: BankId,
        /// The 1-based port.
        port: u32,
    },
}

impl fmt::Display for WriteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteSource::Alu(a) => write!(f, "{a}"),
            WriteSource::Mem { bank, port } => write!(f, "{bank}.p{port}"),
        }
    }
}

/// A register write latched at the end of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegWrite {
    /// The written register.
    pub register: RegId,
    /// The unit whose result is captured.
    pub source: WriteSource,
    /// The signal (value) being stored — for tracing and verification.
    pub signal: SignalId,
}

/// One memory access issued in a control step: the controller drives the
/// port's address mux (and, for stores, its write-data mux and write
/// enable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The accessed bank.
    pub bank: BankId,
    /// The 1-based bank port serving the access.
    pub port: u32,
    /// The load/store node.
    pub node: NodeId,
    /// Whether this is a store (write enable asserted).
    pub write: bool,
}

/// A primary input latched into a register before step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputLoad {
    /// The destination register.
    pub register: RegId,
    /// The loaded primary-input signal.
    pub signal: SignalId,
}

/// The complete control word of one step: a state of the (Moore)
/// control FSM.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControlWord {
    /// Operations starting this step.
    pub activities: Vec<AluActivity>,
    /// Multi-cycle operations still occupying their ALU (no new
    /// function issued; the ALU holds its computation).
    pub busy: Vec<(AluId, NodeId)>,
    /// Memory accesses issued this step.
    pub mem: Vec<MemAccess>,
    /// Register writes latched at the end of this step.
    pub writes: Vec<RegWrite>,
}

/// Renders one word as a microcode line (used by
/// [`crate::Controller::render`]).
pub(crate) fn render_word(step: CStep, word: &ControlWord) -> String {
    let mut parts = Vec::new();
    for a in &word.activities {
        let sel = |s: Option<usize>| match s {
            Some(i) => format!("#{i}"),
            None => "-".to_string(),
        };
        parts.push(format!(
            "{}:={}(m1{},m2{})",
            a.alu,
            a.function.name(),
            sel(a.mux1),
            sel(a.mux2)
        ));
    }
    for (alu, _) in &word.busy {
        parts.push(format!("{alu}:busy"));
    }
    for m in &word.mem {
        let dir = if m.write { "st" } else { "ld" };
        parts.push(format!("{}.p{}:={dir}", m.bank, m.port));
    }
    for w in &word.writes {
        parts.push(format!("{}<-{}", w.register, w.source));
    }
    if parts.is_empty() {
        parts.push("nop".to_string());
    }
    format!("{step:<4} {}", parts.join("  "))
}

impl fmt::Display for ControlWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render_word(CStep::FIRST, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_word() {
        let w = ControlWord::default();
        assert!(render_word(CStep::new(3), &w).contains("nop"));
    }
}
