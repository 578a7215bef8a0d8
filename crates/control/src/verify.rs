//! Independent controller verification.

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, NodeId, SignalId, SignalSource};
use hls_rtl::Datapath;
use hls_schedule::Schedule;

use crate::Controller;

/// A defect found by [`verify_controller`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControlViolation {
    /// An operation is issued in the wrong step (or more/less than
    /// once).
    WrongIssue {
        /// The operation.
        node: NodeId,
        /// How many times it was issued.
        issues: usize,
    },
    /// A mux select is out of range for its multiplexer.
    SelectOutOfRange {
        /// The operation whose select is broken.
        node: NodeId,
        /// The port.
        port: u8,
    },
    /// A stored signal is never written (or written more than once).
    WrongWriteCount {
        /// The signal.
        signal: SignalId,
        /// Observed writes (including the input-load phase).
        writes: usize,
    },
    /// Two writes target the same register in the same step.
    WritePortConflict {
        /// The contended register.
        register: hls_rtl::RegId,
        /// The step (1-based).
        step: u32,
    },
    /// Two memory accesses issue on the same bank port in one step.
    MemPortConflict {
        /// The contended bank.
        bank: hls_dfg::BankId,
        /// The contended port (1-based).
        port: u32,
        /// The step (1-based).
        step: u32,
    },
}

/// Sorts `keys` and yields, in ascending order, each key occurring more
/// than once.
fn repeated<T: Ord + Copy>(keys: &mut [T]) -> impl Iterator<Item = T> + '_ {
    keys.sort_unstable();
    keys.chunk_by(|a, b| a == b)
        .filter(|run| run.len() > 1)
        .map(|run| run[0])
}

/// Re-checks a controller against the design it was generated for:
/// every operation issues exactly once in its scheduled step, all mux
/// selects are in range, every stored signal is written exactly once,
/// and no register sees two writes in one step.
pub fn verify_controller(
    dfg: &Dfg,
    schedule: &Schedule,
    datapath: &Datapath,
    controller: &Controller,
    spec: &TimingSpec,
) -> Vec<ControlViolation> {
    let _ = spec;
    let mut violations = Vec::new();

    // Issue counts and steps (ALU activities and memory accesses
    // alike), per node: how often it issues and its first issue step.
    let mut issues: Vec<(usize, u32)> = vec![(0, 0); dfg.node_count()];
    for (step, word) in (1u32..).zip(controller.words()) {
        let nodes = word.activities.iter().map(|a| a.node);
        for node in nodes.chain(word.mem.iter().map(|m| m.node)) {
            if let Some((n, first)) = issues.get_mut(node.index()) {
                if *n == 0 {
                    *first = step;
                }
                *n += 1;
            }
        }
    }
    for id in dfg.node_ids() {
        let (n, first) = issues[id.index()];
        let expected = schedule.start(id).map(|s| s.get());
        if n != 1 || Some(first) != expected {
            violations.push(ControlViolation::WrongIssue {
                node: id,
                issues: n,
            });
        }
    }

    // Bank-port occupancy: one access per port per step.
    let mut ports: Vec<(hls_dfg::BankId, u32)> = Vec::new();
    for (step, word) in (1u32..).zip(controller.words()) {
        ports.clear();
        ports.extend(word.mem.iter().map(|m| (m.bank, m.port)));
        for (bank, port) in repeated(&mut ports) {
            violations.push(ControlViolation::MemPortConflict { bank, port, step });
        }
    }

    // Select ranges.
    for word in controller.words() {
        for a in &word.activities {
            for (port, sel) in [(1u8, a.mux1), (2, a.mux2)] {
                if let Some(sel) = sel {
                    let size = datapath.mux(a.alu, port).map_or(0, |m| m.sources.len());
                    if sel >= size {
                        violations.push(ControlViolation::SelectOutOfRange { node: a.node, port });
                    }
                }
            }
        }
    }

    // Write discipline: writes per signal, and per register and step.
    let mut write_counts = vec![0usize; dfg.signal_count()];
    let mut count = |signal: SignalId| {
        if let Some(n) = write_counts.get_mut(signal.index()) {
            *n += 1;
        }
    };
    for load in controller.input_loads() {
        count(load.signal);
    }
    let mut registers: Vec<hls_rtl::RegId> = Vec::new();
    for (step, word) in (1u32..).zip(controller.words()) {
        registers.clear();
        for w in &word.writes {
            count(w.signal);
            registers.push(w.register);
        }
        for register in repeated(&mut registers) {
            violations.push(ControlViolation::WritePortConflict { register, step });
        }
    }
    for (_, spans) in datapath.register_allocation().iter() {
        for span in spans {
            // Constants are hardwired; everything else stored must be
            // written exactly once.
            if matches!(dfg.signal(span.signal).source(), SignalSource::Constant(_)) {
                continue;
            }
            let writes = write_counts.get(span.signal.index()).copied().unwrap_or(0);
            if writes != 1 {
                violations.push(ControlViolation::WrongWriteCount {
                    signal: span.signal,
                    writes,
                });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{MemAccess, RegWrite};
    use hls_celllib::{Library, OpKind, TimingSpec};
    use hls_dfg::{BankId, DfgBuilder};
    use hls_rtl::{AluAllocation, RegId};
    use hls_schedule::{CStep, Slot, UnitId};

    /// `p = x + x` at step 1 and `q = p - x` at step 2, both on one
    /// adder-subtracter, in a horizon of `cs` steps.
    fn design(cs: u32) -> (Dfg, Schedule, Datapath, Controller, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let p = b.op("p", OpKind::Add, &[x, x]).unwrap();
        b.op("q", OpKind::Sub, &[p, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&dfg, cs);
        for (i, name) in ["p", "q"].iter().enumerate() {
            s.assign(
                dfg.node_by_name(name).unwrap(),
                Slot {
                    step: CStep::new(i as u32 + 1),
                    unit: UnitId::Alu { instance: 0 },
                },
            );
        }
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        let dp = Datapath::build(&dfg, &s, &alloc, &spec).unwrap();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        (dfg, s, dp, c, spec)
    }

    #[test]
    fn generated_controllers_verify_clean() {
        let (dfg, s, dp, c, spec) = design(2);
        let v = verify_controller(&dfg, &s, &dp, &c, &spec);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn shifted_schedule_is_detected() {
        let (dfg, mut s, dp, c, spec) = design(3);
        // Move q afterwards: the controller no longer matches.
        s.assign(
            dfg.node_by_name("q").unwrap(),
            Slot {
                step: CStep::new(3),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        let v = verify_controller(&dfg, &s, &dp, &c, &spec);
        assert!(v
            .iter()
            .any(|x| matches!(x, ControlViolation::WrongIssue { .. })));
    }

    /// A controller corrupted by hand reports every kind of violation,
    /// in node, then step, then port or register, then span order.
    #[test]
    fn corrupted_controller_reports_in_order() {
        let (dfg, s, dp, c, spec) = design(2);
        let (p, q) = (
            dfg.node_by_name("p").unwrap(),
            dfg.node_by_name("q").unwrap(),
        );
        let p_sig = dfg.signal_by_name("p").unwrap();
        // R0 holds x then q, R1 holds p (written at the end of step 1).
        assert_eq!(dp.register_allocation().register_of(p_sig), Some(RegId(1)));
        let mut words = c.words().to_vec();
        words[0].activities[0].mux2 = Some(9);
        let issued_p = words[0].activities[0].clone();
        words[1].activities[0].mux1 = Some(7);
        words[1].activities.push(issued_p);
        let write = words[0].writes[0];
        words[0].writes.push(write);
        let access = |bank, port, node| MemAccess {
            bank: BankId::new(bank),
            port,
            node,
            write: false,
        };
        words[1].mem = vec![
            access(1, 1, q),
            access(0, 2, q),
            access(1, 1, p),
            access(0, 2, p),
        ];
        let stray = RegWrite {
            register: RegId(5),
            ..words[1].writes[0]
        };
        words[1].writes.push(stray);
        let c = Controller::from_parts(words, c.input_loads().to_vec());
        let q_sig = dfg.signal_by_name("q").unwrap();
        assert_eq!(
            verify_controller(&dfg, &s, &dp, &c, &spec),
            vec![
                ControlViolation::WrongIssue { node: p, issues: 4 },
                ControlViolation::WrongIssue { node: q, issues: 3 },
                ControlViolation::MemPortConflict {
                    bank: BankId::new(0),
                    port: 2,
                    step: 2
                },
                ControlViolation::MemPortConflict {
                    bank: BankId::new(1),
                    port: 1,
                    step: 2
                },
                ControlViolation::SelectOutOfRange { node: p, port: 2 },
                ControlViolation::SelectOutOfRange { node: q, port: 1 },
                ControlViolation::SelectOutOfRange { node: p, port: 2 },
                ControlViolation::WritePortConflict {
                    register: RegId(1),
                    step: 1
                },
                ControlViolation::WrongWriteCount {
                    signal: q_sig,
                    writes: 2
                },
                ControlViolation::WrongWriteCount {
                    signal: p_sig,
                    writes: 2
                },
            ]
        );
    }
}
