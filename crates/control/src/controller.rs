//! Controller generation.

use std::fmt::Write as _;

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, FuClass, NodeKind, SignalSource};
use hls_rtl::{AluId, Datapath, NetSource};
use hls_schedule::{CStep, Schedule, UnitId};

use crate::word::{
    render_word, AluActivity, ControlWord, InputLoad, MemAccess, RegWrite, WriteSource,
};
use crate::ControlError;

/// A horizontal-microcode controller: one [`ControlWord`] per control
/// step, plus the input-load phase that fills registers with primary
/// inputs before step 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Controller {
    words: Vec<ControlWord>,
    input_loads: Vec<InputLoad>,
}

impl Controller {
    /// Derives the controller for a scheduled, allocated design.
    ///
    /// For each step it emits: the function select of every ALU starting
    /// an operation, the selects of the ALU's two input multiplexers
    /// (indices into the mux's ordered source list), a `busy` marker for
    /// multi-cycle operations in flight, and the register writes latched
    /// at the step's end (one per signal life span beginning in the next
    /// step).
    ///
    /// # Errors
    ///
    /// [`ControlError::UnboundNode`] for FU-bound or unscheduled
    /// operations, [`ControlError::SourceNotOnMux`] /
    /// [`ControlError::Unstored`] when the data path is inconsistent
    /// with the schedule (cannot happen for `Datapath::build` outputs).
    pub fn generate(
        dfg: &Dfg,
        schedule: &Schedule,
        datapath: &Datapath,
        spec: &TimingSpec,
    ) -> Result<Controller, ControlError> {
        let cs = schedule.control_steps() as usize;
        let mut words = vec![ControlWord::default(); cs];

        // Mux source orderings: select = position in the ordered set.
        // The sorted sources of every mux sit in one buffer, and a
        // table indexed densely by `alu * 2 + port - 1` holds each
        // mux's range of it (`None` = no such mux).
        let mux_slot = |alu: AluId, port: u8| {
            (1..=2)
                .contains(&port)
                .then(|| alu.0 as usize * 2 + port as usize - 1)
        };
        let muxes = datapath
            .muxes()
            .iter()
            .filter_map(|m| Some((mux_slot(m.alu, m.port)?, &m.sources)));
        let mut mux_sources: Vec<NetSource> =
            Vec::with_capacity(muxes.clone().map(|(_, s)| s.len()).sum());
        let mut mux_range: Vec<Option<(usize, usize)>> =
            vec![None; muxes.clone().map(|(slot, _)| slot + 1).max().unwrap_or(0)];
        for (slot, sources) in muxes {
            let start = mux_sources.len();
            mux_sources.extend(sources);
            mux_range[slot] = Some((start, mux_sources.len()));
        }
        let select_of = |alu: AluId, port: u8, src: NetSource| -> Option<Option<usize>> {
            let (start, end) = (*mux_range.get(mux_slot(alu, port)?)?)?;
            let order = &mux_sources[start..end];
            if order.len() <= 1 {
                // Direct wire (or unused port): no select needed, but the
                // source must still be the wire's driver.
                return if order.first().is_none_or(|&s| s == src) {
                    Some(None)
                } else {
                    None
                };
            }
            order.binary_search(&src).ok().map(Some)
        };

        // ALU activities and memory accesses.
        for id in dfg.node_ids() {
            let slot = schedule.slot(id).ok_or(ControlError::UnboundNode(id))?;
            if dfg.node(id).kind().is_mem_access() {
                // A memory access occupies a bank port, not an ALU: the
                // word records the port's address/data routing and write
                // enable instead of a function select.
                let UnitId::Fu {
                    class: FuClass::Mem(bank),
                    index,
                } = slot.unit
                else {
                    return Err(ControlError::UnboundNode(id));
                };
                let write = matches!(dfg.node(id).kind(), NodeKind::Store { .. });
                let start = slot.step.get() as usize - 1;
                words[start].mem.push(MemAccess {
                    bank,
                    port: index.get(),
                    node: id,
                    write,
                });
                continue;
            }
            let UnitId::Alu { instance } = slot.unit else {
                return Err(ControlError::UnboundNode(id));
            };
            let alu = AluId(instance);
            let function = match dfg.node(id).kind() {
                NodeKind::Op(k) => k,
                NodeKind::Stage { base, .. } => base,
                _ => return Err(ControlError::UnboundNode(id)),
            };
            let (p1, p2) = datapath
                .operand_sources(id)
                .ok_or(ControlError::UnboundNode(id))?;
            let mux1 =
                select_of(alu, 1, p1).ok_or(ControlError::SourceNotOnMux { node: id, port: 1 })?;
            let mux2 = match p2 {
                None => None,
                Some(src) => select_of(alu, 2, src)
                    .ok_or(ControlError::SourceNotOnMux { node: id, port: 2 })?,
            };
            let start = slot.step.get() as usize - 1;
            words[start].activities.push(AluActivity {
                alu,
                node: id,
                function,
                mux1,
                mux2,
            });
            let cycles = dfg.node(id).kind().cycles(spec) as usize;
            for k in 1..cycles {
                if start + k < cs {
                    words[start + k].busy.push((alu, id));
                }
            }
        }

        // Register writes and input loads, from the allocation's spans.
        let mut input_loads = Vec::new();
        for (reg, spans) in datapath.register_allocation().iter() {
            for span in spans {
                let sig = span.signal;
                match dfg.signal(sig).source() {
                    SignalSource::PrimaryInput => {
                        input_loads.push(InputLoad {
                            register: reg,
                            signal: sig,
                        });
                    }
                    SignalSource::Constant(_) => {}
                    SignalSource::Node(producer) => {
                        let slot = schedule
                            .slot(producer)
                            .ok_or(ControlError::UnboundNode(producer))?;
                        let source = match slot.unit {
                            UnitId::Alu { instance } => WriteSource::Alu(AluId(instance)),
                            UnitId::Fu {
                                class: FuClass::Mem(bank),
                                index,
                            } => WriteSource::Mem {
                                bank,
                                port: index.get(),
                            },
                            UnitId::Fu { .. } => return Err(ControlError::UnboundNode(producer)),
                        };
                        // Latched at the end of the producer's finish
                        // step = span birth − 1.
                        let write_step = span.birth as usize - 1;
                        if write_step >= 1 && write_step <= cs {
                            words[write_step - 1].writes.push(RegWrite {
                                register: reg,
                                source,
                                signal: sig,
                            });
                        }
                    }
                }
            }
        }

        // Deterministic field order. Activities and accesses were pushed
        // in node order, so ties on the unit break by node: the order a
        // stable sort by unit gives, without its buffer. Equal write
        // and load keys are equal entries.
        for w in &mut words {
            w.activities.sort_unstable_by_key(|a| (a.alu, a.node));
            w.busy.sort_unstable();
            w.mem.sort_unstable_by_key(|m| (m.bank, m.port, m.node));
            w.writes.sort_unstable_by_key(|x| (x.register, x.signal));
        }
        input_loads.sort_unstable_by_key(|l| (l.register, l.signal));

        Ok(Controller { words, input_loads })
    }

    /// A controller from hand-made words, for verifier tests.
    #[cfg(test)]
    pub(crate) fn from_parts(words: Vec<ControlWord>, input_loads: Vec<InputLoad>) -> Controller {
        Controller { words, input_loads }
    }

    /// Number of FSM states (= control steps).
    pub fn state_count(&self) -> usize {
        self.words.len()
    }

    /// The control word of `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` exceeds the state count.
    pub fn word(&self, step: CStep) -> &ControlWord {
        &self.words[step.get() as usize - 1]
    }

    /// All words, step order.
    pub fn words(&self) -> &[ControlWord] {
        &self.words
    }

    /// Registers pre-loaded with primary inputs.
    pub fn input_loads(&self) -> &[InputLoad] {
        &self.input_loads
    }

    /// Renders the full microcode listing.
    pub fn render(&self, dfg: &Dfg) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "controller: {} state(s)", self.words.len());
        if !self.input_loads.is_empty() {
            let loads: Vec<String> = self
                .input_loads
                .iter()
                .map(|l| format!("{}<-in:{}", l.register, dfg.signal(l.signal).name()))
                .collect();
            let _ = writeln!(out, "load {}", loads.join("  "));
        }
        for (i, word) in self.words.iter().enumerate() {
            let _ = writeln!(out, "{}", render_word(CStep::new(i as u32 + 1), word));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::{Library, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_rtl::AluAllocation;
    use hls_schedule::Slot;

    fn build() -> (Dfg, Schedule, Datapath, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        let q = b.op("q", OpKind::Sub, &[p, y]).unwrap();
        b.op("r", OpKind::Add, &[q, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&dfg, 3);
        for (i, name) in ["p", "q", "r"].iter().enumerate() {
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
        (dfg, s, dp, spec)
    }

    #[test]
    fn one_activity_per_step() {
        let (dfg, s, dp, spec) = build();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        assert_eq!(c.state_count(), 3);
        for (i, w) in c.words().iter().enumerate() {
            assert_eq!(w.activities.len(), 1, "step {}", i + 1);
        }
        // Functions follow the schedule.
        assert_eq!(c.words()[0].activities[0].function, OpKind::Add);
        assert_eq!(c.words()[1].activities[0].function, OpKind::Sub);
        assert_eq!(c.words()[2].activities[0].function, OpKind::Add);
    }

    #[test]
    fn intermediate_values_are_written_to_registers() {
        let (dfg, s, dp, spec) = build();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        // p (used at t2) is written at end of t1; q at end of t2.
        assert!(!c.words()[0].writes.is_empty());
        assert!(!c.words()[1].writes.is_empty());
        // Inputs x and y are pre-loaded.
        assert_eq!(c.input_loads().len(), 2);
    }

    #[test]
    fn multicycle_ops_mark_busy() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Mul, &[x, x]).unwrap();
        b.op("a", OpKind::Add, &[m, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = hls_celllib::TimingSpec::two_cycle_multiply();
        let mut s = Schedule::new(&dfg, 3);
        s.assign(
            dfg.node_by_name("m").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        s.assign(
            dfg.node_by_name("a").unwrap(),
            Slot {
                step: CStep::new(3),
                unit: UnitId::Alu { instance: 1 },
            },
        );
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("mul").unwrap().clone());
        alloc.push(lib.alu_by_name("add").unwrap().clone());
        let dp = Datapath::build(&dfg, &s, &alloc, &spec).unwrap();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        assert_eq!(
            c.words()[1].busy,
            vec![(AluId(0), dfg.node_by_name("m").unwrap())]
        );
    }

    #[test]
    fn rendering_is_complete() {
        let (dfg, s, dp, spec) = build();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        let text = c.render(&dfg);
        assert!(text.contains("3 state(s)"));
        assert!(text.contains("load"));
        assert!(text.contains("ALU0:=add"));
        assert!(text.contains("R0<-ALU0") || text.contains("R1<-ALU0"));
    }

    #[test]
    fn incomplete_schedule_is_rejected() {
        let (dfg, mut s, dp, spec) = build();
        s.unassign(dfg.node_by_name("r").unwrap());
        assert!(matches!(
            Controller::generate(&dfg, &s, &dp, &spec),
            Err(ControlError::UnboundNode(_))
        ));
    }
}
