//! The RTL structure MFSA produces.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use hls_celllib::{AluKind, TimingSpec};
use hls_dfg::{BankId, Dfg, FuClass, NodeId, NodeKind, SignalId, SignalSource};
use hls_schedule::{Schedule, UnitId};

use crate::muxopt::{pack, MuxOp};
use crate::regalloc::{left_edge, signal_lifetimes, RegAllocation};
use crate::{AluId, NetSource, RegId, RtlError};

/// The instance → ALU-kind mapping of an MFSA run: instance `i` of the
/// schedule's [`UnitId::Alu`] bindings has kind `kinds[i]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AluAllocation {
    kinds: Vec<AluKind>,
}

impl AluAllocation {
    /// An empty allocation.
    pub fn new() -> Self {
        AluAllocation::default()
    }

    /// Adds an instance of `kind`, returning its id.
    pub fn push(&mut self, kind: AluKind) -> AluId {
        self.kinds.push(kind);
        AluId(self.kinds.len() as u32 - 1)
    }

    /// The kind of instance `id`, if it exists.
    pub fn kind(&self, id: AluId) -> Option<&AluKind> {
        self.kinds.get(id.0 as usize)
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no instances exist.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Iterates `(id, kind)`.
    pub fn iter(&self) -> impl Iterator<Item = (AluId, &AluKind)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(i, k)| (AluId(i as u32), k))
    }
}

/// One ALU of the data path with the operations it executes.
#[derive(Debug, Clone, PartialEq)]
pub struct AluInstance {
    /// The instance id.
    pub id: AluId,
    /// Its library kind.
    pub kind: AluKind,
    /// Operations bound to it, in schedule order.
    pub ops: Vec<NodeId>,
}

/// One register with the signal life spans packed into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterInfo {
    /// The register id.
    pub id: RegId,
    /// Stored signals, in life-span order.
    pub signals: Vec<SignalId>,
}

/// One ALU input multiplexer and the net sources it selects between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxInfo {
    /// The fed ALU.
    pub alu: AluId,
    /// Input port (1 or 2).
    pub port: u8,
    /// Distinct sources on this port.
    pub sources: BTreeSet<NetSource>,
}

impl MuxInfo {
    /// Whether a real multiplexer is needed (≥ 2 sources).
    pub fn is_real(&self) -> bool {
        self.sources.len() >= 2
    }
}

/// One port of a memory bank with the accesses it serves and the nets
/// feeding its address and write-data lines. The address mux plays the
/// same interconnect role as an ALU's operand muxes; the data mux only
/// exists on ports that serve stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemPort {
    /// The bank this port belongs to.
    pub bank: BankId,
    /// 1-based port number within the bank (≤ the declared port count).
    pub port: u32,
    /// Accesses bound to this port, in schedule order.
    pub accesses: Vec<NodeId>,
    /// Distinct nets on the address line.
    pub addr_sources: BTreeSet<NetSource>,
    /// Distinct nets on the write-data line (stores only).
    pub data_sources: BTreeSet<NetSource>,
}

/// A complete RTL data path: ALU instances, registers (via left-edge
/// allocation) and input multiplexers, derived deterministically from an
/// ALU-bound schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Datapath {
    alus: Vec<AluInstance>,
    regalloc: RegAllocation,
    muxes: Vec<MuxInfo>,
    /// Memory bank ports with their address/data interconnect.
    mem_ports: Vec<MemPort>,
    /// Per-op operand sources `(port1, port2)` after orientation,
    /// indexed by [`NodeId::index`]. For a load this is `(address,
    /// None)`; for a store `(address, data)`.
    op_sources: Vec<Option<(NetSource, Option<NetSource>)>>,
    /// Position in `alus` of each instance, indexed by [`AluId`]; its
    /// port-`p` mux is `muxes[2 * position + p - 1]`.
    alu_slot: Vec<Option<u32>>,
}

impl Datapath {
    /// Assembles the data path for a complete ALU-bound `schedule`.
    ///
    /// Signals consumed in their producer's finish step (chaining) are
    /// read directly from the producing ALU; everything else must have a
    /// register, which the embedded left-edge allocation provides.
    ///
    /// # Errors
    ///
    /// See [`RtlError`]: unbound or FU-bound operations, unknown or
    /// incapable instances, and folded-loop nodes are all rejected.
    pub fn build(
        dfg: &Dfg,
        schedule: &Schedule,
        allocation: &AluAllocation,
        spec: &TimingSpec,
    ) -> Result<Datapath, RtlError> {
        // Validate bindings and group ops by instance (index order is
        // `AluId` order). Memory accesses keep their FU binding (a bank
        // port); everything else must be on an ALU.
        let mut ops_of: Vec<Vec<NodeId>> = vec![Vec::new(); allocation.len()];
        let mut accesses: Vec<(BankId, u32, NodeId)> = Vec::new();
        for id in dfg.node_ids() {
            let slot = schedule.slot(id).ok_or(RtlError::UnboundNode(id))?;
            if dfg.node(id).kind().is_mem_access() {
                match slot.unit {
                    UnitId::Fu {
                        class: FuClass::Mem(bank),
                        index,
                    } => accesses.push((bank, index.get(), id)),
                    _ => return Err(RtlError::NotPortBound(id)),
                }
                continue;
            }
            let instance = match slot.unit {
                UnitId::Alu { instance } => instance,
                UnitId::Fu { .. } => return Err(RtlError::NotAluBound(id)),
            };
            let alu = AluId(instance);
            let kind = allocation
                .kind(alu)
                .ok_or(RtlError::UnknownInstance { node: id, instance })?;
            let op = match dfg.node(id).kind() {
                NodeKind::Op(op) => op,
                NodeKind::Stage { base, .. } => base,
                _ => return Err(RtlError::UnsupportedNode(id)),
            };
            if !kind.supports(op) {
                return Err(RtlError::IncapableAlu { node: id, alu });
            }
            ops_of[alu.0 as usize].push(id);
        }
        for ops in &mut ops_of {
            ops.sort_by_key(|&n| (schedule.start(n), n));
        }
        accesses.sort_by_key(|&(bank, port, n)| (bank, port, schedule.start(n), n));

        // Registers from life spans.
        let lifetimes = signal_lifetimes(dfg, schedule, spec);
        let regalloc = left_edge(&lifetimes);

        // Per-operand net sources.
        let source_of = |consumer: NodeId, sig: SignalId| -> Result<NetSource, RtlError> {
            let signal = dfg.signal(sig);
            match signal.source() {
                SignalSource::PrimaryInput | SignalSource::Constant(_) => {
                    Ok(NetSource::External(sig))
                }
                SignalSource::Node(producer) => {
                    let c_start = schedule.start(consumer).expect("validated above");
                    let p_finish = schedule
                        .finish(producer, dfg, spec)
                        .expect("validated above");
                    if c_start <= p_finish {
                        // Chained: read the producing ALU directly.
                        match schedule.slot(producer).expect("validated").unit {
                            UnitId::Alu { instance } => Ok(NetSource::Alu(AluId(instance))),
                            UnitId::Fu { .. } => Err(RtlError::NotAluBound(producer)),
                        }
                    } else {
                        regalloc
                            .register_of(sig)
                            .map(NetSource::Register)
                            .ok_or(RtlError::MissingStorage { signal: sig })
                    }
                }
            }
        };

        // Mux packing per instance.
        let mut alus = Vec::new();
        let mut muxes = Vec::new();
        let mut op_sources = vec![None; dfg.node_count()];
        let mut alu_slot = vec![None; allocation.len()];
        for (alu, ops) in (0u32..).map(AluId).zip(ops_of) {
            if ops.is_empty() {
                continue;
            }
            let kind = allocation.kind(alu).expect("validated").clone();
            let mut mux_ops: Vec<MuxOp<NetSource>> = Vec::with_capacity(ops.len());
            for &op in &ops {
                let node = dfg.node(op);
                let inputs = node.inputs();
                let left = source_of(op, inputs[0])?;
                let right = match inputs.get(1) {
                    Some(&s) => Some(source_of(op, s)?),
                    None => None,
                };
                let commutative = match node.kind() {
                    NodeKind::Op(k) => k.is_commutative(),
                    NodeKind::Stage { base, index, .. } => index == 0 && base.is_commutative(),
                    _ => unreachable!("rejected above"),
                };
                mux_ops.push(MuxOp {
                    left,
                    right,
                    commutative,
                });
            }
            let packing = pack(&mux_ops);
            for (i, &op) in ops.iter().enumerate() {
                let (a, b) = if packing.swapped[i] {
                    (
                        mux_ops[i].right.expect("swapped implies binary"),
                        Some(mux_ops[i].left),
                    )
                } else {
                    (mux_ops[i].left, mux_ops[i].right)
                };
                op_sources[op.index()] = Some((a, b));
            }
            muxes.push(MuxInfo {
                alu,
                port: 1,
                sources: packing.l1,
            });
            muxes.push(MuxInfo {
                alu,
                port: 2,
                sources: packing.l2,
            });
            alu_slot[alu.0 as usize] = Some(alus.len() as u32);
            alus.push(AluInstance { id: alu, kind, ops });
        }

        // Bank ports: address (and, for stores, write-data) nets. The
        // trailing ordering-token inputs of a load/store are dependency
        // edges only — they never reach hardware.
        let mut mem_ports = Vec::new();
        for run in accesses.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (bank, port, _) = run[0];
            let accesses: Vec<NodeId> = run.iter().map(|&(_, _, n)| n).collect();
            let mut addr_sources = BTreeSet::new();
            let mut data_sources = BTreeSet::new();
            for &op in &accesses {
                let node = dfg.node(op);
                let addr = source_of(op, node.inputs()[0])?;
                addr_sources.insert(addr);
                let data = match node.kind() {
                    NodeKind::Store { .. } => {
                        let d = source_of(op, node.inputs()[1])?;
                        data_sources.insert(d);
                        Some(d)
                    }
                    _ => None,
                };
                op_sources[op.index()] = Some((addr, data));
            }
            mem_ports.push(MemPort {
                bank,
                port,
                accesses,
                addr_sources,
                data_sources,
            });
        }

        Ok(Datapath {
            alus,
            regalloc,
            muxes,
            mem_ports,
            op_sources,
            alu_slot,
        })
    }

    /// The memory bank ports, ordered by `(bank, port)`. Empty for
    /// designs without arrays.
    pub fn mem_ports(&self) -> &[MemPort] {
        &self.mem_ports
    }

    /// The ALU instances, in id order.
    pub fn alus(&self) -> &[AluInstance] {
        &self.alus
    }

    /// The register allocation.
    pub fn register_allocation(&self) -> &RegAllocation {
        &self.regalloc
    }

    /// The registers with their stored signals.
    pub fn registers(&self) -> Vec<RegisterInfo> {
        self.regalloc
            .iter()
            .map(|(id, lifetimes)| RegisterInfo {
                id,
                signals: lifetimes.iter().map(|l| l.signal).collect(),
            })
            .collect()
    }

    /// All ALU input multiplexers (two per ALU; trivial ones included —
    /// filter with [`MuxInfo::is_real`]).
    pub fn muxes(&self) -> &[MuxInfo] {
        &self.muxes
    }

    /// The multiplexer feeding input `port` (1 or 2) of `alu`, if that
    /// instance executes anything.
    pub fn mux(&self, alu: AluId, port: u8) -> Option<&MuxInfo> {
        let slot = (*self.alu_slot.get(alu.0 as usize)?)? as usize;
        match port {
            1 | 2 => self.muxes.get(2 * slot + port as usize - 1),
            _ => None,
        }
    }

    /// The oriented operand sources `(port 1, port 2)` of an operation.
    pub fn operand_sources(&self, node: NodeId) -> Option<(NetSource, Option<NetSource>)> {
        self.op_sources.get(node.index()).copied().flatten()
    }

    /// Number of registers.
    pub fn register_count(&self) -> usize {
        self.regalloc.register_count()
    }

    /// Number of real multiplexers (≥ 2 inputs) — Table 2's `MUX`.
    pub fn mux_count(&self) -> usize {
        self.muxes.iter().filter(|m| m.is_real()).count()
    }

    /// Total inputs over real multiplexers — Table 2's `MUXin`.
    pub fn mux_inputs(&self) -> usize {
        self.muxes
            .iter()
            .filter(|m| m.is_real())
            .map(|m| m.sources.len())
            .sum()
    }

    /// The ALU-set signature in the paper's notation, grouping identical
    /// kinds: e.g. `2(+-*),(+)`.
    pub fn alu_signature(&self) -> String {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for alu in &self.alus {
            *counts.entry(alu.kind.signature()).or_insert(0) += 1;
        }
        let mut parts: Vec<(String, usize)> = counts.into_iter().collect();
        // Larger groups first, then lexicographic, for stable output.
        parts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        parts
            .into_iter()
            .map(|(sig, n)| if n > 1 { format!("{n}{sig}") } else { sig })
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for Datapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "datapath: {} ALU(s) {}, {} register(s), {} mux(es) with {} input(s)",
            self.alus.len(),
            self.alu_signature(),
            self.register_count(),
            self.mux_count(),
            self.mux_inputs(),
        )?;
        for alu in &self.alus {
            writeln!(f, "  {} {}: {} op(s)", alu.id, alu.kind, alu.ops.len())?;
        }
        for p in &self.mem_ports {
            writeln!(
                f,
                "  {}.p{}: {} access(es)",
                p.bank,
                p.port,
                p.accesses.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::{Area, Library, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_schedule::{CStep, Slot};

    /// A two-ALU fixture: mul on ALU0, two adds sharing ALU1.
    fn fixture() -> (Dfg, Schedule, AluAllocation, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op("m", OpKind::Mul, &[x, y]).unwrap();
        let a1 = b.op("a1", OpKind::Add, &[m, y]).unwrap();
        b.op("a2", OpKind::Add, &[a1, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&g, 3);
        let assign = |s: &mut Schedule, name: &str, step: u32, inst: u32| {
            s.assign(
                g.node_by_name(name).unwrap(),
                Slot {
                    step: CStep::new(step),
                    unit: UnitId::Alu { instance: inst },
                },
            );
        };
        assign(&mut s, "m", 1, 0);
        assign(&mut s, "a1", 2, 1);
        assign(&mut s, "a2", 3, 1);
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("mul").unwrap().clone());
        alloc.push(lib.alu_by_name("add").unwrap().clone());
        (g, s, alloc, spec)
    }

    #[test]
    fn build_assembles_all_components() {
        let (g, s, alloc, spec) = fixture();
        let dp = Datapath::build(&g, &s, &alloc, &spec).unwrap();
        assert_eq!(dp.alus().len(), 2);
        assert_eq!(dp.alus()[1].ops.len(), 2);
        // Registers: x lives 1..=3, y 1..=2, m 2..=2, a1 3..=3, a2 latch.
        assert!(dp.register_count() >= 2);
        assert!(dp.mux_count() >= 1, "the shared adder needs muxes");
        assert!(dp.alu_signature().contains("(+)"));
        assert!(dp.to_string().contains("ALU0"));
    }

    #[test]
    fn incapable_alu_is_rejected() {
        let (g, s, _, spec) = fixture();
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        // Both instances adders: the multiply cannot run.
        alloc.push(lib.alu_by_name("add").unwrap().clone());
        alloc.push(lib.alu_by_name("add").unwrap().clone());
        assert!(matches!(
            Datapath::build(&g, &s, &alloc, &spec),
            Err(RtlError::IncapableAlu { .. })
        ));
    }

    #[test]
    fn unknown_instance_is_rejected() {
        let (g, s, _, spec) = fixture();
        let alloc = AluAllocation::new();
        assert!(matches!(
            Datapath::build(&g, &s, &alloc, &spec),
            Err(RtlError::UnknownInstance { .. })
        ));
    }

    #[test]
    fn incomplete_schedule_is_rejected() {
        let (g, mut s, alloc, spec) = fixture();
        s.unassign(g.node_by_name("a2").unwrap());
        assert!(matches!(
            Datapath::build(&g, &s, &alloc, &spec),
            Err(RtlError::UnboundNode(_))
        ));
    }

    #[test]
    fn operand_sources_cover_every_op() {
        let (g, s, alloc, spec) = fixture();
        let dp = Datapath::build(&g, &s, &alloc, &spec).unwrap();
        for id in g.node_ids() {
            let (p1, p2) = dp.operand_sources(id).expect("sourced");
            // Binary ops have both ports.
            assert!(p2.is_some());
            let mux1 = dp
                .muxes()
                .iter()
                .find(|m| {
                    m.port == 1
                        && m.alu
                            == match s.slot(id).unwrap().unit {
                                UnitId::Alu { instance } => AluId(instance),
                                _ => unreachable!(),
                            }
                })
                .unwrap();
            assert!(mux1.sources.contains(&p1));
        }
    }

    #[test]
    fn alu_signature_groups_identical_kinds() {
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        let add = lib.alu_by_name("add").unwrap().clone();
        alloc.push(add.clone());
        alloc.push(add);
        alloc.push(AluKind::new("x", [OpKind::Sub], Area::new(10)));
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("p", OpKind::Add, &[x, x]).unwrap();
        b.op("q", OpKind::Add, &[x, x]).unwrap();
        b.op("r", OpKind::Sub, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let mut s = Schedule::new(&g, 2);
        for (i, (id, _)) in g.nodes().enumerate() {
            s.assign(
                id,
                Slot {
                    step: CStep::new(1),
                    unit: UnitId::Alu { instance: i as u32 },
                },
            );
        }
        let dp = Datapath::build(&g, &s, &alloc, &TimingSpec::uniform_single_cycle()).unwrap();
        assert_eq!(dp.alu_signature(), "2(+),(-)");
    }
}
