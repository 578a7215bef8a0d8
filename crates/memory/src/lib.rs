//! Memory-aware analysis for `moveframe-hls` synthesis results.
//!
//! The schedulers treat every memory bank's port count as a hard
//! per-control-step concurrency limit (the access-conflict frame `AF`
//! of the move-frame computation). This crate closes the loop from the
//! *outside*: given a data-flow graph with memory declarations and a
//! finished schedule, it recomputes per-bank port pressure from first
//! principles and checks — independently of the scheduler that produced
//! the schedule — that no step oversubscribes a bank and no two
//! accesses share one physical port in one step.
//!
//! * [`access_bindings`] — the flat list of scheduled memory accesses
//!   with their bank/port bindings;
//! * [`port_pressure`] — per-bank, per-step access counts plus peaks;
//! * [`check_port_safety`] — typed violations (oversubscribed steps,
//!   double-booked ports, out-of-range ports);
//! * [`bank_usage`] — a per-bank summary (loads, stores, peak pressure,
//!   utilisation) for reports and the explorer's `point_json`.
//!
//! ```
//! use hls_celllib::TimingSpec;
//! use hls_dfg::parse_dfg;
//! use hls_mem::{check_port_safety, port_pressure};
//! use moveframe::mfs::{self, MfsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = parse_dfg(
//!     "input i
//!      array a[8] @ bank0(ports=2)
//!      load x = a[i]
//!      op y = inc(x)
//!      store a[i] = y",
//! )?;
//! let spec = TimingSpec::uniform_single_cycle();
//! let out = mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(4))?;
//! let safety = check_port_safety(&dfg, &out.schedule)?;
//! assert!(safety.is_empty(), "schedulers are port-safe by construction");
//! let pressure = port_pressure(&dfg, &out.schedule)?;
//! let bank = dfg.memory().banks()[0].id();
//! assert!(pressure.peak(bank) <= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use hls_dfg::{ArrayId, BankId, Dfg, FuClass, NodeId, NodeKind};
use hls_schedule::{CStep, Schedule, UnitId};

/// A scheduled memory access with its physical binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessBinding {
    /// The load or store node.
    pub node: NodeId,
    /// The array it touches.
    pub array: ArrayId,
    /// The bank holding that array.
    pub bank: BankId,
    /// 1-based port of the bank the access is bound to.
    pub port: u32,
    /// Control step the access issues in.
    pub step: CStep,
    /// `true` for stores, `false` for loads.
    pub write: bool,
}

impl fmt::Display for AccessBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @ s{} on {}.p{}",
            if self.write { "st" } else { "ld" },
            self.array,
            self.step.get(),
            self.bank,
            self.port
        )
    }
}

/// Why a schedule's memory bindings could not be analysed at all
/// (distinct from a *violation*, which is a well-formed but unsafe
/// binding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A load/store node has no slot in the schedule.
    Unscheduled(NodeId),
    /// A load/store node is bound to a unit that is not a memory port
    /// of its own bank (e.g. an ALU, or another bank's port).
    NotPortBound(NodeId),
    /// A load/store node references an array the graph never declared
    /// (impossible via the builder/parser; guards hand-built graphs).
    UnknownArray(NodeId),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unscheduled(n) => write!(f, "memory access {n} is unscheduled"),
            MemError::NotPortBound(n) => {
                write!(f, "memory access {n} is not bound to a port of its bank")
            }
            MemError::UnknownArray(n) => {
                write!(f, "memory access {n} references an undeclared array")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A port-safety violation found by [`check_port_safety`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortViolation {
    /// More accesses issue on a bank in one step than the bank has
    /// ports.
    Oversubscribed {
        /// The oversubscribed bank.
        bank: BankId,
        /// The step in question.
        step: CStep,
        /// Accesses issuing on the bank that step.
        nodes: Vec<NodeId>,
        /// The bank's declared port count.
        ports: u32,
    },
    /// Two or more accesses are bound to the same physical port in the
    /// same step.
    DoubleBooked {
        /// The bank.
        bank: BankId,
        /// The contested port.
        port: u32,
        /// The step in question.
        step: CStep,
        /// The accesses sharing the port.
        nodes: Vec<NodeId>,
    },
    /// An access is bound to a port index above the bank's port count
    /// (ports are 1-based: valid indices are `1..=ports`).
    PortOutOfRange {
        /// The offending access.
        node: NodeId,
        /// The bank.
        bank: BankId,
        /// The out-of-range port index.
        port: u32,
        /// The bank's declared port count.
        ports: u32,
    },
}

impl fmt::Display for PortViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortViolation::Oversubscribed {
                bank,
                step,
                nodes,
                ports,
            } => write!(
                f,
                "bank {bank} has {} accesses in step {} but only {ports} port(s)",
                nodes.len(),
                step.get()
            ),
            PortViolation::DoubleBooked {
                bank, port, step, ..
            } => write!(
                f,
                "port {bank}.p{port} carries more than one access in step {}",
                step.get()
            ),
            PortViolation::PortOutOfRange {
                node,
                bank,
                port,
                ports,
            } => write!(
                f,
                "access {node} bound to {bank}.p{port} but the bank has only {ports} port(s)"
            ),
        }
    }
}

/// Extracts every scheduled memory access with its bank/port binding,
/// sorted by (step, bank, port).
///
/// Mutually-exclusive accesses (different branch arms) may legally
/// share a port in a step; they appear as separate bindings here —
/// [`check_port_safety`] is what knows about exclusion.
pub fn access_bindings(dfg: &Dfg, schedule: &Schedule) -> Result<Vec<AccessBinding>, MemError> {
    let mut out = Vec::new();
    for id in dfg.node_ids() {
        let node = dfg.node(id);
        let (array, write) = match node.kind() {
            NodeKind::Load { array, .. } => (array, false),
            NodeKind::Store { array, .. } => (array, true),
            _ => continue,
        };
        let decl = dfg
            .memory()
            .array(array)
            .ok_or(MemError::UnknownArray(id))?;
        let slot = schedule.slot(id).ok_or(MemError::Unscheduled(id))?;
        let UnitId::Fu {
            class: FuClass::Mem(bank),
            index,
        } = slot.unit
        else {
            return Err(MemError::NotPortBound(id));
        };
        if bank != decl.bank() {
            return Err(MemError::NotPortBound(id));
        }
        out.push(AccessBinding {
            node: id,
            array,
            bank,
            port: index.get(),
            step: slot.step,
            write,
        });
    }
    out.sort_by_key(|a| (a.step, a.bank, a.port, a.node));
    Ok(out)
}

/// Per-bank, per-step access pressure of a schedule.
///
/// `pressure` counts *simultaneous* demand: a set of pairwise
/// mutually-exclusive accesses on one port counts once, because only
/// one of them executes in any run. Peak pressure on a port-safe
/// schedule therefore never exceeds the bank's port count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortPressure {
    steps: u32,
    per_bank: BTreeMap<BankId, Vec<u32>>,
}

impl PortPressure {
    /// The schedule length the pressure profile covers.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Banks with a profile (every declared bank, even if unused).
    pub fn banks(&self) -> impl Iterator<Item = BankId> + '_ {
        self.per_bank.keys().copied()
    }

    /// Pressure on `bank` at `step` (0 for unknown banks or steps past
    /// the schedule end).
    pub fn at(&self, bank: BankId, step: CStep) -> u32 {
        self.per_bank
            .get(&bank)
            .and_then(|v| v.get(step.get() as usize - 1))
            .copied()
            .unwrap_or(0)
    }

    /// Peak per-step pressure on `bank` over the whole schedule.
    pub fn peak(&self, bank: BankId) -> u32 {
        self.per_bank
            .get(&bank)
            .map(|v| v.iter().copied().max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// The full per-step profile of `bank` (index 0 = step 1).
    pub fn profile(&self, bank: BankId) -> &[u32] {
        self.per_bank.get(&bank).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Computes the per-bank port-pressure profile of a schedule.
///
/// Fails (rather than under-reporting) if any memory access is
/// unscheduled or bound to a non-port unit.
pub fn port_pressure(dfg: &Dfg, schedule: &Schedule) -> Result<PortPressure, MemError> {
    let bindings = access_bindings(dfg, schedule)?;
    let steps = schedule.control_steps();
    let mut per_bank: BTreeMap<BankId, Vec<u32>> = dfg
        .memory()
        .banks()
        .iter()
        .map(|b| (b.id(), vec![0u32; steps as usize]))
        .collect();
    // Group by (bank, step), then count an exclusion-aware clique cover:
    // accesses that are pairwise mutually exclusive share demand.
    let mut groups: BTreeMap<(BankId, CStep), Vec<NodeId>> = BTreeMap::new();
    for b in &bindings {
        groups.entry((b.bank, b.step)).or_default().push(b.node);
    }
    for ((bank, step), nodes) in groups {
        let demand = simultaneous_demand(dfg, &nodes);
        if let Some(profile) = per_bank.get_mut(&bank) {
            if let Some(cell) = profile.get_mut(step.get() as usize - 1) {
                *cell = demand;
            }
        }
    }
    Ok(PortPressure { steps, per_bank })
}

/// Greedy clique cover under the mutual-exclusion relation: the number
/// of ports the group genuinely needs at once. Exact for the
/// branch-arm exclusion structure the builder produces (exclusion
/// classes are transitive within one branch).
fn simultaneous_demand(dfg: &Dfg, nodes: &[NodeId]) -> u32 {
    let mut cliques: Vec<Vec<NodeId>> = Vec::new();
    for &n in nodes {
        match cliques
            .iter_mut()
            .find(|c| c.iter().all(|&m| dfg.mutually_exclusive(n, m)))
        {
            Some(c) => c.push(n),
            None => cliques.push(vec![n]),
        }
    }
    cliques.len() as u32
}

/// Checks a schedule's memory bindings for port safety.
///
/// Returns every violation found: steps whose simultaneous demand on a
/// bank exceeds its port count, physical ports carrying two
/// non-exclusive accesses in one step, and port indices outside the
/// bank's declared range. An empty vector means the schedule is
/// port-safe. The schedulers guarantee this by construction; this
/// check is the independent witness.
pub fn check_port_safety(dfg: &Dfg, schedule: &Schedule) -> Result<Vec<PortViolation>, MemError> {
    let bindings = access_bindings(dfg, schedule)?;
    let mut violations = Vec::new();

    let mut by_bank_step: BTreeMap<(BankId, CStep), Vec<NodeId>> = BTreeMap::new();
    let mut by_port_step: BTreeMap<(BankId, u32, CStep), Vec<NodeId>> = BTreeMap::new();
    for b in &bindings {
        let ports = dfg.bank_ports(b.bank);
        if b.port == 0 || b.port > ports {
            violations.push(PortViolation::PortOutOfRange {
                node: b.node,
                bank: b.bank,
                port: b.port,
                ports,
            });
        }
        by_bank_step
            .entry((b.bank, b.step))
            .or_default()
            .push(b.node);
        by_port_step
            .entry((b.bank, b.port, b.step))
            .or_default()
            .push(b.node);
    }

    for ((bank, step), nodes) in &by_bank_step {
        let ports = dfg.bank_ports(*bank);
        if simultaneous_demand(dfg, nodes) > ports {
            violations.push(PortViolation::Oversubscribed {
                bank: *bank,
                step: *step,
                nodes: nodes.clone(),
                ports,
            });
        }
    }
    for ((bank, port, step), nodes) in &by_port_step {
        if simultaneous_demand(dfg, nodes) > 1 {
            violations.push(PortViolation::DoubleBooked {
                bank: *bank,
                port: *port,
                step: *step,
                nodes: nodes.clone(),
            });
        }
    }
    Ok(violations)
}

/// Per-bank usage summary of a schedule, for reports and JSON surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankUsage {
    /// The bank.
    pub bank: BankId,
    /// The bank's name.
    pub name: String,
    /// Declared port count.
    pub ports: u32,
    /// Scheduled loads on the bank.
    pub loads: u32,
    /// Scheduled stores on the bank.
    pub stores: u32,
    /// Peak simultaneous per-step demand.
    pub peak_pressure: u32,
    /// Steps (out of the schedule length) with at least one access.
    pub busy_steps: u32,
}

impl BankUsage {
    /// Total accesses (loads + stores).
    pub fn accesses(&self) -> u32 {
        self.loads + self.stores
    }
}

/// Summarises every declared bank's usage under a schedule.
pub fn bank_usage(dfg: &Dfg, schedule: &Schedule) -> Result<Vec<BankUsage>, MemError> {
    let bindings = access_bindings(dfg, schedule)?;
    let pressure = port_pressure(dfg, schedule)?;
    let mut out = Vec::new();
    for bank in dfg.memory().banks() {
        let mine: Vec<_> = bindings.iter().filter(|b| b.bank == bank.id()).collect();
        out.push(BankUsage {
            bank: bank.id(),
            name: bank.name().to_string(),
            ports: bank.ports(),
            loads: mine.iter().filter(|b| !b.write).count() as u32,
            stores: mine.iter().filter(|b| b.write).count() as u32,
            peak_pressure: pressure.peak(bank.id()),
            busy_steps: pressure
                .profile(bank.id())
                .iter()
                .filter(|&&p| p > 0)
                .count() as u32,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_dfg::DfgBuilder;
    use hls_schedule::{FuIndex, Slot};

    fn mem_graph() -> Dfg {
        let mut b = DfgBuilder::new("g");
        let i = b.input("i");
        let j = b.input("j");
        let bank = b.declare_bank("bank0", 2);
        let a = b.declare_array("a", 8, bank);
        let x = b.load("x", a, i).unwrap();
        let _y = b.load("y", a, j).unwrap();
        let _s = b.store("s", a, i, x).unwrap();
        b.finish().unwrap()
    }

    fn slot(step: u32, bank: BankId, port: u32) -> Slot {
        Slot {
            step: CStep::new(step),
            unit: UnitId::Fu {
                class: FuClass::Mem(bank),
                index: FuIndex::new(port),
            },
        }
    }

    #[test]
    fn bindings_pressure_and_safety_on_a_legal_schedule() {
        let g = mem_graph();
        let bank = g.memory().banks()[0].id();
        let mut s = Schedule::new(&g, 3);
        s.assign(g.node_by_name("x").unwrap(), slot(1, bank, 1));
        s.assign(g.node_by_name("y").unwrap(), slot(1, bank, 2));
        s.assign(g.node_by_name("s").unwrap(), slot(2, bank, 1));

        let b = access_bindings(&g, &s).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].port, 1);
        assert!(!b[0].write);
        assert!(b[2].write);
        assert_eq!(b[2].to_string(), "st a0 @ s2 on b0.p1");

        let p = port_pressure(&g, &s).unwrap();
        assert_eq!(p.peak(bank), 2);
        assert_eq!(p.profile(bank), &[2, 1, 0]);
        assert_eq!(p.at(bank, CStep::new(2)), 1);
        assert_eq!(p.at(bank, CStep::new(9)), 0);

        assert!(check_port_safety(&g, &s).unwrap().is_empty());

        let usage = bank_usage(&g, &s).unwrap();
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].loads, 2);
        assert_eq!(usage[0].stores, 1);
        assert_eq!(usage[0].accesses(), 3);
        assert_eq!(usage[0].peak_pressure, 2);
        assert_eq!(usage[0].busy_steps, 2);
    }

    #[test]
    fn oversubscription_and_double_booking_are_reported() {
        let g = mem_graph();
        let bank = g.memory().banks()[0].id();
        let mut s = Schedule::new(&g, 3);
        // All three on one step; two of them on the same port.
        s.assign(g.node_by_name("x").unwrap(), slot(1, bank, 1));
        s.assign(g.node_by_name("y").unwrap(), slot(1, bank, 1));
        s.assign(g.node_by_name("s").unwrap(), slot(1, bank, 2));

        let v = check_port_safety(&g, &s).unwrap();
        assert!(v
            .iter()
            .any(|x| matches!(x, PortViolation::Oversubscribed { ports: 2, .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, PortViolation::DoubleBooked { port: 1, .. })));
        for violation in &v {
            assert!(!violation.to_string().is_empty());
        }
    }

    #[test]
    fn out_of_range_ports_are_reported() {
        let g = mem_graph();
        let bank = g.memory().banks()[0].id();
        let mut s = Schedule::new(&g, 3);
        s.assign(g.node_by_name("x").unwrap(), slot(1, bank, 3));
        s.assign(g.node_by_name("y").unwrap(), slot(2, bank, 1));
        s.assign(g.node_by_name("s").unwrap(), slot(3, bank, 1));
        let v = check_port_safety(&g, &s).unwrap();
        assert!(v.iter().any(|x| matches!(
            x,
            PortViolation::PortOutOfRange {
                port: 3,
                ports: 2,
                ..
            }
        )));
    }

    #[test]
    fn analysis_errors_are_typed() {
        let g = mem_graph();
        let mut s = Schedule::new(&g, 3);
        assert!(matches!(
            access_bindings(&g, &s),
            Err(MemError::Unscheduled(_))
        ));
        // Bind a load to an ALU: not a port binding.
        s.assign(
            g.node_by_name("x").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        let bank = g.memory().banks()[0].id();
        s.assign(g.node_by_name("y").unwrap(), slot(1, bank, 2));
        s.assign(g.node_by_name("s").unwrap(), slot(2, bank, 1));
        assert!(matches!(
            access_bindings(&g, &s),
            Err(MemError::NotPortBound(_))
        ));
        for e in [
            MemError::Unscheduled(g.node_by_name("x").unwrap()),
            MemError::NotPortBound(g.node_by_name("x").unwrap()),
            MemError::UnknownArray(g.node_by_name("x").unwrap()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn exclusive_branch_arms_share_a_port() {
        let mut b = DfgBuilder::new("g");
        let i = b.input("i");
        let c = b.input("c");
        let bank = b.declare_bank("m", 1);
        let a = b.declare_array("a", 4, bank);
        let _cmp = b.op("cmp", hls_celllib::OpKind::Gt, &[c, i]).unwrap();
        let br = b.begin_branch();
        b.enter_arm(br, 0);
        let t = b.load("t", a, i).unwrap();
        b.exit_arm();
        b.enter_arm(br, 1);
        let e = b.load("e", a, i).unwrap();
        b.exit_arm();
        b.op("z", hls_celllib::OpKind::Add, &[t, e]).unwrap();
        let g = b.finish().unwrap();

        let mut s = Schedule::new(&g, 3);
        s.assign(
            g.node_by_name("cmp").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        s.assign(g.node_by_name("t").unwrap(), slot(2, bank, 1));
        s.assign(g.node_by_name("e").unwrap(), slot(2, bank, 1));
        s.assign(
            g.node_by_name("z").unwrap(),
            Slot {
                step: CStep::new(3),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        // Same port, same step — but mutually exclusive, so legal and
        // pressure 1.
        assert!(check_port_safety(&g, &s).unwrap().is_empty());
        let p = port_pressure(&g, &s).unwrap();
        assert_eq!(p.peak(bank), 1);
    }
}
