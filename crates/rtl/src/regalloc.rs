//! Register allocation (paper §5.8).
//!
//! "We use an expanded version of the activity selection algorithm … a
//! greedy algorithm capable of finding the best solution for one register
//! in Θ(m) … the signal with the smallest death time is selected and if
//! it is compatible (no time conflict) with other signals in the register
//! it will be assigned to that register" — i.e. the left-edge algorithm
//! of REAL, which is optimal for interval graphs.
//!
//! The life spans themselves ([`Lifetime`], [`signal_lifetimes`],
//! [`peak_live`]) live in `hls-schedule` so that [`ScheduleStats`]'s
//! register counting and this allocator share one definition; they are
//! re-exported here for compatibility.
//!
//! [`ScheduleStats`]: hls_schedule::ScheduleStats

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hls_dfg::SignalId;

pub use hls_schedule::{peak_live, signal_lifetimes, Lifetime};

use crate::RegId;

/// A register allocation: which signals share which register.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegAllocation {
    /// Signals per register, in allocation order.
    registers: Vec<Vec<Lifetime>>,
    /// The register of each stored signal, indexed by
    /// [`SignalId::index`] (up to the highest stored signal).
    reg_of: Vec<Option<RegId>>,
}

impl RegAllocation {
    /// Number of registers used.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// The register holding `signal`, if it is stored at all.
    pub fn register_of(&self, signal: SignalId) -> Option<RegId> {
        self.reg_of.get(signal.index()).copied().flatten()
    }

    /// The life spans packed into register `reg`.
    pub fn contents(&self, reg: RegId) -> &[Lifetime] {
        &self.registers[reg.0 as usize]
    }

    /// Iterates `(register, life spans)`.
    pub fn iter(&self) -> impl Iterator<Item = (RegId, &[Lifetime])> {
        self.registers
            .iter()
            .enumerate()
            .map(|(i, l)| (RegId(i as u32), l.as_slice()))
    }
}

/// Left-edge register allocation: sorts life spans by birth and greedily
/// packs each into the first (lowest-numbered) register whose previous
/// occupant has died. Optimal for interval lifetimes: the register count
/// equals the peak number of simultaneously live values.
///
/// Runs in O(n log n): busy registers wait in a min-heap keyed by
/// `(death, register)`, and those whose occupant died before the
/// current birth move to a min-heap of free registers. Births ascend,
/// so a register free for one span stays free for every later one, and
/// the free heap's minimum is exactly the register a first-fit scan
/// over all registers would pick.
pub fn left_edge(lifetimes: &[Lifetime]) -> RegAllocation {
    let mut sorted: Vec<Lifetime> = lifetimes.to_vec();
    sorted.sort_by_key(|l| (l.birth, l.death, l.signal));
    let mut registers: Vec<Vec<Lifetime>> = Vec::new();
    let signals = lifetimes.iter().map(|l| l.signal.index() + 1).max();
    let mut reg_of = vec![None; signals.unwrap_or(0)];
    let mut busy: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    for life in sorted {
        while let Some(&Reverse((death, reg))) = busy.peek() {
            if death >= life.birth {
                break;
            }
            busy.pop();
            free.push(Reverse(reg));
        }
        let reg = match free.pop() {
            Some(Reverse(reg)) => reg,
            None => {
                registers.push(Vec::new());
                registers.len() as u32 - 1
            }
        };
        registers[reg as usize].push(life);
        reg_of[life.signal.index()] = Some(RegId(reg));
        busy.push(Reverse((life.death, reg)));
    }
    RegAllocation { registers, reg_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_dfg::DfgBuilder;
    use proptest::prelude::*;

    /// The first-fit scan the heap allocator replaced: each span, in
    /// `(birth, death, signal)` order, goes to the lowest-numbered
    /// register whose last occupant died before its birth. O(spans ×
    /// registers); kept as the oracle.
    fn first_fit(lifetimes: &[Lifetime]) -> Vec<Vec<Lifetime>> {
        let mut sorted = lifetimes.to_vec();
        sorted.sort_by_key(|l| (l.birth, l.death, l.signal));
        let mut registers: Vec<Vec<Lifetime>> = Vec::new();
        for life in sorted {
            match registers
                .iter_mut()
                .find(|reg| reg.last().is_none_or(|prev| prev.death < life.birth))
            {
                Some(reg) => reg.push(life),
                None => registers.push(vec![life]),
            }
        }
        registers
    }

    proptest! {
        /// The heap allocator must hand out exactly the registers of the
        /// first-fit scan. Births and lengths come from small ranges, so
        /// spans tie on birth, on death and on both; `rotate` varies
        /// which signal (the last sort key) each span gets.
        #[test]
        fn heap_left_edge_matches_the_first_fit_scan(
            spans in proptest::collection::vec((1u32..7, 0u32..4), 0..48),
            rotate in 0usize..48,
        ) {
            let mut b = DfgBuilder::new("stub");
            let ids: Vec<SignalId> = (0..48).map(|i| b.input(&format!("s{i}"))).collect();
            let lifetimes: Vec<Lifetime> = spans
                .iter()
                .enumerate()
                .map(|(i, &(birth, len))| life(ids[(i + rotate) % ids.len()], birth, birth + len))
                .collect();
            let alloc = left_edge(&lifetimes);
            let want = first_fit(&lifetimes);
            let got: Vec<Vec<Lifetime>> = alloc.iter().map(|(_, spans)| spans.to_vec()).collect();
            prop_assert_eq!(&got, &want);
            for (reg, spans) in alloc.iter() {
                for l in spans {
                    prop_assert_eq!(alloc.register_of(l.signal), Some(reg));
                }
            }
            prop_assert_eq!(alloc.register_count(), peak_live(&lifetimes));
        }
    }

    fn life(signal_stub: SignalId, birth: u32, death: u32) -> Lifetime {
        Lifetime {
            signal: signal_stub,
            birth,
            death,
        }
    }

    #[test]
    fn left_edge_packs_disjoint_lifetimes() {
        let mut b = DfgBuilder::new("stub");
        let ids: Vec<SignalId> = (0..3).map(|i| b.input(&format!("s{i}"))).collect();
        let lifetimes = [life(ids[0], 1, 2), life(ids[1], 3, 4), life(ids[2], 2, 3)];
        let alloc = left_edge(&lifetimes);
        assert_eq!(alloc.register_count(), 2);
        assert_eq!(alloc.register_count(), peak_live(&lifetimes));
        // s0 and s1 share a register (1–2 then 3–4).
        assert_eq!(alloc.register_of(ids[0]), alloc.register_of(ids[1]));
        assert_ne!(alloc.register_of(ids[0]), alloc.register_of(ids[2]));
    }

    #[test]
    fn left_edge_matches_peak_on_heavy_overlap() {
        let mut b = DfgBuilder::new("stub");
        let ids: Vec<SignalId> = (0..4).map(|i| b.input(&format!("s{i}"))).collect();
        let lifetimes: Vec<Lifetime> = ids.iter().map(|&s| life(s, 1, 5)).collect();
        let alloc = left_edge(&lifetimes);
        assert_eq!(alloc.register_count(), 4);
        assert_eq!(peak_live(&lifetimes), 4);
    }
}
