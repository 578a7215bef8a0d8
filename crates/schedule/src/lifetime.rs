//! Signal life spans over control steps (paper §5.8).
//!
//! "We use an expanded version of the activity selection algorithm … the
//! signal with the smallest death time is selected and if it is
//! compatible (no time conflict) with other signals in the register it
//! will be assigned to that register." The *life spans* themselves are
//! algorithm-neutral — they depend only on a (complete) [`Schedule`] —
//! so they live here, in the substrate both MFS and MFSA build on.
//! `hls-rtl` packs them into registers with the left-edge algorithm;
//! [`crate::ScheduleStats`] reports the optimal register count directly
//! via [`peak_live`], which the left-edge packing always meets exactly.

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, SignalId, SignalSource};

use crate::Schedule;

/// The life span of one stored signal: the register is occupied during
/// control steps `[birth, death]`, both inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// The stored signal.
    pub signal: SignalId,
    /// First step the value sits in a register (the step after its
    /// producer finishes; step 1 for primary inputs).
    pub birth: u32,
    /// Last step the value is read.
    pub death: u32,
}

impl Lifetime {
    /// Whether two life spans overlap (cannot share a register).
    pub fn overlaps(&self, other: &Lifetime) -> bool {
        self.birth <= other.death && other.birth <= self.death
    }
}

/// Computes the life span of every signal that needs storage under the
/// given (complete) schedule.
///
/// Rules (documented in `DESIGN.md`):
///
/// * an operation result is born one step after its producer finishes
///   and dies at its last consumer's start step; consumers reading in
///   the producer's own finish step (chaining) read the ALU output
///   directly and do not extend the span;
/// * results nobody consumes (design outputs) are held for one step;
/// * primary inputs are born at step 1 and die at their last consumer
///   (they occupy registers, matching the paper's REG counts);
/// * constants are hardwired and never stored.
///
/// The same function serves the MFS path (via
/// [`crate::ScheduleStats`]) and the MFSA/RTL path (via the register
/// allocator in `hls-rtl`), so the two report identical counts for
/// identical schedules.
pub fn signal_lifetimes(dfg: &Dfg, schedule: &Schedule, spec: &TimingSpec) -> Vec<Lifetime> {
    let mut lifetimes = Vec::new();
    for (sid, sig) in dfg.signals() {
        let consumers = dfg.consumers(sid);
        match sig.source() {
            SignalSource::Constant(_) => {}
            SignalSource::PrimaryInput => {
                let death = consumers
                    .iter()
                    .filter_map(|&c| schedule.start(c))
                    .map(|s| s.get())
                    .max();
                if let Some(death) = death {
                    lifetimes.push(Lifetime {
                        signal: sid,
                        birth: 1,
                        death,
                    });
                }
            }
            SignalSource::Node(producer) => {
                let Some(finish) = schedule.finish(producer, dfg, spec) else {
                    continue;
                };
                let birth = finish.get() + 1;
                let death = consumers
                    .iter()
                    .filter_map(|&c| schedule.start(c))
                    .map(|s| s.get())
                    // Same-step (chained) consumers read the ALU output.
                    .filter(|&s| s > finish.get())
                    .max();
                match death {
                    Some(death) => lifetimes.push(Lifetime {
                        signal: sid,
                        birth,
                        death,
                    }),
                    None if consumers.is_empty() => {
                        // A design output: latch it for one step.
                        lifetimes.push(Lifetime {
                            signal: sid,
                            birth,
                            death: birth,
                        });
                    }
                    None => {} // all consumers chained: no storage
                }
            }
        }
    }
    lifetimes
}

/// The interval-graph lower bound: the peak number of simultaneously
/// live values. Left-edge packing (in `hls-rtl`) always meets it
/// exactly — the property tests assert this — so this *is* the register
/// count of an optimally packed schedule.
///
/// A sweep over a difference array (one `+1` at each birth, one `-1`
/// after each death): O(spans + steps). Spans born after they die are
/// never live and count nowhere.
pub fn peak_live(lifetimes: &[Lifetime]) -> usize {
    let max_step = lifetimes.iter().map(|l| l.death).max().unwrap_or(0) as usize;
    let mut delta = vec![0i64; max_step + 2];
    for l in lifetimes {
        let birth = l.birth.max(1) as usize;
        if birth <= l.death as usize {
            delta[birth] += 1;
            delta[l.death as usize + 1] -= 1;
        }
    }
    let mut live = 0i64;
    let mut peak = 0i64;
    for d in &delta[1..=max_step] {
        live += d;
        peak = peak.max(live);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CStep, FuIndex, Slot, UnitId};
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    fn life(signal_stub: SignalId, birth: u32, death: u32) -> Lifetime {
        Lifetime {
            signal: signal_stub,
            birth,
            death,
        }
    }

    fn schedule_linear(dfg: &Dfg, steps: &[(&str, u32)]) -> Schedule {
        let mut s = Schedule::new(dfg, steps.iter().map(|&(_, t)| t).max().unwrap_or(1));
        for &(name, t) in steps {
            let id = dfg.node_by_name(name).unwrap();
            s.assign(
                id,
                Slot {
                    step: CStep::new(t),
                    unit: UnitId::Fu {
                        class: dfg.node(id).kind().fu_class(),
                        index: FuIndex::new(1),
                    },
                },
            );
        }
        s
    }

    #[test]
    fn lifetimes_span_producer_to_last_consumer() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let p = b.op("p", OpKind::Inc, &[x]).unwrap();
        b.op("q", OpKind::Dec, &[p]).unwrap();
        b.op("r", OpKind::Neg, &[p]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let s = schedule_linear(&g, &[("p", 1), ("q", 2), ("r", 4)]);
        let lifetimes = signal_lifetimes(&g, &s, &spec);
        let p_sig = g.signal_by_name("p").unwrap();
        let p_life = lifetimes.iter().find(|l| l.signal == p_sig).unwrap();
        assert_eq!((p_life.birth, p_life.death), (2, 4));
        // Primary input x: born at 1, dies at its only consumer (step 1).
        let x_life = lifetimes.iter().find(|l| l.signal == x).unwrap();
        assert_eq!((x_life.birth, x_life.death), (1, 1));
    }

    #[test]
    fn constants_are_never_stored() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let k = b.constant("k", 3);
        b.op("p", OpKind::Add, &[x, k]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let s = schedule_linear(&g, &[("p", 1)]);
        let lifetimes = signal_lifetimes(&g, &s, &spec);
        assert!(lifetimes.iter().all(|l| l.signal != k));
    }

    #[test]
    fn outputs_are_latched_one_step() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("p", OpKind::Inc, &[x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let s = schedule_linear(&g, &[("p", 2)]);
        let lifetimes = signal_lifetimes(&g, &s, &spec);
        let p_sig = g.signal_by_name("p").unwrap();
        let p_life = lifetimes.iter().find(|l| l.signal == p_sig).unwrap();
        assert_eq!((p_life.birth, p_life.death), (3, 3));
    }

    #[test]
    fn multicycle_producers_delay_the_birth() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Mul, &[x, x]).unwrap();
        b.op("a", OpKind::Add, &[m, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let s = schedule_linear(&g, &[("m", 1), ("a", 4)]);
        let lifetimes = signal_lifetimes(&g, &s, &spec);
        let m_sig = g.signal_by_name("m").unwrap();
        let m_life = lifetimes.iter().find(|l| l.signal == m_sig).unwrap();
        // mul finishes at step 2 → born at 3.
        assert_eq!((m_life.birth, m_life.death), (3, 4));
    }

    #[test]
    fn overlap_predicate() {
        let mut b = DfgBuilder::new("stub");
        let s0 = b.input("s0");
        let s1 = b.input("s1");
        assert!(life(s0, 1, 3).overlaps(&life(s1, 3, 5)));
        assert!(!life(s0, 1, 2).overlaps(&life(s1, 3, 5)));
    }

    /// The per-step count the sweep replaced, kept as the oracle.
    fn peak_live_by_step(lifetimes: &[Lifetime]) -> usize {
        let max_step = lifetimes.iter().map(|l| l.death).max().unwrap_or(0);
        (1..=max_step)
            .map(|step| {
                lifetimes
                    .iter()
                    .filter(|l| l.birth <= step && step <= l.death)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    proptest::proptest! {
        /// The sweep agrees with counting every step, including spans
        /// born at step 0 and spans born after they die.
        #[test]
        fn peak_live_sweep_matches_the_per_step_count(
            spans in proptest::collection::vec((0u32..9, 0u32..9), 0..40),
        ) {
            let mut b = DfgBuilder::new("stub");
            let s = b.input("s");
            let lifetimes: Vec<Lifetime> =
                spans.iter().map(|&(birth, death)| life(s, birth, death)).collect();
            proptest::prop_assert_eq!(peak_live(&lifetimes), peak_live_by_step(&lifetimes));
        }
    }

    #[test]
    fn peak_live_counts_overlap() {
        let mut b = DfgBuilder::new("stub");
        let ids: Vec<SignalId> = (0..3).map(|i| b.input(&format!("s{i}"))).collect();
        let lifetimes = [life(ids[0], 1, 2), life(ids[1], 3, 4), life(ids[2], 2, 3)];
        assert_eq!(peak_live(&lifetimes), 2);
        assert_eq!(peak_live(&[]), 0);
    }
}
