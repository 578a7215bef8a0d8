//! Chaining-aware time frames (paper §5.4).
//!
//! With chaining, "ASAP and ALAP schedules (and consequently the
//! mobilities and priorities) are determined based on the given execution
//! time of operations and the length of control step clock (T)". The
//! model is the classic one: an operation may start mid-step after its
//! predecessor if its combinational delay still fits before the step
//! boundary; no operation crosses a boundary mid-flight — if it does not
//! fit, it waits for the next step. Operations slower than the clock
//! period occupy `⌈delay / T⌉` full steps, starting at a boundary.

use hls_celllib::{effective_cycles, ClockPeriod, TimingSpec};
use hls_dfg::{Dfg, NodeId};

use crate::asap_alap::TimeFrames;
use crate::{CStep, ScheduleError};

/// Chaining-aware frames: the usual [`TimeFrames`] plus each node's
/// *effective* cycle count under the clock period (1 for chainable ops,
/// `⌈delay/T⌉` for slow ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedFrames {
    frames: TimeFrames,
    eff_cycles: Vec<u8>,
}

impl ChainedFrames {
    /// The embedded ASAP/ALAP frames.
    pub fn frames(&self) -> &TimeFrames {
        &self.frames
    }

    /// Consumes self, returning the frames.
    pub fn into_frames(self) -> TimeFrames {
        self.frames
    }

    /// Effective cycles of `node` under the clock period.
    pub fn effective_cycles(&self, node: NodeId) -> u8 {
        self.eff_cycles[node.index()]
    }
}

/// Computes chaining-aware ASAP/ALAP frames for `dfg` under `spec` and
/// clock period `clock`, within `cs` control steps.
///
/// ```
/// use hls_celllib::{ClockPeriod, OpKind, TimingSpec};
/// use hls_dfg::DfgBuilder;
/// use hls_schedule::{chained_frames, CStep};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("g");
/// let x = b.input("x");
/// let y = b.input("y");
/// let a = b.op("a", OpKind::Add, &[x, y])?;   // 48 ns
/// let _c = b.op("c", OpKind::Add, &[a, y])?;  // chains: 96 ≤ 100
/// let dfg = b.finish()?;
/// let spec = TimingSpec::with_delays();
/// let fr = chained_frames(&dfg, &spec, ClockPeriod::new(100), 2)?;
/// let c = dfg.node_by_name("c").unwrap();
/// // Both adds fit in step 1 back to back.
/// assert_eq!(fr.frames().asap(c), CStep::new(1));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`ScheduleError::InfeasibleTime`] when even the fully chained critical
/// path does not fit in `cs` steps.
pub fn chained_frames(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: ClockPeriod,
    cs: u32,
) -> Result<ChainedFrames, ScheduleError> {
    let t = clock.as_u32() as u64;
    let n = dfg.node_count();
    let eff_cycles: Vec<u8> = dfg
        .nodes()
        .map(|(_, node)| {
            let kind = node.kind();
            effective_cycles(kind.cycles(spec), kind.delay(spec), Some(clock))
        })
        .collect();

    // Forward pass: earliest finish *time* of each node.
    let mut finish = vec![0u64; n];
    let mut asap = vec![CStep::FIRST; n];
    for &id in dfg.topo_order() {
        let node = dfg.node(id);
        let d = node.kind().delay(spec).as_u32() as u64;
        let cycles = eff_cycles[id.index()] as u64;
        let ready: u64 = dfg
            .preds(id)
            .iter()
            .map(|&p| finish[p.index()])
            .max()
            .unwrap_or(0);
        let (start, end) = if cycles > 1 || d == 0 {
            // Occupies whole steps; start at the next boundary.
            let start = ready.div_ceil(t) * t;
            (start, start + cycles * t)
        } else {
            // Chainable single-cycle op: fit before the boundary or wait.
            let mut start = ready;
            let boundary = (start / t + 1) * t;
            if start + d > boundary {
                start = boundary;
            }
            (start, start + d)
        };
        finish[id.index()] = end;
        asap[id.index()] = CStep::new((start / t) as u32 + 1);
    }

    // Feasibility: latest finish time must fit in cs steps.
    let horizon = cs as u64 * t;
    let worst = finish.iter().copied().max().unwrap_or(0);
    if worst > horizon {
        return Err(ScheduleError::InfeasibleTime {
            needed: worst.div_ceil(t) as u32,
            given: cs,
        });
    }

    // Backward pass: latest start *time* of each node.
    let mut late_start = vec![0u64; n];
    let mut alap = vec![CStep::FIRST; n];
    for &id in dfg.topo_order().iter().rev() {
        let node = dfg.node(id);
        let d = node.kind().delay(spec).as_u32() as u64;
        let cycles = eff_cycles[id.index()] as u64;
        let due: u64 = dfg
            .succs(id)
            .iter()
            .map(|&s| late_start[s.index()])
            .min()
            .unwrap_or(horizon);
        let start = if cycles > 1 || d == 0 {
            // Must start at a boundary and finish (at a boundary) by due.
            let finish_boundary = due / t * t;
            finish_boundary.saturating_sub(cycles * t)
        } else {
            let mut start = due.saturating_sub(d);
            // The op must not cross a step boundary; if ending at `due`
            // would make it straddle one, finish at the last boundary
            // at or before `due` instead (it then fits entirely in the
            // preceding step because d ≤ T).
            let base = start / t * t;
            if start + d > base + t {
                start = (due / t * t).saturating_sub(d);
            }
            start
        };
        late_start[id.index()] = start;
        alap[id.index()] = CStep::new((start / t) as u32 + 1);
    }

    // Guarantee ALAP ≥ ASAP even under the conservative backward pass.
    for i in 0..n {
        if alap[i] < asap[i] {
            alap[i] = asap[i];
        }
    }

    Ok(ChainedFrames {
        frames: TimeFrames::from_parts(cs, asap, alap),
        eff_cycles,
    })
}

impl TimeFrames {
    /// The frames of a run over `cs` steps under an optional chaining
    /// clock: [`chained_frames`] when a clock is given, plain
    /// [`TimeFrames::compute`] otherwise.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InfeasibleTime`] when the (chained) critical
    /// path does not fit in `cs` steps.
    pub fn for_clock(
        dfg: &Dfg,
        spec: &TimingSpec,
        clock: Option<ClockPeriod>,
        cs: u32,
    ) -> Result<TimeFrames, ScheduleError> {
        match clock {
            Some(clock) => Ok(chained_frames(dfg, spec, clock, cs)?.into_frames()),
            None => TimeFrames::compute(dfg, spec, cs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    fn chain_of_adds(len: usize) -> Dfg {
        let mut b = DfgBuilder::new("adds");
        let x = b.input("x");
        let y = b.input("y");
        let mut prev = b.op("a0", OpKind::Add, &[x, y]).unwrap();
        for i in 1..len {
            prev = b.op(&format!("a{i}"), OpKind::Add, &[prev, y]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn two_adds_chain_into_one_step() {
        let g = chain_of_adds(2);
        let spec = TimingSpec::with_delays(); // add = 48
        let fr = chained_frames(&g, &spec, ClockPeriod::new(100), 1).unwrap();
        for n in g.node_ids() {
            assert_eq!(fr.frames().asap(n), CStep::new(1));
        }
    }

    #[test]
    fn third_add_spills_to_the_next_step() {
        let g = chain_of_adds(3);
        let spec = TimingSpec::with_delays();
        let fr = chained_frames(&g, &spec, ClockPeriod::new(100), 2).unwrap();
        let a2 = g.node_by_name("a2").unwrap();
        assert_eq!(fr.frames().asap(a2), CStep::new(2));
    }

    #[test]
    fn infeasible_when_chain_exceeds_budget() {
        let g = chain_of_adds(5); // 240 ns of adds
        let spec = TimingSpec::with_delays();
        let err = chained_frames(&g, &spec, ClockPeriod::new(100), 2).unwrap_err();
        assert!(matches!(err, ScheduleError::InfeasibleTime { .. }));
    }

    #[test]
    fn slow_op_becomes_multicycle() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Mul, &[x, x]).unwrap(); // 163 ns
        b.op("a", OpKind::Add, &[m, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::with_delays();
        let fr = chained_frames(&g, &spec, ClockPeriod::new(100), 3).unwrap();
        let m = g.node_by_name("m").unwrap();
        assert_eq!(fr.effective_cycles(m), 2);
        let a = g.node_by_name("a").unwrap();
        assert_eq!(fr.frames().asap(a), CStep::new(3));
    }

    #[test]
    fn alap_is_never_below_asap() {
        let g = chain_of_adds(4);
        let spec = TimingSpec::with_delays();
        let fr = chained_frames(&g, &spec, ClockPeriod::new(100), 3).unwrap();
        for n in g.node_ids() {
            assert!(fr.frames().alap(n) >= fr.frames().asap(n));
        }
    }

    #[test]
    fn zero_delay_ops_occupy_whole_steps() {
        let g = chain_of_adds(3);
        let spec = TimingSpec::uniform_single_cycle(); // zero delays
        let fr = chained_frames(&g, &spec, ClockPeriod::new(100), 3).unwrap();
        let a2 = g.node_by_name("a2").unwrap();
        assert_eq!(fr.frames().asap(a2), CStep::new(3));
    }
}
