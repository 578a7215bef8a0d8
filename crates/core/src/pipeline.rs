//! Structural and functional pipelining drivers (paper §5.5).

use std::collections::{BTreeMap, BTreeSet};

use hls_celllib::{OpKind, TimingSpec};
use hls_dfg::transform::{duplicate_instances, expand_structural_stages, StageExpansion};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{CStep, Schedule, Slot};
use hls_telemetry::Instrument;

use crate::mfs::{self, MfsConfig, MfsOutcome};
use crate::MoveFrameError;

/// Structural pipelining (§5.5.1): expands multi-cycle operations with
/// pipelined implementations into per-stage single-cycle nodes, then
/// runs MFS. Returns the expanded graph (ids differ from the input!),
/// the expansion report and the outcome. The expansion is timed as the
/// `mfs.stage_expansion` phase span and the inner run is
/// [`mfs::schedule_traced`] on the same `instr`.
///
/// Once expanded, "different stages of pipelined operations can be
/// concurrent but must be scheduled in consecutive control steps" — the
/// stage nodes' dependency chain plus the per-stage FU classes enforce
/// exactly that, and two operations may overlap on one physical
/// pipelined unit because they occupy *different* stages.
///
/// # Errors
///
/// Propagates graph and scheduling errors from the expansion and MFS.
pub fn schedule_structural(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsConfig,
    pipelined: &BTreeSet<OpKind>,
    instr: &mut Instrument<'_>,
) -> Result<(Dfg, StageExpansion, MfsOutcome), MoveFrameError> {
    let (expanded, report) = instr.span("mfs.stage_expansion", |_| {
        expand_structural_stages(dfg, spec, pipelined)
    })?;
    let outcome = mfs::schedule_traced(&expanded, spec, config, instr)?;
    Ok((expanded, report, outcome))
}

/// Folds the per-stage FU counts of a structurally pipelined schedule
/// back into whole pipelined units: a k-stage multiplier exists once per
/// `max` over its stage classes.
pub fn pipelined_fu_counts(outcome: &MfsOutcome) -> BTreeMap<FuClass, u32> {
    let mut merged: BTreeMap<FuClass, u32> = BTreeMap::new();
    for (class, count) in outcome.fu_counts() {
        let key = match class {
            FuClass::Stage { base, .. } => FuClass::Op(base),
            other => other,
        };
        let entry = merged.entry(key).or_insert(0);
        *entry = (*entry).max(count);
    }
    merged
}

/// The result of the paper's two-instance functional-pipelining
/// procedure (§5.5.2).
#[derive(Debug, Clone)]
pub struct TwoInstanceOutcome {
    /// `DFG_double`: two disjoint instances of the loop body.
    pub doubled: Dfg,
    /// A schedule of `DFG_double` over `cs + latency` steps in which the
    /// two instances are identical, offset by the latency.
    pub doubled_schedule: Schedule,
    /// The underlying single-instance (modulo-latency) outcome.
    pub kernel: MfsOutcome,
    /// The §5.5.2 partition boundary `⌈(cs + L) / 2⌉`.
    pub partition_boundary: u32,
    /// The initiation interval.
    pub latency: u32,
}

impl TwoInstanceOutcome {
    /// Per-class unit counts of the pipelined kernel.
    pub fn fu_counts(&self) -> BTreeMap<FuClass, u32> {
        self.kernel.fu_counts()
    }
}

/// Functional pipelining by the paper's two-instance construction.
///
/// The paper builds `DFG_double` (two instances, `L` cycles apart),
/// partitions it at `d = ⌈(cs+L)/2⌉`, schedules partition 1, *adjusts*
/// the result so both instances are identical, and schedules the rest.
/// The defining post-conditions are: (a) both instances run the same
/// schedule offset by `L`, and (b) no resource conflict anywhere in the
/// overlap — which is precisely a modulo-`L` schedule of the single
/// body ("operations scheduled into control step `t + k·L` run
/// concurrently"). This driver therefore schedules the body once on
/// wrap-around grids (the kernel) and *derives* the identical-instance
/// double schedule from it; the partition boundary is reported for
/// comparison with the paper's construction, and the resulting double
/// schedule is exactly what steps 1–5 produce when they succeed.
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
/// use hls_dfg::DfgBuilder;
/// use moveframe::pipeline::schedule_two_instance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DfgBuilder::new("body");
/// let x = b.input("x");
/// let t = b.op("t", OpKind::Mul, &[x, x])?;
/// let _u = b.op("u", OpKind::Add, &[t, x])?;
/// let body = b.finish()?;
/// let spec = TimingSpec::uniform_single_cycle();
/// let out = schedule_two_instance(&body, &spec, 2, 1)?;
/// assert_eq!(out.partition_boundary, 2); // ⌈(2+1)/2⌉
/// assert!(out.doubled_schedule.is_complete());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`MoveFrameError::InvalidLatency`] when `latency` is zero or exceeds
/// `cs`; otherwise propagates MFS errors on the wrapped kernel.
pub fn schedule_two_instance(
    dfg: &Dfg,
    spec: &TimingSpec,
    cs: u32,
    latency: u32,
) -> Result<TwoInstanceOutcome, MoveFrameError> {
    if latency == 0 || latency > cs {
        return Err(MoveFrameError::InvalidLatency { latency, cs });
    }
    // Step "kernel": modulo-L schedule of the single body.
    let config = MfsConfig::time_constrained(cs).with_latency(latency);
    let kernel = mfs::schedule(dfg, spec, &config)?;

    // Steps 1–5 equivalent: materialise DFG_double and mirror.
    let (doubled, instances) = duplicate_instances(dfg, 2)?;
    let mut doubled_schedule = Schedule::new(&doubled, cs + latency);
    let topo: Vec<NodeId> = dfg.topo_order().to_vec();
    for (copy_index, copy) in instances.iter().enumerate() {
        let offset = copy_index as u32 * latency;
        for (orig, &new_id) in topo.iter().zip(&copy.nodes) {
            let slot = kernel.schedule.slot(*orig).expect("kernel is complete");
            doubled_schedule.assign(
                new_id,
                Slot {
                    step: CStep::new(slot.step.get() + offset),
                    unit: slot.unit,
                },
            );
        }
    }

    Ok(TwoInstanceOutcome {
        doubled,
        doubled_schedule,
        kernel,
        partition_boundary: (cs + latency).div_ceil(2),
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_dfg::DfgBuilder;
    use hls_schedule::{verify, VerifyOptions};
    use hls_telemetry::{Metrics, NullSink};

    fn filter_body() -> Dfg {
        // A small filter-ish body: 2 multiplies into 2 adds.
        let mut b = DfgBuilder::new("body");
        let x = b.input("x");
        let c1 = b.constant("c1", 3);
        let c2 = b.constant("c2", 5);
        let m1 = b.op("m1", OpKind::Mul, &[x, c1]).unwrap();
        let m2 = b.op("m2", OpKind::Mul, &[x, c2]).unwrap();
        let a1 = b.op("a1", OpKind::Add, &[m1, m2]).unwrap();
        b.op("a2", OpKind::Add, &[a1, x]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn two_instance_schedule_is_conflict_free_and_identical() {
        let body = filter_body();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule_two_instance(&body, &spec, 3, 1).unwrap();
        // The doubled schedule must verify with explicit instances (no
        // latency option: overlaps are materialised).
        let v = verify(
            &out.doubled,
            &out.doubled_schedule,
            &spec,
            VerifyOptions::default(),
        );
        assert!(v.is_empty(), "{v:?}");
        // Instances identical, offset by L.
        for (_, node) in out.doubled.nodes() {
            if let Some(base) = node.name().strip_suffix("@2") {
                let orig = out.doubled.node_by_name(base).unwrap();
                let here = out.doubled.node_by_name(node.name()).unwrap();
                let t0 = out.doubled_schedule.start(orig).unwrap().get();
                let t1 = out.doubled_schedule.start(here).unwrap().get();
                assert_eq!(t1, t0 + out.latency);
            }
        }
    }

    #[test]
    fn lower_latency_needs_more_units() {
        let body = filter_body();
        let spec = TimingSpec::uniform_single_cycle();
        let relaxed = schedule_two_instance(&body, &spec, 4, 4).unwrap();
        let tight = schedule_two_instance(&body, &spec, 4, 1).unwrap();
        let units = |o: &TwoInstanceOutcome| o.fu_counts().values().sum::<u32>();
        assert!(units(&tight) >= units(&relaxed));
        // Latency 1 folds every step together: with 2 multiplies, at
        // least 2 multipliers.
        assert!(tight.fu_counts()[&FuClass::Op(OpKind::Mul)] >= 2);
    }

    #[test]
    fn invalid_latency_is_rejected() {
        let body = filter_body();
        let spec = TimingSpec::uniform_single_cycle();
        assert!(matches!(
            schedule_two_instance(&body, &spec, 3, 0),
            Err(MoveFrameError::InvalidLatency { .. })
        ));
        assert!(matches!(
            schedule_two_instance(&body, &spec, 3, 4),
            Err(MoveFrameError::InvalidLatency { .. })
        ));
    }

    #[test]
    fn structural_pipelining_keeps_stage_pairs_adjacent() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m1 = b.op("m1", OpKind::Mul, &[x, x]).unwrap();
        b.op("m2", OpKind::Mul, &[m1, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let config = MfsConfig::time_constrained(4);
        let (expanded, report, outcome) = schedule_structural(
            &g,
            &spec,
            &config,
            &[OpKind::Mul].into_iter().collect(),
            &mut Instrument::new(&mut NullSink, &mut Metrics::new()),
        )
        .unwrap();
        assert_eq!(report.count(), 2);
        let v = verify(
            &expanded,
            &outcome.schedule,
            &spec,
            VerifyOptions::default(),
        );
        assert!(v.is_empty(), "{v:?}");
        let merged = pipelined_fu_counts(&outcome);
        assert_eq!(merged[&FuClass::Op(OpKind::Mul)], 1);
    }

    #[test]
    fn pipelined_unit_overlaps_independent_ops() {
        // 3 independent 2-cycle multiplies in 4 steps: non-pipelined
        // needs 2 multipliers; one pipelined multiplier suffices.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..3 {
            b.op(&format!("m{i}"), OpKind::Mul, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let plain = mfs::schedule(&g, &spec, &MfsConfig::time_constrained(4)).unwrap();
        assert_eq!(plain.fu_counts()[&FuClass::Op(OpKind::Mul)], 2);
        let (_, _, piped) = schedule_structural(
            &g,
            &spec,
            &MfsConfig::time_constrained(4),
            &[OpKind::Mul].into_iter().collect(),
            &mut Instrument::new(&mut NullSink, &mut Metrics::new()),
        )
        .unwrap();
        assert_eq!(pipelined_fu_counts(&piped)[&FuClass::Op(OpKind::Mul)], 1);
    }
}
