//! The MFSA move loop (paper §4.2), searched as a pruned
//! branch-and-bound over the Liapunov lower bound.
//!
//! Each operation's feasible steps are visited in ascending order,
//! which is ascending order of their `f_TIME` lower bound; an incumbent
//! best candidate then cuts (a) every remaining step at once (the bound
//! is monotone in the step), (b) a step after its exact register term
//! is known, and (c) individual hosts — ALU instances or bank ports —
//! after their exact ALU term is known but *before* the mux term is
//! priced. Every cut compares the
//! candidate's best-case tie-break tuple against the incumbent's full
//! tuple, so only candidates that provably lose are skipped — the
//! committed schedule is bit-identical to the unpruned search, which
//! survives as [`super::ExhaustiveMfsa`] and differentials this loop in
//! `tests/mfsa_prune_differential.rs`.
//!
//! Within a step, only the hosts that can win are visited: a bank's
//! lowest free port; among the ALU instances, each *acquaintance* (an
//! instance carrying one of the op's mux lines, priced off its
//! committed packing) and, per stranger bucket of the
//! [`InstancePool`], its lowest free member — every other stranger in
//! the bucket has the same key but a higher instance number, so it is
//! *dominated* and never bounded one at a time.

use hls_celllib::{Library, OpKind, TimingSpec};
use hls_dfg::{BankId, Dfg, FuClass, NodeId, NodeKind, SignalId, SignalSource};
use hls_rtl::muxopt::{pack_cost_ids, MuxOp, PackScratch};
use hls_rtl::{AluAllocation, CostReport, Datapath};
use hls_schedule::{priority_order, CStep, FuIndex, Grid, Schedule, Slot, TimeFrames, UnitId};

use hls_telemetry::{Histogram, Instrument, Metrics, NullSink, TraceEvent};

use crate::frame::Placement;
use crate::mfsa::cost::{CostModel, RegEstimate};
use crate::mfsa::pool::{clear_bit, has_bit, members, popcount, set_bit, InstancePool};
use crate::mfsa::{DesignStyle, MfsaConfig};
use crate::MoveFrameError;

/// One scheduling-allocation decision, for inspection and the ablation
/// harness (recorded when [`MfsaConfig::with_trace`] is set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationTrace {
    /// The placed operation.
    pub node: NodeId,
    /// The chosen control step.
    pub step: CStep,
    /// The chosen ALU instance, 0-based; for a memory access, the
    /// chosen port of its bank, 1-based.
    pub instance: u32,
    /// Whether the instance was created (or upgraded) for this op.
    pub new_instance: bool,
    /// The Liapunov terms of the chosen position.
    pub f_time: u64,
    /// Incremental ALU term.
    pub f_alu: u64,
    /// Incremental multiplexer term.
    pub f_mux: u64,
    /// Incremental register term.
    pub f_reg: u64,
}

impl IterationTrace {
    /// The full Liapunov contribution of this decision.
    pub fn f_total(&self) -> u64 {
        self.f_time + self.f_alu + self.f_mux + self.f_reg
    }
}

/// The result of an MFSA run: schedule, allocation, assembled data path
/// and its cost report.
#[derive(Debug, Clone)]
pub struct MfsaOutcome {
    /// The complete schedule (every unit an [`UnitId::Alu`]).
    pub schedule: Schedule,
    /// Instance → ALU-kind allocation.
    pub allocation: AluAllocation,
    /// The derived RTL structure.
    pub datapath: Datapath,
    /// Its Table-2 cost report.
    pub cost: CostReport,
    /// The ASAP/ALAP frames of the run.
    pub frames: TimeFrames,
    /// Per-iteration decisions (empty unless tracing was enabled).
    pub trace: Vec<IterationTrace>,
}

/// One scored candidate position.
#[derive(Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) step: CStep,
    /// Existing instance index, or `None` for a new instance.
    pub(crate) instance: Option<usize>,
    /// Kind the instance will have after the move (new kind for
    /// creations and upgrades; unchanged for plain reuse).
    pub(crate) kind_index: usize,
    pub(crate) f_time: u64,
    pub(crate) f_alu: u64,
    pub(crate) f_mux: u64,
    pub(crate) f_reg: u64,
    /// 0 = reuse, 1 = upgrade, 2 = new (tie-break order).
    pub(crate) flavour: u8,
}

impl Candidate {
    pub(crate) fn total(&self) -> u64 {
        self.f_time + self.f_alu + self.f_mux + self.f_reg
    }
}

/// The full tie-break key: candidates are compared lexicographically on
/// `(energy, step, flavour, instance, kind)` and the incumbent is only
/// replaced on a strict win.
type CandidateKey = (u64, CStep, u8, usize, usize);

fn candidate_key(c: &Candidate) -> CandidateKey {
    (
        c.total(),
        c.step,
        c.flavour,
        c.instance.unwrap_or(usize::MAX),
        c.kind_index,
    )
}

/// Whether a candidate set whose *best-case* key is `bound` can be cut:
/// each component of a real candidate's key is ≥ the corresponding
/// bound component, so the real key is lexicographically ≥ `bound`, and
/// `bound ≥ incumbent` proves every such candidate loses the strict-`<`
/// tie-break. With no incumbent nothing is cut.
fn cut(best: &Option<Candidate>, bound: CandidateKey) -> bool {
    best.as_ref().is_some_and(|b| bound >= candidate_key(b))
}

fn consider(best: &mut Option<Candidate>, c: Candidate) {
    let better = match best {
        None => true,
        Some(b) => candidate_key(&c) < candidate_key(b),
    };
    if better {
        *best = Some(c);
    }
}

/// Step-invariant ALU-level terms of a reuse/upgrade candidate for one
/// instance: `(kind after the move, f_ALU, flavour)`, or `None` when
/// no superset kind exists. This is the cheap half of a candidate — the
/// mux-repacking delta is priced only for acquaintances whose
/// ALU-level bound survives the incumbent cut.
type AluCost = Option<(usize, u64, u8)>;

/// The ALU-level candidate terms of one op kind, which depend only on
/// the library, the weights and (for reuse/upgrade) the instance's
/// current kind — so each is computed once per run instead of once per
/// (node, instance).
struct OpKindTerms {
    op: OpKind,
    /// Reuse/upgrade terms indexed by the instance's current kind,
    /// filled on first use (`None` = not yet computed).
    upgrade: Vec<Option<AluCost>>,
    /// `(kind, f_ALU)` of every kind a new instance could take.
    fresh: Vec<(usize, u64)>,
}

impl OpKindTerms {
    fn new(library: &Library, model: &CostModel, op: OpKind) -> OpKindTerms {
        let fresh = library
            .alus()
            .iter()
            .enumerate()
            .filter(|(_, k)| k.supports(op))
            .map(|(kind_index, k)| (kind_index, model.f_alu(k.area())))
            .collect();
        OpKindTerms {
            op,
            upgrade: vec![None; library.alus().len()],
            fresh,
        }
    }

    /// Reuse/upgrade terms for an instance of kind `cur_index`: the kind
    /// itself at `f_ALU = 0` when it supports the op, else the cheapest
    /// superset kind (ties towards the lower index) at the area
    /// difference, else `None`.
    fn upgrade(&mut self, library: &Library, model: &CostModel, cur_index: usize) -> AluCost {
        let op = self.op;
        *self.upgrade[cur_index].get_or_insert_with(|| {
            let cur = &library.alus()[cur_index];
            if cur.supports(op) {
                return Some((cur_index, 0, 0));
            }
            library
                .alus()
                .iter()
                .enumerate()
                .filter(|(_, k)| k.supports(op) && cur.ops().all(|o| k.supports(o)))
                .min_by_key(|(idx, k)| (k.area(), *idx))
                .map(|(kind_index, kind)| {
                    (
                        kind_index,
                        model.f_alu(kind.area().saturating_sub(cur.area())),
                        1,
                    )
                })
        })
    }
}

/// The move loop's counters, tallied locally and flushed into the
/// instrument once per run (on the error paths too), so an op costs no
/// string-keyed registry lookup. Each flushed counter exists exactly
/// when the per-op recording of the same values would have created it.
#[derive(Default)]
struct Tally {
    /// Dependency-feasible steps inside the frames.
    feasible_steps: u64,
    /// Steps whose candidates were actually examined.
    expanded_steps: u64,
    /// Steps cut by the bound — wholesale drains of the remaining steps
    /// plus per-step register-bound cuts. `expanded + cut == feasible`,
    /// always.
    cut_steps: u64,
    /// The candidate universe of the expanded steps: every free host
    /// the op may take (unrelated ALU instances of a usable kind, or
    /// bank ports) plus every fresh kind. `bound_evals == energy_evals
    /// + cut_instances + dominated`, always.
    bound_evals: u64,
    /// Bounded candidates cut before full scoring.
    cut_instances: u64,
    /// Free hosts never bounded because a lower-numbered host of the
    /// same stranger bucket (or bank) has the same key but wins the
    /// instance tie-break.
    dominated: u64,
    /// Fully scored candidates.
    energy_evals: u64,
    /// Fully scored candidates per op.
    candidates: Histogram,
    /// Whether an ALU op was searched (the mux memo counters exist).
    alu_searched: bool,
    /// Mux-delta memo reads and fills (one fill per (op,
    /// acquaintance)).
    memo_hits: u64,
    memo_fills: u64,
    /// Fills priced from the instance's seed without a repack, and
    /// fills that repacked.
    insert_hits: u64,
    insert_fallbacks: u64,
    /// Committed moves: all, onto bank ports, and by ALU flavour.
    moves: u64,
    mem_moves: u64,
    reuse_moves: u64,
    upgrade_moves: u64,
    new_instances: u64,
}

impl Tally {
    fn flush(&self, instr: &mut Instrument<'_>) {
        if self.candidates.count() > 0 {
            instr.inc("mfsa.steps.feasible", self.feasible_steps);
            instr.inc("mfsa.steps.expanded", self.expanded_steps);
            instr.inc("mfsa.prune.cut_steps", self.cut_steps);
            instr.inc("mfsa.bound.evals", self.bound_evals);
            instr.inc("mfsa.prune.cut_instances", self.cut_instances);
            instr.inc("mfsa.prune.dominated", self.dominated);
            instr.inc("mfsa.energy_evaluations", self.energy_evals);
            instr.merge_histogram("mfsa.candidates", &self.candidates);
        }
        if self.alu_searched {
            instr.inc("mfsa.reuse_memo.hits", self.memo_hits);
            instr.inc("mfsa.reuse_memo.fills", self.memo_fills);
            instr.inc("mfsa.reuse_memo.insert_hits", self.insert_hits);
            instr.inc("mfsa.reuse_memo.insert_fallbacks", self.insert_fallbacks);
        }
        for (name, n) in [
            ("mfsa.moves_committed", self.moves),
            ("mfsa.mem_moves", self.mem_moves),
            ("mfsa.reuse_moves", self.reuse_moves),
            ("mfsa.upgrade_moves", self.upgrade_moves),
            ("mfsa.new_instances", self.new_instances),
        ] {
            if n > 0 {
                instr.inc(name, n);
            }
        }
    }
}

/// One op's incumbent search: the best candidate so far, and the
/// candidates fully scored, each reported as an `EnergyEvaluated`
/// event.
struct Search<'s, 'i> {
    best: Option<Candidate>,
    scored: u64,
    instr: &'s mut Instrument<'i>,
    op: u32,
    /// The 1-based number a new instance would get.
    next_instance: u32,
}

impl Search<'_, '_> {
    /// Whether every candidate whose best-case key is `bound` loses.
    fn cut(&self, bound: CandidateKey) -> bool {
        cut(&self.best, bound)
    }

    /// Bounds a candidate whose key is exact: cut when it cannot win,
    /// else scored.
    fn offer(&mut self, c: Candidate, tally: &mut Tally) {
        if self.cut(candidate_key(&c)) {
            tally.cut_instances += 1;
        } else {
            self.score(c);
        }
    }

    /// Scores a candidate that survived its bound.
    fn score(&mut self, c: Candidate) {
        self.scored += 1;
        if self.instr.enabled() {
            let host = c.instance.map_or(self.next_instance, |i| i as u32 + 1);
            self.instr.emit(TraceEvent::EnergyEvaluated {
                op: self.op,
                pos: (host, c.step.get()),
                v: c.total(),
            });
        }
        consider(&mut self.best, c);
    }
}

/// An acquaintance of the scanning op: an unrelated instance that
/// carries one of the op's mux lines.
struct Acquaintance {
    instance: usize,
    /// Priced on the first step its bound survives: the seed's answer
    /// for the op ([`PackSeed::price`](hls_rtl::muxopt::PackSeed::price),
    /// `None` when it declined) and the f_MUX delta.
    priced: Option<(PriceAnswer, u64)>,
}

/// What [`PackSeed::price`](hls_rtl::muxopt::PackSeed::price) answers:
/// the widths after the op and its orientation, or `None`.
type PriceAnswer = Option<((usize, usize), bool)>;

/// An ALU op's view of the existing instances while it scans its frame
/// (the pool is frozen until it commits). The buffers are reused from
/// op to op; filling them costs O(acquaintances + the op's degree).
struct AluScan<'m> {
    model: &'m CostModel,
    mux_op: MuxOp<u32>,
    /// The op kind's reuse/upgrade terms, by instance kind (`None` for
    /// a kind no instance has).
    upgrade: Vec<AluCost>,
    acquaintances: Vec<Acquaintance>,
    acquainted: Vec<u64>,
    /// Instances hosting a predecessor or successor of the op, which
    /// style 2 ([`DesignStyle::NoSelfLoop`]) bars.
    related: Vec<usize>,
    related_set: Vec<u64>,
}

impl<'m> AluScan<'m> {
    fn new(model: &'m CostModel) -> AluScan<'m> {
        AluScan {
            model,
            mux_op: MuxOp {
                left: 0,
                right: None,
                commutative: false,
            },
            upgrade: Vec::new(),
            acquaintances: Vec::new(),
            acquainted: Vec::new(),
            related: Vec::new(),
            related_set: Vec::new(),
        }
    }

    /// Sets the scan up for `mux_op` of an op with kind terms `terms`
    /// on `pool`; `related` names the barred instances. `terms` must
    /// hold the terms of every kind some instance has, as
    /// [`InstancePool::kind_mask`] leaves them.
    fn prepare(
        &mut self,
        pool: &InstancePool<'_>,
        mux_op: MuxOp<u32>,
        terms: &OpKindTerms,
        related: impl IntoIterator<Item = usize>,
    ) {
        for a in self.acquaintances.drain(..) {
            clear_bit(&mut self.acquainted, a.instance);
        }
        for i in self.related.drain(..) {
            clear_bit(&mut self.related_set, i);
        }
        self.acquainted.resize(pool.words(), 0);
        self.related_set.resize(pool.words(), 0);
        self.mux_op = mux_op;
        self.upgrade.clear();
        self.upgrade
            .extend(terms.upgrade.iter().map(|u| u.flatten()));

        for i in related {
            if !has_bit(&self.related_set, i) {
                set_bit(&mut self.related_set, i);
                self.related.push(i);
            }
        }
        let right = mux_op.right.filter(|&r| r != mux_op.left);
        for line in [Some(mux_op.left), right].into_iter().flatten() {
            for i in pool.carriers(line) {
                if !has_bit(&self.acquainted, i) && !has_bit(&self.related_set, i) {
                    set_bit(&mut self.acquainted, i);
                    self.acquaintances.push(Acquaintance {
                        instance: i,
                        priced: None,
                    });
                }
            }
        }
    }

    /// The seed's answer for the op on instance `i`, when the scan
    /// priced it.
    fn answer(&self, i: usize) -> Option<PriceAnswer> {
        let a = self.acquaintances.iter().find(|a| a.instance == i)?;
        a.priced.map(|(answer, _)| answer)
    }

    /// Bounds, cuts and scores the instance candidates among `free` at
    /// the step of `at` (a candidate carrying the step's `f_TIME` and
    /// `f_REG`): every free acquaintance, then the strangers bucket by
    /// bucket. A bucket's members share every key component but the
    /// instance, so a bucket whose best case is cut is cut whole, and
    /// otherwise only its lowest free member is offered: the others are
    /// dominated. Acquaintances come first because the cheapest host is
    /// usually one that already carries the op's lines, and its key
    /// then cuts most buckets without a scan.
    fn step(
        &mut self,
        pool: &InstancePool<'_>,
        free: &[u64],
        at: Candidate,
        scratch: &mut PackScratch,
        search: &mut Search<'_, '_>,
        tally: &mut Tally,
    ) {
        let related = self.related.iter().filter(|&&i| has_bit(free, i)).count();
        let universe = popcount(free) - related;
        tally.bound_evals += universe as u64;
        let mut strangers = universe;

        for a in &mut self.acquaintances {
            let i = a.instance;
            if !has_bit(free, i) {
                continue;
            }
            // Free hosts are of a usable kind.
            strangers -= 1;
            let host = &pool.instances[i];
            let (kind_index, f_alu, flavour) =
                self.upgrade[host.kind_index].expect("free hosts are usable");
            // (c) Instance-level cut: everything but the mux term is
            // exact here, so the bound is the candidate's own key
            // minus f_MUX ≥ 0.
            if search.cut((at.total() + f_alu, at.step, flavour, i, kind_index)) {
                tally.cut_instances += 1;
                continue;
            }
            // The mux delta, step-invariant but the dearest term:
            // priced off the committed seed when it can answer.
            let f_mux = match a.priced {
                Some((_, f_mux)) => {
                    tally.memo_hits += 1;
                    f_mux
                }
                None => {
                    tally.memo_fills += 1;
                    let answer = host.seed.price(&host.mux_ops, &self.mux_op);
                    let after = match answer {
                        Some((after, _)) => {
                            tally.insert_hits += 1;
                            after
                        }
                        None => {
                            tally.insert_fallbacks += 1;
                            pack_cost_ids(&host.mux_ops, self.mux_op, scratch)
                        }
                    };
                    let f_mux = self.model.f_mux_delta(host.seed.cost(), after);
                    a.priced = Some((answer, f_mux));
                    f_mux
                }
            };
            search.score(Candidate {
                instance: Some(i),
                kind_index,
                f_alu,
                f_mux,
                flavour,
                ..at
            });
        }

        let binary = usize::from(self.mux_op.right.is_some());
        for (bucket, set) in pool.buckets() {
            let Some((kind_index, f_alu, flavour)) = self.upgrade[bucket.kind] else {
                continue;
            };
            let f_mux = bucket.f_mux[binary];
            if search.cut((at.total() + f_alu + f_mux, at.step, flavour, 0, 0)) {
                continue;
            }
            // The bucket's free strangers: its lowest one and how many.
            let (mut first, mut members) = (None, 0);
            for (w, (((&b, &f), &a), &r)) in set
                .iter()
                .zip(free)
                .zip(&self.acquainted)
                .zip(&self.related_set)
                .enumerate()
            {
                let word = b & f & !a & !r;
                if word != 0 {
                    first = first.or(Some(64 * w + word.trailing_zeros() as usize));
                    members += word.count_ones() as usize;
                }
            }
            let Some(i) = first else {
                continue;
            };
            strangers -= members;
            tally.dominated += members as u64 - 1;
            search.offer(
                Candidate {
                    instance: Some(i),
                    kind_index,
                    f_alu,
                    f_mux,
                    flavour,
                    ..at
                },
                tally,
            );
        }
        // The members of the buckets cut whole.
        tally.cut_instances += strangers as u64;
    }
}

/// The hosts of one op's frame scan, each a column of a placement
/// grid: the ports of a memory access's bank, whose candidates cost only
/// time and registers, or the ALU instances, priced with the op's mux
/// line and kind terms and joined by fresh instances.
enum Hosts<'a> {
    Ports(BankId),
    Alus {
        mux_op: MuxOp<u32>,
        terms: &'a OpKindTerms,
        /// f_MUX of the op on a fresh instance.
        fresh_mux: u64,
    },
}

/// Runs Move Frame Scheduling-Allocation on `dfg` under `spec` and
/// `config`.
///
/// Each operation, in priority order, is offered every feasible
/// `(control step, ALU)` position inside its move frame, where the ALU
/// may be an existing compatible instance (`f_ALU = 0`), an existing
/// instance *upgraded* to a multifunction kind covering its current
/// operations plus the new one (`f_ALU =` the area difference — this is
/// how function merging "can significantly decrease the overall ALU
/// cost", §2.3), or a fresh instance of any capable kind
/// (`f_ALU =` its area). The dynamic Liapunov function picks the
/// cheapest position; ties break towards earlier steps, reuse before
/// upgrade before creation, then lower instance numbers.
///
/// # Errors
///
/// * [`MoveFrameError::Schedule`] — infeasible time constraint;
/// * [`MoveFrameError::NoCapableAlu`] — the library cannot perform some
///   operation;
/// * [`MoveFrameError::NoPosition`] — no dependency-feasible step exists
///   (only possible for adversarial partial orders);
/// * [`MoveFrameError::Dfg`] — folded loop bodies must be scheduled
///   hierarchically (see [`crate::loops`]), not passed to MFSA.
pub fn schedule(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsaConfig,
) -> Result<MfsaOutcome, MoveFrameError> {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    schedule_traced(
        dfg,
        spec,
        config,
        &mut Instrument::new(&mut sink, &mut metrics),
    )
}

/// [`schedule`] with instrumentation: phase spans, counters and (when
/// the sink is enabled) per-candidate trace events flow into `instr`.
///
/// Event conventions (see `hls-telemetry`):
///
/// * `EnergyEvaluated` — one per *fully scored* candidate, `pos =
///   (instance or port, step)` 1-based (a new instance gets the next
///   free number) and `v` the dynamic `f_TIME + f_ALU + f_MUX + f_REG`.
///   Candidates cut by the branch-and-bound, and hosts dominated
///   within their stranger bucket, emit no event — each provably
///   loses, so the committed moves (and every `v` actually emitted)
///   are identical to the exhaustive search's;
/// * `MoveCommitted` — the winning candidate; `from`/`system_v` are
///   `None` (MFSA moves operations out of a conceptual unplaced pool, so
///   there is no prior grid cell and the dynamic terms are incremental).
///
/// Counters split committed moves by flavour (`mfsa.reuse_moves`,
/// `mfsa.upgrade_moves`, `mfsa.new_instances` — the §2.3 function-merging
/// signal), and the `mfsa.candidates` histogram records how many
/// positions each operation was actually scored at.
///
/// The branch-and-bound search is accounted exactly by six counters:
/// `mfsa.steps.feasible == mfsa.steps.expanded + mfsa.prune.cut_steps`
/// (every dependency-feasible step is either expanded or cut) and
/// `mfsa.bound.evals == mfsa.energy_evaluations +
/// mfsa.prune.cut_instances + mfsa.prune.dominated` (every candidate of
/// an expanded step is fully scored, cut by its bound, or dominated by
/// its bucket's representative). Both invariants are enforced per run
/// by `tests/mfsa_prune_differential.rs`.
///
/// Instrumentation is write-only: the returned outcome is bit-identical
/// to [`schedule`]'s for any sink.
///
/// # Errors
///
/// As for [`schedule`].
pub fn schedule_traced(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsaConfig,
    instr: &mut Instrument<'_>,
) -> Result<MfsaOutcome, MoveFrameError> {
    let cs = config.control_steps();
    let library = config.library();
    config.cancel().checkpoint()?;

    for (id, node) in dfg.nodes() {
        if matches!(node.kind(), NodeKind::LoopBody { .. }) {
            return Err(MoveFrameError::Dfg(hls_dfg::DfgError::EmptyLoop(
                match node.kind() {
                    NodeKind::LoopBody { loop_id, .. } => loop_id,
                    _ => unreachable!(),
                },
            )));
        }
        // Memory accesses run on bank ports declared in the graph, not
        // on library ALUs — no capability check applies.
        if node.kind().is_mem_access() {
            continue;
        }
        let op = base_op(dfg, id);
        if library.alus_supporting(op).next().is_none() {
            return Err(MoveFrameError::NoCapableAlu { node: id });
        }
    }

    let frames = instr.span("mfsa.frames", |_| {
        TimeFrames::for_clock(dfg, spec, config.clock(), cs)
    })?;
    let order = instr.span("mfsa.priority", |_| priority_order(dfg, spec, &frames));
    let model = CostModel::new(library, config.weights());

    let mut placement = Placement::new(dfg, spec, config.clock(), frames);
    let mut trace = Vec::new();
    let mut tally = Tally::default();

    // The move loop's working state — the instance pool with its
    // buckets and carrier lists included — is declared inside the
    // span, so it is freed before the data path is built.
    let kinds = instr.span("mfsa.move_loop", |instr| {
        let mut kind_terms: Vec<Option<OpKindTerms>> = OpKind::ALL.iter().map(|_| None).collect();
        // Mux lines are dense ids: a stored or external signal is its
        // signal index, and the shared result path of ALU instance `n`
        // is `signals + n`. This is the `EstSource` line identity
        // (External and Signal never name the same signal), so packing
        // ids takes the decisions packing `EstSource`s takes — the
        // exhaustive oracle still prices the latter.
        let signals = dfg.signal_count();
        let line_ids = signals + dfg.node_count();
        assert!(u32::try_from(line_ids).is_ok(), "mux line ids fit in u32");
        let mut mux_scratch = PackScratch::new(line_ids);
        let mut pool = InstancePool::new(library.alus().len(), line_ids, &model);
        let mut scan = AluScan::new(&model);
        // The columns an op's hosts may take, before any step narrows
        // them.
        let mut host_mask: Vec<u64> = Vec::new();
        // The columns one grid query leaves free at one step.
        let mut free: Vec<u64> = Vec::new();
        // Occupancy on the run's latency wrap: one grid whose columns
        // are the ALU instances (at most one per op), and one per bank
        // whose columns are its ports.
        let grid = |columns: u32| {
            let grid = Grid::new(cs, columns.max(1));
            match config.latency() {
                Some(l) => grid.with_latency(l),
                None => grid,
            }
        };
        let alu_ops = dfg
            .node_ids()
            .filter(|&n| !dfg.node(n).kind().is_mem_access())
            .count();
        let mut alus = grid(alu_ops as u32);
        let mut port_grids: Vec<Grid> = dfg
            .memory()
            .banks()
            .iter()
            .map(|b| grid(b.ports()))
            .collect();
        let mut reg_est = RegEstimate::new();
        let mut extensions = Vec::new();

        for node in order {
            config.cancel().checkpoint()?;

            let kind = dfg.node(node).kind();
            let mut search = Search {
                best: None,
                scored: 0,
                instr: &mut *instr,
                op: node.index() as u32,
                next_instance: pool.instances.len() as u32 + 1,
            };

            let cycles = placement.cycles(node);
            let sched = placement.schedule();
            // What the op can run on, and their columns in `host_mask`:
            // every port of a memory access's bank, or the instances of
            // a kind that can host an ALU op by reuse or upgrade (the
            // instance state is frozen while this node scans its frame).
            let hosts = match kind.fu_class() {
                FuClass::Mem(bank) => {
                    host_mask.clear();
                    host_mask.resize((dfg.bank_ports(bank) as usize).div_ceil(64), !0);
                    Hosts::Ports(bank)
                }
                _ => {
                    tally.alu_searched = true;
                    let op = base_op(dfg, node);
                    let commutative = match kind {
                        NodeKind::Op(k) => k.is_commutative(),
                        NodeKind::Stage { base, index, .. } => index == 0 && base.is_commutative(),
                        _ => unreachable!("loops rejected above, mem accesses have a Mem class"),
                    };
                    // Operand lines for the f_MUX estimate (independent
                    // of the candidate position in this model).
                    let line = |sig: SignalId| -> u32 {
                        let id = match dfg.signal(sig).source() {
                            SignalSource::Node(p) if config.shares_interconnect() => {
                                match sched.slot(p).map(|s| s.unit) {
                                    Some(UnitId::Alu { instance }) => signals + instance as usize,
                                    _ => sig.index(),
                                }
                            }
                            _ => sig.index(),
                        };
                        id as u32
                    };
                    let inputs = dfg.node(node).inputs();
                    let mux_op = MuxOp {
                        left: line(inputs[0]),
                        right: inputs.get(1).map(|&s| line(s)),
                        commutative,
                    };
                    let terms = kind_terms[op as usize]
                        .get_or_insert_with(|| OpKindTerms::new(library, &model, op));
                    pool.kind_mask(
                        |k| terms.upgrade(library, &model, k).is_some(),
                        &mut host_mask,
                    );
                    // Style 2 bars the instances of the op's
                    // predecessors and successors.
                    let related = (config.style() == DesignStyle::NoSelfLoop)
                        .then(|| dfg.preds(node).iter().chain(dfg.succs(node)))
                        .into_iter()
                        .flatten()
                        .filter_map(|&p| match sched.slot(p)?.unit {
                            UnitId::Alu { instance } => Some(instance as usize),
                            UnitId::Fu { .. } => None,
                        });
                    scan.prepare(&pool, mux_op, terms, related);
                    let fresh_mux =
                        model.f_mux_delta((0, 0), pack_cost_ids(&[], mux_op, &mut mux_scratch));
                    Hosts::Alus {
                        mux_op,
                        terms,
                        fresh_mux,
                    }
                }
            };
            let grid = match hosts {
                Hosts::Ports(bank) => &port_grids[bank.index()],
                Hosts::Alus { .. } => &alus,
            };

            // Feasible steps in ascending order, which is the order of
            // their f_TIME lower bound (non-decreasing in the step).
            // The winner is the least key of all candidates, whatever
            // order they are visited in: keys are a total order, and a
            // cut skips only candidates whose key is above the
            // incumbent's.
            let mut steps = placement.feasible_steps(node);
            while let Some(step) = steps.next() {
                tally.feasible_steps += 1;
                let f_time = model.lower_bound(step.get(), 0);
                // (a) Wholesale cut: every remaining step bounds ≥ this
                // one's, so once the best case at the cheapest remaining
                // step cannot beat the incumbent, nothing left can.
                if search.cut((f_time, step, 0, 0, 0)) {
                    let left = steps.count() as u64;
                    tally.feasible_steps += left;
                    tally.cut_steps += 1 + left;
                    break;
                }
                reg_extensions(dfg, sched, spec, node, step, &mut extensions);
                let f_reg = model.f_reg(
                    reg_est
                        .count_with(&extensions)
                        .saturating_sub(reg_est.count()),
                );
                // (b) Step-level cut with the exact register term folded
                // into the bound.
                if search.cut((model.lower_bound(step.get(), f_reg), step, 0, 0, 0)) {
                    tally.cut_steps += 1;
                    continue;
                }
                tally.expanded_steps += 1;
                free.clone_from(&host_mask);
                grid.retain_free(dfg, node, step, cycles, &mut free);
                let at = Candidate {
                    step,
                    instance: None,
                    kind_index: 0,
                    f_time,
                    f_alu: 0,
                    f_mux: 0,
                    f_reg,
                    flavour: 0,
                };
                match &hosts {
                    // The free ports form one bucket: a port is free
                    // hardware once the bank exists, so they differ
                    // only in their number and the lowest wins.
                    Hosts::Ports(_) => {
                        let ports = popcount(&free);
                        tally.bound_evals += ports as u64;
                        if let Some(port) = members(&free).next() {
                            tally.dominated += ports as u64 - 1;
                            search.offer(
                                Candidate {
                                    instance: Some(port),
                                    ..at
                                },
                                &mut tally,
                            );
                        }
                    }
                    Hosts::Alus {
                        terms, fresh_mux, ..
                    } => {
                        scan.step(&pool, &free, at, &mut mux_scratch, &mut search, &mut tally);
                        // New instances of every capable kind. The
                        // fresh mux cost is precomputed, so the bound is
                        // the exact key.
                        for &(kind_index, f_alu) in &terms.fresh {
                            tally.bound_evals += 1;
                            search.offer(
                                Candidate {
                                    kind_index,
                                    f_alu,
                                    f_mux: *fresh_mux,
                                    flavour: 2,
                                    ..at
                                },
                                &mut tally,
                            );
                        }
                    }
                }
            }

            let Search { best, scored, .. } = search;
            tally.energy_evals += scored;
            tally.candidates.observe(scored);
            let Some(chosen) = best else {
                return Err(MoveFrameError::NoPosition {
                    node,
                    class: kind.fu_class(),
                    max_fu: match hosts {
                        Hosts::Ports(bank) => dfg.bank_ports(bank),
                        Hosts::Alus { .. } => pool.instances.len() as u32,
                    },
                });
            };

            // Commit the move onto its host's grid column.
            let (unit, column) = match hosts {
                Hosts::Ports(bank) => {
                    let index = FuIndex::new(chosen.instance.expect("a port exists") as u32 + 1);
                    port_grids[bank.index()].occupy(dfg, node, chosen.step, index, cycles);
                    tally.mem_moves += 1;
                    let class = FuClass::Mem(bank);
                    (UnitId::Fu { class, index }, index.get())
                }
                Hosts::Alus { mux_op, .. } => {
                    let answer = chosen.instance.and_then(|i| scan.answer(i));
                    let i = pool.commit(
                        chosen.instance,
                        chosen.kind_index,
                        mux_op,
                        answer,
                        &mut mux_scratch,
                    );
                    let column = i as u32 + 1;
                    alus.occupy(dfg, node, chosen.step, FuIndex::new(column), cycles);
                    match chosen.flavour {
                        0 => tally.reuse_moves += 1,
                        1 => tally.upgrade_moves += 1,
                        _ => tally.new_instances += 1,
                    }
                    (UnitId::Alu { instance: i as u32 }, column)
                }
            };
            placement.assign(
                node,
                Slot {
                    step: chosen.step,
                    unit,
                },
            );
            reg_extensions(
                dfg,
                placement.schedule(),
                spec,
                node,
                chosen.step,
                &mut extensions,
            );
            reg_est.commit(&extensions);
            tally.moves += 1;
            if instr.enabled() {
                instr.emit(TraceEvent::MoveCommitted {
                    op: node.index() as u32,
                    from: None,
                    to: (column, chosen.step.get()),
                    v: chosen.total(),
                    system_v: None,
                });
            }
            if config.records_trace() {
                trace.push(IterationTrace {
                    node,
                    step: chosen.step,
                    // A port keeps its 1-based number, an instance its
                    // 0-based index.
                    instance: match unit {
                        UnitId::Alu { instance } => instance,
                        UnitId::Fu { .. } => column,
                    },
                    new_instance: chosen.flavour != 0,
                    f_time: chosen.f_time,
                    f_alu: chosen.f_alu,
                    f_mux: chosen.f_mux,
                    f_reg: chosen.f_reg,
                });
            }
        }
        Ok(pool.into_kinds())
    });
    tally.flush(instr);
    let kinds = kinds?;

    // Assemble the data path.
    config.cancel().checkpoint()?;
    let (sched, frames) = placement.into_parts();
    let mut allocation = AluAllocation::new();
    for kind_index in kinds {
        allocation.push(library.alus()[kind_index].clone());
    }
    let (datapath, cost) = instr.span("mfsa.datapath", |_| {
        let datapath = Datapath::build(dfg, &sched, &allocation, spec)
            .expect("MFSA produces structurally sound bindings");
        let cost = CostReport::compute(&datapath, library);
        (datapath, cost)
    });

    Ok(MfsaOutcome {
        schedule: sched,
        allocation,
        datapath,
        cost,
        frames,
        trace,
    })
}

/// The operator an ALU must support to execute `node`.
pub(crate) fn base_op(dfg: &Dfg, node: NodeId) -> hls_celllib::OpKind {
    match dfg.node(node).kind() {
        NodeKind::Op(k) => k,
        NodeKind::Stage { base, .. } => base,
        _ => unreachable!("loops and mem accesses never reach base_op"),
    }
}

/// The register-span extensions placing `node` at `step` would cause
/// (inputs only, per §4.1), written into `out`.
pub(crate) fn reg_extensions(
    dfg: &Dfg,
    sched: &Schedule,
    spec: &TimingSpec,
    node: NodeId,
    step: CStep,
    out: &mut Vec<(SignalId, u32, u32)>,
) {
    out.clear();
    for &sig in dfg.node(node).inputs() {
        match dfg.signal(sig).source() {
            SignalSource::Constant(_) => {}
            SignalSource::PrimaryInput => out.push((sig, 1, step.get())),
            SignalSource::Node(p) => {
                if let Some(p_finish) = sched.finish(p, dfg, spec) {
                    if step > p_finish {
                        out.push((sig, p_finish.get() + 1, step.get()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mfsa::exhaustive::{occupy, unit_free, Occupants};
    use crate::mfsa::Weights;
    use hls_celllib::{Library, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_rtl::verify_datapath;
    use hls_schedule::{verify, VerifyOptions};

    fn assert_sound(dfg: &Dfg, spec: &TimingSpec, out: &MfsaOutcome, opts: VerifyOptions) {
        let v = verify(dfg, &out.schedule, spec, opts);
        assert!(v.is_empty(), "schedule violations: {v:?}");
        let rv = verify_datapath(dfg, &out.schedule, &out.datapath, spec);
        assert!(rv.is_empty(), "datapath violations: {rv:?}");
    }

    fn add_sub_chain() -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op("a", OpKind::Add, &[x, y]).unwrap();
        b.op("s", OpKind::Sub, &[a, y]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn merges_add_and_sub_into_one_multifunction_alu() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like();
        let out = schedule(&g, &spec, &MfsaConfig::new(2, lib.clone())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        // Upgrading (+) to (+-) costs ~350 vs a fresh (-) at 2330: the
        // Liapunov function must merge.
        assert_eq!(out.allocation.len(), 1);
        assert_eq!(out.datapath.alu_signature(), "(+-)");
        let merged = lib.alu_by_name("add_sub").unwrap().area();
        assert_eq!(out.cost.alu_area, merged);
    }

    #[test]
    fn parallel_ops_get_parallel_alus() {
        // Two independent adds forced into one step need two ALUs.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a1", OpKind::Add, &[x, x]).unwrap();
        b.op("a2", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(1, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 2);
    }

    #[test]
    fn sequential_same_type_ops_reuse_one_alu() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a = b.op("a1", OpKind::Add, &[x, x]).unwrap();
        let c = b.op("a2", OpKind::Add, &[a, x]).unwrap();
        b.op("a3", OpKind::Add, &[c, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(3, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 1);
        assert_eq!(out.datapath.alu_signature(), "(+)");
    }

    #[test]
    fn style2_forbids_dependent_ops_on_one_alu() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsaConfig::new(2, Library::ncr_like()).with_style(DesignStyle::NoSelfLoop);
        let out = schedule(&g, &spec, &config).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        // a feeds s, so they may not share an ALU: two instances.
        assert_eq!(out.allocation.len(), 2);
    }

    #[test]
    fn style2_costs_at_least_style1() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like();
        let s1 = schedule(&g, &spec, &MfsaConfig::new(2, lib.clone())).unwrap();
        let s2 = schedule(
            &g,
            &spec,
            &MfsaConfig::new(2, lib).with_style(DesignStyle::NoSelfLoop),
        )
        .unwrap();
        assert!(s2.cost.total() >= s1.cost.total());
    }

    #[test]
    fn earlier_steps_win_when_free() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("only", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(5, Library::ncr_like())).unwrap();
        let only = g.node_by_name("only").unwrap();
        assert_eq!(out.schedule.start(only), Some(CStep::new(1)));
    }

    #[test]
    fn zero_time_weight_trades_steps_for_area() {
        // Two independent adds, cs = 2. With w_TIME = 1 both land in
        // step 1 on two ALUs; with w_TIME = 0 the second add reuses the
        // single ALU in step 2.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a1", OpKind::Add, &[x, x]).unwrap();
        b.op("a2", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like();
        let fast = schedule(&g, &spec, &MfsaConfig::new(2, lib.clone())).unwrap();
        assert_eq!(fast.allocation.len(), 2);
        let cheap = schedule(
            &g,
            &spec,
            &MfsaConfig::new(2, lib).with_weights(Weights {
                time: 0,
                alu: 1,
                mux: 1,
                reg: 1,
            }),
        )
        .unwrap();
        assert_eq!(cheap.allocation.len(), 1);
        assert!(cheap.cost.alu_area < fast.cost.alu_area);
    }

    #[test]
    fn trace_records_monotone_liapunov_terms() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsaConfig::new(2, Library::ncr_like()).with_trace();
        let out = schedule(&g, &spec, &config).unwrap();
        assert_eq!(out.trace.len(), 2);
        for t in &out.trace {
            assert!(t.f_total() >= t.f_time);
        }
    }

    #[test]
    fn restricted_library_errors_on_unsupported_ops() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like().restricted(|a| !a.supports(OpKind::Sub));
        let config = MfsaConfig::new(2, lib);
        assert!(matches!(
            schedule(&g, &spec, &config),
            Err(MoveFrameError::NoCapableAlu { .. })
        ));
    }

    #[test]
    fn multicycle_ops_hold_their_alu() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("m1", OpKind::Mul, &[x, x]).unwrap();
        b.op("m2", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        // cs = 2: both multiplies overlap, so two multiplier ALUs.
        let out = schedule(&g, &spec, &MfsaConfig::new(2, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 2);
        // cs = 4: sequential reuse of one multiplier is cheaper.
        let out = schedule(&g, &spec, &MfsaConfig::new(4, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 2, "time term still dominates");
        // With w_TIME = 0 the cost term forces reuse.
        let cheap = schedule(
            &g,
            &spec,
            &MfsaConfig::new(4, Library::ncr_like()).with_weights(Weights {
                time: 0,
                alu: 1,
                mux: 1,
                reg: 1,
            }),
        )
        .unwrap();
        assert_sound(&g, &spec, &cheap, VerifyOptions::default());
        assert_eq!(cheap.allocation.len(), 1);
    }

    #[test]
    fn mutually_exclusive_ops_share_an_alu_in_one_step() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        b.op("e", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(1, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 1);
    }

    /// A graph scripted by `(action, kind)` pairs: adds, subtracts,
    /// multiplies and loads from the two-port bank `m`, some inside the
    /// arms of branches nested up to three deep, whose ops exclude the
    /// other arm's.
    fn scripted_graph(script: &[(u8, u8)]) -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let bank = b.declare_bank("m", 2);
        let array = b.declare_array("a", 8, bank);
        // Open branches with the arm each is in.
        let mut open = Vec::new();
        for (i, &(action, kind)) in script.iter().enumerate() {
            match action % 5 {
                0 if open.len() < 3 => {
                    let branch = b.begin_branch();
                    b.enter_arm(branch, 0);
                    open.push((branch, 0));
                }
                1 => {
                    if let Some((branch, arm)) = open.last_mut().filter(|(_, arm)| *arm == 0) {
                        b.exit_arm();
                        *arm = 1;
                        b.enter_arm(*branch, 1);
                    }
                }
                2 => {
                    if open.pop().is_some() {
                        b.exit_arm();
                    }
                }
                _ => {
                    let name = format!("n{i}");
                    match kind % 4 {
                        3 => b.load(&name, array, x).unwrap(),
                        k => {
                            let op = [OpKind::Add, OpKind::Sub, OpKind::Mul][k as usize];
                            b.op(&name, op, &[x, y]).unwrap()
                        }
                    };
                }
            }
        }
        for _ in open {
            b.exit_arm();
        }
        b.op("last", OpKind::Add, &[x, y]).unwrap();
        b.finish().unwrap()
    }

    proptest::proptest! {
        /// The hosts the move loop walks at a step — the op's usable
        /// kinds narrowed by one query of the instance grid — must be
        /// exactly the instances the oracle's per-instance probe
        /// accepts, in the same ascending order, so every tie-break and
        /// counter of the loop is the exhaustive search's. Likewise a
        /// bank's free ports against a per-port probe. The pool and
        /// grids are driven through random instance creations, kind
        /// changes and occupations of 1–3 cycles (shared cells of ops
        /// in opposite arms included) past 64 instances, with and
        /// without a latency that wraps the steps.
        #[test]
        fn grid_hosts_match_the_unit_probe(
            script in proptest::collection::vec((0u8..=255, 0u8..=255), 1..30),
            actions in proptest::collection::vec(
                (0u8..8, 0usize..1 << 16, 0u32..6, 1u8..=3), 30..90),
            first in 65usize..100,
            latency in 0u32..3,
        ) {
            let g = scripted_graph(&script);
            let cs = 6u32;
            let latency = [None, Some(2), Some(3)][latency as usize];
            let wrap = |step: u32| latency.map_or(step, |l| (step - 1) % l + 1);
            let grid = |columns| match latency {
                Some(l) => Grid::new(cs, columns).with_latency(l),
                None => Grid::new(cs, columns),
            };
            let (alu_nodes, loads): (Vec<NodeId>, Vec<NodeId>) =
                g.node_ids().partition(|&n| !g.node(n).kind().is_mem_access());
            let lib = Library::ncr_like();
            let kinds = lib.alus().len();
            let model = CostModel::new(&lib, Weights::default());
            // The usable kinds of each op kind, and of every kind.
            let usable: Vec<Vec<usize>> = [OpKind::Add, OpKind::Sub, OpKind::Mul]
                .into_iter()
                .map(|op| {
                    let mut terms = OpKindTerms::new(&lib, &model, op);
                    (0..kinds).filter(|&k| terms.upgrade(&lib, &model, k).is_some()).collect()
                })
                .chain([(0..kinds).collect()])
                .collect();

            let mut pool = InstancePool::new(kinds, 1, &model);
            // The pool commits a one-line op to add or retag an
            // instance; only kinds matter here.
            let mut scratch = PackScratch::new(1);
            let unary = MuxOp { left: 0, right: None, commutative: false };
            let mut alus = grid(256);
            let mut ports = grid(2);
            let (mut busy, mut port_busy): (Vec<Occupants>, Vec<Occupants>) =
                (Vec::new(), vec![Occupants::new(); 2]);
            for i in 0..first {
                pool.commit(None, i % kinds, unary, None, &mut scratch);
                busy.push(Occupants::new());
            }
            let (mut mask, mut free) = (Vec::new(), Vec::new());
            let last = actions.len() - 1;
            for (n, &(action, pick, step, cycles)) in actions.iter().enumerate() {
                let step = CStep::new(1 + step);
                let fits = step.finish(cycles).get() <= cs;
                match action {
                    0 => {
                        pool.commit(None, pick % kinds, unary, None, &mut scratch);
                        busy.push(Occupants::new());
                    }
                    1 => {
                        let i = pick % pool.instances.len();
                        pool.commit(Some(i), (pick >> 8) % kinds, unary, None, &mut scratch);
                    }
                    2 if fits && !loads.is_empty() => {
                        let node = loads[pick % loads.len()];
                        if ports.placement(node).is_none() {
                            let port = (pick >> 8) % 2;
                            ports.occupy(&g, node, step, FuIndex::new(port as u32 + 1), cycles);
                            occupy(&mut port_busy[port], node, step, cycles, &wrap);
                        }
                    }
                    _ if fits => {
                        let node = alu_nodes[pick % alu_nodes.len()];
                        let i = (pick >> 6) % pool.instances.len();
                        if alus.placement(node).is_none() {
                            alus.occupy(&g, node, step, FuIndex::new(i as u32 + 1), cycles);
                            occupy(&mut busy[i], node, step, cycles, &wrap);
                        }
                    }
                    _ => {}
                }
                // One op per action for one kind set, every op for every
                // set at the end.
                let (sets, ops, mem) = if n == last {
                    (&usable[..], &alu_nodes[..], &loads[..])
                } else {
                    let one = |nodes: &[NodeId]| {
                        let i = (pick >> 3) % nodes.len().max(1);
                        i..(i + 1).min(nodes.len())
                    };
                    let set = pick % usable.len();
                    (&usable[set..=set], &alu_nodes[one(&alu_nodes)], &loads[one(&loads)])
                };
                for kinds in sets {
                    pool.kind_mask(|k| kinds.contains(&k), &mut mask);
                    for &node in ops {
                        for step in (1..=cs).map(CStep::new) {
                            for cycles in (1..=3).filter(|&c| step.finish(c).get() <= cs) {
                                free.clone_from(&mask);
                                alus.retain_free(&g, node, step, cycles, &mut free);
                                let probe: Vec<usize> = (0..pool.instances.len())
                                    .filter(|&i| {
                                        kinds.contains(&pool.instances[i].kind_index)
                                            && unit_free(&busy[i], &g, node, step, cycles, &wrap)
                                    })
                                    .collect();
                                proptest::prop_assert_eq!(
                                    members(&free).collect::<Vec<_>>(),
                                    probe,
                                    "{:?} at {:?} for {}",
                                    node,
                                    step,
                                    cycles
                                );
                            }
                        }
                    }
                }
                for &node in mem {
                    for step in (1..=cs).map(CStep::new) {
                        for cycles in (1..=3).filter(|&c| step.finish(c).get() <= cs) {
                            free.clear();
                            free.push(!0);
                            ports.retain_free(&g, node, step, cycles, &mut free);
                            let probe: Vec<usize> = (0..2)
                                .filter(|&p| unit_free(&port_busy[p], &g, node, step, cycles, &wrap))
                                .collect();
                            proptest::prop_assert_eq!(members(&free).collect::<Vec<_>>(), probe);
                        }
                    }
                }
            }
            proptest::prop_assert!(pool.instances.len() > 64, "the hosts span several words");
        }

        /// The host the move loop picks at a step — each free
        /// acquaintance priced, one representative per stranger bucket —
        /// is the argmin of the per-instance walk that prices every free,
        /// unrelated instance off its seed (or a cold repack when the
        /// seed declines), against any incumbent. The pool mixes kinds,
        /// grows some instances past the class cap, and spans more than
        /// 64 instances; ops are unary or binary, commutative or fixed;
        /// style 2 bars a random related set; and the grid may wrap at
        /// a latency. Every free host is scored, cut or dominated.
        #[test]
        fn bucket_pick_matches_the_instance_walk(
            script in proptest::collection::vec((0u8..=255, 0u8..=255), 1..20),
            commits in proptest::collection::vec((0usize..1 << 16, 0u32..24, 0u32..24, 0u8..4), 150..400),
            busy in proptest::collection::vec((0usize..1 << 16, 0u32..6, 1u8..=3), 0..40),
            queries in proptest::collection::vec(
                (0usize..1 << 16, 0u32..24, 0u32..24, 0u8..4, 0u32..6, 0u64..4), 1..24),
            first in 65usize..160,
            latency in 0u32..3,
            style in 0u8..2,
        ) {
            let g = scripted_graph(&script);
            let cs = 6u32;
            let grid = |columns| match [None, Some(2), Some(3)][latency as usize] {
                Some(l) => Grid::new(cs, columns).with_latency(l),
                None => Grid::new(cs, columns),
            };
            let alu_nodes: Vec<NodeId> =
                g.node_ids().filter(|&n| !g.node(n).kind().is_mem_access()).collect();
            let lib = Library::ncr_like();
            // A few kinds, so buckets hold many instances each.
            let some_kinds: Vec<usize> = ["add", "sub", "add_sub", "mul", "add_sub_mul"]
                .iter()
                .map(|name| lib.alus().iter().position(|k| k.name() == *name).unwrap())
                .collect();
            let model = CostModel::new(&lib, Weights::default());
            let cap = model.flat_mux_width();
            // Queries also read lines 24.. that no instance carries.
            let lines = 48;
            let op = |left: u32, right: u32, shape: u8| MuxOp {
                left,
                right: (shape & 1 == 1).then_some(right),
                commutative: shape & 2 == 2,
            };
            let mut scratch = PackScratch::new(lines);
            let mut pool = InstancePool::new(lib.alus().len(), lines, &model);
            for i in 0..first {
                let kind = some_kinds[i % some_kinds.len()];
                pool.commit(None, kind, op(i as u32 % 24, 0, 0), None, &mut scratch);
            }
            for &(pick, left, right, shape) in &commits {
                // Half the commits go to eight instances, which grow
                // past the class cap.
                let i = if pick & 1 == 0 { (pick >> 1) % 8 } else { (pick >> 1) % first };
                let kind = some_kinds[(pick >> 8) % some_kinds.len()];
                pool.commit(Some(i), kind, op(left, right, shape), None, &mut scratch);
            }
            let mut alus = grid(first as u32);
            for &(pick, step, cycles) in &busy {
                let node = alu_nodes[pick % alu_nodes.len()];
                let step = CStep::new(1 + step);
                if step.finish(cycles).get() <= cs && alus.placement(node).is_none() {
                    let column = FuIndex::new(((pick >> 6) % first) as u32 + 1);
                    alus.occupy(&g, node, step, column, cycles);
                }
            }

            let (mut sink, mut metrics) = (NullSink, Metrics::new());
            let mut instr = Instrument::new(&mut sink, &mut metrics);
            let mut scan = AluScan::new(&model);
            let (mut mask, mut free) = (Vec::new(), Vec::new());
            for &(pick, left, right, shape, step, incumbent) in &queries {
                let node = alu_nodes[pick % alu_nodes.len()];
                let step = CStep::new(1 + step);
                let mut terms = OpKindTerms::new(&lib, &model, [OpKind::Add, OpKind::Sub, OpKind::Mul][pick % 3]);
                let strange = 24 * u32::from(pick & 8 == 8);
                let mux_op = op(left + strange, right + strange, shape);
                let related: Vec<usize> = if style == 1 {
                    (0..first).filter(|i| (i * 7 + pick) % 5 == 0).collect()
                } else {
                    Vec::new()
                };
                pool.kind_mask(|k| terms.upgrade(&lib, &model, k).is_some(), &mut mask);
                free.clone_from(&mask);
                alus.retain_free(&g, node, step, 1, &mut free);

                // The walk: every free, unrelated instance, priced alone.
                let at = Candidate {
                    step,
                    instance: None,
                    kind_index: 0,
                    f_time: model.f_time(step.get()),
                    f_alu: 0,
                    f_mux: 0,
                    f_reg: (pick as u64 >> 4) % 3 * 1230,
                    flavour: 0,
                };
                let mut walked = Vec::new();
                for i in members(&free).filter(|i| !related.contains(i)) {
                    let host = &pool.instances[i];
                    let (kind_index, f_alu, flavour) =
                        terms.upgrade(&lib, &model, host.kind_index).unwrap();
                    let after = host.seed.price(&host.mux_ops, &mux_op).map_or_else(
                        || pack_cost_ids(&host.mux_ops, mux_op, &mut scratch),
                        |(after, _)| after,
                    );
                    let f_mux = model.f_mux_delta(host.seed.cost(), after);
                    walked.push(Candidate { instance: Some(i), kind_index, f_alu, f_mux, flavour, ..at });
                }
                // An incumbent that beats some, all or none of them.
                let seeded = walked.get(incumbent as usize).map(|c| Candidate {
                    instance: None,
                    f_mux: c.f_mux.saturating_sub(incumbent),
                    ..*c
                });
                let expected = walked
                    .iter()
                    .chain(&seeded)
                    .map(candidate_key)
                    .min();

                let mut search = Search {
                    best: seeded,
                    scored: 0,
                    instr: &mut instr,
                    op: 0,
                    next_instance: 0,
                };
                let mut tally = Tally::default();
                scan.prepare(&pool, mux_op, &terms, related.iter().copied());
                scan.step(&pool, &free, at, &mut scratch, &mut search, &mut tally);
                proptest::prop_assert_eq!(search.best.as_ref().map(candidate_key), expected);
                proptest::prop_assert_eq!(tally.bound_evals, walked.len() as u64);
                proptest::prop_assert_eq!(
                    tally.bound_evals,
                    search.scored + tally.cut_instances + tally.dominated
                );
            }
            proptest::prop_assert!(pool.instances.len() > 64, "the hosts span several words");
            let widest = pool.instances.iter().map(|h| h.seed.cost().0).max();
            proptest::prop_assert!(widest > Some(cap), "some instance is past the class cap");
        }
    }

    #[test]
    fn functional_pipelining_shares_modulo_latency() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..4 {
            b.op(&format!("m{i}"), OpKind::Mul, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsaConfig::new(4, Library::ncr_like()).with_latency(2);
        let out = schedule(&g, &spec, &config).unwrap();
        let opts = VerifyOptions {
            latency: Some(2),
            ..Default::default()
        };
        assert_sound(&g, &spec, &out, opts);
        // Steps {1,3} and {2,4} collide: at least 2 multipliers.
        assert!(out.allocation.len() >= 2);
    }
}
