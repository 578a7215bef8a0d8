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

use hls_celllib::{Library, OpKind, TimingSpec};
use hls_dfg::{BankId, Dfg, FuClass, NodeId, NodeKind, SignalId, SignalSource};
use hls_rtl::muxopt::{pack_cost_ids, pack_seed_ids, MuxOp, PackScratch, PackSeed};
use hls_rtl::{AluAllocation, CostReport, Datapath};
use hls_schedule::{priority_order, CStep, FuIndex, Grid, Schedule, Slot, TimeFrames, UnitId};

use hls_telemetry::{Histogram, Instrument, Metrics, NullSink, TraceEvent};

use crate::frame::Placement;
use crate::mfsa::cost::{CostModel, RegEstimate};
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

/// Internal state of one allocated ALU instance, with its committed
/// operand lines as `M` (dense line ids in the pruned loop,
/// [`EstSource`](crate::mfsa::cost::EstSource)s in the oracle). Where it
/// is busy is recorded apart: in the pruned loop as a column of the
/// run's instance [`Grid`].
pub(crate) struct Instance<M> {
    pub(crate) kind_index: usize,
    pub(crate) ops: Vec<NodeId>,
    pub(crate) mux_ops: Vec<MuxOp<M>>,
}

/// One scored candidate position.
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
/// the instance can never host the op (style conflict, or no superset
/// kind exists). This is the cheap half of the old combined memo — the
/// mux-repacking delta is memoized separately and computed only for
/// candidates whose ALU-level bound survives the incumbent cut.
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
    /// Candidates whose cheap bound was computed at an expanded step.
    /// `bound_evals == cut_instances + energy_evals`, always.
    bound_evals: u64,
    /// Bound-evaluated candidates cut before full scoring.
    cut_instances: u64,
    /// Fully scored candidates.
    energy_evals: u64,
    /// Fully scored candidates per op.
    candidates: Histogram,
    /// Whether an ALU op was searched (the mux memo counters exist).
    alu_searched: bool,
    /// Mux-delta memo reads and fills (one fill per (op, instance)).
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

/// Sets bit `i` of a word set, growing it as needed.
fn set_bit(words: &mut Vec<u64>, i: usize) {
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// The committed ALU instances and, per ALU kind, a word set of the
/// instances of that kind, so the instances an op may reuse or upgrade
/// are a few word ORs. Where each instance is busy lives in the run's
/// instance grid, whose column `i + 1` is instance `i`.
#[derive(Default)]
struct InstancePool {
    instances: Vec<Instance<u32>>,
    /// Kind index → instances of that kind.
    kind_sets: Vec<Vec<u64>>,
}

impl InstancePool {
    /// Allocates an empty instance of `kind_index`; returns its index.
    fn push(&mut self, kind_index: usize) -> usize {
        let i = self.instances.len();
        self.instances.push(Instance {
            kind_index,
            ops: Vec::new(),
            mux_ops: Vec::new(),
        });
        if self.kind_sets.len() <= kind_index {
            self.kind_sets.resize(kind_index + 1, Vec::new());
        }
        set_bit(&mut self.kind_sets[kind_index], i);
        i
    }

    /// Changes instance `i`'s kind (an upgrade, or a no-op on reuse).
    fn set_kind(&mut self, i: usize, kind_index: usize) {
        let old = std::mem::replace(&mut self.instances[i].kind_index, kind_index);
        self.kind_sets[old][i / 64] &= !(1 << (i % 64));
        if self.kind_sets.len() <= kind_index {
            self.kind_sets.resize(kind_index + 1, Vec::new());
        }
        set_bit(&mut self.kind_sets[kind_index], i);
    }

    /// The instances whose kind satisfies `usable`, as a word set in
    /// `mask`. Only kinds some instance has had are asked.
    fn kind_mask(&self, mut usable: impl FnMut(usize) -> bool, mask: &mut Vec<u64>) {
        mask.clear();
        mask.resize(self.instances.len().div_ceil(64), 0);
        for (k, set) in self.kind_sets.iter().enumerate() {
            if !set.is_empty() && usable(k) {
                for (m, w) in mask.iter_mut().zip(set) {
                    *m |= w;
                }
            }
        }
    }
}

/// The set bits of a word set, lowest first: the instances or ports a
/// column mask holds, as 0-based indices.
fn members(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                64 * w + bit
            })
        })
    })
}

/// The per-(op, instance) memo of one op's frame scan: the ALU-level
/// terms and the mux delta are step-invariant while the op scans its
/// frame. An entry is valid only while its stamp is the scanning op's,
/// so nothing is cleared between ops.
#[derive(Clone, Default)]
struct InstanceMemo {
    stamp: u32,
    alu: AluCost,
    mux: Option<u64>,
}

/// The hosts of one op's frame scan, each a column of a placement
/// grid: the ports of a memory access's bank, whose candidates cost only
/// time and registers, or the ALU instances, priced with the op's mux
/// line and kind terms and joined by fresh instances.
enum Hosts<'a> {
    Ports(BankId),
    Alus {
        mux_op: MuxOp<u32>,
        terms: &'a mut OpKindTerms,
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
///   Candidates cut by the branch-and-bound emit no event — the cut
///   proves they lose, so the committed moves (and every `v` actually
///   emitted) are identical to the exhaustive search's;
/// * `MoveCommitted` — the winning candidate; `from`/`system_v` are
///   `None` (MFSA moves operations out of a conceptual unplaced pool, so
///   there is no prior grid cell and the dynamic terms are incremental).
///
/// Counters split committed moves by flavour (`mfsa.reuse_moves`,
/// `mfsa.upgrade_moves`, `mfsa.new_instances` — the §2.3 function-merging
/// signal), and the `mfsa.candidates` histogram records how many
/// positions each operation was actually scored at.
///
/// The branch-and-bound search is accounted exactly by five counters:
/// `mfsa.steps.feasible == mfsa.steps.expanded + mfsa.prune.cut_steps`
/// (every dependency-feasible step is either expanded or cut) and
/// `mfsa.bound.evals == mfsa.energy_evaluations +
/// mfsa.prune.cut_instances` (every candidate whose bound was computed
/// at an expanded step is either fully scored or cut). Both invariants
/// are enforced per run by `tests/mfsa_prune_differential.rs`.
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
    let mut pool = InstancePool::default();
    let mut trace = Vec::new();
    let mut tally = Tally::default();

    // The move loop's working state is declared inside the span, so it
    // is freed before the data path is built.
    let placed = instr.span("mfsa.move_loop", |instr| {
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
        // The committed packing's refcount seed per instance: its cost
        // is the `before` term of every f_MUX delta, and
        // `PackSeed::price` answers most candidates' `after` term from
        // it without a repack. A commit it prices extends the seed in
        // place; one it cannot leaves the seed stale (`None`) until the
        // next pricing rebuilds it from the committed ops.
        let mut mux_seed: Vec<Option<PackSeed<u32>>> = Vec::new();
        let mut memo: Vec<InstanceMemo> = Vec::new();
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

        for node in order {
            config.cancel().checkpoint()?;

            let kind = dfg.node(node).kind();
            let mut best: Option<Candidate> = None;
            let mut n_candidates = 0u64;
            let next_instance = pool.instances.len() as u32 + 1;
            let stamp = node.index() as u32 + 1;
            memo.resize(pool.instances.len(), InstanceMemo::default());

            let cycles = placement.cycles(node);
            let sched = placement.schedule();
            // What the op can run on, and their columns in `host_mask`:
            // every port of a memory access's bank, or the instances of
            // a kind that can host an ALU op by reuse or upgrade (the
            // instance state is frozen while this node scans its frame).
            let mut hosts = match kind.fu_class() {
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
            // their f_TIME lower bound (non-decreasing in the step), so
            // candidates are examined in exactly the exhaustive loop's
            // order — equal-key ties resolve identically under the
            // strict-`<` tie-break.
            let mut steps = placement.feasible_steps(node);
            while let Some(step) = steps.next() {
                tally.feasible_steps += 1;
                let f_time = model.lower_bound(step.get(), 0);
                // (a) Wholesale cut: every remaining step bounds ≥ this
                // one's, so once the best case at the cheapest remaining
                // step cannot beat the incumbent, nothing left can.
                if cut(&best, (f_time, step, 0, 0, 0)) {
                    let left = steps.count() as u64;
                    tally.feasible_steps += left;
                    tally.cut_steps += 1 + left;
                    break;
                }
                let extensions = reg_extensions(dfg, sched, spec, node, step);
                let f_reg = model.f_reg(
                    reg_est
                        .count_with(&extensions)
                        .saturating_sub(reg_est.count()),
                );
                // (b) Step-level cut with the exact register term folded
                // into the bound.
                if cut(&best, (model.lower_bound(step.get(), f_reg), step, 0, 0, 0)) {
                    tally.cut_steps += 1;
                    continue;
                }
                tally.expanded_steps += 1;

                // The hosts free here, in ascending order: ports, or
                // existing instances by reuse or upgrade.
                free.clone_from(&host_mask);
                grid.retain_free(dfg, node, step, cycles, &mut free);
                for i in members(&free) {
                    // A port is free hardware once the bank exists.
                    let (kind_index, f_alu, flavour) = match &mut hosts {
                        Hosts::Ports(_) => (0, 0, 0),
                        Hosts::Alus { terms, .. } => {
                            let m = &mut memo[i];
                            if m.stamp != stamp {
                                // ALU-level terms (style check + the kind
                                // table), filled on the first step where
                                // the instance hosts the op. `None` = it
                                // never can.
                                let inst = &pool.instances[i];
                                let related = config.style() == DesignStyle::NoSelfLoop
                                    && inst.ops.iter().any(|&o| {
                                        dfg.preds(node).contains(&o) || dfg.succs(node).contains(&o)
                                    });
                                *m = InstanceMemo {
                                    stamp,
                                    alu: if related {
                                        None
                                    } else {
                                        terms.upgrade(library, &model, inst.kind_index)
                                    },
                                    mux: None,
                                };
                            }
                            let Some(alu) = m.alu else {
                                continue;
                            };
                            alu
                        }
                    };
                    tally.bound_evals += 1;
                    // (c) Instance-level cut: everything but the mux
                    // term is exact here, so the bound is the
                    // candidate's own key minus f_MUX ≥ 0 (the exact key
                    // of a port).
                    if cut(
                        &best,
                        (f_time + f_reg + f_alu, step, flavour, i, kind_index),
                    ) {
                        tally.cut_instances += 1;
                        continue;
                    }
                    // The mux delta, step-invariant but the dearest
                    // term: computed only for candidates whose ALU-level
                    // bound survives the cut, priced off the committed
                    // seed when it can answer.
                    let f_mux = match &hosts {
                        Hosts::Ports(_) => 0,
                        Hosts::Alus { mux_op, .. } => {
                            let inst = &pool.instances[i];
                            let m = &mut memo[i];
                            if m.mux.is_some() {
                                tally.memo_hits += 1;
                            } else {
                                tally.memo_fills += 1;
                            }
                            *m.mux.get_or_insert_with(|| {
                                let seed = mux_seed[i].get_or_insert_with(|| {
                                    pack_seed_ids(&inst.mux_ops, &mut mux_scratch)
                                });
                                let after = match seed.price(&inst.mux_ops, mux_op) {
                                    Some((after, _)) => {
                                        tally.insert_hits += 1;
                                        after
                                    }
                                    None => {
                                        tally.insert_fallbacks += 1;
                                        pack_cost_ids(&inst.mux_ops, *mux_op, &mut mux_scratch)
                                    }
                                };
                                model.f_mux_delta(seed.cost(), after)
                            })
                        }
                    };
                    let c = Candidate {
                        step,
                        instance: Some(i),
                        kind_index,
                        f_time,
                        f_alu,
                        f_mux,
                        f_reg,
                        flavour,
                    };
                    n_candidates += 1;
                    if instr.enabled() {
                        instr.emit(TraceEvent::EnergyEvaluated {
                            op: node.index() as u32,
                            pos: (i as u32 + 1, c.step.get()),
                            v: c.total(),
                        });
                    }
                    consider(&mut best, c);
                }

                // New instances of every capable kind. The fresh mux
                // cost is precomputed, so the bound is the exact key —
                // the cut skips only sure losers.
                let Hosts::Alus {
                    terms, fresh_mux, ..
                } = &hosts
                else {
                    continue;
                };
                for &(kind_index, f_alu) in &terms.fresh {
                    tally.bound_evals += 1;
                    let total = f_time + f_reg + f_alu + fresh_mux;
                    if cut(&best, (total, step, 2, usize::MAX, kind_index)) {
                        tally.cut_instances += 1;
                        continue;
                    }
                    let c = Candidate {
                        step,
                        instance: None,
                        kind_index,
                        f_time,
                        f_alu,
                        f_mux: *fresh_mux,
                        f_reg,
                        flavour: 2,
                    };
                    n_candidates += 1;
                    if instr.enabled() {
                        instr.emit(TraceEvent::EnergyEvaluated {
                            op: node.index() as u32,
                            pos: (next_instance, c.step.get()),
                            v: c.total(),
                        });
                    }
                    consider(&mut best, c);
                }
            }

            tally.energy_evals += n_candidates;
            tally.candidates.observe(n_candidates);
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
                    let i = match chosen.instance {
                        Some(i) => {
                            pool.set_kind(i, chosen.kind_index);
                            i
                        }
                        None => {
                            mux_seed.push(Some(pack_seed_ids(&[], &mut mux_scratch)));
                            pool.push(chosen.kind_index)
                        }
                    };
                    // A commit the seed can price extends it in place.
                    let ops = &pool.instances[i].mux_ops;
                    mux_seed[i] = mux_seed[i].take().and_then(|mut seed| {
                        let (cost, swap) = seed.price(ops, &mux_op)?;
                        seed.insert(&mux_op, cost, swap);
                        Some(seed)
                    });
                    let inst = &mut pool.instances[i];
                    inst.ops.push(node);
                    inst.mux_ops.push(mux_op);
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
            let extensions = reg_extensions(dfg, placement.schedule(), spec, node, chosen.step);
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
        Ok(())
    });
    tally.flush(instr);
    placed?;

    // Assemble the data path.
    config.cancel().checkpoint()?;
    let (sched, frames) = placement.into_parts();
    let mut allocation = AluAllocation::new();
    for inst in pool.instances {
        allocation.push(library.alus()[inst.kind_index].clone());
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
/// (inputs only, per §4.1).
pub(crate) fn reg_extensions(
    dfg: &Dfg,
    sched: &Schedule,
    spec: &TimingSpec,
    node: NodeId,
    step: CStep,
) -> Vec<(SignalId, u32, u32)> {
    let mut out = Vec::new();
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
    out
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

            let mut pool = InstancePool::default();
            let mut alus = grid(256);
            let mut ports = grid(2);
            let (mut busy, mut port_busy): (Vec<Occupants>, Vec<Occupants>) =
                (Vec::new(), vec![Occupants::new(); 2]);
            for i in 0..first {
                pool.push(i % kinds);
                busy.push(Occupants::new());
            }
            let (mut mask, mut free) = (Vec::new(), Vec::new());
            let last = actions.len() - 1;
            for (n, &(action, pick, step, cycles)) in actions.iter().enumerate() {
                let step = CStep::new(1 + step);
                let fits = step.finish(cycles).get() <= cs;
                match action {
                    0 => {
                        pool.push(pick % kinds);
                        busy.push(Occupants::new());
                    }
                    1 => pool.set_kind(pick % pool.instances.len(), (pick >> 8) % kinds),
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
