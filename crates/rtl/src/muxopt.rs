//! Multiplexer input packing (paper §5.6).
//!
//! "MFSA uses a constructive algorithm which reads the set of operations
//! assigned to a specific ALU and their corresponding inputs and
//! constructs two lists of input signals L1 and L2 such that |L1| + |L2|
//! is minimum. Briefly, the algorithm first assigns the non-commutative
//! operations to the appropriate MUX's of an ALU and then checks two
//! possibilities for arranging input signals for each commutative
//! operation in L1 and L2."

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// One operation's operand sources as seen by the ALU's two input ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxOp<S> {
    /// First operand's source.
    pub left: S,
    /// Second operand's source (`None` for unary operations, which only
    /// use port 1).
    pub right: Option<S>,
    /// Whether the operand order may be swapped.
    pub commutative: bool,
}

impl<S> MuxOp<S> {
    /// Whether the op's orientation is fixed (non-commutative or
    /// unary): such ops bind their operands verbatim in pass 1.
    fn is_fixed(&self) -> bool {
        !self.commutative || self.right.is_none()
    }
}

impl MuxOp<u32> {
    /// The op's source ids, left first.
    fn sources(self) -> impl Iterator<Item = u32> {
        [Some(self.left), self.right].into_iter().flatten()
    }
}

/// The packing produced by [`pack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxPacking<S> {
    /// Sources multiplexed onto ALU input port 1.
    pub l1: BTreeSet<S>,
    /// Sources multiplexed onto ALU input port 2.
    pub l2: BTreeSet<S>,
    /// Chosen orientation per input op: `true` = swapped.
    pub swapped: Vec<bool>,
}

impl<S: Ord> MuxPacking<S> {
    /// `|L1| + |L2|` — the quantity the packing minimises.
    pub fn total_inputs(&self) -> usize {
        self.l1.len() + self.l2.len()
    }
}

/// Packs the operand sources of an ALU's operations onto its two input
/// ports, following the paper's constructive algorithm: non-commutative
/// operations bind their operands to ports 1/2 verbatim; commutative
/// operations then greedily pick the orientation adding the fewest new
/// sources (preferring the unswapped order on ties, and re-examined in a
/// second pass once all sources are known).
///
/// ```
/// use hls_rtl::muxopt::{pack, MuxOp};
///
/// // sub(a,b) fixes a→L1, b→L2; add(b,a) can swap to reuse both lines.
/// let ops = [
///     MuxOp { left: "a", right: Some("b"), commutative: false },
///     MuxOp { left: "b", right: Some("a"), commutative: true },
/// ];
/// let packing = pack(&ops);
/// assert_eq!(packing.total_inputs(), 2);
/// assert!(packing.swapped[1]);
/// ```
pub fn pack<S: Ord + Hash + Clone>(ops: &[MuxOp<S>]) -> MuxPacking<S> {
    let interned = Interned::new(ops);
    let mut scratch = PackScratch::new(interned.keys.len());
    construct(&interned.ops, None, &mut scratch);
    interned.packing(scratch)
}

/// The committed refcount state of a packed instance: per-port
/// contribution counts, the chosen orientations, and per line the
/// commutative ops that carry it. This is the state the MFSA inner
/// loop keeps alive between candidate evaluations: its
/// [`cost`](Self::cost) is the before-term of every `f_MUX` delta,
/// [`PackSeed::price`] answers the cold pack of one more op from it,
/// and [`PackSeed::insert`] extends it by that op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackSeed<S> {
    /// Every source the packing carries on either port, sorted by
    /// source, so membership queries are binary searches.
    lines: Vec<SeedLine<S>>,
    /// `(|L1|, |L2|)`.
    cost: (usize, usize),
    swapped: Vec<bool>,
    /// Per op, the next commutative op (ascending) that carries the
    /// same port-1 / port-2 line under the committed orientation, or
    /// [`NO_OP`]. These are the links of the per-line user lists,
    /// whose heads sit in [`SeedLine`]; fixed ops are on no list.
    next1: Vec<u32>,
    next2: Vec<u32>,
    /// Whether the refinement pass was a no-op, i.e. the greedy pass-2
    /// state *is* the committed fixpoint. Only then is the cold
    /// construction of a longer list predictable from the seed, so
    /// only then does [`PackSeed::price`] answer.
    stable: bool,
}

/// The end of a user list.
const NO_OP: u32 = u32::MAX;

/// One source of a [`PackSeed`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeedLine<S> {
    source: S,
    /// Contributions on port 1 and port 2 (a line exists on a port
    /// while its count is non-zero).
    cnt1: u32,
    cnt2: u32,
    /// Whether the fixed (pass-1) operations claim the source on
    /// port 1 / port 2.
    fixed1: bool,
    fixed2: bool,
    /// First commutative op carrying the source on port 1 / port 2
    /// ([`NO_OP`] when none). On a stable seed the committed
    /// orientations are the pass-2 ones, so `head1` is the op that
    /// first claims the line on port 1 in pass 2 (and `head2` on
    /// port 2).
    head1: u32,
    head2: u32,
}

impl<S> SeedLine<S> {
    fn new(source: S) -> SeedLine<S> {
        SeedLine {
            source,
            cnt1: 0,
            cnt2: 0,
            fixed1: false,
            fixed2: false,
            head1: NO_OP,
            head2: NO_OP,
        }
    }
}

/// The greedy pass-2 orientation of a commutative op: swapped only
/// when that adds strictly fewer new lines (ties keep the op as
/// written), given which sources are already on port 1 and port 2.
fn prefers_swap<T: Copy>(
    left: T,
    right: T,
    on1: impl Fn(T) -> bool,
    on2: impl Fn(T) -> bool,
) -> bool {
    let cost_plain = usize::from(!on1(left)) + usize::from(!on2(right));
    let cost_swap = usize::from(!on1(right)) + usize::from(!on2(left));
    cost_swap < cost_plain
}

/// Appends op `j` to the user list starting at `head`.
fn link(head: &mut u32, next: &mut [u32], j: u32) {
    match users(*head, next).last() {
        None => *head = j,
        Some(tail) => next[tail] = j,
    }
}

/// The ops of the user list starting at `head`, ascending.
fn users(head: u32, next: &[u32]) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors((head != NO_OP).then_some(head), move |&j| {
        Some(next[j as usize]).filter(|&n| n != NO_OP)
    })
    .map(|j| j as usize)
}

/// The seed of an empty op list: no lines, and trivially stable.
impl<S> Default for PackSeed<S> {
    fn default() -> PackSeed<S> {
        PackSeed {
            lines: Vec::new(),
            cost: (0, 0),
            swapped: Vec::new(),
            next1: Vec::new(),
            next2: Vec::new(),
            stable: true,
        }
    }
}

impl<S> PackSeed<S> {
    /// Number of operations the seed covers.
    pub fn len(&self) -> usize {
        self.swapped.len()
    }

    /// Whether the seed covers no operations.
    pub fn is_empty(&self) -> bool {
        self.swapped.is_empty()
    }

    /// `(|L1|, |L2|)` of the committed packing.
    pub fn cost(&self) -> (usize, usize) {
        self.cost
    }
}

impl<S: Ord + Clone> PackSeed<S> {
    fn line(&self, source: &S) -> Option<&SeedLine<S>> {
        self.lines
            .binary_search_by(|l| l.source.cmp(source))
            .ok()
            .map(|i| &self.lines[i])
    }

    /// The index of `source`'s line, created empty when the seed
    /// lacks it.
    fn line_index(&mut self, source: &S) -> usize {
        self.lines
            .binary_search_by(|l| l.source.cmp(source))
            .unwrap_or_else(|i| {
                self.lines.insert(i, SeedLine::new(source.clone()));
                i
            })
    }

    /// Contributions on port 1 / port 2.
    fn cnt1(&self, source: &S) -> u32 {
        self.line(source).map_or(0, |l| l.cnt1)
    }

    fn cnt2(&self, source: &S) -> u32 {
        self.line(source).map_or(0, |l| l.cnt2)
    }

    /// Whether refinement would flip commutative op `j` once `add`
    /// (the extra contribution on port 1 and, when binary, port 2) has
    /// joined the committed counts: its flip delta, priced as in
    /// [`refine`], is negative. Self-pairs never flip.
    fn flips(&self, ops: &[MuxOp<S>], j: usize, add: (&S, Option<&S>)) -> bool {
        let op = &ops[j];
        let r = op.right.as_ref().expect("commutative ops are binary");
        let (a, b) = if self.swapped[j] {
            (r, &op.left)
        } else {
            (&op.left, r)
        };
        if a == b {
            return false;
        }
        let c1 = |x: &S| self.cnt1(x) + u32::from(x == add.0);
        let c2 = |x: &S| self.cnt2(x) + u32::from(add.1 == Some(x));
        let delta1 = i64::from(c1(b) == 0) - i64::from(c1(a) == 1);
        let delta2 = i64::from(c2(a) == 0) - i64::from(c2(b) == 1);
        delta1 + delta2 < 0
    }

    /// Whether refinement stays a no-op once `add` joins the counts,
    /// given that it was one before; `lines` are the seed's lines of
    /// `add`'s sources. Only a line new on a port can lower a flip
    /// delta: a new port-1 line `a` lowers the delta of every op
    /// carrying `a` on port 2 (flipping would now find `a` on port 1),
    /// and a new port-2 line `b` that of every op carrying `b` on
    /// port 1. Every other count change only raises deltas.
    fn refinement_holds(
        &self,
        ops: &[MuxOp<S>],
        add: (&S, Option<&S>),
        lines: (Option<&SeedLine<S>>, Option<&SeedLine<S>>),
    ) -> bool {
        let port2_users = match lines.0 {
            Some(l) if l.cnt1 == 0 => l.head2,
            _ => NO_OP,
        };
        let port1_users = match lines.1 {
            Some(l) if l.cnt2 == 0 => l.head1,
            _ => NO_OP,
        };
        !users(port2_users, &self.next2)
            .chain(users(port1_users, &self.next1))
            .any(|j| self.flips(ops, j, add))
    }

    /// The greedy pass-2 orientation of commutative op `j` when a
    /// fixed op claiming `add` joins pass 1. The lines op `j` sees are
    /// the pass-1 claims plus the claims of earlier commutative ops,
    /// i.e. the lines whose user list starts before `j`.
    fn greedy_swap(&self, ops: &[MuxOp<S>], j: usize, add: (&S, Option<&S>)) -> bool {
        let op = &ops[j];
        let r = op.right.as_ref().expect("commutative ops are binary");
        let on1 = |x: &S| {
            x == add.0
                || self
                    .line(x)
                    .is_some_and(|l| l.fixed1 || (l.head1 as usize) < j)
        };
        let on2 = |x: &S| {
            add.1 == Some(x)
                || self
                    .line(x)
                    .is_some_and(|l| l.fixed2 || (l.head2 as usize) < j)
        };
        prefers_swap(&op.left, r, on1, on2)
    }

    /// Whether the committed packing carries `source`, on either port.
    /// Once carried, a source stays carried as ops are added.
    pub fn carries(&self, source: &S) -> bool {
        self.line(source).is_some()
    }

    /// Whether `op` is a *stranger* to the seed: the committed packing
    /// carries neither of its sources, on either port.
    fn is_stranger(&self, op: &MuxOp<S>) -> bool {
        !self.carries(&op.left) && op.right.as_ref().is_none_or(|r| !self.carries(r))
    }

    /// `(|L1|, |L2|)` of the cold pack of `ops ++ [op]` for a stranger
    /// `op` ([`Self::is_stranger`]): the seed's cost plus one line per
    /// port `op` uses, on any seed, stable or not. The cold pack keeps
    /// every orientation of `ops` and leaves `op` unswapped, because
    /// each pass decides an op from the counts of that op's own sources
    /// only (DESIGN §14, "Pricing from the committed packing").
    fn stranger_cost(&self, op: &MuxOp<S>) -> (usize, usize) {
        let (l1, l2) = self.cost;
        (l1 + 1, l2 + usize::from(op.right.is_some()))
    }

    /// The exact incremental pricing rule: `(|L1|, |L2|)` of the cold
    /// three-pass pack of `ops ++ [op]` and the orientation it gives
    /// `op`, read off the seed of `ops` in time proportional to the
    /// lines `op` touches. `None` when the seed cannot decide it; the
    /// caller then owns the full-repack fallback.
    ///
    /// The proof obligations (DESIGN §14, "Pricing from the committed
    /// packing"):
    ///
    /// * a **stranger** `op` (the seed carries neither of its sources)
    ///   is answered at the seed's cost plus one line per port it uses,
    ///   unswapped, on any seed;
    /// * otherwise the seed must be refinement-**stable** (pass 3 changed
    ///   nothing), so the committed state is the greedy pass-2 state
    ///   the cold replay below reasons about;
    /// * a **commutative** `op` comes last in pass 2, so passes 1–2
    ///   replay the seed verbatim and its greedy orientation is read
    ///   off the committed lines;
    /// * a **fixed** (non-commutative or unary) `op` joins pass 1. Only
    ///   the commutative ops touching its lines can see a different
    ///   state, so exactly those are re-decided, each against the
    ///   pass-1 claims and the lines claimed in pass 2 before it (the
    ///   head of each user list). If one orientation changes, the
    ///   replay diverges and the rule declines;
    /// * refinement must stay a no-op on the extended state: only the
    ///   ops carrying a new port-1 line on port 2 and the ops carrying
    ///   a new port-2 line on port 1 can have turned a flip profitable
    ///   ([`Self::refinement_holds`]), so exactly those are checked and
    ///   any profitable flip declines. A commutative candidate never
    ///   flips itself: its flip delta is the cost of the other
    ///   orientation minus the cost of the chosen one, which greedy
    ///   made non-negative.
    ///
    /// # Panics
    ///
    /// Panics when the seed does not cover exactly `ops`.
    pub fn price(&self, ops: &[MuxOp<S>], op: &MuxOp<S>) -> Option<((usize, usize), bool)> {
        assert_eq!(self.len(), ops.len(), "price: the seed must cover `ops`");
        // Each source's line, looked up once.
        let left = (&op.left, self.line(&op.left));
        let right = op.right.as_ref().map(|r| (r, self.line(r)));
        if left.1.is_none() && right.is_none_or(|(_, l)| l.is_none()) {
            return Some((self.stranger_cost(op), false));
        }
        if !self.stable {
            return None;
        }
        let on1 = |(_, l): (&S, Option<&SeedLine<S>>)| l.is_some_and(|l| l.cnt1 > 0);
        let on2 = |(_, l): (&S, Option<&SeedLine<S>>)| l.is_some_and(|l| l.cnt2 > 0);
        let swap = match right {
            Some(right) if !op.is_fixed() => prefers_swap(left, right, on1, on2),
            _ => false,
        };
        let (a, b) = if swap {
            (right.expect("only binary ops swap"), Some(left))
        } else {
            (left, right)
        };
        let add = (a.0, b.map(|b| b.0));
        let lines = (a.1, b.and_then(|b| b.1));
        if op.is_fixed() {
            for line in [lines.0, lines.1].into_iter().flatten() {
                let heads = users(line.head1, &self.next1).chain(users(line.head2, &self.next2));
                for j in heads {
                    if self.greedy_swap(ops, j, add) != self.swapped[j] {
                        return None;
                    }
                }
            }
        }
        if !self.refinement_holds(ops, add, lines) {
            return None;
        }
        let new1 = usize::from(!on1(a));
        let new2 = b.map_or(0, |b| usize::from(!on2(b)));
        let (l1, l2) = self.cost;
        Some(((l1 + new1, l2 + new2), swap))
    }

    /// Extends the seed by `op` at the `(cost, swap)` [`Self::price`]
    /// answered for it. The seed then covers `ops ++ [op]`, keeps its
    /// stability flag (a stranger changes no flip decision), and equals
    /// the seed packed cold from the extended list (the proptests below
    /// pin this).
    ///
    /// # Panics
    ///
    /// Panics when `cost` is not what the extended counts imply, i.e.
    /// when the answer did not come from `price` on this seed.
    pub fn insert(&mut self, op: &MuxOp<S>, cost: (usize, usize), swap: bool) {
        debug_assert!(
            self.stable || self.is_stranger(op),
            "insert: unstable seeds price strangers only"
        );
        self.push(op, swap);
        assert_eq!(self.cost, cost, "insert: the cost must come from `price`");
    }

    /// Appends `op` under orientation `swap`: counts, cost, fixed
    /// flags and user lists, leaving the stability flag alone.
    fn push(&mut self, op: &MuxOp<S>, swap: bool) {
        let j = u32::try_from(self.len()).expect("fewer than 2^32 ops");
        let (a, b) = if swap {
            (
                op.right.as_ref().expect("only binary ops swap"),
                Some(&op.left),
            )
        } else {
            (&op.left, op.right.as_ref())
        };
        let fixed = op.is_fixed();
        self.swapped.push(swap);
        self.next1.push(NO_OP);
        self.next2.push(NO_OP);

        let i = self.line_index(a);
        let line = &mut self.lines[i];
        self.cost.0 += usize::from(line.cnt1 == 0);
        line.cnt1 += 1;
        if fixed {
            line.fixed1 = true;
        } else {
            link(&mut line.head1, &mut self.next1, j);
        }
        if let Some(b) = b {
            let i = self.line_index(b);
            let line = &mut self.lines[i];
            self.cost.1 += usize::from(line.cnt2 == 0);
            line.cnt2 += 1;
            if fixed {
                line.fixed2 = true;
            } else {
                link(&mut line.head2, &mut self.next2, j);
            }
        }
    }

    /// The seed of `ops` committed under `swapped`, with the given
    /// stability.
    fn from_orientations(ops: &[MuxOp<S>], swapped: &[bool], stable: bool) -> PackSeed<S> {
        let mut seed = PackSeed {
            lines: Vec::new(),
            cost: (0, 0),
            swapped: Vec::with_capacity(ops.len() + 1),
            next1: Vec::with_capacity(ops.len() + 1),
            next2: Vec::with_capacity(ops.len() + 1),
            stable,
        };
        for (op, &swap) in ops.iter().zip(swapped) {
            seed.push(op, swap);
        }
        seed
    }
}

/// Packs `ops` over dense source ids in the caller's scratch and
/// returns the committed refcount state instead of the sorted source
/// lists: the handle an MFSA instance keeps for later
/// [`PackSeed::price`] / [`PackSeed::insert`] extensions, rebuilt after
/// a commit [`PackSeed::price`] could not answer.
///
/// # Panics
///
/// Panics when an id is outside the scratch's id space.
pub fn pack_seed_ids(ops: &[MuxOp<u32>], scratch: &mut PackScratch) -> PackSeed<u32> {
    let stable = construct(ops, None, scratch);
    let cost = (scratch.l1, scratch.l2);
    scratch.clear(ops, None);
    let seed = PackSeed::from_orientations(ops, &scratch.swapped, stable);
    debug_assert_eq!(seed.cost, cost);
    seed
}

/// `(|L1|, |L2|)` of the packing [`pack`] would produce, without
/// materialising the sorted source lists.
pub fn pack_cost<S: Ord + Hash + Clone>(ops: &[MuxOp<S>]) -> (usize, usize) {
    let interned = Interned::new(ops);
    let mut scratch = PackScratch::new(interned.keys.len());
    construct(&interned.ops, None, &mut scratch);
    (scratch.l1, scratch.l2)
}

/// `(|L1|, |L2|)` of packing `ops ++ [candidate]` over dense source
/// ids — the MFSA candidate-pricing entry point. Equal to
/// [`pack_cost`] of the extended list, but `ops` is never copied,
/// nothing is hashed, and nothing is allocated once the scratch's
/// orientation buffer has grown to the longest list seen. The scratch
/// is all-zero again on return.
///
/// # Panics
///
/// Panics when an id is outside the scratch's id space.
pub fn pack_cost_ids(
    ops: &[MuxOp<u32>],
    candidate: MuxOp<u32>,
    scratch: &mut PackScratch,
) -> (usize, usize) {
    construct(ops, Some(candidate), scratch);
    let cost = (scratch.l1, scratch.l2);
    scratch.clear(ops, Some(candidate));
    cost
}

/// Caller-owned working memory of the packing core: one contribution
/// count per source id on each port, the `|L1|`/`|L2|` line counters
/// those counts imply, and the orientation buffer. Counts and counters
/// are all zero between calls; the core only touches the ids of the op
/// list it packs and zeroes exactly those again.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    cnt1: Vec<u32>,
    cnt2: Vec<u32>,
    l1: usize,
    l2: usize,
    swapped: Vec<bool>,
}

impl PackScratch {
    /// Scratch for source ids `0..ids`.
    pub fn new(ids: usize) -> PackScratch {
        PackScratch {
            cnt1: vec![0; ids],
            cnt2: vec![0; ids],
            ..PackScratch::default()
        }
    }

    fn on1(&self, id: u32) -> bool {
        self.cnt1[id as usize] > 0
    }

    fn on2(&self, id: u32) -> bool {
        self.cnt2[id as usize] > 0
    }

    fn add1(&mut self, id: u32) {
        let c = &mut self.cnt1[id as usize];
        self.l1 += usize::from(*c == 0);
        *c += 1;
    }

    fn add2(&mut self, id: u32) {
        let c = &mut self.cnt2[id as usize];
        self.l2 += usize::from(*c == 0);
        *c += 1;
    }

    fn remove1(&mut self, id: u32) {
        let c = &mut self.cnt1[id as usize];
        *c -= 1;
        self.l1 -= usize::from(*c == 0);
    }

    fn remove2(&mut self, id: u32) {
        let c = &mut self.cnt2[id as usize];
        *c -= 1;
        self.l2 -= usize::from(*c == 0);
    }

    /// Zeroes every count `ops ++ extra` can have touched (an op's
    /// sources may sit on either port after a swap).
    fn clear(&mut self, ops: &[MuxOp<u32>], extra: Option<MuxOp<u32>>) {
        for op in ops.iter().copied().chain(extra) {
            for id in op.sources() {
                self.cnt1[id as usize] = 0;
                self.cnt2[id as usize] = 0;
            }
        }
        self.l1 = 0;
        self.l2 = 0;
    }
}

/// The constructive core, over dense ids: packs `ops ++ extra` into the
/// scratch (counts, line counters, orientations) with the three passes
/// of [`pack`], and returns whether the refinement pass was a no-op —
/// the stability [`PackSeed::price`] requires.
///
/// Every port is a multiset: each op contributes exactly one source
/// line to port 1 and (when binary) one to port 2 under its current
/// orientation, and `|L1|`/`|L2|` are the numbers of non-zero counts.
/// Keeping contribution *counts* instead of plain sets is what lets the
/// refinement pass price a flip in O(1) instead of re-packing all k
/// operations from scratch.
fn construct(ops: &[MuxOp<u32>], extra: Option<MuxOp<u32>>, s: &mut PackScratch) -> bool {
    let all = || ops.iter().copied().chain(extra);
    s.swapped.clear();
    s.swapped
        .resize(ops.len() + usize::from(extra.is_some()), false);

    // Pass 1: fixed (non-commutative and unary) operations.
    for op in all().filter(MuxOp::is_fixed) {
        s.add1(op.left);
        if let Some(r) = op.right {
            s.add2(r);
        }
    }

    // Pass 2: commutative operations, greedy orientation. Like the
    // original set-based construction, each op only sees the lines the
    // fixed ops and *earlier* commutative ops have claimed.
    for (i, op) in all().enumerate() {
        if op.is_fixed() {
            continue;
        }
        let r = op.right.expect("unary ops are fixed");
        if prefers_swap(op.left, r, |x| s.on1(x), |x| s.on2(x)) {
            s.swapped[i] = true;
            s.add1(r);
            s.add2(op.left);
        } else {
            s.add1(op.left);
            s.add2(r);
        }
    }

    // Pass 3: re-examine orientations now that all sources are known.
    !refine(ops, extra, s)
}

/// The refinement pass (pass 3 of the cold pack): re-examine
/// orientations now that all sources are known — an early greedy
/// choice may have inserted a source a later op made redundant. A flip is taken only when it strictly reduces the
/// total, so the pass terminates from any valid refcount state. The
/// flipped total is computed from the contribution counts: dropping
/// this op's current sources frees a line only when it was the sole
/// contributor, and its swapped sources cost a line only when nobody
/// else supplies them. Returns whether any flip was taken.
fn refine(ops: &[MuxOp<u32>], extra: Option<MuxOp<u32>>, s: &mut PackScratch) -> bool {
    let mut any = false;
    let mut changed = true;
    while changed {
        changed = false;
        for (i, op) in ops.iter().copied().chain(extra).enumerate() {
            if op.is_fixed() {
                continue;
            }
            let r = op.right.expect("unary ops are fixed");
            let (cur_a, cur_b) = if s.swapped[i] {
                (r, op.left)
            } else {
                (op.left, r)
            };
            // Port 1 currently carries cur_a from this op; flipping
            // replaces that contribution with cur_b (and symmetrically
            // on port 2). Self-pairs change nothing.
            if cur_a == cur_b {
                continue;
            }
            let delta1 = i64::from(!s.on1(cur_b)) - i64::from(s.cnt1[cur_a as usize] == 1);
            let delta2 = i64::from(!s.on2(cur_a)) - i64::from(s.cnt2[cur_b as usize] == 1);
            if delta1 + delta2 < 0 {
                s.swapped[i] = !s.swapped[i];
                s.remove1(cur_a);
                s.add1(cur_b);
                s.remove2(cur_b);
                s.add2(cur_a);
                changed = true;
                any = true;
            }
        }
    }
    any
}

/// A generic op list relabelled onto dense ids `0..keys.len()` (in
/// order of first appearance), the form the core packs. Relabelling
/// cannot change a decision: the core only ever compares sources for
/// equality.
struct Interned<S> {
    keys: Vec<S>,
    ops: Vec<MuxOp<u32>>,
}

impl<S: Ord + Hash + Clone> Interned<S> {
    fn new(ops: &[MuxOp<S>]) -> Interned<S> {
        let mut keys = Vec::new();
        let mut index = HashMap::with_capacity(ops.len());
        let mut id = |s: &S| -> u32 {
            *index.entry(s.clone()).or_insert_with(|| {
                keys.push(s.clone());
                u32::try_from(keys.len() - 1).expect("fewer than 2^32 sources")
            })
        };
        let ops = ops
            .iter()
            .map(|op| MuxOp {
                left: id(&op.left),
                right: op.right.as_ref().map(&mut id),
                commutative: op.commutative,
            })
            .collect();
        Interned { keys, ops }
    }

    /// The sorted source lists of the packing left in `scratch`.
    fn packing(&self, scratch: PackScratch) -> MuxPacking<S> {
        let lines = |cnt: &[u32]| {
            self.keys
                .iter()
                .zip(cnt)
                .filter(|&(_, &c)| c > 0)
                .map(|(k, _)| k.clone())
                .collect()
        };
        MuxPacking {
            l1: lines(&scratch.cnt1),
            l2: lines(&scratch.cnt2),
            swapped: scratch.swapped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`pack_seed_ids`] over any source type: the seed of `ops`,
    /// interned into ids in order of first appearance.
    fn pack_seed<S: Ord + Hash + Clone>(ops: &[MuxOp<S>]) -> PackSeed<S> {
        let interned = Interned::new(ops);
        let mut scratch = PackScratch::new(interned.keys.len());
        let stable = construct(&interned.ops, None, &mut scratch);
        PackSeed::from_orientations(ops, &scratch.swapped, stable)
    }

    fn op(l: &str, r: &str, c: bool) -> MuxOp<String> {
        MuxOp {
            left: l.to_string(),
            right: Some(r.to_string()),
            commutative: c,
        }
    }

    /// The original set-based packing, kept verbatim as the oracle for
    /// the refcount-based production `pack`: identical greedy choices,
    /// with the refinement pass pricing each flip by rebuilding both
    /// trial lists from scratch.
    fn pack_reference<S: Ord + Clone>(ops: &[MuxOp<S>]) -> MuxPacking<S> {
        let mut l1: BTreeSet<S> = BTreeSet::new();
        let mut l2: BTreeSet<S> = BTreeSet::new();
        let mut swapped = vec![false; ops.len()];
        for op in ops {
            if !op.commutative || op.right.is_none() {
                l1.insert(op.left.clone());
                if let Some(r) = &op.right {
                    l2.insert(r.clone());
                }
            }
        }
        for (i, op) in ops.iter().enumerate() {
            if !op.commutative || op.right.is_none() {
                continue;
            }
            let r = op.right.as_ref().expect("checked above");
            let cost_plain = usize::from(!l1.contains(&op.left)) + usize::from(!l2.contains(r));
            let cost_swap = usize::from(!l1.contains(r)) + usize::from(!l2.contains(&op.left));
            if cost_swap < cost_plain {
                swapped[i] = true;
                l1.insert(r.clone());
                l2.insert(op.left.clone());
            } else {
                l1.insert(op.left.clone());
                l2.insert(r.clone());
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, op) in ops.iter().enumerate() {
                if !op.commutative || op.right.is_none() {
                    continue;
                }
                let r = op.right.as_ref().expect("checked above");
                let (cur_a, cur_b) = if swapped[i] {
                    (r, &op.left)
                } else {
                    (&op.left, r)
                };
                let mut trial1 = BTreeSet::new();
                let mut trial2 = BTreeSet::new();
                for (j, oj) in ops.iter().enumerate() {
                    let (a, b) = if j == i {
                        (cur_b, oj.right.as_ref().map(|_| cur_a))
                    } else if swapped[j] && oj.right.is_some() {
                        (oj.right.as_ref().expect("some"), Some(&oj.left))
                    } else {
                        (&oj.left, oj.right.as_ref())
                    };
                    trial1.insert(a.clone());
                    if let Some(b) = b {
                        trial2.insert(b.clone());
                    }
                }
                if trial1.len() + trial2.len() < l1.len() + l2.len() {
                    swapped[i] = !swapped[i];
                    l1 = trial1;
                    l2 = trial2;
                    changed = true;
                }
            }
        }
        MuxPacking { l1, l2, swapped }
    }

    proptest! {
        /// The refcount-priced refinement must take the exact flips the
        /// trial-rebuild oracle takes: identical lists *and* identical
        /// orientations, so every downstream `f_MUX` value (and with it
        /// the MFSA tie-break order) is unchanged. Sources are drawn
        /// from a small alphabet to force heavy line sharing, self-pairs
        /// and duplicate ops.
        #[test]
        fn refcount_packing_matches_the_set_based_oracle(
            ops in proptest::collection::vec(
                (0u8..6, 0u8..6, 0u8..8),
                0..12,
            ),
        ) {
            let ops: Vec<MuxOp<u8>> = ops
                .iter()
                .map(|&(l, r, bits)| MuxOp {
                    // `bits` packs the op shape: 0 = unary (1 in 8, so
                    // most ops stay binary), bit 1 = commutative.
                    left: l,
                    right: (bits != 0).then_some(r),
                    commutative: bits & 2 != 0,
                })
                .collect();
            let fast = pack(&ops);
            let slow = pack_reference(&ops);
            prop_assert_eq!(pack_cost(&ops), (fast.l1.len(), fast.l2.len()));
            prop_assert_eq!(fast, slow);
        }

        /// The exact incremental pricing differential: whenever
        /// `price` answers, its `(|L1|, |L2|)` must equal the cold pack
        /// of `ops ++ [op]` (the set-based oracle's and `pack_cost`'s)
        /// and its orientation the one the cold pack gives `op`; after
        /// `insert` the seed must equal the cold seed of the extended
        /// list (cost, orientations, stability, fixed flags, user
        /// lists). A run of candidates is inserted one after another,
        /// rebuilding the seed on a decline as the MFSA loop does, so
        /// inserted seeds are priced again. Lists of up to 40 ops over
        /// a small alphabet of sparse ids force shared lines,
        /// self-pairs, unary, fixed and duplicate ops, and unstable
        /// seeds (which must always decline).
        #[test]
        fn price_and_insert_match_the_cold_pack(
            alphabet in proptest::collection::vec(0u32..4096, 8..9),
            ops in proptest::collection::vec((0usize..8, 0usize..8, 0u8..8), 0..40),
            candidates in proptest::collection::vec((0usize..8, 0usize..8, 0u8..8), 1..12),
        ) {
            let shape = |&(l, r, bits): &(usize, usize, u8)| MuxOp {
                left: alphabet[l],
                right: (bits != 0).then_some(alphabet[r]),
                commutative: bits & 2 != 0,
            };
            let mut ops: Vec<MuxOp<u32>> = ops.iter().map(shape).collect();
            let mut scratch = PackScratch::new(4096);
            let mut seed = pack_seed_ids(&ops, &mut scratch);
            for c in candidates.iter().map(shape) {
                let mut extended = ops.clone();
                extended.push(c);
                let cold = pack_reference(&extended);
                match seed.price(&ops, &c) {
                    Some((cost, swap)) => {
                        prop_assert!(
                            seed.stable || seed.is_stranger(&c),
                            "an unstable seed answered a non-stranger"
                        );
                        prop_assert_eq!(cost, (cold.l1.len(), cold.l2.len()));
                        prop_assert_eq!(cost, pack_cost(&extended));
                        prop_assert_eq!(Some(&swap), cold.swapped.last());
                        seed.insert(&c, cost, swap);
                        prop_assert_eq!(&seed, &pack_seed_ids(&extended, &mut scratch));
                    }
                    None => seed = pack_seed_ids(&extended, &mut scratch),
                }
                ops = extended;
            }
        }

        /// The stranger lemma: a candidate sharing no source with the
        /// committed list — binary, unary, a self-pair, commutative or
        /// fixed — is priced at the seed's cost plus one line per port
        /// it uses, unswapped, on stable and unstable seeds alike, and
        /// that is the cold pack of `ops ++ [op]`. After `insert` the
        /// seed equals the cold seed of the extended list, stability
        /// flag included. A run of fresh strangers is inserted one
        /// after another into lists of up to 40 ops over a small
        /// alphabet, which makes unstable seeds common.
        #[test]
        fn strangers_are_priced_from_the_seed_cost(
            alphabet in proptest::collection::vec(0u32..2048, 6..7),
            ops in proptest::collection::vec((0usize..6, 0usize..6, 0u8..8), 0..40),
            strangers in proptest::collection::vec((0u32..3, 0u32..3, 0u8..8), 1..6),
        ) {
            let mut ops: Vec<MuxOp<u32>> = ops
                .iter()
                .map(|&(l, r, bits)| MuxOp {
                    left: alphabet[l],
                    right: (bits != 0).then_some(alphabet[r]),
                    commutative: bits & 2 != 0,
                })
                .collect();
            let mut scratch = PackScratch::new(4096);
            let mut seed = pack_seed_ids(&ops, &mut scratch);
            for (k, &(l, r, bits)) in strangers.iter().enumerate() {
                // Ids past the alphabet, fresh for every stranger; l == r
                // makes a self-pair.
                let fresh = |x: u32| 2048 + 3 * k as u32 + x;
                let c = MuxOp {
                    left: fresh(l),
                    right: (bits != 0).then_some(fresh(r)),
                    commutative: bits & 2 != 0,
                };
                prop_assert!(seed.is_stranger(&c));
                let mut extended = ops.clone();
                extended.push(c);
                let cold = pack_reference(&extended);
                let cost = seed.stranger_cost(&c);
                prop_assert_eq!(seed.price(&ops, &c), Some((cost, false)));
                prop_assert_eq!(cost, (cold.l1.len(), cold.l2.len()));
                prop_assert_eq!(cost, pack_cost(&extended));
                prop_assert_eq!(cold.swapped.last(), Some(&false));
                let stable = seed.stable;
                seed.insert(&c, cost, false);
                let rebuilt = pack_seed_ids(&extended, &mut scratch);
                prop_assert_eq!(rebuilt.stable, stable);
                prop_assert_eq!(&seed, &rebuilt);
                ops = extended;
            }
        }

        /// The MFSA pricing path: the dense core's `(|L1|, |L2|)` for
        /// `ops ++ [c]`, packed in a reused scratch without copying
        /// `ops`, must equal the set-based oracle's and the generic
        /// `pack_cost` of the extended list, and the dense seed's cost
        /// (the f_MUX before-term) must equal the cold pack of `ops`.
        /// Instance-sized lists (up to 40 ops, as on the 5k-op graphs)
        /// over a small alphabet of sparse, non-contiguous ids force
        /// shared lines, self-pairs, unary and duplicate ops; several
        /// candidates per list check that the scratch is left clean.
        #[test]
        fn dense_pricing_matches_the_set_based_oracle(
            alphabet in proptest::collection::vec(0u32..4096, 10..11),
            ops in proptest::collection::vec((0usize..10, 0usize..10, 0u8..8), 0..40),
            candidates in proptest::collection::vec((0usize..10, 0usize..10, 0u8..8), 1..4),
        ) {
            let shape = |&(l, r, bits): &(usize, usize, u8)| MuxOp {
                left: alphabet[l],
                right: (bits != 0).then_some(alphabet[r]),
                commutative: bits & 2 != 0,
            };
            let ops: Vec<MuxOp<u32>> = ops.iter().map(shape).collect();
            let mut scratch = PackScratch::new(4096);
            for c in candidates.iter().map(shape) {
                let mut extended = ops.clone();
                extended.push(c);
                let oracle = pack_reference(&extended);
                let dense = pack_cost_ids(&ops, c, &mut scratch);
                prop_assert_eq!(dense, (oracle.l1.len(), oracle.l2.len()));
                prop_assert_eq!(dense, pack_cost(&extended));
            }
            let before = pack_reference(&ops);
            let seed = pack_seed_ids(&ops, &mut scratch);
            prop_assert_eq!(seed.cost(), (before.l1.len(), before.l2.len()));
        }
    }

    #[test]
    fn single_op_uses_two_inputs() {
        let p = pack(&[op("a", "b", true)]);
        assert_eq!(p.total_inputs(), 2);
    }

    #[test]
    fn identical_ops_share_everything() {
        let p = pack(&[op("a", "b", false), op("a", "b", false)]);
        assert_eq!(p.total_inputs(), 2);
    }

    #[test]
    fn commutative_swap_reuses_lines() {
        let p = pack(&[op("a", "b", false), op("b", "a", true)]);
        assert_eq!(p.total_inputs(), 2);
        assert!(p.swapped[1]);
    }

    #[test]
    fn non_commutative_mirror_needs_four_lines() {
        let p = pack(&[op("a", "b", false), op("b", "a", false)]);
        assert_eq!(p.total_inputs(), 4);
    }

    #[test]
    fn unary_ops_occupy_port_one_only() {
        let ops = [MuxOp {
            left: "x".to_string(),
            right: None,
            commutative: false,
        }];
        let p = pack(&ops);
        assert_eq!(p.l1.len(), 1);
        assert_eq!(p.l2.len(), 0);
    }

    #[test]
    fn refinement_pass_fixes_greedy_mistakes() {
        // Greedy on c1 = (a,b) picks a→L1, b→L2. Then nc = sub(b, a)
        // forces b→L1, a→L2. Flipping c1 in pass 3 reaches the optimum
        // of 2 total inputs.
        let ops = [op("a", "b", true), op("b", "a", false)];
        let p = pack(&ops);
        assert_eq!(p.total_inputs(), 2, "packing: {p:?}");
        assert!(p.swapped[0]);
    }

    #[test]
    fn packing_covers_every_operation() {
        // Whatever the orientation, each op's operands must be present
        // on the respective ports.
        let ops = [
            op("a", "b", true),
            op("c", "d", false),
            op("b", "c", true),
            op("d", "a", true),
        ];
        let p = pack(&ops);
        for (i, o) in ops.iter().enumerate() {
            let (x, y) = if p.swapped[i] {
                (o.right.clone().expect("binary"), o.left.clone())
            } else {
                (o.left.clone(), o.right.clone().expect("binary"))
            };
            assert!(p.l1.contains(&x), "op {i} port-1 source missing");
            assert!(p.l2.contains(&y), "op {i} port-2 source missing");
        }
    }

    #[test]
    fn insertion_accepts_covered_ops_and_declines_new_lines() {
        // sub(a,b) fixes a→L1, b→L2; add(b,a) swaps onto the same lines.
        let ops = vec![op("a", "b", false), op("b", "a", true)];
        let mut seed = pack_seed(&ops);
        assert_eq!(seed.cost(), (1, 1));

        // A commutative candidate whose swap orientation is covered.
        let covered = op("b", "a", true);
        assert_eq!(seed.price(&ops, &covered), Some(((1, 1), true)));

        // A fixed candidate matching the pass-1 claims verbatim.
        assert_eq!(
            seed.price(&ops, &op("a", "b", false)),
            Some(((1, 1), false))
        );

        // A unary candidate is covered by port 1 alone.
        let unary = MuxOp {
            left: "a".to_string(),
            right: None,
            commutative: false,
        };
        assert_eq!(seed.price(&ops, &unary), Some(((1, 1), false)));

        // A new source line is priced exactly: c joins L1.
        let fresh = op("c", "b", true);
        assert_eq!(seed.price(&ops, &fresh), Some(((2, 1), false)));
        let mut extended = ops.clone();
        extended.push(fresh.clone());
        assert_eq!(pack_cost(&extended), (2, 1));

        // Inserting keeps the seed equal to the cold seed of the
        // extended list.
        seed.insert(&fresh, (2, 1), false);
        assert_eq!(seed.len(), 3);
        assert_eq!(seed, pack_seed(&extended));
        assert_eq!(seed.price(&extended, &covered), Some(((2, 1), true)));

        // A new port-1 line that makes an earlier op's flip profitable
        // is declined: add(u,a) is the sole user of u on L1 and of a on
        // L2, so once add(a,w) puts a on L1, flipping add(u,a) saves a
        // line and the cold pack ends at (2, 2), not (3, 2).
        let ops = vec![op("u", "a", true), op("z", "w", false)];
        let seed = pack_seed(&ops);
        assert_eq!(seed.cost(), (2, 2));
        let flipper = op("a", "w", true);
        assert_eq!(seed.price(&ops, &flipper), None);
        let mut extended = ops.clone();
        extended.push(flipper);
        assert_eq!(pack_cost(&extended), (2, 2));
    }

    #[test]
    fn insertion_is_conservative_without_a_known_fixpoint() {
        // A seed reconstructed from raw orientations is not a known
        // refinement fixpoint, so even a fully covered candidate must
        // be declined.
        let ops = vec![MuxOp {
            left: 1u8,
            right: Some(2),
            commutative: true,
        }];
        let seed = PackSeed::from_orientations(&ops, &[false], false);
        assert_eq!(seed.price(&ops, &ops[0]), None);
    }

    #[test]
    fn unstable_seeds_price_strangers() {
        // Greedy keeps add(a,b) as written, but once add(b,c) puts b on
        // L1 and sub(d,c) holds c on L2, refinement flips it to (2, 2):
        // the seed is not a fixpoint. Covered candidates decline,
        // strangers are priced at the cost plus their lines and
        // inserted.
        let ops = vec![op("a", "b", true), op("b", "c", true), op("d", "c", false)];
        let mut seed = pack_seed(&ops);
        assert!(!seed.stable);
        assert_eq!(seed.cost(), (2, 2));
        assert_eq!(seed.price(&ops, &op("a", "b", true)), None);
        let stranger = op("x", "y", false);
        assert!(seed.is_stranger(&stranger));
        assert_eq!(seed.price(&ops, &stranger), Some(((3, 3), false)));
        let mut extended = ops.clone();
        extended.push(stranger.clone());
        assert_eq!(pack_cost(&extended), (3, 3));
        seed.insert(&stranger, (3, 3), false);
        assert_eq!(seed, pack_seed(&extended));
        assert!(!seed.stable);
        // A line of the seed on either port makes the op no stranger.
        assert!(!seed.is_stranger(&op("e", "a", true)));
        assert!(!seed.is_stranger(&op("b", "e", true)));
    }

    #[test]
    fn the_default_seed_is_the_empty_pack_and_carries_what_it_packs() {
        let empty: PackSeed<u32> = PackSeed::default();
        assert_eq!(empty, pack_seed_ids(&[], &mut PackScratch::new(4)));
        assert!(empty.stable);
        let seed = pack_seed(&[op("a", "b", true), op("c", "a", false)]);
        for source in ["a", "b", "c"] {
            assert!(seed.carries(&source.to_string()), "{source}");
        }
        assert!(!seed.carries(&"d".to_string()));
    }

    #[test]
    fn fixed_insertion_requires_fixed_coverage() {
        // b→L1 and a→L2 are claimed only by the *commutative* op. A
        // non-commutative sub(b,a) joins pass 1 on the same lines, so
        // the greedy replay of add(b,a) keeps its orientation and the
        // price is exact at no new line.
        let ops = vec![op("b", "a", true)];
        let seed = pack_seed(&ops);
        assert_eq!(seed.cost(), (1, 1));
        assert_eq!(
            seed.price(&ops, &op("b", "a", false)),
            Some(((1, 1), false))
        );
        // sub(a,b) claims a→L1, b→L2 in pass 1, so the replay swaps
        // add(b,a): the pass-2 state diverges and the rule declines.
        assert_eq!(seed.price(&ops, &op("a", "b", false)), None);
        let mut extended = ops.clone();
        extended.push(op("a", "b", false));
        assert!(pack(&extended).swapped[0]);
        // The commutative twin is covered and accepted.
        assert_eq!(seed.price(&ops, &op("b", "a", true)), Some(((1, 1), false)));
    }

    #[test]
    fn empty_input_is_empty_packing() {
        let p = pack::<String>(&[]);
        assert_eq!(p.total_inputs(), 0);
        assert!(p.swapped.is_empty());
    }
}
