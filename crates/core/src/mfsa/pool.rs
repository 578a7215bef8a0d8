//! The pruned MFSA loop's ALU instances and the two indexes that let
//! an op's host search skip most of them (DESIGN §14, "Stranger
//! buckets").
//!
//! An instance that carries none of an op's mux lines — a *stranger* —
//! prices the op at its port widths plus one line per port the op
//! uses, so its whole candidate key follows from its kind and the
//! classes of its two widths. The pool files every instance under that
//! `(kind, class(|L1|), class(|L2|))` bucket, and keeps per line the
//! instances that carry it (the op's *acquaintances*, priced one at a
//! time). An op then visits its acquaintances plus one representative
//! per non-empty bucket instead of every free instance.

use hls_rtl::muxopt::{pack_seed_ids, MuxOp, PackScratch, PackSeed};

use crate::mfsa::cost::CostModel;

/// No entry: the end of a carrier list, or an instance or class with
/// no bucket yet.
const NONE: u32 = u32::MAX;

/// Sets bit `i` of a word set, growing it as needed.
pub(crate) fn set_bit(words: &mut Vec<u64>, i: usize) {
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a word set that holds it.
pub(crate) fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Whether bit `i` of a word set is set.
pub(crate) fn has_bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// The number of set bits of a word set.
pub(crate) fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The set bits of a word set, lowest first: the instances or ports a
/// column mask holds, as 0-based indices.
pub(crate) fn members(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
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

/// One committed ALU instance.
pub(crate) struct Host {
    pub(crate) kind_index: usize,
    /// The operand lines of its ops (dense line ids), in commit order.
    pub(crate) mux_ops: Vec<MuxOp<u32>>,
    /// The refcount seed of `mux_ops`, current after every commit: its
    /// cost is the instance's port widths, the `before` term of every
    /// f_MUX delta, and [`PackSeed::price`] answers most candidates'
    /// `after` term from it without a repack.
    pub(crate) seed: PackSeed<u32>,
}

/// The instances grouped by `(kind, class(|L1|), class(|L2|))`, with
/// `class(l) = min(l, cap)`, plus the list of non-empty buckets.
struct Buckets {
    cap: usize,
    /// Kind → `(c1, c2)` → bucket, dense, [`NONE`] until first used;
    /// a kind's table is made when its first instance is filed.
    index: Vec<Vec<u32>>,
    /// Per bucket: its strangers' kind and f_MUX, members and member
    /// count.
    strangers: Vec<Strangers>,
    sets: Vec<Vec<u64>>,
    sizes: Vec<u32>,
    /// The non-empty buckets, and each bucket's position in `live`.
    live: Vec<u32>,
    at: Vec<usize>,
    /// Instance → its bucket.
    of: Vec<u32>,
}

/// What every member of a bucket costs an op it does not know.
#[derive(Clone, Copy)]
pub(crate) struct Strangers {
    /// The members' current kind.
    pub(crate) kind: usize,
    /// f_MUX of a unary and of a binary op on a member: one more line
    /// on port 1, and on port 2 when the op is binary.
    pub(crate) f_mux: [u64; 2],
}

impl Buckets {
    fn new(kinds: usize, cap: usize) -> Buckets {
        Buckets {
            cap,
            index: vec![Vec::new(); kinds],
            strangers: Vec::new(),
            sets: Vec::new(),
            sizes: Vec::new(),
            live: Vec::new(),
            at: Vec::new(),
            of: Vec::new(),
        }
    }

    /// Files instance `i` under `kind` and port widths `(l1, l2)`,
    /// moving it out of its previous bucket.
    fn file(&mut self, i: usize, kind: usize, (l1, l2): (usize, usize), model: &CostModel) {
        let (c1, c2) = (l1.min(self.cap), l2.min(self.cap));
        let side = self.cap + 1;
        let index = &mut self.index[kind];
        if index.is_empty() {
            index.resize(side * side, NONE);
        }
        let slot = &mut index[c1 * side + c2];
        if *slot == NONE {
            *slot = self.strangers.len() as u32;
            // The class widths price a stranger exactly: the marginal
            // mux cost is flat from `cap` on.
            let f_mux = [0, 1].map(|binary| model.f_mux_delta((c1, c2), (c1 + 1, c2 + binary)));
            self.strangers.push(Strangers { kind, f_mux });
            self.sets.push(Vec::new());
            self.sizes.push(0);
            self.at.push(0);
        }
        let b = *slot;
        if self.of.len() <= i {
            self.of.resize(i + 1, NONE);
        }
        let old = std::mem::replace(&mut self.of[i], b);
        if old == b {
            return;
        }
        if old != NONE {
            let old = old as usize;
            clear_bit(&mut self.sets[old], i);
            self.sizes[old] -= 1;
            if self.sizes[old] == 0 {
                let at = self.at[old];
                self.live.swap_remove(at);
                if let Some(&moved) = self.live.get(at) {
                    self.at[moved as usize] = at;
                }
            }
        }
        let b = b as usize;
        set_bit(&mut self.sets[b], i);
        self.sizes[b] += 1;
        if self.sizes[b] == 1 {
            self.at[b] = self.live.len();
            self.live.push(b as u32);
        }
    }
}

/// Per mux line, the instances whose committed packing carries it. A
/// line, once carried, stays carried, so each instance joins a line's
/// list once, at the commit that first brings the line: the lists hold
/// at most one entry per distinct (line, instance) pair, never one per
/// op. Singly linked through one arena, newest first.
struct Carriers {
    head: Vec<u32>,
    /// `(instance, next entry of the same line)`.
    entries: Vec<(u32, u32)>,
}

impl Carriers {
    fn add(&mut self, line: u32, i: usize) {
        let head = &mut self.head[line as usize];
        self.entries.push((i as u32, *head));
        *head = (self.entries.len() - 1) as u32;
    }

    fn of(&self, line: u32) -> impl Iterator<Item = usize> + '_ {
        let mut e = self.head[line as usize];
        std::iter::from_fn(move || {
            (e != NONE).then(|| {
                let (i, next) = self.entries[e as usize];
                e = next;
                i as usize
            })
        })
    }
}

/// The committed ALU instances, with per ALU kind a word set of its
/// instances (the instances an op may reuse or upgrade are a few word
/// ORs), the stranger buckets and the line carriers. Where each
/// instance is busy lives in the run's instance grid, whose column
/// `i + 1` is instance `i`.
pub(crate) struct InstancePool<'m> {
    pub(crate) instances: Vec<Host>,
    /// Kind index → instances of that kind.
    kind_sets: Vec<Vec<u64>>,
    buckets: Buckets,
    carriers: Carriers,
    model: &'m CostModel,
}

impl<'m> InstancePool<'m> {
    /// An empty pool over `kinds` ALU kinds and mux line ids
    /// `0..lines`, whose buckets class port widths at the model's
    /// [`CostModel::flat_mux_width`].
    pub(crate) fn new(kinds: usize, lines: usize, model: &'m CostModel) -> InstancePool<'m> {
        InstancePool {
            instances: Vec::new(),
            kind_sets: vec![Vec::new(); kinds],
            buckets: Buckets::new(kinds, model.flat_mux_width()),
            carriers: Carriers {
                head: vec![NONE; lines],
                entries: Vec::new(),
            },
            model,
        }
    }

    /// Commits `op` to instance `i` — a new one when `None` — as kind
    /// `kind_index`; returns the instance. `answer` is what
    /// [`PackSeed::price`] said for `op` on the instance's seed, when
    /// already asked. The instance joins the carrier list of each line
    /// it did not carry yet, and its seed is extended in place when the
    /// answer is a price, else rebuilt at once, so its widths — and its
    /// bucket — are always current.
    pub(crate) fn commit(
        &mut self,
        i: Option<usize>,
        kind_index: usize,
        op: MuxOp<u32>,
        answer: Option<Option<((usize, usize), bool)>>,
        scratch: &mut PackScratch,
    ) -> usize {
        let i = match i {
            Some(i) => {
                let old = std::mem::replace(&mut self.instances[i].kind_index, kind_index);
                clear_bit(&mut self.kind_sets[old], i);
                i
            }
            None => {
                self.instances.push(Host {
                    kind_index,
                    mux_ops: Vec::new(),
                    seed: PackSeed::default(),
                });
                self.instances.len() - 1
            }
        };
        set_bit(&mut self.kind_sets[kind_index], i);
        let host = &mut self.instances[i];
        for line in [Some(op.left), op.right.filter(|&r| r != op.left)]
            .into_iter()
            .flatten()
        {
            if !host.seed.carries(&line) {
                self.carriers.add(line, i);
            }
        }
        match answer.unwrap_or_else(|| host.seed.price(&host.mux_ops, &op)) {
            Some((cost, swap)) => {
                host.seed.insert(&op, cost, swap);
                host.mux_ops.push(op);
            }
            None => {
                host.mux_ops.push(op);
                host.seed = pack_seed_ids(&host.mux_ops, scratch);
            }
        }
        self.buckets
            .file(i, kind_index, host.seed.cost(), self.model);
        i
    }

    /// The instances whose kind satisfies `usable`, as a word set in
    /// `mask`. Only kinds some instance has had are asked.
    pub(crate) fn kind_mask(&self, mut usable: impl FnMut(usize) -> bool, mask: &mut Vec<u64>) {
        mask.clear();
        mask.resize(self.words(), 0);
        for (k, set) in self.kind_sets.iter().enumerate() {
            if !set.is_empty() && usable(k) {
                for (m, w) in mask.iter_mut().zip(set) {
                    *m |= w;
                }
            }
        }
    }

    /// Words of a word set over the instances.
    pub(crate) fn words(&self) -> usize {
        self.instances.len().div_ceil(64)
    }

    /// The instances that carry `line`, each once.
    pub(crate) fn carriers(&self, line: u32) -> impl Iterator<Item = usize> + '_ {
        self.carriers.of(line)
    }

    /// The non-empty buckets: what their members cost a stranger op,
    /// and the members.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (Strangers, &[u64])> + '_ {
        self.buckets.live.iter().map(|&b| {
            let b = b as usize;
            (self.buckets.strangers[b], &self.buckets.sets[b][..])
        })
    }

    /// Each instance's kind, in instance order.
    pub(crate) fn into_kinds(self) -> Vec<usize> {
        self.instances.into_iter().map(|h| h.kind_index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mfsa::Weights;
    use hls_celllib::Library;

    fn op(left: u32, right: Option<u32>) -> MuxOp<u32> {
        MuxOp {
            left,
            right,
            commutative: true,
        }
    }

    /// A line read by every op: however many ops land on each
    /// instance, the line's carrier list names each instance once, so
    /// no list outgrows the pool.
    #[test]
    fn a_line_read_by_every_op_lists_each_carrier_once() {
        let (kinds, lines) = (3, 700);
        let model = CostModel::new(&Library::ncr_like(), Weights::default());
        let mut pool = InstancePool::new(kinds, lines, &model);
        let mut scratch = PackScratch::new(lines);
        for i in 0..70 {
            pool.commit(
                None,
                i % kinds,
                op(600 + i as u32, None),
                None,
                &mut scratch,
            );
        }
        for n in 0..500u32 {
            let i = (n as usize * 3) % 70;
            let kind = pool.instances[i].kind_index;
            pool.commit(Some(i), kind, op(0, Some(1 + n)), None, &mut scratch);
        }
        let carriers: Vec<usize> = pool.carriers(0).collect();
        assert_eq!(carriers.len(), 70);
        assert!(carriers.len() <= pool.instances.len());
        for line in 0..lines as u32 {
            let mut list: Vec<usize> = pool.carriers(line).collect();
            let len = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), len, "line {line} lists an instance twice");
            assert!(len <= pool.instances.len());
        }
        // Every (line, instance) pair the commits brought, and no more.
        let pairs: usize = pool
            .instances
            .iter()
            .map(|h| {
                let mut lines: Vec<u32> = h
                    .mux_ops
                    .iter()
                    .flat_map(|o| [Some(o.left), o.right])
                    .flatten()
                    .collect();
                lines.sort_unstable();
                lines.dedup();
                lines.len()
            })
            .sum();
        assert_eq!(pool.carriers.entries.len(), pairs);
    }

    /// Every instance sits in exactly one live bucket, of its kind and
    /// pricing a stranger op as its own widths do (past the class cap
    /// too), and its seed is the cold pack of its ops.
    #[test]
    fn buckets_follow_kinds_and_widths() {
        let (kinds, lines) = (2, 64);
        let model = CostModel::new(&Library::ncr_like(), Weights::default());
        let cap = model.flat_mux_width();
        let mut pool = InstancePool::new(kinds, lines, &model);
        let mut scratch = PackScratch::new(lines);
        for i in 0..80 {
            pool.commit(None, i % kinds, op(i as u32 % 59, None), None, &mut scratch);
        }
        for n in 0..1200u32 {
            let i = (n as usize * 13) % 80;
            let kind = (n as usize / 7) % kinds;
            let right = (n % 3 != 0).then_some(n % 61);
            pool.commit(Some(i), kind, op(n % 59, right), None, &mut scratch);
        }
        let (mut seen, mut wide) = (vec![false; 80], false);
        for (strangers, set) in pool.buckets() {
            assert!(popcount(set) > 0, "a live bucket is non-empty");
            for i in members(set) {
                assert!(!std::mem::replace(&mut seen[i], true));
                let h = &pool.instances[i];
                assert_eq!(strangers.kind, h.kind_index);
                assert_eq!(h.seed, pack_seed_ids(&h.mux_ops, &mut scratch));
                // The bucket's f_MUX is the instance's own, at its
                // full widths.
                let (l1, l2) = h.seed.cost();
                for binary in [0, 1] {
                    let own = model.f_mux_delta((l1, l2), (l1 + 1, l2 + binary));
                    assert_eq!(strangers.f_mux[binary], own);
                }
                wide |= l1.max(l2) > cap;
            }
        }
        assert!(wide, "some instance is wider than the class cap");
        assert!(seen.iter().all(|&s| s), "every instance is filed");
    }
}
