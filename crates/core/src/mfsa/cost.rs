//! The dynamic Liapunov function's cost terms (paper §4.1).

use hls_celllib::{Area, Library};
use hls_dfg::SignalId;
use hls_rtl::muxopt::{pack_cost, MuxOp};

use crate::mfsa::Weights;

/// A multiplexer input *line* at estimation time. Interconnect sharing
/// (paper §5.7) folds every value produced by the same ALU onto one
/// line; with sharing disabled each signal is its own line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum EstSource {
    /// A primary input or constant port.
    External(SignalId),
    /// The result path of ALU instance `n` (interconnect sharing on).
    FromAlu(u32),
    /// An individual stored signal (interconnect sharing off).
    Signal(SignalId),
}

/// Evaluates the four `f` terms for candidate positions.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    weights: Weights,
    /// The `f_TIME` constant `C > w_A·f_ALU^max + w_M·f_MUX^max +
    /// w_R·f_REG^max`, guaranteeing an earlier feasible step always wins
    /// when `w_TIME ≥ 1`.
    c_const: u64,
    reg_area: u64,
    mux_table: Vec<u64>,
}

impl CostModel {
    pub(crate) fn new(library: &Library, weights: Weights) -> CostModel {
        let c_const = weights.alu as u64 * library.max_alu_area().as_u64()
            + weights.mux as u64 * library.max_mux_term().as_u64()
            + weights.reg as u64 * library.max_reg_term().as_u64()
            + 1;
        // Cache the mux curve for the widths we will see.
        let mux_table = (0..64).map(|r| library.mux().cost(r).as_u64()).collect();
        CostModel {
            weights,
            c_const,
            reg_area: library.register_area().as_u64(),
            mux_table,
        }
    }

    /// `w_TIME · C · y`.
    pub(crate) fn f_time(&self, step: u32) -> u64 {
        self.weights.time as u64 * self.c_const * step as u64
    }

    /// `w_ALU · ΔALU-area` for a new or upgraded instance.
    pub(crate) fn f_alu(&self, delta: Area) -> u64 {
        self.weights.alu as u64 * delta.as_u64()
    }

    /// `w_MUX · (Cost(MUX¹_after) + Cost(MUX²_after) − before)` under the
    /// best-case packing of the instance's operand sources. This is the
    /// generic route the exhaustive oracle prices through; the pruned
    /// loop packs dense line ids and calls [`Self::f_mux_delta`].
    pub(crate) fn f_mux(&self, before: &[MuxOp<EstSource>], candidate: MuxOp<EstSource>) -> u64 {
        let mut after = before.to_vec();
        after.push(candidate);
        self.f_mux_delta(pack_cost(before), pack_cost(&after))
    }

    /// The f_MUX delta between two packings given as `(|L1|, |L2|)`:
    /// `w_MUX · (pair cost after − pair cost before)`, floored at 0.
    pub(crate) fn f_mux_delta(&self, before: (usize, usize), after: (usize, usize)) -> u64 {
        let pair = |(l1, l2): (usize, usize)| self.mux_cost(l1) + self.mux_cost(l2);
        self.weights.mux as u64 * pair(after).saturating_sub(pair(before))
    }

    /// The width `T` from which the mux curve's marginal cost
    /// `Cost(l + 1) − Cost(l)` is the same for every `l ≥ T`. A
    /// stranger's f_MUX is `w_MUX · (marginal(|L1|) + marginal(|L2|))`
    /// (the second only for a binary op), so it depends on each port
    /// width only through `min(width, T)`.
    pub(crate) fn flat_mux_width(&self) -> usize {
        let marginal = |l: usize| self.mux_cost(l + 1).wrapping_sub(self.mux_cost(l));
        // Past the table the curve is extended at its last step, so the
        // marginal is constant from the table's last index on.
        let last = self.mux_table.len() - 1;
        let flat = marginal(last);
        (0..last)
            .rev()
            .take_while(|&l| marginal(l) == flat)
            .last()
            .unwrap_or(last)
    }

    fn mux_cost(&self, inputs: usize) -> u64 {
        match self.mux_table.get(inputs) {
            Some(&c) => c,
            None => {
                let last = *self.mux_table.last().expect("non-empty");
                let step = last - self.mux_table[self.mux_table.len() - 2];
                last + step * (inputs + 1 - self.mux_table.len()) as u64
            }
        }
    }

    /// `w_REG · ΔREG-count · Cost(REG)`.
    pub(crate) fn f_reg(&self, delta_registers: usize) -> u64 {
        self.weights.reg as u64 * delta_registers as u64 * self.reg_area
    }

    /// A Liapunov lower bound for the branch-and-bound search: the
    /// energy of any candidate at `step` whose exactly-known non-time
    /// terms sum to `known`. Every term of the energy is ≥ 0, so
    /// `f_TIME(step) + known` never exceeds the true total — with
    /// `known = 0` this is the level-0 bound behind the wholesale
    /// later-step cut, and the instance-level cut passes the exact
    /// `f_REG + f_ALU` sum, leaving only the mux-repacking delta
    /// unknown. For fixed `known` the bound is monotone non-decreasing
    /// in the step index (`f_TIME = w_T·C·step`), which is what lets
    /// the step queue cut every remaining step at once.
    pub(crate) fn lower_bound(&self, step: u32, known: u64) -> u64 {
        self.f_time(step) + known
    }
}

/// Incremental estimate of the register demand ("a backward look at the
/// partially constructed schedule", §4.1): one life span per stored
/// signal, extended as consumers are scheduled; the register count is
/// the peak number of simultaneously live spans, which the final
/// left-edge pass meets exactly.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegEstimate {
    /// Signal index → `(birth, death)`, both inclusive; `(0, 0)` while
    /// the signal has no span (steps start at 1).
    spans: Vec<(u32, u32)>,
    /// Spans covering each step (index = step, entry 0 unused).
    live: Vec<u32>,
    /// Cached `max(live)` — exact because spans only widen, so per-step
    /// coverage (and hence the peak) is monotone under `commit`.
    peak: usize,
}

impl RegEstimate {
    pub(crate) fn new() -> RegEstimate {
        RegEstimate::default()
    }

    /// Current register count (peak simultaneously-live spans).
    pub(crate) fn count(&self) -> usize {
        self.peak
    }

    fn span(&self, sig: SignalId) -> Option<(u32, u32)> {
        self.spans.get(sig.index()).copied().filter(|&(b, _)| b > 0)
    }

    /// The steps newly covered by the signal of `extensions[j]`: its
    /// span widened by every extension naming it, minus its committed
    /// span, as two inclusive ranges (either may be empty). `None` when
    /// an earlier extension names the same signal (an op can consume
    /// one signal twice), so each signal is counted once.
    fn newly(&self, extensions: &[(SignalId, u32, u32)], j: usize) -> Option<[(u32, u32); 2]> {
        let sig = extensions[j].0;
        if extensions[..j].iter().any(|e| e.0 == sig) {
            return None;
        }
        let (nb, nd) = extensions[j..]
            .iter()
            .filter(|e| e.0 == sig)
            .fold((u32::MAX, 0), |(b, d), e| (b.min(e.1), d.max(e.2)));
        Some(match self.span(sig) {
            Some((ob, od)) => [(nb.min(ob), ob - 1), (od + 1, nd.max(od))],
            None => [(nb, nd), (1, 0)],
        })
    }

    /// The count if `extensions` were applied: each `(signal, birth,
    /// death)` inserts or extends a span. Evaluated against the cached
    /// per-step coverage — only the *newly covered* steps can raise the
    /// peak, so no span is copied, nothing is allocated and no full
    /// rescan runs.
    pub(crate) fn count_with(&self, extensions: &[(SignalId, u32, u32)]) -> usize {
        let covers =
            |r: &[(u32, u32); 2], step: u32| r.iter().any(|&(lo, hi)| lo <= step && step <= hi);
        let mut peak = self.peak;
        for j in 0..extensions.len() {
            let Some(ranges) = self.newly(extensions, j) else {
                continue;
            };
            for step in ranges.into_iter().flat_map(|(lo, hi)| lo..=hi) {
                // Steps without new coverage keep their old count ≤ peak.
                let added = (0..extensions.len())
                    .filter_map(|k| self.newly(extensions, k))
                    .filter(|r| covers(r, step))
                    .count();
                let base = self.live.get(step as usize).copied().unwrap_or(0) as usize;
                peak = peak.max(base + added);
            }
        }
        peak
    }

    /// Applies `extensions` permanently.
    pub(crate) fn commit(&mut self, extensions: &[(SignalId, u32, u32)]) {
        for &(sig, birth, death) in extensions {
            if self.spans.len() <= sig.index() {
                self.spans.resize(sig.index() + 1, (0, 0));
            }
            let span = &mut self.spans[sig.index()];
            let (cover_a, cover_b) = match *span {
                (0, _) => {
                    *span = (birth, death);
                    (1..1, birth..=death)
                }
                (ob, od) => {
                    let (nb, nd) = (ob.min(birth), od.max(death));
                    *span = (nb, nd);
                    (nb..ob, od + 1..=nd)
                }
            };
            for step in cover_a.chain(cover_b) {
                let idx = step as usize;
                if self.live.len() <= idx {
                    self.live.resize(idx + 1, 0);
                }
                self.live[idx] += 1;
                self.peak = self.peak.max(self.live[idx] as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;

    fn sig(n: usize) -> SignalId {
        // Construct distinct SignalIds through a throwaway builder.
        let mut b = hls_dfg::DfgBuilder::new("stub");
        let mut last = b.input("s0");
        for i in 1..=n {
            last = b.input(&format!("s{i}"));
        }
        last
    }

    #[test]
    fn time_term_dominates_cost_terms() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        // One full step of f_TIME exceeds the largest possible sum of
        // the other three terms (the paper's C inequality).
        let worst = model.f_alu(lib.max_alu_area())
            + Weights::default().mux as u64 * lib.max_mux_term().as_u64()
            + model.f_reg(2);
        assert!(model.f_time(1) > worst);
        assert!(model.f_time(2) - model.f_time(1) > worst);
    }

    #[test]
    fn f_mux_charges_only_new_lines() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        let a = EstSource::External(sig(1));
        let b = EstSource::External(sig(2));
        let existing = vec![MuxOp {
            left: a,
            right: Some(b),
            commutative: false,
        }];
        // The same operand pair again: no growth, no cost.
        assert_eq!(
            model.f_mux(
                &existing,
                MuxOp {
                    left: a,
                    right: Some(b),
                    commutative: false
                }
            ),
            0
        );
        // A commutative op with swapped operands: packing reuses lines.
        assert_eq!(
            model.f_mux(
                &existing,
                MuxOp {
                    left: b,
                    right: Some(a),
                    commutative: true
                }
            ),
            0
        );
        // A brand-new pair must pay for widening both muxes to 2 inputs.
        let c = EstSource::External(sig(3));
        let d = EstSource::External(sig(4));
        let grow = model.f_mux(
            &existing,
            MuxOp {
                left: c,
                right: Some(d),
                commutative: false,
            },
        );
        assert_eq!(grow, 2 * lib.mux().cost(2).as_u64());
    }

    #[test]
    fn reg_estimate_counts_peak_overlap() {
        let mut est = RegEstimate::new();
        assert_eq!(est.count(), 0);
        est.commit(&[(sig(1), 1, 3), (sig(2), 2, 4)]);
        assert_eq!(est.count(), 2);
        // A third overlapping span raises the count by one.
        assert_eq!(est.count_with(&[(sig(3), 3, 3)]), 3);
        // A disjoint span does not.
        assert_eq!(est.count_with(&[(sig(3), 5, 6)]), 2);
        // Extending an existing signal's death does not add a register
        // when nothing else overlaps the extension.
        assert_eq!(est.count_with(&[(sig(2), 2, 9)]), 2);
    }

    #[test]
    fn f_reg_scales_with_register_area() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        assert_eq!(model.f_reg(0), 0);
        assert_eq!(model.f_reg(2), 2 * lib.register_area().as_u64());
    }

    #[test]
    fn weights_scale_terms() {
        let lib = Library::ncr_like();
        let w = Weights {
            time: 1,
            alu: 3,
            mux: 1,
            reg: 5,
        };
        let model = CostModel::new(&lib, w);
        let area = lib.fu_area(OpKind::Add).unwrap();
        assert_eq!(model.f_alu(area), 3 * area.as_u64());
        assert_eq!(model.f_reg(1), 5 * lib.register_area().as_u64());
    }

    /// The register estimate against a from-scratch recount: spans kept
    /// per signal in a map, the peak taken over every step. `count_with`
    /// must predict the count `commit` then reaches, for extension lists
    /// that name a signal twice, widen spans on both sides, or open new
    /// ones.
    mod register_estimate {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        fn recount(spans: &BTreeMap<usize, (u32, u32)>) -> usize {
            (1..=64u32)
                .map(|step| {
                    spans
                        .values()
                        .filter(|&&(b, d)| b <= step && step <= d)
                        .count()
                })
                .max()
                .unwrap_or(0)
        }

        proptest! {
            #[test]
            fn count_with_predicts_commit_and_matches_a_recount(
                rounds in proptest::collection::vec(
                    proptest::collection::vec((0usize..6, 1u32..30, 0u32..12), 0..4),
                    1..40,
                ),
            ) {
                let sigs: Vec<SignalId> = (0..6).map(sig).collect();
                let mut est = RegEstimate::new();
                let mut spans: BTreeMap<usize, (u32, u32)> = BTreeMap::new();
                for round in &rounds {
                    let ext: Vec<(SignalId, u32, u32)> = round
                        .iter()
                        .map(|&(s, birth, len)| (sigs[s], birth, birth + len))
                        .collect();
                    let predicted = est.count_with(&ext);
                    est.commit(&ext);
                    for &(s, birth, len) in round {
                        let span = spans.entry(s).or_insert((birth, birth + len));
                        *span = (span.0.min(birth), span.1.max(birth + len));
                    }
                    prop_assert_eq!(predicted, est.count());
                    prop_assert_eq!(est.count(), recount(&spans));
                }
            }
        }
    }

    mod bound_soundness {
        use super::*;
        use proptest::prelude::*;

        /// A candidate's exact energy from its four terms.
        fn energy(model: &CostModel, step: u32, f_alu: u64, f_mux: u64, f_reg: u64) -> u64 {
            model.f_time(step) + f_alu + f_mux + f_reg
        }

        proptest! {
            /// `lower_bound(step, known) ≤ energy` exactly, at every
            /// level the search uses it: `known = 0` (wholesale step
            /// cut), `known = f_REG` (per-step cut) and `known = f_REG
            /// + f_ALU` (instance cut) — each leaves only non-negative
            /// terms unaccounted for.
            #[test]
            fn lower_bound_never_exceeds_the_energy(
                step in 1u32..200,
                f_alu in 0u64..10_000,
                f_mux in 0u64..10_000,
                f_reg in 0u64..10_000,
                weight_idx in 0usize..3,
            ) {
                let lib = Library::ncr_like();
                let weights = [
                    Weights::default(),
                    Weights { time: 0, alu: 1, mux: 1, reg: 1 },
                    Weights { time: 2, alu: 1, mux: 3, reg: 4 },
                ][weight_idx];
                let model = CostModel::new(&lib, weights);
                let e = energy(&model, step, f_alu, f_mux, f_reg);
                prop_assert!(model.lower_bound(step, 0) <= e);
                prop_assert!(model.lower_bound(step, f_reg) <= e);
                prop_assert!(model.lower_bound(step, f_reg + f_alu) <= e);
                // With every term known the bound is exact.
                prop_assert_eq!(model.lower_bound(step, f_reg + f_alu + f_mux), e);
            }

            /// For a fixed `known` the bound is monotone non-decreasing
            /// in the step index — the property that lets one queue pop
            /// cut every remaining (later) step wholesale.
            #[test]
            fn lower_bound_is_monotone_in_step(
                step in 1u32..199,
                known in 0u64..30_000,
                weight_idx in 0usize..3,
            ) {
                let lib = Library::ncr_like();
                let weights = [
                    Weights::default(),
                    Weights { time: 0, alu: 1, mux: 1, reg: 1 },
                    Weights { time: 2, alu: 1, mux: 3, reg: 4 },
                ][weight_idx];
                let model = CostModel::new(&lib, weights);
                prop_assert!(model.lower_bound(step, known) <= model.lower_bound(step + 1, known));
            }
        }
    }

    /// A stranger's f_MUX — one more line on port 1, and on port 2 for
    /// a binary op — is the same at any widths as at their classes
    /// `min(width, T)`, for curves whose marginal flattens early, late,
    /// or only past the model's cached table; and `T` is the least such
    /// width.
    #[test]
    fn the_flat_mux_width_classes_stranger_prices_exactly() {
        use hls_celllib::{LibraryBuilder, MuxCost};
        let table = |costs: &[u64]| costs.iter().map(|&c| Area::new(c)).collect::<Vec<_>>();
        let mut late: Vec<u64> = (0..80).map(|r| 10 * r * r).collect();
        late[1] = 0;
        let curves = [
            (MuxCost::ncr_like(), Some(6)),
            (
                MuxCost::from_table(
                    table(&[0, 0, 300, 450, 580, 700, 790, 870, 950, 1000]),
                    Area::new(40),
                ),
                Some(9),
            ),
            (
                MuxCost::from_table(table(&[0, 0, 100]), Area::new(100)),
                Some(1),
            ),
            (MuxCost::from_table(table(&late), Area::new(7)), None),
        ];
        for (curve, expected) in curves {
            let lib = LibraryBuilder::new("curve")
                .fu(OpKind::Add, Area::new(2330))
                .single_alu(OpKind::Add)
                .mux(curve)
                .build()
                .unwrap();
            let model = CostModel::new(&lib, Weights::default());
            let t = model.flat_mux_width();
            if let Some(expected) = expected {
                assert_eq!(t, expected);
            }
            let marginal = |l: usize| model.mux_cost(l + 1) as i64 - model.mux_cost(l) as i64;
            assert!(
                t == 0 || marginal(t - 1) != marginal(t),
                "T is the least flat width"
            );
            for l1 in 0..100 {
                for l2 in 0..100 {
                    for binary in [0, 1] {
                        let (c1, c2) = (l1.min(t), l2.min(t));
                        assert_eq!(
                            model.f_mux_delta((l1, l2), (l1 + 1, l2 + binary)),
                            model.f_mux_delta((c1, c2), (c1 + 1, c2 + binary)),
                            "widths ({l1}, {l2}), binary {binary}, T {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mux_cost_extrapolates_beyond_the_table() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        // Widths beyond the cached table grow linearly.
        let c64 = model.mux_cost(64);
        let c65 = model.mux_cost(65);
        let c66 = model.mux_cost(66);
        assert_eq!(c66 - c65, c65 - c64);
    }
}
