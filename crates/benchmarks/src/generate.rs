//! Seeded random layered-DAG workload generator for scaling studies.

use hls_celllib::OpKind;
use hls_dfg::{Dfg, DfgBuilder, SignalId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one generated workload.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
    /// Number of dependency layers.
    pub layers: usize,
    /// Operations per layer.
    pub width: usize,
    /// Operator mix with relative weights (must be non-empty).
    pub mix: Vec<(OpKind, u32)>,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Probability (0–100) that an operand comes from the previous
    /// layer rather than any earlier value.
    pub locality_pct: u32,
    /// Probability (0–100) that a layer is split into two mutually
    /// exclusive branch arms (its operations then share units with the
    /// sibling arm).
    pub branch_pct: u32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 1,
            layers: 4,
            width: 8,
            mix: vec![
                (OpKind::Mul, 2),
                (OpKind::Add, 3),
                (OpKind::Sub, 2),
                (OpKind::Lt, 1),
            ],
            inputs: 6,
            locality_pct: 70,
            branch_pct: 0,
        }
    }
}

impl GeneratorConfig {
    /// A DSP-flavoured mix (multiplies and adds) of roughly
    /// `ops` operations — convenient for O(l³) sweeps.
    pub fn sized(ops: usize, seed: u64) -> GeneratorConfig {
        let width = (ops as f64).sqrt().ceil() as usize;
        let layers = ops.div_ceil(width.max(1)).max(1);
        GeneratorConfig {
            seed,
            layers,
            width: width.max(1),
            ..GeneratorConfig::default()
        }
    }
}

/// Seed of the canonical scaling workload — shared by the
/// `core_scaling` benchmark and `mfhls profile gen:OPS` so both tools
/// observe the same graphs.
pub const SCALING_SEED: u64 = 42;

/// Dependency-layer count of the canonical scaling workload. Depth is
/// fixed and width grows with the requested op count, so the critical
/// path (and thus the control-step budget) stays constant across sizes
/// and the sweep isolates how cost scales with operation count.
pub const SCALING_LAYERS: usize = 32;

/// The canonical scaling workload of roughly `ops` operations: the
/// fixed-depth, growing-width shape the `hls-explore`/`hls-serve`
/// batches hit in practice. This is the single definition used by both
/// `core_scaling` (BENCH_core.json) and `mfhls profile gen:OPS` — a
/// profile taken here attributes exactly the work the benchmark gate
/// counts.
pub fn scaling_workload(ops: usize) -> GeneratorConfig {
    GeneratorConfig {
        seed: SCALING_SEED,
        layers: SCALING_LAYERS,
        width: ops.div_ceil(SCALING_LAYERS).max(1),
        inputs: 16,
        branch_pct: 10,
        ..GeneratorConfig::default()
    }
}

/// Configuration of a clustered workload: `regions` weakly-coupled
/// layered DAGs, where each operand crosses into an earlier region with
/// probability `cut_pct` — the knob that sets how densely the regions
/// depend on each other.
#[derive(Debug, Clone)]
pub struct ClusteredConfig {
    /// Shape of each region (seed, layers, width, mix, inputs, …).
    pub region: GeneratorConfig,
    /// Number of weakly-coupled regions.
    pub regions: usize,
    /// Probability (0–100) that an operand of a non-first region comes
    /// from an earlier region instead of its own.
    pub cut_pct: u32,
}

/// Region size target of the canonical clustered workload.
pub const CLUSTER_REGION_OPS: usize = 16_000;

/// Cross-region operand probability of the canonical clustered
/// workload: sparse enough that regions stay weakly coupled, dense
/// enough that every seam carries real precedence.
pub const CLUSTER_CUT_PCT: u32 = 5;

/// The canonical clustered scaling workload of roughly `ops`
/// operations: `ops / 16k` regions (at least two) of fixed depth,
/// 5% cross-region operands: the graph every `mfhls` subcommand reads
/// as `gen:clustered:OPS`.
pub fn clustered_workload(ops: usize) -> ClusteredConfig {
    let regions = ops.div_ceil(CLUSTER_REGION_OPS).max(2);
    let per_region = ops.div_ceil(regions);
    ClusteredConfig {
        region: GeneratorConfig {
            seed: SCALING_SEED,
            layers: SCALING_LAYERS,
            width: per_region.div_ceil(SCALING_LAYERS).max(1),
            inputs: 16,
            branch_pct: 10,
            ..GeneratorConfig::default()
        },
        regions,
        cut_pct: CLUSTER_CUT_PCT,
    }
}

/// Generates a clustered DAG: `regions` copies of the layered random
/// shape laid out back to back, with `cut_pct`% of the later regions'
/// operands drawn from earlier regions. Regions are emitted in
/// dependency order, so the graph stays acyclic.
///
/// ```
/// use hls_benchmarks::generate::{generate_clustered, clustered_workload};
///
/// let dfg = generate_clustered(&clustered_workload(2_000));
/// // Deterministic: the same config reproduces the same graph.
/// assert_eq!(generate_clustered(&clustered_workload(2_000)), dfg);
/// ```
///
/// # Panics
///
/// Panics if `regions` is zero or the region shape is degenerate (see
/// [`generate`]).
pub fn generate_clustered(config: &ClusteredConfig) -> Dfg {
    assert!(config.regions >= 1, "need at least one region");
    let rc = &config.region;
    assert!(!rc.mix.is_empty(), "the operator mix must be non-empty");
    assert!(
        rc.layers >= 1 && rc.width >= 1 && rc.inputs >= 1,
        "generator dimensions must be positive"
    );
    let mut rng = StdRng::seed_from_u64(rc.seed);
    let mut b = DfgBuilder::new(format!(
        "clustered-r{}l{}w{}c{}s{}",
        config.regions, rc.layers, rc.width, config.cut_pct, rc.seed
    ));
    let total_weight: u32 = rc.mix.iter().map(|&(_, w)| w).sum();
    // Values produced by fully finished regions — the cross-cluster pool.
    let mut earlier_regions: Vec<SignalId> = Vec::new();
    for region in 0..config.regions {
        let inputs: Vec<SignalId> = (0..rc.inputs)
            .map(|i| b.input(&format!("r{region}in{i}")))
            .collect();
        let mut prev_layer: Vec<SignalId> = inputs.clone();
        let mut region_values: Vec<SignalId> = inputs;
        for layer in 0..rc.layers {
            let mut this_layer = Vec::with_capacity(rc.width);
            let branch = if rng.gen_range(0..100) < rc.branch_pct {
                Some(b.begin_branch())
            } else {
                None
            };
            for slot in 0..rc.width {
                if let Some(br) = branch {
                    b.enter_arm(br, u32::from(slot >= rc.width / 2));
                }
                let mut pick = rng.gen_range(0..total_weight);
                let kind = rc
                    .mix
                    .iter()
                    .find(|&&(_, w)| {
                        if pick < w {
                            true
                        } else {
                            pick -= w;
                            false
                        }
                    })
                    .map(|&(k, _)| k)
                    .expect("weights sum to total");
                let operand = |rng: &mut StdRng| -> SignalId {
                    if !earlier_regions.is_empty() && rng.gen_range(0..100) < config.cut_pct {
                        earlier_regions[rng.gen_range(0..earlier_regions.len())]
                    } else if rng.gen_range(0..100) < rc.locality_pct && !prev_layer.is_empty() {
                        prev_layer[rng.gen_range(0..prev_layer.len())]
                    } else {
                        region_values[rng.gen_range(0..region_values.len())]
                    }
                };
                let ins: Vec<SignalId> = (0..kind.arity()).map(|_| operand(&mut rng)).collect();
                let out = b
                    .op(&format!("r{region}l{layer}n{slot}"), kind, &ins)
                    .expect("generated names are unique");
                if branch.is_some() {
                    b.exit_arm();
                }
                this_layer.push(out);
            }
            region_values.extend(this_layer.iter().copied());
            prev_layer = this_layer;
        }
        earlier_regions.extend(region_values);
    }
    b.finish().expect("generated graphs are well-formed")
}

/// Generates a random layered DAG: layer 0 reads the primary inputs,
/// each later operation draws operands from the previous layer (with
/// `locality_pct` probability) or any earlier value.
///
/// ```
/// use hls_benchmarks::generate::{generate, GeneratorConfig};
///
/// let dfg = generate(&GeneratorConfig::default());
/// assert_eq!(dfg.node_count(), 4 * 8);
/// // Deterministic: the same config reproduces the same graph.
/// assert_eq!(generate(&GeneratorConfig::default()), dfg);
/// ```
///
/// # Panics
///
/// Panics if the mix is empty or `layers`, `width` or `inputs` is zero.
pub fn generate(config: &GeneratorConfig) -> Dfg {
    assert!(!config.mix.is_empty(), "the operator mix must be non-empty");
    assert!(
        config.layers >= 1 && config.width >= 1 && config.inputs >= 1,
        "generator dimensions must be positive"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = DfgBuilder::new(format!(
        "gen-l{}w{}s{}",
        config.layers, config.width, config.seed
    ));
    let inputs: Vec<SignalId> = (0..config.inputs)
        .map(|i| b.input(&format!("in{i}")))
        .collect();
    let total_weight: u32 = config.mix.iter().map(|&(_, w)| w).sum();
    let mut prev_layer: Vec<SignalId> = inputs.clone();
    let mut all_values: Vec<SignalId> = inputs;
    for layer in 0..config.layers {
        let mut this_layer = Vec::with_capacity(config.width);
        // Optionally split this layer into two exclusive branch arms.
        let branch = if rng.gen_range(0..100) < config.branch_pct {
            Some(b.begin_branch())
        } else {
            None
        };
        for slot in 0..config.width {
            if let Some(br) = branch {
                // First half in arm 0, second half in arm 1.
                b.enter_arm(br, u32::from(slot >= config.width / 2));
            }
            let mut pick = rng.gen_range(0..total_weight);
            let kind = config
                .mix
                .iter()
                .find(|&&(_, w)| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .map(|&(k, _)| k)
                .expect("weights sum to total");
            let operand = |rng: &mut StdRng| -> SignalId {
                if rng.gen_range(0..100) < config.locality_pct && !prev_layer.is_empty() {
                    prev_layer[rng.gen_range(0..prev_layer.len())]
                } else {
                    all_values[rng.gen_range(0..all_values.len())]
                }
            };
            let ins: Vec<SignalId> = (0..kind.arity()).map(|_| operand(&mut rng)).collect();
            let out = b
                .op(&format!("l{layer}n{slot}"), kind, &ins)
                .expect("generated names are unique");
            if branch.is_some() {
                b.exit_arm();
            }
            this_layer.push(out);
        }
        all_values.extend(this_layer.iter().copied());
        prev_layer = this_layer;
    }
    b.finish().expect("generated graphs are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::TimingSpec;
    use hls_dfg::CriticalPath;

    #[test]
    fn produces_the_requested_size() {
        let cfg = GeneratorConfig {
            layers: 5,
            width: 10,
            ..Default::default()
        };
        let g = generate(&cfg);
        assert_eq!(g.node_count(), 50);
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a = generate(&GeneratorConfig {
            seed: 7,
            ..Default::default()
        });
        let b = generate(&GeneratorConfig {
            seed: 7,
            ..Default::default()
        });
        let c = generate(&GeneratorConfig {
            seed: 8,
            ..Default::default()
        });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn critical_path_is_bounded_by_layers() {
        let cfg = GeneratorConfig {
            layers: 6,
            width: 4,
            ..Default::default()
        };
        let g = generate(&cfg);
        let cp = CriticalPath::compute(&g, &TimingSpec::uniform_single_cycle());
        assert!(cp.steps() <= 6);
        assert!(cp.steps() >= 1);
    }

    #[test]
    fn sized_config_approximates_the_op_count() {
        for ops in [16, 64, 100] {
            let g = generate(&GeneratorConfig::sized(ops, 3));
            let got = g.node_count();
            assert!(
                got >= ops && got <= ops + 2 * (ops as f64).sqrt() as usize + 2,
                "asked {ops}, got {got}"
            );
        }
    }

    #[test]
    fn scaling_workload_is_deterministic_and_fixed_depth() {
        let a = generate(&scaling_workload(1_000));
        let b = generate(&scaling_workload(1_000));
        assert_eq!(a, b);
        assert_eq!(
            a.node_count(),
            1_000usize.div_ceil(SCALING_LAYERS) * SCALING_LAYERS
        );
        let cp = CriticalPath::compute(&a, &TimingSpec::uniform_single_cycle());
        assert!(cp.steps() <= SCALING_LAYERS);
    }

    #[test]
    fn clustered_workload_is_deterministic_and_weakly_coupled() {
        let cfg = clustered_workload(4_000);
        assert_eq!(cfg.regions, 2);
        let a = generate_clustered(&cfg);
        assert_eq!(a, generate_clustered(&cfg));
        // Region sizes: regions × (layers × width + inputs) nodes+inputs;
        // node_count counts ops only.
        assert_eq!(
            a.node_count(),
            cfg.regions * cfg.region.layers * cfg.region.width
        );
        // Cross-region coupling exists but is sparse: count edges from a
        // producer in region 0 to a consumer in region 1 (region r spans
        // a contiguous id block in creation order).
        let per_region = cfg.region.layers * cfg.region.width;
        let mut cross = 0usize;
        let mut total = 0usize;
        for &n in a.topo_order() {
            for &m in a.succs(n) {
                total += 1;
                if m.index() / per_region != n.index() / per_region {
                    cross += 1;
                }
            }
        }
        assert!(cross > 0, "cut_pct=5 must create some cross-region edges");
        assert!(
            cross * 4 < total,
            "regions must stay weakly coupled: {cross}/{total} edges cross"
        );
    }

    #[test]
    fn clustered_zero_cut_produces_independent_regions() {
        let mut cfg = clustered_workload(2_000);
        cfg.cut_pct = 0;
        let g = generate_clustered(&cfg);
        let per_region = cfg.region.layers * cfg.region.width;
        for &n in g.topo_order() {
            for &m in g.succs(n) {
                assert_eq!(
                    m.index() / per_region,
                    n.index() / per_region,
                    "cut_pct=0 must keep regions independent"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_mix_panics() {
        let cfg = GeneratorConfig {
            mix: vec![],
            ..Default::default()
        };
        let _ = generate(&cfg);
    }
}

#[cfg(test)]
mod branch_tests {
    use super::*;

    #[test]
    fn branchy_graphs_contain_exclusive_pairs() {
        let cfg = GeneratorConfig {
            seed: 5,
            layers: 4,
            width: 6,
            branch_pct: 100,
            ..Default::default()
        };
        let g = generate(&cfg);
        let mut exclusive_pairs = 0;
        let ids: Vec<_> = g.node_ids().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if g.mutually_exclusive(a, b) {
                    exclusive_pairs += 1;
                }
            }
        }
        assert!(
            exclusive_pairs > 0,
            "branch_pct=100 must create exclusivity"
        );
    }

    #[test]
    fn branch_free_default_has_no_exclusivity() {
        let g = generate(&GeneratorConfig::default());
        let ids: Vec<_> = g.node_ids().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                assert!(!g.mutually_exclusive(a, b));
            }
        }
    }
}
