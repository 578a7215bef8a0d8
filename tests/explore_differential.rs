//! Differential tests for the exploration engine's determinism
//! guarantee: the Pareto front and every per-point result are
//! **byte-identical** whatever the worker-thread count, and a cached
//! result always equals a fresh, uncached run.

use hls_bench::paper_points;
use moveframe_hls::benchmarks::examples;
use moveframe_hls::benchmarks::generate::{generate, GeneratorConfig};
use moveframe_hls::explore::{explore, Algorithm, DesignPoint, ExploreCache, Tier};
use moveframe_hls::prelude::*;

/// The full per-example grid: the paper points plus the baseline
/// schedulers at every sweep constraint.
fn full_grid(e: &examples::Example) -> Vec<DesignPoint> {
    let mut points = paper_points(e);
    for &t in &e.time_constraints {
        for alg in [Algorithm::List, Algorithm::Fds, Algorithm::Anneal] {
            points.push(DesignPoint::new(alg, t));
        }
    }
    points
}

/// Asserts threads=1 and threads=8 agree byte-for-byte on `dfg`.
fn assert_thread_invariant(dfg: &Dfg, spec: &TimingSpec, points: &[DesignPoint], what: &str) {
    let serial = explore(dfg, spec, points, ExploreOptions { threads: 1 });
    let parallel = explore(dfg, spec, points, ExploreOptions { threads: 8 });
    assert_eq!(
        serial.front_json(),
        parallel.front_json(),
        "{what}: front diverged across thread counts"
    );
    assert_eq!(serial.results.len(), parallel.results.len());
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(a.outcome, b.outcome, "{what}: {}", a.label);
        assert_eq!(a.label, b.label);
        assert_eq!(a.index, b.index);
    }
    // Counter totals are deterministic too (exactly-once computation);
    // only the *.ns histograms may differ.
    for name in [
        "explore.points",
        "explore.cache.miss",
        "explore.cache.hit",
        "mfs.frames_computed",
        "mfs.moves_committed",
        "mfsa.moves_committed",
        "explore.errors",
    ] {
        assert_eq!(
            serial.metrics.counter(name),
            parallel.metrics.counter(name),
            "{what}: counter {name} diverged"
        );
    }
}

#[test]
fn paper_examples_are_thread_invariant() {
    for e in examples::all() {
        let points = full_grid(&e);
        assert_thread_invariant(&e.dfg, &e.spec, &points, &format!("ex{}", e.id));
    }
}

#[test]
fn random_dfgs_are_thread_invariant() {
    for seed in [3u64, 47, 461, 900] {
        let config = GeneratorConfig {
            seed,
            layers: 4,
            width: 4,
            inputs: 4,
            ..GeneratorConfig::default()
        };
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mut points = Vec::new();
        for alg in [Algorithm::Mfs, Algorithm::List, Algorithm::Fds] {
            for t in cp..cp + 3 {
                points.push(DesignPoint::new(alg, t));
            }
        }
        points.push(DesignPoint::new(Algorithm::Mfsa, cp + 1));
        // An infeasible point must fail identically on every thread count.
        points.push(DesignPoint::new(Algorithm::Mfs, cp - 1));
        assert_thread_invariant(&dfg, &spec, &points, &format!("seed {seed}"));
    }
}

#[test]
fn cached_results_equal_fresh_uncached_runs() {
    for e in examples::all() {
        let points = full_grid(&e);
        let engine = Engine::new();
        let cold = engine.explore(&e.dfg, &e.spec, &points, ExploreOptions { threads: 2 });
        let warm = engine.explore(&e.dfg, &e.spec, &points, ExploreOptions { threads: 2 });
        // The warm pass answered everything from the cache…
        assert_eq!(
            warm.metrics.counter("explore.cache.hit"),
            points.len() as u64,
            "ex{}",
            e.id
        );
        assert_eq!(warm.metrics.counter("explore.cache.miss"), 0);
        // …and each cached result equals a fresh, uncached run.
        let fresh = Engine::new().explore(&e.dfg, &e.spec, &points, ExploreOptions { threads: 1 });
        for ((c, w), f) in cold.results.iter().zip(&warm.results).zip(&fresh.results) {
            assert_eq!(c.outcome, w.outcome, "ex{} {}", e.id, c.label);
            assert_eq!(w.outcome, f.outcome, "ex{} {}", e.id, w.label);
        }
        assert_eq!(cold.front_json(), warm.front_json());
        assert_eq!(warm.front_json(), fresh.front_json());
    }
}

#[test]
fn cache_is_content_addressed_not_identity_addressed() {
    // Structurally identical graphs with different names share cache
    // entries; a structural change misses.
    let build = |name: &str, flip: bool| {
        let mut b = DfgBuilder::new(name);
        let x = b.input(if flip { "p" } else { "x" });
        let y = b.input("y");
        let m = b.op("m", OpKind::Mul, &[x, y]).unwrap();
        b.op("a", OpKind::Add, &[m, y]).unwrap();
        b.finish().unwrap()
    };
    let cache = ExploreCache::new();
    let spec = TimingSpec::uniform_single_cycle();
    let a = moveframe_hls::explore::dfg_fingerprint(&build("first", false), &spec);
    let b = moveframe_hls::explore::dfg_fingerprint(&build("second", true), &spec);
    assert_eq!(a, b, "renaming must not change the fingerprint");
    let (_, tier) = cache.result(a, 1, || Err("placeholder".into()));
    assert_eq!(tier, Tier::Cold);
    let (_, tier) = cache.result(b, 1, || unreachable!("must hit"));
    assert_eq!(
        tier,
        Tier::Hot,
        "same structure + same point must hit the cache"
    );
}
