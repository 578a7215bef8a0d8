//! Runtime comparison: MFS and MFSA against list scheduling,
//! force-directed scheduling and simulated annealing on the six paper
//! examples — the paper's headline claim is that "the main advantage of
//! our methods over existing scheduling and allocation algorithms is in
//! running time".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hls_baselines::{anneal_schedule, force_directed_schedule, list_schedule, AnnealParams};
use hls_bench::mfsa_point;
use hls_benchmarks::examples::{self, Feature};
use hls_celllib::Library;
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa;
use moveframe::CancelToken;

fn plain_examples() -> Vec<hls_benchmarks::examples::Example> {
    // Chaining and pipelining features are MFS-specific; the baseline
    // algorithms compare on the plain (single-/two-cycle) examples.
    examples::all()
        .into_iter()
        .filter(|e| matches!(e.feature, Feature::SingleCycle | Feature::TwoCycleMultiply))
        .collect()
}

fn bench_schedulers(c: &mut Criterion) {
    let lib = Library::ncr_like();
    let mut group = c.benchmark_group("schedulers");
    for e in plain_examples() {
        let t = *e.time_constraints.last().expect("examples sweep");
        group.bench_with_input(BenchmarkId::new("mfs", e.name), &e, |b, e| {
            b.iter(|| mfs::schedule(&e.dfg, &e.spec, &MfsConfig::time_constrained(t)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("fds", e.name), &e, |b, e| {
            b.iter(|| force_directed_schedule(&e.dfg, &e.spec, t).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("list", e.name), &e, |b, e| {
            // Give the list scheduler the FU budget MFS found.
            let limits = mfs::schedule(&e.dfg, &e.spec, &MfsConfig::time_constrained(t))
                .unwrap()
                .fu_counts();
            b.iter(|| list_schedule(&e.dfg, &e.spec, &limits, 4 * t).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("anneal", e.name), &e, |b, e| {
            b.iter(|| anneal_schedule(&e.dfg, &e.spec, t, &lib, &AnnealParams::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_large_classics(c: &mut Criterion) {
    // EWF and the AR filter with plain 2-cycle multiplies, at the
    // loosest constraints of their sweeps.
    use hls_benchmarks::classic;
    use hls_celllib::TimingSpec;
    let lib = Library::ncr_like();
    let spec = TimingSpec::two_cycle_multiply();
    let cases = [
        ("ewf", classic::ewf(), 21u32),
        ("ar-filter", classic::ar_filter(), 13),
    ];
    let mut group = c.benchmark_group("schedulers-large");
    for (name, dfg, t) in cases {
        group.bench_function(BenchmarkId::new("mfs", name), |b| {
            b.iter(|| mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(t)).unwrap())
        });
        group.bench_function(BenchmarkId::new("fds", name), |b| {
            b.iter(|| force_directed_schedule(&dfg, &spec, t).unwrap())
        });
        group.bench_function(BenchmarkId::new("anneal", name), |b| {
            b.iter(|| anneal_schedule(&dfg, &spec, t, &lib, &AnnealParams::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_mfsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("mfsa");
    for e in examples::all() {
        group.bench_with_input(BenchmarkId::new("style1", e.name), &e, |b, e| {
            b.iter(|| {
                let config = mfsa_point(e, e.mfsa_cs, 1)
                    .mfsa_config(Library::ncr_like(), &CancelToken::never());
                mfsa::schedule(&e.dfg, &e.spec, &config).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_schedulers, bench_large_classics, bench_mfsa
}
criterion_main!(benches);
