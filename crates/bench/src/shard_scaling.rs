//! The sharded-synthesis scaling sweep behind `BENCH_partition.json`
//! (the `partition` row of [`crate::snapshots`]).
//!
//! Extends the seeded workloads past the dense sweep's 100k-node
//! ceiling: clustered graphs of 200k, 500k and 1M nodes run through
//! `hls-partition`'s partition → parallel-schedule → stitch pipeline.
//! Every entry records wall time plus the deterministic partition
//! counters, the achieved horizon, and the schedule fingerprint —
//! everything except `wall_ms` is bit-stable across runs, machines and
//! `--threads` values.

use std::time::Instant;

use hls_benchmarks::generate::{clustered_workload, generate_clustered};
use hls_celllib::{Library, TimingSpec};
use hls_dfg::{CriticalPath, Dfg};
use hls_partition::{synth_sharded, ShardAlg, ShardedConfig};
use hls_telemetry::{Instrument, Metrics, NullSink};

use crate::scaling::fingerprint;
use crate::snapshots::{Fresh, Sweep};

/// Node-count targets of the full sweep — starts where the dense sweep
/// (`BENCH_core.json`, ≤ 100k) stops.
pub const FULL_SIZES: [usize; 3] = [200_000, 500_000, 1_000_000];
/// The smallest size only — the CI smoke subset.
pub const QUICK_SIZES: [usize; 1] = [200_000];
/// Largest size at which the MFSA shard pipeline (allocation per shard)
/// is still tractable for a routine sweep; above this only MFS runs.
pub const MFSA_CAP: usize = 500_000;

/// One sharded measurement (everything but `wall_ms` is deterministic).
pub struct Entry {
    /// Node count of the generated clustered graph.
    pub nodes: usize,
    /// Per-shard kernel (`"mfs"` / `"mfsa"`).
    pub alg: &'static str,
    /// Shard count the automatic sizing chose.
    pub shards: usize,
    /// Cut edges of the final partition.
    pub cut_edges: usize,
    /// Nodes incident to a cut edge.
    pub boundary_nodes: usize,
    /// KL refinement moves committed by the partitioner.
    pub refine_moves: u64,
    /// Boundary moves committed by the stitcher.
    pub stitch_moves: u64,
    /// Steps saved by telescoping versus naive concatenation.
    pub telescoped_saved: u64,
    /// Critical path of the whole graph — the horizon lower bound.
    pub cp: u32,
    /// Achieved horizon; `csteps - cp` is the sharding overhead.
    pub csteps: u32,
    /// Machine-local wall time — excluded from every comparison.
    pub wall_ms: f64,
    /// FNV-1a fingerprint of the `(node, step, unit)` triples.
    pub fingerprint: u64,
}

impl Entry {
    /// The deterministic identity used to pair fresh entries with
    /// committed snapshot lines.
    pub fn key(&self) -> String {
        format!("\"nodes\":{},\"alg\":\"{}\"", self.nodes, self.alg)
    }

    /// One snapshot line.
    pub fn render(&self) -> String {
        format!(
            "    {{{},\"shards\":{},\"cut_edges\":{},\"boundary_nodes\":{},\"refine_moves\":{},\"stitch_moves\":{},\"telescoped_saved\":{},\"cp\":{},\"csteps\":{},\"wall_ms\":{:.1},\"fingerprint\":\"{:016x}\"}}",
            self.key(),
            self.shards,
            self.cut_edges,
            self.boundary_nodes,
            self.refine_moves,
            self.stitch_moves,
            self.telescoped_saved,
            self.cp,
            self.csteps,
            self.wall_ms,
            self.fingerprint
        )
    }
}

fn run_sharded(dfg: &Dfg, spec: &TimingSpec, alg: ShardAlg, name: &'static str) -> Entry {
    let cp = CriticalPath::compute(dfg, spec).steps() as u32;
    let config = ShardedConfig::new(0, alg);
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let start = Instant::now();
    let out = {
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        synth_sharded(dfg, spec, &config, &mut instr)
            .unwrap_or_else(|e| panic!("sharded {name} at {} nodes: {e}", dfg.node_count()))
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Entry {
        nodes: dfg.node_count(),
        alg: name,
        shards: out.shards,
        cut_edges: out.cut_edges,
        boundary_nodes: out.boundary_nodes,
        refine_moves: out.refine_moves,
        stitch_moves: out.stitch_moves,
        telescoped_saved: out.telescoped_saved,
        cp,
        csteps: out.csteps,
        wall_ms,
        fingerprint: fingerprint(&out.schedule),
    }
}

/// Runs the sharded kernels at one size and appends the entries;
/// progress goes to stderr.
pub fn bench_size(ops: usize, entries: &mut Vec<Entry>) {
    let spec = TimingSpec::uniform_single_cycle();
    // The canonical clustered workload shared with `mfhls profile
    // gen:clustered:OPS`.
    let dfg = generate_clustered(&clustered_workload(ops));
    eprintln!("# {} nodes (clustered)", dfg.node_count());
    let first = entries.len();
    entries.push(run_sharded(&dfg, &spec, ShardAlg::Mfs, "mfs"));
    if ops <= MFSA_CAP {
        entries.push(run_sharded(
            &dfg,
            &spec,
            ShardAlg::Mfsa(Library::ncr_like()),
            "mfsa",
        ));
    } else {
        eprintln!("#   mfsa skipped above {MFSA_CAP} nodes");
    }
    for e in &entries[first..] {
        eprintln!(
            "#   {}: {:.1} ms, {} shards, {} cut edges, cp {} -> csteps {} (+{})",
            e.alg,
            e.wall_ms,
            e.shards,
            e.cut_edges,
            e.cp,
            e.csteps,
            e.csteps - e.cp
        );
    }
}

/// Regenerates `BENCH_partition.json` at the sweep's op counts.
pub fn snapshot(sweep: &Sweep) -> Fresh {
    let mut entries = Vec::new();
    for &ops in sweep.sizes(&QUICK_SIZES, &FULL_SIZES) {
        bench_size(ops, &mut entries);
    }
    Fresh::keyed(&entries, Entry::key, render(&entries))
}

/// Renders the full `BENCH_partition.json` document.
pub fn render(entries: &[Entry]) -> String {
    let rows: Vec<String> = entries.iter().map(Entry::render).collect();
    format!(
        "{{\n  \"note\": \"sharded synthesis scaling sweep on clustered workloads; counters and fingerprints are deterministic for any thread count, wall_ms is machine-local and ignored by bench_diff\",\n  \"entries\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        Entry {
            nodes: 200_000,
            alg: "mfs",
            shards: 13,
            cut_edges: 900,
            boundary_nodes: 1_500,
            refine_moves: 40,
            stitch_moves: 70,
            telescoped_saved: 300,
            cp: 32,
            csteps: 60,
            wall_ms: 1234.5,
            fingerprint: 0x1234,
        }
    }

    /// `committed` held against the document rendered from `fresh`, as
    /// the `partition` snapshot row compares them.
    fn diff_exact(fresh: &[Entry], committed: &str) -> Vec<String> {
        Fresh::keyed(fresh, Entry::key, render(fresh)).diff(committed)
    }

    #[test]
    fn exact_diff_ignores_wall_clock_only() {
        let snapshot = render(&[entry()]);
        let mut fresh = entry();
        fresh.wall_ms = 9.9;
        assert!(diff_exact(&[fresh], &snapshot).is_empty());

        let mut drifted = entry();
        drifted.csteps += 1;
        drifted.fingerprint ^= 1;
        let drift = diff_exact(&[drifted], &snapshot);
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift[0].contains("csteps 60 -> 61"), "{drift:?}");
        assert!(drift[1].contains("fingerprint"), "{drift:?}");
    }

    #[test]
    fn exact_diff_reports_missing_entries() {
        let mut other = entry();
        other.alg = "mfsa";
        let drift = diff_exact(&[other], &render(&[entry()]));
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("no committed entry"), "{drift:?}");
    }

    #[test]
    fn small_sharded_sweep_is_deterministic() {
        // The full sizes are release-bin territory; a scaled-down sweep
        // proves the measurement itself is reproducible.
        let spec = TimingSpec::uniform_single_cycle();
        let dfg = generate_clustered(&clustered_workload(3_000));
        let a = run_sharded(&dfg, &spec, ShardAlg::Mfs, "mfs");
        let b = run_sharded(&dfg, &spec, ShardAlg::Mfs, "mfs");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.csteps, b.csteps);
        assert_eq!(a.cut_edges, b.cut_edges);
        assert_eq!(a.stitch_moves, b.stitch_moves);
        assert!(diff_exact(&[b], &render(&[a])).is_empty());
    }
}
