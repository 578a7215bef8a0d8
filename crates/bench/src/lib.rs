//! Experiment harness for the `moveframe-hls` workspace: regenerates the
//! DAC-1992 paper's Table 1, Table 2 and Figures 1–2, and hosts the
//! Criterion benches for the runtime and scaling claims.
//!
//! Binaries:
//!
//! * `cargo run -p hls-bench --bin table1` — MFS results for the six
//!   examples across their time-constraint sweeps;
//! * `cargo run -p hls-bench --bin table2` — MFSA RTL results (design
//!   styles 1 and 2); `--ablate` adds the Liapunov-weight and
//!   interconnect-sharing ablations;
//! * `cargo run -p hls-bench --bin figure1` — a populated placement
//!   table with an operation's present/next position;
//! * `cargo run -p hls-bench --bin figure2` — the PF/RF/FF/MF frames of
//!   an operation at its scheduling moment;
//! * `cargo run --release -p hls-bench --bin explore_speedup` — the
//!   full paper grid through the `hls-explore` engine at 1/2/4/8
//!   worker threads plus a warm-cache pass, emitting
//!   `BENCH_explore.json`;
//! * `cargo run --release -p hls-bench --bin bench_diff` — the one
//!   front end to the committed `BENCH_core.json` /
//!   `BENCH_partition.json` / `BENCH_iterate.json` / `BENCH_mem.json` /
//!   `BENCH_telemetry.json` / `BENCH_serve.json` snapshots (the table
//!   in [`snapshots`]): regenerates each selected one and exits 1 on
//!   drift; `--print` writes the fresh document for re-baselining.
//!
//! Benches: `runtime` (MFS/MFSA vs list/FDS/annealing), `scaling`
//! (O(l³) growth on generated graphs), `ablation`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore_grid;
mod figures;
pub mod iterate;
mod runner;
pub mod scaling;
pub mod serve_check;
pub mod shard_scaling;
pub mod snapshots;
mod tables;

pub use explore_grid::{
    explore_paper_grid, mfs_point, mfsa_point, paper_points, table1_engine, table2_engine,
};
pub use figures::{figure1, figure2};
pub use runner::{run_example_mfs, run_example_mfsa, MfsRun};
pub use tables::{
    render_table1, render_table2, table1, table2, table2_with, tables_with_weights,
    tables_without_interconnect, Table1Row, Table2Row,
};
