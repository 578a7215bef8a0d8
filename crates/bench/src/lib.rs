//! Experiment harness for the `moveframe-hls` workspace: regenerates the
//! DAC-1992 paper's Table 1, Table 2 and Figures 1–2, and hosts the
//! Criterion benches for the runtime and scaling claims.
//!
//! Every harness turns an example into a design point through
//! [`mfs_point`] / [`mfsa_point`] and runs it through the exploration
//! engine (or `hls_explore::run_move_frame`). Binaries:
//!
//! * `cargo run -p hls-bench --bin table1` — MFS results for the six
//!   examples across their time-constraint sweeps;
//! * `cargo run -p hls-bench --bin table2` — MFSA RTL results (design
//!   styles 1 and 2); `--ablate` adds the Liapunov-weight and
//!   interconnect-sharing ablations;
//! * `cargo run -p hls-bench --bin design_space` — every example swept
//!   over a time range around its paper sweep: MFS units and MFSA
//!   cost/REG/MUXin per T;
//! * `cargo run -p hls-bench --bin figure1` — a populated placement
//!   table with an operation's present/next position;
//! * `cargo run -p hls-bench --bin figure2` — the PF/RF/FF/MF frames of
//!   an operation at its scheduling moment;
//! * `cargo run --release -p hls-bench --bin bench_diff` — the one
//!   front end to the committed `BENCH_core.json` / `BENCH_mem.json` /
//!   `BENCH_telemetry.json` snapshots (the table in [`snapshots`]):
//!   regenerates each selected one and exits 1 on drift; `--print`
//!   writes the fresh document for re-baselining.
//!
//! Benches: `runtime` (MFS/MFSA vs list/FDS/annealing), `scaling`
//! (O(l³) growth on generated graphs), `ablation`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore_grid;
mod figures;
pub mod scaling;
pub mod snapshots;
mod tables;

pub use explore_grid::{explore_paper_grid, mfs_point, mfsa_point, paper_points};
pub use figures::{figure1, figure2};
pub use tables::{
    render_table1, render_table2, table1_engine, table2_engine, Table1Row, Table2Row,
};
