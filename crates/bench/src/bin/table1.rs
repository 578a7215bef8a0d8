//! Regenerates the paper's Table 1 (MFS results for the six examples).

use hls_explore::{default_threads, Engine};

fn main() {
    let rows = hls_bench::table1_engine(&Engine::new(), default_threads());
    print!("{}", hls_bench::render_table1(&rows));
}
