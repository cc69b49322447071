//! Prints the `BENCH_dpa2d.json` document: the work counts of the nested
//! DP that `DPA2D` and `DPA2D1D` share, and their cold solve walls, on
//! Vocoder 4×4 and Serpent 6×6 at utilisation 0.3.
//!
//! ```text
//! cargo run --release --example dpa2d_bench > BENCH_dpa2d.json
//! ```

use ea_bench::dpa2d_xp::{dpa2d_bench, dpa2d_bench_json};

fn main() {
    // The StreamIt suite's instantiation seed, as `xp bench-check` uses.
    print!("{}", dpa2d_bench_json(&dpa2d_bench(2011)));
}
