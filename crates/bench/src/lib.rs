//! # ea-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6):
//!
//! | Artifact | Module | `xp` subcommand |
//! |---|---|---|
//! | Table 1 — StreamIt characteristics | [`streamit_xp`] | `table1` |
//! | Figure 8 — normalised energy, StreamIt, 4×4 | [`streamit_xp`] | `fig8` |
//! | Figure 9 — normalised energy, StreamIt, 6×6 | [`streamit_xp`] | `fig9` |
//! | Table 2 — StreamIt failure counts | [`streamit_xp`] | `table2` |
//! | Figures 10–13 — 1/E vs elevation, random SPGs | [`random_xp`] | `fig10..fig13` |
//! | Table 3 — random-SPG failure counts | [`random_xp`] | `table3` |
//! | §4.4 exact-vs-heuristics check on 2×2 | [`exact_xp`] | `exact` |
//! | Ablations (routing, downgrade, E_bit) | [`ablation`] | `ablation-*` |
//! | Mesh vs torus vs ring comparison | [`topology_xp`] | `topology` |
//! | Per-backend end-to-end smoke (CI gate) | [`topology_xp`] | `smoke` |
//! | Synthetic-family campaign engine | [`campaign`] | `campaign` |
//! | Dominance-pruning decade benchmark | [`prune_xp`] | `sweep --suite prune` |
//! | `DPA2D` nested-DP work counts | [`dpa2d_xp`] | (example `dpa2d_bench`) |
//! | Perf-regression gate vs `BENCH_*.json` | [`bench_check`] | `bench-check` |
//!
//! The period bound per workload follows §6.1.3 exactly ([`probe`]): start
//! at `T = 1 s`, divide by ten until every heuristic fails, keep the
//! penultimate value.
//!
//! Campaigns run on `ea_core`'s solver-session API: one
//! [`ea_core::Instance`] per workload shares the interned ideal lattice
//! (and the other derived structures) between the period probe and the
//! final portfolio run, and an `xp --solvers a,b,c` filter selects any
//! subset of the registered solvers via [`ea_core::SolverRegistry`].

pub mod ablation;
pub mod bench_check;
pub mod campaign;
pub mod dpa2d_xp;
pub mod exact_xp;
pub mod incremental_xp;
pub mod pool_xp;
pub mod probe;
pub mod prune_xp;
pub mod random_xp;
pub mod report;
pub mod serve_xp;
pub mod streamit_xp;
pub mod sweep_xp;
pub mod topology_xp;

pub use bench_check::{bench_check_files, compare, parse_bench_metrics, Check, Metric, Status};
pub use campaign::{
    merge_shards, run_campaign, CampaignOutcome, CampaignSpec, JobRecord, MergeOutcome, Shard,
};
pub use probe::{probe_instance, probe_period};
pub use topology_xp::{make_platform, smoke_text, topology_campaign};
