//! # ea-core — energy-aware SPG→CMP mapping algorithms
//!
//! The paper's primary contribution (§5): five polynomial-time heuristics
//! for the NP-hard `MinEnergy(T)` problem, plus an exhaustive exact solver
//! standing in for the §4.4 integer linear program.
//!
//! | Algorithm | Paper | Solver |
//! |---|---|---|
//! | `Random` — random DAG-partition chain, random placement, best of 10 | §5.1 | [`solvers::Random`] |
//! | `Greedy` — wavefront growth from `C_{1,1}` at each speed, downgrade | §5.2 | [`solvers::Greedy`] |
//! | `DPA2D` — nested column/row dynamic programs on the label grid | §5.3 | [`solvers::Dpa2d`] |
//! | `DPA1D` — optimal uni-line DP over order ideals (Theorem 1), snaked | §5.4 | [`solvers::Dpa1d`] |
//! | `DPA2D1D` — `DPA2D` on a virtual `1 × pq` CMP, snaked | §5.4 | [`solvers::Dpa2d1d`] |
//! | exact — exhaustive DAG-partitions × placements × XY routes | §4.4 | [`solvers::Exact`] |
//!
//! ## The solve API
//!
//! Wrap a workload, platform, and period into an [`Instance`] (which
//! lazily caches the derived structures the algorithms share — most
//! importantly `DPA1D`'s interned ideal lattice), then run a single
//! [`Solver`] or a whole [`Portfolio`]:
//!
//! ```
//! use ea_core::{Instance, Portfolio};
//! use cmp_platform::Platform;
//!
//! let inst = Instance::new(spg::chain(&[2e8; 8], &[1e4; 7]), Platform::paper(4, 4), 0.5);
//! let report = Portfolio::heuristics().seeded(42).run(&inst);
//! for run in &report.runs {
//!     println!("{}: {:?} in {:?}", run.name, run.energy(), run.wall);
//! }
//! let best = report.best_solution().expect("a loose pipeline is feasible");
//! assert!(best.eval.max_cycle_time <= 0.5 * (1.0 + 1e-9));
//! ```
//!
//! [`SolverRegistry`] resolves paper-style names (`"greedy"`,
//! `"DPA1D"`, `"refined:dpa2d"`, …) for config/CLI-driven selection.
//!
//! Every algorithm returns a [`Solution`] whose mapping has been
//! re-validated by `cmp_mapping::evaluate`, or a [`Failure`] explaining why
//! no valid mapping was produced (the paper's "heuristic fails" outcomes,
//! counted in Tables 2 and 3).

#![warn(missing_docs)]

pub mod common;
pub mod dpa1d;
pub mod dpa2d;
pub mod dpa2d1d;
pub mod exact;
pub mod greedy;
pub mod instance;
pub mod json;
pub mod portfolio;
pub mod random;
pub mod refine;
pub mod serve;
pub mod solver;
pub mod solvers;
pub mod sweep;

pub use common::{BudgetExceeded, BudgetPhase, Failure, PruneStats, Solution};
pub use dpa1d::{Dpa1dConfig, TransitionSkeleton};
pub use exact::{ExactConfig, PartitionRule};
pub use instance::{Instance, SharedLattice};
pub use portfolio::{Portfolio, PortfolioReport, SolverRun};
pub use refine::{refine, refine_with, RefineConfig};
pub use serve::{ServeConfig, Server, Service};
pub use solver::{SolveCtx, Solver, SolverRegistry};
pub use sweep::{PeriodSweep, SolveOutcome, SweepAxis, SweepPoint, SweepReport};
