//! # spg-cmp — energy-aware mappings of series-parallel workflows onto CMPs
//!
//! Facade crate for the reproduction of *Benoit, Melhem, Renaud-Goud,
//! Robert — "Energy-aware mappings of series-parallel workflows onto chip
//! multiprocessors"* (INRIA RR-7521 / ICPP 2011).
//!
//! The workspace is organised bottom-up:
//!
//! * [`spg`] — series-parallel graphs: composition with the paper's label
//!   rules, random generators, the StreamIt workload suite, order-ideal
//!   enumeration;
//! * [`platform`] (`cmp-platform`) — the DVFS CMP platform: XScale power
//!   model, pluggable topology backends (mesh / torus / ring) behind the
//!   `Topology` trait, routing policies (XY / YX / shortest / snake)
//!   behind the `Router` trait, and precomputed per-policy route tables;
//! * [`mapping`] (`cmp-mapping`) — the cost model: DAG-partition validity,
//!   period (max cycle-time) and energy evaluation;
//! * [`heuristics`] (`ea-core`) — the paper's contribution behind the
//!   solver-session API: an [`prelude::Instance`] owns one `(workload,
//!   platform, period)` triple and caches the derived structures the
//!   algorithms share; every algorithm (`Random`, `Greedy`, `DPA2D`,
//!   `DPA1D`, `DPA2D1D`, the exhaustive exact solver, and the `Refined`
//!   hill-climb combinator) implements [`prelude::Solver`]; a
//!   [`prelude::Portfolio`] races any subset of them, a
//!   [`prelude::PeriodSweep`] traces whole feasibility/energy curves over
//!   a period or utilisation grid, and a [`prelude::SolverRegistry`]
//!   resolves solvers by name.
//!
//! ## Quickstart
//!
//! ```
//! use spg_cmp::prelude::*;
//!
//! // A 10-stage pipeline, 1e8 cycles and 1 kB per stage, on the paper's
//! // 4x4 XScale CMP, with a 200 ms period bound.
//! let app = spg::chain(&[1e8; 10], &[1e3; 9]);
//! let inst = Instance::new(app, Platform::paper(4, 4), 0.2);
//!
//! // Run one solver...
//! let sol = solvers::Greedy::default()
//!     .solve(&inst, &SolveCtx::new(0))
//!     .expect("feasible instance");
//! assert!(sol.eval.max_cycle_time <= 0.2 * (1.0 + 1e-9));
//!
//! // ...or race the paper's whole portfolio (in parallel, deterministic
//! // per-solver seeds) and keep the lowest energy.
//! let report = Portfolio::heuristics().seeded(42).run(&inst);
//! let best = report.best_solution().expect("at least one solver succeeds");
//! println!("best: {:.3} J on {} cores by {}",
//!     best.energy(), best.eval.active_cores, report.best_run().unwrap().name);
//!
//! // Solvers can also be picked by name, e.g. from a CLI flag.
//! let registry = SolverRegistry::with_defaults();
//! let dpa1d = registry.get("dpa1d").unwrap();
//! assert_eq!(dpa1d.name(), "DPA1D");
//! ```
//!
//! ## Choosing a topology backend
//!
//! `Platform::paper(p, q)` is the paper's mesh with XY routing — the
//! default, and bit-identical to pre-0.3 behaviour. Two more interconnect
//! backends ship behind the same `Platform` type (see
//! [`platform::topology`]): a 2D torus whose wrap links shorten routes
//! under the wrap-aware shortest router, and a 1D ring. Everything above
//! the platform — solvers, evaluation, simulation — is topology-generic:
//!
//! ```
//! use spg_cmp::prelude::*;
//!
//! let app = spg::chain(&[1e8; 10], &[1e3; 9]);
//! // Torus: mesh + wrap links, shortest routing by default. Same-shape
//! // mappings can only get cheaper than on the mesh (routes never grow).
//! let torus = Platform::paper_topology(TopologyKind::Torus, 4, 4);
//! // Ring: 16 cores on a cycle (the p*q grid is flattened).
//! let ring = Platform::paper_topology(TopologyKind::Ring, 4, 4);
//! for pf in [torus, ring] {
//!     let inst = Instance::new(app.clone(), pf, 0.2);
//!     let sol = solvers::Greedy::default()
//!         .solve(&inst, &SolveCtx::new(0))
//!         .expect("feasible");
//!     // The instance caches a per-policy precomputed route table; use
//!     // evaluate_mapping (not the free `evaluate`) to benefit from it.
//!     assert_eq!(inst.evaluate_mapping(&sol.mapping).unwrap().energy, sol.energy());
//! }
//! ```
//!
//! Guidance: keep the **mesh** for paper-faithful reproduction; pick the
//! **torus** when communication dominates and you can afford wrap wiring
//! (it strictly dominates the mesh energy-wise on the same workload);
//! pick the **ring** to study uni-line behaviour at scale — `DPA1D` is
//! provably optimal among uni-line mappings there. Routing policies
//! (`RoutePolicy`: `xy`, `yx`, `shortest`, `snake`) can be overridden per
//! platform via `Platform::with_policy`, and per mapping via `RouteSpec`.
//!
//! ## Workload families and campaigns
//!
//! Beyond the StreamIt suite and the §6.2.2 random SPGs, 0.4 adds seeded
//! workload *families* ([`spg::generate::families`]): a `(family, params,
//! seed)` triple deterministically names one series-parallel workload, so
//! sweeps are reproducible from their keys alone.
//!
//! ```
//! use spg_cmp::prelude::*;
//!
//! // One member of the wide-fork-join family: 24 stages, 4-way fan-out.
//! let spec = WorkloadSpec::new(FamilyKind::WideForkJoin, FamilyParams::sized(24), 7);
//! let app = spec.instantiate();
//! assert_eq!(app.n(), 24);
//!
//! // Utilisation-derived period: comparable bounds across families whose
//! // total work differs by orders of magnitude.
//! let inst = Instance::for_utilisation(app, Platform::paper(4, 4), 0.35);
//! let report = Portfolio::heuristics().seeded(7).run(&inst);
//! assert!(report.best_solution().is_some());
//! ```
//!
//! The `xp campaign` command (crate `ea-bench`, module `campaign`) sweeps
//! families × sizes × utilisations × topologies × routings × solvers as a
//! sharded, resumable job list with append-only JSONL results, and
//! `xp bench-check` gates CI on the deterministic metrics of the committed
//! `BENCH_*.json` baselines (wall-clock metrics are advisory).
//!
//! ## Period sweeps
//!
//! The paper's central experiments are curves versus period tightness;
//! 0.4 makes the whole curve one call. A [`prelude::PeriodSweep`] runs a
//! [`prelude::Portfolio`] at every value of a geometric or explicit grid of
//! periods (or platform utilisations) against **one** instance, so the
//! period-independent caches — most importantly `DPA1D`'s interned
//! lattice and its transition skeleton — are built once for the whole
//! curve, and sweep points fan out over the rayon pool:
//!
//! ```
//! use spg_cmp::prelude::*;
//!
//! let app = spg::chain(&[1e8; 8], &[1e3; 7]);
//! let inst = Instance::new(app, Platform::paper(2, 2), 1.0);
//! // One decade, 8 points, all five heuristics per point.
//! let grid = PeriodSweep::geometric(1.0, 0.1, 8);
//! let report = PeriodSweep::over_periods(Portfolio::heuristics().seeded(2011), grid).run(&inst);
//! assert_eq!(report.points.len(), 8);
//! // The per-solver feasibility frontier: tightest period still solved.
//! for entry in report.frontier() {
//!     assert!(entry.feasible_points > 0, "{} never succeeded", entry.solver);
//! }
//! // Energy curve of one solver, in grid order (None = failed there).
//! let curve = report.energies("DPA1D");
//! assert_eq!(curve.len(), 8);
//! ```
//!
//! Every sweep point is bit-identical to a from-scratch solve at that
//! period — sharing is a pure optimisation (pinned by `tests/sweep.rs`).
//! `xp sweep` exposes the same engine on the CLI per workload family.
//!
//! Since 0.8, `DPA1D` always runs **dominance pruning**: a per-ideal
//! Pareto frontier over the DP rows that skips transitions no optimal
//! completion can extend, with ties kept so energies stay bit-identical
//! to the unpruned relaxation. A sweep's skeleton is a **work-ceiling
//! skeleton**, bounded by the loosest period of the sweep, and a
//! transition system over the edge cap is streamed, so the cap is a
//! soundness-preserving bound instead of a hard `TooExpensive` failure; `Dpa1dConfig::frontier_cap` optionally truncates frontiers
//! and then certifies the result via [`prelude::Solution`]`::bound_gap`.
//!
//! ## Solve-as-a-service
//!
//! 0.7 extends the same sharing across *processes*: `xp serve` keeps a
//! daemon alive behind a Unix or TCP socket, with a byte-bounded LRU
//! cache of the period-independent artifacts keyed by content
//! fingerprints. Warm requests skip derived-state construction and stay
//! bit-identical in energy — the cache holds solver inputs, never
//! answers. The protocol is length-prefixed JSON
//! (`docs/serve-protocol.md`); per-request `deadline_ms` budgets map to
//! solver-level budgets with structured `too_expensive` backpressure.
//! Embedding needs no sockets:
//!
//! ```
//! use spg_cmp::json::Json;
//! use spg_cmp::serve::{ServeConfig, Service};
//!
//! let service = Service::new(ServeConfig::default());
//! let req = Json::parse(
//!     r#"{"op":"solve","workload":{"streamit":"FFT"},"utilisation":0.5}"#,
//! )
//! .unwrap();
//! let cold = service.handle(&req);
//! let warm = service.handle(&req); // artifacts hit; energy is identical
//! assert_eq!(
//!     cold.get("result").and_then(|r| r.get("energy")),
//!     warm.get("result").and_then(|r| r.get("energy")),
//! );
//! ```
//!
//! ## Incremental re-solve under faults and edits
//!
//! 0.9 makes the session **patchable**: when the platform degrades or
//! the workload is retuned, [`prelude::Instance::with_fault`] and
//! [`prelude::Instance::with_edit`] delta-patch the cached derived state
//! instead of discarding it. Core faults reuse every artifact verbatim
//! (routers outlive their PEs), link faults patch only the broken
//! route-table pairs, and structure-preserving [`prelude::Edit`]s keep
//! the enumerated lattice. Patched solves are **bit-identical** in
//! energy to cold solves on the equivalently rebuilt instance — the full
//! invalidation matrix lives in `docs/fault-model.md`, and
//! `docs/architecture.md` maps the whole pipeline:
//!
//! ```
//! use spg_cmp::prelude::*;
//!
//! let app = spg::chain(&[1e8; 8], &[1e3; 7]);
//! let inst = Instance::new(app.clone(), Platform::paper(4, 4), 0.2);
//! let _warm = Portfolio::heuristics().seeded(7).run(&inst); // builds caches
//!
//! // Core (1,2) burns out: remap on the surviving cached state.
//! let dead = CoreId { u: 1, v: 2 };
//! let remap = Portfolio::heuristics()
//!     .seeded(7)
//!     .run(&inst.with_fault(Fault::Core(dead)));
//! // Bit-identical to a cold solve on the faulted platform.
//! let cold = Portfolio::heuristics()
//!     .seeded(7)
//!     .run(&Instance::new(app, Platform::paper(4, 4).with_fault(Fault::Core(dead)), 0.2));
//! assert_eq!(
//!     remap.best_solution().map(|s| s.energy()),
//!     cold.best_solution().map(|s| s.energy()),
//! );
//! ```
//!
//! Deadline-starved portfolios can opt into **anytime mode**
//! (`Portfolio::anytime(true)`, or `"anytime": true` on the serve wire):
//! instead of bare `too_expensive` backpressure the portfolio appends an
//! un-budgeted `Greedy` rescue and certifies its energy against
//! [`prelude::Instance::energy_lower_bound`], so
//! `E_anytime − bound_gap ≤ E_opt ≤ E_anytime`. The serve daemon keys
//! its cache fault-aware (skeletons strip all faults, routes strip core
//! faults), so a warm daemon stays warm across faults; `xp sweep
//! --suite incremental` measures remap-vs-cold latency over a seeded
//! StreamIt fault campaign and gates the ≥2× median speedup in
//! `BENCH_incremental.json`.

pub use cmp_mapping as mapping;
pub use cmp_platform as platform;
pub use ea_core as heuristics;
/// Dependency-free JSON support (the serve wire format).
pub use ea_core::json;
/// Solve-as-a-service: the `xp serve` daemon's server, client, and
/// artifact-cache building blocks.
pub use ea_core::serve;
pub use spg;

/// Everything needed to build workloads, platforms and run the solvers.
pub mod prelude {
    pub use cmp_mapping::{
        evaluate, evaluate_with, latency, latency_lower_bound, Evaluation, Mapping, RouteSpec,
    };
    pub use cmp_platform::{
        CoreId, Fault, FaultSet, Platform, PowerModel, RouteOrder, RoutePolicy, RouteTable, Router,
        Speed, Topology, TopologyKind,
    };
    pub use ea_core::solvers;
    pub use ea_core::{refine, refine_with};
    pub use ea_core::{
        BudgetExceeded, BudgetPhase, Dpa1dConfig, ExactConfig, Failure, Instance, PartitionRule,
        PeriodSweep, Portfolio, PortfolioReport, PruneStats, RefineConfig, SharedLattice, Solution,
        SolveCtx, SolveOutcome, Solver, SolverRegistry, SolverRun, SweepAxis, SweepPoint,
        SweepReport, TransitionSkeleton,
    };
    pub use spg::{
        self, EdgeId, Edit, FamilyKind, FamilyParams, Spg, SpgGenConfig, StageId, WorkloadSpec,
    };
}
