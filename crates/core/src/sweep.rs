//! Period sweeps: the paper's feasibility/energy-versus-tightness curves
//! (§6.1.3, Figures 8–13's x-axis) as a first-class API.
//!
//! A [`PeriodSweep`] runs a solver list over a grid of period bounds — given
//! either directly or as platform *utilisations* (`u`, resolved through
//! [`Instance::utilisation_period`]) — against **one** instance, so every
//! sweep point shares the instance's period-independent caches via
//! [`Instance::with_period`]: the interned ideal lattice, `DPA1D`'s
//! [`crate::TransitionSkeleton`], and the route tables are built once for
//! the whole curve instead of once per point. The whole grid runs as one
//! [`Portfolio::run_batch`] wave (every `(point, solver)` pair is one task
//! on the rayon pool), so per-point outcomes are deterministic in
//! `(instance, solvers, seed)` and bit-identical to a fresh
//! [`Instance::new`] solve at that period (the root test-suite pins this).
//!
//! ```
//! use ea_core::sweep::PeriodSweep;
//! use ea_core::Instance;
//! use cmp_platform::Platform;
//!
//! let inst = Instance::new(spg::chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 1.0);
//! let grid = PeriodSweep::geometric(1.0, 0.1, 8); // one decade, 8 points
//! let report = PeriodSweep::over_periods(ea_core::solvers::default_heuristics(), grid)
//!     .seeded(2011)
//!     .run(&inst);
//! for f in report.frontier() {
//!     println!("{}: tightest feasible T = {:?}", f.solver, f.tightest_period);
//! }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::instance::Instance;
use crate::portfolio::{Portfolio, SolverRun};
use crate::solver::Solver;

/// One solver's outcome at one sweep point (name, seed, solution or
/// failure, wall time) — the same record a [`Portfolio`] run produces.
pub type SolveOutcome = SolverRun;

/// Which quantity the sweep grid enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Grid values are period bounds `T` (seconds).
    Period,
    /// Grid values are platform utilisations `u ∈ (0, 1]`; tighter periods
    /// correspond to *larger* `u` (`T = W / (u · p·q · f_max)`).
    Utilisation,
}

/// A configured sweep: a solver list and a grid over one axis.
pub struct PeriodSweep {
    solvers: Vec<Arc<dyn Solver>>,
    axis: SweepAxis,
    values: Vec<f64>,
    seed: u64,
}

impl PeriodSweep {
    /// A sweep whose grid values are period bounds (seconds).
    pub fn over_periods(solvers: Vec<Arc<dyn Solver>>, periods: Vec<f64>) -> Self {
        PeriodSweep {
            solvers,
            axis: SweepAxis::Period,
            values: periods,
            seed: 0,
        }
    }

    /// A sweep whose grid values are platform utilisations, resolved to
    /// periods per instance ([`Instance::utilisation_period`]).
    pub fn over_utilisations(solvers: Vec<Arc<dyn Solver>>, utilisations: Vec<f64>) -> Self {
        PeriodSweep {
            solvers,
            axis: SweepAxis::Utilisation,
            values: utilisations,
            seed: 0,
        }
    }

    /// A geometric grid from `start` to `stop` inclusive (`points ≥ 2`;
    /// with `points == 1` the grid is just `[start]`). Works on either
    /// axis — e.g. `geometric(1.0, 0.1, 16)` is the §6.1.3 decade at
    /// 16-point resolution.
    pub fn geometric(start: f64, stop: f64, points: usize) -> Vec<f64> {
        assert!(
            start > 0.0 && stop > 0.0 && start.is_finite() && stop.is_finite(),
            "geometric grids need positive finite endpoints"
        );
        assert!(points > 0, "a grid needs at least one point");
        if points == 1 {
            return vec![start];
        }
        let ratio = stop / start;
        (0..points)
            .map(|i| start * ratio.powf(i as f64 / (points - 1) as f64))
            .collect()
    }

    /// Sets the base seed (mixed per solver name, like [`Portfolio`], so a
    /// sweep point's outcomes equal a fresh portfolio run at that period).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The solver names, in sweep order.
    pub fn solver_names(&self) -> Vec<String> {
        self.solvers.iter().map(|s| s.name().to_string()).collect()
    }

    /// Runs the sweep against `base`'s workload and platform. Every point
    /// re-targets `base` via [`Instance::with_period`], so the
    /// period-independent caches are built once for the whole curve;
    /// `base`'s own period is *not* part of the grid unless listed.
    pub fn run(&self, base: &Instance) -> SweepReport {
        let started = Instant::now();
        let resolved: Vec<(f64, f64)> = self
            .values
            .iter()
            .map(|&v| match self.axis {
                SweepAxis::Period => (v, v),
                SweepAxis::Utilisation => (v, base.utilisation_period(v)),
            })
            .collect();
        // Announce the grid's loosest period before fanning out: the first
        // `DPA1D` bounded-skeleton build then targets a work ceiling that
        // serves *every* point of the sweep (see
        // [`Instance::note_period_ceiling`]), instead of the first-solved
        // point's — which under the rayon fan-out would be an arbitrary
        // (though result-identical) choice.
        if let Some(loosest) = resolved
            .iter()
            .map(|&(_, t)| t)
            .max_by(f64::total_cmp)
            .filter(|t| t.is_finite())
        {
            base.note_period_ceiling(loosest);
        }
        let portfolio = Portfolio::new(self.solvers.clone()).seeded(self.seed);
        let insts: Vec<Instance> = resolved
            .iter()
            .map(|&(_, period)| base.with_period(period))
            .collect();
        let jobs: Vec<(&Portfolio, &Instance)> = insts.iter().map(|i| (&portfolio, i)).collect();
        let points: Vec<SweepPoint> = Portfolio::run_batch(&jobs)
            .into_iter()
            .zip(resolved)
            .map(|(report, (value, period))| SweepPoint {
                value,
                period,
                runs: report.runs,
            })
            .collect();
        SweepReport {
            axis: self.axis,
            solver_names: self.solver_names(),
            points,
            wall: started.elapsed(),
        }
    }
}

/// All solver outcomes at one grid point.
pub struct SweepPoint {
    /// The grid value (a period or a utilisation, per [`SweepAxis`]).
    pub value: f64,
    /// The resolved period bound this point solved at.
    pub period: f64,
    /// Per-solver outcomes, in sweep solver order.
    pub runs: Vec<SolveOutcome>,
}

impl SweepPoint {
    /// The lowest energy over the point's solvers, if any succeeded.
    pub fn best_energy(&self) -> Option<f64> {
        self.runs
            .iter()
            .filter_map(SolveOutcome::energy)
            .min_by(f64::total_cmp)
    }

    /// This point's outcome for one solver (by display name).
    pub fn outcome(&self, solver: &str) -> Option<&SolveOutcome> {
        self.runs.iter().find(|r| r.name == solver)
    }
}

/// One solver's feasibility frontier over a sweep.
#[derive(Debug, Clone)]
pub struct FrontierEntry {
    /// Solver display name.
    pub solver: String,
    /// Tightest (smallest) period at which the solver succeeded.
    pub tightest_period: Option<f64>,
    /// The grid value at that tightest point (equals `tightest_period` on
    /// the period axis; the largest feasible `u` on the utilisation axis).
    pub tightest_value: Option<f64>,
    /// Number of grid points where the solver succeeded.
    pub feasible_points: usize,
}

/// The outcome of [`PeriodSweep::run`]: per-point solver outcomes plus the
/// derived feasibility frontier.
pub struct SweepReport {
    /// The swept axis.
    pub axis: SweepAxis,
    /// Solver names, in sweep order (the order of every point's `runs`).
    pub solver_names: Vec<String>,
    /// One entry per grid value, in grid order.
    pub points: Vec<SweepPoint>,
    /// Wall time of the whole sweep.
    pub wall: Duration,
}

impl SweepReport {
    /// Per-solver feasibility frontier: the tightest period each solver
    /// still solves, over the swept grid.
    pub fn frontier(&self) -> Vec<FrontierEntry> {
        self.solver_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let feasible: Vec<&SweepPoint> = self
                    .points
                    .iter()
                    .filter(|p| p.runs.get(i).is_some_and(|r| r.result.is_ok()))
                    .collect();
                let tightest = feasible.iter().min_by(|a, b| a.period.total_cmp(&b.period));
                FrontierEntry {
                    solver: name.clone(),
                    tightest_period: tightest.map(|p| p.period),
                    tightest_value: tightest.map(|p| p.value),
                    feasible_points: feasible.len(),
                }
            })
            .collect()
    }

    /// One solver's energy curve over the grid (`None` where it failed).
    pub fn energies(&self, solver: &str) -> Vec<Option<f64>> {
        self.points
            .iter()
            .map(|p| p.outcome(solver).and_then(SolveOutcome::energy))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::default_heuristics;
    use cmp_platform::Platform;
    use spg::chain;

    fn base() -> Instance {
        Instance::new(chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 1.0)
    }

    #[test]
    fn geometric_grid_hits_endpoints() {
        let g = PeriodSweep::geometric(1.0, 0.1, 16);
        assert_eq!(g.len(), 16);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[15] - 0.1).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[1] < w[0]), "descending decade");
        assert_eq!(PeriodSweep::geometric(2.0, 0.5, 1), vec![2.0]);
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let grid = PeriodSweep::geometric(1.0, 0.05, 6);
        let [seq, par] = [1, 2].map(|w| {
            rayon::ThreadPool::new(w).install(|| {
                PeriodSweep::over_periods(default_heuristics(), grid.clone())
                    .seeded(7)
                    .run(&base())
            })
        });
        assert_eq!(par.points.len(), seq.points.len());
        for (a, b) in par.points.iter().zip(&seq.points) {
            assert_eq!(a.period, b.period);
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.name, rb.name);
                assert_eq!(ra.seed, rb.seed);
                assert_eq!(ra.energy(), rb.energy());
            }
        }
    }

    #[test]
    fn utilisation_axis_resolves_periods() {
        let inst = base();
        let report = PeriodSweep::over_utilisations(default_heuristics(), vec![0.2, 0.4])
            .seeded(1)
            .run(&inst);
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!((p.period - inst.utilisation_period(p.value)).abs() < 1e-15);
        }
        // Doubling the utilisation halves the period.
        let ratio = report.points[0].period / report.points[1].period;
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn frontier_reports_tightest_feasible_point() {
        // A decade sweep on a loose pipeline: every solver feasible at the
        // loose end, and the frontier period is the minimum feasible one.
        let grid = PeriodSweep::geometric(1.0, 0.01, 8);
        let report = PeriodSweep::over_periods(default_heuristics(), grid)
            .seeded(3)
            .run(&base());
        for f in report.frontier() {
            assert!(f.feasible_points > 0, "{} never succeeded", f.solver);
            let t = f.tightest_period.unwrap();
            // Every point at a looser period than the frontier must be
            // feasible-or-tighter consistent: the frontier is the min.
            for p in &report.points {
                if p.outcome(&f.solver).is_some_and(|r| r.result.is_ok()) {
                    assert!(p.period >= t);
                }
            }
        }
        // Energy curves have one slot per grid point.
        assert_eq!(report.energies("DPA1D").len(), 8);
    }
}
