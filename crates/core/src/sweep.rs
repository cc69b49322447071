//! Period sweeps: the paper's feasibility/energy-versus-tightness curves
//! (§6.1.3, Figures 8–13's x-axis) as a first-class API.
//!
//! A [`PeriodSweep`] runs a [`Portfolio`] at every value of a grid of
//! period bounds — given either directly or as platform *utilisations*
//! (`u`, resolved through [`Instance::utilisation_period`]) — against
//! **one** instance, so every sweep point shares the instance's
//! period-independent caches via [`Instance::with_period`]: the interned
//! ideal lattice, `DPA1D`'s [`crate::TransitionSkeleton`], and the route
//! tables are built once for the whole curve instead of once per point.
//! The whole grid runs as one [`Portfolio::run_batch`] wave (every
//! `(point, solver)` pair is one task on the rayon pool), so per-point
//! outcomes are deterministic in `(instance, portfolio)` and bit-identical
//! to a fresh [`Instance::new`] run of the portfolio at that period (the
//! root test-suite pins this). The portfolio's seed, deadline and anytime
//! mode apply at every point; the `serve` daemon's `sweep` op is this
//! sweep over its request's portfolio.
//!
//! ```
//! use ea_core::sweep::PeriodSweep;
//! use ea_core::{Instance, Portfolio};
//! use cmp_platform::Platform;
//!
//! let inst = Instance::new(spg::chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 1.0);
//! let grid = PeriodSweep::geometric(1.0, 0.1, 8); // one decade, 8 points
//! let report = PeriodSweep::over_periods(Portfolio::heuristics().seeded(2011), grid).run(&inst);
//! for f in report.frontier() {
//!     println!("{}: tightest feasible T = {:?}", f.solver, f.tightest_period);
//! }
//! ```

use std::time::{Duration, Instant};

use crate::instance::Instance;
use crate::portfolio::{Portfolio, SolverRun};

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

/// A configured sweep: the portfolio run at every point and a grid over
/// one axis.
pub struct PeriodSweep {
    portfolio: Portfolio,
    axis: SweepAxis,
    values: Vec<f64>,
}

impl PeriodSweep {
    /// A sweep whose grid values are period bounds (seconds).
    pub fn over_periods(portfolio: Portfolio, periods: Vec<f64>) -> Self {
        PeriodSweep {
            portfolio,
            axis: SweepAxis::Period,
            values: periods,
        }
    }

    /// A sweep whose grid values are platform utilisations, resolved to
    /// periods per instance ([`Instance::utilisation_period`]).
    pub fn over_utilisations(portfolio: Portfolio, utilisations: Vec<f64>) -> Self {
        PeriodSweep {
            portfolio,
            axis: SweepAxis::Utilisation,
            values: utilisations,
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

    /// The grid's periods on `base`'s workload and platform, in grid
    /// order.
    fn periods(&self, base: &Instance) -> Vec<f64> {
        self.values
            .iter()
            .map(|&v| match self.axis {
                SweepAxis::Period => v,
                SweepAxis::Utilisation => base.utilisation_period(v),
            })
            .collect()
    }

    /// The grid's loosest finite period on `base`: the work ceiling that
    /// one bounded `DPA1D` skeleton build must reach to serve every point
    /// (see [`Instance::note_period_ceiling`]).
    pub(crate) fn ceiling(&self, base: &Instance) -> Option<f64> {
        self.periods(base)
            .into_iter()
            .max_by(f64::total_cmp)
            .filter(|t| t.is_finite())
    }

    /// Runs the sweep against `base`'s workload and platform. Every point
    /// re-targets `base` via [`Instance::with_period`], so the
    /// period-independent caches are built once for the whole curve;
    /// `base`'s own period is *not* part of the grid unless listed.
    pub fn run(&self, base: &Instance) -> SweepReport {
        let started = Instant::now();
        // Announce the grid's loosest period before fanning out: the first
        // `DPA1D` bounded-skeleton build then targets a work ceiling that
        // serves *every* point of the sweep, instead of the first-solved
        // point's — which under the rayon fan-out would be an arbitrary
        // (though result-identical) choice.
        if let Some(loosest) = self.ceiling(base) {
            base.note_period_ceiling(loosest);
        }
        let periods = self.periods(base);
        let insts: Vec<Instance> = periods.iter().map(|&t| base.with_period(t)).collect();
        let jobs: Vec<(&Portfolio, &Instance)> =
            insts.iter().map(|i| (&self.portfolio, i)).collect();
        let points: Vec<SweepPoint> = Portfolio::run_batch(&jobs)
            .into_iter()
            .zip(self.values.iter().zip(periods))
            .map(|(report, (&value, period))| SweepPoint {
                value,
                period,
                runs: report.runs,
                best: report.best,
            })
            .collect();
        SweepReport {
            axis: self.axis,
            solver_names: self.portfolio.solver_names(),
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
    /// Per-solver outcomes, in sweep solver order (plus the anytime rescue
    /// run, last, when one was made).
    pub runs: Vec<SolveOutcome>,
    /// Index into `runs` of the lowest-energy run, if any solver succeeded
    /// (the point's [`crate::PortfolioReport::best`]).
    pub best: Option<usize>,
}

impl SweepPoint {
    /// The winning run, if any solver succeeded.
    pub fn best_run(&self) -> Option<&SolveOutcome> {
        self.best.map(|i| &self.runs[i])
    }

    /// The lowest energy over the point's solvers, if any succeeded.
    pub fn best_energy(&self) -> Option<f64> {
        self.best_run().and_then(SolveOutcome::energy)
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
                PeriodSweep::over_periods(Portfolio::heuristics().seeded(7), grid.clone())
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
        let report =
            PeriodSweep::over_utilisations(Portfolio::heuristics().seeded(1), vec![0.2, 0.4])
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
        let report =
            PeriodSweep::over_periods(Portfolio::heuristics().seeded(3), grid).run(&base());
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
