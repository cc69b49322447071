//! The solver portfolio: run a set of [`Solver`]s against one
//! [`Instance`] over the rayon pool, and report per-solver energies,
//! failures, and wall times.
//!
//! This is the paper's experimental protocol (all five heuristics per
//! instance, keep the best) promoted to a first-class API. The instance's
//! shared precomputation (interned ideal lattice, speed-feasibility table,
//! snake/topological orders) is computed once per instance, not once per
//! portfolio member.
//!
//! Determinism: each solver receives a seed mixed from the portfolio seed
//! and the solver's *name*, so a report depends only on `(instance, solver
//! set, seed)` — never on pool width or scheduling (the fan-out preserves
//! solver order). A single-threaded run is a 1-worker
//! `rayon::ThreadPool::install` around the call, not a portfolio option.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::common::{Failure, Solution};
use crate::instance::Instance;
use crate::solver::{SolveCtx, Solver};

/// One solver's outcome within a portfolio run.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// The solver's [`Solver::name`].
    pub name: String,
    /// The seed the solver was called with (mixed per name).
    pub seed: u64,
    /// The solution or failure.
    pub result: Result<Solution, Failure>,
    /// Wall time of this solver's `solve` call.
    pub wall: Duration,
}

impl SolverRun {
    /// The energy if the solver succeeded.
    pub fn energy(&self) -> Option<f64> {
        self.result.as_ref().ok().map(Solution::energy)
    }
}

/// The outcome of [`Portfolio::run`].
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Per-solver outcomes, in portfolio order (plus the anytime rescue
    /// run, last, when one was made).
    pub runs: Vec<SolverRun>,
    /// Index into `runs` of the lowest-energy run, if any solver
    /// succeeded.
    pub best: Option<usize>,
    /// Wall time of the whole portfolio run.
    pub wall: Duration,
}

impl PortfolioReport {
    /// The winning run, if any solver succeeded.
    pub fn best_run(&self) -> Option<&SolverRun> {
        self.best.map(|i| &self.runs[i])
    }

    /// The winning solution.
    pub fn best_solution(&self) -> Option<&Solution> {
        self.best_run().and_then(|r| r.result.as_ref().ok())
    }

    /// The winning energy.
    pub fn best_energy(&self) -> Option<f64> {
        self.best_run().and_then(SolverRun::energy)
    }
}

/// Mixes the portfolio seed with a solver name (FNV-1a over the name), so
/// each solver draws decorrelated randomness yet reruns reproduce exactly.
fn solver_seed(base: u64, name: &str) -> u64 {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    base ^ h
}

/// A configured portfolio of solvers (builder-style).
///
/// ```
/// use ea_core::{Instance, Portfolio};
/// use cmp_platform::Platform;
///
/// let inst = Instance::new(spg::chain(&[1e8; 4], &[1e3; 3]), Platform::paper(2, 2), 1.0);
/// let report = Portfolio::heuristics().seeded(2011).run(&inst);
/// assert!(report.best_energy().is_some());
/// ```
pub struct Portfolio {
    solvers: Vec<Arc<dyn Solver>>,
    seed: u64,
    deadline: Option<Instant>,
    anytime: bool,
}

impl Portfolio {
    /// A portfolio over an explicit solver set (kept in the given order).
    pub fn new(solvers: Vec<Arc<dyn Solver>>) -> Self {
        Portfolio {
            solvers,
            seed: 0,
            deadline: None,
            anytime: false,
        }
    }

    /// The paper's portfolio: the five §5 heuristics in plot order.
    pub fn heuristics() -> Self {
        Portfolio::new(crate::solvers::default_heuristics())
    }

    /// Sets the base seed (mixed per solver name).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a wall-clock deadline: solvers whose turn starts after it fail
    /// with [`Failure::TooExpensive`] instead of searching, and the
    /// searches that poll it stop there (see [`SolveCtx`]).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables anytime mode: when every solver fails and at least one hit
    /// a deadline ([`Failure::TooExpensive`]), the portfolio appends one
    /// deadline-free `Greedy` rescue run (named `"Anytime(Greedy)"`) and
    /// certifies its energy with a [`crate::PruneStats::bound_gap`]
    /// against [`Instance::energy_lower_bound`] — the caller gets a
    /// mapping plus a bracket on the optimum instead of a bare failure.
    pub fn anytime(mut self, yes: bool) -> Self {
        self.anytime = yes;
        self
    }

    /// The solver set, in portfolio order.
    pub fn solvers(&self) -> &[Arc<dyn Solver>] {
        &self.solvers
    }

    /// The solver names, in portfolio order.
    pub fn solver_names(&self) -> Vec<String> {
        self.solvers.iter().map(|s| s.name().to_string()).collect()
    }

    /// Runs the portfolio on one instance: a [`Portfolio::run_batch`] of
    /// one job.
    pub fn run(&self, inst: &Instance) -> PortfolioReport {
        Portfolio::run_batch(&[(self, inst)])
            .pop()
            .expect("one report per job")
    }

    /// Runs several `(portfolio, instance)` jobs as **one** fan-out wave:
    /// every `(job, solver)` pair becomes one task in a single
    /// `par_iter`, so a batch of k requests saturates the worker pool
    /// instead of launching k competing fan-outs (the serve scheduler's
    /// whole point — see [`crate::serve::scheduler`]). The pool fans out
    /// only when it has more than one worker and the wave more than one
    /// task; either way each job's report is the same, bit for bit (same
    /// per-solver seeds, same anytime-rescue and winner rules). Only wall
    /// times reflect the batch.
    pub fn run_batch(jobs: &[(&Portfolio, &Instance)]) -> Vec<PortfolioReport> {
        let started = Instant::now();
        // Flatten to (job, solver) pairs; par_iter preserves input order,
        // so regrouping by job index restores portfolio order exactly.
        let tasks: Vec<(usize, usize)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(j, (p, _))| (0..p.solvers.len()).map(move |s| (j, s)))
            .collect();
        let flat: Vec<(usize, SolverRun)> = tasks
            .into_par_iter()
            .map(|(j, s)| {
                let (p, inst) = jobs[j];
                let solver = &p.solvers[s];
                let seed = solver_seed(p.seed, solver.name());
                let ctx = SolveCtx {
                    seed,
                    deadline: p.deadline,
                    anytime: p.anytime,
                };
                let t0 = Instant::now();
                let result = solver.solve(inst, &ctx);
                let run = SolverRun {
                    name: solver.name().to_string(),
                    seed,
                    result,
                    wall: t0.elapsed(),
                };
                (j, run)
            })
            .collect();
        let mut per_job: Vec<Vec<SolverRun>> = jobs.iter().map(|_| Vec::new()).collect();
        for (j, run) in flat {
            per_job[j].push(run);
        }
        jobs.iter()
            .zip(per_job)
            .map(|((p, inst), runs)| p.finish_runs(inst, runs, started))
            .collect()
    }

    /// The per-job tail of [`Portfolio::run_batch`]: anytime rescue,
    /// winner selection, report assembly.
    fn finish_runs(
        &self,
        inst: &Instance,
        mut runs: Vec<SolverRun>,
        started: Instant,
    ) -> PortfolioReport {
        let starved = runs.iter().all(|r| r.result.is_err())
            && runs
                .iter()
                .any(|r| matches!(r.result, Err(Failure::TooExpensive(_))));
        if self.anytime && starved {
            runs.push(self.anytime_rescue(inst));
        }
        let best = runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.energy().map(|e| (i, e)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i);
        PortfolioReport {
            runs,
            best,
            wall: started.elapsed(),
        }
    }

    /// The anytime rescue run: deadline-free `Greedy`, with the gap to the
    /// instance's certified energy lower bound stamped as `bound_gap`
    /// (`E_rescue − bound_gap ≤ E_opt ≤ E_rescue`).
    fn anytime_rescue(&self, inst: &Instance) -> SolverRun {
        use crate::common::PruneStats;
        let name = "Anytime(Greedy)";
        let seed = solver_seed(self.seed, name);
        let ctx = SolveCtx {
            seed,
            anytime: true,
            ..Default::default()
        };
        let t0 = Instant::now();
        let mut result = crate::solvers::Greedy::default().solve(inst, &ctx);
        if let Ok(sol) = &mut result {
            let gap = (sol.energy() - inst.energy_lower_bound()).max(0.0);
            sol.prune = Some(PruneStats {
                bound_gap: gap,
                ..Default::default()
            });
        }
        SolverRun {
            name: name.to_string(),
            seed,
            result,
            wall: t0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_platform::Platform;
    use spg::chain;

    fn inst() -> Instance {
        Instance::new(chain(&[2e8; 8], &[5e4; 7]), Platform::paper(4, 4), 0.5)
    }

    /// The per-solver comparison key for determinism checks: name, seed,
    /// and energy-or-failure (wall times legitimately vary).
    fn signature(report: &PortfolioReport) -> Vec<(String, u64, Result<f64, String>)> {
        report
            .runs
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.seed,
                    r.result
                        .as_ref()
                        .map(Solution::energy)
                        .map_err(|e| e.to_string()),
                )
            })
            .collect()
    }

    /// Runs `f` on a 1-worker and on a 2-worker pool.
    fn on_both_widths<R>(f: impl Fn() -> R) -> [R; 2] {
        [1, 2].map(|w| rayon::ThreadPool::new(w).install(&f))
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let i = inst();
        let [seq, par] = on_both_widths(|| Portfolio::heuristics().seeded(7).run(&i));
        assert_eq!(signature(&par), signature(&seq));
        assert_eq!(par.best, seq.best);
        assert!(par.best_energy().unwrap() > 0.0);
    }

    #[test]
    fn best_is_min_energy() {
        let report = Portfolio::heuristics().seeded(1).run(&inst());
        let min = report
            .runs
            .iter()
            .filter_map(SolverRun::energy)
            .min_by(|a, b| a.total_cmp(b))
            .unwrap();
        assert_eq!(report.best_energy().unwrap(), min);
    }

    #[test]
    fn seeds_are_per_solver_and_reproducible() {
        let a = Portfolio::heuristics().seeded(42).run(&inst());
        let b = Portfolio::heuristics().seeded(42).run(&inst());
        assert_eq!(signature(&a), signature(&b));
        // Distinct solvers draw distinct seeds.
        let seeds: std::collections::HashSet<u64> = a.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), a.runs.len());
    }

    #[test]
    fn zero_budget_fails_everything() {
        let report = Portfolio::heuristics()
            .with_deadline(Instant::now())
            .run(&inst());
        assert!(report.best.is_none());
        assert!(report
            .runs
            .iter()
            .all(|r| matches!(r.result, Err(Failure::TooExpensive(_)))));
    }

    #[test]
    fn anytime_rescues_a_starved_portfolio() {
        let i = inst();
        let report = Portfolio::heuristics()
            .with_deadline(Instant::now())
            .anytime(true)
            .run(&i);
        let best = report.best_run().expect("anytime mode yields a mapping");
        assert_eq!(best.name, "Anytime(Greedy)");
        let sol = best.result.as_ref().unwrap();
        let gap = sol.bound_gap();
        assert!(sol.prune.is_some(), "rescue stamps a certified gap");
        assert!(gap >= 0.0 && gap.is_finite());
        // The certificate reconstructs the instance lower bound.
        let lb = sol.energy() - gap;
        assert!((lb - i.energy_lower_bound()).abs() <= 1e-9 * i.energy_lower_bound());
        // Determinism: the rescue draws its seed like any portfolio member.
        let again = Portfolio::heuristics()
            .with_deadline(Instant::now())
            .anytime(true)
            .run(&i);
        assert_eq!(signature(&report), signature(&again));
    }

    #[test]
    fn anytime_bound_brackets_the_exact_optimum() {
        // Small enough for Exact: the certified interval
        // [E_any − gap, E_any] must contain the exact optimum.
        let i = Instance::new(chain(&[2e8; 4], &[5e4; 3]), Platform::paper(2, 2), 0.5);
        let exact = crate::solvers::Exact::default()
            .solve(&i, &SolveCtx::new(0))
            .expect("exact solves the small instance");
        let report = Portfolio::heuristics()
            .with_deadline(Instant::now())
            .anytime(true)
            .run(&i);
        let sol = report.best_run().unwrap().result.as_ref().unwrap();
        let gap = sol.bound_gap();
        assert!(sol.energy() - gap <= exact.energy() * (1.0 + 1e-12));
        assert!(exact.energy() <= sol.energy() * (1.0 + 1e-12));
    }

    #[test]
    fn run_batch_matches_individual_runs_exactly() {
        let a = inst();
        let b = Instance::new(chain(&[3e8; 6], &[2e4; 5]), Platform::paper(2, 2), 0.5);
        let pa = Portfolio::heuristics().seeded(7);
        let pb = Portfolio::heuristics().seeded(11).anytime(true);
        let [solo_a, solo_b] = rayon::ThreadPool::new(1).install(|| [pa.run(&a), pb.run(&b)]);
        // The batch on either pool width equals the sequential solo runs.
        for batch in on_both_widths(|| Portfolio::run_batch(&[(&pa, &a), (&pb, &b), (&pa, &a)])) {
            assert_eq!(batch.len(), 3);
            assert_eq!(signature(&batch[0]), signature(&solo_a));
            assert_eq!(signature(&batch[1]), signature(&solo_b));
            assert_eq!(signature(&batch[2]), signature(&solo_a));
            assert_eq!(batch[0].best, solo_a.best);
            assert_eq!(batch[1].best, solo_b.best);
            assert_eq!(
                batch[0].best_energy(),
                solo_a.best_energy(),
                "batched energies must be bit-identical to unbatched"
            );
        }
        // A starved anytime job inside a batch still gets its rescue.
        let starved = Portfolio::heuristics()
            .with_deadline(Instant::now())
            .anytime(true);
        let rescued = Portfolio::run_batch(&[(&starved, &a)]);
        assert_eq!(
            rescued[0].best_run().unwrap().name,
            "Anytime(Greedy)",
            "rescue applies inside run_batch"
        );
    }

    #[test]
    fn anytime_is_inert_when_solvers_succeed() {
        let i = inst();
        let plain = Portfolio::heuristics().seeded(9).run(&i);
        let any = Portfolio::heuristics().seeded(9).anytime(true).run(&i);
        assert_eq!(signature(&plain), signature(&any));
    }
}
