//! [`Solver`] implementations: the five §5 heuristics, the §4.4 exact
//! solver, and the hill-climbing [`Refined`] combinator.
//!
//! Every solver shares the instance's precomputation: all of them consult
//! the per-stage speed-feasibility table as a pre-search reject, `DPA1D`
//! reads the interned ideal lattice (enumerated once per instance instead
//! of once per call), `Greedy` starts its speed sweep at the shared
//! feasibility floor, and `Exact` reuses the cached topological order.

use std::sync::Arc;

use crate::common::{Failure, Solution};
use crate::dpa1d::Dpa1dConfig;
use crate::exact::ExactConfig;
use crate::instance::Instance;
use crate::random::RANDOM_TRIALS;
use crate::refine::RefineConfig;
use crate::solver::{SolveCtx, Solver};

/// Shared pre-search reject: a single stage that misses the period alone at
/// the fastest speed makes *every* mapping invalid, so each solver fails
/// fast off the instance's cached table instead of searching.
fn reject_infeasible(inst: &Instance) -> Result<(), Failure> {
    match inst.infeasible_stage() {
        Some(s) => Err(Failure::NoValidMapping(format!(
            "stage {} exceeds the fastest speed at T = {}",
            s.0,
            inst.period()
        ))),
        None => Ok(()),
    }
}

/// The §5.1 `Random` heuristic: best of `trials` random draws.
#[derive(Debug, Clone)]
pub struct Random {
    /// Independent draws per call (paper: 10).
    pub trials: usize,
}

impl Default for Random {
    fn default() -> Self {
        Random {
            trials: RANDOM_TRIALS,
        }
    }
}

impl Solver for Random {
    fn name(&self) -> &str {
        "Random"
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        ctx.check_budget()?;
        reject_infeasible(inst)?;
        crate::random::random_trials(inst, ctx.seed, self.trials)
    }
}

/// The §5.2 `Greedy` heuristic: wavefront growth at each speed, downgrade.
#[derive(Debug, Clone)]
pub struct Greedy {
    /// Whether to run the §5.2 speed-downgrade post-pass (on in the paper;
    /// off only for the downgrade ablation).
    pub downgrade: bool,
}

impl Default for Greedy {
    fn default() -> Self {
        Greedy { downgrade: true }
    }
}

impl Solver for Greedy {
    fn name(&self) -> &str {
        "Greedy"
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        ctx.check_budget()?;
        reject_infeasible(inst)?;
        // The shared speed-feasibility floor: wavefront passes below the
        // heaviest stage's slowest feasible speed can never place it.
        let k_lo = inst.min_uniform_speed().unwrap_or(0);
        crate::greedy::greedy_run(inst, self.downgrade, k_lo)
    }
}

/// The §5.3 `DPA2D` nested dynamic program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dpa2d;

impl Solver for Dpa2d {
    fn name(&self) -> &str {
        "DPA2D"
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        ctx.check_budget()?;
        reject_infeasible(inst)?;
        crate::dpa2d::dpa2d_run(inst, ctx)
    }
}

/// The §5.4 `DPA1D` uni-line DP, reading the instance's shared interned
/// ideal lattice (enumerated at most once per instance across probe decades
/// and portfolio members).
#[derive(Debug, Clone, Default)]
pub struct Dpa1d {
    /// Complexity budgets (ideal and transition caps).
    pub cfg: Dpa1dConfig,
}

impl Solver for Dpa1d {
    fn name(&self) -> &str {
        "DPA1D"
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        ctx.check_budget()?;
        reject_infeasible(inst)?;
        crate::dpa1d::dpa1d_run(inst, &self.cfg, ctx)
    }
}

/// The §5.4 `DPA2D1D` heuristic (`DPA2D` on a virtual `1 × pq` line,
/// snaked).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dpa2d1d;

impl Solver for Dpa2d1d {
    fn name(&self) -> &str {
        "DPA2D1D"
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        ctx.check_budget()?;
        reject_infeasible(inst)?;
        crate::dpa2d1d::dpa2d1d_run(inst, ctx)
    }
}

/// The §4.4 exhaustive exact solver (ILP substitute; tiny instances only).
#[derive(Debug, Clone, Default)]
pub struct Exact {
    /// Budgets and the partition admissibility rule.
    pub cfg: ExactConfig,
}

impl Solver for Exact {
    fn name(&self) -> &str {
        "Exact"
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        ctx.check_budget()?;
        reject_infeasible(inst)?;
        crate::exact::exact_run(inst, &self.cfg, ctx)
    }
}

/// Wrapper combinator: solve with the inner solver, then hill-climb the
/// result with single-stage migrations ([`crate::refine::refine`]). Fails
/// exactly when the inner solver fails.
pub struct Refined {
    inner: Arc<dyn Solver>,
    /// Refinement budget.
    pub cfg: RefineConfig,
    name: String,
}

impl Refined {
    /// Refinement around `inner` with the default budget.
    pub fn new(inner: Arc<dyn Solver>) -> Self {
        Refined::with_config(inner, RefineConfig::default())
    }

    /// Refinement around `inner` with an explicit budget.
    pub fn with_config(inner: Arc<dyn Solver>, cfg: RefineConfig) -> Self {
        let name = format!("Refined({})", inner.name());
        Refined { inner, cfg, name }
    }
}

impl Solver for Refined {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        let start = self.inner.solve(inst, ctx)?;
        ctx.check_budget()?;
        let table = inst.route_table_for(&start.mapping);
        Ok(crate::refine::refine_with(
            inst.spg(),
            inst.platform(),
            &start,
            inst.period(),
            &self.cfg,
            table.as_deref(),
        ))
    }
}

/// The five §5 heuristics at default configuration, in the paper's plot
/// order (Figures 8–13).
pub fn default_heuristics() -> Vec<Arc<dyn Solver>> {
    vec![
        Arc::new(Random::default()),
        Arc::new(Greedy::default()),
        Arc::new(Dpa2d),
        Arc::new(Dpa1d::default()),
        Arc::new(Dpa2d1d),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_platform::Platform;
    use spg::chain;

    fn small_instance() -> Instance {
        Instance::new(chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 0.5)
    }

    #[test]
    fn every_solver_has_the_paper_name() {
        let names: Vec<String> = default_heuristics()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(names, ["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"]);
        assert_eq!(Exact::default().name(), "Exact");
    }

    /// `Greedy` starts its speed sweep at the instance's feasibility floor
    /// ([`Instance::min_uniform_speed`]); skipping the passes below it must
    /// not change the answer of a sweep from speed 0.
    #[test]
    fn greedy_speed_floor_matches_a_full_sweep() {
        let pf = Platform::paper(4, 4);
        let streamit = [1usize, 6, 7, 8, 9, 12].map(|idx| {
            let g = spg::streamit_workflow(&spg::STREAMIT_SPECS[idx - 1], 2011);
            let t = g.total_work() / (8.0 * 1e9);
            Instance::new(g, pf.clone(), t)
        });
        for inst in streamit.iter().chain([&small_instance()]) {
            let floored = Greedy::default().solve(inst, &SolveCtx::new(0));
            let full = crate::greedy::greedy_run(inst, true, 0);
            match (floored, full) {
                (Ok(a), Ok(b)) => assert_eq!(a.energy().to_bits(), b.energy().to_bits()),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("speed floor changed feasibility: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn quick_reject_fails_every_solver() {
        // One 3e9-cycle stage can never meet T = 1 at 1 GHz.
        let inst = Instance::new(chain(&[3e9, 1.0], &[1.0]), Platform::paper(2, 2), 1.0);
        let ctx = SolveCtx::new(0);
        for s in default_heuristics() {
            assert!(matches!(
                s.solve(&inst, &ctx),
                Err(Failure::NoValidMapping(_))
            ));
        }
    }

    #[test]
    fn refined_never_worsens_inner() {
        let inst = small_instance();
        let ctx = SolveCtx::new(3);
        let base = Random::default().solve(&inst, &ctx).unwrap();
        let refined = Refined::new(Arc::new(Random::default()))
            .solve(&inst, &ctx)
            .unwrap();
        assert!(refined.energy() <= base.energy() * (1.0 + 1e-12));
    }

    #[test]
    fn expired_budget_short_circuits() {
        let inst = small_instance();
        let ctx = SolveCtx {
            seed: 0,
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Default::default()
        };
        for s in default_heuristics() {
            assert!(matches!(
                s.solve(&inst, &ctx),
                Err(Failure::TooExpensive(_))
            ));
        }
    }

    #[test]
    fn dpa1d_shares_the_instance_lattice() {
        let inst = small_instance();
        let ctx = SolveCtx::new(0);
        let a = Dpa1d::default().solve(&inst, &ctx).unwrap();
        // Second call must reuse the cached lattice (same Arc) and agree.
        let l1 = inst.lattice(Dpa1dConfig::default().ideal_cap).unwrap();
        let b = Dpa1d::default().solve(&inst, &ctx).unwrap();
        let l2 = inst.lattice(Dpa1dConfig::default().ideal_cap).unwrap();
        assert!(Arc::ptr_eq(&l1, &l2));
        assert_eq!(a.energy(), b.energy());
    }
}
