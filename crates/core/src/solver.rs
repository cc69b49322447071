//! The solver abstraction: a uniform `solve(&Instance, &SolveCtx)` entry
//! point over every algorithm in the crate, plus a string-keyed registry
//! for config/CLI-driven selection.
//!
//! The five heuristics of paper §5, the §4.4 exact solver, and the
//! hill-climbing refinement combinator all implement [`Solver`] (see the
//! [`crate::solvers`] module); [`SolverRegistry`] resolves paper-style
//! names (case-insensitively) to shared solver handles, and understands
//! `refined:<name>` as the refinement wrapper around a registered solver.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::common::{Failure, Solution};
use crate::instance::Instance;

/// Per-call solve context: the seed driving any randomized choices, and an
/// optional wall-clock deadline.
///
/// Deadline checking is **coarse-grained**: solvers test it at their entry
/// (and between major phases where natural), so a budget mostly bounds
/// when new work *starts*. `DPA2D` and `DPA2D1D` also poll it once per
/// outer DP cell, and `DPA1D` once per source ideal of its relaxation (its
/// lattice and skeleton builds are bounded by their caps instead); the
/// other solvers' searches still run to completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveCtx {
    /// Seed for randomized solvers (only `Random` draws from it today).
    pub seed: u64,
    /// Optional wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Anytime mode: when the deadline (or a complexity budget) would
    /// force a bare [`Failure::TooExpensive`], the caller prefers the
    /// best-known mapping with a certified energy bound instead. Today the
    /// [`crate::Portfolio`] honours this by rescuing a deadline-starved
    /// run with an un-budgeted `Greedy` pass whose
    /// [`crate::PruneStats::bound_gap`] certifies the distance to
    /// [`crate::Instance::energy_lower_bound`].
    pub anytime: bool,
}

impl SolveCtx {
    /// A context with the given seed and no deadline.
    pub fn new(seed: u64) -> Self {
        SolveCtx {
            seed,
            ..Default::default()
        }
    }

    /// A context with a wall-clock budget counted from now.
    pub fn budgeted(seed: u64, budget: Duration) -> Self {
        SolveCtx {
            seed,
            deadline: Instant::now().checked_add(budget),
            ..Default::default()
        }
    }

    /// Whether the deadline (if any) has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Errors with [`Failure::TooExpensive`] once the deadline has passed;
    /// solvers call this at entry (and between phases).
    pub fn check_budget(&self) -> Result<(), Failure> {
        if self.expired() {
            Err(Failure::budget(crate::common::BudgetPhase::Deadline, 0, 0))
        } else {
            Ok(())
        }
    }
}

/// A named solving algorithm over an [`Instance`].
pub trait Solver: Send + Sync {
    /// Display name, matching the paper's figures where applicable
    /// (`"Random"`, `"Greedy"`, `"DPA2D"`, `"DPA1D"`, `"DPA2D1D"`,
    /// `"Exact"`, `"Refined(...)"`).
    fn name(&self) -> &str;

    /// Solves the instance, or explains why no valid mapping was produced.
    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure>;
}

/// Prefix selecting the refinement wrapper in registry lookups:
/// `refined:greedy` resolves to `Refined(Greedy)`.
const REFINED_PREFIX: &str = "refined:";

/// A string-keyed set of solvers for config/CLI-driven selection.
///
/// Lookup is case-insensitive on [`Solver::name`]; registering a solver
/// whose name is already present replaces the previous entry.
pub struct SolverRegistry {
    entries: Vec<Arc<dyn Solver>>,
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SolverRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard registry: the five §5 heuristics in plot order,
    /// followed by the §4.4 exact solver, all at default configuration.
    pub fn with_defaults() -> Self {
        let mut reg = SolverRegistry::new();
        for s in crate::solvers::default_heuristics() {
            reg.register(s);
        }
        reg.register(Arc::new(crate::solvers::Exact::default()));
        reg
    }

    /// Registers (or replaces) a solver under its own name.
    pub fn register(&mut self, solver: Arc<dyn Solver>) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.name().eq_ignore_ascii_case(solver.name()))
        {
            *e = solver;
        } else {
            self.entries.push(solver);
        }
    }

    /// Resolves a name (case-insensitive). `refined:<name>` wraps the named
    /// solver in the hill-climbing refinement combinator.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Solver>> {
        let name = name.trim();
        if let Some(inner) = name
            .to_ascii_lowercase()
            .strip_prefix(REFINED_PREFIX)
            .map(str::to_owned)
        {
            let inner = self.get(&inner)?;
            return Some(Arc::new(crate::solvers::Refined::new(inner)));
        }
        self.entries
            .iter()
            .find(|e| e.name().eq_ignore_ascii_case(name))
            .cloned()
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name()).collect()
    }

    /// All registered solvers, in registration order.
    pub fn solvers(&self) -> Vec<Arc<dyn Solver>> {
        self.entries.clone()
    }

    /// Parses a comma-separated solver list (e.g. a CLI `--solvers`
    /// value) against the registry. Unknown names error with the list of
    /// known ones; an empty selection is an error too.
    pub fn parse_list(&self, csv: &str) -> Result<Vec<Arc<dyn Solver>>, String> {
        let mut out = Vec::new();
        for name in csv.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match self.get(name) {
                Some(s) => out.push(s),
                None => {
                    return Err(format!(
                        "unknown solver '{name}' (known: {}, plus refined:<name>)",
                        self.names().join(", ")
                    ))
                }
            }
        }
        if out.is_empty() {
            return Err("empty solver list".into());
        }
        Ok(out)
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        SolverRegistry::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip_and_case_insensitivity() {
        let reg = SolverRegistry::with_defaults();
        for name in reg.names() {
            let solver = reg.get(name).expect("registered name resolves");
            assert_eq!(solver.name(), name, "name -> solver -> name roundtrip");
        }
        assert_eq!(reg.get("dpa2d1d").unwrap().name(), "DPA2D1D");
        assert_eq!(reg.get("EXACT").unwrap().name(), "Exact");
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn refined_prefix_wraps() {
        let reg = SolverRegistry::with_defaults();
        let r = reg.get("refined:greedy").unwrap();
        assert_eq!(r.name(), "Refined(Greedy)");
        assert!(reg.get("refined:nope").is_none());
    }

    #[test]
    fn parse_list_reports_unknown_names() {
        let reg = SolverRegistry::with_defaults();
        let picked = reg.parse_list("greedy, DPA1D").unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[1].name(), "DPA1D");
        let Err(msg) = reg.parse_list("greedy,bogus") else {
            panic!("unknown name must error");
        };
        assert!(msg.contains("bogus"));
        assert!(reg.parse_list(" , ").is_err());
    }

    #[test]
    fn register_replaces_same_name() {
        let mut reg = SolverRegistry::with_defaults();
        let n = reg.names().len();
        reg.register(Arc::new(crate::solvers::Greedy { downgrade: false }));
        assert_eq!(reg.names().len(), n, "same-name registration replaces");
    }

    #[test]
    fn budget_expiry() {
        let ctx = SolveCtx::budgeted(0, Duration::from_secs(3600));
        assert!(!ctx.expired());
        assert!(ctx.check_budget().is_ok());
        let ctx = SolveCtx {
            seed: 0,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Default::default()
        };
        assert!(ctx.expired());
        assert!(matches!(ctx.check_budget(), Err(Failure::TooExpensive(_))));
    }
}
