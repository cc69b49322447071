//! Shared heuristic interface: solutions, failures, and small helpers used
//! by several algorithms.

use cmp_mapping::{evaluate_with, Evaluation, Mapping};
use cmp_platform::{Platform, RouteTable};
use spg::Spg;

/// The five heuristics of paper §5, in the order plotted in Figures 8–13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// §5.1 — random DAG-partition and placement, best of ten draws.
    Random,
    /// §5.2 — greedy wavefront growth, one pass per speed, downgrade.
    Greedy,
    /// §5.3 — two-dimensional nested dynamic program.
    Dpa2d,
    /// §5.4 — optimal uni-directional uni-line DP on the snake.
    Dpa1d,
    /// §5.4 — `DPA2D` on a virtual `1 × pq` CMP, mapped along the snake.
    Dpa2d1d,
}

/// All five heuristics, in plot order.
pub const ALL_HEURISTICS: [HeuristicKind; 5] = [
    HeuristicKind::Random,
    HeuristicKind::Greedy,
    HeuristicKind::Dpa2d,
    HeuristicKind::Dpa1d,
    HeuristicKind::Dpa2d1d,
];

impl HeuristicKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Random => "Random",
            HeuristicKind::Greedy => "Greedy",
            HeuristicKind::Dpa2d => "DPA2D",
            HeuristicKind::Dpa1d => "DPA1D",
            HeuristicKind::Dpa2d1d => "DPA2D1D",
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// State-reduction telemetry of a `DPA1D` solve (see the
/// [`crate::dpa1d`] module docs): how much of the admitted transition
/// system the dominance frontier actually relaxed, and — when
/// [`crate::Dpa1dConfig::frontier_cap`] truncated an exact frontier — the
/// certified energy bound gap the returned solution carries instead of a
/// `TooExpensive` failure. Campaign JSONL rows and the serve daemon's
/// `stats` response surface these fields verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneStats {
    /// Admitted transitions the relaxation scanned.
    pub transitions_kept: u64,
    /// Admitted transitions skipped because every DP state of their source
    /// ideal was dominance-pruned before its out-edges were scanned.
    pub transitions_pruned: u64,
    /// Largest per-ideal energy frontier observed (the strictly-improving
    /// prefix-minima staircase over cluster counts within one ideal's DP
    /// row).
    pub frontier_max: u32,
    /// Certified optimality gap: the true optimum is no more than
    /// `bound_gap` below the returned energy. Non-zero only when
    /// `frontier_cap` truncated an exact frontier (the truncated states'
    /// completions are lower-bounded, not searched); `0.0` means the solve
    /// is exact modulo dominance.
    pub bound_gap: f64,
}

/// A validated mapping together with its evaluation.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The mapping (allocation, speeds, routes).
    pub mapping: Mapping,
    /// Its validated evaluation at the requested period.
    pub eval: Evaluation,
    /// `DPA1D` state-reduction telemetry (`None` for every other
    /// solver).
    pub prune: Option<PruneStats>,
}

impl Solution {
    /// Total energy, the optimization objective.
    #[inline]
    pub fn energy(&self) -> f64 {
        self.eval.energy
    }

    /// The certified energy bound gap, when this solution was produced by
    /// a frontier-truncated `DPA1D` solve (see [`PruneStats::bound_gap`]);
    /// `0.0` for exact solutions.
    #[inline]
    pub fn bound_gap(&self) -> f64 {
        self.prune.map_or(0.0, |p| p.bound_gap)
    }
}

/// Which phase of a solve exhausted its complexity budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetPhase {
    /// Order-ideal lattice enumeration (`DPA1D`'s ideal cap).
    Enumerate,
    /// Cluster-transition materialisation (`DPA1D`'s edge cap).
    Materialise,
    /// An exhaustive search-space bound (the exact solver's stage limit).
    Search,
    /// A wall-clock deadline ([`crate::SolveCtx`]).
    Deadline,
}

impl BudgetPhase {
    /// Stable lower-case name (campaign JSONL field values).
    pub fn name(self) -> &'static str {
        match self {
            BudgetPhase::Enumerate => "enumerate",
            BudgetPhase::Materialise => "materialise",
            BudgetPhase::Search => "search",
            BudgetPhase::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for BudgetPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured budget-exhaustion telemetry: which phase aborted, the cap it
/// ran under, and the count observed at abort. Campaign JSONL records the
/// three fields verbatim, which is what makes the paper's elevation-vs-cost
/// wall (§6.2.1) plottable straight from nightly runs — a string payload
/// could only be grepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The phase that aborted.
    pub phase: BudgetPhase,
    /// The configured cap (ideals, transitions, or stages; 0 for
    /// wall-clock deadlines, which have no count-shaped cap).
    pub cap: u64,
    /// The count at abort (for [`BudgetPhase::Enumerate`] a lower bound on
    /// the true lattice size; 0 for deadlines).
    pub count: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.phase {
            BudgetPhase::Enumerate => {
                write!(f, "ideal lattice exceeds the cap of {} ideals", self.cap)
            }
            BudgetPhase::Materialise => {
                write!(f, "more than {} cluster transitions", self.cap)
            }
            BudgetPhase::Search => write!(
                f,
                "{} stages exceed the exact solver's limit of {}",
                self.count, self.cap
            ),
            BudgetPhase::Deadline => f.write_str("wall-clock budget exhausted"),
        }
    }
}

/// Why a heuristic produced no mapping. Both variants count as "failures"
/// in the paper's Tables 2 and 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The search completed but found no valid mapping for this period.
    NoValidMapping(String),
    /// The search exceeded its complexity budget (e.g. `DPA1D`'s ideal
    /// lattice explosion on high-elevation graphs, paper §6.2.1), with
    /// structured phase/cap/count telemetry.
    TooExpensive(BudgetExceeded),
}

impl Failure {
    /// Shorthand [`Failure::TooExpensive`] constructor.
    pub fn budget(phase: BudgetPhase, cap: usize, count: usize) -> Failure {
        Failure::TooExpensive(BudgetExceeded {
            phase,
            cap: cap as u64,
            count: count as u64,
        })
    }

    /// The structured budget telemetry, when this is a budget failure.
    pub fn budget_exceeded(&self) -> Option<&BudgetExceeded> {
        match self {
            Failure::TooExpensive(b) => Some(b),
            Failure::NoValidMapping(_) => None,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::NoValidMapping(why) => write!(f, "no valid mapping: {why}"),
            Failure::TooExpensive(why) => write!(f, "budget exceeded: {why}"),
        }
    }
}

impl std::error::Error for Failure {}

/// Validates a candidate mapping and wraps it into a [`Solution`].
pub fn validated(
    spg: &Spg,
    pf: &Platform,
    mapping: Mapping,
    period: f64,
) -> Result<Solution, Failure> {
    validated_with(spg, pf, mapping, period, None)
}

/// [`validated`] with an optional precomputed route table (see
/// [`cmp_mapping::evaluate_with`]); solvers pass their session's cached
/// table so re-validation walks packed link-index spans.
pub fn validated_with(
    spg: &Spg,
    pf: &Platform,
    mapping: Mapping,
    period: f64,
    table: Option<&RouteTable>,
) -> Result<Solution, Failure> {
    match evaluate_with(spg, pf, &mapping, period, table) {
        Ok(eval) => Ok(Solution {
            mapping,
            eval,
            prune: None,
        }),
        Err(e) => Err(Failure::NoValidMapping(e.to_string())),
    }
}

/// Keeps the lower-energy of two optional solutions.
pub fn better(a: Option<Solution>, b: Option<Solution>) -> Option<Solution> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.energy() <= y.energy() { x } else { y }),
        (Some(x), None) => Some(x),
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_mapping::assign_min_speeds;
    use cmp_platform::CoreId;
    use spg::chain;

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = ALL_HEURISTICS.iter().map(|h| h.name()).collect();
        assert_eq!(names, vec!["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"]);
    }

    #[test]
    fn validated_accepts_good_and_rejects_bad() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[1e6, 1e6], &[10.0]);
        let mut m = Mapping::all_on(&pf, 2, CoreId { u: 0, v: 0 });
        m.speed = assign_min_speeds(&g, &pf, &m.alloc, 1.0).unwrap();
        assert!(validated(&g, &pf, m.clone(), 1.0).is_ok());
        // Far too tight a period.
        assert!(matches!(
            validated(&g, &pf, m, 1e-9),
            Err(Failure::NoValidMapping(_))
        ));
    }

    #[test]
    fn better_picks_lower_energy() {
        let pf = Platform::paper(1, 1);
        let g = chain(&[1e6, 1e6], &[0.0]);
        let mut m = Mapping::all_on(&pf, 2, CoreId { u: 0, v: 0 });
        m.speed = vec![Some(0)];
        let slow = validated(&g, &pf, m.clone(), 1.0).unwrap();
        m.speed = vec![Some(4)];
        let fast = validated(&g, &pf, m, 1.0).unwrap();
        assert!(slow.energy() < fast.energy());
        let picked = better(Some(fast), Some(slow.clone())).unwrap();
        assert_eq!(picked.energy(), slow.energy());
        assert!(better(None::<Solution>, None).is_none());
    }
}
