//! Exhaustive exact solver — the stand-in for the paper's §4.4 integer
//! linear program.
//!
//! Enumerates every partition of the stages into at most `p·q` clusters
//! (restricted-growth assignment in topological order, pruned by per-cluster
//! work), filters to DAG-partitions (acyclic cluster quotient — or not, see
//! [`PartitionRule::General`], the paper's §7 future-work relaxation), then
//! enumerates every injective cluster→core placement and both XY route
//! orders, scoring each candidate with the shared evaluator.
//!
//! The paper could only run its CPLEX formulation up to `2 × 2` CMPs; this
//! solver covers the same scale (and a little more) and is used as the
//! ground-truth baseline in tests and in the `exact` experiments: no
//! heuristic may ever return less energy on instances the solver can close
//! (with XY routing, which is lossless on `2 × 2` grids where every simple
//! route is an XY route).

use cmp_mapping::{assign_min_speeds, is_dag_partition, Mapping, RouteSpec, REL_TOL};
use cmp_platform::{CoreId, Platform, RouteOrder, Topology};
use spg::{Spg, StageId};

use crate::common::{better, validated, Failure, Solution};

/// Which partitions are admissible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionRule {
    /// The paper's mapping rule (§3.3): acyclic cluster quotient.
    DagPartition,
    /// Arbitrary partitions (the paper's §7 "general mappings" future
    /// work); may find strictly better mappings on some instances.
    General,
}

/// Budgets and rules for the exact solver.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Refuse instances with more stages than this (Bell-number blow-up).
    pub max_stages: usize,
    /// Refuse placement enumerations larger than this.
    pub max_placements: u64,
    /// Partition admissibility rule.
    pub rule: PartitionRule,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_stages: 10,
            max_placements: 2_000_000,
            rule: PartitionRule::DagPartition,
        }
    }
}

/// Finds the minimum-energy valid mapping by exhaustive search.
#[doc(hidden)]
#[deprecated(
    since = "0.2.0",
    note = "use `ea_core::solvers::Exact` with an `Instance`"
)]
pub fn exact(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    cfg: &ExactConfig,
) -> Result<Solution, Failure> {
    exact_run(spg, pf, period, cfg, &spg.topo_order())
}

/// Exhaustive search over a caller-provided topological stage order (the
/// [`crate::solvers::Exact`] solver passes the instance's cached order).
pub(crate) fn exact_run(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    cfg: &ExactConfig,
    order: &[StageId],
) -> Result<Solution, Failure> {
    let n = spg.n();
    if n > cfg.max_stages {
        return Err(Failure::budget(
            crate::common::BudgetPhase::Search,
            cfg.max_stages,
            n,
        ));
    }
    debug_assert_eq!(order.len(), n);
    let r = pf.n_cores();
    let cap_work = period * pf.power.max_freq() * (1.0 + REL_TOL);

    // Route disciplines tried per placement: both XY orders (lossless on
    // the paper's 2x2 grids), plus wrap-aware shortest routes when the
    // topology actually has wrap links to exploit.
    let mut route_specs = vec![
        RouteSpec::Xy(RouteOrder::RowFirst),
        RouteSpec::Xy(RouteOrder::ColFirst),
    ];
    let topo = pf.topo();
    if topo.wrap_rows() || topo.wrap_cols() {
        route_specs.push(RouteSpec::Shortest);
    }

    let mut best: Option<Solution> = None;
    let mut assignment: Vec<usize> = vec![usize::MAX; n]; // stage -> block
    let mut block_work: Vec<f64> = Vec::new();
    enumerate_partitions(
        spg,
        order,
        0,
        &mut assignment,
        &mut block_work,
        r,
        cap_work,
        &mut |assignment, k| {
            try_partition(spg, pf, period, cfg, assignment, k, &route_specs, &mut best);
        },
    );
    best.ok_or_else(|| Failure::NoValidMapping("exhaustive search found no valid mapping".into()))
}

/// Restricted-growth enumeration of partitions in topological stage order.
#[allow(clippy::too_many_arguments)]
fn enumerate_partitions(
    spg: &Spg,
    order: &[StageId],
    i: usize,
    assignment: &mut Vec<usize>,
    block_work: &mut Vec<f64>,
    max_blocks: usize,
    cap_work: f64,
    leaf: &mut impl FnMut(&[usize], usize),
) {
    if i == order.len() {
        leaf(assignment, block_work.len());
        return;
    }
    let s = order[i];
    let w = spg.weight(s);
    // Existing blocks.
    for b in 0..block_work.len() {
        if block_work[b] + w > cap_work {
            continue;
        }
        assignment[s.idx()] = b;
        block_work[b] += w;
        enumerate_partitions(
            spg,
            order,
            i + 1,
            assignment,
            block_work,
            max_blocks,
            cap_work,
            leaf,
        );
        block_work[b] -= w;
    }
    // A fresh block (restricted growth: block ids appear in first-use order).
    if block_work.len() < max_blocks && w <= cap_work {
        assignment[s.idx()] = block_work.len();
        block_work.push(w);
        enumerate_partitions(
            spg,
            order,
            i + 1,
            assignment,
            block_work,
            max_blocks,
            cap_work,
            leaf,
        );
        block_work.pop();
    }
    assignment[s.idx()] = usize::MAX;
}

/// Evaluates one partition: placement × route-discipline search.
#[allow(clippy::too_many_arguments)]
fn try_partition(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    cfg: &ExactConfig,
    assignment: &[usize],
    k: usize,
    route_specs: &[RouteSpec],
    best: &mut Option<Solution>,
) {
    // Block-index pseudo-allocation for the quotient check.
    if cfg.rule == PartitionRule::DagPartition {
        let pseudo: Vec<CoreId> = assignment
            .iter()
            .map(|&b| CoreId { u: 0, v: b as u32 })
            .collect();
        if !is_dag_partition(spg, &pseudo) {
            return;
        }
    }
    // Count placements r·(r-1)·…·(r-k+1) up front.
    let cores: Vec<CoreId> = pf.alive_cores().collect();
    let r = cores.len();
    if k > r {
        return;
    }
    let mut count: u64 = 1;
    for j in 0..k {
        count = count.saturating_mul((r - j) as u64);
    }
    if count > cfg.max_placements {
        // Treated as a no-solution-from-this-partition rather than a global
        // failure: the caller limited max_stages so this is unreachable in
        // practice.
        return;
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut used = vec![false; r];
    place_blocks(
        spg,
        pf,
        period,
        assignment,
        k,
        &cores,
        route_specs,
        &mut chosen,
        &mut used,
        best,
    );
}

/// Recursive injective placement of blocks onto cores.
#[allow(clippy::too_many_arguments)]
fn place_blocks(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    assignment: &[usize],
    k: usize,
    cores: &[CoreId],
    route_specs: &[RouteSpec],
    chosen: &mut Vec<usize>,
    used: &mut Vec<bool>,
    best: &mut Option<Solution>,
) {
    if chosen.len() == k {
        let alloc: Vec<CoreId> = assignment.iter().map(|&b| cores[chosen[b]]).collect();
        let Some(speed) = assign_min_speeds(spg, pf, &alloc, period) else {
            return;
        };
        for spec in route_specs {
            let mapping = Mapping {
                alloc: alloc.clone(),
                speed: speed.clone(),
                routes: spec.clone(),
            };
            if let Ok(sol) = validated(spg, pf, mapping, period) {
                *best = better(best.take(), Some(sol));
            }
        }
        return;
    }
    for c in 0..cores.len() {
        if used[c] {
            continue;
        }
        used[c] = true;
        chosen.push(c);
        place_blocks(
            spg,
            pf,
            period,
            assignment,
            k,
            cores,
            route_specs,
            chosen,
            used,
            best,
        );
        chosen.pop();
        used[c] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpa1d::{dpa1d_run, Dpa1dConfig};
    use crate::instance::Instance;
    use spg::{chain, parallel};

    /// Non-deprecated local stand-in for the legacy free function (shadows
    /// the glob import), so the tests exercise `exact_run` directly.
    fn exact(
        spg: &Spg,
        pf: &Platform,
        period: f64,
        cfg: &ExactConfig,
    ) -> Result<Solution, Failure> {
        exact_run(spg, pf, period, cfg, &spg.topo_order())
    }

    #[test]
    fn single_stage_pair_on_one_core() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[1e6, 1e6], &[1e3]);
        let sol = exact(&g, &pf, 1.0, &ExactConfig::default()).unwrap();
        assert_eq!(sol.eval.active_cores, 1, "co-location avoids comm + leak");
        let expect = 0.08 + (2e6 / 0.15e9) * 0.08;
        assert!((sol.energy() - expect).abs() < 1e-9);
    }

    #[test]
    fn forced_split_picks_adjacent_cores() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[0.9e9, 0.9e9], &[1e6]);
        let sol = exact(&g, &pf, 1.0, &ExactConfig::default()).unwrap();
        assert_eq!(sol.eval.active_cores, 2);
        // Both stages on adjacent cores: exactly one link used.
        assert_eq!(sol.eval.link_loads.len(), 1);
    }

    #[test]
    fn exact_never_beaten_by_dpa1d_on_uniline() {
        // On a 1xq platform DPA1D is optimal (Theorem 1) among uni-line
        // mappings, and uni-line == the whole platform here, so the two must
        // agree.
        let pf = Platform::paper(1, 3);
        let g = chain(&[0.5e9, 0.4e9, 0.3e9, 0.2e9], &[1e5, 2e5, 3e5]);
        let t = 1.0;
        let ex = exact(&g, &pf, t, &ExactConfig::default()).unwrap();
        let inst = Instance::new(g.clone(), pf.clone(), t);
        let dp = dpa1d_run(&inst, &Dpa1dConfig::default()).unwrap();
        assert!(
            (ex.energy() - dp.energy()).abs() < 1e-9,
            "exact {} vs dpa1d {}",
            ex.energy(),
            dp.energy()
        );
    }

    #[test]
    fn general_rule_never_worse_than_dag_rule() {
        let pf = Platform::paper(2, 2);
        let g = parallel(
            &chain(&[0.5e9; 3], &[1e4; 2]),
            &chain(&[0.5e9; 3], &[1e4; 2]),
        );
        let t = 2.0;
        let dag = exact(&g, &pf, t, &ExactConfig::default()).unwrap();
        let gen = exact(
            &g,
            &pf,
            t,
            &ExactConfig {
                rule: PartitionRule::General,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(gen.energy() <= dag.energy() * (1.0 + 1e-12));
    }

    #[test]
    fn too_many_stages_rejected() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[1e5; 15], &[1e2; 14]);
        assert!(matches!(
            exact(&g, &pf, 1.0, &ExactConfig::default()),
            Err(Failure::TooExpensive(_))
        ));
    }

    #[test]
    fn infeasible_instance_fails() {
        let pf = Platform::paper(1, 1);
        let g = chain(&[0.9e9, 0.9e9], &[1.0]);
        assert!(matches!(
            exact(&g, &pf, 1.0, &ExactConfig::default()),
            Err(Failure::NoValidMapping(_))
        ));
    }

    #[test]
    fn two_partition_gadget_proposition_1() {
        // Proposition 1's reduction: fork-join, two single-speed cores,
        // period = S/2 achievable iff the weights 2-partition. Weights
        // {3,3,2,2,2}+source/sink of 0 cycles: S = 12, T = 6 cycles at 1 Hz.
        let branches: Vec<Spg> = [3.0, 3.0, 2.0, 2.0, 2.0]
            .iter()
            .map(|&w| chain(&[0.0, w, 0.0], &[0.0, 0.0]))
            .collect();
        let g = spg::parallel_many(&branches);
        let pf = Platform {
            power: cmp_platform::PowerModel::single(1.0, 1.0, 0.0),
            bw: 1e12,
            e_bit: 0.0,
            ..Platform::paper(1, 2)
        };
        // T = 6: solvable (3+3 | 2+2+2).
        let sol = exact(&g, &pf, 6.0, &ExactConfig::default()).unwrap();
        assert!(sol.eval.max_cycle_time <= 6.0 * (1.0 + 1e-9));
        // T = 5.9: no 2-partition fits.
        assert!(exact(&g, &pf, 5.9, &ExactConfig::default()).is_err());
    }

    use spg::Spg;
}
