//! Local-search refinement of a valid mapping (beyond the paper).
//!
//! The paper's conclusion asks for "an absolute measure of the quality of
//! the various heuristics"; besides the exact solver (tiny instances only),
//! a cheap hill-climb gives a *relative* measure at any scale: if a simple
//! stage-migration descent improves a heuristic's mapping substantially,
//! the heuristic left energy on the table.
//!
//! The move set is single-stage migration: move one stage to another core
//! (possibly an idle one — enrolling it — or emptying its old core —
//! turning it off), re-derive the slowest feasible speeds, re-validate with
//! the shared evaluator, and accept the best strictly-improving move per
//! stage (steepest-descent within a stage, first-to-converge across
//! passes). All DAG-partition/period checking is delegated to the
//! evaluator, so accepted mappings stay valid by construction.

use cmp_mapping::{assign_min_speeds, evaluate_with, Mapping};
use cmp_platform::{CoreId, Platform, RouteTable};
use spg::Spg;

use crate::common::Solution;

/// Refinement budget.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Maximum full passes over the stages.
    pub max_passes: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { max_passes: 4 }
    }
}

/// Hill-climbs from `start`; returns a solution at least as good (often the
/// same object when `start` is already locally optimal).
///
/// The descent evaluates every candidate migration, so it drives the
/// evaluator off a precomputed route table for `start`'s routing
/// discipline; callers holding a solver session should prefer
/// [`refine_with`] with the session's cached table instead of the local one
/// built here.
pub fn refine(
    spg: &Spg,
    pf: &Platform,
    start: &Solution,
    period: f64,
    cfg: &RefineConfig,
) -> Solution {
    let table = start
        .mapping
        .routes
        .policy()
        .map(|p| RouteTable::build(pf, p));
    refine_with(spg, pf, start, period, cfg, table.as_ref())
}

/// [`refine`] with a caller-provided precomputed route table (or `None` to
/// regenerate routes hop by hop); the `Refined` solver passes its
/// session's cached table.
pub fn refine_with(
    spg: &Spg,
    pf: &Platform,
    start: &Solution,
    period: f64,
    cfg: &RefineConfig,
    table: Option<&RouteTable>,
) -> Solution {
    let mut best = start.clone();
    let cores: Vec<CoreId> = pf.alive_cores().collect();
    for _pass in 0..cfg.max_passes {
        let mut improved = false;
        for s in spg.stages() {
            let current = best.mapping.alloc[s.idx()];
            let mut stage_best: Option<(f64, Mapping)> = None;
            for &cand in &cores {
                if cand == current {
                    continue;
                }
                let mut alloc = best.mapping.alloc.clone();
                alloc[s.idx()] = cand;
                let Some(speed) = assign_min_speeds(spg, pf, &alloc, period) else {
                    continue;
                };
                let mapping = Mapping {
                    alloc,
                    speed,
                    routes: best.mapping.routes.clone(),
                };
                let Ok(eval) = evaluate_with(spg, pf, &mapping, period, table) else {
                    continue;
                };
                if eval.energy < best.eval.energy * (1.0 - 1e-12)
                    && stage_best.as_ref().is_none_or(|(e, _)| eval.energy < *e)
                {
                    stage_best = Some((eval.energy, mapping));
                }
            }
            if let Some((_, mapping)) = stage_best {
                let eval = evaluate_with(spg, pf, &mapping, period, table).expect("just validated");
                // A refined mapping is a fresh full evaluation: any prune
                // telemetry of the starting solution no longer applies.
                best = Solution {
                    mapping,
                    eval,
                    prune: None,
                };
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::validated;
    use crate::instance::Instance;
    use crate::random::random_trials;
    use cmp_mapping::{evaluate, RouteSpec};
    use cmp_platform::RouteOrder;
    use spg::chain;

    #[test]
    fn refine_never_worsens() {
        let pf = Platform::paper(3, 3);
        let g = chain(&[2e8; 8], &[1e5; 7]);
        let t = 0.4;
        let start = random_trials(&Instance::new(g.clone(), pf.clone(), t), 3, 10).unwrap();
        let refined = refine(&g, &pf, &start, t, &RefineConfig::default());
        assert!(refined.energy() <= start.energy() * (1.0 + 1e-12));
        // Result still validates.
        assert!(evaluate(&g, &pf, &refined.mapping, t).is_ok());
    }

    #[test]
    fn refine_consolidates_scattered_mapping() {
        // A deliberately wasteful mapping: 4 light stages on 4 cores. The
        // descent should pack them onto fewer cores (saving leakage).
        let pf = Platform::paper(2, 2);
        let g = chain(&[1e6; 4], &[1e2; 3]);
        let t = 1.0;
        let alloc: Vec<CoreId> = g
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, _)| CoreId {
                u: (i / 2) as u32,
                v: (i % 2) as u32,
            })
            .collect();
        // Reorder alloc to stage-id indexing.
        let mut by_stage = vec![CoreId { u: 0, v: 0 }; g.n()];
        for (i, s) in g.topo_order().iter().enumerate() {
            by_stage[s.idx()] = alloc[i];
        }
        let speed = assign_min_speeds(&g, &pf, &by_stage, t).unwrap();
        let start = validated(
            &g,
            &pf,
            Mapping {
                alloc: by_stage,
                speed,
                routes: RouteSpec::Xy(RouteOrder::RowFirst),
            },
            t,
        )
        .unwrap();
        assert_eq!(start.eval.active_cores, 4);
        let refined = refine(&g, &pf, &start, t, &RefineConfig::default());
        assert_eq!(
            refined.eval.active_cores, 1,
            "should pack onto one slow core"
        );
        assert!(refined.energy() < start.energy());
    }

    #[test]
    fn locally_optimal_input_unchanged() {
        let pf = Platform::paper(1, 1);
        let g = chain(&[1e6, 1e6], &[1e2]);
        let t = 1.0;
        let alloc = vec![CoreId { u: 0, v: 0 }; 2];
        let speed = assign_min_speeds(&g, &pf, &alloc, t).unwrap();
        let start = validated(
            &g,
            &pf,
            Mapping {
                alloc,
                speed,
                routes: RouteSpec::Xy(RouteOrder::RowFirst),
            },
            t,
        )
        .unwrap();
        let refined = refine(&g, &pf, &start, t, &RefineConfig::default());
        assert_eq!(refined.energy(), start.energy());
    }
}
