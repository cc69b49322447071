//! Exact-vs-heuristics comparison on a 2×2 CMP (paper §4.4).
//!
//! The paper reports that its CPLEX formulation "was unable to obtain
//! results on a platform larger than a 2×2 CMP"; this experiment runs our
//! exhaustive solver at that same scale and reports each heuristic's energy
//! as a ratio to the optimum, giving the "absolute measure of the quality
//! of the various heuristics" the paper asks for in its conclusion.

use std::sync::Arc;

use cmp_platform::Platform;
use ea_core::solvers::Exact;
use ea_core::{Instance, Portfolio, SolveCtx, Solver};
use rayon::prelude::*;
use spg::{random_spg, SpgGenConfig};

use crate::probe::probe_instance;
use crate::report::{fmt_norm, fmt_table};

/// One instance's optimal energy and per-solver ratios to it.
#[derive(Debug, Clone)]
pub struct ExactInstance {
    /// Instance index.
    pub idx: usize,
    /// Stage count.
    pub n: usize,
    /// Elevation.
    pub elevation: u32,
    /// Probed period.
    pub period: f64,
    /// Optimal energy from the exhaustive solver.
    pub optimal: f64,
    /// Per-solver `E_h / E_opt` (portfolio order), `None` on failure.
    pub ratios: Vec<Option<f64>>,
}

/// The campaign results plus the solver names (table headers).
#[derive(Debug, Clone)]
pub struct ExactCampaign {
    /// Solver display names, in portfolio order.
    pub names: Vec<String>,
    /// Instances the exact solver could close.
    pub instances: Vec<ExactInstance>,
}

/// Runs the comparison: `count` random SPGs of 6–9 stages on a 2×2 CMP.
pub fn exact_campaign(count: usize, seed: u64, solvers: &[Arc<dyn Solver>]) -> ExactCampaign {
    let pf = Arc::new(Platform::paper(2, 2));
    let exact = Exact::default();
    let portfolio = Portfolio::new(solvers.to_vec()).seeded(seed);
    let instances = (0..count)
        .into_par_iter()
        .filter_map(|idx| {
            use rand::{Rng, SeedableRng};
            let mut rng =
                rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_add(idx as u64 * 7919));
            let n = rng.gen_range(6..=9);
            let elevation = rng.gen_range(1..=3u32);
            let cfg = SpgGenConfig {
                n,
                elevation,
                ccr: Some([10.0, 1.0, 0.1][idx % 3]),
                ..Default::default()
            };
            let g = random_spg(&cfg, &mut rng);
            let base = Instance::from_shared(Arc::new(g), Arc::clone(&pf), 1.0);
            let inst = probe_instance(&base, seed)?;
            let opt = exact.solve(&inst, &SolveCtx::new(seed)).ok()?;
            let ratios = portfolio
                .run(&inst)
                .runs
                .iter()
                .map(|o| o.energy().map(|e| e / opt.energy()))
                .collect();
            Some(ExactInstance {
                idx,
                n,
                elevation,
                period: inst.period(),
                optimal: opt.energy(),
                ratios,
            })
        })
        .collect();
    ExactCampaign {
        names: portfolio.solver_names(),
        instances,
    }
}

/// Text report: one row per instance plus a mean row.
pub fn exact_text(campaign: &ExactCampaign) -> String {
    let headers: Vec<&str> = ["#", "n", "ymax", "T(s)", "E_opt(J)"]
        .into_iter()
        .chain(campaign.names.iter().map(String::as_str))
        .collect();
    let mut rows: Vec<Vec<String>> = campaign
        .instances
        .iter()
        .map(|i| {
            let mut row = vec![
                i.idx.to_string(),
                i.n.to_string(),
                i.elevation.to_string(),
                format!("{:.0e}", i.period),
                format!("{:.3e}", i.optimal),
            ];
            row.extend(i.ratios.iter().map(|r| fmt_norm(*r)));
            row
        })
        .collect();
    // Mean ratio over successes per solver.
    let mut mean = vec!["mean".into(), "".into(), "".into(), "".into(), "".into()];
    for k in 0..campaign.names.len() {
        let vals: Vec<f64> = campaign
            .instances
            .iter()
            .filter_map(|i| i.ratios[k])
            .collect();
        mean.push(if vals.is_empty() {
            "-".into()
        } else {
            format!("{:.3}", vals.iter().sum::<f64>() / vals.len() as f64)
        });
    }
    rows.push(mean);
    fmt_table(
        "Exact (ILP substitute) vs heuristics on a 2x2 CMP — E_h / E_opt",
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::solvers::default_heuristics;

    #[test]
    fn no_heuristic_beats_exact() {
        let campaign = exact_campaign(6, 2011, &default_heuristics());
        assert!(!campaign.instances.is_empty());
        for i in &campaign.instances {
            for r in i.ratios.iter().flatten() {
                assert!(
                    *r >= 1.0 - 1e-9,
                    "heuristic beat the exact solver: ratio {r} on instance {}",
                    i.idx
                );
            }
        }
    }
}
