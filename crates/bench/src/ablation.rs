//! Ablation studies for the design choices called out in DESIGN.md §9.
//!
//! * **Routing order** — the paper's §5.1 XY description is ambiguous; this
//!   quantifies row-first vs column-first XY on `Random`'s mappings.
//! * **Speed downgrade** — `Greedy`'s §5.2 post-pass ("downgrading the
//!   speed of each core, if possible … cores which are not used are turned
//!   off").
//! * **Link energy `E_bit`** — the paper fixes 6 pJ/bit inside the
//!   published 1–10 pJ range \[9\]; this sweeps the range and reports how the
//!   heuristic ranking responds (a hook for the paper's communication-power
//!   future work).

use cmp_mapping::{assign_optimal_speeds, evaluate, RouteSpec};
use cmp_platform::{Platform, RouteOrder};
use ea_core::solvers::{Greedy, Random};
use ea_core::{refine, Instance, Portfolio, RefineConfig, SolveCtx, Solver};
use rayon::prelude::*;
use spg::{random_spg, SpgGenConfig};

use std::sync::Arc;

use crate::probe::probe_instance;
use crate::report::fmt_table;

fn instances(count: usize, seed: u64) -> Vec<(spg::Spg, u64)> {
    use rand::{Rng, SeedableRng};
    (0..count)
        .map(|i| {
            let s = seed.wrapping_add(i as u64 * 6007);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s);
            let cfg = SpgGenConfig {
                n: 40,
                elevation: rng.gen_range(2..=8),
                ccr: Some([10.0, 1.0, 0.1][i % 3]),
                ..Default::default()
            };
            (random_spg(&cfg, &mut rng), s)
        })
        .collect()
}

/// Builds and probes a session for one ablation workload.
fn probed(g: &spg::Spg, pf: &Platform, seed: u64) -> Option<Instance> {
    probe_instance(&Instance::new(g.clone(), pf.clone(), 1.0), seed)
}

/// Routing ablation: re-evaluate `Random`'s mappings under the transposed
/// XY order.
pub fn routing_text(count: usize, seed: u64) -> String {
    let pf = Platform::paper(4, 4);
    let rows: Vec<Vec<String>> = instances(count, seed)
        .par_iter()
        .enumerate()
        .filter_map(|(i, (g, s))| {
            let inst = probed(g, &pf, *s)?;
            let sol = Random::default().solve(&inst, &SolveCtx::new(*s)).ok()?;
            let row_first = sol.energy();
            let mut m = sol.mapping.clone();
            m.routes = RouteSpec::Xy(RouteOrder::ColFirst);
            let col_first = evaluate(g, &pf, &m, inst.period());
            Some(vec![
                i.to_string(),
                format!("{:.3e}", row_first),
                match &col_first {
                    Ok(e) => format!("{:.3e}", e.energy),
                    Err(_) => "invalid".into(),
                },
                match &col_first {
                    Ok(e) => format!("{:+.2}%", (e.energy / row_first - 1.0) * 100.0),
                    Err(_) => "-".into(),
                },
            ])
        })
        .collect();
    fmt_table(
        "Ablation: XY route order on Random's mappings (row-first vs col-first)",
        &["#", "E(row-first)", "E(col-first)", "delta"],
        &rows,
    )
}

/// Downgrade ablation: `Greedy` with and without the §5.2 speed-downgrade
/// post-pass.
pub fn downgrade_text(count: usize, seed: u64) -> String {
    let pf = Platform::paper(4, 4);
    let rows: Vec<Vec<String>> = instances(count, seed)
        .par_iter()
        .enumerate()
        .filter_map(|(i, (g, s))| {
            let inst = probed(g, &pf, *s)?;
            let ctx = SolveCtx::default();
            let with = Greedy { downgrade: true }.solve(&inst, &ctx).ok()?;
            let without = Greedy { downgrade: false }.solve(&inst, &ctx).ok()?;
            Some(vec![
                i.to_string(),
                format!("{:.3e}", with.energy()),
                format!("{:.3e}", without.energy()),
                format!("{:.2}x", without.energy() / with.energy()),
            ])
        })
        .collect();
    fmt_table(
        "Ablation: Greedy speed-downgrade post-pass (paper §5.2)",
        &["#", "E(downgrade)", "E(uniform)", "saving"],
        &rows,
    )
}

/// Speed-rule ablation: the paper's slowest-feasible speed rule vs the
/// energy-optimal rule (argmin `P(s)/s`). They differ because the XScale
/// table's `P(s)/s` is not monotone (0.4 GHz is cheaper per cycle than
/// 0.15 GHz).
pub fn speedrule_text(count: usize, seed: u64) -> String {
    let pf = Platform::paper(4, 4);
    let rows: Vec<Vec<String>> = instances(count, seed)
        .par_iter()
        .enumerate()
        .filter_map(|(i, (g, s))| {
            let inst = probed(g, &pf, *s)?;
            let t = inst.period();
            let sol = Greedy::default().solve(&inst, &SolveCtx::new(*s)).ok()?;
            let paper_rule = sol.energy();
            let speeds = assign_optimal_speeds(g, &pf, &sol.mapping.alloc, t)?;
            let mut m = sol.mapping.clone();
            m.speed = speeds;
            let optimal_rule = evaluate(g, &pf, &m, t).ok()?.energy;
            Some(vec![
                i.to_string(),
                format!("{:.4e}", paper_rule),
                format!("{:.4e}", optimal_rule),
                format!("{:+.2}%", (optimal_rule / paper_rule - 1.0) * 100.0),
            ])
        })
        .collect();
    fmt_table(
        "Ablation: slowest-feasible (paper) vs energy-optimal speed rule, on Greedy's allocations",
        &["#", "E(min-speed)", "E(opt-speed)", "delta"],
        &rows,
    )
}

/// Refinement headroom: how much a stage-migration hill-climb improves
/// each solver's mapping (a relative quality measure at scales the
/// exact solver cannot reach).
pub fn refine_text(count: usize, seed: u64, solvers: &[Arc<dyn Solver>]) -> String {
    let pf = Platform::paper(4, 4);
    let mut rows = Vec::new();
    for solver in solvers {
        let gains: Vec<f64> = instances(count, seed)
            .par_iter()
            .filter_map(|(g, s)| {
                let inst = probed(g, &pf, *s)?;
                let sol = solver.solve(&inst, &SolveCtx::new(*s)).ok()?;
                let refined = refine(g, &pf, &sol, inst.period(), &RefineConfig::default());
                Some(1.0 - refined.energy() / sol.energy())
            })
            .collect();
        let mean = if gains.is_empty() {
            f64::NAN
        } else {
            gains.iter().sum::<f64>() / gains.len() as f64
        };
        let max = gains.iter().copied().fold(0.0f64, f64::max);
        rows.push(vec![
            solver.name().to_string(),
            gains.len().to_string(),
            if mean.is_nan() {
                "-".into()
            } else {
                format!("{:.2}%", mean * 100.0)
            },
            format!("{:.2}%", max * 100.0),
        ]);
    }
    fmt_table(
        "Ablation: local-search headroom left by each heuristic (energy saved by hill-climb)",
        &["heuristic", "instances", "mean saving", "max saving"],
        &rows,
    )
}

/// `E_bit` sweep: mean normalised energy per solver at 1 / 6 / 10 pJ.
pub fn ebit_text(count: usize, seed: u64, solvers: &[Arc<dyn Solver>]) -> String {
    let h = solvers.len();
    let mut rows = Vec::new();
    for ebit_pj in [1.0, 6.0, 10.0] {
        let mut pf = Platform::paper(4, 4);
        pf.e_bit = ebit_pj * 1e-12;
        let sums: Vec<(Vec<f64>, Vec<usize>)> = instances(count, seed)
            .par_iter()
            .filter_map(|(g, s)| {
                let inst = probed(g, &pf, *s)?;
                let report = Portfolio::new(solvers.to_vec()).seeded(*s).run(&inst);
                let best = report.best_energy()?;
                let mut norm = vec![0.0; h];
                let mut ok = vec![0usize; h];
                for (k, o) in report.runs.iter().enumerate() {
                    if let Some(e) = o.energy() {
                        norm[k] = e / best;
                        ok[k] = 1;
                    }
                }
                Some((norm, ok))
            })
            .collect();
        let mut row = vec![format!("{ebit_pj} pJ")];
        for k in 0..h {
            let (sum, cnt) = sums
                .iter()
                .fold((0.0, 0usize), |(s, c), (norm, ok)| (s + norm[k], c + ok[k]));
            row.push(if cnt == 0 {
                "-".into()
            } else {
                format!("{:.3}", sum / cnt as f64)
            });
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("E_bit".to_string())
        .chain(solvers.iter().map(|s| s.name().to_string()))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    fmt_table(
        "Ablation: link energy sweep (mean normalised energy over successes)",
        &headers,
        &rows,
    )
}
