//! Random-SPG experiments: Figures 10–13 and Table 3 (paper §6.2.2).
//!
//! For each CCR in `{10, 1, 0.1}` and each elevation value, `apps_per_point`
//! random SPGs of exactly `n` stages are generated; each gets its own probed
//! period, then the solver portfolio runs. The figures plot, per solver,
//! the mean of `E_best / E_h` (the paper's "inverse of the energy …
//! normalized to the minimum value …, so that the best heuristic returns 1
//! and the other ones return smaller values"); a failed run contributes 0 —
//! which is what makes `DPA1D`'s curve collapse past elevation ≈ 4 in the
//! paper. Table 3 counts raw failures from the same campaign.

use std::sync::Arc;

use cmp_platform::{Platform, RoutePolicy, TopologyKind};
use ea_core::{Instance, Portfolio, Solver};
use rayon::prelude::*;
use spg::{random_spg, SpgGenConfig};

use crate::probe::probe_instance;
use crate::report::fmt_table;

/// Configuration of one random campaign (one of Figures 10–13).
#[derive(Debug, Clone)]
pub struct RandomXpConfig {
    /// Number of stages per SPG (50 or 150 in the paper).
    pub n: usize,
    /// Grid rows.
    pub p: u32,
    /// Grid columns.
    pub q: u32,
    /// Elevations swept (x-axis).
    pub elevations: Vec<u32>,
    /// CCR values (one sub-figure each; the paper uses 10, 1, 0.1).
    pub ccrs: Vec<f64>,
    /// Random applications per (ccr, elevation) point (paper: 100).
    pub apps_per_point: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Interconnect backend (the paper's figures use the mesh).
    pub topology: TopologyKind,
    /// Routing-policy override (`None` = the topology's default).
    pub routing: Option<RoutePolicy>,
}

impl RandomXpConfig {
    /// The paper's configuration for a figure: elevations `1..=20` for
    /// `n = 50`, `1..=30` for `n = 150`, on the mesh.
    pub fn paper(n: usize, p: u32, q: u32, apps_per_point: usize, seed: u64) -> Self {
        let max_elev = if n >= 150 { 30 } else { 20 };
        RandomXpConfig {
            n,
            p,
            q,
            elevations: (1..=max_elev).collect(),
            ccrs: vec![10.0, 1.0, 0.1],
            apps_per_point,
            seed,
            topology: TopologyKind::Mesh,
            routing: None,
        }
    }

    /// The configured platform: the paper's electrical parameters on this
    /// campaign's topology/routing backend.
    pub fn platform(&self) -> Platform {
        crate::topology_xp::make_platform(self.topology, self.p, self.q, self.routing)
    }
}

/// Aggregated statistics of one (ccr, elevation) point.
#[derive(Debug, Clone)]
pub struct PointStats {
    /// Mean of `E_best / E_h` per solver (0 contribution on failure).
    pub mean_inv_norm: Vec<f64>,
    /// Failure count per solver.
    pub failures: Vec<usize>,
    /// Number of instances at this point.
    pub instances: usize,
}

/// Results of one campaign: `points[ccr_index][elevation_index]`.
#[derive(Debug, Clone)]
pub struct RandomXpData {
    /// The configuration that produced this data.
    pub cfg: RandomXpConfig,
    /// Solver display names, in portfolio order (column headers).
    pub names: Vec<String>,
    /// Per-CCR, per-elevation aggregated stats.
    pub points: Vec<Vec<PointStats>>,
}

/// Runs one campaign with the given solver portfolio.
pub fn random_campaign(cfg: &RandomXpConfig, solvers: &[Arc<dyn Solver>]) -> RandomXpData {
    let pf = Arc::new(cfg.platform());
    let points: Vec<Vec<PointStats>> = cfg
        .ccrs
        .iter()
        .enumerate()
        .map(|(ci, &ccr)| {
            cfg.elevations
                .iter()
                .enumerate()
                .map(|(ei, &elev)| {
                    let results: Vec<Vec<Option<f64>>> = (0..cfg.apps_per_point)
                        .into_par_iter()
                        .map(|app| {
                            let seed = instance_seed(cfg.seed, ci, ei, app);
                            run_instance(cfg, &pf, ccr, elev, seed, solvers)
                        })
                        .collect();
                    aggregate(&results, solvers.len())
                })
                .collect()
        })
        .collect();
    RandomXpData {
        cfg: cfg.clone(),
        names: Portfolio::new(solvers.to_vec()).solver_names(),
        points,
    }
}

/// Deterministic per-instance seed.
fn instance_seed(base: u64, ci: usize, ei: usize, app: usize) -> u64 {
    base ^ (ci as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((ei as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((app as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// One instance: generate, probe, run. Returns per-solver energies
/// (`None` = failure; all-`None` when even the probe fails).
fn run_instance(
    cfg: &RandomXpConfig,
    pf: &Arc<Platform>,
    ccr: f64,
    elevation: u32,
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> Vec<Option<f64>> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let gen_cfg = SpgGenConfig {
        n: cfg.n,
        elevation,
        ccr: Some(ccr),
        ..Default::default()
    };
    let g = random_spg(&gen_cfg, &mut rng);
    let base = Instance::from_shared(Arc::new(g), Arc::clone(pf), 1.0);
    match probe_instance(&base, seed) {
        Some(inst) => Portfolio::new(solvers.to_vec())
            .seeded(seed)
            .run(&inst)
            .runs
            .iter()
            .map(|o| o.energy())
            .collect(),
        None => vec![None; solvers.len()],
    }
}

fn aggregate(results: &[Vec<Option<f64>>], h: usize) -> PointStats {
    let mut sum_inv = vec![0.0f64; h];
    let mut failures = vec![0usize; h];
    for energies in results {
        let best = energies
            .iter()
            .flatten()
            .copied()
            .min_by(|a, b| a.total_cmp(b));
        for (k, e) in energies.iter().enumerate() {
            match (e, best) {
                (Some(e), Some(b)) => sum_inv[k] += b / e,
                _ => failures[k] += 1,
            }
        }
    }
    let n = results.len().max(1) as f64;
    PointStats {
        mean_inv_norm: sum_inv.iter().map(|s| s / n).collect(),
        failures,
        instances: results.len(),
    }
}

/// Figure text: one block per CCR, rows = elevation, columns = solvers.
pub fn figure_text(data: &RandomXpData, title: &str) -> String {
    let mut out = String::new();
    for (ci, &ccr) in data.cfg.ccrs.iter().enumerate() {
        let rows: Vec<Vec<String>> = data
            .cfg
            .elevations
            .iter()
            .enumerate()
            .map(|(ei, &elev)| {
                let p = &data.points[ci][ei];
                let mut row = vec![elev.to_string()];
                row.extend(p.mean_inv_norm.iter().map(|v| format!("{v:.3}")));
                row
            })
            .collect();
        let headers: Vec<&str> = ["elev"]
            .into_iter()
            .chain(data.names.iter().map(String::as_str))
            .collect();
        out.push_str(&fmt_table(
            &format!(
                "{title} — CCR = {ccr} (mean 1/E normalised, {} apps/point)",
                data.cfg.apps_per_point
            ),
            &headers,
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Table 3 text: failure counts per solver per CCR, summed over all
/// elevations of the campaign.
pub fn table3_text(data: &RandomXpData) -> String {
    let headers: Vec<&str> = ["CCR"]
        .into_iter()
        .chain(data.names.iter().map(String::as_str))
        .collect();
    let total: usize = data.points[0].iter().map(|p| p.instances).sum();
    let rows: Vec<Vec<String>> = data
        .cfg
        .ccrs
        .iter()
        .enumerate()
        .map(|(ci, &ccr)| {
            let mut fails = vec![0usize; data.names.len()];
            for p in &data.points[ci] {
                for (k, f) in p.failures.iter().enumerate() {
                    fails[k] += f;
                }
            }
            let mut row = vec![format!("{ccr}")];
            row.extend(fails.iter().map(|f| f.to_string()));
            row
        })
        .collect();
    fmt_table(
        &format!("Table 3: Number of failures (out of {total} instances per CCR)"),
        &headers,
        &rows,
    )
}

/// CSV rows: one per (ccr, elevation, solver).
pub fn csv_rows(data: &RandomXpData) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (ci, &ccr) in data.cfg.ccrs.iter().enumerate() {
        for (ei, &elev) in data.cfg.elevations.iter().enumerate() {
            let p = &data.points[ci][ei];
            for (k, h) in data.names.iter().enumerate() {
                rows.push(vec![
                    format!("{ccr}"),
                    elev.to_string(),
                    h.clone(),
                    format!("{:.5}", p.mean_inv_norm[k]),
                    p.failures[k].to_string(),
                    p.instances.to_string(),
                ]);
            }
        }
    }
    rows
}

/// CSV header matching [`csv_rows`].
pub const CSV_HEADERS: [&str; 6] = [
    "ccr",
    "elevation",
    "heuristic",
    "mean_inv_norm",
    "failures",
    "instances",
];
