//! StreamIt experiments: Table 1, Figures 8–9, Table 2 (paper §6.2.1).
//!
//! For each of the 12 workflows and each CCR variant (original, 10, 1, 0.1)
//! the harness probes the period bound (§6.1.3) and runs the solver
//! portfolio. Figures 8 and 9 report per-solver energy normalised by
//! the best solver on each instance (best = 1.000, larger is worse,
//! `fail` where a solver finds no mapping); Table 2 counts failures over
//! the 48 instances of each grid size.
//!
//! Probe and portfolio share one [`Instance`] per (workflow, CCR) pair, so
//! `DPA1D`'s interned ideal lattice is enumerated once per instance across
//! the whole decade sweep and the final portfolio run.

use std::sync::Arc;

use cmp_platform::Platform;
use ea_core::{Instance, Portfolio, PortfolioReport, Solver};
use rayon::prelude::*;
use spg::{streamit_workflow, StreamItSpec, STREAMIT_SPECS};

use crate::probe::probe_instance;
use crate::report::{fmt_norm, fmt_table};

/// The four CCR variants of §6.1.1, in plot order.
pub const CCR_VARIANTS: [(&str, Option<f64>); 4] = [
    ("original", None),
    ("10", Some(10.0)),
    ("1", Some(1.0)),
    ("0.1", Some(0.1)),
];

/// One (workflow, CCR) instance's results.
#[derive(Debug, Clone)]
pub struct StreamItInstance {
    /// The workflow's published characteristics.
    pub spec: StreamItSpec,
    /// CCR variant label ("original", "10", "1", "0.1").
    pub ccr_label: &'static str,
    /// Probed period bound, when any solver succeeded at any decade.
    pub period: Option<f64>,
    /// The portfolio's report at `period`; `None` if `period` is None.
    pub report: Option<PortfolioReport>,
}

/// A full campaign: the solver names (table headers) and the per-instance
/// results.
#[derive(Debug, Clone)]
pub struct StreamItCampaign {
    /// Solver display names, in portfolio order.
    pub names: Vec<String>,
    /// 12 workflows × 4 CCR variants.
    pub instances: Vec<StreamItInstance>,
}

/// Runs the full StreamIt campaign on the paper's `p × q` mesh with the
/// given solver portfolio: 12 workflows × 4 CCR variants = 48 instances.
pub fn streamit_campaign(
    p: u32,
    q: u32,
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> StreamItCampaign {
    streamit_campaign_on(Platform::paper(p, q), seed, solvers)
}

/// [`streamit_campaign`] on an arbitrary platform (any topology/routing
/// backend) — what `xp --topology/--routing` drives.
pub fn streamit_campaign_on(
    pf: Platform,
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> StreamItCampaign {
    let pf = Arc::new(pf);
    let cases: Vec<(&StreamItSpec, usize)> = STREAMIT_SPECS
        .iter()
        .flat_map(|spec| (0..CCR_VARIANTS.len()).map(move |ci| (spec, ci)))
        .collect();
    let instances = cases
        .into_par_iter()
        .map(|(spec, ci)| {
            let (ccr_label, ccr) = CCR_VARIANTS[ci];
            let mut g = streamit_workflow(spec, seed);
            if let Some(c) = ccr {
                g.scale_to_ccr(c);
            }
            // Deterministic per-instance seed, so `Random`'s draws differ
            // across the 48 instances but reruns reproduce exactly.
            let inst_seed = seed
                ^ (spec.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (ci as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let base = Instance::from_shared(Arc::new(g), Arc::clone(&pf), 1.0);
            let probed = probe_instance(&base, inst_seed);
            StreamItInstance {
                spec: *spec,
                ccr_label,
                period: probed.as_ref().map(Instance::period),
                report: probed.map(|inst| {
                    Portfolio::new(solvers.to_vec())
                        .seeded(inst_seed)
                        .run(&inst)
                }),
            }
        })
        .collect();
    StreamItCampaign {
        names: Portfolio::new(solvers.to_vec()).solver_names(),
        instances,
    }
}

/// Table 1: the characteristics of the (synthetic) StreamIt workflows.
pub fn table1_text(seed: u64) -> String {
    let rows: Vec<Vec<String>> = STREAMIT_SPECS
        .iter()
        .map(|spec| {
            let g = streamit_workflow(spec, seed);
            vec![
                spec.index.to_string(),
                spec.name.to_string(),
                g.n().to_string(),
                g.elevation().to_string(),
                g.xmax().to_string(),
                format!("{:.0}", g.ccr()),
            ]
        })
        .collect();
    fmt_table(
        "Table 1: Characteristics of the StreamIt workflows (synthetic suite)",
        &["Index", "Name", "n", "ymax", "xmax", "CCR"],
        &rows,
    )
}

/// Figures 8/9: normalised energy per workflow, one block per CCR variant.
pub fn figure_text(campaign: &StreamItCampaign, title: &str) -> String {
    let mut out = String::new();
    for (label, _) in CCR_VARIANTS {
        let mut rows = Vec::new();
        for inst in campaign.instances.iter().filter(|i| i.ccr_label == label) {
            let mut row = vec![inst.spec.index.to_string(), inst.spec.name.to_string()];
            match (inst.period, &inst.report) {
                (Some(t), Some(report)) => {
                    row.push(format!("{t:.0e}"));
                    let best = report.best_energy();
                    for o in &report.runs {
                        row.push(fmt_norm(o.energy().zip(best).map(|(e, b)| e / b)));
                    }
                }
                _ => {
                    row.push("-".into());
                    row.extend(std::iter::repeat_n(
                        "fail".to_string(),
                        campaign.names.len(),
                    ));
                }
            }
            rows.push(row);
        }
        rows.sort_by_key(|r| r[0].parse::<usize>().unwrap());
        let headers: Vec<&str> = ["#", "Workflow", "T(s)"]
            .into_iter()
            .chain(campaign.names.iter().map(String::as_str))
            .collect();
        out.push_str(&fmt_table(
            &format!("{title} — CCR = {label}"),
            &headers,
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Table 2: per-solver failure counts over one campaign's 48 instances.
pub fn count_failures(campaign: &StreamItCampaign) -> Vec<usize> {
    let mut fails = vec![0usize; campaign.names.len()];
    for inst in &campaign.instances {
        let Some(report) = &inst.report else {
            for f in fails.iter_mut() {
                *f += 1;
            }
            continue;
        };
        for (k, o) in report.runs.iter().enumerate() {
            if o.result.is_err() {
                fails[k] += 1;
            }
        }
    }
    fails
}

/// Table 2 text from the two grid campaigns.
pub fn table2_text(c44: &StreamItCampaign, c66: &StreamItCampaign) -> String {
    let headers: Vec<&str> = ["Platform"]
        .into_iter()
        .chain(c44.names.iter().map(String::as_str))
        .collect();
    let row = |label: &str, c: &StreamItCampaign| {
        let mut r = vec![label.to_string()];
        r.extend(count_failures(c).iter().map(|f| f.to_string()));
        r
    };
    fmt_table(
        "Table 2: Number of failures per heuristic (48 instances per grid size)",
        &headers,
        &[row("4x4", c44), row("6x6", c66)],
    )
}

/// CSV rows for a campaign (one row per instance × solver).
pub fn campaign_csv_rows(campaign: &StreamItCampaign, grid: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for inst in &campaign.instances {
        let Some(report) = &inst.report else { continue };
        let best = report.best_energy();
        for o in &report.runs {
            rows.push(vec![
                grid.to_string(),
                inst.spec.index.to_string(),
                inst.spec.name.to_string(),
                inst.ccr_label.to_string(),
                inst.period.map_or("-".into(), |t| format!("{t:e}")),
                o.name.clone(),
                o.energy().map_or("fail".into(), |e| format!("{e:e}")),
                o.energy()
                    .zip(best)
                    .map_or("-".into(), |(e, b)| format!("{:.4}", e / b)),
            ]);
        }
    }
    rows
}

/// CSV header matching [`campaign_csv_rows`].
pub const CAMPAIGN_CSV_HEADERS: [&str; 8] = [
    "grid",
    "index",
    "workflow",
    "ccr",
    "period_s",
    "heuristic",
    "energy_j",
    "normalized",
];
