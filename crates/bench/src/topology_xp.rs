//! Topology comparison campaign (`xp topology`) and the per-backend smoke
//! runner (`xp smoke`, the CI gate).
//!
//! The ROADMAP's scenario-diversity goal needs interconnect topology as an
//! experimental axis, not a constant: this module runs the StreamIt suite
//! end-to-end (probe → portfolio → evaluate → simulate) on every shipped
//! topology backend at the *same* period bound (probed once, on the paper's
//! mesh), so the per-topology best energies are directly comparable. On
//! every instance where both are feasible, the torus can only shorten
//! routes relative to the mesh (wrap links are extra options and the
//! shortest router only takes one when it is strictly shorter), so its
//! best energy is at most the mesh's — recorded in `BENCH_topology.json`
//! and pinned by the cross-topology integration tests.

use std::sync::Arc;
use std::time::Instant;

use cmp_platform::{Platform, RoutePolicy, TopologyKind};
use ea_core::{Instance, Portfolio, Solver};
use rayon::prelude::*;
use spg::{streamit_workflow, STREAMIT_SPECS};
use stream_sim::{simulate_with, SimConfig};

use crate::probe::probe_instance;
use crate::report::fmt_table;

/// The paper's electrical parameters on one topology backend, with an
/// optional routing-policy override (`None` = the backend's default:
/// XY on the mesh, shortest on torus/ring).
pub fn make_platform(kind: TopologyKind, p: u32, q: u32, routing: Option<RoutePolicy>) -> Platform {
    let pf = Platform::paper_topology(kind, p, q);
    match routing {
        Some(policy) => pf.with_policy(policy),
        None => pf,
    }
}

/// Best-of-portfolio outcome of one workflow on one topology backend.
#[derive(Debug, Clone)]
pub struct TopologyOutcome {
    /// Lowest energy over the portfolio, joules.
    pub energy: f64,
    /// Which solver produced it.
    pub solver: String,
    /// Wall time of the whole portfolio run, seconds.
    pub wall_s: f64,
    /// Steady-state period achieved by the discrete-event simulation of
    /// the best mapping (the end-to-end cross-check).
    pub sim_period: f64,
}

/// One workflow row of the topology campaign.
#[derive(Debug, Clone)]
pub struct TopologyRow {
    /// Workflow name (Table 1).
    pub workflow: String,
    /// Period bound, probed once on the mesh (§6.1.3); `None` when no
    /// solver succeeds at any probed decade.
    pub period: Option<f64>,
    /// One outcome per backend, in [`TopologyKind::ALL`] order; `None`
    /// when every solver failed on that backend.
    pub outcomes: Vec<Option<TopologyOutcome>>,
}

/// The full campaign: 12 StreamIt workflows × the three topology backends.
#[derive(Debug, Clone)]
pub struct TopologyCampaign {
    /// Grid label, e.g. `4x4`.
    pub grid: String,
    /// Per-workflow rows, in Table 1 order.
    pub rows: Vec<TopologyRow>,
}

/// Runs the StreamIt suite (original CCR) across mesh, torus, and ring at
/// the mesh-probed period per workflow. Rayon fans out over workflows; the
/// per-topology portfolio runs sequentially inside a workflow so the wall
/// times stay comparable.
pub fn topology_campaign(
    p: u32,
    q: u32,
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> TopologyCampaign {
    let rows = STREAMIT_SPECS
        .par_iter()
        .map(|spec| {
            let g = Arc::new(streamit_workflow(spec, seed));
            let inst_seed = seed ^ (spec.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mesh = Arc::new(Platform::paper(p, q));
            let base = Instance::from_shared(Arc::clone(&g), mesh, 1.0);
            let Some(probed) = probe_instance(&base, inst_seed) else {
                return TopologyRow {
                    workflow: spec.name.to_string(),
                    period: None,
                    outcomes: vec![None; TopologyKind::ALL.len()],
                };
            };
            let period = probed.period();
            let outcomes = TopologyKind::ALL
                .iter()
                .map(|&kind| {
                    // Deliberately a cold instance per backend (the probe's
                    // warm caches are NOT reused, even for the mesh): the
                    // recorded wall times compare backends fairly when all
                    // three pay their lattice/route-table precomputation.
                    let pf = Arc::new(make_platform(kind, p, q, None));
                    let inst = Instance::from_shared(Arc::clone(&g), pf, period);
                    let started = Instant::now();
                    let report = Portfolio::new(solvers.to_vec())
                        .seeded(inst_seed)
                        .run(&inst);
                    let wall_s = started.elapsed().as_secs_f64();
                    let best = report.best_solution()?;
                    let table = inst.route_table_for(&best.mapping);
                    let sim = simulate_with(
                        inst.spg(),
                        inst.platform(),
                        &best.mapping,
                        SimConfig::default(),
                        table.as_deref(),
                    )
                    .expect("best mapping must simulate");
                    Some(TopologyOutcome {
                        energy: best.energy(),
                        solver: report.best_run().expect("has a best").name.clone(),
                        wall_s,
                        sim_period: sim.achieved_period,
                    })
                })
                .collect();
            TopologyRow {
                workflow: spec.name.to_string(),
                period: Some(period),
                outcomes,
            }
        })
        .collect();
    TopologyCampaign {
        grid: format!("{p}x{q}"),
        rows,
    }
}

/// The `topology/...` entries of `BENCH_topology.json`: per-backend
/// suite medians (best energy gates, portfolio wall advises) and the
/// per-workflow gating energies — the exact names `bench-check`
/// recomputes. The committed file also carries the criterion
/// `evaluate_*` timing entries from `cargo bench -p ea-bench`; appending
/// those is the re-baselining script's job (see README), not this
/// function's.
pub fn topology_bench_json(campaign: &TopologyCampaign) -> String {
    use crate::report::median;
    use ea_core::json::fmt_f64;

    let mut entries = Vec::new();
    let mut workflow_energies: Vec<Vec<(String, f64)>> = Vec::new();
    for (k, kind) in TopologyKind::ALL.iter().enumerate() {
        let mut energies = Vec::new();
        let mut walls = Vec::new();
        let mut per_wf = Vec::new();
        for row in &campaign.rows {
            if let Some(o) = &row.outcomes[k] {
                per_wf.push((row.workflow.clone(), o.energy));
                energies.push(o.energy);
                walls.push(o.wall_s * 1e3);
            }
        }
        workflow_energies.push(per_wf);
        if let Some(med) = median(energies) {
            entries.push(format!(
                "    {{\n      \"name\": \"topology/streamit_median_best_energy/{kind}\",\n      \
                 \"value\": {},\n      \"unit\": \"J\"\n    }}",
                fmt_f64(med)
            ));
        }
        if let Some(med) = median(walls) {
            entries.push(format!(
                "    {{\n      \"name\": \"topology/streamit_median_portfolio_wall/{kind}\",\n      \
                 \"value\": {},\n      \"unit\": \"ms\"\n    }}",
                fmt_f64(med)
            ));
        }
    }
    // Grouped by workflow, backends inner — the committed file's order.
    for row in &campaign.rows {
        for (k, kind) in TopologyKind::ALL.iter().enumerate() {
            if let Some((wf, e)) = workflow_energies[k]
                .iter()
                .find(|(wf, _)| *wf == row.workflow)
            {
                entries.push(format!(
                    "    {{\"name\": \"topology/energy/{wf}/{kind}\", \"value\": {}, \
                     \"unit\": \"J\"}}",
                    fmt_f64(*e)
                ));
            }
        }
    }
    format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Text table: per-workflow best energy (and winning solver) per backend,
/// plus the torus/mesh energy ratio.
pub fn topology_text(campaign: &TopologyCampaign) -> String {
    let mut rows = Vec::new();
    for row in &campaign.rows {
        let mut r = vec![
            row.workflow.clone(),
            row.period.map_or("-".into(), |t| format!("{t:.0e}")),
        ];
        for o in &row.outcomes {
            match o {
                Some(o) => {
                    r.push(format!("{:.4e}", o.energy));
                    r.push(o.solver.clone());
                }
                None => {
                    r.push("fail".into());
                    r.push("-".into());
                }
            }
        }
        let ratio = match (&row.outcomes[0], &row.outcomes[1]) {
            (Some(mesh), Some(torus)) => format!("{:.4}", torus.energy / mesh.energy),
            _ => "-".into(),
        };
        r.push(ratio);
        rows.push(r);
    }
    fmt_table(
        &format!(
            "Topology comparison ({} grid, StreamIt suite, mesh-probed periods)",
            campaign.grid
        ),
        &[
            "Workflow",
            "T(s)",
            "E(mesh)",
            "by",
            "E(torus)",
            "by",
            "E(ring)",
            "by",
            "torus/mesh",
        ],
        &rows,
    )
}

/// CSV rows matching [`TOPOLOGY_CSV_HEADERS`].
pub fn topology_csv_rows(campaign: &TopologyCampaign) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for row in &campaign.rows {
        for (kind, o) in TopologyKind::ALL.iter().zip(&row.outcomes) {
            rows.push(vec![
                campaign.grid.clone(),
                row.workflow.clone(),
                kind.to_string(),
                row.period.map_or("-".into(), |t| format!("{t:e}")),
                o.as_ref()
                    .map_or("fail".into(), |o| format!("{:e}", o.energy)),
                o.as_ref().map_or("-".into(), |o| o.solver.clone()),
                o.as_ref()
                    .map_or("-".into(), |o| format!("{:.6}", o.wall_s)),
                o.as_ref()
                    .map_or("-".into(), |o| format!("{:e}", o.sim_period)),
            ]);
        }
    }
    rows
}

/// CSV header matching [`topology_csv_rows`].
pub const TOPOLOGY_CSV_HEADERS: [&str; 8] = [
    "grid",
    "workflow",
    "topology",
    "period_s",
    "best_energy_j",
    "best_solver",
    "portfolio_wall_s",
    "sim_period_s",
];

/// One small instance end-to-end on one `(topology, routing)` combination:
/// probe → portfolio → evaluate → simulate. Returns a one-line summary, or
/// an error when any step fails — the CI smoke gate runs this once per
/// combination.
pub fn smoke_text(
    kind: TopologyKind,
    routing: Option<RoutePolicy>,
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> Result<String, String> {
    let pf = make_platform(kind, 2, 3, routing);
    let policy = pf.policy;
    // A small pipeline every solver can handle on 6 cores.
    let g = spg::chain(&[2e8; 6], &[1e5; 5]);
    let inst = Instance::new(g, pf, 1.0);
    let probed = probe_instance(&inst, seed)
        .ok_or_else(|| format!("smoke: probe failed on {kind}/{policy}"))?;
    let report = Portfolio::new(solvers.to_vec()).seeded(seed).run(&probed);
    let best = report
        .best_solution()
        .ok_or_else(|| format!("smoke: every solver failed on {kind}/{policy}"))?;
    let table = probed.route_table_for(&best.mapping);
    let sim = simulate_with(
        probed.spg(),
        probed.platform(),
        &best.mapping,
        SimConfig::default(),
        table.as_deref(),
    )
    .map_err(|e| format!("smoke: simulation failed on {kind}/{policy}: {e}"))?;
    if sim.achieved_period > probed.period() * 1.02 {
        return Err(format!(
            "smoke: simulated period {:.3e}s exceeds the bound {:.3e}s on {kind}/{policy}",
            sim.achieved_period,
            probed.period()
        ));
    }
    Ok(format!(
        "[smoke] {kind}/{policy}: T={:.1e}s best={} E={:.4e}J sim_period={:.3e}s ok",
        probed.period(),
        report.best_run().expect("has a best").name,
        best.energy(),
        sim.achieved_period,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::solvers::default_heuristics;

    #[test]
    fn smoke_passes_on_every_backend_and_policy() {
        let solvers = default_heuristics();
        for kind in TopologyKind::ALL {
            for routing in [None, Some(RoutePolicy::Yx)] {
                smoke_text(kind, routing, 7, &solvers).unwrap();
            }
        }
    }

    #[test]
    fn make_platform_applies_overrides() {
        let pf = make_platform(TopologyKind::Torus, 3, 3, Some(RoutePolicy::Xy));
        assert_eq!(pf.topology, TopologyKind::Torus);
        assert_eq!(pf.policy, RoutePolicy::Xy);
        assert_eq!(
            make_platform(TopologyKind::Torus, 3, 3, None).policy,
            RoutePolicy::Shortest
        );
    }
}
