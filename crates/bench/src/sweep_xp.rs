//! Period/utilisation sweeps (`xp sweep`).
//!
//! Two experiments share the [`ea_core::PeriodSweep`] engine:
//!
//! * **Family sweeps** (the default `xp sweep` mode): for each workload
//!   family, sweep a utilisation grid and report the per-solver
//!   feasibility frontier — the campaign-engine analogue of the paper's
//!   period-tightness curves, with `u` as the comparable x-axis across
//!   families whose total work spans orders of magnitude.
//! * **The StreamIt decade benchmark** (`xp sweep --suite streamit`): a
//!   [`SWEEP_BENCH_POINTS`]-point geometric decade sweep of `DPA1D` over
//!   every Table 1 workflow, run twice — *amortized* (one
//!   [`ea_core::Instance`], the lattice/skeleton caches shared across the
//!   whole curve) and *naive* (a fresh instance per point, the pre-sweep
//!   cost model). Per-point energies are asserted bit-identical; the wall
//!   ratio is the headline number of `BENCH_sweep.json`, and the
//!   deterministic energy/feasibility metrics and the skeleton counts
//!   (transitions built, and transitions the admission prefixes handed
//!   the relaxer over the whole curve) are what `xp bench-check` gates on.

use std::sync::Arc;
use std::time::Instant;

use cmp_platform::Platform;
use ea_core::solvers::Dpa1d;
use ea_core::sweep::{PeriodSweep, SweepReport};
use ea_core::{Instance, Portfolio, Solver};
use spg::generate::families::{FamilyKind, FamilyParams, WorkloadSpec};
use spg::{streamit_workflow, Spg, STREAMIT_SPECS};

use crate::report::{fmt_table, median};
use ea_core::json::fmt_f64;

/// Points in the StreamIt decade benchmark sweep. Fixed — the committed
/// `BENCH_sweep.json` metrics are defined at this resolution, and the
/// `bench-check` recomputer must reproduce them exactly.
pub const SWEEP_BENCH_POINTS: usize = 16;

/// Wall-clock samples per mode in the StreamIt benchmark (medians).
const SWEEP_BENCH_SAMPLES: usize = 3;

/// The decade's loose end per workflow: anchored like the committed
/// portfolio baselines (total work over the 4×4 grid's aggregate capacity
/// at 2× the XScale top frequency), doubled so the loose end is feasible
/// for `DPA1D` wherever the lattice is tractable and the tight end crosses
/// its feasibility frontier.
pub(crate) fn sweep_anchor_period(g: &Spg) -> f64 {
    2.0 * g.total_work() / (8.0 * 1e9)
}

/// One workflow's amortized-vs-naive decade sweep.
#[derive(Debug, Clone)]
pub struct WorkflowSweep {
    /// Workflow name (Table 1).
    pub workflow: String,
    /// Swept periods, loose to tight.
    pub periods: Vec<f64>,
    /// Per-point `DPA1D` energy (`None` = failed at that tightness);
    /// identical between the amortized and naive runs (asserted).
    pub energies: Vec<Option<f64>>,
    /// Median wall time of the amortized sweep (one shared instance), ms.
    pub amortized_wall_ms: f64,
    /// Median wall time of the naive sweep (fresh instance per point), ms.
    pub naive_wall_ms: f64,
    /// Transitions in the skeleton the amortized sweep built (0 when it
    /// built none: the lattice is over the ideal cap, or the build over
    /// the edge cap and the sweep streamed).
    pub skeleton_transitions: usize,
    /// Transitions the skeleton's admission prefixes handed the relaxer,
    /// summed over the points (0 without a skeleton).
    pub admitted_transitions: usize,
}

impl WorkflowSweep {
    /// Naive-over-amortized wall ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_wall_ms / self.amortized_wall_ms
    }

    /// Number of feasible points.
    pub fn feasible_points(&self) -> usize {
        self.energies.iter().flatten().count()
    }
}

fn dpa1d_solvers() -> Vec<Arc<dyn Solver>> {
    vec![Arc::new(Dpa1d::default())]
}

/// Runs one decade sweep through the shared-instance engine. The
/// benchmark calls it on a 1-worker pool: it compares single-threaded
/// pipeline cost, not fan-out.
fn amortized_sweep(base: &Instance, grid: Vec<f64>, seed: u64) -> SweepReport {
    PeriodSweep::over_periods(Portfolio::new(dpa1d_solvers()).seeded(seed), grid).run(base)
}

/// The naive baseline: a fresh [`Instance`] per point, so every point pays
/// enumeration + materialisation again. Same solver, same seeds, same
/// 1-worker pool.
fn naive_sweep(g: &Spg, pf: &Platform, grid: &[f64], seed: u64) -> Vec<Option<f64>> {
    grid.iter()
        .map(|&t| {
            let inst = Instance::new(g.clone(), pf.clone(), t);
            PeriodSweep::over_periods(Portfolio::new(dpa1d_solvers()).seeded(seed), vec![t])
                .run(&inst)
                .points
                .remove(0)
                .best_energy()
        })
        .collect()
}

/// Runs the full StreamIt decade benchmark. Panics if any per-point energy
/// differs between the amortized and the naive run — bit-identity is the
/// correctness contract of the skeleton split, not a tolerance.
pub fn streamit_sweep_bench(seed: u64) -> Vec<WorkflowSweep> {
    let pf = Platform::paper(4, 4);
    let sequential = rayon::ThreadPool::new(1);
    STREAMIT_SPECS
        .iter()
        .map(|spec| {
            let g = streamit_workflow(spec, seed);
            let hi = sweep_anchor_period(&g);
            let grid = PeriodSweep::geometric(hi, hi / 10.0, SWEEP_BENCH_POINTS);

            let mut amortized_walls = Vec::with_capacity(SWEEP_BENCH_SAMPLES);
            let mut energies: Vec<Option<f64>> = Vec::new();
            let mut periods: Vec<f64> = Vec::new();
            let (mut skeleton_transitions, mut admitted_transitions) = (0, 0);
            for _ in 0..SWEEP_BENCH_SAMPLES {
                // A fresh instance per sample: each sample pays the
                // enumeration + skeleton build once, like a real sweep.
                let base = Instance::new(g.clone(), pf.clone(), grid[0]);
                let started = Instant::now();
                let report = sequential.install(|| amortized_sweep(&base, grid.clone(), seed));
                amortized_walls.push(started.elapsed().as_secs_f64() * 1e3);
                energies = report.points.iter().map(|p| p.best_energy()).collect();
                periods = report.points.iter().map(|p| p.period).collect();
                if let Some(sk) = base.cached_skeleton() {
                    skeleton_transitions = sk.n_transitions();
                    admitted_transitions = periods.iter().map(|&t| sk.admitted(&pf, t)).sum();
                }
            }
            let mut naive_walls = Vec::with_capacity(SWEEP_BENCH_SAMPLES);
            let mut naive_energies: Vec<Option<f64>> = Vec::new();
            for _ in 0..SWEEP_BENCH_SAMPLES {
                let started = Instant::now();
                naive_energies = sequential.install(|| naive_sweep(&g, &pf, &grid, seed));
                naive_walls.push(started.elapsed().as_secs_f64() * 1e3);
            }
            assert_eq!(
                energies, naive_energies,
                "{}: amortized sweep energies must be bit-identical to \
                 per-point re-solves",
                spec.name
            );
            WorkflowSweep {
                workflow: spec.name.to_string(),
                periods,
                energies,
                amortized_wall_ms: median(amortized_walls).unwrap_or(0.0),
                naive_wall_ms: median(naive_walls).unwrap_or(0.0),
                skeleton_transitions,
                admitted_transitions,
            }
        })
        .collect()
}

/// The `BENCH_sweep.json` document. Deterministic metrics (`J` energies,
/// feasible-point and transition counts) gate in `bench-check`; wall
/// times and the derived speedups are advisory (machine-dependent), like
/// every other time metric.
pub fn sweep_bench_json(sweeps: &[WorkflowSweep]) -> String {
    let mut entries = Vec::new();
    for s in sweeps {
        let prefix = format!("sweep/{}", s.workflow);
        entries.push(format!(
            "    {{\"name\": \"{prefix}/feasible_points\", \"value\": {}, \"unit\": \"points\"}}",
            s.feasible_points()
        ));
        if let Some(med) = median(s.energies.iter().flatten().copied().collect()) {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/median_energy\", \"value\": {}, \"unit\": \"J\"}}",
                fmt_f64(med)
            ));
        }
        entries.push(format!(
            "    {{\"name\": \"{prefix}/skeleton_transitions\", \"value\": {}, \"unit\": \"count\"}}",
            s.skeleton_transitions
        ));
        entries.push(format!(
            "    {{\"name\": \"{prefix}/admitted_transitions\", \"value\": {}, \"unit\": \"count\"}}",
            s.admitted_transitions
        ));
        entries.push(format!(
            "    {{\"name\": \"{prefix}/amortized_wall\", \"value\": {}, \"unit\": \"ms\"}}",
            fmt_f64(s.amortized_wall_ms)
        ));
        entries.push(format!(
            "    {{\"name\": \"{prefix}/naive_wall\", \"value\": {}, \"unit\": \"ms\"}}",
            fmt_f64(s.naive_wall_ms)
        ));
        entries.push(format!(
            "    {{\"name\": \"{prefix}/speedup\", \"value\": {}, \"unit\": \"speedup\"}}",
            fmt_f64(s.speedup())
        ));
    }
    if let Some(med) = median(sweeps.iter().map(WorkflowSweep::speedup).collect()) {
        entries.push(format!(
            "    {{\"name\": \"sweep/median_speedup\", \"value\": {}, \"unit\": \"speedup\"}}",
            fmt_f64(med)
        ));
    }
    format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Text table for the StreamIt decade benchmark.
pub fn sweep_bench_text(sweeps: &[WorkflowSweep]) -> String {
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            vec![
                s.workflow.clone(),
                format!("{}/{}", s.feasible_points(), s.periods.len()),
                format!("{:.2}", s.amortized_wall_ms),
                format!("{:.2}", s.naive_wall_ms),
                format!("{:.2}x", s.speedup()),
            ]
        })
        .collect();
    let mut out = fmt_table(
        &format!(
            "StreamIt decade sweep, {SWEEP_BENCH_POINTS} points, DPA1D \
             (amortized skeleton vs naive per-point re-solve)"
        ),
        &[
            "workflow",
            "feasible",
            "amortized ms",
            "naive ms",
            "speedup",
        ],
        &rows,
    );
    if let Some(med) = median(sweeps.iter().map(WorkflowSweep::speedup).collect()) {
        out.push_str(&format!("median speedup: {med:.2}x\n"));
    }
    out
}

/// One family's utilisation sweep.
pub struct FamilySweep {
    /// Family name.
    pub family: String,
    /// Stage count of the swept member.
    pub n: usize,
    /// The sweep report (utilisation axis).
    pub report: SweepReport,
}

/// CSV headers for `xp sweep`'s family curves. Failures are recorded
/// structurally — the phase/cap/count triple of a budget abort
/// ([`ea_core::BudgetExceeded`], the same fields campaign JSONL carries),
/// with `infeasible` in `fail_phase` for plain no-valid-mapping failures —
/// so capped points are machine-readable instead of free-text.
pub const SWEEP_CSV_HEADERS: [&str; 9] = [
    "family",
    "n",
    "utilisation",
    "period_s",
    "solver",
    "energy_j",
    "fail_phase",
    "fail_cap",
    "fail_count",
];

/// Sweeps a utilisation grid for one seeded member of every workload
/// family: the feasibility-vs-utilisation curve data behind `xp sweep`.
pub fn family_sweeps(
    n: usize,
    points: usize,
    seed: u64,
    pf: &Platform,
    solvers: &[Arc<dyn Solver>],
) -> Vec<FamilySweep> {
    // `u` from lightly loaded to near the platform's capacity; geometric
    // so the tight end gets the resolution (feasibility walls live there).
    let grid = PeriodSweep::geometric(0.05, 0.9, points);
    FamilyKind::ALL
        .iter()
        .map(|&family| {
            let params = FamilyParams {
                n,
                ..FamilyParams::default()
            };
            let g = WorkloadSpec::new(family, params, seed).instantiate();
            let base = Instance::for_utilisation(g, pf.clone(), grid[0]);
            let report = PeriodSweep::over_utilisations(
                Portfolio::new(solvers.to_vec()).seeded(seed),
                grid.clone(),
            )
            .run(&base);
            FamilySweep {
                family: family.to_string(),
                n,
                report,
            }
        })
        .collect()
}

/// The family curves as CSV rows (one row per family × point × solver).
pub fn family_sweep_csv_rows(sweeps: &[FamilySweep]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for fs in sweeps {
        for p in &fs.report.points {
            for r in &p.runs {
                let (fail_phase, fail_cap, fail_count) = match &r.result {
                    Ok(_) => (String::new(), String::new(), String::new()),
                    Err(f) => match f.budget_exceeded() {
                        Some(b) => (
                            b.phase.name().to_string(),
                            b.cap.to_string(),
                            b.count.to_string(),
                        ),
                        None => ("infeasible".into(), String::new(), String::new()),
                    },
                };
                rows.push(vec![
                    fs.family.clone(),
                    fs.n.to_string(),
                    fmt_f64(p.value),
                    fmt_f64(p.period),
                    r.name.clone(),
                    r.energy().map_or("".into(), fmt_f64),
                    fail_phase,
                    fail_cap,
                    fail_count,
                ]);
            }
        }
    }
    rows
}

/// Feasibility-frontier table: per family × solver, the largest
/// utilisation (tightest period) the solver still solves.
pub fn family_sweep_text(sweeps: &[FamilySweep]) -> String {
    let mut out = String::new();
    for fs in sweeps {
        let rows: Vec<Vec<String>> = fs
            .report
            .frontier()
            .iter()
            .map(|f| {
                vec![
                    f.solver.clone(),
                    format!("{}/{}", f.feasible_points, fs.report.points.len()),
                    f.tightest_value.map_or("-".into(), |u| format!("{u:.3}")),
                    f.tightest_period.map_or("-".into(), |t| format!("{t:.3e}")),
                ]
            })
            .collect();
        out.push_str(&fmt_table(
            &format!(
                "feasibility frontier: {} (n = {}, u swept over {} points)",
                fs.family,
                fs.n,
                fs.report.points.len()
            ),
            &["solver", "feasible", "max u", "tightest T (s)"],
            &rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_sweep_produces_full_curves() {
        let pf = Platform::paper(2, 2);
        let solvers: Vec<Arc<dyn Solver>> = vec![
            Arc::new(ea_core::solvers::Greedy::default()),
            Arc::new(Dpa1d::default()),
        ];
        let sweeps = family_sweeps(8, 3, 11, &pf, &solvers);
        assert_eq!(sweeps.len(), FamilyKind::ALL.len());
        for fs in &sweeps {
            assert_eq!(fs.report.points.len(), 3);
            for p in &fs.report.points {
                assert_eq!(p.runs.len(), 2);
            }
        }
        let rows = family_sweep_csv_rows(&sweeps);
        assert_eq!(rows.len(), FamilyKind::ALL.len() * 3 * 2);
        let text = family_sweep_text(&sweeps);
        assert!(text.contains("deep-chain"));
    }

    #[test]
    fn sweep_bench_json_shape_parses() {
        let sweeps = vec![WorkflowSweep {
            workflow: "Fake".into(),
            periods: vec![1.0, 0.1],
            energies: vec![Some(2.5), None],
            amortized_wall_ms: 1.0,
            naive_wall_ms: 4.0,
            skeleton_transitions: 30,
            admitted_transitions: 45,
        }];
        let doc = sweep_bench_json(&sweeps);
        let metrics = crate::bench_check::parse_bench_metrics(&doc).unwrap();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"sweep/Fake/median_energy"));
        let count = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(count("sweep/Fake/skeleton_transitions").value, 30.0);
        assert_eq!(count("sweep/Fake/admitted_transitions").value, 45.0);
        assert_eq!(count("sweep/Fake/admitted_transitions").unit, "count");
        assert!(names.contains(&"sweep/median_speedup"));
        let speedup = metrics
            .iter()
            .find(|m| m.name == "sweep/median_speedup")
            .unwrap();
        assert_eq!(speedup.unit, "speedup");
        assert_eq!(speedup.value, 4.0);
        assert!(sweep_bench_text(&sweeps).contains("4.00x"));
    }
}
