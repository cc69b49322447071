//! Dominance-pruning benchmark (`xp sweep --suite prune`).
//!
//! Runs the decade sweep of [`crate::sweep_xp`] with the default `DPA1D`
//! (dominance frontier on, streaming fallback past the edge cap) over the
//! full StreamIt table plus a ≥256-stage generated workload whose complete
//! transition system overflows the default 1M edge cap — the workload
//! class the dominance layer and the bounded skeletons unlock.
//!
//! `BENCH_prune.json` records, per workload: feasible points and median
//! energy, the scan ratio (admitted transitions relaxed over admitted
//! transitions total — the deterministic state-reduction figure), the
//! maximum certified bound gap (0 unless a `frontier_cap` truncates), and
//! the sweep wall. Deterministic metrics gate in `xp bench-check`; walls
//! advise. The committed file also keeps the rows of the former
//! unpruned "complete" mode (`complete_feasible_points`, `complete_wall`,
//! `wall_ratio`, `unlocked_points`) as a frozen baseline: that mode no
//! longer exists, so this benchmark no longer emits them and
//! `bench-check` reports them as skipped.

use std::sync::Arc;
use std::time::Instant;

use cmp_platform::Platform;
use ea_core::solvers::Dpa1d;
use ea_core::sweep::PeriodSweep;
use ea_core::{Instance, PruneStats, Solver};
use spg::generate::families::{FamilyKind, FamilyParams, WorkloadSpec};
use spg::{streamit_workflow, Spg, STREAMIT_SPECS};

use crate::report::{fmt_table, median};
use crate::sweep_xp::sweep_anchor_period;
use ea_core::json::fmt_f64;

/// Points in the prune benchmark's decade sweep (same resolution as the
/// committed `BENCH_sweep.json` decade).
pub const PRUNE_BENCH_POINTS: usize = 16;

/// Wall-clock samples per workload (medians).
const PRUNE_BENCH_SAMPLES: usize = 2;

/// The ≥256-stage generated workload of the suite: a TGFF-style mixed
/// SPG whose interned lattice fits the default ideal cap while its
/// complete transition system overflows the default 1M edge cap — a
/// bounded skeleton and the streaming fallback still solve the whole
/// decade.
pub fn huge_workload(seed: u64) -> (String, Spg) {
    let params = FamilyParams {
        n: 256,
        width: 5,
        depth: 3,
        ..FamilyParams::default()
    };
    let spec = WorkloadSpec::new(FamilyKind::TgffMixed, params, seed);
    (spec.id(), spec.instantiate())
}

/// One workload's decade sweep.
#[derive(Debug, Clone)]
pub struct PruneSweep {
    /// Workload name (Table 1 workflow or generated-workload id).
    pub workload: String,
    /// Stage count.
    pub stages: usize,
    /// Swept periods, loose to tight.
    pub periods: Vec<f64>,
    /// Per-point energy (`None` = infeasible).
    pub energies: Vec<Option<f64>>,
    /// Per-point prune telemetry (`None` where the point failed).
    pub stats: Vec<Option<PruneStats>>,
    /// Median wall of the sweep, ms.
    pub wall_ms: f64,
}

impl PruneSweep {
    /// Feasible points of the sweep.
    pub fn feasible_points(&self) -> usize {
        self.energies.iter().flatten().count()
    }

    /// Share of admitted transitions the pruned relaxation actually
    /// scanned, summed over the decade: `kept / (kept + pruned)`.
    /// Deterministic in the seed, so it gates.
    pub fn scan_ratio(&self) -> Option<f64> {
        let (kept, pruned) = self.stats.iter().flatten().fold((0u64, 0u64), |(k, p), s| {
            (k + s.transitions_kept, p + s.transitions_pruned)
        });
        let total = kept + pruned;
        (total > 0).then(|| kept as f64 / total as f64)
    }

    /// Largest certified bound gap over the decade (0 unless a
    /// `frontier_cap` truncated an exact frontier — the default cap is
    /// unbounded, so the committed value pins this at exactly 0).
    pub fn bound_gap_max(&self) -> f64 {
        self.stats
            .iter()
            .flatten()
            .map(|s| s.bound_gap)
            .fold(0.0, f64::max)
    }
}

/// One workload's decade sweep: median wall over the samples, plus the
/// last sample's per-point energies and prune telemetry (deterministic
/// across samples).
#[allow(clippy::type_complexity)]
fn decade_sweep(
    g: &Spg,
    pf: &Platform,
    grid: &[f64],
    seed: u64,
) -> (f64, Vec<Option<f64>>, Vec<Option<PruneStats>>) {
    let solvers: Vec<Arc<dyn Solver>> = vec![Arc::new(Dpa1d::default())];
    let mut walls = Vec::with_capacity(PRUNE_BENCH_SAMPLES);
    let mut energies = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..PRUNE_BENCH_SAMPLES {
        // A fresh instance per sample: each sample pays the lattice and
        // skeleton builds once, like a real sweep session.
        let base = Instance::new(g.clone(), pf.clone(), grid[0]);
        let started = Instant::now();
        let report = PeriodSweep::over_periods(solvers.clone(), grid.to_vec())
            .seeded(seed)
            .parallel(false)
            .run(&base);
        walls.push(started.elapsed().as_secs_f64() * 1e3);
        energies = report.points.iter().map(|p| p.best_energy()).collect();
        stats = report
            .points
            .iter()
            .map(|p| p.runs[0].result.as_ref().ok().and_then(|s| s.prune))
            .collect();
    }
    (median(walls).unwrap_or(0.0), energies, stats)
}

/// Runs the full prune benchmark.
pub fn prune_bench(seed: u64) -> Vec<PruneSweep> {
    let pf = Platform::paper(4, 4);
    let mut targets: Vec<(String, Spg)> = STREAMIT_SPECS
        .iter()
        .map(|spec| (spec.name.to_string(), streamit_workflow(spec, seed)))
        .collect();
    targets.push(huge_workload(seed));
    targets
        .into_iter()
        .map(|(name, g)| {
            let hi = sweep_anchor_period(&g);
            let grid = PeriodSweep::geometric(hi, hi / 10.0, PRUNE_BENCH_POINTS);
            let (wall_ms, energies, stats) = decade_sweep(&g, &pf, &grid, seed);
            PruneSweep {
                workload: name,
                stages: g.n(),
                periods: grid,
                energies,
                stats,
                wall_ms,
            }
        })
        .collect()
}

/// The `BENCH_prune.json` document. Energies, point counts, scan ratios,
/// and bound gaps gate (deterministic); walls advise.
pub fn prune_bench_json(sweeps: &[PruneSweep]) -> String {
    let mut entries = Vec::new();
    for s in sweeps {
        let prefix = format!("prune/{}", s.workload);
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
        if let Some(ratio) = s.scan_ratio() {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/scan_ratio\", \"value\": {}, \"unit\": \"ratio\"}}",
                fmt_f64(ratio)
            ));
        }
        entries.push(format!(
            "    {{\"name\": \"{prefix}/bound_gap_max\", \"value\": {}, \"unit\": \"J\"}}",
            fmt_f64(s.bound_gap_max())
        ));
        entries.push(format!(
            "    {{\"name\": \"{prefix}/pruned_wall\", \"value\": {}, \"unit\": \"ms\"}}",
            fmt_f64(s.wall_ms)
        ));
    }
    format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Text table for the prune benchmark.
pub fn prune_bench_text(sweeps: &[PruneSweep]) -> String {
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            vec![
                s.workload.clone(),
                s.stages.to_string(),
                format!("{}/{}", s.feasible_points(), s.periods.len()),
                s.scan_ratio()
                    .map_or("-".into(), |r| format!("{:.1}%", r * 1e2)),
                format!("{:.2}", s.wall_ms),
            ]
        })
        .collect();
    fmt_table(
        &format!("dominance-pruning decade sweep, {PRUNE_BENCH_POINTS} points, DPA1D"),
        &["workload", "stages", "ok", "scanned", "ms"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_bench_json_shape_parses() {
        let sweeps = vec![PruneSweep {
            workload: "Fake".into(),
            stages: 16,
            periods: vec![1.0, 0.1],
            energies: vec![Some(2.5), Some(3.5)],
            stats: vec![
                Some(PruneStats {
                    transitions_kept: 90,
                    transitions_pruned: 10,
                    frontier_max: 4,
                    bound_gap: 0.0,
                }),
                None,
            ],
            wall_ms: 2.0,
        }];
        let doc = prune_bench_json(&sweeps);
        let metrics = crate::bench_check::parse_bench_metrics(&doc).unwrap();
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("prune/Fake/feasible_points").value, 2.0);
        assert_eq!(get("prune/Fake/scan_ratio").value, 0.9);
        assert_eq!(get("prune/Fake/bound_gap_max").value, 0.0);
        assert_eq!(
            get("prune/Fake/pruned_wall").unit,
            "ms",
            "walls must stay advisory"
        );
        assert!(prune_bench_text(&sweeps).contains("Fake"));
    }

    #[test]
    fn huge_workload_is_huge() {
        let (name, g) = huge_workload(2011);
        assert!(g.n() >= 256, "{name} must be a ≥256-stage workload");
    }
}
