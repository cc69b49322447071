//! The perf-regression gate (`xp bench-check`).
//!
//! Compares *fresh* measurements against the benchmark numbers committed
//! in `BENCH_*.json` files and fails (non-zero exit) on regression — the
//! CI step that keeps the recorded baselines honest.
//!
//! Two classes of metric, told apart by their unit:
//!
//! * **energy metrics** (unit `J`, and ratios) are *deterministic* in the
//!   committed seed, so any drift is a real behaviour change. These
//!   **gate**: a relative deviation beyond the tolerance fails the check.
//! * **time metrics** (`ns` / `ms` / `s`) depend on the machine and on
//!   scheduler noise; on shared CI runners they would make the gate
//!   flaky. These are **advisory**: the drift is reported, never fatal.
//!
//! A metric the checker does not know how to recompute (e.g. the criterion
//! micro-benchmarks of `BENCH_baseline.json`) is reported as *skipped*.
//! Fresh values are recomputed lazily, once per source: the topology
//! campaign for `topology/...` names, the campaign-realistic warm StreamIt
//! portfolio for `energy/<workflow>/<solver>` and
//! `streamit_portfolio/<workflow>` names, the decade sweep for
//! `sweep/...` names, the pool microbenchmark for `pool/...` names
//! (whose checksums gate — parallel scheduling must stay a pure
//! optimisation), the loopback serve benchmark for `serve/...` names,
//! the dominance-pruning benchmark for `prune/...` names (`DPA1D` decade
//! sweeps; scan ratios, bound gaps and complete-transition counts gate),
//! the fault-injection remap campaign for `incremental/...` names
//! (delta-patched re-solve vs cold rebuild; energies, regrets and the
//! speedup-median gate bit gate), and the `DPA2D` nested-DP benchmark for
//! `dpa2d/...` names (inner DPs, placements and column tables gate; cold
//! solve walls advise).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cmp_platform::{Platform, TopologyKind};
use ea_core::{Instance, Portfolio, Solver};
use spg::{streamit_workflow, Spg, STREAMIT_SPECS};

use crate::report::{fmt_table, median};
use crate::topology_xp::topology_campaign;
use ea_core::json::Json;

/// One committed benchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (e.g. `topology/energy/DES/mesh`).
    pub name: String,
    /// Committed value.
    pub value: f64,
    /// Unit (`J`, `ms`, `ns`, `ratio`, …).
    pub unit: String,
}

/// Loads the metrics of one `BENCH_*.json` document. Accepts both shapes
/// used in this repository: `{name, value, unit}` entries and criterion
/// `{name, median_ns, ...}` timing entries (unit `ns`).
pub fn parse_bench_metrics(text: &str) -> Result<Vec<Metric>, String> {
    let doc = Json::parse(text)?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing 'results' array")?;
    let mut metrics = Vec::with_capacity(results.len());
    for entry in results {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("entry without a name")?
            .to_string();
        if let Some(value) = entry.get("value").and_then(Json::as_f64) {
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push(Metric { name, value, unit });
        } else if let Some(value) = entry.get("median_ns").and_then(Json::as_f64) {
            metrics.push(Metric {
                name,
                value,
                unit: "ns".into(),
            });
        } else {
            return Err(format!("entry '{name}' has neither value nor median_ns"));
        }
    }
    Ok(metrics)
}

/// Whether a unit denotes wall-clock time (advisory-only metrics).
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "ns" | "us" | "µs" | "ms" | "s")
}

/// Whether a metric is advisory (never gates): wall-clock times, and
/// quantities *derived* from wall-clock times — a `speedup` is a ratio of
/// two walls, so it inherits their machine dependence.
pub fn is_advisory_unit(unit: &str) -> bool {
    is_time_unit(unit) || unit == "speedup"
}

/// Verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Deterministic metric within tolerance.
    Pass,
    /// Deterministic metric out of tolerance — fails the gate.
    Fail,
    /// Time metric: drift reported, never fatal.
    Advisory,
    /// No recomputer for this metric.
    Skipped,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Fail => "FAIL",
            Status::Advisory => "advisory",
            Status::Skipped => "skipped",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Metric name.
    pub name: String,
    /// Unit from the committed file.
    pub unit: String,
    /// Committed value.
    pub committed: f64,
    /// Freshly recomputed value, when a recomputer exists.
    pub fresh: Option<f64>,
    /// Relative deviation `(fresh - committed) / |committed|`.
    pub rel: Option<f64>,
    /// The verdict.
    pub status: Status,
}

/// Pure comparison: committed metrics against a fresh-value source.
/// Deterministic (non-time) metrics gate at `tolerance` relative
/// deviation; time metrics are advisory; metrics without a fresh value are
/// skipped.
pub fn compare(
    metrics: &[Metric],
    fresh_of: impl Fn(&str) -> Option<f64>,
    tolerance: f64,
) -> Vec<Check> {
    metrics
        .iter()
        .map(|m| {
            let fresh = fresh_of(&m.name);
            let rel = fresh.map(|f| {
                if m.value == 0.0 {
                    if f == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (f - m.value) / m.value.abs()
                }
            });
            let status = match (fresh, rel) {
                (None, _) => Status::Skipped,
                _ if is_advisory_unit(&m.unit) => Status::Advisory,
                (_, Some(r)) if r.abs() <= tolerance => Status::Pass,
                _ => Status::Fail,
            };
            Check {
                name: m.name.clone(),
                unit: m.unit.clone(),
                committed: m.value,
                fresh,
                rel,
                status,
            }
        })
        .collect()
}

/// The paper-campaign period the committed StreamIt energies were recorded
/// at (`BENCH_portfolio.json`, PR 2): total work over the aggregate cycle
/// capacity of the 4×4 grid at 2× the XScale top frequency.
fn bench_period(g: &Spg) -> f64 {
    g.total_work() / (8.0 * 1e9)
}

/// Freshly recomputed values for every metric name the checker knows,
/// computed lazily per source so `bench-check` only pays for what the
/// committed files actually contain.
pub fn compute_fresh_metrics(
    needed: &[Metric],
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> HashMap<String, f64> {
    let mut fresh = HashMap::new();

    // Source 1: the topology campaign (topology/... names).
    if needed.iter().any(|m| m.name.starts_with("topology/")) {
        let campaign = topology_campaign(4, 4, seed, solvers);
        for (k, kind) in TopologyKind::ALL.iter().enumerate() {
            let mut energies = Vec::new();
            let mut walls = Vec::new();
            for row in &campaign.rows {
                if let Some(o) = &row.outcomes[k] {
                    fresh.insert(format!("topology/energy/{}/{kind}", row.workflow), o.energy);
                    energies.push(o.energy);
                    walls.push(o.wall_s * 1e3);
                }
            }
            if let Some(med) = median(energies) {
                fresh.insert(format!("topology/streamit_median_best_energy/{kind}"), med);
            }
            if let Some(med) = median(walls) {
                fresh.insert(
                    format!("topology/streamit_median_portfolio_wall/{kind}"),
                    med,
                );
            }
        }
    }

    // Source 2: the campaign-realistic warm StreamIt portfolio on the
    // paper's 4×4 mesh (energy/<workflow>/<solver> and
    // streamit_portfolio/<workflow> names).
    let energy_wfs: HashSet<&str> = needed
        .iter()
        .filter_map(|m| {
            let rest = m.name.strip_prefix("energy/")?;
            rest.split('/').next()
        })
        .collect();
    let timed_wfs: HashSet<&str> = needed
        .iter()
        .filter_map(|m| m.name.strip_prefix("streamit_portfolio/"))
        .collect();
    if !energy_wfs.is_empty() || !timed_wfs.is_empty() {
        let pf = Platform::paper(4, 4);
        for spec in STREAMIT_SPECS.iter() {
            let timed = timed_wfs.contains(spec.name);
            if !timed && !energy_wfs.contains(spec.name) {
                continue;
            }
            let g = streamit_workflow(spec, seed);
            let inst = Instance::new(g.clone(), pf.clone(), bench_period(&g));
            let portfolio = Portfolio::new(solvers.to_vec()).seeded(seed);
            // Warm run: populates the instance caches (and is the energy
            // source — energies are deterministic, one run suffices).
            let report = portfolio.run(&inst);
            for run in &report.runs {
                if let Some(e) = run.energy() {
                    fresh.insert(format!("energy/{}/{}", spec.name, run.name), e);
                }
            }
            if timed {
                let samples: Vec<f64> = (0..3)
                    .map(|_| {
                        let started = Instant::now();
                        let _ = portfolio.run(&inst);
                        started.elapsed().as_nanos() as f64
                    })
                    .collect();
                if let Some(med) = median(samples) {
                    fresh.insert(format!("streamit_portfolio/{}", spec.name), med);
                }
            }
        }
    }

    // Source 3: the StreamIt decade sweep (sweep/... names) — both modes,
    // so the advisory wall/speedup drifts are reported alongside the
    // gating energy, feasible-point and skeleton-count metrics.
    if needed.iter().any(|m| m.name.starts_with("sweep/")) {
        let sweeps = crate::sweep_xp::streamit_sweep_bench(seed);
        for s in &sweeps {
            let prefix = format!("sweep/{}", s.workflow);
            fresh.insert(
                format!("{prefix}/feasible_points"),
                s.feasible_points() as f64,
            );
            if let Some(med) = median(s.energies.iter().flatten().copied().collect()) {
                fresh.insert(format!("{prefix}/median_energy"), med);
            }
            fresh.insert(
                format!("{prefix}/skeleton_transitions"),
                s.skeleton_transitions as f64,
            );
            fresh.insert(
                format!("{prefix}/admitted_transitions"),
                s.admitted_transitions as f64,
            );
            fresh.insert(format!("{prefix}/amortized_wall"), s.amortized_wall_ms);
            fresh.insert(format!("{prefix}/naive_wall"), s.naive_wall_ms);
            fresh.insert(format!("{prefix}/speedup"), s.speedup());
        }
        if let Some(med) = median(
            sweeps
                .iter()
                .map(crate::sweep_xp::WorkflowSweep::speedup)
                .collect(),
        ) {
            fresh.insert("sweep/median_speedup".into(), med);
        }
    }

    // Source 4: the pool microbenchmark (pool/... names). Checksums and
    // the worker count gate; walls advise; the frozen pool/scoped_spawn/*
    // baseline entries stay skipped (nothing can re-measure a removed
    // implementation).
    if needed.iter().any(|m| m.name.starts_with("pool/")) {
        crate::pool_xp::fresh_pool_metrics(&mut fresh);
    }

    // Source 5: the serve benchmark (serve/... names) — a live daemon on a
    // TCP loopback socket driven over the StreamIt suite. Energies, the
    // warm/cold equality count, and cache counters gate (the serialized
    // request order makes them deterministic); latencies advise; the byte
    // figure carries an unknown unit and stays skipped. A socket failure
    // leaves the metrics unmatched rather than aborting the whole check.
    if needed.iter().any(|m| m.name.starts_with("serve/")) {
        match crate::serve_xp::serve_bench(seed) {
            Ok(b) => crate::serve_xp::fresh_serve_metrics(&b, &mut fresh),
            Err(e) => eprintln!("bench-check: serve benchmark unavailable: {e}"),
        }
    }

    // Source 6: the dominance-pruning benchmark (prune/... names).
    // Energies, feasible-point counts, scan ratios, bound gaps, and
    // complete-transition counts gate — all deterministic — while the
    // sweep walls advise.
    if needed.iter().any(|m| m.name.starts_with("prune/")) {
        for s in crate::prune_xp::prune_bench(seed) {
            let prefix = format!("prune/{}", s.workload);
            fresh.insert(
                format!("{prefix}/feasible_points"),
                s.feasible_points() as f64,
            );
            if let Some(med) = median(s.energies.iter().flatten().copied().collect()) {
                fresh.insert(format!("{prefix}/median_energy"), med);
            }
            if let Some(ratio) = s.scan_ratio() {
                fresh.insert(format!("{prefix}/scan_ratio"), ratio);
            }
            fresh.insert(format!("{prefix}/bound_gap_max"), s.bound_gap_max());
            if let Some(pairs) = s.complete_transitions {
                fresh.insert(format!("{prefix}/complete_transitions"), pairs as f64);
            }
            fresh.insert(format!("{prefix}/pruned_wall"), s.wall_ms);
            for (width, ms) in s.oneshot_walls {
                fresh.insert(format!("{prefix}/oneshot_wall_w{width}"), ms);
            }
        }
    }

    // Source 7: the fault-injection remap campaign (incremental/...
    // names). Energies, regrets, event counts, and the speedup-median
    // gate bit gate (the seeded fault chain and the solvers are
    // deterministic, and every remap solve is asserted bit-identical to
    // its cold rebuild while the campaign runs); raw walls and per-
    // workflow speedups advise.
    if needed.iter().any(|m| m.name.starts_with("incremental/")) {
        let campaigns = crate::incremental_xp::incremental_bench(seed);
        crate::incremental_xp::fresh_incremental_metrics(&campaigns, &mut fresh);
    }

    // Source 8: the DPA2D nested-DP benchmark (dpa2d/... names). The
    // DP's work counts gate; the cold solve walls advise.
    if needed.iter().any(|m| m.name.starts_with("dpa2d/")) {
        for (name, value, _) in crate::dpa2d_xp::dpa2d_bench(seed) {
            fresh.insert(name, value);
        }
    }

    fresh
}

/// Loads the given `BENCH_*.json` files, recomputes what it can, and
/// compares. Returns the per-metric checks and whether the gate passed
/// (no deterministic metric out of tolerance).
pub fn bench_check_files(
    paths: &[std::path::PathBuf],
    tolerance: f64,
    seed: u64,
    solvers: &[Arc<dyn Solver>],
) -> Result<(Vec<Check>, bool), String> {
    let mut metrics = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        metrics.extend(parse_bench_metrics(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let fresh = compute_fresh_metrics(&metrics, seed, solvers);
    let checks = compare(&metrics, |name| fresh.get(name).copied(), tolerance);
    let ok = checks.iter().all(|c| c.status != Status::Fail);
    Ok((checks, ok))
}

/// Text report: one row per metric, gate verdict last.
pub fn check_text(checks: &[Check], tolerance: f64) -> String {
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.unit.clone(),
                format!("{:.6e}", c.committed),
                c.fresh.map_or("-".into(), |f| format!("{f:.6e}")),
                c.rel.map_or("-".into(), |r| format!("{:+.2}%", r * 1e2)),
                c.status.label().to_string(),
            ]
        })
        .collect();
    let gated = checks
        .iter()
        .filter(|c| matches!(c.status, Status::Pass | Status::Fail))
        .count();
    let failed = checks.iter().filter(|c| c.status == Status::Fail).count();
    let mut out = fmt_table(
        &format!(
            "bench-check (tolerance {:.1}% on deterministic metrics)",
            tolerance * 1e2
        ),
        &["metric", "unit", "committed", "fresh", "drift", "status"],
        &rows,
    );
    out.push_str(&format!(
        "gate: {gated} deterministic metrics checked, {failed} failed\n"
    ));
    out
}

/// Default gate files: the committed benchmarks this repository records.
pub fn default_bench_files(repo_root: &Path) -> Vec<std::path::PathBuf> {
    [
        "BENCH_topology.json",
        "BENCH_portfolio.json",
        "BENCH_sweep.json",
        "BENCH_pool.json",
        "BENCH_serve.json",
        "BENCH_prune.json",
        "BENCH_incremental.json",
        "BENCH_dpa2d.json",
    ]
    .iter()
    .map(|f| repo_root.join(f))
    .filter(|p| p.exists())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    #[test]
    fn parses_both_bench_shapes() {
        let text = r#"{"results": [
            {"name": "a", "value": 2.0, "unit": "J"},
            {"name": "b", "median_ns": 150.0, "mean_ns": 160.0, "samples": 10}
        ]}"#;
        let m = parse_bench_metrics(text).unwrap();
        assert_eq!(m[0], metric("a", 2.0, "J"));
        assert_eq!(m[1], metric("b", 150.0, "ns"));
        assert!(parse_bench_metrics("{}").is_err());
    }

    #[test]
    fn deterministic_metrics_gate_time_metrics_advise() {
        let metrics = vec![
            metric("e/ok", 1.0, "J"),
            metric("e/regressed", 1.0, "J"),
            metric("t/slow", 100.0, "ms"),
            metric("unknown", 5.0, "J"),
        ];
        let fresh = |name: &str| match name {
            "e/ok" => Some(1.004),      // within 5%
            "e/regressed" => Some(2.0), // 2x regression
            "t/slow" => Some(1000.0),   // 10x slower, but time => advisory
            _ => None,
        };
        let checks = compare(&metrics, fresh, 0.05);
        assert_eq!(checks[0].status, Status::Pass);
        assert_eq!(checks[1].status, Status::Fail);
        assert_eq!(checks[2].status, Status::Advisory);
        assert_eq!(checks[3].status, Status::Skipped);
        assert!(checks.iter().any(|c| c.status == Status::Fail));
        // The exact acceptance shape: a committed median artificially
        // regressed by 2x must fail, identical values must pass.
        let identical = compare(&[metric("e/x", 3.0, "J")], |_| Some(3.0), 0.05);
        assert_eq!(identical[0].status, Status::Pass);
        let doubled = compare(&[metric("e/x", 6.0, "J")], |_| Some(3.0), 0.05);
        assert_eq!(doubled[0].status, Status::Fail);
        // Speedups are ratios of wall times, so they advise too — a slow
        // CI runner must not fail the gate on them.
        let sp = compare(&[metric("s/x", 4.0, "speedup")], |_| Some(1.0), 0.05);
        assert_eq!(sp[0].status, Status::Advisory);
    }

    #[test]
    fn zero_committed_values_do_not_divide_by_zero() {
        let checks = compare(&[metric("z", 0.0, "J")], |_| Some(0.0), 0.05);
        assert_eq!(checks[0].status, Status::Pass);
        let checks = compare(&[metric("z", 0.0, "J")], |_| Some(1.0), 0.05);
        assert_eq!(checks[0].status, Status::Fail);
    }

    #[test]
    fn report_counts_the_gate() {
        let checks = compare(
            &[metric("a", 1.0, "J"), metric("b", 1.0, "ns")],
            |_| Some(1.0),
            0.05,
        );
        let text = check_text(&checks, 0.05);
        assert!(text.contains("1 deterministic metrics checked, 0 failed"));
    }
}
