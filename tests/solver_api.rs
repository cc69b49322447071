//! Tests for the solver-session API (`Instance` / `Solver` /
//! `SolverRegistry` / `Portfolio`): portfolio determinism across execution
//! modes, registry round-trips, and the probe → portfolio pipeline.

use spg::{streamit_workflow, STREAMIT_SPECS};
use spg_cmp::prelude::*;

/// A period that is tight-but-feasible for a workload on an 8-core budget.
fn period_for(g: &Spg) -> f64 {
    g.total_work() / (8.0 * 1e9)
}

/// The per-solver comparison key used by the determinism tests: name, seed,
/// and energy-or-failure text (wall times legitimately vary between runs).
fn signature(report: &PortfolioReport) -> Vec<(String, u64, Result<f64, String>)> {
    report
        .runs
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.seed,
                r.result
                    .as_ref()
                    .map(|s| s.energy())
                    .map_err(|e| e.to_string()),
            )
        })
        .collect()
}

/// Same seed ⇒ identical `PortfolioReport` (energies, failures, seeds, and
/// winner), whether the portfolio runs on a 1-worker or a 2-worker pool,
/// across the whole StreamIt suite.
#[test]
fn portfolio_is_deterministic_across_thread_modes() {
    let pf = Platform::paper(4, 4);
    for spec in STREAMIT_SPECS.iter().take(6) {
        let g = streamit_workflow(spec, 2011);
        let t = period_for(&g);
        let inst = Instance::new(g, pf.clone(), t);
        let [seq, par] = [1, 2].map(|w| {
            rayon::ThreadPool::new(w).install(|| Portfolio::heuristics().seeded(2011).run(&inst))
        });
        assert_eq!(
            signature(&par),
            signature(&seq),
            "{}: parallel vs sequential reports diverge",
            spec.name
        );
        assert_eq!(par.best, seq.best, "{}: winners diverge", spec.name);
        // And a rerun on the global pool reproduces exactly.
        let again = Portfolio::heuristics().seeded(2011).run(&inst);
        assert_eq!(signature(&par), signature(&again));
    }
}

/// Registry round-trip: every registered name resolves to a solver whose
/// `name()` is the key, case-insensitively, including through the
/// `refined:` combinator prefix.
#[test]
fn registry_roundtrip() {
    let reg = SolverRegistry::with_defaults();
    let names = reg.names();
    assert_eq!(
        names,
        ["Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D", "Exact"]
    );
    for name in names {
        assert_eq!(reg.get(name).unwrap().name(), name);
        assert_eq!(reg.get(&name.to_lowercase()).unwrap().name(), name);
        let refined = reg.get(&format!("refined:{name}")).unwrap();
        assert_eq!(refined.name(), format!("Refined({name})"));
    }
    assert!(reg.get("no-such-solver").is_none());
}

/// The probed instance reuses its caches and the portfolio wins with a
/// finite, NaN-safe best energy.
#[test]
fn probe_portfolio_pipeline() {
    let g = spg::chain(&[1e8; 6], &[1e4; 5]);
    let base = Instance::new(g, Platform::paper(2, 2), 1.0);
    let inst = ea_bench::probe_instance(&base, 3).expect("feasible chain");
    let report = Portfolio::heuristics().seeded(3).run(&inst);
    let best = report.best_energy().expect("some solver succeeds");
    assert!(best.is_finite() && best > 0.0);
    // The winner really is the minimum over the successful runs.
    let min = report
        .runs
        .iter()
        .filter_map(|r| r.energy())
        .min_by(|a, b| a.total_cmp(b))
        .unwrap();
    assert_eq!(best, min);
}
