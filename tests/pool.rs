//! Worker-pool determinism tests (persistent work-stealing shim): solver
//! outputs must depend only on `(instance, solver set, seed)` — never on
//! how many workers the pool has or how stealing interleaves the jobs.
//!
//! Every pinned comparison runs the *same* portfolio/sweep on explicit
//! 1-, 2-, and 4-worker pools ([`rayon::ThreadPool::install`]) and
//! demands bit-identical energies. The 1-worker leg doubles as the
//! sequential-fallback check: `Portfolio`, `PeriodSweep`, and the DPA1D
//! relaxation all skip their fan-outs outright when
//! [`rayon::current_num_threads`] is 1, so agreement here proves the
//! fallback and the parallel path compute the same thing.

use cmp_platform::Platform;
use ea_core::solvers::default_heuristics;
use ea_core::{Instance, PeriodSweep, Portfolio};
use spg::{streamit_workflow, STREAMIT_SPECS};

const SEED: u64 = 2011;

/// Energy-or-failure signature of one outcome set.
fn energy_bits(runs: &[ea_core::SolveOutcome]) -> Vec<(String, Option<u64>)> {
    runs.iter()
        .map(|r| (r.name.clone(), r.energy().map(f64::to_bits)))
        .collect()
}

fn des_instance() -> Instance {
    let spec = STREAMIT_SPECS.iter().find(|s| s.name == "DES").unwrap();
    let g = streamit_workflow(spec, SEED);
    let hi = 2.0 * g.total_work() / (8.0 * 1e9);
    Instance::new(g, Platform::paper(4, 4), hi)
}

#[test]
fn portfolio_is_deterministic_across_worker_counts() {
    let inst = des_instance();
    let run_with = |workers: usize| {
        let pool = rayon::ThreadPool::new(workers);
        pool.install(|| {
            let report = Portfolio::new(default_heuristics()).seeded(SEED).run(&inst);
            energy_bits(&report.runs)
        })
    };
    let one = run_with(1);
    assert!(one.iter().any(|(_, e)| e.is_some()), "nothing solved");
    assert_eq!(one, run_with(2), "2-worker portfolio diverged");
    assert_eq!(one, run_with(4), "4-worker portfolio diverged");
}

#[test]
fn sweep_is_deterministic_across_worker_counts() {
    let inst = des_instance();
    let grid = PeriodSweep::geometric(inst.period(), inst.period() / 8.0, 5);
    let run_with = |workers: usize| {
        let pool = rayon::ThreadPool::new(workers);
        pool.install(|| {
            let report =
                PeriodSweep::over_periods(Portfolio::heuristics().seeded(SEED), grid.clone())
                    .run(&inst);
            report
                .points
                .iter()
                .map(|p| (p.period.to_bits(), energy_bits(&p.runs)))
                .collect::<Vec<_>>()
        })
    };
    let one = run_with(1);
    assert_eq!(one.len(), 5);
    assert_eq!(one, run_with(2), "2-worker sweep diverged");
    assert_eq!(one, run_with(4), "4-worker sweep diverged");
}

#[test]
fn nested_sweep_inside_installed_pool_completes() {
    // A sweep fans out over points, and each point's DPA1D relaxation may
    // fan out again from inside a worker — the nested case the persistent
    // pool must run inline without deadlock or oversubscription.
    let inst = des_instance();
    let grid = PeriodSweep::geometric(inst.period(), inst.period() / 4.0, 4);
    let pool = rayon::ThreadPool::new(2);
    let report = pool.install(|| {
        PeriodSweep::over_periods(Portfolio::heuristics().seeded(SEED), grid).run(&inst)
    });
    assert_eq!(report.points.len(), 4);
    // Every point must have been solved (feasibly or not — the tightest
    // periods are legitimately infeasible); the loosest point must be
    // feasible so the relaxation actually ran.
    for p in &report.points {
        assert!(!p.runs.is_empty(), "point at T={} ran no solvers", p.period);
    }
    assert!(
        report.points[0].runs.iter().any(|r| r.energy().is_some()),
        "loosest point must be feasible"
    );
}
