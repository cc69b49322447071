//! Dominance-pruning integration tests (ISSUE 8): the state-reduction
//! layer's correctness contract is that it is *invisible* in exact output
//! and *certified* when it is not exact.
//!
//! Pinned here:
//!
//! * a bounded skeleton built under the sweep's loosest period serves
//!   every tighter point with outcomes identical to from-scratch solves;
//! * a `frontier_cap`-truncated solve brackets the true optimum within
//!   its certified `bound_gap` instead of failing;
//! * the workloads whose complete transition systems overflow the 1M
//!   edge cap (BitonicSort tight, and a ≥256-stage generated SPG) finish
//!   a 16-point decade sweep with zero budget aborts.
//!
//! That pruning is invisible in exact output is checked against an
//! independent brute-force optimum in `tests/complexity_results.rs`.

use std::sync::Arc;

use cmp_platform::Platform;
use ea_bench::prune_xp::huge_workload;
use ea_core::solvers::Dpa1d;
use ea_core::sweep::PeriodSweep;
use ea_core::{Dpa1dConfig, Failure, Instance, SolveCtx, Solver};
use spg::{streamit_workflow, Spg, STREAMIT_SPECS};

const SEED: u64 = 2011;

/// The decade anchor used by every sweep artifact in this repository.
fn anchor(g: &Spg) -> f64 {
    2.0 * g.total_work() / (8.0 * 1e9)
}

#[test]
fn bounded_skeleton_matches_from_scratch_at_every_point() {
    // The huge workload's complete transition system overflows the edge
    // cap, so the shared sweep instance runs on a bounded skeleton built
    // under the loosest period. Every point must still match a fresh
    // single-period instance bit for bit — outcome, energy, and prune
    // telemetry alike.
    let (name, g) = huge_workload(SEED);
    let pf = Platform::paper(4, 4);
    let hi = anchor(&g);
    let grid = PeriodSweep::geometric(hi, hi / 10.0, 6);
    let solvers: Vec<Arc<dyn Solver>> = vec![Arc::new(Dpa1d::default())];

    let base = Instance::new(g.clone(), pf.clone(), hi);
    let report = PeriodSweep::over_periods(solvers.clone(), grid.clone())
        .seeded(SEED)
        .parallel(false)
        .run(&base);

    for (point, &t) in report.points.iter().zip(&grid) {
        let fresh = Instance::new(g.clone(), pf.clone(), t);
        let scratch = Dpa1d::default().solve(&fresh, &SolveCtx::new(SEED));
        match (&point.runs[0].result, &scratch) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.energy().to_bits(),
                    b.energy().to_bits(),
                    "{name}: swept energy diverged at T={t}"
                );
                assert_eq!(
                    a.prune, b.prune,
                    "{name}: prune telemetry diverged at T={t}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("{name}: outcome mismatch at T={t}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn frontier_cap_certifies_a_bound_instead_of_failing() {
    // DES at its anchor is exactly solvable; a frontier cap of 1 keeps
    // only the cheapest state per (ideal, speed) row, so the solve is
    // truncated — it must still return a solution, carrying a certified
    // gap that brackets the true optimum.
    let spec = STREAMIT_SPECS.iter().find(|s| s.name == "DES").unwrap();
    let g = streamit_workflow(spec, SEED);
    let hi = anchor(&g);
    let inst = Instance::new(g, Platform::paper(4, 4), hi);
    let ctx = SolveCtx::new(SEED);

    let exact = Dpa1d::default()
        .solve(&inst, &ctx)
        .expect("DES anchor is feasible");
    assert_eq!(exact.bound_gap(), 0.0);

    let capped = Dpa1d {
        cfg: Dpa1dConfig {
            frontier_cap: 1,
            ..Dpa1dConfig::default()
        },
    };
    let truncated = capped
        .solve(&inst, &ctx)
        .expect("a truncated frontier must degrade to a bounded solution, not fail");
    let gap = truncated.bound_gap();
    assert!(
        truncated.energy() >= exact.energy(),
        "truncation cannot beat the optimum"
    );
    assert!(
        truncated.energy() - gap <= exact.energy(),
        "true optimum {} must lie within the certified gap {gap} below {}",
        exact.energy(),
        truncated.energy()
    );
    let stats = truncated
        .prune
        .expect("truncated solves report prune stats");
    assert!(stats.frontier_max >= 1);
}

#[test]
fn huge_workloads_sweep_the_decade_under_the_edge_cap() {
    // The acceptance pin: BitonicSort and a ≥256-stage generated workload
    // complete a 16-point decade sweep under the default 1M edge cap with
    // zero budget aborts — every point either solves or proves infeasible.
    let bitonic = STREAMIT_SPECS
        .iter()
        .find(|s| s.name == "BitonicSort")
        .unwrap();
    let (huge_name, huge) = huge_workload(SEED);
    assert!(huge.n() >= 256);
    let targets = [
        ("BitonicSort".to_string(), streamit_workflow(bitonic, SEED)),
        (huge_name, huge),
    ];
    let pf = Platform::paper(4, 4);
    let solvers: Vec<Arc<dyn Solver>> = vec![Arc::new(Dpa1d::default())];
    for (name, g) in targets {
        let hi = anchor(&g);
        let grid = PeriodSweep::geometric(hi, hi / 10.0, 16);
        let base = Instance::new(g, pf.clone(), hi);
        let report = PeriodSweep::over_periods(solvers.clone(), grid)
            .seeded(SEED)
            .parallel(false)
            .run(&base);
        let mut feasible = 0usize;
        for p in &report.points {
            match &p.runs[0].result {
                Ok(_) => feasible += 1,
                Err(Failure::NoValidMapping(_)) => {}
                Err(f @ Failure::TooExpensive(_)) => {
                    panic!("{name}: budget abort at T={}: {f}", p.period)
                }
            }
        }
        assert!(
            feasible >= 1,
            "{name}: the loose end of the decade must solve"
        );
    }
}
