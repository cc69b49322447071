//! Period-sweep integration tests (ISSUE 5): the sweep subsystem's
//! correctness contract is *bit-identity* — sharing the lattice, the
//! transition skeleton, and the route tables across sweep points must be a
//! pure optimisation, invisible in every solver's output.
//!
//! Pinned here:
//!
//! * every sweep point's per-solver energies equal a fresh
//!   [`Instance::new`] portfolio solve at that period, to the last bit;
//! * `with_period` re-targets share one skeleton (`Arc::ptr_eq`);
//! * admission is order-independent: descending and ascending period
//!   grids produce identical per-point outcomes.

use std::sync::Arc;

use cmp_platform::Platform;
use ea_core::solvers::{default_heuristics, Dpa1d};
use ea_core::sweep::PeriodSweep;
use ea_core::{Dpa1dConfig, Instance, Portfolio, Solver};
use spg::{streamit_workflow, STREAMIT_SPECS};

const SEED: u64 = 2011;

/// Energy-or-failure signature of one portfolio/sweep outcome set.
fn energy_bits(runs: &[ea_core::SolveOutcome]) -> Vec<(String, Option<u64>)> {
    runs.iter()
        .map(|r| (r.name.clone(), r.energy().map(f64::to_bits)))
        .collect()
}

#[test]
fn sweep_points_match_independent_fresh_solves() {
    // A 6-point decade on two StreamIt workflows DPA1D handles plus one it
    // fails on (lattice cap — failure outcomes must match too).
    for wf in ["DES", "TDE", "FMRadio"] {
        let spec = STREAMIT_SPECS.iter().find(|s| s.name == wf).unwrap();
        let g = streamit_workflow(spec, SEED);
        let pf = Platform::paper(4, 4);
        let hi = 2.0 * g.total_work() / (8.0 * 1e9);
        let grid = PeriodSweep::geometric(hi, hi / 10.0, 6);

        let base = Instance::new(g.clone(), pf.clone(), hi);
        let report = PeriodSweep::over_periods(default_heuristics(), grid.clone())
            .seeded(SEED)
            .run(&base);

        for (point, &t) in report.points.iter().zip(&grid) {
            // The independent baseline: a brand-new instance, no shared
            // caches, same portfolio seed.
            let fresh = Instance::new(g.clone(), pf.clone(), t);
            let fresh_report = Portfolio::new(default_heuristics())
                .seeded(SEED)
                .parallel(false)
                .run(&fresh);
            assert_eq!(
                energy_bits(&point.runs),
                energy_bits(&fresh_report.runs),
                "{wf}: sweep point at T={t} diverged from a fresh solve"
            );
        }
    }
}

#[test]
fn skeleton_is_shared_across_with_period_retargets() {
    let spec = STREAMIT_SPECS.iter().find(|s| s.name == "DES").unwrap();
    let g = streamit_workflow(spec, SEED);
    let inst = Instance::new(g, Platform::paper(4, 4), 1.0);
    let cfg = Dpa1dConfig::default();
    let a = inst.transition_skeleton(&cfg).unwrap().unwrap();
    let b = inst
        .with_period(0.01)
        .transition_skeleton(&cfg)
        .unwrap()
        .unwrap();
    assert!(
        Arc::ptr_eq(&a, &b),
        "with_period must share the transition skeleton"
    );
    assert!(a.n_transitions() > 0);
    // A different edge cap large enough for the complete set reuses the
    // same skeleton: the cap bounds only what gets built.
    let larger = Dpa1dConfig {
        edge_cap: 10 * cfg.edge_cap,
        ..cfg.clone()
    };
    let c = inst.transition_skeleton(&larger).unwrap().unwrap();
    assert!(Arc::ptr_eq(&a, &c));
}

#[test]
fn admission_is_direction_independent() {
    // A descending decade and its ascending reverse must produce the same
    // outcome at every period: admission is a pure threshold over the
    // skeleton, never stateful in the sweep order.
    let spec = STREAMIT_SPECS
        .iter()
        .find(|s| s.name == "MPEG2-noparser")
        .unwrap();
    let g = streamit_workflow(spec, SEED);
    let base = Instance::new(g, Platform::paper(4, 4), 1.0);
    let hi = 2.0 * base.spg().total_work() / (8.0 * 1e9);
    let descending = PeriodSweep::geometric(hi, hi / 10.0, 10);
    let mut ascending = descending.clone();
    ascending.reverse();

    let solvers: Vec<Arc<dyn Solver>> = vec![Arc::new(Dpa1d::default())];
    let down = PeriodSweep::over_periods(solvers.clone(), descending)
        .seeded(SEED)
        .parallel(false)
        .run(&base);
    let up = PeriodSweep::over_periods(solvers, ascending)
        .seeded(SEED)
        .parallel(false)
        .run(&base);

    type PointSig = (u64, Vec<(String, Option<u64>)>);
    let mut down_pts: Vec<PointSig> = down
        .points
        .iter()
        .map(|p| (p.period.to_bits(), energy_bits(&p.runs)))
        .collect();
    let mut up_pts: Vec<PointSig> = up
        .points
        .iter()
        .map(|p| (p.period.to_bits(), energy_bits(&p.runs)))
        .collect();
    down_pts.sort_by_key(|(t, _)| *t);
    up_pts.sort_by_key(|(t, _)| *t);
    assert_eq!(down_pts, up_pts, "sweep direction must not matter");
    // The feasibility count is monotone along the period axis: once a
    // point is feasible for DPA1D, every looser point in the grid is too
    // (the admitted transition set only grows with the period).
    let feasible: Vec<bool> = down_pts
        .iter()
        .map(|(_, runs)| runs[0].1.is_some())
        .collect();
    let first_feasible = feasible.iter().position(|&f| f);
    if let Some(i) = first_feasible {
        assert!(
            feasible[i..].iter().all(|&f| f),
            "feasibility must be monotone in the period: {feasible:?}"
        );
    }
}
