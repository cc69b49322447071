//! Equivalence and cross-topology integration tests (ISSUE 3):
//!
//! * the mesh+XY backend is pinned to the pre-refactor behaviour — the
//!   per-solver StreamIt energies recorded in `BENCH_portfolio.json` (PR 2)
//!   must reproduce **bit-identically** through the route-table-driven
//!   evaluator;
//! * `evaluate` (hop-by-hop) and `evaluate_with` (precomputed table) agree
//!   bit-for-bit on every solver solution across the StreamIt suite, on
//!   every topology backend;
//! * torus and ring produce feasible mappings end-to-end (solvers →
//!   evaluate → simulate), and the torus best energy never exceeds the mesh
//!   best energy at the same period.

use std::sync::Arc;

use ea_bench::probe_instance;
use spg_cmp::prelude::*;
use stream_sim::{simulate_with, SimConfig};

use spg::{streamit_workflow, STREAMIT_SPECS};

/// The paper-campaign period used by the `BENCH_portfolio.json` anchor.
fn bench_period(g: &Spg) -> f64 {
    g.total_work() / (8.0 * 1e9)
}

/// Pin: the exact per-solver energies recorded in `BENCH_portfolio.json`
/// (workflows 1, 8, 9, 12 at seed 2011 on the paper's 4×4 mesh). A solver
/// absent from the table failed back then and must still fail.
#[test]
fn mesh_xy_energies_bit_identical_to_pre_refactor_baseline() {
    let expected: &[(usize, &[(&str, f64)])] = &[
        (
            1,
            &[
                ("Random", 0.041729053769425796),
                ("Greedy", 0.03935835809958631),
                ("DPA2D", 0.03988868079488227),
            ],
        ),
        (
            8,
            &[
                ("Random", 0.029111546618428737),
                ("DPA1D", 0.020625643095337397),
                ("DPA2D1D", 0.02265214266541305),
            ],
        ),
        (
            9,
            &[
                ("Random", 0.010821997320648783),
                ("DPA1D", 0.009582071554103367),
                ("DPA2D1D", 0.009582071554103367),
            ],
        ),
        (
            12,
            &[
                ("Random", 0.019474353010927224),
                ("DPA1D", 0.014683357241549252),
                ("DPA2D1D", 0.014683357241549252),
            ],
        ),
    ];
    let pf = Platform::paper(4, 4);
    for &(idx, solvers) in expected {
        let spec = &STREAMIT_SPECS[idx - 1];
        let g = streamit_workflow(spec, 2011);
        let inst = Instance::new(g.clone(), pf.clone(), bench_period(&g));
        let report = Portfolio::heuristics().seeded(2011).run(&inst);
        for run in &report.runs {
            let pinned = solvers
                .iter()
                .find(|(name, _)| *name == run.name)
                .map(|&(_, e)| e);
            assert_eq!(
                run.energy(),
                pinned,
                "{} on {}: energy drifted from the PR 2 baseline",
                run.name,
                spec.name
            );
        }
    }
}

/// `evaluate` and the table-driven `Instance::evaluate_mapping` agree
/// bit-for-bit on every successful solver solution, across the whole
/// StreamIt suite and all three topology backends.
#[test]
fn table_driven_evaluate_is_bit_identical_across_suite() {
    let solvers = solvers::default_heuristics();
    for kind in TopologyKind::ALL {
        let pf = Arc::new(Platform::paper_topology(kind, 4, 4));
        for spec in STREAMIT_SPECS.iter() {
            let g = Arc::new(streamit_workflow(spec, 2011));
            let t = bench_period(&g);
            let inst = Instance::from_shared(Arc::clone(&g), Arc::clone(&pf), t);
            for solver in &solvers {
                let Ok(sol) = solver.solve(&inst, &SolveCtx::new(2011)) else {
                    continue;
                };
                let plain = evaluate(&g, &pf, &sol.mapping, t).unwrap();
                let tabled = inst.evaluate_mapping(&sol.mapping).unwrap();
                assert_eq!(
                    plain.energy.to_bits(),
                    tabled.energy.to_bits(),
                    "{} / {} / {kind}",
                    solver.name(),
                    spec.name
                );
                assert_eq!(plain.comm_dynamic.to_bits(), tabled.comm_dynamic.to_bits());
                assert_eq!(
                    plain.max_cycle_time.to_bits(),
                    tabled.max_cycle_time.to_bits()
                );
                assert_eq!(sol.eval.energy.to_bits(), plain.energy.to_bits());
            }
        }
    }
}

/// End-to-end feasibility on the alternative backends: for every StreamIt
/// workflow whose mesh probe succeeds, torus and ring portfolios at the
/// same period produce a feasible best mapping that also *simulates* within
/// the bound — and the torus best energy never exceeds the mesh best
/// (wrap links only ever shorten routes).
#[test]
fn torus_and_ring_feasible_end_to_end_with_torus_dominating_mesh() {
    let mut compared = 0usize;
    for spec in STREAMIT_SPECS.iter() {
        let g = Arc::new(streamit_workflow(spec, 2011));
        let seed = 2011 ^ (spec.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mesh = Arc::new(Platform::paper(4, 4));
        let base = Instance::from_shared(Arc::clone(&g), mesh, 1.0);
        let Some(probed) = probe_instance(&base, seed) else {
            continue;
        };
        let period = probed.period();
        let mut best = Vec::new();
        for kind in TopologyKind::ALL {
            let pf = Arc::new(Platform::paper_topology(kind, 4, 4));
            let inst = Instance::from_shared(Arc::clone(&g), pf, period);
            let report = Portfolio::heuristics().seeded(seed).run(&inst);
            let Some(sol) = report.best_solution() else {
                best.push(None);
                continue;
            };
            // The winning mapping must execute: simulated steady-state
            // period within the analytic bound (small tolerance for
            // warmup effects).
            let table = inst.route_table_for(&sol.mapping);
            let sim = simulate_with(
                inst.spg(),
                inst.platform(),
                &sol.mapping,
                SimConfig::default(),
                table.as_deref(),
            )
            .unwrap_or_else(|e| panic!("{kind}/{}: simulation failed: {e}", spec.name));
            assert!(
                sim.achieved_period <= period * 1.02,
                "{kind}/{}: simulated period {} exceeds bound {period}",
                spec.name,
                sim.achieved_period
            );
            best.push(Some(sol.energy()));
        }
        if let (Some(mesh_e), Some(torus_e)) = (best[0], best[1]) {
            assert!(
                torus_e <= mesh_e * (1.0 + 1e-12),
                "{}: torus energy {torus_e} exceeds mesh energy {mesh_e}",
                spec.name
            );
            compared += 1;
        }
        // Ring feasibility is asserted by reaching here with Some or a
        // clean portfolio failure; at least the pipeline-ish workflows
        // must succeed on the ring.
        if spec.name == "TDE" || spec.name == "FFT" {
            assert!(best[2].is_some(), "{}: ring portfolio failed", spec.name);
        }
    }
    assert!(
        compared >= 8,
        "only {compared} workflows feasible on both mesh and torus"
    );
}
