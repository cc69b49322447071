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
use std::time::{Duration, Instant};

use cmp_platform::Platform;
use ea_bench::prune_xp::huge_workload;
use ea_core::solvers::Dpa1d;
use ea_core::sweep::PeriodSweep;
use ea_core::{BudgetPhase, Dpa1dConfig, Failure, Instance, Portfolio, SolveCtx, Solver};
use spg::generate::families::{FamilyKind, FamilyParams, WorkloadSpec};
use spg::ideal::{count_ideals, cut_volumes, enumerate_ideals, ENUM_POLL_INTERVAL};
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

    // The sweep on a 1-worker and on a 2-worker pool, each from fresh
    // caches.
    let swept = [1, 2].map(|w| {
        rayon::ThreadPool::new(w).install(|| {
            let base = Instance::new(g.clone(), pf.clone(), hi);
            PeriodSweep::over_periods(Portfolio::new(solvers.clone()).seeded(SEED), grid.clone())
                .run(&base)
        })
    });

    for (i, &t) in grid.iter().enumerate() {
        let fresh = Instance::new(g.clone(), pf.clone(), t);
        let scratch = Dpa1d::default().solve(&fresh, &SolveCtx::new(SEED));
        for report in &swept {
            match (&report.points[i].runs[0].result, &scratch) {
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
    for ((name, g), w) in targets.iter().flat_map(|t| [(t, 1), (t, 2)]) {
        let hi = anchor(g);
        let grid = PeriodSweep::geometric(hi, hi / 10.0, 16);
        let base = Instance::new(g.clone(), pf.clone(), hi);
        let report = rayon::ThreadPool::new(w).install(|| {
            PeriodSweep::over_periods(Portfolio::new(solvers.clone()).seeded(SEED), grid).run(&base)
        });
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

/// A 256-stage generated workload whose interned lattice (45 052 ideals)
/// sits near the default ideal cap: enumerating it takes ~20 ms in
/// release, and its cut volumes about 2 ms more.
fn deep_lattice_workload() -> (String, Spg) {
    let params = FamilyParams {
        n: 256,
        width: 8,
        depth: 3,
        ..FamilyParams::default()
    };
    let spec = WorkloadSpec::new(FamilyKind::TgffMixed, params, 30);
    (spec.id(), spec.instantiate())
}

/// The lattice build polls the solve's deadline: a 1 ms deadline stops
/// `DPA1D` inside the enumeration of a lattice that takes far longer to
/// build, within a few poll intervals, caches no lattice, and the session
/// then builds the lattice of a fresh one.
#[test]
fn deadline_bounds_the_lattice_enumeration() {
    let (name, g) = deep_lattice_workload();
    let pf = Platform::paper(4, 4);
    let t = anchor(&g);
    let cap = Dpa1dConfig::default().ideal_cap;
    let started = Instant::now();
    let fresh = Instance::new(g.clone(), pf.clone(), t)
        .lattice(cap)
        .unwrap();
    let build = started.elapsed();
    let ideals = fresh.lattice.len();
    assert!(ideals > 16 * ENUM_POLL_INTERVAL, "{name}: {ideals} ideals");

    let inst = Instance::new(g, pf, t);
    let budget = Duration::from_millis(1);
    let started = Instant::now();
    let budgeted = Dpa1d::default().solve(&inst, &SolveCtx::budgeted(SEED, budget));
    let overshoot = started.elapsed().saturating_sub(budget);
    match &budgeted {
        Err(Failure::TooExpensive(b)) => assert_eq!(b.phase, BudgetPhase::Deadline, "{name}"),
        other => panic!("{name}: expected a deadline failure, got {other:?}"),
    }
    assert!(
        inst.cached_lattice().is_none(),
        "{name}: the deadline must stop the lattice build and not be cached"
    );
    // Between two polls the build handles `ENUM_POLL_INTERVAL` ideals;
    // allow four such intervals plus 5 ms of scheduling noise — far below
    // the nearly whole `build` an unpolled enumeration would overshoot by.
    let interval = build.mul_f64(ENUM_POLL_INTERVAL as f64 / ideals as f64);
    let bound = Duration::from_millis(5) + interval * 4;
    assert!(
        overshoot <= bound,
        "{name}: overshot a 1 ms deadline by {overshoot:?} (bound {bound:?}, build {build:?})"
    );

    let after = inst.lattice(cap).unwrap();
    assert_eq!(after.lattice.len(), ideals, "{name}");
    assert_eq!(after.cuts, fresh.cuts, "{name}");
}

/// The linear cut-volume pass (each ideal's crossing edges derived from a
/// Hasse parent's) equals `Spg::cut_volume`'s scan over every edge to the
/// bit, signed zeros included, on every ideal of: the StreamIt flows under
/// the ideal cap, the campaign's random SPGs (its `(n, elevation, CCR)`
/// cells and generator seeds, under the cap), and the 45 052-ideal
/// TgffMixed workload.
#[test]
fn linear_cut_volumes_equal_the_per_edge_scan() {
    use rand::SeedableRng;
    let cap = Dpa1dConfig::default().ideal_cap;
    let mut graphs: Vec<(String, Spg)> = STREAMIT_SPECS
        .iter()
        .map(|spec| (spec.name.to_string(), streamit_workflow(spec, 0)))
        .collect();
    for (n, elevations) in [(50, &[2, 4, 16][..]), (150, &[2, 16][..])] {
        for &elevation in elevations {
            for (ci, ccr) in [10.0, 0.1].into_iter().enumerate() {
                let cfg = spg::SpgGenConfig {
                    n,
                    elevation,
                    ccr: Some(ccr),
                    ..Default::default()
                };
                let seed = n as u64 * 1000 + u64::from(elevation) * 10 + ci as u64;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                graphs.push((
                    format!("random:n{n}:e{elevation}:ccr{ccr}:g{seed}"),
                    spg::random_spg(&cfg, &mut rng),
                ));
            }
        }
    }
    graphs.push(deep_lattice_workload());
    let mut checked = 0;
    for (name, g) in graphs {
        if count_ideals(&g).is_none_or(|n| n > cap as u128) {
            continue;
        }
        let lattice = enumerate_ideals(&g, cap).unwrap();
        let cuts = cut_volumes(&g, &lattice);
        assert_eq!(cuts.len(), lattice.len(), "{name}");
        for (id, (set, cut)) in lattice.iter().zip(&cuts).enumerate() {
            let scan = g.cut_volume(set);
            assert_eq!(cut.to_bits(), scan.to_bits(), "{name}: ideal {id}");
        }
        checked += 1;
    }
    // 7 StreamIt flows, the 6 random cells below elevation 16, TgffMixed.
    assert_eq!(checked, 14, "workloads under the ideal cap");
}
