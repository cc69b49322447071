//! Period-bound selection (paper §6.1.3).
//!
//! > "We choose T as follows: for each workflow, we start with T = 1 s.
//! > With such a period, we observe that at least one heuristic succeeds.
//! > Then we iteratively divide the period by a factor of 10 and run all
//! > heuristics under this new value until all heuristics fail. We retain
//! > the period as the penultimate value."
//!
//! A defensive upward search (multiplying by 10, a few steps) covers
//! workloads where even `T = 1 s` is infeasible — the paper never hits this
//! case, and with the XScale platform neither do our workloads.
//!
//! Implementation: `decade_walk` is the decade search over a
//! feasibility oracle and solves each probed period once; the oracle
//! (`feasible`) runs one-solver portfolios cheapest-first and stops at
//! the first success. All probed periods share one [`Instance`]'s caches —
//! in particular `DPA1D`'s interned ideal lattice is enumerated **once**
//! for the whole decade sweep (it is period-independent), where the
//! pre-0.2 probe re-enumerated it at every probed period.

use std::sync::Arc;

use cmp_platform::Platform;
use ea_core::solvers::{Dpa1d, Dpa2d, Dpa2d1d, Greedy, Random};
use ea_core::{Instance, Portfolio, Solver};
use spg::Spg;

/// Maximum upward decades tried when `T = 1 s` already fails everywhere.
const MAX_UP_DECADES: u32 = 6;
/// Maximum downward decades (safety stop; never reached in practice).
const MAX_DOWN_DECADES: u32 = 12;

/// Solvers ordered cheapest-first for the probe's short-circuit
/// evaluation: the probe only needs "at least one succeeds", so the
/// expensive dynamic programs (whose budget-exhaustion failure paths are
/// the costly case at loose periods) run only when the cheap ones fail.
pub fn probe_solvers() -> Vec<Arc<dyn Solver>> {
    vec![
        Arc::new(Greedy::default()),
        Arc::new(Random::default()),
        Arc::new(Dpa2d1d),
        Arc::new(Dpa2d),
        Arc::new(Dpa1d::default()),
    ]
}

/// Whether any of `solvers` maps `inst`. They run in order, each as a
/// one-solver portfolio (so each draws the seed it draws in a full
/// portfolio seeded with `seed`); the first success ends the loop.
fn feasible(solvers: &[Arc<dyn Solver>], inst: &Instance, seed: u64) -> bool {
    solvers.iter().any(|s| {
        Portfolio::new(vec![Arc::clone(s)])
            .seeded(seed)
            .run(inst)
            .best
            .is_some()
    })
}

/// The §6.1.3 decade search over a feasibility oracle: from `T = 1 s`,
/// divide by 10 while `succeeds` holds and return the last success; when
/// `T = 1 s` already fails, multiply by 10 (at most [`MAX_UP_DECADES`]
/// times) and return the first success, since the decade below it has
/// just failed. `None` when no probed period succeeds. Each probed period
/// is passed to `succeeds` exactly once.
fn decade_walk(mut succeeds: impl FnMut(f64) -> bool) -> Option<f64> {
    let mut t = 1.0f64;
    if !succeeds(t) {
        for _ in 0..MAX_UP_DECADES {
            t *= 10.0;
            if succeeds(t) {
                return Some(t);
            }
        }
        return None;
    }
    for _ in 0..MAX_DOWN_DECADES {
        let next = t / 10.0;
        if !succeeds(next) {
            break;
        }
        t = next;
    }
    Some(t)
}

/// Probes the period bound starting from `inst` (whatever its period is,
/// the sweep starts at `T = 1 s` per §6.1.3) and returns an instance at the
/// probed period **sharing `inst`'s caches**, or `None` when no solver
/// succeeds at any probed period.
pub fn probe_instance(inst: &Instance, seed: u64) -> Option<Instance> {
    let solvers = probe_solvers();
    decade_walk(|t| feasible(&solvers, &inst.with_period(t), seed)).map(|t| inst.with_period(t))
}

/// Probes the period bound for one workload: the smallest decade value of
/// `T` at which at least one solver still succeeds. Returns `None` when
/// no solver succeeds at any probed period.
///
/// Convenience wrapper cloning the inputs into a throwaway [`Instance`];
/// campaign code should build the instance itself and call
/// [`probe_instance`] so the solvers that follow reuse its caches.
pub fn probe_period(spg: &Spg, pf: &Platform, seed: u64) -> Option<f64> {
    probe_instance(&Instance::new(spg.clone(), pf.clone(), 1.0), seed).map(|i| i.period())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::{Failure, Solution, SolveCtx};
    use spg::chain;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn probe_finds_tight_decade_for_chain() {
        let pf = Platform::paper(2, 2);
        // 4 stages of 1e8 cycles: at T = 1 everything fits one slow core;
        // the binding constraint is 4e8 cycles over at most 4 cores at
        // 1 GHz -> T >= 0.1 s succeeds, T = 0.01 s needs 1e8 cycles in
        // 1e-2 s = 10 GHz per stage -> fails.
        let g = chain(&[1e8; 4], &[1e3; 3]);
        let t = probe_period(&g, &pf, 0).unwrap();
        assert!((t - 0.1).abs() < 1e-12, "probed {t}");
    }

    #[test]
    fn probe_none_when_hopeless() {
        // A stage heavier than fastest-speed capacity at the largest probed
        // period.
        let pf = Platform::paper(1, 1);
        let g = chain(&[1e17, 1.0], &[0.0]);
        assert!(probe_period(&g, &pf, 0).is_none());
    }

    #[test]
    fn probe_upward_search() {
        // 4e9 cycles on one core: T = 1 fails (needs 4 GHz), T = 10 works.
        let pf = Platform::paper(1, 1);
        let g = chain(&[2e9, 2e9], &[0.0]);
        let t = probe_period(&g, &pf, 0).unwrap();
        assert!((t - 10.0).abs() < 1e-9, "probed {t}");
    }

    #[test]
    fn each_probed_decade_is_solved_once() {
        // `probe_upward_search`'s chain: T = 1 s fails, T = 10 s succeeds.
        let inst = Instance::new(chain(&[2e9, 2e9], &[0.0]), Platform::paper(1, 1), 1.0);
        let solvers = probe_solvers();
        let mut probed = Vec::new();
        let t = decade_walk(|t| {
            probed.push(t);
            feasible(&solvers, &inst.with_period(t), 0)
        });
        assert_eq!(t, Some(10.0));
        assert_eq!(probed, [1.0, 10.0]);
        // Downward: 1 and 0.1 succeed, 0.01 fails (`probe_finds_tight_decade_for_chain`).
        let inst = Instance::new(chain(&[1e8; 4], &[1e3; 3]), Platform::paper(2, 2), 1.0);
        probed.clear();
        let t = decade_walk(|t| {
            probed.push(t);
            feasible(&solvers, &inst.with_period(t), 0)
        });
        assert_eq!(t, Some(0.1));
        assert_eq!(probed, [1.0, 0.1, 0.1 / 10.0]);
        // Hopeless: each of the seven periods once, then `None`.
        probed.clear();
        let t = decade_walk(|t| {
            probed.push(t);
            false
        });
        assert_eq!(t, None);
        assert_eq!(probed, [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]);
    }

    /// Counts the calls to the solver it wraps.
    struct Counted(Arc<dyn Solver>, AtomicUsize);

    impl Solver for Counted {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.solve(inst, ctx)
        }
    }

    #[test]
    fn feasible_stops_at_the_first_success() {
        let counted: Vec<Arc<Counted>> = probe_solvers()
            .into_iter()
            .map(|s| Arc::new(Counted(s, AtomicUsize::new(0))))
            .collect();
        let solvers: Vec<Arc<dyn Solver>> = counted
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn Solver>)
            .collect();
        let calls = || -> Vec<usize> {
            counted
                .iter()
                .map(|c| c.1.swap(0, Ordering::Relaxed))
                .collect()
        };
        let inst = Instance::new(chain(&[2e8; 8], &[5e4; 7]), Platform::paper(4, 4), 0.5);
        // The cheapest solver (Greedy) maps this loose instance, so it
        // alone runs.
        assert!(feasible(&solvers, &inst, 3));
        assert_eq!(calls(), [1, 0, 0, 0, 0]);
        // At a hopeless period every solver is tried, once.
        assert!(!feasible(&solvers, &inst.with_period(1e-9), 3));
        assert_eq!(calls(), [1, 1, 1, 1, 1]);
    }

    #[test]
    fn probe_instance_shares_caches() {
        let g = chain(&[1e8; 4], &[1e3; 3]);
        let base = Instance::new(g, Platform::paper(2, 2), 1.0);
        // Warm the lattice, probe, and check the probed instance reuses it.
        let before = base.lattice(60_000).unwrap();
        let probed = probe_instance(&base, 0).unwrap();
        let after = probed.lattice(60_000).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        assert!((probed.period() - 0.1).abs() < 1e-12);
    }
}
