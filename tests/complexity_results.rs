//! Tests tied to the paper's §4 complexity results: they cannot "test
//! NP-hardness", but they exercise the constructions behind the proofs and
//! the polynomial algorithm of Theorem 1.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::ideal::enumerate_ideals;
use spg::{chain, parallel_many, Spg};
use spg_cmp::prelude::*;

/// Exact solve through the session API.
fn exact_solve(g: &Spg, pf: &Platform, t: f64) -> Result<Solution, Failure> {
    solvers::Exact::default().solve(&Instance::new(g.clone(), pf.clone(), t), &SolveCtx::new(0))
}

/// `DPA1D` solve through the session API.
fn dpa1d_solve(g: &Spg, pf: &Platform, t: f64) -> Result<Solution, Failure> {
    solvers::Dpa1d::default().solve(&Instance::new(g.clone(), pf.clone(), t), &SolveCtx::new(0))
}

/// Proposition 1's reduction gadget: a fork-join of n branches on two
/// single-speed cores can meet period S/2 iff the branch weights admit a
/// 2-partition. We check both directions on solvable and unsolvable
/// instances via the exhaustive solver.
#[test]
fn proposition1_two_partition_gadget() {
    let two_cores = Platform {
        power: PowerModel::single(1.0, 1.0, 0.0),
        bw: 1e15,
        e_bit: 0.0,
        ..Platform::paper(1, 2)
    };
    let gadget = |weights: &[f64]| -> Spg {
        let branches: Vec<Spg> = weights
            .iter()
            .map(|&w| chain(&[0.0, w, 0.0], &[0.0, 0.0]))
            .collect();
        parallel_many(&branches)
    };
    // {1,2,3,4}: S = 10, 2-partition exists (1+4 | 2+3) -> T = 5 feasible.
    let g = gadget(&[1.0, 2.0, 3.0, 4.0]);
    assert!(exact_solve(&g, &two_cores, 5.0).is_ok());
    // {1,1,3}: S = 5; no equal split -> T = 2.5 infeasible, T = 3 feasible.
    let g = gadget(&[1.0, 1.0, 3.0]);
    assert!(exact_solve(&g, &two_cores, 2.5).is_err());
    assert!(exact_solve(&g, &two_cores, 3.0).is_ok());
}

/// Theorem 1's counting argument: a fork-join of `ymax` chains of length
/// `n/ymax` asymptotically meets the `n^ymax` admissible-subgraph bound;
/// check the exact closed form `(len+1)^ymax + 2` on small instances.
#[test]
fn theorem1_ideal_count_closed_form() {
    for (branches, inner) in [(2usize, 3usize), (3, 3), (4, 2)] {
        let parts: Vec<Spg> = (0..branches)
            .map(|_| chain(&vec![1.0; inner + 2], &vec![0.0; inner + 1]))
            .collect();
        let g = parallel_many(&parts);
        let lat = enumerate_ideals(&g, 1_000_000).unwrap();
        let expect = (inner + 1).pow(branches as u32) + 2;
        assert_eq!(lat.len(), expect, "branches={branches}, inner={inner}");
    }
}

/// Theorem 1: on a uni-directional uni-line CMP, the DP is optimal for
/// bounded-elevation SPGs. On a pipeline the order ideals are the
/// prefixes, so the oracle enumerates every contiguous split.
#[test]
fn theorem1_dp_matches_bruteforce_on_chains() {
    let pf = Platform::paper(1, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    use rand::Rng;
    for _ in 0..10 {
        let n = rng.gen_range(4..8);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1e8..6e8)).collect();
        let volumes: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(1e5..1e7)).collect();
        let g = chain(&weights, &volumes);
        assert_matches_oracle(&g, &pf, 1.0);
    }
}

/// Theorem 1 on general SPGs: `DPA1D` equals the brute-force uni-line
/// optimum over every chain of order ideals, and both sides agree on
/// feasibility — seeded random SPGs with up to 7 stages, elevation 1–3,
/// compute-heavy (CCR 10) and communication-heavy (CCR 0.1), on three
/// snakes, over a period grid from loose (one slow core) to infeasible.
/// The paper's links are fast enough that this traffic never saturates
/// them, so a fourth, narrow-link 2×2 makes the bandwidth constraint bind.
/// A frontier-capped solve must bracket the same optimum with its
/// certified gap.
#[test]
fn theorem1_dp_matches_bruteforce_on_random_spgs() {
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    use rand::Rng;
    let capped = solvers::Dpa1d {
        cfg: Dpa1dConfig {
            frontier_cap: 1,
            ..Dpa1dConfig::default()
        },
    };
    let (mut feasible, mut infeasible) = (0usize, 0usize);
    let narrow = Platform {
        bw: Platform::paper(2, 2).bw / 10.0,
        ..Platform::paper(2, 2)
    };
    for pf in [
        Platform::paper(1, 4),
        Platform::paper(2, 2),
        Platform::paper(2, 3),
        narrow,
    ] {
        for ccr in [10.0, 0.1] {
            for elevation in 1..=3u32 {
                for _ in 0..3 {
                    let cfg = SpgGenConfig {
                        n: rng.gen_range(spg::generate::min_stages_for_elevation(elevation)..=7),
                        elevation,
                        ccr: Some(ccr),
                        ..SpgGenConfig::default()
                    };
                    let g = spg::generate::random_spg(&cfg, &mut rng);
                    let t0 = g.total_work() / pf.power.max_freq();
                    for scale in [2.0, 1.0, 0.5, 0.3, 0.15] {
                        let t = t0 * scale;
                        match assert_matches_oracle(&g, &pf, t) {
                            Some(opt) => {
                                feasible += 1;
                                let inst = Instance::new(g.clone(), pf.clone(), t);
                                let sol = capped
                                    .solve(&inst, &SolveCtx::new(0))
                                    .expect("truncation never costs feasibility");
                                let slack = 1e-9 * opt;
                                assert!(sol.energy() >= opt - slack);
                                assert!(
                                    sol.energy() - sol.bound_gap() <= opt + slack,
                                    "certified gap {} below {} must reach the optimum {opt}",
                                    sol.bound_gap(),
                                    sol.energy()
                                );
                            }
                            None => infeasible += 1,
                        }
                    }
                }
            }
        }
    }
    assert!(
        feasible >= 50 && infeasible >= 20,
        "the grid must exercise both outcomes ({feasible} feasible, {infeasible} infeasible)"
    );
}

/// Solves `g` with `DPA1D` and checks it against [`brute_force_uniline`]:
/// equal energies within 1e-9 relative, or both infeasible. Returns the
/// optimum.
fn assert_matches_oracle(g: &Spg, pf: &Platform, t: f64) -> Option<f64> {
    let brute = brute_force_uniline(g, pf, t);
    match (dpa1d_solve(g, pf, t), brute) {
        (Ok(dp), Some(b)) => assert!(
            (dp.energy() - b).abs() <= 1e-9 * b,
            "DP {} vs brute-force {b} at T={t}",
            dp.energy()
        ),
        (Err(_), None) => {}
        (dp, brute) => panic!(
            "feasibility disagreement at T={t}: dp={:?}, brute={brute:?}",
            dp.map(|s| s.energy())
        ),
    }
    brute
}

/// Minimal-energy uni-line mapping by exhaustive search over every chain
/// of order ideals `∅ ⊂ I₁ ⊂ … ⊂ I_k = V` with at most one cluster per
/// core: cluster `j` is `I_j \ I_{j−1}`, runs on snake core `j` at its
/// slowest feasible speed, and the link after core `j` carries the cut
/// volume of `I_j`. This is the search space of Theorem 1's DP, walked
/// with none of its machinery (no skeleton, no admission thresholds, no
/// pruning).
fn brute_force_uniline(g: &Spg, pf: &Platform, t: f64) -> Option<f64> {
    struct Oracle<'a> {
        pf: &'a Platform,
        t: f64,
        weights: Vec<f64>,
        ideals: Vec<Vec<bool>>,
        cuts: Vec<f64>,
        full: usize,
    }
    impl Oracle<'_> {
        fn search(&self, cur: usize, clusters: usize, energy: f64, best: &mut Option<f64>) {
            if cur == self.full {
                let total = energy + self.pf.p_leak_comm * self.t;
                if best.is_none_or(|b| total < b) {
                    *best = Some(total);
                }
                return;
            }
            if clusters == self.pf.n_cores() {
                return;
            }
            // The link out of `cur` feeds the next cluster (the empty
            // ideal has none).
            let cut = self.cuts[cur];
            if cut > self.t * self.pf.bw * (1.0 + 1e-9) {
                return;
            }
            let hop = if cur == 0 {
                0.0
            } else {
                self.pf.hop_energy(cut)
            };
            for next in 0..self.ideals.len() {
                let (a, b) = (&self.ideals[cur], &self.ideals[next]);
                if next == cur || (0..a.len()).any(|i| a[i] && !b[i]) {
                    continue; // not a strict superset
                }
                let w: f64 = (0..a.len())
                    .filter(|&i| b[i] && !a[i])
                    .map(|i| self.weights[i])
                    .sum();
                if let Some(e) = self.pf.power.best_compute_energy(w, self.t) {
                    self.search(next, clusters + 1, energy + hop + e, best);
                }
            }
        }
    }
    let lattice = enumerate_ideals(g, 1_000_000).unwrap();
    let oracle = Oracle {
        pf,
        t,
        weights: (0..g.n()).map(|i| g.weight(StageId(i as u32))).collect(),
        ideals: lattice
            .iter()
            .map(|s| (0..g.n()).map(|i| s.contains(i)).collect())
            .collect(),
        cuts: lattice.iter().map(|s| g.cut_volume(s)).collect(),
        full: lattice.full_id().idx(),
    };
    assert_eq!(lattice.empty_id().idx(), 0);
    let mut best = None;
    oracle.search(0, 0, 0.0, &mut best);
    best
}

/// §4.2's intuition: with a single speed and unit stage costs, a period of
/// 1 forces a one-to-one mapping (any two co-located stages double the
/// cycle-time).
#[test]
fn unit_speed_unit_cost_forces_one_to_one() {
    let pf = Platform {
        power: PowerModel::single(1.0, 1.0, 0.0),
        bw: 1e15,
        e_bit: 0.0,
        ..Platform::paper(1, 4)
    };
    let g = chain(&[1.0; 4], &[1.0; 3]);
    let sol = exact_solve(&g, &pf, 1.0).unwrap();
    assert_eq!(sol.eval.active_cores, 4);
    // Five unit stages cannot fit four cores at period 1.
    let g5 = chain(&[1.0; 5], &[1.0; 4]);
    assert!(exact_solve(&g5, &pf, 1.0).is_err());
}

/// Bounded elevation is what keeps DPA1D polynomial: the unbounded
/// fork-join family blows past any fixed ideal cap (the NP-hard regime of
/// Proposition 1), while fixed-elevation families stay enumerable.
#[test]
fn elevation_separates_tractable_from_explosive() {
    // Fixed elevation 3, growing n: lattice grows polynomially.
    for n in [12usize, 24, 48] {
        let parts: Vec<Spg> = (0..3)
            .map(|_| chain(&vec![1.0; n / 3], &vec![0.0; n / 3 - 1]))
            .collect();
        let g = parallel_many(&parts);
        let lat = enumerate_ideals(&g, 1_000_000).unwrap();
        assert!(lat.len() <= (n + 1).pow(3));
    }
    // Elevation ~ n/2: explosion.
    let parts: Vec<Spg> = (0..16).map(|_| chain(&[1.0; 4], &[0.0; 3])).collect();
    let g = parallel_many(&parts);
    assert!(enumerate_ideals(&g, 100_000).is_err());
}
