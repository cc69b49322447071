//! The `Random` heuristic (paper §5.1).
//!
//! Two-step randomized procedure, repeated ten times, keeping the best
//! valid draw:
//!
//! 1. **Random DAG-partition.** Clusters are grown sequentially. Each
//!    cluster draws a random core speed (among speeds that can execute its
//!    seed stage within the period); stages are then drawn uniformly from
//!    the list of stages whose predecessors are all assigned. A drawn stage
//!    that would push the cluster's computation past the period closes the
//!    cluster; the next cluster is seeded with the *first* stage of the
//!    current ready list, as in the paper. Sequential growth guarantees the
//!    cluster quotient is acyclic.
//! 2. **Random placement.** Clusters are mapped onto distinct cores drawn
//!    uniformly, communications follow XY routing, and the draw is kept only
//!    if no link exceeds the bandwidth-period product.

use cmp_mapping::{Mapping, RouteSpec};
use cmp_platform::{CoreId, Platform, RouteTable};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg::{Spg, StageId};

use crate::common::{better, validated_with, Failure, Solution};
use crate::instance::Instance;

/// Number of independent draws (paper §5.1: "Random calls ten times this
/// procedure").
pub const RANDOM_TRIALS: usize = 10;

/// `Random` with an explicit trial count, behind the
/// [`crate::solvers::Random`] solver: best of `trials` draws, each
/// validated against the instance's cached route table.
pub(crate) fn random_trials(
    inst: &Instance,
    seed: u64,
    trials: usize,
) -> Result<Solution, Failure> {
    let (spg, pf, period) = (inst.spg(), inst.platform(), inst.period());
    let table = inst.route_table(pf.policy);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best: Option<Solution> = None;
    for _ in 0..trials {
        best = better(best, random_once(spg, pf, period, &mut rng, &table));
    }
    best.ok_or_else(|| Failure::NoValidMapping(format!("no valid draw in {trials} trials")))
}

/// One draw of the two-step procedure; `None` when the draw is invalid.
fn random_once<R: Rng>(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    rng: &mut R,
    table: &RouteTable,
) -> Option<Solution> {
    let (clusters, speeds) = random_partition(spg, pf, period, rng)?;
    // Random one-to-one placement of clusters onto cores with a live PE
    // (identical to all cores, in identical order, on a healthy platform).
    let mut cores: Vec<CoreId> = pf.alive_cores().collect();
    if clusters.len() > cores.len() {
        return None;
    }
    cores.shuffle(rng);
    let mut alloc = vec![CoreId { u: 0, v: 0 }; spg.n()];
    let mut speed = vec![None; pf.n_cores()];
    for ((cluster, &k), &core) in clusters.iter().zip(&speeds).zip(&cores) {
        for &s in cluster {
            alloc[s.idx()] = core;
        }
        speed[core.flat(pf.q)] = Some(k);
    }
    let mapping = Mapping {
        alloc,
        speed,
        routes: RouteSpec::for_platform(pf),
    };
    validated_with(spg, pf, mapping, period, Some(table)).ok()
}

/// Step 1: a random chain of clusters respecting the DAG-partition rule and
/// the computation period, with one random speed per cluster.
fn random_partition<R: Rng>(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    rng: &mut R,
) -> Option<(Vec<Vec<StageId>>, Vec<usize>)> {
    let n = spg.n();
    let mut preds_left: Vec<usize> = (0..n).map(|i| spg.in_degree(StageId(i as u32))).collect();
    // `ready` keeps insertion order; the paper seeds the next cluster with
    // the *first* stage of the current list.
    let mut ready: Vec<StageId> = vec![spg.source()];
    let mut clusters: Vec<Vec<StageId>> = Vec::new();
    let mut speeds: Vec<usize> = Vec::new();

    let release = |s: StageId, ready: &mut Vec<StageId>, preds_left: &mut Vec<usize>| {
        for (_, e) in spg.out_edges(s) {
            preds_left[e.dst.idx()] -= 1;
            if preds_left[e.dst.idx()] == 0 {
                ready.push(e.dst);
            }
        }
    };

    while !ready.is_empty() {
        // Seed a fresh cluster with the first ready stage.
        let seed_stage = ready.remove(0);
        let m = pf.power.m();
        let feasible: Vec<usize> = (0..m)
            .filter(|&k| spg.weight(seed_stage) / pf.power.speed(k).freq <= period * (1.0 + 1e-12))
            .collect();
        let &k = feasible.as_slice().choose(rng)?;
        let cap = period * pf.power.speed(k).freq * (1.0 + 1e-12);
        let mut work = spg.weight(seed_stage);
        let mut cluster = vec![seed_stage];
        release(seed_stage, &mut ready, &mut preds_left);

        // Draw stages uniformly while the computation fits; a non-fitting
        // draw closes the cluster (paper: "as long as computations do not
        // exceed the period").
        while !ready.is_empty() {
            let idx = rng.gen_range(0..ready.len());
            if work + spg.weight(ready[idx]) > cap {
                break;
            }
            let s = ready.remove(idx);
            work += spg.weight(s);
            cluster.push(s);
            release(s, &mut ready, &mut preds_left);
        }
        clusters.push(cluster);
        speeds.push(k);
    }
    debug_assert_eq!(clusters.iter().map(|c| c.len()).sum::<usize>(), n);
    Some((clusters, speeds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_mapping::is_dag_partition;
    use rand::SeedableRng;
    use spg::{chain, SpgGenConfig};

    #[test]
    fn loose_period_succeeds_on_chain() {
        let inst = Instance::new(chain(&[1e6; 10], &[1e3; 9]), Platform::paper(4, 4), 1.0);
        let sol = random_trials(&inst, 42, RANDOM_TRIALS).unwrap();
        assert!(sol.energy() > 0.0);
    }

    #[test]
    fn impossible_period_fails() {
        let inst = Instance::new(chain(&[2e9, 2e9], &[1.0]), Platform::paper(2, 2), 1.0);
        // One stage alone already exceeds T at the fastest speed.
        assert!(random_trials(&inst, 1, RANDOM_TRIALS).is_err());
    }

    #[test]
    fn partition_is_dag_partition_and_fits_period() {
        let pf = Platform::paper(4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cfg = SpgGenConfig {
            n: 30,
            elevation: 4,
            ..Default::default()
        };
        let g = spg::random_spg(&cfg, &mut rng);
        let t = 5e-3;
        for trial in 0..20 {
            let mut r2 = ChaCha8Rng::seed_from_u64(trial);
            if let Some((clusters, speeds)) = random_partition(&g, &pf, t, &mut r2) {
                // Covers all stages exactly once.
                let mut seen = vec![false; g.n()];
                for c in &clusters {
                    for s in c {
                        assert!(!seen[s.idx()]);
                        seen[s.idx()] = true;
                    }
                }
                assert!(seen.iter().all(|&b| b));
                // Compute fits per cluster.
                for (c, &k) in clusters.iter().zip(&speeds) {
                    let w: f64 = c.iter().map(|s| g.weight(*s)).sum();
                    assert!(w / pf.power.speed(k).freq <= t * (1.0 + 1e-9));
                }
                // Chain order => DAG partition (place each cluster on its
                // own fake core along a row of a wide-enough platform).
                let wide = Platform::paper(1, clusters.len().max(1) as u32);
                let mut alloc = vec![CoreId { u: 0, v: 0 }; g.n()];
                for (j, c) in clusters.iter().enumerate() {
                    for s in c {
                        alloc[s.idx()] = CoreId { u: 0, v: j as u32 };
                    }
                }
                assert!(is_dag_partition(&g, &alloc));
                let _ = wide;
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = Instance::new(chain(&[1e6; 8], &[1e3; 7]), Platform::paper(4, 4), 0.01);
        let a = random_trials(&inst, 9, RANDOM_TRIALS).unwrap();
        let b = random_trials(&inst, 9, RANDOM_TRIALS).unwrap();
        assert_eq!(a.energy(), b.energy());
    }

    #[test]
    fn more_clusters_than_cores_fails() {
        // 5 stages, each saturating a core at top speed, on a 2x2 CMP with a
        // period that forces one stage per cluster.
        let inst = Instance::new(chain(&[0.9e9; 5], &[1.0; 4]), Platform::paper(2, 2), 1.0);
        assert!(random_trials(&inst, 3, RANDOM_TRIALS).is_err());
    }
}
