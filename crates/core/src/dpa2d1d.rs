//! The `DPA2D1D` heuristic (paper §5.4).
//!
//! Runs the `DPA2D` nested dynamic program on a **virtual `1 × r` CMP**
//! (`r = p·q`), then lays the resulting one-row allocation along the snake
//! embedding of the physical grid. Because consecutive snake positions are
//! physically adjacent, the virtual horizontal links map one-to-one onto
//! snake links: loads, bandwidth checks and hop energies carry over exactly,
//! so the snake-routed mapping validates whenever the virtual DP succeeded.
//!
//! The paper motivates this as the cheap 1D fallback: near-optimal on long,
//! low-communication graphs, while avoiding `DPA1D`'s exponential ideal
//! lattice on high-elevation graphs.

use cmp_mapping::{assign_min_speeds, Mapping, RouteSpec};
use cmp_platform::{snake_core, RoutePolicy};

use crate::common::{validated_with, Failure, Solution};
use crate::dpa2d::dpa2d_alloc;
use crate::instance::Instance;
use crate::solver::SolveCtx;

/// Runs `DPA2D1D`: `DPA2D` on a virtual `1 × pq` platform, snaked onto the
/// physical grid and validated with the instance's cached snake route
/// table.
pub(crate) fn dpa2d1d_run(inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
    let (spg, pf, period) = (inst.spg(), inst.platform(), inst.period());
    if pf.is_faulted() {
        // The virtual 1×r platform cannot express faults at physical
        // coordinates; other solvers cover faulted platforms.
        return Err(Failure::NoValidMapping(
            "DPA2D1D does not support faulted platforms".into(),
        ));
    }
    let r = pf.n_cores() as u32;
    let virt = pf.reshaped(1, r);
    let (valloc, _) = dpa2d_alloc(spg, &virt, period, ctx).0?;
    // Virtual core (0, j) becomes snake position j on the physical grid.
    let alloc: Vec<_> = valloc
        .into_iter()
        .map(|c| {
            debug_assert_eq!(c.u, 0);
            snake_core(pf, c.v as usize)
        })
        .collect();
    let speed = assign_min_speeds(spg, pf, &alloc, period)
        .ok_or_else(|| Failure::NoValidMapping("speed assignment failed".into()))?;
    let mapping = Mapping {
        alloc,
        speed,
        routes: RouteSpec::Snake,
    };
    let table = inst.route_table(RoutePolicy::Snake);
    validated_with(spg, pf, mapping, period, Some(&table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_platform::Platform;
    use spg::{chain, parallel_many};

    #[test]
    fn pipeline_uses_all_snake_cores_when_needed() {
        // Unlike DPA2D (capped at q cores on a pipeline), DPA2D1D can use
        // all p*q snake positions.
        let pf = Platform::paper(4, 4);
        let g = chain(&[0.9e9; 8], &[1e3; 7]);
        let sol = dpa2d1d_run(&Instance::new(g, pf, 1.0), &SolveCtx::new(0)).unwrap();
        assert_eq!(sol.eval.active_cores, 8);
    }

    #[test]
    fn loose_period_single_core() {
        let pf = Platform::paper(4, 4);
        let g = chain(&[1e6; 10], &[1e3; 9]);
        let sol = dpa2d1d_run(&Instance::new(g, pf, 1.0), &SolveCtx::new(0)).unwrap();
        assert_eq!(sol.eval.active_cores, 1);
    }

    #[test]
    fn fork_join_succeeds() {
        let pf = Platform::paper(4, 4);
        // Light shared source/sink (merged weights add up). On a 1×r
        // virtual CMP each x-level lands on a single core, so one level's
        // three parallel stages (3 × 0.3e9 cycles) must fit the fastest
        // speed together.
        let branches: Vec<_> = (0..3)
            .map(|_| chain(&[1e3, 0.3e9, 0.3e9, 1e3], &[1e4; 3]))
            .collect();
        let g = parallel_many(&branches);
        let sol = dpa2d1d_run(&Instance::new(g, pf, 1.0), &SolveCtx::new(0)).unwrap();
        assert!(sol.eval.active_cores >= 2);
    }

    #[test]
    fn infeasible_fails() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[3e9, 1.0], &[1.0]);
        assert!(dpa2d1d_run(&Instance::new(g, pf, 1.0), &SolveCtx::new(0)).is_err());
    }
}
