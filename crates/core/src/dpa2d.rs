//! The `DPA2D` heuristic (paper §5.3).
//!
//! Stages are first laid on the `xmax × ymax` **virtual grid** given by
//! their labels. An outer dynamic program cuts the `x`-levels into at most
//! `q` contiguous groups, one per physical CMP column; for each candidate
//! column, an inner dynamic program cuts the `y`-levels into at most `p`
//! contiguous groups, one per core of that column.
//!
//! Communications leaving a column depart from the **row of their source
//! core**, cross horizontal links at that row (possibly across several
//! columns, for edges spanning multiple `x`-levels), and are redistributed
//! **vertically inside the destination column** — i.e. the final paths are
//! exactly row-first XY routes, which is how the resulting mapping is
//! routed and re-validated.
//!
//! As in the paper, the outgoing-communication distribution `D` is not part
//! of the DP state: each cell carries the distribution of its *argmin*
//! sub-solution (a heuristic, not an exact DP). All link bookkeeping along
//! the chosen path is exact, so the final evaluator-checked mapping agrees
//! with the DP's energy.
//!
//! `DPA2D` deliberately wastes cores on low-elevation graphs (a pipeline
//! only ever enrolls one core per column — paper §6.2.1) and shines on fat,
//! high-elevation graphs.

use std::collections::HashMap;

use cmp_mapping::{assign_min_speeds, Mapping, RouteSpec, REL_TOL};
use cmp_platform::{CoreId, Platform};
use spg::{Spg, StageId};

use crate::common::{validated_with, Failure, Solution};
use crate::instance::Instance;

/// Runs `DPA2D` on the physical grid and validates the result with the
/// instance's cached route table for the platform's policy (row-first XY
/// on the paper's mesh).
pub(crate) fn dpa2d_run(inst: &Instance) -> Result<Solution, Failure> {
    let (spg, pf, period) = (inst.spg(), inst.platform(), inst.period());
    if pf.is_faulted() {
        // The nested column DP assumes a full rectangular grid; other
        // solvers in the portfolio cover faulted platforms.
        return Err(Failure::NoValidMapping(
            "DPA2D does not support faulted platforms".into(),
        ));
    }
    let alloc = dpa2d_alloc(spg, pf, period)?;
    let speed = assign_min_speeds(spg, pf, &alloc, period)
        .ok_or_else(|| Failure::NoValidMapping("speed assignment failed".into()))?;
    let mapping = Mapping {
        alloc,
        speed,
        routes: RouteSpec::for_platform(pf),
    };
    let table = inst.route_table(pf.policy);
    validated_with(spg, pf, mapping, period, Some(&table))
}

/// One outgoing communication: `volume` bytes leaving the column from core
/// row `row`, destined to stage `dest` in a later column.
#[derive(Debug, Clone, Copy)]
struct OutComm {
    row: u32,
    volume: f64,
    dest: StageId,
}

/// Carried per-column bookkeeping (cloned along the DP's argmin path —
/// flat vectors keep those clones cheap memcpys instead of hash-map
/// rebuilds).
#[derive(Debug, Clone, Default)]
struct ColState {
    /// `(stage, row)` of each stage already placed in this column (columns
    /// hold a handful of stages, so linear scans beat hashing).
    row_of: Vec<(u32, u32)>,
    /// Vertical link loads, increasing-row direction (`link i: i → i+1`).
    vload_down: Vec<f64>,
    /// Vertical link loads, decreasing-row direction (`link i: i+1 → i`).
    vload_up: Vec<f64>,
    /// Incoming communications not yet delivered (entry row, volume, dest).
    pending_in: Vec<(u32, f64, u32)>,
    /// Intra-column edges whose destination is not yet placed
    /// (source row, volume, dest).
    pending_edge: Vec<(u32, f64, u32)>,
    /// Distribution `D` of communications leaving this column.
    out: Vec<OutComm>,
}

/// The stage→core allocation computed by the nested DP, on the grid of
/// `pf` (which may be a virtual `1 × r` platform for `DPA2D1D`).
pub(crate) fn dpa2d_alloc(spg: &Spg, pf: &Platform, period: f64) -> Result<Vec<CoreId>, Failure> {
    let xmax = spg.xmax() as usize;
    let q = pf.q as usize;
    let tol = 1.0 + REL_TOL;
    let bw_cap = period * pf.bw * tol;
    let cap_work = period * pf.power.max_freq() * tol;

    // Stages per x-level, and per-level work prefix sums for pruning.
    let mut by_x: Vec<Vec<StageId>> = vec![Vec::new(); xmax + 1];
    for s in spg.stages() {
        by_x[spg.label(s).x as usize].push(s);
    }
    let mut work_prefix = vec![0.0f64; xmax + 1];
    for x in 1..=xmax {
        work_prefix[x] = work_prefix[x - 1] + by_x[x].iter().map(|s| spg.weight(*s)).sum::<f64>();
    }

    /// Outer DP cell: levels `1..=m` on columns `0..v`.
    struct OuterCell {
        energy: f64,
        dist: Vec<OutComm>,
        alloc: Vec<Option<CoreId>>,
    }
    let mut outer: Vec<Vec<Option<OuterCell>>> = (0..=xmax)
        .map(|_| {
            let mut row = Vec::with_capacity(q + 1);
            row.resize_with(q + 1, || None);
            row
        })
        .collect();

    for v in 1..=q {
        for m in v..=xmax {
            let mut best: Option<OuterCell> = None;
            // m' = index of the last level of the previous columns; v = 1
            // has no previous column (m' = 0, empty distribution).
            let lo = if v == 1 { 0 } else { v - 1 };
            let hi = if v == 1 { 0 } else { m - 1 };
            for mp in (lo..=hi).rev() {
                // Work-based pruning: this column cannot hold more than
                // p cores' worth of cycles (monotone in the range size).
                if work_prefix[m] - work_prefix[mp] > pf.p as f64 * cap_work {
                    break;
                }
                let (prev_energy, prev_dist, prev_alloc): (
                    f64,
                    &[OutComm],
                    Option<&Vec<Option<CoreId>>>,
                ) = if v == 1 {
                    (0.0, &[], None)
                } else {
                    let Some(prev) = outer[mp][v - 1].as_ref() else {
                        continue;
                    };
                    (prev.energy, prev.dist.as_slice(), Some(&prev.alloc))
                };
                // Horizontal crossing from column v-2 to v-1: per-row
                // bandwidth check plus one hop of energy per entry.
                let Some(h_energy) = horizontal_crossing(pf, prev_dist, bw_cap) else {
                    continue;
                };
                let Some((col_energy, col_state)) =
                    ecol(spg, pf, period, &by_x, mp + 1, m, prev_dist, bw_cap)
                else {
                    continue;
                };
                let cand = prev_energy + h_energy + col_energy;
                if best.as_ref().is_none_or(|b| cand < b.energy) {
                    let mut alloc: Vec<Option<CoreId>> = match prev_alloc {
                        Some(a) => a.clone(),
                        None => vec![None; spg.n()],
                    };
                    for &(sid, row) in &col_state.row_of {
                        alloc[sid as usize] = Some(CoreId {
                            u: row,
                            v: (v - 1) as u32,
                        });
                    }
                    best = Some(OuterCell {
                        energy: cand,
                        dist: col_state.out,
                        alloc,
                    });
                }
            }
            outer[m][v] = best;
        }
    }

    let best_v = (1..=q)
        .filter(|&v| outer[xmax][v].is_some())
        .min_by(|&a, &b| {
            let ea = outer[xmax][a].as_ref().unwrap().energy;
            let eb = outer[xmax][b].as_ref().unwrap().energy;
            ea.partial_cmp(&eb).unwrap()
        })
        .ok_or_else(|| Failure::NoValidMapping("no feasible column cut".into()))?;
    let cell = outer[xmax][best_v].as_ref().unwrap();
    cell.alloc
        .iter()
        .map(|c| c.ok_or_else(|| Failure::NoValidMapping("stage left unplaced".into())))
        .collect()
}

/// Per-row bandwidth check and hop energy for a distribution crossing one
/// column boundary.
fn horizontal_crossing(pf: &Platform, dist: &[OutComm], bw_cap: f64) -> Option<f64> {
    let mut per_row: HashMap<u32, f64> = HashMap::new();
    let mut energy = 0.0;
    for c in dist {
        *per_row.entry(c.row).or_insert(0.0) += c.volume;
        energy += pf.hop_energy(c.volume);
    }
    if per_row.values().any(|&v| v > bw_cap) {
        None
    } else {
        Some(energy)
    }
}

/// Inner DP: places the stages of x-levels `m1..=m2` onto the `p` cores of
/// one column, given the incoming distribution `d_in`. Returns the column's
/// energy (compute + vertical hops) and its final state (including the
/// outgoing distribution).
#[allow(clippy::too_many_arguments)]
fn ecol(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    by_x: &[Vec<StageId>],
    m1: usize,
    m2: usize,
    d_in: &[OutComm],
    bw_cap: f64,
) -> Option<(f64, ColState)> {
    let p = pf.p as usize;
    let ymax = spg.elevation() as usize;

    // Which stages live in this column, grouped by y-level.
    let mut in_column = vec![false; spg.n()];
    let mut by_y: Vec<Vec<StageId>> = vec![Vec::new(); ymax + 1];
    for level in by_x.iter().take(m2 + 1).skip(m1) {
        for &s in level {
            in_column[s.idx()] = true;
            by_y[spg.label(s).y as usize].push(s);
        }
    }

    // Initial state: split incoming communications into deliveries (dest in
    // this column) and pass-throughs (re-emitted at the same row).
    let mut init = ColState {
        vload_down: vec![0.0; p.saturating_sub(1)],
        vload_up: vec![0.0; p.saturating_sub(1)],
        ..Default::default()
    };
    for c in d_in {
        if in_column[c.dest.idx()] {
            init.pending_in.push((c.row, c.volume, c.dest.0));
        } else {
            init.out.push(*c);
        }
    }

    // cells[g][u]: levels 1..=g placed using the first u rows.
    let mut cells: Vec<Vec<Option<(f64, ColState)>>> = vec![vec![None; p + 1]; ymax + 1];
    cells[0][0] = Some((0.0, init));

    for g in 0..=ymax {
        for u in 0..p {
            let Some((base_energy, _)) = cells[g][u].as_ref().map(|(e, _)| (*e, ())) else {
                continue;
            };
            for g2 in g..=ymax {
                // Quick dominance: skip if target already at least as good
                // with zero additional cost (empty group case handled by
                // cost >= 0).
                let group: Vec<StageId> =
                    (g + 1..=g2).flat_map(|y| by_y[y].iter().copied()).collect();
                let state = &cells[g][u].as_ref().unwrap().1;
                let Some((cost, new_state)) =
                    place_group(spg, pf, period, state, &group, &in_column, u as u32, bw_cap)
                else {
                    continue;
                };
                let cand = base_energy + cost;
                if cells[g2][u + 1].as_ref().is_none_or(|(e, _)| cand < *e) {
                    cells[g2][u + 1] = Some((cand, new_state));
                }
            }
        }
    }

    let (energy, state) = cells[ymax][p].take()?;
    debug_assert!(state.pending_in.is_empty(), "undelivered incoming comms");
    debug_assert!(state.pending_edge.is_empty(), "undelivered internal edges");
    Some((energy, state))
}

/// Places one y-group on core row `row` of the current column, updating the
/// carried state. Returns `None` when the period or a vertical link's
/// bandwidth would be violated.
#[allow(clippy::too_many_arguments)]
fn place_group(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    state: &ColState,
    group: &[StageId],
    in_column: &[bool],
    row: u32,
    bw_cap: f64,
) -> Option<(f64, ColState)> {
    if group.is_empty() {
        return Some((0.0, state.clone()));
    }
    let work: f64 = group.iter().map(|s| spg.weight(*s)).sum();
    let mut cost = pf.power.best_compute_energy(work, period)?;
    let mut st = state.clone();
    let members = |sid: u32| group.iter().any(|s| s.0 == sid);
    for s in group {
        st.row_of.push((s.0, row));
    }

    // Deliver incoming communications destined to this group.
    let mut kept = Vec::with_capacity(st.pending_in.len());
    for (from_row, vol, dest) in st.pending_in.drain(..) {
        if members(dest) {
            cost += add_vertical(
                &mut st.vload_down,
                &mut st.vload_up,
                pf,
                from_row,
                row,
                vol,
                bw_cap,
            )?;
        } else {
            kept.push((from_row, vol, dest));
        }
    }
    st.pending_in = kept;

    // Deliver intra-column edges whose destination just got placed.
    let mut kept = Vec::with_capacity(st.pending_edge.len());
    for (from_row, vol, dest) in st.pending_edge.drain(..) {
        if members(dest) {
            cost += add_vertical(
                &mut st.vload_down,
                &mut st.vload_up,
                pf,
                from_row,
                row,
                vol,
                bw_cap,
            )?;
        } else {
            kept.push((from_row, vol, dest));
        }
    }
    st.pending_edge = kept;

    // Outgoing edges of the newly placed stages.
    for s in group {
        for (_, e) in spg.out_edges(*s) {
            let d = e.dst;
            if members(d.0) {
                continue; // same core, free
            }
            if in_column[d.idx()] {
                if let Some(&(_, rd)) = st.row_of.iter().find(|&&(sid, _)| sid == d.0) {
                    cost += add_vertical(
                        &mut st.vload_down,
                        &mut st.vload_up,
                        pf,
                        row,
                        rd,
                        e.volume,
                        bw_cap,
                    )?;
                } else {
                    st.pending_edge.push((row, e.volume, d.0));
                }
            } else {
                st.out.push(OutComm {
                    row,
                    volume: e.volume,
                    dest: d,
                });
            }
        }
    }
    Some((cost, st))
}

/// Adds `vol` bytes to every vertical link between `from_row` and `to_row`
/// (direction-aware), checking bandwidth, and returns the hop energy.
fn add_vertical(
    down: &mut [f64],
    up: &mut [f64],
    pf: &Platform,
    from_row: u32,
    to_row: u32,
    vol: f64,
    bw_cap: f64,
) -> Option<f64> {
    if from_row == to_row {
        return Some(0.0);
    }
    let (a, b) = (from_row.min(to_row) as usize, from_row.max(to_row) as usize);
    let loads = if to_row > from_row { down } else { up };
    for link in loads.iter_mut().take(b).skip(a) {
        *link += vol;
        if *link > bw_cap {
            return None;
        }
    }
    Some(pf.hop_energy(vol) * (b - a) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::validated;
    use cmp_platform::RouteOrder;
    use spg::{chain, parallel_many, SpgGenConfig};
    use std::collections::HashSet;

    #[test]
    fn single_column_when_period_is_loose() {
        let pf = Platform::paper(4, 4);
        let g = chain(&[1e6; 10], &[1e3; 9]);
        let sol = dpa2d_run(&Instance::new(g, pf, 1.0)).unwrap();
        assert_eq!(sol.eval.active_cores, 1, "a loose pipeline fits one core");
    }

    #[test]
    fn pipeline_can_only_use_one_core_per_column() {
        // Paper §6.2.1: on a pipeline, DPA2D enrolls at most q cores.
        let pf = Platform::paper(4, 4);
        let g = chain(&[0.9e9; 8], &[1e3; 7]);
        // 8 stages of 0.9e9 cycles at T=1s need 8 cores -> must fail with
        // only 4 columns.
        assert!(dpa2d_run(&Instance::new(g, pf.clone(), 1.0)).is_err());
        // 4 stages fit (one per column).
        let g = chain(&[0.9e9; 4], &[1e3; 3]);
        let sol = dpa2d_run(&Instance::new(g, pf, 1.0)).unwrap();
        assert_eq!(sol.eval.active_cores, 4);
    }

    #[test]
    fn fat_graph_spreads_over_rows() {
        let pf = Platform::paper(4, 4);
        // Fork-join with 4 branches of heavy inner stages (light shared
        // source/sink — merged weights add up under parallel composition).
        let branches: Vec<_> = (0..4)
            .map(|_| chain(&[1e3, 0.8e9, 0.8e9, 1e3], &[1e4; 3]))
            .collect();
        let g = parallel_many(&branches);
        let sol = dpa2d_run(&Instance::new(g, pf, 1.0)).unwrap();
        // 8 heavy inner stages; needs well over 4 cores, across rows.
        assert!(sol.eval.active_cores > 4);
        let rows: HashSet<u32> = sol.mapping.alloc.iter().map(|c| c.u).collect();
        assert!(rows.len() > 1, "must use several rows of the grid");
    }

    #[test]
    fn dp_energy_matches_evaluator_energy() {
        let pf = Platform::paper(3, 3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        use rand::SeedableRng;
        let cfg = SpgGenConfig {
            n: 20,
            elevation: 3,
            ccr: Some(1.0),
            ..Default::default()
        };
        let g = spg::random_spg(&cfg, &mut rng);
        // DP-internal feasibility equals the evaluator's: whenever the DP
        // returns an allocation, validation must succeed.
        for t in [1.0, 0.1, 0.02] {
            if let Ok(alloc) = dpa2d_alloc(&g, &pf, t) {
                let speed = assign_min_speeds(&g, &pf, &alloc, t).unwrap();
                let m = Mapping {
                    alloc,
                    speed,
                    routes: RouteSpec::Xy(RouteOrder::RowFirst),
                };
                validated(&g, &pf, m, t).expect("DP result must validate");
            }
        }
    }

    #[test]
    fn infeasible_period_fails() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[3e9, 1.0], &[1.0]);
        assert!(dpa2d_run(&Instance::new(g, pf, 1.0)).is_err());
    }
}
