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
//! ## Memory discipline
//!
//! The nested DP allocates nothing per candidate. Its buffers live in one
//! `Scratch`, reused by every column: one y-sorted stage array per column
//! (a group is a slice of it, membership an O(1) label test), the inner
//! cell table, and one candidate `ColState`. A candidate placement is
//! written into that scratch state with `Vec::clone_from` (reusing its
//! buffers) and **swapped** into its target cell only when it improves
//! it, so the losing state's buffers become the next candidate's. Outer
//! cells keep only their own column — its `(stage, row)` list, its
//! outgoing distribution and an `m′` back-pointer — and the allocation is
//! rebuilt once, by walking the back-pointers from the best final cell.
//! The horizontal crossing of a cell's distribution is checked once, when
//! the cell is filled. The solve context's deadline is polled once per
//! outer cell.
//!
//! ## Work that cannot change the answer
//!
//! The DP skips three kinds of work, none of which any path to the answer
//! reads:
//! 1. **Occupied levels only.** A column of a few `x`-levels holds stages
//!    on only a few of the `ymax` `y`-levels. The inner DP runs over the
//!    *ranks* `0..=k` of the column's `k` occupied levels, not over
//!    `0..=ymax`.
//! 2. **No dead inner cell.** A placement onto the last core row
//!    (`u + 1 = p`) is made only when it closes the column (rank `k`):
//!    cells of the last row never expand, so only `(k, p)` among them is
//!    read. The group's work is still summed, and the period still ends the
//!    scan at the same group.
//! 3. **No dead outer cell.** In the last layer `vmax`, only `(xmax,
//!    vmax)` is filled: nothing reads the others.
//!
//! Rule 1 gives the same answer to the bit. In the full-level DP, cells
//! `(g, u)` whose `g` lies between the same two occupied levels hold the
//! same placed stages. By induction over the levels, they are equal: each
//! receives the same distinct candidates — the same group slice, the same
//! work (summed stage by stage in the same order, empty levels adding
//! nothing), the same `place_group` inputs (membership only ever tests
//! stages of the column, whose levels are occupied) — in the same
//! source-rank order, duplicates of one candidate arriving back to back.
//! The strict-`<` first-arrival tie-break then keeps the same state, so
//! the rank cell holds exactly what each of its level cells held.
//!
//! `DPA2D` deliberately wastes cores on low-elevation graphs (a pipeline
//! only ever enrolls one core per column — paper §6.2.1) and shines on fat,
//! high-elevation graphs.

use std::ops::RangeInclusive;

use cmp_mapping::{assign_min_speeds, Mapping, RouteSpec, REL_TOL};
use cmp_platform::{CoreId, Platform};
use spg::{Label, Spg, StageId};

use crate::common::{validated_with, BudgetPhase, Failure, Solution};
use crate::instance::Instance;
use crate::solver::SolveCtx;

/// Runs `DPA2D` on the physical grid and validates the result with the
/// instance's cached route table for the platform's policy (row-first XY
/// on the paper's mesh).
pub(crate) fn dpa2d_run(inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
    let (spg, pf, period) = (inst.spg(), inst.platform(), inst.period());
    if pf.is_faulted() {
        // The nested column DP assumes a full rectangular grid; other
        // solvers in the portfolio cover faulted platforms.
        return Err(Failure::NoValidMapping(
            "DPA2D does not support faulted platforms".into(),
        ));
    }
    let alloc = dpa2d_alloc(spg, pf, period, ctx).0?;
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

/// Deterministic work counts of one nested DP: they pin what the DP did,
/// not how fast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Dpa2dWork {
    /// Outer cells `(m, v)` filled with a feasible column cut.
    pub outer_cells: u64,
    /// Inner column DPs run (`ecol` calls).
    pub ecol_calls: u64,
    /// Candidate placements tried (`place_group` calls).
    pub place_calls: u64,
    /// `m′` scans cut short: the column's work exceeds `p` cores at top
    /// speed.
    pub work_pruned: u64,
    /// Group scans ended by a group that misses the period at top speed.
    pub period_rejects: u64,
    /// Placements rejected by a vertical link over its bandwidth.
    pub vertical_rejects: u64,
    /// Filled cells whose outgoing distribution overflows a row's
    /// horizontal link (they cannot feed a next column).
    pub horizontal_rejects: u64,
}

/// One outgoing communication: `volume` bytes leaving the column from core
/// row `row`, destined to stage `dest` in a later column.
#[derive(Debug, Clone, Copy)]
struct OutComm {
    row: u32,
    volume: f64,
    dest: StageId,
}

/// Per-column bookkeeping of one inner-DP cell. Flat vectors of `Copy`
/// entries, so copying into a scratch state reuses its buffers.
#[derive(Debug, Default)]
struct ColState {
    /// `(stage, row)` of each stage already placed in this column (columns
    /// hold a handful of stages, so linear scans beat hashing).
    row_of: Vec<(u32, u32)>,
    /// Vertical link loads, increasing-row direction (`link i: i → i+1`).
    vload_down: Vec<f64>,
    /// Vertical link loads, decreasing-row direction (`link i: i+1 → i`).
    vload_up: Vec<f64>,
    /// Communications whose destination is not yet placed, as (row,
    /// volume, dest): the incoming ones (at their entry row) first, then
    /// intra-column edges (at their source row), in arrival order.
    pending: Vec<(u32, f64, u32)>,
    /// Distribution `D` of communications leaving this column.
    out: Vec<OutComm>,
}

impl ColState {
    /// Makes `self` a copy of `src` without reallocating buffers that are
    /// already large enough.
    fn copy_from(&mut self, src: &ColState) {
        self.row_of.clone_from(&src.row_of);
        self.vload_down.clone_from(&src.vload_down);
        self.vload_up.clone_from(&src.vload_up);
        self.pending.clone_from(&src.pending);
        self.out.clone_from(&src.out);
    }

    /// Adds `vol` bytes to every vertical link between `from_row` and
    /// `to_row` (direction-aware), checking bandwidth, and returns the hop
    /// energy.
    fn add_vertical(
        &mut self,
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
        let loads = if to_row > from_row {
            &mut self.vload_down
        } else {
            &mut self.vload_up
        };
        for link in &mut loads[a..b] {
            *link += vol;
            if *link > bw_cap {
                return None;
            }
        }
        Some(pf.hop_energy(vol) * (b - a) as f64)
    }
}

/// Inner DP cell: y-levels `1..=g` placed on the column's first `u` rows.
#[derive(Debug, Default)]
struct InnerCell {
    live: bool,
    energy: f64,
    state: ColState,
}

/// Outer DP cell: x-levels `1..=m` placed on columns `0..v`.
struct OuterCell {
    energy: f64,
    /// Distribution `D` leaving column `v − 1`.
    dist: Vec<OutComm>,
    /// `(stage, row)` of the stages column `v − 1` holds.
    row_of: Vec<(u32, u32)>,
    /// Back-pointer: the last x-level of columns `0..v−1`.
    mp: usize,
    /// Hop energy of `dist` crossing into column `v`; `None` when a row's
    /// horizontal link would overflow.
    cross: Option<f64>,
}

/// The DP's reusable buffers (see the module docs) and its work counts.
#[derive(Default)]
struct Scratch {
    /// The column's stages sorted by y-level, stable in `by_x` order.
    stages: Vec<StageId>,
    /// `y_start[y]`: index in `stages` of the first stage at level `y`
    /// (`ymax + 2` entries).
    y_start: Vec<usize>,
    /// Counting-sort fill cursor.
    cursor: Vec<usize>,
    /// `levels[r]`: the column's `r`-th occupied y-level (`levels[0] = 0`
    /// stands for "nothing placed yet").
    levels: Vec<u32>,
    /// `ends[r]`: index in `stages` just past the stages of ranks `..=r`.
    ends: Vec<usize>,
    /// Inner DP table, `(k + 1) × (p + 1)` for `k` occupied levels,
    /// rank-major.
    cells: Vec<InnerCell>,
    /// Where a candidate placement is built.
    cand: ColState,
    /// Per-row horizontal load of one crossing.
    row_load: Vec<f64>,
    work: Dpa2dWork,
}

/// The inputs every cell of one nested DP shares.
struct Dp<'a> {
    spg: &'a Spg,
    pf: &'a Platform,
    period: f64,
    bw_cap: f64,
    p: usize,
    ymax: usize,
    /// Stages per x-level.
    by_x: Vec<Vec<StageId>>,
    /// Per-level work prefix sums, for pruning.
    work_prefix: Vec<f64>,
    /// What `p` cores hold at top speed in one period.
    cap_column: f64,
}

/// The stage→core allocation computed by the nested DP, on the grid of
/// `pf` (which may be a virtual `1 × r` platform for `DPA2D1D`), with the
/// DP's work counts. The deadline is polled once per outer cell.
pub(crate) fn dpa2d_alloc(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    ctx: &SolveCtx,
) -> (Result<Vec<CoreId>, Failure>, Dpa2dWork) {
    let xmax = spg.xmax() as usize;
    let tol = 1.0 + REL_TOL;
    let cap_work = period * pf.power.max_freq() * tol;

    let mut by_x: Vec<Vec<StageId>> = vec![Vec::new(); xmax + 1];
    for s in spg.stages() {
        by_x[spg.label(s).x as usize].push(s);
    }
    let mut work_prefix = vec![0.0f64; xmax + 1];
    for x in 1..=xmax {
        work_prefix[x] = work_prefix[x - 1] + by_x[x].iter().map(|s| spg.weight(*s)).sum::<f64>();
    }
    let dp = Dp {
        spg,
        pf,
        period,
        bw_cap: period * pf.bw * tol,
        p: pf.p as usize,
        ymax: spg.elevation() as usize,
        by_x,
        work_prefix,
        cap_column: pf.p as f64 * cap_work,
    };

    // layers[v][m]: outer cell (m, v). Layers past xmax stay empty, and
    // layer 0 stands for "no previous column".
    let vmax = (pf.q as usize).min(xmax);
    let mut layers: Vec<Vec<Option<OuterCell>>> = Vec::with_capacity(vmax + 1);
    layers.push(Vec::new());
    let mut s = Scratch::default();
    for v in 1..=vmax {
        let mut layer: Vec<Option<OuterCell>> = Vec::with_capacity(xmax + 1);
        layer.resize_with(v, || None);
        for m in v..=xmax {
            // Only (xmax, v) is ever read from the last layer.
            if v == vmax && m < xmax {
                layer.push(None);
                continue;
            }
            if ctx.expired() {
                return (Err(Failure::budget(BudgetPhase::Deadline, 0, 0)), s.work);
            }
            let feeds_next = v < vmax && m < xmax;
            layer.push(dp.outer_cell(&layers[v - 1], v, m, feeds_next, &mut s));
        }
        layers.push(layer);
    }

    let best_v = (1..=vmax)
        .filter(|&v| layers[v][xmax].is_some())
        .min_by(|&a, &b| {
            let energy = |v: usize| layers[v][xmax].as_ref().expect("filtered").energy;
            energy(a)
                .partial_cmp(&energy(b))
                .expect("energies are finite")
        });
    let Some(best_v) = best_v else {
        return (
            Err(Failure::NoValidMapping("no feasible column cut".into())),
            s.work,
        );
    };
    let mut alloc: Vec<Option<CoreId>> = vec![None; spg.n()];
    let (mut m, mut v) = (xmax, best_v);
    while v > 0 {
        let cell = layers[v][m]
            .as_ref()
            .expect("back-pointers name filled cells");
        for &(sid, row) in &cell.row_of {
            alloc[sid as usize] = Some(CoreId {
                u: row,
                v: (v - 1) as u32,
            });
        }
        (m, v) = (cell.mp, v - 1);
    }
    let alloc = alloc
        .into_iter()
        .map(|c| c.ok_or_else(|| Failure::NoValidMapping("stage left unplaced".into())))
        .collect();
    (alloc, s.work)
}

impl Dp<'_> {
    /// Fills outer cell `(m, v)` from layer `prev` (`v − 1`): scans `m′`
    /// downwards and keeps the argmin column. Only a cell that `feeds_next`
    /// (a later cell can extend it) has its horizontal crossing checked.
    fn outer_cell(
        &self,
        prev: &[Option<OuterCell>],
        v: usize,
        m: usize,
        feeds_next: bool,
        s: &mut Scratch,
    ) -> Option<OuterCell> {
        // m' = index of the last level of the previous columns; v = 1
        // has no previous column (m' = 0, empty distribution).
        let (lo, hi) = if v == 1 { (0, 0) } else { (v - 1, m - 1) };
        let mut best: Option<(f64, usize)> = None;
        let mut best_col = ColState::default();
        for mp in (lo..=hi).rev() {
            // Work-based pruning: this column cannot hold more than p
            // cores' worth of cycles (monotone in the range size).
            if self.work_prefix[m] - self.work_prefix[mp] > self.cap_column {
                s.work.work_pruned += 1;
                break;
            }
            let (prev_energy, h_energy, d_in): (f64, f64, &[OutComm]) = if v == 1 {
                (0.0, 0.0, &[])
            } else {
                let Some(prev) = prev[mp].as_ref() else {
                    continue;
                };
                let Some(h) = prev.cross else {
                    continue;
                };
                (prev.energy, h, &prev.dist)
            };
            let Some((col_energy, col)) = self.ecol(s, mp + 1, m, d_in) else {
                continue;
            };
            let cand = prev_energy + h_energy + col_energy;
            if best.is_none_or(|(e, _)| cand < e) {
                best = Some((cand, mp));
                std::mem::swap(&mut best_col, col);
            }
        }
        let (energy, mp) = best?;
        s.work.outer_cells += 1;
        let cross = if feeds_next {
            self.horizontal_crossing(&best_col.out, s)
        } else {
            None
        };
        Some(OuterCell {
            energy,
            dist: best_col.out,
            row_of: best_col.row_of,
            mp,
            cross,
        })
    }

    /// Per-row bandwidth check and hop energy for a distribution crossing
    /// one column boundary.
    fn horizontal_crossing(&self, dist: &[OutComm], s: &mut Scratch) -> Option<f64> {
        s.row_load.clear();
        s.row_load.resize(self.p, 0.0);
        let mut energy = 0.0;
        for c in dist {
            s.row_load[c.row as usize] += c.volume;
            energy += self.pf.hop_energy(c.volume);
        }
        if s.row_load.iter().any(|&load| load > self.bw_cap) {
            s.work.horizontal_rejects += 1;
            None
        } else {
            Some(energy)
        }
    }

    /// Inner DP: places the stages of x-levels `m1..=m2` onto the `p` cores
    /// of one column, given the incoming distribution `d_in`. Returns the
    /// column's energy (compute + vertical hops) and its final state
    /// (including the outgoing distribution), which lives in `s` until the
    /// next call.
    fn ecol<'s>(
        &self,
        s: &'s mut Scratch,
        m1: usize,
        m2: usize,
        d_in: &[OutComm],
    ) -> Option<(f64, &'s mut ColState)> {
        s.work.ecol_calls += 1;
        let (p, ymax) = (self.p, self.ymax);
        let labels = self.spg.labels();
        let weights = self.spg.weights();
        let xs = m1 as u32..=m2 as u32;

        // The column's stages sorted by y-level (a stable counting sort).
        let levels = &self.by_x[m1..=m2];
        s.y_start.clear();
        s.y_start.resize(ymax + 2, 0);
        for &st in levels.iter().flatten() {
            s.y_start[labels[st.idx()].y as usize + 1] += 1;
        }
        for y in 1..ymax + 2 {
            s.y_start[y] += s.y_start[y - 1];
        }
        s.cursor.clone_from(&s.y_start);
        s.stages.clear();
        s.stages.resize(s.y_start[ymax + 1], StageId(0));
        for &st in levels.iter().flatten() {
            let y = labels[st.idx()].y as usize;
            s.stages[s.cursor[y]] = st;
            s.cursor[y] += 1;
        }

        // The occupied levels, by rank. Stages at level 0 (below every
        // group) stay unplaced, as they always have.
        s.levels.clear();
        s.ends.clear();
        s.levels.push(0);
        s.ends.push(s.y_start[1]);
        for y in 1..=ymax {
            if s.y_start[y + 1] > s.y_start[y] {
                s.levels.push(y as u32);
                s.ends.push(s.y_start[y + 1]);
            }
        }
        let k = s.levels.len() - 1;

        // Initial state: split incoming communications into deliveries
        // (dest in this column) and pass-throughs (re-emitted at the same
        // row).
        let width = p + 1;
        let n_cells = (k + 1) * width;
        if s.cells.len() < n_cells {
            s.cells.resize_with(n_cells, InnerCell::default);
        }
        for cell in &mut s.cells[..n_cells] {
            cell.live = false;
        }
        let init = &mut s.cells[0];
        init.live = true;
        init.energy = 0.0;
        let st = &mut init.state;
        st.row_of.clear();
        st.pending.clear();
        st.out.clear();
        for loads in [&mut st.vload_down, &mut st.vload_up] {
            loads.clear();
            loads.resize(p.saturating_sub(1), 0.0);
        }
        for c in d_in {
            if xs.contains(&labels[c.dest.idx()].x) {
                st.pending.push((c.row, c.volume, c.dest.0));
            } else {
                st.out.push(*c);
            }
        }

        // Cell (r, u): the stages of ranks 1..=r placed on the first u rows.
        for r in 0..=k {
            for u in 0..p {
                let from = r * width + u;
                if !s.cells[from].live {
                    continue;
                }
                let base_energy = s.cells[from].energy;
                // The group's work, summed stage by stage in group order.
                let mut work = 0.0;
                for r2 in r..=k {
                    let group = &s.stages[s.ends[r]..s.ends[r2]];
                    if r2 > r {
                        for st in &s.stages[s.ends[r2 - 1]..s.ends[r2]] {
                            work += weights[st.idx()];
                        }
                    }
                    let compute = if group.is_empty() {
                        0.0
                    } else {
                        // Work only grows with r2: once the group misses
                        // the period at top speed, so does every larger
                        // one.
                        let Some(e) = self.pf.power.best_compute_energy(work, self.period) else {
                            s.work.period_rejects += 1;
                            break;
                        };
                        e
                    };
                    // The last row's cells never expand: only (k, p) of
                    // them is ever read.
                    if u + 1 == p && r2 < k {
                        continue;
                    }
                    s.work.place_calls += 1;
                    let placed = self.place_group(
                        &s.cells[from].state,
                        &mut s.cand,
                        group,
                        (&xs, s.levels[r] + 1..=s.levels[r2]),
                        u as u32,
                        compute,
                    );
                    let Some(cost) = placed else {
                        s.work.vertical_rejects += 1;
                        continue;
                    };
                    let cand = base_energy + cost;
                    let to = &mut s.cells[r2 * width + u + 1];
                    if !to.live || cand < to.energy {
                        to.live = true;
                        to.energy = cand;
                        std::mem::swap(&mut to.state, &mut s.cand);
                    }
                }
            }
        }

        let last = &mut s.cells[k * width + p];
        if !last.live {
            return None;
        }
        debug_assert!(last.state.pending.is_empty(), "undelivered comms");
        Some((last.energy, &mut last.state))
    }

    /// Places one y-group on core row `row` of the current column: copies
    /// `src` into `dst` (reusing `dst`'s buffers) and applies the
    /// placement there. The group is the column's stages whose labels
    /// fall in `(xs, ys)`; `compute` is its compute energy. Returns the
    /// placement's energy, or `None` when a vertical link's bandwidth
    /// would be violated.
    fn place_group(
        &self,
        src: &ColState,
        dst: &mut ColState,
        group: &[StageId],
        (xs, ys): (&RangeInclusive<u32>, RangeInclusive<u32>),
        row: u32,
        compute: f64,
    ) -> Option<f64> {
        dst.copy_from(src);
        if group.is_empty() {
            return Some(0.0);
        }
        let (pf, bw_cap) = (self.pf, self.bw_cap);
        let labels = self.spg.labels();
        let member = |l: Label| xs.contains(&l.x) && ys.contains(&l.y);
        let mut cost = compute;
        for s in group {
            dst.row_of.push((s.0, row));
        }

        // Deliver the pending communications destined to this group.
        let mut kept = 0;
        for i in 0..dst.pending.len() {
            let (from_row, vol, dest) = dst.pending[i];
            if member(labels[dest as usize]) {
                cost += dst.add_vertical(pf, from_row, row, vol, bw_cap)?;
            } else {
                dst.pending[kept] = dst.pending[i];
                kept += 1;
            }
        }
        dst.pending.truncate(kept);

        // Outgoing edges of the newly placed stages.
        for s in group {
            for (_, e) in self.spg.out_edges(*s) {
                let d = e.dst;
                let label = labels[d.idx()];
                if member(label) {
                    continue; // same core, free
                }
                if xs.contains(&label.x) {
                    let placed = dst.row_of.iter().find(|&&(sid, _)| sid == d.0);
                    if let Some(&(_, rd)) = placed {
                        cost += dst.add_vertical(pf, row, rd, e.volume, bw_cap)?;
                    } else {
                        dst.pending.push((row, e.volume, d.0));
                    }
                } else {
                    dst.out.push(OutComm {
                        row,
                        volume: e.volume,
                        dest: d,
                    });
                }
            }
        }
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::validated;
    use cmp_platform::RouteOrder;
    use spg::{chain, parallel_many, SpgGenConfig};
    use std::collections::HashSet;

    fn run(inst: &Instance, ctx: SolveCtx) -> Result<Solution, Failure> {
        dpa2d_run(inst, &ctx)
    }

    #[test]
    fn single_column_when_period_is_loose() {
        let pf = Platform::paper(4, 4);
        let g = chain(&[1e6; 10], &[1e3; 9]);
        let sol = run(&Instance::new(g, pf, 1.0), SolveCtx::new(0)).unwrap();
        assert_eq!(sol.eval.active_cores, 1, "a loose pipeline fits one core");
    }

    #[test]
    fn pipeline_can_only_use_one_core_per_column() {
        // Paper §6.2.1: on a pipeline, DPA2D enrolls at most q cores.
        let pf = Platform::paper(4, 4);
        let g = chain(&[0.9e9; 8], &[1e3; 7]);
        // 8 stages of 0.9e9 cycles at T=1s need 8 cores -> must fail with
        // only 4 columns.
        assert!(run(&Instance::new(g, pf.clone(), 1.0), SolveCtx::new(0)).is_err());
        // 4 stages fit (one per column).
        let g = chain(&[0.9e9; 4], &[1e3; 3]);
        let sol = run(&Instance::new(g, pf, 1.0), SolveCtx::new(0)).unwrap();
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
        let sol = run(&Instance::new(g, pf, 1.0), SolveCtx::new(0)).unwrap();
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
            if let Ok(alloc) = dpa2d_alloc(&g, &pf, t, &SolveCtx::new(0)).0 {
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
        assert!(run(&Instance::new(g, pf, 1.0), SolveCtx::new(0)).is_err());
    }

    /// The work counts of two fixed 20-stage instances on 3×3, one solved
    /// and one failing, between them exercising every rejection cause, and
    /// of Vocoder on 4×4 at utilisation 0.3 (elevation 17, so most levels
    /// of a column are empty) as `DPA2D` and `DPA2D1D` (on `1 × 16`) run
    /// the DP. The counts must not depend on the pool width.
    #[test]
    fn work_counts_are_pinned_and_width_independent() {
        use rand::SeedableRng;
        let random = |seed| {
            let cfg = SpgGenConfig {
                n: 20,
                elevation: 3,
                ccr: Some(0.01),
                ..Default::default()
            };
            spg::random_spg(&cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
        };
        let vocoder = vocoder_4x4();
        let cases = [
            (
                "seed 1",
                random(1),
                Platform::paper(3, 3),
                0.005,
                true,
                Dpa2dWork {
                    outer_cells: 19,
                    ecol_calls: 80,
                    place_calls: 482,
                    work_pruned: 0,
                    period_rejects: 96,
                    vertical_rejects: 22,
                    horizontal_rejects: 4,
                },
            ),
            (
                "seed 5",
                random(5),
                Platform::paper(3, 3),
                0.003,
                false,
                Dpa2dWork {
                    outer_cells: 8,
                    ecol_calls: 25,
                    place_calls: 140,
                    work_pruned: 7,
                    period_rejects: 51,
                    vertical_rejects: 10,
                    horizontal_rejects: 6,
                },
            ),
            (
                "Vocoder DPA2D",
                vocoder.spg().clone(),
                Platform::paper(4, 4),
                vocoder.period(),
                true,
                Dpa2dWork {
                    outer_cells: 65,
                    ecol_calls: 654,
                    place_calls: 45344,
                    work_pruned: 37,
                    period_rejects: 4061,
                    vertical_rejects: 0,
                    horizontal_rejects: 0,
                },
            ),
            (
                "Vocoder DPA2D1D",
                vocoder.spg().clone(),
                Platform::paper(4, 4).reshaped(1, 16),
                vocoder.period(),
                true,
                Dpa2dWork {
                    outer_cells: 241,
                    ecol_calls: 2465,
                    place_calls: 2465,
                    work_pruned: 172,
                    period_rejects: 0,
                    vertical_rejects: 0,
                    horizontal_rejects: 0,
                },
            ),
        ];
        for (name, g, pf, period, solves, expected) in cases {
            for width in [1, 2] {
                let (alloc, work) = rayon::ThreadPool::new(width)
                    .install(|| dpa2d_alloc(&g, &pf, period, &SolveCtx::new(0)));
                assert_eq!(alloc.is_ok(), solves, "{name}, width {width}");
                assert_eq!(work, expected, "{name}, width {width}");
            }
        }
    }

    fn vocoder_4x4() -> Instance {
        let spec = spg::STREAMIT_SPECS
            .iter()
            .find(|s| s.name == "Vocoder")
            .unwrap();
        let g = spg::streamit_workflow(spec, 2011);
        Instance::for_utilisation(g, Platform::paper(4, 4), 0.3)
    }

    /// The deadline is polled inside the DP, not only at solver entry.
    #[test]
    fn deadline_expires_inside_the_outer_dp() {
        let inst = vocoder_4x4();
        let ctx = SolveCtx::budgeted(0, std::time::Duration::from_millis(1));
        match run(&inst, ctx) {
            Err(Failure::TooExpensive(b)) => assert_eq!(b.phase, BudgetPhase::Deadline),
            other => panic!("expected a deadline failure, got {other:?}"),
        }
    }

    #[test]
    fn a_generous_deadline_changes_no_energy() {
        let inst = vocoder_4x4();
        let free = run(&inst, SolveCtx::new(0)).unwrap();
        let ctx = SolveCtx::budgeted(0, std::time::Duration::from_secs(3600));
        let bounded = run(&inst, ctx).unwrap();
        assert_eq!(free.energy().to_bits(), bounded.energy().to_bits());
    }
}
