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
//! The nested DP allocates nothing per candidate. The outer DP runs
//! m-major: for each `m`, it scans `m′` downwards, and for each `m′` it
//! runs the inner DP of every layer `v` whose scan holds `m′`, keeping a
//! running argmin per layer. Cell `(m, v)` reads only cells `(m′ < m,
//! v − 1)`, which are final by then, and each layer sees its candidates in
//! the same order as a layer-by-layer DP would.
//!
//! The buffers live in one `Scratch`, reused by every column:
//! - **One column table per `(m′, m)`.** Everything an inner DP reads that
//!   does not depend on the incoming distribution is built once per
//!   column into one reused slot, and serves every layer that scans `m′`:
//!   the column's stages sorted by y-level (a group is a slice of them),
//!   the rank of each occupied level, the edges between the column's
//!   stages with their destination's rank, and the groups' compute
//!   energies (each row filled on first use).
//! - **Scratch and swap.** A candidate placement is written into one
//!   scratch `ColState` with `Vec::clone_from` (reusing its buffers) and
//!   **swapped** into its target cell only when it improves it, so the
//!   losing state's buffers become the next candidate's. A state holds
//!   the last rank of each row used (not a stage list), the vertical link
//!   loads, and the communications still to deliver, keyed by rank.
//! - **Winners only.** A candidate carries no outgoing distribution: the
//!   inner DP never reads one. When a column becomes its layer's running
//!   argmin, its `(stage, row)` list is written out; once the scan of `m`
//!   ends, each filled outer cell that feeds a next column rebuilds its
//!   distribution, in the order the placements would have appended it.
//!
//! Outer cells keep only their own column — its `(stage, row)` list, its
//! outgoing distribution and an `m′` back-pointer — and the allocation is
//! rebuilt once, by walking the back-pointers from the best final cell.
//! The horizontal crossing of a cell's distribution is checked once, when
//! the cell is filled. The solve context's deadline is polled once per
//! column `(m′, m)` scanned.
//!
//! ## Work that cannot change the answer
//!
//! The DP skips four kinds of work, none of which any path to the answer
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
//! 4. **Shared columns, distributions for winners.** Column `m′ + 1..=m`
//!    is built once for all the layers that scan `m′`, not once per layer:
//!    only the incoming distribution differs between them. An outgoing
//!    distribution is built only for an outer cell's winner, and only when
//!    the cell feeds a next column.
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
//! Rule 4 does too: a group's compute energy is the same float whichever
//! layer asks for it, every layer scans `m′` in the same order with the
//! same tie-break, and the winner's distribution lists the same
//! communications in the same order, so its crossing sums the same.
//! `work_pruned` still counts one per outer cell whose scan is cut: when
//! the shared scan breaks at `m′`, every layer that would still have
//! scanned `m′` or below breaks with it, layer 1 (which scans only
//! `m′ = 0`) included, since prefix sums are monotone.
//!
//! `DPA2D` deliberately wastes cores on low-elevation graphs (a pipeline
//! only ever enrolls one core per column — paper §6.2.1) and shines on fat,
//! high-elevation graphs.

use std::ops::RangeInclusive;

use cmp_mapping::{assign_min_speeds, Mapping, RouteSpec, REL_TOL};
use cmp_platform::{CoreId, Platform};
use spg::{Spg, StageId};

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
    let (alloc, _) = dpa2d_alloc(spg, pf, period, ctx).0?;
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
pub struct Dpa2dWork {
    /// Outer cells `(m, v)` filled with a feasible column cut.
    pub outer_cells: u64,
    /// Inner column DPs run (`ecol` calls), one per `(m, v, m′)` scanned
    /// with a feasible previous cell.
    pub ecol_calls: u64,
    /// Candidate placements tried (`place_group` calls).
    pub place_calls: u64,
    /// Outer cells `(m, v)` whose `m′` scan is cut short: the column's
    /// work exceeds `p` cores at top speed.
    pub work_pruned: u64,
    /// Group scans ended by a group that misses the period at top speed.
    pub period_rejects: u64,
    /// Placements rejected by a vertical link over its bandwidth.
    pub vertical_rejects: u64,
    /// Filled cells whose outgoing distribution overflows a row's
    /// horizontal link (they cannot feed a next column).
    pub horizontal_rejects: u64,
    /// Column tables built, one per distinct column `m′ + 1..=m` that at
    /// least one layer runs an inner DP on; `ecol_calls` share them.
    pub columns_built: u64,
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
/// entries, so copying into a scratch state reuses its buffers. The
/// outgoing distribution is not part of it: only the outer cell's winner
/// needs one, and it is rebuilt from its placements (see
/// [`Dp::outgoing`]).
#[derive(Debug, Default)]
struct ColState {
    /// `row_end[u]`: the last rank placed on core row `u` of the rows
    /// used so far (row `u` holds ranks `row_end[u − 1] + 1..=row_end[u]`,
    /// none when the two are equal).
    row_end: Vec<u32>,
    /// Vertical link loads, increasing-row direction (`link i: i → i+1`).
    vload_down: Vec<f64>,
    /// Vertical link loads, decreasing-row direction (`link i: i+1 → i`).
    vload_up: Vec<f64>,
    /// Communications whose destination is not yet placed, as (row,
    /// volume, rank of the destination's level): the incoming ones (at
    /// their entry row) first, then intra-column edges (at their source
    /// row), in arrival order.
    pending: Vec<(u32, f64, u32)>,
}

impl ColState {
    /// Makes `self` a copy of `src` without reallocating buffers that are
    /// already large enough.
    fn copy_from(&mut self, src: &ColState) {
        self.row_end.clone_from(&src.row_end);
        self.vload_down.clone_from(&src.vload_down);
        self.vload_up.clone_from(&src.vload_up);
        self.pending.clone_from(&src.pending);
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

/// Inner DP cell: the column's ranks `1..=r` placed on its first `u` rows.
#[derive(Debug, Default)]
struct InnerCell {
    live: bool,
    energy: f64,
    state: ColState,
}

/// Outer DP cell: x-levels `1..=m` placed on columns `0..v`.
struct OuterCell {
    energy: f64,
    /// Distribution `D` leaving column `v − 1`; built only for a cell that
    /// feeds a next column (no other cell's is read).
    dist: Vec<OutComm>,
    /// `(stage, row)` of the stages column `v − 1` holds.
    row_of: Vec<(u32, u32)>,
    /// Back-pointer: the last x-level of columns `0..v−1`.
    mp: usize,
    /// Hop energy of `dist` crossing into column `v`; `None` when a row's
    /// horizontal link would overflow, or when the cell feeds nothing.
    cross: Option<f64>,
}

/// The running argmin of outer cell `(m, v)` while `m′` is scanned.
#[derive(Default)]
struct Winner {
    energy: f64,
    mp: usize,
    /// The winning column's `(stage, row)` list.
    row_of: Vec<(u32, u32)>,
}

/// The path-independent part of one column `m′ + 1..=m`: what the inner
/// DP of every layer that scans `m′` shares, whatever its incoming
/// distribution. Built once per `(m′, m)` into one reused slot.
#[derive(Default)]
struct Column {
    /// The column's x-levels, `m′ + 1..=m`.
    x_lo: u32,
    x_hi: u32,
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
    /// `rank_of_y[y]`: the rank of occupied level `y` (`ymax + 1`
    /// entries; unoccupied levels are never read).
    rank_of_y: Vec<u32>,
    /// The edges between the column's stages, as (rank of the
    /// destination's level, volume), grouped by source in `stages` order,
    /// each source's in `out_edges` order.
    intra: Vec<(u32, f64)>,
    /// `intra_start[i]`: index in `intra` of the first edge of
    /// `stages[i]` (`stages.len() + 1` entries).
    intra_start: Vec<usize>,
    /// `compute[r * (k + 1) + r2]` for `r < r2`: the compute energy of
    /// the group of ranks `r + 1..=r2`, its work summed stage by stage in
    /// group order; `None` from the first group that misses the period at
    /// top speed on. Row `r` is filled when an inner DP first expands a
    /// cell of rank `r`.
    compute: Vec<Option<f64>>,
    /// Whether row `r` of `compute` is filled.
    filled: Vec<bool>,
}

impl Column {
    /// The column's x-levels.
    fn xs(&self) -> RangeInclusive<u32> {
        self.x_lo..=self.x_hi
    }

    /// Occupied y-levels of the column (`k`).
    fn k(&self) -> usize {
        self.levels.len() - 1
    }

    /// Fills the slot with column `m1..=m2`: its stages sorted by y-level
    /// (a stable counting sort), their occupied levels by rank, and an
    /// empty `compute` table.
    fn build(&mut self, dp: &Dp, m1: usize, m2: usize) {
        let ymax = dp.ymax;
        let labels = dp.spg.labels();
        (self.x_lo, self.x_hi) = (m1 as u32, m2 as u32);
        let levels = &dp.by_x[m1..=m2];
        self.y_start.clear();
        self.y_start.resize(ymax + 2, 0);
        for &st in levels.iter().flatten() {
            self.y_start[labels[st.idx()].y as usize + 1] += 1;
        }
        for y in 1..ymax + 2 {
            self.y_start[y] += self.y_start[y - 1];
        }
        self.cursor.clone_from(&self.y_start);
        self.stages.clear();
        self.stages.resize(self.y_start[ymax + 1], StageId(0));
        for &st in levels.iter().flatten() {
            let y = labels[st.idx()].y as usize;
            self.stages[self.cursor[y]] = st;
            self.cursor[y] += 1;
        }

        // The occupied levels, by rank. Stages at level 0 (below every
        // group) stay unplaced, as they always have.
        self.levels.clear();
        self.ends.clear();
        self.rank_of_y.clear();
        self.rank_of_y.resize(ymax + 1, 0);
        self.levels.push(0);
        self.ends.push(self.y_start[1]);
        for y in 1..=ymax {
            if self.y_start[y + 1] > self.y_start[y] {
                self.rank_of_y[y] = self.levels.len() as u32;
                self.levels.push(y as u32);
                self.ends.push(self.y_start[y + 1]);
            }
        }
        let k = self.k();

        let xs = self.xs();
        self.intra.clear();
        self.intra_start.clear();
        for &st in &self.stages {
            self.intra_start.push(self.intra.len());
            for (_, e) in dp.spg.out_edges(st) {
                let label = labels[e.dst.idx()];
                if xs.contains(&label.x) {
                    let rank = self.rank_of_y[label.y as usize];
                    self.intra.push((rank, e.volume));
                }
            }
        }
        self.intra_start.push(self.intra.len());
        self.compute.clear();
        self.compute.resize((k + 1) * (k + 1), None);
        self.filled.clear();
        self.filled.resize(k + 1, false);
    }

    /// Fills row `r` of `compute` on first use: the energy of each group
    /// of ranks `r + 1..=r2`, in `r2` order. Work only grows with `r2`:
    /// once a group misses the period at top speed, so does every larger
    /// one, and the row stays `None` from there on.
    fn fill_row(&mut self, dp: &Dp, r: usize) {
        if self.filled[r] {
            return;
        }
        self.filled[r] = true;
        let k = self.k();
        let weights = dp.spg.weights();
        let mut work = 0.0;
        for r2 in r + 1..=k {
            for st in &self.stages[self.ends[r2 - 1]..self.ends[r2]] {
                work += weights[st.idx()];
            }
            let Some(e) = dp.pf.power.best_compute_energy(work, dp.period) else {
                break;
            };
            self.compute[r * (k + 1) + r2] = Some(e);
        }
    }
}

/// The DP's reusable buffers (see the module docs) and its work counts.
#[derive(Default)]
struct Scratch {
    /// The column every inner DP of the current `(m′, m)` runs on.
    column: Column,
    /// Inner DP table, `(k + 1) × (p + 1)` for `k` occupied levels,
    /// rank-major.
    cells: Vec<InnerCell>,
    /// Where a candidate placement is built.
    cand: ColState,
    /// Per-row horizontal load of one crossing.
    row_load: Vec<f64>,
    work: Dpa2dWork,
}

impl Scratch {
    /// The `(stage, row)` list of the last inner DP's final state (cell
    /// `(k, p)`), in placement order: row by row, each row's ranks in
    /// `stages` order.
    fn placements(&self, p: usize, out: &mut Vec<(u32, u32)>) {
        let col = &self.column;
        let k = col.k();
        let last = &self.cells[k * (p + 1) + p].state;
        out.clear();
        let mut start = 0;
        for (row, &end) in last.row_end.iter().enumerate() {
            for st in &col.stages[col.ends[start]..col.ends[end as usize]] {
                out.push((st.0, row as u32));
            }
            start = end as usize;
        }
    }
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

impl<'a> Dp<'a> {
    fn new(spg: &'a Spg, pf: &'a Platform, period: f64) -> Dp<'a> {
        let xmax = spg.xmax() as usize;
        let tol = 1.0 + REL_TOL;
        let cap_work = period * pf.power.max_freq() * tol;
        let mut by_x: Vec<Vec<StageId>> = vec![Vec::new(); xmax + 1];
        for s in spg.stages() {
            by_x[spg.label(s).x as usize].push(s);
        }
        let mut work_prefix = vec![0.0f64; xmax + 1];
        for x in 1..=xmax {
            work_prefix[x] =
                work_prefix[x - 1] + by_x[x].iter().map(|s| spg.weight(*s)).sum::<f64>();
        }
        Dp {
            spg,
            pf,
            period,
            bw_cap: period * pf.bw * tol,
            p: pf.p as usize,
            ymax: spg.elevation() as usize,
            by_x,
            work_prefix,
            cap_column: pf.p as f64 * cap_work,
        }
    }
}

/// The work counts of the nested DP on the grid of `pf` at `period`:
/// `DPA2D`'s on the physical grid, `DPA2D1D`'s on `pf.reshaped(1, p·q)`.
/// The benchmark harness gates on them.
pub fn work_counts(spg: &Spg, pf: &Platform, period: f64) -> Dpa2dWork {
    dpa2d_alloc(spg, pf, period, &SolveCtx::new(0)).1
}

/// The stage→core allocation computed by the nested DP, on the grid of
/// `pf` (which may be a virtual `1 × r` platform for `DPA2D1D`), and the
/// DP's own energy for it, with the DP's work counts. The deadline is polled once per column `(m′, m)`
/// scanned.
pub(crate) fn dpa2d_alloc(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    ctx: &SolveCtx,
) -> (Result<(Vec<CoreId>, f64), Failure>, Dpa2dWork) {
    let dp = Dp::new(spg, pf, period);
    let xmax = spg.xmax() as usize;

    // layers[v][m]: outer cell (m, v). Layer 0 stands for "no previous
    // column".
    let vmax = (pf.q as usize).min(xmax);
    let mut layers: Vec<Vec<Option<OuterCell>>> = (0..=vmax)
        .map(|_| (0..=xmax).map(|_| None).collect())
        .collect();
    let mut winners: Vec<Option<Winner>> = (0..=vmax).map(|_| None).collect();
    let mut s = Scratch::default();
    // m-major: cell (m, v) reads only cells (m′ < m, v − 1), all final
    // once m′ < m is done. Each column m′ + 1..=m is built once and
    // serves every layer whose scan holds m′.
    for m in 1..=xmax {
        // The layers filled at m: v <= m, and of the last layer only
        // (xmax, vmax) (nothing reads its other cells).
        let vtop = if m < xmax { vmax - 1 } else { vmax }.min(m);
        if vtop == 0 {
            continue;
        }
        // Layer 1 scans only m′ = 0 (no previous column); layer v >= 2
        // scans m′ = v − 1..=m − 1. Every layer scans m′ downwards and
        // sees its candidates in that order.
        let mp_hi = if vtop >= 2 { m - 1 } else { 0 };
        for mp in (0..=mp_hi).rev() {
            if ctx.expired() {
                return (Err(Failure::budget(BudgetPhase::Deadline, 0, 0)), s.work);
            }
            // Work-based pruning: the column cannot hold more than p
            // cores' worth of cycles. Prefix sums are monotone, so every
            // layer that would still scan m′ or below breaks here: those
            // with v − 1 <= m′, and layer 1.
            if dp.work_prefix[m] - dp.work_prefix[mp] > dp.cap_column {
                s.work.work_pruned += vtop.min(mp + 1) as u64;
                break;
            }
            let layers_here = if mp == 0 { 1..=1 } else { 2..=vtop.min(mp + 1) };
            let mut built = false;
            for v in layers_here {
                let (prev_energy, h_energy, d_in): (f64, f64, &[OutComm]) = if v == 1 {
                    (0.0, 0.0, &[])
                } else {
                    let Some(prev) = layers[v - 1][mp].as_ref() else {
                        continue;
                    };
                    let Some(h) = prev.cross else {
                        continue;
                    };
                    (prev.energy, h, &prev.dist)
                };
                if !built {
                    s.column.build(&dp, mp + 1, m);
                    s.work.columns_built += 1;
                    built = true;
                }
                let Some(col_energy) = dp.ecol(&mut s, d_in) else {
                    continue;
                };
                let cand = prev_energy + h_energy + col_energy;
                if winners[v].as_ref().is_none_or(|w| cand < w.energy) {
                    let w = winners[v].get_or_insert_with(Winner::default);
                    (w.energy, w.mp) = (cand, mp);
                    s.placements(dp.p, &mut w.row_of);
                }
            }
        }
        for v in 1..=vtop {
            let Some(Winner { energy, mp, row_of }) = winners[v].take() else {
                continue;
            };
            s.work.outer_cells += 1;
            let (dist, cross) = if v < vmax && m < xmax {
                let d_in = match &layers[v - 1][mp] {
                    Some(prev) => &prev.dist[..],
                    None => &[],
                };
                let dist = dp.outgoing(d_in, &row_of, mp as u32 + 1..=m as u32);
                let cross = dp.horizontal_crossing(&dist, &mut s);
                (dist, cross)
            } else {
                (Vec::new(), None)
            };
            layers[v][m] = Some(OuterCell {
                energy,
                dist,
                row_of,
                mp,
                cross,
            });
        }
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
    let energy = layers[best_v][xmax].as_ref().expect("filtered").energy;
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
        .collect::<Result<_, _>>()
        .map(|alloc| (alloc, energy));
    (alloc, s.work)
}

impl Dp<'_> {
    /// The distribution `D` leaving a winning column `xs`: first the
    /// pass-throughs of `d_in` (destination past the column), then, for
    /// each placed `(stage, row)` in placement order, its edges leaving
    /// the column. This is the order in which the placements append them,
    /// so crossings sum in the same order.
    fn outgoing(
        &self,
        d_in: &[OutComm],
        row_of: &[(u32, u32)],
        xs: RangeInclusive<u32>,
    ) -> Vec<OutComm> {
        let labels = self.spg.labels();
        let mut dist: Vec<OutComm> = d_in
            .iter()
            .filter(|c| !xs.contains(&labels[c.dest.idx()].x))
            .copied()
            .collect();
        for &(sid, row) in row_of {
            for (_, e) in self.spg.out_edges(StageId(sid)) {
                if !xs.contains(&labels[e.dst.idx()].x) {
                    dist.push(OutComm {
                        row,
                        volume: e.volume,
                        dest: e.dst,
                    });
                }
            }
        }
        dist
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

    /// Inner DP: places the stages of the column built in `s.column` onto
    /// the `p` cores of one column, given the incoming distribution
    /// `d_in`. Returns the column's energy (compute + vertical hops); its
    /// final state stays in `s` until the next call (see
    /// [`Scratch::placements`]).
    fn ecol(&self, s: &mut Scratch, d_in: &[OutComm]) -> Option<f64> {
        s.work.ecol_calls += 1;
        let p = self.p;
        let labels = self.spg.labels();
        let col = &mut s.column;
        let xs = col.xs();
        let k = col.k();

        // Initial state: the incoming communications destined to this
        // column (pass-throughs are re-emitted only for the winner).
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
        st.row_end.clear();
        st.pending.clear();
        for loads in [&mut st.vload_down, &mut st.vload_up] {
            loads.clear();
            loads.resize(p.saturating_sub(1), 0.0);
        }
        for c in d_in {
            let label = labels[c.dest.idx()];
            if xs.contains(&label.x) {
                let rank = col.rank_of_y[label.y as usize];
                st.pending.push((c.row, c.volume, rank));
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
                col.fill_row(self, r);
                for r2 in r..=k {
                    let compute = if r2 == r {
                        0.0
                    } else {
                        let Some(e) = col.compute[r * (k + 1) + r2] else {
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
                        col,
                        &s.cells[from].state,
                        &mut s.cand,
                        (r, r2),
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

        let last = &s.cells[k * width + p];
        if !last.live {
            return None;
        }
        debug_assert!(last.state.pending.is_empty(), "undelivered comms");
        Some(last.energy)
    }

    /// Places the group of ranks `r + 1..=r2` of column `col` on core row
    /// `row`: copies `src` into `dst` (reusing `dst`'s buffers) and
    /// applies the placement there; `compute` is the group's compute
    /// energy. Returns the placement's energy, or `None` when a vertical
    /// link's bandwidth would be violated.
    fn place_group(
        &self,
        col: &Column,
        src: &ColState,
        dst: &mut ColState,
        (r, r2): (usize, usize),
        row: u32,
        compute: f64,
    ) -> Option<f64> {
        dst.copy_from(src);
        dst.row_end.push(r2 as u32);
        let group = col.ends[r]..col.ends[r2];
        if group.is_empty() {
            return Some(0.0);
        }
        let (pf, bw_cap) = (self.pf, self.bw_cap);
        // A stage of the column is in the group iff its level's rank is in
        // r + 1..=r2, and already placed iff it is in 1..=r.
        let (member, placed) = (r as u32 + 1..=r2 as u32, 1..=r as u32);
        let mut cost = compute;

        // Deliver the pending communications destined to this group.
        let mut kept = 0;
        for i in 0..dst.pending.len() {
            let (from_row, vol, rank) = dst.pending[i];
            if member.contains(&rank) {
                cost += dst.add_vertical(pf, from_row, row, vol, bw_cap)?;
            } else {
                dst.pending[kept] = dst.pending[i];
                kept += 1;
            }
        }
        dst.pending.truncate(kept);

        // Intra-column edges of the newly placed stages; edges leaving
        // the column are left to `outgoing`.
        for &(rank, vol) in &col.intra[col.intra_start[group.start]..col.intra_start[group.end]] {
            if member.contains(&rank) {
                continue; // same core, free
            }
            if placed.contains(&rank) {
                let rd = dst
                    .row_end
                    .iter()
                    .position(|&end| end >= rank)
                    .expect("a placed rank has a row") as u32;
                cost += dst.add_vertical(pf, row, rd, vol, bw_cap)?;
            } else {
                dst.pending.push((row, vol, rank));
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
            if let Ok((alloc, _)) = dpa2d_alloc(&g, &pf, t, &SolveCtx::new(0)).0 {
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
    /// and one failing, between them exercising every rejection cause; of
    /// Vocoder on 4×4 at utilisation 0.3 (elevation 17, so most levels of
    /// a column are empty) as `DPA2D` and `DPA2D1D` (on `1 × 16`) run the
    /// DP; of Serpent on 6×6 at utilisation 0.3, where `DPA2D` fails; and
    /// of a campaign-sized n = 150 SPG (elevation 16, CCR 0.1) on 4×4 at
    /// the decade period 0.01 s as both solvers run it. The counts must
    /// not depend on the pool width.
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
        let serpent = streamit("Serpent", 6, 0.3);
        let n150 = {
            let cfg = SpgGenConfig {
                n: 150,
                elevation: 16,
                ccr: Some(0.1),
                ..Default::default()
            };
            spg::random_spg(&cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(150161))
        };
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
                    columns_built: 76,
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
                    columns_built: 25,
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
                    columns_built: 490,
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
                    columns_built: 356,
                },
            ),
            (
                "Serpent DPA2D",
                serpent.spg().clone(),
                Platform::paper(6, 6),
                serpent.period(),
                false,
                Dpa2dWork {
                    outer_cells: 136,
                    ecol_calls: 5715,
                    place_calls: 42485,
                    work_pruned: 263,
                    period_rejects: 29334,
                    vertical_rejects: 0,
                    horizontal_rejects: 0,
                    columns_built: 2487,
                },
            ),
            (
                "n150 DPA2D",
                n150.clone(),
                Platform::paper(4, 4),
                0.01,
                true,
                Dpa2dWork {
                    outer_cells: 105,
                    ecol_calls: 2066,
                    place_calls: 26239,
                    work_pruned: 124,
                    period_rejects: 7586,
                    vertical_rejects: 0,
                    horizontal_rejects: 0,
                    columns_built: 1412,
                },
            ),
            (
                "n150 DPA2D1D",
                n150,
                Platform::paper(4, 4).reshaped(1, 16),
                0.01,
                true,
                Dpa2dWork {
                    outer_cells: 602,
                    ecol_calls: 5026,
                    place_calls: 5026,
                    work_pruned: 810,
                    period_rejects: 0,
                    vertical_rejects: 0,
                    horizontal_rejects: 0,
                    columns_built: 600,
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

    fn streamit(name: &str, side: u32, utilisation: f64) -> Instance {
        let spec = spg::STREAMIT_SPECS.iter().find(|s| s.name == name).unwrap();
        let g = spg::streamit_workflow(spec, 2011);
        Instance::for_utilisation(g, Platform::paper(side, side), utilisation)
    }

    fn vocoder_4x4() -> Instance {
        streamit("Vocoder", 4, 0.3)
    }

    /// The nested DP as it stood before the m-major rewrite: layer-major,
    /// one inner DP rebuilding its column per call, and every candidate
    /// carrying its outgoing distribution. Kept as the oracle of
    /// `dpa2d_alloc`; `columns_built` counts the distinct columns its
    /// `ecol` calls ran on.
    mod oracle {
        use super::super::{Dp, Dpa2dWork, OutComm};
        use crate::common::Failure;
        use cmp_platform::{CoreId, Platform};
        use spg::{Label, StageId};
        use std::collections::HashSet;
        use std::ops::RangeInclusive;

        #[derive(Default)]
        struct ColState {
            row_of: Vec<(u32, u32)>,
            vload_down: Vec<f64>,
            vload_up: Vec<f64>,
            pending: Vec<(u32, f64, u32)>,
            out: Vec<OutComm>,
        }

        impl ColState {
            fn copy_from(&mut self, src: &ColState) {
                self.row_of.clone_from(&src.row_of);
                self.vload_down.clone_from(&src.vload_down);
                self.vload_up.clone_from(&src.vload_up);
                self.pending.clone_from(&src.pending);
                self.out.clone_from(&src.out);
            }

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

        #[derive(Default)]
        struct InnerCell {
            live: bool,
            energy: f64,
            state: ColState,
        }

        struct OuterCell {
            energy: f64,
            dist: Vec<OutComm>,
            row_of: Vec<(u32, u32)>,
            mp: usize,
            cross: Option<f64>,
        }

        #[derive(Default)]
        struct Scratch {
            stages: Vec<StageId>,
            y_start: Vec<usize>,
            cursor: Vec<usize>,
            levels: Vec<u32>,
            ends: Vec<usize>,
            cells: Vec<InnerCell>,
            cand: ColState,
            row_load: Vec<f64>,
            work: Dpa2dWork,
            columns: HashSet<(usize, usize)>,
        }

        pub(super) fn dpa2d_alloc(dp: &Dp) -> (Result<(Vec<CoreId>, f64), Failure>, Dpa2dWork) {
            let xmax = dp.spg.xmax() as usize;
            let vmax = (dp.pf.q as usize).min(xmax);
            let mut layers: Vec<Vec<Option<OuterCell>>> = Vec::with_capacity(vmax + 1);
            layers.push(Vec::new());
            let mut s = Scratch::default();
            for v in 1..=vmax {
                let mut layer: Vec<Option<OuterCell>> = Vec::with_capacity(xmax + 1);
                layer.resize_with(v, || None);
                for m in v..=xmax {
                    if v == vmax && m < xmax {
                        layer.push(None);
                        continue;
                    }
                    let feeds_next = v < vmax && m < xmax;
                    layer.push(outer_cell(dp, &layers[v - 1], v, m, feeds_next, &mut s));
                }
                layers.push(layer);
            }
            s.work.columns_built = s.columns.len() as u64;

            let best_v = (1..=vmax)
                .filter(|&v| layers[v][xmax].is_some())
                .min_by(|&a, &b| {
                    let energy = |v: usize| layers[v][xmax].as_ref().unwrap().energy;
                    energy(a).partial_cmp(&energy(b)).unwrap()
                });
            let Some(best_v) = best_v else {
                return (
                    Err(Failure::NoValidMapping("no feasible column cut".into())),
                    s.work,
                );
            };
            let energy = layers[best_v][xmax].as_ref().unwrap().energy;
            let mut alloc: Vec<Option<CoreId>> = vec![None; dp.spg.n()];
            let (mut m, mut v) = (xmax, best_v);
            while v > 0 {
                let cell = layers[v][m].as_ref().unwrap();
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
                .collect::<Result<_, _>>()
                .map(|alloc| (alloc, energy));
            (alloc, s.work)
        }

        fn outer_cell(
            dp: &Dp,
            prev: &[Option<OuterCell>],
            v: usize,
            m: usize,
            feeds_next: bool,
            s: &mut Scratch,
        ) -> Option<OuterCell> {
            let (lo, hi) = if v == 1 { (0, 0) } else { (v - 1, m - 1) };
            let mut best: Option<(f64, usize)> = None;
            let mut best_col = ColState::default();
            for mp in (lo..=hi).rev() {
                if dp.work_prefix[m] - dp.work_prefix[mp] > dp.cap_column {
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
                let Some((col_energy, col)) = ecol(dp, s, mp + 1, m, d_in) else {
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
                horizontal_crossing(dp, &best_col.out, s)
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

        fn horizontal_crossing(dp: &Dp, dist: &[OutComm], s: &mut Scratch) -> Option<f64> {
            s.row_load.clear();
            s.row_load.resize(dp.p, 0.0);
            let mut energy = 0.0;
            for c in dist {
                s.row_load[c.row as usize] += c.volume;
                energy += dp.pf.hop_energy(c.volume);
            }
            if s.row_load.iter().any(|&load| load > dp.bw_cap) {
                s.work.horizontal_rejects += 1;
                None
            } else {
                Some(energy)
            }
        }

        fn ecol<'s>(
            dp: &Dp,
            s: &'s mut Scratch,
            m1: usize,
            m2: usize,
            d_in: &[OutComm],
        ) -> Option<(f64, &'s mut ColState)> {
            s.work.ecol_calls += 1;
            s.columns.insert((m1, m2));
            let (p, ymax) = (dp.p, dp.ymax);
            let labels = dp.spg.labels();
            let weights = dp.spg.weights();
            let xs = m1 as u32..=m2 as u32;

            let levels = &dp.by_x[m1..=m2];
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

            for r in 0..=k {
                for u in 0..p {
                    let from = r * width + u;
                    if !s.cells[from].live {
                        continue;
                    }
                    let base_energy = s.cells[from].energy;
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
                            let Some(e) = dp.pf.power.best_compute_energy(work, dp.period) else {
                                s.work.period_rejects += 1;
                                break;
                            };
                            e
                        };
                        if u + 1 == p && r2 < k {
                            continue;
                        }
                        s.work.place_calls += 1;
                        let placed = place_group(
                            dp,
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
            Some((last.energy, &mut last.state))
        }

        fn place_group(
            dp: &Dp,
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
            let (pf, bw_cap) = (dp.pf, dp.bw_cap);
            let labels = dp.spg.labels();
            let member = |l: Label| xs.contains(&l.x) && ys.contains(&l.y);
            let mut cost = compute;
            for s in group {
                dst.row_of.push((s.0, row));
            }
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
            for s in group {
                for (_, e) in dp.spg.out_edges(*s) {
                    let d = e.dst;
                    let label = labels[d.idx()];
                    if member(label) {
                        continue;
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

    /// Every instance of the differential grid: `(name, graph, platform,
    /// period)` on the 2×2, 3×3, 4×4 and 6×6 grids and on their `1 × pq`
    /// reshapes, at a loose, a middling and a tight period. The light half
    /// holds seeded random SPGs of 20 and 30 stages, plus a uniform chain
    /// and a fork-join of identical branches, whose equal-energy
    /// candidates exercise the first-arrival tie-break; the heavy half
    /// holds the StreamIt flows and random SPGs of 40 and 60 stages.
    fn differential_grid(heavy: bool) -> Vec<(String, Spg, Platform, f64)> {
        use rand::SeedableRng;
        let mut graphs: Vec<(String, Spg)> = Vec::new();
        if heavy {
            for spec in spg::STREAMIT_SPECS.iter() {
                graphs.push((spec.name.to_string(), spg::streamit_workflow(spec, 2011)));
            }
        } else {
            graphs.push(("uniform chain".into(), chain(&[1e8; 12], &[1e4; 11])));
            let branch = chain(&[1e3, 5e8, 5e8, 1e3], &[1e4; 3]);
            graphs.push((
                "identical branches".into(),
                parallel_many(&[branch.clone(), branch.clone(), branch]),
            ));
        }
        let sizes: &[usize] = if heavy { &[40, 60] } else { &[20, 30] };
        for (i, &n) in sizes.iter().enumerate() {
            for elevation in [2, 4, 16] {
                for ccr in [0.1, 10.0] {
                    let cfg = SpgGenConfig {
                        n,
                        elevation,
                        ccr: Some(ccr),
                        ..Default::default()
                    };
                    let seed = 1000 * n as u64 + 10 * elevation as u64 + i as u64;
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                    graphs.push((
                        format!("random n{n} e{elevation} ccr{ccr}"),
                        spg::random_spg(&cfg, &mut rng),
                    ));
                }
            }
        }
        let grids = [2, 3, 4, 6];
        let mut cases = Vec::new();
        for (name, g) in graphs {
            for side in grids {
                let pf = Platform::paper(side, side);
                // Loose to tight: the utilisations run from a single
                // column to infeasible.
                for u in [0.05, 0.3, 0.7] {
                    let period = Instance::for_utilisation(g.clone(), pf.clone(), u).period();
                    for plat in [pf.clone(), pf.reshaped(1, side * side)] {
                        let tag = format!("{name} {}x{} u{u}", plat.p, plat.q);
                        cases.push((tag, g.clone(), plat, period));
                    }
                }
            }
        }
        cases
    }

    /// The nested DP answers exactly as its layer-major oracle: the same
    /// allocation and DP energy bits, or the same failure, and the same
    /// work counts, at pool widths 1 and 2.
    fn assert_matches_oracle(heavy: bool) {
        let cases = differential_grid(heavy);
        let (mut solved, mut failed) = (0, 0);
        for (name, g, pf, period) in &cases {
            let (want, want_work) = oracle::dpa2d_alloc(&Dp::new(g, pf, *period));
            for width in [1, 2] {
                let (got, work) = rayon::ThreadPool::new(width)
                    .install(|| dpa2d_alloc(g, pf, *period, &SolveCtx::new(0)));
                match (&got, &want) {
                    (Ok((a, ea)), Ok((b, eb))) => {
                        assert_eq!(a, b, "{name}, width {width}");
                        assert_eq!(ea.to_bits(), eb.to_bits(), "{name}, width {width}");
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{name}, width {width}")
                    }
                    _ => panic!("{name}, width {width}: {got:?} against {want:?}"),
                }
                assert_eq!(work, want_work, "{name}, width {width}");
            }
            if want.is_ok() {
                solved += 1;
            } else {
                failed += 1;
            }
        }
        // The grid must span success and failure.
        assert!(solved > 0 && failed > 0, "{solved} solved, {failed} failed");
    }

    #[test]
    fn nested_dp_matches_the_layer_major_oracle() {
        assert_matches_oracle(false);
    }

    #[test]
    #[ignore = "the StreamIt flows and the larger random SPGs on 4x4 and 6x6; CI's perf gate runs it in release"]
    fn nested_dp_matches_the_layer_major_oracle_heavy() {
        assert_matches_oracle(true);
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
