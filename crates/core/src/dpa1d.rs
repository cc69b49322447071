//! The `DPA1D` heuristic (paper Theorem 1 + §5.4).
//!
//! Configures the CMP as a uni-directional uni-line of `r = p·q` cores by
//! snaking through the grid, and computes the **optimal** uni-line
//! DAG-partition mapping with the dynamic program of Theorem 1:
//!
//! > `E(G, k) = min over admissible G' ⊆ G of
//! >            E(G', k−1) ⊕ Ecal(G \ G')`,
//! > subject to `Cout(G') ≤ BW·T`,
//!
//! where admissible subgraphs are the order ideals of the SPG. Clusters are
//! the successive differences of a chain of ideals, so the quotient graph is
//! automatically acyclic, and on the uni-directional line the traffic on the
//! link between cores `k` and `k+1` is exactly the cut volume of the ideal
//! covering the first `k` clusters.
//!
//! Implementation: the ideal lattice is enumerated once per [`Instance`]
//! (capped — a cap hit is a heuristic *failure*, mirroring the paper's
//! observation that `DPA1D` cannot handle the high-elevation StreamIt
//! graphs). One relaxer consumes the `(ideal, extended ideal)` cluster
//! transitions, fed by one of two producers: the instance's cached
//! [`TransitionSkeleton`] when one fits `edge_cap`, or else a streaming
//! extension DFS that produces the period's transitions without storing
//! any. Both producers emit the same transitions in the same order, so the
//! choice changes memory, never the result. Sources are relaxed in ideal-id
//! order (a topological order of the transition DAG), each by the same
//! per-source routine: prune the finalised DP row to its Pareto frontier,
//! snapshot its window of cluster counts, relax every admitted
//! out-transition. Backtracking the optimum yields at most `r` clusters,
//! which are laid along the snake.
//!
//! ## The period-sweep split
//!
//! Everything the pipeline computes except `Ecal` is period-independent:
//! the lattice, each transition's cluster work, and each boundary ideal's
//! cut volume. The two feasibility filters are *monotone thresholds* over
//! those precomputed numbers — a transition is admissible at period `T` iff
//! its source cut fits the link (`cut ≤ BW·T`) and its cluster work fits
//! the fastest speed (`w ≤ T·f_max`). So a period sweep does not need to
//! re-walk the lattice per point: the [`TransitionSkeleton`] materialises
//! the transition system once — complete, or bounded by the loosest period
//! the session needs — and each sweep point runs a cheap admission pass
//! (two compares and a speed lookup per transition) over its flat arrays.
//! Only when no skeleton fits the edge cap does a point fall back to the
//! streaming DFS, which applies the same thresholds while it walks.
//!
//! The admission pass deliberately scans the skeleton in its original DFS
//! order instead of pre-sorting transitions by critical period and slicing
//! a prefix: the relaxation breaks energy ties by first arrival, so any
//! reordering could pick a different (equal-DP-energy) parent chain whose
//! *evaluated* energy differs in the last ulp. Scanning in order keeps
//! every sweep point bit-identical to the streaming DFS at that period,
//! which is what the sweep equivalence tests pin; the filtered-out
//! compares it wastes are noise next to the relaxation itself.
//!
//! On a platform with a single row (`p = 1`) this *is* Theorem 1's exact
//! algorithm, which the test-suite cross-checks against a brute-force
//! enumeration of every chain of ideals.

use cmp_mapping::{Mapping, RouteSpec, REL_TOL};
use cmp_platform::{snake_core, CoreId, Platform, RoutePolicy, RouteTable};
use spg::ideal::{IdealError, IdealId, IdealLattice};
use spg::{NodeSet, Spg, StageId};

use crate::common::{validated_with, BudgetPhase, Failure, PruneStats, Solution};
use crate::instance::{Instance, SharedLattice};
use crate::solver::{SolveCtx, Solver};

/// Complexity budgets for `DPA1D`.
#[derive(Debug, Clone)]
pub struct Dpa1dConfig {
    /// Maximum number of order ideals to enumerate before failing.
    pub ideal_cap: usize,
    /// Maximum number of transitions a [`TransitionSkeleton`] may
    /// materialise. A bound on memory, not a failure mode: a transition
    /// system past the cap is relaxed by the streaming DFS, which stores
    /// no transitions and returns the identical result.
    pub edge_cap: usize,
    /// Upper bound on the per-ideal Pareto frontier kept by the dominance
    /// pruning (`usize::MAX` = unbounded, the default; values below 1 are
    /// clamped to 1). When an *exact* frontier is truncated, the dropped
    /// states' completions are lower-bounded instead of searched and the
    /// solve returns normally with a certified
    /// [`PruneStats::bound_gap`] — the true optimum is guaranteed to lie
    /// within `bound_gap` below the returned energy. Truncation keeps the
    /// lowest-cluster-count frontier members, so it never costs
    /// feasibility, only (boundedly) optimality.
    pub frontier_cap: usize,
}

impl Default for Dpa1dConfig {
    fn default() -> Self {
        Dpa1dConfig {
            ideal_cap: 60_000,
            edge_cap: 1_000_000,
            frontier_cap: usize::MAX,
        }
    }
}

/// Maps a lattice-enumeration failure to the structured budget failure.
pub(crate) fn lattice_failure(e: &IdealError) -> Failure {
    match e {
        IdealError::LimitExceeded { cap, found } => {
            Failure::budget(BudgetPhase::Enumerate, *cap, *found)
        }
    }
}

/// One source ideal's block of skeleton transitions, with the
/// period-independent quantities the admission pass filters on.
struct SkeletonBlock {
    from: IdealId,
    /// Cut volume of the source ideal (traffic on its outgoing uni-line
    /// link); the bandwidth admission threshold.
    cut: f64,
    /// Hop energy entering the next cluster (period-independent:
    /// `8 · cut · E_bit`); 0 for the empty ideal.
    hop: f64,
    /// Lightest cluster work in the block: `wmin > cap_work` skips the
    /// whole block — the tight half of a decade sweep touches only a
    /// fraction of the skeleton this way.
    wmin: f64,
    range: std::ops::Range<u32>,
}

impl SkeletonBlock {
    /// Whether any of this block's transitions can be admitted at the
    /// given thresholds.
    #[inline]
    fn admissible(&self, adm: &Admission) -> bool {
        (self.from.idx() == 0 || self.cut <= adm.bw_cap) && self.wmin <= adm.cap_work
    }
}

/// The period-independent half of the `DPA1D` pipeline: every cluster
/// transition of the lattice (work-uncapped, so it serves *every* period,
/// or capped at a ceiling period's work threshold), in the per-source-block
/// SoA layout the relaxation streams.
///
/// Built at most once per instance (see `Instance::transition_skeleton`)
/// and shared across `with_period` re-targets — the enabling structure for
/// period sweeps: per sweep point only the admission thresholds and `Ecal`
/// change.
pub struct TransitionSkeleton {
    // Summarised rather than dumped: a skeleton can hold a million
    // transitions.
    blocks: Vec<SkeletonBlock>,
    /// Per-transition destination ideal (DFS order within each block).
    to: Vec<IdealId>,
    /// Per-transition cluster work (cycles) — the speed-admission and
    /// `Ecal` input.
    work: Vec<f64>,
    /// Largest cluster stage count over all transitions (telemetry; the DP
    /// never reads stage counts, so only the running max is kept — a
    /// per-transition array would pin ~4 MB per cached skeleton at the
    /// default edge cap for nothing).
    max_stages: u32,
    /// Size of the lattice the skeleton was built over: every ideal id it
    /// holds is below it, and a skeleton only serves a lattice of exactly
    /// this size.
    n_ideals: u32,
    /// The loosest period this skeleton serves exactly: `INFINITY` for a
    /// complete (work-uncapped) build, or the work-ceiling period of a
    /// bounded build. Work strictly grows along every extension-DFS path,
    /// so a build capped at the ceiling's work threshold contains *every*
    /// transition any period `T ≤ ceiling` admits, in the same DFS order —
    /// the admission pass at such a `T` is bit-identical to one over the
    /// complete skeleton (and to the streaming DFS at `T`).
    period_ceiling: f64,
}

impl std::fmt::Debug for TransitionSkeleton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransitionSkeleton")
            .field("blocks", &self.blocks.len())
            .field("transitions", &self.to.len())
            .field("ideals", &self.n_ideals)
            .field("period_ceiling", &self.period_ceiling)
            .finish()
    }
}

impl TransitionSkeleton {
    /// Number of skeleton transitions (the complete, work-uncapped set).
    pub fn n_transitions(&self) -> usize {
        self.to.len()
    }

    /// Number of source blocks with at least one transition.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Approximate resident size in bytes (all per-block and
    /// per-transition arrays) — input to byte-bounded artifact-cache
    /// accounting.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.blocks.capacity() * size_of::<SkeletonBlock>()
            + self.to.capacity() * size_of::<IdealId>()
            + self.work.capacity() * size_of::<f64>()
    }

    /// Largest cluster stage count over all transitions.
    pub fn max_cluster_stages(&self) -> u32 {
        self.max_stages
    }

    /// The loosest period this skeleton serves exactly (`INFINITY` for a
    /// complete build; see [`TransitionSkeleton::serves`]).
    pub fn period_ceiling(&self) -> f64 {
        self.period_ceiling
    }

    /// Whether this is a complete (work-uncapped) build serving every
    /// period, as opposed to a work-ceiling bounded build.
    pub fn is_complete(&self) -> bool {
        self.period_ceiling.is_infinite()
    }

    /// Whether an admission pass at `period` over this skeleton is exact —
    /// i.e. bit-identical to the streaming DFS at that period. True for
    /// every period of a complete build, and for `period ≤ ceiling` of a
    /// bounded one.
    pub fn serves(&self, period: f64) -> bool {
        period <= self.period_ceiling
    }

    /// Serialises the skeleton into a self-contained little-endian byte
    /// image for artifact-cache spill files; floats (cut volumes, cluster
    /// work, the period ceiling) travel as IEEE-754 bit patterns, so a
    /// reloaded skeleton admits bit-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        use spg::wire;
        let mut out = Vec::with_capacity(64 + self.blocks.len() * 36 + self.to.len() * 12);
        wire::put_u64(&mut out, self.blocks.len() as u64);
        for b in &self.blocks {
            wire::put_u32(&mut out, b.from.0);
            wire::put_f64(&mut out, b.cut);
            wire::put_f64(&mut out, b.hop);
            wire::put_f64(&mut out, b.wmin);
            wire::put_u32(&mut out, b.range.start);
            wire::put_u32(&mut out, b.range.end);
        }
        wire::put_u64(&mut out, self.to.len() as u64);
        for t in &self.to {
            wire::put_u32(&mut out, t.0);
        }
        wire::put_f64_slice(&mut out, &self.work);
        wire::put_u32(&mut out, self.max_stages);
        wire::put_u32(&mut out, self.n_ideals);
        wire::put_f64(&mut out, self.period_ceiling);
        out
    }

    /// Decodes a byte image produced by [`TransitionSkeleton::to_bytes`],
    /// re-validating every index the relaxation later slices with (block
    /// ranges and ideal ids), so a corrupted spill file yields `Err`, never
    /// an out-of-bounds panic mid-DP.
    pub fn from_bytes(bytes: &[u8]) -> Result<TransitionSkeleton, String> {
        use spg::wire;
        let mut pos = 0usize;
        let n_blocks = wire::get_len(bytes, &mut pos, 36)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let from = IdealId(wire::get_u32(bytes, &mut pos)?);
            let cut = wire::get_f64(bytes, &mut pos)?;
            let hop = wire::get_f64(bytes, &mut pos)?;
            let wmin = wire::get_f64(bytes, &mut pos)?;
            let start = wire::get_u32(bytes, &mut pos)?;
            let end = wire::get_u32(bytes, &mut pos)?;
            blocks.push(SkeletonBlock {
                from,
                cut,
                hop,
                wmin,
                range: start..end,
            });
        }
        let n_to = wire::get_len(bytes, &mut pos, 4)?;
        let mut to = Vec::with_capacity(n_to);
        for _ in 0..n_to {
            to.push(IdealId(wire::get_u32(bytes, &mut pos)?));
        }
        let work = wire::get_f64_slice(bytes, &mut pos)?;
        let max_stages = wire::get_u32(bytes, &mut pos)?;
        let n_ideals = wire::get_u32(bytes, &mut pos)?;
        let period_ceiling = wire::get_f64(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after skeleton image",
                bytes.len() - pos
            ));
        }
        let n_tr = to.len();
        if work.len() != n_tr {
            return Err("work array disagrees with the transition count".into());
        }
        if blocks
            .iter()
            .any(|b| b.range.start > b.range.end || b.range.end as usize > n_tr)
        {
            return Err("block range exceeds the transition arrays".into());
        }
        if to.iter().any(|t| t.0 >= n_ideals) || blocks.iter().any(|b| b.from.0 >= n_ideals) {
            return Err("transition references an out-of-range ideal".into());
        }
        Ok(TransitionSkeleton {
            blocks,
            to,
            work,
            max_stages,
            n_ideals,
            period_ceiling,
        })
    }

    /// How many transitions the admission pass keeps at the period's
    /// thresholds. Monotone in the period: loosening a threshold only
    /// ever adds transitions.
    #[cfg(test)]
    fn admitted_count(&self, adm: &Admission) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.admissible(adm))
            .map(|b| {
                let range = b.range.start as usize..b.range.end as usize;
                self.work[range]
                    .iter()
                    .filter(|&&w| w <= adm.cap_work)
                    .count()
            })
            .sum()
    }

    /// The skeleton producer: feeds every transition admitted at `adm`'s
    /// thresholds to the relaxer, block by block in id order and in DFS
    /// order within each block — the exact sequence the streaming DFS
    /// produces at the same period.
    fn relax_into(&self, adm: &Admission, dp: &mut Relaxer) {
        for b in &self.blocks {
            if !b.admissible(adm) {
                continue;
            }
            let range = b.range.start as usize..b.range.end as usize;
            dp.relax_source(b.from, b.hop, |src| {
                for (&to, &w) in self.to[range.clone()].iter().zip(&self.work[range]) {
                    if w <= adm.cap_work && !src.offer(to, w) {
                        break;
                    }
                }
            });
        }
    }

    /// Builds the transition system over `lattice`, complete
    /// (`period_ceiling = INFINITY`) or bounded by a work-ceiling period.
    /// Fails (with the materialise-phase budget payload) when the built set
    /// exceeds `edge_cap` — the caller falls back to a tighter ceiling or
    /// to the streaming DFS.
    fn build(
        spg: &Spg,
        pf: &Platform,
        lattice: &IdealLattice,
        cuts: &[f64],
        edge_cap: usize,
        period_ceiling: f64,
    ) -> Result<TransitionSkeleton, Failure> {
        debug_assert_eq!(cuts.len(), lattice.len());
        // A bounded build applies the ceiling period's admission thresholds
        // at materialisation time: both are monotone in the period, so
        // everything a tighter period admits survives, in DFS order.
        let ceiling_adm = period_ceiling
            .is_finite()
            .then(|| Admission::new(pf, period_ceiling));
        let mut blocks: Vec<SkeletonBlock> = Vec::new();
        let mut to: Vec<IdealId> = Vec::new();
        let mut work: Vec<f64> = Vec::new();
        let mut max_stages = 0u32;
        let mut ctx = ExtendCtx::new(
            spg,
            lattice,
            // Complete builds are work-uncapped: the skeleton serves every
            // period, so only the edge cap bounds it.
            ceiling_adm.as_ref().map_or(f64::INFINITY, |a| a.cap_work),
        );
        for from in lattice.ids() {
            // Complete builds keep every boundary (a cut infeasible at one
            // period is feasible at a looser one; the admission pass applies
            // both thresholds per period). A bounded build drops boundaries
            // already overloaded at the ceiling — no served period can pass
            // through them.
            if let Some(a) = &ceiling_adm {
                if from.idx() != 0 && cuts[from.idx()] > a.bw_cap {
                    continue;
                }
            }
            let start = to.len() as u32;
            let ok = ctx.extensions(from, &mut |child: IdealId, w: f64, depth: u32| -> bool {
                if to.len() >= edge_cap {
                    return false;
                }
                to.push(child);
                work.push(w);
                max_stages = max_stages.max(depth);
                true
            });
            if !ok {
                return Err(Failure::budget(
                    BudgetPhase::Materialise,
                    edge_cap,
                    edge_cap + 1,
                ));
            }
            let end = to.len() as u32;
            if end > start {
                let cut = cuts[from.idx()];
                blocks.push(SkeletonBlock {
                    from,
                    cut,
                    hop: hop_energy(pf, from, cut),
                    wmin: work[start as usize..end as usize]
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min),
                    range: start..end,
                });
            }
        }
        Ok(TransitionSkeleton {
            blocks,
            to,
            work,
            max_stages,
            n_ideals: lattice.len() as u32,
            period_ceiling,
        })
    }
}

/// Builds the complete (every-period) skeleton for a shared lattice
/// (crate-internal constructor used by the `Instance` cache).
pub(crate) fn build_skeleton(
    spg: &Spg,
    pf: &Platform,
    shared: &SharedLattice,
    edge_cap: usize,
) -> Result<TransitionSkeleton, Failure> {
    TransitionSkeleton::build(
        spg,
        pf,
        &shared.lattice,
        &shared.cuts,
        edge_cap,
        f64::INFINITY,
    )
}

/// Builds a work-ceiling bounded skeleton: exact for every period up to
/// `period_ceiling` (see [`TransitionSkeleton::serves`]), and typically far
/// smaller than the complete set — the escape hatch when the complete build
/// overflows the edge cap (e.g. `BitonicSort`'s ~4.2M complete transitions
/// against the 1M default cap).
pub(crate) fn build_skeleton_bounded(
    spg: &Spg,
    pf: &Platform,
    shared: &SharedLattice,
    edge_cap: usize,
    period_ceiling: f64,
) -> Result<TransitionSkeleton, Failure> {
    debug_assert!(period_ceiling.is_finite() && period_ceiling > 0.0);
    TransitionSkeleton::build(
        spg,
        pf,
        &shared.lattice,
        &shared.cuts,
        edge_cap,
        period_ceiling,
    )
}

/// Hop energy paid on the uni-line link leaving boundary ideal `from`
/// (0 for the empty ideal, which has no predecessor link).
fn hop_energy(pf: &Platform, from: IdealId, cut: f64) -> f64 {
    if from.idx() == 0 {
        0.0
    } else {
        pf.hop_energy(cut)
    }
}

/// The period-dependent compute-energy table: cluster work → `Ecal`.
/// Selection matches `PowerModel::min_speed_for` (up to one reciprocal
/// rounding in the last ulp — harmless here: the energies only steer the
/// argmin, and the chosen chain is re-priced by the shared evaluator),
/// with divisions hoisted out of the per-transition path.
struct EcalTable {
    /// `(freq, power/freq)` per speed, in speed-index order.
    speeds: Vec<(f64, f64)>,
    leak: f64,
    inv_period: f64,
}

impl EcalTable {
    fn new(pf: &Platform, period: f64) -> EcalTable {
        EcalTable {
            speeds: (0..pf.power.m())
                .map(|k| {
                    let sp = pf.power.speed(k);
                    (sp.freq, sp.power / sp.freq)
                })
                .collect(),
            leak: pf.power.p_leak * period,
            inv_period: (1.0 - 1e-12) / period,
        }
    }

    #[inline]
    fn ecal(&self, w: f64) -> Option<f64> {
        let needed = w * self.inv_period;
        self.speeds
            .iter()
            .find(|&&(freq, _)| freq >= needed)
            .map(|&(_, energy_per_cycle)| self.leak + w * energy_per_cycle)
    }
}

/// Runs `DPA1D` on the snake embedding of `pf`.
#[doc(hidden)]
#[deprecated(
    since = "0.2.0",
    note = "use `ea_core::solvers::Dpa1d` with an `Instance` (shares the interned lattice across calls)"
)]
pub fn dpa1d(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    cfg: &Dpa1dConfig,
) -> Result<Solution, Failure> {
    let inst = Instance::new(spg.clone(), pf.clone(), period);
    crate::solvers::Dpa1d { cfg: cfg.clone() }.solve(&inst, &SolveCtx::new(0))
}

/// `DPA1D` on an instance's session caches: its interned
/// [`SharedLattice`], its [`TransitionSkeleton`] when one fits the edge
/// cap, and the snake route table.
pub(crate) fn dpa1d_run(inst: &Instance, cfg: &Dpa1dConfig) -> Result<Solution, Failure> {
    let shared = inst
        .lattice(cfg.ideal_cap)
        .map_err(|e| lattice_failure(&e))?;
    let skeleton = inst.transition_skeleton(cfg)?;
    let (spg, pf, period) = (inst.spg(), inst.platform(), inst.period());
    let (chain, prune) = solve_chain(spg, pf, period, cfg, &shared, skeleton.as_deref())?;
    let table = inst.route_table(RoutePolicy::Snake);
    let mut sol = build_snake_solution(spg, pf, period, &chain, &table)?;
    sol.prune = Some(prune);
    Ok(sol)
}

/// A solved cluster chain together with the dominance telemetry.
type ChainSolve = (Vec<Vec<StageId>>, PruneStats);

/// The Theorem 1 dynamic program over a shared lattice: the optimal chain
/// of clusters (at most one per alive core) for the uni-directional
/// uni-line. Transitions come from `skeleton` when it serves this period,
/// and from the streaming DFS otherwise.
fn solve_chain(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    cfg: &Dpa1dConfig,
    shared: &SharedLattice,
    skeleton: Option<&TransitionSkeleton>,
) -> Result<ChainSolve, Failure> {
    let lattice = &shared.lattice;
    let adm = Admission::new(pf, period);
    let mut dp = Relaxer::new(spg, pf, period, lattice, cfg.frontier_cap);
    // A bounded skeleton is only exact up to its ceiling, and a skeleton
    // only indexes the lattice it was built over (the `Instance` cache
    // hands out serving skeletons only; the check keeps a mismatched one
    // from slicing out of range).
    match skeleton.filter(|sk| sk.serves(period) && sk.n_ideals as usize == lattice.len()) {
        Some(sk) => sk.relax_into(&adm, &mut dp),
        None => stream_into(spg, pf, lattice, &shared.cuts, &adm, &mut dp),
    }
    let (chain, best) = dp.state.backtrack(lattice)?;
    Ok((chain, dp.prune.stats(best)))
}

/// The streaming producer: walks the per-period extension DFS from every
/// source whose outgoing link fits the period and feeds each transition to
/// the relaxer the moment the DFS produces it, storing none of them. This
/// is what makes the edge cap a *soundness-preserving* bound: a
/// transition system past the cap costs time, not a `TooExpensive`
/// failure.
fn stream_into(
    spg: &Spg,
    pf: &Platform,
    lattice: &IdealLattice,
    cuts: &[f64],
    adm: &Admission,
    dp: &mut Relaxer,
) {
    let mut ctx = ExtendCtx::new(spg, lattice, adm.cap_work);
    for from in lattice.ids() {
        let cut = cuts[from.idx()];
        if from.idx() != 0 && cut > adm.bw_cap {
            continue; // outgoing link overloaded: unreachable boundary
        }
        dp.relax_source(from, hop_energy(pf, from, cut), |src| {
            ctx.extensions(from, &mut |to: IdealId, w: f64, _depth: u32| {
                src.offer(to, w)
            });
        });
    }
}

/// Per-period admission thresholds (both monotone in the period).
struct Admission {
    /// Bandwidth-period product (with the evaluator's tolerance band).
    bw_cap: f64,
    /// Heaviest cluster the fastest speed can run within the period.
    cap_work: f64,
}

impl Admission {
    fn new(pf: &Platform, period: f64) -> Admission {
        let tol = 1.0 + REL_TOL;
        // `cap_work` stays strictly *below* the evaluator's tolerance band
        // so every admitted cluster is guaranteed a feasible speed (no
        // rounding gap between the threshold and `min_speed_for`).
        Admission {
            bw_cap: period * pf.bw * tol,
            cap_work: period * pf.power.max_freq(),
        }
    }
}

/// Per-solve state of the dominance pruning and its telemetry counters.
struct PruneCtx {
    /// Per-ideal relaxation-window shrink (in cluster-count slots),
    /// recorded when the row was pruned — always before any transition
    /// out of the row is relaxed.
    saved: Vec<u32>,
    /// Σ over relaxed transitions of their window span — the inner-loop
    /// candidate relaxations actually performed.
    kept: u64,
    /// Σ over relaxed transitions of their source's window shrink — the
    /// candidate relaxations dominance avoided.
    pruned: u64,
    /// Largest exact (pre-cap) per-ideal Pareto frontier observed.
    frontier_max: u32,
    /// Minimum completion lower bound over frontier-cap-truncated states.
    trunc_lb: f64,
    /// Number of frontier-cap truncations (0 ⇒ the solve is exact and
    /// `bound_gap` is 0).
    truncated: u64,
    frontier_cap: usize,
    /// Cheapest energy per cycle over the speed grid — the work term of
    /// the truncation lower bound.
    min_epc: f64,
    /// Leak energy of one cluster at this period.
    leak: f64,
    /// Residual work per ideal (`total_work − work_volume(ideal)`; see
    /// [`Spg::work_volume`]). Only materialised when `frontier_cap` can
    /// actually truncate (it costs `O(Σ|ideal|)` to fill).
    residual: Vec<f64>,
}

impl PruneCtx {
    fn new(
        spg: &Spg,
        lattice: &IdealLattice,
        ec: &EcalTable,
        frontier_cap: usize,
        width: usize,
    ) -> PruneCtx {
        let cap = frontier_cap.max(1);
        // A frontier never exceeds the row width, so a cap at least that
        // wide can never truncate — skip the residual-work precompute.
        let residual = if cap < width {
            let total = spg.total_work();
            lattice.iter().map(|s| total - spg.work_volume(s)).collect()
        } else {
            Vec::new()
        };
        PruneCtx {
            saved: vec![0; lattice.len()],
            kept: 0,
            pruned: 0,
            frontier_max: 0,
            trunc_lb: f64::INFINITY,
            truncated: 0,
            frontier_cap: cap,
            min_epc: ec
                .speeds
                .iter()
                .map(|&(_, epc)| epc)
                .fold(f64::INFINITY, f64::min),
            leak: ec.leak,
            residual,
        }
    }

    /// Prunes the *finalised* DP row of ideal `f` down to its Pareto
    /// frontier before the row's out-transitions are scanned. A slot is
    /// dominated iff an earlier (lower cluster count) slot covers the same
    /// ideal at strictly lower energy: any completion of the dominated
    /// state is also a completion of the dominator — with clusters to
    /// spare — at strictly lower total, so no DP optimum ever routes
    /// through it. Ties are kept (pruning them would be value-preserving
    /// too, but could flip first-arrival parent selection and change the
    /// evaluated energy in the last ulp). Beyond `frontier_cap` kept
    /// slots, further frontier members are *truncated*: dropped with their
    /// completions lower-bounded into the certified `bound_gap` (keeping
    /// the lowest-`k` members preserves feasibility — completions transfer
    /// down-`k` — so truncation can cost optimality, never a solution).
    fn prune_row(
        &mut self,
        f: usize,
        hop: f64,
        width: usize,
        e_row: &mut [f64],
        klo: &mut u16,
        khi: &mut u16,
    ) {
        if f == 0 || *klo == u16::MAX {
            return; // the empty ideal's pinned row, or an unreachable one
        }
        let lo = *klo as usize;
        let hi = *khi as usize;
        let relax_hi = hi.min(width - 2);
        let old_span = if lo <= relax_hi { relax_hi - lo + 1 } else { 0 };
        let mut best = f64::INFINITY;
        let mut kept = 0usize;
        let mut new_lo = u16::MAX;
        let mut new_hi = 0u16;
        for (k, v) in e_row.iter_mut().enumerate().take(hi + 1).skip(lo) {
            if !v.is_finite() {
                continue;
            }
            if *v > best {
                *v = f64::INFINITY; // dominated
                continue;
            }
            best = *v;
            kept += 1;
            if kept > self.frontier_cap {
                // Any completion pays the hop out of `f`, at least one
                // cluster's leak, and the residual work at no better than
                // the cheapest energy-per-cycle.
                let res = self.residual.get(f).copied().unwrap_or(0.0);
                let lb = *v + hop + self.leak + res * self.min_epc;
                self.trunc_lb = self.trunc_lb.min(lb);
                self.truncated += 1;
                *v = f64::INFINITY; // truncated
                continue;
            }
            new_lo = new_lo.min(k as u16);
            new_hi = new_hi.max(k as u16);
        }
        self.frontier_max = self.frontier_max.max(kept.min(u32::MAX as usize) as u32);
        debug_assert_ne!(new_lo, u16::MAX, "a reachable row keeps its first slot");
        *klo = new_lo;
        *khi = new_hi;
        let new_hi_r = (new_hi as usize).min(width - 2);
        let new_span = if (new_lo as usize) <= new_hi_r {
            new_hi_r - (new_lo as usize) + 1
        } else {
            0
        };
        self.saved[f] = (old_span - new_span) as u32;
    }

    /// Accounts the relaxations out of source row `f`: `n` transitions were
    /// relaxed over a window of `span` slots; each also *avoided* the
    /// row's recorded window shrink.
    fn count_source(&mut self, f: usize, n: u64, span: u64) {
        self.kept += n * span;
        self.pruned += n * self.saved[f] as u64;
    }

    /// Folds the counters into the public telemetry. `best` is the DP
    /// optimum of the solve; the certified gap covers every truncated
    /// state's lower-bounded completions.
    fn stats(&self, best: f64) -> PruneStats {
        let bound_gap = if self.truncated > 0 {
            (best - self.trunc_lb).max(0.0)
        } else {
            0.0
        };
        PruneStats {
            transitions_kept: self.kept,
            transitions_pruned: self.pruned,
            frontier_max: self.frontier_max,
            bound_gap,
        }
    }
}

/// The one relaxation engine. Producers hand it sources in ideal-id order —
/// a topological order of the transition DAG (every extension strictly
/// grows the ideal, and ids are sorted by cardinality) — so when a source
/// is opened, all of its in-transitions have already been relaxed and its
/// DP row is final. One pass over the sources therefore relaxes every
/// cluster-count layer at once: the per-ideal rows stay cache-resident
/// while the transitions stream through exactly once.
struct Relaxer {
    state: DpState,
    prune: PruneCtx,
    ec: EcalTable,
    /// Snapshot of the open source's window: rows of later ideals are
    /// written while this one is read, and the borrow is easier on a
    /// buffer.
    row: Vec<f64>,
}

impl Relaxer {
    fn new(
        spg: &Spg,
        pf: &Platform,
        period: f64,
        lattice: &IdealLattice,
        frontier_cap: usize,
    ) -> Relaxer {
        let width = width_of(spg, pf);
        let ec = EcalTable::new(pf, period);
        Relaxer {
            state: DpState::new(lattice.len(), width),
            prune: PruneCtx::new(spg, lattice, &ec, frontier_cap, width),
            ec,
            row: vec![f64::INFINITY; width],
        }
    }

    /// Relaxes the out-transitions of source `from` (hop energy `hop`),
    /// which `produce` offers in order through the [`SourceRelax`] handle.
    /// The row is pruned and snapshotted lazily, at the first transition
    /// with a feasible speed, so a source with no feasible extension at
    /// this period leaves its row and the telemetry untouched. An
    /// unreachable source is skipped outright.
    fn relax_source(
        &mut self,
        from: IdealId,
        hop: f64,
        produce: impl FnOnce(&mut SourceRelax<'_>),
    ) {
        let f = from.idx();
        if self.state.klo[f] == u16::MAX {
            return;
        }
        let mut src = SourceRelax {
            dp: self,
            from,
            hop,
            window: None,
            kept: 0,
        };
        produce(&mut src);
        let (window, kept) = (src.window, src.kept);
        if let Some(Some((lo, hi))) = window {
            self.prune.count_source(f, kept, (hi - lo + 1) as u64);
        }
    }
}

/// One open source row of the [`Relaxer`]; producers feed it the source's
/// out-transitions with [`SourceRelax::offer`].
struct SourceRelax<'a> {
    dp: &'a mut Relaxer,
    from: IdealId,
    hop: f64,
    /// `None` until the first feasible transition primes the row; then the
    /// row's relaxation window (`None` inside when it cannot extend).
    window: Option<Option<(usize, usize)>>,
    kept: u64,
}

impl SourceRelax<'_> {
    /// Relaxes one transition of cluster work `w` into ideal `to`.
    /// Returns `false` once nothing more can be relaxed out of this
    /// source, so the producer can stop early.
    #[inline]
    fn offer(&mut self, to: IdealId, w: f64) -> bool {
        // The work threshold guarantees a feasible speed; be defensive
        // about rounding anyway and skip rather than panic.
        let Some(ecal) = self.dp.ec.ecal(w) else {
            return true;
        };
        let window = match self.window {
            Some(window) => window,
            None => {
                let window = self.prime();
                self.window = Some(window);
                window
            }
        };
        let Some((lo, hi)) = window else {
            return false;
        };
        self.kept += 1;
        let dp = &mut *self.dp;
        dp.state
            .relax(to.idx(), self.from.0, self.hop + ecal, &dp.row, lo, hi);
        true
    }

    /// Prunes the now-final source row, takes its window, and snapshots it.
    fn prime(&mut self) -> Option<(usize, usize)> {
        let f = self.from.idx();
        let dp = &mut *self.dp;
        let width = dp.state.width;
        dp.prune.prune_row(
            f,
            self.hop,
            width,
            &mut dp.state.e[f * width..(f + 1) * width],
            &mut dp.state.klo[f],
            &mut dp.state.khi[f],
        );
        let (lo, hi) = dp.state.window(f)?;
        dp.row[lo..=hi].copy_from_slice(&dp.state.e[f * width + lo..f * width + hi + 1]);
        Some((lo, hi))
    }
}

/// `k ∈ 0..width` clusters: at most one per **alive** core, never more
/// than stages (alive = all cores on a healthy platform).
fn width_of(spg: &Spg, pf: &Platform) -> usize {
    pf.n_alive_cores().min(spg.n()) + 1
}

/// Dense DP state: `e[t*width + k]` is the best energy covering ideal `t`
/// with exactly `k` clusters, `par` the arg-min source, `klo/khi` the
/// finite-`k` window per ideal (skipping the empty parts of each row).
struct DpState {
    width: usize,
    e: Vec<f64>,
    par: Vec<u32>,
    klo: Vec<u16>,
    khi: Vec<u16>,
}

impl DpState {
    fn new(n_ideals: usize, width: usize) -> DpState {
        let mut state = DpState {
            width,
            e: vec![f64::INFINITY; n_ideals * width],
            par: vec![u32::MAX; n_ideals * width],
            klo: vec![u16::MAX; n_ideals],
            khi: vec![0u16; n_ideals],
        };
        state.e[0] = 0.0;
        state.klo[0] = 0;
        state
    }

    /// The finite relaxation window of source ideal `f`, or `None` when it
    /// is unreachable or its window cannot extend (`k+1` must stay below
    /// `width`).
    #[inline]
    fn window(&self, f: usize) -> Option<(usize, usize)> {
        if self.klo[f] == u16::MAX {
            return None; // unreachable ideal
        }
        let lo = self.klo[f] as usize;
        let hi = (self.khi[f] as usize).min(self.width - 2);
        (lo <= hi).then_some((lo, hi))
    }

    /// Relaxes one transition into ideal `t` over the snapshot `row` of its
    /// source's energies (window `lo..=hi`).
    #[inline]
    fn relax(&mut self, t: usize, from: u32, entry: f64, row: &[f64], lo: usize, hi: usize) {
        let base = t * self.width + lo + 1;
        // Infinite row entries propagate harmlessly: `INF + entry` never
        // beats any slot (`INF < INF` is false), so the inner loop needs
        // no finiteness branch; the slice zip hoists the bounds checks
        // out of the loop.
        let es = &mut self.e[base..base + (hi - lo) + 1];
        let ps = &mut self.par[base..base + (hi - lo) + 1];
        for ((&b_val, ev), pv) in row[lo..=hi].iter().zip(es).zip(ps) {
            let cand = b_val + entry;
            if cand < *ev {
                *ev = cand;
                *pv = from;
            }
        }
        self.klo[t] = self.klo[t].min(lo as u16 + 1);
        self.khi[t] = self.khi[t].max(hi as u16 + 1);
    }

    /// Picks the best cluster count for the full ideal and walks the
    /// parent chain back to the empty ideal; cluster members stream
    /// straight out of the arena, no set is materialised. Also returns
    /// the DP optimum energy (the certified bound gap prices off it).
    fn backtrack(&self, lattice: &IdealLattice) -> Result<(Vec<Vec<StageId>>, f64), Failure> {
        let width = self.width;
        let full = lattice.full_id().idx();
        let full_row = &self.e[full * width..(full + 1) * width];
        let Some((k_best, &best)) = full_row
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
        else {
            return Err(Failure::NoValidMapping(
                "no feasible cluster chain within the core count".into(),
            ));
        };
        let mut chain: Vec<Vec<StageId>> = Vec::with_capacity(k_best);
        let mut j = full;
        for k in (1..=k_best).rev() {
            let i = self.par[j * width + k] as usize;
            debug_assert_ne!(i, u32::MAX as usize, "broken parent chain");
            let members: Vec<StageId> = lattice
                .get(IdealId(j as u32))
                .difference_iter(lattice.get(IdealId(i as u32)))
                .map(|x| StageId(x as u32))
                .collect();
            chain.push(members);
            j = i;
        }
        debug_assert_eq!(j, 0, "chain must end at the empty ideal");
        chain.reverse();
        Ok((chain, best))
    }
}

/// Lays a cluster chain along the snake and validates it.
fn build_snake_solution(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    chain: &[Vec<StageId>],
    table: &RouteTable,
) -> Result<Solution, Failure> {
    let mut alloc = vec![CoreId { u: 0, v: 0 }; spg.n()];
    // Clusters land on consecutive *alive* snake positions (the identity
    // on a healthy platform); dead cores are skipped, their routers still
    // carry the snake traffic through.
    let spots: Vec<CoreId> = (0..pf.n_cores())
        .map(|i| snake_core(pf, i))
        .filter(|c| pf.core_alive(*c))
        .collect();
    if chain.len() > spots.len() {
        return Err(Failure::NoValidMapping(
            "more clusters than alive cores".into(),
        ));
    }
    for (pos, cluster) in chain.iter().enumerate() {
        let core = spots[pos];
        for &s in cluster {
            alloc[s.idx()] = core;
        }
    }
    let speed = cmp_mapping::assign_min_speeds(spg, pf, &alloc, period)
        .ok_or_else(|| Failure::NoValidMapping("cluster exceeds fastest speed".into()))?;
    let mapping = Mapping {
        alloc,
        speed,
        routes: RouteSpec::Snake,
    };
    validated_with(spg, pf, mapping, period, Some(table))
}

/// Shared state of the cluster-extension DFS: the graph, the interned
/// lattice (whose Hasse covers resolve "current ideal + stage" to the next
/// `IdealId` without hashing), and an arena stack holding every recursion
/// level's ready list as a range — the DFS performs no per-node allocation.
struct ExtendCtx<'a> {
    spg: &'a Spg,
    lattice: &'a IdealLattice,
    pred_masks: &'a [NodeSet],
    cap_work: f64,
    stack: Vec<StageId>,
}

impl<'a> ExtendCtx<'a> {
    fn new(spg: &'a Spg, lattice: &'a IdealLattice, cap_work: f64) -> ExtendCtx<'a> {
        ExtendCtx {
            spg,
            lattice,
            pred_masks: lattice.pred_masks(),
            cap_work,
            stack: Vec::with_capacity(4 * spg.n()),
        }
    }

    /// Visits every one-cluster extension of `from` with cluster work
    /// within `cap_work`, in DFS order (see [`extend`]); returns `false`
    /// when `visit` aborted.
    fn extensions(
        &mut self,
        from: IdealId,
        visit: &mut impl FnMut(IdealId, f64, u32) -> bool,
    ) -> bool {
        // The ready stages of `from` are exactly its recorded covers.
        self.stack.clear();
        self.stack
            .extend(self.lattice.covers(from).iter().map(|&(s, _)| StageId(s)));
        let hi = self.stack.len();
        extend(self, from, 0.0, 1, 0, hi, visit)
    }
}

/// DFS over cluster extensions of `cur`, whose pending ready list is
/// `ctx.stack[lo..hi]` (in lattice cover order — NOT sorted by weight, so
/// an overweight stage must be `continue`d past, never `break`ed on). Each
/// loop iteration picks `stack[k]` as the *next* included stage (everything
/// before `k` stays excluded on this path), so every distinct extension is
/// visited exactly once. `visit` receives the extension's interned id, its
/// cluster work, and its cluster stage count (`depth` counts the stages on
/// this path); returning `false` aborts.
fn extend(
    ctx: &mut ExtendCtx<'_>,
    cur: IdealId,
    w: f64,
    depth: u32,
    lo: usize,
    hi: usize,
    visit: &mut impl FnMut(IdealId, f64, u32) -> bool,
) -> bool {
    for k in lo..hi {
        let s = ctx.stack[k];
        let w2 = w + ctx.spg.weight(s);
        if w2 > ctx.cap_work {
            continue; // a lighter stage later in the list may still fit
        }
        let child = ctx
            .lattice
            .child_via(cur, s)
            .expect("ready stage must have a recorded cover");
        if !visit(child, w2, depth) {
            return false;
        }
        // Next level's ready list: the stages after `k`, plus the covers of
        // `child` released by `s` itself. A stage becomes ready exactly when
        // its last missing predecessor joins the ideal, so "newly released"
        // is precisely "`s` is one of its predecessors" — stages ready
        // earlier (including the ones deliberately excluded at shallower
        // levels of this path) can never have `s` as a predecessor.
        let next_lo = ctx.stack.len();
        ctx.stack.extend_from_within(k + 1..hi);
        for &(cs, _) in ctx.lattice.covers(child) {
            if ctx.pred_masks[cs as usize].contains(s.idx()) {
                ctx.stack.push(StageId(cs));
            }
        }
        let next_hi = ctx.stack.len();
        if next_hi > next_lo {
            let ok = extend(ctx, child, w2, depth + 1, next_lo, next_hi, visit);
            ctx.stack.truncate(next_lo);
            if !ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg::ideal::enumerate_ideals;
    use spg::{chain, parallel_many};

    /// `DPA1D` through a fresh session, the way every caller reaches it.
    fn solve(g: &Spg, pf: &Platform, t: f64, cfg: &Dpa1dConfig) -> Result<Solution, Failure> {
        dpa1d_run(&Instance::new(g.clone(), pf.clone(), t), cfg)
    }

    fn shared(g: &Spg) -> SharedLattice {
        let lattice = enumerate_ideals(g, 60_000).unwrap();
        let cuts = lattice.iter().map(|s| g.cut_volume(s)).collect();
        SharedLattice { lattice, cuts }
    }

    /// A fork-join behind a two-stage prefix: a lattice with real
    /// branching, so cluster counts, windows and ties all vary.
    fn fork_join() -> Spg {
        let branches: Vec<Spg> = (0..3)
            .map(|i| chain(&[1e8, 2e8 + i as f64, 1e8], &[1e4, 1e4]))
            .collect();
        let g = spg::series(&chain(&[1e8, 2e8], &[1e4]), &parallel_many(&branches));
        assert!(g.n() >= 6, "three distinct branch stages");
        g
    }

    #[test]
    fn single_core_when_period_is_loose() {
        let pf = Platform::paper(4, 4);
        let g = chain(&[1e6; 10], &[1e3; 9]);
        let sol = solve(&g, &pf, 1.0, &Dpa1dConfig::default()).unwrap();
        assert_eq!(sol.eval.active_cores, 1);
        let expect = 0.08 + (1e7 / 0.15e9) * 0.08;
        assert!((sol.energy() - expect).abs() < 1e-9);
    }

    #[test]
    fn splits_when_period_forces_it() {
        let pf = Platform::paper(2, 2);
        // 4 stages of 0.9e9 cycles: one per core at 1 GHz for T = 1.
        let g = chain(&[0.9e9; 4], &[1e3; 3]);
        let sol = solve(&g, &pf, 1.0, &Dpa1dConfig::default()).unwrap();
        assert_eq!(sol.eval.active_cores, 4);
    }

    #[test]
    fn fails_when_chain_needs_too_many_cores() {
        let pf = Platform::paper(1, 2);
        let g = chain(&[0.9e9; 3], &[1e3; 2]);
        assert!(matches!(
            solve(&g, &pf, 1.0, &Dpa1dConfig::default()),
            Err(Failure::NoValidMapping(_))
        ));
    }

    #[test]
    fn fails_on_lattice_explosion() {
        // Elevation-10 fork-join: ~6^10 ideals, way past a tiny cap.
        let branches: Vec<Spg> = (0..10).map(|_| chain(&[1e5; 7], &[1e2; 6])).collect();
        let g = parallel_many(&branches);
        let pf = Platform::paper(4, 4);
        let cfg = Dpa1dConfig {
            ideal_cap: 1000,
            ..Default::default()
        };
        let err = solve(&g, &pf, 1.0, &cfg).unwrap_err();
        let budget = err.budget_exceeded().expect("budget failure");
        assert_eq!(budget.phase, BudgetPhase::Enumerate);
        assert_eq!(budget.cap, 1000);
        assert!(budget.count > 1000, "count at abort exceeds the cap");
    }

    #[test]
    fn respects_bandwidth_on_the_snake() {
        // Two heavy stages forced onto different cores with an edge too fat
        // for the link: DPA1D must fail rather than emit an invalid mapping.
        let pf = Platform::paper(1, 2);
        let g = chain(&[0.9e9, 0.9e9], &[25e9]);
        assert!(solve(&g, &pf, 1.0, &Dpa1dConfig::default()).is_err());
    }

    #[test]
    fn chain_clusters_are_contiguous_prefix_partition() {
        let pf = Platform::paper(1, 4);
        let g = chain(&[0.5e9; 6], &[1e3; 5]);
        let (chain_sol, _) =
            solve_chain(&g, &pf, 1.0, &Dpa1dConfig::default(), &shared(&g), None).unwrap();
        // Union of clusters in order must walk the chain front to back.
        let topo = g.topo_order();
        let flat: Vec<StageId> = chain_sol
            .iter()
            .flat_map(|c| {
                let mut c = c.clone();
                c.sort_by_key(|s| topo.iter().position(|t| t == s).unwrap());
                c
            })
            .collect();
        assert_eq!(flat, topo);
    }

    #[test]
    fn dp_energy_matches_evaluator() {
        // The DP's internal cost model must agree with the shared evaluator.
        let pf = Platform::paper(2, 3);
        let g = chain(&[0.5e9, 0.3e9, 0.7e9, 0.2e9], &[1e6, 5e6, 2e6]);
        let sol = solve(&g, &pf, 1.0, &Dpa1dConfig::default()).unwrap();
        // Recompute through the evaluator (already done inside validated);
        // here we just sanity-check decomposition adds up.
        let e = &sol.eval;
        assert!(
            (e.energy - (e.compute_dynamic + e.compute_leak + e.comm_dynamic + e.comm_leak)).abs()
                < 1e-12
        );
    }

    /// The admitted-transition count is monotone in the period, and an
    /// edge cap below the admitted count bounds only what gets *built*:
    /// the already-built skeleton streams through admission and yields the
    /// exact chain.
    #[test]
    fn admission_is_monotone_and_edge_cap_structured() {
        let g = chain(&[0.5e9; 6], &[1e5; 5]);
        let pf = Platform::paper(2, 2);
        let cfg = Dpa1dConfig::default();
        let shared = shared(&g);
        let sk = build_skeleton(&g, &pf, &shared, cfg.edge_cap).unwrap();
        let mut prev = 0usize;
        for period in [0.01, 0.1, 1.0, 10.0] {
            let n = sk.admitted_count(&Admission::new(&pf, period));
            assert!(n >= prev, "admission must be monotone in the period");
            prev = n;
        }
        assert_eq!(prev, sk.n_transitions(), "a loose period admits all");
        let (unc, _) = solve_chain(&g, &pf, 1.0, &cfg, &shared, Some(&sk)).unwrap();
        let tight = Dpa1dConfig {
            edge_cap: 1,
            ..cfg.clone()
        };
        let (capped, stats) = solve_chain(&g, &pf, 1.0, &tight, &shared, Some(&sk)).unwrap();
        assert_eq!(unc, capped, "edge cap must not change the exact chain");
        assert_eq!(stats.bound_gap, 0.0, "uncapped frontier is exact");
        assert!(stats.transitions_kept > 0);
    }

    /// The skeleton builder itself respects the edge cap (complete-set
    /// explosion falls back, it must not OOM or panic).
    #[test]
    fn skeleton_build_respects_edge_cap() {
        let g = chain(&[1e6; 30], &[1e3; 29]);
        let pf = Platform::paper(2, 2);
        let shared = shared(&g);
        // A 30-chain has 31 ideals and C(31,2) = 465 transitions.
        let sk = build_skeleton(&g, &pf, &shared, 1_000_000).unwrap();
        assert_eq!(sk.n_transitions(), 465);
        assert!(sk.max_cluster_stages() >= 1);
        assert!(sk.is_complete() && sk.serves(f64::MAX));
        let err = build_skeleton(&g, &pf, &shared, 100).unwrap_err();
        let b = err.budget_exceeded().unwrap();
        assert_eq!(b.phase, BudgetPhase::Materialise);
        assert_eq!(b.cap, 100);
        // A work-ceiling bounded build materialises only the ceiling's
        // admitted set — it fits the cap the complete build overflows.
        // cap_work = 3e6 ⇒ clusters of ≤ 3 stages ⇒ 3·30 − 3 = 87 ≤ 100.
        let ceiling = 0.003;
        let bounded = build_skeleton_bounded(&g, &pf, &shared, 100, ceiling).unwrap();
        assert!(!bounded.is_complete());
        assert!(bounded.serves(ceiling) && !bounded.serves(ceiling * 1.01));
        assert!(bounded.n_transitions() < sk.n_transitions());
    }

    /// A bounded skeleton serves every period at or below its ceiling
    /// bit-identically to the complete skeleton AND to the fresh
    /// per-period DFS — results and telemetry both.
    #[test]
    fn bounded_skeleton_matches_fresh_below_ceiling() {
        let g = fork_join();
        let pf = Platform::paper(2, 3);
        let cfg = Dpa1dConfig::default();
        let shared = shared(&g);
        let complete = build_skeleton(&g, &pf, &shared, cfg.edge_cap).unwrap();
        let ceiling = 0.5;
        let bounded = build_skeleton_bounded(&g, &pf, &shared, cfg.edge_cap, ceiling).unwrap();
        assert!(bounded.n_transitions() <= complete.n_transitions());
        for period in [0.5, 0.2, 0.05, 0.01] {
            let adm = Admission::new(&pf, period);
            assert_eq!(
                bounded.admitted_count(&adm),
                complete.admitted_count(&adm),
                "admitted sets must agree at T={period}"
            );
            let fresh = solve_chain(&g, &pf, period, &cfg, &shared, None);
            for sk in [&complete, &bounded] {
                let served = solve_chain(&g, &pf, period, &cfg, &shared, Some(sk));
                match (&fresh, &served) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "skeleton diverged at T={period}"),
                    (Err(_), Err(_)) => {}
                    other => panic!("path outcomes diverged at T={period}: {other:?}"),
                }
            }
        }
    }

    /// When no skeleton fits the edge cap, the session streams the
    /// relaxation instead of failing, and matches the skeleton-served
    /// solve to the bit — energy and telemetry — making the edge cap
    /// soundness-preserving.
    #[test]
    fn streaming_fallback_matches_materialised() {
        // 6 cores: even the tight period's all-singleton chain stays
        // feasible, so both legs exercise a real solve.
        let pf = Platform::paper(2, 3);
        let capped = Dpa1dConfig {
            edge_cap: 1,
            ..Default::default()
        };
        for g in [chain(&[0.5e9; 6], &[1e5; 5]), fork_join()] {
            for period in [1.0, 0.5] {
                let inst = Instance::new(g.clone(), pf.clone(), period);
                let sk = inst.transition_skeleton(&capped).unwrap();
                assert!(sk.is_none(), "T={period}: {sk:?}");
                let full = dpa1d_run(&inst, &Dpa1dConfig::default());
                let streamed = dpa1d_run(&inst, &capped);
                match (&full, &streamed) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.energy().to_bits(), b.energy().to_bits());
                        assert_eq!(a.prune, b.prune, "telemetry diverged at T={period}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    other => panic!("outcomes diverged at T={period}: {other:?}"),
                }
            }
        }
    }

    /// A corrupted or mismatched skeleton image is rejected at decode
    /// time, never sliced out of range mid-DP.
    #[test]
    fn skeleton_image_round_trips_and_rejects_bad_indices() {
        let g = fork_join();
        let pf = Platform::paper(2, 3);
        let sk = build_skeleton(&g, &pf, &shared(&g), 1_000_000).unwrap();
        let image = sk.to_bytes();
        // 12 bytes per transition, 36 per block, 40 of framing.
        assert_eq!(
            image.len(),
            40 + 36 * sk.n_blocks() + 12 * sk.n_transitions()
        );
        assert_eq!(
            TransitionSkeleton::from_bytes(&image).unwrap().to_bytes(),
            image
        );
        // The ideal count sits 12 bytes from the end (before the ceiling).
        let at = image.len() - 12;
        let mut shrunk = image.clone();
        shrunk[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(TransitionSkeleton::from_bytes(&shrunk)
            .unwrap_err()
            .contains("out-of-range ideal"));
        // The first block's range end sits at bytes 40..44.
        let mut overrun = image.clone();
        overrun[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(TransitionSkeleton::from_bytes(&overrun)
            .unwrap_err()
            .contains("block range"));
        assert!(TransitionSkeleton::from_bytes(&image[..image.len() - 1]).is_err());
    }

    /// `frontier_cap` truncation returns a solution with a certified gap
    /// that contains the true optimum (from the uncapped solve), instead
    /// of failing.
    #[test]
    fn frontier_cap_certifies_a_bound_gap() {
        // Light stages at a loose period: many cluster counts are feasible
        // per ideal and splitting lowers dynamic energy, so rows hold rich
        // frontiers that a cap of 1 must truncate.
        let g = chain(&[0.4e9; 4], &[1e3; 3]);
        let pf = Platform::paper(2, 2);
        let t = 1.0;
        let exact = solve(&g, &pf, t, &Dpa1dConfig::default()).unwrap();
        let exact_stats = exact.prune.expect("DPA1D always reports prune stats");
        assert!(
            exact_stats.frontier_max >= 2,
            "test instance must exercise a non-trivial frontier, got {exact_stats:?}"
        );
        assert_eq!(exact_stats.bound_gap, 0.0);
        let capped_cfg = Dpa1dConfig {
            frontier_cap: 1,
            ..Default::default()
        };
        let capped = solve(&g, &pf, t, &capped_cfg).unwrap();
        let gap = capped.bound_gap();
        assert!(gap >= 0.0);
        // The capped solve prices a (possibly suboptimal) valid chain, so
        // its energy is at least the optimum; the certificate says the
        // optimum is no further than `gap` below it. One ulp of slack for
        // the evaluator's re-pricing of the DP energies.
        let slack = 1e-9 * exact.energy();
        assert!(capped.energy() >= exact.energy() - slack);
        assert!(
            exact.energy() >= capped.energy() - gap - slack,
            "certified gap must contain the true optimum: exact={}, capped={}, gap={gap}",
            exact.energy(),
            capped.energy()
        );
    }
}
