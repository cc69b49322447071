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
//! graphs). The `(ideal, extended ideal)` cluster transitions come from
//! one slice filler — the extension DFS, writing per-source blocks — and
//! reach the relaxer through one block consumer. Either the filler ran
//! once over every source into a [`TransitionSkeleton`] serving the
//! period, or it streams: it fills bounded slices at the period's
//! thresholds while the relaxer drains the previous slice (see "Which
//! producer runs" below). Both hand the relaxer the same transitions of
//! each source, sources in the same order, so the choice changes time and
//! memory, never the result (see "Why the order inside a block is free").
//! Sources are relaxed in ideal-id order (a topological order of the
//! transition DAG), each by the same per-block routine: prune the
//! finalised DP row to its Pareto frontier, snapshot its window of
//! cluster counts, relax every admitted out-transition. Backtracking the
//! optimum yields at most `r` clusters, which are laid along the snake.
//!
//! ## The extension DFS
//!
//! The filler enumerates a source's one-cluster extensions depth-first
//! over the lattice's Hasse diagram, keeping every level's ready list on
//! one arena stack of Hasse-edge ids (an edge `i -s-> c` says "stage `s`
//! is ready in `i`, and adding it yields `c`"). A step that adds `s`
//! pushes the next level's ready list in a fixed order: the stages still
//! pending after `s` at this level, carried over to their edges out of
//! `c`, then the covers of `c` that `s` itself releases. The second part
//! comes from a *released-cover index* built once per producer from the
//! lattice's Hasse arrays and predecessor masks — per Hasse edge, the
//! edges out of its child whose stage has `s` as a predecessor, in
//! `covers(c)` order — so a step copies a short list instead of scanning
//! `covers(c)`, and scatters `covers(c)` into its stage-indexed scratch
//! only when stages are carried over. The order of the pushes is the
//! walk's visit order, and with it the order each path's real-valued work
//! is summed in, so it is part of the bit-identity contract. The index is
//! dropped with its producer; it is never cached on the session.
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
//! the transitions the loosest period the session needs admits, once, and
//! each tighter point runs an admission pass over its flat arrays. A build
//! sorts every source block by `(work, destination id)`, so the pass
//! admits a block's `partition_point(|w| w <= cap_work)` prefix after one
//! compare on the source's cut: a skeleton built at a loose period serves
//! a tight one at the cost of exactly the transitions the tight one
//! admits. A streamed slice takes the same path: its filler already
//! applied the period's work threshold, so every prefix is the whole
//! block. Only when no skeleton fits the edge cap does a point fall back
//! to streaming.
//!
//! ## Which producer runs
//!
//! A skeleton only pays when a later solve reuses it: building one walks
//! the same extension DFS the streaming producer walks, and stores it. So
//! `DPA1D` decides from what its session shows, with no option:
//!
//! * a skeleton already cached or seeded on the session (a warm daemon, a
//!   sweep's later points, an explicit [`Instance::transition_skeleton`]
//!   call) that serves the period is used;
//! * on a session that declared reuse through
//!   [`Instance::note_period_ceiling`] (period sweeps, every daemon solve,
//!   incremental remaps), the first solve materialises the skeleton at
//!   the larger of the declared ceiling and its own period — never more
//!   than some period of the session admits — and relaxes from it;
//! * otherwise — a one-shot solve on a fresh session, such as a campaign
//!   op — it streams, and builds nothing.
//!
//! Streaming is a two-stage pipeline over two reused slice buffers: under
//! one `rayon::join` per slice, the filler walks the next run of source
//! ideals into one buffer (closing it at a source boundary once it holds
//! `SLICE_TRANSITIONS`) while the relaxer drains the other. On a pool
//! of two or more workers the DFS and the relaxation overlap; a 1-worker
//! pool runs the two stages inline, in order. Only two slices are ever
//! alive, and one source adds at most one transition per ideal, so the
//! stream's memory stays bounded by the slice size plus the lattice size.
//! The filler runs ahead of the relaxer, yet still skips the sources the
//! relaxer would ignore: it tracks the fewest clusters of any chain it
//! has emitted into each ideal, which is final — and equal to the
//! relaxer's — by the time that ideal is walked as a source.
//!
//! The lattice enumeration (every [`spg::ideal::ENUM_POLL_INTERVAL`]
//! ideals), skeleton builds, the slice filler (once per source ideal) and
//! the relaxer (once per source block) poll the solve's deadline; a
//! deadline failure is never cached on the session.
//!
//! ## Why the order inside a block is free
//!
//! A skeleton's blocks are sorted by work, a streamed block is in DFS
//! order, and both give the same bits. Within one block every destination
//! ideal is distinct (a source extends to each ideal at most once), and
//! relaxing a transition writes only its destination's row, from the
//! source's snapshot row. The per-row window bounds `klo`/`khi` are a min
//! and a max, and the telemetry counters are sums. So no transition of a
//! block reads what another wrote, and the result cannot depend on their
//! order. The relaxation's first-arrival tie-break runs *across* sources
//! (two sources reaching one destination slot at equal energy), and
//! sources stay in id order on every path.
//!
//! On a platform with a single row (`p = 1`) this *is* Theorem 1's exact
//! algorithm, which the test-suite cross-checks against a brute-force
//! enumeration of every chain of ideals.

use cmp_mapping::{Mapping, RouteSpec, REL_TOL};
use cmp_platform::{snake_core, CoreId, Platform, RoutePolicy, RouteTable};
use spg::ideal::{IdealError, IdealId, IdealLattice};
use spg::{Spg, StageId};

use crate::common::{validated_with, BudgetPhase, Failure, PruneStats, Solution};
use crate::instance::{Instance, SharedLattice};
use crate::solver::SolveCtx;

/// Complexity budgets for `DPA1D`.
#[derive(Debug, Clone)]
pub struct Dpa1dConfig {
    /// Maximum number of order ideals to enumerate before failing.
    pub ideal_cap: usize,
    /// Maximum number of transitions a [`TransitionSkeleton`] may
    /// materialise. A bound on memory, not a failure mode: a transition
    /// system past the cap is streamed in bounded slices, which store no
    /// more than two slices' worth of transitions and return the
    /// identical result.
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
    range: std::ops::Range<u32>,
}

impl SkeletonBlock {
    /// The transitions of this block admitted at `adm`'s thresholds, as a
    /// range into the slice's arrays: none when the source's outgoing link
    /// is overloaded, else the prefix of cluster works within `cap_work`.
    /// A skeleton's blocks are sorted by work; a streamed block holds only
    /// works within the threshold, so its prefix is the whole block.
    #[inline]
    fn admitted(&self, work: &[f64], adm: &Admission) -> std::ops::Range<usize> {
        let (start, end) = (self.range.start as usize, self.range.end as usize);
        let linked = self.from.idx() == 0 || self.cut <= adm.bw_cap;
        if !linked {
            return start..start;
        }
        start..start + work[start..end].partition_point(|&w| w <= adm.cap_work)
    }
}

/// Source blocks of cluster transitions in the per-source-block SoA layout
/// the relaxation reads: the storage of a [`TransitionSkeleton`] (one slice
/// over every source), and each slice the streaming pipeline hands from
/// its producer to its relaxer.
#[derive(Default)]
struct Slice {
    blocks: Vec<SkeletonBlock>,
    /// Per-transition destination ideal (in DFS order within a streamed
    /// block, sorted by `(work, destination id)` within a skeleton's).
    to: Vec<IdealId>,
    /// Per-transition cluster work (cycles) — the speed-admission and
    /// `Ecal` input.
    work: Vec<f64>,
    /// Largest cluster stage count over all transitions (telemetry; the DP
    /// never reads stage counts, so only the running max is kept — a
    /// per-transition array would pin ~4 MB per cached skeleton at the
    /// default edge cap for nothing).
    max_stages: u32,
}

impl Slice {
    fn clear(&mut self) {
        self.blocks.clear();
        self.to.clear();
        self.work.clear();
        self.max_stages = 0;
    }

    /// The one block consumer: feeds each block's transitions admitted at
    /// `adm`'s thresholds (see [`SkeletonBlock::admitted`]) to the
    /// relaxer, block by block in source-id order — so a skeleton and the
    /// streamed slices of the same period hand the relaxer the same
    /// transitions of each source, in the same source order. Polls `ctx`'s
    /// deadline once per source block.
    fn relax_into(&self, adm: &Admission, dp: &mut Relaxer, ctx: &SolveCtx) -> Result<(), Failure> {
        for b in &self.blocks {
            ctx.check_budget()?;
            let range = b.admitted(&self.work, adm);
            if !range.is_empty() {
                dp.relax_block(b.from, b.hop, &self.to[range.clone()], &self.work[range]);
            }
        }
        Ok(())
    }

    /// How many transitions the block consumer hands the relaxer at the
    /// period's thresholds. Monotone in the period: loosening a threshold
    /// only ever adds transitions.
    fn admitted_count(&self, adm: &Admission) -> usize {
        self.blocks
            .iter()
            .map(|b| b.admitted(&self.work, adm).len())
            .sum()
    }
}

/// The one slice filler: the extension DFS walking source ideals in id
/// order from a cursor, at one period's thresholds. A source whose
/// outgoing cut exceeds `bw_cap` is skipped (no period the fill serves can
/// pass through it); every other source's extensions within the DFS's
/// work threshold become one block, in DFS order.
struct BlockProducer<'a> {
    dfs: ExtendCtx<'a>,
    pf: &'a Platform,
    cuts: &'a [f64],
    bw_cap: f64,
    /// The next source ideal to walk.
    next: u32,
    /// A streaming producer's view of its relaxer (see
    /// [`BlockProducer::feeding`]): per ideal, the fewest clusters of any
    /// emitted chain reaching it (`u16::MAX` = none yet), and the most
    /// clusters a source row may hold and still extend.
    reach: Option<(Vec<u16>, u16)>,
}

impl<'a> BlockProducer<'a> {
    /// A producer at `adm`'s thresholds.
    fn new(
        spg: &'a Spg,
        pf: &'a Platform,
        shared: &'a SharedLattice,
        adm: &Admission,
    ) -> BlockProducer<'a> {
        BlockProducer {
            dfs: ExtendCtx::new(spg, &shared.lattice, adm.cap_work),
            pf,
            cuts: &shared.cuts,
            bw_cap: adm.bw_cap,
            next: 0,
            reach: None,
        }
    }

    /// Lets a streaming producer skip the DFS work that `dp` would ignore.
    /// Sources come in id order and every transition leads to a larger
    /// id, so when a source is walked, the fewest clusters of any chain
    /// the producer has emitted into it is final — and equal to the
    /// relaxer's lowest finite cluster count for that row. The relaxer
    /// ignores an unreached source, and of a source whose row cannot
    /// extend (`k + 1` must stay below the DP width) it only prunes the
    /// row at the first transition: the producer walks neither further.
    fn feeding(mut self, dp: &Relaxer) -> BlockProducer<'a> {
        let mut fewest = vec![u16::MAX; self.cuts.len()];
        fewest[0] = 0;
        self.reach = Some((fewest, (dp.state.width - 2) as u16));
        self
    }

    /// Whether every source has been walked.
    fn done(&self) -> bool {
        self.next as usize == self.cuts.len()
    }

    /// Appends the blocks of the next sources to `out` until every source
    /// is walked, or — at a source boundary — `out` holds at least
    /// `close_at` transitions. One source adds at most one transition per
    /// ideal, so a fill never passes `close_at` by more than the lattice
    /// size. Returns `Ok(false)` when a source would push `out` past
    /// `edge_cap` transitions (a build's overflow; `out` is then partial).
    /// Polls `ctx`'s deadline once per source ideal.
    fn fill(
        &mut self,
        out: &mut Slice,
        close_at: usize,
        edge_cap: usize,
        ctx: &SolveCtx,
    ) -> Result<bool, Failure> {
        while !self.done() && out.to.len() < close_at {
            ctx.check_budget()?;
            let from = IdealId(self.next);
            self.next += 1;
            let cut = self.cuts[from.idx()];
            if from.idx() != 0 && cut > self.bw_cap {
                continue; // outgoing link overloaded: unreachable boundary
            }
            let k = self
                .reach
                .as_ref()
                .map_or(0, |(fewest, _)| fewest[from.idx()]);
            if k == u16::MAX {
                continue; // no chain reaches this source
            }
            let extends = self.reach.as_ref().is_none_or(|&(_, last)| k <= last);
            let start = out.to.len() as u32;
            let mut overflow = false;
            let reach = &mut self.reach;
            self.dfs
                .extensions(from, &mut |child: IdealId, w: f64, depth: u32| -> bool {
                    if out.to.len() >= edge_cap {
                        overflow = true;
                        return false;
                    }
                    out.to.push(child);
                    out.work.push(w);
                    out.max_stages = out.max_stages.max(depth);
                    if !extends {
                        return false; // the relaxer only prunes this row
                    }
                    if let Some((fewest, _)) = reach.as_mut() {
                        fewest[child.idx()] = fewest[child.idx()].min(k + 1);
                    }
                    true
                });
            if overflow {
                return Ok(false);
            }
            let end = out.to.len() as u32;
            if end > start {
                out.blocks.push(SkeletonBlock {
                    from,
                    cut,
                    hop: hop_energy(self.pf, from, cut),
                    range: start..end,
                });
            }
        }
        Ok(true)
    }
}

/// The period-independent half of the `DPA1D` pipeline: every cluster
/// transition of the lattice that a ceiling period admits, in the
/// per-source-block SoA layout the relaxation streams, each block sorted
/// by `(work, destination id)`.
///
/// Built at most once per instance (see `Instance::transition_skeleton`)
/// and shared across `with_period` re-targets — the enabling structure for
/// period sweeps: per sweep point only the admission prefixes and `Ecal`
/// change.
pub struct TransitionSkeleton {
    // Summarised rather than dumped: a skeleton can hold a million
    // transitions.
    /// Every stored transition: one slice over all sources.
    slice: Slice,
    /// Size of the lattice the skeleton was built over: every ideal id it
    /// holds is below it, and a skeleton only serves a lattice of exactly
    /// this size.
    n_ideals: u32,
    /// The period the skeleton was built at, and the loosest it serves
    /// exactly. Both admission thresholds are monotone in the period, so
    /// the build holds *every* transition any period `T ≤ ceiling` admits,
    /// and the admission pass at such a `T` hands the relaxer what the
    /// streamed slices at `T` would (see the module docs).
    period_ceiling: f64,
}

impl std::fmt::Debug for TransitionSkeleton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransitionSkeleton")
            .field("blocks", &self.slice.blocks.len())
            .field("transitions", &self.slice.to.len())
            .field("ideals", &self.n_ideals)
            .field("period_ceiling", &self.period_ceiling)
            .finish()
    }
}

impl TransitionSkeleton {
    /// Number of transitions this skeleton stores: the nested ideal pairs
    /// its ceiling period admits (every pair, see
    /// [`spg::ideal::count_ideal_pairs`], once the ceiling admits every
    /// cluster and every cut).
    pub fn n_transitions(&self) -> usize {
        self.slice.to.len()
    }

    /// Number of source blocks with at least one transition.
    pub fn n_blocks(&self) -> usize {
        self.slice.blocks.len()
    }

    /// Approximate resident size in bytes (all per-block and
    /// per-transition arrays) — input to byte-bounded artifact-cache
    /// accounting.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.slice.blocks.capacity() * size_of::<SkeletonBlock>()
            + self.slice.to.capacity() * size_of::<IdealId>()
            + self.slice.work.capacity() * size_of::<f64>()
    }

    /// Largest cluster stage count over all transitions.
    pub fn max_cluster_stages(&self) -> u32 {
        self.slice.max_stages
    }

    /// The loosest period this skeleton serves exactly (see
    /// [`TransitionSkeleton::serves`]).
    pub fn period_ceiling(&self) -> f64 {
        self.period_ceiling
    }

    /// Whether an admission pass at `period` over this skeleton is exact —
    /// i.e. bit-identical to the streamed solve at that period: true for
    /// every `period ≤ ceiling`.
    pub fn serves(&self, period: f64) -> bool {
        period <= self.period_ceiling
    }

    /// Whether this skeleton should replace `other` in a cache: only when
    /// its ceiling is strictly looser, since it then serves every period
    /// `other` serves, and more.
    pub(crate) fn supersedes(&self, other: &TransitionSkeleton) -> bool {
        self.period_ceiling > other.period_ceiling
    }

    /// How many transitions the admission pass at `period` hands the
    /// relaxer on platform `pf` (the one this skeleton was built for):
    /// the sum of the admitted block prefixes. Meaningful for a period the
    /// skeleton [`serves`](TransitionSkeleton::serves).
    pub fn admitted(&self, pf: &Platform, period: f64) -> usize {
        self.slice.admitted_count(&Admission::new(pf, period))
    }

    /// Serialises the skeleton into a self-contained little-endian byte
    /// image for artifact-cache spill files; floats (cut volumes, cluster
    /// work, the period ceiling) travel as IEEE-754 bit patterns, so a
    /// reloaded skeleton admits bit-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        use spg::wire;
        let Slice {
            blocks,
            to,
            work,
            max_stages,
        } = &self.slice;
        let mut out = Vec::with_capacity(64 + blocks.len() * 28 + to.len() * 12);
        wire::put_u64(&mut out, blocks.len() as u64);
        for b in blocks {
            wire::put_u32(&mut out, b.from.0);
            wire::put_f64(&mut out, b.cut);
            wire::put_f64(&mut out, b.hop);
            wire::put_u32(&mut out, b.range.start);
            wire::put_u32(&mut out, b.range.end);
        }
        wire::put_u64(&mut out, to.len() as u64);
        for t in to {
            wire::put_u32(&mut out, t.0);
        }
        wire::put_f64_slice(&mut out, work);
        wire::put_u32(&mut out, *max_stages);
        wire::put_u32(&mut out, self.n_ideals);
        wire::put_f64(&mut out, self.period_ceiling);
        out
    }

    /// Decodes a byte image produced by [`TransitionSkeleton::to_bytes`],
    /// re-validating every index the relaxation later slices with (block
    /// ranges and ideal ids), so a corrupted spill file yields `Err`, never
    /// an out-of-bounds panic mid-DP. It also re-validates what the
    /// admission prefixes rest on — each block's works non-decreasing, and
    /// a finite ceiling — since a wrong prefix would silently drop
    /// transitions.
    pub fn from_bytes(bytes: &[u8]) -> Result<TransitionSkeleton, String> {
        use spg::wire;
        let mut pos = 0usize;
        let n_blocks = wire::get_len(bytes, &mut pos, 28)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let from = IdealId(wire::get_u32(bytes, &mut pos)?);
            let cut = wire::get_f64(bytes, &mut pos)?;
            let hop = wire::get_f64(bytes, &mut pos)?;
            let start = wire::get_u32(bytes, &mut pos)?;
            let end = wire::get_u32(bytes, &mut pos)?;
            blocks.push(SkeletonBlock {
                from,
                cut,
                hop,
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
        let unsorted = |b: &SkeletonBlock| {
            let range = b.range.start as usize..b.range.end as usize;
            !work[range].is_sorted()
        };
        if blocks.iter().any(unsorted) {
            return Err("a block's cluster works are not sorted".into());
        }
        if !period_ceiling.is_finite() {
            return Err("the skeleton ceiling is not a finite period".into());
        }
        Ok(TransitionSkeleton {
            slice: Slice {
                blocks,
                to,
                work,
                max_stages,
            },
            n_ideals,
            period_ceiling,
        })
    }

    /// Builds the transition system over a shared lattice at a finite
    /// ceiling period: exact for every period up to the ceiling (see
    /// [`TransitionSkeleton::serves`]) and no larger than what the ceiling
    /// admits. The inner result is the build's outcome: the skeleton, or
    /// the materialise-phase budget payload with the `edge_cap + 1`
    /// witness when the built set exceeds `edge_cap` (the caller falls
    /// back to a tighter ceiling or to streaming). The outer `Err` is
    /// `solve_ctx`'s deadline, polled once per source ideal: it says
    /// nothing about the inputs, so callers must not cache it.
    pub(crate) fn build(
        spg: &Spg,
        pf: &Platform,
        shared: &SharedLattice,
        edge_cap: usize,
        period_ceiling: f64,
        solve_ctx: &SolveCtx,
    ) -> Result<BuildOutcome, Failure> {
        #[cfg(test)]
        BUILDS.with(|n| n.set(n.get() + 1));
        // The build applies the ceiling period's admission thresholds at
        // materialisation time: both are monotone in the period, so
        // everything a tighter period admits survives.
        let mut slice = Slice::default();
        let adm = Admission::new(pf, period_ceiling);
        let mut producer = BlockProducer::new(spg, pf, shared, &adm);
        if !producer.fill(&mut slice, usize::MAX, edge_cap, solve_ctx)? {
            // Saturating, so a cap of `usize::MAX` cannot overflow.
            let witness = edge_cap.saturating_add(1);
            return Ok(Err(Failure::budget(
                BudgetPhase::Materialise,
                edge_cap,
                witness,
            )));
        }
        sort_blocks_by_work(&mut slice);
        Ok(Ok(TransitionSkeleton {
            slice,
            n_ideals: shared.lattice.len() as u32,
            period_ceiling,
        }))
    }
}

/// Sorts each block of `slice` by `(work, destination id)`, so every
/// period's admitted transitions of a block are a prefix of it. The key is
/// unique within a block (its destinations are distinct), so the order is
/// fully determined.
fn sort_blocks_by_work(slice: &mut Slice) {
    let mut pairs: Vec<(f64, IdealId)> = Vec::new();
    for b in &slice.blocks {
        let range = b.range.start as usize..b.range.end as usize;
        pairs.clear();
        pairs.extend(
            slice.work[range.clone()]
                .iter()
                .copied()
                .zip(slice.to[range.clone()].iter().copied()),
        );
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (i, (w, t)) in range.zip(pairs.iter().copied()) {
            slice.work[i] = w;
            slice.to[i] = t;
        }
    }
}

/// A skeleton build that ran to its end: the skeleton, or the edge-cap
/// overflow it stopped at. Both are facts about the inputs, so the
/// `Instance` cache records either.
pub(crate) type BuildOutcome = Result<TransitionSkeleton, Failure>;

// The deadlines a joined producer fill stopped at — the witness that the
// producer, not only the relaxer, polls. Keyed by deadline, so tests
// running in parallel do not see each other's entries.
#[cfg(test)]
static PRODUCER_DEADLINES: std::sync::Mutex<Vec<std::time::Instant>> =
    std::sync::Mutex::new(Vec::new());

// Skeleton builds started on this thread — the witnesses that a solve
// streamed, or that a cache path answered without a build.
#[cfg(test)]
thread_local! {
    pub(crate) static BUILDS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
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
    /// `(freq, power/freq)` per speed, in speed-index order (increasing
    /// frequency).
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

    /// The slowest speed with `freq >= needed`, picked branch-free: the
    /// table is sorted by frequency, so the number of speeds failing the
    /// test is that speed's index (the table's length when none passes —
    /// a NaN `needed` fails every test, as it would an early-exit search,
    /// which is why the test is negated rather than flipped to `<`).
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn ecal(&self, w: f64) -> Option<f64> {
        let needed = w * self.inv_period;
        let slower = self
            .speeds
            .iter()
            .map(|&(freq, _)| usize::from(!(freq >= needed)))
            .sum::<usize>();
        self.speeds
            .get(slower)
            .map(|&(_, energy_per_cycle)| self.leak + w * energy_per_cycle)
    }
}

/// `DPA1D` on an instance's session caches: its interned
/// [`SharedLattice`], a [`TransitionSkeleton`] serving the period when the
/// session has one or has declared reuse (see the module docs, "Which
/// producer runs"), and the snake route table. The lattice enumeration,
/// skeleton builds and both pipeline stages poll `ctx`'s deadline; a
/// deadline failure is never cached on the instance.
pub(crate) fn dpa1d_run(
    inst: &Instance,
    cfg: &Dpa1dConfig,
    ctx: &SolveCtx,
) -> Result<Solution, Failure> {
    let shared = inst
        .lattice_within(cfg.ideal_cap, ctx)?
        .map_err(|e| lattice_failure(&e))?;
    let skeleton = if inst.reuse_declared() {
        inst.skeleton_within(cfg, ctx)?
    } else {
        inst.serving_skeleton()
    };
    let (spg, pf, period) = (inst.spg(), inst.platform(), inst.period());
    let (chain, prune) = solve_chain(spg, pf, period, cfg, &shared, skeleton.as_deref(), ctx)?;
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
/// and are streamed otherwise; either way the solve fails with the
/// deadline-phase budget once `ctx`'s deadline passes.
fn solve_chain(
    spg: &Spg,
    pf: &Platform,
    period: f64,
    cfg: &Dpa1dConfig,
    shared: &SharedLattice,
    skeleton: Option<&TransitionSkeleton>,
    ctx: &SolveCtx,
) -> Result<ChainSolve, Failure> {
    let lattice = &shared.lattice;
    let adm = Admission::new(pf, period);
    let mut dp = Relaxer::new(spg, pf, period, lattice, cfg.frontier_cap);
    // A skeleton is only exact up to its ceiling, and it only indexes the
    // lattice it was built over (the `Instance` cache hands out serving
    // skeletons only; the check keeps a mismatched one from slicing out
    // of range).
    match skeleton.filter(|sk| sk.serves(period) && sk.n_ideals as usize == lattice.len()) {
        Some(sk) => sk.slice.relax_into(&adm, &mut dp, ctx)?,
        None => stream_into(spg, pf, shared, &adm, &mut dp, ctx)?,
    }
    let (chain, best) = dp.state.backtrack(lattice)?;
    Ok((chain, dp.prune.stats(best)))
}

/// Transitions a streamed slice holds before it closes (at the next
/// source boundary). Two slices are live at once — one filling, one
/// relaxing — so a stream holds at most `2 · (SLICE_TRANSITIONS +
/// lattice size)` transitions of 12 bytes each; at 2^14 a slice (~200 KB)
/// stays cache-resident between its two stages, and one join is paid per
/// ~16K transitions.
const SLICE_TRANSITIONS: usize = 1 << 14;

/// The streaming producer, run as a two-stage pipeline: the extension DFS
/// at the period's thresholds fills the next slice of source blocks while
/// the relaxer drains the previous one, under one `rayon::join` per slice
/// over two reused buffers (a 1-worker pool runs both inline, in order).
/// Slices are relaxed in source order, through the same block consumer a
/// skeleton uses, so the relaxer sees the exact transition sequence of a
/// skeleton serving this period and stores at most two slices. This is
/// what makes the edge cap a *soundness-preserving* bound: a transition
/// system past the cap costs time, not a `TooExpensive` failure. Both
/// stages poll `ctx`'s deadline: the producer once per source ideal, the
/// relaxer once per source block.
fn stream_into(
    spg: &Spg,
    pf: &Platform,
    shared: &SharedLattice,
    adm: &Admission,
    dp: &mut Relaxer,
    ctx: &SolveCtx,
) -> Result<(), Failure> {
    let mut producer = BlockProducer::new(spg, pf, shared, adm).feeding(dp);
    let (mut ready, mut next) = (Slice::default(), Slice::default());
    producer.fill(&mut ready, SLICE_TRANSITIONS, usize::MAX, ctx)?;
    // The last slice has nothing to overlap with, so it is relaxed inline
    // — as is a whole stream that fits one slice, which wakes no worker.
    while !producer.done() {
        next.clear();
        let (relaxed, filled) = rayon::join(
            || ready.relax_into(adm, dp, ctx),
            || {
                let filled = producer.fill(&mut next, SLICE_TRANSITIONS, usize::MAX, ctx);
                #[cfg(test)]
                if filled.is_err() {
                    PRODUCER_DEADLINES.lock().unwrap().extend(ctx.deadline);
                }
                filled
            },
        );
        relaxed?;
        filled?;
        std::mem::swap(&mut ready, &mut next);
    }
    ready.relax_into(adm, dp, ctx)
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

/// The one relaxation engine. The block consumer hands it sources in
/// ideal-id order — a topological order of the transition DAG (every
/// extension strictly grows the ideal, and ids are sorted by cardinality)
/// — so when a source is opened, all of its in-transitions have already
/// been relaxed and its DP row is final. One pass over the sources therefore relaxes every
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

    /// Relaxes one source block: the admitted out-transitions of `from`
    /// (hop energy `hop`) into `to` with cluster works `work`. The row is
    /// pruned and snapshotted lazily, at the first transition with a
    /// feasible speed, so a source with no feasible extension at this
    /// period leaves its row and the telemetry untouched; once the row
    /// turns out unable to extend, the rest of the block is skipped. An
    /// unreachable source is skipped outright.
    fn relax_block(&mut self, from: IdealId, hop: f64, to: &[IdealId], work: &[f64]) {
        let f = from.idx();
        if self.state.klo[f] == u16::MAX {
            return;
        }
        // `None` until the first feasible transition primes the row; then
        // the row's relaxation window.
        let mut window: Option<(usize, usize)> = None;
        let mut kept = 0u64;
        for (&t, &w) in to.iter().zip(work) {
            // The work threshold guarantees a feasible speed; be defensive
            // about rounding anyway and skip rather than panic.
            let Some(ecal) = self.ec.ecal(w) else {
                continue;
            };
            let (lo, hi) = match window {
                Some(window) => window,
                None => match self.prime(f, hop) {
                    Some(primed) => *window.insert(primed),
                    None => return,
                },
            };
            kept += 1;
            self.state
                .relax(t.idx(), from.0, hop + ecal, &self.row, lo, hi);
        }
        if let Some((lo, hi)) = window {
            self.prune.count_source(f, kept, (hi - lo + 1) as u64);
        }
    }

    /// Prunes the now-final row of source `f`, takes its window, and
    /// snapshots it (`None` when the row cannot extend).
    fn prime(&mut self, f: usize, hop: f64) -> Option<(usize, usize)> {
        let width = self.state.width;
        self.prune.prune_row(
            f,
            hop,
            width,
            &mut self.state.e[f * width..(f + 1) * width],
            &mut self.state.klo[f],
            &mut self.state.khi[f],
        );
        let (lo, hi) = self.state.window(f)?;
        self.row[lo..=hi].copy_from_slice(&self.state.e[f * width + lo..f * width + hi + 1]);
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
/// lattice's Hasse diagram (whose edges resolve "current ideal + stage" to
/// the next `IdealId` without hashing), the released-cover index, and an
/// arena stack holding every recursion level's ready list as a range of
/// Hasse-edge ids — the DFS performs no per-node allocation.
struct ExtendCtx<'a> {
    spg: &'a Spg,
    /// The lattice's `(stage, child)` covers, indexed by Hasse-edge id.
    hasse: &'a [(u32, u32)],
    /// The covers of ideal `i` are the edge ids
    /// `hasse_off[i] .. hasse_off[i + 1]`.
    hasse_off: &'a [u32],
    /// The released-cover index: for Hasse edge `e = (i -s-> c)`, the
    /// edges out of `c` whose stage `s` itself makes ready (`s` is one of
    /// its predecessors) are `released[released_off[e] ..
    /// released_off[e + 1]]`, in `covers(c)` order. Built once per
    /// producer from the lattice's Hasse arrays and predecessor masks.
    released: Vec<u32>,
    released_off: Vec<u32>,
    cap_work: f64,
    /// Pending Hasse edges `(i -s-> c)` of every recursion level: stage
    /// `s` is ready, and adding it leads to `c`.
    stack: Vec<u32>,
    /// Scratch, indexed by stage: the edge its cover takes out of the
    /// ideal whose next level is being assembled.
    via: Vec<u32>,
    /// Cover entries the walk has read (`via` scatters and released
    /// lists) — the test-only witness that a step reads fewer of them.
    #[cfg(test)]
    cover_reads: u64,
}

impl<'a> ExtendCtx<'a> {
    fn new(spg: &'a Spg, lattice: &'a IdealLattice, cap_work: f64) -> ExtendCtx<'a> {
        let (hasse, hasse_off) = lattice.hasse();
        let pred_masks = lattice.pred_masks();
        let mut released = Vec::new();
        let mut released_off = Vec::with_capacity(hasse.len() + 1);
        released_off.push(0);
        for &(s, c) in hasse {
            let c = c as usize;
            released.extend(
                (hasse_off[c]..hasse_off[c + 1])
                    .filter(|&e| pred_masks[hasse[e as usize].0 as usize].contains(s as usize)),
            );
            released_off.push(released.len() as u32);
        }
        ExtendCtx {
            spg,
            hasse,
            hasse_off,
            released,
            released_off,
            cap_work,
            stack: Vec::with_capacity(4 * spg.n()),
            via: vec![0; spg.n()],
            #[cfg(test)]
            cover_reads: 0,
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
            .extend(self.hasse_off[from.idx()]..self.hasse_off[from.idx() + 1]);
        let hi = self.stack.len();
        extend(self, 0.0, 1, 0, hi, visit)
    }
}

/// DFS over cluster extensions of the ideal whose pending ready list is
/// `ctx.stack[lo..hi]` (Hasse-edge ids in lattice cover order — NOT sorted
/// by weight, so an overweight stage must be `continue`d past, never
/// `break`ed on). Each loop iteration picks `stack[k]` as the *next*
/// included stage (everything before `k` stays excluded on this path), so
/// every distinct extension is visited exactly once. `visit` receives the
/// extension's interned id, its cluster work, and its cluster stage count
/// (`depth` counts the stages on this path); returning `false` aborts.
fn extend(
    ctx: &mut ExtendCtx<'_>,
    w: f64,
    depth: u32,
    lo: usize,
    hi: usize,
    visit: &mut impl FnMut(IdealId, f64, u32) -> bool,
) -> bool {
    for k in lo..hi {
        let e = ctx.stack[k] as usize;
        let (s, child) = ctx.hasse[e];
        let w2 = w + ctx.spg.weight(StageId(s));
        if w2 > ctx.cap_work {
            continue; // a lighter stage later in the list may still fit
        }
        if !visit(IdealId(child), w2, depth) {
            return false;
        }
        // Next level's ready list: the stages after `k`, carried over to
        // their covers out of `child`, then the covers of `child` released
        // by `s` itself. A stage becomes ready exactly when its last
        // missing predecessor joins the ideal, so "newly released" is
        // precisely "`s` is one of its predecessors" — stages ready earlier
        // (including the ones deliberately excluded at shallower levels of
        // this path) can never have `s` as a predecessor. The stages after
        // `k` stay ready in `child`, so each has a cover there; `via` is
        // only filled when there is one to carry over.
        let next_lo = ctx.stack.len();
        if k + 1 < hi {
            let covers = ctx.hasse_off[child as usize]..ctx.hasse_off[child as usize + 1];
            #[cfg(test)]
            {
                ctx.cover_reads += covers.len() as u64;
            }
            for ce in covers {
                ctx.via[ctx.hasse[ce as usize].0 as usize] = ce;
            }
            for j in k + 1..hi {
                let stage = ctx.hasse[ctx.stack[j] as usize].0;
                ctx.stack.push(ctx.via[stage as usize]);
            }
        }
        let released =
            &ctx.released[ctx.released_off[e] as usize..ctx.released_off[e + 1] as usize];
        #[cfg(test)]
        {
            ctx.cover_reads += released.len() as u64;
        }
        // A plain loop: the lists are short, and a `memcpy` call per step
        // measured slower.
        for &r in released {
            ctx.stack.push(r);
        }
        let next_hi = ctx.stack.len();
        if next_hi > next_lo {
            let ok = extend(ctx, w2, depth + 1, next_lo, next_hi, visit);
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
    use spg::ideal::{cut_volumes, enumerate_ideals};
    use spg::{chain, parallel_many, NodeSet};

    /// `DPA1D` through a fresh session, the way every caller reaches it.
    fn solve(g: &Spg, pf: &Platform, t: f64, cfg: &Dpa1dConfig) -> Result<Solution, Failure> {
        dpa1d_run(
            &Instance::new(g.clone(), pf.clone(), t),
            cfg,
            &SolveCtx::default(),
        )
    }

    /// A skeleton build at `ceiling` with no deadline.
    fn build(
        g: &Spg,
        pf: &Platform,
        shared: &SharedLattice,
        edge_cap: usize,
        ceiling: f64,
    ) -> BuildOutcome {
        TransitionSkeleton::build(g, pf, shared, edge_cap, ceiling, &SolveCtx::default())
            .expect("no deadline")
    }

    fn shared(g: &Spg) -> SharedLattice {
        let lattice = enumerate_ideals(g, 60_000).unwrap();
        let cuts = cut_volumes(g, &lattice);
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
        let (chain_sol, _) = solve_chain(
            &g,
            &pf,
            1.0,
            &Dpa1dConfig::default(),
            &shared(&g),
            None,
            &SolveCtx::default(),
        )
        .unwrap();
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
        let sk = build(&g, &pf, &shared, cfg.edge_cap, 10.0).unwrap();
        let mut prev = 0usize;
        for period in [0.01, 0.1, 1.0, 10.0] {
            let n = sk.slice.admitted_count(&Admission::new(&pf, period));
            assert!(n >= prev, "admission must be monotone in the period");
            prev = n;
        }
        assert_eq!(prev, sk.n_transitions(), "a loose period admits all");
        let (unc, _) =
            solve_chain(&g, &pf, 1.0, &cfg, &shared, Some(&sk), &SolveCtx::default()).unwrap();
        let tight = Dpa1dConfig {
            edge_cap: 1,
            ..cfg.clone()
        };
        let (capped, stats) = solve_chain(
            &g,
            &pf,
            1.0,
            &tight,
            &shared,
            Some(&sk),
            &SolveCtx::default(),
        )
        .unwrap();
        assert_eq!(unc, capped, "edge cap must not change the exact chain");
        assert_eq!(stats.bound_gap, 0.0, "uncapped frontier is exact");
        assert!(stats.transitions_kept > 0);
    }

    /// The skeleton builder itself respects the edge cap (a build over it
    /// stops, it must not OOM or panic), and stores exactly what its
    /// ceiling admits.
    #[test]
    fn skeleton_build_respects_edge_cap() {
        let g = chain(&[1e6; 30], &[1e3; 29]);
        let pf = Platform::paper(2, 2);
        let shared = shared(&g);
        // A 30-chain has 31 ideals and C(31,2) = 465 nested pairs; at 1 s
        // every cluster and every cut fits, so the build holds them all.
        let sk = build(&g, &pf, &shared, 1_000_000, 1.0).unwrap();
        assert_eq!(sk.n_transitions(), 465);
        assert!(sk.max_cluster_stages() >= 1);
        assert!(sk.serves(1.0) && !sk.serves(1.01));
        let err = build(&g, &pf, &shared, 100, 1.0).unwrap_err();
        let b = err.budget_exceeded().unwrap();
        assert_eq!(b.phase, BudgetPhase::Materialise);
        assert_eq!(b.cap, 100);
        // A tighter ceiling materialises only its admitted set — it fits
        // the cap the loose build overflows. cap_work = 3e6 ⇒ clusters of
        // ≤ 3 stages ⇒ 3·30 − 3 = 87 ≤ 100.
        let ceiling = 0.003;
        let bounded = build(&g, &pf, &shared, 100, ceiling).unwrap();
        assert!(bounded.serves(ceiling) && !bounded.serves(ceiling * 1.01));
        assert_eq!(bounded.n_transitions(), 87);
        // The loose skeleton's prefixes at the tight ceiling hand the
        // relaxer exactly the tight build's transitions.
        assert_eq!(sk.admitted(&pf, ceiling), 87);
        assert_eq!(bounded.admitted(&pf, ceiling), 87);
    }

    /// A bounded skeleton serves every period at or below its ceiling
    /// bit-identically to a looser skeleton AND to the fresh per-period
    /// DFS — results and telemetry both.
    #[test]
    fn bounded_skeleton_matches_fresh_below_ceiling() {
        let g = fork_join();
        let pf = Platform::paper(2, 3);
        let cfg = Dpa1dConfig::default();
        let shared = shared(&g);
        let complete = build(&g, &pf, &shared, cfg.edge_cap, 1e3).unwrap();
        let ceiling = 0.5;
        let bounded = build(&g, &pf, &shared, cfg.edge_cap, ceiling).unwrap();
        assert!(bounded.n_transitions() <= complete.n_transitions());
        for period in [0.5, 0.2, 0.05, 0.01] {
            let adm = Admission::new(&pf, period);
            assert_eq!(
                bounded.slice.admitted_count(&adm),
                complete.slice.admitted_count(&adm),
                "admitted sets must agree at T={period}"
            );
            let fresh = solve_chain(&g, &pf, period, &cfg, &shared, None, &SolveCtx::default());
            for sk in [&complete, &bounded] {
                let served = solve_chain(
                    &g,
                    &pf,
                    period,
                    &cfg,
                    &shared,
                    Some(sk),
                    &SolveCtx::default(),
                );
                match (&fresh, &served) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "skeleton diverged at T={period}"),
                    (Err(_), Err(_)) => {}
                    other => panic!("path outcomes diverged at T={period}: {other:?}"),
                }
            }
        }
    }

    /// Skeleton builds this thread has started.
    fn builds() -> u32 {
        BUILDS.with(|n| n.get())
    }

    /// A session that declared reuse, as sweeps and the daemon do.
    fn declared(inst: Instance) -> Instance {
        inst.note_period_ceiling(inst.period());
        inst
    }

    /// Energy bits and telemetry of a solve, or its failure text.
    fn outcome(r: &Result<Solution, Failure>) -> Result<(u64, Option<PruneStats>), String> {
        match r {
            Ok(sol) => Ok((sol.energy().to_bits(), sol.prune)),
            Err(e) => Err(e.to_string()),
        }
    }

    /// When no skeleton fits the edge cap, a session that declared reuse
    /// streams the relaxation instead of failing, and matches a
    /// skeleton-served solve to the bit — energy and telemetry — making
    /// the edge cap soundness-preserving. The build counters show which
    /// producer each leg really ran.
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
                // Materialised: the build at the period fits the default
                // cap, runs once, and is cached.
                let full_inst = declared(Instance::new(g.clone(), pf.clone(), period));
                let before = builds();
                let full = dpa1d_run(&full_inst, &Dpa1dConfig::default(), &SolveCtx::default());
                assert_eq!(builds(), before + 1, "T={period}");
                let sk = full_inst.cached_skeleton().expect("the build is cached");
                assert_eq!(sk.period_ceiling(), period);
                // Streamed: the one build at the period overflows, and
                // nothing is cached.
                let streamed_inst = declared(Instance::new(g.clone(), pf.clone(), period));
                let before = builds();
                let streamed = dpa1d_run(&streamed_inst, &capped, &SolveCtx::default());
                assert_eq!(builds(), before + 1, "T={period}");
                assert!(streamed_inst.serving_skeleton().is_none(), "T={period}");
                assert!(full.is_ok(), "T={period}: {full:?}");
                assert_eq!(outcome(&full), outcome(&streamed), "T={period}");
            }
        }
    }

    /// BitonicSort on the paper's 4×4 grid at utilisation 0.3: its complete
    /// transition system overflows the default edge cap, and so does the
    /// bounded build at the session's period, so the solve is a long
    /// streaming relaxation.
    fn bitonic_session() -> Instance {
        let spec = spg::STREAMIT_SPECS
            .iter()
            .find(|s| s.name == "BitonicSort")
            .unwrap();
        Instance::for_utilisation(spg::streamit_workflow(spec, 0), Platform::paper(4, 4), 0.3)
    }

    /// The deadline is polled inside the relaxation, not only at solver
    /// entry, and a deadline failure leaves nothing behind on the session.
    #[test]
    fn deadline_expires_inside_the_relaxation() {
        use std::time::Duration;
        let cfg = Dpa1dConfig::default();
        let inst = bitonic_session();
        let ctx = SolveCtx::budgeted(0, Duration::from_millis(1));
        match dpa1d_run(&inst, &cfg, &ctx) {
            Err(Failure::TooExpensive(b)) => assert_eq!(b.phase, BudgetPhase::Deadline),
            other => panic!("expected a deadline failure, got {other:?}"),
        }
        // The same session then solves, to the bit of a fresh unbudgeted
        // session; a generous deadline changes nothing.
        let hour = SolveCtx::budgeted(0, Duration::from_secs(3600));
        let after = dpa1d_run(&inst, &cfg, &hour).unwrap();
        let cold = dpa1d_run(&bitonic_session(), &cfg, &SolveCtx::default()).unwrap();
        assert_eq!(after.energy().to_bits(), cold.energy().to_bits());
        assert_eq!(after.prune, cold.prune);
    }

    /// The producer polls the deadline too. On a 2-worker pool, deadlines
    /// that fall inside the pipelined relaxation stop the solve with a
    /// deadline failure — at least one of them inside a producer fill on
    /// the worker opposite the relaxer — and cache nothing; the session
    /// then solves to the bits of a fresh one.
    #[test]
    fn deadline_expires_inside_the_producer() {
        use std::time::Instant;
        let cfg = Dpa1dConfig::default();
        let pool = rayon::ThreadPool::new(2);
        // The lattice is enumerated outside every budget below, so each
        // deadline lands in the pipeline.
        let warmed = || {
            let inst = bitonic_session();
            inst.lattice(cfg.ideal_cap).unwrap();
            inst
        };
        // The quicker of two unbudgeted solves: the deadlines below stay
        // early enough to land inside a solve even on an idle host.
        let mut full = std::time::Duration::MAX;
        let mut cold = Err(Failure::NoValidMapping(String::new()));
        for _ in 0..2 {
            let started = Instant::now();
            cold = pool.install(|| dpa1d_run(&warmed(), &cfg, &SolveCtx::default()));
            full = full.min(started.elapsed());
        }
        assert!(cold.is_ok(), "{cold:?}");
        let inst = warmed();
        let mut tripped = 0;
        for share in [0.05, 0.1, 0.15, 0.2, 0.25] {
            let ctx = SolveCtx {
                deadline: Some(Instant::now() + full.mul_f64(share)),
                ..SolveCtx::default()
            };
            match pool.install(|| dpa1d_run(&inst, &cfg, &ctx)) {
                Err(Failure::TooExpensive(b)) => assert_eq!(b.phase, BudgetPhase::Deadline),
                other => panic!("expected a deadline failure at {share}, got {other:?}"),
            }
            assert!(inst.cached_skeleton().is_none(), "{share}");
            assert!(inst.skeleton_overflows().is_empty(), "{share}");
            let deadline = ctx.deadline.unwrap();
            tripped += PRODUCER_DEADLINES.lock().unwrap().contains(&deadline) as usize;
        }
        assert!(tripped > 0, "no deadline stopped a producer fill");
        let after = pool.install(|| dpa1d_run(&inst, &cfg, &SolveCtx::default()));
        assert_eq!(outcome(&after), outcome(&cold));
    }

    /// The deadline is polled inside skeleton builds too: a session that
    /// declared reuse fails a 1 ms deadline during its bounded build, and
    /// the failure is not recorded in the skeleton slot, so the next
    /// (unbudgeted) solve retries the build and answers with the bits of a
    /// fresh session.
    #[test]
    fn deadline_expires_inside_the_skeleton_build() {
        use std::time::Duration;
        let cfg = Dpa1dConfig::default();
        let inst = declared(bitonic_session());
        // The lattice build polls the deadline too: enumerate it outside
        // the budget, so the deadline lands in the skeleton build.
        inst.lattice(cfg.ideal_cap).unwrap();
        let before = builds();
        let ctx = SolveCtx::budgeted(0, Duration::from_millis(1));
        match dpa1d_run(&inst, &cfg, &ctx) {
            Err(Failure::TooExpensive(b)) => assert_eq!(b.phase, BudgetPhase::Deadline),
            other => panic!("expected a deadline failure, got {other:?}"),
        }
        assert_eq!(builds(), before + 1, "stopped in the build");
        // The slot records nothing: the deadline stopped the build before
        // it could overflow, and was not recorded.
        assert!(
            inst.skeleton_overflows().is_empty(),
            "the build ran past the deadline or cached it"
        );
        let after = dpa1d_run(&inst, &cfg, &SolveCtx::default());
        assert_eq!(builds(), before + 2, "the build is retried");
        let fresh = dpa1d_run(&bitonic_session(), &cfg, &SolveCtx::default());
        assert!(after.is_ok(), "{after:?}");
        assert_eq!(outcome(&after), outcome(&fresh));
    }

    /// The pipelined stream hands the relaxer the exact sequence a skeleton
    /// serving the period would. On explicit 1- and 2-worker pools, a
    /// one-shot solve of each point — the four BitonicSort campaign points
    /// (over the edge cap) and DES and Serpent on 4×4 at u0.3 — matches,
    /// energy bits and `PruneStats`, a session seeded with a skeleton
    /// built at the period with the edge cap lifted; the one-shot solve
    /// builds and caches nothing.
    #[test]
    fn pipelined_stream_matches_skeleton_served() {
        let cfg = Dpa1dConfig::default();
        let points = [
            ("BitonicSort", 4, 0.3),
            ("BitonicSort", 4, 0.5),
            ("BitonicSort", 6, 0.3),
            ("BitonicSort", 6, 0.5),
            ("DES", 4, 0.3),
            ("Serpent", 4, 0.3),
        ];
        let pools = [1, 2].map(|w| (w, rayon::ThreadPool::new(w)));
        for (flow, p, u) in points {
            let spec = spg::STREAMIT_SPECS.iter().find(|s| s.name == flow).unwrap();
            let g = spg::streamit_workflow(spec, 0);
            let pf = Platform::paper(p, p);
            let session = || Instance::for_utilisation(g.clone(), pf.clone(), u);
            let served = session();
            let shared = served.lattice(cfg.ideal_cap).unwrap();
            let sk = build(&g, &pf, &shared, usize::MAX, served.period()).unwrap();
            served.seed_skeleton(std::sync::Arc::new(sk));
            assert!(served.serving_skeleton().is_some(), "{flow} {p}x{p} u{u}");
            let reference = dpa1d_run(&served, &cfg, &SolveCtx::default());
            assert!(reference.is_ok(), "{flow} {p}x{p} u{u}: {reference:?}");
            for (w, pool) in &pools {
                let at = format!("{flow} {p}x{p} u{u} on {w} workers");
                let fresh = session();
                let before = builds();
                let streamed = pool.install(|| dpa1d_run(&fresh, &cfg, &SolveCtx::default()));
                assert_eq!(builds(), before, "{at}: a one-shot solve built");
                assert!(fresh.cached_skeleton().is_none(), "{at}");
                assert_eq!(outcome(&streamed), outcome(&reference), "{at}");
            }
        }
    }

    /// The StreamIt flows with the largest transition systems (together
    /// ~6 s of the grid in the debug profile): the quick grid leaves them
    /// to its `#[ignore]`d twin.
    const HEAVY_FLOWS: [&str; 3] = ["BitonicSort", "DES", "Serpent"];

    /// The campaign's StreamIt grid (every flow under the ideal cap, 4×4
    /// and 6×6, utilisation 0.3 and 0.5): a fresh session solved once by
    /// `Dpa1d` builds no skeleton and caches none; it answers with the
    /// energy bits and telemetry of a session that declared reuse; the
    /// declared session builds once, and serves a second, tighter period
    /// from its cache.
    fn one_shot_grid(heavy: bool) {
        use crate::solver::Solver;
        let solver = crate::solvers::Dpa1d::default();
        let ctx = SolveCtx::default();
        let cap = Dpa1dConfig::default().ideal_cap as u128;
        let mut points = 0;
        for spec in spg::STREAMIT_SPECS.iter() {
            let g = spg::streamit_workflow(spec, 0);
            if spg::ideal::count_ideals(&g).is_none_or(|n| n > cap)
                || HEAVY_FLOWS.contains(&spec.name) != heavy
            {
                continue;
            }
            for (p, q) in [(4, 4), (6, 6)] {
                for u in [0.3, 0.5] {
                    let at = format!("{} {p}x{q} u{u}", spec.name);
                    let pf = Platform::paper(p, q);
                    let fresh = Instance::for_utilisation(g.clone(), pf.clone(), u);
                    let before = builds();
                    let one_shot = solver.solve(&fresh, &ctx);
                    assert_eq!(builds(), before, "{at}: a one-shot solve built");
                    assert!(fresh.cached_skeleton().is_none(), "{at}");

                    let reused = declared(Instance::for_utilisation(g.clone(), pf, u));
                    let before = builds();
                    let first = solver.solve(&reused, &ctx);
                    let after = builds();
                    assert_eq!(outcome(&one_shot), outcome(&first), "{at}");
                    let Some(sk) = reused.serving_skeleton() else {
                        // Either a stage misses the period alone and the
                        // solve was rejected before DPA1D ran, or the one
                        // build at the period overflowed the edge cap and
                        // the session streamed.
                        let expect = if reused.infeasible_stage().is_some() {
                            before
                        } else {
                            before + 1
                        };
                        assert_eq!(after, expect, "{at}");
                        continue;
                    };
                    assert_eq!(after, before + 1, "{at}: one build serves the session");
                    assert_eq!(sk.period_ceiling(), reused.period(), "{at}");
                    let tighter = reused.period() * 0.75;
                    assert!(sk.serves(tighter), "{at}");
                    let before = builds();
                    let second = solver.solve(&reused.with_period(tighter), &ctx);
                    assert_eq!(builds(), before, "{at}: the second period rebuilt");
                    let cold = Instance::new(g.clone(), Platform::paper(p, q), tighter);
                    assert_eq!(
                        outcome(&second),
                        outcome(&solver.solve(&cold, &ctx)),
                        "{at}"
                    );
                    points += 1;
                }
            }
        }
        assert!(points > 0, "the grid must exercise a cached skeleton");
    }

    #[test]
    fn one_shot_solves_stream_and_match_declared_reuse() {
        one_shot_grid(false);
    }

    #[test]
    #[ignore = "the heavy StreamIt flows; CI's perf gate runs them in release"]
    fn one_shot_solves_stream_and_match_declared_reuse_heavy() {
        one_shot_grid(true);
    }

    /// Energy bits, cluster chain and telemetry of one `solve_chain`, or
    /// its failure text.
    type ChainOutcome = Result<(u64, Vec<Vec<StageId>>, PruneStats), String>;

    /// [`solve_chain`] at `period` from `skeleton` (`None` streams), with
    /// the chain priced along the snake as [`dpa1d_run`] prices it.
    fn chain_outcome(
        inst: &Instance,
        shared: &SharedLattice,
        skeleton: Option<&TransitionSkeleton>,
    ) -> ChainOutcome {
        let (g, pf, period) = (inst.spg(), inst.platform(), inst.period());
        let cfg = Dpa1dConfig::default();
        let (chain, prune) =
            solve_chain(g, pf, period, &cfg, shared, skeleton, &SolveCtx::default())
                .map_err(|e| e.to_string())?;
        let table = inst.route_table(RoutePolicy::Snake);
        let sol = build_snake_solution(g, pf, period, &chain, &table).map_err(|e| e.to_string())?;
        Ok((sol.energy().to_bits(), chain, prune))
    }

    /// Utilisations of the served-grid test, loosest (lowest) first.
    const SERVED_GRID: [f64; 4] = [0.2, 0.3, 0.5, 0.8];

    /// One skeleton built at the loosest point of [`SERVED_GRID`] serves
    /// every point: on 1- and 2-worker pools, each point's energy bits,
    /// cluster chain and `PruneStats` equal the streamed solve at that
    /// period, and the admission prefixes hand the relaxer fewer
    /// transitions at every tighter point.
    fn served_grid(flows: &[&str], sizes: &[u32], random: bool) {
        let mut cases: Vec<(String, Spg)> = flows
            .iter()
            .map(|name| {
                let spec = spg::STREAMIT_SPECS
                    .iter()
                    .find(|s| s.name == *name)
                    .unwrap();
                (name.to_string(), spg::streamit_workflow(spec, 0))
            })
            .collect();
        if random {
            cases.extend(campaign_random_spgs());
        }
        let cap = Dpa1dConfig::default().ideal_cap;
        let mut checked = 0;
        for (name, g) in &cases {
            for &p in sizes {
                let pf = Platform::paper(p, p);
                let loosest = Instance::for_utilisation(g.clone(), pf.clone(), SERVED_GRID[0]);
                let shared = loosest.lattice(cap).unwrap();
                let sk = build(g, &pf, &shared, usize::MAX, loosest.period()).unwrap();
                // The loosest point admits the whole skeleton, and each
                // tighter one strictly less.
                let admitted = SERVED_GRID.map(|u| sk.admitted(&pf, loosest.utilisation_period(u)));
                assert_eq!(admitted[0], sk.n_transitions(), "{name} {p}x{p}");
                assert!(
                    admitted.windows(2).all(|a| a[0] > a[1]),
                    "{name} {p}x{p}: {admitted:?}"
                );
                for u in SERVED_GRID {
                    let inst = loosest.with_period(loosest.utilisation_period(u));
                    let at = format!("{name} {p}x{p} u{u}");
                    assert!(sk.serves(inst.period()), "{at}");
                    for w in [1, 2] {
                        let (served, streamed) = rayon::ThreadPool::new(w).install(|| {
                            (
                                chain_outcome(&inst, &shared, Some(&sk)),
                                chain_outcome(&inst, &shared, None),
                            )
                        });
                        assert_eq!(served, streamed, "{at} on {w} workers");
                        checked += served.is_ok() as usize;
                    }
                }
            }
        }
        assert!(checked > 0, "the grid must solve somewhere");
    }

    #[test]
    fn a_loose_skeleton_serves_every_tighter_point() {
        served_grid(&["DCT", "FFT", "MPEG2-noparser", "TDE"], &[4], true);
    }

    #[test]
    #[ignore = "the heavy StreamIt flows; CI's perf gate runs them in release"]
    fn a_loose_skeleton_serves_every_tighter_point_heavy() {
        served_grid(&HEAVY_FLOWS, &[4, 6], false);
    }

    /// A corrupted or mismatched skeleton image is rejected at decode
    /// time, never sliced out of range mid-DP, and so is one whose
    /// admission prefixes would drop transitions.
    #[test]
    fn skeleton_image_round_trips_and_rejects_bad_indices() {
        let g = fork_join();
        let pf = Platform::paper(2, 3);
        let sk = build(&g, &pf, &shared(&g), 1_000_000, 10.0).unwrap();
        let image = sk.to_bytes();
        // 12 bytes per transition, 28 per block, 40 of framing.
        assert_eq!(
            image.len(),
            40 + 28 * sk.n_blocks() + 12 * sk.n_transitions()
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
        // The first block's range end sits at bytes 32..36.
        let mut overrun = image.clone();
        overrun[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(TransitionSkeleton::from_bytes(&overrun)
            .unwrap_err()
            .contains("block range"));
        assert!(TransitionSkeleton::from_bytes(&image[..image.len() - 1]).is_err());
        // The empty ideal's block holds every first cluster, lightest
        // first; its two heaviest works swapped are out of order.
        let first = &sk.slice.blocks[0];
        assert_eq!(first.from, IdealId(0));
        let last = first.range.end as usize - 1;
        let works = &sk.slice.work;
        assert!(works[last - 1] < works[last], "distinct heaviest works");
        let work_at = image.len() - 16 - 8 * (works.len() - last);
        let mut swapped = image.clone();
        swapped[work_at - 8..work_at].copy_from_slice(&works[last].to_le_bytes());
        swapped[work_at..work_at + 8].copy_from_slice(&works[last - 1].to_le_bytes());
        assert!(TransitionSkeleton::from_bytes(&swapped)
            .unwrap_err()
            .contains("not sorted"));
        // The ceiling is the last 8 bytes.
        for ceiling in [f64::INFINITY, f64::NAN] {
            let mut unbounded = image.clone();
            let at = image.len() - 8;
            unbounded[at..].copy_from_slice(&ceiling.to_le_bytes());
            assert!(TransitionSkeleton::from_bytes(&unbounded)
                .unwrap_err()
                .contains("finite period"));
        }
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

    /// The extension DFS before the released-cover index, kept as the
    /// oracle of the one [`extend`] runs: a stack of `(stage, child)`
    /// pairs, two passes over `covers(child)` per step (one scattering it
    /// into `via`, one testing every entry's predecessor mask for the
    /// stage just added).
    struct OracleDfs<'a> {
        spg: &'a Spg,
        lattice: &'a IdealLattice,
        pred_masks: &'a [NodeSet],
        cap_work: f64,
        stack: Vec<(StageId, IdealId)>,
        via: Vec<IdealId>,
        cover_reads: u64,
    }

    impl OracleDfs<'_> {
        fn extensions(&mut self, from: IdealId, visit: &mut impl FnMut(IdealId, f64, u32)) {
            self.stack.clear();
            self.stack.extend(
                self.lattice
                    .covers(from)
                    .iter()
                    .map(|&(s, c)| (StageId(s), IdealId(c))),
            );
            let hi = self.stack.len();
            self.extend(0.0, 1, 0, hi, visit);
        }

        fn extend(
            &mut self,
            w: f64,
            depth: u32,
            lo: usize,
            hi: usize,
            visit: &mut impl FnMut(IdealId, f64, u32),
        ) {
            for k in lo..hi {
                let (s, child) = self.stack[k];
                let w2 = w + self.spg.weight(s);
                if w2 > self.cap_work {
                    continue;
                }
                visit(child, w2, depth);
                let covers = self.lattice.covers(child);
                self.cover_reads += 2 * covers.len() as u64;
                for &(cs, next) in covers {
                    self.via[cs as usize] = IdealId(next);
                }
                let next_lo = self.stack.len();
                for j in k + 1..hi {
                    let stage = self.stack[j].0;
                    self.stack.push((stage, self.via[stage.idx()]));
                }
                for &(cs, next) in covers {
                    if self.pred_masks[cs as usize].contains(s.idx()) {
                        self.stack.push((StageId(cs), IdealId(next)));
                    }
                }
                let next_hi = self.stack.len();
                if next_hi > next_lo {
                    self.extend(w2, depth + 1, next_lo, next_hi, visit);
                    self.stack.truncate(next_lo);
                }
            }
        }
    }

    /// Walks every source of `lattice` with the extension DFS and with
    /// [`OracleDfs`] at `cap_work`, asserts they emit the identical
    /// `(to, work bits, depth)` sequence from each, and returns the cover
    /// entries each read.
    fn dfs_against_oracle(g: &Spg, lattice: &IdealLattice, cap_work: f64, at: &str) -> (u64, u64) {
        let mut dfs = ExtendCtx::new(g, lattice, cap_work);
        let mut oracle = OracleDfs {
            spg: g,
            lattice,
            pred_masks: lattice.pred_masks(),
            cap_work,
            stack: Vec::new(),
            via: vec![IdealId(0); g.n()],
            cover_reads: 0,
        };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for from in lattice.ids() {
            got.clear();
            want.clear();
            dfs.extensions(from, &mut |to: IdealId, w: f64, depth: u32| {
                got.push((to, w.to_bits(), depth));
                true
            });
            oracle.extensions(from, &mut |to, w: f64, depth| {
                want.push((to, w.to_bits(), depth))
            });
            assert!(got == want, "{at}: the walks from {from:?} diverge");
        }
        assert!(dfs.cover_reads <= oracle.cover_reads, "{at}");
        (dfs.cover_reads, oracle.cover_reads)
    }

    /// The campaign's n = 150 random SPGs (4×4, CCR 10 and 0.1; the
    /// lattices under the ideal cap), as its generator seeds them.
    fn campaign_random_spgs() -> Vec<(String, Spg)> {
        use rand::SeedableRng;
        let cap = Dpa1dConfig::default().ideal_cap as u128;
        let mut out = Vec::new();
        for elevation in [2, 16] {
            for (ci, ccr) in [10.0, 0.1].into_iter().enumerate() {
                let cfg = spg::SpgGenConfig {
                    n: 150,
                    elevation,
                    ccr: Some(ccr),
                    ..Default::default()
                };
                let seed = 150_000 + u64::from(elevation) * 10 + ci as u64;
                let g = spg::random_spg(&cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
                if spg::ideal::count_ideals(&g).is_some_and(|n| n <= cap) {
                    out.push((format!("random:n150:e{elevation}:ccr{ccr}:g{seed}"), g));
                }
            }
        }
        out
    }

    /// `g` with its edge list reversed: the same graph, but every stage's
    /// out-edges — and with them the order in which the lattice records
    /// the covers a stage releases — run against stage-id order.
    fn edges_reversed(g: &Spg) -> Spg {
        let edges = g.edges().iter().rev().copied().collect();
        Spg::from_parts(g.weights().to_vec(), g.labels().to_vec(), edges)
    }

    /// The extension DFS over the released-cover index emits, from every
    /// source, the exact sequence of the two-pass oracle: same
    /// destinations, same work bits, same depths, in the same order — at
    /// the work threshold of each grid point and uncapped (the complete
    /// skeleton's walk). Each flow is also walked uncapped with its edge
    /// list reversed, where cover order and stage-id order disagree.
    /// Returns the cover reads of BitonicSort 4×4 u0.3 when the grid holds
    /// it.
    fn dfs_grid(flows: &[&str], random: bool) -> Option<(u64, u64)> {
        let cap = Dpa1dConfig::default().ideal_cap;
        let mut bitonic_reads = None;
        for name in flows {
            let spec = spg::STREAMIT_SPECS
                .iter()
                .find(|s| s.name == *name)
                .unwrap();
            let g = spg::streamit_workflow(spec, 0);
            let lattice = enumerate_ideals(&g, cap).unwrap();
            dfs_against_oracle(&g, &lattice, f64::INFINITY, &format!("{name} uncapped"));
            let rev = edges_reversed(&g);
            let rev_lattice = enumerate_ideals(&rev, cap).unwrap();
            let at = format!("{name} reversed, uncapped");
            dfs_against_oracle(&rev, &rev_lattice, f64::INFINITY, &at);
            for p in [4, 6] {
                for u in [0.3, 0.5] {
                    let at = format!("{name} {p}x{p} u{u}");
                    let pf = Platform::paper(p, p);
                    let period = Instance::for_utilisation(g.clone(), pf.clone(), u).period();
                    let cap_work = Admission::new(&pf, period).cap_work;
                    let reads = dfs_against_oracle(&g, &lattice, cap_work, &at);
                    if (*name, p, u) == ("BitonicSort", 4, 0.3) {
                        bitonic_reads = Some(reads);
                    }
                }
            }
        }
        if random {
            let pf = Platform::paper(4, 4);
            let spgs = campaign_random_spgs();
            assert_eq!(spgs.len(), 2, "the elevation-2 SPGs fit the ideal cap");
            for (name, g) in spgs {
                let lattice = enumerate_ideals(&g, cap).unwrap();
                dfs_against_oracle(&g, &lattice, f64::INFINITY, &format!("{name} uncapped"));
                // The campaign probes its period over decades; from 1 s up,
                // every cluster of these graphs fits (the uncapped walk).
                for period in [0.1, 0.01] {
                    let cap_work = Admission::new(&pf, period).cap_work;
                    dfs_against_oracle(&g, &lattice, cap_work, &format!("{name} T{period}"));
                }
            }
        }
        bitonic_reads
    }

    #[test]
    fn extension_dfs_matches_the_two_pass_oracle() {
        dfs_grid(&["MPEG2-noparser"], true);
    }

    #[test]
    #[ignore = "the heavy StreamIt flows; CI's perf gate runs them in release"]
    fn extension_dfs_matches_the_two_pass_oracle_heavy() {
        let (reads, oracle_reads) = dfs_grid(&HEAVY_FLOWS, false).unwrap();
        assert!(
            reads < oracle_reads,
            "BitonicSort 4x4 u0.3: {reads} cover reads, the oracle {oracle_reads}"
        );
    }
}
