//! Solver-session state: an [`Instance`] owns one `(workload, platform,
//! period)` triple and lazily caches the derived structures that several
//! algorithms share — so a portfolio run (or a period probe) computes them
//! once instead of once per solver call.
//!
//! Cached today:
//!
//! * the **interned ideal lattice** with its per-ideal cut volumes
//!   ([`SharedLattice`]) — the dominant cost of `DPA1D`, and
//!   period-independent, so one enumeration serves every probe decade and
//!   every portfolio member. Its exact size ([`spg::ideal::count_ideals`])
//!   is computed first, so an over-cap lattice is refused without being
//!   enumerated;
//! * `DPA1D`'s **transition skeleton** ([`TransitionSkeleton`]) — the
//!   cluster-transition system over the lattice up to a ceiling period,
//!   which turns each period-sweep point at or below the ceiling into a
//!   prefix-admission pass instead of a lattice re-walk. One slot keyed by
//!   ceiling holds the loosest skeleton built or seeded, plus the
//!   `(edge_cap, ceiling)` builds known to overflow. Built only for a
//!   session that will reuse it (see [`Instance::note_period_ceiling`])
//!   or on an explicit request, and then only at the loosest period the
//!   session needs; a one-shot `DPA1D` solve streams instead;
//! * the **snake order** of the grid (used by `DPA1D` and `DPA2D1D`);
//! * the **topological stage order** (used by the exact solver);
//! * the per-stage **speed-feasibility table** (the slowest speed able to
//!   run each stage alone within the period) — a shared quick-reject: if
//!   any single stage cannot meet the period at the fastest speed, *no*
//!   mapping exists and every solver can fail without searching.
//!
//! The period-independent caches live behind an `Arc`, so
//! [`Instance::with_period`] re-targets the period while keeping the
//! lattice, snake, and topological order warm — exactly what the §6.1.3
//! period probe needs.

use std::sync::{Arc, Mutex, OnceLock};

use cmp_mapping::{evaluate_with, Evaluation, Mapping, MappingError};
use cmp_platform::{snake_core, CoreId, Fault, Platform, RoutePolicy, RouteTable};
use spg::ideal::{
    count_ideals, cut_volumes, cut_volumes_polled, enumerate_ideals_polled, IdealError,
    IdealLattice,
};
use spg::{Edit, Spg, StageId};

use crate::common::Failure;
use crate::dpa1d::{Dpa1dConfig, TransitionSkeleton};
use crate::solver::SolveCtx;

/// The interned ideal lattice of an instance together with the per-ideal
/// cut volumes `DPA1D` prices its uni-line links with. Both are
/// period-independent, so the pair is shared across solver calls and probe
/// decades via `Arc`.
pub struct SharedLattice {
    /// The interned lattice (see [`spg::ideal`]).
    pub lattice: IdealLattice,
    /// `cuts[i]` = cut volume of ideal `i` (traffic on the uni-line link
    /// right after it).
    pub cuts: Vec<f64>,
}

impl SharedLattice {
    /// Approximate resident size in bytes (interned lattice plus cut
    /// volumes) — input to byte-bounded artifact-cache accounting.
    pub fn size_bytes(&self) -> usize {
        // `lattice.size_bytes()` already counts the lattice struct header.
        self.lattice.size_bytes() + self.cuts.capacity() * std::mem::size_of::<f64>()
    }

    /// Serialises lattice and cut volumes into a self-contained
    /// little-endian byte image for artifact-cache spill files.
    pub fn to_bytes(&self) -> Vec<u8> {
        let lat = self.lattice.to_bytes();
        let mut out = Vec::with_capacity(lat.len() + self.cuts.len() * 8 + 16);
        spg::wire::put_u64(&mut out, lat.len() as u64);
        out.extend_from_slice(&lat);
        spg::wire::put_f64_slice(&mut out, &self.cuts);
        out
    }

    /// Decodes a byte image produced by [`SharedLattice::to_bytes`],
    /// re-validating that the cut array covers every ideal.
    pub fn from_bytes(bytes: &[u8]) -> Result<SharedLattice, String> {
        let mut pos = 0usize;
        let lat_len = spg::wire::get_len(bytes, &mut pos, 1)?;
        let lattice = IdealLattice::from_bytes(spg::wire::take(bytes, &mut pos, lat_len)?)?;
        let cuts = spg::wire::get_f64_slice(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after lattice image",
                bytes.len() - pos
            ));
        }
        if cuts.len() != lattice.len() {
            return Err("cut volume count disagrees with the ideal count".into());
        }
        Ok(SharedLattice { lattice, cuts })
    }
}

/// Cached lattice state: the cap the last enumeration ran with, and its
/// outcome. A success with `len ≤ cap'` answers any request with cap ≥ len;
/// a `LimitExceeded` at cap `c` answers any request with cap ≤ `c` (only
/// enumerations of non-SP graphs, which have no exact count, can fail).
type LatticeSlot = Mutex<Option<(usize, Result<Arc<SharedLattice>, IdealError>)>>;

/// Cached `DPA1D` transition-skeleton state: one slot keyed by ceiling
/// period (see [`TransitionSkeleton::period_ceiling`]).
///
/// It holds at most one built artifact — the loosest ceiling built or
/// seeded so far, which serves every period at or below it and any edge
/// cap (the edge cap bounds what a build stores, not what a period
/// admits) — plus the non-dominated build overflows, keyed by the edge
/// cap and the ceiling they were attempted at. Builds are monotone in
/// both, so an overflow at `(cap, ceiling)` proves one at every
/// `cap' ≤ cap` and `ceiling' ≥ ceiling`, and nothing about tighter
/// ceilings: a tighter sweep point retries (and may succeed) after a
/// looser point's build overflowed.
#[derive(Default, Clone)]
struct SkeletonCache {
    built: Option<Arc<TransitionSkeleton>>,
    overflows: Vec<(usize, f64)>,
}

impl SkeletonCache {
    /// The cached skeleton, if it serves `period`.
    fn serving(&self, period: f64) -> Option<Arc<TransitionSkeleton>> {
        self.built.as_ref().filter(|sk| sk.serves(period)).cloned()
    }

    /// Keeps `sk` when it supersedes the cached one (a strictly looser
    /// ceiling).
    fn keep(&mut self, sk: &Arc<TransitionSkeleton>) {
        if self.built.as_ref().is_none_or(|b| sk.supersedes(b)) {
            self.built = Some(Arc::clone(sk));
        }
    }

    /// Whether a recorded overflow proves a build at `(cap, ceiling)`
    /// overflows too.
    fn proves_overflow(&self, cap: usize, ceiling: f64) -> bool {
        self.overflows
            .iter()
            .any(|&(c, ceil)| cap <= c && ceiling >= ceil)
    }

    /// Records an overflow at `(cap, ceiling)`, dropping the records it
    /// covers.
    fn record_overflow(&mut self, cap: usize, ceiling: f64) {
        self.overflows
            .retain(|&(c, ceil)| !(c <= cap && ceil >= ceiling));
        self.overflows.push((cap, ceiling));
    }
}

/// Period-independent derived structures, shared between an instance and
/// its [`Instance::with_period`] re-targets.
#[derive(Default)]
struct Derived {
    lattice: LatticeSlot,
    /// The exact ideal count ([`count_ideals`]; `None` for a non-SP
    /// graph). Structure-only, so every re-target, fault and edit keeps it.
    ideal_count: OnceLock<Option<u128>>,
    skeleton: Mutex<SkeletonCache>,
    /// The loosest period a caller declared this session family will be
    /// solved at again (see [`Instance::note_period_ceiling`]): bounded
    /// builds target it so one artifact serves the whole grid. `0.0`
    /// until declared — `DPA1D` then streams instead of building.
    sweep_ceiling: Mutex<f64>,
    snake: OnceLock<Vec<CoreId>>,
    topo: OnceLock<Vec<StageId>>,
    /// One lazily built precomputed route table per [`RoutePolicy`]
    /// (indexed by [`RoutePolicy::index`]). Period-independent and shared
    /// across probe decades and portfolio members like the lattice.
    route_tables: [OnceLock<Arc<RouteTable>>; 4],
}

/// One solve session: a workload, a platform, a period bound, and the
/// lazily cached derived structures shared by the solvers.
///
/// ```
/// use ea_core::{Instance, SolveCtx, Solver};
/// use ea_core::solvers::Greedy;
/// use cmp_platform::Platform;
///
/// let inst = Instance::new(spg::chain(&[1e8; 4], &[1e3; 3]), Platform::paper(2, 2), 1.0);
/// let sol = Greedy::default().solve(&inst, &SolveCtx::new(0)).unwrap();
/// assert!(sol.energy() > 0.0);
/// ```
pub struct Instance {
    spg: Arc<Spg>,
    pf: Arc<Platform>,
    period: f64,
    derived: Arc<Derived>,
    /// Per-stage slowest feasible speed at this period (`None` = the stage
    /// alone misses the period even at top speed). Period-dependent, so not
    /// part of [`Derived`].
    min_speeds: OnceLock<Vec<Option<usize>>>,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            spg: Arc::clone(&self.spg),
            pf: Arc::clone(&self.pf),
            period: self.period,
            derived: Arc::clone(&self.derived),
            min_speeds: self.min_speeds.clone(),
        }
    }
}

impl Instance {
    /// Wraps a workload, platform, and period bound into a session.
    pub fn new(spg: Spg, pf: Platform, period: f64) -> Self {
        Instance::from_shared(Arc::new(spg), Arc::new(pf), period)
    }

    /// An instance whose period is derived from a target platform
    /// *utilisation* instead of given absolutely: `T = W / (u · p·q ·
    /// f_max)`, the time the whole platform needs for one data set when a
    /// fraction `u` of its peak cycle capacity does useful work.
    ///
    /// This is how the campaign engine turns a *generated* workload into a
    /// comparable instance: synthetic families span orders of magnitude of
    /// total work `W`, so a fixed absolute period would make some jobs
    /// trivially loose and others hopeless. A fixed utilisation scales the
    /// bound with the workload — `u` near the serial fraction of the graph
    /// keeps every family in the regime where heuristics can both succeed
    /// and fail (the informative regime of Tables 2–3). Deterministic in
    /// the inputs, so resumable campaign jobs can recompute it from the
    /// job key alone.
    pub fn for_utilisation(spg: Spg, pf: Platform, utilisation: f64) -> Self {
        let period = utilisation_period(&spg, &pf, utilisation);
        Instance::new(spg, pf, period)
    }

    /// The period bound a target utilisation `u` denotes for this
    /// instance's workload and platform (`T = W / (u · p·q · f_max)`, see
    /// [`Instance::for_utilisation`]). Utilisation-axis sweeps resolve
    /// their grid values through this before calling
    /// [`Instance::with_period`].
    pub fn utilisation_period(&self, utilisation: f64) -> f64 {
        utilisation_period(&self.spg, &self.pf, utilisation)
    }

    /// Like [`Instance::new`] but sharing already-`Arc`ed inputs (avoids
    /// cloning a large graph when the caller keeps its own handle).
    pub fn from_shared(spg: Arc<Spg>, pf: Arc<Platform>, period: f64) -> Self {
        assert!(period > 0.0, "period bound must be positive");
        Instance {
            spg,
            pf,
            period,
            derived: Arc::new(Derived::default()),
            min_speeds: OnceLock::new(),
        }
    }

    /// The workload.
    #[inline]
    pub fn spg(&self) -> &Spg {
        &self.spg
    }

    /// The platform.
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.pf
    }

    /// The period bound `T`.
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// A session for the same workload and platform at a different period,
    /// **sharing** the period-independent caches (lattice, snake,
    /// topological order). This is what makes the §6.1.3 decade probe cheap:
    /// the lattice is enumerated once across all probed periods.
    pub fn with_period(&self, period: f64) -> Instance {
        assert!(period > 0.0, "period bound must be positive");
        Instance {
            spg: Arc::clone(&self.spg),
            pf: Arc::clone(&self.pf),
            period,
            derived: Arc::clone(&self.derived),
            min_speeds: OnceLock::new(),
        }
    }

    /// The exact number of order ideals of the workload, computed once per
    /// session family from its series-parallel reduction (`None` when the
    /// graph is not series-parallel). See [`count_ideals`].
    fn ideal_count(&self) -> Option<u128> {
        *self
            .derived
            .ideal_count
            .get_or_init(|| count_ideals(&self.spg))
    }

    /// The interned ideal lattice (plus cut volumes), enumerated under
    /// `cap`. Cached: a previous successful enumeration is reused whenever
    /// it fits the requested cap. Otherwise the exact ideal count
    /// ([`count_ideals`], computed once per session family) decides: a
    /// lattice larger than `cap` is refused with `LimitExceeded { cap,
    /// found: cap + 1 }` — the error a capped enumeration would stop
    /// with — without enumerating anything, and one that fits is
    /// enumerated. Only a non-SP graph, which has no count, runs the
    /// capped enumeration to find out; its `LimitExceeded` is cached and
    /// answers any cap at most as large.
    pub fn lattice(&self, cap: usize) -> Result<Arc<SharedLattice>, IdealError> {
        match self.lattice_within(cap, &SolveCtx::default()) {
            Ok(res) => res,
            Err(_) => unreachable!("a context without a deadline never expires"),
        }
    }

    /// [`Instance::lattice`] under `ctx`'s deadline, which the enumeration
    /// and the cut-volume pass poll every
    /// [`ENUM_POLL_INTERVAL`](spg::ideal::ENUM_POLL_INTERVAL) ideals. The
    /// outer `Err` is the deadline: it says nothing about the workload, so
    /// it is recorded nowhere and a later call enumerates as if this one
    /// had never run. The inner result is [`Instance::lattice`]'s, cached
    /// as there.
    pub(crate) fn lattice_within(
        &self,
        cap: usize,
        ctx: &SolveCtx,
    ) -> Result<Result<Arc<SharedLattice>, IdealError>, Failure> {
        let mut slot = self.derived.lattice.lock().unwrap();
        if let Some((cached_cap, res)) = slot.as_ref() {
            match res {
                Ok(sh) if sh.lattice.len() <= cap => return Ok(Ok(Arc::clone(sh))),
                // A cached success larger than the requested cap is itself
                // proof the enumeration would exceed `cap`: answer without
                // re-enumerating and without evicting the success.
                Ok(sh) => {
                    return Ok(Err(IdealError::LimitExceeded {
                        cap,
                        found: sh.lattice.len(),
                    }))
                }
                Err(e) if cap <= *cached_cap => return Ok(Err(e.clone())),
                _ => {}
            }
        }
        if self.ideal_count().is_some_and(|count| count > cap as u128) {
            return Ok(Err(IdealError::LimitExceeded {
                cap,
                found: cap.saturating_add(1),
            }));
        }
        let res = match enumerate_ideals_polled(&self.spg, cap, || ctx.check_budget())? {
            Ok(lattice) => {
                let cuts = cut_volumes_polled(&self.spg, &lattice, || ctx.check_budget())?;
                Ok(Arc::new(SharedLattice { lattice, cuts }))
            }
            Err(e) => Err(e),
        };
        *slot = Some((cap, res.clone()));
        Ok(res)
    }

    /// The `DPA1D` transition skeleton for this instance (see
    /// [`TransitionSkeleton`]): the cluster transition system over the
    /// interned lattice up to a ceiling period, built at most once per
    /// ceiling and shared across [`Instance::with_period`] re-targets —
    /// each tighter sweep point then pays only the prefix-admission pass
    /// and the per-period `Ecal` lookups instead of re-walking the lattice.
    ///
    /// An explicit call always materialises (or answers from the cache).
    /// `DPA1D` itself reaches this only on a session that declared reuse
    /// through [`Instance::note_period_ceiling`]; a one-shot solve streams
    /// instead, and leaves the skeleton slot as it found it.
    ///
    /// A cached or seeded skeleton that serves the period answers at once.
    /// Otherwise the build is bounded at the loosest period the session is
    /// known to need — the larger of the declared ceiling and the period —
    /// and, when that overflows `cfg.edge_cap`, at the period itself. No
    /// build ever holds a transition no period of the session admits. A
    /// candidate is skipped when a recorded overflow already proves it
    /// overflows `cfg.edge_cap`, and so is a non-finite one (a skeleton's
    /// ceiling is always a finite period).
    ///
    /// Returns:
    ///
    /// * `Ok(Some(_))` — a skeleton that [`TransitionSkeleton::serves`]
    ///   this session's period, exactly;
    /// * `Ok(None)` — no candidate fits `cfg.edge_cap`; `DPA1D` then
    ///   streams the period's transitions through its extension DFS
    ///   without storing them (the overflows are cached, so only
    ///   genuinely new requests re-run a build);
    /// * `Err(_)` — lattice enumeration itself exceeded `cfg.ideal_cap`.
    pub fn transition_skeleton(
        &self,
        cfg: &Dpa1dConfig,
    ) -> Result<Option<Arc<TransitionSkeleton>>, Failure> {
        self.skeleton_within(cfg, &SolveCtx::default())
    }

    /// [`Instance::transition_skeleton`] under `ctx`'s deadline, which
    /// every build polls once per source ideal. A deadline failure is
    /// returned as `Err` and recorded nowhere, so a later solve on this
    /// session builds as if it had never been tried.
    pub(crate) fn skeleton_within(
        &self,
        cfg: &Dpa1dConfig,
        ctx: &SolveCtx,
    ) -> Result<Option<Arc<TransitionSkeleton>>, Failure> {
        let shared = self
            .lattice_within(cfg.ideal_cap, ctx)?
            .map_err(|e| crate::dpa1d::lattice_failure(&e))?;
        let hint = *self.derived.sweep_ceiling.lock().unwrap();
        let mut slot = self.derived.skeleton.lock().unwrap();
        if let Some(sk) = slot.serving(self.period) {
            return Ok(Some(sk));
        }
        let cap = cfg.edge_cap;
        for ceiling in [hint.max(self.period), self.period] {
            // Also skips a candidate equal to one that just overflowed.
            if !ceiling.is_finite() || slot.proves_overflow(cap, ceiling) {
                continue;
            }
            let built =
                TransitionSkeleton::build(self.spg(), self.platform(), &shared, cap, ceiling, ctx)?;
            match built {
                Ok(sk) => {
                    let sk = Arc::new(sk);
                    slot.keep(&sk);
                    return Ok(Some(sk));
                }
                Err(_) => slot.record_overflow(cap, ceiling),
            }
        }
        Ok(None)
    }

    /// Declares that this session family will be solved more than once,
    /// up to `period` — `DPA1D`'s reuse contract. The period is
    /// max-accumulated and shared with every [`Instance::with_period`]
    /// re-target; [`Instance::with_fault`] and [`Instance::with_edit`]
    /// carry the declaration over. Non-finite or non-positive periods are
    /// ignored.
    ///
    /// * **Undeclared** (a one-shot solve): `DPA1D` builds no
    ///   [`TransitionSkeleton`]. It relaxes from one already cached or
    ///   seeded on the session when that serves the period, and otherwise
    ///   streams the period's transitions straight into the DP — a
    ///   skeleton it would use once costs more to build than to stream.
    /// * **Declared**: the first `DPA1D` solve materialises the skeleton
    ///   as [`Instance::transition_skeleton`] does — bounded at the larger
    ///   of the declared period and its own, so one build serves every
    ///   tighter point exactly (see [`TransitionSkeleton::serves`]) and
    ///   holds nothing a looser period would add — and caches it in the
    ///   session's one skeleton slot for the later solves, and for the
    ///   `serve` daemon to harvest.
    ///
    /// Both producers return the same energies and telemetry to the bit;
    /// the declaration decides only what is built and stored. Period
    /// sweeps declare their grid's loosest resolved point before fanning
    /// out, the daemon declares every solve (its artifact cache harvests
    /// what the solve built), and an incremental remap campaign declares
    /// its warm base session.
    pub fn note_period_ceiling(&self, period: f64) {
        if period.is_finite() && period > 0.0 {
            let mut hint = self.derived.sweep_ceiling.lock().unwrap();
            if period > *hint {
                *hint = period;
            }
        }
    }

    /// Whether a caller has declared reuse through
    /// [`Instance::note_period_ceiling`].
    pub(crate) fn reuse_declared(&self) -> bool {
        *self
            .derived
            .sweep_ceiling
            .lock()
            .expect("a panicking solve poisoned the reuse declaration")
            > 0.0
    }

    /// The cached skeleton, if it serves this session's period, without
    /// building anything.
    pub(crate) fn serving_skeleton(&self) -> Option<Arc<TransitionSkeleton>> {
        self.derived.skeleton.lock().unwrap().serving(self.period)
    }

    /// The precomputed route table for one routing policy on this
    /// instance's platform, built lazily and cached (period-independent,
    /// shared across [`Instance::with_period`] re-targets). Solvers hand it
    /// to the evaluator so the per-hop route generation in the hottest loop
    /// becomes a flat slice walk.
    pub fn route_table(&self, policy: RoutePolicy) -> Arc<RouteTable> {
        Arc::clone(
            self.derived.route_tables[policy.index()]
                .get_or_init(|| Arc::new(RouteTable::build(&self.pf, policy))),
        )
    }

    /// The cached route table matching a mapping's routing discipline, or
    /// `None` for per-edge custom routes.
    pub fn route_table_for(&self, mapping: &Mapping) -> Option<Arc<RouteTable>> {
        mapping.routes.policy().map(|p| self.route_table(p))
    }

    /// Validates a mapping against this session's period and computes its
    /// energy, driving the link-load accumulation off the session's cached
    /// route table whenever the mapping's routing discipline has one.
    /// Bit-identical to `cmp_mapping::evaluate` — the table stores exactly
    /// the hops the route generators produce, in order.
    pub fn evaluate_mapping(&self, mapping: &Mapping) -> Result<Evaluation, MappingError> {
        let table = self.route_table_for(mapping);
        evaluate_with(&self.spg, &self.pf, mapping, self.period, table.as_deref())
    }

    /// Peeks at the cached lattice without computing it: the successful
    /// enumeration cached on this session, if any. The `serve` artifact
    /// cache harvests warm artifacts through this after a solve.
    pub fn cached_lattice(&self) -> Option<Arc<SharedLattice>> {
        let slot = self.derived.lattice.lock().unwrap();
        slot.as_ref()
            .and_then(|(_, res)| res.as_ref().ok().cloned())
    }

    /// Peeks at the cached transition skeleton without building it: the
    /// loosest one built or seeded on this session, whatever its ceiling.
    /// The `serve` artifact cache harvests it.
    pub fn cached_skeleton(&self) -> Option<Arc<TransitionSkeleton>> {
        self.derived.skeleton.lock().unwrap().built.clone()
    }

    /// [`Instance::cached_skeleton`]: every skeleton is bounded at a
    /// finite ceiling period, so the cached one is a bounded build.
    pub fn cached_bounded_skeleton(&self) -> Option<Arc<TransitionSkeleton>> {
        self.cached_skeleton()
    }

    /// The `(edge_cap, ceiling)` skeleton build overflows recorded on this
    /// session.
    #[cfg(test)]
    pub(crate) fn skeleton_overflows(&self) -> Vec<(usize, f64)> {
        self.derived.skeleton.lock().unwrap().overflows.clone()
    }

    /// Peeks at the cached route table for one policy without building it.
    pub fn cached_route_table(&self, policy: RoutePolicy) -> Option<Arc<RouteTable>> {
        self.derived.route_tables[policy.index()].get().cloned()
    }

    /// Seeds the lattice cache with an artifact computed on a previous
    /// session over content-identical inputs (the `serve` daemon's warm
    /// path). First write wins: an already-populated slot is left alone.
    /// The seeded success answers any cap `>= lattice.len()` exactly like
    /// a fresh enumeration would, so solves stay bit-identical.
    pub fn seed_lattice(&self, shared: Arc<SharedLattice>) {
        let mut slot = self.derived.lattice.lock().unwrap();
        if slot.is_none() {
            let len = shared.lattice.len();
            *slot = Some((len, Ok(shared)));
        }
    }

    /// Seeds the skeleton cache (see [`Instance::seed_lattice`]): the
    /// artifact replaces the cached one when its ceiling is strictly
    /// looser, and is dropped otherwise. A cached skeleton serves any edge
    /// cap, so no cap is recorded.
    pub fn seed_skeleton(&self, skeleton: Arc<TransitionSkeleton>) {
        self.derived.skeleton.lock().unwrap().keep(&skeleton);
    }

    /// Seeds the route-table cache for one policy (see
    /// [`Instance::seed_lattice`]; first write wins).
    pub fn seed_route_table(&self, policy: RoutePolicy, table: Arc<RouteTable>) {
        let _ = self.derived.route_tables[policy.index()].set(table);
    }

    /// The snake embedding of the grid: `snake_order()[k]` is the physical
    /// core at snake position `k`.
    pub fn snake_order(&self) -> &[CoreId] {
        self.derived.snake.get_or_init(|| {
            (0..self.pf.n_cores())
                .map(|k| snake_core(&self.pf, k))
                .collect()
        })
    }

    /// A topological order of the stages.
    pub fn topo_order(&self) -> &[StageId] {
        self.derived.topo.get_or_init(|| self.spg.topo_order())
    }

    /// Per-stage speed-feasibility table: `stage_min_speeds()[s]` is the
    /// slowest speed index at which stage `s` *alone* meets the period, or
    /// `None` when even the fastest speed misses it.
    pub fn stage_min_speeds(&self) -> &[Option<usize>] {
        self.min_speeds.get_or_init(|| {
            self.spg
                .stages()
                .map(|s| self.pf.power.min_speed_for(self.spg.weight(s), self.period))
                .collect()
        })
    }

    /// The first stage (if any) that cannot meet the period even alone at
    /// the fastest speed — a certificate that the whole instance is
    /// infeasible, shared by every solver as a pre-search reject.
    pub fn infeasible_stage(&self) -> Option<StageId> {
        self.stage_min_speeds()
            .iter()
            .position(Option::is_none)
            .map(|i| StageId(i as u32))
    }

    /// The slowest speed index at which *every* stage individually meets
    /// the period — no uniform-speed pass below it can ever place all
    /// stages. `None` when the instance is infeasible per
    /// [`Instance::infeasible_stage`].
    pub fn min_uniform_speed(&self) -> Option<usize> {
        self.stage_min_speeds()
            .iter()
            .copied()
            .try_fold(0usize, |acc, k| k.map(|k| acc.max(k)))
    }

    /// A certified lower bound on the energy of *any* valid mapping of
    /// this instance — the anytime mode's certificate (see
    /// `docs/fault-model.md`):
    ///
    /// * dynamic compute: every cycle costs at least the best
    ///   energy-per-cycle over the DVFS ladder, so
    ///   `E_dyn ≥ W · min_k(P_k / f_k)`;
    /// * compute leakage: a core runs at most `T · f_max` cycles per
    ///   period, so at least `⌈W / (T · f_max)⌉` cores (and never fewer
    ///   than one) are enrolled, each paying `P_leak · T`;
    /// * communication: dynamic energy is non-negative and the
    ///   communication leakage `P_leak^(comm) · T` is paid by every
    ///   mapping.
    ///
    /// The bound is deterministic in the instance alone (no solve needed),
    /// so `E_anytime − bound_gap ≤ E_opt ≤ E_anytime` holds for any
    /// solution whose `bound_gap` is `E_anytime` minus this value.
    pub fn energy_lower_bound(&self) -> f64 {
        let w = self.spg.total_work();
        let power = &self.pf.power;
        let epc_min = (0..power.m())
            .map(|k| {
                let s = power.speed(k);
                s.power / s.freq
            })
            .fold(f64::INFINITY, f64::min);
        let k_min = if w > 0.0 {
            (w / (self.period * power.max_freq())).ceil().max(1.0)
        } else {
            1.0
        };
        w * epc_min + k_min * power.p_leak * self.period + self.pf.p_leak_comm * self.period
    }

    /// A session for the same workload on the **faulted** platform,
    /// delta-patching the cached derived state instead of discarding it
    /// (see `docs/fault-model.md` for the full invalidation matrix):
    ///
    /// * the ideal lattice, transition-skeleton slot, snake/topological
    ///   orders, sweep-ceiling hint, and per-stage speed table are all
    ///   fault-invariant — shared or copied as-is;
    /// * on a **core** fault every built route table is reused verbatim
    ///   (routers outlive their PEs, so routes never change);
    /// * on a **link** fault every built route table is delta-patched
    ///   ([`RouteTable::patched`]) — bit-identical to a cold rebuild on
    ///   the faulted platform.
    ///
    /// Solves on the patched session are bit-identical in energy to cold
    /// solves on `Instance::new(spg, pf.with_fault(fault), period)`.
    pub fn with_fault(&self, fault: Fault) -> Instance {
        let pf = Arc::new(self.pf.with_fault(fault));
        let patch_routes = pf.faults.dead_links() != self.pf.faults.dead_links();
        let derived = Derived {
            lattice: Mutex::new(self.derived.lattice.lock().unwrap().clone()),
            ideal_count: self.derived.ideal_count.clone(),
            skeleton: Mutex::new(self.derived.skeleton.lock().unwrap().clone()),
            sweep_ceiling: Mutex::new(*self.derived.sweep_ceiling.lock().unwrap()),
            snake: self.derived.snake.clone(),
            topo: self.derived.topo.clone(),
            route_tables: Default::default(),
        };
        for (i, slot) in self.derived.route_tables.iter().enumerate() {
            if let Some(t) = slot.get() {
                let table = if patch_routes {
                    Arc::new(t.patched(&pf))
                } else {
                    Arc::clone(t)
                };
                let _ = derived.route_tables[i].set(table);
            }
        }
        Instance {
            spg: Arc::clone(&self.spg),
            pf,
            period: self.period,
            derived: Arc::new(derived),
            min_speeds: self.min_speeds.clone(),
        }
    }

    /// A session for the **edited** workload on the same platform,
    /// delta-patching the cached derived state (see `docs/fault-model.md`):
    ///
    /// * [`Edit`]s are structure-preserving, so the interned lattice
    ///   *structure* survives every edit: a weight retune shares the whole
    ///   [`SharedLattice`] (cut volumes are weight-independent), a volume
    ///   edit clones the structure and recomputes the cut volumes — in
    ///   cold enumeration order, so they are bit-identical to a rebuild;
    /// * the transition-skeleton slot is emptied (per-transition work sums
    ///   and admission thresholds are value-derived), and the skeleton is
    ///   rebuilt lazily from the reused lattice;
    /// * route tables, snake/topological orders, and the sweep-ceiling
    ///   hint are workload-independent or structure-only — copied;
    /// * the per-stage speed table survives volume edits and is dropped on
    ///   weight retunes.
    ///
    /// Solves on the patched session are bit-identical in energy to cold
    /// solves on `Instance::new(spg.with_edit(edit), pf, period)`.
    pub fn with_edit(&self, edit: &Edit) -> Instance {
        let spg = Arc::new(self.spg.with_edit(edit));
        let lattice = {
            let slot = self.derived.lattice.lock().unwrap();
            match slot.as_ref() {
                Some((cap, Ok(sh))) if edit.changes_volumes() => {
                    // Same structure, new per-ideal cut volumes — computed
                    // ideal by ideal exactly as a cold enumeration would.
                    let lattice = sh.lattice.clone();
                    let cuts = cut_volumes(&spg, &lattice);
                    Some((*cap, Ok(Arc::new(SharedLattice { lattice, cuts }))))
                }
                // Weight retunes leave the lattice untouched; enumeration
                // *failures* are structure-only proofs, valid either way.
                other => other.cloned(),
            }
        };
        let derived = Derived {
            lattice: Mutex::new(lattice),
            ideal_count: self.derived.ideal_count.clone(),
            // Skeleton blocks embed value-derived work sums and admission
            // thresholds: rebuilt lazily from the reused lattice.
            skeleton: Mutex::default(),
            sweep_ceiling: Mutex::new(*self.derived.sweep_ceiling.lock().unwrap()),
            snake: self.derived.snake.clone(),
            topo: self.derived.topo.clone(),
            route_tables: Default::default(),
        };
        for (i, slot) in self.derived.route_tables.iter().enumerate() {
            if let Some(t) = slot.get() {
                let _ = derived.route_tables[i].set(Arc::clone(t));
            }
        }
        Instance {
            spg,
            pf: Arc::clone(&self.pf),
            period: self.period,
            derived: Arc::new(derived),
            min_speeds: if edit.changes_volumes() {
                self.min_speeds.clone()
            } else {
                OnceLock::new()
            },
        }
    }
}

/// `T = W / (u · p·q · f_max)`: the time the whole platform needs for one
/// data set when a fraction `u` of its peak cycle capacity does useful
/// work. Deterministic in the inputs, so resumable campaign jobs can
/// recompute it from the job key alone.
pub(crate) fn utilisation_period(spg: &Spg, pf: &Platform, utilisation: f64) -> f64 {
    assert!(
        utilisation > 0.0 && utilisation.is_finite(),
        "utilisation must be positive and finite"
    );
    let capacity = pf.n_cores() as f64 * pf.power.max_freq();
    spg.total_work() / (utilisation * capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg::chain;

    #[test]
    fn lattice_is_cached_and_shared_across_periods() {
        let g = chain(&[1e6; 6], &[1e3; 5]);
        let inst = Instance::new(g, Platform::paper(2, 2), 1.0);
        let a = inst.lattice(10_000).unwrap();
        let b = inst.with_period(0.1).lattice(10_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "with_period must share the lattice");
        assert_eq!(a.lattice.len(), 7, "a 6-chain has 7 ideals");
        assert_eq!(a.cuts.len(), a.lattice.len());
    }

    #[test]
    fn lattice_cap_logic() {
        // 6-chain: 7 ideals. cap 3 fails; a later cap 100 succeeds; a
        // repeat cap 2 must fail again (not reuse the success).
        let g = chain(&[1e6; 6], &[1e3; 5]);
        let inst = Instance::new(g, Platform::paper(2, 2), 1.0);
        assert!(inst.lattice(3).is_err());
        let ok = inst.lattice(100).unwrap();
        assert_eq!(ok.lattice.len(), 7);
        // Success (7 ideals) also answers caps >= 7.
        assert!(Arc::ptr_eq(&inst.lattice(7).unwrap(), &ok));
        // An under-cap request fails off the cached length alone...
        assert!(matches!(
            inst.lattice(2),
            Err(IdealError::LimitExceeded { cap: 2, found: 7 })
        ));
        // ...without evicting the cached success.
        assert!(Arc::ptr_eq(&inst.lattice(100).unwrap(), &ok));
    }

    #[test]
    fn over_cap_lattice_is_refused_by_its_count() {
        // 200 branches of one inner stage: 2^200 + 2 ideals, saturated.
        let branches: Vec<Spg> = (0..200).map(|_| chain(&[1e6; 3], &[1e3; 2])).collect();
        let inst = Instance::new(spg::parallel_many(&branches), Platform::paper(2, 2), 1.0);
        assert!(matches!(
            inst.lattice(60_000),
            Err(IdealError::LimitExceeded {
                cap: 60_000,
                found: 60_001
            })
        ));
        assert!(inst.cached_lattice().is_none());
        // The count is structure-only: every derived session inherits it
        // without recounting.
        let fault = cmp_platform::Fault::Core(CoreId { u: 1, v: 1 });
        let edit = spg::Edit::Retune {
            stage: StageId(1),
            work: 2e6,
        };
        for derived in [
            inst.with_period(0.5),
            inst.with_fault(fault),
            inst.with_edit(&edit),
        ] {
            assert_eq!(derived.derived.ideal_count.get(), Some(&Some(u128::MAX)));
        }
    }

    /// Skeleton builds this thread has started so far.
    fn builds() -> u32 {
        crate::dpa1d::BUILDS.with(|n| n.get())
    }

    /// The 30-stage chain the skeleton-slot tests share: 31 ideals and
    /// 465 nested pairs. At period `T` every cluster of at most `T / 1 ms`
    /// stages fits, so a build at 2 ms holds 30 + 29 = 59 transitions, one
    /// at 3 ms holds 87, and one at 30 ms or more all 465.
    fn chain30() -> Spg {
        chain(&[1e6; 30], &[1e3; 29])
    }

    /// An edge cap between the 3 ms build (87) and the complete set.
    fn cap100() -> crate::dpa1d::Dpa1dConfig {
        crate::dpa1d::Dpa1dConfig {
            edge_cap: 100,
            ..Default::default()
        }
    }

    #[test]
    fn seeded_bounded_skeleton_serves_without_a_doomed_complete_build() {
        let cfg = cap100();
        let donor = Instance::new(chain30(), Platform::paper(2, 2), 0.002);
        let sk = donor.transition_skeleton(&cfg).unwrap().unwrap();
        assert_eq!((sk.period_ceiling(), sk.n_transitions()), (0.002, 59));
        // The daemon's warm path: a fresh session seeded with the bounded
        // artifact and nothing else in its skeleton slot.
        let warm = Instance::new(chain30(), Platform::paper(2, 2), 0.002);
        warm.seed_lattice(donor.cached_lattice().unwrap());
        warm.seed_skeleton(Arc::clone(&sk));
        let before = builds();
        let served = warm.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(Arc::ptr_eq(&served, &sk), "the seeded artifact serves");
        assert_eq!(builds(), before, "the slot serves first");
        // A period above the seed's ceiling: one build, at that period,
        // which fits and replaces the seed. Nothing looser is tried.
        let looser = warm.with_period(0.003).transition_skeleton(&cfg).unwrap();
        let looser = looser.expect("the 3 ms build fits the cap");
        assert_eq!(
            (looser.period_ceiling(), looser.n_transitions()),
            (0.003, 87)
        );
        assert_eq!(builds(), before + 1);
        assert!(warm.skeleton_overflows().is_empty());
        assert!(Arc::ptr_eq(&warm.cached_skeleton().unwrap(), &looser));
    }

    #[test]
    fn a_complete_seed_replaces_a_bounded_skeleton_and_not_the_reverse() {
        let inst = Instance::new(chain30(), Platform::paper(2, 2), 0.003);
        let bounded = inst.transition_skeleton(&cap100()).unwrap().unwrap();
        assert_eq!(bounded.n_transitions(), 87);
        // A seed built at 1 s holds every nested pair.
        let complete = Instance::new(chain30(), Platform::paper(2, 2), 1.0)
            .transition_skeleton(&crate::dpa1d::Dpa1dConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(
            (complete.period_ceiling(), complete.n_transitions()),
            (1.0, 465)
        );
        // Its ceiling is looser, so it replaces the bounded build...
        inst.seed_skeleton(Arc::clone(&complete));
        assert!(Arc::ptr_eq(&inst.cached_skeleton().unwrap(), &complete));
        // ...and serves a period above the old ceiling with no build.
        let before = builds();
        let served = inst
            .with_period(0.03)
            .transition_skeleton(&cap100())
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&served, &complete));
        assert_eq!(builds(), before);
        // A tighter seed over a looser skeleton is a no-op.
        inst.seed_skeleton(bounded);
        assert!(Arc::ptr_eq(&inst.cached_skeleton().unwrap(), &complete));
    }

    #[test]
    fn complete_build_under_the_cap_stores_every_counted_pair() {
        let branches: Vec<Spg> = (0..3).map(|_| chain(&[1e6; 4], &[1e3; 3])).collect();
        let g = spg::parallel_many(&branches);
        let pairs = spg::ideal::count_ideal_pairs(&g).unwrap() as usize;
        let cap = |edge_cap| crate::dpa1d::Dpa1dConfig {
            edge_cap,
            ..Default::default()
        };
        // At 1 s every cluster and every cut fits: the build at the period
        // stores exactly the counted pairs, at exactly that cap.
        let inst = Instance::new(g.clone(), Platform::paper(2, 2), 1.0);
        let before = builds();
        let sk = inst.transition_skeleton(&cap(pairs)).unwrap().unwrap();
        assert_eq!(builds(), before + 1);
        assert_eq!((sk.period_ceiling(), sk.n_transitions()), (1.0, pairs));
        // One below it, the one build overflows and the session streams.
        let over = Instance::new(g, Platform::paper(2, 2), 1.0);
        assert!(over.transition_skeleton(&cap(pairs - 1)).unwrap().is_none());
        assert_eq!(builds(), before + 2);
        assert_eq!(over.skeleton_overflows(), [(pairs - 1, 1.0)]);
    }

    /// A non-series-parallel workload: the "N" (a->c, a->d, b->d) stops
    /// the reduction, so it has no exact counts.
    fn non_sp_workload() -> Spg {
        use spg::{Label, SpgEdge};
        let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
            .map(|(a, b)| SpgEdge {
                src: StageId(a),
                dst: StageId(b),
                volume: 1e3,
            })
            .to_vec();
        let labels = (0..6).map(|i| Label { x: i + 1, y: 1 }).collect();
        Spg::from_parts(vec![1e6; 6], labels, edges)
    }

    #[test]
    fn non_sp_workload_keeps_the_capped_build() {
        let cfg = crate::dpa1d::Dpa1dConfig {
            edge_cap: 3,
            ..Default::default()
        };
        let inst = Instance::new(non_sp_workload(), Platform::paper(2, 2), 1e-3);
        let before = builds();
        assert!(inst.transition_skeleton(&cfg).unwrap().is_none());
        assert_eq!(builds(), before + 1, "the build at the period runs");
        assert_eq!(inst.skeleton_overflows(), [(3, 1e-3)]);
        // Its cap-keyed failure answers the same cap without rebuilding.
        assert!(inst.transition_skeleton(&cfg).unwrap().is_none());
        assert_eq!(builds(), before + 1);
    }

    #[test]
    fn overflows_at_different_caps_and_ceilings_are_both_honoured() {
        let cap = |edge_cap| crate::dpa1d::Dpa1dConfig {
            edge_cap,
            ..Default::default()
        };
        // Loose period, cap 5: the complete build and the bounded build at
        // the period (which admits every cluster) both overflow.
        let loose = Instance::new(non_sp_workload(), Platform::paper(2, 2), 1.0);
        assert!(loose.transition_skeleton(&cap(5)).unwrap().is_none());
        // A tight period (single-stage clusters), cap 2: overflows too, at a
        // smaller cap and a tighter ceiling than the first record.
        let tight = loose.with_period(1e-3);
        assert!(tight.transition_skeleton(&cap(2)).unwrap().is_none());
        assert_eq!(loose.skeleton_overflows(), [(5, 1.0), (2, 1e-3)]);
        // Each record answers its own region without a build.
        let before = builds();
        assert!(loose.transition_skeleton(&cap(5)).unwrap().is_none());
        assert!(loose.transition_skeleton(&cap(4)).unwrap().is_none());
        assert!(tight.transition_skeleton(&cap(2)).unwrap().is_none());
        assert!(tight
            .with_period(0.5)
            .transition_skeleton(&cap(1))
            .unwrap()
            .is_none());
        assert_eq!(builds(), before);
    }

    #[test]
    fn speed_table_and_quick_reject() {
        let pf = Platform::paper(2, 2);
        let g = chain(&[1e8, 5e8, 2e9], &[1e3, 1e3]);
        let inst = Instance::new(g.clone(), pf.clone(), 1.0);
        // 2e9 cycles in 1 s needs 2 GHz: infeasible.
        assert!(inst.infeasible_stage().is_some());
        assert_eq!(inst.min_uniform_speed(), None);
        // At T = 10 s everything fits; the binding stage is 2e9 -> 0.2 GHz
        // -> speed index 1 (0.4 GHz).
        let loose = inst.with_period(10.0);
        assert_eq!(loose.infeasible_stage(), None);
        assert_eq!(loose.min_uniform_speed(), Some(1));
    }

    #[test]
    fn utilisation_period_scales_with_work() {
        let pf = Platform::paper(2, 2); // 4 cores, f_max = 1 GHz (XScale)
        let light = Instance::for_utilisation(chain(&[1e8; 4], &[1e3; 3]), pf.clone(), 0.5);
        let heavy = Instance::for_utilisation(chain(&[1e9; 4], &[1e3; 3]), pf, 0.5);
        // T = W / (u * cores * f_max): 4e8 / (0.5 * 4 * f_max).
        let fmax = light.platform().power.max_freq();
        assert!((light.period() - 4e8 / (0.5 * 4.0 * fmax)).abs() < 1e-12);
        // 10x the work at the same utilisation => 10x the period.
        assert!((heavy.period() / light.period() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn peek_and_seed_roundtrip() {
        let g = chain(&[1e6; 6], &[1e3; 5]);
        let donor = Instance::new(g.clone(), Platform::paper(2, 2), 1.0);
        assert!(donor.cached_lattice().is_none(), "peek must not compute");
        let lat = donor.lattice(10_000).unwrap();
        let table = donor.route_table(RoutePolicy::Xy);
        assert!(Arc::ptr_eq(&donor.cached_lattice().unwrap(), &lat));
        assert!(Arc::ptr_eq(
            &donor.cached_route_table(RoutePolicy::Xy).unwrap(),
            &table
        ));
        assert!(donor.cached_route_table(RoutePolicy::Yx).is_none());

        // A fresh instance over content-identical inputs, seeded from the
        // donor, answers from the seeded artifacts without recomputing.
        let warm = Instance::new(g, Platform::paper(2, 2), 0.5);
        warm.seed_lattice(Arc::clone(&lat));
        warm.seed_route_table(RoutePolicy::Xy, Arc::clone(&table));
        assert!(Arc::ptr_eq(&warm.lattice(10_000).unwrap(), &lat));
        assert!(Arc::ptr_eq(&warm.route_table(RoutePolicy::Xy), &table));
        // Cap semantics survive seeding: an under-cap request still fails.
        assert!(matches!(
            warm.lattice(2),
            Err(IdealError::LimitExceeded { cap: 2, found: 7 })
        ));
        // First write wins: seeding over a populated slot is a no-op.
        let other = Instance::new(chain(&[1e6; 6], &[1e3; 5]), Platform::paper(2, 2), 1.0)
            .lattice(10_000)
            .unwrap();
        warm.seed_lattice(other);
        assert!(Arc::ptr_eq(&warm.lattice(10_000).unwrap(), &lat));
    }

    #[test]
    fn seeded_skeleton_short_circuits_build() {
        let g = chain(&[1e6; 6], &[1e3; 5]);
        let cfg = crate::dpa1d::Dpa1dConfig::default();
        let donor = Instance::new(g.clone(), Platform::paper(2, 2), 1.0);
        let sk = donor.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(Arc::ptr_eq(&donor.cached_skeleton().unwrap(), &sk));
        assert!(sk.size_bytes() > 0);

        let warm = Instance::new(g, Platform::paper(2, 2), 1.0);
        assert!(warm.cached_skeleton().is_none());
        warm.seed_skeleton(Arc::clone(&sk));
        let served = warm.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(Arc::ptr_eq(&served, &sk), "seed must serve the build");
    }

    #[test]
    fn bounded_fallback_after_complete_overflow() {
        // A declared ceiling of 30 ms admits the complete set (465
        // transitions), over an edge cap of 100, but the build at the
        // session period fits — the cache must fall through to it instead
        // of giving up.
        let cfg = cap100();
        let inst = Instance::new(chain30(), Platform::paper(2, 2), 0.003);
        inst.note_period_ceiling(0.03);
        let sk = inst.transition_skeleton(&cfg).unwrap().unwrap();
        assert_eq!((sk.period_ceiling(), sk.n_transitions()), (0.003, 87));
        assert_eq!(inst.skeleton_overflows(), [(100, 0.03)]);
        assert!(Arc::ptr_eq(&inst.cached_skeleton().unwrap(), &sk));
        // A tighter re-target is served from the same cached artifact.
        let sk2 = inst
            .with_period(0.001)
            .transition_skeleton(&cfg)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&sk, &sk2));
    }

    #[test]
    fn bounded_failures_keyed_by_cap_and_ceiling() {
        // A loose period's bounded build overflows the cap (its ceiling
        // admits the whole complete set); a tighter request afterwards
        // must retry at its own ceiling and succeed rather than inherit
        // the failure.
        let g = chain(&[1e6; 30], &[1e3; 29]);
        let cfg = crate::dpa1d::Dpa1dConfig {
            edge_cap: 100,
            ..Default::default()
        };
        let loose = Instance::new(g, Platform::paper(2, 2), 0.03);
        assert!(loose.transition_skeleton(&cfg).unwrap().is_none());
        let sk = loose
            .with_period(0.003)
            .transition_skeleton(&cfg)
            .unwrap()
            .unwrap();
        assert!(sk.serves(0.003));
        // The loose request still answers `None` off the recorded failure
        // (its ceiling is at least the failed one at the same cap).
        assert!(loose.transition_skeleton(&cfg).unwrap().is_none());
    }

    #[test]
    fn sweep_ceiling_hint_targets_one_build() {
        let g = chain(&[1e6; 30], &[1e3; 29]);
        let cfg = crate::dpa1d::Dpa1dConfig {
            edge_cap: 100,
            ..Default::default()
        };
        let inst = Instance::new(g, Platform::paper(2, 2), 0.001);
        inst.note_period_ceiling(0.003);
        let sk = inst.transition_skeleton(&cfg).unwrap().unwrap();
        // Built at the noted grid ceiling, not the session period, so the
        // same artifact serves every point of the sweep.
        assert_eq!((sk.period_ceiling(), sk.n_transitions()), (0.003, 87));
        let sk2 = inst
            .with_period(0.003)
            .transition_skeleton(&cfg)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&sk, &sk2));
    }

    #[test]
    fn seeded_bounded_skeleton_routes_to_bounded_slot() {
        let cfg = cap100();
        let donor = Instance::new(chain30(), Platform::paper(2, 2), 0.003);
        let sk = donor.transition_skeleton(&cfg).unwrap().unwrap();
        let warm = Instance::new(chain30(), Platform::paper(2, 2), 0.003);
        warm.seed_skeleton(Arc::clone(&sk));
        // The one slot answers both peeks: every skeleton is bounded.
        assert!(Arc::ptr_eq(&warm.cached_skeleton().unwrap(), &sk));
        assert!(Arc::ptr_eq(&warm.cached_bounded_skeleton().unwrap(), &sk));
        let served = warm.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(Arc::ptr_eq(&served, &sk), "seed must serve the build");
    }

    #[test]
    fn with_fault_reuses_fault_invariant_artifacts() {
        let g = chain(&[1e6; 6], &[1e3; 5]);
        let inst = Instance::new(g, Platform::paper(2, 2), 1.0);
        let lat = inst.lattice(10_000).unwrap();
        let sk = inst
            .transition_skeleton(&crate::dpa1d::Dpa1dConfig::default())
            .unwrap()
            .unwrap();
        let xy = inst.route_table(RoutePolicy::Xy);

        // Core fault: everything survives, route tables byte-for-byte.
        let core_hurt = inst.with_fault(cmp_platform::Fault::Core(CoreId { u: 1, v: 1 }));
        assert!(!core_hurt.platform().core_alive(CoreId { u: 1, v: 1 }));
        assert!(Arc::ptr_eq(&core_hurt.lattice(10_000).unwrap(), &lat));
        assert!(Arc::ptr_eq(&core_hurt.cached_skeleton().unwrap(), &sk));
        assert!(Arc::ptr_eq(
            &core_hurt.cached_route_table(RoutePolicy::Xy).unwrap(),
            &xy
        ));

        // Link fault: lattice/skeleton survive, route tables are patched
        // bit-identically to a cold build on the faulted platform.
        let link_hurt = inst.with_fault(cmp_platform::Fault::Link(
            CoreId { u: 0, v: 0 },
            CoreId { u: 0, v: 1 },
        ));
        assert!(Arc::ptr_eq(&link_hurt.lattice(10_000).unwrap(), &lat));
        assert!(Arc::ptr_eq(&link_hurt.cached_skeleton().unwrap(), &sk));
        let patched = link_hurt.cached_route_table(RoutePolicy::Xy).unwrap();
        let cold = RouteTable::build(link_hurt.platform(), RoutePolicy::Xy);
        assert_eq!(*patched, cold);
        // Unbuilt policies stay unbuilt — patching is lazy per slot.
        assert!(link_hurt.cached_route_table(RoutePolicy::Yx).is_none());
    }

    #[test]
    fn with_edit_lattice_reuse_matches_cold_rebuild() {
        let g = chain(&[1e6; 6], &[1e3; 5]);
        let inst = Instance::new(g.clone(), Platform::paper(2, 2), 1.0);
        let lat = inst.lattice(10_000).unwrap();
        let order = inst.spg().topo_order();

        // Weight retune: the whole shared lattice (cuts included) is
        // reused by pointer.
        let retune = spg::Edit::Retune {
            stage: order[2],
            work: 2e6,
        };
        let tuned = inst.with_edit(&retune);
        assert_eq!(tuned.spg().weight(order[2]), 2e6);
        assert!(Arc::ptr_eq(&tuned.lattice(10_000).unwrap(), &lat));

        // Volume edit: structure reused, cuts recomputed — equal to a
        // cold enumeration on the edited graph.
        let revol = spg::Edit::SetVolume {
            edge: spg::EdgeId(2),
            volume: 7e3,
        };
        let edited = inst.with_edit(&revol);
        let warm = edited.lattice(10_000).unwrap();
        assert!(!Arc::ptr_eq(&warm, &lat));
        let cold = Instance::new(g.with_edit(&revol), Platform::paper(2, 2), 1.0)
            .lattice(10_000)
            .unwrap();
        assert_eq!(warm.cuts, cold.cuts);
        assert_eq!(warm.lattice.len(), cold.lattice.len());

        // Skeletons are invalidated on edits (value-derived work sums).
        let cfg = crate::dpa1d::Dpa1dConfig::default();
        let _ = inst.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(inst.with_edit(&retune).cached_skeleton().is_none());
    }

    #[test]
    fn patched_solves_match_cold_solves() {
        use crate::solver::{SolveCtx, Solver};
        let g = chain(&[2e8, 3e8, 1e8, 4e8], &[1e4, 2e4, 5e3]);
        let pf = Platform::paper(2, 2);
        let inst = Instance::new(g.clone(), pf.clone(), 1.0);
        let ctx = SolveCtx::new(7);
        // Warm the caches before patching.
        let _ = crate::solvers::Greedy::default().solve(&inst, &ctx);

        let fault = cmp_platform::Fault::Core(CoreId { u: 0, v: 0 });
        let warm = inst.with_fault(fault);
        let cold = Instance::new(g.clone(), pf.with_fault(fault), 1.0);
        for s in crate::solvers::default_heuristics() {
            let a = s.solve(&warm, &ctx);
            let b = s.solve(&cold, &ctx);
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.energy(), y.energy(), "{}", s.name()),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("{}: warm {x:?} vs cold {y:?}", s.name()),
            }
        }

        let edit = spg::Edit::Retune {
            stage: g.topo_order()[1],
            work: 5e8,
        };
        let warm = inst.with_edit(&edit);
        let cold = Instance::new(g.with_edit(&edit), pf, 1.0);
        for s in crate::solvers::default_heuristics() {
            let a = s.solve(&warm, &ctx);
            let b = s.solve(&cold, &ctx);
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.energy(), y.energy(), "{}", s.name()),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("{}: warm {x:?} vs cold {y:?}", s.name()),
            }
        }
    }

    #[test]
    fn snake_and_topo_are_cached() {
        let g = chain(&[1e6; 3], &[1e3; 2]);
        let inst = Instance::new(g, Platform::paper(2, 3), 1.0);
        assert_eq!(inst.snake_order().len(), 6);
        assert_eq!(inst.topo_order().len(), 3);
        // Second call returns the same slice (cache hit).
        assert_eq!(
            inst.snake_order().as_ptr(),
            inst.with_period(2.0).snake_order().as_ptr()
        );
    }
}
