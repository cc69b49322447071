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
//!   every portfolio member;
//! * `DPA1D`'s **transition skeleton** ([`TransitionSkeleton`]) — the
//!   complete cluster-transition system over the lattice, which turns
//!   each period-sweep point into a threshold-admission pass instead of a
//!   lattice re-walk;
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
use spg::ideal::{enumerate_ideals, IdealError, IdealLattice};
use spg::{Edit, Spg, StageId};

use crate::common::Failure;
use crate::dpa1d::{build_skeleton, build_skeleton_bounded, Dpa1dConfig, TransitionSkeleton};

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
/// a `LimitExceeded` at cap `c` answers any request with cap ≤ `c`.
type LatticeSlot = Mutex<Option<(usize, Result<Arc<SharedLattice>, IdealError>)>>;

/// Cached `DPA1D` transition skeleton: the lattice it was built from (by
/// pointer), the edge cap the build ran under, and the outcome. A success
/// serves *any* edge cap (per-period admission enforces the cap on the
/// admitted count, not on the index size); a build failure at cap `c`
/// answers any request with cap ≤ `c` (the complete set is even larger).
type SkeletonSlot = Mutex<Option<(usize, Result<Arc<TransitionSkeleton>, Failure>)>>;

/// Cached work-ceiling bounded skeleton state (the fallback when the
/// complete transition set overflows the edge cap): at most one built
/// artifact — the loosest ceiling built so far, which serves every period
/// at or below it — plus the most binding build *failure* observed.
///
/// The failure is keyed by both the edge cap it was attempted under and
/// the ceiling it was attempted at: bounded builds are monotone in both,
/// so a failure at `(cap, ceiling)` proves failure for any `cap' ≤ cap`
/// at any `ceiling' ≥ ceiling` — and proves nothing about tighter
/// ceilings. That keying is what lets a tighter sweep point retry (and
/// succeed) after a looser point's build overflowed, where a bare
/// "build failed once" flag would poison the whole session.
#[derive(Default, Clone)]
struct BoundedSkeleton {
    built: Option<Arc<TransitionSkeleton>>,
    /// `(edge_cap, ceiling)` of the most binding failed build: tightest
    /// ceiling first, largest cap among equal ceilings.
    failed: Option<(usize, f64)>,
}

/// Period-independent derived structures, shared between an instance and
/// its [`Instance::with_period`] re-targets.
#[derive(Default)]
struct Derived {
    lattice: LatticeSlot,
    skeleton: SkeletonSlot,
    bounded: Mutex<BoundedSkeleton>,
    /// The loosest period a sweep over this instance intends to request
    /// (see [`Instance::note_period_ceiling`]): bounded builds target it
    /// so one artifact serves the whole grid. `0.0` until noted.
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

    /// The interned ideal lattice (plus cut volumes), enumerated under
    /// `cap`. Cached: a previous successful enumeration is reused whenever
    /// it fits the requested cap, and a previous `LimitExceeded` at a cap
    /// at least as large answers the request without re-enumerating.
    pub fn lattice(&self, cap: usize) -> Result<Arc<SharedLattice>, IdealError> {
        let mut slot = self.derived.lattice.lock().unwrap();
        if let Some((cached_cap, res)) = slot.as_ref() {
            match res {
                Ok(sh) if sh.lattice.len() <= cap => return Ok(Arc::clone(sh)),
                // A cached success larger than the requested cap is itself
                // proof the enumeration would exceed `cap`: answer without
                // re-enumerating and without evicting the success.
                Ok(sh) => {
                    return Err(IdealError::LimitExceeded {
                        cap,
                        found: sh.lattice.len(),
                    })
                }
                Err(e) if cap <= *cached_cap => return Err(e.clone()),
                _ => {}
            }
        }
        let res = enumerate_ideals(&self.spg, cap).map(|lattice| {
            let cuts = lattice.iter().map(|s| self.spg.cut_volume(s)).collect();
            Arc::new(SharedLattice { lattice, cuts })
        });
        *slot = Some((cap, res.clone()));
        res
    }

    /// The period-independent `DPA1D` transition skeleton for this
    /// instance (see [`TransitionSkeleton`]): the complete cluster
    /// transition system over the interned lattice, built at most once and
    /// shared across [`Instance::with_period`] re-targets — each sweep
    /// point then pays only the threshold-admission pass and the per-period
    /// `Ecal` lookups instead of re-walking the lattice.
    ///
    /// Returns:
    ///
    /// * `Ok(Some(_))` — a skeleton serving this session's period: the
    ///   complete build when it fits `cfg.edge_cap`, else a work-ceiling
    ///   bounded build targeting the loosest period the session is known
    ///   to need (see [`Instance::note_period_ceiling`]) — exact for
    ///   every period it [`TransitionSkeleton::serves`];
    /// * `Ok(None)` — neither the complete set nor any candidate bounded
    ///   build (the last candidate is this session's own period) fits
    ///   `cfg.edge_cap`; `DPA1D` then streams the period's transitions
    ///   through its extension DFS without storing them (failures are
    ///   cached too: they are keyed by the cap — and, for bounded builds,
    ///   the ceiling — they were attempted under, so only genuinely new
    ///   requests re-run a build);
    /// * `Err(_)` — lattice enumeration itself exceeded `cfg.ideal_cap`.
    pub fn transition_skeleton(
        &self,
        cfg: &Dpa1dConfig,
    ) -> Result<Option<Arc<TransitionSkeleton>>, Failure> {
        let shared = self
            .lattice(cfg.ideal_cap)
            .map_err(|e| crate::dpa1d::lattice_failure(&e))?;
        {
            let mut slot = self.derived.skeleton.lock().unwrap();
            let known_overflow = match slot.as_ref() {
                Some((_, Ok(sk))) => return Ok(Some(Arc::clone(sk))),
                // A complete-build overflow at cap ≥ ours is proof ours
                // overflows too; a *smaller* failed cap proves nothing, so
                // fall through and (re)try the complete build.
                Some((built_cap, Err(_))) => cfg.edge_cap <= *built_cap,
                None => false,
            };
            if !known_overflow {
                let res = build_skeleton(self.spg(), self.platform(), &shared, cfg.edge_cap)
                    .map(Arc::new);
                *slot = Some((cfg.edge_cap, res.clone()));
                if let Ok(sk) = res {
                    return Ok(Some(sk));
                }
            }
        }
        // The complete set is over budget: fall back to a bounded build.
        self.bounded_skeleton(cfg, &shared)
    }

    /// The work-ceiling bounded fallback of [`Instance::transition_skeleton`].
    /// Candidate ceilings run loosest first — the sweep-grid hint (one
    /// build serves the whole grid), then this session's own period — and
    /// each is skipped when a recorded failure already proves it overflows
    /// at this cap.
    fn bounded_skeleton(
        &self,
        cfg: &Dpa1dConfig,
        shared: &Arc<SharedLattice>,
    ) -> Result<Option<Arc<TransitionSkeleton>>, Failure> {
        let hint = *self.derived.sweep_ceiling.lock().unwrap();
        let mut slot = self.derived.bounded.lock().unwrap();
        if let Some(sk) = &slot.built {
            if sk.serves(self.period) {
                return Ok(Some(Arc::clone(sk)));
            }
        }
        let loosest = hint.max(self.period);
        let mut candidates = vec![loosest];
        if self.period < loosest {
            candidates.push(self.period);
        }
        for ceiling in candidates {
            if let Some((fcap, fceil)) = slot.failed {
                if cfg.edge_cap <= fcap && ceiling >= fceil {
                    continue; // proven overflow at this cap and ceiling
                }
            }
            match build_skeleton_bounded(self.spg(), self.platform(), shared, cfg.edge_cap, ceiling)
            {
                Ok(sk) => {
                    let sk = Arc::new(sk);
                    // Cache the loosest built artifact (it strictly
                    // subsumes tighter ones); always serve the fresh one.
                    if slot
                        .built
                        .as_ref()
                        .is_none_or(|b| sk.period_ceiling() > b.period_ceiling())
                    {
                        slot.built = Some(Arc::clone(&sk));
                    }
                    return Ok(Some(sk));
                }
                Err(_) => {
                    slot.failed = Some(match slot.failed {
                        // Keep the tightest-ceiling record (it covers the
                        // largest request region); merge caps on a tie.
                        Some((fc, fceil)) if fceil < ceiling => (fc, fceil),
                        Some((fc, fceil)) if fceil == ceiling => (fc.max(cfg.edge_cap), fceil),
                        _ => (cfg.edge_cap, ceiling),
                    });
                }
            }
        }
        Ok(None)
    }

    /// Records (max-accumulating) the loosest period this session — or a
    /// [`Instance::with_period`] re-target sharing its caches — intends to
    /// request. Period sweeps call this with their grid's loosest resolved
    /// point before fanning out, so the first bounded skeleton build
    /// targets a ceiling serving *every* point exactly (see
    /// [`TransitionSkeleton::serves`]).
    pub fn note_period_ceiling(&self, period: f64) {
        if period.is_finite() && period > 0.0 {
            let mut hint = self.derived.sweep_ceiling.lock().unwrap();
            if period > *hint {
                *hint = period;
            }
        }
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

    /// Peeks at the cached *complete* transition skeleton without building
    /// it (bounded artifacts have their own peek,
    /// [`Instance::cached_bounded_skeleton`]).
    pub fn cached_skeleton(&self) -> Option<Arc<TransitionSkeleton>> {
        let slot = self.derived.skeleton.lock().unwrap();
        slot.as_ref()
            .and_then(|(_, res)| res.as_ref().ok().cloned())
    }

    /// Peeks at the cached work-ceiling bounded skeleton (the loosest one
    /// built on this session) without building it.
    pub fn cached_bounded_skeleton(&self) -> Option<Arc<TransitionSkeleton>> {
        self.derived.bounded.lock().unwrap().built.clone()
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

    /// Seeds the skeleton cache (see [`Instance::seed_lattice`]). Routes
    /// by build kind: a complete artifact fills the complete slot (first
    /// success wins, but it may replace a cached build *failure* — the
    /// donor evidently built it under a larger cap); a bounded artifact
    /// fills the bounded slot when it is looser than what is already
    /// there. A cached success serves any edge cap, so no cap is recorded.
    pub fn seed_skeleton(&self, skeleton: Arc<TransitionSkeleton>) {
        if skeleton.is_complete() {
            let mut slot = self.derived.skeleton.lock().unwrap();
            if !matches!(slot.as_ref(), Some((_, Ok(_)))) {
                *slot = Some((0, Ok(skeleton)));
            }
        } else {
            let mut slot = self.derived.bounded.lock().unwrap();
            if slot
                .built
                .as_ref()
                .is_none_or(|b| skeleton.period_ceiling() > b.period_ceiling())
            {
                slot.built = Some(skeleton);
            }
        }
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
    /// * the ideal lattice, transition skeletons, snake/topological
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
            skeleton: Mutex::new(self.derived.skeleton.lock().unwrap().clone()),
            bounded: Mutex::new(self.derived.bounded.lock().unwrap().clone()),
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
    /// * transition skeletons are invalidated (their per-transition work
    ///   sums and admission thresholds are value-derived) and rebuilt
    ///   lazily from the reused lattice;
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
                    let cuts = lattice.iter().map(|s| spg.cut_volume(s)).collect();
                    Some((*cap, Ok(Arc::new(SharedLattice { lattice, cuts }))))
                }
                // Weight retunes leave the lattice untouched; enumeration
                // *failures* are structure-only proofs, valid either way.
                other => other.cloned(),
            }
        };
        let derived = Derived {
            lattice: Mutex::new(lattice),
            // Skeleton blocks embed value-derived work sums and admission
            // thresholds: rebuilt lazily from the reused lattice.
            skeleton: Mutex::new(None),
            bounded: Mutex::new(BoundedSkeleton::default()),
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
fn utilisation_period(spg: &Spg, pf: &Platform, utilisation: f64) -> f64 {
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
        // 30-chain: the complete set (465 transitions) overflows an edge
        // cap of 100, but the bounded build at the session period fits —
        // the cache must fall through to it instead of giving up.
        let g = chain(&[1e6; 30], &[1e3; 29]);
        let cfg = crate::dpa1d::Dpa1dConfig {
            edge_cap: 100,
            ..Default::default()
        };
        let inst = Instance::new(g, Platform::paper(2, 2), 0.003);
        let sk = inst.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(!sk.is_complete() && sk.serves(0.003));
        assert!(
            inst.cached_skeleton().is_none(),
            "complete slot holds a failure"
        );
        assert!(Arc::ptr_eq(&inst.cached_bounded_skeleton().unwrap(), &sk));
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
        // the failure — the regression this PR fixes.
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
        assert!(sk.serves(0.003));
        let sk2 = inst
            .with_period(0.003)
            .transition_skeleton(&cfg)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&sk, &sk2));
    }

    #[test]
    fn seeded_bounded_skeleton_routes_to_bounded_slot() {
        let g = chain(&[1e6; 30], &[1e3; 29]);
        let cfg = crate::dpa1d::Dpa1dConfig {
            edge_cap: 100,
            ..Default::default()
        };
        let donor = Instance::new(g.clone(), Platform::paper(2, 2), 0.003);
        let sk = donor.transition_skeleton(&cfg).unwrap().unwrap();
        assert!(!sk.is_complete());
        let warm = Instance::new(g, Platform::paper(2, 2), 0.003);
        warm.seed_skeleton(Arc::clone(&sk));
        assert!(warm.cached_skeleton().is_none());
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
