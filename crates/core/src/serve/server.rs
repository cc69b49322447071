//! The daemon: sockets, connection threads, and the request service.
//!
//! The transport split is deliberate: [`Service`] is the pure
//! frame-in/frame-out request handler (fully testable in-process, no
//! sockets), and [`Server`] wires it to a Unix or TCP listener.
//!
//! ## The batched hot path
//!
//! Connection threads do not dispatch solves themselves. They parse,
//! validate, fingerprint, and **admit** onto the scheduler's bounded
//! `SolveQueue`, then block on a response channel. A request identical
//! to one already queued or solving (same full request fingerprint)
//! joins that request's open flight instead of queueing (single-flight)
//! and receives the same frame. One scheduler thread drains the queue as
//! soon as it holds a job (after a batch that requests joined, once that
//! batch's requests are back: the scheduler's *regrouping*), and the
//! drained solves, distinct by construction, run as **one**
//! [`Portfolio::run_batch`] wave over the global rayon pool, so eight
//! concurrent clients saturate the workers instead of launching eight
//! competing fan-outs. Admission control
//! sheds at enqueue time (structured `overloaded` frame with
//! `retry_after_ms`) when the predicted queue wait would blow the
//! request's deadline. With
//! `batching` disabled, and for a solve that arrives after the shutdown
//! drain, the connection thread runs the same executor (prepare → wave →
//! finish) on a batch of one. `sweep` requests run on their connection
//! thread through the same prepare and finish: one cache-seeded session
//! and one arrival-anchored portfolio, run at every grid value as one
//! [`PeriodSweep`] wave.
//!
//! ## Cache persistence
//!
//! With [`ServeConfig::cache_dir`] set, every artifact the cache accepts
//! is also spilled to disk write-behind (outside the cache lock), and
//! [`Service::new`] reloads the directory — validated and checksummed,
//! corrupt or version-skewed files skipped — so a restarted daemon
//! answers its first request warm. See [`super::spill`].
//!
//! ## Warm solves are bit-identical to cold solves
//!
//! The cache never stores *answers* — it stores the period-independent
//! derived state ([`crate::SharedLattice`], [`crate::TransitionSkeleton`],
//! [`cmp_platform::RouteTable`]) that an [`Instance`] would rebuild from
//! scratch. A warm request seeds those artifacts into a fresh `Instance`
//! whose content fingerprints match, and the solvers then run exactly the
//! code they run cold, over structures that are value-equal by
//! construction. Energies therefore agree bit-for-bit; only wall time
//! changes. The integration suite asserts this across the StreamIt table.
//!
//! ## Shutdown discipline
//!
//! `shutdown` flips one flag. The accept loop stops admitting connections;
//! each connection thread finishes the frame it is processing (a dispatch
//! runs to completion — in-flight work is never cancelled), notices the
//! flag at its next read timeout, and exits; [`Server::run`] joins them
//! all before returning, then removes a Unix socket file it created.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
#[cfg(unix)]
use std::path::Path;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cmp_platform::Platform;

use crate::instance::{utilisation_period, Instance};
use crate::json::{obj, Json};
use crate::portfolio::{Portfolio, PortfolioReport};
use crate::solver::{Solver, SolverRegistry};
use crate::sweep::{PeriodSweep, SweepAxis};

use super::cache::{Artifact, ArtifactCache, ArtifactKey, CacheStats};
use super::fingerprint::{
    fault_free_platform_fingerprint, platform_fingerprint, route_platform_fingerprint,
    workload_fingerprint, Fingerprint,
};
use super::histogram::LatencyHistogram;
use super::protocol::{
    error_response, failure_response, ok_response, overloaded_response, parse_request, write_frame,
    FrameReader, PeriodReq, Request, SolveReq, SweepReq,
};
use super::scheduler::{Admission, SchedulerStats, SolveJob, SolveQueue};
use super::spill::{self, SpillStats};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Byte bound on the artifact cache.
    pub cache_bytes: usize,
    /// Default per-request wall-clock budget (requests may override via
    /// `deadline_ms`; `None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Portfolio base seed used when a request carries none.
    pub default_seed: u64,
    /// Cache-persistence directory: artifacts spill here write-behind on
    /// insert and reload (validated, checksummed, tolerant of corrupt or
    /// version-skewed files) at startup, so a restarted daemon starts
    /// warm. `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Route solves through the batched scheduler (on by default).
    /// Disabling it restores dispatch-per-connection-thread — useful only
    /// for comparison benchmarks.
    pub batching: bool,
    /// Bound on queued solve jobs; admits beyond it are shed with an
    /// `overloaded` frame.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_bytes: 64 << 20,
            default_deadline_ms: None,
            default_seed: 2011,
            cache_dir: None,
            batching: true,
            queue_cap: 1024,
        }
    }
}

/// How often idle connection reads and the accept loop re-check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long a peer may stall *mid-frame* before the connection is dropped.
/// The poll timeout alone never aborts a frame — a peer pausing between
/// chunks of a large frame is normal TCP behaviour; only a stall this long
/// counts as a dead or malicious peer.
const FRAME_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Mid-frame stall allowance once shutdown has been requested: long
/// enough for in-flight bytes on a healthy link to land, short enough
/// that a stalled peer cannot hold the drain hostage.
const SHUTDOWN_STALL_LIMIT: Duration = Duration::from_millis(500);

/// How long a write may block on a peer that stops reading before the
/// connection is dropped (keeps [`Server::run`]'s join from hanging on a
/// full socket buffer).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Locks `m`, recovering the guard when a panicking holder poisoned it.
/// No solver code runs under the service's locks, only short cache and
/// histogram updates, so one panic there must not fail every later
/// request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f`, turning a panic into its message (the `internal` error
/// frame's text) instead of unwinding into the caller's thread.
fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Whether a request whose cache probe found `[lattice, skeleton, route,
/// healthy route]` (see [`ServiceCore::probe`]) is served warm: every
/// artifact was cached (a skeleton only when it serves the request's
/// period), a link-faulted route table counting when its healthy sibling
/// can be patched.
fn warm(hits: &[bool; 4]) -> bool {
    hits[0] && hits[1] && (hits[2] || hits[3])
}

/// How many jobs the scheduler thread drains per batch. Bounds the width
/// of one [`Portfolio::run_batch`] wave. A drain takes what is queued and
/// waits for more only to regroup the requests of a shared batch, so the
/// cap only matters under real backlog.
const SCHED_BATCH_CAP: usize = 32;

/// The transport-independent request service: parse → admit → batch →
/// seed from cache → dispatch on the rayon pool → harvest → respond.
///
/// `Service` is a thin owning handle: the state lives in [`ServiceCore`]
/// behind an `Arc` shared with the scheduler thread, and `Deref` forwards
/// every method. Dropping the handle requests shutdown, drains the queue,
/// and joins the scheduler.
pub struct Service {
    core: Arc<ServiceCore>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Service {
    /// A fresh service with the default solver registry. The cache starts
    /// empty unless [`ServeConfig::cache_dir`] points at a spill
    /// directory, in which case every loadable artifact is re-seeded
    /// (through the normal insert path, so hit/miss counters stay zero).
    /// With [`ServeConfig::batching`] on, this also spawns the scheduler
    /// thread.
    pub fn new(cfg: ServeConfig) -> Self {
        Service::with_registry(cfg, SolverRegistry::with_defaults())
    }

    /// [`Service::new`] resolving request solver names against `registry`.
    pub(crate) fn with_registry(cfg: ServeConfig, registry: SolverRegistry) -> Self {
        let mut cache = ArtifactCache::new(cfg.cache_bytes);
        let mut spill_stats = SpillStats::default();
        if let Some(dir) = &cfg.cache_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("xp serve: cannot create cache dir {}: {e}", dir.display());
            }
            spill_stats = spill::load_dir(dir, &mut cache);
        }
        let (queue_cap, batching) = (cfg.queue_cap, cfg.batching);
        let core = Arc::new(ServiceCore {
            cfg,
            registry,
            cache: Mutex::new(cache),
            queue: SolveQueue::new(queue_cap),
            shutdown: std::sync::atomic::AtomicBool::new(false),
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            cold: Mutex::new(LatencyHistogram::new()),
            warm: Mutex::new(LatencyHistogram::new()),
            spill_loaded: spill_stats.loaded,
            spill_skipped: spill_stats.skipped,
            spilled: AtomicU64::new(0),
            spill_errors: AtomicU64::new(0),
            prune_kept: AtomicU64::new(0),
            prune_pruned: AtomicU64::new(0),
            prune_solves: AtomicU64::new(0),
            prune_frontier_max: AtomicU64::new(0),
            prune_bound_gap_max: AtomicU64::new(0.0_f64.to_bits()),
        });
        let worker = if batching {
            let w = Arc::clone(&core);
            Some(
                std::thread::Builder::new()
                    .name("xp-serve-scheduler".into())
                    .spawn(move || w.scheduler_loop())
                    .expect("spawn the scheduler thread"),
            )
        } else {
            None
        };
        Service {
            core,
            worker: Mutex::new(worker),
        }
    }
}

impl std::ops::Deref for Service {
    type Target = ServiceCore;
    fn deref(&self) -> &ServiceCore {
        &self.core
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Closing the queue wakes the scheduler, which drains whatever is
        // already queued (answering every waiter) and exits.
        self.core.request_shutdown();
        if let Some(worker) = lock(&self.worker).take() {
            let _ = worker.join();
        }
    }
}

/// One distinct solve for [`ServiceCore::execute`]: the decoded request,
/// its instantiated workload and resolved solver set, and its arrival
/// time (the latency and deadline anchor).
type SolveInput = (SolveReq, spg::Spg, Vec<Arc<dyn Solver>>, Instant);

/// A cache-seeded instance session (see [`ServiceCore::session`]) with
/// the hit bookkeeping its response frame reports and its harvest skips.
struct Session {
    inst: Instance,
    keys: [ArtifactKey; 3],
    hits: [bool; 4],
}

/// A solve ready to run: its session plus the configured portfolio.
struct PreparedSolve {
    session: Session,
    portfolio: Portfolio,
}

/// The service state proper — everything [`Service`] methods touch,
/// shared between connection threads and the scheduler thread.
pub struct ServiceCore {
    cfg: ServeConfig,
    registry: SolverRegistry,
    cache: Mutex<ArtifactCache>,
    queue: SolveQueue,
    shutdown: std::sync::atomic::AtomicBool,
    requests: AtomicU64,
    bad_requests: AtomicU64,
    /// Requests answered `internal` because their handling panicked.
    internal_errors: AtomicU64,
    cold: Mutex<LatencyHistogram>,
    warm: Mutex<LatencyHistogram>,
    /// Artifacts reloaded from the spill directory at startup.
    spill_loaded: u64,
    /// Spill files skipped at startup (corrupt, truncated, version skew).
    spill_skipped: u64,
    /// Artifacts spilled write-behind since startup.
    spilled: AtomicU64,
    /// Spill writes that failed (disk full, permissions, …).
    spill_errors: AtomicU64,
    /// `DPA1D` dominance telemetry aggregated over every winning solution
    /// that carried [`crate::PruneStats`] (sums for the transition
    /// counters, maxima for the frontier width and bound gap).
    prune_kept: AtomicU64,
    prune_pruned: AtomicU64,
    prune_solves: AtomicU64,
    prune_frontier_max: AtomicU64,
    /// Largest certified bound gap observed, stored as `f64::to_bits`
    /// (non-negative, so the bit pattern orders like the float).
    prune_bound_gap_max: AtomicU64,
}

impl ServiceCore {
    /// The scheduler thread body: drain → batch-solve → close the flights
    /// → respond, until shutdown drains the queue dry.
    fn scheduler_loop(&self) {
        while let Some(jobs) = self.queue.next_batch(SCHED_BATCH_CAP) {
            self.run_batch_jobs(jobs);
        }
    }

    /// Folds one winning solution's prune telemetry into the `stats`
    /// aggregates.
    fn record_prune(&self, p: &crate::PruneStats) {
        self.prune_kept
            .fetch_add(p.transitions_kept, Ordering::Relaxed);
        self.prune_pruned
            .fetch_add(p.transitions_pruned, Ordering::Relaxed);
        self.prune_solves.fetch_add(1, Ordering::Relaxed);
        self.prune_frontier_max
            .fetch_max(u64::from(p.frontier_max), Ordering::Relaxed);
        self.prune_bound_gap_max
            .fetch_max(p.bound_gap.to_bits(), Ordering::Relaxed);
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag (also reachable via the wire `shutdown`
    /// op) and tells the scheduler to drain and exit. Solves arriving
    /// after the drain finishes run inline on their connection thread —
    /// no request is ever lost to the race.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Scheduler counter snapshot (queue depth, batches, coalesced and
    /// shed jobs).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.queue.stats()
    }

    /// Artifact-cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        lock(&self.cache).stats()
    }

    /// Recent evictions, oldest first (see
    /// [`ArtifactCache::eviction_log`]).
    pub fn eviction_log(&self) -> Vec<ArtifactKey> {
        lock(&self.cache).eviction_log().to_vec()
    }

    /// Handles one request frame and returns the response frame. Never
    /// panics: bad requests get a `bad_request` error frame, and a panic
    /// while handling one (a solver bug) gets an `internal` one.
    pub fn handle(&self, frame: &Json) -> Json {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let response = isolate(|| match parse_request(frame) {
            Err(msg) => error_response("bad_request", &msg),
            Ok(Request::Ping) => ok_response(obj([("pong", Json::from(true))])),
            Ok(Request::Stats) => ok_response(self.stats_json()),
            Ok(Request::Shutdown) => {
                self.request_shutdown();
                ok_response(obj([("shutting_down", Json::from(true))]))
            }
            Ok(Request::Solve(req)) => self.dispatch_solve(req),
            Ok(Request::Sweep(req)) => self.sweep(req),
        })
        .unwrap_or_else(|msg| self.internal_error(&msg));
        // Count every bad_request, whether it failed at the frame, the
        // request grammar, or resolution (unknown workload/solver).
        let kind = response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        if kind == Some("bad_request") {
            self.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    /// Counts and builds the `internal` error frame of a request whose
    /// handling panicked.
    fn internal_error(&self, panic: &str) -> Json {
        self.internal_errors.fetch_add(1, Ordering::Relaxed);
        error_response(
            "internal",
            &format!("handling the request panicked: {panic}"),
        )
    }

    /// The `stats` payload: request counters, cache counters, and
    /// warm/cold latency distributions.
    pub fn stats_json(&self) -> Json {
        let cache = self.cache_stats();
        let hist = |h: &Mutex<LatencyHistogram>| {
            let h = lock(h);
            obj([
                ("count", Json::from(h.count())),
                ("mean_ms", Json::from(h.mean() / 1e6)),
                ("p50_ms", Json::from(h.percentile(0.50) as f64 / 1e6)),
                ("p99_ms", Json::from(h.percentile(0.99) as f64 / 1e6)),
                ("p999_ms", Json::from(h.percentile(0.999) as f64 / 1e6)),
                ("max_ms", Json::from(h.max() as f64 / 1e6)),
            ])
        };
        obj([
            (
                "requests",
                Json::from(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "bad_requests",
                Json::from(self.bad_requests.load(Ordering::Relaxed)),
            ),
            (
                "internal_errors",
                Json::from(self.internal_errors.load(Ordering::Relaxed)),
            ),
            (
                "cache",
                obj([
                    ("hits", Json::from(cache.hits)),
                    ("misses", Json::from(cache.misses)),
                    ("evictions", Json::from(cache.evictions)),
                    ("entries", Json::from(cache.entries)),
                    ("bytes", Json::from(cache.bytes)),
                    ("limit_bytes", Json::from(cache.limit_bytes)),
                    ("hit_rate", Json::from(cache.hit_rate())),
                ]),
            ),
            ("cold", hist(&self.cold)),
            ("warm", hist(&self.warm)),
            ("scheduler", {
                let s = self.queue.stats();
                obj([
                    ("queue_depth", Json::from(s.queue_depth)),
                    ("batches", Json::from(s.batches)),
                    ("batched_requests", Json::from(s.batched_requests)),
                    ("deduped", Json::from(s.deduped)),
                    ("shed", Json::from(s.shed)),
                ])
            }),
            (
                "spill",
                obj([
                    ("loaded", Json::from(self.spill_loaded)),
                    ("skipped", Json::from(self.spill_skipped)),
                    ("spilled", Json::from(self.spilled.load(Ordering::Relaxed))),
                    (
                        "errors",
                        Json::from(self.spill_errors.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "prune",
                obj([
                    (
                        "solves",
                        Json::from(self.prune_solves.load(Ordering::Relaxed)),
                    ),
                    (
                        "transitions_kept",
                        Json::from(self.prune_kept.load(Ordering::Relaxed)),
                    ),
                    (
                        "transitions_pruned",
                        Json::from(self.prune_pruned.load(Ordering::Relaxed)),
                    ),
                    (
                        "frontier_max",
                        Json::from(self.prune_frontier_max.load(Ordering::Relaxed)),
                    ),
                    (
                        "bound_gap_max",
                        Json::from(f64::from_bits(
                            self.prune_bound_gap_max.load(Ordering::Relaxed),
                        )),
                    ),
                ]),
            ),
        ])
    }

    /// Resolves a request's solver CSV against the registry (`None` = the
    /// paper's five heuristics).
    fn solvers_for(&self, csv: Option<&str>) -> Result<Vec<Arc<dyn Solver>>, String> {
        match csv {
            Some(csv) => self.registry.parse_list(csv),
            None => Ok(crate::solvers::default_heuristics()),
        }
    }

    /// The three cache keys of a request's artifacts — lattice, skeleton,
    /// route table — with fault-aware keying (see
    /// [`ServiceCore::session`]).
    fn request_keys(workload: &spg::Spg, pf: &Platform) -> [ArtifactKey; 3] {
        let wfp = workload_fingerprint(workload);
        let pfp = platform_fingerprint(pf);
        let (skeleton_pfp, route_pfp) = if pf.is_faulted() {
            (
                fault_free_platform_fingerprint(pf),
                route_platform_fingerprint(pf),
            )
        } else {
            (pfp, pfp)
        };
        [
            ArtifactKey::Lattice { workload: wfp },
            ArtifactKey::Skeleton {
                workload: wfp,
                platform: skeleton_pfp,
            },
            ArtifactKey::Route {
                platform: route_pfp,
                policy: pf.policy.index() as u8,
            },
        ]
    }

    /// Looks a request's artifacts up through `find`, one lookup per key,
    /// in a fixed order: lattice, skeleton, route table, then the healthy
    /// sibling of a missed link-faulted route table (which the request
    /// patches). Returns what was found for `[lattice, skeleton, route,
    /// healthy route]`. A solve passes [`ArtifactCache::get_if`] and
    /// admission passes [`ArtifactCache::peek`], each keeping only an
    /// artifact that [`Artifact::serves`] the request's period, so both
    /// apply one residency rule (see [`warm`]).
    fn probe<A>(
        keys: &[ArtifactKey; 3],
        pf: &Platform,
        mut find: impl FnMut(&ArtifactKey) -> Option<A>,
    ) -> [Option<A>; 4] {
        let lattice = find(&keys[0]);
        let skeleton = find(&keys[1]);
        let route = find(&keys[2]);
        let mut healthy_route = None;
        if route.is_none() && pf.has_link_faults() {
            healthy_route = find(&ArtifactKey::Route {
                platform: fault_free_platform_fingerprint(pf),
                policy: pf.policy.index() as u8,
            });
        }
        [lattice, skeleton, route, healthy_route]
    }

    /// The period a solve request asks for, a utilisation resolved against
    /// its workload and platform.
    fn request_period(workload: &spg::Spg, req: &SolveReq) -> f64 {
        match req.period {
            PeriodReq::Period(t) => t,
            PeriodReq::Utilisation(u) => utilisation_period(workload, &req.platform, u),
        }
    }

    /// Admission-control service-time estimate in nanoseconds: the warm
    /// median when the request would be served warm (see [`warm`]), the
    /// cold median otherwise; 0 (admit) when the matching histogram has no
    /// history yet. The probe uses [`ArtifactCache::peek`], which
    /// touches neither the hit/miss counters nor LRU recency — admission
    /// must not perturb the deterministic counter sequences the bench
    /// pins.
    fn estimate_solve_ns(&self, workload: &spg::Spg, req: &SolveReq) -> u64 {
        let keys = Self::request_keys(workload, &req.platform);
        let period = Self::request_period(workload, req);
        let found = {
            let cache = lock(&self.cache);
            Self::probe(&keys, &req.platform, |k| {
                cache.peek(k).filter(|a| a.serves(period)).map(|_| ())
            })
        };
        let hist = if warm(&found.map(|f| f.is_some())) {
            &self.warm
        } else {
            &self.cold
        };
        lock(hist).percentile(0.5)
    }

    /// The full request-identity fingerprint used for single-flight
    /// coalescing: workload content, platform content (faults included),
    /// period request, resolved solver names, resolved seed, resolved
    /// deadline, and the anytime flag. Two jobs with equal fingerprints
    /// are guaranteed to produce identical response frames (energies are
    /// deterministic in all of the above), so one solve may answer both.
    fn request_fingerprint(
        &self,
        workload: &spg::Spg,
        req: &SolveReq,
        solvers: &[Arc<dyn Solver>],
    ) -> u64 {
        let mut fp = Fingerprint::new();
        fp.u64(workload_fingerprint(workload));
        fp.u64(platform_fingerprint(&req.platform));
        match req.period {
            PeriodReq::Period(t) => fp.u64(0).f64(t),
            PeriodReq::Utilisation(u) => fp.u64(1).f64(u),
        };
        fp.u64(solvers.len() as u64);
        for s in solvers {
            fp.str(s.name());
        }
        fp.u64(req.seed.unwrap_or(self.cfg.default_seed));
        match req.deadline_ms.or(self.cfg.default_deadline_ms) {
            Some(ms) => fp.u64(1).u64(ms),
            None => fp.u64(0),
        };
        fp.u64(req.anytime as u64);
        fp.finish()
    }

    /// Warm-seeds a fresh instance from the cache. A caller that will
    /// solve the session up to `ceiling` declares that reuse
    /// ([`Instance::note_period_ceiling`]: the cache harvests what the
    /// solve builds), and the cached skeleton is a hit only when it serves
    /// `ceiling` (without one, none does). The session records the
    /// instance's three cache keys and which of `[lattice, skeleton,
    /// route, healthy route]` the cache held (see [`ServiceCore::probe`]).
    ///
    /// Fault-aware keying (see `docs/fault-model.md`): the skeleton key
    /// uses the fault-stripped platform fingerprint (the transition
    /// skeleton ignores faults), the route key strips only core faults
    /// (core faults leave routing untouched), and a link-faulted route
    /// miss falls back to patching the healthy table via
    /// [`cmp_platform::RouteTable::patched`] — so a warm daemon stays
    /// warm across faults instead of rebuilding from scratch.
    fn session(&self, inst: Instance, ceiling: Option<f64>) -> Session {
        let pf = inst.platform();
        let keys = Self::request_keys(inst.spg(), pf);
        if let Some(ceiling) = ceiling {
            inst.note_period_ceiling(ceiling);
        }
        let period = ceiling.unwrap_or(f64::INFINITY);
        let found = {
            let mut cache = lock(&self.cache);
            Self::probe(&keys, pf, |k| cache.get_if(k, |a| a.serves(period)))
        };
        let hits = found.each_ref().map(Option::is_some);
        let [lattice, skeleton, route, healthy_route] = found;
        for artifact in [lattice, skeleton, route].into_iter().flatten() {
            match artifact {
                Artifact::Lattice(l) => inst.seed_lattice(l),
                Artifact::Skeleton(s) => inst.seed_skeleton(s),
                Artifact::Route(r) => inst.seed_route_table(pf.policy, r),
            }
        }
        if let Some(Artifact::Route(t)) = healthy_route {
            inst.seed_route_table(pf.policy, Arc::new(t.patched(pf)));
        }
        Session { inst, keys, hits }
    }

    /// A request's portfolio: its solvers, seed and anytime mode, and a
    /// deadline **anchored at request arrival** — a job that waited in the
    /// queue has its wait charged against its own deadline.
    fn portfolio(
        &self,
        solvers: Vec<Arc<dyn Solver>>,
        seed: Option<u64>,
        deadline_ms: Option<u64>,
        anytime: bool,
        arrival: Instant,
    ) -> Portfolio {
        let portfolio = Portfolio::new(solvers)
            .seeded(seed.unwrap_or(self.cfg.default_seed))
            .anytime(anytime);
        match deadline_ms
            .or(self.cfg.default_deadline_ms)
            .and_then(|ms| arrival.checked_add(Duration::from_millis(ms)))
        {
            Some(deadline) => portfolio.with_deadline(deadline),
            None => portfolio,
        }
    }

    /// Stores whichever artifacts a solve materialised that were not
    /// seeded from the cache: the lattice, the route table, and the
    /// session's skeleton, which replaces a cached one only when its
    /// ceiling is strictly looser (see [`ArtifactCache::insert`]). Returns
    /// the artifacts that were **newly stored** so the caller can spill
    /// them write-behind, outside the cache lock — even an entry the LRU
    /// immediately evicts is worth spilling, because the disk tier is what
    /// makes a restart warm.
    fn harvest(&self, session: &Session) -> Vec<(ArtifactKey, Artifact)> {
        let Session { inst, keys, hits } = session;
        let mut built = Vec::new();
        if let (false, Some(l)) = (hits[0], inst.cached_lattice()) {
            built.push((keys[0], Artifact::Lattice(l)));
        }
        if let (false, Some(s)) = (hits[1], inst.cached_skeleton()) {
            built.push((keys[1], Artifact::Skeleton(s)));
        }
        let policy = inst.platform().policy;
        if let (false, Some(r)) = (hits[2], inst.cached_route_table(policy)) {
            built.push((keys[2], Artifact::Route(r)));
        }
        let mut cache = lock(&self.cache);
        built.retain(|(key, a)| cache.insert(*key, a.clone()));
        built
    }

    /// Write-behind spill of freshly inserted artifacts (no-op without a
    /// [`ServeConfig::cache_dir`]). Failures are counted and logged, never
    /// fatal — persistence is an optimisation, not a correctness
    /// dependency.
    fn spill_fresh(&self, fresh: &[(ArtifactKey, Artifact)]) {
        let Some(dir) = &self.cfg.cache_dir else {
            return;
        };
        for (key, artifact) in fresh {
            match spill::spill(dir, key, artifact) {
                Ok(()) => {
                    self.spilled.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.spill_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("xp serve: failed to spill {key}: {e}");
                }
            }
        }
    }

    fn record_latency(&self, warm: bool, nanos: u64) {
        let hist = if warm { &self.warm } else { &self.cold };
        lock(hist).record(nanos);
    }

    /// The tail every solve and sweep shares: harvest and spill the
    /// session's fresh artifacts, then record the arrival-to-response
    /// latency. Returns whether the session was warm and that latency.
    fn settle(&self, session: &Session, arrival: Instant) -> (bool, u64) {
        self.spill_fresh(&self.harvest(session));
        let warm = warm(&session.hits);
        let elapsed_ns = arrival.elapsed().as_nanos() as u64;
        self.record_latency(warm, elapsed_ns);
        (warm, elapsed_ns)
    }

    /// Routes a decoded solve. With batching on, the request is
    /// validated, fingerprinted, estimated, and admitted (queued, or
    /// joined to an identical request's open flight); the connection
    /// thread then blocks on the response channel while the scheduler
    /// thread does the work. Shed requests get the structured
    /// `overloaded` frame without ever touching the queue. With batching
    /// off (and for a job that arrives after the shutdown drain) the
    /// connection thread runs the same executor on a batch of one.
    fn dispatch_solve(&self, req: SolveReq) -> Json {
        let arrival = Instant::now();
        let workload = match req.workload.instantiate() {
            Ok(g) => g,
            Err(msg) => return error_response("bad_request", &msg),
        };
        let solvers = match self.solvers_for(req.solvers.as_deref()) {
            Ok(s) => s,
            Err(msg) => return error_response("bad_request", &msg),
        };
        if !self.cfg.batching {
            return self.execute_one((req, workload, solvers, arrival));
        }
        let est_ns = self.estimate_solve_ns(&workload, &req);
        let dedup = self.request_fingerprint(&workload, &req, &solvers);
        let deadline_ns = req
            .deadline_ms
            .or(self.cfg.default_deadline_ms)
            .map(|ms| ms.saturating_mul(1_000_000));
        let (tx, rx) = mpsc::channel();
        let job = SolveJob {
            req,
            workload,
            solvers,
            dedup,
            est_ns,
            deadline_ns,
            arrival,
            tx,
        };
        match self.queue.admit(job) {
            Admission::Queued | Admission::Joined => rx.recv().unwrap_or_else(|_| {
                error_response("overloaded", "the solve scheduler terminated unexpectedly")
            }),
            Admission::Shed {
                predicted_wait_ns,
                queue_depth,
            } => overloaded_response(predicted_wait_ns, queue_depth),
            // Inline, on this connection thread.
            Admission::Draining(job) => {
                let SolveJob {
                    req,
                    workload,
                    solvers,
                    arrival,
                    ..
                } = *job;
                self.execute_one((req, workload, solvers, arrival))
            }
        }
    }

    /// Executes one drained batch: run its solves through
    /// [`ServiceCore::execute`], close their flights, then send each
    /// response to its job and to the requests that joined the job's
    /// flight. Joiners receive a byte-identical clone of the leader's
    /// frame (including `wall_ms` — they shared the solve, so they share
    /// its latency sample too).
    fn run_batch_jobs(&self, jobs: Vec<SolveJob>) {
        let (inputs, leaders): (Vec<SolveInput>, Vec<_>) = jobs
            .into_iter()
            .map(|job| {
                let input = (job.req, job.workload, job.solvers, job.arrival);
                (input, (job.dedup, job.tx))
            })
            .unzip();
        let responses = self.execute(inputs);
        let joined = self
            .queue
            .close_flights(leaders.iter().map(|(dedup, _)| *dedup));
        let deduped: u64 = joined.iter().map(|j| j.len() as u64).sum();
        // Counted before any waiter is answered, so a `stats` read after
        // the last response of a batch always sees the batch.
        self.queue
            .batch_done(leaders.len() as u64 + deduped, deduped);
        for ((response, (_, tx)), joiners) in responses.into_iter().zip(leaders).zip(joined) {
            for joiner in joiners {
                let _ = joiner.send(response.clone());
            }
            let _ = tx.send(response);
        }
    }

    /// [`ServiceCore::execute`] on one solve: the direct (`batching:
    /// false`) and post-shutdown paths.
    fn execute_one(&self, input: SolveInput) -> Json {
        self.execute(vec![input])
            .pop()
            .expect("one response per solve")
    }

    /// The one solve executor: prepare every solve, run them all as one
    /// [`Portfolio::run_batch`] wave, and build each response frame, in
    /// input order. A solve whose preparation, portfolio or response
    /// panics is answered `internal`; the others carry on.
    fn execute(&self, inputs: Vec<SolveInput>) -> Vec<Json> {
        // Solves prepare in input order on this thread: a prepare only
        // fingerprints the workload, probes the cache and seeds the lazy
        // instance (at most patching one route table); lattices, skeletons
        // and route tables are built inside the wave.
        let prepared: Vec<_> = inputs
            .into_iter()
            .map(|(req, workload, solvers, arrival)| {
                let p = isolate(|| self.prepare_solve(workload, solvers, &req, arrival));
                (p, req, arrival)
            })
            .collect();
        let ready: Vec<&PreparedSolve> = prepared
            .iter()
            .filter_map(|(p, ..)| p.as_ref().ok())
            .collect();
        let mut reports = Self::run_wave(&ready).into_iter();
        prepared
            .iter()
            .map(|(p, req, arrival)| {
                match p {
                    Ok(p) => reports
                        .next()
                        .expect("one report per prepared solve")
                        .and_then(|report| {
                            isolate(|| self.finish_solve(p, &report, req, *arrival))
                        }),
                    Err(msg) => Err(msg.clone()),
                }
                .unwrap_or_else(|msg| self.internal_error(&msg))
            })
            .collect()
    }

    /// Runs prepared solves as one portfolio wave. A panic anywhere in the
    /// wave re-runs each solve alone, so only the panicking ones fail:
    /// solves are deterministic, so the others' answers do not change.
    fn run_wave(ready: &[&PreparedSolve]) -> Vec<Result<PortfolioReport, String>> {
        let pairs: Vec<(&Portfolio, &Instance)> = ready
            .iter()
            .map(|p| (&p.portfolio, &p.session.inst))
            .collect();
        match isolate(|| Portfolio::run_batch(&pairs)) {
            Ok(reports) => reports.into_iter().map(Ok).collect(),
            Err(msg) if pairs.len() == 1 => vec![Err(msg)],
            Err(_) => pairs
                .iter()
                .map(|(portfolio, inst)| isolate(|| portfolio.run(inst)))
                .collect(),
        }
    }

    /// Everything a solve needs before the portfolio runs: its session
    /// and its portfolio (see [`ServiceCore::portfolio`]).
    fn prepare_solve(
        &self,
        workload: spg::Spg,
        solvers: Vec<Arc<dyn Solver>>,
        req: &SolveReq,
        arrival: Instant,
    ) -> PreparedSolve {
        // Every solve declares reuse up to its own period: `DPA1D` then
        // materialises its skeleton at that period (for the next request
        // with these fingerprints at it or below) instead of streaming.
        let period = Self::request_period(&workload, req);
        let inst = Instance::new(workload, req.platform.clone(), period);
        PreparedSolve {
            session: self.session(inst, Some(period)),
            portfolio: self.portfolio(solvers, req.seed, req.deadline_ms, req.anytime, arrival),
        }
    }

    /// The tail of a solve: [`ServiceCore::settle`], then the response
    /// frame.
    fn finish_solve(
        &self,
        p: &PreparedSolve,
        report: &PortfolioReport,
        req: &SolveReq,
        arrival: Instant,
    ) -> Json {
        let (warm, elapsed_ns) = self.settle(&p.session, arrival);
        let Session { inst, hits, .. } = &p.session;

        let cache_tags = obj([
            ("lattice", Json::from(if hits[0] { "hit" } else { "miss" })),
            ("skeleton", Json::from(if hits[1] { "hit" } else { "miss" })),
            (
                "route",
                Json::from(if hits[2] {
                    "hit"
                } else if hits[3] {
                    "patched"
                } else {
                    "miss"
                }),
            ),
        ]);
        match report.best_run() {
            Some(run) => {
                let sol = run.result.as_ref().expect("best_run is a success");
                let mut fields = vec![
                    ("workload", Json::from(req.workload.describe())),
                    ("energy", Json::from(sol.energy())),
                    ("solver", Json::from(run.name.clone())),
                    ("active_cores", Json::from(sol.eval.active_cores)),
                    ("max_cycle_time", Json::from(sol.eval.max_cycle_time)),
                    ("period", Json::from(inst.period())),
                    ("warm", Json::from(warm)),
                    ("cache", cache_tags),
                    ("wall_ms", Json::from(elapsed_ns as f64 / 1e6)),
                ];
                if let Some(p) = sol.prune {
                    self.record_prune(&p);
                    fields.push(("bound_gap", Json::from(p.bound_gap)));
                    fields.push((
                        "prune",
                        obj([
                            ("transitions_kept", Json::from(p.transitions_kept)),
                            ("transitions_pruned", Json::from(p.transitions_pruned)),
                            ("frontier_max", Json::from(u64::from(p.frontier_max))),
                        ]),
                    ));
                }
                ok_response(object(fields))
            }
            None => {
                // Every solver failed. Budget exhaustion dominates the
                // report (it is actionable backpressure — retry with a
                // longer deadline); otherwise the first failure speaks.
                let errs: Vec<&crate::common::Failure> = report
                    .runs
                    .iter()
                    .filter_map(|r| r.result.as_ref().err())
                    .collect();
                let failure = errs
                    .iter()
                    .find(|f| f.budget_exceeded().is_some())
                    .or_else(|| errs.first());
                match failure {
                    Some(f) => failure_response(f),
                    None => error_response("bad_request", "empty solver portfolio"),
                }
            }
        }
    }

    /// A `sweep`: the prepare a solve makes (one session, one portfolio),
    /// a [`PeriodSweep`] of that portfolio over the grid, the tail a solve
    /// makes, then one point per grid value. The deadline covers the whole
    /// sweep: a point it cut off answers `null`, and the first budget
    /// failure in grid order is reported once as `deadline_exceeded`.
    fn sweep(&self, req: SweepReq) -> Json {
        let arrival = Instant::now();
        let workload = match req.workload.instantiate() {
            Ok(g) => g,
            Err(msg) => return error_response("bad_request", &msg),
        };
        let solvers = match self.solvers_for(req.solvers.as_deref()) {
            Ok(s) => s,
            Err(msg) => return error_response("bad_request", &msg),
        };
        let portfolio = self.portfolio(solvers, req.seed, req.deadline_ms, req.anytime, arrival);
        let sweep = match req.axis {
            SweepAxis::Period => PeriodSweep::over_periods(portfolio, req.values),
            SweepAxis::Utilisation => PeriodSweep::over_utilisations(portfolio, req.values),
        };
        // The session declares the grid's loosest period: one skeleton
        // build at it then serves every point, and a cached skeleton at
        // least as loose is a hit.
        let inst = Instance::new(workload, req.platform, 1.0);
        let ceiling = sweep.ceiling(&inst);
        let session = self.session(inst, ceiling);
        let report = sweep.run(&session.inst);
        let (warm, elapsed_ns) = self.settle(&session, arrival);
        let points: Vec<Json> = report
            .points
            .iter()
            .map(|point| {
                let best = point
                    .best_run()
                    .map(|run| (run, run.result.as_ref().expect("best_run is a success")));
                let mut fields = vec![
                    ("value", Json::from(point.value)),
                    ("period", Json::from(point.period)),
                    (
                        "energy",
                        best.map_or(Json::Null, |(_, s)| Json::from(s.energy())),
                    ),
                    (
                        "solver",
                        best.map_or(Json::Null, |(r, _)| Json::from(r.name.clone())),
                    ),
                ];
                if let Some(p) = best.and_then(|(_, s)| s.prune) {
                    self.record_prune(&p);
                    fields.push(("bound_gap", Json::from(p.bound_gap)));
                    fields.push(("transitions_kept", Json::from(p.transitions_kept)));
                    fields.push(("transitions_pruned", Json::from(p.transitions_pruned)));
                    fields.push(("frontier_max", Json::from(u64::from(p.frontier_max))));
                }
                object(fields)
            })
            .collect();
        let mut fields = vec![
            (
                "axis",
                Json::from(match report.axis {
                    SweepAxis::Period => "period",
                    SweepAxis::Utilisation => "utilisation",
                }),
            ),
            ("workload", Json::from(req.workload.describe())),
            ("points", Json::from(points)),
            ("warm", Json::from(warm)),
            ("wall_ms", Json::from(elapsed_ns as f64 / 1e6)),
        ];
        if let Some(budget) = report
            .points
            .iter()
            .flat_map(|p| &p.runs)
            .find_map(|r| r.result.as_ref().err()?.budget_exceeded())
        {
            fields.push((
                "deadline_exceeded",
                obj([
                    ("phase", Json::from(budget.phase.name())),
                    ("cap", Json::from(budget.cap)),
                    ("count", Json::from(budget.count)),
                ]),
            ));
        }
        ok_response(object(fields))
    }
}

/// A JSON object from a field list built up at run time ([`obj`] takes a
/// fixed-size array).
fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A connected byte stream the daemon can serve: both socket families,
/// unified over read timeouts.
pub trait Conn: Read + Write + Send {
    /// Sets the read timeout (used to poll the shutdown flag while idle).
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Sets the write timeout (bounds how long a peer that stops reading
    /// can block a connection thread).
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UnixStream::set_write_timeout(self, dur)
    }
}

/// Writes one response frame. A response that overflows the frame cap
/// (e.g. a sweep over an enormous grid) is replaced by a structured
/// `too_large` error frame — `write_frame` rejects oversized bodies
/// *before* touching the stream, so framing stays intact and the
/// connection stays usable. Returns `false` when the connection is dead.
fn send_response<W: Write>(stream: &mut W, response: &Json) -> bool {
    match write_frame(stream, response) {
        Ok(()) => true,
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            write_frame(stream, &error_response("too_large", &e.to_string())).is_ok()
        }
        Err(_) => false,
    }
}

/// Serves one connection until the peer closes, a protocol error occurs,
/// or shutdown is requested (public so integration tests can drive a
/// service over an in-process socket pair).
///
/// The read timeout only separates *frames*: between frames it is the
/// shutdown-poll tick, but once a frame has started, timeouts keep the
/// partially-read frame intact (via [`FrameReader`]) and reading resumes —
/// bounded by a 30 s stall limit so a dead peer cannot pin the thread.
pub fn serve_connection<S: Conn>(service: &Service, stream: &mut S) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = FrameReader::new();
    // First stall of the frame currently in progress, if any.
    let mut stalled_since: Option<Instant> = None;
    loop {
        match reader.poll(stream) {
            Ok(Some(frame)) => {
                stalled_since = None;
                let response = service.handle(&frame);
                if !send_response(stream, &response) {
                    return;
                }
            }
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if reader.mid_frame() {
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    let limit = if service.shutdown_requested() {
                        SHUTDOWN_STALL_LIMIT
                    } else {
                        FRAME_STALL_LIMIT
                    };
                    if since.elapsed() >= limit {
                        let _ = write_frame(
                            stream,
                            &error_response("bad_request", "frame stalled past the read deadline"),
                        );
                        return;
                    }
                } else {
                    stalled_since = None;
                    if service.shutdown_requested() {
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Framing is lost; report and hang up.
                let _ = write_frame(stream, &error_response("bad_request", &e.to_string()));
                return;
            }
            Err(_) => return,
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// The daemon: a listener plus a shared [`Service`].
pub struct Server {
    listener: ListenerKind,
    service: Arc<Service>,
}

impl Server {
    /// Binds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral test
    /// port).
    pub fn bind_tcp(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener: ListenerKind::Tcp(listener),
            service: Arc::new(Service::new(cfg)),
        })
    }

    /// Binds a Unix socket, replacing a *stale* socket file at `path`. A
    /// pre-existing socket is probed first: if a peer accepts the
    /// connection, a live daemon owns the endpoint and binding refuses
    /// with [`io::ErrorKind::AddrInUse`] rather than silently stealing
    /// it; only a socket nobody answers on (a crashed daemon's leftover)
    /// is unlinked. A non-socket file at `path` is never touched. The
    /// socket file is removed again when [`Server::run`] returns.
    #[cfg(unix)]
    pub fn bind_unix(path: &Path, cfg: ServeConfig) -> io::Result<Server> {
        match std::fs::metadata(path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt;
                if !meta.file_type().is_socket() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!("{} exists and is not a socket", path.display()),
                    ));
                }
                if UnixStream::connect(path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} is in use by a live daemon", path.display()),
                    ));
                }
                std::fs::remove_file(path)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        Ok(Server {
            listener: ListenerKind::Unix(listener, path.to_path_buf()),
            service: Arc::new(Service::new(cfg)),
        })
    }

    /// The bound TCP address (`None` for Unix listeners).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            ListenerKind::Unix(..) => None,
        }
    }

    /// A handle to the shared service (tests use it to inspect cache
    /// stats and request shutdown in-process).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Runs the accept loop until shutdown, then joins every connection
    /// thread (draining in-flight requests) before returning.
    pub fn run(self) -> io::Result<()> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            ListenerKind::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let service = &self.service;
        let result = std::thread::scope(|scope| -> io::Result<()> {
            loop {
                if service.shutdown_requested() {
                    return Ok(());
                }
                let accepted = match &self.listener {
                    ListenerKind::Tcp(l) => match l.accept() {
                        Ok((s, _)) => {
                            let _ = s.set_nonblocking(false);
                            // Frames are written whole; Nagle only adds
                            // latency between a response and the client's
                            // next request.
                            let _ = s.set_nodelay(true);
                            let open = service.queue.open_connection();
                            scope.spawn(move || {
                                let (_open, mut s) = (open, s);
                                serve_connection(service, &mut s);
                            });
                            Ok(())
                        }
                        Err(e) => Err(e),
                    },
                    #[cfg(unix)]
                    ListenerKind::Unix(l, _) => match l.accept() {
                        Ok((s, _)) => {
                            let _ = s.set_nonblocking(false);
                            let open = service.queue.open_connection();
                            scope.spawn(move || {
                                let (_open, mut s) = (open, s);
                                serve_connection(service, &mut s);
                            });
                            Ok(())
                        }
                        Err(e) => Err(e),
                    },
                };
                if let Err(e) = accepted {
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted
                    {
                        std::thread::sleep(POLL_INTERVAL / 10);
                    } else {
                        return Err(e);
                    }
                }
            }
        });
        #[cfg(unix)]
        if let ListenerKind::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A low-elevation workload so `DPA1D` materialises its lattice and
    /// skeleton within the default caps (high-elevation StreamIt flows
    /// overflow the ideal cap and legitimately cache nothing).
    fn solve_frame(seed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"op":"solve","workload":{{"family":"deep-chain","n":12,"seed":1}},
                 "platform":{{"p":2,"q":2}},"utilisation":0.5,
                 "solvers":"greedy,dpa1d","seed":{seed}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn warm_solve_is_bit_identical_and_counted() {
        let svc = Service::new(ServeConfig::default());
        let cold = svc.handle(&solve_frame(7));
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        let cold_r = cold.get("result").unwrap();
        assert_eq!(cold_r.get("warm").and_then(Json::as_bool), Some(false));

        let warm = svc.handle(&solve_frame(7));
        let warm_r = warm.get("result").unwrap();
        assert_eq!(
            warm_r.get("warm").and_then(Json::as_bool),
            Some(true),
            "warm response: {warm}"
        );
        assert_eq!(
            warm_r.get("energy").and_then(Json::as_f64),
            cold_r.get("energy").and_then(Json::as_f64),
            "warm energy must be bit-identical to cold"
        );
        let stats = svc.cache_stats();
        assert_eq!(stats.entries, 3, "lattice + skeleton + route cached");
        // Cold misses its three keys, one lookup each; warm hits them.
        assert_eq!((stats.hits, stats.misses), (3, 3));
    }

    /// The scheduler counts a batch before it answers the batch's
    /// waiters: a `stats` read after each of N sequential solves reads N
    /// batches, never N − 1.
    #[test]
    fn batches_are_counted_before_their_responses() {
        let svc = Service::new(ServeConfig::default());
        for n in 1..=8 {
            let _ = result_of(&svc.handle(&solve_frame(n)));
            let stats = svc.handle(&Json::parse(r#"{"op":"stats"}"#).unwrap());
            let batches = result_of(&stats)
                .get("scheduler")
                .and_then(|s| s.get("batches"))
                .and_then(Json::as_f64);
            assert_eq!(batches, Some(n as f64), "after solve {n}: {stats}");
        }
    }

    /// The same workload/platform/solvers as [`solve_frame`], with faults.
    fn faulted_frame(faults: &str) -> Json {
        Json::parse(&format!(
            r#"{{"op":"solve","workload":{{"family":"deep-chain","n":12,"seed":1}},
                 "platform":{{"p":2,"q":2,"faults":{faults}}},"utilisation":0.5,
                 "solvers":"greedy,dpa1d","seed":7}}"#
        ))
        .unwrap()
    }

    fn result_of(resp: &Json) -> &Json {
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        resp.get("result").unwrap()
    }

    #[test]
    fn warm_daemon_stays_warm_across_faults() {
        let svc = Service::new(ServeConfig::default());
        let _ = result_of(&svc.handle(&solve_frame(7)));

        // Core fault: every artifact is fault-invariant, so the solve is
        // fully warm — and bit-identical to a cold solve of the same
        // faulted request on a fresh daemon.
        let core = result_of(&svc.handle(&faulted_frame(r#"{"cores":[[1,1]]}"#))).clone();
        assert_eq!(core.get("warm").and_then(Json::as_bool), Some(true));
        let tags = core.get("cache").unwrap();
        assert_eq!(tags.get("skeleton").and_then(Json::as_str), Some("hit"));
        assert_eq!(tags.get("route").and_then(Json::as_str), Some("hit"));
        let fresh = Service::new(ServeConfig::default());
        let cold = result_of(&fresh.handle(&faulted_frame(r#"{"cores":[[1,1]]}"#))).clone();
        assert_eq!(cold.get("warm").and_then(Json::as_bool), Some(false));
        assert_eq!(
            core.get("energy").and_then(Json::as_f64),
            cold.get("energy").and_then(Json::as_f64),
            "warm faulted solve must be bit-identical to cold faulted solve"
        );

        // Link fault: the route table is *patched* from the cached healthy
        // sibling rather than rebuilt; the solve still counts as warm.
        let link = result_of(&svc.handle(&faulted_frame(r#"{"links":[[0,0,0,1]]}"#))).clone();
        assert_eq!(link.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(
            link.get("cache")
                .unwrap()
                .get("route")
                .and_then(Json::as_str),
            Some("patched")
        );
        // The patched table was harvested under its own key: an identical
        // follow-up hits it directly, at the same energy.
        let again = result_of(&svc.handle(&faulted_frame(r#"{"links":[[0,0,0,1]]}"#))).clone();
        assert_eq!(
            again
                .get("cache")
                .unwrap()
                .get("route")
                .and_then(Json::as_str),
            Some("hit")
        );
        assert_eq!(
            again.get("energy").and_then(Json::as_f64),
            link.get("energy").and_then(Json::as_f64)
        );
        let fresh = Service::new(ServeConfig::default());
        let cold = result_of(&fresh.handle(&faulted_frame(r#"{"links":[[0,0,0,1]]}"#))).clone();
        assert_eq!(
            link.get("energy").and_then(Json::as_f64),
            cold.get("energy").and_then(Json::as_f64),
            "patched-route solve must be bit-identical to cold faulted solve"
        );
    }

    /// A StreamIt FFT solve on a 2×2 grid; `faults` is spliced into the
    /// platform object.
    fn fft_frame(faults: &str) -> Json {
        Json::parse(&format!(
            r#"{{"op":"solve","workload":{{"streamit":"FFT"}},
                 "platform":{{"p":2,"q":2{faults}}},"utilisation":0.5,
                 "solvers":"greedy,dpa1d"}}"#
        ))
        .unwrap()
    }

    fn solve_req(frame: &Json) -> (spg::Spg, SolveReq) {
        let Ok(Request::Solve(req)) = parse_request(frame) else {
            panic!("fixture must parse as a solve");
        };
        (req.workload.instantiate().unwrap(), req)
    }

    /// Admission prices a request by the residency rule the solve applies:
    /// a link-faulted re-request, served warm off a patched route table,
    /// is estimated from the warm histogram — without touching the cache
    /// counters.
    #[test]
    fn a_link_faulted_rerequest_is_priced_warm() {
        let svc = Service::new(ServeConfig::default());
        let _ = result_of(&svc.handle(&fft_frame("")));
        let again = result_of(&svc.handle(&fft_frame(""))).clone();
        assert_eq!(again.get("warm").and_then(Json::as_bool), Some(true));
        // Medians six orders of magnitude apart name the histogram read.
        for _ in 0..4 {
            svc.record_latency(true, 1_000);
            svc.record_latency(false, 1_000_000_000);
        }
        let (warm_ns, cold_ns) = (
            lock(&svc.warm).percentile(0.5),
            lock(&svc.cold).percentile(0.5),
        );
        assert!(warm_ns < cold_ns);
        let faulted = fft_frame(r#","faults":{"links":[[0,0,0,1]]}"#);
        let (workload, req) = solve_req(&faulted);
        let before = svc.cache_stats();
        assert_eq!(svc.estimate_solve_ns(&workload, &req), warm_ns);
        assert_eq!(svc.cache_stats(), before, "admission must not count");
        let link = result_of(&svc.handle(&faulted)).clone();
        assert_eq!(link.get("warm").and_then(Json::as_bool), Some(true));
        let tags = link.get("cache").unwrap();
        assert_eq!(tags.get("route").and_then(Json::as_str), Some("patched"));
    }

    /// The one skeleton per workload and platform: a workload whose
    /// complete transition set is over the default edge cap is built at
    /// the request period, harvested under the workload's key, and found
    /// by the next identical request. A looser request misses it, builds
    /// at its own period and replaces it; a tighter one is then a hit.
    #[test]
    fn a_bounded_skeleton_serves_the_second_solve_warm() {
        let frame = |u: f64| {
            Json::parse(&format!(
                r#"{{"op":"solve","workload":{{"family":"deep-chain","n":1420,"seed":1}},
                    "platform":{{"p":4,"q":4}},"utilisation":{u},"solvers":"greedy,dpa1d"}}"#
            ))
            .unwrap()
        };
        let (workload, req) = solve_req(&frame(0.8));
        let pairs = spg::ideal::count_ideal_pairs(&workload).unwrap();
        assert!(pairs > crate::Dpa1dConfig::default().edge_cap as u128);
        let svc = Service::new(ServeConfig::default());
        let skeleton_tag = |r: &Json| {
            r.get("cache")
                .and_then(|c| c.get("skeleton"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let keys = ServiceCore::request_keys(&workload, &req.platform);
        let cached_ceiling = || match lock(&svc.cache).peek(&keys[1]) {
            Some(Artifact::Skeleton(s)) => Some(s.period_ceiling()),
            _ => None,
        };
        let period = |u: f64| utilisation_period(&workload, &req.platform, u);
        let counts = || {
            let s = svc.cache_stats();
            (s.hits, s.misses, s.entries)
        };

        let cold = result_of(&svc.handle(&frame(0.8))).clone();
        assert_eq!(skeleton_tag(&cold).as_deref(), Some("miss"));
        assert_eq!(cached_ceiling(), Some(period(0.8)), "harvested at 0.8");
        assert_eq!(counts(), (0, 3, 3));

        let warm = result_of(&svc.handle(&frame(0.8))).clone();
        assert_eq!(skeleton_tag(&warm).as_deref(), Some("hit"));
        assert_eq!(warm.get("warm").and_then(Json::as_bool), Some(true));
        let energy_bits = |r: &Json| r.get("energy").and_then(Json::as_f64).map(f64::to_bits);
        assert_eq!(energy_bits(&warm), energy_bits(&cold));
        assert_eq!(counts(), (3, 3, 3));

        let looser = result_of(&svc.handle(&frame(0.7))).clone();
        assert_eq!(skeleton_tag(&looser).as_deref(), Some("miss"));
        assert_eq!(looser.get("warm").and_then(Json::as_bool), Some(false));
        assert_eq!(cached_ceiling(), Some(period(0.7)), "replaced by 0.7");
        assert_eq!(counts(), (5, 4, 3));

        let tighter = result_of(&svc.handle(&frame(0.9))).clone();
        assert_eq!(skeleton_tag(&tighter).as_deref(), Some("hit"));
        assert_eq!(tighter.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(
            cached_ceiling(),
            Some(period(0.7)),
            "a hit replaces nothing"
        );
        assert_eq!(counts(), (8, 4, 3));
    }

    #[test]
    fn fault_requests_are_validated_not_panicked() {
        let svc = Service::new(ServeConfig::default());
        for faults in [
            r#"{"cores":[[9,9]]}"#,
            r#"{"cores":[[0]]}"#,
            r#"{"links":[[0,0,1,1]]}"#,
            r#"{"links":[[0,0,0,1,0]]}"#,
            r#"{"cores":[[0,0],[0,1],[1,0],[1,1]]}"#,
        ] {
            let resp = svc.handle(&faulted_frame(faults));
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{faults} must be rejected"
            );
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("bad_request"),
                "{faults}"
            );
        }
    }

    #[test]
    fn anytime_converts_backpressure_into_a_certified_mapping() {
        let svc = Service::new(ServeConfig::default());
        let frame = Json::parse(
            r#"{"op":"solve","workload":{"family":"deep-chain","n":12,"seed":1},
                "platform":{"p":2,"q":2},"utilisation":0.5,
                "deadline_ms":0,"anytime":true}"#,
        )
        .unwrap();
        let resp = svc.handle(&frame);
        let r = result_of(&resp);
        assert_eq!(
            r.get("solver").and_then(Json::as_str),
            Some("Anytime(Greedy)")
        );
        let gap = r.get("bound_gap").and_then(Json::as_f64).unwrap();
        assert!(gap.is_finite() && gap >= 0.0);
        let energy = r.get("energy").and_then(Json::as_f64).unwrap();
        assert!(energy > gap, "the certified lower bound must be positive");
    }

    #[test]
    fn deadline_zero_is_structured_backpressure() {
        let svc = Service::new(ServeConfig::default());
        let frame = Json::parse(
            r#"{"op":"solve","workload":{"streamit":"DCT"},"utilisation":0.5,"deadline_ms":0}"#,
        )
        .unwrap();
        let resp = svc.handle(&frame);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("too_expensive")
        );
        assert_eq!(err.get("phase").and_then(Json::as_str), Some("deadline"));
    }

    #[test]
    fn sweep_shares_the_session_and_reports_points() {
        let svc = Service::new(ServeConfig::default());
        let frame = Json::parse(
            r#"{"op":"sweep","workload":{"family":"deep-chain","n":12,"seed":1},
                "platform":{"p":2,"q":2},
                "axis":"utilisation","values":[0.3,0.5],"solvers":"greedy,dpa1d"}"#,
        )
        .unwrap();
        let resp = svc.handle(&frame);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        let points = resp
            .get("result")
            .and_then(|r| r.get("points"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(points.len(), 2);
        for p in points {
            assert!(p.get("energy").and_then(Json::as_f64).is_some());
        }
        // The sweep harvested its artifacts: a follow-up solve is warm.
        let warm = svc.handle(&solve_frame(1));
        assert_eq!(
            warm.get("result")
                .and_then(|r| r.get("warm"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    /// A sweep frame over the deep-chain fixture; `extra` is spliced into
    /// the request object.
    fn sweep_frame(axis: &str, values: &[f64], solvers: &str, extra: &str) -> Json {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        Json::parse(&format!(
            r#"{{"op":"sweep","workload":{{"family":"deep-chain","n":12,"seed":1}},
                 "platform":{{"p":2,"q":2}},"axis":"{axis}","values":[{}],
                 "solvers":"{solvers}"{extra}}}"#,
            values.join(",")
        ))
        .unwrap()
    }

    fn points_of(resp: &Json) -> &[Json] {
        result_of(resp)
            .get("points")
            .and_then(Json::as_arr)
            .expect("a sweep result carries points")
    }

    fn f64_bits(v: &Json, key: &str) -> Option<u64> {
        v.get(key).and_then(Json::as_f64).map(f64::to_bits)
    }

    /// The daemon's sweep answers what the library sweep answers: on both
    /// axes and at pool widths 1 and 2, every point's period, energy and
    /// winning solver equal a `PeriodSweep` run with the same solvers and
    /// seed, to the bit.
    #[test]
    fn daemon_sweep_points_equal_the_library_sweep() {
        use crate::sweep::PeriodSweep;
        let csv = "greedy,dpa2d,dpa1d";
        let seed = 5;
        let base = || {
            let req = parse_request(&sweep_frame("period", &[1.0], csv, "")).unwrap();
            let Request::Sweep(req) = req else {
                panic!("fixture must parse as a sweep");
            };
            Instance::new(req.workload.instantiate().unwrap(), req.platform, 1.0)
        };
        let us = [0.3, 0.5, 0.7];
        let periods: Vec<f64> = us.iter().map(|&u| base().utilisation_period(u)).collect();
        for (axis, values) in [("utilisation", us.to_vec()), ("period", periods)] {
            for width in [1, 2] {
                let svc = Service::new(ServeConfig::default());
                let portfolio = Portfolio::new(svc.solvers_for(Some(csv)).unwrap()).seeded(seed);
                let sweep = match axis {
                    "period" => PeriodSweep::over_periods(portfolio, values.clone()),
                    _ => PeriodSweep::over_utilisations(portfolio, values.clone()),
                };
                let frame = sweep_frame(axis, &values, csv, &format!(r#","seed":{seed}"#));
                let (resp, report) = rayon::ThreadPool::new(width)
                    .install(|| (svc.handle(&frame), sweep.run(&base())));
                let points = points_of(&resp);
                assert_eq!(points.len(), report.points.len());
                for (got, want) in points.iter().zip(&report.points) {
                    let winner = want.best_run().map(|r| r.name.as_str());
                    let ctx = format!("{axis} w{width}: {got}");
                    assert_eq!(f64_bits(got, "value"), Some(want.value.to_bits()), "{ctx}");
                    assert_eq!(
                        f64_bits(got, "period"),
                        Some(want.period.to_bits()),
                        "{ctx}"
                    );
                    assert_eq!(
                        f64_bits(got, "energy"),
                        want.best_energy().map(f64::to_bits),
                        "{ctx}"
                    );
                    assert_eq!(got.get("solver").and_then(Json::as_str), winner, "{ctx}");
                }
            }
        }
    }

    /// `"axis":"period"` takes period bounds as they are, values above 1
    /// included, and echoes each one as the point's value and period.
    #[test]
    fn a_period_axis_sweep_echoes_its_periods_exactly() {
        let svc = Service::new(ServeConfig::default());
        let values: [f64; 3] = [1.5, 2.0, 4.25];
        let resp = svc.handle(&sweep_frame("period", &values, "greedy", ""));
        assert_eq!(
            result_of(&resp).get("axis").and_then(Json::as_str),
            Some("period")
        );
        let points = points_of(&resp);
        assert_eq!(points.len(), values.len());
        for (p, v) in points.iter().zip(values) {
            assert_eq!(f64_bits(p, "value"), Some(v.to_bits()), "{p}");
            assert_eq!(f64_bits(p, "period"), Some(v.to_bits()), "{p}");
        }
    }

    /// A deadline that runs out during a sweep still answers every grid
    /// value, with `null` where the deadline cut a point off, and one
    /// structured `deadline_exceeded` for the whole sweep.
    #[test]
    fn a_deadline_mid_sweep_still_answers_every_value() {
        let svc = Service::new(ServeConfig::default());
        let values: [f64; 6] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let frame = Json::parse(&format!(
            r#"{{"op":"sweep","workload":{{"streamit":"BitonicSort"}},"values":{values:?},
                 "deadline_ms":1}}"#
        ))
        .unwrap();
        let resp = svc.handle(&frame);
        let points = points_of(&resp);
        assert_eq!(points.len(), values.len());
        for (p, v) in points.iter().zip(values) {
            assert_eq!(f64_bits(p, "value"), Some(v.to_bits()), "{p}");
            let energy = p.get("energy").expect("every point carries energy");
            assert!(energy.as_f64().is_some() || *energy == Json::Null, "{p}");
        }
        let exceeded = result_of(&resp)
            .get("deadline_exceeded")
            .unwrap_or_else(|| panic!("a 1 ms sweep reports its deadline: {resp}"));
        assert_eq!(
            exceeded.get("phase").and_then(Json::as_str),
            Some("deadline")
        );
    }

    /// Under a starving deadline an anytime sweep answers every point with
    /// the rescue mapping and its certified `bound_gap`.
    #[test]
    fn an_anytime_sweep_under_a_starving_deadline_rescues_every_point() {
        let svc = Service::new(ServeConfig::default());
        let frame = sweep_frame(
            "utilisation",
            &[0.3, 0.5],
            "greedy,dpa1d",
            r#","deadline_ms":0,"anytime":true"#,
        );
        let resp = svc.handle(&frame);
        let points = points_of(&resp);
        assert_eq!(points.len(), 2);
        for p in points {
            assert_eq!(
                p.get("solver").and_then(Json::as_str),
                Some("Anytime(Greedy)"),
                "{p}"
            );
            let gap = p.get("bound_gap").and_then(Json::as_f64).expect("gap");
            assert!(gap.is_finite() && gap >= 0.0, "{p}");
            assert!(p.get("energy").and_then(Json::as_f64).unwrap() > gap);
        }
    }

    #[test]
    fn bad_requests_are_reported_not_panicked() {
        let svc = Service::new(ServeConfig::default());
        for text in [
            r#"{"op":"solve"}"#,
            r#"{"op":"solve","workload":{"streamit":"NotAFlow"},"period":1}"#,
            r#"{"op":"solve","workload":{"streamit":"FFT"},"period":1,"solvers":"bogus"}"#,
            r#"{}"#,
        ] {
            let resp = svc.handle(&Json::parse(text).unwrap());
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{text}"
            );
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("bad_request"),
                "{text}"
            );
        }
        assert!(svc.stats_json().get("bad_requests").unwrap().as_f64() >= Some(4.0));
    }

    #[test]
    fn oversized_responses_become_structured_too_large_errors() {
        use super::super::protocol::{read_frame, MAX_FRAME_BYTES};
        let huge = ok_response(Json::from("x".repeat(MAX_FRAME_BYTES + 1)));
        let mut wire = Vec::new();
        assert!(
            send_response(&mut wire, &huge),
            "the connection must survive an oversized response"
        );
        let frame = read_frame(&mut std::io::Cursor::new(wire))
            .unwrap()
            .unwrap();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            frame
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("too_large")
        );
    }

    /// A job for `frame`, fingerprinted the way
    /// [`ServiceCore::dispatch_solve`] does it (unpriced, no deadline).
    fn solve_job(svc: &ServiceCore, frame: &Json) -> (SolveJob, mpsc::Receiver<Json>) {
        let Ok(Request::Solve(req)) = parse_request(frame) else {
            panic!("fixture must parse as a solve");
        };
        let workload = req.workload.instantiate().unwrap();
        let solvers = svc.solvers_for(req.solvers.as_deref()).unwrap();
        let dedup = svc.request_fingerprint(&workload, &req, &solvers);
        let (tx, rx) = mpsc::channel();
        let job = SolveJob {
            req,
            workload,
            solvers,
            dedup,
            est_ns: 0,
            deadline_ns: None,
            arrival: Instant::now(),
            tx,
        };
        (job, rx)
    }

    #[test]
    fn batched_identical_requests_are_coalesced_single_flight() {
        // Drive admit, next_batch and run_batch_jobs by hand (batching
        // off, so no scheduler thread competes) for a deterministic
        // single-flight assertion.
        let svc = Service::new(ServeConfig {
            batching: false,
            ..ServeConfig::default()
        });
        let (j1, rx1) = solve_job(&svc, &solve_frame(7));
        let (j2, rx2) = solve_job(&svc, &solve_frame(7));
        let (j3, rx3) = solve_job(&svc, &solve_frame(99));
        assert!(matches!(svc.queue.admit(j1), Admission::Queued));
        assert!(matches!(svc.queue.admit(j2), Admission::Joined));
        assert!(matches!(svc.queue.admit(j3), Admission::Queued));
        let batch = svc.queue.next_batch(SCHED_BATCH_CAP).unwrap();
        assert_eq!(batch.len(), 2, "the joiner is never queued");
        svc.run_batch_jobs(batch);
        let a = rx1.recv().unwrap();
        let b = rx2.recv().unwrap();
        let c = rx3.recv().unwrap();
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "coalesced waiters get byte-identical frames"
        );
        assert_eq!(c.get("ok").and_then(Json::as_bool), Some(true), "{c}");
        let s = svc.scheduler_stats();
        assert_eq!(
            (s.batches, s.batched_requests, s.deduped),
            (1, 3, 1),
            "two identical + one distinct job: one batch, one coalesce"
        );
        // Single-flight means the deduped job never touched the cache:
        // two cold probe sequences of three keys (both jobs prepare
        // before either harvests), not three.
        assert_eq!(
            svc.cache_stats().misses,
            3 + 3,
            "two prepared jobs, no third probe"
        );
    }

    /// A solver that holds its solve between two waits on a shared
    /// barrier (the test's "the solve is running" and "let it finish"),
    /// then solves as `Greedy`.
    struct Gate(Arc<std::sync::Barrier>);

    impl crate::solver::Solver for Gate {
        fn name(&self) -> &str {
            "Gate"
        }

        fn solve(
            &self,
            inst: &Instance,
            ctx: &crate::solver::SolveCtx,
        ) -> Result<crate::common::Solution, crate::common::Failure> {
            self.0.wait();
            self.0.wait();
            crate::solvers::Greedy::default().solve(inst, ctx)
        }
    }

    /// A duplicate admitted while its leader is solving joins the open
    /// flight: it is answered with the leader's frame, and neither
    /// queues, solves nor probes the cache.
    #[test]
    fn a_duplicate_admitted_mid_solve_joins_and_gets_the_leaders_frame() {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut registry = SolverRegistry::with_defaults();
        registry.register(Arc::new(Gate(Arc::clone(&barrier))));
        let svc = Service::with_registry(ServeConfig::default(), registry);
        let mut frame = solve_frame(5);
        if let Json::Obj(fields) = &mut frame {
            fields.insert("solvers".into(), Json::from("gate"));
        }
        std::thread::scope(|s| {
            let leader = s.spawn(|| svc.handle(&frame));
            barrier.wait();
            let (dup, rx) = solve_job(&svc, &frame);
            assert!(matches!(svc.queue.admit(dup), Admission::Joined));
            barrier.wait();
            let leader = leader.join().unwrap();
            assert!(result_of(&leader).get("energy").is_some(), "{leader}");
            assert_eq!(rx.recv().unwrap().to_string(), leader.to_string());
        });
        let s = svc.scheduler_stats();
        assert_eq!((s.batches, s.batched_requests, s.deduped), (1, 2, 1));
        assert_eq!(svc.cache_stats().misses, 3, "one cold probe sequence");
    }

    /// An identical request admitted after its predecessor's flight closed
    /// opens a new flight and is solved, warm, from the artifacts the
    /// first solve harvested.
    #[test]
    fn an_identical_request_after_the_flight_closed_is_solved_warm() {
        let svc = Service::new(ServeConfig {
            batching: false,
            ..ServeConfig::default()
        });
        let mut frames = Vec::new();
        for _ in 0..2 {
            let (job, rx) = solve_job(&svc, &solve_frame(7));
            assert!(matches!(svc.queue.admit(job), Admission::Queued));
            svc.run_batch_jobs(svc.queue.next_batch(SCHED_BATCH_CAP).unwrap());
            frames.push(rx.recv().unwrap());
        }
        let (cold, warm) = (result_of(&frames[0]), result_of(&frames[1]));
        assert_eq!(cold.get("warm").and_then(Json::as_bool), Some(false));
        assert_eq!(warm.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(warm.get("energy"), cold.get("energy"));
        let s = svc.scheduler_stats();
        assert_eq!((s.batches, s.batched_requests, s.deduped), (2, 2, 0));
        let c = svc.cache_stats();
        assert_eq!((c.hits, c.misses), (3, 3));
    }

    #[test]
    fn zero_capacity_queue_sheds_with_structured_overloaded() {
        let svc = Service::new(ServeConfig {
            queue_cap: 0,
            ..ServeConfig::default()
        });
        let resp = svc.handle(&solve_frame(7));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert!(
            err.get("retry_after_ms").and_then(Json::as_f64).unwrap() >= 1.0,
            "shed frames carry a retry hint: {resp}"
        );
        assert_eq!(err.get("queue_depth").and_then(Json::as_f64), Some(0.0));
        assert_eq!(svc.scheduler_stats().shed, 1);
        // A shed is backpressure, not a client error.
        assert_eq!(
            svc.stats_json().get("bad_requests").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn solves_after_shutdown_drain_run_inline() {
        let svc = Service::new(ServeConfig::default());
        let _ = svc.handle(&Json::parse(r#"{"op":"shutdown"}"#).unwrap());
        // Whether the job beats the drain (queued, worker solves it) or
        // loses the race (bounced back, solved inline), it must succeed.
        let resp = svc.handle(&solve_frame(7));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    #[test]
    fn cache_dir_restart_serves_first_request_warm() {
        let dir = std::env::temp_dir().join(format!("xp-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let spill_field = |svc: &Service, field: &str| {
            svc.stats_json()
                .get("spill")
                .and_then(|s| s.get(field))
                .and_then(Json::as_f64)
        };
        let cold_energy = {
            let svc = Service::new(cfg());
            assert_eq!(spill_field(&svc, "loaded"), Some(0.0));
            let cold = svc.handle(&solve_frame(7));
            let r = cold.get("result").unwrap();
            assert_eq!(r.get("warm").and_then(Json::as_bool), Some(false));
            assert_eq!(
                spill_field(&svc, "spilled"),
                Some(3.0),
                "lattice + skeleton + route spilled write-behind"
            );
            assert_eq!(spill_field(&svc, "errors"), Some(0.0));
            r.get("energy").and_then(Json::as_f64).unwrap()
        };
        // "Restart": a fresh service over the same directory.
        let svc = Service::new(cfg());
        assert_eq!(spill_field(&svc, "loaded"), Some(3.0));
        assert_eq!(spill_field(&svc, "skipped"), Some(0.0));
        let warm = svc.handle(&solve_frame(7));
        let r = warm.get("result").unwrap();
        assert_eq!(
            r.get("warm").and_then(Json::as_bool),
            Some(true),
            "a restarted daemon must serve its first request warm: {warm}"
        );
        assert_eq!(
            r.get("energy").and_then(Json::as_f64),
            Some(cold_energy),
            "reloaded artifacts must reproduce bit-identical energies"
        );
        let stats = svc.cache_stats();
        assert_eq!(
            stats.misses, 0,
            "zero lattice/skeleton/route misses after a warm restart"
        );
        assert_eq!(stats.hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_shutdown_flow() {
        let svc = Service::new(ServeConfig::default());
        let _ = svc.handle(&solve_frame(1));
        let stats = svc.handle(&Json::parse(r#"{"op":"stats"}"#).unwrap());
        let r = stats.get("result").unwrap();
        assert_eq!(
            r.get("cache")
                .and_then(|c| c.get("entries"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            r.get("cold")
                .and_then(|c| c.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(!svc.shutdown_requested());
        let bye = svc.handle(&Json::parse(r#"{"op":"shutdown"}"#).unwrap());
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert!(svc.shutdown_requested());
    }

    /// A solver that always panics, standing in for a solver bug.
    struct Boom;

    impl crate::solver::Solver for Boom {
        fn name(&self) -> &str {
            "Boom"
        }

        fn solve(
            &self,
            _: &Instance,
            _: &crate::solver::SolveCtx,
        ) -> Result<crate::common::Solution, crate::common::Failure> {
            panic!("deliberate solver panic")
        }
    }

    fn boom_registry() -> SolverRegistry {
        let mut registry = SolverRegistry::with_defaults();
        registry.register(Arc::new(Boom));
        registry
    }

    fn boom_frame() -> Json {
        let mut frame = solve_frame(5);
        if let Json::Obj(fields) = &mut frame {
            fields.insert("solvers".into(), Json::from("boom"));
        }
        frame
    }

    fn error_kind(resp: &Json) -> Option<&str> {
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    /// A panicking solve costs its own request, not the daemon: it is
    /// answered `internal` over the socket, counted in `stats`, and the
    /// scheduler thread goes on to solve the next request.
    #[test]
    fn a_panicking_solver_costs_one_request_not_the_daemon() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server {
            listener: ListenerKind::Tcp(listener),
            service: Arc::new(Service::with_registry(
                ServeConfig::default(),
                boom_registry(),
            )),
        };
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run().unwrap());
        let mut client = super::super::Client::connect_tcp(addr).unwrap();

        let resp = client.request(&boom_frame()).unwrap();
        assert_eq!(error_kind(&resp), Some("internal"), "{resp}");
        let resp = client.request(&solve_frame(5)).unwrap();
        assert!(
            resp.get("result").and_then(|r| r.get("energy")).is_some(),
            "the next request must still solve: {resp}"
        );
        let stats = client.stats().unwrap();
        let internal = stats
            .get("result")
            .and_then(|r| r.get("internal_errors"))
            .and_then(Json::as_f64);
        assert_eq!(internal, Some(1.0));

        client.shutdown().unwrap();
        daemon.join().unwrap();
    }

    /// After shutdown, a panicking solve runs inline on the connection
    /// thread (or, racing the drain, on the scheduler): either way it is
    /// answered `internal`, and the next solve still succeeds.
    #[test]
    fn a_panic_after_shutdown_is_answered_internal() {
        let svc = Service::with_registry(ServeConfig::default(), boom_registry());
        let _ = svc.handle(&Json::parse(r#"{"op":"shutdown"}"#).unwrap());
        let resp = svc.handle(&boom_frame());
        assert_eq!(error_kind(&resp), Some("internal"), "{resp}");
        let resp = svc.handle(&solve_frame(7));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    /// In a batch, only the panicking job fails: its batch-mate gets the
    /// same frame it gets when solved alone.
    #[test]
    fn a_panic_in_a_batch_fails_only_its_own_job() {
        let svc = Service::with_registry(
            ServeConfig {
                batching: false,
                ..ServeConfig::default()
            },
            boom_registry(),
        );
        let (bad, bad_rx) = solve_job(&svc, &boom_frame());
        let (good, good_rx) = solve_job(&svc, &solve_frame(5));
        svc.run_batch_jobs(vec![bad, good]);
        let bad = bad_rx.recv().unwrap();
        assert_eq!(error_kind(&bad), Some("internal"), "{bad}");
        let good = good_rx.recv().unwrap();
        let alone = Service::new(ServeConfig::default()).handle(&solve_frame(5));
        assert_eq!(
            result_of(&good).get("energy"),
            result_of(&alone).get("energy")
        );
        assert_eq!(svc.scheduler_stats().batches, 1);
    }
}
