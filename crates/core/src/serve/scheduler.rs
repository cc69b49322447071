//! The batched solve queue, its admission controller, and the
//! single-flight table.
//!
//! Per-connection threads used to dispatch straight into
//! [`crate::Portfolio::run`], so eight concurrent clients meant eight
//! overlapping rayon fan-outs fighting for the same worker pool. The
//! `SolveQueue` inverts that: connection threads *enqueue* decoded solve
//! jobs and block on a response channel, while one scheduler thread drains
//! the queue in batches and runs them through
//! [`crate::Portfolio::run_batch`] — one rayon wave that keeps the pool
//! saturated instead of oversubscribed.
//!
//! **Single-flight** happens at admission. A queued job opens a *flight*
//! keyed by its request fingerprint (`SolveJob::dedup`); the flight stays
//! open while the job waits and while its batch executes, and the
//! scheduler closes it (`SolveQueue::close_flights`) once the batch's
//! response frames are built, before any is sent. An identical request
//! admitted while the flight is open is `Admission::Joined`: its
//! response channel joins the flight and receives a byte-identical clone
//! of the leader's frame. A joiner adds no service-time estimate, takes no
//! queue slot and is never shed. So a duplicate that arrives while its
//! leader is already solving still joins, and the scheduler drains as
//! soon as one job is queued.
//!
//! **Regrouping.** One case still waits: right after a batch in which
//! requests joined flights. Clients that replay identical requests in
//! lockstep (the fleet `xp serve-bench` drives) come back together, but
//! on a busy host their next requests reach admission up to a few
//! milliseconds apart, and a sub-millisecond solve would close its flight
//! before the last peer joins. A peer that misses one flight stays a
//! request behind the others for good, so its later requests are all
//! solved again. After such a batch, `SolveQueue::next_batch` therefore
//! waits until one queued flight holds as many requests as the batch's
//! fullest flight did, and at most `COALESCE_WINDOW` (2 ms). The daemon's
//! first drain, with no batch to go by, waits the same way for one
//! request per open connection. A batch that nobody joined (one client,
//! or clients that share no request) drains the next job at once.
//!
//! **Admission control** happens at enqueue time, not at timeout time. A
//! job arrives with a service-time estimate (the warm or cold median from
//! the daemon's latency histograms, picked by probing whether all of its
//! cache keys are resident); when the queued-plus-inflight estimate
//! already exceeds the request's own deadline, or the queue is at
//! capacity, the job is **shed** with a structured `overloaded` frame
//! carrying `retry_after_ms` — the client learns immediately instead of
//! burning its deadline in line.
//!
//! The queue itself is transport-free and deterministic: everything
//! time-dependent (estimates, deadlines) is computed by the caller and
//! carried on the job, so unit tests drive admission decisions exactly.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::solver::Solver;

use super::protocol::SolveReq;

/// The longest a drain waits for the requests of a shared batch to come
/// back (see the module docs on regrouping). It only bounds the wait: the
/// drain goes as soon as they are all queued or joined.
pub(crate) const COALESCE_WINDOW: Duration = Duration::from_millis(2);

/// One decoded, validated solve waiting for the scheduler thread.
///
/// The connection thread has already instantiated the workload, resolved
/// the solver list, fingerprinted the request, and estimated its service
/// time — the scheduler only runs and responds.
pub(crate) struct SolveJob {
    /// The decoded request (seed/deadline fields still unresolved —
    /// resolution against config defaults happens in the solve path, and
    /// the dedup fingerprint already covers the resolved values).
    pub req: SolveReq,
    /// The instantiated workload graph.
    pub workload: spg::Spg,
    /// The resolved solver set.
    pub solvers: Vec<std::sync::Arc<dyn Solver>>,
    /// Full request-identity fingerprint, the flight key: jobs with equal
    /// `dedup` are guaranteed to produce identical response frames, so one
    /// solve answers them all.
    pub dedup: u64,
    /// Estimated service time in nanoseconds (0 = no history yet).
    pub est_ns: u64,
    /// The request's resolved deadline in nanoseconds, if any — the
    /// admission bound.
    pub deadline_ns: Option<u64>,
    /// When the request frame arrived (latency and budget anchor).
    pub arrival: Instant,
    /// Where the response frame goes.
    pub tx: Sender<Json>,
}

/// Admission verdict for one job.
pub(crate) enum Admission {
    /// Queued, opening a flight; the caller blocks on its receiver.
    Queued,
    /// An identical job's flight was open: the job's sender joined it and
    /// receives that job's frame. The caller blocks on its receiver.
    Joined,
    /// Shed at the door: predicted queue wait would blow the deadline, or
    /// the queue is full. The caller answers with an `overloaded` frame.
    Shed {
        /// The queued-plus-inflight service-time estimate at decision
        /// time (the `retry_after_ms` basis).
        predicted_wait_ns: u64,
        /// Queue depth at decision time.
        queue_depth: u64,
    },
    /// The scheduler has drained and exited (shutdown): the caller runs
    /// the job inline so no request is ever lost to the race.
    Draining(Box<SolveJob>),
}

/// Counter snapshot for the `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Batches the scheduler thread has executed.
    pub batches: u64,
    /// Solve requests answered by the batched path (joiners included).
    pub batched_requests: u64,
    /// Requests answered from an identical request's solve (joined its
    /// flight).
    pub deduped: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
}

/// What the queue's one mutex guards: the waiting jobs and the open
/// flights.
#[derive(Default)]
struct Pending {
    jobs: VecDeque<SolveJob>,
    /// Open flights: the `dedup` of every queued or executing job, mapped
    /// to the senders of the identical jobs that joined it.
    flights: HashMap<u64, Vec<Sender<Json>>>,
    /// How many requests the fullest flight of the last batch answered, if
    /// any joined it; 0 otherwise; `None` before the first batch. The next
    /// drain regroups them.
    regroup: Option<usize>,
    /// Open client connections (see [`SolveQueue::open_connection`]).
    connections: usize,
}

impl Pending {
    /// Whether a drain should wait for more requests to regroup: no queued
    /// flight (a queued job and the requests that joined it) holds as many
    /// as the last batch's fullest flight, or, before the first batch, as
    /// there are open connections.
    fn regrouping(&self) -> bool {
        let fullest = self
            .jobs
            .iter()
            .map(|j| 1 + self.flights.get(&j.dedup).map_or(0, Vec::len))
            .max()
            .unwrap_or(0);
        fullest < self.regroup.unwrap_or(self.connections)
    }
}

/// An open client connection, counted by its [`SolveQueue`] until dropped.
pub(crate) struct OpenConnection<'a>(&'a SolveQueue);

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.pending().connections -= 1;
    }
}

/// The bounded MPSC solve queue: connection threads push, the scheduler
/// thread drains.
pub(crate) struct SolveQueue {
    cap: usize,
    pending: Mutex<Pending>,
    available: Condvar,
    /// Set once the scheduler thread has drained and exited; admits after
    /// this point bounce back to the caller as [`Admission::Draining`].
    closed: AtomicBool,
    /// Set by shutdown to tell the scheduler thread to drain and exit.
    closing: AtomicBool,
    /// Sum of `est_ns` over queued jobs.
    queued_est_ns: AtomicU64,
    /// Sum of `est_ns` over the batch currently executing.
    inflight_est_ns: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    deduped: AtomicU64,
    shed: AtomicU64,
}

impl SolveQueue {
    /// An open queue holding at most `cap` waiting jobs.
    pub fn new(cap: usize) -> Self {
        SolveQueue {
            cap,
            pending: Mutex::new(Pending::default()),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            queued_est_ns: AtomicU64::new(0),
            inflight_est_ns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Locks the queue state. A poisoned lock is recovered: each update
    /// under it is one push, drain, insert or remove, which leaves the
    /// jobs and flights valid at every step.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Joins the job to an identical job's open flight, or applies
    /// admission control and enqueues it, opening its flight. The
    /// predicted wait is the sum of service-time estimates ahead of this
    /// job (queued plus the batch in flight); a job whose own deadline is
    /// tighter than that wait is shed *now*, before it burns its budget
    /// in line.
    pub fn admit(&self, job: SolveJob) -> Admission {
        let mut p = self.pending();
        if self.closed.load(Ordering::SeqCst) {
            return Admission::Draining(Box::new(job));
        }
        if let Some(joined) = p.flights.get_mut(&job.dedup) {
            joined.push(job.tx);
            // A regrouping drain counts joiners.
            self.available.notify_one();
            return Admission::Joined;
        }
        let predicted_wait_ns = self
            .queued_est_ns
            .load(Ordering::Relaxed)
            .saturating_add(self.inflight_est_ns.load(Ordering::Relaxed));
        let over_deadline = job
            .deadline_ns
            .is_some_and(|deadline| predicted_wait_ns > deadline);
        if p.jobs.len() >= self.cap || over_deadline {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed {
                predicted_wait_ns,
                queue_depth: p.jobs.len() as u64,
            };
        }
        self.queued_est_ns.fetch_add(job.est_ns, Ordering::Relaxed);
        p.flights.insert(job.dedup, Vec::new());
        p.jobs.push_back(job);
        self.available.notify_one();
        Admission::Queued
    }

    /// Blocks until at least one job is queued (or shutdown), then drains
    /// up to `max` jobs at once. The drain does not wait for more jobs,
    /// since a late identical request joins the drained job's flight
    /// instead, except to regroup the requests of a shared batch (see the
    /// module docs). Returns `None` once the queue is empty *and* closing
    /// — after which the queue is marked closed and every subsequent
    /// [`SolveQueue::admit`] bounces.
    pub fn next_batch(&self, max: usize) -> Option<Vec<SolveJob>> {
        let max = max.max(1);
        let mut p = self.pending();
        let mut regroup_until: Option<Instant> = None;
        loop {
            if !p.jobs.is_empty() {
                if p.jobs.len() < max && p.regrouping() && !self.closing.load(Ordering::SeqCst) {
                    let until =
                        *regroup_until.get_or_insert_with(|| Instant::now() + COALESCE_WINDOW);
                    let now = Instant::now();
                    if now < until {
                        p = self
                            .available
                            .wait_timeout(p, until - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                        continue;
                    }
                }
                let n = p.jobs.len().min(max);
                let jobs: Vec<SolveJob> = p.jobs.drain(..n).collect();
                let est: u64 = jobs.iter().map(|j| j.est_ns).sum();
                self.queued_est_ns.fetch_sub(est, Ordering::Relaxed);
                self.inflight_est_ns.store(est, Ordering::Relaxed);
                return Some(jobs);
            }
            if self.closing.load(Ordering::SeqCst) {
                // Closed is flipped under the queue lock, so an admit
                // either saw it set (and solves inline) or enqueued
                // before we drained — never neither.
                self.closed.store(true, Ordering::SeqCst);
                return None;
            }
            p = self
                .available
                .wait(p)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the flights keyed by `dedups` (an executed batch's jobs, in
    /// order) and returns each one's joined senders; a key with no open
    /// flight yields none. From here on an identical request opens a new
    /// flight. If any request joined, the next drain regroups as many
    /// requests as the fullest of these flights answered.
    pub fn close_flights(&self, dedups: impl IntoIterator<Item = u64>) -> Vec<Vec<Sender<Json>>> {
        let mut p = self.pending();
        let joined: Vec<Vec<Sender<Json>>> = dedups
            .into_iter()
            .map(|d| p.flights.remove(&d).unwrap_or_default())
            .collect();
        let fullest = joined.iter().map(Vec::len).max().unwrap_or(0);
        p.regroup = Some(if fullest > 0 { 1 + fullest } else { 0 });
        joined
    }

    /// Marks the executing batch finished (clears the inflight estimate)
    /// and records how many requests it answered and how many of them
    /// had joined a flight.
    pub fn batch_done(&self, batched: u64, deduped: u64) {
        self.inflight_est_ns.store(0, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched.fetch_add(batched, Ordering::Relaxed);
        self.deduped.fetch_add(deduped, Ordering::Relaxed);
    }

    /// Counts a client connection as open, from its accept until the
    /// returned guard drops; the daemon's first drain regroups one request
    /// per open connection.
    pub fn open_connection(&self) -> OpenConnection<'_> {
        self.pending().connections += 1;
        OpenConnection(self)
    }

    /// Tells the scheduler thread to drain and exit (idempotent).
    pub fn close(&self) {
        // Flipped under the queue lock, so the scheduler either sees the
        // flag before it waits or is already waiting for this wake-up.
        let _p = self.pending();
        self.closing.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queue_depth: self.pending().jobs.len() as u64,
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::{parse_request, Request};

    /// A job keyed `dedup` (the flight key; only equal keys join).
    fn job(
        dedup: u64,
        est_ns: u64,
        deadline_ns: Option<u64>,
    ) -> (SolveJob, std::sync::mpsc::Receiver<Json>) {
        let frame = Json::parse(
            r#"{"op":"solve","workload":{"family":"deep-chain","n":4,"seed":1},
                "platform":{"p":2,"q":2},"utilisation":0.5,"solvers":"greedy"}"#,
        )
        .unwrap();
        let Ok(Request::Solve(req)) = parse_request(&frame) else {
            panic!("fixture frame must parse as a solve");
        };
        let workload = req.workload.instantiate().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        (
            SolveJob {
                req,
                workload,
                solvers: crate::solvers::default_heuristics(),
                dedup,
                est_ns,
                deadline_ns,
                arrival: Instant::now(),
                tx,
            },
            rx,
        )
    }

    #[test]
    fn admission_sheds_on_capacity_and_deadline() {
        let q = SolveQueue::new(1);
        // Empty queue, no history: everything admits, even deadline 0.
        let (j, _rx) = job(1, 0, Some(0));
        assert!(matches!(q.admit(j), Admission::Queued));
        // Queue at capacity: shed regardless of deadline.
        let (j, _rx2) = job(2, 0, None);
        let Admission::Shed { queue_depth, .. } = q.admit(j) else {
            panic!("full queue must shed");
        };
        assert_eq!(queue_depth, 1);

        // Predicted wait beyond the deadline: shed with the estimate.
        let roomy = SolveQueue::new(16);
        let (j, _rx3) = job(1, 5_000_000, None); // 5 ms queued ahead
        assert!(matches!(roomy.admit(j), Admission::Queued));
        let (j, _rx4) = job(2, 0, Some(1_000_000)); // 1 ms deadline
        let Admission::Shed {
            predicted_wait_ns, ..
        } = roomy.admit(j)
        else {
            panic!("deadline tighter than the queue must shed");
        };
        assert_eq!(predicted_wait_ns, 5_000_000);
        // An unbounded request still admits behind the same queue.
        let (j, _rx5) = job(3, 0, None);
        assert!(matches!(roomy.admit(j), Admission::Queued));
        assert_eq!(roomy.stats().shed, 1);
        assert_eq!(roomy.stats().queue_depth, 2);
    }

    #[test]
    fn next_batch_drains_in_arrival_order_and_clears_estimates() {
        let q = SolveQueue::new(16);
        let mut rxs = Vec::new();
        for (dedup, est) in [(1, 1_000u64), (2, 2_000), (3, 3_000)] {
            let (j, rx) = job(dedup, est, None);
            assert!(matches!(q.admit(j), Admission::Queued));
            rxs.push(rx);
        }
        let batch = q.next_batch(2).unwrap();
        assert_eq!(batch.len(), 2, "batch respects the drain cap");
        assert_eq!(batch[0].est_ns, 1_000, "FIFO order");
        assert_eq!(batch[1].est_ns, 2_000);
        q.batch_done(2, 1);
        let rest = q.next_batch(8).unwrap();
        assert_eq!(rest.len(), 1);
        q.batch_done(1, 0);
        let s = q.stats();
        assert_eq!((s.batches, s.batched_requests, s.deduped), (2, 3, 1));
        assert_eq!(s.queue_depth, 0);
        assert_eq!(q.queued_est_ns.load(Ordering::Relaxed), 0);
        assert_eq!(q.inflight_est_ns.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn close_bounces_later_admits_to_the_caller() {
        let q = SolveQueue::new(16);
        let (j, _rx) = job(1, 0, None);
        assert!(matches!(q.admit(j), Admission::Queued));
        q.close();
        // Already-queued work still drains after close.
        assert_eq!(q.next_batch(8).unwrap().len(), 1);
        q.batch_done(1, 0);
        // The queue is now empty and closing: the drain loop ends.
        assert!(q.next_batch(8).is_none());
        // Post-drain admits bounce back for inline execution.
        let (j, _rx2) = job(1, 0, None);
        assert!(matches!(q.admit(j), Admission::Draining(_)));
    }

    /// A job whose flight is open joins it at no cost: it is admitted
    /// past a full queue and a deadline tighter than the predicted wait,
    /// adds nothing to the queued estimate, and needs no drain.
    #[test]
    fn a_joiner_takes_no_slot_no_estimate_and_is_never_shed() {
        let q = SolveQueue::new(1);
        let (leader, _rx) = job(7, 5_000_000, None);
        assert!(matches!(q.admit(leader), Admission::Queued));
        let (joiner, _rx2) = job(7, 3_000_000, Some(0));
        assert!(matches!(q.admit(joiner), Admission::Joined));
        assert_eq!(q.queued_est_ns.load(Ordering::Relaxed), 5_000_000);
        let s = q.stats();
        assert_eq!((s.queue_depth, s.shed), (1, 0));
        // A distinct job still meets the full queue.
        let (other, _rx3) = job(8, 0, None);
        assert!(matches!(q.admit(other), Admission::Shed { .. }));
    }

    /// A flight stays open from its leader's admission until
    /// `close_flights`, across the drain: a duplicate admitted while the
    /// leader's batch executes joins, and one admitted after the close
    /// opens a new flight.
    #[test]
    fn flights_close_after_execution_and_reopen_on_the_next_duplicate() {
        let q = SolveQueue::new(16);
        let (leader, leader_rx) = job(7, 1_000, None);
        assert!(matches!(q.admit(leader), Admission::Queued));
        let (early, early_rx) = job(7, 0, None);
        assert!(matches!(q.admit(early), Admission::Joined));
        let batch = q.next_batch(8).unwrap();
        assert_eq!(batch.len(), 1, "joiners are never drained");
        let (late, late_rx) = job(7, 0, None);
        assert!(matches!(q.admit(late), Admission::Joined));

        let mut joined = q.close_flights([7, 9]);
        assert!(joined[1].is_empty(), "a key with no open flight");
        let frame = Json::from("the leader's frame");
        for tx in joined.remove(0).into_iter().chain([batch[0].tx.clone()]) {
            tx.send(frame.clone()).unwrap();
        }
        for rx in [&leader_rx, &early_rx, &late_rx] {
            assert_eq!(rx.recv().unwrap().to_string(), frame.to_string());
        }
        q.batch_done(3, 2);

        let (after, _rx) = job(7, 0, None);
        assert!(matches!(q.admit(after), Admission::Queued));
        assert_eq!(q.stats().queue_depth, 1);
    }

    /// Runs one batch of the jobs keyed `dedups` (one per key), with
    /// `joiners` more requests joining the first key's flight, through
    /// admission, drain and close.
    fn run_batch(q: &SolveQueue, dedups: &[u64], joiners: usize) {
        let mut rxs = Vec::new();
        for (i, &d) in dedups.iter().enumerate() {
            for k in 0..=if i == 0 { joiners } else { 0 } {
                let (j, rx) = job(d, 0, None);
                let admitted = q.admit(j);
                assert_eq!(matches!(admitted, Admission::Joined), k > 0);
                rxs.push(rx);
            }
        }
        assert_eq!(q.next_batch(8).unwrap().len(), dedups.len());
        q.close_flights(dedups.iter().copied());
    }

    /// A batch that a request joined makes the next drain regroup its
    /// fullest flight's requests, in one queued flight; a batch that
    /// nobody joined does not.
    #[test]
    fn a_shared_batch_regroups_its_requests_before_the_next_drain() {
        let q = SolveQueue::new(16);
        let (solo, _rx) = job(1, 0, None);
        assert!(matches!(q.admit(solo), Admission::Queued));
        assert!(!q.pending().regrouping(), "no batch and no connection yet");
        assert_eq!(q.next_batch(8).unwrap().len(), 1);
        q.close_flights([1]);
        let (leader, _rx) = job(3, 0, None);
        assert!(matches!(q.admit(leader), Admission::Queued));
        assert!(!q.pending().regrouping(), "nobody joined the last batch");

        let q = SolveQueue::new(16);
        run_batch(&q, &[1, 2], 2);
        let (lagging, _rx) = job(9, 0, None);
        assert!(matches!(q.admit(lagging), Admission::Queued));
        let (next, _rx2) = job(3, 0, None);
        assert!(matches!(q.admit(next), Admission::Queued));
        let mut peers = Vec::new();
        for back in 2..=3 {
            assert!(q.pending().regrouping(), "{} of 3 back", back - 1);
            let (peer, rx) = job(3, 0, None);
            assert!(matches!(q.admit(peer), Admission::Joined));
            peers.push(rx);
        }
        assert!(!q.pending().regrouping(), "all 3 are back");
    }

    /// A regrouping drain that its peers never reach still drains, once
    /// the window is over.
    #[test]
    fn a_regrouping_drain_waits_at_most_the_window() {
        let q = SolveQueue::new(16);
        run_batch(&q, &[7], 1);
        let (j, _rx) = job(1, 0, None);
        assert!(matches!(q.admit(j), Admission::Queued));
        let started = Instant::now();
        assert_eq!(q.next_batch(8).unwrap().len(), 1);
        assert!(started.elapsed() >= COALESCE_WINDOW);
    }

    /// Before its first batch the daemon regroups one request per open
    /// connection; a closed connection is not waited for.
    #[test]
    fn the_first_drain_regroups_the_open_connections() {
        let q = SolveQueue::new(16);
        let first = q.open_connection();
        let second = q.open_connection();
        let (j, _rx) = job(1, 0, None);
        assert!(matches!(q.admit(j), Admission::Queued));
        assert!(q.pending().regrouping());
        drop(second);
        assert!(!q.pending().regrouping());
        drop(first);
        assert_eq!(q.pending().connections, 0);
    }
}
