//! `serve-hot` and `serve-churn`: an in-process daemon on loopback TCP,
//! driven by closed-loop clients in this process.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use ea_core::json::Json;
use ea_core::serve::{write_frame, Client, ServeConfig, Server};

use crate::metrics::{run_window, trace_overhead, Metrics, OpRecord, Window};
use crate::ops::{churn_pass, churn_warmup, hot_pass, hot_universe, ops_hash, Op, Solve};
use crate::reference::Reference;
use crate::trace::{Span, Tracer};
use crate::Outcome;

/// Set-ups before the window, and again after it; `setup_s` is the median
/// of all of them.
const SETUP_REPS: usize = 3;

/// serve-churn: the artifact-cache bound, small enough that the pool's
/// artifacts evict each other.
pub const CHURN_CACHE_BYTES: usize = 1 << 20;

/// serve-churn's worker-pool width. Its one client keeps one request in
/// flight, so at the default width (`nproc`) every solve wakes a worker on
/// the other, idle CPU; on a shared virtual machine that wake-up waits on
/// the host, and alternating runs at width 1 and 2 spread about three times
/// wider at width 2 (`steadiness.md`). A one-worker daemon is a supported
/// deployment (`RAYON_NUM_THREADS=1 xp serve`); serve-hot, whose two clients
/// keep both CPUs busy, measures the default width.
pub const CHURN_POOL_WIDTH: usize = 1;

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Churn,
}

/// A daemon serving on an ephemeral loopback port.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn boot(cfg: ServeConfig) -> Daemon {
        let server = Server::bind_tcp("127.0.0.1:0", cfg).expect("bind a loopback port");
        let addr = server.local_addr().expect("a TCP daemon has an address");
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, thread }
    }

    fn client(&self) -> Client {
        Client::connect_tcp(self.addr).expect("connect to the daemon")
    }

    /// Asks the daemon to drain and exit, and waits until it has.
    fn stop(self) {
        self.client().shutdown().expect("shutdown request");
        self.thread
            .join()
            .expect("daemon thread panicked")
            .expect("daemon exited cleanly");
    }
}

/// The spill directory of this process (inside the checkout).
fn spill_dir() -> PathBuf {
    PathBuf::from(format!(".bench_out/spill-{}", std::process::id()))
}

/// Sends one solve and insists on an answer (set-up traffic).
fn solve_once(client: &mut Client, s: &Solve) {
    let r = client.request(&s.request()).expect("set-up request");
    let kind = r
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert!(
        r.get("ok").and_then(Json::as_bool) == Some(true) || kind == Some("no_valid_mapping"),
        "set-up solve {} failed: {r}",
        s.key()
    );
}

/// One set-up: bind the daemon and prime its cache.
///
/// * serve-hot: a fresh daemon answers every distinct request once, so
///   the window sees a warm cache;
/// * serve-churn: a first daemon solves the set-up workloads with a spill
///   directory and stops; a second daemon boots on that directory, reloads
///   the spilled artifacts, and serves the window.
fn setup(kind: Kind) -> Daemon {
    crate::start_pool();
    match kind {
        Kind::Hot => {
            let d = Daemon::boot(ServeConfig::default());
            let mut c = d.client();
            // One client's requests cover every distinct artifact.
            for s in hot_universe(0) {
                solve_once(&mut c, &s);
            }
            d
        }
        Kind::Churn => {
            let dir = spill_dir();
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = ServeConfig {
                cache_bytes: CHURN_CACHE_BYTES,
                cache_dir: Some(dir),
                ..ServeConfig::default()
            };
            let first = Daemon::boot(cfg.clone());
            let mut c = first.client();
            for s in churn_warmup() {
                solve_once(&mut c, &s);
            }
            drop(c);
            first.stop();
            Daemon::boot(cfg)
        }
    }
}

/// Tears down a timed set-up: stops its daemon and hands the freed heap
/// back, so the next set-up starts from the same memory state.
fn release(d: Daemon) {
    d.stop();
    crate::sys::release_free_memory();
}

/// Daemon counters read through the `stats` op.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes: u64,
    batches: u64,
    batched: u64,
    deduped: u64,
    shed: u64,
    spilled: u64,
    spill_errors: u64,
}

impl Stats {
    fn read(client: &mut Client) -> Stats {
        let r = client.stats().expect("stats request");
        let res = r.get("result").expect("stats result");
        let n = |obj: &str, key: &str| {
            res.get(obj)
                .and_then(|o| o.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("stats lacks {obj}.{key}")) as u64
        };
        Stats {
            hits: n("cache", "hits"),
            misses: n("cache", "misses"),
            evictions: n("cache", "evictions"),
            bytes: n("cache", "bytes"),
            batches: n("scheduler", "batches"),
            batched: n("scheduler", "batched_requests"),
            deduped: n("scheduler", "deduped"),
            shed: n("scheduler", "shed"),
            spilled: n("spill", "spilled"),
            spill_errors: n("spill", "errors"),
        }
    }

    fn since(&self, before: &Stats) -> Stats {
        Stats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            bytes: self.bytes,
            batches: self.batches - before.batches,
            batched: self.batched - before.batched,
            deduped: self.deduped - before.deduped,
            shed: self.shed - before.shed,
            spilled: self.spilled - before.spilled,
            spill_errors: self.spill_errors - before.spill_errors,
        }
    }
}

/// What one answered op told the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    /// Daemon-reported `wall_ms`, when the frame carries one.
    daemon_ms: Option<f64>,
    /// A result frame (as opposed to an error frame).
    result: bool,
    warm: bool,
    patched: bool,
}

/// Checks a response against the references; fills the op's record.
fn check(
    op: &Op,
    resp: &Json,
    refs: &Reference,
    rec: &mut OpRecord,
    errors: &mut Vec<String>,
) -> Seen {
    let mut seen = Seen::default();
    let mut answer = |s: &Solve, e: Option<f64>| match refs.check(s, e) {
        Ok(Some(ratio)) => {
            rec.ratios.push(ratio);
            true
        }
        Ok(None) => false,
        Err(msg) => {
            errors.push(msg);
            false
        }
    };
    if let Some(res) = resp
        .get("result")
        .filter(|_| resp.get("ok").and_then(Json::as_bool) == Some(true))
    {
        seen.result = true;
        seen.daemon_ms = res.get("wall_ms").and_then(Json::as_f64);
        seen.warm = res.get("warm").and_then(Json::as_bool) == Some(true);
        seen.patched = res
            .get("cache")
            .and_then(|c| c.get("route"))
            .and_then(Json::as_str)
            == Some("patched");
        rec.ok = true;
        rec.solved = match op {
            Op::Solve(s) => answer(s, res.get("energy").and_then(Json::as_f64)),
            Op::Sweep { points } => {
                let got = res.get("points").and_then(Json::as_arr).unwrap_or(&[]);
                let mut all = got.len() == points.len();
                for (s, g) in points.iter().zip(got) {
                    all &= answer(s, g.get("energy").and_then(Json::as_f64));
                }
                if got.len() != points.len() {
                    errors.push(format!(
                        "sweep answered {} of {} points",
                        got.len(),
                        points.len()
                    ));
                }
                all
            }
        };
        return seen;
    }
    let kind = resp
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    if kind == Some("no_valid_mapping") {
        rec.ok = true;
        for s in op.solves() {
            answer(s, None);
        }
    }
    seen
}

/// Per-op protocol and daemon timings of the traced window.
#[derive(Debug, Default)]
struct Traced {
    encode_ns: u64,
    decode_ns: u64,
    frame_bytes: u64,
    daemon_ms: f64,
    overhead_ms: f64,
    with_wall: u64,
    results: u64,
    warm: u64,
    patched_first_pass: u64,
}

/// One client's pass: a closed loop over its ops.
fn client_pass(
    client: &mut Client,
    ops: &[Op],
    refs: &Reference,
    tracer: Option<(&Tracer, u64)>,
) -> (Vec<OpRecord>, Vec<String>, Traced) {
    let mut recs = Vec::with_capacity(ops.len());
    let mut errors = Vec::new();
    let mut t = Traced::default();
    for (i, op) in ops.iter().enumerate() {
        let req = op.request();
        let t0 = Instant::now();
        let start = tracer.map(|(tr, _)| tr.now());
        let resp = client.request(&req);
        let lat_ns = t0.elapsed().as_nanos() as u64;
        let mut rec = OpRecord {
            lat_ns,
            ..Default::default()
        };
        let Ok(resp) = resp else {
            recs.push(rec);
            continue;
        };
        let seen = check(op, &resp, refs, &mut rec, &mut errors);
        if let (Some((tr, base)), Some(start)) = (tracer, start) {
            let op_id = base + i as u64;
            let root = tr.id();
            let end = start + lat_ns;
            if let Some(ms) = seen.daemon_ms {
                let child = (ms * 1e6) as u64;
                tr.record(Span {
                    id: tr.id(),
                    parent: Some(root),
                    op: op_id,
                    name: "daemon.solve".into(),
                    start,
                    end: (start + child).min(end),
                    outcome: "ok",
                });
                t.daemon_ms += ms;
                t.overhead_ms += (lat_ns as f64 / 1e6 - ms).max(0.0);
                t.with_wall += 1;
            }
            tr.record(Span {
                id: root,
                parent: None,
                op: op_id,
                name: "client.request".into(),
                start,
                end,
                outcome: if rec.ok { "ok" } else { "miss" },
            });
            // Protocol cost on the exact request and response bytes.
            let mut buf = Vec::new();
            let e0 = Instant::now();
            write_frame(&mut buf, &req).expect("encode into memory");
            t.encode_ns += e0.elapsed().as_nanos() as u64;
            let text = resp.to_string();
            let d0 = Instant::now();
            let parsed = Json::parse(&text).expect("a response re-parses");
            t.decode_ns += d0.elapsed().as_nanos() as u64;
            std::hint::black_box(parsed);
            t.frame_bytes += (buf.len() + 4 + text.len()) as u64;
            t.results += u64::from(seen.result);
            t.warm += u64::from(seen.warm);
            t.patched_first_pass += u64::from(seen.patched);
        }
        recs.push(rec);
    }
    (recs, errors, t)
}

/// Runs a window of synchronised passes. Each client keeps one thread for
/// the whole window; all clients start a pass together and meet at its
/// end, where the daemon's counters are read after the first pass.
fn window(
    daemon: &Daemon,
    clients: &mut [Client],
    passes: &[Vec<Op>],
    refs: &Reference,
    tracer: Option<&Tracer>,
    seconds: f64,
) -> (Window, Stats, Traced) {
    let mut stats_client = daemon.client();
    let before = Stats::read(&mut stats_client);
    let mut first = Stats::default();
    let mut traced = Traced::default();
    let pass_ops: usize = passes.iter().map(Vec::len).sum();
    let n = clients.len();
    let (start, end) = (Barrier::new(n + 1), Barrier::new(n + 1));
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let w = std::thread::scope(|s| {
        for (c, (client, ops)) in clients.iter_mut().zip(passes).enumerate() {
            let (tx, start, end, stop) = (tx.clone(), &start, &end, &stop);
            s.spawn(move || {
                for pass in 0.. {
                    start.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let base = (pass * pass_ops + c * ops.len()) as u64;
                    let r = client_pass(client, ops, refs, tracer.map(|t| (t, base)));
                    tx.send((c, r)).expect("the window outlives its clients");
                    end.wait();
                }
            });
        }
        let w = run_window(seconds, |pass, w: &mut Window| {
            start.wait();
            end.wait();
            let mut results: Vec<_> = rx.try_iter().collect();
            results.sort_by_key(|(c, _)| *c);
            for (_, (recs, errors, t)) in results {
                w.ops.extend(recs);
                w.errors.extend(errors);
                traced.encode_ns += t.encode_ns;
                traced.decode_ns += t.decode_ns;
                traced.frame_bytes += t.frame_bytes;
                traced.daemon_ms += t.daemon_ms;
                traced.overhead_ms += t.overhead_ms;
                traced.with_wall += t.with_wall;
                traced.results += t.results;
                traced.warm += t.warm;
                if pass == 0 {
                    traced.patched_first_pass += t.patched_first_pass;
                }
            }
            if pass == 0 {
                first = Stats::read(&mut stats_client).since(&before);
            }
        });
        stop.store(true, Ordering::SeqCst);
        start.wait();
        w
    });
    (w, first, traced)
}

/// The first pass's deterministic counts.
fn first_pass_counts(first: &Stats, w: &Window, pass_ops: usize) -> BTreeMap<String, u64> {
    BTreeMap::from([
        ("cache.hits".to_string(), first.hits),
        ("cache.misses".to_string(), first.misses),
        ("cache.evictions".to_string(), first.evictions),
        ("spill.spilled".to_string(), first.spilled),
        (
            "solved_ops".to_string(),
            w.ops[..pass_ops].iter().filter(|o| o.solved).count() as u64,
        ),
    ])
}

/// Runs a daemon workload (see [`crate::campaign::run`] for the shape).
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if kind == Kind::Churn {
        // The pool reads this once, at its first use, which is still ahead.
        std::env::set_var("RAYON_NUM_THREADS", CHURN_POOL_WIDTH.to_string());
        assert_eq!(rayon::current_num_threads(), CHURN_POOL_WIDTH);
    }
    let refs = Reference::load();
    crate::sys::reset_peak_rss();
    let passes = match kind {
        Kind::Hot => hot_pass(seed),
        Kind::Churn => vec![churn_pass(seed)],
    };
    let hash = ops_hash(&passes);
    let pass_ops: usize = passes.iter().map(Vec::len).sum();
    let mut setup_times = Vec::new();
    let daemon = crate::timed_setups(SETUP_REPS, &mut setup_times, || setup(kind), release);
    let mut clients: Vec<Client> = passes.iter().map(|_| daemon.client()).collect();

    let outcome = if !trace {
        let (w, first, _) = window(&daemon, &mut clients, &passes, &refs, None, seconds);
        let counts = first_pass_counts(&first, &w, pass_ops);
        let peak = crate::sys::peak_rss_mib();
        drop(clients);
        daemon.stop();
        // The set-ups after the window, with the measured daemon gone.
        release(crate::timed_setups(
            SETUP_REPS,
            &mut setup_times,
            || setup(kind),
            release,
        ));
        let setup_s = crate::stats::median(&setup_times);
        let e2e = crate::metrics::end_to_end(setup_s, &w, peak);
        Outcome::new(w, e2e, counts, hash)
    } else {
        let tracer = Tracer::new();
        let (tw, first, t) = window(
            &daemon,
            &mut clients,
            &passes,
            &refs,
            Some(&tracer),
            seconds / 2.0,
        );
        let (uw, ..) = window(&daemon, &mut clients, &passes, &refs, None, seconds / 2.0);
        let counts = first_pass_counts(&first, &tw, pass_ops);
        let n = tw.ops.len() as f64;
        let mean = |x: f64| x / n;
        let mut m = Metrics::new();
        m.insert(
            "daemon.solve_ms".into(),
            t.daemon_ms / t.with_wall.max(1) as f64,
        );
        m.insert(
            "serve.overhead_ms".into(),
            t.overhead_ms / t.with_wall.max(1) as f64,
        );
        m.insert("protocol.encode_us".into(), mean(t.encode_ns as f64 / 1e3));
        m.insert("protocol.decode_us".into(), mean(t.decode_ns as f64 / 1e3));
        m.insert("protocol.frame_bytes".into(), mean(t.frame_bytes as f64));
        m.insert("scheduler.batches".into(), first.batches as f64);
        m.insert(
            "scheduler.mean_batch".into(),
            first.batched as f64 / first.batches.max(1) as f64,
        );
        m.insert("scheduler.deduped".into(), first.deduped as f64);
        m.insert("scheduler.shed".into(), first.shed as f64);
        let lookups = first.hits + first.misses;
        m.insert(
            "cache.hit_rate".into(),
            first.hits as f64 / lookups.max(1) as f64,
        );
        m.insert(
            "cache.warm_frac".into(),
            t.warm as f64 / t.results.max(1) as f64,
        );
        m.insert("cache.misses".into(), first.misses as f64);
        m.insert("cache.evictions".into(), first.evictions as f64);
        m.insert("cache.bytes".into(), first.bytes as f64);
        m.insert("spill.spilled".into(), first.spilled as f64);
        m.insert("spill.errors".into(), first.spill_errors as f64);
        m.insert("route.patched".into(), t.patched_first_pass as f64);
        m.insert("trace.overhead_frac".into(), trace_overhead(&tw, &uw));
        let mut out = Outcome::new(tw, m, counts, hash);
        out.spans = tracer.take();
        out.errors.extend(uw.errors);
        out.absent = crate::SOLVER_LAYERS
            .iter()
            .map(|m| {
                (
                    m.to_string(),
                    "solver layers run inside the daemon; measured on campaign".to_string(),
                )
            })
            .collect();
        drop(clients);
        daemon.stop();
        out
    };
    if kind == Kind::Churn {
        let _ = std::fs::remove_dir_all(spill_dir());
    }
    outcome
}
