//! End-to-end tests for the serve subsystem: a real socket server under
//! concurrent clients, warm/cold bit-identity across the StreamIt suite,
//! deterministic LRU eviction replay, structured deadline backpressure,
//! shutdown draining in-flight work, cache-persistence tolerance, and
//! batched-vs-per-request equivalence.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use ea_core::json::{obj, Json};
use ea_core::serve::{read_frame, write_frame, Client, ServeConfig, Server, Service};

fn solve_frame(workload: Json, solvers: &str, extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("op".to_string(), Json::from("solve")),
        ("workload".to_string(), workload),
        ("utilisation".to_string(), Json::from(0.5)),
        ("solvers".to_string(), Json::from(solvers)),
        ("seed".to_string(), Json::from(7u64)),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v.clone()));
    }
    Json::Obj(fields.into_iter().collect())
}

fn streamit(name: &str) -> Json {
    obj([("streamit", Json::from(name))])
}

fn energy_bits(resp: &Json) -> Option<u64> {
    resp.get("result")
        .and_then(|r| r.get("energy"))
        .and_then(Json::as_f64)
        .map(f64::to_bits)
}

/// A throwaway spill directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads a counter out of a `stats` response, e.g. `spill.skipped`.
fn stat(service: &Service, outer: &str, inner: &str) -> f64 {
    let resp = service.handle(&obj([("op", Json::from("stats"))]));
    resp.get("result")
        .and_then(|r| r.get(outer))
        .and_then(|o| o.get(inner))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats missing {outer}.{inner}: {resp}"))
}

/// Warm solves reproduce cold energies bit-for-bit across the whole
/// StreamIt suite — the cache stores solver inputs, never answers, so a
/// hit can shift latency but not results.
#[test]
fn warm_solves_are_bit_identical_across_streamit() {
    let service = Service::new(ServeConfig::default());
    let mut warm_hits = 0usize;
    for spec in &spg::STREAMIT_SPECS {
        let req = solve_frame(streamit(spec.name), "greedy,dpa1d", &[]);
        let cold = service.handle(&req);
        let warm = service.handle(&req);
        assert_eq!(
            energy_bits(&cold),
            energy_bits(&warm),
            "{}: warm energy must match cold bit-for-bit",
            spec.name
        );
        // Infeasible flows must fail identically too.
        assert_eq!(
            cold.get("ok").and_then(Json::as_bool),
            warm.get("ok").and_then(Json::as_bool),
            "{}: warm/cold feasibility must agree",
            spec.name
        );
        if warm
            .get("result")
            .and_then(|r| r.get("warm"))
            .and_then(Json::as_bool)
            == Some(true)
        {
            warm_hits += 1;
        }
    }
    assert!(
        warm_hits >= 4,
        "expected several flows to fit the artifact cache, got {warm_hits}"
    );
    let stats = service.cache_stats();
    assert!(stats.hits > 0, "repeat requests must hit the cache");
}

/// Replaying the same request script into a fresh service evicts the same
/// artifacts in the same order: LRU over a serialized request stream is
/// deterministic.
#[test]
fn lru_eviction_replay_is_deterministic() {
    let script: Vec<Json> = ["FFT", "TDE", "DES", "FFT", "TDE"]
        .iter()
        .map(|n| solve_frame(streamit(n), "greedy,dpa1d", &[]))
        .collect();
    let replay = || {
        let service = Service::new(ServeConfig {
            // Small enough that three flows' lattices cannot coexist.
            cache_bytes: 4096,
            ..ServeConfig::default()
        });
        for req in &script {
            let resp = service.handle(req);
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "solve failed: {resp}"
            );
        }
        (service.eviction_log(), service.cache_stats())
    };
    let (log_a, stats_a) = replay();
    let (log_b, stats_b) = replay();
    assert!(
        stats_a.evictions > 0,
        "the 4 KiB bound must force evictions (got {stats_a:?})"
    );
    assert_eq!(log_a, log_b, "same script must evict in the same order");
    assert_eq!(
        (stats_a.hits, stats_a.misses, stats_a.evictions),
        (stats_b.hits, stats_b.misses, stats_b.evictions),
        "cache counters must replay deterministically"
    );
}

/// A zero deadline surfaces as structured `too_expensive` backpressure
/// with the budget telemetry (phase/cap/count), not a generic error.
#[test]
fn deadline_maps_to_structured_too_expensive() {
    let service = Service::new(ServeConfig::default());
    let req = solve_frame(
        streamit("Vocoder"),
        "greedy,dpa1d",
        &[("deadline_ms", Json::from(0u64))],
    );
    let resp = service.handle(&req);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let err = resp.get("error").expect("error body");
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("too_expensive"),
        "unexpected error: {resp}"
    );
    assert_eq!(err.get("phase").and_then(Json::as_str), Some("deadline"));
    assert!(err.get("cap").and_then(Json::as_f64).is_some());
    assert!(err.get("count").and_then(Json::as_f64).is_some());
    // The per-request override beats the (unbounded) default, and a
    // server-level default applies when the request carries none.
    let service = Service::new(ServeConfig {
        default_deadline_ms: Some(0),
        ..ServeConfig::default()
    });
    let resp = service.handle(&solve_frame(streamit("Vocoder"), "greedy,dpa1d", &[]));
    let kind = resp
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("too_expensive"));
}

/// Several clients hammer one daemon with a mix of solves, pings, and
/// stats; every solve of the same workload must return the same energy
/// no matter which connection, ordering, or cache state produced it.
#[test]
fn concurrent_clients_agree_on_energies() {
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let service = server.service();
    let daemon = thread::spawn(move || server.run().unwrap());

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let flows = ["FFT", "TDE", "MPEG2-noparser"];
    let (tx, rx) = mpsc::channel::<(String, u64)>();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let tx = tx.clone();
            thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                client.ping().unwrap();
                for round in 0..ROUNDS {
                    // Stagger flow order per client to mix cold/warm paths.
                    for k in 0..flows.len() {
                        let flow = flows[(c + round + k) % flows.len()];
                        let resp = client
                            .request(&solve_frame(streamit(flow), "greedy,dpa1d", &[]))
                            .unwrap();
                        let bits =
                            energy_bits(&resp).unwrap_or_else(|| panic!("{flow} failed: {resp}"));
                        tx.send((flow.to_string(), bits)).unwrap();
                    }
                    client.stats().unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let mut seen: std::collections::HashMap<String, u64> = Default::default();
    for (flow, bits) in rx {
        let prev = seen.entry(flow.clone()).or_insert(bits);
        assert_eq!(*prev, bits, "{flow}: divergent energy across clients");
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(seen.len(), flows.len());
    let stats = service.cache_stats();
    assert!(stats.hits > 0, "concurrent repeats must share artifacts");

    let mut control = Client::connect_tcp(addr).unwrap();
    control.shutdown().unwrap();
    daemon.join().unwrap();
}

/// A client that pauses mid-frame for longer than the server's shutdown
/// poll tick (100 ms) must not desynchronise the stream: the server keeps
/// the partial frame and resumes, answering every request correctly.
#[test]
fn slow_mid_frame_writes_do_not_desync_the_stream() {
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &obj([("op", Json::from("ping"))])).unwrap();
    // Pause inside the length prefix, then inside the body — both splits
    // land mid-frame, each pause longer than the server's poll interval.
    for cut in [2, wire.len() - 3] {
        stream.write_all(&wire[..cut]).unwrap();
        stream.flush().unwrap();
        thread::sleep(Duration::from_millis(250));
        stream.write_all(&wire[cut..]).unwrap();
        stream.flush().unwrap();
        let resp = read_frame(&mut stream)
            .expect("split frame must not desync the server")
            .expect("split frame must still be answered");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "response: {resp}"
        );
    }
    // The stream is still in sync: a whole request round-trips.
    write_frame(&mut stream, &obj([("op", Json::from("stats"))])).unwrap();
    let resp = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    drop(stream);

    let mut control = Client::connect_tcp(addr).unwrap();
    control.shutdown().unwrap();
    daemon.join().unwrap();
}

/// `bind_unix` probes an existing socket before unlinking it: a live
/// daemon keeps its endpoint (`AddrInUse`), a crashed daemon's stale file
/// is replaced, and a non-socket file is never deleted.
#[cfg(unix)]
#[test]
fn bind_unix_refuses_live_sockets_and_replaces_stale_ones() {
    let dir = std::env::temp_dir().join(format!("xp-serve-bind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("daemon.sock");

    let server = Server::bind_unix(&path, ServeConfig::default()).unwrap();
    let daemon = thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect_unix(&path).unwrap();
    client.ping().unwrap();
    let err = Server::bind_unix(&path, ServeConfig::default())
        .err()
        .expect("binding over a live daemon must fail");
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::AddrInUse,
        "a second daemon must not steal a live socket"
    );
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(!path.exists(), "run() removes the socket file it created");

    // A stale socket (listener gone, file left behind) is replaced.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let server = Server::bind_unix(&path, ServeConfig::default()).unwrap();
    server.service().request_shutdown();
    server.run().unwrap();

    // A plain file at the path is refused, not unlinked.
    std::fs::write(&path, b"not a socket").unwrap();
    let err = Server::bind_unix(&path, ServeConfig::default())
        .err()
        .expect("binding over a plain file must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert!(path.exists(), "a non-socket file must survive bind_unix");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown stops the accept loop but drains in-flight requests: a frame
/// already on the wire still gets its full response before the daemon
/// exits.
#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    // Send the (slow) solve frame first, then trigger shutdown from a
    // second connection while it is in flight.
    write_frame(
        &mut stream,
        &solve_frame(streamit("Vocoder"), "greedy,dpa1d", &[]),
    )
    .unwrap();
    let mut control = Client::connect_tcp(addr).unwrap();
    control.shutdown().unwrap();
    drop(control);

    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let resp = read_frame(&mut stream)
        .expect("in-flight request must not be torn by shutdown")
        .expect("in-flight request must still be answered");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "drained response: {resp}"
    );
    assert!(energy_bits(&resp).is_some());

    daemon.join().unwrap();
    // After shutdown the port stops accepting (give the OS a beat).
    thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "daemon must stop listening after shutdown"
    );
}

/// A complete version-1 spill file holding the skeleton of a two-stage
/// chain (ideals ∅, {0}, {0,1}; transitions ∅→{0}, ∅→{0,1}, {0}→{0,1}),
/// in the layout version-1 daemons wrote: blocks with `wmax`, then the
/// transition arrays, then the transposed index and cardinality levels.
fn v1_skeleton_spill() -> Vec<u8> {
    fn u32s(out: &mut Vec<u8>, vs: &[u32]) {
        out.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        for v in vs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u64.to_le_bytes());
    // (from, cut, hop, wmin, wmax, start, end)
    for (from, cut, hop, wmin, wmax, start, end) in [
        (0u32, 0.0f64, 0.0f64, 1e8f64, 3e8f64, 0u32, 2u32),
        (1, 1e4, 4.8e-7, 2e8, 2e8, 2, 3),
    ] {
        payload.extend_from_slice(&from.to_le_bytes());
        for f in [cut, hop, wmin, wmax] {
            payload.extend_from_slice(&f.to_le_bytes());
        }
        payload.extend_from_slice(&start.to_le_bytes());
        payload.extend_from_slice(&end.to_le_bytes());
    }
    u32s(&mut payload, &[1, 2, 2]); // destinations
    payload.extend_from_slice(&3u64.to_le_bytes());
    for w in [1e8f64, 3e8, 2e8] {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload.extend_from_slice(&2u32.to_le_bytes()); // max stages
    u32s(&mut payload, &[0, 0, 1, 3]); // in_off
    u32s(&mut payload, &[0, 1, 2]); // in_idx
    u32s(&mut payload, &[0, 0, 1]); // in_block
    u32s(&mut payload, &[0, 1, 2, 3]); // level_off
    payload.extend_from_slice(&f64::INFINITY.to_le_bytes());

    let mut image = Vec::new();
    image.extend_from_slice(b"XPARTIFS");
    image.extend_from_slice(&1u32.to_le_bytes());
    image.push(1); // skeleton key
    for fp in [1u64, 2, f64::INFINITY.to_bits()] {
        image.extend_from_slice(&fp.to_le_bytes());
    }
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(&payload);
    let sum = ea_core::serve::Fingerprint::new().bytes(&image).finish();
    image.extend_from_slice(&sum.to_le_bytes());
    image
}

/// A spill directory poisoned with garbage and version-skewed files must
/// not break startup: bad files are skipped (and counted), good solves
/// proceed, and fresh artifacts still spill next to the junk.
#[test]
fn corrupt_and_version_skewed_spill_files_are_tolerated() {
    let dir = scratch_dir("poisoned");
    // Not even the magic.
    std::fs::write(dir.join("garbage.xpa"), b"this is not an artifact").unwrap();
    // Right magic, wrong version: a daemon from the future.
    let mut skewed = Vec::new();
    skewed.extend_from_slice(b"XPARTIFS");
    skewed.extend_from_slice(&999u32.to_le_bytes());
    skewed.extend_from_slice(&[0u8; 64]);
    std::fs::write(dir.join("lattice-0000000000000000.xpa"), &skewed).unwrap();
    // A well-formed skeleton from a daemon one format back: version 1
    // images carried the transposed index the current codec no longer
    // reads.
    std::fs::write(
        dir.join("skeleton-0000000000000001-0000000000000002-7ff0000000000000.xpa"),
        v1_skeleton_spill(),
    )
    .unwrap();
    // A non-spill file is not load_dir's business at all.
    std::fs::write(dir.join("README.txt"), b"hands off").unwrap();

    let service = Service::new(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(stat(&service, "spill", "loaded"), 0.0, "starts cold");
    assert_eq!(
        stat(&service, "spill", "skipped"),
        3.0,
        "all three bad .xpa files are skipped, the .txt is ignored"
    );

    // The daemon is healthy: a solve succeeds and spills write-behind.
    let resp = service.handle(&solve_frame(streamit("FFT"), "greedy,dpa1d", &[]));
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "solve must survive a poisoned spill dir: {resp}"
    );
    assert!(
        stat(&service, "spill", "spilled") >= 1.0,
        "fresh artifacts must still spill"
    );
    assert_eq!(stat(&service, "spill", "errors"), 0.0);
    drop(service);

    // A restart loads what the solve spilled and re-skips the junk.
    let reborn = Service::new(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert!(stat(&reborn, "spill", "loaded") >= 1.0);
    assert_eq!(stat(&reborn, "spill", "skipped"), 3.0);
    drop(reborn);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A solve drained during shutdown still spills its artifacts: the
/// write-behind happens on the inline path too, so a daemon that goes
/// down mid-request leaves a warm disk tier behind.
#[test]
fn draining_shutdown_still_spills_artifacts() {
    let dir = scratch_dir("drain-spill");
    let cfg = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = thread::spawn(move || server.run().unwrap());

    // The solve goes on the wire first; shutdown races it from a second
    // connection, so it completes on the drain (or inline) path.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &solve_frame(streamit("FFT"), "greedy,dpa1d", &[]),
    )
    .unwrap();
    let mut control = Client::connect_tcp(addr).unwrap();
    control.shutdown().unwrap();
    drop(control);

    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let resp = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let drained_bits = energy_bits(&resp).expect("drained solve must carry an energy");
    daemon.join().unwrap();

    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("xpa"))
        .collect();
    assert!(
        !spilled.is_empty(),
        "the drained solve must leave spill files behind"
    );

    // And they make the next daemon warm, with the same answer.
    let reborn = Service::new(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert!(stat(&reborn, "spill", "loaded") >= 1.0);
    let warm = reborn.handle(&solve_frame(streamit("FFT"), "greedy,dpa1d", &[]));
    assert_eq!(
        energy_bits(&warm),
        Some(drained_bits),
        "the reloaded artifacts must reproduce the drained solve bit-for-bit"
    );
    assert_eq!(
        warm.get("result")
            .and_then(|r| r.get("warm"))
            .and_then(Json::as_bool),
        Some(true),
        "first post-restart solve must be warm: {warm}"
    );
    drop(reborn);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batched scheduler and per-request dispatch are interchangeable in
/// results: same flows, same seeds, bit-identical energies and
/// feasibility — batching shifts latency, never answers.
#[test]
fn batched_and_unbatched_services_agree_bit_for_bit() {
    let batched = Service::new(ServeConfig::default());
    let direct = Service::new(ServeConfig {
        batching: false,
        ..ServeConfig::default()
    });
    for flow in ["FFT", "TDE", "Vocoder", "MPEG2-noparser"] {
        let req = solve_frame(streamit(flow), "greedy,dpa1d", &[]);
        let a = batched.handle(&req);
        let b = direct.handle(&req);
        assert_eq!(
            energy_bits(&a),
            energy_bits(&b),
            "{flow}: batched and per-request energies must match bit-for-bit"
        );
        assert_eq!(
            a.get("ok").and_then(Json::as_bool),
            b.get("ok").and_then(Json::as_bool),
            "{flow}: feasibility must agree"
        );
    }
    let sched = batched.scheduler_stats();
    assert!(
        sched.batches >= 4,
        "the batched service must have routed solves through the scheduler (got {sched:?})"
    );
    assert_eq!(direct.scheduler_stats().batches, 0);
}
