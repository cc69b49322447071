//! Benchmark harness for the SPG-on-CMP mapping workspace.
//!
//! ```text
//! perfbench --workload campaign|serve-hot|serve-churn|all --seed N --seconds S --trace 0|1
//! perfbench --steady --workload W --runs N --seed N --seconds S
//! perfbench --write-reference
//! ```
//!
//! A run sets up several times, measures whole passes over the workload's
//! seeded op list for about `--seconds`, sets up several times again (the
//! median of all set-ups is `setup_s`), checks every answer against
//! `reference.tsv`, prints every metric by name with its unit, and ends
//! with one JSON result line. `--trace 1` reports the
//! per-layer metrics instead: a traced window (spans around each layer
//! call, written to `.bench_out/`) followed by an untraced one, whose
//! difference is the tracing overhead. The process exits non-zero when an
//! output check fails.

mod campaign;
mod metrics;
mod ops;
mod reference;
mod serve;
mod stats;
mod steady;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use metrics::{e2e_units, layer_units, print_table, result_line, Metrics, Window};
use trace::Span;

/// Per-layer metrics of the daemon layers (absent from `campaign`).
pub const SERVE_LAYERS: [&str; 17] = [
    "daemon.solve_ms",
    "serve.overhead_ms",
    "protocol.encode_us",
    "protocol.decode_us",
    "protocol.frame_bytes",
    "scheduler.batches",
    "scheduler.mean_batch",
    "scheduler.deduped",
    "scheduler.shed",
    "cache.hit_rate",
    "cache.warm_frac",
    "cache.misses",
    "cache.evictions",
    "cache.bytes",
    "spill.spilled",
    "spill.errors",
    "route.patched",
];

/// Per-layer metrics of the solver layers (absent from the daemon
/// workloads, whose solver calls happen inside the daemon).
pub const SOLVER_LAYERS: [&str; 24] = [
    "ideal.enum_ms",
    "ideal.cap_fail_ms",
    "ideal.count",
    "skeleton.build_ms",
    "skeleton.transitions",
    "dpa1d.solve_ms",
    "dpa1d.transitions_kept",
    "dpa1d.transitions_pruned",
    "dpa1d.ok_frac",
    "dpa2d.solve_ms",
    "dpa2d.fail_ms_share",
    "dpa2d.ok_frac",
    "dpa2d1d.solve_ms",
    "dpa2d1d.ok_frac",
    "greedy.solve_ms",
    "greedy.ok_frac",
    "random.solve_ms",
    "random.ok_frac",
    "portfolio.wall_ms",
    "portfolio.critical_ms",
    "portfolio.par_eff",
    "route.build_ms",
    "evaluate.calls",
    "evaluate.ms",
];

/// The workloads, in run order for `--workload all`.
pub const WORKLOADS: [&str; 3] = ["campaign", "serve-hot", "serve-churn"];

/// What one workload run produced.
pub struct Outcome {
    pub window: Window,
    pub metrics: Metrics,
    /// Deterministic work counts of the window's first pass.
    pub counts: BTreeMap<String, u64>,
    /// Hash of the pass's op list.
    pub hash: u64,
    pub spans: Vec<Span>,
    /// Metrics this workload cannot measure, with the reason.
    pub absent: Vec<(String, String)>,
    /// Output-check failures.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new(window: Window, metrics: Metrics, counts: BTreeMap<String, u64>, hash: u64) -> Self {
        Outcome {
            errors: window.errors.clone(),
            window,
            metrics,
            counts,
            hash,
            spans: Vec::new(),
            absent: Vec::new(),
        }
    }
}

/// Starts the global worker pool, so no timed op pays for its threads.
pub fn start_pool() {
    use rayon::prelude::*;
    let v: Vec<u64> = (0..64).collect();
    let s: u64 = v
        .into_par_iter()
        .map(|x| x * 2)
        .collect::<Vec<_>>()
        .iter()
        .sum();
    std::hint::black_box(s);
}

/// Runs a set-up `reps` times, appends each one's time in seconds to
/// `times`, and returns the last result. Each earlier result is handed to
/// `release` right after it is timed, outside the timing, so one set-up's
/// leftovers never inflate the next one's time or memory.
///
/// An untraced run sets up before its window and again after it, and
/// reports the median of all those times as `setup_s`: a slow spell of a
/// shared host, which lasts seconds, rarely covers both halves.
pub fn timed_setups<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut f: impl FnMut() -> T,
    mut release: impl FnMut(T),
) -> T {
    let mut last = None;
    for _ in 0..reps {
        if let Some(done) = last.take() {
            release(done);
        }
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: bool,
    runs: usize,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: false,
        runs: 10,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--steady" => a.steady = true,
            "--write-reference" => a.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.write_reference && !WORKLOADS.contains(&a.workload.as_str()) && a.workload != "all" {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if a.steady && a.workload == "all" {
        return Err("--steady checks one workload at a time".into());
    }
    if a.steady && a.runs < 2 {
        return Err("--steady needs --runs of at least 2".into());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// `--workload all`: each workload in its own process (its own peak RSS),
/// output passed through; the exit code is the worst child's.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut code = 0;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("run a workload process");
        code = code.max(status.code().unwrap_or(1));
    }
    code
}

/// Runs one workload.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match name {
        "campaign" => campaign::run(seed, seconds, trace),
        "serve-hot" => serve::run(serve::Kind::Hot, seed, seconds, trace),
        "serve-churn" => serve::run(serve::Kind::Churn, seed, seconds, trace),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Prints a workload's report; returns its result line and correctness.
fn report(name: &str, seed: u64, trace: bool, out: &mut Outcome) -> (String, bool) {
    let w = &out.window;
    let n = w.ops.len();
    println!("workload {name}  seed {seed}  trace {}", u8::from(trace));
    println!(
        "pool width {} (RAYON_NUM_THREADS={}; available parallelism {}); clients {}",
        rayon::current_num_threads(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        match name {
            "serve-hot" => ops::HOT_CLIENTS,
            "serve-churn" => 1,
            _ => 0,
        }
    );
    println!("op list hash {:016x}", out.hash);
    let (mid, mid_wall) = w.central();
    println!(
        "window {:.3} s, {} passes, {n} ops; central {} passes, {:.3} s, {} ops ({} beyond p95)",
        w.wall.as_secs_f64(),
        w.passes,
        w.central_passes().len(),
        mid_wall.as_secs_f64(),
        mid.len(),
        stats::samples_beyond(mid.len(), metrics::TAIL_Q)
    );
    let walls: Vec<String> = w
        .pass_walls
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    println!("pass walls (s) {}", walls.join(" "));
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("counts {{{}}}", counts.join(", "));
    let units = if trace { layer_units() } else { e2e_units() };
    for (metric, why) in &out.absent {
        if !out.metrics.contains_key(metric) {
            println!("absent {metric}: {why} (reported as 0)");
        }
    }
    for (metric, _) in &units {
        if !out.metrics.contains_key(*metric) && !out.absent.iter().any(|(m, _)| m == metric) {
            println!("absent {metric}: not measured on this workload (reported as 0)");
        }
    }
    print_table(
        if trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &out.metrics,
        &units,
    );
    if trace {
        let path = PathBuf::from(format!(".bench_out/spans-{name}-seed{seed}.jsonl"));
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => println!("spans {} written to {}", out.spans.len(), path.display()),
            Err(e) => out.errors.push(format!("cannot write spans: {e}")),
        }
    }
    for e in out.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty();
    (result_line(correct, w, &out.metrics, &units), correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.write_reference {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");
        std::fs::write(path, reference::compute_table()).expect("write reference.tsv");
        println!("wrote {path}");
        return;
    }
    if args.steady {
        std::process::exit(steady::run(
            &args.workload,
            args.runs,
            args.seed,
            args.seconds,
        ));
    }
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let mut out = run_workload(&args.workload, args.seed, args.seconds, args.trace);
    let (line, correct) = report(&args.workload, args.seed, args.trace, &mut out);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
