//! Steadiness check: runs one workload repeatedly, each run in its own
//! process and with its own seed, and reports each end-to-end metric's
//! median, quartiles and spread. The first seed then runs once more, so
//! every check has two runs of one seed to compare. Fails when any spread
//! exceeds the metric's bound, or when a deterministic count or the op-list
//! hash differs between two runs of the same seed.

use std::collections::BTreeMap;
use std::process::Command;

use ea_core::json::Json;

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles, spread};

/// One child run's result line and first-pass counts.
struct RunResult {
    seed: u64,
    metrics: BTreeMap<String, f64>,
    counts: String,
    hash: String,
}

fn child(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run with seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(str::to_string)
            .ok_or(format!("no '{prefix}' line"))
    };
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(last)?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (k, v) in m {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                metrics.insert(k.clone(), x);
            }
        }
    }
    Ok(RunResult {
        seed,
        metrics,
        counts: line("counts ")?,
        hash: line("op list hash ")?,
    })
}

/// Runs the check; returns the process exit code.
pub fn run(workload: &str, runs: usize, seed: u64, seconds: f64) -> i32 {
    let mut results = Vec::new();
    let seeds = (0..runs as u64).map(|i| seed + i).chain([seed]);
    for (i, s) in seeds.enumerate() {
        let steal0 = crate::sys::host_steal_s();
        match child(workload, s, seconds) {
            Ok(r) => {
                // Host steal shows which slow runs the machine explains.
                let steal = match (steal0, crate::sys::host_steal_s()) {
                    (Some(a), Some(b)) => format!("{:.2} s", b - a),
                    _ => "unknown".into(),
                };
                let m = |name: &str| r.metrics.get(name).copied().unwrap_or(f64::NAN);
                println!(
                    "run {i} seed {s}: {:.3} ops/s, p50 {:.3} ms, p95 {:.3} ms, \
                     setup {:.4} s, host steal {steal}; counts {}",
                    m("throughput_ops_s"),
                    m("latency_p50_ms"),
                    m("latency_p95_ms"),
                    m("setup_s"),
                    r.counts
                );
                results.push(r);
            }
            Err(e) => {
                eprintln!("steady: {e}");
                return 1;
            }
        }
    }
    let mut failed = false;
    // The repeat of the first seed only checks the counts; the spreads are
    // over one run per seed.
    let distinct = &results[..runs];
    println!(
        "{workload}: {runs} runs of {seconds} s, seeds {seed}..{}",
        seed + runs as u64 - 1
    );
    println!(
        "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, _, _, bound) in END_TO_END {
        let values: Vec<f64> = distinct
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, _, q3] = quartiles(&values);
        let sp = spread(&values);
        let verdict = if sp > bound {
            failed = true;
            "EXCEEDS BOUND"
        } else if sp > bound / 3.0 {
            "above a third of the bound"
        } else {
            ""
        };
        println!(
            "  {name:<18} {q1:>12.6} {:>12.6} {q3:>12.6} {sp:>8.4} {bound:>6} {verdict}",
            median(&values)
        );
    }
    let mut groups: BTreeMap<u64, Vec<&RunResult>> = BTreeMap::new();
    for r in &results {
        groups.entry(r.seed).or_default().push(r);
    }
    for group in groups.values() {
        if group.iter().any(|r| r.counts != group[0].counts) {
            failed = true;
            println!("  deterministic counts differ between runs of one seed:");
            for r in group {
                println!("    seed {}: {}", r.seed, r.counts);
            }
        }
    }
    let mut hashes: BTreeMap<u64, &str> = BTreeMap::new();
    for r in &results {
        if *hashes.entry(r.seed).or_insert(&r.hash) != r.hash {
            failed = true;
            println!("  op list hash differs between runs of seed {}", r.seed);
        }
    }
    if failed {
        println!("steadiness check FAILED");
        1
    } else {
        println!("steadiness check passed; seed {seed} ran twice with identical counts");
        0
    }
}
