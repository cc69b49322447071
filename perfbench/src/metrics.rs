//! Metric tables, the end-to-end computation shared by every workload, and
//! the result line.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::stats::{central, min_samples, percentile, supports};

/// The tail percentile every workload reports.
pub const TAIL_Q: f64 = 0.95;

/// `(name, unit, better, bound)` of each end-to-end metric; `bound` is the
/// share of the parent's median by which the metric may worsen.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("solved_frac", "ratio", "higher", 0.01),
    ("energy_ratio", "ratio", "lower", 0.01),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of each per-layer metric. Times are means per
/// op over the traced window; counts are per pass (the first pass of the
/// window, which starts from the same state on every run).
pub const PER_LAYER: [(&str, &str, &str); 42] = [
    ("ideal.enum_ms", "ms", "lower"),
    ("ideal.cap_fail_ms", "ms", "lower"),
    ("ideal.count", "count", "lower"),
    ("skeleton.build_ms", "ms", "lower"),
    ("skeleton.transitions", "count", "lower"),
    ("dpa1d.solve_ms", "ms", "lower"),
    ("dpa1d.transitions_kept", "count", "lower"),
    ("dpa1d.transitions_pruned", "count", "higher"),
    ("dpa1d.ok_frac", "ratio", "higher"),
    ("dpa2d.solve_ms", "ms", "lower"),
    ("dpa2d.fail_ms_share", "ratio", "lower"),
    ("dpa2d.ok_frac", "ratio", "higher"),
    ("dpa2d1d.solve_ms", "ms", "lower"),
    ("dpa2d1d.ok_frac", "ratio", "higher"),
    ("greedy.solve_ms", "ms", "lower"),
    ("greedy.ok_frac", "ratio", "higher"),
    ("random.solve_ms", "ms", "lower"),
    ("random.ok_frac", "ratio", "higher"),
    ("portfolio.wall_ms", "ms", "lower"),
    ("portfolio.critical_ms", "ms", "lower"),
    ("portfolio.par_eff", "ratio", "higher"),
    ("route.build_ms", "ms", "lower"),
    ("route.patched", "count", "higher"),
    ("evaluate.calls", "count", "lower"),
    ("evaluate.ms", "ms", "lower"),
    ("daemon.solve_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.frame_bytes", "bytes", "lower"),
    ("scheduler.batches", "count", "lower"),
    ("scheduler.mean_batch", "ratio", "higher"),
    ("scheduler.deduped", "count", "higher"),
    ("scheduler.shed", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.warm_frac", "ratio", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("spill.spilled", "count", "lower"),
    ("spill.errors", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// The base of every ratio metric: what it is a share of.
pub const RATIO_BASES: [(&str, &str); 14] = [
    ("ok_frac", "ops attempted in the window"),
    ("solved_frac", "ops attempted in the window"),
    (
        "energy_ratio",
        "reference energy, averaged over solved answers",
    ),
    ("dpa1d.ok_frac", "DPA1D solve calls"),
    ("dpa2d.fail_ms_share", "total DPA2D solve time"),
    ("dpa2d.ok_frac", "DPA2D solve calls"),
    ("dpa2d1d.ok_frac", "DPA2D1D solve calls"),
    ("greedy.ok_frac", "Greedy solve calls"),
    ("random.ok_frac", "Random solve calls"),
    ("portfolio.par_eff", "portfolio wall x pool width"),
    (
        "scheduler.mean_batch",
        "scheduler batches (requests per batch)",
    ),
    ("cache.hit_rate", "cache lookups (hits + misses)"),
    ("cache.warm_frac", "solve responses carrying a result"),
    ("trace.overhead_frac", "untraced mean op latency"),
];

/// The base a ratio metric states, if it is a ratio.
pub fn ratio_base(name: &str) -> Option<&'static str> {
    RATIO_BASES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, b)| *b)
}

/// One op as the window saw it.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Wall time of the op in ns.
    pub lat_ns: u64,
    /// Answered with a result or a `no_valid_mapping` failure.
    pub ok: bool,
    /// Returned a valid mapping (every point, for a sweep).
    pub solved: bool,
    /// `returned / reference` for each solved answer.
    pub ratios: Vec<f64>,
}

/// A timed window: whole passes over the op list.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: Vec<OpRecord>,
    pub wall: Duration,
    pub cpu: Duration,
    pub passes: usize,
    /// Wall time of each pass, in order (shows drift inside a run).
    pub pass_walls: Vec<Duration>,
    /// `ops` index one past each pass's last op.
    pub pass_ends: Vec<usize>,
    /// Output-check failures (drift, invalid mappings).
    pub errors: Vec<String>,
}

impl Window {
    /// Indices of the central passes (see [`central`]).
    pub fn central_passes(&self) -> Vec<usize> {
        let walls: Vec<f64> = self.pass_walls.iter().map(Duration::as_secs_f64).collect();
        central(&walls)
    }

    /// The central passes' ops, and their summed wall time.
    pub fn central(&self) -> (Vec<&OpRecord>, Duration) {
        let mut ops = Vec::new();
        let mut wall = Duration::ZERO;
        for i in self.central_passes() {
            let start = if i == 0 { 0 } else { self.pass_ends[i - 1] };
            ops.extend(&self.ops[start..self.pass_ends[i]]);
            wall += self.pass_walls[i];
        }
        (ops, wall)
    }
}

/// Runs whole passes until `seconds` would be exceeded by the next one,
/// but at least until the central passes hold enough ops for the tail
/// percentile.
pub fn run_window(seconds: f64, mut pass: impl FnMut(usize, &mut Window)) -> Window {
    let mut w = Window::default();
    let cpu0 = crate::sys::process_cpu();
    let t0 = std::time::Instant::now();
    loop {
        let p0 = std::time::Instant::now();
        pass(w.passes, &mut w);
        w.pass_walls.push(p0.elapsed());
        w.pass_ends.push(w.ops.len());
        w.passes += 1;
        let el = t0.elapsed().as_secs_f64();
        let next_end = el + el / w.passes as f64;
        if w.central().0.len() >= min_samples(TAIL_Q) && next_end > seconds {
            break;
        }
    }
    w.wall = t0.elapsed();
    w.cpu = crate::sys::process_cpu() - cpu0;
    w
}

/// Tracing overhead: the traced window's mean op latency over the
/// untraced window's, minus 1.
pub fn trace_overhead(traced: &Window, untraced: &Window) -> f64 {
    let mean = |w: &Window| w.ops.iter().map(|o| o.lat_ns as f64).sum::<f64>() / w.ops.len() as f64;
    mean(traced) / mean(untraced) - 1.0
}

/// Named metric values, printed in table order.
pub type Metrics = BTreeMap<String, f64>;

/// The end-to-end metrics of a window. Throughput and latencies come from
/// the central passes; CPU time, which host noise hardly moves, and the
/// answer fractions from every op of the window.
pub fn end_to_end(setup_s: f64, w: &Window, peak_rss_mb: f64) -> Metrics {
    let n = w.ops.len();
    let (mid, mid_wall) = w.central();
    assert!(
        supports(mid.len(), TAIL_Q),
        "central passes too small for p95"
    );
    let mut lat: Vec<f64> = mid.iter().map(|o| o.lat_ns as f64 / 1e6).collect();
    lat.sort_by(f64::total_cmp);
    let ratios: Vec<f64> = w
        .ops
        .iter()
        .flat_map(|o| o.ratios.iter().copied())
        .collect();
    let frac = |f: fn(&OpRecord) -> bool| w.ops.iter().filter(|o| f(o)).count() as f64 / n as f64;
    let mut m = Metrics::new();
    m.insert(
        "throughput_ops_s".into(),
        mid.len() as f64 / mid_wall.as_secs_f64(),
    );
    m.insert("latency_p50_ms".into(), percentile(&lat, 0.5));
    m.insert("latency_p95_ms".into(), percentile(&lat, TAIL_Q));
    m.insert("cpu_ms_per_op".into(), w.cpu.as_secs_f64() * 1e3 / n as f64);
    m.insert("peak_rss_mb".into(), peak_rss_mb);
    m.insert("ok_frac".into(), frac(|o| o.ok));
    m.insert("solved_frac".into(), frac(|o| o.solved));
    let energy_ratio = if ratios.is_empty() {
        f64::NAN
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    m.insert("energy_ratio".into(), energy_ratio);
    m.insert("setup_s".into(), setup_s);
    m
}

/// Prints the human-readable block for a metric table.
pub fn print_table(title: &str, metrics: &Metrics, units: &[(&str, &str)]) {
    println!("{title}");
    for (name, unit) in units {
        let Some(v) = metrics.get(*name) else {
            continue;
        };
        match ratio_base(name) {
            Some(base) => println!("  {name:<26} {v:>14.6} {unit:<6} (of {base})"),
            None => println!("  {name:<26} {v:>14.6} {unit}"),
        }
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics in
/// `units` order, each with its unit.
pub fn result_line(correct: bool, w: &Window, metrics: &Metrics, units: &[(&str, &str)]) -> String {
    let attempted = w.ops.len();
    let failed = w.ops.iter().filter(|o| !o.ok).count();
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `(name, unit)` of the end-to-end table.
pub fn e2e_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|(n, u, ..)| (*n, *u)).collect()
}

/// `(name, unit)` of the per-layer table.
pub fn layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::json::Json;

    #[test]
    fn every_ratio_states_its_base() {
        let all = END_TO_END
            .iter()
            .map(|(n, u, ..)| (*n, *u))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)));
        for (name, unit) in all {
            assert_eq!(
                unit == "ratio",
                ratio_base(name).is_some(),
                "{name}: a ratio must state its base, and only ratios do"
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = Json::parse(&text).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let w = Window {
            ops: vec![
                OpRecord {
                    ok: true,
                    ..Default::default()
                },
                OpRecord::default(),
            ],
            ..Default::default()
        };
        let mut m = Metrics::new();
        m.insert("setup_s".into(), 0.5);
        let line = result_line(true, &w, &m, &[("setup_s", "s")]);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
