//! The `DPA2D` nested-DP benchmark (`BENCH_dpa2d.json`).
//!
//! Runs the nested DP that `DPA2D` and `DPA2D1D` share on two StreamIt
//! flows at utilisation 0.3: Vocoder on the 4×4 mesh (elevation 17, most
//! levels of a column empty) and Serpent on the 6×6 mesh (where `DPA2D`
//! fails after a full DP). Per `(flow, solver)` it records the DP's work
//! counts — inner DPs run (`ecol_calls`), candidate placements
//! (`place_calls`) and column tables built (`columns_built`) — which gate
//! in `xp bench-check`, and the median wall of a cold solve (a fresh
//! session, so the route table is built too) on a 1-worker pool, which
//! advises. `cargo run --release --example dpa2d_bench` prints the
//! document.

use std::time::Instant;

use cmp_platform::Platform;
use ea_core::dpa2d::work_counts;
use ea_core::{solvers, Instance, SolveCtx, Solver};
use spg::{streamit_workflow, STREAMIT_SPECS};

use crate::report::median;
use ea_core::json::fmt_f64;

/// The benchmark's instances: `(flow, grid side)`, at utilisation 0.3.
const INSTANCES: [(&str, u32); 2] = [("Vocoder", 4), ("Serpent", 6)];

/// Utilisation of every instance.
const UTILISATION: f64 = 0.3;

/// Cold solves per wall row (median).
const WALL_SAMPLES: usize = 5;

/// One row of `BENCH_dpa2d.json`: name, value, unit.
pub type Row = (String, f64, &'static str);

/// Runs the benchmark: three gated counts and one advisory wall per
/// `(instance, solver)`.
pub fn dpa2d_bench(seed: u64) -> Vec<Row> {
    let sequential = rayon::ThreadPool::new(1);
    let mut rows = Vec::new();
    for (flow, side) in INSTANCES {
        let spec = STREAMIT_SPECS
            .iter()
            .find(|s| s.name == flow)
            .expect("a Table 1 flow");
        let g = streamit_workflow(spec, seed);
        let pf = Platform::paper(side, side);
        let inst = Instance::for_utilisation(g, pf.clone(), UTILISATION);
        let line = pf.reshaped(1, side * side);
        let runs: [(&dyn Solver, &Platform); 2] =
            [(&solvers::Dpa2d, &pf), (&solvers::Dpa2d1d, &line)];
        for (solver, grid) in runs {
            let prefix = format!(
                "dpa2d/{flow}-{side}x{side}-u{UTILISATION}/{}",
                solver.name()
            );
            let work = work_counts(inst.spg(), grid, inst.period());
            for (count, value) in [
                ("ecol_calls", work.ecol_calls),
                ("place_calls", work.place_calls),
                ("columns_built", work.columns_built),
            ] {
                rows.push((format!("{prefix}/{count}"), value as f64, "count"));
            }
            let walls = (0..WALL_SAMPLES)
                .map(|_| {
                    let fresh = Instance::new(inst.spg().clone(), pf.clone(), inst.period());
                    let started = Instant::now();
                    let _ = sequential.install(|| solver.solve(&fresh, &SolveCtx::new(seed)));
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            rows.push((
                format!("{prefix}/solve_wall"),
                median(walls).unwrap_or(0.0),
                "ms",
            ));
        }
    }
    rows
}

/// The `BENCH_dpa2d.json` document.
pub fn dpa2d_bench_json(rows: &[Row]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "    {{\"name\": \"{name}\", \"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_f64(*value)
            )
        })
        .collect();
    format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}
