//! `campaign`: the paper's own computation through the in-process library.
//! One op builds a fresh `Instance` and runs `Portfolio::heuristics()` on
//! it, then re-validates every returned mapping with
//! `Instance::evaluate_mapping`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cmp_platform::RoutePolicy;
use ea_core::{Dpa1dConfig, Failure, Instance, Portfolio, PortfolioReport, Solver};
use spg::IdealError;

use crate::metrics::{run_window, trace_overhead, OpRecord, Window};
use crate::ops::{campaign_order, campaign_universe, list_hash, Prepared};
use crate::reference::Reference;
use crate::trace::{Span, TracedSolver, Tracer};
use crate::Outcome;

/// Set-ups before the window, and again after it; `setup_s` is the median
/// of all of them.
const SETUP_REPS: usize = 8;

/// The campaign's preparation: start the worker pool, then generate every
/// op's graph and platform and find each op's period bound (the §6.1.3
/// decade probe for the random SPGs), the ops in parallel on the pool as a
/// campaign driver prepares independent instances. A one-thread set-up
/// leaves the other CPU idle, and on a shared virtual machine a lone
/// thread's speed follows whatever the host runs beside it. The ops are
/// prepared in universe order and only then put in the seed's order, so
/// the set-up's work does not depend on the seed.
pub fn setup(seed: u64) -> Vec<Prepared> {
    use rayon::prelude::*;
    crate::start_pool();
    let preps: Vec<Prepared> = campaign_universe()
        .into_par_iter()
        .map(Prepared::new)
        .collect();
    campaign_order(preps, seed)
}

/// Deterministic work counts of one op.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    ideals: u64,
    transitions: u64,
    kept: u64,
    pruned: u64,
    evaluate_calls: u64,
}

/// A fresh session at the op's period bound (sharing the prepared graph
/// and platform, not their derived state).
fn fresh_instance(p: &Prepared) -> Instance {
    Instance::from_shared(Arc::clone(&p.spg), Arc::clone(&p.platform), p.period)
}

/// Re-validates every returned mapping at the instance's period and checks
/// the best energy against the reference. Returns the op's record fields
/// and the evaluate-call count; check failures go to `errors`.
fn check(
    p: &Prepared,
    inst: &Instance,
    report: &PortfolioReport,
    refs: &Reference,
    mut evaluate: impl FnMut(&dyn Fn() -> bool) -> bool,
    errors: &mut Vec<String>,
) -> (OpRecord, u64) {
    let mut calls = 0;
    for run in &report.runs {
        if let Ok(sol) = &run.result {
            calls += 1;
            let valid = evaluate(
                &|| matches!(inst.evaluate_mapping(&sol.mapping), Ok(ev) if ev.energy == sol.energy()),
            );
            if !valid {
                errors.push(format!(
                    "{}: {} returned a mapping that does not re-validate",
                    p.solve.key(),
                    run.name
                ));
            }
        }
    }
    let budget = report
        .runs
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .any(|f| f.budget_exceeded().is_some());
    let best = report.best_energy();
    let mut rec = OpRecord {
        ok: best.is_some() || !budget,
        solved: best.is_some(),
        ..Default::default()
    };
    match refs.check(&p.solve, best) {
        Ok(Some(ratio)) => rec.ratios.push(ratio),
        Ok(None) => {}
        Err(e) => errors.push(e),
    }
    (rec, calls)
}

/// Work counts the instance and report expose after the op.
fn counts_of(inst: &Instance, report: &PortfolioReport, evaluate_calls: u64) -> Counts {
    let mut c = Counts {
        evaluate_calls,
        ..Default::default()
    };
    let dpa1d = report.runs.iter().find(|r| r.name == "DPA1D");
    c.ideals = match (inst.cached_lattice(), dpa1d.map(|r| &r.result)) {
        (Some(l), _) => l.lattice.len() as u64,
        (None, Some(Err(Failure::TooExpensive(b)))) => b.count,
        _ => 0,
    };
    c.transitions = inst
        .cached_skeleton()
        .or_else(|| inst.cached_bounded_skeleton())
        .map_or(0, |s| s.n_transitions() as u64);
    if let Some(Ok(sol)) = dpa1d.map(|r| &r.result) {
        if let Some(p) = sol.prune {
            c.kept = p.transitions_kept;
            c.pruned = p.transitions_pruned;
        }
    }
    c
}

/// The untraced op: exactly what a campaign user runs.
fn plain_op(p: &Prepared, refs: &Reference, errors: &mut Vec<String>) -> (OpRecord, Counts) {
    let t0 = Instant::now();
    let inst = fresh_instance(p);
    let report = Portfolio::heuristics().seeded(p.solve.seed).run(&inst);
    let (mut rec, calls) = check(p, &inst, &report, refs, |f| f(), errors);
    rec.lat_ns = t0.elapsed().as_nanos() as u64;
    (rec, counts_of(&inst, &report, calls))
}

/// The traced op: the same work, split into the layer calls in sequence —
/// lattice, skeleton, route tables, the portfolio (each solver's `solve`
/// traced inside it), then `evaluate_mapping` on each returned mapping.
/// The route tables are built before the portfolio, because the first
/// solver would otherwise build them inside its own span.
fn traced_op(
    p: &Prepared,
    refs: &Reference,
    tracer: &Arc<Tracer>,
    op: u64,
    errors: &mut Vec<String>,
) -> (OpRecord, Counts) {
    let t0 = Instant::now();
    let root = tracer.id();
    let start = tracer.now();
    let inst = fresh_instance(p);
    let cfg = Dpa1dConfig::default();
    let lattice = tracer.span(Some(root), op, "ideal.enum", |_| {
        let r = inst.lattice(cfg.ideal_cap);
        let outcome = if r.is_ok() { "ok" } else { "cap" };
        (r, outcome)
    });
    if lattice.is_ok() {
        tracer.span(Some(root), op, "skeleton.build", |_| {
            let r = inst.transition_skeleton(&cfg);
            let outcome = if matches!(r, Ok(Some(_))) {
                "ok"
            } else {
                "none"
            };
            ((), outcome)
        });
    }
    tracer.span(Some(root), op, "route.build", |_| {
        inst.route_table(inst.platform().policy);
        inst.route_table(RoutePolicy::Snake);
        ((), "ok")
    });
    let report = tracer.span(Some(root), op, "portfolio", |id| {
        let solvers: Vec<Arc<dyn Solver>> = ea_core::solvers::default_heuristics()
            .into_iter()
            .map(|inner| {
                Arc::new(TracedSolver {
                    inner,
                    tracer: Arc::clone(tracer),
                    parent: id,
                    op,
                }) as Arc<dyn Solver>
            })
            .collect();
        (
            Portfolio::new(solvers).seeded(p.solve.seed).run(&inst),
            "ok",
        )
    });
    let evaluate = |f: &dyn Fn() -> bool| {
        tracer.span(Some(root), op, "evaluate", |_| {
            let ok = f();
            (ok, if ok { "ok" } else { "invalid" })
        })
    };
    let (mut rec, calls) = check(p, &inst, &report, refs, evaluate, errors);
    let mut counts = counts_of(&inst, &report, calls);
    if let Err(IdealError::LimitExceeded { found, .. }) = lattice {
        counts.ideals = found as u64;
    }
    tracer.record(Span {
        id: root,
        parent: None,
        op,
        name: "op".into(),
        start,
        end: tracer.now(),
        outcome: if rec.solved { "solved" } else { "unsolved" },
    });
    rec.lat_ns = t0.elapsed().as_nanos() as u64;
    (rec, counts)
}

/// Per-pass work counts of the first pass, by metric name. The ideal count
/// is named by what counted it: `ideal.count` is the traced op's own
/// enumeration (every op), `dpa1d.ideals` the enumeration DPA1D makes inside
/// the untraced portfolio (which rejects some ops before enumerating).
fn first_pass_counts(per_op: &[Counts], solved: usize, traced: bool) -> BTreeMap<String, u64> {
    let sum = |f: fn(&Counts) -> u64| per_op.iter().map(f).sum::<u64>();
    let ideals = if traced {
        "ideal.count"
    } else {
        "dpa1d.ideals"
    };
    BTreeMap::from([
        (ideals.to_string(), sum(|c| c.ideals)),
        ("skeleton.transitions".to_string(), sum(|c| c.transitions)),
        ("dpa1d.transitions_kept".to_string(), sum(|c| c.kept)),
        ("dpa1d.transitions_pruned".to_string(), sum(|c| c.pruned)),
        ("evaluate.calls".to_string(), sum(|c| c.evaluate_calls)),
        ("solved_ops".to_string(), solved as u64),
    ])
}

/// Runs the workload: set-up (repeated, median reported), then the
/// untraced window, or with `trace` a traced window followed by an
/// untraced one for the overhead comparison.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let refs = Reference::load();
    crate::sys::reset_peak_rss();
    let mut setup_times = Vec::new();
    let preps = crate::timed_setups(SETUP_REPS, &mut setup_times, || setup(seed), drop);
    let hash = list_hash(preps.iter().map(|p| p.solve.key()));
    let pass_len = preps.len();

    let window = |traced: Option<&Arc<Tracer>>, secs: f64| {
        let mut first: Vec<Counts> = Vec::new();
        let w = run_window(secs, |pass, w: &mut Window| {
            for (i, p) in preps.iter().enumerate() {
                let (rec, c) = match traced {
                    Some(t) => traced_op(p, &refs, t, (pass * pass_len + i) as u64, &mut w.errors),
                    None => plain_op(p, &refs, &mut w.errors),
                };
                if pass == 0 {
                    first.push(c);
                }
                w.ops.push(rec);
            }
        });
        let solved = w.ops[..pass_len].iter().filter(|o| o.solved).count();
        (w, first_pass_counts(&first, solved, traced.is_some()))
    };

    if !trace {
        let (w, counts) = window(None, seconds);
        let peak = crate::sys::peak_rss_mib();
        drop(crate::timed_setups(
            SETUP_REPS,
            &mut setup_times,
            || setup(seed),
            drop,
        ));
        let setup_s = crate::stats::median(&setup_times);
        let e2e = crate::metrics::end_to_end(setup_s, &w, peak);
        return Outcome::new(w, e2e, counts, hash);
    }
    let tracer = Tracer::new();
    let (tw, counts) = window(Some(&tracer), seconds / 2.0);
    let (uw, _) = window(None, seconds / 2.0);
    let spans = tracer.take();
    let mut layers = layer_metrics(&spans, tw.ops.len(), &counts);
    layers.insert("trace.overhead_frac".into(), trace_overhead(&tw, &uw));
    let mut out = Outcome::new(tw, layers, counts, hash);
    out.spans = spans;
    out.absent = crate::SERVE_LAYERS
        .iter()
        .map(|m| (m.to_string(), "campaign bypasses the daemon".to_string()))
        .collect();
    out.errors.extend(uw.errors);
    out
}

/// Per-layer metrics from the traced window's spans and the first pass's
/// counts.
fn layer_metrics(
    spans: &[Span],
    ops: usize,
    counts: &BTreeMap<String, u64>,
) -> crate::metrics::Metrics {
    let ops = ops as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |name: &str, outcome: Option<&str>| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name && outcome.is_none_or(|o| s.outcome == o))
            .map(Span::dur)
            .sum()
    };
    let calls = |name: &str, outcome: Option<&str>| {
        spans
            .iter()
            .filter(|s| s.name == name && outcome.is_none_or(|o| s.outcome == o))
            .count() as f64
    };
    let mut m = crate::metrics::Metrics::new();
    m.insert(
        "ideal.enum_ms".into(),
        ms(total("ideal.enum", Some("ok"))) / ops,
    );
    m.insert(
        "ideal.cap_fail_ms".into(),
        ms(total("ideal.enum", Some("cap"))) / ops,
    );
    m.insert(
        "skeleton.build_ms".into(),
        ms(total("skeleton.build", None)) / ops,
    );
    for (solver, key) in [
        ("DPA1D", "dpa1d"),
        ("DPA2D", "dpa2d"),
        ("DPA2D1D", "dpa2d1d"),
        ("Greedy", "greedy"),
        ("Random", "random"),
    ] {
        let name = format!("solve.{solver}");
        m.insert(format!("{key}.solve_ms"), ms(total(&name, None)) / ops);
        m.insert(
            format!("{key}.ok_frac"),
            calls(&name, Some("ok")) / calls(&name, None),
        );
    }
    let dpa2d = total("solve.DPA2D", None) as f64;
    let dpa2d_ok = total("solve.DPA2D", Some("ok")) as f64;
    m.insert("dpa2d.fail_ms_share".into(), (dpa2d - dpa2d_ok) / dpa2d);

    let width = rayon::current_num_threads() as f64;
    let (mut wall, mut critical, mut busy) = (0u64, 0u64, 0u64);
    for pf in spans.iter().filter(|s| s.name == "portfolio") {
        let kids = spans.iter().filter(|s| s.parent == Some(pf.id));
        wall += pf.dur();
        critical += kids.clone().map(Span::dur).max().unwrap_or(0);
        busy += kids.map(Span::dur).sum::<u64>();
    }
    m.insert("portfolio.wall_ms".into(), ms(wall) / ops);
    m.insert("portfolio.critical_ms".into(), ms(critical) / ops);
    m.insert(
        "portfolio.par_eff".into(),
        busy as f64 / (wall as f64 * width),
    );
    m.insert(
        "route.build_ms".into(),
        ms(total("route.build", None)) / ops,
    );
    m.insert("route.patched".into(), 0.0);
    m.insert("evaluate.ms".into(), ms(total("evaluate", None)) / ops);
    for (name, v) in counts {
        if name.contains('.') {
            m.insert(name.clone(), *v as f64);
        }
    }
    m
}
