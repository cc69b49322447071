//! Fault-injection remap campaign (`xp sweep --suite incremental`): how
//! fast does an **incremental re-solve** recover a mapping after a
//! platform fault or a workload retune, compared with rebuilding the
//! instance from scratch?
//!
//! For every StreamIt workflow the campaign warms one instance (paper 4×4
//! mesh, sweep-anchor period), then injects a seeded chain of events —
//! core faults, link faults, stage retunes, volume edits — drawn from a
//! `ChaCha8` stream. Each event is solved twice per sample:
//!
//! * **remap**: [`Instance::with_fault`]/[`Instance::with_edit`] patches
//!   the warm session and the portfolio re-solves on the surviving cached
//!   artifacts;
//! * **cold**: `Instance::new` rebuilds the equivalently faulted/edited
//!   instance from nothing and solves it.
//!
//! The two energies must be **bit-identical** per event — that is the
//! correctness contract of the delta-patch layer (`docs/fault-model.md`),
//! asserted here on every sample, not checked within a tolerance. Walls
//! are min-of-samples (remap latency is the cost a live re-solve pays, so
//! the best observed sample is the estimator). The committed
//! `BENCH_incremental.json` gates the deterministic energies, regrets and
//! event counts at the bench-check tolerance, keeps raw walls and
//! speedups advisory, and gates `incremental/streamit/speedup_median_ok`
//! — 1 iff the median remap-vs-cold speedup across all feasible events is
//! at least [`INCREMENTAL_SPEEDUP_GATE`]×.

use std::collections::HashMap;
use std::time::Instant;

use cmp_platform::{Fault, Platform, Topology};
use ea_core::json::fmt_f64;
use ea_core::{Instance, Portfolio, SolverRegistry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg::{streamit_workflow, EdgeId, Edit, Spg, StreamItSpec, STREAMIT_SPECS};

use crate::report::{fmt_table, median};
use crate::sweep_xp::sweep_anchor_period;

/// Events injected per workflow in the committed benchmark.
pub const INCREMENTAL_BENCH_EVENTS: usize = 3;

/// Wall-clock samples per event and mode (min-of-samples).
const INCREMENTAL_BENCH_SAMPLES: usize = 2;

/// The remap-vs-cold median speedup the committed benchmark certifies.
pub const INCREMENTAL_SPEEDUP_GATE: f64 = 2.0;

/// One injected event and its measured remap-vs-cold outcome.
#[derive(Debug, Clone)]
pub struct RemapEvent {
    /// Canonical event label, e.g. `core(1,2)`, `link(0,0-0,1)`,
    /// `retune(s4)`, `volume(e7)`.
    pub label: String,
    /// Best portfolio energy after the event (`None` = infeasible); equal
    /// between the remap and cold solves by assertion.
    pub energy: Option<f64>,
    /// Energy regret vs the healthy baseline (`energy − base_energy`);
    /// negative when an edit lowered the workload's demand.
    pub regret: Option<f64>,
    /// Min-of-samples wall of patch + re-solve on the warm session, ms.
    pub remap_wall_ms: f64,
    /// Min-of-samples wall of rebuild + solve from scratch, ms.
    pub cold_wall_ms: f64,
}

impl RemapEvent {
    /// Cold wall over remap wall — how much the delta patch saved.
    pub fn speedup(&self) -> f64 {
        self.cold_wall_ms / self.remap_wall_ms.max(1e-9)
    }
}

/// One workflow's seeded fault/edit chain.
#[derive(Debug, Clone)]
pub struct RemapCampaign {
    /// Workflow name (Table 1).
    pub workflow: String,
    /// Best portfolio energy on the healthy instance.
    pub base_energy: Option<f64>,
    /// The injected events, in chain order (each applies on top of the
    /// previous one's platform/workload state).
    pub events: Vec<RemapEvent>,
}

impl RemapCampaign {
    /// Events that still admitted a mapping.
    pub fn feasible_events(&self) -> usize {
        self.events.iter().filter(|e| e.energy.is_some()).count()
    }

    /// Median post-event energy over the feasible events.
    pub fn median_energy(&self) -> Option<f64> {
        median(self.events.iter().filter_map(|e| e.energy).collect())
    }

    /// Median energy regret over the feasible events.
    pub fn median_regret(&self) -> Option<f64> {
        median(self.events.iter().filter_map(|e| e.regret).collect())
    }

    /// Median remap-vs-cold speedup over the feasible events.
    pub fn median_speedup(&self) -> Option<f64> {
        median(
            self.events
                .iter()
                .filter(|e| e.energy.is_some())
                .map(RemapEvent::speedup)
                .collect(),
        )
    }
}

/// The remap portfolio: the two fault-capable deterministic heuristics
/// (`DPA2D`/`DPA2D1D` decline faulted platforms by design).
fn remap_portfolio(seed: u64) -> Portfolio {
    let solvers = SolverRegistry::with_defaults()
        .parse_list("greedy,dpa1d")
        .expect("default registry knows greedy and dpa1d");
    Portfolio::new(solvers).seeded(seed)
}

/// An event to inject: a platform fault or a workload edit.
#[derive(Debug, Clone, Copy)]
enum Patch {
    Fault(Fault),
    Edit(Edit),
}

/// Draws the next event from the seeded stream: 50% core fault, 25% link
/// fault, 25% edit (retune/volume alternating by a further draw). Core
/// faults keep at least two cores alive; when that is impossible — or no
/// link candidate survives 64 draws — the draw degrades to a retune so
/// the chain never stalls.
fn draw_event(rng: &mut ChaCha8Rng, g: &Spg, pf: &Platform) -> (String, Patch) {
    let kind = rng.gen_range(0..4u32);
    if kind <= 1 {
        let alive: Vec<_> = pf.alive_cores().collect();
        if alive.len() > 2 {
            let c = alive[rng.gen_range(0..alive.len())];
            return (
                format!("core({},{})", c.u, c.v),
                Patch::Fault(Fault::Core(c)),
            );
        }
    } else if kind == 2 {
        let topo = pf.topo();
        for _ in 0..64 {
            let a = cmp_platform::CoreId {
                u: rng.gen_range(0..pf.p),
                v: rng.gen_range(0..pf.q),
            };
            let dir = rng.gen_range(0..4usize);
            if let Some(b) = topo.step(a, dir) {
                return (
                    format!("link({},{}-{},{})", a.u, a.v, b.u, b.v),
                    Patch::Fault(Fault::Link(a, b)),
                );
            }
        }
    } else if kind == 3 && rng.gen_range(0..2u32) == 0 && !g.edges().is_empty() {
        let e = EdgeId(rng.gen_range(0..g.edges().len() as u32));
        let volume = g.edge(e).volume * 1.25;
        return (
            format!("volume(e{})", e.idx()),
            Patch::Edit(Edit::SetVolume { edge: e, volume }),
        );
    }
    let stage = g.topo_order()[rng.gen_range(0..g.n())];
    let work = g.weight(stage) * 1.1;
    (
        format!("retune(s{})", stage.idx()),
        Patch::Edit(Edit::Retune { stage, work }),
    )
}

fn min_wall(walls: &[f64]) -> f64 {
    walls.iter().fold(f64::INFINITY, |a, &b| a.min(b))
}

/// Runs one workflow's chain. Panics if any remap energy differs from the
/// cold rebuild's — bit-identity is the contract, not a tolerance.
fn one_campaign(
    name: &str,
    g0: Spg,
    pf0: Platform,
    period: f64,
    seed: u64,
    event_seed: u64,
    n_events: usize,
) -> RemapCampaign {
    let portfolio = remap_portfolio(seed);
    let mut rng = ChaCha8Rng::seed_from_u64(event_seed);

    // Warm base: one cold solve materialises the lattice, skeleton and
    // route table the remap side is allowed to keep. Every remap re-solves
    // this session family, so it declares reuse: `DPA1D` builds the
    // (fault-invariant) skeleton instead of streaming a one-shot solve.
    let mut warm = Instance::new(g0.clone(), pf0.clone(), period);
    warm.note_period_ceiling(period);
    let base_energy = portfolio.run(&warm).best_energy();

    let mut g_cur = g0;
    let mut pf_cur = pf0;
    let mut events = Vec::new();
    for _ in 0..n_events {
        let (label, patch) = draw_event(&mut rng, &g_cur, &pf_cur);
        let (g_next, pf_next) = match &patch {
            Patch::Fault(f) => (g_cur.clone(), pf_cur.with_fault(*f)),
            Patch::Edit(e) => (g_cur.with_edit(e), pf_cur.clone()),
        };
        let mut remap_walls = Vec::new();
        let mut cold_walls = Vec::new();
        let mut energy = None;
        let mut next_warm = None;
        for _ in 0..INCREMENTAL_BENCH_SAMPLES {
            let started = Instant::now();
            let patched = match &patch {
                Patch::Fault(f) => warm.with_fault(*f),
                Patch::Edit(e) => warm.with_edit(e),
            };
            let remap_energy = portfolio.run(&patched).best_energy();
            remap_walls.push(started.elapsed().as_secs_f64() * 1e3);

            let started = Instant::now();
            let cold = Instance::new(g_next.clone(), pf_next.clone(), period);
            let cold_energy = portfolio.run(&cold).best_energy();
            cold_walls.push(started.elapsed().as_secs_f64() * 1e3);

            assert_eq!(
                remap_energy, cold_energy,
                "{name}/{label}: the patched solve must be bit-identical \
                 to a cold solve on the rebuilt instance"
            );
            energy = remap_energy;
            next_warm = Some(patched);
        }
        events.push(RemapEvent {
            label,
            energy,
            regret: match (energy, base_energy) {
                (Some(e), Some(b)) => Some(e - b),
                _ => None,
            },
            remap_wall_ms: min_wall(&remap_walls),
            cold_wall_ms: min_wall(&cold_walls),
        });
        warm = next_warm.expect("at least one sample ran");
        g_cur = g_next;
        pf_cur = pf_next;
    }
    RemapCampaign {
        workflow: name.to_string(),
        base_energy,
        events,
    }
}

/// Runs the seeded fault/edit chain over the given workflows on the
/// paper's 4×4 mesh at each workflow's sweep-anchor period.
pub fn incremental_campaign(
    specs: &[StreamItSpec],
    seed: u64,
    n_events: usize,
) -> Vec<RemapCampaign> {
    let pf = Platform::paper(4, 4);
    specs
        .iter()
        .map(|spec| {
            let g = streamit_workflow(spec, seed);
            let period = sweep_anchor_period(&g);
            let event_seed = seed.wrapping_add(spec.index as u64 * 0x9E37_79B9);
            one_campaign(spec.name, g, pf.clone(), period, seed, event_seed, n_events)
        })
        .collect()
}

/// The full committed benchmark: all 12 StreamIt workflows at
/// [`INCREMENTAL_BENCH_EVENTS`] events each.
pub fn incremental_bench(seed: u64) -> Vec<RemapCampaign> {
    incremental_campaign(&STREAMIT_SPECS, seed, INCREMENTAL_BENCH_EVENTS)
}

/// Median remap-vs-cold speedup over every feasible event of every
/// workflow — the quantity the committed gate certifies.
pub fn campaign_median_speedup(campaigns: &[RemapCampaign]) -> Option<f64> {
    median(
        campaigns
            .iter()
            .flat_map(|c| c.events.iter())
            .filter(|e| e.energy.is_some())
            .map(RemapEvent::speedup)
            .collect(),
    )
}

/// Canonical campaign record: one JSON line per event, deterministic
/// fields only (no walls), so equal fault seeds produce byte-identical
/// output — pinned by a test and usable as a regression artifact.
pub fn campaign_jsonl(campaigns: &[RemapCampaign]) -> String {
    let mut out = String::new();
    for c in campaigns {
        for (i, e) in c.events.iter().enumerate() {
            let energy = e.energy.map_or("null".to_string(), fmt_f64);
            let regret = e.regret.map_or("null".to_string(), fmt_f64);
            out.push_str(&format!(
                "{{\"workflow\": \"{}\", \"event\": {i}, \"patch\": \"{}\", \
                 \"energy\": {energy}, \"regret\": {regret}}}\n",
                c.workflow, e.label
            ));
        }
    }
    out
}

/// The `BENCH_incremental.json` document. Energies, regrets, event
/// counts, and the speedup-median gate bit gate (deterministic); walls
/// and speedups advise.
pub fn incremental_bench_json(campaigns: &[RemapCampaign]) -> String {
    let mut entries = Vec::new();
    for c in campaigns {
        let prefix = format!("incremental/{}", c.workflow);
        if let Some(b) = c.base_energy {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/base_energy\", \"value\": {}, \"unit\": \"J\"}}",
                fmt_f64(b)
            ));
        }
        if let Some(med) = c.median_energy() {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/remap_energy_median\", \"value\": {}, \"unit\": \"J\"}}",
                fmt_f64(med)
            ));
        }
        if let Some(med) = c.median_regret() {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/regret_median\", \"value\": {}, \"unit\": \"J\"}}",
                fmt_f64(med)
            ));
        }
        entries.push(format!(
            "    {{\"name\": \"{prefix}/feasible_events\", \"value\": {}, \"unit\": \"count\"}}",
            c.feasible_events()
        ));
        let remap_med = median(c.events.iter().map(|e| e.remap_wall_ms).collect());
        let cold_med = median(c.events.iter().map(|e| e.cold_wall_ms).collect());
        if let Some(w) = remap_med {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/remap_wall\", \"value\": {}, \"unit\": \"ms\"}}",
                fmt_f64(w)
            ));
        }
        if let Some(w) = cold_med {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/cold_wall\", \"value\": {}, \"unit\": \"ms\"}}",
                fmt_f64(w)
            ));
        }
        if let Some(s) = c.median_speedup() {
            entries.push(format!(
                "    {{\"name\": \"{prefix}/speedup\", \"value\": {}, \"unit\": \"speedup\"}}",
                fmt_f64(s)
            ));
        }
    }
    let events_total: usize = campaigns.iter().map(|c| c.events.len()).sum();
    entries.push(format!(
        "    {{\"name\": \"incremental/streamit/events_total\", \"value\": {events_total}, \
         \"unit\": \"count\"}}"
    ));
    let ok =
        campaign_median_speedup(campaigns).is_some_and(|s| s >= INCREMENTAL_SPEEDUP_GATE) as u32;
    entries.push(format!(
        "    {{\"name\": \"incremental/streamit/speedup_median_ok\", \"value\": {ok}, \
         \"unit\": \"count\"}}"
    ));
    format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Text report: one row per workflow, campaign-wide gate verdict last.
pub fn incremental_bench_text(campaigns: &[RemapCampaign]) -> String {
    let rows: Vec<Vec<String>> = campaigns
        .iter()
        .map(|c| {
            vec![
                c.workflow.clone(),
                c.base_energy.map_or("-".into(), |e| format!("{e:.4e}")),
                format!("{}/{}", c.feasible_events(), c.events.len()),
                c.median_regret()
                    .map_or("-".into(), |r| format!("{r:+.3e}")),
                median(c.events.iter().map(|e| e.remap_wall_ms).collect())
                    .map_or("-".into(), |w| format!("{w:.2}")),
                median(c.events.iter().map(|e| e.cold_wall_ms).collect())
                    .map_or("-".into(), |w| format!("{w:.2}")),
                c.median_speedup()
                    .map_or("-".into(), |s| format!("{s:.1}x")),
            ]
        })
        .collect();
    let mut out = fmt_table(
        "incremental remap-vs-cold (StreamIt fault campaign, 4x4 mesh)",
        &[
            "workflow",
            "E_base (J)",
            "feasible",
            "regret (J)",
            "remap (ms)",
            "cold (ms)",
            "speedup",
        ],
        &rows,
    );
    match campaign_median_speedup(campaigns) {
        Some(s) => out.push_str(&format!(
            "median remap speedup: {s:.1}x (gate: >= {INCREMENTAL_SPEEDUP_GATE:.0}x)\n"
        )),
        None => out.push_str("median remap speedup: - (no feasible events)\n"),
    }
    out
}

/// Injects the benchmark's metrics into a bench-check fresh map under the
/// exact names `incremental_bench_json` commits.
pub fn fresh_incremental_metrics(campaigns: &[RemapCampaign], fresh: &mut HashMap<String, f64>) {
    if let Ok(metrics) = crate::bench_check::parse_bench_metrics(&incremental_bench_json(campaigns))
    {
        for m in metrics {
            fresh.insert(m.name, m.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three smallest Table 1 workflows — enough to exercise core,
    /// link, and edit events without enumerating the monster lattices.
    fn small_specs() -> Vec<StreamItSpec> {
        let mut specs: Vec<StreamItSpec> = STREAMIT_SPECS.to_vec();
        specs.sort_by_key(|s| s.n);
        specs.truncate(3);
        specs
    }

    #[test]
    fn fault_seed_determinism_and_remap_equivalence() {
        // The per-sample assert_eq! inside one_campaign is the
        // patched-vs-cold equivalence pin; running the campaign twice
        // pins byte-identical JSONL for equal fault seeds.
        let a = incremental_campaign(&small_specs(), 2011, 2);
        let b = incremental_campaign(&small_specs(), 2011, 2);
        assert!(
            a.iter().any(|c| c.feasible_events() > 0),
            "campaign must produce feasible events"
        );
        assert_eq!(
            campaign_jsonl(&a),
            campaign_jsonl(&b),
            "same fault seed must reproduce the campaign record byte for byte"
        );
        let c = incremental_campaign(&small_specs(), 2012, 2);
        assert_ne!(
            campaign_jsonl(&a),
            campaign_jsonl(&c),
            "a different seed must draw a different chain"
        );
    }

    #[test]
    fn incremental_bench_json_shape_parses() {
        let campaigns = vec![RemapCampaign {
            workflow: "Fake".into(),
            base_energy: Some(2.0),
            events: vec![
                RemapEvent {
                    label: "core(0,0)".into(),
                    energy: Some(2.5),
                    regret: Some(0.5),
                    remap_wall_ms: 1.0,
                    cold_wall_ms: 5.0,
                },
                RemapEvent {
                    label: "retune(s1)".into(),
                    energy: None,
                    regret: None,
                    remap_wall_ms: 1.0,
                    cold_wall_ms: 2.0,
                },
            ],
        }];
        let doc = incremental_bench_json(&campaigns);
        let metrics = crate::bench_check::parse_bench_metrics(&doc).unwrap();
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("incremental/Fake/base_energy").value, 2.0);
        assert_eq!(get("incremental/Fake/remap_energy_median").value, 2.5);
        assert_eq!(get("incremental/Fake/regret_median").value, 0.5);
        assert_eq!(get("incremental/Fake/feasible_events").value, 1.0);
        assert_eq!(get("incremental/streamit/events_total").value, 2.0);
        assert_eq!(
            get("incremental/Fake/speedup").unit,
            "speedup",
            "raw speedups must stay advisory"
        );
        // One feasible event at 5x: the median gate bit is set.
        assert_eq!(get("incremental/streamit/speedup_median_ok").value, 1.0);
        let mut fresh = HashMap::new();
        fresh_incremental_metrics(&campaigns, &mut fresh);
        assert_eq!(fresh["incremental/Fake/remap_energy_median"], 2.5);
        assert!(incremental_bench_text(&campaigns).contains("median remap speedup"));
    }

    #[test]
    fn speedup_gate_trips_below_threshold() {
        let slow = vec![RemapCampaign {
            workflow: "Fake".into(),
            base_energy: Some(1.0),
            events: vec![RemapEvent {
                label: "core(0,0)".into(),
                energy: Some(1.0),
                regret: Some(0.0),
                remap_wall_ms: 4.0,
                cold_wall_ms: 5.0,
            }],
        }];
        let doc = incremental_bench_json(&slow);
        let metrics = crate::bench_check::parse_bench_metrics(&doc).unwrap();
        let ok = metrics
            .iter()
            .find(|m| m.name == "incremental/streamit/speedup_median_ok")
            .unwrap();
        assert_eq!(ok.value, 0.0, "1.25x median must not certify the 2x gate");
    }

    #[test]
    fn jsonl_is_one_record_per_event() {
        let campaigns = incremental_campaign(&small_specs()[..1], 7, 2);
        let doc = campaign_jsonl(&campaigns);
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"workflow\""));
            assert!(!line.contains("wall"), "walls must stay out of the record");
        }
    }
}
