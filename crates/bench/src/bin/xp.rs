//! `xp` — regenerates every table and figure of the paper.
//!
//! ```text
//! xp <command> [--seed N] [--apps-per-point N] [--exact-count N]
//!              [--solvers a,b,c] [--topology mesh|torus|ring]
//!              [--routing xy|yx|shortest] [--out DIR]
//!              [--campaign smoke|nightly|FILE.json] [--shard I/M]
//!              [--input FILE]... [--bench FILE]... [--tolerance F]
//!              [--points N] [--size N] [--suite streamit|prune|incremental]
//!              [--faults N]
//!
//! commands:
//!   table1        Table 1  (StreamIt characteristics)
//!   fig8          Figure 8 (StreamIt, 4x4, normalised energy)
//!   fig9          Figure 9 (StreamIt, 6x6, normalised energy)
//!   table2        Table 2  (StreamIt failures; runs fig8+fig9 campaigns)
//!   fig10         Figure 10 (random SPGs, n=50,  4x4)
//!   fig11         Figure 11 (random SPGs, n=50,  6x6)
//!   fig12         Figure 12 (random SPGs, n=150, 4x4)
//!   fig13         Figure 13 (random SPGs, n=150, 6x6)
//!   table3        Table 3  (random-SPG failures; fig10's campaign)
//!   exact         Exact-vs-heuristics on 2x2 (ILP substitute, §4.4)
//!   ablation-routing | ablation-downgrade | ablation-ebit
//!   ablation-speedrule | ablation-refine
//!   topology      Mesh vs torus vs ring on the StreamIt suite (4x4)
//!   smoke         One small instance end-to-end on --topology/--routing
//!   sweep         Utilisation sweeps per workload family (--points,
//!                 --size; curves as CSV in --out), or the StreamIt decade
//!                 benchmark with --suite streamit (writes BENCH_sweep.json
//!                 to --out: amortized-vs-naive walls + per-point energies),
//!                 or the dominance-pruning benchmark with --suite prune
//!                 (DPA1D decade sweeps over StreamIt + a ≥256-stage
//!                 generated workload: scan ratios, bound gaps, walls;
//!                 writes BENCH_prune.json to --out),
//!                 or the fault-injection remap campaign with --suite
//!                 incremental (--faults events per workflow; incremental
//!                 re-solve vs cold rebuild, bit-identity asserted; writes
//!                 BENCH_incremental.json + incremental_events.jsonl)
//!   campaign      Sharded resumable synthetic-family campaign (--campaign
//!                 names a preset or a spec .json file, --shard; results as
//!                 JSONL + BENCH summary in --out)
//!   campaign-merge  Merge shard .jsonl artifacts (--input, repeatable)
//!                 into the canonical key-sorted final file in --out,
//!                 verifying exact key coverage against --campaign; exits 1
//!                 on overlapping, missing, or foreign keys
//!   bench-check   Perf-regression gate: recompute and compare against the
//!                 committed BENCH_*.json (--bench, --tolerance); exits
//!                 non-zero on a deterministic-metric regression
//!   pool-bench    Work-stealing pool microbenchmark at a pinned worker
//!                 count (dispatch latency, fan-out throughput,
//!                 scheduling-independence checksums); writes
//!                 BENCH_pool.json to --out
//!   serve         Solve-as-a-service daemon on --socket PATH (Unix,
//!                 default xp-serve.sock) or --tcp ADDR; --cache-bytes
//!                 bounds the artifact cache, --deadline-ms sets the
//!                 default per-request budget, --cache-dir DIR persists
//!                 artifacts across restarts (spilled write-behind,
//!                 reloaded at boot), --no-batch disables the batched
//!                 scheduler (per-request dispatch); blocks until a
//!                 client sends {"op":"shutdown"}
//!                 (see docs/serve-protocol.md)
//!   client        Scripted serve-protocol session: connects to --socket/
//!                 --tcp and sends each --request JSON in order, printing
//!                 one response per line; error responses exit 1
//!   serve-bench   Warm-vs-cold daemon benchmark plus the batched-vs-
//!                 per-request throughput comparison over the StreamIt
//!                 suite (boots loopback servers in-process); writes
//!                 BENCH_serve.json to --out. With --clients N it turns
//!                 into a closed-loop load generator against an
//!                 *external* daemon on --socket/--tcp (N concurrent
//!                 clients, --requests M each), printing throughput and
//!                 client-side latency percentiles and writing
//!                 serve-load.json to --out
//!   help          This usage text
//!   all           The paper artifacts above, in order
//! ```
//!
//! `xp campaign` expands `--campaign smoke` (per-PR scale) or `nightly`
//! (cron scale) into a deterministic job list, runs the shard selected by
//! `--shard I/M` (default `0/1`, everything) over the rayon pool, and
//! appends one JSON line per job to `--out/<name>.jsonl` as jobs finish.
//! Rerunning after a kill skips every key already recorded and produces a
//! byte-identical `<name>.final.jsonl`. `--solvers`, `--topology`, and
//! `--routing` narrow the corresponding axes of the sweep (the presets
//! default to all solvers and all backends at default routing).
//!
//! `--topology` selects the interconnect backend for the figure/table
//! campaigns (default `mesh`, the paper's platform; a ring flattens the
//! grid to `p·q` cores), and `--routing` overrides the backend's default
//! routing policy (mesh → `xy`, torus/ring → `shortest`). The `topology`
//! command ignores both (it sweeps all backends at their defaults) and
//! writes `--out/BENCH_topology.json` next to its CSV;
//! `smoke` honours both and exits non-zero on any end-to-end failure.
//!
//! `--solvers` filters the portfolio through `ea_core::SolverRegistry`
//! (names are case-insensitive; `refined:<name>` wraps a solver in the
//! hill-climbing combinator). It applies to every portfolio-driven command
//! (the figures, tables 2–3, `exact`, `ablation-ebit`,
//! `ablation-refine`); `table1` and the solver-specific ablations
//! (`ablation-routing`/`-downgrade`/`-speedrule` study `Random`/`Greedy`
//! by construction) do not consume it. Unknown commands, flags, or solver
//! names exit with a usage error instead of being silently ignored.
//!
//! Text reports go to stdout; CSV data lands in `--out` (default
//! `results/`).

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use cmp_platform::{Platform, RoutePolicy, TopologyKind};
use ea_bench::campaign::{outcome_text, run_campaign, CampaignSpec, Shard};
use ea_bench::random_xp::{self, RandomXpConfig};
use ea_bench::streamit_xp::{self, CAMPAIGN_CSV_HEADERS};
use ea_bench::{
    ablation, bench_check, exact_xp, incremental_xp, prune_xp, report, sweep_xp, topology_xp,
};
use ea_core::{Solver, SolverRegistry};

const USAGE: &str = "usage: xp <command> [--seed N] [--apps-per-point N] [--exact-count N] \
                     [--solvers a,b,c] [--topology mesh|torus|ring] \
                     [--routing xy|yx|shortest] [--out DIR] \
                     [--campaign smoke|nightly|FILE.json] [--shard I/M] \
                     [--input FILE]... [--bench FILE]... [--tolerance F] \
                     [--points N] [--size N] [--suite streamit|prune|incremental] \
                     [--faults N] [--socket PATH] [--tcp ADDR] [--cache-bytes N] \
                     [--cache-dir DIR] [--no-batch] [--deadline-ms N] \
                     [--clients N] [--requests N] [--request JSON]...
commands: table1 fig8 fig9 table2 fig10 fig11 fig12 fig13 table3 exact
          ablation-routing ablation-downgrade ablation-ebit
          ablation-speedrule ablation-refine topology smoke sweep
          campaign campaign-merge bench-check pool-bench
          serve client serve-bench help all";

struct Opts {
    seed: u64,
    apps_per_point: usize,
    exact_count: usize,
    solvers: Vec<Arc<dyn Solver>>,
    /// Raw `--solvers` value, for commands that need *names* (campaign).
    solvers_raw: Option<String>,
    topology: TopologyKind,
    /// Whether `--topology` was given explicitly (campaign narrows its
    /// sweep only on an explicit flag; the default is all backends).
    topology_explicit: bool,
    routing: Option<RoutePolicy>,
    out: PathBuf,
    campaign: String,
    shard: Shard,
    bench: Vec<PathBuf>,
    input: Vec<PathBuf>,
    tolerance: f64,
    /// Sweep grid resolution (`xp sweep --points`).
    points: usize,
    /// Workload stage count for family sweeps (`xp sweep --size`).
    size: usize,
    /// Named suite selector (`xp sweep --suite streamit|prune|incremental`).
    suite: Option<String>,
    /// Fault/edit events per workflow in the incremental remap campaign
    /// (`xp sweep --suite incremental --faults N`).
    faults: usize,
    /// Unix socket path for `serve`/`client` (`--socket`).
    socket: Option<PathBuf>,
    /// TCP address for `serve`/`client` (`--tcp`, e.g. `127.0.0.1:7411`).
    tcp: Option<String>,
    /// Artifact-cache byte bound for `serve` (`--cache-bytes`).
    cache_bytes: Option<usize>,
    /// Cache-persistence directory for `serve` (`--cache-dir`).
    cache_dir: Option<PathBuf>,
    /// Disable the batched scheduler in `serve` (`--no-batch`).
    no_batch: bool,
    /// Default per-request deadline for `serve` (`--deadline-ms`).
    deadline_ms: Option<u64>,
    /// Concurrent load-generator clients for `serve-bench` (`--clients`;
    /// 0 means the in-process warm/cold + throughput benchmark).
    clients: usize,
    /// Requests per load-generator client (`--requests`).
    requests: usize,
    /// Request frames for `client` (`--request`, repeatable, in order).
    request: Vec<String>,
}

impl Opts {
    /// The campaign platform: the paper's parameters on the selected
    /// topology/routing backend.
    fn platform(&self, p: u32, q: u32) -> Platform {
        topology_xp::make_platform(self.topology, p, q, self.routing)
    }

    /// Grid label for CSV/table output, e.g. `4x4` or `ring16`.
    fn grid_label(&self, p: u32, q: u32) -> String {
        match self.topology {
            TopologyKind::Mesh => format!("{p}x{q}"),
            TopologyKind::Torus => format!("torus{p}x{q}"),
            TopologyKind::Ring => format!("ring{}", p * q),
        }
    }
}

/// Exits with a usage error. Every argument problem funnels through here:
/// usage goes to stderr and the exit code is 2, never 0.
fn usage_error(msg: &str) -> ! {
    eprintln!("xp: {msg}\n{USAGE}");
    exit(2)
}

/// Sticky failure flag: report-writing errors (CSV/JSONL) don't abort the
/// run mid-campaign, but they must not exit 0 either.
static SOFT_FAILED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Reports a non-fatal error and arranges for a non-zero exit.
fn soft_fail(msg: &str) {
    eprintln!("xp: {msg}");
    SOFT_FAILED.store(true, std::sync::atomic::Ordering::Relaxed);
}

fn parse_opts(rest: &[String]) -> Opts {
    let mut opts = Opts {
        seed: 2011,
        apps_per_point: 100,
        exact_count: 30,
        solvers: ea_bench::default_solvers(),
        solvers_raw: None,
        topology: TopologyKind::Mesh,
        topology_explicit: false,
        routing: None,
        out: PathBuf::from("results"),
        campaign: "smoke".into(),
        shard: Shard::default(),
        bench: Vec::new(),
        input: Vec::new(),
        tolerance: 0.05,
        points: 8,
        size: 24,
        suite: None,
        faults: incremental_xp::INCREMENTAL_BENCH_EVENTS,
        socket: None,
        tcp: None,
        cache_bytes: None,
        cache_dir: None,
        no_batch: false,
        deadline_ms: None,
        clients: 0,
        requests: 32,
        request: Vec::new(),
    };
    let registry = SolverRegistry::with_defaults();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match rest.get(*i) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{flag} requires a value")),
        }
    };
    while i < rest.len() {
        let flag = rest[i].as_str();
        match flag {
            "--seed" => {
                opts.seed = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed expects an integer"));
            }
            "--apps-per-point" => {
                opts.apps_per_point = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--apps-per-point expects an integer"));
            }
            "--exact-count" => {
                opts.exact_count = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--exact-count expects an integer"));
            }
            "--solvers" => {
                let raw = value(&mut i, flag);
                opts.solvers = registry
                    .parse_list(&raw)
                    .unwrap_or_else(|e| usage_error(&e));
                opts.solvers_raw = Some(raw);
            }
            "--campaign" => {
                let name = value(&mut i, flag);
                if !matches!(name.as_str(), "smoke" | "nightly") && !name.ends_with(".json") {
                    usage_error(&format!(
                        "unknown campaign '{name}' (expected smoke|nightly or a spec .json file)"
                    ));
                }
                opts.campaign = name;
            }
            "--shard" => {
                opts.shard = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|e: String| usage_error(&e));
            }
            "--bench" => {
                opts.bench.push(PathBuf::from(value(&mut i, flag)));
            }
            "--input" => {
                opts.input.push(PathBuf::from(value(&mut i, flag)));
            }
            "--points" => {
                opts.points = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--points expects an integer"));
                if opts.points == 0 {
                    usage_error("--points must be at least 1");
                }
            }
            "--size" => {
                opts.size = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--size expects an integer"));
                if opts.size < 2 {
                    usage_error("--size must be at least 2");
                }
            }
            "--suite" => {
                let name = value(&mut i, flag);
                if name != "streamit" && name != "prune" && name != "incremental" {
                    usage_error(&format!(
                        "unknown suite '{name}' (expected streamit, prune, or incremental)"
                    ));
                }
                opts.suite = Some(name);
            }
            "--faults" => {
                opts.faults = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--faults expects an integer"));
                if opts.faults == 0 {
                    usage_error("--faults must be at least 1");
                }
            }
            "--tolerance" => {
                let t: f64 = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--tolerance expects a number"));
                if !(t >= 0.0 && t.is_finite()) {
                    usage_error("--tolerance must be a finite non-negative number");
                }
                opts.tolerance = t;
            }
            "--topology" => {
                opts.topology = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|e: String| usage_error(&e));
                opts.topology_explicit = true;
            }
            "--routing" => {
                opts.routing = Some(
                    value(&mut i, flag)
                        .parse()
                        .unwrap_or_else(|e: String| usage_error(&e)),
                );
            }
            "--out" => {
                opts.out = PathBuf::from(value(&mut i, flag));
            }
            "--socket" => {
                opts.socket = Some(PathBuf::from(value(&mut i, flag)));
            }
            "--tcp" => {
                opts.tcp = Some(value(&mut i, flag));
            }
            "--cache-bytes" => {
                let n: usize = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--cache-bytes expects an integer"));
                if n == 0 {
                    usage_error("--cache-bytes must be at least 1");
                }
                opts.cache_bytes = Some(n);
            }
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(value(&mut i, flag)));
            }
            "--no-batch" => {
                opts.no_batch = true;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value(&mut i, flag)
                        .parse()
                        .unwrap_or_else(|_| usage_error("--deadline-ms expects an integer")),
                );
            }
            "--clients" => {
                opts.clients = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--clients expects an integer"));
                if opts.clients == 0 {
                    usage_error("--clients must be at least 1");
                }
            }
            "--requests" => {
                opts.requests = value(&mut i, flag)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--requests expects an integer"));
                if opts.requests == 0 {
                    usage_error("--requests must be at least 1");
                }
            }
            "--request" => {
                opts.request.push(value(&mut i, flag));
            }
            other => usage_error(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage_error("missing command");
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return;
    }
    if cmd.starts_with('-') {
        usage_error(&format!("expected a command before '{cmd}'"));
    }
    let opts = parse_opts(rest);

    let started = Instant::now();
    match cmd.as_str() {
        "table1" => table1(&opts),
        "fig8" => fig_streamit(&opts, 4, 4, "fig8", "Figure 8: normalised energy, 4x4 CMP"),
        "fig9" => fig_streamit(&opts, 6, 6, "fig9", "Figure 9: normalised energy, 6x6 CMP"),
        "table2" => table2(&opts),
        "fig10" => fig_random(
            &opts,
            50,
            4,
            4,
            "fig10",
            "Figure 10: random SPGs, 50 nodes, 4x4",
        ),
        "fig11" => fig_random(
            &opts,
            50,
            6,
            6,
            "fig11",
            "Figure 11: random SPGs, 50 nodes, 6x6",
        ),
        "fig12" => fig_random(
            &opts,
            150,
            4,
            4,
            "fig12",
            "Figure 12: random SPGs, 150 nodes, 4x4",
        ),
        "fig13" => fig_random(
            &opts,
            150,
            6,
            6,
            "fig13",
            "Figure 13: random SPGs, 150 nodes, 6x6",
        ),
        "table3" => table3(&opts),
        "exact" => exact_cmd(&opts),
        "topology" => topology_cmd(&opts),
        "smoke" => smoke_cmd(&opts),
        "sweep" => sweep_cmd(&opts),
        "campaign" => campaign_cmd(&opts),
        "campaign-merge" => campaign_merge_cmd(&opts),
        "bench-check" => bench_check_cmd(&opts),
        "pool-bench" => pool_bench_cmd(&opts),
        "serve" => serve_cmd(&opts),
        "client" => client_cmd(&opts),
        "serve-bench" => serve_bench_cmd(&opts),
        "ablation-routing" => println!("{}", ablation::routing_text(12, opts.seed)),
        "ablation-downgrade" => println!("{}", ablation::downgrade_text(12, opts.seed)),
        "ablation-ebit" => println!("{}", ablation::ebit_text(12, opts.seed, &opts.solvers)),
        "ablation-speedrule" => println!("{}", ablation::speedrule_text(12, opts.seed)),
        "ablation-refine" => println!("{}", ablation::refine_text(8, opts.seed, &opts.solvers)),
        "all" => {
            table1(&opts);
            fig_streamit(&opts, 4, 4, "fig8", "Figure 8: normalised energy, 4x4 CMP");
            fig_streamit(&opts, 6, 6, "fig9", "Figure 9: normalised energy, 6x6 CMP");
            table2(&opts);
            fig_random(
                &opts,
                50,
                4,
                4,
                "fig10",
                "Figure 10: random SPGs, 50 nodes, 4x4",
            );
            fig_random(
                &opts,
                50,
                6,
                6,
                "fig11",
                "Figure 11: random SPGs, 50 nodes, 6x6",
            );
            fig_random(
                &opts,
                150,
                4,
                4,
                "fig12",
                "Figure 12: random SPGs, 150 nodes, 4x4",
            );
            fig_random(
                &opts,
                150,
                6,
                6,
                "fig13",
                "Figure 13: random SPGs, 150 nodes, 6x6",
            );
            table3(&opts);
            exact_cmd(&opts);
            println!("{}", ablation::routing_text(12, opts.seed));
            println!("{}", ablation::downgrade_text(12, opts.seed));
            println!("{}", ablation::ebit_text(12, opts.seed, &opts.solvers));
            topology_cmd(&opts);
        }
        other => usage_error(&format!("unknown command '{other}'")),
    }
    eprintln!("[xp] {cmd} done in {:.1}s", started.elapsed().as_secs_f64());
    if SOFT_FAILED.load(std::sync::atomic::Ordering::Relaxed) {
        exit(1);
    }
}

fn table1(opts: &Opts) {
    println!("{}", streamit_xp::table1_text(opts.seed));
}

fn fig_streamit(opts: &Opts, p: u32, q: u32, name: &str, title: &str) {
    let campaign = streamit_xp::streamit_campaign_on(opts.platform(p, q), opts.seed, &opts.solvers);
    println!("{}", streamit_xp::figure_text(&campaign, title));
    let rows = streamit_xp::campaign_csv_rows(&campaign, &opts.grid_label(p, q));
    if let Err(e) = report::write_csv(&opts.out, name, &CAMPAIGN_CSV_HEADERS, &rows) {
        soft_fail(&format!("csv write failed: {e}"));
    }
}

fn table2(opts: &Opts) {
    let c44 = streamit_xp::streamit_campaign_on(opts.platform(4, 4), opts.seed, &opts.solvers);
    let c66 = streamit_xp::streamit_campaign_on(opts.platform(6, 6), opts.seed, &opts.solvers);
    println!("{}", streamit_xp::table2_text(&c44, &c66));
}

fn fig_random(opts: &Opts, n: usize, p: u32, q: u32, name: &str, title: &str) {
    let mut cfg = RandomXpConfig::paper(n, p, q, opts.apps_per_point, opts.seed);
    cfg.topology = opts.topology;
    cfg.routing = opts.routing;
    let data = random_xp::random_campaign(&cfg, &opts.solvers);
    println!("{}", random_xp::figure_text(&data, title));
    if name == "fig10" {
        // Table 3 is the failure count of exactly this campaign
        // (n = 50, 4x4 grid).
        println!("{}", random_xp::table3_text(&data));
    }
    if let Err(e) = report::write_csv(
        &opts.out,
        name,
        &random_xp::CSV_HEADERS,
        &random_xp::csv_rows(&data),
    ) {
        soft_fail(&format!("csv write failed: {e}"));
    }
}

fn table3(opts: &Opts) {
    let cfg = RandomXpConfig::paper(50, 4, 4, opts.apps_per_point, opts.seed);
    let data = random_xp::random_campaign(&cfg, &opts.solvers);
    println!("{}", random_xp::table3_text(&data));
}

fn exact_cmd(opts: &Opts) {
    let campaign = exact_xp::exact_campaign(opts.exact_count, opts.seed, &opts.solvers);
    println!("{}", exact_xp::exact_text(&campaign));
}

fn topology_cmd(opts: &Opts) {
    let campaign = topology_xp::topology_campaign(4, 4, opts.seed, &opts.solvers);
    println!("{}", topology_xp::topology_text(&campaign));
    if let Err(e) = report::write_csv(
        &opts.out,
        "topology",
        &topology_xp::TOPOLOGY_CSV_HEADERS,
        &topology_xp::topology_csv_rows(&campaign),
    ) {
        soft_fail(&format!("csv write failed: {e}"));
    }
    // The topology/* gate entries. The committed BENCH_topology.json also
    // carries the criterion evaluate_* timing entries — re-baselining
    // merges those in from `cargo bench -p ea-bench` output.
    let path = opts.out.join("BENCH_topology.json");
    if let Err(e) = std::fs::create_dir_all(&opts.out)
        .and_then(|_| std::fs::write(&path, topology_xp::topology_bench_json(&campaign)))
    {
        soft_fail(&format!("writing {}: {e}", path.display()));
    } else {
        println!("wrote {}", path.display());
    }
}

fn smoke_cmd(opts: &Opts) {
    match topology_xp::smoke_text(opts.topology, opts.routing, opts.seed, &opts.solvers) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("xp: {e}");
            exit(1);
        }
    }
}

fn sweep_cmd(opts: &Opts) {
    if opts.suite.as_deref() == Some("streamit") {
        // The decade benchmark: amortized-vs-naive DPA1D sweeps, and the
        // BENCH_sweep.json document the perf gate compares against.
        let sweeps = sweep_xp::streamit_sweep_bench(opts.seed);
        print!("{}", sweep_xp::sweep_bench_text(&sweeps));
        let path = opts.out.join("BENCH_sweep.json");
        if let Err(e) = std::fs::create_dir_all(&opts.out)
            .and_then(|_| std::fs::write(&path, sweep_xp::sweep_bench_json(&sweeps)))
        {
            soft_fail(&format!("writing {}: {e}", path.display()));
        } else {
            eprintln!("[sweep] wrote {}", path.display());
        }
        return;
    }
    if opts.suite.as_deref() == Some("incremental") {
        // The seeded fault-injection remap campaign: incremental re-solve
        // on delta-patched instances vs cold rebuilds, and the
        // BENCH_incremental.json document the perf gate compares against.
        // The canonical per-event record (deterministic fields only)
        // lands next to it for regression diffing.
        let campaigns =
            incremental_xp::incremental_campaign(&spg::STREAMIT_SPECS, opts.seed, opts.faults);
        print!("{}", incremental_xp::incremental_bench_text(&campaigns));
        let path = opts.out.join("BENCH_incremental.json");
        if let Err(e) = std::fs::create_dir_all(&opts.out)
            .and_then(|_| std::fs::write(&path, incremental_xp::incremental_bench_json(&campaigns)))
        {
            soft_fail(&format!("writing {}: {e}", path.display()));
        } else {
            eprintln!("[sweep] wrote {}", path.display());
        }
        let jsonl = opts.out.join("incremental_events.jsonl");
        if let Err(e) = std::fs::write(&jsonl, incremental_xp::campaign_jsonl(&campaigns)) {
            soft_fail(&format!("writing {}: {e}", jsonl.display()));
        } else {
            eprintln!("[sweep] wrote {}", jsonl.display());
        }
        return;
    }
    if opts.suite.as_deref() == Some("prune") {
        // DPA1D decade sweeps over StreamIt + the ≥256-stage generated
        // workload; the BENCH_prune.json document the perf gate compares
        // against.
        let sweeps = prune_xp::prune_bench(opts.seed);
        print!("{}", prune_xp::prune_bench_text(&sweeps));
        let path = opts.out.join("BENCH_prune.json");
        if let Err(e) = std::fs::create_dir_all(&opts.out)
            .and_then(|_| std::fs::write(&path, prune_xp::prune_bench_json(&sweeps)))
        {
            soft_fail(&format!("writing {}: {e}", path.display()));
        } else {
            eprintln!("[sweep] wrote {}", path.display());
        }
        return;
    }
    let pf = opts.platform(2, 3);
    let sweeps = sweep_xp::family_sweeps(opts.size, opts.points, opts.seed, &pf, &opts.solvers);
    print!("{}", sweep_xp::family_sweep_text(&sweeps));
    let rows = sweep_xp::family_sweep_csv_rows(&sweeps);
    if let Err(e) = report::write_csv(
        &opts.out,
        "sweep_families",
        &sweep_xp::SWEEP_CSV_HEADERS,
        &rows,
    ) {
        soft_fail(&format!("csv write failed: {e}"));
    }
}

/// Resolves `--campaign`: a preset name, or a spec `.json` file parsed by
/// the minimal loader.
fn campaign_spec(opts: &Opts) -> CampaignSpec {
    if opts.campaign.ends_with(".json") {
        let text = std::fs::read_to_string(&opts.campaign).unwrap_or_else(|e| {
            eprintln!("xp: reading {}: {e}", opts.campaign);
            exit(1);
        });
        CampaignSpec::from_json(&text).unwrap_or_else(|e| {
            eprintln!("xp: {}: {e}", opts.campaign);
            exit(1);
        })
    } else {
        match opts.campaign.as_str() {
            "nightly" => CampaignSpec::nightly(opts.seed),
            _ => CampaignSpec::smoke(opts.seed),
        }
    }
}

fn campaign_merge_cmd(opts: &Opts) {
    let spec = campaign_spec(opts);
    if opts.input.is_empty() {
        usage_error("campaign-merge needs at least one --input FILE");
    }
    match ea_bench::campaign::merge_shards(&spec, &opts.input, &opts.out) {
        Ok(outcome) => {
            for (path, fresh) in opts.input.iter().zip(&outcome.per_input) {
                println!("[merge] {}: {} records", path.display(), fresh);
            }
            println!(
                "[merge] {} records -> {}\n[merge] summary {}",
                outcome.records,
                outcome.final_path.display(),
                outcome.summary_path.display()
            );
        }
        Err(e) => {
            eprintln!("xp: campaign-merge failed: {e}");
            exit(1);
        }
    }
}

fn campaign_cmd(opts: &Opts) {
    let mut spec = campaign_spec(opts);
    if let Some(raw) = &opts.solvers_raw {
        spec.solvers = raw.split(',').map(|s| s.trim().to_string()).collect();
    }
    // Explicit --topology / --routing narrow the sweep to that backend /
    // policy (the presets default to all backends at default routing).
    if opts.topology_explicit {
        spec.topologies = vec![opts.topology];
    }
    if let Some(routing) = opts.routing {
        spec.routings = vec![Some(routing)];
    }
    match run_campaign(&spec, &opts.out, opts.shard) {
        Ok(outcome) => println!("{}", outcome_text(&spec, opts.shard, &outcome)),
        Err(e) => {
            eprintln!("xp: campaign failed: {e}");
            exit(1);
        }
    }
}

fn pool_bench_cmd(opts: &Opts) {
    let b = ea_bench::pool_xp::pool_bench();
    print!("{}", ea_bench::pool_xp::pool_bench_text(&b));
    let path = opts.out.join("BENCH_pool.json");
    if let Err(e) = std::fs::create_dir_all(&opts.out)
        .and_then(|_| std::fs::write(&path, ea_bench::pool_xp::pool_bench_json(&b)))
    {
        soft_fail(&format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("[pool-bench] wrote {}", path.display());
    }
}

/// Default Unix socket path when neither `--socket` nor `--tcp` is given.
const DEFAULT_SOCKET: &str = "xp-serve.sock";

/// Builds the daemon config from the serve flags.
fn serve_config(opts: &Opts) -> ea_core::ServeConfig {
    let mut cfg = ea_core::ServeConfig {
        default_seed: opts.seed,
        ..Default::default()
    };
    if let Some(bytes) = opts.cache_bytes {
        cfg.cache_bytes = bytes;
    }
    cfg.default_deadline_ms = opts.deadline_ms;
    cfg.cache_dir = opts.cache_dir.clone();
    cfg.batching = !opts.no_batch;
    cfg
}

fn serve_cmd(opts: &Opts) {
    if opts.socket.is_some() && opts.tcp.is_some() {
        usage_error("serve takes --socket or --tcp, not both");
    }
    let cfg = serve_config(opts);
    let server = if let Some(addr) = &opts.tcp {
        match ea_core::Server::bind_tcp(addr, cfg) {
            Ok(s) => {
                eprintln!(
                    "[serve] listening on tcp {}",
                    s.local_addr()
                        .map_or_else(|| addr.clone(), |a| a.to_string())
                );
                s
            }
            Err(e) => {
                eprintln!("xp: serve: binding {addr}: {e}");
                exit(1);
            }
        }
    } else {
        let path = opts
            .socket
            .clone()
            .unwrap_or_else(|| PathBuf::from(DEFAULT_SOCKET));
        match ea_core::Server::bind_unix(&path, cfg) {
            Ok(s) => {
                eprintln!("[serve] listening on unix {}", path.display());
                s
            }
            Err(e) => {
                eprintln!("xp: serve: binding {}: {e}", path.display());
                exit(1);
            }
        }
    };
    if let Err(e) = server.run() {
        eprintln!("xp: serve: {e}");
        exit(1);
    }
    eprintln!("[serve] shut down cleanly");
}

fn client_cmd(opts: &Opts) {
    if opts.socket.is_some() && opts.tcp.is_some() {
        usage_error("client takes --socket or --tcp, not both");
    }
    if opts.request.is_empty() {
        usage_error("client needs at least one --request JSON");
    }
    // Parse every frame up front: a malformed --request is a usage error
    // (exit 2) before anything goes over the wire.
    let frames: Vec<ea_core::json::Json> = opts
        .request
        .iter()
        .map(|raw| {
            ea_core::json::Json::parse(raw)
                .unwrap_or_else(|e| usage_error(&format!("--request is not valid JSON: {e}")))
        })
        .collect();
    let mut client = if let Some(addr) = &opts.tcp {
        ea_core::serve::Client::connect_tcp(addr.as_str())
    } else {
        let path = opts
            .socket
            .clone()
            .unwrap_or_else(|| PathBuf::from(DEFAULT_SOCKET));
        ea_core::serve::Client::connect_unix(&path)
    }
    .unwrap_or_else(|e| {
        eprintln!("xp: client: connect: {e}");
        exit(1);
    });
    for frame in &frames {
        match client.request(frame) {
            Ok(resp) => {
                println!("{resp}");
                if resp.get("error").is_some() {
                    soft_fail("server returned an error response");
                }
            }
            Err(e) => {
                eprintln!("xp: client: {e}");
                exit(1);
            }
        }
    }
}

fn serve_bench_cmd(opts: &Opts) {
    if opts.clients > 0 {
        return serve_load_cmd(opts);
    }
    let b = match ea_bench::serve_xp::serve_bench(opts.seed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xp: serve-bench: {e}");
            exit(1);
        }
    };
    print!("{}", ea_bench::serve_xp::serve_bench_text(&b));
    // The generator asserts the acceptance bar itself: per-flow energies
    // already matched bit-for-bit (serve_bench errors out otherwise), and
    // the batched daemon must clear the target speedup.
    if !b.throughput.meets_target() {
        soft_fail(&format!(
            "batched throughput {:.2}x is below the {:.1}x target",
            b.throughput.speedup(),
            ea_bench::serve_xp::THROUGHPUT_TARGET,
        ));
    }
    let path = opts.out.join("BENCH_serve.json");
    if let Err(e) = std::fs::create_dir_all(&opts.out)
        .and_then(|_| std::fs::write(&path, ea_bench::serve_xp::serve_bench_json(&b)))
    {
        soft_fail(&format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("[serve-bench] wrote {}", path.display());
    }
}

/// `serve-bench --clients N --requests M`: the closed-loop load generator
/// against an external daemon on `--socket`/`--tcp`. The daemon is left
/// running — the caller owns its lifecycle (CI restarts it to check the
/// warm-start path).
fn serve_load_cmd(opts: &Opts) {
    if opts.socket.is_some() && opts.tcp.is_some() {
        usage_error("serve-bench takes --socket or --tcp, not both");
    }
    let connect: Box<dyn Fn() -> std::io::Result<ea_core::serve::Client> + Sync> =
        if let Some(addr) = opts.tcp.clone() {
            Box::new(move || ea_core::serve::Client::connect_tcp(addr.as_str()))
        } else {
            let path = opts
                .socket
                .clone()
                .unwrap_or_else(|| PathBuf::from(DEFAULT_SOCKET));
            Box::new(move || ea_core::serve::Client::connect_unix(&path))
        };
    let report =
        match ea_bench::serve_xp::load_gen(&*connect, opts.clients, opts.requests, opts.seed) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xp: serve-bench: {e}");
                exit(1);
            }
        };
    print!("{}", ea_bench::serve_xp::load_text(&report));
    let path = opts.out.join("serve-load.json");
    if let Err(e) = std::fs::create_dir_all(&opts.out)
        .and_then(|_| std::fs::write(&path, ea_bench::serve_xp::load_json(&report)))
    {
        soft_fail(&format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("[serve-bench] wrote {}", path.display());
    }
}

fn bench_check_cmd(opts: &Opts) {
    let files = if opts.bench.is_empty() {
        let found = bench_check::default_bench_files(std::path::Path::new("."));
        if found.is_empty() {
            eprintln!("xp: bench-check: no BENCH_*.json found (pass --bench FILE)");
            exit(1);
        }
        found
    } else {
        opts.bench.clone()
    };
    match bench_check::bench_check_files(&files, opts.tolerance, opts.seed, &opts.solvers) {
        Ok((checks, ok)) => {
            print!("{}", bench_check::check_text(&checks, opts.tolerance));
            if !ok {
                eprintln!("xp: bench-check: deterministic metrics regressed beyond tolerance");
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("xp: bench-check failed: {e}");
            exit(1);
        }
    }
}
