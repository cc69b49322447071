//! Workload inputs: the op universe of each workload and the seeded op
//! lists drawn from it.
//!
//! Every workload runs a fixed multiset of ops per pass, in one fixed
//! cyclic order; the seed only chooses where the pass starts in it. Fixed
//! content keeps the mix proportions exact, so the same flows set the p95
//! on every seed and the per-pass work counts repeat exactly, while the
//! list still differs per seed. Generation uses its own SplitMix64 stream,
//! so the lists depend on this file and the seed alone.

use std::sync::Arc;

use cmp_platform::Platform;
use ea_core::json::{obj, Json};
use ea_core::serve::protocol::{platform_from_json, WorkloadReq};
use ea_core::Instance;
use rand::SeedableRng;
use spg::generate::families::FamilyKind;
use spg::{random_spg, Spg, SpgGenConfig, STREAMIT_SPECS};

/// Portfolio base seed of every solve (the daemon's default seed).
pub const PORTFOLIO_SEED: u64 = 2011;
/// Instantiation seed of the StreamIt flows (the suite default).
const STREAMIT_SEED: u64 = 2011;

/// Campaign: StreamIt utilisations on each platform (Figs 8–9).
pub const CAMPAIGN_STREAMIT_U: [f64; 2] = [0.3, 0.5];
/// Campaign: StreamIt platforms.
pub const CAMPAIGN_GRIDS: [(u32, u32); 2] = [(4, 4), (6, 6)];
/// Campaign: random SPGs, `(n, elevations)` (Figs 10–13).
pub const CAMPAIGN_RANDOM: [(usize, &[u32]); 2] = [(50, &[2, 4, 16]), (150, &[2, 16])];
/// Campaign: CCR values of the random SPGs.
pub const CAMPAIGN_CCR: [f64; 2] = [10.0, 0.1];

/// serve-hot: the utilisation grid every StreamIt flow is solved at.
pub const HOT_U: [f64; 3] = [0.4, 0.5, 0.6];
/// serve-hot: closed-loop clients (never more than the machine's cores).
pub const HOT_CLIENTS: usize = 2;

/// serve-churn: the family-workload pool, `(family, n)` × seeds.
pub const CHURN_FAMILIES: [FamilyKind; 4] = [
    FamilyKind::DeepChain,
    FamilyKind::WideForkJoin,
    FamilyKind::Balanced,
    FamilyKind::TgffMixed,
];
/// serve-churn: stage counts of the pool.
pub const CHURN_SIZES: [usize; 2] = [32, 40];
/// serve-churn: generator seeds per `(family, n)` in the pool.
pub const CHURN_SEEDS: u64 = 8;
/// serve-churn: seeds of the set-up workloads (disjoint from the pool).
pub const CHURN_WARMUP_SEEDS: std::ops::Range<u64> = 100..104;
/// serve-churn: utilisation of the plain solves.
pub const CHURN_U: f64 = 0.5;
/// serve-churn: the utilisation grid of a `sweep` op.
pub const CHURN_SWEEP_U: [f64; 3] = [0.3, 0.45, 0.6];
/// serve-churn: every this many pool workloads has a faults variant.
pub const CHURN_FAULT_EVERY: usize = 2;
/// serve-churn: every this many pool workloads is swept.
pub const CHURN_SWEEP_EVERY: usize = 4;
/// serve-churn: the dead links faults variants draw from (4×4 mesh,
/// `[u1, v1, u2, v2]`, all interior so every variant patches routes).
const CHURN_LINKS: [[u32; 4]; 4] = [[1, 1, 1, 2], [2, 1, 2, 2], [1, 1, 2, 1], [1, 2, 2, 2]];

/// A workload graph, by recipe.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// One of the 12 Table-1 StreamIt flows.
    Streamit(&'static str),
    /// A §6.2.2 random SPG with exact size, elevation and CCR.
    Random {
        n: usize,
        elevation: u32,
        ccr: f64,
        gen_seed: u64,
    },
    /// A synthetic family member, as the serve protocol names it.
    Family {
        family: FamilyKind,
        n: usize,
        seed: u64,
    },
}

impl Work {
    /// Builds the graph (deterministic in the recipe).
    pub fn spg(&self) -> Spg {
        match self {
            Work::Random {
                n,
                elevation,
                ccr,
                gen_seed,
            } => {
                let cfg = SpgGenConfig {
                    n: *n,
                    elevation: *elevation,
                    ccr: Some(*ccr),
                    ..Default::default()
                };
                random_spg(&cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(*gen_seed))
            }
            _ => WorkloadReq::from_json(&self.to_json())
                .and_then(|w| w.instantiate())
                .expect("benchmark workloads are valid requests"),
        }
    }

    /// The request's `"workload"` member (daemon workloads only).
    pub fn to_json(&self) -> Json {
        match self {
            Work::Streamit(name) => obj([
                ("streamit", Json::from(*name)),
                ("seed", Json::from(STREAMIT_SEED)),
            ]),
            Work::Family { family, n, seed } => obj([
                ("family", Json::from(family.name())),
                ("n", Json::from(*n)),
                ("seed", Json::from(*seed)),
            ]),
            Work::Random { .. } => panic!("random SPGs have no wire form"),
        }
    }

    /// Stable identifier (reference keys, op-list hash).
    pub fn tag(&self) -> String {
        match self {
            Work::Streamit(name) => format!("streamit:{name}"),
            Work::Random {
                n,
                elevation,
                ccr,
                gen_seed,
            } => format!("random:n{n}:e{elevation}:ccr{ccr}:g{gen_seed}"),
            Work::Family { family, n, seed } => format!("{}:n{n}:s{seed}", family.name()),
        }
    }
}

/// A platform, by recipe: the paper's mesh, optionally with one dead link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plat {
    pub p: u32,
    pub q: u32,
    pub dead_link: Option<[u32; 4]>,
}

impl Plat {
    /// The healthy `p × q` mesh.
    pub fn mesh(p: u32, q: u32) -> Self {
        Plat {
            p,
            q,
            dead_link: None,
        }
    }

    /// The request's `"platform"` member.
    pub fn to_json(self) -> Json {
        let dims = [
            ("p", Json::from(self.p as u64)),
            ("q", Json::from(self.q as u64)),
        ];
        match self.dead_link {
            None => obj(dims),
            Some(l) => {
                let quad = l.iter().map(|&c| Json::from(c as u64)).collect::<Vec<_>>();
                let faults = obj([("links", Json::from(vec![Json::from(quad)]))]);
                let [p, q] = dims;
                obj([p, q, ("faults", faults)])
            }
        }
    }

    /// The platform, decoded exactly as the daemon decodes it.
    pub fn platform(&self) -> Platform {
        platform_from_json(Some(&self.to_json())).expect("benchmark platforms are valid")
    }

    fn tag(&self) -> String {
        match self.dead_link {
            None => format!("p{}x{}", self.p, self.q),
            Some([a, b, c, d]) => format!("p{}x{}-link{a}.{b}.{c}.{d}", self.p, self.q),
        }
    }
}

/// One portfolio solve: workload, platform, period bound, portfolio seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Solve {
    pub work: Work,
    pub plat: Plat,
    /// Utilisation the period bound derives from (unused when `probed`).
    pub u: f64,
    /// The period bound is the §6.1.3 decade probe's (random SPGs, as in
    /// Figs 10–13), found during set-up.
    pub probed: bool,
    pub seed: u64,
}

impl Solve {
    /// Reference-table key; also the unit the op-list hash covers.
    pub fn key(&self) -> String {
        let bound = if self.probed {
            "probed".to_string()
        } else {
            format!("u{}", self.u)
        };
        format!(
            "{} {} {bound} s{}",
            self.work.tag(),
            self.plat.tag(),
            self.seed
        )
    }

    /// The period bound of a fresh session on `spg` and `platform`: the
    /// utilisation-derived one, or the decade probe's.
    pub fn period(&self, spg: &Arc<Spg>, platform: &Arc<Platform>) -> f64 {
        let base = Instance::from_shared(Arc::clone(spg), Arc::clone(platform), 1.0);
        if self.probed {
            let Work::Random { gen_seed, .. } = self.work else {
                panic!("only random SPGs are probed")
            };
            ea_bench::probe::probe_instance(&base, gen_seed)
                .unwrap_or_else(|| panic!("{}: no probed period", self.key()))
                .period()
        } else {
            base.utilisation_period(self.u)
        }
    }

    /// The wire `solve` request.
    pub fn request(&self) -> Json {
        obj([
            ("op", Json::from("solve")),
            ("workload", self.work.to_json()),
            ("platform", self.plat.to_json()),
            ("utilisation", Json::from(self.u)),
            ("seed", Json::from(self.seed)),
        ])
    }
}

/// One daemon op.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A `solve`.
    Solve(Solve),
    /// A `sweep` over utilisations; point `i` answers `points[i]`.
    Sweep { points: Vec<Solve> },
}

impl Op {
    /// The wire request.
    pub fn request(&self) -> Json {
        match self {
            Op::Solve(s) => s.request(),
            Op::Sweep { points } => {
                let first = &points[0];
                let values = points.iter().map(|s| Json::from(s.u)).collect::<Vec<_>>();
                obj([
                    ("op", Json::from("sweep")),
                    ("workload", first.work.to_json()),
                    ("platform", first.plat.to_json()),
                    ("axis", Json::from("utilisation")),
                    ("values", Json::from(values)),
                    ("seed", Json::from(first.seed)),
                ])
            }
        }
    }

    /// Every solve this op answers (one, or one per sweep point).
    pub fn solves(&self) -> &[Solve] {
        match self {
            Op::Solve(s) => std::slice::from_ref(s),
            Op::Sweep { points } => points,
        }
    }

    fn key(&self) -> String {
        match self {
            Op::Solve(s) => s.key(),
            Op::Sweep { points } => {
                let keys: Vec<String> = points.iter().map(Solve::key).collect();
                format!("sweep[{}]", keys.join(", "))
            }
        }
    }
}

/// SplitMix64: the benchmark's own generator for op order.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64, stream: u64) -> Self {
        Mix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The campaign universe: every StreamIt flow on every grid at every
/// utilisation, plus one random SPG per `(n, elevation, CCR)` cell.
pub fn campaign_universe() -> Vec<Solve> {
    let mut out = Vec::new();
    for &(p, q) in &CAMPAIGN_GRIDS {
        for &u in &CAMPAIGN_STREAMIT_U {
            for spec in STREAMIT_SPECS.iter() {
                out.push(Solve {
                    work: Work::Streamit(spec.name),
                    plat: Plat::mesh(p, q),
                    u,
                    probed: false,
                    seed: PORTFOLIO_SEED,
                });
            }
        }
    }
    for &(n, elevations) in &CAMPAIGN_RANDOM {
        for &elevation in elevations {
            for (ci, &ccr) in CAMPAIGN_CCR.iter().enumerate() {
                out.push(Solve {
                    work: Work::Random {
                        n,
                        elevation,
                        ccr,
                        gen_seed: (n as u64) * 1000 + u64::from(elevation) * 10 + ci as u64,
                    },
                    plat: Plat::mesh(4, 4),
                    u: 0.0,
                    probed: true,
                    seed: PORTFOLIO_SEED,
                });
            }
        }
    }
    out
}

/// Puts campaign items, given in universe order, into `seed`'s order: one
/// fixed shuffle, started at the seed's position ([`phased`]). A seed that
/// reshuffled the pass would also change which ops run back to back, and
/// with it the heap and cache state each op meets, moving its time by more
/// than the work it does.
pub fn campaign_order<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    Mix::new(0, 1).shuffle(&mut items);
    phased(items, seed)
}

/// The serve-hot requests of one client: every StreamIt flow at every
/// grid point on the 4×4 mesh, under the client's own portfolio seed (so
/// the two clients' requests never share a fingerprint).
pub fn hot_universe(client: usize) -> Vec<Solve> {
    let mut out = Vec::new();
    for &u in &HOT_U {
        for spec in STREAMIT_SPECS.iter() {
            out.push(Solve {
                work: Work::Streamit(spec.name),
                plat: Plat::mesh(4, 4),
                u,
                probed: false,
                seed: PORTFOLIO_SEED + client as u64,
            });
        }
    }
    out
}

/// A workload's pass for `seed`: its fixed op order, started at the seed's
/// position. The window repeats the pass, so every seed drives the same
/// cyclic sequence from another point: after the first pass, the state each
/// op meets (which artifacts serve-churn has evicted, which request of the
/// other serve-hot client shares its batch, which op ran just before a
/// campaign op) does not depend on the seed, so neither does the work per
/// op.
fn phased<T>(mut ops: Vec<T>, seed: u64) -> Vec<T> {
    let start = (seed % ops.len() as u64) as usize;
    ops.rotate_left(start);
    ops
}

/// One pass of each serve-hot client for `seed` (every client starts at
/// the same position of its own fixed order).
pub fn hot_pass(seed: u64) -> Vec<Vec<Op>> {
    (0..HOT_CLIENTS)
        .map(|c| {
            let mut ops = hot_universe(c);
            Mix::new(0, 10 + c as u64).shuffle(&mut ops);
            phased(ops, seed).into_iter().map(Op::Solve).collect()
        })
        .collect()
}

fn churn_work(family: FamilyKind, n: usize, seed: u64) -> Work {
    Work::Family { family, n, seed }
}

/// The serve-churn workload pool.
pub fn churn_pool() -> Vec<Work> {
    let mut out = Vec::new();
    for &family in &CHURN_FAMILIES {
        for &n in &CHURN_SIZES {
            for seed in 0..CHURN_SEEDS {
                out.push(churn_work(family, n, seed));
            }
        }
    }
    out
}

/// The set-up workloads of serve-churn (solved, spilled and reloaded
/// before the window; disjoint from the pool).
pub fn churn_warmup() -> Vec<Solve> {
    let mut out = Vec::new();
    for &family in &CHURN_FAMILIES {
        for seed in CHURN_WARMUP_SEEDS {
            out.push(Solve {
                work: churn_work(family, CHURN_SIZES[1], seed),
                plat: Plat::mesh(4, 4),
                u: CHURN_U,
                probed: false,
                seed: PORTFOLIO_SEED,
            });
        }
    }
    out
}

/// The faults variant of a pool workload: its own fixed dead link.
fn churn_fault(work: &Work, index: usize) -> Solve {
    Solve {
        work: work.clone(),
        plat: Plat {
            dead_link: Some(CHURN_LINKS[index % CHURN_LINKS.len()]),
            ..Plat::mesh(4, 4)
        },
        u: CHURN_U,
        probed: false,
        seed: PORTFOLIO_SEED,
    }
}

fn churn_sweep(work: &Work) -> Op {
    Op::Sweep {
        points: CHURN_SWEEP_U
            .iter()
            .map(|&u| Solve {
                work: work.clone(),
                plat: Plat::mesh(4, 4),
                u,
                probed: false,
                seed: PORTFOLIO_SEED,
            })
            .collect(),
    }
}

/// One serve-churn pass for `seed`: every pool workload solved once (each
/// is new to the daemon the first time it appears). Every
/// [`CHURN_FAULT_EVERY`]-th pool workload is followed by its faults variant
/// (skeleton hit, patched route), and every [`CHURN_SWEEP_EVERY`]-th is
/// swept three solves after its own solve, so the pass holds the same ops
/// on every seed. The seed picks where the pass starts in their fixed
/// cyclic order ([`phased`]), which sets the cache state of the first pass
/// only.
pub fn churn_pass(seed: u64) -> Vec<Op> {
    const SWEEP_LAG: usize = 3;
    let pool = churn_pool();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    Mix::new(0, 20).shuffle(&mut order);
    let mut ops = Vec::new();
    for i in 0..order.len() + SWEEP_LAG {
        if let Some(&w) = order.get(i) {
            ops.push(Op::Solve(Solve {
                work: pool[w].clone(),
                plat: Plat::mesh(4, 4),
                u: CHURN_U,
                probed: false,
                seed: PORTFOLIO_SEED,
            }));
            if w % CHURN_FAULT_EVERY == 0 {
                ops.push(Op::Solve(churn_fault(&pool[w], w)));
            }
        }
        if let Some(&w) = i.checked_sub(SWEEP_LAG).and_then(|j| order.get(j)) {
            if w % CHURN_SWEEP_EVERY == 1 {
                ops.push(churn_sweep(&pool[w]));
            }
        }
    }
    phased(ops, seed)
}

/// Every solve any workload can issue, for any seed: the reference table's
/// key set.
pub fn reference_universe() -> Vec<Solve> {
    let mut out = campaign_universe();
    for c in 0..HOT_CLIENTS {
        out.extend(hot_universe(c));
    }
    out.extend(churn_warmup());
    for (w, work) in churn_pool().iter().enumerate() {
        out.push(Solve {
            work: work.clone(),
            plat: Plat::mesh(4, 4),
            u: CHURN_U,
            probed: false,
            seed: PORTFOLIO_SEED,
        });
        out.push(churn_fault(work, w));
        if let Op::Sweep { points } = churn_sweep(work) {
            out.extend(points);
        }
    }
    let mut seen = std::collections::HashSet::new();
    out.retain(|s| seen.insert(s.key()));
    out
}

/// FNV-1a over the op keys: printed so two runs can show they drove the
/// same inputs.
pub fn list_hash(keys: impl IntoIterator<Item = String>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for key in keys {
        for b in key.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hash of a list of daemon ops (per client, clients in order).
pub fn ops_hash(clients: &[Vec<Op>]) -> u64 {
    list_hash(
        clients
            .iter()
            .enumerate()
            .flat_map(|(c, ops)| ops.iter().map(move |o| format!("c{c} {}", o.key()))),
    )
}

/// Shared, pre-built graph, platform and period bound of a solve
/// (campaign set-up).
pub struct Prepared {
    pub solve: Solve,
    pub spg: Arc<Spg>,
    pub platform: Arc<Platform>,
    pub period: f64,
}

impl Prepared {
    pub fn new(solve: Solve) -> Prepared {
        let spg = Arc::new(solve.work.spg());
        let platform = Arc::new(solve.plat.platform());
        let period = solve.period(&spg, &platform);
        Prepared {
            solve,
            spg,
            platform,
            period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_core::serve::{platform_fingerprint, workload_fingerprint};
    use std::collections::HashSet;

    fn solve_hash(ops: &[Solve]) -> u64 {
        list_hash(ops.iter().map(Solve::key))
    }

    /// The solves of one campaign pass for `seed`, in order.
    fn campaign_pass(seed: u64) -> Vec<Solve> {
        campaign_order(campaign_universe(), seed)
    }

    #[test]
    fn one_seed_gives_one_list_and_another_seed_another() {
        assert_eq!(campaign_pass(7), campaign_pass(7));
        assert_eq!(solve_hash(&campaign_pass(7)), solve_hash(&campaign_pass(7)));
        assert_ne!(solve_hash(&campaign_pass(7)), solve_hash(&campaign_pass(8)));
        assert_eq!(hot_pass(7), hot_pass(7));
        assert_ne!(ops_hash(&hot_pass(7)), ops_hash(&hot_pass(8)));
        assert_eq!(churn_pass(7), churn_pass(7));
        assert_ne!(ops_hash(&[churn_pass(7)]), ops_hash(&[churn_pass(8)]));
    }

    #[test]
    fn mix_proportions_do_not_depend_on_the_seed() {
        let sorted = |mut keys: Vec<String>| {
            keys.sort();
            keys
        };
        let keys = |ops: Vec<Solve>| sorted(ops.iter().map(Solve::key).collect());
        assert_eq!(keys(campaign_pass(1)), keys(campaign_pass(2)));
        let op_keys = |ops: Vec<Op>| sorted(ops.iter().map(Op::key).collect());
        assert_eq!(op_keys(churn_pass(1)), op_keys(churn_pass(2)));
        for (a, b) in hot_pass(1).into_iter().zip(hot_pass(2)) {
            assert_eq!(op_keys(a), op_keys(b));
        }
        let churn = |seed| {
            let ops = churn_pass(seed);
            let sweeps = ops.iter().filter(|o| matches!(o, Op::Sweep { .. })).count();
            let faulted = ops
                .iter()
                .filter(|o| matches!(o, Op::Solve(s) if s.plat.dead_link.is_some()))
                .count();
            (ops.len(), sweeps, faulted)
        };
        assert_eq!(churn(1), churn(2));
        assert_eq!(churn(1), (64 + 32 + 16, 16, 32));
    }

    #[test]
    fn seeds_start_one_cycle_at_different_points() {
        let mut campaign = campaign_pass(0);
        campaign.rotate_left(5);
        assert_eq!(campaign, campaign_pass(5));
        let mut churn = churn_pass(0);
        churn.rotate_left(5);
        assert_eq!(churn, churn_pass(5));
        for (mut a, b) in hot_pass(0).into_iter().zip(hot_pass(5)) {
            a.rotate_left(5);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hot_clients_never_send_the_same_fingerprint() {
        for seed in [0, 1, 2011] {
            let clients = hot_pass(seed);
            assert_eq!(clients.len(), HOT_CLIENTS);
            let mut seen = HashSet::new();
            for ops in &clients {
                for op in ops {
                    let Op::Solve(s) = op else {
                        panic!("serve-hot sends solves only")
                    };
                    let id = (
                        workload_fingerprint(&s.work.spg()),
                        platform_fingerprint(&s.plat.platform()),
                        s.u.to_bits(),
                        s.seed,
                    );
                    assert!(seen.insert(id), "two serve-hot requests share {}", s.key());
                }
            }
        }
    }

    #[test]
    fn every_op_has_a_reference_key() {
        let keys: HashSet<String> = reference_universe().iter().map(Solve::key).collect();
        let mut all: Vec<Solve> = campaign_pass(3);
        all.extend(churn_warmup());
        for ops in hot_pass(3).into_iter().chain([churn_pass(3)]) {
            for op in ops {
                all.extend(op.solves().iter().cloned());
            }
        }
        for s in all {
            assert!(keys.contains(&s.key()), "missing reference for {}", s.key());
        }
    }
}
