//! The exact ideal and nested-pair counts against enumeration, and the
//! lattice failure contract that rests on them.
//!
//! `count_ideals` and `count_ideal_pairs` read the lattice size and the
//! number of nested ideal pairs off the series-parallel reduction;
//! `enumerate_ideals` builds the lattice itself, and a `DPA1D` transition
//! skeleton built at a period loose enough to admit every cluster and
//! every cut stores one transition per nested pair. They are independent
//! computations, so agreement on every small SP shape (exhaustively), on
//! seeded random SPGs and on the StreamIt suite is the oracle check.
//! `Instance` then trusts the ideal count to refuse over-cap lattices
//! without enumerating them, so the second half pins that the refusal is
//! the very error a capped enumeration gives.

use std::collections::BTreeSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::generate::min_stages_for_elevation;
use spg::ideal::{count_ideal_pairs, count_ideals, enumerate_ideals, IdealError};
use spg::{base, parallel, random_spg, series, streamit_suite};
use spg_cmp::prelude::*;

const CAP: usize = 60_000;

/// A period loose enough to admit every cluster and every cut of the
/// graphs here: 10^9 s runs 10^18 cycles at the top speed, and carries as
/// many seconds of link bandwidth.
const LOOSE_PERIOD: f64 = 1e9;

/// The exact size of `g`'s transition skeleton at [`LOOSE_PERIOD`], built
/// with no edge cap: every transition of the lattice.
fn complete_transitions(g: &Spg) -> u128 {
    let cfg = Dpa1dConfig {
        ideal_cap: usize::MAX,
        edge_cap: usize::MAX,
        ..Default::default()
    };
    let inst = Instance::new(g.clone(), Platform::paper(2, 2), LOOSE_PERIOD);
    let sk = inst
        .transition_skeleton(&cfg)
        .unwrap()
        .expect("an uncapped build always fits");
    assert_eq!(sk.period_ceiling(), LOOSE_PERIOD);
    sk.n_transitions() as u128
}

/// The StreamIt flows whose lattices exceed the default cap.
const OVER_CAP: [&str; 5] = [
    "Beamformer",
    "ChannelVocoder",
    "Filterbank",
    "FMRadio",
    "Vocoder",
];

/// The edge list of `g`, a key that tells composed shapes apart.
fn shape_key(g: &Spg) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.src.0, e.dst.0)).collect();
    edges.sort_unstable();
    edges
}

/// Every SP shape with at most `max_n` stages and `max_edges` edges, built
/// from the base edge by series and parallel composition. Each SP graph
/// with `e > 1` edges is a composition of two with fewer edges summing to
/// `e`, so building by edge count reaches all of them, multi-edge shapes
/// (`parallel(base, base)`) included.
fn all_sp_shapes(max_n: usize, max_edges: usize) -> Vec<Spg> {
    let mut by_edges: Vec<Vec<Spg>> = vec![Vec::new(), vec![base(1.0, 1.0, 1.0)]];
    let mut seen = BTreeSet::new();
    for e in 2..=max_edges {
        let mut level = Vec::new();
        for e1 in 1..e {
            for a in &by_edges[e1] {
                for b in &by_edges[e - e1] {
                    let mut composed = Vec::new();
                    if a.n() + b.n() - 1 <= max_n {
                        composed.push(series(a, b));
                    }
                    if a.n() + b.n() - 2 <= max_n {
                        composed.push(parallel(a, b));
                    }
                    for g in composed {
                        if seen.insert(shape_key(&g)) {
                            level.push(g);
                        }
                    }
                }
            }
        }
        by_edges.push(level);
    }
    by_edges.concat()
}

#[test]
fn count_matches_enumeration_on_every_small_sp_shape() {
    let shapes = all_sp_shapes(7, 9);
    assert!(shapes.len() > 10_000, "only {} shapes", shapes.len());
    let multi_edge = shapes
        .iter()
        .filter(|g| shape_key(g).windows(2).any(|w| w[0] == w[1]))
        .count();
    assert!(multi_edge > 0, "no multi-edge shape generated");
    for g in &shapes {
        let enumerated = enumerate_ideals(g, usize::MAX).unwrap().len();
        assert_eq!(
            count_ideals(g),
            Some(enumerated as u128),
            "{:?}",
            shape_key(g)
        );
        assert_eq!(
            count_ideal_pairs(g),
            Some(complete_transitions(g)),
            "{:?}",
            shape_key(g)
        );
    }
}

#[test]
fn count_matches_enumeration_on_random_spgs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1dea_c0de);
    let mut checked = 0;
    for n in 4..=50 {
        for elevation in 1..=6u32 {
            if n < min_stages_for_elevation(elevation) {
                continue;
            }
            let cfg = SpgGenConfig {
                n,
                elevation,
                ..Default::default()
            };
            let g = random_spg(&cfg, &mut rng);
            let count = count_ideals(&g).expect("random SPGs are SP");
            // Enumerate in full up to a debug-build-friendly size; past it,
            // the enumeration must hit the cap exactly as the count says.
            let cap = 20_000;
            match enumerate_ideals(&g, cap) {
                Ok(lat) => {
                    assert_eq!(count, lat.len() as u128, "n {n} e {elevation}");
                    // Skeletons past a debug-build-friendly size are
                    // covered by the StreamIt flows below.
                    let pairs = count_ideal_pairs(&g).unwrap();
                    if pairs <= 200_000 {
                        assert_eq!(pairs, complete_transitions(&g), "n {n} e {elevation}");
                    }
                }
                Err(IdealError::LimitExceeded { found, .. }) => {
                    assert!(count > cap as u128, "n {n} e {elevation}: count {count}");
                    assert_eq!(found, cap + 1);
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 250);
}

#[test]
fn count_matches_enumeration_on_streamit_under_the_cap() {
    for (spec, g) in streamit_suite(0) {
        let count = count_ideals(&g).expect("StreamIt flows are SP");
        if OVER_CAP.contains(&spec.name) {
            assert!(count > CAP as u128, "{}: count {count}", spec.name);
        } else {
            assert_eq!(
                count,
                enumerate_ideals(&g, CAP).unwrap().len() as u128,
                "{}",
                spec.name
            );
            assert_eq!(
                count_ideal_pairs(&g),
                Some(complete_transitions(&g)),
                "{}",
                spec.name
            );
        }
    }
}

/// The nested-pair counts of the five over-cap flows, pinned: no skeleton
/// of them is ever built (their lattices are refused first), so these
/// literals are the only record of how far past any edge cap they are.
#[test]
fn over_cap_streamit_pair_counts_are_pinned() {
    let pinned: [(&str, u128); 5] = [
        ("Beamformer", 799_238_085_937_501),
        ("ChannelVocoder", 168_000_022_548_578_305),
        ("Filterbank", 1_613_684_663_258_170_449_376),
        ("FMRadio", 2_376_025_952_257),
        ("Vocoder", 1_261_443_680_759_079_116_990_209),
    ];
    assert_eq!(pinned.map(|(name, _)| name), OVER_CAP);
    let suite = streamit_suite(0);
    for (name, pairs) in pinned {
        let (_, g) = suite.iter().find(|(spec, _)| spec.name == name).unwrap();
        assert_eq!(count_ideal_pairs(g), Some(pairs), "{name}");
    }
}

/// The five over-cap flows fail exactly as a capped enumeration does —
/// `found` is the `cap + 1` witness — and nothing is cached or built.
#[test]
fn over_cap_streamit_flows_keep_the_failure_contract() {
    for (spec, g) in streamit_suite(0) {
        if !OVER_CAP.contains(&spec.name) {
            continue;
        }
        let inst = Instance::for_utilisation(g.clone(), Platform::paper(4, 4), 0.3);
        let expected = IdealError::LimitExceeded {
            cap: CAP,
            found: CAP + 1,
        };
        assert!(
            matches!(enumerate_ideals(&g, CAP), Err(ref e) if *e == expected),
            "{}",
            spec.name
        );
        assert_eq!(inst.lattice(CAP).err(), Some(expected), "{}", spec.name);
        let failure = solvers::Dpa1d::default()
            .solve(&inst, &SolveCtx::new(0))
            .expect_err("over-cap DPA1D must fail");
        assert_eq!(
            failure.budget_exceeded(),
            Some(&BudgetExceeded {
                phase: BudgetPhase::Enumerate,
                cap: CAP as u64,
                count: CAP as u64 + 1,
            }),
            "{}",
            spec.name
        );
        assert!(inst.cached_lattice().is_none(), "{}", spec.name);
    }
}
