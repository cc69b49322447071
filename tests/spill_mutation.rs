//! Seeded mutation tests for the artifact spill codecs: the payload
//! decoders `SharedLattice::from_bytes` and `TransitionSkeleton::from_bytes`,
//! and the checksummed file envelope `serve::spill::decode` (which wraps
//! them and `RouteTable::from_bytes`).
//!
//! Every mutation starts from a real image and must come back as a value,
//! never a panic or an abort (a corrupted length prefix must not drive a
//! huge allocation):
//!
//! * truncations and length-prefix corruptions must decode to `Err`, at
//!   both layers;
//! * any mutation of a spill *file* must decode to `Err` — the envelope's
//!   FNV-1a checksum covers every byte;
//! * a bit flip in a payload may land in a float (a cut volume, a cluster
//!   work) and decode to a different valid image. No checksum guards that
//!   layer on its own, so the invariant there is weaker: `Err`, or a value
//!   that re-encodes to exactly the mutated bytes. The same holds for
//!   payload mutations re-sealed under a fresh checksum, which is how the
//!   envelope's structural checks are reached behind the checksum;
//! * a skeleton image whose blocks are not sorted by work, or whose
//!   ceiling is not a finite period, must decode to `Err`: its admission
//!   prefixes would silently drop transitions.
//!
//! Mutations are drawn from the in-tree ChaCha8 stream, so a failure
//! reproduces from the seed and the case index in its message.

use std::sync::Arc;

use ea_core::serve::spill;
use ea_core::serve::{Artifact, ArtifactKey, Fingerprint};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg_cmp::prelude::*;

/// Random mutations per image.
const CASES: usize = 1500;

/// A fork-join behind a two-stage prefix: a lattice with real branching,
/// small enough that exhaustive sweeps over its images stay cheap.
fn session() -> Instance {
    let branches: Vec<Spg> = (0..3)
        .map(|i| spg::chain(&[1e8, 2e8 + i as f64, 1e8], &[1e4, 1e4]))
        .collect();
    let g = spg::series(
        &spg::chain(&[1e8, 2e8], &[1e4]),
        &spg::parallel_many(&branches),
    );
    Instance::new(g, Platform::paper(2, 3), 0.5)
}

fn lattice_image() -> Vec<u8> {
    session().lattice(60_000).unwrap().to_bytes()
}

/// The image of a skeleton built at a period loose enough to hold every
/// transition, and of one built at a tighter period.
fn skeleton_images() -> [Vec<u8>; 2] {
    let complete = session()
        .with_period(10.0)
        .transition_skeleton(&Dpa1dConfig::default())
        .unwrap()
        .expect("a small fork-join fits the edge cap");
    let pairs = spg::ideal::count_ideal_pairs(session().spg()).unwrap();
    assert_eq!(complete.n_transitions() as u128, pairs);
    let capped = Dpa1dConfig {
        edge_cap: complete.n_transitions() - 1,
        ..Default::default()
    };
    let tight = session().with_period(0.3);
    let bounded = tight
        .transition_skeleton(&capped)
        .unwrap()
        .expect("the bounded build fits under the complete size");
    assert!(bounded.n_transitions() < complete.n_transitions());
    [complete.to_bytes(), bounded.to_bytes()]
}

/// One spill file per artifact kind (lattice, skeleton, faulted route
/// table), each a real `spill::encode` image.
fn spill_images() -> Vec<Vec<u8>> {
    let inst = session();
    let lattice = inst.lattice(60_000).unwrap();
    let skeleton = inst
        .transition_skeleton(&Dpa1dConfig::default())
        .unwrap()
        .unwrap();
    let faulted = inst
        .platform()
        .with_fault(Fault::Link(CoreId { u: 0, v: 0 }, CoreId { u: 0, v: 1 }));
    let route = RouteTable::build(&faulted, RoutePolicy::Xy);
    [
        (
            ArtifactKey::Lattice { workload: 7 },
            Artifact::Lattice(lattice),
        ),
        (
            ArtifactKey::Skeleton {
                workload: 7,
                platform: 11,
            },
            Artifact::Skeleton(skeleton),
        ),
        (
            ArtifactKey::Route {
                platform: 11,
                policy: RoutePolicy::Xy.index() as u8,
            },
            Artifact::Route(Arc::new(route)),
        ),
    ]
    .iter()
    .map(|(k, a)| spill::encode(k, a))
    .collect()
}

/// Replaces the spill image's trailing checksum with the one its body now
/// deserves, so the mutation reaches the decoders behind it.
fn reseal(image: &mut [u8]) {
    let body = image.len() - 8;
    let sum = Fingerprint::new().bytes(&image[..body]).finish();
    image[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Offset of the payload inside a spill image (after magic, version, key
/// and the payload length prefix), and the offset of that prefix.
fn spill_payload_at(image: &[u8]) -> (usize, usize) {
    let key_bytes = match image[12] {
        0 => 8,
        1 => 16,
        2 => 9,
        k => panic!("unknown kind {k}"),
    };
    let len_at = 13 + key_bytes;
    (len_at, len_at + 8)
}

/// Reads the little-endian `u64` at `at`.
fn u64_at(image: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
}

/// Offsets of every `u64` length prefix in a `TransitionSkeleton` image:
/// the block count, the transition count, the work array's count.
fn skeleton_len_fields(image: &[u8]) -> Vec<usize> {
    let blocks = u64_at(image, 0) as usize;
    let to_at = 8 + BLOCK_BYTES * blocks;
    let work_at = to_at + 8 + 4 * u64_at(image, to_at) as usize;
    vec![0, to_at, work_at]
}

/// Bytes per block in a `TransitionSkeleton` image: source id, cut, hop,
/// range start and end.
const BLOCK_BYTES: usize = 4 + 8 + 8 + 4 + 4;

/// The `[start, end)` transition range of every block of a
/// `TransitionSkeleton` image, and the offset of its first work.
fn skeleton_blocks(image: &[u8]) -> (Vec<(usize, usize)>, usize) {
    let blocks = u64_at(image, 0) as usize;
    let range_at = |b: usize, field: usize| {
        let at = 8 + BLOCK_BYTES * b + 20 + 4 * field;
        u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize
    };
    let ranges = (0..blocks)
        .map(|b| (range_at(b, 0), range_at(b, 1)))
        .collect();
    let work_at = skeleton_len_fields(image)[2] + 8;
    (ranges, work_at)
}

/// Offsets of every `u64` length prefix in a `SharedLattice` image: the
/// lattice image length, then inside it the arena, bucket, Hasse,
/// Hasse-offset and mask counts and each mask's word count, then the cut
/// volume count.
fn lattice_len_fields(image: &[u8]) -> Vec<usize> {
    let mut fields = vec![0];
    let mut pos = 8;
    let slice = |pos: &mut usize, elem: usize, fields: &mut Vec<usize>| {
        fields.push(*pos);
        *pos += 8 + elem * u64_at(image, *pos) as usize;
    };
    slice(&mut pos, 8, &mut fields); // arena
    pos += 16; // word stride, capacity
    slice(&mut pos, 4, &mut fields); // buckets
    slice(&mut pos, 8, &mut fields); // Hasse pairs
    slice(&mut pos, 4, &mut fields); // Hasse offsets
    fields.push(pos);
    let masks = u64_at(image, pos) as usize;
    pos += 8;
    for _ in 0..masks {
        pos += 8; // mask capacity
        slice(&mut pos, 8, &mut fields);
    }
    slice(&mut pos, 8, &mut fields); // cut volumes
    assert_eq!(pos, image.len(), "the walk covers the whole image");
    fields
}

/// Values a corrupted length prefix is set to: each claims more elements
/// than the bytes left in any image here can hold.
fn hostile_lengths(rng: &mut ChaCha8Rng, image_len: usize) -> Vec<u64> {
    vec![
        u64::MAX,
        u64::MAX / 2 + 1,
        1 << 32,
        1 << 61,
        image_len as u64 + 1,
        rng.gen_range(image_len as u64 + 1..=u64::MAX),
    ]
}

/// One seeded random mutation: a few bit flips, a byte splice, or a
/// truncation, mixed.
fn mutate(rng: &mut ChaCha8Rng, image: &[u8]) -> Vec<u8> {
    let mut m = image.to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            for _ in 0..rng.gen_range(1..=8u32) {
                let bit = rng.gen_range(0..m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => {
            let at = rng.gen_range(0..m.len());
            let n = rng.gen_range(1..=16usize).min(m.len() - at);
            for b in &mut m[at..at + n] {
                *b = rng.next_u32() as u8;
            }
        }
        2 => {
            let keep = rng.gen_range(0..m.len());
            m.truncate(keep);
        }
        _ => {
            let at = rng.gen_range(0..m.len());
            m.insert(at, rng.next_u32() as u8);
        }
    }
    m
}

/// Decodes `m` with a payload codec: `Err`, or a value that re-encodes to
/// exactly `m` (a mutation that happens to land on another valid image).
fn assert_total<T>(
    what: &str,
    m: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, String>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    if let Ok(v) = decode(m) {
        assert_eq!(encode(&v), m, "{what}: accepted a non-canonical image");
    }
}

/// Runs the payload codec through every truncation, every single-bit
/// flip, every corrupted length prefix and `CASES` seeded mutations.
fn exercise_payload<T>(
    name: &str,
    image: &[u8],
    len_fields: &[usize],
    seed: u64,
    decode: impl Fn(&[u8]) -> Result<T, String>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    assert_eq!(encode(&decode(image).unwrap()), image, "{name} round trip");
    for keep in 0..image.len() {
        assert!(
            decode(&image[..keep]).is_err(),
            "{name}: prefix {keep} decoded"
        );
    }
    for bit in 0..image.len() * 8 {
        let mut m = image.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        assert_total(&format!("{name} bit {bit}"), &m, &decode, &encode);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &at in len_fields {
        for v in hostile_lengths(&mut rng, image.len()) {
            let mut m = image.to_vec();
            m[at..at + 8].copy_from_slice(&v.to_le_bytes());
            assert!(decode(&m).is_err(), "{name}: length {v} at {at} decoded");
        }
    }
    for case in 0..CASES {
        let m = mutate(&mut rng, image);
        assert_total(
            &format!("{name} seed {seed} case {case}"),
            &m,
            &decode,
            &encode,
        );
    }
}

#[test]
fn lattice_codec_survives_mutation() {
    let image = lattice_image();
    let fields = lattice_len_fields(&image);
    exercise_payload(
        "lattice",
        &image,
        &fields,
        0x5eed_0001,
        SharedLattice::from_bytes,
        SharedLattice::to_bytes,
    );
}

#[test]
fn skeleton_codec_survives_mutation() {
    for (i, image) in skeleton_images().iter().enumerate() {
        let fields = skeleton_len_fields(image);
        exercise_payload(
            &format!("skeleton {i}"),
            image,
            &fields,
            0x5eed_0002 + i as u64,
            TransitionSkeleton::from_bytes,
            TransitionSkeleton::to_bytes,
        );
    }
}

/// Every swap of two distinct works inside one block, and every
/// non-finite ceiling, is refused: the admission prefix of an unsorted
/// block, or a skeleton that claims to serve every period, would drop
/// transitions without a sign. A swap of two works in different blocks
/// that keeps both sorted is a different valid skeleton, and must
/// re-encode exactly.
#[test]
fn unsorted_blocks_and_unbounded_ceilings_are_refused() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0003);
    for (i, image) in skeleton_images().iter().enumerate() {
        let (ranges, work_at) = skeleton_blocks(image);
        let work =
            |m: &[u8], t: usize| f64::from_le_bytes(m[work_at + 8 * t..][..8].try_into().unwrap());
        let mut swaps = 0;
        for &(start, end) in &ranges {
            for a in start..end {
                for b in a + 1..end {
                    if work(image, a) == work(image, b) {
                        continue;
                    }
                    let mut m = image.clone();
                    let (wa, wb) = (work(image, a), work(image, b));
                    m[work_at + 8 * a..][..8].copy_from_slice(&wb.to_le_bytes());
                    m[work_at + 8 * b..][..8].copy_from_slice(&wa.to_le_bytes());
                    let err = TransitionSkeleton::from_bytes(&m).unwrap_err();
                    assert!(err.contains("not sorted"), "image {i} swap {a}/{b}: {err}");
                    swaps += 1;
                }
            }
        }
        assert!(swaps > 0, "image {i} has a block of distinct works");
        let n = u64_at(image, skeleton_len_fields(image)[2]) as usize;
        for case in 0..CASES {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let mut m = image.clone();
            let (wa, wb) = (work(image, a), work(image, b));
            m[work_at + 8 * a..][..8].copy_from_slice(&wb.to_le_bytes());
            m[work_at + 8 * b..][..8].copy_from_slice(&wa.to_le_bytes());
            assert_total(
                &format!("image {i} case {case}"),
                &m,
                TransitionSkeleton::from_bytes,
                TransitionSkeleton::to_bytes,
            );
        }
        let ceiling_at = image.len() - 8;
        for ceiling in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut m = image.clone();
            m[ceiling_at..].copy_from_slice(&ceiling.to_le_bytes());
            let err = TransitionSkeleton::from_bytes(&m).unwrap_err();
            assert!(err.contains("finite period"), "image {i} {ceiling}: {err}");
        }
    }
}

/// Any change to a spill file is refused: the checksum covers every byte,
/// so truncations, bit flips and seeded mutations all decode to `Err`.
#[test]
fn spill_envelope_refuses_every_mutation() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0010);
    for (i, image) in spill_images().iter().enumerate() {
        assert!(spill::decode(image).is_ok(), "image {i} round trip");
        for keep in 0..image.len() {
            assert!(
                spill::decode(&image[..keep]).is_err(),
                "image {i} prefix {keep}"
            );
        }
        for bit in 0..image.len() * 8 {
            let mut m = image.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert!(spill::decode(&m).is_err(), "image {i} bit {bit}");
        }
        for case in 0..CASES {
            let m = mutate(&mut rng, image);
            if m != *image {
                assert!(spill::decode(&m).is_err(), "image {i} case {case}");
            }
        }
    }
}

/// Behind a valid checksum, a corrupted length prefix (the envelope's own
/// or one inside the payload) still decodes to `Err`, and every single-bit
/// flip and seeded mutation decodes to `Err` or to an image that
/// re-encodes exactly.
#[test]
fn resealed_spill_mutations_never_panic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0020);
    for (i, image) in spill_images().iter().enumerate() {
        let (len_at, payload_at) = spill_payload_at(image);
        let payload = &image[payload_at..image.len() - 8];
        let mut fields = vec![len_at];
        fields.extend(
            match image[12] {
                0 => lattice_len_fields(payload),
                1 => skeleton_len_fields(payload),
                _ => vec![],
            }
            .into_iter()
            .map(|at| payload_at + at),
        );
        for &at in &fields {
            for v in hostile_lengths(&mut rng, image.len()) {
                let mut m = image.clone();
                m[at..at + 8].copy_from_slice(&v.to_le_bytes());
                reseal(&mut m);
                assert!(spill::decode(&m).is_err(), "image {i}: length {v} at {at}");
            }
        }
        let reencode = |(k, a): &(ArtifactKey, Artifact)| spill::encode(k, a);
        for bit in 0..(image.len() - 8) * 8 {
            let mut m = image.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            reseal(&mut m);
            assert_total(&format!("image {i} bit {bit}"), &m, spill::decode, reencode);
        }
        for case in 0..CASES {
            let mut m = mutate(&mut rng, image);
            if m.len() < 8 {
                continue;
            }
            reseal(&mut m);
            assert_total(
                &format!("image {i} case {case}"),
                &m,
                spill::decode,
                reencode,
            );
        }
    }
}
