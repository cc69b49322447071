//! Persistent spill/reload for the artifact cache.
//!
//! Artifacts are **deterministic functions of their fingerprints** — a
//! lattice is determined by the workload that fingerprinted it, a skeleton
//! by workload × platform × ceiling, a route table by platform × policy —
//! so a daemon restart does not have to recompute them: `xp serve
//! --cache-dir DIR` writes every newly inserted artifact behind the
//! request (write-behind, outside the cache lock) and reloads the
//! directory on startup, so the first request after a restart is as warm
//! as the last one before it.
//!
//! One artifact per file, named after its key (`lattice-<fp>.xpa`,
//! `skeleton-<fp>-<fp>-<ceiling>.xpa`, `route-<fp>-<policy>.xpa`), laid
//! out as:
//!
//! ```text
//! +--------+---------+-----+----------------+---------+----------+
//! | magic  | version | key | payload length | payload | FNV-1a64 |
//! | 8 B    | u32 LE  | ... | u64 LE         | ...     | u64 LE   |
//! +--------+---------+-----+----------------+---------+----------+
//! ```
//!
//! The checksum covers every preceding byte. Loading is **tolerant**:
//! a corrupt, truncated, or version-skewed file is counted and skipped,
//! never fatal — the daemon simply starts colder. Writes go through a
//! uniquely named temporary file followed by an atomic rename, so a
//! half-written spill can never be observed (a concurrent reader sees
//! either the old complete file or the new complete file), which is what
//! makes spilling during a draining shutdown safe.
//!
//! Version skew is handled at the envelope, not by schema evolution: the
//! payload codecs (`IdealLattice::to_bytes` and friends) are frozen per
//! [`SPILL_VERSION`], and a format change bumps the version, invalidating
//! — not corrupting — old directories.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cmp_platform::RouteTable;
use spg::wire;

use super::cache::{Artifact, ArtifactCache, ArtifactKey};
use super::fingerprint::Fingerprint;
use crate::dpa1d::TransitionSkeleton;
use crate::instance::SharedLattice;

/// File magic: identifies an artifact spill file.
pub const SPILL_MAGIC: [u8; 8] = *b"XPARTIFS";
/// Envelope version; bumping it invalidates (skips) older spill files.
/// Version 2 changed the skeleton image layout.
pub const SPILL_VERSION: u32 = 2;
/// Extension of spill files inside a cache directory.
pub const SPILL_EXT: &str = "xpa";

/// Outcome counters of a directory reload, surfaced through `stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Artifacts decoded, validated, and inserted.
    pub loaded: u64,
    /// Files skipped: corrupt, truncated, checksum-mismatched, or written
    /// by a different envelope version.
    pub skipped: u64,
}

/// The file name an artifact spills to — a pure function of its key, so a
/// re-spill of the same key atomically replaces the previous image.
pub fn file_name(key: &ArtifactKey) -> String {
    match key {
        ArtifactKey::Lattice { workload } => format!("lattice-{workload:016x}.{SPILL_EXT}"),
        ArtifactKey::Skeleton {
            workload,
            platform,
            ceiling,
        } => format!("skeleton-{workload:016x}-{platform:016x}-{ceiling:016x}.{SPILL_EXT}"),
        ArtifactKey::Route { platform, policy } => {
            format!("route-{platform:016x}-{policy:02x}.{SPILL_EXT}")
        }
    }
}

/// Serialises one `(key, artifact)` pair into a complete spill-file image
/// (magic, version, key, payload, trailing checksum).
pub fn encode(key: &ArtifactKey, artifact: &Artifact) -> Vec<u8> {
    let payload = match artifact {
        Artifact::Lattice(l) => l.to_bytes(),
        Artifact::Skeleton(s) => s.to_bytes(),
        Artifact::Route(r) => r.to_bytes(),
    };
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(&SPILL_MAGIC);
    wire::put_u32(&mut out, SPILL_VERSION);
    match *key {
        ArtifactKey::Lattice { workload } => {
            out.push(0);
            wire::put_u64(&mut out, workload);
        }
        ArtifactKey::Skeleton {
            workload,
            platform,
            ceiling,
        } => {
            out.push(1);
            wire::put_u64(&mut out, workload);
            wire::put_u64(&mut out, platform);
            wire::put_u64(&mut out, ceiling);
        }
        ArtifactKey::Route { platform, policy } => {
            out.push(2);
            wire::put_u64(&mut out, platform);
            out.push(policy);
        }
    }
    wire::put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let sum = Fingerprint::new().bytes(&out).finish();
    wire::put_u64(&mut out, sum);
    out
}

/// Decodes and validates a spill-file image: magic, envelope version,
/// trailing checksum, then the kind-specific payload codec (which
/// re-validates its own structural invariants).
pub fn decode(bytes: &[u8]) -> Result<(ArtifactKey, Artifact), String> {
    if bytes.len() < SPILL_MAGIC.len() + 4 + 8 {
        return Err("file shorter than the spill envelope".into());
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let mut pos = 0usize;
    if wire::take(body, &mut pos, 8)? != SPILL_MAGIC {
        return Err("bad spill magic".into());
    }
    let version = wire::get_u32(body, &mut pos)?;
    if version != SPILL_VERSION {
        return Err(format!(
            "spill version {version} (daemon speaks {SPILL_VERSION})"
        ));
    }
    let expected = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte split"));
    if Fingerprint::new().bytes(body).finish() != expected {
        return Err("checksum mismatch".into());
    }
    let kind = wire::take(body, &mut pos, 1)?[0];
    let key = match kind {
        0 => ArtifactKey::Lattice {
            workload: wire::get_u64(body, &mut pos)?,
        },
        1 => ArtifactKey::Skeleton {
            workload: wire::get_u64(body, &mut pos)?,
            platform: wire::get_u64(body, &mut pos)?,
            ceiling: wire::get_u64(body, &mut pos)?,
        },
        2 => ArtifactKey::Route {
            platform: wire::get_u64(body, &mut pos)?,
            policy: wire::take(body, &mut pos, 1)?[0],
        },
        k => return Err(format!("unknown artifact kind {k}")),
    };
    let len = wire::get_len(body, &mut pos, 1)?;
    let payload = wire::take(body, &mut pos, len)?;
    if pos != body.len() {
        return Err(format!("{} trailing bytes in spill body", body.len() - pos));
    }
    let artifact = match key {
        ArtifactKey::Lattice { .. } => {
            Artifact::Lattice(Arc::new(SharedLattice::from_bytes(payload)?))
        }
        ArtifactKey::Skeleton { .. } => {
            Artifact::Skeleton(Arc::new(TransitionSkeleton::from_bytes(payload)?))
        }
        ArtifactKey::Route { .. } => Artifact::Route(Arc::new(RouteTable::from_bytes(payload)?)),
    };
    Ok((key, artifact))
}

/// Sequence for unique temporary-file names: concurrent spills (even of
/// the same key, e.g. during a draining shutdown) must never share a
/// partially written file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes one artifact to `dir` atomically: the image lands in a uniquely
/// named `.tmp` sibling first and is renamed over the final path, so
/// readers only ever observe complete files.
pub fn spill(dir: &Path, key: &ArtifactKey, artifact: &Artifact) -> io::Result<()> {
    let final_path = dir.join(file_name(key));
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_path = dir.join(format!(
        "{}.{}.{seq}.tmp",
        file_name(key),
        std::process::id()
    ));
    fs::write(&tmp_path, encode(key, artifact))?;
    let renamed = fs::rename(&tmp_path, &final_path);
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    renamed
}

/// Reloads every spill file in `dir` into `cache`, in file-name order
/// (deterministic LRU seeding). Invalid files are counted and skipped;
/// an unreadable or absent directory loads nothing. Inserting through the
/// cache's normal first-write-wins path means a reload never touches the
/// hit/miss counters — a warm restart's first request probes with zero
/// recorded misses.
pub fn load_dir(dir: &Path, cache: &mut ArtifactCache) -> SpillStats {
    let mut stats = SpillStats::default();
    let Ok(entries) = fs::read_dir(dir) else {
        return stats;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SPILL_EXT))
        .collect();
    paths.sort();
    for path in paths {
        let decoded = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| decode(&bytes));
        match decoded {
            Ok((key, artifact)) => {
                cache.insert(key, artifact);
                stats.loaded += 1;
            }
            Err(reason) => {
                eprintln!("xp serve: skipping spill file {}: {reason}", path.display());
                stats.skipped += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use cmp_platform::{Platform, RoutePolicy};

    fn artifacts() -> Vec<(ArtifactKey, Artifact)> {
        let inst = Instance::new(spg::chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 0.5);
        vec![
            (
                ArtifactKey::Lattice { workload: 0xabc },
                Artifact::Lattice(inst.lattice(10_000).unwrap()),
            ),
            (
                ArtifactKey::Skeleton {
                    workload: 0xabc,
                    platform: 0xdef,
                    ceiling: f64::INFINITY.to_bits(),
                },
                Artifact::Skeleton(
                    inst.transition_skeleton(&crate::Dpa1dConfig::default())
                        .unwrap()
                        .expect("6-stage chain fits the edge cap"),
                ),
            ),
            (
                ArtifactKey::Route {
                    platform: 0xdef,
                    policy: RoutePolicy::Snake.index() as u8,
                },
                Artifact::Route(inst.route_table(RoutePolicy::Snake)),
            ),
        ]
    }

    #[test]
    fn every_artifact_kind_round_trips() {
        for (key, artifact) in artifacts() {
            let image = encode(&key, &artifact);
            let (k2, a2) = decode(&image).unwrap();
            assert_eq!(k2, key);
            // Re-encoding the decoded artifact is bit-stable — the strong
            // form of payload fidelity.
            assert_eq!(encode(&k2, &a2), image);
        }
    }

    #[test]
    fn corruption_truncation_and_version_skew_are_rejected() {
        let (key, artifact) = artifacts().remove(0);
        let image = encode(&key, &artifact);
        // Flip one payload byte: checksum must catch it.
        let mut flipped = image.clone();
        let mid = image.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode(&flipped).unwrap_err().contains("checksum"));
        // Truncate at a sample of boundaries.
        for cut in [0, 7, 12, 20, image.len() - 1] {
            assert!(decode(&image[..cut]).is_err(), "cut {cut}");
        }
        // Version skew is reported as such (checksum recomputed so the
        // version check, not the checksum, rejects it).
        let mut skewed = image.clone();
        skewed[8..12].copy_from_slice(&(SPILL_VERSION + 1).to_le_bytes());
        let body_len = skewed.len() - 8;
        let sum = Fingerprint::new().bytes(&skewed[..body_len]).finish();
        skewed[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&skewed).unwrap_err().contains("version"));
    }

    #[test]
    fn load_dir_is_tolerant_and_counts_outcomes() {
        let dir = std::env::temp_dir().join(format!("xp-spill-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let arts = artifacts();
        for (key, artifact) in &arts {
            spill(&dir, key, artifact).unwrap();
        }
        // One corrupt file and one non-spill file alongside.
        fs::write(dir.join("garbage.xpa"), b"not a spill file").unwrap();
        fs::write(dir.join("README.txt"), b"ignored entirely").unwrap();
        let mut cache = ArtifactCache::new(usize::MAX);
        let stats = load_dir(&dir, &mut cache);
        assert_eq!(stats.loaded, 3);
        assert_eq!(stats.skipped, 1);
        assert_eq!(cache.len(), 3);
        for (key, _) in &arts {
            assert!(cache.contains(key), "missing {key}");
        }
        // Reload must not have counted hits or misses.
        let cs = cache.stats();
        assert_eq!((cs.hits, cs.misses), (0, 0));
        // A missing directory loads nothing and is not an error.
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(load_dir(&dir, &mut cache), SpillStats::default());
    }
}
