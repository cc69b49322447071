//! The byte-bounded LRU artifact cache.
//!
//! A daemon outlives any single request, so the expensive derived state an
//! [`crate::Instance`] builds lazily — the interned ideal lattice, the
//! `DPA1D` transition skeleton, per-policy route tables — can be kept and
//! re-seeded into later instances whose *content* matches (see
//! [`super::fingerprint`]). All three artifacts are period-independent,
//! which is exactly why `Instance::with_period` shares them; the cache
//! extends that sharing across requests and connections.
//!
//! The bound is **bytes**, not entries: one Filterbank lattice outweighs a
//! thousand route tables, so an entry-count LRU would be meaningless. Each
//! artifact reports its approximate heap footprint via the `size_bytes`
//! accessors grown on the underlying types.
//!
//! Eviction is strict least-recently-*used* (a hit or an insert bumps a
//! monotonic tick) and therefore deterministic under serialized replay of
//! the same request sequence — the integration tests replay a scripted
//! session twice and assert the eviction logs match. The scan for the
//! minimum tick is O(entries); a daemon holds tens of artifacts, not
//! millions, so a heap would be pure ceremony.

use std::collections::HashMap;
use std::sync::Arc;

use cmp_platform::RouteTable;

use crate::dpa1d::TransitionSkeleton;
use crate::instance::SharedLattice;

/// Cache key: which artifact, derived from which content.
///
/// Fingerprints (see [`super::fingerprint`]) stand in for the content
/// itself. The skeleton key carries both fingerprints because the
/// transition skeleton folds platform quantities (DVFS table, snake
/// route) into workload structure; route tables never look at the
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// Interned ideal lattice + cut volumes for a workload.
    Lattice {
        /// [`super::fingerprint::workload_fingerprint`] of the SPG.
        workload: u64,
    },
    /// `DPA1D` transition skeleton for a workload on a platform: one per
    /// pair, whatever its [`TransitionSkeleton::period_ceiling`]. It
    /// serves the requests at or below its ceiling (see
    /// [`Artifact::serves`]), and a strictly looser build replaces it (see
    /// [`ArtifactCache::insert`]).
    Skeleton {
        /// Workload fingerprint.
        workload: u64,
        /// [`super::fingerprint::platform_fingerprint`] of the platform.
        platform: u64,
    },
    /// Route table for a platform under one routing policy.
    Route {
        /// Platform fingerprint.
        platform: u64,
        /// [`cmp_platform::RoutePolicy::index`] of the policy.
        policy: u8,
    },
}

impl ArtifactKey {
    /// Stable kind tag (`stats` output, eviction log).
    pub fn kind(&self) -> &'static str {
        match self {
            ArtifactKey::Lattice { .. } => "lattice",
            ArtifactKey::Skeleton { .. } => "skeleton",
            ArtifactKey::Route { .. } => "route",
        }
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKey::Lattice { workload } => write!(f, "lattice/{workload:016x}"),
            ArtifactKey::Skeleton { workload, platform } => {
                write!(f, "skeleton/{workload:016x}/{platform:016x}")
            }
            ArtifactKey::Route { platform, policy } => {
                write!(f, "route/{platform:016x}/{policy}")
            }
        }
    }
}

/// A cached artifact: a shared handle to one piece of derived state.
#[derive(Clone)]
pub enum Artifact {
    /// See [`SharedLattice`].
    Lattice(Arc<SharedLattice>),
    /// See [`TransitionSkeleton`].
    Skeleton(Arc<TransitionSkeleton>),
    /// See [`RouteTable`].
    Route(Arc<RouteTable>),
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Artifact::Lattice(_) => "Lattice",
            Artifact::Skeleton(_) => "Skeleton",
            Artifact::Route(_) => "Route",
        };
        write!(f, "Artifact::{kind}({} bytes)", self.size_bytes())
    }
}

impl Artifact {
    /// Approximate heap footprint, charged against the cache bound.
    pub fn size_bytes(&self) -> usize {
        match self {
            Artifact::Lattice(l) => l.size_bytes(),
            Artifact::Skeleton(s) => s.size_bytes(),
            Artifact::Route(r) => r.size_bytes(),
        }
    }

    /// Whether this artifact serves a solve at `period`: lattices and
    /// route tables are period-independent, and a skeleton serves the
    /// periods at or below its ceiling ([`TransitionSkeleton::serves`]).
    pub fn serves(&self, period: f64) -> bool {
        match self {
            Artifact::Skeleton(s) => s.serves(period),
            Artifact::Lattice(_) | Artifact::Route(_) => true,
        }
    }

    /// Whether this artifact replaces `live` under the same key: only a
    /// skeleton that [supersedes](TransitionSkeleton::supersedes) the live
    /// one does.
    fn supersedes(&self, live: &Artifact) -> bool {
        match (self, live) {
            (Artifact::Skeleton(new), Artifact::Skeleton(old)) => new.supersedes(old),
            _ => false,
        }
    }
}

/// Counters surfaced by the daemon's `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their artifact.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries evicted to respect the byte bound.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Live bytes (sum of entry `size_bytes`).
    pub bytes: usize,
    /// The configured bound.
    pub limit_bytes: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    artifact: Artifact,
    bytes: usize,
    tick: u64,
}

/// How many evicted keys the cache remembers for diagnostics.
const EVICTION_LOG_CAP: usize = 64;

/// Byte-bounded LRU map from [`ArtifactKey`] to [`Artifact`].
pub struct ArtifactCache {
    limit_bytes: usize,
    map: HashMap<ArtifactKey, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    eviction_log: Vec<ArtifactKey>,
}

impl ArtifactCache {
    /// An empty cache bounded at `limit_bytes` of artifact payload.
    pub fn new(limit_bytes: usize) -> Self {
        ArtifactCache {
            limit_bytes,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            eviction_log: Vec::new(),
        }
    }

    /// Looks up an artifact that `usable` accepts (the daemon accepts one
    /// that [`Artifact::serves`] the request's period): a hit bumps its
    /// recency and the hit counter; a missing or unusable entry counts as
    /// a miss and is left as it was.
    pub fn get_if(
        &mut self,
        key: &ArtifactKey,
        usable: impl FnOnce(&Artifact) -> bool,
    ) -> Option<Artifact> {
        self.tick += 1;
        match self.map.get_mut(key).filter(|e| usable(&e.artifact)) {
            Some(e) => {
                e.tick = self.tick;
                self.hits += 1;
                Some(e.artifact.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks an artifact up **without** bumping recency or the hit/miss
    /// counters — the admission controller's service-time predictor probes
    /// a request's keys before the request is accepted, and a shed request
    /// must leave neither LRU order nor the deterministic counter sequence
    /// behind.
    pub fn peek(&self, key: &ArtifactKey) -> Option<&Artifact> {
        self.map.get(key).map(|e| &e.artifact)
    }

    /// Inserts an artifact, then evicts least-recently-used entries until
    /// the byte bound holds. Under a live key the first materialisation
    /// wins, matching the seed-slot semantics on [`crate::Instance`]: the
    /// insert is a no-op, unless the new artifact is a skeleton with a
    /// strictly looser ceiling, which replaces the live one (recharged at
    /// its own size). An artifact larger than the whole bound is evicted
    /// immediately; the insert still counts. Returns whether the artifact
    /// was stored (the write-behind spill trigger; a no-op must not
    /// re-spill).
    pub fn insert(&mut self, key: ArtifactKey, artifact: Artifact) -> bool {
        if let Some(live) = self.map.get(&key) {
            if !artifact.supersedes(&live.artifact) {
                return false;
            }
            self.bytes -= live.bytes;
            self.map.remove(&key);
        }
        self.tick += 1;
        let bytes = artifact.size_bytes();
        self.bytes += bytes;
        self.map.insert(
            key,
            Entry {
                artifact,
                bytes,
                tick: self.tick,
            },
        );
        while self.bytes > self.limit_bytes {
            let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, e)| e.tick) else {
                break;
            };
            let e = self.map.remove(&oldest).expect("key just observed");
            self.bytes -= e.bytes;
            self.evictions += 1;
            if self.eviction_log.len() == EVICTION_LOG_CAP {
                self.eviction_log.remove(0);
            }
            self.eviction_log.push(oldest);
        }
        true
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
            limit_bytes: self.limit_bytes,
        }
    }

    /// The most recent evictions, oldest first (capped, for diagnostics
    /// and determinism tests).
    pub fn eviction_log(&self) -> &[ArtifactKey] {
        &self.eviction_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use cmp_platform::{Platform, RoutePolicy};

    /// A real (small) artifact set harvested from an instance session (its
    /// skeleton built at the session's 0.5 s).
    fn artifacts() -> Vec<(ArtifactKey, Artifact)> {
        let inst = Instance::new(spg::chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 0.5);
        let lattice = inst.lattice(10_000).unwrap();
        let skeleton = inst
            .transition_skeleton(&crate::Dpa1dConfig::default())
            .unwrap()
            .expect("a 6-stage chain fits the default edge cap");
        let route = inst.route_table(RoutePolicy::Xy);
        vec![
            (
                ArtifactKey::Lattice { workload: 1 },
                Artifact::Lattice(lattice),
            ),
            (
                ArtifactKey::Skeleton {
                    workload: 1,
                    platform: 9,
                },
                Artifact::Skeleton(skeleton),
            ),
            (
                ArtifactKey::Route {
                    platform: 9,
                    policy: 0,
                },
                Artifact::Route(route),
            ),
        ]
    }

    #[test]
    fn hit_miss_and_byte_accounting() {
        let mut cache = ArtifactCache::new(usize::MAX);
        let arts = artifacts();
        for (k, a) in &arts {
            assert!(cache.get_if(k, |_| true).is_none());
            cache.insert(*k, a.clone());
        }
        let expected_bytes: usize = arts.iter().map(|(_, a)| a.size_bytes()).sum();
        for (k, _) in &arts {
            assert!(cache.get_if(k, |_| true).is_some());
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 3, 0));
        assert_eq!(s.entries, 3);
        assert_eq!(s.bytes, expected_bytes);
        assert!(s.bytes > 0, "artifacts must report non-zero footprints");
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used_deterministically() {
        let arts = artifacts();
        // Bound that fits the three artifacts exactly — any further insert
        // must evict.
        let total: usize = arts.iter().map(|(_, a)| a.size_bytes()).sum();
        let limit = total;
        let replay = || {
            let mut cache = ArtifactCache::new(limit);
            for (k, a) in &arts {
                cache.insert(*k, a.clone());
            }
            // Touch the first key so the second becomes LRU, then insert a
            // duplicate-sized artifact under a fresh key to force eviction.
            let _ = cache.get_if(&arts[0].0, |_| true);
            cache.insert(ArtifactKey::Lattice { workload: 77 }, arts[0].1.clone());
            cache.eviction_log().to_vec()
        };
        let a = replay();
        let b = replay();
        assert_eq!(a, b, "same request order must evict in the same order");
        assert!(!a.is_empty(), "the bound must have forced evictions");
        // arts[0] was touched after insertion, so the oldest un-touched
        // entry — arts[1] — goes first.
        assert_eq!(a[0], arts[1].0);
    }

    #[test]
    fn insert_is_first_write_wins() {
        let arts = artifacts();
        let mut cache = ArtifactCache::new(usize::MAX);
        cache.insert(arts[0].0, arts[0].1.clone());
        let before = cache.stats().bytes;
        cache.insert(arts[0].0, arts[1].1.clone());
        assert_eq!(cache.stats().bytes, before, "re-insert must be a no-op");
        assert_eq!(cache.len(), 1);
    }

    /// A skeleton lookup hits only when the skeleton serves the period,
    /// and only a strictly looser skeleton replaces the live one.
    #[test]
    fn a_skeleton_serves_its_periods_and_yields_to_a_looser_one() {
        let arts = artifacts();
        let (key, tight) = arts[1].clone();
        let inst = Instance::new(spg::chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 1.0);
        let loose = Artifact::Skeleton(
            inst.transition_skeleton(&crate::Dpa1dConfig::default())
                .unwrap()
                .unwrap(),
        );
        let mut cache = ArtifactCache::new(usize::MAX);
        assert!(cache.insert(key, tight.clone()));
        let serves = |t: f64| move |a: &Artifact| a.serves(t);
        assert!(cache.get_if(&key, serves(0.5)).is_some());
        assert!(cache.get_if(&key, serves(0.75)).is_none(), "above 0.5 s");
        assert!(cache.peek(&key).is_some_and(|a| !a.serves(0.75)));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        // A looser build replaces it at its own size, a tighter or equal
        // one does not.
        assert!(cache.insert(key, loose.clone()));
        assert_eq!(cache.stats().bytes, loose.size_bytes());
        assert!(!cache.insert(key, tight));
        assert!(!cache.insert(key, loose));
        assert_eq!(cache.len(), 1);
        assert!(cache.get_if(&key, serves(0.75)).is_some());
        assert_eq!(cache.stats().evictions, 0, "a replacement is no eviction");
    }

    #[test]
    fn oversized_artifact_is_evicted_immediately() {
        let arts = artifacts();
        let mut cache = ArtifactCache::new(1);
        cache.insert(arts[0].0, arts[0].1.clone());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.eviction_log(), &[arts[0].0]);
    }
}
