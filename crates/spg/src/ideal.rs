//! Admissible subgraphs (order ideals) of an SPG.
//!
//! Paper Theorem 1 defines *admissible subgraphs* recursively: the full graph
//! is admissible, and removing a node with no successor from an admissible
//! subgraph yields an admissible subgraph. These are exactly the **order
//! ideals** (downward-closed sets) of the precedence DAG. In a
//! bounded-elevation SPG, stages sharing a `y` label are totally ordered by
//! precedence, so an ideal is characterised by at most one frontier stage per
//! elevation level — hence at most `n^ymax` ideals, which is the key to the
//! polynomial-time `DPA1D` algorithm.
//!
//! Ideals are **interned**: the lattice stores every ideal's words in one
//! flat arena and hands out dense [`IdealId`]s through an FxHash-style
//! open-addressing table. DP clients (`DPA1D` and friends) key their state
//! by `IdealId` and read ideals back as borrowed [`NodeSetRef`]s —
//! enumeration and lookup never clone a [`NodeSet`], and the membership
//! probe is a couple of multiplies instead of SipHash over a heap vector.
//!
//! Sizing comes first. [`count_ideals`] reads the exact lattice size off
//! the series-parallel reduction in near-linear time (see
//! [`mod@crate::recognize`]), so a caller can refuse an over-cap lattice
//! without enumerating or allocating any of it; `Instance::lattice` in
//! `ea-core` does exactly that. [`count_ideal_pairs`] reads the number of
//! nested ideal pairs off the same reduction, which sizes `DPA1D`'s
//! transition system the same way. Enumeration is a BFS over the ideal
//! lattice with a hard cap: a lattice the count has shown to fit is
//! enumerated in full, and only a DAG the reduction cannot close (not
//! series-parallel) relies on the cap itself. Exceeding it aborts with
//! [`IdealError::LimitExceeded`] at the `cap + 1`-th ideal, which `DPA1D`
//! surfaces as a heuristic failure (the paper observes exactly this on
//! the high-elevation StreamIt workflows).

use crate::graph::{Spg, StageId};
use crate::nodeset::{NodeSet, NodeSetRef};
use crate::wire;

/// Why ideal enumeration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdealError {
    /// More ideals than the configured cap — the graph's elevation is too
    /// large for the lattice to be tractable.
    LimitExceeded {
        /// The cap that was exceeded.
        cap: usize,
        /// A witness that the lattice is larger than `cap`: `cap + 1` when
        /// the lattice was refused by its count or enumeration stopped at
        /// the `cap + 1`-th ideal; the exact size when an already
        /// enumerated lattice merely exceeds a smaller requested cap. The
        /// exact size of an SP graph's lattice comes from
        /// [`count_ideals`].
        found: usize,
    },
}

impl std::fmt::Display for IdealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdealError::LimitExceeded { cap, .. } => {
                write!(f, "ideal lattice exceeds the cap of {cap} ideals")
            }
        }
    }
}

impl std::error::Error for IdealError {}

/// Dense index of one interned ideal inside its [`IdealLattice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdealId(pub u32);

impl IdealId {
    /// The id as a `usize`, for direct vector indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Multiplicative word mixer (FxHash's constant). Ideal bitsets are far
/// from random — downsets of the same SPG often share long runs of equal
/// low bits — so bucket indices must come from the **high** bits of the
/// product (Fibonacci hashing); see [`bucket_of`].
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_hash_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0;
    for &w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(FX_SEED);
    }
    h
}

/// Maps a hash to a slot of a power-of-two table using its high bits (the
/// low bits of a multiplicative hash only depend on the low input bits,
/// which collide catastrophically on chain-prefix bitsets).
#[inline]
fn bucket_of(h: u64, table_len: usize) -> usize {
    debug_assert!(table_len.is_power_of_two());
    (h >> (64 - table_len.trailing_zeros())) as usize
}

/// The enumerated ideal lattice of an SPG: an interning arena over all
/// ideals, grouped by cardinality in increasing order (BFS layers). Id 0 is
/// the empty ideal, the last id is the full stage set.
///
/// `Clone` exists for incremental workload edits (`Instance::with_edit`):
/// the lattice's *structure* only depends on the SP graph's shape, so a
/// weight/volume edit clones it and recomputes the derived cut volumes.
#[derive(Clone)]
pub struct IdealLattice {
    /// Flat word arena; ideal `i` occupies `words[i*wps .. (i+1)*wps]`.
    arena: Vec<u64>,
    /// Words per set (`ceil(capacity / 64)`).
    wps: usize,
    /// Stage count `n` of the SPG (every ideal's bit capacity).
    capacity: usize,
    /// Open-addressing table of `id + 1` entries (0 = empty bucket);
    /// `buckets.len()` is a power of two.
    buckets: Vec<u32>,
    /// Hasse diagram recorded during enumeration: `hasse[hasse_off[i] ..
    /// hasse_off[i+1]]` lists `(stage, child_id)` covers of ideal `i` —
    /// adding `stage` to ideal `i` yields ideal `child_id`. DP clients walk
    /// these instead of re-hashing candidate sets.
    hasse: Vec<(u32, u32)>,
    hasse_off: Vec<u32>,
    /// Per-stage predecessor masks of the enumerated graph, kept so DP
    /// clients do not have to recompute them ([`Spg::predecessor_masks`]).
    pred_masks: Vec<NodeSet>,
}

impl IdealLattice {
    fn with_capacity(capacity: usize, pred_masks: Vec<NodeSet>) -> Self {
        IdealLattice {
            arena: Vec::new(),
            wps: capacity.div_ceil(64).max(1),
            capacity,
            buckets: vec![0; 64],
            hasse: Vec::new(),
            hasse_off: vec![0],
            pred_masks,
        }
    }

    /// The enumerated graph's per-stage predecessor masks.
    #[inline]
    pub fn pred_masks(&self) -> &[NodeSet] {
        &self.pred_masks
    }

    /// Number of ideals (including the empty and full ideals).
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len() / self.wps
    }

    /// Approximate resident size in bytes: the word arena, the hash
    /// buckets, the Hasse diagram, and the predecessor masks. Used for
    /// byte-bounded artifact-cache accounting, so it only needs to track
    /// the dominant allocations, not every last pointer.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.arena.capacity() * std::mem::size_of::<u64>()
            + self.buckets.capacity() * std::mem::size_of::<u32>()
            + self.hasse.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.hasse_off.capacity() * std::mem::size_of::<u32>()
            + self
                .pred_masks
                .iter()
                .map(NodeSet::size_bytes)
                .sum::<usize>()
    }

    /// Whether the lattice is empty (never true for a valid SPG).
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The ideal behind an id, as a borrowed set.
    #[inline]
    pub fn get(&self, id: IdealId) -> NodeSetRef<'_> {
        let start = id.idx() * self.wps;
        NodeSetRef::from_words(&self.arena[start..start + self.wps], self.capacity)
    }

    /// Looks up the dense id of an ideal, if it is in the lattice.
    pub fn id_of(&self, set: NodeSetRef<'_>) -> Option<IdealId> {
        debug_assert_eq!(set.capacity(), self.capacity);
        let mask = self.buckets.len() - 1;
        let mut slot = bucket_of(fx_hash_words(set.words()), self.buckets.len());
        loop {
            match self.buckets[slot] {
                0 => return None,
                tag => {
                    let id = IdealId(tag - 1);
                    if self.get(id).words() == set.words() {
                        return Some(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// All ids in BFS (cardinality) order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = IdealId> {
        (0..self.len() as u32).map(IdealId)
    }

    /// All ideals in BFS (cardinality) order, as borrowed sets.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeSetRef<'_>> {
        self.arena
            .chunks_exact(self.wps)
            .map(|w| NodeSetRef::from_words(w, self.capacity))
    }

    /// The `(stage, child_id)` covers of `id`: adding `stage` to this ideal
    /// yields the ideal `child_id`. Populated for every ideal by
    /// [`enumerate_ideals`], in ready-stage order.
    #[inline]
    pub fn covers(&self, id: IdealId) -> &[(u32, u32)] {
        &self.hasse[self.hasse_off[id.idx()] as usize..self.hasse_off[id.idx() + 1] as usize]
    }

    /// The whole Hasse diagram as flat arrays: every `(stage, child_id)`
    /// cover of every ideal, and the offsets delimiting them — the covers
    /// of ideal `i` are `edges[offsets[i] .. offsets[i + 1]]`, the same
    /// slice [`IdealLattice::covers`] returns. A cover's position in
    /// `edges` is its dense *Hasse-edge id*, which lets DP clients index
    /// per-edge tables.
    #[inline]
    pub fn hasse(&self) -> (&[(u32, u32)], &[u32]) {
        (&self.hasse, &self.hasse_off)
    }

    /// The dense id of the empty ideal (always 0).
    pub fn empty_id(&self) -> IdealId {
        IdealId(0)
    }

    /// The dense id of the full ideal (always the last).
    pub fn full_id(&self) -> IdealId {
        IdealId((self.len() - 1) as u32)
    }

    /// Interns `set`: returns its id and whether it was newly inserted.
    fn intern(&mut self, set: NodeSetRef<'_>) -> (IdealId, bool) {
        debug_assert_eq!(set.capacity(), self.capacity);
        if (self.len() + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let mask = self.buckets.len() - 1;
        let mut slot = bucket_of(fx_hash_words(set.words()), self.buckets.len());
        loop {
            match self.buckets[slot] {
                0 => {
                    let id = IdealId(self.len() as u32);
                    self.arena.extend_from_slice(set.words());
                    self.buckets[slot] = id.0 + 1;
                    return (id, true);
                }
                tag => {
                    let id = IdealId(tag - 1);
                    if self.get(id).words() == set.words() {
                        return (id, false);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Serialises the lattice into a self-contained little-endian byte
    /// image for artifact-cache spill files. Every field — including the
    /// open-addressing table — is stored verbatim, so
    /// [`IdealLattice::from_bytes`] reconstructs a structurally identical
    /// lattice (same ids, same Hasse order, same bucket layout) without
    /// re-running enumeration.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.arena.len() * 8);
        wire::put_u64_slice(&mut out, &self.arena);
        wire::put_u64(&mut out, self.wps as u64);
        wire::put_u64(&mut out, self.capacity as u64);
        wire::put_u32_slice(&mut out, &self.buckets);
        wire::put_u64(&mut out, self.hasse.len() as u64);
        for &(s, c) in &self.hasse {
            wire::put_u32(&mut out, s);
            wire::put_u32(&mut out, c);
        }
        wire::put_u32_slice(&mut out, &self.hasse_off);
        wire::put_u64(&mut out, self.pred_masks.len() as u64);
        for m in &self.pred_masks {
            wire::put_u64(&mut out, m.capacity() as u64);
            wire::put_u64_slice(&mut out, m.words());
        }
        out
    }

    /// Decodes a byte image produced by [`IdealLattice::to_bytes`].
    ///
    /// Decoding is defensive — every length is bounds-checked against the
    /// remaining input and the cross-field invariants (arena a multiple of
    /// the word stride, power-of-two bucket table, monotone Hasse offsets)
    /// are re-validated — so a truncated or corrupted spill file yields an
    /// `Err`, never a panic or an inconsistent lattice.
    pub fn from_bytes(bytes: &[u8]) -> Result<IdealLattice, String> {
        let mut pos = 0usize;
        let arena = wire::get_u64_slice(bytes, &mut pos)?;
        let wps = wire::get_u64(bytes, &mut pos)? as usize;
        let capacity = wire::get_u64(bytes, &mut pos)? as usize;
        let buckets = wire::get_u32_slice(bytes, &mut pos)?;
        let n_hasse = wire::get_len(bytes, &mut pos, 8)?;
        let mut hasse = Vec::with_capacity(n_hasse);
        for _ in 0..n_hasse {
            let s = wire::get_u32(bytes, &mut pos)?;
            let c = wire::get_u32(bytes, &mut pos)?;
            hasse.push((s, c));
        }
        let hasse_off = wire::get_u32_slice(bytes, &mut pos)?;
        let n_masks = wire::get_len(bytes, &mut pos, 9)?;
        let mut pred_masks = Vec::with_capacity(n_masks);
        for _ in 0..n_masks {
            let cap = wire::get_u64(bytes, &mut pos)? as usize;
            let words = wire::get_u64_slice(bytes, &mut pos)?;
            if cap.div_ceil(64).max(1) != words.len() {
                return Err("predecessor mask word count disagrees with capacity".into());
            }
            pred_masks.push(NodeSet::from_words(&words, cap));
        }
        if pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after lattice image",
                bytes.len() - pos
            ));
        }
        if wps == 0 || wps != capacity.div_ceil(64).max(1) {
            return Err("word stride disagrees with capacity".into());
        }
        if arena.len() % wps != 0 {
            return Err("arena length is not a multiple of the word stride".into());
        }
        let len = arena.len() / wps;
        if !buckets.len().is_power_of_two() || buckets.len() * 3 < (len + 1) * 4 {
            return Err("bucket table is not a valid open-addressing table".into());
        }
        if buckets.iter().any(|&b| b as usize > len) {
            return Err("bucket entry exceeds ideal count".into());
        }
        if hasse_off.len() != len + 1
            || hasse_off.windows(2).any(|w| w[0] > w[1])
            || hasse_off.last().copied().unwrap_or(0) as usize != hasse.len()
        {
            return Err("Hasse offsets are not a monotone cover of the Hasse list".into());
        }
        if hasse
            .iter()
            .any(|&(s, c)| s as usize >= capacity.max(1) || c as usize >= len)
        {
            return Err("Hasse entry references an out-of-range stage or ideal".into());
        }
        if pred_masks.len() != capacity {
            return Err("predecessor mask count disagrees with stage count".into());
        }
        Ok(IdealLattice {
            arena,
            wps,
            capacity,
            buckets,
            hasse,
            hasse_off,
            pred_masks,
        })
    }

    /// Doubles the table and re-seats every id (arena is untouched).
    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut fresh = vec![0u32; new_len];
        for id in 0..self.len() as u32 {
            let start = id as usize * self.wps;
            let words = &self.arena[start..start + self.wps];
            let mut slot = bucket_of(fx_hash_words(words), new_len);
            while fresh[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            fresh[slot] = id + 1;
        }
        self.buckets = fresh;
    }
}

/// Stages that can be appended to `ideal` while keeping it downward-closed:
/// stages outside the ideal whose predecessors are all inside.
pub fn ready_stages(spg: &Spg, ideal: NodeSetRef<'_>) -> Vec<StageId> {
    spg.stages()
        .filter(|&s| {
            !ideal.contains(s.idx()) && spg.predecessors(s).all(|p| ideal.contains(p.idx()))
        })
        .collect()
}

/// The exact number of order ideals of `spg` (empty and full set
/// included), read off the series-parallel reduction without enumerating
/// any of them; see [`mod@crate::recognize`] for the recurrence. Saturates at
/// `u128::MAX` instead of overflowing. `None` when the reduction does not
/// close, i.e. `spg` is not two-terminal series-parallel.
pub fn count_ideals(spg: &Spg) -> Option<u128> {
    crate::recognize::reduce_spg(spg).1.map(|l| l.ideals())
}

/// The exact number of nested ideal pairs `I ⊊ J` of `spg` — the size of
/// `DPA1D`'s complete (work-uncapped) transition system, one transition
/// per pair — read off the same reduction as [`count_ideals`], so a
/// caller can refuse a transition build over its cap without walking any
/// of it. Saturates at `u128::MAX`; `None` when `spg` is not two-terminal
/// series-parallel.
pub fn count_ideal_pairs(spg: &Spg) -> Option<u128> {
    crate::recognize::reduce_spg(spg)
        .1
        .map(|l| l.proper_pairs())
}

/// Enumerates every order ideal of `spg`, capped at `cap` ideals.
///
/// The result is grouped by cardinality (all ideals of size `k` precede all
/// ideals of size `k+1`), which is the iteration order the `DPA1D` dynamic
/// program relies on.
///
/// Ready lists are maintained **incrementally**: when a new ideal is first
/// interned from parent `P` by adding stage `s`, its ready list is `P`'s
/// minus `s` plus the successors of `s` released by the addition (a stage
/// becomes ready exactly when its last missing predecessor arrives). The
/// lists are recorded as the lattice's Hasse stage entries (child ids are
/// filled in when the ideal is processed), so the whole BFS costs
/// `O(Σ covers)` instead of `O(#ideals · n)` mask scans, and works on one
/// scratch set — the only allocations are the arena pushes for genuinely
/// new ideals.
pub fn enumerate_ideals(spg: &Spg, cap: usize) -> Result<IdealLattice, IdealError> {
    match enumerate_ideals_polled(spg, cap, || Ok::<(), std::convert::Infallible>(())) {
        Ok(res) => res,
        Err(never) => match never {},
    }
}

/// Interned ideals between two calls of the check of
/// [`enumerate_ideals_polled`]: one poll (a clock read) costs about as much
/// as interning one ideal, and interning 1024 ideals of a 256-stage graph
/// takes about half a millisecond in release.
pub const ENUM_POLL_INTERVAL: usize = 1024;

/// [`enumerate_ideals`] that calls `check` once every
/// [`ENUM_POLL_INTERVAL`] interned ideals and stops with the check's error
/// (the outer `Err`) as soon as it returns one — how a caller bounds the
/// enumeration by a deadline. The inner result is the enumeration's own
/// outcome, a fact about `spg` and `cap` that a caller may cache; the
/// outer error says nothing about either.
pub fn enumerate_ideals_polled<E>(
    spg: &Spg,
    cap: usize,
    mut check: impl FnMut() -> Result<(), E>,
) -> Result<Result<IdealLattice, IdealError>, E> {
    let n = spg.n();
    let mut lat = IdealLattice::with_capacity(n, spg.predecessor_masks());
    let mut scratch = NodeSet::new(n);
    lat.intern(scratch.as_set());
    // The empty ideal's ready list: the unique source.
    lat.hasse.push((spg.source().0, PENDING));
    lat.hasse_off.push(lat.hasse.len() as u32);

    let mut i = 0usize;
    while i < lat.len() {
        let id = IdealId(i as u32);
        scratch.clone_from_ref(lat.get(id));
        let (start, end) = (lat.hasse_off[i] as usize, lat.hasse_off[i + 1] as usize);
        for k in start..end {
            let s = StageId(lat.hasse[k].0);
            scratch.insert(s.idx());
            let (child, inserted) = lat.intern(scratch.as_set());
            lat.hasse[k].1 = child.0;
            if inserted {
                if lat.len() > cap {
                    return Ok(Err(IdealError::LimitExceeded {
                        cap,
                        found: lat.len(),
                    }));
                }
                if lat.len().is_multiple_of(ENUM_POLL_INTERVAL) {
                    check()?;
                }
                // Record the child's ready list: this level's stages minus
                // `s`, plus the successors of `s` whose predecessors are now
                // all present.
                for k2 in start..end {
                    let other = lat.hasse[k2].0;
                    if other != s.0 {
                        lat.hasse.push((other, PENDING));
                    }
                }
                let released_start = lat.hasse.len();
                for (_, e) in spg.out_edges(s) {
                    let d = e.dst;
                    if lat.pred_masks[d.idx()].as_set().is_subset(scratch.as_set())
                        // Parallel edges `s → d` must release `d` only once.
                        && !lat.hasse[released_start..].iter().any(|&(x, _)| x == d.0)
                    {
                        lat.hasse.push((d.0, PENDING));
                    }
                }
                lat.hasse_off.push(lat.hasse.len() as u32);
            }
            scratch.remove(s.idx());
        }
        i += 1;
    }
    Ok(Ok(lat))
}

/// The cut volume ([`Spg::cut_volume`]) of every ideal of `lattice`, in id
/// order: [`cut_volumes_polled`] with a check that cannot fail.
pub fn cut_volumes(spg: &Spg, lattice: &IdealLattice) -> Vec<f64> {
    match cut_volumes_polled(spg, lattice, || Ok::<(), std::convert::Infallible>(())) {
        Ok(cuts) => cuts,
        Err(never) => match never {},
    }
}

/// The cut volume ([`Spg::cut_volume`]) of every ideal of `lattice`, in id
/// order, calling `check` once every [`ENUM_POLL_INTERVAL`] ideals and
/// stopping with its error as soon as it returns one.
///
/// One linear pass instead of a scan over every edge per ideal: each
/// ideal's set of crossing edges (a bitset over edge ids) is derived from
/// a Hasse parent's — adding stage `s` drops the in-edges of `s`, which
/// now end inside, and adds its out-edges, whose heads are still outside.
/// The volumes are then summed in edge-id order with the same
/// `Iterator::sum` [`Spg::cut_volume`] runs, so every cut is bit-identical
/// to it, an empty cut's signed zero included.
///
/// Ids are grouped by cardinality and every cover is one stage larger, so
/// the pass walks the lattice layer by layer and holds only two layers of
/// crossing sets: its scratch is bounded by twice the widest layer, not
/// by the lattice (a long chain's layers are one ideal wide).
pub fn cut_volumes_polled<E>(
    spg: &Spg,
    lattice: &IdealLattice,
    check: impl FnMut() -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    cut_volumes_layered(spg, lattice, check, &mut Default::default())
}

/// [`cut_volumes_polled`] over caller-owned layer buffers: `layers[0]`
/// holds the current layer's crossing sets, `layers[1]` the next one's.
fn cut_volumes_layered<E>(
    spg: &Spg,
    lattice: &IdealLattice,
    mut check: impl FnMut() -> Result<(), E>,
    layers: &mut [Vec<u64>; 2],
) -> Result<Vec<f64>, E> {
    let m = spg.n_edges();
    let ewps = m.div_ceil(64);
    let n = lattice.len();
    let edges = spg.edges();
    let [layer, next] = layers;
    // Layer 0 is the empty ideal, which cuts no edge.
    layer.clear();
    layer.resize(ewps, 0);
    let mut cuts = Vec::with_capacity(n);
    // The current layer's ids are `lo..hi`; the next layer's start at `hi`.
    let (mut lo, mut hi) = (0, 1);
    while lo < n {
        next.clear();
        let mut width = 0;
        for i in lo..hi {
            if i.is_multiple_of(ENUM_POLL_INTERVAL) {
                check()?;
            }
            let set = &layer[(i - lo) * ewps..(i - lo + 1) * ewps];
            for &(s, c) in lattice.covers(IdealId(i as u32)) {
                // Enumeration numbers a layer's ideals in the order this
                // same walk first meets them, so an unseen child is always
                // the next id.
                let j = c as usize - hi;
                if j < width {
                    continue;
                }
                assert_eq!(j, width, "ideal {c} is not numbered in cover order");
                width += 1;
                next.extend_from_slice(set);
                let child = &mut next[j * ewps..];
                for (e, _) in spg.in_edges(StageId(s)) {
                    child[e.idx() / 64] &= !(1 << (e.idx() % 64));
                }
                for (e, _) in spg.out_edges(StageId(s)) {
                    child[e.idx() / 64] |= 1 << (e.idx() % 64);
                }
            }
            let set = NodeSetRef::from_words(set, m);
            cuts.push(set.iter().map(|e| edges[e].volume).sum());
        }
        (lo, hi) = (hi, hi + width);
        std::mem::swap(layer, next);
    }
    Ok(cuts)
}

/// Placeholder child id in freshly recorded Hasse entries, overwritten when
/// the owning ideal is processed (every ideal is processed before any
/// client sees the lattice).
const PENDING: u32 = u32::MAX;

/// Checks that a set is an order ideal (every predecessor of a member is a
/// member). Exposed for tests and for validating DP cluster chains.
pub fn is_ideal(spg: &Spg, set: NodeSetRef<'_>) -> bool {
    set.iter().all(|i| {
        spg.predecessors(StageId(i as u32))
            .all(|p| set.contains(p.idx()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{chain, parallel_many, series};

    fn uniform_chain(n: usize) -> Spg {
        chain(&vec![1.0; n], &vec![1.0; n - 1])
    }

    /// The check runs once per `ENUM_POLL_INTERVAL` interned ideals, and
    /// its error stops the enumeration at once.
    #[test]
    fn enumeration_polls_its_check_and_stops_on_its_error() {
        // Four parallel 8-chains: thousands of ideals.
        let branches: Vec<Spg> = (0..4).map(|_| uniform_chain(8)).collect();
        let g = parallel_many(&branches);
        let plain = enumerate_ideals(&g, usize::MAX).unwrap();
        assert!(plain.len() > 2 * ENUM_POLL_INTERVAL);
        let mut calls = 0;
        let polled = enumerate_ideals_polled(&g, usize::MAX, || {
            calls += 1;
            Ok::<(), ()>(())
        });
        let Ok(Ok(polled)) = polled else {
            panic!("a passing check changes nothing");
        };
        assert_eq!(polled.len(), plain.len());
        assert_eq!(calls, plain.len() / ENUM_POLL_INTERVAL);
        let mut calls = 0;
        let stopped = enumerate_ideals_polled(&g, usize::MAX, || {
            calls += 1;
            if calls == 2 {
                Err("deadline")
            } else {
                Ok(())
            }
        });
        assert!(matches!(stopped, Err("deadline")));
        assert_eq!(calls, 2, "the enumeration stops at the first error");
    }

    /// The linear cut pass equals `Spg::cut_volume` to the bit and keeps
    /// two layers of crossing sets, not one per ideal: a long chain's
    /// layers are one ideal wide, so its scratch stays a few sets however
    /// many ideals the chain has, and a fork-join's stays within twice its
    /// widest layer (with `Vec` growth slack).
    #[test]
    fn cut_pass_keeps_two_layers_of_crossing_sets() {
        let n = 20_000;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let volumes: Vec<f64> = (0..n - 1).map(|i| 0.5 + (i % 7) as f64).collect();
        let long_chain = chain(&weights, &volumes);
        let branches: Vec<Spg> = (0..4).map(|_| uniform_chain(8)).collect();
        let fork_join = parallel_many(&branches);
        for (g, stride) in [(long_chain, 97), (fork_join, 1)] {
            let lat = enumerate_ideals(&g, usize::MAX).unwrap();
            let mut layers = Default::default();
            let cuts = cut_volumes_layered(&g, &lat, || Ok::<(), ()>(()), &mut layers).unwrap();
            assert_eq!(cuts.len(), lat.len());
            for id in lat.ids().step_by(stride).chain([lat.full_id()]) {
                let scan = g.cut_volume(lat.get(id));
                assert_eq!(cuts[id.idx()].to_bits(), scan.to_bits(), "ideal {id:?}");
            }
            let mut widths = vec![0usize; g.n() + 1];
            for set in lat.iter() {
                widths[set.len()] += 1;
            }
            let widest = widths.into_iter().max().unwrap();
            let words: usize = layers.iter().map(Vec::capacity).sum();
            let bound = 4 * widest * g.n_edges().div_ceil(64);
            assert!(words <= bound, "{words} scratch words, bound {bound}");
        }
    }

    #[test]
    fn chain_has_n_plus_one_ideals() {
        for n in 2..8 {
            let g = uniform_chain(n);
            let lat = enumerate_ideals(&g, 10_000).unwrap();
            assert_eq!(lat.len(), n + 1, "a chain's ideals are its prefixes");
            assert_eq!(count_ideals(&g), Some(n as u128 + 1));
            // Nested pairs are pairs of distinct prefixes.
            assert_eq!(count_ideal_pairs(&g), Some((n * (n + 1) / 2) as u128));
        }
    }

    #[test]
    fn pair_count_matches_brute_force() {
        let shapes = [
            parallel_many(&[uniform_chain(3), uniform_chain(4)]),
            series(
                &parallel_many(&[uniform_chain(3), uniform_chain(4), uniform_chain(3)]),
                &parallel_many(&[uniform_chain(5), uniform_chain(3)]),
            ),
            parallel_many(&[
                series(
                    &parallel_many(&[uniform_chain(3), uniform_chain(3)]),
                    &uniform_chain(3),
                ),
                uniform_chain(4),
            ]),
        ];
        for g in &shapes {
            let lat = enumerate_ideals(g, 100_000).unwrap();
            let mut pairs = 0u128;
            for i in lat.iter() {
                for j in lat.iter() {
                    if i.len() < j.len() && i.is_subset(j) {
                        pairs += 1;
                    }
                }
            }
            assert_eq!(count_ideal_pairs(g), Some(pairs));
        }
    }

    #[test]
    fn fork_join_ideal_count() {
        // Fork-join with k branches of b inner stages each: the empty
        // ideal, the (b+1)^k choices of branch prefixes (each holding the
        // source), and the full set. k = 2, b = 1 is the diamond: 6.
        for k in 1..5u32 {
            for b in 1..5usize {
                let branches: Vec<Spg> = (0..k).map(|_| uniform_chain(b + 2)).collect();
                let g = parallel_many(&branches);
                let expected = (b + 1).pow(k) + 2;
                let lat = enumerate_ideals(&g, 100_000).unwrap();
                assert_eq!(lat.len(), expected);
                assert_eq!(count_ideals(&g), Some(expected as u128));
            }
        }
    }

    #[test]
    fn all_enumerated_sets_are_ideals() {
        let g = series(
            &parallel_many(&[uniform_chain(3), uniform_chain(4)]),
            &uniform_chain(3),
        );
        let lat = enumerate_ideals(&g, 100_000).unwrap();
        for ideal in lat.iter() {
            assert!(is_ideal(&g, ideal));
        }
        // First is empty, last is full.
        assert!(lat.get(lat.empty_id()).is_empty());
        assert_eq!(lat.get(lat.full_id()).len(), g.n());
        // Sorted by cardinality.
        let sizes: Vec<usize> = lat.iter().map(|s| s.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cap_is_enforced() {
        // Elevation-8 fork-join has far more than 50 ideals.
        let branches: Vec<Spg> = (0..8).map(|_| uniform_chain(5)).collect();
        let g = parallel_many(&branches);
        match enumerate_ideals(&g, 50) {
            Err(IdealError::LimitExceeded { cap: 50, found }) if found > 50 => {}
            other => panic!("expected LimitExceeded, got {:?}", other.map(|l| l.len())),
        }
    }

    #[test]
    fn non_sp_graph_has_no_count() {
        use crate::graph::{Label, SpgEdge};
        // s -> a, s -> b, a -> c, a -> d, b -> d, c -> t, d -> t: the "N"
        // (a->c, a->d, b->d) stops the reduction.
        let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
            .map(|(a, b)| SpgEdge {
                src: StageId(a),
                dst: StageId(b),
                volume: 1.0,
            })
            .to_vec();
        let labels = (0..6).map(|i| Label { x: i + 1, y: 1 }).collect();
        let g = Spg::from_parts(vec![1.0; 6], labels, edges);
        assert_eq!(count_ideals(&g), None);
        assert_eq!(count_ideal_pairs(&g), None);
        // Enumeration still works on it: the cap is its only guard.
        assert!(enumerate_ideals(&g, 1_000).unwrap().len() > 2);
    }

    #[test]
    fn count_saturates_instead_of_overflowing() {
        // 200 branches of one inner stage: 2^200 + 2 ideals > u128::MAX.
        let branches: Vec<Spg> = (0..200).map(|_| uniform_chain(3)).collect();
        let g = parallel_many(&branches);
        assert_eq!(count_ideals(&g), Some(u128::MAX));
        assert_eq!(count_ideal_pairs(&g), Some(u128::MAX));
    }

    #[test]
    fn ready_stages_of_empty_is_source() {
        let g = uniform_chain(5);
        let empty = NodeSet::new(g.n());
        let ready = ready_stages(&g, empty.as_set());
        assert_eq!(ready, vec![g.source()]);
    }

    #[test]
    fn id_roundtrip() {
        let g = uniform_chain(4);
        let lat = enumerate_ideals(&g, 1000).unwrap();
        for id in lat.ids() {
            assert_eq!(lat.id_of(lat.get(id)), Some(id));
        }
        let mut not_ideal = NodeSet::new(g.n());
        not_ideal.insert(g.sink().idx());
        assert_eq!(lat.id_of(not_ideal.as_set()), None);
    }

    #[test]
    fn byte_image_round_trips_exactly() {
        let g = series(
            &parallel_many(&[uniform_chain(3), uniform_chain(4)]),
            &uniform_chain(3),
        );
        let lat = enumerate_ideals(&g, 100_000).unwrap();
        let bytes = lat.to_bytes();
        let back = IdealLattice::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), lat.len());
        assert_eq!(back.capacity, lat.capacity);
        for id in lat.ids() {
            assert_eq!(back.get(id).words(), lat.get(id).words());
            assert_eq!(back.covers(id), lat.covers(id));
            // The interning table must survive too: lookups by value work.
            assert_eq!(back.id_of(lat.get(id)), Some(id));
        }
        assert_eq!(back.pred_masks.len(), lat.pred_masks.len());
        // Re-encoding is bit-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_byte_images_are_rejected() {
        let g = uniform_chain(5);
        let lat = enumerate_ideals(&g, 1000).unwrap();
        let bytes = lat.to_bytes();
        // Truncation at every boundary errors instead of panicking.
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                IdealLattice::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(IdealLattice::from_bytes(&padded).is_err());
        // An absurd arena length prefix is rejected before allocating.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(IdealLattice::from_bytes(&huge).is_err());
    }

    #[test]
    fn interning_survives_table_growth() {
        // A lattice big enough to force several grow() cycles (initial
        // table is 64 buckets): elevation-4 fork-join with 4 inner stages
        // per branch has (4+1)^4 + 2 = 627 ideals.
        let branches: Vec<Spg> = (0..4).map(|_| uniform_chain(6)).collect();
        let g = parallel_many(&branches);
        let lat = enumerate_ideals(&g, 100_000).unwrap();
        assert_eq!(lat.len(), 5usize.pow(4) + 2);
        for id in lat.ids() {
            assert_eq!(lat.id_of(lat.get(id)), Some(id));
        }
    }
}
