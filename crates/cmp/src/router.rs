//! Pluggable routing policies and precomputed route tables.
//!
//! A [`Router`] turns a `(src, dst)` core pair into a sequence of directed
//! links on a [`Topology`]. Four policies ship:
//!
//! * [`RoutePolicy::Xy`] — dimension-ordered, column dimension first (the
//!   paper's row-first XY routes, §5.1/§5.3); never uses wrap links, so it
//!   behaves identically on mesh and torus;
//! * [`RoutePolicy::Yx`] — dimension-ordered, row dimension first (the
//!   transposed reading of §5.1);
//! * [`RoutePolicy::Shortest`] — dimension-ordered like XY, but each
//!   dimension independently takes the direction with fewer hops,
//!   including wrap links on torus and ring; ties break toward the mesh
//!   direction, so on a mesh this is exactly `Xy`;
//! * [`RoutePolicy::Snake`] — along the snake embedding of the grid
//!   (§5.4), the discipline of the 1D heuristics.
//!
//! [`RouteTable`] precomputes every `(src, dst)` route of one policy into a
//! flat `(offsets, links)` pair of packed link-index spans, so the
//! evaluation hot path walks a slice instead of regenerating routes hop by
//! hop. A table is a few hundred kilobytes even on a 6×6 grid and is cached
//! per policy on the solver session (`ea_core::Instance`).

use crate::grid::{CoreId, Platform};
use crate::routing::{snake_index, snake_route_visit, xy_route_visit, RouteOrder};
use crate::topology::{DirLink, TopoBackend, Topology, DIR_EAST, DIR_NORTH, DIR_SOUTH, DIR_WEST};

/// A routing policy name: which [`Router`] generates a mapping's routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutePolicy {
    /// Dimension-ordered, column dimension first (row-first XY).
    #[default]
    Xy,
    /// Dimension-ordered, row dimension first (column-first XY).
    Yx,
    /// Per-dimension shortest direction, wrap-aware; `Xy` on a mesh.
    Shortest,
    /// Along the snake embedding of the grid (§5.4).
    Snake,
}

impl RoutePolicy {
    /// All shipped policies, in CLI/documentation order.
    pub const ALL: [RoutePolicy; 4] = [
        RoutePolicy::Xy,
        RoutePolicy::Yx,
        RoutePolicy::Shortest,
        RoutePolicy::Snake,
    ];

    /// Dense index (for per-policy caches).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RoutePolicy::Xy => 0,
            RoutePolicy::Yx => 1,
            RoutePolicy::Shortest => 2,
            RoutePolicy::Snake => 3,
        }
    }

    /// Lower-case CLI name (`xy` / `yx` / `shortest` / `snake`).
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::Xy => "xy",
            RoutePolicy::Yx => "yx",
            RoutePolicy::Shortest => "shortest",
            RoutePolicy::Snake => "snake",
        }
    }
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RoutePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "xy" => Ok(RoutePolicy::Xy),
            "yx" => Ok(RoutePolicy::Yx),
            "shortest" => Ok(RoutePolicy::Shortest),
            "snake" => Ok(RoutePolicy::Snake),
            other => Err(format!(
                "unknown routing policy '{other}' (expected xy, yx, shortest, or snake)"
            )),
        }
    }
}

/// Route generation between two cores of a topology.
///
/// The contract (checked by the cross-backend property tests): the visited
/// links form a contiguous, cycle-free path from `from` to `to`, and every
/// link is owned by the topology ([`Topology::has_link`]).
pub trait Router {
    /// Which policy this router implements.
    fn policy(&self) -> RoutePolicy;

    /// Visits every hop of the route from `from` to `to`, in order (no
    /// hops when `from == to`).
    fn visit(&self, from: CoreId, to: CoreId, f: &mut dyn FnMut(DirLink));

    /// The route as a path vector (convenience over [`Router::visit`]).
    fn route(&self, from: CoreId, to: CoreId) -> Vec<DirLink> {
        let mut path = Vec::new();
        self.visit(from, to, &mut |l| path.push(l));
        path
    }
}

/// Dimension-ordered router ([`RoutePolicy::Xy`] / [`RoutePolicy::Yx`]);
/// never takes wrap links, so it is valid on every shipped backend.
#[derive(Debug, Clone, Copy)]
pub struct DimOrderedRouter {
    /// Which dimension moves first.
    pub order: RouteOrder,
}

impl Router for DimOrderedRouter {
    fn policy(&self) -> RoutePolicy {
        match self.order {
            RouteOrder::RowFirst => RoutePolicy::Xy,
            RouteOrder::ColFirst => RoutePolicy::Yx,
        }
    }

    fn visit(&self, from: CoreId, to: CoreId, f: &mut dyn FnMut(DirLink)) {
        xy_route_visit(from, to, self.order, f);
    }
}

/// Wrap-aware shortest router ([`RoutePolicy::Shortest`]) over one topology
/// backend.
#[derive(Debug, Clone, Copy)]
pub struct ShortestRouter {
    /// The topology whose wrap links the router may take.
    pub topo: TopoBackend,
}

impl Router for ShortestRouter {
    fn policy(&self) -> RoutePolicy {
        RoutePolicy::Shortest
    }

    fn visit(&self, from: CoreId, to: CoreId, f: &mut dyn FnMut(DirLink)) {
        shortest_route_visit(&self.topo, from, to, f);
    }
}

/// Snake router ([`RoutePolicy::Snake`]) over one grid shape.
#[derive(Debug, Clone)]
pub struct SnakeRouter {
    /// The platform whose snake embedding the routes follow.
    pub pf: Platform,
}

impl Router for SnakeRouter {
    fn policy(&self) -> RoutePolicy {
        RoutePolicy::Snake
    }

    fn visit(&self, from: CoreId, to: CoreId, f: &mut dyn FnMut(DirLink)) {
        snake_route_visit(
            &self.pf,
            snake_index(&self.pf, from),
            snake_index(&self.pf, to),
            f,
        );
    }
}

/// One dimension of a shortest route: the direction slot to step in and the
/// number of hops. Ties (exactly half way around a wrapped dimension) break
/// toward the mesh direction, so mesh and torus agree whenever wrap buys
/// nothing.
#[inline]
fn shortest_leg(
    cur: u32,
    dst: u32,
    size: u32,
    wrap: bool,
    pos_dir: usize,
    neg_dir: usize,
) -> (usize, u32) {
    let d = cur.abs_diff(dst);
    let mesh_dir = if dst > cur { pos_dir } else { neg_dir };
    if !wrap || d <= size - d {
        (mesh_dir, d)
    } else {
        // Strictly shorter the other way around.
        let wrap_dir = if dst > cur { neg_dir } else { pos_dir };
        (wrap_dir, size - d)
    }
}

/// Visitor form of the shortest route on a topology: dimension-ordered
/// (columns first, mirroring row-first XY), each dimension independently
/// taking the direction with fewer hops — including wrap links where the
/// topology has them. On a mesh this produces exactly the row-first XY
/// route.
pub fn shortest_route_visit<T: Topology + ?Sized>(
    topo: &T,
    from: CoreId,
    to: CoreId,
    mut f: impl FnMut(DirLink),
) {
    debug_assert!(topo.contains(from) && topo.contains(to));
    let mut cur = from;
    let legs = [
        shortest_leg(
            from.v,
            to.v,
            topo.cols(),
            topo.wrap_cols(),
            DIR_EAST,
            DIR_WEST,
        ),
        shortest_leg(
            from.u,
            to.u,
            topo.rows(),
            topo.wrap_rows(),
            DIR_SOUTH,
            DIR_NORTH,
        ),
    ];
    for (dir, hops) in legs {
        for _ in 0..hops {
            let next = topo
                .step(cur, dir)
                .expect("shortest leg steps stay on the topology");
            f(DirLink {
                from: cur,
                to: next,
            });
            cur = next;
        }
    }
    debug_assert_eq!(cur, to);
}

impl Platform {
    /// Visits every hop of the `policy` route from `from` to `to` on this
    /// platform (static dispatch; the generation hot path behind
    /// [`RouteTable::build`] and the mapping evaluator's fallback).
    ///
    /// On a platform with **link faults** the policy route is checked
    /// against the dead-link set first: clean routes are emitted verbatim,
    /// routes crossing a dead link are replaced by a deterministic
    /// shortest alive detour (BFS in direction-slot order), and pairs with
    /// no alive path emit **nothing** — the evaluator treats a zero-hop
    /// route between distinct cores as unroutable.
    pub fn route_visit(
        &self,
        policy: RoutePolicy,
        from: CoreId,
        to: CoreId,
        mut f: impl FnMut(DirLink),
    ) {
        if !self.has_link_faults() {
            self.policy_route_visit(policy, from, to, f);
            return;
        }
        let (path, _detoured) = self.faulted_route(policy, from, to);
        for l in path {
            f(l);
        }
    }

    /// The fault-oblivious policy route (what [`Platform::route_visit`]
    /// emits on a healthy platform).
    fn policy_route_visit(
        &self,
        policy: RoutePolicy,
        from: CoreId,
        to: CoreId,
        f: impl FnMut(DirLink),
    ) {
        match policy {
            RoutePolicy::Xy => xy_route_visit(from, to, RouteOrder::RowFirst, f),
            RoutePolicy::Yx => xy_route_visit(from, to, RouteOrder::ColFirst, f),
            RoutePolicy::Shortest => shortest_route_visit(&self.topo(), from, to, f),
            RoutePolicy::Snake => {
                snake_route_visit(self, snake_index(self, from), snake_index(self, to), f)
            }
        }
    }

    /// The route from `from` to `to` under this platform's link faults:
    /// the policy route when it avoids every dead link, else a
    /// deterministic shortest alive detour (empty when `to` is
    /// unreachable). The flag reports whether a detour replaced the
    /// policy route.
    ///
    /// Detours depend only on (topology, fault set, endpoints): BFS
    /// explores neighbours in fixed direction-slot order (east, west,
    /// south, north) and keeps the first parent that discovers each core,
    /// so the returned equal-length path is unique for a given fault set.
    pub(crate) fn faulted_route(
        &self,
        policy: RoutePolicy,
        from: CoreId,
        to: CoreId,
    ) -> (Vec<DirLink>, bool) {
        let mut path = Vec::new();
        self.policy_route_visit(policy, from, to, |l| path.push(l));
        if path.iter().all(|l| self.link_alive(*l)) {
            return (path, false);
        }
        (self.bfs_detour(from, to), true)
    }

    /// Deterministic BFS over alive links; empty when unreachable.
    fn bfs_detour(&self, from: CoreId, to: CoreId) -> Vec<DirLink> {
        let topo = self.topo();
        let n = self.n_cores();
        let mut parent: Vec<Option<CoreId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[from.flat(self.q)] = true;
        queue.push_back(from);
        'bfs: while let Some(cur) = queue.pop_front() {
            for dir in 0..4 {
                let Some(next) = topo.step(cur, dir) else {
                    continue;
                };
                let flat = next.flat(self.q);
                if seen[flat]
                    || !self.link_alive(DirLink {
                        from: cur,
                        to: next,
                    })
                {
                    continue;
                }
                seen[flat] = true;
                parent[flat] = Some(cur);
                if next == to {
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
        if !seen[to.flat(self.q)] {
            return Vec::new();
        }
        let mut rev = Vec::new();
        let mut cur = to;
        while cur != from {
            let prev = parent[cur.flat(self.q)].expect("BFS parents reach the source");
            rev.push(DirLink {
                from: prev,
                to: cur,
            });
            cur = prev;
        }
        rev.reverse();
        rev
    }

    /// A boxed [`Router`] for one policy on this platform, for callers that
    /// want dynamic dispatch over policies.
    pub fn router(&self, policy: RoutePolicy) -> Box<dyn Router> {
        match policy {
            RoutePolicy::Xy => Box::new(DimOrderedRouter {
                order: RouteOrder::RowFirst,
            }),
            RoutePolicy::Yx => Box::new(DimOrderedRouter {
                order: RouteOrder::ColFirst,
            }),
            RoutePolicy::Shortest => Box::new(ShortestRouter { topo: self.topo() }),
            RoutePolicy::Snake => Box::new(SnakeRouter { pf: self.clone() }),
        }
    }
}

/// A precomputed route table: for every `(src, dst)` core pair of one
/// platform and one policy, the route as a packed span of dense link
/// indices ([`Platform::link_index`]). Turning the evaluator's per-hop
/// route generation into a flat slice walk is what makes route-heavy
/// campaigns cheap, uniformly across topologies.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTable {
    policy: RoutePolicy,
    /// The platform shape the table was built for — all three fields are
    /// checked by [`RouteTable::matches_platform`]: link indices are only
    /// meaningful on the exact grid shape and topology that produced them.
    p: u32,
    q: u32,
    topology: crate::topology::TopologyKind,
    /// `offsets[src * n + dst] .. offsets[src * n + dst + 1]` indexes
    /// `links`.
    offsets: Vec<u32>,
    /// Concatenated link indices of all routes, row-major by `(src, dst)`.
    links: Vec<u32>,
    /// The dead directed-link set the table was built under (sorted; empty
    /// on a healthy platform). Routes are **core**-fault-independent, so
    /// only link faults participate in [`RouteTable::matches_platform`].
    dead_links: Vec<u32>,
    /// Per `(src, dst)` cell: whether the stored route is a BFS detour
    /// rather than the policy route. Detours are tie-break-sensitive to
    /// the whole fault set, so [`RouteTable::patched`] always regenerates
    /// them; empty means "no cell detoured" (the healthy fast path).
    detoured: Vec<bool>,
}

impl RouteTable {
    /// Builds the table for one platform and policy by running the policy's
    /// route visitor over every ordered core pair (fault-aware: on a
    /// platform with link faults, stored routes are the alive detours).
    pub fn build(pf: &Platform, policy: RoutePolicy) -> RouteTable {
        let n = pf.n_cores();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut links = Vec::new();
        let mut detoured = Vec::new();
        let faulted = pf.has_link_faults();
        if faulted {
            detoured.reserve(n * n);
        }
        offsets.push(0u32);
        for src in 0..n {
            let from = CoreId::from_flat(src, pf.q);
            for dst in 0..n {
                let to = CoreId::from_flat(dst, pf.q);
                if faulted {
                    let (path, det) = pf.faulted_route(policy, from, to);
                    links.extend(path.iter().map(|l| pf.link_index(*l) as u32));
                    detoured.push(det);
                } else {
                    pf.route_visit(policy, from, to, |l| {
                        links.push(pf.link_index(l) as u32);
                    });
                }
                offsets.push(links.len() as u32);
            }
        }
        RouteTable {
            policy,
            p: pf.p,
            q: pf.q,
            topology: pf.topology,
            offsets,
            links,
            dead_links: pf.faults.dead_links().to_vec(),
            detoured,
        }
    }

    /// Delta-patches this table onto a platform with a **different link
    /// fault set**: pairs whose stored route is the policy route and
    /// avoids every newly dead link are copied verbatim; detoured or
    /// newly-broken pairs are regenerated under the new fault set. The
    /// result is bit-identical to `RouteTable::build(pf, policy)` — a
    /// clean policy route is exactly what a cold build would store, and
    /// everything else is recomputed from scratch.
    ///
    /// # Panics
    /// Panics when the platform shape/topology differs or the policy
    /// mismatches — patching only makes sense across fault sets.
    pub fn patched(&self, pf: &Platform) -> RouteTable {
        assert!(
            self.p == pf.p && self.q == pf.q && self.topology == pf.topology,
            "route-table patch across different platform shapes"
        );
        let n = pf.n_cores();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut links = Vec::with_capacity(self.links.len());
        let mut detoured = Vec::new();
        let faulted = pf.has_link_faults();
        if faulted {
            detoured.reserve(n * n);
        }
        offsets.push(0u32);
        for src in 0..n {
            let from = CoreId::from_flat(src, pf.q);
            for dst in 0..n {
                let to = CoreId::from_flat(dst, pf.q);
                let cell = src * n + dst;
                let was_detoured = self.detoured.get(cell).copied().unwrap_or(false);
                let span = self.links_between(src, dst);
                let clean = !was_detoured && span.iter().all(|&l| !pf.faults.link_dead(l as usize));
                if clean {
                    links.extend_from_slice(span);
                    if faulted {
                        detoured.push(false);
                    }
                } else if faulted {
                    let (path, det) = pf.faulted_route(self.policy, from, to);
                    links.extend(path.iter().map(|l| pf.link_index(*l) as u32));
                    detoured.push(det);
                } else {
                    pf.route_visit(self.policy, from, to, |l| {
                        links.push(pf.link_index(l) as u32);
                    });
                }
                offsets.push(links.len() as u32);
            }
        }
        RouteTable {
            policy: self.policy,
            p: pf.p,
            q: pf.q,
            topology: pf.topology,
            offsets,
            links,
            dead_links: pf.faults.dead_links().to_vec(),
            detoured,
        }
    }

    /// Approximate resident size in bytes (offset and link arrays) —
    /// input to byte-bounded artifact-cache accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.links.capacity() * std::mem::size_of::<u32>()
            + self.dead_links.capacity() * std::mem::size_of::<u32>()
            + self.detoured.capacity()
    }

    /// Serialises the table into a self-contained little-endian byte image
    /// for artifact-cache spill files (policy and topology travel as their
    /// dense `ALL` indices). [`RouteTable::from_bytes`] reverses it.
    pub fn to_bytes(&self) -> Vec<u8> {
        use spg::wire;
        let mut out = Vec::with_capacity(32 + self.offsets.len() * 4 + self.links.len() * 4);
        out.push(self.policy.index() as u8);
        out.push(
            crate::topology::TopologyKind::ALL
                .iter()
                .position(|&t| t == self.topology)
                .expect("shipped topology kind") as u8,
        );
        wire::put_u32(&mut out, self.p);
        wire::put_u32(&mut out, self.q);
        wire::put_u32_slice(&mut out, &self.offsets);
        wire::put_u32_slice(&mut out, &self.links);
        wire::put_u32_slice(&mut out, &self.dead_links);
        wire::put_u64(&mut out, self.detoured.len() as u64);
        out.extend(self.detoured.iter().map(|&d| d as u8));
        out
    }

    /// Decodes a byte image produced by [`RouteTable::to_bytes`],
    /// re-validating the structural invariants (offset table covering
    /// `n²+1` monotone cells ending at the link count), so corrupted spill
    /// files yield `Err` rather than a table that panics on lookup.
    pub fn from_bytes(bytes: &[u8]) -> Result<RouteTable, String> {
        use spg::wire;
        let mut pos = 0usize;
        let policy_idx = wire::take(bytes, &mut pos, 1)?[0] as usize;
        let topo_idx = wire::take(bytes, &mut pos, 1)?[0] as usize;
        let policy = *RoutePolicy::ALL
            .get(policy_idx)
            .ok_or_else(|| format!("unknown route policy index {policy_idx}"))?;
        let topology = *crate::topology::TopologyKind::ALL
            .get(topo_idx)
            .ok_or_else(|| format!("unknown topology index {topo_idx}"))?;
        let p = wire::get_u32(bytes, &mut pos)?;
        let q = wire::get_u32(bytes, &mut pos)?;
        let offsets = wire::get_u32_slice(bytes, &mut pos)?;
        let links = wire::get_u32_slice(bytes, &mut pos)?;
        let dead_links = wire::get_u32_slice(bytes, &mut pos)?;
        let n_det = wire::get_len(bytes, &mut pos, 1)?;
        let detoured = wire::take(bytes, &mut pos, n_det)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(format!("detour flag byte {b} is neither 0 nor 1")),
            })
            .collect::<Result<Vec<bool>, String>>()?;
        if pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after route-table image",
                bytes.len() - pos
            ));
        }
        let n = p as usize * q as usize;
        if n == 0 {
            return Err("route table for an empty grid".into());
        }
        // `p·q` comes off the wire: its square can overflow.
        if n.checked_mul(n).and_then(|cells| cells.checked_add(1)) != Some(offsets.len())
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(0) as usize != links.len()
        {
            return Err("offset table is not a monotone cover of the link list".into());
        }
        // Healthy tables carry no detour flags at all; faulted tables flag
        // every cell.
        if !detoured.is_empty() && detoured.len() != n * n {
            return Err("detour flag count disagrees with the grid".into());
        }
        Ok(RouteTable {
            policy,
            p,
            q,
            topology,
            offsets,
            links,
            dead_links,
            detoured,
        })
    }

    /// The policy the table was built for.
    #[inline]
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Number of cores of the platform the table was built for.
    #[inline]
    pub fn n_cores(&self) -> usize {
        (self.p * self.q) as usize
    }

    /// Whether the table was built for this platform's exact shape,
    /// topology, and **link** fault set. Consumers (the evaluator, the
    /// simulator) fall back to hop-by-hop route generation when this is
    /// false — a table from a same-core-count but differently shaped
    /// platform (e.g. 4×4 vs 2×8) would silently map link indices onto
    /// the wrong physical links, and one built under other link faults
    /// would route over dead links. Core faults are deliberately not
    /// compared: routers outlive their PEs, so routes are core-fault-
    /// independent.
    #[inline]
    pub fn matches_platform(&self, pf: &Platform) -> bool {
        self.p == pf.p
            && self.q == pf.q
            && self.topology == pf.topology
            && self.dead_links == pf.faults.dead_links()
    }

    /// The packed link-index span of the route from flat core `src` to flat
    /// core `dst` (empty when `src == dst`).
    #[inline]
    pub fn links_between(&self, src: usize, dst: usize) -> &[u32] {
        let cell = src * self.n_cores() + dst;
        let lo = self.offsets[cell] as usize;
        let hi = self.offsets[cell + 1] as usize;
        &self.links[lo..hi]
    }

    /// Hop count of the route from flat core `src` to flat core `dst`.
    #[inline]
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let cell = src * self.n_cores() + dst;
        (self.offsets[cell + 1] - self.offsets[cell]) as usize
    }

    /// Total number of stored hops over all pairs (diagnostics).
    pub fn total_hops(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::validate_route;
    use crate::topology::TopologyKind;

    fn c(u: u32, v: u32) -> CoreId {
        CoreId { u, v }
    }

    #[test]
    fn policy_names_round_trip() {
        for p in RoutePolicy::ALL {
            assert_eq!(p.name().parse::<RoutePolicy>().unwrap(), p);
            assert_eq!(RoutePolicy::ALL[p.index()], p);
        }
        assert!("spiral".parse::<RoutePolicy>().is_err());
    }

    #[test]
    fn route_table_byte_image_round_trips_exactly() {
        // Cover every policy, a non-mesh topology, and a link-faulted
        // platform (dead links + detour flags populated).
        let platforms = [
            Platform::paper(4, 4),
            Platform::paper_topology(TopologyKind::Torus, 3, 4),
            Platform::paper(3, 3).with_link_fault(c(0, 0), c(0, 1)),
        ];
        for pf in &platforms {
            for policy in RoutePolicy::ALL {
                let table = RouteTable::build(pf, policy);
                let bytes = table.to_bytes();
                let back = RouteTable::from_bytes(&bytes).unwrap();
                assert_eq!(back.policy(), table.policy());
                assert_eq!(back.matches_platform(pf), table.matches_platform(pf));
                for s in 0..table.n_cores() {
                    for d in 0..table.n_cores() {
                        assert_eq!(back.links_between(s, d), table.links_between(s, d));
                    }
                }
                assert_eq!(back.detoured, table.detoured);
                assert_eq!(back.to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn corrupt_route_table_images_are_rejected() {
        let bytes = RouteTable::build(&Platform::paper(2, 2), RoutePolicy::Xy).to_bytes();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(RouteTable::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad_policy = bytes.clone();
        bad_policy[0] = 9;
        assert!(RouteTable::from_bytes(&bad_policy).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(RouteTable::from_bytes(&padded).is_err());
    }

    #[test]
    fn shortest_equals_xy_on_mesh() {
        let pf = Platform::paper(4, 5);
        let xy = DimOrderedRouter {
            order: RouteOrder::RowFirst,
        };
        let sp = ShortestRouter { topo: pf.topo() };
        for a in 0..pf.n_cores() {
            for b in 0..pf.n_cores() {
                let (ca, cb) = (CoreId::from_flat(a, pf.q), CoreId::from_flat(b, pf.q));
                assert_eq!(sp.route(ca, cb), xy.route(ca, cb), "{ca:?}->{cb:?}");
            }
        }
    }

    #[test]
    fn shortest_takes_wrap_links_on_torus() {
        let pf = Platform::paper_topology(TopologyKind::Torus, 4, 4);
        let sp = ShortestRouter { topo: pf.topo() };
        // (0,0) -> (0,3): one wrap hop west instead of three east.
        let r = sp.route(c(0, 0), c(0, 3));
        assert_eq!(r.len(), 1);
        assert_eq!(
            r[0],
            DirLink {
                from: c(0, 0),
                to: c(0, 3)
            }
        );
        // (0,0) -> (3,3): wrap in both dimensions.
        let r = sp.route(c(0, 0), c(3, 3));
        assert_eq!(r.len(), 2);
        validate_route(&pf, c(0, 0), c(3, 3), &r).unwrap();
        // Ties (distance exactly q/2) break toward the mesh direction.
        let r = sp.route(c(0, 0), c(0, 2));
        assert_eq!(r[0].to, c(0, 1));
    }

    #[test]
    fn shortest_route_length_is_topology_distance() {
        for pf in [
            Platform::paper(3, 4),
            Platform::paper_topology(TopologyKind::Torus, 3, 4),
            Platform::paper_topology(TopologyKind::Torus, 5, 5),
            Platform::paper_topology(TopologyKind::Ring, 1, 7),
        ] {
            let sp = ShortestRouter { topo: pf.topo() };
            for a in 0..pf.n_cores() {
                for b in 0..pf.n_cores() {
                    let (ca, cb) = (CoreId::from_flat(a, pf.q), CoreId::from_flat(b, pf.q));
                    let r = sp.route(ca, cb);
                    assert_eq!(r.len() as u32, pf.distance(ca, cb), "{ca:?}->{cb:?}");
                    validate_route(&pf, ca, cb, &r).unwrap();
                }
            }
        }
    }

    #[test]
    fn route_table_matches_visitors() {
        for pf in [
            Platform::paper(3, 3),
            Platform::paper_topology(TopologyKind::Torus, 3, 3),
            Platform::paper_topology(TopologyKind::Ring, 1, 6),
        ] {
            for policy in RoutePolicy::ALL {
                let table = RouteTable::build(&pf, policy);
                assert_eq!(table.policy(), policy);
                for src in 0..pf.n_cores() {
                    for dst in 0..pf.n_cores() {
                        let (ca, cb) = (CoreId::from_flat(src, pf.q), CoreId::from_flat(dst, pf.q));
                        let mut direct = Vec::new();
                        pf.route_visit(policy, ca, cb, |l| direct.push(pf.link_index(l) as u32));
                        assert_eq!(table.links_between(src, dst), direct.as_slice());
                        assert_eq!(table.hops(src, dst), direct.len());
                    }
                }
            }
        }
    }

    #[test]
    fn link_fault_detours_are_valid_shortest_alive_paths() {
        let pf = Platform::paper(3, 3).with_link_fault(c(0, 0), c(0, 1));
        for policy in RoutePolicy::ALL {
            for src in 0..pf.n_cores() {
                for dst in 0..pf.n_cores() {
                    let (ca, cb) = (CoreId::from_flat(src, pf.q), CoreId::from_flat(dst, pf.q));
                    let mut path = Vec::new();
                    pf.route_visit(policy, ca, cb, |l| path.push(l));
                    validate_route(&pf, ca, cb, &path).unwrap();
                    assert!(path.iter().all(|l| pf.link_alive(*l)), "{ca:?}->{cb:?}");
                }
            }
        }
        // The broken pair itself detours: one dead mesh link costs a
        // 2-extra-hop dogleg.
        let mut hops = 0;
        pf.route_visit(RoutePolicy::Xy, c(0, 0), c(0, 1), |_| hops += 1);
        assert_eq!(hops, 3);
    }

    #[test]
    fn unreachable_pair_emits_no_hops() {
        // Sever core (0,0) of a 1x2 ring-free mesh entirely.
        let pf = Platform::paper(1, 2).with_link_fault(c(0, 0), c(0, 1));
        let mut hops = 0;
        pf.route_visit(RoutePolicy::Xy, c(0, 0), c(0, 1), |_| hops += 1);
        assert_eq!(hops, 0);
    }

    #[test]
    fn core_faults_leave_routes_and_tables_untouched() {
        let pf = Platform::paper(3, 3);
        let hurt = pf.with_core_fault(c(1, 1));
        for policy in RoutePolicy::ALL {
            let clean = RouteTable::build(&pf, policy);
            let faulted = RouteTable::build(&hurt, policy);
            assert_eq!(clean, faulted);
            assert!(clean.matches_platform(&hurt));
        }
    }

    #[test]
    fn patched_table_is_bit_identical_to_cold_build() {
        let base = Platform::paper(3, 3);
        let f1 = base.with_link_fault(c(0, 0), c(0, 1));
        let f2 = f1.with_link_fault(c(1, 1), c(2, 1));
        for policy in RoutePolicy::ALL {
            let t_base = RouteTable::build(&base, policy);
            // Healthy -> faulted, faulted -> more faulted, faulted -> healed.
            for (from_tab, to_pf) in [
                (&t_base, &f1),
                (&RouteTable::build(&f1, policy), &f2),
                (&RouteTable::build(&f2, policy), &base),
            ] {
                let patched = from_tab.patched(to_pf);
                let cold = RouteTable::build(to_pf, policy);
                assert_eq!(patched, cold, "{policy:?}");
                assert!(patched.matches_platform(to_pf));
                assert!(!from_tab.matches_platform(to_pf));
            }
        }
    }
}
