//! The CMP grid description (paper §3.2), generalised over the pluggable
//! interconnect backends of [`crate::topology`].

use crate::fault::FaultSet;
use crate::power::PowerModel;
use crate::router::RoutePolicy;
use crate::topology::{Neighbours, TopoBackend, Topology, TopologyKind};

/// A core coordinate: row `u ∈ 0..p`, column `v ∈ 0..q` (the paper's
/// 1-based `C_{u+1,v+1}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId {
    /// Row index, `0..p`.
    pub u: u32,
    /// Column index, `0..q`.
    pub v: u32,
}

impl CoreId {
    /// Flat index `u·q + v` for dense per-core vectors.
    #[inline]
    pub fn flat(self, q: u32) -> usize {
        (self.u * q + self.v) as usize
    }

    /// Inverse of [`CoreId::flat`].
    #[inline]
    pub fn from_flat(idx: usize, q: u32) -> CoreId {
        CoreId {
            u: idx as u32 / q,
            v: idx as u32 % q,
        }
    }

    /// Manhattan distance to another core (number of link hops of any
    /// minimal route).
    pub fn manhattan(self, other: CoreId) -> u32 {
        self.u.abs_diff(other.u) + self.v.abs_diff(other.v)
    }
}

/// A `p × q` CMP: homogeneous DVFS cores on a grid-shaped interconnect
/// (mesh, torus, or ring — see [`TopologyKind`]) with bidirectional
/// neighbour links of bandwidth `bw` bytes/s **per direction**, per-bit
/// link energy `e_bit` joules/bit, and an aggregate router/link leakage
/// `p_leak_comm` watts (paper §3.2, §3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Number of rows `p`.
    pub p: u32,
    /// Number of columns `q`.
    pub q: u32,
    /// The DVFS model shared by all cores.
    pub power: PowerModel,
    /// Link bandwidth in bytes per second, per direction.
    pub bw: f64,
    /// Energy per transferred bit per link hop, in joules.
    pub e_bit: f64,
    /// Aggregate communication leakage power `P_leak^(comm)` in watts.
    /// The paper sets it to 0 without loss of generality (it adds the same
    /// `P_leak^(comm)·T` to every mapping).
    pub p_leak_comm: f64,
    /// The interconnect shape (the paper's platform is [`TopologyKind::Mesh`]).
    pub topology: TopologyKind,
    /// The routing policy solvers use for dimension-routed mappings (the
    /// paper's platform uses [`RoutePolicy::Xy`]; torus/ring default to
    /// [`RoutePolicy::Shortest`] so their wrap links actually pay off).
    pub policy: RoutePolicy,
    /// Dead cores and links (empty on a healthy platform — see
    /// [`crate::fault`]).
    pub faults: FaultSet,
}

impl Platform {
    /// The paper's evaluation platform (§6.1.2): XScale cores on a mesh,
    /// 16-byte-wide links at 1.2 GHz (`BW = 19.2 GB/s` per direction),
    /// `E_bit = 6 pJ`, `P_leak^(comm) = 0`, XY routing.
    pub fn paper(p: u32, q: u32) -> Self {
        Platform::paper_topology(TopologyKind::Mesh, p, q)
    }

    /// The paper's electrical parameters on an alternative interconnect
    /// backend, with the backend's default routing policy (mesh → XY,
    /// torus/ring → shortest). A [`TopologyKind::Ring`] has no second
    /// dimension: the grid is flattened to a ring of `p·q` cores (panics
    /// if that count overflows `u32`).
    pub fn paper_topology(kind: TopologyKind, p: u32, q: u32) -> Self {
        assert!(p >= 1 && q >= 1);
        let (p, q) = match kind {
            TopologyKind::Ring => (1, p.checked_mul(q).expect("ring core count overflows u32")),
            _ => (p, q),
        };
        Platform {
            p,
            q,
            power: PowerModel::xscale(),
            bw: 16.0 * 1.2e9,
            e_bit: 6e-12,
            p_leak_comm: 0.0,
            topology: kind,
            policy: match kind {
                TopologyKind::Mesh => RoutePolicy::Xy,
                TopologyKind::Torus | TopologyKind::Ring => RoutePolicy::Shortest,
            },
            faults: FaultSet::default(),
        }
    }

    /// The same platform with a different default routing policy.
    pub fn with_policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The topology backend implementing [`Topology`] for this platform.
    #[inline]
    pub fn topo(&self) -> TopoBackend {
        TopoBackend::new(self.topology, self.p, self.q)
    }

    /// Total number of cores `r = p·q`.
    #[inline]
    pub fn n_cores(&self) -> usize {
        (self.p * self.q) as usize
    }

    /// Whether a coordinate lies on the grid.
    #[inline]
    pub fn contains(&self, c: CoreId) -> bool {
        c.u < self.p && c.v < self.q
    }

    /// All cores in row-major order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        let q = self.q;
        (0..self.p).flat_map(move |u| (0..q).map(move |v| CoreId { u, v }))
    }

    /// The 2–4 topology neighbours of a core, as an allocation-free
    /// iterator in link-direction order (east, west, south, north; wrap
    /// neighbours included on torus/ring).
    pub fn neighbours(&self, c: CoreId) -> Neighbours {
        Neighbours::new(self.topo(), c)
    }

    /// Whether the topology owns a directed link from `from` to `to`.
    #[inline]
    pub fn has_link(&self, from: CoreId, to: CoreId) -> bool {
        self.topo().has_link(from, to)
    }

    /// Minimal hop distance between two cores on this topology (the
    /// Manhattan distance on a mesh; wrap-aware on torus and ring).
    #[inline]
    pub fn distance(&self, a: CoreId, b: CoreId) -> u32 {
        self.topo().distance(a, b)
    }

    /// Seconds needed to push `bytes` across one link direction.
    #[inline]
    pub fn link_time(&self, bytes: f64) -> f64 {
        bytes / self.bw
    }

    /// Energy to move `bytes` across one link hop: `8 · bytes · E_bit`
    /// (volumes are in bytes, `E_bit` is per bit — paper §3.5).
    #[inline]
    pub fn hop_energy(&self, bytes: f64) -> f64 {
        8.0 * bytes * self.e_bit
    }

    /// A same-shape platform with a different core count, keeping all
    /// electrical parameters, topology, and policy (used by `DPA2D1D` to
    /// run `DPA2D` on a virtual `1 × (p·q)` platform, §5.4).
    pub fn reshaped(&self, p: u32, q: u32) -> Platform {
        Platform {
            p,
            q,
            // Fault indices are flat per-shape coordinates; they do not
            // survive a reshape.
            faults: FaultSet::default(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_constants() {
        let pf = Platform::paper(4, 4);
        assert_eq!(pf.n_cores(), 16);
        assert_eq!(pf.bw, 19.2e9);
        assert_eq!(pf.e_bit, 6e-12);
        assert_eq!(pf.p_leak_comm, 0.0);
        assert_eq!(pf.power.m(), 5);
    }

    #[test]
    fn flat_roundtrip() {
        let pf = Platform::paper(3, 5);
        for (i, c) in pf.cores().enumerate() {
            assert_eq!(c.flat(pf.q), i);
            assert_eq!(CoreId::from_flat(i, pf.q), c);
        }
    }

    #[test]
    fn neighbours_on_borders() {
        let pf = Platform::paper(3, 3);
        assert_eq!(pf.neighbours(CoreId { u: 0, v: 0 }).count(), 2);
        assert_eq!(pf.neighbours(CoreId { u: 0, v: 1 }).count(), 3);
        assert_eq!(pf.neighbours(CoreId { u: 1, v: 1 }).count(), 4);
        let single = Platform::paper(1, 1);
        assert!(single.neighbours(CoreId { u: 0, v: 0 }).next().is_none());
        // On the torus every core has all four neighbours.
        let torus = Platform::paper_topology(TopologyKind::Torus, 3, 3);
        assert_eq!(torus.neighbours(CoreId { u: 0, v: 0 }).count(), 4);
    }

    #[test]
    fn ring_constructor_flattens_the_grid() {
        let ring = Platform::paper_topology(TopologyKind::Ring, 4, 4);
        assert_eq!((ring.p, ring.q), (1, 16));
        assert_eq!(ring.n_cores(), 16);
        assert_eq!(ring.policy, RoutePolicy::Shortest);
        // Wrap closes the line: first and last core are one hop apart.
        assert_eq!(
            ring.distance(CoreId { u: 0, v: 0 }, CoreId { u: 0, v: 15 }),
            1
        );
        let mesh = Platform::paper(4, 4);
        assert_eq!(mesh.policy, RoutePolicy::Xy);
        assert_eq!(mesh.topology, TopologyKind::Mesh);
    }

    #[test]
    fn hop_energy_is_8_delta_ebit() {
        let pf = Platform::paper(2, 2);
        assert!((pf.hop_energy(1000.0) - 8.0 * 1000.0 * 6e-12).abs() < 1e-20);
    }

    #[test]
    fn manhattan_distance() {
        let a = CoreId { u: 0, v: 0 };
        let b = CoreId { u: 2, v: 3 };
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.manhattan(a), 0);
    }
}
