//! Recognition of two-terminal series-parallel DAGs, and the order-ideal
//! counts that fall out of the same reduction.
//!
//! The paper's algorithms require the application to *be* a series-parallel
//! graph (§3.1). Graphs built through [`crate::compose`] are SP by
//! construction, but a workflow imported from elsewhere (a DOT file, a
//! trace) needs checking. This module implements the classic
//! Valdes–Tarjan–Lawler reduction: repeatedly
//!
//! * **series-reduce** a non-terminal node with in-degree 1 and out-degree
//!   1 (replace `u → v → w` by `u → w`), and
//! * **parallel-reduce** duplicate edges (merge two `u → w` edges),
//!
//! until no rule applies. The DAG is two-terminal series-parallel **iff**
//! the result is the single edge `source → sink`.
//!
//! The reduction is also an evaluation. A nested pair of order ideals
//! `I ⊆ J` is the same thing as an order-preserving map `f` from the
//! stages into the 3-chain `0 < 1 < 2` (`f = 0` on `I`, `1` on `J \ I`,
//! `2` outside `J`). Every live edge `u → w` stands for the SP subgraph it
//! has absorbed, and carries its 3×3 **level matrix** `L[b][a]`: the number
//! of such maps on that subgraph with `f(u) = a` and `f(w) = b`. Every
//! absorbed stage lies between `u` and `w`, so `L` is lower-triangular
//! (`b ≥ a`) and:
//!
//! * a base edge has `L[b][a] = 1` for every `b ≥ a` (no inner stage);
//! * a series reduction through `v` multiplies the matrices,
//!   `L = L₂ · L₁`, summing over the level of `v`;
//! * a parallel merge multiplies them entry by entry, `L[b][a] = L₁[b][a] ·
//!   L₂[b][a]` (the two halves choose their inner levels independently).
//!
//! Two counts are read off the final `source → sink` matrix `L`:
//!
//! * **ideals**: the maps into the 2-chain `{0, 1}` with the source at 0
//!   and the sink at 1 are the ideals containing the source but not the
//!   sink; there are `L[1][0]` of them, and `∅` and the full set make
//!   `L[1][0] + 2` ([`crate::ideal::count_ideals`]);
//! * **nested pairs** `I ⊊ J`: all maps, `Σ_{b ≥ a} L[b][a]`, count the
//!   pairs `I ⊆ J`; subtracting the `L[1][0] + 2` pairs with `I = J`
//!   leaves `L[2][0] + L[2][1] + 1` (the diagonal entries are all 1) —
//!   [`crate::ideal::count_ideal_pairs`], the size of `DPA1D`'s complete
//!   transition system.
//!
//! All arithmetic saturates at `u128::MAX` (every operation is monotone,
//! so a saturated count is a sound "at least this many").

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::graph::Spg;

/// Outcome of the reduction process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpRecognition {
    /// Whether the graph reduced to the single source→sink edge.
    pub is_series_parallel: bool,
    /// Number of series reductions applied.
    pub series_steps: usize,
    /// Number of parallel reductions applied.
    pub parallel_steps: usize,
    /// Nodes remaining when reduction stalled (2 for SP graphs).
    pub residual_nodes: usize,
}

/// Runs SP recognition on the graph's structure.
pub fn recognize(g: &Spg) -> SpRecognition {
    reduce_spg(g).0
}

/// Core reduction on an explicit multigraph edge list.
pub fn recognize_edges(
    n: usize,
    source: usize,
    sink: usize,
    edges: &[(usize, usize)],
) -> SpRecognition {
    reduce(n, source, sink, edges).0
}

/// The level matrix of one live edge (see the module doc): entry `[b][a]` counts
/// the order-preserving maps of the edge's absorbed subgraph into the
/// 3-chain with the edge's tail at level `a` and its head at level `b`.
/// Entries above the diagonal stay 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Levels([[u128; 3]; 3]);

impl Levels {
    /// A base edge: no inner stage, so one map per `b ≥ a`.
    const BASE: Levels = Levels([[1, 0, 0], [1, 1, 0], [1, 1, 1]]);

    /// Series composition through a middle node: `self` is the edge into
    /// it, `next` the edge out of it (`next · self`).
    fn series(&self, next: &Levels) -> Levels {
        let mut out = [[0u128; 3]; 3];
        for (b, row) in out.iter_mut().enumerate() {
            for (a, cell) in row.iter_mut().enumerate().take(b + 1) {
                *cell = (a..=b).fold(0u128, |acc, v| {
                    acc.saturating_add(next.0[b][v].saturating_mul(self.0[v][a]))
                });
            }
        }
        Levels(out)
    }

    /// Parallel composition over the same two terminals.
    fn parallel(&self, other: &Levels) -> Levels {
        let mut out = self.0;
        for (row, other_row) in out.iter_mut().zip(&other.0) {
            for (cell, &o) in row.iter_mut().zip(other_row) {
                *cell = cell.saturating_mul(o);
            }
        }
        Levels(out)
    }

    /// Order ideals of the whole graph, when `self` is its final
    /// `source → sink` matrix.
    pub(crate) fn ideals(&self) -> u128 {
        self.0[1][0].saturating_add(2)
    }

    /// Nested ideal pairs `I ⊊ J` of the whole graph, when `self` is its
    /// final `source → sink` matrix.
    pub(crate) fn proper_pairs(&self) -> u128 {
        self.0[2][0].saturating_add(self.0[2][1]).saturating_add(1)
    }
}

/// Reduces `g`; alongside the recognition outcome, returns the level
/// matrix of the final `source → sink` edge when the graph is SP (see the
/// module doc).
pub(crate) fn reduce_spg(g: &Spg) -> (SpRecognition, Option<Levels>) {
    let edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .map(|e| (e.src.idx(), e.dst.idx()))
        .collect();
    reduce(g.n(), g.source().idx(), g.sink().idx(), &edges)
}

/// The reduction itself. `succ[u][w]` holds the level matrix of the live
/// edge `u → w`; `pred` mirrors the edge set without values.
fn reduce(
    n: usize,
    source: usize,
    sink: usize,
    edges: &[(usize, usize)],
) -> (SpRecognition, Option<Levels>) {
    let mut succ: Vec<BTreeMap<usize, Levels>> = vec![BTreeMap::new(); n];
    let mut pred: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut series_steps = 0usize;
    let mut parallel_steps = 0usize;
    // Initial parallel collapse: base matrices are 0/1, so a duplicate
    // base edge merges to itself and only the step count changes.
    for &(a, b) in edges {
        match succ[a].entry(b) {
            Entry::Vacant(e) => {
                e.insert(Levels::BASE);
                pred[b].insert(a);
            }
            Entry::Occupied(_) => parallel_steps += 1,
        }
    }
    let reducible = |v: usize, succ: &[BTreeMap<usize, Levels>], pred: &[BTreeSet<usize>]| {
        v != source && v != sink && pred[v].len() == 1 && succ[v].len() == 1
    };
    let mut alive = vec![true; n];
    // Work-list of candidate nodes for series reduction.
    let mut queue: Vec<usize> = (0..n).filter(|&v| reducible(v, &succ, &pred)).collect();

    while let Some(v) = queue.pop() {
        if !alive[v] || !reducible(v, &succ, &pred) {
            continue;
        }
        let u = *pred[v].first().unwrap();
        let (&w, &l2) = succ[v].first_key_value().unwrap();
        if u == w {
            // A cycle u -> v -> u cannot occur in a DAG; bail out.
            continue;
        }
        // Remove v; add edge u -> w (merging a parallel duplicate if any).
        alive[v] = false;
        series_steps += 1;
        let l1 = succ[u].remove(&v).unwrap();
        pred[w].remove(&v);
        pred[v].clear();
        succ[v].clear();
        let l = l1.series(&l2);
        match succ[u].entry(w) {
            Entry::Vacant(e) => {
                e.insert(l);
                pred[w].insert(u);
            }
            Entry::Occupied(mut e) => {
                parallel_steps += 1;
                *e.get_mut() = e.get().parallel(&l);
            }
        }
        // u and w may now be reducible.
        for cand in [u, w] {
            if reducible(cand, &succ, &pred) {
                queue.push(cand);
            }
        }
    }

    let residual_nodes = alive.iter().filter(|&&a| a).count();
    let reduced_to_edge =
        residual_nodes == 2 && succ[source].len() == 1 && succ[source].contains_key(&sink);
    let levels = if reduced_to_edge {
        succ[source].get(&sink).copied()
    } else {
        None
    };
    (
        SpRecognition {
            is_series_parallel: reduced_to_edge,
            series_steps,
            parallel_steps,
            residual_nodes,
        },
        levels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{chain, parallel, parallel_many, series};
    use crate::generate::{random_spg, SpgGenConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn chains_are_sp() {
        for n in 2..8 {
            let g = chain(&vec![1.0; n], &vec![1.0; n - 1]);
            let r = recognize(&g);
            assert!(r.is_series_parallel, "chain({n})");
            assert_eq!(r.series_steps, n - 2);
        }
    }

    #[test]
    fn composed_graphs_are_sp() {
        let g = series(
            &parallel_many(&[
                chain(&[1.0; 3], &[1.0; 2]),
                chain(&[1.0; 4], &[1.0; 3]),
                chain(&[1.0; 3], &[1.0; 2]),
            ]),
            &parallel(&chain(&[1.0; 3], &[1.0; 2]), &chain(&[1.0; 5], &[1.0; 4])),
        );
        assert!(recognize(&g).is_series_parallel);
    }

    #[test]
    fn random_spgs_recognized() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for e in 1..=8 {
            let cfg = SpgGenConfig {
                n: 30,
                elevation: e,
                ..Default::default()
            };
            let g = random_spg(&cfg, &mut rng);
            assert!(recognize(&g).is_series_parallel, "elevation {e}");
        }
    }

    #[test]
    fn non_sp_dag_rejected() {
        // The "N" graph plus forced single source/sink:
        //   s -> a, s -> b, a -> c, a -> d, b -> d, c -> t, d -> t
        // contains the forbidden N-minor (a->c, a->d, b->d).
        let r = recognize_edges(
            6,
            0,
            5,
            &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
        );
        assert!(!r.is_series_parallel);
        assert!(r.residual_nodes > 2);
    }

    #[test]
    fn multi_edges_parallel_reduce() {
        // Two parallel edges source -> sink: one parallel step, SP.
        let r = recognize_edges(2, 0, 1, &[(0, 1), (0, 1)]);
        assert!(r.is_series_parallel);
        assert_eq!(r.parallel_steps, 1);
        assert_eq!(r.series_steps, 0);
    }

    #[test]
    fn diamond_counts_reductions() {
        // s -> a -> t, s -> b -> t: two series steps then one parallel.
        let r = recognize_edges(4, 0, 3, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert!(r.is_series_parallel);
        assert_eq!(r.series_steps, 2);
        assert_eq!(r.parallel_steps, 1);
    }
}
