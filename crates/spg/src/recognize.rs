//! Recognition of two-terminal series-parallel DAGs, and the order-ideal
//! count that falls out of the same reduction.
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
//! The reduction is also an evaluation. Every live edge `u → w` stands for
//! the SP subgraph it has absorbed, and carries `M`: the number of order
//! ideals of that subgraph that contain `u` but not `w`. A base edge has
//! `M = 1` (just `{u}`); a series reduction through `v` gives `M₁ + M₂`
//! (the ideal stops before `v`, or contains `v` and stops in the second
//! half); a parallel merge gives `M₁ · M₂` (the two halves choose
//! independently). Every ideal of the whole graph other than `∅` and the
//! full set contains the source but not the sink, so the graph has
//! `M(source → sink) + 2` ideals — [`crate::ideal::count_ideals`].

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

/// Reduces `g`; alongside the recognition outcome, returns `M` of the
/// final `source → sink` edge when the graph is SP (see the module doc).
pub(crate) fn reduce_spg(g: &Spg) -> (SpRecognition, Option<u128>) {
    let edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .map(|e| (e.src.idx(), e.dst.idx()))
        .collect();
    reduce(g.n(), g.source().idx(), g.sink().idx(), &edges)
}

/// The reduction itself. `succ[u][w]` holds `M` of the live edge `u → w`
/// (saturating: a count past `u128::MAX` stays there); `pred` mirrors the
/// edge set without values.
fn reduce(
    n: usize,
    source: usize,
    sink: usize,
    edges: &[(usize, usize)],
) -> (SpRecognition, Option<u128>) {
    let mut succ: Vec<BTreeMap<usize, u128>> = vec![BTreeMap::new(); n];
    let mut pred: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut series_steps = 0usize;
    let mut parallel_steps = 0usize;
    // Initial parallel collapse: a duplicate base edge merges as
    // `M · 1 = M`, so only the step count changes.
    for &(a, b) in edges {
        match succ[a].entry(b) {
            Entry::Vacant(e) => {
                e.insert(1);
                pred[b].insert(a);
            }
            Entry::Occupied(_) => parallel_steps += 1,
        }
    }
    let reducible = |v: usize, succ: &[BTreeMap<usize, u128>], pred: &[BTreeSet<usize>]| {
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
        let (&w, &m2) = succ[v].first_key_value().unwrap();
        if u == w {
            // A cycle u -> v -> u cannot occur in a DAG; bail out.
            continue;
        }
        // Remove v; add edge u -> w (merging a parallel duplicate if any).
        alive[v] = false;
        series_steps += 1;
        let m1 = succ[u].remove(&v).unwrap();
        pred[w].remove(&v);
        pred[v].clear();
        succ[v].clear();
        let m = m1.saturating_add(m2);
        match succ[u].entry(w) {
            Entry::Vacant(e) => {
                e.insert(m);
                pred[w].insert(u);
            }
            Entry::Occupied(mut e) => {
                parallel_steps += 1;
                *e.get_mut() = e.get().saturating_mul(m);
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
    let m = if reduced_to_edge {
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
        m,
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
