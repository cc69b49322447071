//! # spg — series-parallel workflow graphs
//!
//! Substrate crate for the reproduction of *Benoit, Melhem, Renaud-Goud,
//! Robert — "Energy-aware mappings of series-parallel workflows onto chip
//! multiprocessors"* (INRIA RR-7521 / ICPP 2011).
//!
//! A series-parallel graph (SPG) models a streaming application: nodes are
//! *stages* with a computation requirement `w_i` (CPU cycles per data set),
//! edges carry a communication volume `δ_{i,j}` (bytes per data set). SPGs
//! are built from the two-node base graph by *series* and *parallel*
//! composition (paper §3.1), and every node carries a 2-D label `(x, y)`
//! assigned by the recursive rules of §3.1. The maximum `y` value is the
//! *elevation* `ymax` — the degree of parallelism of the workflow — and the
//! paper's tractability results hinge on it being bounded.
//!
//! Provided here:
//! * [`Spg`] — the graph itself, plus [`compose`] (series/parallel with the
//!   paper's label rules) and structural queries;
//! * [`ideal`] — enumeration of *admissible subgraphs* (order ideals), the
//!   state space of the `DPA1D` dynamic program (paper Theorem 1);
//! * [`generate`] — random SPGs with exact size and elevation (paper
//!   §6.2.2), plus the seeded workload *families*
//!   ([`generate::families`]) the campaign engine sweeps;
//! * [`streamit`] — a synthetic stand-in for the 12 StreamIt workflows with
//!   the exact `n / ymax / xmax / CCR` characteristics of Table 1;
//! * [`dot`] — Graphviz export for debugging and documentation.

pub mod compose;
pub mod dot;
pub mod edit;
pub mod generate;
pub mod graph;
pub mod ideal;
pub mod nodeset;
pub mod recognize;
pub mod streamit;
pub mod wire;

pub use compose::{base, chain, parallel, parallel_many, series, series_many};
pub use edit::Edit;
pub use generate::{
    generate_family, random_spg, FamilyKind, FamilyParams, SpgGenConfig, WorkloadSpec,
};
pub use graph::{EdgeId, Label, Spg, SpgEdge, StageId};
pub use ideal::{
    count_ideal_pairs, count_ideals, enumerate_ideals, IdealError, IdealId, IdealLattice,
};
pub use nodeset::{NodeSet, NodeSetRef};
pub use recognize::{recognize, recognize_edges, SpRecognition};
pub use streamit::{streamit_suite, streamit_workflow, StreamItSpec, STREAMIT_SPECS};
