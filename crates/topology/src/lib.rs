//! Graph topologies for the Gradient TRIX reproduction.
//!
//! The paper (§2) builds its synchronization network `G` from a *base graph*
//! `H = (V, E)` of minimum degree 2 and diameter `D`:
//!
//! * every layer `ℓ ∈ ℕ` is a copy `V_ℓ` of `V`;
//! * node `(v, ℓ)` has outgoing edges to `(v, ℓ+1)` and to `(w, ℓ+1)` for
//!   every `{v, w} ∈ E`.
//!
//! The recommended base graph for the VLSI setting is a **line with
//! replicated endpoints** (paper Figure 2), which keeps the minimum degree at
//! 2 without the long wrap-around wire a cycle would need. Most nodes of `G`
//! then have in- and out-degree 3, a few have 4 (paper Figure 3).
//!
//! This crate provides:
//!
//! * [`BaseGraph`] — the one graph type every topology family lowers to:
//!   compressed-sparse-row adjacency (sorted rows), the diameter computed
//!   at construction, and the all-pairs distance matrix built by the first
//!   [`BaseGraph::distance`] query; with constructors
//!   ([`BaseGraph::line_with_replicated_ends`], [`BaseGraph::cycle`],
//!   [`BaseGraph::path`], [`BaseGraph::from_edges`]);
//! * [`families`] — deterministic generators for tori, hypercubes, seeded
//!   random-geometric graphs, sparse interleaved pods, and two-tier
//!   supernode overlays, each stamped with a versioned topology descriptor;
//! * [`LayeredGraph`] — the DAG `G`, a base graph and a layer count, with
//!   stable edge indices for per-edge delay assignment (each column's
//!   in-edge block is its base-graph row with the own edge in front,
//!   [`LayeredGraph::in_edge_block`]), plus [`chunk_partition`] and
//!   [`boundary_preds`], the column chunks the parallel dataflow engine
//!   plans against and the outside columns each chunk waits on;
//! * distance-δ ancestor enumeration and the *distance-δ k-faulty*
//!   classification (Definitions 4.32/4.33), used by the Theorem 1.3
//!   experiments;
//! * [`HexGrid`] — the HEX topology of Dolev et al. (DFL+16), used as a
//!   baseline in Table 1 / Figure 1.
//!
//! # Examples
//!
//! ```
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! let base = BaseGraph::line_with_replicated_ends(6);
//! assert!(base.min_degree() >= 2);
//! let g = LayeredGraph::new(base, 10);
//! let preds: Vec<_> = g.predecessors(g.node(1, 3)).collect();
//! assert_eq!(preds.len(), g.base().degree(3) + 1);
//! ```
//!
//! Non-grid families come from [`families`] and flow through the same
//! layered construction:
//!
//! ```
//! use trix_topology::{chunk_partition, families, LayeredGraph};
//!
//! let torus = families::torus(3, 3);
//! assert_eq!(torus.graph().diameter(), 2);
//! let g = LayeredGraph::new(torus.graph().clone(), 6);
//! assert_eq!(g.layer_count(), 6);
//! assert_eq!(g.width(), 9);
//! // Every layer is a copy of the base graph, so one column partition
//! // serves all of them.
//! assert_eq!(chunk_partition(g.width(), 2), vec![(0, 5), (5, 9)]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ancestors;
mod base;
pub mod families;
mod hex;
mod layered;

pub use ancestors::{distance_ancestors, distance_k_faulty, max_k_faulty};
pub use base::BaseGraph;
pub use hex::HexGrid;
pub use layered::{boundary_preds, chunk_partition, EdgeId, LayeredGraph, NodeId};
