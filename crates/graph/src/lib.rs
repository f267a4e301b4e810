//! Graph substrate for the Minimum Wiener Connector reproduction.
//!
//! The paper ("The Minimum Wiener Connector Problem", SIGMOD 2015) works on
//! simple, connected, undirected, unweighted graphs. This crate provides the
//! full substrate the algorithms are built on:
//!
//! * [`Graph`]: an immutable compressed-sparse-row (CSR) graph with sorted
//!   adjacency lists,
//! * [`GraphBuilder`]: a mutable edge-list builder that deduplicates and
//!   removes self-loops,
//! * [`InducedSubgraph`]: induced subgraphs `G[S]` with local/global id
//!   mapping — the objects the Wiener connector objective is defined over,
//! * the distance kernel in [`traversal::bfs`]: plain, direction-
//!   optimizing, and 64-lane multi-source batched BFS over pooled
//!   workspaces,
//! * BFS / Dijkstra traversals (single- and multi-source) in [`traversal`],
//! * connectivity utilities in [`connectivity`],
//! * the Wiener index and related distance aggregates in [`wiener`],
//! * Brandes betweenness centrality (exact and sampled) in [`centrality`],
//! * the graph statistics reported in the paper's Table 1 in [`metrics`],
//! * graph generators (Erdős–Rényi, Barabási–Albert, planted partitions,
//!   structured families, Zachary's karate club) in [`generators`],
//! * plain-text edge-list I/O in [`io`].
//!
//! # Example
//!
//! ```
//! use mwc_graph::{Graph, wiener};
//!
//! // A 5-cycle.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
//! assert_eq!(g.num_nodes(), 5);
//! assert_eq!(g.num_edges(), 5);
//! // W(C5) = 5 pairs at distance 1 + 5 pairs at distance 2.
//! assert_eq!(wiener::wiener_index(&g), Some(15));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod centrality;
pub mod community;
pub mod connectivity;
pub mod csr;
pub mod error;
pub mod generators;
pub mod hash;
pub mod io;
pub mod metrics;
pub mod oracle;
pub mod subgraph;
pub mod traversal;
pub mod wiener;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use error::{GraphError, Result};
pub use hash::{FxHashMap, FxHashSet};
pub use subgraph::InducedSubgraph;

/// Node identifier: a dense index in `0..num_nodes`.
///
/// `u32` keeps hot arrays (distances, parents, adjacency) half the size of
/// `usize` on 64-bit targets; graphs with more than `u32::MAX` nodes are out
/// of scope for this reproduction (the largest graph in the paper has ~18M
/// nodes).
pub type NodeId = u32;

/// Sentinel for "no node" (e.g. the BFS parent of a root).
pub const NO_NODE: NodeId = NodeId::MAX;

/// Sentinel distance for unreachable vertices.
pub const INF_DIST: u32 = u32::MAX;

/// Largest edge weight the weighted loaders accept (`2^30 − 1`).
///
/// All distance arithmetic is `u32` and **saturates at [`INF_DIST`]**
/// (`u32::MAX`), where a vertex reads as unreachable — so an edge
/// anywhere near `u32::MAX` would make *connected* vertices report as
/// disconnected after a single hop. Capping loader weights at a quarter
/// of the headroom means at least four maximal-weight hops fit before
/// saturation; path sums that still exceed [`INF_DIST`] saturate there
/// and the far vertices are reported unreachable (the documented
/// semantics of every weighted kernel, identical across Dijkstra and
/// delta-stepping).
pub const MAX_EDGE_WEIGHT: u32 = (1 << 30) - 1;
