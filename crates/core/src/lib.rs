//! Solvers for the **Minimum Wiener Connector** problem ("The Minimum
//! Wiener Connector Problem", SIGMOD 2015).
//!
//! Given a connected graph `G` and query vertices `Q`, find a connected
//! induced subgraph containing `Q` that minimizes the Wiener index (the sum
//! of all pairwise shortest-path distances). The objective favors *small*
//! connectors that recruit a few *central* vertices — community leaders
//! when `Q` sits inside one community, bridge/structural-hole vertices when
//! `Q` spans several.
//!
//! # Contents
//!
//! * [`engine`] — the unified serving API: the [`ConnectorSolver`] trait
//!   every method implements and the per-graph [`QueryEngine`] that
//!   amortizes BFS workspaces, centrality vectors, and the landmark
//!   oracle across many queries (`solve`, `solve_batch` and the
//!   coalesced `solve_group` they all run through);
//! * [`wsq`] — the paper's main contribution: a constant-factor
//!   approximation running in `Õ(|Q||E|)` (Algorithm 1), exposed as
//!   [`WienerSteiner`];
//! * [`steiner`] — Mehlhorn's Steiner-tree 2-approximation it builds on;
//! * [`adjust`] — the `AdjustDistances` balancing step (Lemma 2);
//! * [`objective`] — the relaxation chain `W → A → Ã → B` (§4);
//! * [`exact`] — exact solvers for small instances (`|Q| = 2` shortest
//!   path; pruned subset enumeration on ≤ 64-vertex bitset graphs);
//! * [`local_search`] — add/remove refinement (the Table 2 upper bound);
//! * [`lower_bound`] — certified combinatorial lower bounds (the Table 2
//!   `GL` substitute for the paper's §5 ILP);
//! * [`connector`] — the [`Connector`] solution type shared with the
//!   baselines;
//! * [`trace`] — lock-free per-request span recording threaded through
//!   [`QueryOptions`] for end-to-end request tracing.
//!
//! # Quickstart
//!
//! Build a [`QueryEngine`] once per graph and serve queries through it:
//!
//! ```
//! use mwc_core::QueryEngine;
//! use mwc_graph::generators::karate::{from_paper_ids, karate_club};
//!
//! let g = karate_club();
//! let engine = QueryEngine::new(&g);
//! // Figure 1 (left): query vertices from both factions.
//! let q = from_paper_ids(&[12, 25, 26, 30]);
//! let report = engine.solve("ws-q", &q).unwrap();
//! assert!(report.connector.contains_all(&q));
//! assert!(report.connector.len() < 12); // small connector
//! ```
//!
//! The per-method types ([`WienerSteiner`], [`ApproxWienerSteiner`], …)
//! remain available for fine-grained control.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adjust;
pub mod connector;
pub mod engine;
pub mod error;
pub mod exact;
pub mod ilp;
pub mod ilp_solve;
pub mod local_search;
pub mod lower_bound;
pub mod objective;
pub mod steiner;
pub mod trace;
pub mod wsq;
pub mod wsq_approx;

pub use connector::Connector;
pub use engine::{
    CacheStats, ConnectorSolver, GroupOutcome, GroupQuery, GroupStats, OwnedEngine, QueryContext,
    QueryEngine, QueryOptions, SolveReport,
};
pub use error::{CoreError, Result};
pub use ilp_solve::{program6_exact, program7_bounds, Program7Bounds, Program7Config};
pub use steiner::{mehlhorn_steiner, SteinerTree};
pub use trace::{SpanRecord, TraceContext, TraceRecorder, NO_PARENT};
pub use wsq::{
    minimum_wiener_connector, CandidateRecord, RootPolicy, WienerSteiner, WsqConfig, WsqSolution,
};
pub use wsq_approx::{ApproxWienerSteiner, ApproxWsqConfig};
