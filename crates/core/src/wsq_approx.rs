//! Approximate-distance `ws-q` — the §6.6 scale-out direction, built.
//!
//! The paper's scalability section observes that pushing Algorithm 1 to
//! very large graphs "becomes necessary to employ techniques for parallel
//! and/or approximate shortest-distance computations [52, 4, 40, 45]",
//! and leaves them beyond scope. This module implements the approximate-
//! distance variant on top of [`mwc_graph::oracle::LandmarkOracle`]:
//!
//! * the per-root single-source distances of Algorithm 1 line 1 (one BFS
//!   per query vertex, `O(|Q| (|V| + |E|))` per solve) are replaced by
//!   landmark estimates (`O(|Q| · k · |V|)` scans against a `k`-landmark
//!   oracle built once per graph and shared across queries);
//! * the `G_{r,λ}` reweighting, λ sweep, Steiner solves, and Remark 1
//!   candidate selection are unchanged;
//! * `AdjustDistances` is skipped — it needs an exact BFS tree from the
//!   root, which is precisely what this variant avoids. The theoretical
//!   guarantee consequently degrades from a constant factor to a
//!   constant factor *relative to the oracle's distortion*; empirically
//!   (see the `fig5_approx` bench) quality stays within a few percent
//!   with 16 hub landmarks.
//!
//! The estimates are upper bounds that coincide with true distances
//! whenever some landmark lies on a shortest path, so hub landmarks work
//! well exactly on the small-world graphs the paper evaluates.

use mwc_graph::oracle::{LandmarkOracle, LandmarkStrategy};
use mwc_graph::traversal::bfs::WorkspacePool;
use mwc_graph::wiener;
use mwc_graph::{Graph, NodeId, INF_DIST};
use rand::Rng;

use crate::connector::Connector;
use crate::error::{CoreError, Result};
use crate::steiner::{steiner_tree, SteinerAlgorithm};
use crate::wsq::{evaluate_a, lambda_grid, normalize_query, CandidateRecord, WsqSolution};

/// Configuration of the approximate solver.
#[derive(Debug, Clone)]
pub struct ApproxWsqConfig {
    /// λ-grid resolution (see [`crate::WsqConfig::beta`]).
    pub beta: f64,
    /// Number of landmarks when the solver builds its own oracle.
    pub landmarks: usize,
    /// Landmark selection strategy.
    pub strategy: LandmarkStrategy,
    /// Steiner subroutine for the per-`(root, λ)` instances.
    pub steiner: SteinerAlgorithm,
    /// Exact-Wiener evaluation threshold (Remark 1; see
    /// [`crate::WsqConfig::wiener_exact_threshold`]).
    pub wiener_exact_threshold: usize,
    /// Allow internal parallelism (currently: the multi-source parallel
    /// Wiener evaluation of Remark-1 survivors). The engine clears this
    /// when it runs several queries at once on its own worker threads,
    /// so solvers do not nest one thread pool per worker — same contract
    /// as [`crate::WsqConfig::parallel`].
    pub parallel: bool,
}

impl Default for ApproxWsqConfig {
    fn default() -> Self {
        ApproxWsqConfig {
            beta: 1.0,
            landmarks: 16,
            strategy: LandmarkStrategy::HighestDegree,
            steiner: SteinerAlgorithm::default(),
            wiener_exact_threshold: 4096,
            parallel: true,
        }
    }
}

/// The approximate-distance `ws-q` solver. Owns a landmark oracle built
/// once per graph; `solve` can then be called for many queries without
/// any full-graph BFS beyond the per-query feasibility check.
///
/// ```
/// use mwc_core::{ApproxWienerSteiner, ApproxWsqConfig};
/// use mwc_graph::generators::karate::karate_club;
/// use rand::SeedableRng;
///
/// let g = karate_club();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let solver = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
/// let sol = solver.solve(&[11, 24, 25, 29]).unwrap();
/// assert!(sol.connector.contains_all(&[11, 24, 25, 29]));
/// ```
#[derive(Debug, Clone)]
pub struct ApproxWienerSteiner<'g> {
    graph: &'g Graph,
    oracle: LandmarkOracle,
    config: ApproxWsqConfig,
}

impl<'g> ApproxWienerSteiner<'g> {
    /// Builds the oracle (`config.landmarks` BFS traversals) and returns
    /// a ready solver.
    pub fn build<R: Rng>(graph: &'g Graph, config: ApproxWsqConfig, rng: &mut R) -> Self {
        assert!(config.beta > 0.0, "beta must be positive");
        let oracle = LandmarkOracle::build(graph, config.landmarks, config.strategy, rng);
        ApproxWienerSteiner {
            graph,
            oracle,
            config,
        }
    }

    /// Wraps an existing oracle (e.g. shared across solvers).
    pub fn with_oracle(graph: &'g Graph, oracle: LandmarkOracle, config: ApproxWsqConfig) -> Self {
        assert!(config.beta > 0.0, "beta must be positive");
        ApproxWienerSteiner {
            graph,
            oracle,
            config,
        }
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &LandmarkOracle {
        &self.oracle
    }

    /// Computes an approximately minimum Wiener connector for `q` using
    /// estimated distances. Same contract as
    /// [`WienerSteiner::solve`](crate::WienerSteiner::solve).
    pub fn solve(&self, q: &[NodeId]) -> Result<WsqSolution> {
        solve_with_oracle(
            self.graph,
            &self.oracle,
            &self.config,
            q,
            &WorkspacePool::new(),
        )
    }
}

/// Algorithm 1 with landmark-estimated distances, against a *borrowed*
/// oracle and workspace pool.
///
/// This is the reusable core of [`ApproxWienerSteiner::solve`]; the
/// [`QueryEngine`](crate::engine::QueryEngine) calls it directly so one
/// oracle (built once per graph) and one buffer pool serve every query,
/// instead of each solver instance owning copies.
pub fn solve_with_oracle(
    g: &Graph,
    oracle: &LandmarkOracle,
    config: &ApproxWsqConfig,
    q: &[NodeId],
    pool: &WorkspacePool,
) -> Result<WsqSolution> {
    let q = normalize_query(g, q)?;
    if q.len() == 1 {
        return Ok(WsqSolution {
            connector: Connector::new_unchecked(g, q.clone()),
            wiener_index: 0,
            best_root: q[0],
            best_lambda: 1.0,
            num_candidates: 1,
            trace: Vec::new(),
        });
    }
    // Feasibility stays exact: one BFS, not one per root.
    {
        let mut ws = pool.lease();
        let dist = ws.run_auto(g, q[0]);
        if q.iter().any(|&v| dist[v as usize] == INF_DIST) {
            return Err(CoreError::QueryNotConnectable);
        }
    }

    let lambdas = lambda_grid(g.num_nodes(), config.beta);
    // Root estimates: one pass over the oracle's `k × |V|` matrix serves
    // every root, each landmark row folded into every root while
    // cache-hot (identical values to per-root `estimate_all` calls).
    let root_dists = oracle.estimate_all_multi(&q);
    let mut all: Vec<(CandidateRecord, Vec<NodeId>)> = Vec::new();
    for (&r, dist_r) in q.iter().zip(root_dists.iter().map(Vec::as_slice)) {
        for &lambda in &lambdas {
            let weight = |u: NodeId, v: NodeId| {
                // Unreachable vertices never appear on used paths (the
                // feasibility check passed); saturate defensively.
                let d = dist_r[u as usize].max(dist_r[v as usize]);
                let d = if d == INF_DIST {
                    g.num_nodes() as u32
                } else {
                    d
                };
                lambda + d as f64 / lambda
            };
            let tree = steiner_tree(config.steiner, g, &q, weight)?;
            let nodes = tree.nodes;
            let a_value = evaluate_a(g, &nodes, r, pool)?;
            all.push((
                CandidateRecord {
                    root: r,
                    lambda,
                    size: nodes.len(),
                    a_value,
                    wiener: None,
                },
                nodes,
            ));
        }
    }

    // Remark 1 selection, identical to the exact solver: Lemma 1 rules
    // out candidates with A > 2 · min A; the survivors get exact W.
    let min_a = all.iter().map(|(rec, _)| rec.a_value).min().unwrap_or(0);
    for (rec, nodes) in &mut all {
        if rec.a_value <= 2 * min_a && nodes.len() <= config.wiener_exact_threshold {
            let sub = g.induced(nodes)?;
            // Sequential when the engine is already parallel across
            // queries (see ApproxWsqConfig::parallel) — never nest pools.
            rec.wiener = if config.parallel {
                wiener::wiener_index(sub.graph())
            } else {
                wiener::wiener_index_sequential(sub.graph())
            };
        }
    }
    let num_candidates = all.len();
    let mut best: Option<(CandidateRecord, Vec<NodeId>)> = None;
    for (rec, nodes) in all {
        let better = match &best {
            None => true,
            Some((cur, _)) => match (rec.wiener, cur.wiener) {
                (Some(a), Some(b)) => a < b,
                (Some(a), None) => a < cur.a_value,
                (None, Some(b)) => rec.a_value / 2 < b && rec.a_value < cur.a_value,
                (None, None) => rec.a_value < cur.a_value,
            },
        };
        if better {
            best = Some((rec, nodes));
        }
    }
    let (best_rec, best_nodes) = best.expect("candidates are always produced");
    let connector = Connector::new_unchecked(g, best_nodes);
    let wiener_index = match best_rec.wiener {
        Some(w) => w,
        // Same sequential contract as the candidate evaluations above.
        None => connector.wiener_index_with(g, !config.parallel)?,
    };
    Ok(WsqSolution {
        connector,
        wiener_index,
        best_root: best_rec.root,
        best_lambda: best_rec.lambda,
        num_candidates,
        trace: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wsq::{WienerSteiner, WsqConfig};
    use mwc_graph::generators::karate::karate_club;
    use rand::SeedableRng;

    #[test]
    fn returns_valid_connectors_on_karate() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let solver = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
        for q in [vec![11u32, 24, 25, 29], vec![3, 11, 16], vec![0, 33]] {
            let sol = solver.solve(&q).expect("solve");
            assert!(sol.connector.contains_all(&q));
            let sub = sol.connector.induced(&g).expect("induced");
            assert!(mwc_graph::connectivity::is_connected(sub.graph()));
            assert_eq!(
                sol.wiener_index,
                sol.connector.wiener_index(&g).unwrap(),
                "reported W must match the connector"
            );
        }
    }

    #[test]
    fn full_landmark_oracle_matches_exact_wsq() {
        // With every vertex a landmark the estimates are exact, so the
        // candidate trees coincide with the exact solver's (adjust off).
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let approx = ApproxWienerSteiner::build(
            &g,
            ApproxWsqConfig {
                landmarks: g.num_nodes(),
                ..ApproxWsqConfig::default()
            },
            &mut rng,
        );
        let exact = WienerSteiner::with_config(
            &g,
            WsqConfig {
                adjust: false,
                parallel: false,
                ..WsqConfig::default()
            },
        );
        for q in [vec![11u32, 24, 25, 29], vec![3, 11, 16]] {
            let wa = approx.solve(&q).unwrap().wiener_index;
            let we = exact.solve(&q).unwrap().wiener_index;
            assert_eq!(wa, we, "query {q:?}");
        }
    }

    #[test]
    fn quality_stays_close_to_exact_on_scale_free_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = mwc_graph::generators::barabasi_albert(400, 3, &mut rng);
        let approx = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
        let exact = WienerSteiner::with_config(
            &g,
            WsqConfig {
                parallel: false,
                ..WsqConfig::default()
            },
        );
        use rand::Rng;
        for _ in 0..5 {
            let q: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..400)).collect();
            let wa = approx.solve(&q).unwrap().wiener_index;
            let we = exact.solve(&q).unwrap().wiener_index;
            assert!(
                (wa as f64) <= 2.0 * we as f64,
                "approximate W {wa} too far from exact {we} on {q:?}"
            );
        }
    }

    #[test]
    fn singleton_and_error_paths() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let solver = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
        let sol = solver.solve(&[7]).unwrap();
        assert_eq!(sol.wiener_index, 0);
        assert!(matches!(solver.solve(&[]), Err(CoreError::EmptyQuery)));
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let solver = ApproxWienerSteiner::build(&disc, ApproxWsqConfig::default(), &mut rng);
        assert!(matches!(
            solver.solve(&[0, 3]),
            Err(CoreError::QueryNotConnectable)
        ));
    }

    #[test]
    fn oracle_is_reusable_across_solvers() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let oracle = LandmarkOracle::build(&g, 8, LandmarkStrategy::HighestDegree, &mut rng);
        let a = ApproxWienerSteiner::with_oracle(&g, oracle.clone(), ApproxWsqConfig::default());
        let b = ApproxWienerSteiner::with_oracle(&g, oracle, ApproxWsqConfig::default());
        let q = [11u32, 24, 25];
        assert_eq!(
            a.solve(&q).unwrap().wiener_index,
            b.solve(&q).unwrap().wiener_index,
            "same oracle + config ⇒ deterministic result"
        );
    }
}
