//! Certified lower bounds on the optimal Wiener index.
//!
//! §5 of the paper derives lower bounds from integer programs solved with
//! Gurobi. A commercial MIP solver is outside this reproduction's scope;
//! instead this module provides a *certified combinatorial* lower bound
//! playing the role of the solver's `GL` in Table 2, with a proof sketch
//! below. On graphs with ≤ 64 vertices the
//! exact enumerator (`crate::exact`) supplies `GL = GU = OPT` instead.
//!
//! **Bound.** Let `Q` be the query set, `d_G` distances in the input graph,
//! and `S ⊇ Q` any connector. Then
//!
//! ```text
//! W(G[S]) ≥ Σ_{{s,t} ⊆ Q} d_G(s, t)  +  [ C(|S|, 2) − C(|Q|, 2) ]
//! ```
//!
//! because induced distances dominate `d_G` for query pairs and every other
//! pair contributes ≥ 1. Moreover `|S| ≥ k_min`, the maximum of three
//! certified cardinality bounds:
//!
//! 1. `|Q|` (trivially);
//! 2. `max_pair + 1` where `max_pair = max_{{s,t} ⊆ Q} d_G(s, t)` — `S`
//!    contains an `s`–`t` path with `d_G(s,t) + 1` distinct vertices;
//! 3. `⌈mehlhorn_edges / 2⌉ + 1` — any connector `S` spans `Q`, so a
//!    spanning tree of `G[S]` is a Steiner tree with `|S| − 1 ≥ OPT_st`
//!    edges, and Mehlhorn's tree has at most `2 · OPT_st` edges.
//!
//! The right-hand side is nondecreasing in `|S|`, so substituting `k_min`
//! yields a bound valid for every feasible `S`.

use mwc_graph::traversal::bfs::BfsWorkspace;
use mwc_graph::{Graph, NodeId, INF_DIST};

use crate::error::{CoreError, Result};
use crate::steiner::mehlhorn_steiner;
use crate::wsq::normalize_query;

/// Components of the certified lower bound, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBound {
    /// `Σ_{{s,t} ⊆ Q} d_G(s, t)` — the query-pair distance mass.
    pub query_pair_sum: u64,
    /// `max_{{s,t} ⊆ Q} d_G(s, t)`.
    pub max_pair_distance: u32,
    /// The implied minimum connector cardinality `k_min`.
    pub min_cardinality: usize,
    /// The final certified bound.
    pub value: u64,
}

/// Computes the certified lower bound for `q` in `g` (`|Q|` BFS runs plus
/// one Mehlhorn Steiner run for the cardinality bound).
///
/// Errors if the query is empty/invalid or spans multiple components.
pub fn certified_lower_bound(g: &Graph, q: &[NodeId]) -> Result<LowerBound> {
    let q = normalize_query(g, q)?;
    let mut ws = BfsWorkspace::new();
    let mut pair_sum = 0u64;
    let mut max_pair = 0u32;
    for (i, &s) in q.iter().enumerate() {
        let dist = ws.run(g, s);
        for &t in &q[i + 1..] {
            let d = dist[t as usize];
            if d == INF_DIST {
                return Err(CoreError::QueryNotConnectable);
            }
            pair_sum += d as u64;
            max_pair = max_pair.max(d);
        }
    }
    // Steiner-based cardinality bound: |S| - 1 ≥ OPT_st ≥ mehlhorn/2.
    let steiner_edges = mehlhorn_steiner(g, &q, |_, _| 1.0)?.edges.len();
    let k_steiner = steiner_edges.div_ceil(2) + 1;
    let k_min = q.len().max(max_pair as usize + 1).max(k_steiner);
    let pairs = |k: usize| (k as u64) * (k as u64 - 1) / 2;
    let value = pair_sum + pairs(k_min) - pairs(q.len());
    Ok(LowerBound {
        query_pair_sum: pair_sum,
        max_pair_distance: max_pair,
        min_cardinality: k_min,
        value,
    })
}

/// The Table 2 error interval for a solution of value `wsq` against bounds
/// `gl ≤ OPT ≤ gu`: `[(wsq − gu)/gu, (wsq − gl)/gl]`, clamped at 0.
///
/// A zero-width interval at 0 certifies optimality.
pub fn error_interval(wsq: u64, gl: u64, gu: u64) -> (f64, f64) {
    debug_assert!(gl <= gu && gu <= wsq.max(gu));
    let rel = |bound: u64| {
        if bound == 0 {
            if wsq == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((wsq as f64 - bound as f64) / bound as f64).max(0.0)
        }
    };
    (rel(gu), rel(gl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_minimum, ExactConfig};
    use mwc_graph::generators::{karate::karate_club, structured};
    use rand::{Rng, SeedableRng};

    #[test]
    fn path_bound_is_tight_for_q2() {
        // Q = endpoints of P_5: only connector is the path itself,
        // W = (125 - 5)/6 = 20; bound: pair_sum = 4, k_min = 5,
        // extra = C(5,2) - C(2,2)... C(2,2)=1 → 4 + (10 - 1) = 13 ≤ 20.
        let g = structured::path(5);
        let lb = certified_lower_bound(&g, &[0, 4]).unwrap();
        assert_eq!(lb.query_pair_sum, 4);
        assert_eq!(lb.min_cardinality, 5);
        assert_eq!(lb.value, 4 + 10 - 1);
        assert!(lb.value <= 20);
    }

    #[test]
    fn adjacent_query_pair_bound_is_exact() {
        let g = structured::path(3);
        let lb = certified_lower_bound(&g, &[0, 1]).unwrap();
        assert_eq!(lb.value, 1); // optimal: the edge itself
    }

    #[test]
    fn bound_never_exceeds_exact_optimum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let mut checked = 0;
        while checked < 15 {
            let raw = mwc_graph::generators::gnm(18, 32, &mut rng);
            let Ok((g, _)) = mwc_graph::connectivity::largest_component_graph(&raw) else {
                continue;
            };
            let n = g.num_nodes() as NodeId;
            if n < 8 {
                continue;
            }
            let q: Vec<NodeId> = (0..3).map(|_| rng.gen_range(0..n)).collect();
            let exact = exact_minimum(&g, &q, None, &ExactConfig::default()).unwrap();
            assert!(exact.optimal);
            let lb = certified_lower_bound(&g, &q).unwrap();
            assert!(
                lb.value <= exact.wiener_index,
                "LB {} exceeds OPT {} (q = {q:?})",
                lb.value,
                exact.wiener_index
            );
            checked += 1;
        }
    }

    #[test]
    fn bound_on_karate_queries() {
        let g = karate_club();
        let q: Vec<NodeId> = vec![11, 24, 25, 29];
        let exact = exact_minimum(&g, &q, None, &ExactConfig::default()).unwrap();
        let lb = certified_lower_bound(&g, &q).unwrap();
        assert!(exact.optimal);
        assert!(lb.value <= exact.wiener_index);
        assert!(lb.value > 0);
    }

    #[test]
    fn disconnected_query_errors() {
        let g = mwc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(certified_lower_bound(&g, &[0, 2]).is_err());
    }

    #[test]
    fn error_interval_shapes() {
        // Optimal: wsq == gu == gl.
        assert_eq!(error_interval(40, 40, 40), (0.0, 0.0));
        // Paper row "football |Q|=10": ws-q 656, GU 598, GL 538
        // → [9.6%, 22%].
        let (lo, hi) = error_interval(656, 538, 598);
        assert!((lo - 0.0969).abs() < 0.01, "lo = {lo}");
        assert!((hi - 0.2193).abs() < 0.01, "hi = {hi}");
        // Degenerate zero bound.
        let (lo, hi) = error_interval(0, 0, 0);
        assert_eq!((lo, hi), (0.0, 0.0));
    }
}
