//! `ppr` — personalized PageRank seed-set expansion.
//!
//! The paper follows Kloumann & Kleinberg's findings (§1.1, ref. 37):
//! standard
//! (non-degree-normalized) PageRank personalized over the query set,
//! then greedy addition of the highest-scoring vertices until `Q` is
//! connected (§6.1).

use mwc_core::{Connector, Result};
use mwc_graph::{Graph, NodeId};

use crate::greedy::greedy_connect;
use crate::rwr::{random_walk_with_restart, RwrParams};

/// Runs the `ppr` baseline with the paper's default RWR parameters.
pub fn ppr(g: &Graph, q: &[NodeId]) -> Result<Connector> {
    ppr_with_params(g, q, RwrParams::default())
}

/// Runs the `ppr` baseline with explicit RWR parameters.
pub fn ppr_with_params(g: &Graph, q: &[NodeId], params: RwrParams) -> Result<Connector> {
    // The walk indexes its restart vector by query id: reject
    // out-of-range ids before it runs.
    for &v in q {
        g.check_node(v)?;
    }
    let scores = random_walk_with_restart(g, q, params);
    greedy_connect(g, q, &scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};

    #[test]
    fn connects_query_on_karate() {
        let g = karate_club();
        let q: Vec<NodeId> = vec![11, 24, 25, 29];
        let c = ppr(&g, &q).unwrap();
        assert!(c.contains_all(&q));
        assert!(c.len() < 34, "ppr should not need the whole graph");
    }

    #[test]
    fn out_of_range_query_is_an_error() {
        let g = karate_club();
        assert!(ppr(&g, &[0, 99_999]).is_err());
    }

    #[test]
    fn two_distant_vertices_on_a_path() {
        let g = structured::path(8);
        let c = ppr(&g, &[0, 7]).unwrap();
        assert_eq!(c.len(), 8); // only one way to connect
    }

    #[test]
    fn solutions_tend_to_be_larger_than_wsq() {
        // The qualitative Table 3 relation on a hub-rich graph: ppr's greedy
        // expansion adds at least as many vertices as ws-q's connector.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(91);
        let g = mwc_graph::generators::barabasi_albert(400, 3, &mut rng);
        use rand::Rng;
        let mut larger = 0;
        for _ in 0..5 {
            let q: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..400)).collect();
            let p = ppr(&g, &q).unwrap();
            let w = mwc_core::minimum_wiener_connector(&g, &q).unwrap();
            if p.len() >= w.connector.len() {
                larger += 1;
            }
        }
        assert!(
            larger >= 4,
            "ppr smaller than ws-q in {} of 5 runs",
            5 - larger
        );
    }
}
