//! Deterministic stand-ins for the paper's real-world graphs (Table 1).
//!
//! Each stand-in matches the original's vertex/edge counts and its
//! structural family: Barabási–Albert for the heavy-tailed
//! social/biological/web graphs, planted partitions for the graphs the
//! paper uses *because* they have (ground-truth) community structure
//! (football, dblp, youtube). The experiments compare five algorithms on
//! the same graph, so what must carry over is the modular small-world
//! shape, not the exact byte content.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mwc_graph::connectivity::largest_component_graph;
use mwc_graph::generators::{holme_kim, sbm::planted_partition_by_degree};
use mwc_graph::Graph;

/// Generator family of a stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Holme–Kim preferential attachment (heavy-tailed degree) with triad
    /// formation tuned to approach the original's clustering coefficient.
    PowerLaw {
        /// The original dataset's average clustering coefficient
        /// (Table 1's `cc`), used to calibrate the triad-formation
        /// probability.
        clustering: f64,
    },
    /// Planted partition with ground-truth communities.
    Communities {
        /// Number of planted communities.
        num_communities: usize,
    },
}

/// Specification of one Table 1 stand-in.
#[derive(Debug, Clone, Copy)]
pub struct StandIn {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Original vertex count (Table 1's `|V|`).
    pub nodes: usize,
    /// Original edge count (Table 1's `|E|`).
    pub edges: usize,
    /// Generator family.
    pub family: Family,
    /// Whether the original ships ground-truth communities (marked `*`).
    pub ground_truth: bool,
}

/// The Table 1 datasets (excluding the SteinLib rows, which live in
/// [`crate::steiner_benchmarks`]).
pub const STAND_INS: &[StandIn] = &[
    StandIn {
        name: "football",
        nodes: 115,
        edges: 613,
        family: Family::Communities {
            num_communities: 12,
        },
        ground_truth: false,
    },
    StandIn {
        name: "jazz",
        nodes: 198,
        edges: 2742,
        family: Family::PowerLaw { clustering: 0.62 },
        ground_truth: false,
    },
    StandIn {
        name: "celegans",
        nodes: 453,
        edges: 2025,
        family: Family::PowerLaw { clustering: 0.65 },
        ground_truth: false,
    },
    StandIn {
        name: "email",
        nodes: 1133,
        edges: 5452,
        family: Family::PowerLaw { clustering: 0.22 },
        ground_truth: false,
    },
    StandIn {
        name: "yeast",
        nodes: 2224,
        edges: 6609,
        family: Family::PowerLaw { clustering: 0.14 },
        ground_truth: false,
    },
    StandIn {
        name: "oregon",
        nodes: 10670,
        edges: 22002,
        family: Family::PowerLaw { clustering: 0.30 },
        ground_truth: false,
    },
    StandIn {
        name: "astro",
        nodes: 18772,
        edges: 198110,
        family: Family::PowerLaw { clustering: 0.63 },
        ground_truth: false,
    },
    StandIn {
        name: "dblp",
        nodes: 317_080,
        edges: 1_049_866,
        family: Family::Communities {
            num_communities: 3000,
        },
        ground_truth: true,
    },
    StandIn {
        name: "youtube",
        nodes: 1_134_890,
        edges: 2_987_624,
        family: Family::Communities {
            num_communities: 5000,
        },
        ground_truth: true,
    },
    StandIn {
        name: "wiki",
        nodes: 2_394_385,
        edges: 5_021_410,
        family: Family::PowerLaw { clustering: 0.22 },
        ground_truth: false,
    },
    StandIn {
        name: "livejournal",
        nodes: 3_997_962,
        edges: 34_681_189,
        family: Family::PowerLaw { clustering: 0.28 },
        ground_truth: false,
    },
    StandIn {
        name: "twitter",
        nodes: 11_316_811,
        edges: 85_331_846,
        family: Family::PowerLaw { clustering: 0.09 },
        ground_truth: false,
    },
    StandIn {
        name: "dbpedia",
        nodes: 18_268_992,
        edges: 172_183_984,
        family: Family::PowerLaw { clustering: 0.17 },
        ground_truth: false,
    },
];

/// A generated stand-in: the graph plus ground-truth communities when the
/// family provides them. The graph is the largest connected component of
/// the raw generator output (the paper assumes connected inputs), so the
/// final size may be slightly below the spec.
#[derive(Debug, Clone)]
pub struct StandInGraph {
    /// Which spec this instantiates.
    pub spec: StandIn,
    /// Scale factor that was applied to the node count.
    pub scale: f64,
    /// The (connected) graph.
    pub graph: Graph,
    /// Ground-truth community of each vertex, for `Communities` stand-ins.
    pub membership: Option<Vec<u32>>,
}

/// Looks up a spec by paper name.
pub fn spec(name: &str) -> Option<StandIn> {
    STAND_INS.iter().copied().find(|s| s.name == name)
}

/// Generates the full-size stand-in for `name` (deterministic per name).
pub fn standin(name: &str) -> Option<StandInGraph> {
    standin_scaled(name, 1.0)
}

/// Generates a stand-in with the node count scaled by `scale` (edges scale
/// with it through the preserved average degree). Scaling keeps the
/// structural family while letting the harness default to laptop-friendly
/// sizes for the million-node graphs; `EXPERIMENTS.md` records the scales
/// used per experiment.
pub fn standin_scaled(name: &str, scale: f64) -> Option<StandInGraph> {
    let s = spec(name)?;
    Some(instantiate(s, scale))
}

/// Generates a stand-in from an explicit spec.
pub fn instantiate(s: StandIn, scale: f64) -> StandInGraph {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let n = ((s.nodes as f64 * scale).round() as usize).max(64);
    let avg_deg = 2.0 * s.edges as f64 / s.nodes as f64;
    let mut rng = StdRng::seed_from_u64(seed_of(s.name));
    match s.family {
        Family::PowerLaw { clustering } => {
            let k = ((avg_deg / 2.0).round() as usize).max(1);
            // Triad-formation probability calibrated so the Holme-Kim
            // clustering coefficient lands near the original's (empirical
            // fit over the Table 1 range).
            let p_triangle = (clustering * 1.6).clamp(0.0, 0.95);
            let graph = holme_kim(n.max(k + 2), k, p_triangle, &mut rng);
            StandInGraph {
                spec: s,
                scale,
                graph,
                membership: None,
            }
        }
        Family::Communities { num_communities } => {
            let k = ((num_communities as f64 * scale).round() as usize).clamp(2, n / 4);
            // Paper-style modular graphs: ~75% of a vertex's edges inside
            // its community.
            let deg_in = avg_deg * 0.75;
            let deg_out = avg_deg * 0.25;
            let pp = planted_partition_by_degree(n, k, deg_in, deg_out, &mut rng);
            let (graph, mapping) =
                largest_component_graph(&pp.graph).expect("stand-in is non-empty");
            let membership: Vec<u32> = mapping.iter().map(|&v| pp.membership[v as usize]).collect();
            StandInGraph {
                spec: s,
                scale,
                graph,
                membership: Some(membership),
            }
        }
    }
}

/// Stable 64-bit seed per dataset name (FNV-1a).
fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::connectivity::is_connected;

    #[test]
    fn specs_cover_the_paper_table() {
        assert_eq!(STAND_INS.len(), 13);
        assert!(spec("oregon").is_some());
        assert!(spec("dbpedia").is_some());
        assert!(spec("nonexistent").is_none());
    }

    #[test]
    fn small_standins_match_sizes() {
        for name in ["football", "jazz", "celegans", "email", "yeast"] {
            let si = standin(name).unwrap();
            let s = si.spec;
            let n = si.graph.num_nodes() as f64;
            assert!(
                (n - s.nodes as f64).abs() / s.nodes as f64 <= 0.05,
                "{name}: nodes {n} vs spec {}",
                s.nodes
            );
            let m = si.graph.num_edges() as f64;
            assert!(
                (m - s.edges as f64).abs() / s.edges as f64 <= 0.45,
                "{name}: edges {m} vs spec {}",
                s.edges
            );
            assert!(is_connected(&si.graph), "{name} disconnected");
        }
    }

    #[test]
    fn standins_are_deterministic() {
        let a = standin("email").unwrap();
        let b = standin("email").unwrap();
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn community_standins_have_membership() {
        let si = standin_scaled("dblp", 0.01).unwrap();
        let membership = si.membership.as_ref().expect("dblp has ground truth");
        assert_eq!(membership.len(), si.graph.num_nodes());
        let k = membership.iter().copied().max().unwrap() + 1;
        assert!(k >= 2, "expected multiple communities, got {k}");
        assert!(is_connected(&si.graph));
    }

    #[test]
    fn powerlaw_standins_have_hubs() {
        let si = standin("email").unwrap();
        let max_deg = si.graph.max_degree();
        let avg = 2.0 * si.graph.num_edges() as f64 / si.graph.num_nodes() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "no hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn scaling_shrinks_nodes_preserving_degree() {
        let full = standin("oregon").unwrap();
        let small = standin_scaled("oregon", 0.1).unwrap();
        assert!(small.graph.num_nodes() < full.graph.num_nodes() / 5);
        let d_full = 2.0 * full.graph.num_edges() as f64 / full.graph.num_nodes() as f64;
        let d_small = 2.0 * small.graph.num_edges() as f64 / small.graph.num_nodes() as f64;
        assert!(
            (d_full - d_small).abs() < 1.0,
            "avg degree drifted: {d_full} vs {d_small}"
        );
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_zero_scale() {
        let _ = standin_scaled("email", 0.0);
    }
}
