//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use mwc_graph::connectivity::{connected_components, is_connected, is_connected_subset};
use mwc_graph::traversal::bfs::{bfs_distances, bfs_parents, path_from_parents};
use mwc_graph::traversal::dijkstra::dijkstra;
use mwc_graph::wiener::{distance_sum_from, wiener_index};
use mwc_graph::{centrality, Graph, GraphBuilder, NodeId, INF_DIST};

/// Strategy: an arbitrary (possibly disconnected) simple graph with
/// 1..40 vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..40,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
    )
        .prop_map(|(n, raw)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in raw {
                let _ = b.add_edge(u % n as u32, v % n as u32);
            }
            b.build()
        })
}

/// Strategy: a connected graph (random tree + extra edges).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(rng.gen_range(0..v), v).unwrap();
        }
        for _ in 0..rng.gen_range(0..2 * n) {
            b.add_edge(rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId))
                .unwrap();
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CSR adjacency is symmetric, sorted, deduplicated, loop-free.
    #[test]
    fn csr_invariants(g in arb_graph()) {
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted+dedup");
            prop_assert!(!nbrs.contains(&v), "no self-loop");
            for &u in nbrs {
                prop_assert!(g.neighbors(u).contains(&v), "symmetry {u}<->{v}");
            }
        }
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    /// Induced subgraphs never shorten distances.
    #[test]
    fn induced_distances_dominate(g in arb_connected_graph(), pick in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(pick);
        let n = g.num_nodes();
        let size = rng.gen_range(1..=n);
        let mut set: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..n as NodeId)).collect();
        set.sort_unstable();
        set.dedup();
        let sub = g.induced(&set).unwrap();
        let src_local = 0 as NodeId;
        let src_global = sub.to_global(src_local);
        let d_sub = bfs_distances(sub.graph(), src_local);
        let d_g = bfs_distances(&g, src_global);
        for local in 0..sub.num_nodes() as NodeId {
            let global = sub.to_global(local);
            if d_sub[local as usize] != INF_DIST {
                prop_assert!(d_sub[local as usize] >= d_g[global as usize]);
            }
        }
    }

    /// BFS and unit-weight Dijkstra agree everywhere.
    #[test]
    fn bfs_matches_unit_dijkstra(g in arb_graph()) {
        let d_bfs = bfs_distances(&g, 0);
        let d_dij = dijkstra(&g, 0, |_, _| 1.0);
        for (v, &d) in d_bfs.iter().enumerate() {
            if d == INF_DIST {
                prop_assert!(d_dij.dist[v].is_infinite());
            } else {
                prop_assert_eq!(d as f64, d_dij.dist[v]);
            }
        }
    }

    /// BFS parents reconstruct paths of exactly the reported length.
    #[test]
    fn bfs_paths_have_reported_length(g in arb_connected_graph()) {
        let r = bfs_parents(&g, 0);
        for t in 0..g.num_nodes() as NodeId {
            let p = path_from_parents(&r.parent, 0, t).unwrap();
            prop_assert_eq!(p.len() as u32 - 1, r.dist[t as usize]);
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    /// The triangle inequality holds for BFS distances.
    #[test]
    fn triangle_inequality(g in arb_connected_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let (a, b, c) = (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(0..n));
        let da = bfs_distances(&g, a);
        let db = bfs_distances(&g, b);
        prop_assert!(da[c as usize] <= da[b as usize] + db[c as usize]);
    }

    /// W(G) equals half the sum of all single-source distance sums.
    #[test]
    fn wiener_consistent_with_row_sums(g in arb_connected_graph()) {
        let w = wiener_index(&g).unwrap();
        let rows: u64 = g.nodes().map(|v| distance_sum_from(&g, v).unwrap()).sum();
        prop_assert_eq!(w, rows / 2);
    }

    /// Unnormalized betweenness sums to W(G) - C(n, 2) on connected graphs
    /// (every pair spreads d(s,t) - 1 units over interior vertices).
    #[test]
    fn betweenness_mass_conservation(g in arb_connected_graph()) {
        let n = g.num_nodes() as u64;
        let w = wiener_index(&g).unwrap();
        let bc = centrality::betweenness(&g, false);
        let total: f64 = bc.iter().sum();
        let expect = (w - n * (n - 1) / 2) as f64;
        prop_assert!((total - expect).abs() < 1e-6 * expect.max(1.0),
            "bc mass {total} vs {expect}");
    }

    /// Component labelling agrees with pairwise reachability.
    #[test]
    fn components_match_reachability(g in arb_graph()) {
        let comps = connected_components(&g);
        let d0 = bfs_distances(&g, 0);
        for (v, &d) in d0.iter().enumerate() {
            prop_assert_eq!(comps.same(0, v as NodeId), d != INF_DIST);
        }
        prop_assert_eq!(comps.count == 1, is_connected(&g));
    }

    /// `is_connected_subset` agrees with materializing the subgraph.
    #[test]
    fn subset_connectivity_matches_materialized(g in arb_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let size = rng.gen_range(1..=n);
        let set: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..n as NodeId)).collect();
        let quick = is_connected_subset(&g, &set).unwrap();
        let sub = g.induced(&set).unwrap();
        prop_assert_eq!(quick, is_connected(sub.graph()));
    }

    /// Edge-list round trip through the text format is lossless.
    #[test]
    fn io_round_trip(g in arb_graph()) {
        let mut buf = Vec::new();
        mwc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let loaded = mwc_graph::io::read_edge_list(std::io::BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(loaded.graph.num_edges(), g.num_edges());
        // Isolated vertices are not representable in an edge list; every
        // edge must survive with original ids recoverable.
        for (u, v) in loaded.graph.edges() {
            let (ou, ov) = (loaded.original_id[u as usize] as NodeId,
                            loaded.original_id[v as usize] as NodeId);
            prop_assert!(g.has_edge(ou, ov));
        }
    }
}

/// Strategy: a random graph from one of the paper's evaluation families —
/// Erdős–Rényi `G(n, p)`, Barabási–Albert, or a planted partition (SBM) —
/// sized past the direction-optimizing cutoff so `run_auto` really takes
/// the bitset path.
fn arb_family_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 280usize..400, any::<u64>()).prop_map(|(family, n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match family {
            0 => mwc_graph::generators::gnp(n, 0.02, &mut rng),
            1 => mwc_graph::generators::barabasi_albert(n, 3, &mut rng),
            _ => {
                let third = n / 3;
                mwc_graph::generators::planted_partition(
                    &[third, third, n - 2 * third],
                    0.08,
                    0.005,
                    &mut rng,
                )
                .graph
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direction-optimizing BFS distances are bit-identical to plain BFS
    /// on every graph family (ER / BA / SBM), connected or not.
    #[test]
    fn direction_optimizing_bfs_parity(g in arb_family_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        use mwc_graph::traversal::bfs::BfsWorkspace;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut plain = BfsWorkspace::new();
        let mut auto = BfsWorkspace::new();
        for _ in 0..4 {
            let s = rng.gen_range(0..g.num_nodes() as NodeId);
            let want: Vec<u32> = plain.run(&g, s).to_vec();
            let got: Vec<u32> = auto.run_auto(&g, s).to_vec();
            prop_assert_eq!(want, got, "source {}", s);
        }
    }

    /// Multi-source batched BFS matches per-source plain BFS lane by lane
    /// on every graph family.
    #[test]
    fn multi_source_bfs_parity(g in arb_family_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        use mwc_graph::traversal::bfs::{BfsWorkspace, MsBfsWorkspace};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let lanes = rng.gen_range(1..=64usize);
        let sources: Vec<NodeId> = (0..lanes).map(|_| rng.gen_range(0..n)).collect();
        let mut ms = MsBfsWorkspace::new();
        ms.run(&g, &sources);
        let mut single = BfsWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let want: Vec<u32> = single.run(&g, s).to_vec();
            prop_assert_eq!(ms.lane_distances(lane), want, "lane {} source {}", lane, s);
            prop_assert_eq!(ms.distance_sum(lane), single.last_run_distance_sum());
        }
    }

    /// Parent trees reconstructed from the batched (multi-source)
    /// distance matrix have the same per-root distance profile as plain
    /// per-root BFS on every graph family: walking each vertex's
    /// canonical parent chain reaches the root in exactly `d(root, v)`
    /// steps, and the reconstruction is identical whether the distances
    /// came from the batched sweep or a single-source run.
    #[test]
    fn batched_parent_trees_preserve_distance_profiles(
        g in arb_family_graph(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        use mwc_graph::traversal::bfs::{canonical_parents, BfsWorkspace, MsBfsWorkspace};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let lanes = rng.gen_range(1..=16usize);
        let sources: Vec<NodeId> = (0..lanes).map(|_| rng.gen_range(0..n)).collect();
        let mut ms = MsBfsWorkspace::new();
        ms.run(&g, &sources);
        let mut single = BfsWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let dist: Vec<u32> = single.run(&g, s).to_vec();
            let batched = ms.lane_parents(&g, lane);
            // Reconstruction is a pure function of the (identical)
            // distances: per-root and batched parents coincide.
            prop_assert_eq!(&batched, &canonical_parents(&g, &dist));
            // Tree distance profile == BFS distance profile: every
            // reachable vertex sits at depth d(s, v) in the parent tree.
            for v in 0..n {
                if dist[v as usize] == INF_DIST {
                    prop_assert!(path_from_parents(&batched, s, v).is_none());
                    continue;
                }
                let path = path_from_parents(&batched, s, v)
                    .expect("reachable vertex has a parent chain");
                prop_assert_eq!(
                    path.len() as u32 - 1, dist[v as usize],
                    "vertex {} depth mismatch", v
                );
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    /// The parallel multi-source Wiener index equals the sequential
    /// per-source reference.
    #[test]
    fn kernel_wiener_parity(g in arb_family_graph()) {
        prop_assert_eq!(wiener_index(&g), mwc_graph::wiener::wiener_index_sequential(&g));
    }
}
