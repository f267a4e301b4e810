//! Property-based parity suite for the delta-stepping SSSP kernels.
//!
//! Delta-stepping is only worth having if it is *exactly* Dijkstra on
//! integer weights — every test here pins bit-identical distance arrays
//! against the sequential reference, across the paper's evaluation
//! families (ER / BA / SBM), for single-source and batched multi-source
//! runs, and across the Δ spectrum (Δ = 1 degenerates to Dijkstra's
//! priority order, Δ ≥ max weight degenerates to Bellman–Ford rounds).

use proptest::prelude::*;

use mwc_graph::traversal::bfs::{BfsWorkspace, MsBfsWorkspace};
use mwc_graph::traversal::delta::{DeltaWorkspace, MsDeltaWorkspace};
use mwc_graph::traversal::dijkstra::DijkstraWorkspace;
use mwc_graph::{Graph, NodeId};

/// Reattach deterministic hash weights in `1..=max_weight` to a graph's
/// topology (the same scheme the service's `wba:` source uses).
fn weighted_version(g: &Graph, max_weight: u32) -> Graph {
    let edges: Vec<(NodeId, NodeId, u32)> = g
        .edges()
        .map(|(u, v)| {
            let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            (u, v, (h % max_weight as u64) as u32 + 1)
        })
        .collect();
    Graph::from_weighted_edges(g.num_nodes(), &edges).unwrap()
}

/// Strategy: a weighted random graph from one of the paper's evaluation
/// families — ER `G(n, p)`, Barabási–Albert, or a planted partition —
/// with hash weights in `1..=max_weight` for a sampled `max_weight`.
fn arb_weighted_family_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 60usize..200, any::<u64>(), 2u32..64).prop_map(|(family, n, seed, maxw)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base = match family {
            0 => mwc_graph::generators::gnp(n, 0.04, &mut rng),
            1 => mwc_graph::generators::barabasi_albert(n, 3, &mut rng),
            _ => {
                let third = n / 3;
                mwc_graph::generators::planted_partition(
                    &[third, third, n - 2 * third],
                    0.1,
                    0.01,
                    &mut rng,
                )
                .graph
            }
        };
        weighted_version(&base, maxw)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-source delta-stepping is bit-identical to Dijkstra on every
    /// weighted family, at the auto-tuned Δ and across the Δ spectrum:
    /// Δ = 1 (pure bucket-per-distance), Δ = mean weight, and a Δ larger
    /// than any weight (one giant bucket, Bellman–Ford-style rounds).
    #[test]
    fn delta_matches_dijkstra_across_the_delta_spectrum(
        g in arb_weighted_family_graph(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut dij = DijkstraWorkspace::new();
        let mut delta = DeltaWorkspace::new();
        let huge = g.max_edge_weight().saturating_mul(4).max(1);
        for _ in 0..3 {
            let s = rng.gen_range(0..g.num_nodes() as NodeId);
            let want: Vec<u32> = dij.run(&g, s).to_vec();
            let auto: Vec<u32> = delta.run(&g, s).to_vec();
            prop_assert_eq!(&auto, &want, "auto delta, source {}", s);
            prop_assert_eq!(delta.last_run_distance_sum(), dij.last_run_distance_sum());
            for d in [1, g.mean_edge_weight().max(1), huge] {
                let got: Vec<u32> = delta.run_with_delta(&g, s, d).to_vec();
                prop_assert_eq!(&got, &want, "delta {}, source {}", d, s);
            }
        }
    }

    /// The batched multi-source delta-stepping kernel matches per-source
    /// Dijkstra lane by lane — distances, distance sums, and the
    /// canonical parent trees derived from them.
    #[test]
    fn multi_source_delta_parity(
        g in arb_weighted_family_graph(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        use mwc_graph::traversal::bfs::canonical_parents;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let lanes = rng.gen_range(1..=64usize);
        let sources: Vec<NodeId> = (0..lanes).map(|_| rng.gen_range(0..n)).collect();
        let mut ms = MsDeltaWorkspace::new();
        ms.run(&g, &sources);
        let mut single = DijkstraWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let want: Vec<u32> = single.run(&g, s).to_vec();
            prop_assert_eq!(ms.lane_distances(lane), want.clone(), "lane {} source {}", lane, s);
            prop_assert_eq!(ms.distance_sum(lane), single.last_run_distance_sum());
            prop_assert_eq!(ms.lane_parents(&g, lane), canonical_parents(&g, &want));
        }
    }

    /// Small explicit Δ values agree with the auto-tuned batched run —
    /// bucket granularity must never change answers.
    #[test]
    fn multi_source_delta_is_delta_invariant(
        g in arb_weighted_family_graph(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let sources: Vec<NodeId> = (0..rng.gen_range(1..=16usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let mut auto = MsDeltaWorkspace::new();
        auto.run(&g, &sources);
        let want = auto.all_lane_distances();
        let mut pinned = MsDeltaWorkspace::new();
        for d in [1, g.max_edge_weight().saturating_mul(2).max(1)] {
            pinned.run_with_delta(&g, &sources, d);
            prop_assert_eq!(pinned.all_lane_distances(), want.clone(), "delta {}", d);
        }
    }
}

/// Strategy: an *unweighted* family graph (for the weight-1 cross-check).
fn arb_family_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 60usize..200, any::<u64>()).prop_map(|(family, n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match family {
            0 => mwc_graph::generators::gnp(n, 0.04, &mut rng),
            1 => mwc_graph::generators::barabasi_albert(n, 3, &mut rng),
            _ => {
                let third = n / 3;
                mwc_graph::generators::planted_partition(
                    &[third, third, n - 2 * third],
                    0.1,
                    0.01,
                    &mut rng,
                )
                .graph
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a weight-1 graph, delta-stepping reduces to BFS: single-source
    /// and batched runs are bit-identical to the BFS kernels.
    #[test]
    fn weight_one_delta_matches_bfs(g in arb_family_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let w = weighted_version(&g, 1);
        prop_assert!(w.is_weighted());
        prop_assert_eq!(w.mean_edge_weight(), if w.num_edges() == 0 { 0 } else { 1 });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let mut bfs = BfsWorkspace::new();
        let mut delta = DeltaWorkspace::new();
        for _ in 0..3 {
            let s = rng.gen_range(0..n);
            let want: Vec<u32> = bfs.run(&g, s).to_vec();
            prop_assert_eq!(delta.run(&w, s).to_vec(), want, "source {}", s);
        }
        let sources: Vec<NodeId> = (0..rng.gen_range(1..=32usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let mut ms_bfs = MsBfsWorkspace::new();
        ms_bfs.run(&g, &sources);
        let mut ms_delta = MsDeltaWorkspace::new();
        ms_delta.run(&w, &sources);
        for lane in 0..sources.len() {
            prop_assert_eq!(ms_delta.lane_distances(lane), ms_bfs.lane_distances(lane));
            prop_assert_eq!(ms_delta.distance_sum(lane), ms_bfs.distance_sum(lane));
        }
    }
}
