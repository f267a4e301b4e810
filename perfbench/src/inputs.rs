//! Seeded inputs and the output checks every answer goes through.

use std::collections::HashSet;

use rand::{Rng, SeedableRng};
use wiener_connector::graph::{wiener, Graph, NodeId};

/// Query sizes of the main streams, cycled in this order so every run
/// has the same mix.
pub const QUERY_SIZES: &[usize] = &[3, 5, 8];

/// A stream of distinct uniform queries: query `i` has `sizes[i % len]`
/// distinct vertices drawn uniformly from the graph, and no vertex set
/// repeats within the stream.
pub struct QueryStream {
    rng: rand::rngs::StdRng,
    nodes: u32,
    sizes: &'static [usize],
    seen: HashSet<Vec<NodeId>>,
    next: usize,
}

impl QueryStream {
    /// `salt` separates the streams of different workloads under one seed.
    pub fn new(seed: u64, salt: u64, nodes: usize, sizes: &'static [usize]) -> QueryStream {
        QueryStream {
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            nodes: u32::try_from(nodes).expect("graph fits u32 ids"),
            sizes,
            seen: HashSet::new(),
            next: 0,
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Vec<NodeId>> {
        (0..count).map(|_| self.next_query()).collect()
    }

    pub fn next_query(&mut self) -> Vec<NodeId> {
        let k = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        loop {
            let mut q: Vec<NodeId> = Vec::with_capacity(k);
            while q.len() < k {
                let v = self.rng.gen_range(0..self.nodes);
                if !q.contains(&v) {
                    q.push(v);
                }
            }
            let mut key = q.clone();
            key.sort_unstable();
            if self.seen.insert(key) {
                return q;
            }
        }
    }
}

/// Checks one answer: `S ⊇ Q`, `G[S]` connected, and the reported Wiener
/// index equal to `wiener_index_sequential` of the induced subgraph.
/// Returns the failure code of the first check that does not hold.
pub fn check_answer(
    g: &Graph,
    q: &[NodeId],
    connector: &[NodeId],
    reported_w: u64,
) -> Result<(), &'static str> {
    let mut s = connector.to_vec();
    s.sort_unstable();
    s.dedup();
    if !q.iter().all(|v| s.binary_search(v).is_ok()) {
        return Err("check:query_not_covered");
    }
    let sub = g.induced(&s).map_err(|_| "check:vertex_out_of_range")?;
    match wiener::wiener_index_sequential(sub.graph()) {
        None => Err("check:disconnected"),
        Some(w) if w != reported_w => Err("check:wiener_mismatch"),
        Some(_) => Ok(()),
    }
}
