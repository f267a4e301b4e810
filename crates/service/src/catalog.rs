//! The graph catalog: named graphs, each with an engine built once.
//!
//! A serving process holds many graphs (the paper's deployments are
//! per-dataset: a social graph, a PPI network, …) and answers queries
//! against any of them by name. The catalog owns one
//! [`OwnedEngine`](mwc_core::OwnedEngine) per graph — built when the
//! graph is loaded, so the per-graph state (BFS workspace pool, degree
//! vector, landmark oracle, solve cache) is amortized across every
//! request the server will ever answer for it.
//!
//! Each engine runs over the graph exactly as loaded: one id space from
//! the wire to the kernel, so an entry answers every query exactly as
//! `wiener_connector::engine` answers it on the same graph.
//!
//! Access is read-mostly: lookups clone an `Arc` under a briefly held
//! read lock; loads build the graph and engine *outside* the lock and
//! only take the write lock to publish, so serving traffic never stalls
//! behind a multi-second load.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::{Arc, RwLock};

use mwc_baselines::full_engine_shared;
use mwc_core::{CacheStats, GroupOutcome, GroupQuery, OwnedEngine, QueryOptions, SolveReport};
use mwc_graph::generators::barabasi_albert::barabasi_albert;
use mwc_graph::generators::karate::karate_club;
use mwc_graph::io::{read_edge_list, read_weighted_edge_list};
use mwc_graph::{Graph, NodeId};
use rand::SeedableRng;

use crate::error::{Result, ServiceError};
use crate::protocol::CacheSeed;

/// Where a cataloged graph comes from. Parsed from the spec strings the
/// server takes on its command line and in `load` requests:
///
/// | spec                    | meaning                                           |
/// |-------------------------|---------------------------------------------------|
/// | `karate`                | Zachary's karate club (Figure 1)                  |
/// | `standin:jazz`          | a Table 1 stand-in at full size                   |
/// | `standin:dblp@0.01`     | the same, node count scaled by the factor         |
/// | `file:/path/edges.txt`  | SNAP-style edge list (`u v` per line, `#` comments) |
/// | `ba:5000x4`             | Barabási–Albert, 5000 nodes, 4 edges per arrival  |
/// | `wfile:/path/edges.txt` | weighted edge list (`u v w` per line; missing `w` → 1) |
/// | `wba:5000x4x8`          | the BA graph with weights in `1..=8` hashed per edge (`x8` optional, default 8) |
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// Zachary's karate club.
    Karate,
    /// A `mwc_datasets::realworld` stand-in, with a node-count scale.
    StandIn {
        /// Paper dataset name (`jazz`, `dblp`, …).
        name: String,
        /// Node-count scale in `(0, 1]`.
        scale: f64,
    },
    /// An edge-list file on disk.
    File(String),
    /// A weighted (`u v w`) edge-list file on disk.
    WeightedFile(String),
    /// A deterministic Barabási–Albert graph (seeded by the spec itself).
    BarabasiAlbert {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        k: usize,
    },
    /// The same deterministic BA topology with integer edge weights in
    /// `1..=max_weight`, hashed from each edge's endpoints (so replicas
    /// rebuilding the spec agree bit-for-bit on every weight).
    WeightedBarabasiAlbert {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        k: usize,
        /// Largest edge weight (weights are uniform-ish in `1..=max`).
        max_weight: u32,
    },
}

/// Default `max_weight` of `wba:` specs without an explicit `x<maxw>`.
pub const DEFAULT_WBA_MAX_WEIGHT: u32 = 8;

/// The deterministic per-edge weight of `wba:` graphs: symmetric (hashed
/// from the unordered endpoint pair) and in `1..=max_weight`.
fn wba_edge_weight(u: NodeId, v: NodeId, max_weight: u32) -> u32 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (h % max_weight as u64) as u32 + 1
}

impl GraphSource {
    /// Parses a spec string (see the table in the type docs).
    pub fn parse(spec: &str) -> Result<GraphSource> {
        let bad = |m: String| ServiceError::BadSource(m);
        if spec == "karate" {
            return Ok(GraphSource::Karate);
        }
        if let Some(rest) = spec.strip_prefix("standin:") {
            let (name, scale) = match rest.split_once('@') {
                Some((name, s)) => {
                    let scale: f64 = s
                        .parse()
                        .map_err(|_| bad(format!("bad scale {s:?} in {spec:?}")))?;
                    if !(scale > 0.0 && scale <= 1.0) {
                        return Err(bad(format!("scale must be in (0, 1], got {scale}")));
                    }
                    (name, scale)
                }
                None => (rest, 1.0),
            };
            if mwc_datasets::realworld::spec(name).is_none() {
                return Err(bad(format!(
                    "unknown stand-in {name:?} (see mwc_datasets::STAND_INS)"
                )));
            }
            return Ok(GraphSource::StandIn {
                name: name.to_string(),
                scale,
            });
        }
        if let Some(path) = spec.strip_prefix("file:") {
            return Ok(GraphSource::File(path.to_string()));
        }
        if let Some(path) = spec.strip_prefix("wfile:") {
            return Ok(GraphSource::WeightedFile(path.to_string()));
        }
        if let Some(rest) = spec.strip_prefix("ba:") {
            let (n, k) = rest
                .split_once('x')
                .ok_or_else(|| bad(format!("expected ba:<nodes>x<k>, got {spec:?}")))?;
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("bad node count {n:?}")))?;
            let k: usize = k.parse().map_err(|_| bad(format!("bad degree {k:?}")))?;
            if n < 2 || k == 0 {
                return Err(bad("ba graph needs n >= 2 and k >= 1".to_string()));
            }
            return Ok(GraphSource::BarabasiAlbert { n, k });
        }
        if let Some(rest) = spec.strip_prefix("wba:") {
            let (n, rest) = rest
                .split_once('x')
                .ok_or_else(|| bad(format!("expected wba:<nodes>x<k>[x<maxw>], got {spec:?}")))?;
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("bad node count {n:?}")))?;
            let (k, max_weight) = match rest.split_once('x') {
                Some((k, m)) => {
                    let m: u32 = m
                        .parse()
                        .map_err(|_| bad(format!("bad max weight {m:?}")))?;
                    (k, m)
                }
                None => (rest, DEFAULT_WBA_MAX_WEIGHT),
            };
            let k: usize = k.parse().map_err(|_| bad(format!("bad degree {k:?}")))?;
            if n < 2 || k == 0 || max_weight == 0 {
                return Err(bad(
                    "wba graph needs n >= 2, k >= 1, max weight >= 1".to_string(),
                ));
            }
            // Same bound the wfile: loader enforces: u32 distance
            // arithmetic saturates at INF_DIST, so near-u32::MAX weights
            // would read as unreachable.
            if max_weight > mwc_graph::MAX_EDGE_WEIGHT {
                return Err(bad(format!(
                    "wba max weight {max_weight} exceeds the maximum {}",
                    mwc_graph::MAX_EDGE_WEIGHT
                )));
            }
            return Ok(GraphSource::WeightedBarabasiAlbert { n, k, max_weight });
        }
        Err(bad(format!(
            "unrecognized source {spec:?} (expected karate | standin:<name>[@scale] | \
             file:<path> | wfile:<path> | ba:<n>x<k> | wba:<n>x<k>[x<maxw>])"
        )))
    }

    /// Materializes the graph. Deterministic for every non-`file` source.
    pub fn build(&self) -> Result<Graph> {
        match self {
            GraphSource::Karate => Ok(karate_club()),
            GraphSource::StandIn { name, scale } => {
                let sg = mwc_datasets::standin_scaled(name, *scale)
                    .ok_or_else(|| ServiceError::BadSource(format!("unknown stand-in {name:?}")))?;
                Ok(sg.graph)
            }
            GraphSource::File(path) => {
                let reader = BufReader::new(File::open(path)?);
                let loaded = read_edge_list(reader)
                    .map_err(|e| ServiceError::BadSource(format!("{path}: {e}")))?;
                Ok(loaded.graph)
            }
            GraphSource::WeightedFile(path) => {
                let reader = BufReader::new(File::open(path)?);
                let loaded = read_weighted_edge_list(reader)
                    .map_err(|e| ServiceError::BadSource(format!("{path}: {e}")))?;
                Ok(loaded.graph)
            }
            GraphSource::BarabasiAlbert { n, k } => {
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(0xBA ^ (*n as u64) ^ ((*k as u64) << 32));
                Ok(barabasi_albert(*n, *k, &mut rng))
            }
            GraphSource::WeightedBarabasiAlbert { n, k, max_weight } => {
                // Same topology (and seed) as the unweighted `ba:` twin;
                // only the weights differ.
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(0xBA ^ (*n as u64) ^ ((*k as u64) << 32));
                let base = barabasi_albert(*n, *k, &mut rng);
                let edges: Vec<(NodeId, NodeId, u32)> = base
                    .edges()
                    .map(|(u, v)| (u, v, wba_edge_weight(u, v, *max_weight)))
                    .collect();
                Graph::from_weighted_edges(base.num_nodes(), &edges)
                    .map_err(|e| ServiceError::BadSource(format!("{self:?}: {e}")))
            }
        }
    }
}

/// FNV-1a digest of a graph's weighted edge list in the graph's own id
/// space — the fingerprint cache seeds carry so imports can tell whether
/// two catalogs weighted "the same" graph identically. `0` for
/// unweighted graphs (nonzero for every weighted one).
pub fn weight_digest(g: &Graph) -> u64 {
    if !g.is_weighted() {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for (u, v, w) in g.weighted_edges() {
        mix(u as u64);
        mix(v as u64);
        mix(w as u64);
    }
    h.max(1)
}

/// One loaded graph: its name, provenance, and the engine serving it
/// (which owns the graph). Handed out as an `Arc` so requests keep a
/// consistent view even if the entry is concurrently evicted or
/// replaced.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Catalog name (the key requests use).
    pub name: String,
    /// The spec string this entry was loaded from.
    pub source: String,
    /// [`weight_digest`] of the graph: `0` when unweighted, a nonzero
    /// edge-list fingerprint otherwise. Attached to exported cache seeds
    /// and checked on import.
    weight_digest: u64,
    /// The engine over the graph as loaded, with the full method table
    /// registered.
    engine: OwnedEngine,
}

impl CatalogEntry {
    /// Builds an entry: constructs the full engine over `graph` as is.
    /// Deterministic for a given graph.
    fn build(
        name: &str,
        source: &str,
        graph: Graph,
        solve_cache_bytes: Option<usize>,
        solve_cache_ttl: Option<std::time::Duration>,
    ) -> CatalogEntry {
        let weight_digest = weight_digest(&graph);
        let mut engine = full_engine_shared(Arc::new(graph));
        if let Some(bytes) = solve_cache_bytes {
            engine.set_solve_cache_bytes(bytes);
        }
        if solve_cache_ttl.is_some() {
            engine.set_solve_cache_ttl(solve_cache_ttl);
        }
        CatalogEntry {
            name: name.to_string(),
            source: source.to_string(),
            weight_digest,
            engine,
        }
    }

    /// Vertex count of the served graph.
    pub fn num_nodes(&self) -> usize {
        self.engine.graph().num_nodes()
    }

    /// Edge count of the served graph.
    pub fn num_edges(&self) -> usize {
        self.engine.graph().num_edges()
    }

    /// Whether the served graph is integer-weighted (every distance, and
    /// the reported Wiener index, is then weighted).
    pub fn is_weighted(&self) -> bool {
        self.engine.graph().is_weighted()
    }

    /// The graph's weighted-edge-list fingerprint (`0` when unweighted).
    pub fn weight_digest(&self) -> u64 {
        self.weight_digest
    }

    /// The serving engine.
    pub fn engine(&self) -> &OwnedEngine {
        &self.engine
    }

    /// Registered solver names, sorted.
    pub fn solver_names(&self) -> Vec<&str> {
        self.engine.solver_names()
    }

    /// The engine's solve-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Solves one query against this entry's engine.
    pub fn solve(
        &self,
        solver: &str,
        q: &[NodeId],
        options: &QueryOptions,
    ) -> mwc_core::Result<SolveReport> {
        self.engine.solve_with(solver, q, options)
    }

    /// Heterogeneous-group counterpart of [`CatalogEntry::solve`]: a
    /// window of queries (each with its own solver and options) runs
    /// through [`QueryEngine::solve_group`](mwc_core::QueryEngine::solve_group),
    /// which dedups identical work and prefetches per-root BFS sweeps
    /// shared **across** the queries. Per-query errors stay in place.
    /// The coalescer is the caller.
    pub fn solve_group(&self, queries: &[GroupQuery]) -> GroupOutcome {
        self.engine.solve_group(queries)
    }

    /// Exports the engine's warm solve-cache entries as wire-ready
    /// [`CacheSeed`]s, most recently used first. The handoff side of live
    /// migration: the seeds feed another replica's
    /// [`CatalogEntry::import_cache`].
    pub fn export_cache(&self) -> Vec<CacheSeed> {
        self.engine
            .export_cache()
            .into_iter()
            .map(|(solver, q, max_size, report)| CacheSeed {
                solver,
                q,
                max_size,
                weight_digest: self.weight_digest,
                report,
            })
            .collect()
    }

    /// Imports warm-cache seeds exported by another replica, inserting
    /// each under the exact key a fresh solve would probe. Seeds whose
    /// vertices do not fit this graph, or that were solved under a
    /// different weighting, are skipped — a stale export must not poison
    /// the cache. Returns how many seeds were accepted (normal cache
    /// budgets apply).
    pub fn import_cache(&self, seeds: &[CacheSeed]) -> usize {
        let n = self.num_nodes();
        let mut imported = 0;
        for seed in seeds {
            // A seed solved under a different weighting (or none) would
            // silently serve wrong weighted answers — skip it.
            if seed.weight_digest != self.weight_digest {
                continue;
            }
            if seed
                .q
                .iter()
                .chain(seed.report.connector.vertices())
                .any(|&v| (v as usize) >= n)
            {
                continue;
            }
            if self
                .engine
                .seed_cache(&seed.solver, &seed.q, seed.max_size, seed.report.clone())
            {
                imported += 1;
            }
        }
        imported
    }

    /// Batch counterpart of [`CatalogEntry::solve`], with per-query
    /// errors kept in place.
    pub fn solve_batch(
        &self,
        solver: &str,
        queries: &[Vec<NodeId>],
        options: &QueryOptions,
    ) -> Vec<mwc_core::Result<SolveReport>> {
        self.engine.solve_batch(solver, queries, options)
    }
}

/// A named collection of loaded graphs with their engines.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<CatalogEntry>>>,
    /// Solve-cache **byte** budget applied to every engine this catalog
    /// builds (`None` keeps the engine default). The memory bound that
    /// matters to a long-lived server: entry counts say nothing about
    /// resident bytes when connectors vary in size.
    solve_cache_bytes: Option<usize>,
    /// Solve-cache time-to-live applied to every engine this catalog
    /// builds (`None` keeps the engine default of no expiry). The
    /// freshness bound long-lived servers want.
    solve_cache_ttl: Option<std::time::Duration>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the solve-cache byte budget for every engine built by later
    /// [`Catalog::load`] calls (`0` disables caching). Maps to
    /// [`mwc_core::QueryEngine::set_solve_cache_bytes`]; the server's
    /// `--cache-bytes` flag lands here.
    pub fn with_solve_cache_bytes(mut self, bytes: usize) -> Self {
        self.solve_cache_bytes = Some(bytes);
        self
    }

    /// Sets the solve-cache time-to-live for every engine built by later
    /// [`Catalog::load`] calls. Maps to
    /// [`mwc_core::QueryEngine::set_solve_cache_ttl`]; the server's
    /// `--cache-ttl` flag lands here.
    pub fn with_solve_cache_ttl(mut self, ttl: std::time::Duration) -> Self {
        self.solve_cache_ttl = Some(ttl);
        self
    }

    /// Loads `spec` under `name`, replacing any previous entry of that
    /// name. Graph generation and engine construction run outside the
    /// lock; only the publish takes the write lock.
    /// Returns the new entry.
    pub fn load(&self, name: &str, spec: &str) -> Result<Arc<CatalogEntry>> {
        if name.is_empty() {
            return Err(ServiceError::BadSource("empty graph name".to_string()));
        }
        let source = GraphSource::parse(spec)?;
        let graph = source.build()?;
        let entry = Arc::new(CatalogEntry::build(
            name,
            spec,
            graph,
            self.solve_cache_bytes,
            self.solve_cache_ttl,
        ));
        self.entries
            .write()
            .expect("catalog lock poisoned")
            .insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Looks up a graph by name, or reports which names are loaded.
    pub fn get(&self, name: &str) -> Result<Arc<CatalogEntry>> {
        let entries = self.entries.read().expect("catalog lock poisoned");
        entries
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownGraph {
                requested: name.to_string(),
                loaded: {
                    let mut names: Vec<String> = entries.keys().cloned().collect();
                    names.sort_unstable();
                    names
                },
            })
    }

    /// Removes an entry; `true` if it existed. In-flight requests holding
    /// the entry's `Arc` finish normally — eviction only stops new
    /// lookups.
    pub fn evict(&self, name: &str) -> bool {
        self.entries
            .write()
            .expect("catalog lock poisoned")
            .remove(name)
            .is_some()
    }

    /// All entries, sorted by name.
    pub fn list(&self) -> Vec<Arc<CatalogEntry>> {
        let mut entries: Vec<Arc<CatalogEntry>> = self
            .entries
            .read()
            .expect("catalog lock poisoned")
            .values()
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Number of loaded graphs.
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog lock poisoned").len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_specs() {
        assert_eq!(GraphSource::parse("karate").unwrap(), GraphSource::Karate);
        assert_eq!(
            GraphSource::parse("standin:jazz").unwrap(),
            GraphSource::StandIn {
                name: "jazz".into(),
                scale: 1.0
            }
        );
        assert_eq!(
            GraphSource::parse("standin:dblp@0.01").unwrap(),
            GraphSource::StandIn {
                name: "dblp".into(),
                scale: 0.01
            }
        );
        assert_eq!(
            GraphSource::parse("file:/tmp/x.txt").unwrap(),
            GraphSource::File("/tmp/x.txt".into())
        );
        assert_eq!(
            GraphSource::parse("ba:500x3").unwrap(),
            GraphSource::BarabasiAlbert { n: 500, k: 3 }
        );
        assert_eq!(
            GraphSource::parse("wfile:/tmp/w.txt").unwrap(),
            GraphSource::WeightedFile("/tmp/w.txt".into())
        );
        assert_eq!(
            GraphSource::parse("wba:500x3").unwrap(),
            GraphSource::WeightedBarabasiAlbert {
                n: 500,
                k: 3,
                max_weight: DEFAULT_WBA_MAX_WEIGHT
            }
        );
        assert_eq!(
            GraphSource::parse("wba:500x3x20").unwrap(),
            GraphSource::WeightedBarabasiAlbert {
                n: 500,
                k: 3,
                max_weight: 20
            }
        );
        for bad in [
            "",
            "nope",
            "standin:atlantis",
            "standin:jazz@0",
            "standin:jazz@2",
            "ba:10",
            "ba:ax2",
            "wba:10",
            "wba:100x2x0",
            "wba:100x2xq",
            "wba:100x2x4294967295", // above MAX_EDGE_WEIGHT
        ] {
            assert!(GraphSource::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn weighted_ba_shares_topology_with_its_unweighted_twin() {
        let w = GraphSource::parse("wba:300x2").unwrap().build().unwrap();
        let u = GraphSource::parse("ba:300x2").unwrap().build().unwrap();
        assert!(w.is_weighted());
        assert!(!u.is_weighted());
        assert_eq!(w.num_edges(), u.num_edges());
        let we: Vec<_> = w.weighted_edges().map(|(a, b, _)| (a, b)).collect();
        let ue: Vec<_> = u.edges().collect();
        assert_eq!(we, ue, "same edges, only weights added");
        for (_, _, wt) in w.weighted_edges() {
            assert!((1..=DEFAULT_WBA_MAX_WEIGHT).contains(&wt));
        }
        // Deterministic rebuild, including weights (the digest pins it).
        let again = GraphSource::parse("wba:300x2").unwrap().build().unwrap();
        assert_eq!(weight_digest(&w), weight_digest(&again));
        assert_ne!(weight_digest(&w), 0);
        assert_eq!(weight_digest(&u), 0);
    }

    #[test]
    fn weighted_entries_serve_weighted_answers() {
        let catalog = Catalog::new();
        let entry = catalog.load("wtoy", "wba:400x3").unwrap();
        assert!(entry.is_weighted());
        assert_ne!(entry.weight_digest(), 0);
        let rebuilt = GraphSource::parse("wba:400x3").unwrap().build().unwrap();
        let q = [5u32, 77, 200, 399];
        let report = entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert!(report.connector.contains_all(&q));
        // The reported index is the *weighted* Wiener index of the
        // connector.
        assert_eq!(
            report.wiener_index,
            report.connector.wiener_index(&rebuilt).unwrap()
        );
        // And it differs from the unweighted index of the same set (the
        // weights actually flowed through).
        let unweighted_twin = GraphSource::parse("ba:400x3").unwrap().build().unwrap();
        assert_ne!(
            report.wiener_index,
            report
                .connector
                .wiener_index(&unweighted_twin)
                .unwrap()
        );
    }

    #[test]
    fn import_rejects_seeds_from_a_different_weighting() {
        let catalog = Catalog::new();
        let weighted = catalog.load("w", "wba:200x2").unwrap();
        let plain = catalog.load("u", "ba:200x2").unwrap();
        let q = [3u32, 50, 150];
        weighted.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        plain.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        let wseeds = weighted.export_cache();
        assert!(wseeds.iter().all(|s| s.weight_digest != 0));
        let useeds = plain.export_cache();
        assert!(useeds.iter().all(|s| s.weight_digest == 0));
        // Cross imports are rejected in both directions…
        assert_eq!(plain.import_cache(&wseeds), 0);
        assert_eq!(weighted.import_cache(&useeds), 0);
        // …while matching replicas accept them.
        let other = Catalog::new();
        let replica = other.load("w2", "wba:200x2").unwrap();
        assert_eq!(replica.import_cache(&wseeds), wseeds.len());
        // A different max weight is a different weighting.
        let reweighted = other.load("w3", "wba:200x2x31").unwrap();
        assert_eq!(reweighted.import_cache(&wseeds), 0);
    }

    #[test]
    fn load_get_evict_roundtrip() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        let entry = catalog.load("karate", "karate").unwrap();
        assert_eq!(entry.num_nodes(), 34);
        assert!(entry.solver_names().contains(&"ws-q"));
        catalog.load("toy", "ba:200x2").unwrap();
        assert_eq!(catalog.len(), 2);
        let names: Vec<String> = catalog.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["karate", "toy"]);

        let got = catalog.get("karate").unwrap();
        assert!(Arc::ptr_eq(&got, &entry));
        match catalog.get("missing").unwrap_err() {
            ServiceError::UnknownGraph { requested, loaded } => {
                assert_eq!(requested, "missing");
                assert_eq!(loaded, vec!["karate", "toy"]);
            }
            other => panic!("unexpected error: {other}"),
        }

        assert!(catalog.evict("toy"));
        assert!(!catalog.evict("toy"));
        assert_eq!(catalog.len(), 1);
        // The held Arc keeps serving after eviction.
        assert!(got
            .solve("ws-q", &[0, 33], &QueryOptions::default())
            .is_ok());
    }

    #[test]
    fn standin_scales_and_serves() {
        let catalog = Catalog::new();
        let entry = catalog.load("mini-email", "standin:email@0.1").unwrap();
        assert!(entry.num_nodes() >= 64);
        assert!(entry.num_nodes() < 400);
        let report = entry
            .solve("st", &[0, 1, 2], &QueryOptions::default())
            .unwrap();
        assert!(report.connector.contains_all(&[0, 1, 2]));
    }

    /// What a solve returned, in comparable form: connector, W and the
    /// optimality flag, or the error message.
    fn answer(
        r: &mwc_core::Result<SolveReport>,
    ) -> std::result::Result<(Vec<NodeId>, u64, Option<bool>), String> {
        match r {
            Ok(r) => Ok((r.connector.vertices().to_vec(), r.wiener_index, r.optimal)),
            Err(e) => Err(e.to_string()),
        }
    }

    #[test]
    fn entries_answer_exactly_like_the_library_engine() {
        // |Q| ∈ {2, 3, 5}, all in range on every graph, plus one
        // out-of-range query whose error must match too.
        let queries: Vec<Vec<NodeId>> = vec![
            vec![5, 16],
            vec![3, 11, 16],
            vec![1, 9, 20, 23, 31],
            vec![0, 99_999],
        ];
        let fresh = QueryOptions::new().no_cache();
        for spec in ["karate", "ba:2000x3", "wba:2000x3"] {
            let g = GraphSource::parse(spec).unwrap().build().unwrap();
            let library = mwc_baselines::full_engine(&g);
            let catalog = Catalog::new();
            let entry = catalog.load(spec, spec).unwrap();
            assert_eq!(entry.solver_names(), library.solver_names());
            let mut group = Vec::new();
            let mut expected = Vec::new();
            for solver in library.solver_names() {
                let want: Vec<_> = queries
                    .iter()
                    .map(|q| answer(&library.solve_with(solver, q, &fresh)))
                    .collect();
                for (q, want) in queries.iter().zip(&want) {
                    let got = answer(&entry.solve(solver, q, &fresh));
                    assert_eq!(&got, want, "{spec} {solver} {q:?}: solve");
                }
                let batch = entry.solve_batch(solver, &queries, &fresh);
                for ((q, got), want) in queries.iter().zip(&batch).zip(&want) {
                    assert_eq!(&answer(got), want, "{spec} {solver} {q:?}: solve_batch");
                }
                for q in &queries {
                    group.push(GroupQuery::new(solver, q.clone(), fresh.clone()));
                }
                expected.extend(want);
            }
            let outcome = entry.solve_group(&group);
            for ((gq, got), want) in group.iter().zip(&outcome.results).zip(&expected) {
                assert_eq!(
                    &answer(got),
                    want,
                    "{spec} {} {:?}: solve_group",
                    gq.solver,
                    gq.q
                );
            }

            // Warm the cache, hand it to a second catalog, and replay:
            // every imported answer is the library's.
            for gq in &group {
                entry
                    .solve(&gq.solver, &gq.q, &QueryOptions::default())
                    .ok();
            }
            let seeds = entry.export_cache();
            let replica = Catalog::new().load(spec, spec).unwrap();
            assert_eq!(replica.import_cache(&seeds), seeds.len());
            for (gq, want) in group.iter().zip(&expected) {
                let got = answer(&replica.solve(&gq.solver, &gq.q, &QueryOptions::default()));
                assert_eq!(&got, want, "{spec} {} {:?}: imported", gq.solver, gq.q);
            }
            assert_eq!(replica.cache_stats().hits, seeds.len() as u64);
        }
    }

    #[test]
    fn catalog_applies_solve_cache_byte_budget() {
        let catalog = Catalog::new().with_solve_cache_bytes(700);
        let entry = catalog.load("karate", "karate").unwrap();
        let stats = entry.cache_stats();
        assert_eq!(stats.capacity_bytes, 700);
        // Default-built catalogs keep the engine default.
        let plain = Catalog::new();
        let e = plain.load("karate", "karate").unwrap();
        assert_eq!(
            e.cache_stats().capacity_bytes,
            mwc_core::engine::DEFAULT_SOLVE_CACHE_BYTES
        );
        // The budget actually bounds residency.
        for q in [[0u32, 33], [5, 16], [11, 24], [2, 8], [19, 30]] {
            entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        }
        assert!(entry.cache_stats().bytes_used <= 700);
    }

    #[test]
    fn catalog_applies_solve_cache_ttl() {
        let catalog = Catalog::new().with_solve_cache_ttl(std::time::Duration::from_millis(30));
        let entry = catalog.load("karate", "karate").unwrap();
        let q = [11u32, 24, 25, 29];
        entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        let stats = entry.cache_stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.hits, 0);
        // Default-built catalogs never expire.
        let plain = Catalog::new();
        let e = plain.load("karate", "karate").unwrap();
        e.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        e.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert_eq!(e.cache_stats().expired, 0);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn cache_export_import_streams_warm_entries() {
        let catalog = Catalog::new();
        let old = catalog.load("karate", "karate").unwrap();
        let q = [11u32, 24, 25, 29];
        let warm = old.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        old.solve("st", &[0, 33], &QueryOptions::default()).unwrap();

        let seeds = old.export_cache();
        assert_eq!(seeds.len(), 2);
        // The ws-q seed's query is the one the client sent, and its
        // connector contains it.
        let ws = seeds.iter().find(|s| s.solver == "ws-q").unwrap();
        let mut exported_q = ws.q.clone();
        exported_q.sort_unstable();
        assert_eq!(exported_q, q.to_vec(), "same terminal set");
        assert!(ws.report.connector.contains_all(&q));

        // A fresh replica imports the seeds and serves the first request
        // warm — same answer, zero misses.
        let other = Catalog::new();
        let new = other.load("karate", "karate").unwrap();
        assert_eq!(new.import_cache(&seeds), 2);
        let replay = new.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert_eq!(replay.connector.vertices(), warm.connector.vertices());
        assert_eq!(replay.wiener_index, warm.wiener_index);
        let stats = new.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);

        // Seeds that do not fit the graph are skipped, not imported.
        let mut alien = seeds.clone();
        alien[0].q = vec![9999];
        let tiny = Catalog::new();
        let t = tiny.load("karate", "karate").unwrap();
        assert_eq!(t.import_cache(&alien), 1);

        // A cache-disabled replica accepts nothing.
        let cold = Catalog::new().with_solve_cache_bytes(0);
        let c = cold.load("karate", "karate").unwrap();
        assert_eq!(c.import_cache(&seeds), 0);
    }

    #[test]
    fn deterministic_rebuild() {
        let a = GraphSource::parse("ba:300x2").unwrap().build().unwrap();
        let b = GraphSource::parse("ba:300x2").unwrap().build().unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
    }
}
