//! Stage-by-stage replay of Algorithm 1 (`ws-q`, §4) through the
//! program's public layer functions, one span per call.
//!
//! The replay follows `WienerSteiner` with its default configuration and
//! `parallel: false`: one batched distance sweep over the query roots,
//! then for every (root, λ) candidate a Mehlhorn Steiner tree, an
//! AdjustDistances pass and an `A(H, r)` evaluation, then exact Wiener
//! evaluation of the candidates Lemma 1 cannot rule out. Each query's
//! answer is compared with the sequential solver's own, and the solver's
//! wall time not covered by the replay's layer spans is reported as
//! unattributed.

use std::time::Instant;

use wiener_connector::core::adjust::adjust_distances_with;
use wiener_connector::core::local_search::{refine, LocalSearchConfig};
use wiener_connector::core::objective::objective_a;
use wiener_connector::core::steiner::mehlhorn_steiner;
use wiener_connector::core::wsq::{
    batched_root_distances_dispatch, normalize_query, MsDistWorkspace,
};
use wiener_connector::core::{Connector, CoreError, WienerSteiner, WsqConfig};
use wiener_connector::graph::traversal::bfs::{canonical_parent, WorkspacePool};
use wiener_connector::graph::{wiener, Graph, NodeId, INF_DIST};

use crate::report::{quantile, sorted, Report};
use crate::spans::SpanLog;

/// `WsqConfig::default().wiener_exact_threshold`: candidates up to this
/// size are compared by exact Wiener index.
const WIENER_EXACT_THRESHOLD: usize = 4096;

/// Per-layer totals over the replayed queries.
#[derive(Default)]
pub struct Layers {
    queries: usize,
    sweep_ms: f64,
    sweeps: u64,
    lanes: u64,
    expanded: u64,
    steiner_ms: f64,
    steiner_call_us: Vec<f64>,
    tree_nodes: u64,
    adjust_ms: f64,
    grafted_nodes: u64,
    a_eval_ms: f64,
    a_evals: u64,
    wiener_ms: f64,
    wiener_evals: u64,
    candidates: u64,
    seq_ms: f64,
    replay_ms: f64,
    unattributed_ms: f64,
    ls_queries: usize,
    ls_ms: f64,
    ls_w_before: u64,
    ls_w_after: u64,
    /// Queries whose replayed answer differs from the sequential solver's.
    mismatches: u64,
}

/// One candidate: root, λ, `A(H, r)`, exact W when evaluated, vertices.
struct Candidate {
    a_value: u64,
    wiener: Option<u64>,
    nodes: Vec<NodeId>,
}

/// The λ grid of Algorithm 1 line 3 with β = 1: powers of two covering
/// `[1/√2, √n]` (Lemma 3), exactly as `WienerSteiner` builds it.
fn lambda_grid(n: usize) -> Vec<f64> {
    let base = 2.0f64;
    let lo = std::f64::consts::FRAC_1_SQRT_2;
    let hi = (n.max(2) as f64).sqrt();
    let t_min = (lo.ln() / base.ln()).floor() as i32;
    let t_max = (hi.ln() / base.ln()).ceil() as i32;
    (t_min..=t_max).map(|t| base.powi(t)).collect()
}

/// The sequential reference answer and its wall time in milliseconds.
fn reference(g: &Graph, q: &[NodeId]) -> Result<(Vec<NodeId>, u64, f64), CoreError> {
    let cfg = WsqConfig {
        parallel: false,
        ..WsqConfig::default()
    };
    let t = Instant::now();
    let sol = WienerSteiner::with_config(g, cfg).solve(q)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((sol.connector.vertices().to_vec(), sol.wiener_index, ms))
}

/// Replays one query and returns its connector and Wiener index.
fn replay_query(
    g: &Graph,
    q: &[NodeId],
    trace_id: u64,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<(Vec<NodeId>, u64), CoreError> {
    let root_span = log.reserve();
    let t_root = Instant::now();
    let q = normalize_query(g, q)?;
    let lambdas = lambda_grid(g.num_nodes());
    let pool = WorkspacePool::new();

    // Algorithm 1 line 1: distances from every root in one batched sweep
    // (the solver's fresh pool allocates its workspace the same way).
    let t = Instant::now();
    let mut ms = MsDistWorkspace::lease(&pool, g);
    let expanded_before = ms.expanded();
    let dists = batched_root_distances_dispatch(g, &q, &mut ms);
    layers.expanded += ms.expanded() - expanded_before;
    drop(ms);
    layers.sweep_ms += log.record(trace_id, root_span, "traversal", t, Instant::now());
    layers.sweeps += 1;
    layers.lanes += q.len() as u64;
    if q.iter().any(|&v| dists[0][v as usize] == INF_DIST) {
        return Err(CoreError::QueryNotConnectable);
    }

    let mut all: Vec<Candidate> = Vec::with_capacity(q.len() * lambdas.len());
    for (i, &r) in q.iter().enumerate() {
        let dist_r: &[u32] = &dists[i];
        for &lambda in &lambdas {
            let weight = |u: NodeId, v: NodeId| {
                lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
            };
            let t = Instant::now();
            let tree = mehlhorn_steiner(g, &q, weight)?;
            let call_ms = log.record(trace_id, root_span, "steiner", t, Instant::now());
            layers.steiner_ms += call_ms;
            layers.steiner_call_us.push(call_ms * 1e3);
            layers.tree_nodes += tree.nodes.len() as u64;

            let t = Instant::now();
            let adjusted =
                adjust_distances_with(g, &tree, r, dist_r, |v| canonical_parent(g, dist_r, v));
            layers.adjust_ms += log.record(trace_id, root_span, "adjust", t, Instant::now());
            layers.grafted_nodes += adjusted.nodes.len().saturating_sub(tree.nodes.len()) as u64;

            let t = Instant::now();
            let a_value =
                objective_a(g, &adjusted.nodes, r)?.ok_or(CoreError::QueryNotConnectable)?;
            layers.a_eval_ms += log.record(trace_id, root_span, "objective", t, Instant::now());
            layers.a_evals += 1;
            all.push(Candidate {
                a_value,
                wiener: None,
                nodes: adjusted.nodes,
            });
        }
    }
    layers.candidates += all.len() as u64;

    // Remark 1: only candidates with A ≤ 2·min A can have the smallest W.
    let min_a = all.iter().map(|c| c.a_value).min().unwrap_or(0);
    for c in &mut all {
        if c.a_value <= 2 * min_a && c.nodes.len() <= WIENER_EXACT_THRESHOLD {
            let t = Instant::now();
            let sub = g.induced(&c.nodes)?;
            c.wiener = wiener::wiener_index_sequential(sub.graph());
            layers.wiener_ms += log.record(trace_id, root_span, "wiener", t, Instant::now());
            layers.wiener_evals += 1;
        }
    }

    // The solver's selection rule: exact values win over proxies; among
    // proxies the smaller A wins; ties keep the earlier candidate.
    let mut best: Option<&Candidate> = None;
    for c in &all {
        let better = match best {
            None => true,
            Some(cur) => match (c.wiener, cur.wiener) {
                (Some(a), Some(b)) => a < b,
                (Some(a), None) => a < cur.a_value,
                (None, Some(b)) => c.a_value / 2 < b && c.a_value < cur.a_value,
                (None, None) => c.a_value < cur.a_value,
            },
        };
        if better {
            best = Some(c);
        }
    }
    let best = best.expect("a query of two or more vertices has candidates");
    let mut nodes = best.nodes.clone();
    nodes.sort_unstable();
    nodes.dedup();
    let w = match best.wiener {
        Some(w) => w,
        None => {
            let t = Instant::now();
            let sub = g.induced(&nodes)?;
            let w = wiener::wiener_index_sequential(sub.graph())
                .ok_or(CoreError::QueryNotConnectable)?;
            layers.wiener_ms += log.record(trace_id, root_span, "wiener", t, Instant::now());
            layers.wiener_evals += 1;
            w
        }
    };
    let end = Instant::now();
    log.record_as(root_span, trace_id, 0, "wsq.replay", t_root, end);
    layers.replay_ms += end.duration_since(t_root).as_secs_f64() * 1e3;
    Ok((nodes, w))
}

impl Layers {
    /// Runs the sequential reference and the replay for one query (and,
    /// with `local_search`, refines the reference answer), checking that
    /// the replay reproduces the reference. Returns the reference answer.
    pub fn run(
        &mut self,
        g: &Graph,
        q: &[NodeId],
        trace_id: u64,
        local_search: bool,
        log: &mut SpanLog,
        report: &mut Report,
    ) -> Option<(Vec<NodeId>, u64)> {
        report.attempted += 1;
        let t_ref = Instant::now();
        let (ref_nodes, ref_w, seq_ms) = match reference(g, q) {
            Ok(r) => r,
            Err(e) => {
                report.fail(crate::core_error_code(&e));
                return None;
            }
        };
        log.record(trace_id, 0, "wsq.reference", t_ref, Instant::now());
        if let Err(code) = crate::inputs::check_answer(g, q, &ref_nodes, ref_w) {
            report.fail(code);
        }
        let spans_before = self.span_ms();
        match replay_query(g, q, trace_id, log, self) {
            Ok((nodes, w)) => {
                if nodes != ref_nodes || w != ref_w {
                    self.mismatches += 1;
                }
            }
            Err(e) => {
                report.fail(format!("replay:{}", crate::core_error_code(&e)));
                return None;
            }
        }
        self.queries += 1;
        self.seq_ms += seq_ms;
        self.unattributed_ms += seq_ms - (self.span_ms() - spans_before);

        if local_search {
            report.attempted += 1;
            let t = Instant::now();
            let initial = Connector::from_vertices(ref_nodes.clone());
            match refine(g, q, &initial, &LocalSearchConfig::default()) {
                Ok((refined, w)) => {
                    self.ls_ms += log.record(trace_id, 0, "local_search", t, Instant::now());
                    self.ls_queries += 1;
                    self.ls_w_before += ref_w;
                    self.ls_w_after += w;
                    if let Err(code) = crate::inputs::check_answer(g, q, refined.vertices(), w) {
                        report.fail(code);
                    }
                }
                Err(e) => report.fail(crate::core_error_code(&e)),
            }
        }
        Some((ref_nodes, ref_w))
    }

    /// Milliseconds covered by layer spans so far.
    fn span_ms(&self) -> f64 {
        self.sweep_ms + self.steiner_ms + self.adjust_ms + self.a_eval_ms + self.wiener_ms
    }

    /// Adds the per-layer metrics (per replayed query unless noted).
    pub fn report(&self, report: &mut Report) {
        let n = self.queries.max(1) as f64;
        let nq = self.queries;
        let calls = self.steiner_call_us.len();
        report.metric("traversal.sweep_ms", self.sweep_ms / n, "ms", nq);
        report.metric("traversal.sweeps", self.sweeps as f64 / n, "count", nq);
        report.metric("traversal.lanes", self.lanes as f64 / n, "count", nq);
        report.metric("traversal.expanded", self.expanded as f64 / n, "count", nq);
        report.metric("steiner.ms", self.steiner_ms / n, "ms", nq);
        report.metric("steiner.calls", calls as f64 / n, "count", nq);
        report.metric(
            "steiner.call_us_p50",
            quantile(&sorted(self.steiner_call_us.clone()), 0.5),
            "us",
            calls,
        );
        report.metric(
            "steiner.tree_nodes",
            self.tree_nodes as f64 / calls.max(1) as f64,
            "count",
            calls,
        );
        report.metric("adjust.ms", self.adjust_ms / n, "ms", nq);
        report.metric(
            "adjust.grafted_nodes",
            self.grafted_nodes as f64 / n,
            "count",
            nq,
        );
        report.metric("objective.a_eval_ms", self.a_eval_ms / n, "ms", nq);
        report.metric("objective.a_evals", self.a_evals as f64 / n, "count", nq);
        report.metric("wiener.eval_ms", self.wiener_ms / n, "ms", nq);
        report.metric("wiener.evals", self.wiener_evals as f64 / n, "count", nq);
        report.metric(
            "wiener.eval_ratio",
            self.wiener_evals as f64 / self.candidates.max(1) as f64,
            "ratio",
            nq,
        );
        report.metric("wsq.candidates", self.candidates as f64 / n, "count", nq);
        report.metric("wsq.seq_solve_ms", self.seq_ms / n, "ms", nq);
        report.metric("wsq.unattributed_ms", self.unattributed_ms / n, "ms", nq);
        report.metric(
            "local_search.ms",
            self.ls_ms / self.ls_queries.max(1) as f64,
            "ms",
            self.ls_queries,
        );
        report.metric(
            "local_search.gain",
            self.ls_w_before.saturating_sub(self.ls_w_after) as f64
                / self.ls_w_before.max(1) as f64,
            "fraction",
            self.ls_queries,
        );
        report.info("wsq.replay_mismatches", self.mismatches as f64, "count", nq);
        report.require(
            self.mismatches == 0,
            format!(
                "replay differs from the sequential solver on {} queries",
                self.mismatches
            ),
        );
    }

    /// Replay wall time (with spans) over the reference's: the cost of
    /// tracing the solve stage by stage.
    pub fn overhead_ratio(&self) -> f64 {
        self.replay_ms / self.seq_ms.max(1e-9)
    }
}
