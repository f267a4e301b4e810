//! `solve-cold`: sequential library solves with the solve cache off, so
//! every call runs Algorithm 1 from scratch and the Steiner stage does
//! almost all of the work. No wire is involved.

use std::time::{Duration, Instant};

use wiener_connector::core::{QueryEngine, QueryOptions};
use wiener_connector::graph::{Graph, NodeId};

use crate::inputs::{check_answer, QueryStream, QUERY_SIZES};
use crate::replay::Layers;
use crate::report::{median, quantile, sorted, tail_q, Report};
use crate::spans::SpanLog;
use crate::{build_graph, oracle_build_ms, zero_service_layers, Args, TIMING_REPS};

const GRAPH: &str = "ba:20000x4";
const SALT: u64 = 1;
/// ws-q samples per run: the p90 keeps 12 samples beyond it.
const MIN_QUERIES: usize = 120;
/// The |Q| = 3 queries (every third) are also solved by `ws-q-approx` and
/// `ws-q+ls`: 40 samples each. Local-search time spreads widely across
/// larger queries, so one size keeps the p50 steady from seed to seed.
const SUBSET_STRIDE: usize = QUERY_SIZES.len();
/// Set-ups per run; `setup_s` is their median. One takes ~10 ms.
const SETUP_REPS: usize = 15;
/// Queries replayed stage by stage in a traced run.
const TRACED_QUERIES: usize = 24;

/// Graph load, engine construction and the lazy landmark-oracle build —
/// everything a cold solve needs before the first query.
fn set_up(graph: &Graph) -> QueryEngine<'_> {
    let engine = wiener_connector::engine(graph);
    engine.landmark_oracle();
    engine
}

fn timed_setup() -> (Graph, f64) {
    let t = Instant::now();
    let g = build_graph(GRAPH);
    drop(set_up(&g));
    (g, t.elapsed().as_secs_f64())
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setup_s: Vec<f64> = (1..SETUP_REPS).map(|_| timed_setup().1).collect();
    let t = Instant::now();
    let g = build_graph(GRAPH);
    let engine = set_up(&g);
    setup_s.push(t.elapsed().as_secs_f64());
    report.setup(median(&setup_s), setup_s.len(), args.trace);

    let mut stream = QueryStream::new(args.seed, SALT, g.num_nodes(), QUERY_SIZES);
    if args.trace {
        traced(args, &g, &engine, &mut stream, report);
    } else {
        untraced(args, &g, &engine, &mut stream, report);
    }
}

/// Solves `q` with the cache off, checks the answer, and returns its
/// latency in milliseconds and its Wiener index.
fn solve(
    engine: &QueryEngine<'_>,
    g: &Graph,
    solver: &str,
    q: &[NodeId],
    report: &mut Report,
) -> Option<(f64, u64, Vec<NodeId>)> {
    report.attempted += 1;
    let t = Instant::now();
    let result = engine.solve_with(solver, q, &QueryOptions::new().no_cache());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(r) => match check_answer(g, q, r.connector.vertices(), r.wiener_index) {
            Ok(()) => Some((ms, r.wiener_index, r.connector.vertices().to_vec())),
            Err(code) => {
                report.fail(code);
                None
            }
        },
        Err(e) => {
            report.fail(crate::core_error_code(&e));
            None
        }
    }
}

fn untraced(
    args: &Args,
    g: &Graph,
    engine: &QueryEngine<'_>,
    stream: &mut QueryStream,
    report: &mut Report,
) {
    let (mut wsq, mut approx, mut ls) = (Vec::new(), Vec::new(), Vec::new());
    let mut wiener_sum = 0u64;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < MIN_QUERIES || Instant::now() < deadline {
        let q = stream.next_query();
        let prefix = i < MIN_QUERIES;
        let mut solvers = vec![("ws-q", &mut wsq)];
        if i % SUBSET_STRIDE == 0 {
            solvers.push(("ws-q-approx", &mut approx));
            solvers.push(("ws-q+ls", &mut ls));
        }
        for (solver, samples) in solvers {
            if let Some((ms, w, _)) = solve(engine, g, solver, &q, report) {
                samples.push(ms);
                if prefix {
                    wiener_sum += w;
                }
            }
        }
        i += 1;
    }

    let total_ms: f64 = wsq.iter().sum();
    let ok = wsq.len();
    let (wsq, approx, ls) = (sorted(wsq), sorted(approx), sorted(ls));
    report.metric("solve_ms_p50", quantile(&wsq, 0.5), "ms", ok);
    report.metric("solve_ms_p90", quantile(&wsq, 0.9), "ms", ok);
    report.metric("approx_ms_p50", quantile(&approx, 0.5), "ms", approx.len());
    report.metric("ls_ms_p50", quantile(&ls, 0.5), "ms", ls.len());
    report.metric("wiener_sum", wiener_sum as f64, "count", MIN_QUERIES);
    // No wire here: the library call is this workload's request boundary,
    // so the wire metrics report the ws-q calls. With about a hundred of
    // them, `wire_ms_p99` reports the highest quantile that keeps 10
    // samples beyond it.
    report.metric("wire_rps", ok as f64 / (total_ms / 1e3), "ok/s", ok);
    report.metric("wire_ms_p50", quantile(&wsq, 0.5), "ms", ok);
    report.metric("wire_ms_p90", quantile(&wsq, 0.9), "ms", ok);
    report.metric("wire_ms_p99", quantile(&wsq, tail_q(ok)), "ms", ok);
}

fn traced(
    args: &Args,
    g: &Graph,
    engine: &QueryEngine<'_>,
    stream: &mut QueryStream,
    report: &mut Report,
) {
    let mut log = SpanLog::new();
    let mut layers = Layers::default();
    let before = engine.cache_stats();
    let mut engine_mismatch = 0u64;
    for (i, q) in stream.take(TRACED_QUERIES).iter().enumerate() {
        let trace_id = i as u64 + 1;
        let Some(reference) = layers.run(g, q, trace_id, i % 4 == 0, &mut log, report) else {
            continue;
        };
        // The engine's parallel ws-q must agree with the sequential solver.
        if let Some((_, w, nodes)) = solve(engine, g, "ws-q", q, report) {
            if (nodes, w) != reference {
                engine_mismatch += 1;
            }
        }
    }
    let after = engine.cache_stats();
    layers.report(report);
    report.metric("oracle.build_ms", oracle_build_ms(g), "ms", TIMING_REPS);
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    report.metric(
        "engine.cache_hit_ratio",
        (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    zero_service_layers(report);
    report.metric(
        "trace.overhead_ratio",
        layers.overhead_ratio(),
        "ratio",
        TRACED_QUERIES,
    );
    report.info(
        "engine.replay_mismatches",
        engine_mismatch as f64,
        "count",
        TRACED_QUERIES,
    );
    report.require(
        engine_mismatch == 0,
        "engine ws-q differs from the sequential solver",
    );
    crate::write_spans(args, &log, report);
}
