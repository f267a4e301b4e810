//! `serve-hot` and `serve-contend`: an in-process server with
//! `ServerConfig::default()` (epoll transport, coalescing on, solve cache
//! on), driven by one load-generating thread over two connections.
//!
//! * serve-hot replays a warmed pool of 32 `ws-q` queries round-robin,
//!   each connection keeping 8 requests pipelined (closed loop), so every
//!   request is a cache hit and the time goes to the serving front end.
//! * serve-contend sends distinct `ws-q` queries on the weighted graph in
//!   bursts of 8 per connection, each burst sent once the previous one is
//!   fully answered (closed loop), so every request misses the cache and
//!   co-arriving requests give the coalescer sweeps to share.
//!
//! After the main phase, both send 21 cold `ws-q-approx` and 21 cold
//! `ws-q+ls` requests (|Q| = 3) one at a time, for the latency of those
//! solvers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wiener_connector::core::{QueryOptions, SolveReport};
use wiener_connector::graph::{Graph, NodeId};
use wiener_connector::service::json::{self, Json};
use wiener_connector::service::metrics::HISTOGRAM_BUCKETS;
use wiener_connector::service::protocol::{ok_response, parse_request, report_to_json};
use wiener_connector::service::{server, Catalog, ServerConfig, ServerHandle};

use crate::inputs::{check_answer, QueryStream, QUERY_SIZES};
use crate::replay::Layers;
use crate::report::{median, quantile, sorted, tail_q, Report};
use crate::spans::SpanLog;
use crate::wire::{after, leading_u64, Done, Wire};
use crate::{build_graph, oracle_build_ms, Args, TIMING_REPS};

const NAME: &str = "g";
const CONNECTIONS: usize = 2;
/// serve-hot: warmed pool size and per-connection pipeline depth.
const POOL: usize = 32;
const DEPTH: usize = 8;
/// serve-hot's figures are medians over windows of this many seconds
/// (about 4000 responses each on a 2-core machine).
const HOT_WINDOW_S: f64 = 0.1;
/// serve-contend: burst size per connection, and the floor on answered
/// queries (8 rounds of both connections' bursts), which keeps 12
/// samples beyond the latency p90.
const BURST: usize = 8;
const CONTEND_MIN: usize = 128;
/// Cold requests per solver in the probe phase (10 samples beyond p50),
/// all |Q| = 3: local-search time spreads widely across larger queries.
const PROBE: usize = 21;
const PROBE_SIZES: &[usize] = &[3];
/// Queries replayed stage by stage in a traced run.
const REPLAYED: usize = 6;
/// In-process repetitions behind the catalog and protocol timings.
const HIT_CALLS: usize = 2000;
const PROTOCOL_CALLS: usize = 20_000;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Contend,
}

impl Kind {
    fn spec(self) -> &'static str {
        match self {
            Kind::Hot => "ba:20000x4",
            Kind::Contend => "wba:20000x4",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Kind::Hot => 2,
            Kind::Contend => 3,
        }
    }

    /// Set-ups per run (`setup_s` is their median): serve-hot's warm-up
    /// takes seconds, serve-contend's set-up tens of milliseconds.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Hot => 3,
            Kind::Contend => 7,
        }
    }
}

/// A checked answer: connector (sorted, original ids) and Wiener index.
type Answer = (Vec<NodeId>, u64);

/// One `solve` request line, missing its id and closing brace.
fn request(solver: &str, q: &[NodeId], no_cache: bool) -> String {
    let ids: Vec<String> = q.iter().map(u32::to_string).collect();
    format!(
        "{{\"cmd\":\"solve\",\"graph\":\"{NAME}\",\"solver\":\"{solver}\",\"q\":[{}]{}",
        ids.join(","),
        if no_cache { ",\"no_cache\":true" } else { "" }
    )
}

/// Decodes a response into the report's connector bytes and Wiener
/// index, or the failure code (`wire:<code>` for server errors).
fn decode(line: &[u8]) -> Result<(&[u8], u64), String> {
    if after(line, b"\"ok\":true").is_none() {
        let code = after(line, b"\"code\":\"")
            .and_then(|rest| rest.split(|&b| b == b'"').next())
            .map(|c| String::from_utf8_lossy(c).into_owned())
            .unwrap_or_else(|| "malformed".into());
        return Err(format!("wire:{code}"));
    }
    let connector = after(line, b"\"connector\":[")
        .and_then(|rest| rest.split(|&b| b == b']').next())
        .ok_or("wire:malformed")?;
    let w = after(line, b"\"wiener_index\":")
        .and_then(leading_u64)
        .ok_or("wire:malformed")?;
    Ok((connector, w))
}

fn parse_ids(bytes: &[u8]) -> Option<Vec<NodeId>> {
    let mut ids: Vec<NodeId> = std::str::from_utf8(bytes)
        .ok()?
        .split(',')
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    ids.sort_unstable();
    Some(ids)
}

/// Decodes and checks one response to query `q`; failures are counted.
fn checked(g: &Graph, q: &[NodeId], line: &[u8], report: &mut Report) -> Option<Answer> {
    let (bytes, w) = decode(line).map_err(|code| report.fail(code)).ok()?;
    let Some(connector) = parse_ids(bytes) else {
        report.fail("wire:malformed");
        return None;
    };
    match check_answer(g, q, &connector, w) {
        Ok(()) => Some((connector, w)),
        Err(code) => {
            report.fail(code);
            None
        }
    }
}

/// Starts a server over a one-graph catalog and builds the lazy landmark
/// oracle, so no first request pays for it.
fn start_server(kind: Kind) -> ServerHandle {
    let catalog = Arc::new(Catalog::new());
    catalog
        .load(NAME, kind.spec())
        .expect("catalog loads the graph");
    let handle = server::start(catalog, ServerConfig::default(), "127.0.0.1:0")
        .expect("server binds an ephemeral port");
    handle
        .catalog()
        .get(NAME)
        .expect("graph is loaded")
        .engine()
        .landmark_oracle();
    handle
}

/// Sends the requests of `lines` one at a time on the first connection,
/// each tagged by its index, and returns the responses.
fn send_each(wire: &mut Wire, lines: &[String]) -> Vec<Done> {
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        wire.send(0, i, line).expect("request written");
        while !wire.idle() {
            wire.poll(&mut out, 1000).expect("wire poll");
        }
    }
    out
}

/// A server ready for the main phase, with the time it took to set up.
struct Setup {
    handle: ServerHandle,
    wire: Wire,
    /// serve-hot: the warm-up responses, by pool index.
    warm: Vec<Done>,
    seconds: f64,
}

fn set_up(kind: Kind, pool: &[String]) -> Setup {
    let t = Instant::now();
    let handle = start_server(kind);
    let mut wire = Wire::connect(handle.local_addr(), CONNECTIONS).expect("client connects");
    // One request at a time: concurrent cold solves would grow the
    // engine's workspace pool by a timing-dependent number of multi-source
    // sweep workspaces (5 MB each here), and the run's peak RSS with it.
    let warm = if kind == Kind::Hot {
        send_each(&mut wire, pool)
    } else {
        Vec::new()
    };
    Setup {
        handle,
        wire,
        warm,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Client-side results of one main phase. serve-contend keeps every ok
/// response's latency. serve-hot, with tens of thousands of responses a
/// second, summarizes each `HOT_WINDOW_S` window as it closes; a stall
/// of the shared machine then moves the few windows it falls in, and the
/// reported medians over windows barely move.
struct Phase {
    start: Instant,
    ok: usize,
    /// Receive time of the last ok response, in seconds since the start.
    last_s: f64,
    /// Latencies (ms) of the open window, or of the whole phase.
    latencies: Vec<f64>,
    window_s: Option<f64>,
    window: usize,
    /// Per closed window: responses per second, then p50, p90, p99 (ms).
    windows: Vec<[f64; 4]>,
}

impl Phase {
    fn new(window_s: Option<f64>) -> Phase {
        Phase {
            start: Instant::now(),
            ok: 0,
            last_s: 0.0,
            latencies: Vec::new(),
            window_s,
            window: 0,
            windows: Vec::new(),
        }
    }

    fn record(&mut self, d: &Done) {
        let t = d.recv.duration_since(self.start).as_secs_f64();
        if let Some(width) = self.window_s {
            let window = (t / width) as usize;
            while self.window < window {
                let lat = sorted(std::mem::take(&mut self.latencies));
                // A window without responses waited the whole window.
                let q = |q| {
                    if lat.is_empty() {
                        f64::INFINITY
                    } else {
                        quantile(&lat, q)
                    }
                };
                self.windows
                    .push([lat.len() as f64 / width, q(0.5), q(0.9), q(0.99)]);
                self.window += 1;
            }
        }
        self.latencies.push(d.latency_ms());
        self.ok += 1;
        self.last_s = t;
    }

    /// Ok responses per second, from the phase start to the last response.
    fn rps(&self) -> f64 {
        self.ok as f64 / self.last_s.max(1e-9)
    }

    /// Responses per second and the latency p50, p90 and p99 (ms): medians
    /// over the closed windows, or over the whole phase. With fewer than
    /// 1000 responses, the p99 slot holds the highest quantile that keeps
    /// 10 beyond it.
    fn figures(&self) -> [f64; 4] {
        if self.window_s.is_some() {
            std::array::from_fn(|i| median(&self.windows.iter().map(|w| w[i]).collect::<Vec<_>>()))
        } else {
            let lat = sorted(self.latencies.clone());
            let p = |q| quantile(&lat, q);
            [self.rps(), p(0.5), p(0.9), p(tail_q(lat.len()))]
        }
    }
}

/// serve-hot main phase: round-robin over the pool, `DEPTH` pipelined
/// per connection, for `seconds`. Each response must carry the answer
/// the warm-up verified for its query.
fn hot_phase(
    wire: &mut Wire,
    pool: &[String],
    verified: &[Option<Answer>],
    seconds: f64,
    mut log: Option<&mut SpanLog>,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase::new(Some(HOT_WINDOW_S));
    let deadline = phase.start + Duration::from_secs_f64(seconds);
    // A response is compared with its query's verified answer as encoded
    // on the wire, so the client spends no time decoding vertex lists.
    let expected: Vec<Option<(String, u64)>> = verified
        .iter()
        .map(|a| {
            a.as_ref().map(|(connector, w)| {
                let ids: Vec<String> = connector.iter().map(u32::to_string).collect();
                (ids.join(","), *w)
            })
        })
        .collect();
    let mut next = 0;
    for c in 0..CONNECTIONS {
        for _ in 0..DEPTH {
            wire.send(c, next % POOL, &pool[next % POOL])
                .expect("request written");
            next += 1;
        }
    }
    let mut done = Vec::new();
    while !wire.idle() {
        wire.poll(&mut done, 1000).expect("wire poll");
        let now = Instant::now();
        for d in done.drain(..) {
            report.attempted += 1;
            if let Some(log) = log.as_deref_mut() {
                log.record(d.id, 0, "wire.request", d.sent, d.recv);
            }
            match decode(&d.line) {
                Ok((bytes, w))
                    if expected[d.tag]
                        .as_ref()
                        .is_some_and(|(e, ew)| e.as_bytes() == bytes && *ew == w) =>
                {
                    phase.record(&d);
                }
                Ok(_) => report.fail("check:hot_answer_changed"),
                Err(code) => report.fail(code),
            }
            if now < deadline {
                wire.send(d.conn, next % POOL, &pool[next % POOL])
                    .expect("request written");
                next += 1;
            }
        }
    }
    phase
}

/// serve-contend main phase: bursts of `BURST` distinct queries per
/// connection until `seconds` have passed and at least `min` queries
/// were sent. Answers are stored by query index.
#[allow(clippy::too_many_arguments)]
fn contend_phase(
    wire: &mut Wire,
    g: &Graph,
    stream: &mut QueryStream,
    queries: &mut Vec<Vec<NodeId>>,
    answers: &mut Vec<Option<Answer>>,
    seconds: f64,
    min: usize,
    mut log: Option<&mut SpanLog>,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase::new(None);
    let deadline = phase.start + Duration::from_secs_f64(seconds);
    // Each connection sends at least its share of `min`, so both stop
    // after the same number of bursts and the run ends on a full round.
    let mut bursts = [0usize; CONNECTIONS];
    let mut burst = |wire: &mut Wire, queries: &mut Vec<Vec<NodeId>>, conn: usize| {
        for _ in 0..BURST {
            let q = stream.next_query();
            wire.send(conn, queries.len(), &request("ws-q", &q, false))
                .expect("request written");
            queries.push(q);
        }
    };
    for (c, sent) in bursts.iter_mut().enumerate() {
        burst(wire, queries, c);
        *sent += 1;
    }
    let min_bursts = min.div_ceil(CONNECTIONS * BURST);
    let mut done = Vec::new();
    while !wire.idle() {
        wire.poll(&mut done, 1000).expect("wire poll");
        for d in done.drain(..) {
            report.attempted += 1;
            if let Some(log) = log.as_deref_mut() {
                log.record(d.id, 0, "wire.request", d.sent, d.recv);
            }
            answers.resize(queries.len(), None);
            if let Some(answer) = checked(g, &queries[d.tag], &d.line, report) {
                answers[d.tag] = Some(answer);
                phase.record(&d);
            }
            let more = Instant::now() < deadline || bursts[d.conn] < min_bursts;
            if wire.inflight(d.conn) == 0 && more {
                burst(wire, queries, d.conn);
                bursts[d.conn] += 1;
            }
        }
    }
    phase
}

/// Cold `ws-q-approx` and `ws-q+ls` requests, one at a time: their
/// latencies and the sum of their Wiener indices.
fn probes(
    wire: &mut Wire,
    g: &Graph,
    queries: &[Vec<NodeId>],
    report: &mut Report,
) -> ([Vec<f64>; 2], u64) {
    let mut out = [Vec::new(), Vec::new()];
    let mut wiener_sum = 0;
    for (slot, solver) in ["ws-q-approx", "ws-q+ls"].into_iter().enumerate() {
        let lines: Vec<String> = queries.iter().map(|q| request(solver, q, true)).collect();
        for d in send_each(wire, &lines) {
            report.attempted += 1;
            if let Some((_, w)) = checked(g, &queries[d.tag], &d.line, report) {
                out[slot].push(d.latency_ms());
                wiener_sum += w;
            }
        }
    }
    (out, wiener_sum)
}

/// Cache lookups and hits of the served graph's engine.
fn cache_counts(handle: &ServerHandle) -> (u64, u64) {
    let s = handle
        .catalog()
        .get(NAME)
        .expect("graph is loaded")
        .cache_stats();
    (s.hits + s.misses, s.hits)
}

/// The workload's inputs and the answers the wire returned.
struct Workload<'a> {
    kind: Kind,
    g: &'a Graph,
    /// serve-hot: the pool's request lines and verified answers.
    pool: &'a [String],
    verified: &'a [Option<Answer>],
    /// serve-contend: the query stream, every query sent, and its answer.
    stream: QueryStream,
    queries: Vec<Vec<NodeId>>,
    answers: Vec<Option<Answer>>,
}

impl Workload<'_> {
    fn phase(
        &mut self,
        wire: &mut Wire,
        seconds: f64,
        min: usize,
        log: Option<&mut SpanLog>,
        report: &mut Report,
    ) -> Phase {
        match self.kind {
            Kind::Hot => hot_phase(wire, self.pool, self.verified, seconds, log, report),
            Kind::Contend => contend_phase(
                wire,
                self.g,
                &mut self.stream,
                &mut self.queries,
                &mut self.answers,
                seconds,
                min,
                log,
                report,
            ),
        }
    }
}

pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let g = build_graph(kind.spec());
    let n = g.num_nodes();
    let mut stream = QueryStream::new(args.seed, kind.salt(), n, QUERY_SIZES);
    let probe_queries = QueryStream::new(args.seed, kind.salt() + 16, n, PROBE_SIZES).take(PROBE);
    let pool_queries = if kind == Kind::Hot {
        stream.take(POOL)
    } else {
        Vec::new()
    };
    let pool: Vec<String> = pool_queries
        .iter()
        .map(|q| request("ws-q", q, false))
        .collect();

    let mut setup_s = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..kind.setup_reps() {
        // Each set-up but the last only times the set-up; it is stopped
        // before the next one starts, outside the timing.
        if let Some(old) = current.take() {
            drop(old.wire);
            old.handle.shutdown();
        }
        let s = set_up(kind, &pool);
        setup_s.push(s.seconds);
        current = Some(s);
    }
    let Setup {
        handle,
        mut wire,
        warm,
        ..
    } = current.expect("at least one set-up");
    report.setup(median(&setup_s), setup_s.len(), args.trace);

    let mut verified: Vec<Option<Answer>> = vec![None; pool.len()];
    for d in &warm {
        report.attempted += 1;
        verified[d.tag] = checked(&g, &pool_queries[d.tag], &d.line, report);
    }
    let mut w = Workload {
        kind,
        g: &g,
        pool: &pool,
        verified: &verified,
        stream,
        queries: Vec::new(),
        answers: Vec::new(),
    };

    if !args.trace {
        let before = cache_counts(&handle);
        let phase = w.phase(&mut wire, args.seconds as f64, CONTEND_MIN, None, report);
        self_check(kind, before, cache_counts(&handle), report);
        let answered = match kind {
            Kind::Hot => &verified[..],
            Kind::Contend => &w.answers[..CONTEND_MIN],
        };
        let ([approx, ls], probe_w) = probes(&mut wire, &g, &probe_queries, report);
        let answered_w: u64 = answered.iter().flatten().map(|(_, w)| w).sum();
        wire_metrics(&phase, report);
        let (approx, ls) = (sorted(approx), sorted(ls));
        report.metric("approx_ms_p50", quantile(&approx, 0.5), "ms", approx.len());
        report.metric("ls_ms_p50", quantile(&ls, 0.5), "ms", ls.len());
        report.metric(
            "wiener_sum",
            (answered_w + probe_w) as f64,
            "count",
            answered.len() + 2 * PROBE,
        );
    } else {
        // Untraced and traced halves back to back: their throughput ratio
        // is the tracing overhead; counters are diffed around the traced half.
        let half = args.seconds as f64 / 2.0;
        let untraced = w.phase(&mut wire, half, CONTEND_MIN / 2, None, report);
        let mut log = SpanLog::new();
        let before = Counters::take(&handle, &mut wire);
        let traced = w.phase(&mut wire, half, CONTEND_MIN / 2, Some(&mut log), report);
        let after = Counters::take(&handle, &mut wire);
        self_check(
            kind,
            (before.lookups, before.hits),
            (after.lookups, after.hits),
            report,
        );
        let (replayed, wire_answers) = match kind {
            Kind::Hot => (&pool_queries, &verified[..]),
            Kind::Contend => (&w.queries, &w.answers[..]),
        };
        let around = (&before, &after);
        traced_layers(
            kind,
            &g,
            &handle,
            replayed,
            wire_answers,
            around,
            &traced,
            &mut log,
            report,
        );
        report.metric(
            "trace.overhead_ratio",
            untraced.rps() / traced.rps().max(1e-9),
            "ratio",
            2,
        );
        crate::write_spans(args, &log, report);
    }
    drop(wire);
    handle.shutdown();
}

fn wire_metrics(phase: &Phase, report: &mut Report) {
    let n = phase.ok;
    let [rps, p50, p90, p99] = phase.figures();
    report.metric("wire_rps", rps, "ok/s", n);
    report.metric("wire_ms_p50", p50, "ms", n);
    report.metric("wire_ms_p90", p90, "ms", n);
    report.metric("wire_ms_p99", p99, "ms", n);
    // Every request is a ws-q solve, so its latency as the client sees it
    // is the wire latency.
    report.metric("solve_ms_p50", p50, "ms", n);
    report.metric("solve_ms_p90", p90, "ms", n);
}

/// serve-hot must be all cache hits and serve-contend all misses.
fn self_check(kind: Kind, before: (u64, u64), after: (u64, u64), report: &mut Report) {
    let lookups = after.0 - before.0;
    let hits = after.1 - before.1;
    match kind {
        Kind::Hot => report.require(
            lookups > 0 && hits == lookups,
            format!("serve-hot cache hit ratio {hits}/{lookups} is not 1.0"),
        ),
        Kind::Contend => report.require(hits == 0, format!("serve-contend saw {hits} cache hits")),
    }
}

/// Server-side counters read around the traced phase.
struct Counters {
    lookups: u64,
    hits: u64,
    requests: u64,
    overloaded: u64,
    wakeups: u64,
    admission: [u64; HISTOGRAM_BUCKETS],
    coalesce: Json,
}

impl Counters {
    fn take(handle: &ServerHandle, wire: &mut Wire) -> Counters {
        let (lookups, hits) = cache_counts(handle);
        let m = handle.metrics();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        // The `stats` request rides one of the two load connections.
        let stats = send_each(wire, &["{\"cmd\":\"stats\"".to_string()]);
        let stats = json::parse(&String::from_utf8_lossy(&stats[0].line)).expect("stats parse");
        Counters {
            lookups,
            hits,
            requests: load(&m.requests_total),
            overloaded: load(&m.overload_total),
            wakeups: load(&m.loop_wakeups),
            admission: m.stage_histogram("admission").bucket_counts(),
            coalesce: stats
                .get("stats")
                .and_then(|s| s.get("coalesce"))
                .cloned()
                .unwrap_or(Json::Null),
        }
    }

    fn coalesce(&self, key: &str) -> f64 {
        self.coalesce.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Upper bound (ms) of the log₂ bucket holding quantile `q` of the
/// observations recorded between two bucket snapshots.
fn histogram_quantile_ms(before: &[u64], after: &[u64], q: f64) -> f64 {
    let diff: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let n: u64 = diff.iter().sum();
    let rank = ((q * n as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, c) in diff.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return (1u64 << i) as f64 / 1e3;
        }
    }
    0.0
}

/// Per-layer metrics of a traced serve run.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    kind: Kind,
    g: &Graph,
    handle: &ServerHandle,
    queries: &[Vec<NodeId>],
    wire_answers: &[Option<Answer>],
    (before, after): (&Counters, &Counters),
    traced: &Phase,
    log: &mut SpanLog,
    report: &mut Report,
) {
    // Algorithm 1 layers, replayed on the workload's own queries: the
    // work serve-contend's misses do, and serve-hot's warm-up does.
    let mut layers = Layers::default();
    let mut references: Vec<Option<Answer>> = Vec::new();
    for (i, q) in queries.iter().take(REPLAYED).enumerate() {
        references.push(layers.run(g, q, 1_000_000 + i as u64, true, log, report));
    }
    layers.report(report);
    report.metric("oracle.build_ms", oracle_build_ms(g), "ms", TIMING_REPS);

    // Wire answers against the library's: serve-hot checks the whole
    // pool against `wiener_connector::engine`, serve-contend the
    // replayed queries against the sequential solver.
    let mismatch = match kind {
        Kind::Hot => {
            let engine = wiener_connector::engine(g);
            queries
                .iter()
                .zip(wire_answers)
                .filter(|(q, wire)| {
                    let lib = engine
                        .solve_with("ws-q", q, &QueryOptions::new().no_cache())
                        .map(|r| (r.connector.vertices().to_vec(), r.wiener_index))
                        .ok();
                    lib != **wire
                })
                .count()
        }
        Kind::Contend => references
            .iter()
            .zip(wire_answers)
            .filter(|(lib, wire)| lib != wire)
            .count(),
    };
    let compared = if kind == Kind::Hot {
        queries.len()
    } else {
        references.len()
    };
    report.metric(
        "catalog.answer_mismatch",
        mismatch as f64,
        "count",
        compared,
    );

    let load_ms: Vec<f64> = (0..TIMING_REPS)
        .map(|_| {
            let t = Instant::now();
            Catalog::new()
                .load(NAME, kind.spec())
                .expect("catalog loads the graph");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric("catalog.load_ms", median(&load_ms), "ms", load_ms.len());

    // The catalog hit path, in process, on queries the run left cached.
    let entry = handle.catalog().get(NAME).expect("graph is loaded");
    let cached: Vec<&Vec<NodeId>> = queries
        .iter()
        .zip(wire_answers)
        .filter(|(_, a)| a.is_some())
        .map(|(q, _)| q)
        .collect();
    let mut hit_us = Vec::with_capacity(HIT_CALLS);
    let mut reports: Vec<SolveReport> = Vec::new();
    for i in 0..HIT_CALLS {
        let q = cached[i % cached.len()];
        let t = Instant::now();
        let r = entry.solve("ws-q", q, &QueryOptions::default());
        hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Ok(r) = r {
            if reports.len() < cached.len() {
                reports.push(r);
            }
        }
    }
    let hit_p50 = quantile(&sorted(hit_us), 0.5);
    report.metric("catalog.hit_us_p50", hit_p50, "us", HIT_CALLS);
    let lookups = after.lookups - before.lookups;
    report.metric(
        "engine.cache_hit_ratio",
        (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );

    // Protocol: parsing the workload's request lines and encoding its
    // responses, in process.
    let lines: Vec<String> = cached
        .iter()
        .enumerate()
        .map(|(i, q)| format!("{},\"id\":{i}}}", request("ws-q", q, false)))
        .collect();
    let t = Instant::now();
    for i in 0..PROTOCOL_CALLS {
        std::hint::black_box(parse_request(std::hint::black_box(&lines[i % lines.len()])).ok());
    }
    report.metric(
        "protocol.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / PROTOCOL_CALLS as f64,
        "us",
        PROTOCOL_CALLS,
    );
    let t = Instant::now();
    for i in 0..PROTOCOL_CALLS {
        let r = &reports[i % reports.len()];
        let payload = vec![("graph", Json::from(NAME)), ("report", report_to_json(r))];
        std::hint::black_box(ok_response(&Some(Json::from(i as u64)), payload));
    }
    report.metric(
        "protocol.serialize_us",
        t.elapsed().as_secs_f64() * 1e6 / PROTOCOL_CALLS as f64,
        "us",
        PROTOCOL_CALLS,
    );

    // Coalescer and server counters diffed around the traced phase. The
    // queue-wait quantiles come from the server's lifetime histogram.
    let d = |k: &str| after.coalesce(k) - before.coalesce(k);
    let wait = |k: &str| {
        after
            .coalesce
            .get("queue_wait")
            .and_then(|w| w.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    report.metric(
        "coalesce.queue_wait_ms_p50",
        wait("p50_ms"),
        "ms",
        d("enqueued") as usize,
    );
    report.metric(
        "coalesce.queue_wait_ms_p99",
        wait("p99_ms"),
        "ms",
        d("enqueued") as usize,
    );
    report.metric("coalesce.shared_sweeps", d("shared_sweeps"), "count", 1);
    report.metric(
        "coalesce.lane_occupancy",
        d("shared_lanes") / (d("shared_sweeps") * 64.0).max(1.0),
        "ratio",
        d("shared_sweeps") as usize,
    );
    report.metric(
        "coalesce.executed_ratio",
        d("executed") / d("group_requests").max(1.0),
        "ratio",
        d("group_requests") as usize,
    );
    let requests = after.requests - before.requests;
    report.metric(
        "server.admission_ms_p50",
        histogram_quantile_ms(&before.admission, &after.admission, 0.5),
        "ms",
        requests as usize,
    );
    let rtt_p50_us = traced.figures()[1] * 1e3;
    report.metric(
        "server.rtt_overhead_us",
        rtt_p50_us - hit_p50,
        "us",
        traced.ok,
    );
    report.metric(
        "server.overloaded",
        (after.overloaded - before.overloaded) as f64,
        "count",
        requests as usize,
    );
    report.metric(
        "event_loop.wakeups_per_req",
        (after.wakeups - before.wakeups) as f64 / requests.max(1) as f64,
        "ratio",
        requests as usize,
    );
}
