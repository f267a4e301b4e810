//! The repository's benchmark: three workloads over the Minimum Wiener
//! Connector library and server, every answer checked.
//!
//! ```text
//! perfbench --workload solve-cold|serve-hot|serve-contend --seed N
//!           --seconds S --trace 0|1 [--trace-file PATH]
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics, with tracing
//! off. With `--trace 1` it reports the per-layer metrics, timed by
//! spans the benchmark records around its calls into each layer's public
//! functions, and writes the spans to `--trace-file`. See README.md for
//! the workloads, the metrics and which end-to-end metric each layer
//! metric should move.

mod inputs;
mod replay;
mod report;
mod serve;
mod solve_cold;
mod spans;
mod wire;

use rand::SeedableRng;
use wiener_connector::core::{ApproxWsqConfig, CoreError};
use wiener_connector::graph::oracle::LandmarkOracle;
use wiener_connector::graph::Graph;
use wiener_connector::service::GraphSource;

use report::Report;
use spans::SpanLog;

/// Repetitions behind each in-process timing of a one-off call (oracle
/// build, catalog load); the median is reported.
pub const TIMING_REPS: usize = 5;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_file: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload solve-cold|serve-hot|serve-contend --seed N \
         --seconds S --trace 0|1 [--trace-file PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => trace = Some(value == "1"),
            "--trace-file" => trace_file = Some(value),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            trace_file,
        },
        _ => usage(),
    }
}

/// Materializes one of the fixed corpus graphs (deterministic per spec).
pub fn build_graph(spec: &str) -> Graph {
    GraphSource::parse(spec)
        .and_then(|s| s.build())
        .expect("corpus graph spec builds")
}

/// Median time to build the landmark oracle `ws-q-approx` uses, with the
/// engine's default landmark count, strategy and seed.
pub fn oracle_build_ms(g: &Graph) -> f64 {
    let cfg = ApproxWsqConfig::default();
    let ms: Vec<f64> = (0..TIMING_REPS)
        .map(|_| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
            let t = std::time::Instant::now();
            std::hint::black_box(LandmarkOracle::build(
                g,
                cfg.landmarks,
                cfg.strategy,
                &mut rng,
            ));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report::median(&ms)
}

/// The serving layers do no work in a library-only workload: their
/// metrics read 0 there.
pub fn zero_service_layers(report: &mut Report) {
    for (name, unit) in [
        ("catalog.load_ms", "ms"),
        ("catalog.hit_us_p50", "us"),
        ("catalog.answer_mismatch", "count"),
        ("protocol.parse_us", "us"),
        ("protocol.serialize_us", "us"),
        ("coalesce.queue_wait_ms_p50", "ms"),
        ("coalesce.queue_wait_ms_p99", "ms"),
        ("coalesce.shared_sweeps", "count"),
        ("coalesce.lane_occupancy", "ratio"),
        ("coalesce.executed_ratio", "ratio"),
        ("server.admission_ms_p50", "ms"),
        ("server.rtt_overhead_us", "us"),
        ("server.overloaded", "count"),
        ("event_loop.wakeups_per_req", "ratio"),
    ] {
        report.metric(name, 0.0, unit, 0);
    }
}

/// Failure code of a library error: its variant name.
pub fn core_error_code(e: &CoreError) -> String {
    let debug = format!("{e:?}");
    let variant: String = debug
        .chars()
        .take_while(char::is_ascii_alphanumeric)
        .collect();
    format!("library:{variant}")
}

pub fn write_spans(args: &Args, log: &SpanLog, report: &mut Report) {
    report.info("trace.spans", log.len() as f64, "count", 1);
    if let Some(path) = &args.trace_file {
        if let Err(e) = log.write(path) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }
}

fn main() {
    let args = parse_args();
    let mut report = Report::default();
    match args.workload.as_str() {
        "solve-cold" => solve_cold::run(&args, &mut report),
        "serve-hot" => serve::run(serve::Kind::Hot, &args, &mut report),
        "serve-contend" => serve::run(serve::Kind::Contend, &args, &mut report),
        _ => usage(),
    }
    report.info("rss_run_peak_mb", report::peak_rss_mb(), "MB", 1);
    report.print(&args.workload, args.seed);
}
