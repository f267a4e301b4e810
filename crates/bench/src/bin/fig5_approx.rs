//! Figure 5 extension — approximate-distance ws-q (the §6.6 direction).
//!
//! Compares the exact solver against [`ApproxWienerSteiner`] (landmark
//! oracle distances) on Barabási–Albert graphs of growing size:
//! per-query runtime once the oracle is built, the one-off oracle build
//! time, and the solution-quality ratio `W_approx / W_exact`.
//!
//! The exact solver pays `|Q|` full-graph BFS runs per query; the
//! approximate solver pays `k` BFS runs once, then only `O(k·|V|)` scans
//! per query — so its advantage grows with query *volume*, which is the
//! regime the paper's scalability section targets.

use mwc_bench::stats::{mean, timed};
use mwc_bench::table::{fmt_f64, Table};
use mwc_bench::{parse_args, Scale};
use mwc_core::{ApproxWienerSteiner, ApproxWsqConfig, WienerSteiner, WsqConfig};
use mwc_datasets::workloads;
use mwc_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = parse_args();
    let mut rng = StdRng::seed_from_u64(args.seed);

    let sizes: Vec<usize> = match args.scale {
        Scale::Quick => vec![2_000, 10_000],
        Scale::Medium => vec![2_000, 10_000, 50_000],
        Scale::Full => vec![2_000, 10_000, 50_000, 200_000, 500_000],
    };
    let queries_per_graph = args.scale.pick(3, 5, 10);
    let qsize = 10usize;
    let landmarks = 16usize;

    println!("Figure 5 extension: exact vs landmark-approximate ws-q (PL graphs, |Q| = {qsize})\n");
    let mut t = Table::new(&[
        "|V|",
        "oracle build (s)",
        "exact s/query",
        "approx s/query",
        "speedup",
        "W ratio (approx/exact)",
    ]);

    for &n in &sizes {
        let g = barabasi_albert(n, 3, &mut rng);
        let queries: Vec<Vec<u32>> = (0..queries_per_graph)
            .filter_map(|_| workloads::uniform_query(&g, qsize, &mut rng).map(|q| q.vertices))
            .collect();

        let exact = WienerSteiner::with_config(
            &g,
            WsqConfig {
                parallel: false,
                ..WsqConfig::default()
            },
        );
        let (approx, build_secs) = timed(|| {
            ApproxWienerSteiner::build(
                &g,
                ApproxWsqConfig {
                    landmarks,
                    ..ApproxWsqConfig::default()
                },
                &mut rng,
            )
        });

        let mut exact_secs = Vec::new();
        let mut approx_secs = Vec::new();
        let mut ratios = Vec::new();
        for q in &queries {
            let (we, se) = timed(|| exact.solve(q).expect("exact"));
            let (wa, sa) = timed(|| approx.solve(q).expect("approx"));
            exact_secs.push(se);
            approx_secs.push(sa);
            ratios.push(wa.wiener_index as f64 / we.wiener_index.max(1) as f64);
        }
        let (me, ma) = (mean(&exact_secs), mean(&approx_secs));
        t.add_row(vec![
            n.to_string(),
            fmt_f64(build_secs, 3),
            fmt_f64(me, 4),
            fmt_f64(ma, 4),
            format!("{:.2}x", me / ma.max(1e-12)),
            fmt_f64(mean(&ratios), 3),
        ]);
    }
    t.print();
    println!("\nReading: W ratios near 1.0 are the headline — replacing every exact");
    println!("per-root distance with a {landmarks}-landmark estimate costs only a few percent of");
    println!("solution quality, supporting §6.6's conjecture that approximate shortest-");
    println!("distance techniques are viable for scaling ws-q. Wall-clock speedups are");
    println!("modest here because on these sparse in-memory graphs the λ-sweep Steiner");
    println!("solves dominate runtime, not the |Q| BFS runs the oracle eliminates; the");
    println!("oracle's O(k·|V|) memory-sequential scans are the piece that survives when");
    println!("the graph no longer fits in RAM (the regime §6.6 actually targets).");
}
