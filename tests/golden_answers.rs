//! Golden-answer lock: a fixed query corpus mapped to the connector and
//! Wiener index (or the error) that every registered solver of
//! [`wiener_connector::engine`] returns on `karate`, `ba:2000x3` and
//! `wba:2000x3`.
//!
//! The committed table is `tests/golden/answers.tsv`. The test
//! regenerates it from the library engine and compares byte for byte, so
//! a refactor that claims to keep answers unchanged has to keep this file
//! unchanged. On a mismatch the regenerated table is printed; when an
//! answer change is intended, replace the committed file with it and say
//! which rows moved and why.

use wiener_connector::core::{CoreError, QueryOptions};
use wiener_connector::graph::NodeId;
use wiener_connector::service::GraphSource;

const GOLDEN: &str = include_str!("golden/answers.tsv");

/// Two queries of each size |Q| ∈ {2, 3, 5} per graph. The weighted
/// graph shares its topology (and so its queries) with `ba:2000x3`.
const KARATE_QUERIES: &[&[NodeId]] = &[
    &[0, 33],
    &[5, 16],
    &[3, 11, 16],
    &[11, 24, 29],
    &[1, 9, 20, 23, 31],
    &[11, 24, 25, 29, 31],
];
const BA_QUERIES: &[&[NodeId]] = &[
    &[7, 1500],
    &[123, 1999],
    &[3, 900, 1999],
    &[50, 51, 1234],
    &[10, 400, 800, 1200, 1600],
    &[0, 1, 2, 1000, 1999],
];
const CORPUS: &[(&str, &[&[NodeId]])] = &[
    ("karate", KARATE_QUERIES),
    ("ba:2000x3", BA_QUERIES),
    ("wba:2000x3", BA_QUERIES),
];

/// A stable token per error kind (the message text is free to change).
fn error_code(e: &CoreError) -> &'static str {
    match e {
        CoreError::EmptyQuery => "empty_query",
        CoreError::QueryNotConnectable => "query_not_connectable",
        CoreError::Graph(_) => "graph",
        CoreError::UnsupportedInstance { .. } => "unsupported_instance",
        CoreError::Lp(_) => "lp",
        CoreError::UnknownSolver { .. } => "unknown_solver",
        CoreError::BudgetExceeded { .. } => "budget_exceeded",
        _ => "other",
    }
}

fn join(ids: &[NodeId]) -> String {
    ids.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The table as the library engine answers it today: one
/// `graph  solver  q  w  connector` row per (graph, solver, query), with
/// `w = error:<code>` and `connector = -` for refused queries.
fn table() -> String {
    let mut out = String::from("graph\tsolver\tq\tw\tconnector\n");
    for &(spec, queries) in CORPUS {
        let g = GraphSource::parse(spec).unwrap().build().unwrap();
        let engine = wiener_connector::engine(&g);
        for solver in engine.solver_names() {
            for q in queries {
                let (w, connector) =
                    match engine.solve_with(solver, q, &QueryOptions::new().no_cache()) {
                        Ok(r) => (r.wiener_index.to_string(), join(r.connector.vertices())),
                        Err(e) => (format!("error:{}", error_code(&e)), "-".to_string()),
                    };
                out.push_str(&format!(
                    "{spec}\t{solver}\t{}\t{w}\t{connector}\n",
                    join(q)
                ));
            }
        }
    }
    out
}

#[test]
fn every_solver_reproduces_the_golden_table() {
    let fresh = table();
    if fresh != GOLDEN {
        println!("{fresh}");
        panic!(
            "answers differ from tests/golden/answers.tsv; the regenerated \
             table is printed above"
        );
    }
}
