//! What a run prints: a human-readable table (every metric by name, with
//! unit and sample count, plus failures by code) and, as the last line of
//! standard output, the result object the benchmark contract defines.

use std::collections::BTreeMap;

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples the value was computed from (1 for a single measurement).
    samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Metrics in the result object (end-to-end or per-layer, by mode).
    metrics: Vec<Metric>,
    /// Metrics printed in the table only.
    info: Vec<Metric>,
    pub attempted: u64,
    /// Failed operations by error code.
    failures: BTreeMap<String, u64>,
    /// Workload self-checks that did not hold.
    broken_checks: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.info.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records the set-up time and the peak RSS once set-up is done: the
    /// resident footprint of the loaded graph, engine, catalog and warmed
    /// cache. (Read at the end of a serve-contend run instead, the peak
    /// moves in 5 MB steps with how many solver threads and pooled sweep
    /// workspaces happen to be live at once: 25-41 MB over ten runs.) Both
    /// are end-to-end metrics; a traced run prints them only in the table.
    pub fn setup(&mut self, seconds: f64, samples: usize, traced: bool) {
        let rss = peak_rss_mb();
        if traced {
            self.info("setup_s", seconds, "s", samples);
            self.info("rss_mb", rss, "MB", 1);
        } else {
            self.metric("setup_s", seconds, "s", samples);
            self.metric("rss_mb", rss, "MB", 1);
        }
    }

    pub fn fail(&mut self, code: impl Into<String>) {
        *self.failures.entry(code.into()).or_default() += 1;
    }

    /// Records a workload self-check; a check that does not hold makes
    /// the run incorrect.
    pub fn require(&mut self, holds: bool, what: impl Into<String>) {
        if !holds {
            self.broken_checks.push(what.into());
        }
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Prints the table and then the result object as the last line.
    pub fn print(&self, workload: &str, seed: u64) {
        println!("perfbench {workload} seed={seed}");
        for m in self.metrics.iter().chain(&self.info) {
            println!(
                "  {:<28} {:>14.4} {:<10} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let fraction = self.failed() as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<28} {:>14.6} {:<10} n={}",
            "error_fraction", fraction, "failed/attempted", self.attempted
        );
        for (code, n) in &self.failures {
            println!("  failure {code}: {n}");
        }
        for check in &self.broken_checks {
            println!("  self-check failed: {check}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0 && self.broken_checks.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a non-finite value means a bug upstream,
/// so it is reported as a large sentinel rather than producing bad JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts samples ascending (all values are finite times).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The highest tail quantile, at most p99, that keeps at least 10 of the
/// `n` samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
