//! The repository benchmark: one named workload, one seed, one run.
//!
//! ```text
//! perfbench --workload <grid_replay|served_jobs|asid_mix> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//!           [--expect-digest <hex>]
//! ```
//!
//! Prints one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics and the reconciliation report (`--trace 1`), the
//! run's `stats_digest`, and how many checked operations failed.
//! `perfbench/run.py` builds this binary and wraps the line in the
//! benchmark's result record; `perfbench/README.md` defines every
//! metric and workload.

mod grid;
mod mix;
mod replica;
mod report;
mod served;
mod util;

use std::path::PathBuf;

use report::{Metrics, Outcome};
use util::{peak_rss_mb, percentile, Json};

pub use util::median;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    /// How long the timed loop runs (the traced mode spends half of it
    /// on its untraced comparison loop).
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for traces and sockets, inside the checkout.
    pub work_dir: PathBuf,
    /// Digest every checked operation must reproduce; defaults to the
    /// one the set-up's reference computation gives.
    pub expect_digest: Option<String>,
}

/// Writes the latency percentiles and `peak_rss_mb` from per-job
/// latencies in seconds. Rates elsewhere come from medians, not totals,
/// so that a stall of the shared host moves them less.
///
/// `job_latency_p99_ms` is the highest percentile, up to the 99th and
/// down to the median, that keeps ten samples beyond it: the 99th for a
/// run of 1000 jobs or more, lower for the workloads whose operations
/// are too long to reach that count, where a p99 would be one outlier.
pub fn latency_metrics(m: &mut Metrics, latencies: &[f64]) {
    let mut sorted: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    sorted.sort_by(f64::total_cmp);
    let tail = (100.0 * (1.0 - 10.0 / sorted.len() as f64)).clamp(50.0, 99.0);
    m.set("job_latency_p50_ms", percentile(&sorted, 50.0));
    m.set("job_latency_p99_ms", percentile(&sorted, tail));
    m.set("peak_rss_mb", peak_rss_mb());
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <grid_replay|served_jobs|asid_mix> --seed <n> \
         --seconds <s> --trace <0|1> --work-dir <dir> [--expect-digest <hex>]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Run) {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut work_dir = None;
    let mut expect_digest = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--expect-digest" => expect_digest = Some(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let run = Run {
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        traced: traced.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
        expect_digest,
    };
    (
        workload.unwrap_or_else(|| usage("--workload is required")),
        run,
    )
}

fn main() {
    let (workload, run) = parse_args();
    std::fs::create_dir_all(&run.work_dir).expect("work directory can be created");
    let outcome: Outcome = match workload.as_str() {
        "grid_replay" => grid::run(&run),
        "served_jobs" => served::run(&run),
        "asid_mix" => mix::run(&run),
        other => usage(&format!("unknown workload {other}")),
    };
    let checks = &outcome.checks;
    let mut fields = vec![
        ("workload", Json::Str(workload.clone())),
        (
            "mode",
            Json::Str(if run.traced { "traced" } else { "untraced" }.into()),
        ),
        ("seed", Json::Int(run.seed)),
        ("attempted", Json::Int(checks.attempted)),
        ("failed", Json::Int(checks.failed)),
        (
            "error_rate",
            Json::Num(checks.failed as f64 / checks.attempted.max(1) as f64),
        ),
        ("stats_digest", Json::Str(outcome.digest.clone())),
        (
            "failures",
            Json::Arr(checks.notes.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", outcome.metrics.to_json()),
    ];
    if let Some(reconciliation) = outcome.reconciliation {
        fields.push(("reconciliation", reconciliation));
    }
    println!("{}", Json::obj(fields).render());
}
