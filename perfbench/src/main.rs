//! The rasa-rs benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-cold|replan-churn|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is a JSON object holding every end-to-end metric; with
//! `--trace 1` it holds the per-layer metrics, measured by wrapping the
//! calls into each layer's public functions in spans. Every published
//! placement is re-certified from outside and any failure or mismatch
//! fails the run. `perfbench/README.md` describes the workloads and
//! metrics.

mod host;
mod inputs;
mod layers;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use report::Run;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
    /// Scratch directory inside the checkout (journals, spans, work
    /// signatures).
    pub work_dir: PathBuf,
}

const USAGE: &str =
    "usage: --workload <plan-cold|replan-churn|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["plan-cold", "replan-churn", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let work_dir = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(".bench_work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

/// Metric values as JSON numbers; a value that is not finite cannot be
/// reported and fails the run.
fn metrics_json(metrics: &[(&str, f64, &str)], violations: &mut Vec<String>) -> String {
    let mut parts = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        let value = if value.is_finite() {
            value
        } else {
            violations.push(format!("metric {name} is not finite ({value})"));
            0.0
        };
        parts.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    format!("{{{}}}", parts.join(","))
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut run: Run = match args.workload.as_str() {
        "plan-cold" => pipeline::plan_cold(&args),
        "replan-churn" => pipeline::replan_churn(&args),
        _ => serve::serve_mixed(&args),
    };
    run.steadiness(
        &args.work_dir,
        &format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers: Vec<(&str, f64, &str)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        layers.push(("write_p99_ms", run.write_tail(), "ms"));
        layers.push(("failed_frac", run.failed_frac(), "fraction"));
        layers.push(("degraded_frac", run.degraded_frac(), "fraction"));
        layers
    } else {
        run.end_to_end()
    };
    println!(
        "# workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("# accounting {}", run.accounting());
    println!(
        "# failed_frac {:.6} degraded_frac {:.6}",
        run.failed_frac(),
        run.degraded_frac()
    );
    for note in &run.notes {
        println!("# {note}");
    }
    let mut violations = std::mem::take(&mut run.violations);
    let json = metrics_json(&metrics, &mut violations);
    for v in violations.iter().take(20) {
        println!("# VIOLATION {v}");
    }
    let attempted = run.ops.len().max(1);
    let correct = violations.is_empty() && run.failed() == 0 && !run.ops.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{json}}}",
        run.failed()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Per-layer metrics every traced run reports, with their units. A layer
/// a workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 43] = [
    ("admit.busy_ms", "ms"),
    ("admit.calls", "count/round"),
    ("partition.busy_ms", "ms"),
    ("partition.subproblems", "count/round"),
    ("partition.loss_frac", "fraction"),
    ("select.busy_us", "us"),
    ("select.cg", "count/round"),
    ("select.mip", "count/round"),
    ("solver.cg.busy_ms", "ms"),
    ("solver.mip.busy_ms", "ms"),
    ("solver.fallback.busy_ms", "ms"),
    ("solver.ok_frac", "fraction"),
    ("complete.busy_ms", "ms"),
    ("cg.rounds", "count/round"),
    ("cg.pricing_solves", "count/round"),
    ("cg.patterns", "count/round"),
    ("bnb.nodes", "count/round"),
    ("bnb.lp_iterations", "count/round"),
    ("bnb.iters_per_node", "ratio"),
    ("bnb.nodes_per_s", "1/s"),
    ("bnb.pruned_bound", "count/round"),
    ("simplex.solves", "count/round"),
    ("simplex.pivots", "count/round"),
    ("simplex.warm_frac", "fraction"),
    ("simplex.refactorizations", "count/round"),
    ("cache.hit_frac", "fraction"),
    ("cache.invalidations", "count/round"),
    ("certify.busy_ms", "ms"),
    ("certify.calls", "count/round"),
    ("session.resolve_ms", "ms"),
    ("core.residual_ms", "ms"),
    ("migrate.busy_ms", "ms"),
    ("migrate.moves", "count/round"),
    ("serve.client_ms", "ms"),
    ("serve.daemon_ms", "ms"),
    ("serve.unseen_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.rounds", "count"),
    ("serve.rejected_429", "count"),
    ("wal.append_us", "us"),
    ("wal.fsyncs_per_write", "count"),
    ("wal.bytes_per_write", "B"),
    ("trace.overhead_frac", "fraction"),
];
