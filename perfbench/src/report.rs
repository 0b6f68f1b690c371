//! What a run measured, and how it becomes the metrics the benchmark
//! prints: end-to-end metrics for an untraced run, per-layer metrics for a
//! traced one.

use crate::host::HostSpeed;
use crate::stats::{median, Summary};
use std::collections::BTreeMap;
use std::path::Path;

/// Operation class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Leaves state unchanged: a `GET`, a churn tick, an outside
    /// re-certification of a published plan.
    Read,
    /// Produces a new placement: a cold plan, a churn delta round, a
    /// `POST /delta` or `POST /snapshot`.
    Write,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
        }
    }
}

/// One measured operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// Read or write.
    pub class: Class,
    /// Latency, ms.
    pub ms: f64,
    /// Succeeded: answered 200 / certified, no panic.
    pub ok: bool,
    /// A published round with any subproblem not `Ok`.
    pub degraded: bool,
    /// Counts toward `round_*`: a pipeline round or a daemon request (an
    /// outside re-certification is not one).
    pub round: bool,
    /// Host-reference mark when the operation ended ([`HostSpeed::mark`]).
    pub host: usize,
}

/// Everything one run of a workload measured.
#[derive(Default)]
pub struct Run {
    /// Set-up repetitions: (s, host-reference mark).
    pub setup_s: Vec<(f64, usize)>,
    /// Cold plans of the workload's cluster set: (s, host-reference mark).
    pub plan_s: Vec<(f64, usize)>,
    /// Measured operations in the order they ran.
    pub ops: Vec<Op>,
    /// Cycles: (operations, seconds, host-reference mark).
    pub cycles: Vec<(usize, f64, usize)>,
    /// Normalized gained affinity of published placements.
    pub affinity: Vec<f64>,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
    /// Per-operation solver-work and cache signatures (`stream\tsig`),
    /// for the run-to-run steadiness check.
    work: Vec<String>,
    /// Host-speed reference samples; the end-to-end times are scaled by
    /// them when the workload takes any.
    pub host: HostSpeed,
    /// Per-layer metrics (traced runs) by name; units are listed with the
    /// names in `main.rs`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra diagnostic lines.
    pub notes: Vec<String>,
}

impl Run {
    /// Record a violation.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// Latencies of `class` (all rounds when `None`), scaled by the host
    /// reference.
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| class.map_or(o.round, |c| o.class == c))
            .map(|o| o.ms * self.host.scale_at(o.host))
            .collect()
    }

    /// Times of `samples` scaled by the host reference.
    fn scaled(&self, samples: &[(f64, usize)]) -> Vec<f64> {
        samples
            .iter()
            .map(|&(s, mark)| s * self.host.scale_at(mark))
            .collect()
    }

    /// Median operations per second over the run's cycles, scaled by the
    /// host reference.
    pub fn rps(&self) -> f64 {
        let per_cycle: Vec<f64> = self
            .cycles
            .iter()
            .filter(|(_, s, _)| *s > 0.0)
            .map(|&(n, s, mark)| n as f64 / (s * self.host.scale_at(mark)))
            .collect();
        median(&per_cycle)
    }

    /// Failure accounting per operation class.
    pub fn accounting(&self) -> String {
        let mut parts = Vec::new();
        for class in [Class::Read, Class::Write] {
            let ops: Vec<&Op> = self.ops.iter().filter(|o| o.class == class).collect();
            let failed = ops.iter().filter(|o| !o.ok).count();
            let degraded = ops.iter().filter(|o| o.degraded).count();
            parts.push(format!(
                "\"{}\":{{\"attempted\":{},\"ok\":{},\"failed\":{failed},\"degraded\":{degraded}}}",
                class.label(),
                ops.len(),
                ops.len() - failed,
            ));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// Share of operations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.ops.len().max(1) as f64
    }

    /// Share of published rounds that were degraded.
    pub fn degraded_frac(&self) -> f64 {
        let writes = self.ops.iter().filter(|o| o.class == Class::Write).count();
        let degraded = self.ops.iter().filter(|o| o.degraded).count();
        degraded as f64 / writes.max(1) as f64
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Every time is
    /// scaled by the host reference.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, f64, &'static str)> {
        let all = Summary::of(&self.latencies(None), 0.90);
        let reads = Summary::of(&self.latencies(Some(Class::Read)), 0.99);
        let writes = Summary::of(&self.latencies(Some(Class::Write)), 0.99);
        self.notes.push(all.describe("rounds", "ms"));
        self.notes.push(reads.describe("reads", "ms"));
        self.notes.push(writes.describe("writes", "ms"));
        let setup_s = self.scaled(&self.setup_s);
        let plan_s = self.scaled(&self.plan_s);
        self.notes.push(format!(
            "set-ups: n={} p50={:.6}s max={:.6}s",
            setup_s.len(),
            median(&setup_s),
            setup_s.iter().copied().fold(0.0, f64::max)
        ));
        self.notes.push(format!(
            "cold plans (s): n={} p50={:.4}",
            plan_s.len(),
            median(&plan_s)
        ));
        self.notes.push(self.host.describe());
        let rps = self.rps();
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("plan_s", median(&plan_s), "s"),
            ("affinity", crate::stats::mean(&self.affinity), "fraction"),
            ("churn_s", 100.0 / rps, "s"),
            ("round_p50_ms", all.p50, "ms"),
            ("round_p90_ms", all.tail, "ms"),
            ("rps", rps, "1/s"),
            ("read_p50_ms", reads.p50, "ms"),
            ("read_p99_ms", reads.tail, "ms"),
            ("write_p50_ms", writes.p50, "ms"),
        ]
    }

    /// The write tail, reported with the per-layer metrics: on the
    /// measurement machine it follows fsync and compaction stalls, which
    /// move it by more than any bound the benchmark may set.
    pub fn write_tail(&self) -> f64 {
        Summary::of(&self.latencies(Some(Class::Write)), 0.99).tail
    }

    /// Record the work signature of the next operation of `stream`.
    /// Operations within a stream come in an order the seed fixes; how
    /// many a stream holds depends on timing.
    pub fn work(&mut self, stream: impl std::fmt::Display, signature: String) {
        self.work.push(format!("{stream}\t{signature}"));
    }

    /// Compare this run's per-operation work signatures, stream by stream,
    /// with the last run of the same workload and seed (kept under `dir`),
    /// then store them.
    pub fn steadiness(&mut self, dir: &Path, key: &str) {
        fn streams(lines: &[String]) -> BTreeMap<&str, Vec<&str>> {
            let mut out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for l in lines {
                let (stream, sig) = l.split_once('\t').unwrap_or(("", l));
                out.entry(stream).or_default().push(sig);
            }
            out
        }
        let path = dir.join(format!("work-{key}.txt"));
        let line = match std::fs::read_to_string(&path) {
            Err(_) => "first run with this workload and seed; nothing to compare".to_string(),
            Ok(prev) => {
                let prev: Vec<String> = prev.lines().map(str::to_string).collect();
                let (prev, now) = (streams(&prev), streams(&self.work));
                let mut compared = 0;
                let mut differs = None;
                for (stream, ops) in &now {
                    let old = prev.get(stream).map_or(&[][..], |v| &v[..]);
                    let common = ops.len().min(old.len());
                    compared += common;
                    if let Some(i) = (0..common).find(|&i| ops[i] != old[i]) {
                        differs.get_or_insert(format!("{stream} operation {i}"));
                    }
                }
                match differs {
                    None if compared == 0 => {
                        "no operation in common with the previous run to compare".to_string()
                    }
                    None => format!(
                        "solver work and cache sequence repeated exactly over {compared} common operations"
                    ),
                    Some(at) => format!(
                        "solver work or cache sequence differs from the previous run at {at}"
                    ),
                }
            }
        };
        self.notes.push(format!("steadiness: {line}"));
        if let Err(e) = std::fs::write(&path, self.work.join("\n")) {
            self.notes.push(format!(
                "steadiness: could not store {}: {e}",
                path.display()
            ));
        }
    }
}

/// Per-layer metrics of the CG, B&B and simplex layers, from counter
/// increases `count` over `per` rounds.
pub fn solver_counts(
    layers: &mut BTreeMap<&'static str, f64>,
    count: impl Fn(&str) -> f64,
    per: f64,
) {
    for name in [
        "cg.rounds",
        "cg.pricing_solves",
        "cg.patterns",
        "bnb.nodes",
        "bnb.lp_iterations",
        "bnb.pruned_bound",
        "simplex.solves",
        "simplex.pivots",
        "simplex.refactorizations",
    ] {
        layers.insert(name, count(name) / per);
    }
    layers.insert(
        "bnb.iters_per_node",
        count("bnb.lp_iterations") / count("bnb.nodes").max(1.0),
    );
    layers.insert(
        "simplex.warm_frac",
        count("simplex.warm_accepted") / count("simplex.solves").max(1.0),
    );
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Solver-work counters recorded per operation and reported per layer.
pub const WORK_COUNTERS: [&str; 21] = [
    "admission.audits",
    "partition.subproblems",
    "pipeline.alg.cg",
    "pipeline.alg.mip",
    "cg.rounds",
    "cg.pricing_solves",
    "cg.patterns",
    "bnb.nodes",
    "bnb.lp_iterations",
    "bnb.pruned_bound",
    "simplex.solves",
    "simplex.pivots",
    "simplex.warm_accepted",
    "simplex.refactorizations",
    "cache.sub_hits",
    "cache.sub_misses",
    "cache.invalidations",
    "certify.checks",
    "serve.rounds",
    "wal.fsyncs",
    "wal.bytes_written",
];

/// A reading of [`WORK_COUNTERS`] from the program's global registry.
#[derive(Clone, Debug)]
pub struct Counters(Vec<u64>);

impl Counters {
    /// Read the counters now.
    pub fn read() -> Counters {
        let obs = rasa_obs::global();
        Counters(WORK_COUNTERS.iter().map(|n| obs.counter(n).get()).collect())
    }

    /// Increase of counter `name` since `earlier`.
    pub fn since(&self, earlier: &Counters, name: &str) -> u64 {
        let i = WORK_COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("counter listed in WORK_COUNTERS");
        self.0[i].saturating_sub(earlier.0[i])
    }

    /// Compact signature of the solver work and cache traffic since
    /// `earlier`.
    pub fn signature(&self, earlier: &Counters) -> String {
        [
            "bnb.nodes",
            "bnb.lp_iterations",
            "cg.pricing_solves",
            "cg.patterns",
            "simplex.pivots",
            "cache.sub_hits",
            "cache.sub_misses",
        ]
        .iter()
        .map(|n| self.since(earlier, n).to_string())
        .collect::<Vec<_>>()
        .join(",")
    }
}
