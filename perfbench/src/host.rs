//! Host-speed reference for the CPU-bound workloads.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts:
//! the same cold plans of the same inputs take 1.5× longer for minutes at
//! a time while the solver work repeats exactly, so run-to-run spread of
//! raw CPU-bound timings is set by the host rather than the program. A
//! fixed reference computation that shares no code with the program under
//! test (a sort, a dense power iteration and a hash-map tally) is timed
//! between operations, at most once per [`INTERVAL`], and
//! `plan-cold`/`replan-churn` report every time scaled to a host on which
//! the reference takes [`REFERENCE_MS`], using the median of the reference
//! samples taken around it (the host's speed moves within a run too). A
//! change to the program moves the scaled times exactly as it moves the
//! raw ones; a change of host speed moves the reference with them and
//! cancels out. Over 36 s blocks of repeated identical cold plans the
//! scaled time spread 0.045 of its median (interquartile range) where the
//! raw time spread 0.29.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference time the scaled figures are expressed at, ms: about what one
/// reference computation takes on the measurement host at its usual speed.
pub const REFERENCE_MS: f64 = 4.0;
/// Least time between two reference samples.
pub const INTERVAL: Duration = Duration::from_millis(100);
/// Reference samples on each side of a time that set its scale: about a
/// second of the run around it.
pub const WINDOW: usize = 5;

/// Reference samples of one run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Time one reference computation if [`INTERVAL`] has passed since the
    /// last one. Call only between timed operations.
    pub fn maybe_sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        let t = Instant::now();
        black_box(reference(self.samples.len() as u64));
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Mark of a time taken now: the number of samples so far.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Factor that turns a raw time taken at `mark` into the time at
    /// [`REFERENCE_MS`], from the [`WINDOW`] samples before and after it;
    /// 1 when nothing was sampled (raw times).
    pub fn scale_at(&self, mark: usize) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let hi = (mark + WINDOW).clamp(WINDOW.min(n), n);
        let lo = hi.saturating_sub(2 * WINDOW);
        REFERENCE_MS / median(&self.samples[lo..hi])
    }

    /// One-line description for the diagnostic output.
    pub fn describe(&self) -> String {
        if self.samples.is_empty() {
            return "host reference: not sampled; times are raw".to_string();
        }
        let p50 = median(&self.samples);
        format!(
            "host reference: n={} p50={p50:.4}ms; times scaled to a {REFERENCE_MS} ms reference (by {:.4} at the median)",
            self.samples.len(),
            REFERENCE_MS / p50
        )
    }
}

/// The reference computation: fixed work, independent of `round` in
/// everything but the values it draws, about 4 ms on the measurement host.
fn reference(round: u64) -> f64 {
    let mut rng = crate::inputs::Rng::new(round, 9);
    let mut sorted: Vec<f64> = (0..60_000).map(|_| rng.unit()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = 120;
    let a: Vec<f64> = (0..n * n).map(|_| rng.unit()).collect();
    let mut x: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
    for _ in 0..60 {
        let y: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect();
        let norm = y.iter().map(|t| t * t).sum::<f64>().sqrt();
        x = y.into_iter().map(|t| t / norm).collect();
    }
    let mut tally = std::collections::HashMap::<u64, u64>::new();
    for i in 0..20_000u64 {
        *tally.entry(rng.next_u64() % 5000).or_default() += i;
    }
    sorted[100] + x[3] + tally.len() as f64
}
