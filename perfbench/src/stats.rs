//! Order statistics for latency samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, so a short run
//! never passes off its maximum as a p99.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile `q` (0..=1) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentile actually reportable for `n` samples when `target`
/// is wanted: `target` itself when at least [`TAIL_SAMPLES`] samples lie
/// beyond it, else the highest percentile that keeps that many beyond it
/// (never below the median).
pub fn reachable_tail(n: usize, target: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let cap = 1.0 - TAIL_SAMPLES as f64 / n as f64;
    target.min(cap).max(0.5)
}

/// A latency summary: median, the reachable tail and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (e.g. 0.99 when reachable).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarize `values` with `target` as the wanted tail percentile.
    pub fn of(values: &[f64], target: f64) -> Summary {
        let tail_q = reachable_tail(values.len(), target);
        Summary {
            n: values.len(),
            p50: median(values),
            tail_q,
            tail: quantile(values, tail_q),
        }
    }

    /// One-line description for the diagnostic output.
    pub fn describe(&self, what: &str, unit: &str) -> String {
        format!(
            "{what}: n={} p50={:.4}{unit} p{:.1}={:.4}{unit}",
            self.n,
            self.p50,
            self.tail_q * 100.0,
            self.tail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(reachable_tail(1000, 0.99), 0.99);
        assert!((reachable_tail(200, 0.99) - 0.95).abs() < 1e-12);
        assert_eq!(reachable_tail(5, 0.9), 0.5);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }
}
