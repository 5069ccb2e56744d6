//! What both execution surfaces report in one shape.  [`LatencyStats`] is the
//! first resident; the shared report schema and event trace of ROADMAP item 2
//! grow here.

use serde::{Deserialize, Serialize};

/// Latency distribution summary in the surface's (virtual) seconds:
/// nearest-rank percentiles (the box-plot statistics of Figs. 6–8), mean and
/// maximum.  The simulator re-exports it under this name, the runtime as
/// `LatencySummary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    /// Summarises raw samples; all zeros for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let Some(&max) = sorted.last() else {
            return LatencyStats::default();
        };
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        LatencyStats {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p5: pct(0.05),
            p25: pct(0.25),
            p50: pct(0.50),
            p75: pct(0.75),
            p95: pct(0.95),
            max,
        }
    }
}
