//! Serving metrics: decode throughput, prompt latency, decode latency.

use helix_cluster::NodeId;
pub use helix_core::obs::LatencyStats;
use std::collections::HashMap;

/// Per-link congestion statistics (used by the §6.7 case study).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStats {
    /// Origin (`None` = coordinator).
    pub from: Option<NodeId>,
    /// Destination (`None` = coordinator).
    pub to: Option<NodeId>,
    /// Number of transfers carried.
    pub transfers: u64,
    /// Total bytes carried.
    pub bytes: f64,
    /// Mean queueing delay per transfer in seconds.
    pub mean_queue_delay: f64,
    /// Maximum queueing delay observed in seconds.
    pub max_queue_delay: f64,
}

/// Windowed per-model progress emitted during a run (not just at its end),
/// so the re-plan policy — and tests asserting recovery — can read
/// throughput *while the run is still going*.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalMetrics {
    /// Window start (simulated seconds).
    pub start: f64,
    /// Window end (simulated seconds).
    pub end: f64,
    /// Output tokens each model generated inside the window, indexed by
    /// model.
    pub decode_tokens: Vec<u64>,
}

impl IntervalMetrics {
    /// Window length in seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// Fleet-total decode throughput over the window (tokens/s).
    pub fn total_throughput(&self) -> f64 {
        let d = self.duration();
        if d <= 0.0 {
            return 0.0;
        }
        self.decode_tokens.iter().sum::<u64>() as f64 / d
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Length of the measurement window in seconds (excludes warm-up).
    pub measured_seconds: f64,
    /// Output tokens generated during the measurement window.
    pub decode_tokens: u64,
    /// Requests completed during the measurement window.
    pub completed_requests: u64,
    /// Prompt latency distribution (arrival → first token).
    pub prompt_latency: LatencyStats,
    /// Decode latency distribution (per-token gaps after the first token).
    pub decode_latency: LatencyStats,
    /// Per-node compute utilisation (busy seconds / measured seconds).
    pub node_utilization: HashMap<NodeId, f64>,
    /// Per-link congestion statistics, sorted by mean queue delay descending.
    pub link_stats: Vec<LinkStats>,
}

impl Metrics {
    /// Decode throughput in tokens per second.
    pub fn decode_throughput(&self) -> f64 {
        if self.measured_seconds <= 0.0 {
            0.0
        } else {
            self.decode_tokens as f64 / self.measured_seconds
        }
    }

    /// Average prompt latency in seconds.
    pub fn avg_prompt_latency(&self) -> f64 {
        self.prompt_latency.mean
    }

    /// Average decode latency (per-token gap) in seconds.
    pub fn avg_decode_latency(&self) -> f64 {
        self.decode_latency.mean
    }

    /// The most congested links (by mean queue delay).
    pub fn most_congested_links(&self, n: usize) -> &[LinkStats] {
        &self.link_stats[..n.min(self.link_stats.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(stats.count, 100);
        assert!((stats.mean - 50.5).abs() < 1e-9);
        assert!((stats.p50 - 50.0).abs() <= 1.0);
        assert!((stats.p95 - 95.0).abs() <= 1.0);
        assert!(stats.p5 < stats.p25 && stats.p25 < stats.p75 && stats.p75 < stats.p95);
    }

    #[test]
    fn empty_latency_stats_are_zero() {
        let stats = LatencyStats::from_samples(&[]);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean, 0.0);
    }

    #[test]
    fn throughput_is_tokens_over_time() {
        let m = Metrics {
            measured_seconds: 10.0,
            decode_tokens: 1500,
            completed_requests: 10,
            prompt_latency: LatencyStats::from_samples(&[1.0, 2.0]),
            decode_latency: LatencyStats::from_samples(&[0.1]),
            node_utilization: HashMap::new(),
            link_stats: vec![],
        };
        assert!((m.decode_throughput() - 150.0).abs() < 1e-12);
        assert!((m.avg_prompt_latency() - 1.5).abs() < 1e-12);
        assert!((m.avg_decode_latency() - 0.1).abs() < 1e-12);
        assert!(m.most_congested_links(3).is_empty());
        let zero = Metrics {
            measured_seconds: 0.0,
            ..m
        };
        assert_eq!(zero.decode_throughput(), 0.0);
    }
}
