//! Metrics reported by the prototype runtime.
//!
//! The report mirrors the metrics of the paper's evaluation (§6.2): decode
//! throughput for offline serving, and prompt/decode latency for online
//! serving, plus per-node utilisation and per-link traffic used by the
//! placement and scheduling case studies (Figs. 9b and 10b).

use helix_cluster::{ModelId, NodeId};
use helix_core::obs::LatencyStats;
use helix_core::{
    FailoverRecord, KvTransferRecord, LinkQueue, PrefixStats, ReplanRecord, ReplicationStats,
};
use helix_workload::RequestId;

/// The lifecycle record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id.
    pub id: RequestId,
    /// The fleet model the request targeted.
    pub model: ModelId,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Output length in tokens.
    pub output_tokens: usize,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Time the first output token was produced (end of the prompt phase).
    pub first_token_at: f64,
    /// Time the final output token was produced.
    pub completed_at: f64,
    /// Number of stages in the request's pipeline.
    pub pipeline_depth: usize,
}

impl RequestOutcome {
    /// Prompt latency: arrival to first token (the paper's "prompt latency").
    fn prompt_latency(&self) -> f64 {
        (self.first_token_at - self.arrival).max(0.0)
    }

    /// Mean decode latency per generated token after the first.
    fn decode_latency_per_token(&self) -> f64 {
        let decode_tokens = self.output_tokens.saturating_sub(1);
        if decode_tokens == 0 {
            return 0.0;
        }
        (self.completed_at - self.first_token_at).max(0.0) / decode_tokens as f64
    }
}

/// Per-node execution summary.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The compute node.
    pub node: NodeId,
    /// The fleet model this row served (shared nodes report one entry per
    /// model).
    pub model: ModelId,
    /// Human-readable node name.
    pub name: String,
    /// Layers the node held for this model.
    pub layers_held: usize,
    /// Virtual seconds spent executing batches, each counted when it starts
    /// (the engine's counter the re-plan loop observes).
    pub busy_secs: f64,
    /// Batches completed, counted by the engine when each completes: the
    /// batch a failed row was running is dropped uncounted.
    pub batches: u64,
    /// Prompt tokens those batches processed.
    pub prompt_tokens: u64,
    /// Decode tokens those batches processed.
    pub decode_tokens: u64,
    /// Highest KV-pool utilisation (used pages / whole pages of capacity)
    /// observed at any allocation.  Not clamped: rows record every append
    /// and penalise batches that run over capacity, so a value above 1.0 is
    /// the share of residency that was (modelled as) offloaded to host
    /// memory.
    pub kv_peak_utilization: f64,
    /// KV allocations that did not fit the pool.  Nothing is dropped: each
    /// was recorded as offloaded, and every batch that ran while the pool
    /// was over capacity paid the overflow penalty.
    pub kv_rejections: u64,
}

impl NodeReport {
    /// Fraction of the run the node spent busy.
    pub fn utilization(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            (self.busy_secs / makespan).min(1.0)
        }
    }
}

/// Per-link traffic summary (`None` endpoints denote the coordinator).
#[derive(Debug, Clone, Copy)]
pub struct LinkReport {
    /// Sending endpoint.
    pub from: Option<NodeId>,
    /// Receiving endpoint.
    pub to: Option<NodeId>,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: f64,
    /// Mean queueing delay per message (seconds).
    pub mean_queue_delay: f64,
    /// Largest queueing delay observed (seconds).
    pub max_queue_delay: f64,
}

impl LinkReport {
    pub(crate) fn new(from: Option<NodeId>, to: Option<NodeId>, link: &LinkQueue) -> Self {
        LinkReport {
            from,
            to,
            messages: link.transfers,
            bytes: link.bytes_transferred,
            mean_queue_delay: link.mean_queue_delay(),
            max_queue_delay: link.max_queue_delay,
        }
    }
}

/// The full report of one serving run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-request lifecycle records, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual time between the first arrival and the last completion.
    pub makespan: f64,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Per-node execution summaries.
    pub nodes: Vec<NodeReport>,
    /// Per-link traffic summaries.
    pub links: Vec<LinkReport>,
    /// Every online re-plan the coordinator applied, in order (empty for a
    /// statically planned run).
    pub replans: Vec<ReplanRecord>,
    /// Every KV hand-over a partial-layer migration performed, in completion
    /// order (freeze → transfer → re-route → resume, per transfer).
    pub kv_transfers: Vec<KvTransferRecord>,
    /// Prefix-sharing counters summed over all models (all zeros when no
    /// request carries a prefix tag).
    pub prefix: PrefixStats,
    /// One record per node fail-over the run handled: which in-flight
    /// requests promoted onto replicas, which aborted, and the token loss
    /// each path recomputed.
    pub failovers: Vec<FailoverRecord>,
    /// Replica traffic the run's replication policy trickled to standbys
    /// (all zeros when replication is disabled).
    pub replication: ReplicationStats,
}

impl RuntimeReport {
    /// Number of requests that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Total decode tokens generated.
    pub fn decode_tokens(&self) -> u64 {
        self.outcomes.iter().map(|o| o.output_tokens as u64).sum()
    }

    /// Decode throughput in tokens per virtual second (the paper's offline
    /// serving metric).
    pub fn decode_throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.decode_tokens() as f64 / self.makespan
    }

    /// Prompt latency summary across completed requests.
    pub fn prompt_latency(&self) -> LatencyStats {
        let samples: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::prompt_latency)
            .collect();
        LatencyStats::from_samples(&samples)
    }

    /// Per-token decode latency summary across completed requests.
    pub fn decode_latency(&self) -> LatencyStats {
        let samples: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::decode_latency_per_token)
            .collect();
        LatencyStats::from_samples(&samples)
    }

    /// The outcomes of one model's requests.
    pub fn outcomes_for(&self, model: ModelId) -> Vec<&RequestOutcome> {
        self.outcomes.iter().filter(|o| o.model == model).collect()
    }

    /// Decode tokens one model generated.
    pub fn decode_tokens_for(&self, model: ModelId) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.model == model)
            .map(|o| o.output_tokens as u64)
            .sum()
    }

    /// Decode throughput of one model over the fleet makespan (tokens per
    /// virtual second).
    pub fn decode_throughput_for(&self, model: ModelId) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.decode_tokens_for(model) as f64 / self.makespan
    }

    /// Prompt latency summary of one model's requests.
    pub fn prompt_latency_for(&self, model: ModelId) -> LatencyStats {
        let samples: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.model == model)
            .map(RequestOutcome::prompt_latency)
            .collect();
        LatencyStats::from_samples(&samples)
    }

    /// The `n` links with the largest mean queueing delay.
    pub fn most_congested_links(&self, n: usize) -> Vec<LinkReport> {
        let mut links = self.links.clone();
        links.sort_by(|a, b| {
            b.mean_queue_delay
                .partial_cmp(&a.mean_queue_delay)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        links.truncate(n);
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: RequestId, arrival: f64, first: f64, done: f64, out: usize) -> RequestOutcome {
        RequestOutcome {
            id,
            model: ModelId(id as usize % 2),
            prompt_tokens: 100,
            output_tokens: out,
            arrival,
            first_token_at: first,
            completed_at: done,
            pipeline_depth: 3,
        }
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn request_outcome_latencies() {
        let o = outcome(1, 10.0, 12.0, 22.0, 11);
        assert!((o.prompt_latency() - 2.0).abs() < 1e-9);
        assert!((o.decode_latency_per_token() - 1.0).abs() < 1e-9);
        let single = outcome(2, 0.0, 1.0, 1.0, 1);
        assert_eq!(single.decode_latency_per_token(), 0.0);
    }

    #[test]
    fn report_throughput_and_congestion_ranking() {
        let report = RuntimeReport {
            outcomes: vec![
                outcome(1, 0.0, 1.0, 10.0, 50),
                outcome(2, 0.0, 2.0, 10.0, 50),
            ],
            makespan: 10.0,
            wall_seconds: 0.1,
            kv_transfers: vec![],
            prefix: PrefixStats::default(),
            failovers: vec![],
            replication: ReplicationStats::default(),
            nodes: vec![],
            links: vec![
                LinkReport {
                    from: None,
                    to: Some(NodeId(0)),
                    messages: 10,
                    bytes: 40.0,
                    mean_queue_delay: 0.1,
                    max_queue_delay: 0.2,
                },
                LinkReport {
                    from: Some(NodeId(0)),
                    to: Some(NodeId(1)),
                    messages: 10,
                    bytes: 4e5,
                    mean_queue_delay: 3.0,
                    max_queue_delay: 9.0,
                },
            ],
            replans: vec![],
        };
        assert_eq!(report.completed(), 2);
        assert_eq!(report.decode_tokens(), 100);
        assert!((report.decode_throughput() - 10.0).abs() < 1e-9);
        assert!(report.prompt_latency().mean > 0.0);
        // Per-model breakdown: outcomes 1 and 2 target models 1 and 0.
        assert_eq!(report.outcomes_for(ModelId(1)).len(), 1);
        assert_eq!(report.decode_tokens_for(ModelId(0)), 50);
        assert!((report.decode_throughput_for(ModelId(0)) - 5.0).abs() < 1e-9);
        assert!(report.prompt_latency_for(ModelId(1)).mean > 0.0);
        let worst = report.most_congested_links(1);
        assert_eq!(worst.len(), 1);
        assert_eq!(worst[0].from, Some(NodeId(0)));
    }
}
