//! High availability: KV replication for hot sequences and fail-over
//! accounting.
//!
//! Node failure used to mean abort-and-readmit: every stranded pipeline's KV
//! was purged and its request recomputed from token zero — the most expensive
//! possible recovery.  This module holds the shared (surface-agnostic) pieces
//! of the replicated alternative:
//!
//! * [`ReplicationPolicy`] — *which* requests replicate (a replication factor
//!   applied to hot sequences, chosen by decode-token rank) and at what
//!   cadence (chunks of [`REPLICA_CHUNK_PAGES`] whole KV pages).
//! * [`ReplicaTracker`] — *how far* each request's KV has been replicated to
//!   its standby tenancies.  On failure, tokens decoded since the last
//!   replicated chunk are recomputed; everything else survives — that is the
//!   bounded-token-loss contract.
//! * [`select_standby`] — the deterministic standby choice both surfaces
//!   share: the smallest-id other node of the same model whose layer range
//!   covers the failed stage.
//! * [`FailoverRecord`] / [`ReplicationStats`] — the report entries both
//!   surfaces log, so the availability × throughput trade-off (replication
//!   bandwidth stolen from serving vs recomputation saved) is measurable.
//!
//! Replication traffic itself is priced by the existing
//! [`KvTransferModel`](crate::replan::KvTransferModel) and shipped over each
//! surface's own link model; this module only does the bookkeeping the two
//! surfaces must agree on.

use crate::engine::IdMap;
use crate::placement::LayerRange;
use helix_cluster::NodeId;
use serde::{Deserialize, Serialize};

/// Which requests replicate their KV to a standby tenancy, and how often.
///
/// Replication factor counts total copies: `replication_factor = 1` is
/// today's unreplicated serving, `2` keeps one standby copy per pipeline
/// stage.  "Hot" is decided per request from its decode length (requests
/// that will decode many tokens amortise the replication bandwidth over the
/// most recomputation saved); the threshold is typically chosen by rank via
/// [`hot_threshold_by_rank`](Self::hot_threshold_by_rank).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationPolicy {
    /// Total copies of a hot request's KV (1 = no replication).
    pub replication_factor: usize,
    /// Requests with at least this many output tokens count as hot.
    pub hot_threshold_tokens: usize,
    /// Replication cadence in tokens: a chunk ships each time this many new
    /// tokens are cached (whole KV pages).
    pub chunk_tokens: usize,
}

/// Pages per replica chunk: small enough that a chunk trickles between
/// decode steps, large enough that a long sequence ships few of them.
pub const REPLICA_CHUNK_PAGES: usize = 64;

impl ReplicationPolicy {
    /// No replication: every failure falls back to abort-and-readmit.
    pub fn disabled() -> Self {
        ReplicationPolicy {
            replication_factor: 1,
            hot_threshold_tokens: 0,
            chunk_tokens: REPLICA_CHUNK_PAGES * 16,
        }
    }

    /// Replication factor 2 for every request whose decode length reaches
    /// `hot_threshold_tokens`, chunked at [`REPLICA_CHUNK_PAGES`] pages of
    /// `tokens_per_page` tokens.
    pub fn rf2(hot_threshold_tokens: usize, tokens_per_page: usize) -> Self {
        ReplicationPolicy {
            replication_factor: 2,
            hot_threshold_tokens,
            chunk_tokens: (REPLICA_CHUNK_PAGES * tokens_per_page.max(1)).max(1),
        }
    }

    /// Whether replication is on at all.
    pub fn enabled(&self) -> bool {
        self.replication_factor >= 2
    }

    /// Whether a request with `output_tokens` decode tokens replicates.
    /// Deterministic per request, so both surfaces pick the same hot set.
    pub fn replicates(&self, output_tokens: usize) -> bool {
        self.enabled() && output_tokens >= self.hot_threshold_tokens
    }

    /// The decode-token-rank threshold: the smallest output length within
    /// the hottest `fraction` of `output_lengths` (0 when the fraction
    /// covers everything, `usize::MAX` when it rounds to nobody).
    pub fn hot_threshold_by_rank(output_lengths: &[usize], fraction: f64) -> usize {
        if output_lengths.is_empty() {
            return 0;
        }
        let mut sorted = output_lengths.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let count = ((output_lengths.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        match count {
            0 => usize::MAX,
            n => sorted[n.min(sorted.len()) - 1],
        }
    }
}

/// Replication traffic counters, reported by both surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplicationStats {
    /// Replica chunks shipped (one per stage per milestone).
    pub chunks: u64,
    /// Sequence tokens made durable on standbys (counted once per request,
    /// not once per stage — the recomputation these tokens save).
    pub tokens: u64,
    /// Bytes of replica traffic placed on links (summed over stages).
    pub bytes: f64,
}

impl ReplicationStats {
    /// Accumulates another surface's (or another drain's) counters.
    pub fn merge(&mut self, other: &ReplicationStats) {
        self.chunks += other.chunks;
        self.tokens += other.tokens;
        self.bytes += other.bytes;
    }
}

/// One fail-over the controller handled, for the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailoverRecord {
    /// When the failure was observed (surface seconds).
    pub at: f64,
    /// The node that failed.
    pub node: NodeId,
    /// Requests re-routed onto their replicas (survived with bounded loss).
    pub promoted: Vec<u64>,
    /// Requests with no replica, aborted and re-admitted from scratch.
    pub aborted: Vec<u64>,
    /// Tokens the promoted requests must recompute (decoded since their
    /// last replicated chunk).
    pub tokens_recomputed: u64,
    /// The counterfactual: tokens abort-and-readmit would recompute for the
    /// promoted requests (their entire prompt + decode progress so far).
    pub abort_recompute_tokens: u64,
    /// Tokens that survived on replicas (the recomputation actually saved).
    pub replica_tokens_used: u64,
}

/// One request's replication progress: its standby map and how many of its
/// cached tokens are durable there.
#[derive(Debug, Clone, PartialEq)]
struct ReplicaProgress {
    /// `(primary stage node, standby node)` per pipeline stage.
    standbys: Vec<(NodeId, NodeId)>,
    /// Sequence tokens durable on every standby.
    replicated_tokens: usize,
}

/// Tracks, per replicated request, how far its KV has trickled to its
/// standbys.  Pure bookkeeping — identical on both execution surfaces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaTracker {
    entries: IdMap<u64, ReplicaProgress>,
    stats: ReplicationStats,
}

impl ReplicaTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ReplicaTracker::default()
    }

    /// Starts tracking `request`, replicating each pipeline stage to the
    /// paired standby.  Replaces any previous entry (a re-admitted id starts
    /// from zero).
    pub fn begin(&mut self, request: u64, standbys: Vec<(NodeId, NodeId)>) {
        self.entries.insert(
            request,
            ReplicaProgress {
                standbys,
                replicated_tokens: 0,
            },
        );
    }

    /// Whether `request` is replicating.
    pub fn is_tracked(&self, request: u64) -> bool {
        self.entries.contains_key(&request)
    }

    /// The `(primary, standby)` stage map of `request`.
    pub fn standbys(&self, request: u64) -> &[(NodeId, NodeId)] {
        self.entries
            .get(&request)
            .map(|p| p.standbys.as_slice())
            .unwrap_or(&[])
    }

    /// Sequence tokens of `request` durable on its standbys.
    pub fn replicated_tokens(&self, request: u64) -> usize {
        self.entries
            .get(&request)
            .map(|p| p.replicated_tokens)
            .unwrap_or(0)
    }

    /// Records replication progress: `total_tokens` is the request's cached
    /// sequence length (prompt + decoded so far).  Without `force`,
    /// replication advances to the last whole `chunk_tokens` boundary — the
    /// trickle cadence; with `force` it advances all the way (used at prompt
    /// completion, so a fail-over never re-prefills a replicated prompt).
    ///
    /// Returns the newly durable token count (0 when below the next
    /// boundary or untracked) — the caller ships exactly that many tokens'
    /// pages to each standby and prices them on its own links.
    pub fn record_progress(
        &mut self,
        request: u64,
        total_tokens: usize,
        chunk_tokens: usize,
        force: bool,
    ) -> usize {
        let Some(entry) = self.entries.get_mut(&request) else {
            return 0;
        };
        let chunk = chunk_tokens.max(1);
        let durable = if force {
            total_tokens
        } else {
            (total_tokens / chunk) * chunk
        };
        if durable <= entry.replicated_tokens {
            return 0;
        }
        let delta = durable - entry.replicated_tokens;
        entry.replicated_tokens = durable;
        self.stats.chunks += entry.standbys.len() as u64;
        self.stats.tokens += delta as u64;
        delta
    }

    /// Adds replica-chunk bytes to the traffic counters (the caller computes
    /// them per stage from the transfer model, since stage layer counts
    /// differ).
    pub fn record_bytes(&mut self, bytes: f64) {
        self.stats.bytes += bytes;
    }

    /// Tokens `request` would have to recompute if its primary failed now.
    pub fn loss_if_failed(&self, request: u64, total_tokens: usize) -> usize {
        total_tokens.saturating_sub(self.replicated_tokens(request))
    }

    /// Stops tracking `request` (completed or aborted), returning whether it
    /// was tracked.
    pub fn finish(&mut self, request: u64) -> bool {
        self.entries.remove(&request).is_some()
    }

    /// Requests currently replicating, in id order.
    pub fn tracked(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The accumulated traffic counters.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }

    /// Takes the counters (for reports that must not double-count across
    /// drains).
    pub fn take_stats(&mut self) -> ReplicationStats {
        std::mem::take(&mut self.stats)
    }
}

/// The deterministic standby choice shared by both surfaces: the
/// smallest-id candidate other than `failed` whose layer range covers the
/// failed stage's `layers` (the standby must hold every layer the stage
/// computed, or its replica pages are useless).  `None` means no replica is
/// possible and the fail-over controller falls back to abort-and-readmit.
pub fn select_standby(
    failed: NodeId,
    layers: LayerRange,
    candidates: &[(NodeId, LayerRange)],
) -> Option<NodeId> {
    candidates
        .iter()
        .filter(|&&(node, range)| {
            node != failed && range.start <= layers.start && range.end >= layers.end
        })
        .map(|&(node, _)| node)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_threshold_comes_from_decode_token_rank() {
        let lengths = [10, 400, 50, 200, 100, 30, 800, 20, 60, 5];
        // Hottest 30% of 10 requests = top 3 by decode length: 800, 400, 200.
        assert_eq!(ReplicationPolicy::hot_threshold_by_rank(&lengths, 0.3), 200);
        // Everything hot / nothing hot / empty inputs.
        assert_eq!(ReplicationPolicy::hot_threshold_by_rank(&lengths, 1.0), 5);
        assert_eq!(
            ReplicationPolicy::hot_threshold_by_rank(&lengths, 0.0),
            usize::MAX
        );
        assert_eq!(ReplicationPolicy::hot_threshold_by_rank(&[], 0.5), 0);

        let policy = ReplicationPolicy::rf2(200, 16);
        assert!(policy.enabled());
        assert_eq!(policy.chunk_tokens, REPLICA_CHUNK_PAGES * 16);
        assert!(policy.replicates(200));
        assert!(policy.replicates(800));
        assert!(!policy.replicates(199));
        assert!(!ReplicationPolicy::disabled().replicates(10_000));
    }

    #[test]
    fn tracker_advances_in_chunks_and_bounds_the_loss() {
        let mut tracker = ReplicaTracker::new();
        tracker.begin(7, vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(3))]);
        // Prompt completion force-replicates everything cached so far.
        assert_eq!(tracker.record_progress(7, 100, 64, true), 100);
        assert_eq!(tracker.replicated_tokens(7), 100);
        // Decode trickles: nothing ships until the next 64-token boundary
        // past the already-durable 100.
        assert_eq!(tracker.record_progress(7, 120, 64, false), 0);
        assert_eq!(tracker.loss_if_failed(7, 120), 20);
        assert_eq!(tracker.record_progress(7, 128, 64, false), 28);
        assert_eq!(tracker.replicated_tokens(7), 128);
        assert_eq!(tracker.record_progress(7, 191, 64, false), 0);
        assert_eq!(tracker.loss_if_failed(7, 191), 63);
        assert_eq!(tracker.record_progress(7, 192, 64, false), 64);
        // Two stages ship per milestone; tokens count once per request.
        let stats = tracker.stats();
        assert_eq!(stats.chunks, 6);
        assert_eq!(stats.tokens, 192);
        // Untracked requests never replicate and lose everything.
        assert_eq!(tracker.record_progress(9, 500, 64, true), 0);
        assert_eq!(tracker.loss_if_failed(9, 500), 500);
        assert!(tracker.finish(7));
        assert!(!tracker.finish(7));
        assert!(tracker.tracked().is_empty());
    }

    #[test]
    fn standby_is_the_smallest_covering_other_node() {
        let candidates = [
            (NodeId(0), LayerRange::new(0, 16)),
            (NodeId(1), LayerRange::new(16, 32)),
            (NodeId(2), LayerRange::new(0, 16)),
            (NodeId(4), LayerRange::new(0, 32)),
        ];
        // Node 0's stage [0,16) is covered by nodes 2 and 4: pick 2.
        assert_eq!(
            select_standby(NodeId(0), LayerRange::new(0, 16), &candidates),
            Some(NodeId(2))
        );
        // Node 1's stage [16,32) is covered only by node 4.
        assert_eq!(
            select_standby(NodeId(1), LayerRange::new(16, 32), &candidates),
            Some(NodeId(4))
        );
        // Node 4's stage [0,32): nobody else covers it — abort fallback.
        assert_eq!(
            select_standby(NodeId(4), LayerRange::new(0, 32), &candidates),
            None
        );
    }
}
