//! KV-cache usage estimation (paper §5.2).
//!
//! Output lengths are unknown when a request is scheduled, so the shared
//! [`Actuator`](crate::Actuator) keeps an *estimate* of each node's KV-cache
//! usage, one estimator per model, charged at dispatch and freed at release
//! on both surfaces: every in-flight request is assumed to grow to the
//! running average output length, and — where admission reads the estimate
//! ([`Actuator::estimated_view`](crate::Actuator::estimated_view)) — nodes
//! whose estimated usage exceeds the high-water mark are masked out of IWRR
//! scheduling until requests finish.  The estimator holds usage only: the
//! capacity it is compared with is the node's row
//! ([`ClusterState::kv_capacity_tokens`](crate::ClusterState::kv_capacity_tokens)),
//! and the mask is IWRR's [`above_high_water`](crate::scheduling::iwrr::above_high_water).

use crate::engine::IdMap;
use helix_cluster::{ClusterProfile, NodeId, PrefixId};

/// Coordinator-side estimator of per-node KV-cache usage.  It holds no
/// capacity: a node is masked when
/// `above_high_water(estimated_tokens(node), capacity)` over its row's
/// capacity.
///
/// # Example
///
/// ```rust
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, NodeId};
/// use helix_core::KvCacheEstimator;
///
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::solver_quality_10(),
///     ModelConfig::llama_30b(),
/// );
/// let mut est = KvCacheEstimator::new(&profile, 232.0);
/// est.on_scheduled(NodeId(0), 42, 512);
/// assert!(est.estimated_tokens(NodeId(0)) > 512.0);
/// est.on_finished(NodeId(0), 42, 128);
/// assert_eq!(est.estimated_tokens(NodeId(0)), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct KvCacheEstimator {
    /// Estimated tokens resident, by node index.
    estimated: Vec<f64>,
    /// Requests in flight per node, with their assumed footprint.
    in_flight: IdMap<(NodeId, u64), f64>,
    /// Running average output length used for new requests.
    avg_output_len: f64,
    /// Number of completed requests folded into the average.
    completed: u64,
    /// Shared prefix entries per (node, prefix): their token footprint and
    /// how many in-flight requests reference them.  Counted once per node no
    /// matter how many requests attach — the estimator-side mirror of the
    /// refcounted pool entries on both execution surfaces.
    shared: IdMap<(NodeId, PrefixId), (f64, usize)>,
}

/// The entry of `node` in a per-node table, which grows — with zeros — to
/// hold a node beyond the profile's.
fn entry(table: &mut Vec<f64>, node: NodeId) -> &mut f64 {
    let index = node.index();
    if index >= table.len() {
        table.resize(index + 1, 0.0);
    }
    &mut table[index]
}

impl KvCacheEstimator {
    /// Creates an estimator with an initial average output length (the Azure
    /// Conversation trace averages 232 output tokens).
    pub fn new(profile: &ClusterProfile, initial_avg_output_len: f64) -> Self {
        let num_nodes = profile.cluster().num_nodes();
        KvCacheEstimator {
            estimated: vec![0.0; num_nodes],
            in_flight: IdMap::default(),
            avg_output_len: initial_avg_output_len.max(1.0),
            completed: 0,
            shared: IdMap::default(),
        }
    }

    /// Records that request `request_id` with `prompt_len` prompt tokens was
    /// scheduled onto `node`; its footprint is estimated as prompt length
    /// plus the average output length.
    pub fn on_scheduled(&mut self, node: NodeId, request_id: u64, prompt_len: usize) {
        let footprint = prompt_len as f64 + self.avg_output_len;
        *entry(&mut self.estimated, node) += footprint;
        self.in_flight.insert((node, request_id), footprint);
    }

    /// Records that request `request_id` finished on `node` after producing
    /// `output_len` tokens; frees its estimated footprint and updates the
    /// running average output length.
    pub fn on_finished(&mut self, node: NodeId, request_id: u64, output_len: usize) {
        self.on_aborted(node, request_id);
        self.completed += 1;
        let n = self.completed as f64;
        self.avg_output_len = self.avg_output_len * (n - 1.0) / n + output_len as f64 / n;
    }

    /// Frees the estimated footprint of request `request_id` on `node`
    /// without touching the running average: an aborted incarnation's
    /// partial decode count says nothing about output lengths.
    pub fn on_aborted(&mut self, node: NodeId, request_id: u64) {
        if let Some(footprint) = self.in_flight.remove(&(node, request_id)) {
            if let Some(e) = self.estimated.get_mut(node.index()) {
                *e = (*e - footprint).max(0.0);
            }
        }
    }

    /// Records that a request referencing shared prefix `prefix`
    /// (`tokens` leading prompt tokens) was scheduled onto `node`: the first
    /// attach adds the prefix footprint once, later attaches only bump the
    /// reference count.  Pair every attach with one
    /// [`release_shared`](Self::release_shared) when the request finishes;
    /// the footprint is freed only when the last reference drops.
    ///
    /// Schedule the *suffix* through [`on_scheduled`](Self::on_scheduled)
    /// (prompt length minus the shared range) so the per-request and shared
    /// halves add up to the same bytes the execution surfaces account.
    pub fn attach_shared(&mut self, node: NodeId, prefix: PrefixId, tokens: usize) {
        let shared = self.shared.entry((node, prefix)).or_insert((0.0, 0));
        if shared.1 == 0 {
            shared.0 = tokens as f64;
            *entry(&mut self.estimated, node) += shared.0;
        }
        shared.1 += 1;
    }

    /// Drops one reference to shared prefix `prefix` on `node`; the last
    /// release frees the shared footprint.  Releasing an unknown prefix is
    /// harmless (the entry may have been cleared by a re-plan).
    pub fn release_shared(&mut self, node: NodeId, prefix: PrefixId) {
        if let Some(entry) = self.shared.get_mut(&(node, prefix)) {
            entry.1 = entry.1.saturating_sub(1);
            if entry.1 == 0 {
                let tokens = entry.0;
                self.shared.remove(&(node, prefix));
                if let Some(e) = self.estimated.get_mut(node.index()) {
                    *e = (*e - tokens).max(0.0);
                }
            }
        }
    }

    /// Estimated KV tokens resident on `node`.
    pub fn estimated_tokens(&self, node: NodeId) -> f64 {
        self.estimated.get(node.index()).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduling::iwrr::above_high_water;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn estimator() -> KvCacheEstimator {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        KvCacheEstimator::new(&profile, 200.0)
    }

    #[test]
    fn schedule_and_finish_balance_out() {
        let mut est = estimator();
        let node = NodeId(0);
        est.on_scheduled(node, 1, 100);
        est.on_scheduled(node, 2, 300);
        assert!((est.estimated_tokens(node) - (100.0 + 200.0 + 300.0 + 200.0)).abs() < 1e-9);
        est.on_finished(node, 1, 50);
        est.on_finished(node, 2, 50);
        assert_eq!(est.estimated_tokens(node), 0.0);
        // Finishing an unknown request is harmless.
        est.on_finished(node, 99, 10);
        assert_eq!(est.estimated_tokens(node), 0.0);
    }

    #[test]
    fn average_output_length_tracks_completions() {
        let mut est = estimator();
        let node = NodeId(1);
        for i in 0..10 {
            est.on_scheduled(node, i, 10);
            est.on_finished(node, i, 100);
        }
        // Average moves from the prior (200) towards the observed 100.
        assert!(est.avg_output_len < 200.0);
        assert!(est.avg_output_len >= 100.0);
    }

    #[test]
    fn an_aborted_incarnation_frees_its_footprint_and_leaves_the_average() {
        let mut est = estimator();
        let node = NodeId(0);
        est.on_scheduled(node, 1, 100);
        est.on_scheduled(node, 2, 100);
        est.on_aborted(node, 1);
        assert!((est.estimated_tokens(node) - 300.0).abs() < 1e-9);
        assert_eq!(est.avg_output_len, 200.0, "no completion was folded in");
        // Aborting twice, or what was never scheduled, is harmless.
        est.on_aborted(node, 1);
        est.on_aborted(node, 9);
        assert!((est.estimated_tokens(node) - 300.0).abs() < 1e-9);
        // The first completion replaces the prior; a folded-in abort would
        // have halved it.
        est.on_finished(node, 2, 100);
        assert_eq!(
            (est.estimated_tokens(node), est.avg_output_len),
            (0.0, 100.0)
        );
    }

    #[test]
    fn shared_prefixes_are_counted_once_and_freed_at_refcount_zero() {
        let mut est = estimator();
        let node = NodeId(0);
        let prefix = PrefixId(7);
        // Three requests share a 400-token prefix; each schedules only its
        // suffix and attaches the shared entry.
        for id in 0..3 {
            est.on_scheduled(node, id, 100);
            est.attach_shared(node, prefix, 400);
        }
        // Shared footprint counted once: 3 × (100 + 200 avg) + 400.
        assert!((est.estimated_tokens(node) - (3.0 * 300.0 + 400.0)).abs() < 1e-9);
        est.on_finished(node, 0, 200);
        est.release_shared(node, prefix);
        est.on_finished(node, 1, 200);
        est.release_shared(node, prefix);
        // One reference left: the shared entry is still resident.
        assert!(est.estimated_tokens(node) >= 400.0);
        est.on_finished(node, 2, 200);
        est.release_shared(node, prefix);
        assert_eq!(est.estimated_tokens(node), 0.0);
        // Releasing an unknown prefix is harmless.
        est.release_shared(node, PrefixId(99));
        assert_eq!(est.estimated_tokens(node), 0.0);
    }

    #[test]
    fn high_water_mark_detection() {
        let mut est = estimator();
        let node = NodeId(2);
        // Unlimited capacity: never above high water.
        est.on_scheduled(node, 1, 10_000);
        assert!(!above_high_water(est.estimated_tokens(node), f64::INFINITY));
        assert!(above_high_water(est.estimated_tokens(node), 1_000.0));
        est.on_finished(node, 1, 1);
        assert!(!above_high_water(est.estimated_tokens(node), 1_000.0));
    }

    /// The table is dense over the profile's nodes; a node beyond them reads
    /// as an unused node until something is scheduled onto it.
    #[test]
    fn a_node_beyond_the_profile_reads_empty_until_scheduled() {
        // The study cluster has ten nodes.
        let mut est = estimator();
        let beyond = NodeId(15);
        assert_eq!(est.estimated_tokens(beyond), 0.0);
        est.release_shared(beyond, PrefixId(1));
        assert_eq!(est.estimated_tokens(beyond), 0.0);

        // 100 prompt tokens + the 200-token average output.
        est.on_scheduled(beyond, 1, 100);
        assert!((est.estimated_tokens(beyond) - 300.0).abs() < 1e-9);
        assert!(above_high_water(est.estimated_tokens(beyond), 200.0));
        // The nodes between the profile's last and this one stay empty.
        assert_eq!(est.estimated_tokens(NodeId(12)), 0.0);
        est.on_finished(beyond, 1, 10);
        assert_eq!(est.estimated_tokens(beyond), 0.0);
    }
}
