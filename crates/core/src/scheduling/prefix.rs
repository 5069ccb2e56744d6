//! Prefix-aware (cache-aware) request routing.
//!
//! Many serving workloads share long prompt prefixes — system prompts,
//! few-shot templates, multi-turn session history.  Computing the shared
//! range once per node and letting later requests *attach* to the resident
//! KV pages (RadixAttention / paged-KV style sharing) saves both prefill
//! compute and cache capacity, but only if the scheduler routes sharers to
//! the node that already holds the prefix.  [`PrefixRouter`] adds that
//! affinity on top of the base IWRR scheduler:
//!
//! - **Hit** — the prefix already has a *home pipeline* and every node on it
//!   is below the KV high-water mark: reuse that pipeline, skip prefilling
//!   the shared range.
//! - **Miss** — the prefix has no home yet: the caller schedules through the
//!   base policy and [`adopt`](PrefixRouter::adopt)s the resulting pipeline
//!   as the prefix's home.
//! - **Bypass** — the home exists but is saturated: fall back to plain IWRR
//!   with sharing disabled for this request, rather than pile more load onto
//!   a hot node.
//!
//! The router only decides *placement*; reference counting of the actual
//! pages lives in the engine core both execution surfaces run
//! ([`PagedKvPool`](crate::engine::PagedKvPool)) and in the coordinator-side
//! [`KvCacheEstimator`](crate::KvCacheEstimator).

use super::{ClusterState, RequestPipeline};
use crate::exec_model::DEFAULT_TOKENS_PER_PAGE;
use crate::scheduling::iwrr::above_high_water;
use helix_cluster::PrefixId;
use std::collections::HashMap;

/// The shared-prefix work attached to one scheduled request: which prefix it
/// references, how many leading prompt tokens the shared range covers, and
/// whether the request was routed as a cache hit (prefix already resident —
/// skip prefilling the shared range) or a miss (this request materialises
/// the prefix for later sharers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixWork {
    /// The shared prefix referenced.
    pub id: PrefixId,
    /// Leading prompt tokens covered by the shared range.
    pub tokens: usize,
    /// `true` when the prefix was already resident on the pipeline's nodes.
    pub hit: bool,
}

/// Counters describing how much work prefix sharing saved during a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefixStats {
    /// Requests routed to a pipeline already holding their prefix.
    pub prefix_hits: u64,
    /// Requests that materialised a prefix for later sharers.
    pub prefix_misses: u64,
    /// Requests whose prefix home was saturated (fell back to plain IWRR).
    pub prefix_bypasses: u64,
    /// Prefill tokens skipped because the shared range was already resident.
    pub prefill_tokens_saved: u64,
    /// KV pages served from a shared resident prefix instead of being
    /// allocated anew (summed over hits).
    pub shared_pages: u64,
}

impl PrefixStats {
    /// Folds `other` into `self` (plain summation; sums the per-model
    /// routers' counters).
    pub fn merge(&mut self, other: &PrefixStats) {
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.prefix_bypasses += other.prefix_bypasses;
        self.prefill_tokens_saved += other.prefill_tokens_saved;
        self.shared_pages += other.shared_pages;
    }
}

/// Routing decision for one prefix-tagged request.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefixRoute {
    /// The prefix is resident and its home pipeline has KV headroom: reuse
    /// the pipeline and skip prefilling the first `shared_tokens` tokens.
    Hit {
        /// The home pipeline the request should reuse.
        pipeline: RequestPipeline,
        /// Tokens of the shared range actually resident (≤ the request's
        /// own prefix length).
        shared_tokens: usize,
    },
    /// No home yet: schedule through the base policy, then
    /// [`adopt`](PrefixRouter::adopt) the pipeline.
    Miss,
    /// Home exists but is above the high-water mark: schedule through the
    /// base policy with sharing disabled for this request.
    Bypass,
}

#[derive(Debug, Clone)]
struct PrefixHome {
    pipeline: RequestPipeline,
    refcount: usize,
    tokens: usize,
}

/// Per-model cache-aware router layered on top of the base scheduler.
///
/// Not a [`Scheduler`](super::Scheduler) itself: callers consult
/// [`route`](Self::route) first and only fall back to the base policy on a
/// miss or bypass.  Pair every `Hit`/`adopt` with one
/// [`release`](Self::release) when the request finishes, and
/// [`clear`](Self::clear) the router when a re-plan invalidates pipelines.
#[derive(Debug, Clone)]
pub struct PrefixRouter {
    homes: HashMap<PrefixId, PrefixHome>,
    stats: PrefixStats,
}

impl Default for PrefixRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixRouter {
    /// Creates an empty router.  The feasibility check is
    /// [`above_high_water`], and the `shared_pages` counter counts
    /// [`DEFAULT_TOKENS_PER_PAGE`]-token pages.
    pub fn new() -> Self {
        PrefixRouter {
            homes: HashMap::new(),
            stats: PrefixStats::default(),
        }
    }

    /// Routes a request referencing `prefix` whose shared range is `tokens`
    /// tokens long.  On `Hit` the home's reference count is bumped and the
    /// hit is counted; pair it with [`release`](Self::release).  On `Miss`
    /// schedule through the base policy and call [`adopt`](Self::adopt); on
    /// `Bypass` schedule through the base policy and, once the request is
    /// actually admitted, call [`record_bypass`](Self::record_bypass).
    pub fn route(
        &mut self,
        prefix: PrefixId,
        tokens: usize,
        state: &dyn ClusterState,
    ) -> PrefixRoute {
        let Some(home) = self.homes.get_mut(&prefix) else {
            return PrefixRoute::Miss;
        };
        let saturated = home.pipeline.stages.iter().any(|stage| {
            above_high_water(
                state.kv_used_tokens(stage.node),
                state.kv_capacity_tokens(stage.node),
            )
        });
        if saturated {
            return PrefixRoute::Bypass;
        }
        let shared_tokens = home.tokens.min(tokens);
        home.refcount += 1;
        self.stats.prefix_hits += 1;
        self.stats.prefill_tokens_saved += shared_tokens as u64;
        self.stats.shared_pages += shared_tokens.div_ceil(DEFAULT_TOKENS_PER_PAGE) as u64;
        PrefixRoute::Hit {
            pipeline: home.pipeline.clone(),
            shared_tokens,
        }
    }

    /// Registers `pipeline` as the home of `prefix` after a `Miss` was
    /// scheduled through the base policy.  Counts the miss and takes the
    /// first reference; pair with one [`release`](Self::release).
    pub fn adopt(&mut self, prefix: PrefixId, tokens: usize, pipeline: &RequestPipeline) {
        self.stats.prefix_misses += 1;
        self.homes.insert(
            prefix,
            PrefixHome {
                pipeline: pipeline.clone(),
                refcount: 1,
                tokens,
            },
        );
    }

    /// Counts one bypass (home saturated, request admitted via plain IWRR).
    /// Called only after the request is actually admitted so scheduling
    /// retries do not over-count.
    pub fn record_bypass(&mut self) {
        self.stats.prefix_bypasses += 1;
    }

    /// Drops one reference to `prefix`; returns `true` when this was the
    /// last reference and the home was dropped (the execution surfaces free
    /// the shared pages at the same point).  Unknown prefixes return `false`
    /// — the home may have been cleared by a re-plan.
    pub fn release(&mut self, prefix: PrefixId) -> bool {
        let Some(home) = self.homes.get_mut(&prefix) else {
            return false;
        };
        home.refcount = home.refcount.saturating_sub(1);
        if home.refcount == 0 {
            self.homes.remove(&prefix);
            true
        } else {
            false
        }
    }

    /// Forgets all homes (pipelines are invalid after a re-plan).  In-flight
    /// requests keep their pages — the pool refcounts are balanced by their
    /// own release path — so clearing only affects future routing.
    pub fn clear(&mut self) {
        self.homes.clear();
    }

    /// Forgets every home whose pipeline runs through `node` — the targeted
    /// form of [`clear`](Self::clear) for a node (or whole-region) failure.
    /// Unlike a successful re-plan, a failure may leave the rest of the plan
    /// serving, so only homes that actually crossed the dead node are
    /// evicted; later sharers of those prefixes re-route as misses and adopt
    /// a live pipeline.  In-flight references stay balanced: their
    /// [`release`](Self::release) of a now-unknown prefix is a no-op.
    /// Returns how many homes were evicted.
    pub fn evict_node(&mut self, node: helix_cluster::NodeId) -> usize {
        let before = self.homes.len();
        self.homes
            .retain(|_, home| !home.pipeline.nodes().contains(&node));
        before - self.homes.len()
    }

    /// The pipeline currently homing `prefix`, if any.
    pub fn home_of(&self, prefix: PrefixId) -> Option<&RequestPipeline> {
        self.homes.get(&prefix).map(|home| &home.pipeline)
    }

    /// Counters accumulated since the router was built.
    pub fn stats(&self) -> &PrefixStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::LayerRange;
    use crate::scheduling::{IdleClusterState, PipelineStage};
    use helix_cluster::{ModelId, NodeId};

    fn pipeline(node: usize) -> RequestPipeline {
        RequestPipeline {
            model: ModelId(0),
            stages: vec![PipelineStage {
                node: NodeId(node),
                layers: LayerRange::new(0, 4),
            }],
        }
    }

    struct SaturatedState;
    impl ClusterState for SaturatedState {
        fn queue_len(&self, _node: NodeId) -> usize {
            0
        }
        fn recent_throughput(&self, _node: NodeId) -> f64 {
            0.0
        }
        fn kv_used_tokens(&self, _node: NodeId) -> f64 {
            950.0
        }
        fn kv_capacity_tokens(&self, _node: NodeId) -> f64 {
            1000.0
        }
    }

    #[test]
    fn evict_node_clears_only_homes_crossing_the_dead_node() {
        let mut router = PrefixRouter::new();
        router.adopt(PrefixId(1), 64, &pipeline(2));
        router.adopt(PrefixId(2), 32, &pipeline(5));
        assert_eq!(router.evict_node(NodeId(2)), 1);
        assert!(router.home_of(PrefixId(1)).is_none());
        assert!(router.home_of(PrefixId(2)).is_some());
        // A later sharer of the evicted prefix re-routes as a miss instead
        // of hitting the dead pipeline …
        assert_eq!(
            router.route(PrefixId(1), 64, &IdleClusterState),
            PrefixRoute::Miss
        );
        // … and an in-flight sharer's release of it stays a balanced no-op.
        assert!(!router.release(PrefixId(1)));
        assert_eq!(router.evict_node(NodeId(2)), 0);
    }

    #[test]
    fn miss_adopt_hit_release_cycle() {
        let mut router = PrefixRouter::new();
        let prefix = PrefixId(3);
        assert_eq!(
            router.route(prefix, 64, &IdleClusterState),
            PrefixRoute::Miss
        );
        router.adopt(prefix, 64, &pipeline(2));
        // Later sharers hit the home pipeline and skip the shared range.
        match router.route(prefix, 64, &IdleClusterState) {
            PrefixRoute::Hit {
                pipeline: p,
                shared_tokens,
            } => {
                assert_eq!(p.stages[0].node, NodeId(2));
                assert_eq!(shared_tokens, 64);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // A shorter request shares only its own range.
        match router.route(prefix, 40, &IdleClusterState) {
            PrefixRoute::Hit { shared_tokens, .. } => assert_eq!(shared_tokens, 40),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = router.stats();
        assert_eq!(stats.prefix_hits, 2);
        assert_eq!(stats.prefix_misses, 1);
        assert_eq!(stats.prefill_tokens_saved, 104);
        assert_eq!(stats.shared_pages, 4 + 3); // ceil(64/16) + ceil(40/16)
                                               // Three references: the home survives until the last release.
        assert!(!router.release(prefix));
        assert!(!router.release(prefix));
        assert!(router.release(prefix));
        assert!(router.home_of(prefix).is_none());
        // Unknown release is a no-op returning false.
        assert!(!router.release(prefix));
    }

    #[test]
    fn saturated_home_bypasses_instead_of_piling_on() {
        let mut router = PrefixRouter::new();
        let prefix = PrefixId(1);
        router.adopt(prefix, 128, &pipeline(0));
        assert_eq!(
            router.route(prefix, 128, &SaturatedState),
            PrefixRoute::Bypass
        );
        router.record_bypass();
        assert_eq!(router.stats().prefix_bypasses, 1);
        assert_eq!(router.stats().prefix_hits, 0);
        // The home is untouched: once pressure drops the prefix hits again.
        match router.route(prefix, 128, &IdleClusterState) {
            PrefixRoute::Hit { shared_tokens, .. } => assert_eq!(shared_tokens, 128),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn clear_forgets_homes() {
        let mut router = PrefixRouter::new();
        router.adopt(PrefixId(0), 32, &pipeline(1));
        router.clear();
        assert_eq!(
            router.route(PrefixId(0), 32, &IdleClusterState),
            PrefixRoute::Miss
        );
        assert_eq!(router.stats().prefix_misses, 1);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = PrefixStats {
            prefix_hits: 1,
            prefix_misses: 2,
            prefix_bypasses: 3,
            prefill_tokens_saved: 40,
            shared_pages: 5,
        };
        let b = PrefixStats {
            prefix_hits: 10,
            prefix_misses: 20,
            prefix_bypasses: 30,
            prefill_tokens_saved: 400,
            shared_pages: 50,
        };
        a.merge(&b);
        assert_eq!(a.prefix_hits, 11);
        assert_eq!(a.prefix_misses, 22);
        assert_eq!(a.prefix_bypasses, 33);
        assert_eq!(a.prefill_tokens_saved, 440);
        assert_eq!(a.shared_pages, 55);
    }
}
