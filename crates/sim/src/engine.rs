//! Per-node execution engine: the shared [`EngineCore`] plus the simulator's
//! cost model and `SimTime` scheduling.

use crate::event::{SimTime, WorkItem};
use helix_cluster::NodeProfile;
use helix_core::engine::{EngineCore, Work, WorkMeta};
use helix_core::exec_model::{ExecModel, WorkUnit};
use std::ops::{Deref, DerefMut};

/// The simulator caches whole tokens against the planned `f64` capacity:
/// 1-token pages make the shared page table exactly that accounting (see
/// [`helix_core::engine`]).  Moving to the runtime's 16 changes modelled
/// results and needs `perf/exact.json` re-recorded.
const SIM_TOKENS_PER_PAGE: usize = 1;

impl Work for WorkItem {
    fn meta(&self) -> WorkMeta {
        WorkMeta {
            request: self.request,
            phase: self.hop.phase,
            tokens: self.hop.tokens as usize,
            layers: self.layers,
            prefix: self.prefix,
        }
    }
}

/// The execution engine of one compute node.
///
/// Mirrors the behaviour of the paper's per-node worker (§5.1): best-effort
/// dynamic batching (a new batch starts as soon as the previous one finishes
/// and includes everything that arrived in the meantime), separate prompt and
/// decode token costs, and a finite paged KV cache whose exhaustion forces
/// slow offloading (§5.2).  Batching, layer-range freezes, KV residency and
/// the overflow rule are the shared [`EngineCore`]'s — every method of it is
/// available on the engine through `Deref` — so the runtime's workers behave
/// the same by construction; this type adds the analytic cost model and
/// turns the core's batch durations into completion times.
#[derive(Debug, Clone)]
pub struct NodeEngine {
    /// Layers this node holds (length of its assigned range).
    layers_held: usize,
    /// The shared execution cost model (same formula as the runtime).
    exec: ExecModel,
    core: EngineCore<WorkItem>,
}

impl Deref for NodeEngine {
    type Target = EngineCore<WorkItem>;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl DerefMut for NodeEngine {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.core
    }
}

impl NodeEngine {
    /// Creates the engine for a node holding `layers_held` layers.
    pub fn new(profile: &NodeProfile, layers_held: usize, kv_capacity_tokens: f64) -> Self {
        NodeEngine {
            layers_held,
            exec: ExecModel::new(profile),
            core: EngineCore::new(kv_capacity_tokens, SIM_TOKENS_PER_PAGE),
        }
    }

    /// Number of layers the node holds.
    pub fn layers_held(&self) -> usize {
        self.layers_held
    }

    /// KV-cache tokens currently resident (per-request entries plus shared
    /// prefixes, the latter counted once each).
    pub fn kv_used_tokens(&self) -> f64 {
        self.core.kv.used_tokens()
    }

    /// KV-cache capacity in tokens, exactly as planned.
    pub fn kv_capacity_tokens(&self) -> f64 {
        self.core.kv.capacity_tokens()
    }

    /// Re-plans can move layers, re-partition a shared node's KV pool *and
    /// re-split its compute* between tenants; the drain/hand-over protocol
    /// updates the standing engine in place so in-flight batches and cached
    /// tokens survive the switch.  The execution cost model is rebuilt from
    /// the re-planned (share-scaled) node profile, so a surviving engine
    /// prices its batches exactly like a freshly created one would — the
    /// analytic contention split applies to live engines, not only to
    /// engines created after the re-plan.
    pub fn update_plan(
        &mut self,
        profile: &NodeProfile,
        layers_held: usize,
        kv_capacity_tokens: f64,
    ) {
        self.layers_held = layers_held;
        self.core.kv.resize(kv_capacity_tokens);
        self.exec = ExecModel::new(profile);
    }

    /// The execution cost model the engine currently prices batches with.
    pub fn exec_model(&self) -> &ExecModel {
        &self.exec
    }

    /// Starts a batch if the node is idle and work is pending.  Returns the
    /// completion time of the batch, or `None` if no batch was started.
    pub fn try_start_batch(&mut self, now: SimTime) -> Option<SimTime> {
        let exec = &self.exec;
        let run = self.core.start_batch(now, |batch| {
            exec.batch_secs(batch.iter().map(|item| WorkUnit {
                phase: item.hop.phase,
                tokens: item.hop.tokens as usize,
                layers: item.layers.len(),
            }))
        })?;
        Some(now + run.actual_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Hop, Phase};
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, NodeId};
    use helix_core::LayerRange;

    // Batching, freezes, KV residency and the throughput window are the
    // core's and are tested in `crates/core/tests/engine_core.rs`; what is
    // tested here is what this type adds.

    fn engine(kv_capacity_tokens: f64) -> NodeEngine {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        NodeEngine::new(profile.node_profile(NodeId(0)), 10, kv_capacity_tokens)
    }

    fn item(request: u64, phase: Phase, tokens: u32) -> WorkItem {
        WorkItem {
            request,
            hop: Hop {
                epoch: 0,
                slot: 0,
                tokens,
                stage: 0,
                phase,
            },
            layers: LayerRange::new(0, 10),
            prefix: None,
        }
    }

    #[test]
    fn batches_complete_after_the_cost_models_duration() {
        let mut e = engine(10_000.0);
        assert!(e.try_start_batch(0.0).is_none(), "no work, no batch");
        e.enqueue(item(1, Phase::Decode, 1));
        let done = e.try_start_batch(2.0).unwrap();
        assert!(done > 2.0 + helix_core::exec_model::BATCH_OVERHEAD_SECS);
        assert!((done - 2.0 - e.counters().busy_secs).abs() < 1e-12);
        let mut done = Vec::new();
        e.complete_batch(&mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(e.layers_held(), 10);
    }

    #[test]
    fn prompt_tokens_cost_less_per_token_than_decode() {
        let mut e = engine(10_000.0);
        e.enqueue(item(1, Phase::Prompt, 100));
        let prompt_done = e.try_start_batch(0.0).unwrap();

        let mut e2 = engine(10_000.0);
        for i in 0..100 {
            e2.enqueue(item(i, Phase::Decode, 1));
        }
        let decode_done = e2.try_start_batch(0.0).unwrap();
        // 100 prompt tokens in one batch are much faster than 100 decode tokens.
        assert!(prompt_done < decode_done);
    }

    #[test]
    fn overflow_compares_whole_tokens_against_the_planned_fractional_capacity() {
        // 1-token pages: residency is the token count and the capacity is
        // the planned `f64`, so 50 tokens fit 50.5 and the 51st overflows.
        let mut fits = engine(50.5);
        let mut over = engine(50.5);
        fits.enqueue(item(1, Phase::Prompt, 50));
        over.enqueue(item(1, Phase::Prompt, 51));
        let fast = fits.try_start_batch(0.0).unwrap();
        let slow = over.try_start_batch(0.0).unwrap();
        assert!(slow > fast * 2.0, "the overflowing batch is penalised");
        assert_eq!(over.kv_used_tokens(), 51.0, "overflow is still recorded");
        assert_eq!(over.kv_capacity_tokens(), 50.5);
        over.complete_batch(&mut Vec::new());
        over.release_request(1);
        assert_eq!(over.kv_used_tokens(), 0.0);
    }
}
