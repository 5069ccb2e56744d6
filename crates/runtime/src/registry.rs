//! The live worker set shared by the coordinator and the network fabric —
//! both on one thread, so the sharing is an `Rc` and the mutability a
//! `RefCell` (no borrow is held across an `.await`).
//!
//! The pre-session runtime fixed its worker set at build time: the fabric
//! owned an immutable `HashMap` of delivery channels and online re-planning
//! could only re-weight the workers that already existed.  The registry makes
//! membership dynamic: the coordinator can [`spawn`](WorkerSpawner::spawn) a
//! worker for a (node, model) pair the moment a re-plan's `PlacementDelta`
//! adds that tenancy, and [`detach`](WorkerRegistry::detach) one once its
//! in-flight pipelines have drained — while the fabric keeps routing over
//! whatever the set currently is.
//!
//! Workers are tasks on the data plane's executor, so the registry keeps no
//! join handles: a worker finishes when it processes its shutdown, and the
//! executor's `drain` runs every task to completion at teardown.

use crate::clock::VirtualClock;
use crate::exec::{AnalyticExecution, ExecutionModel, InstantExecution};
use crate::fabric::Fabric;
use crate::message::{PlanUpdate, RuntimeMsg};
use crate::runtime::ExecutionKind;
use crate::worker::{self, SharedWorkerStats, WorkerConfig, WorkerStats};
use helix_cluster::{ClusterProfile, ModelId, NodeId};
use minirt::channel::{unbounded, Sender};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Key of one worker: the (compute node, fleet model) pair it serves.
pub(crate) type WorkerKey = (NodeId, ModelId);

/// Report-facing facts about one worker that outlive its task.
#[derive(Debug, Clone)]
pub(crate) struct WorkerMeta {
    /// Human-readable node name from the cluster spec.
    pub name: String,
    /// Layers the worker's node holds for its model.
    pub layers: usize,
}

#[derive(Default)]
struct RegistryInner {
    /// Columns of the `model × node` table: the cluster's node count.
    num_nodes: usize,
    /// Delivery channel per live worker, at
    /// `model.index() * num_nodes + node.index()`; detached workers are
    /// removed here (the fabric drops messages for them) but keep their
    /// stats and meta.  Sized for the whole cluster × fleet, because
    /// re-plans spawn workers for pairs the first plan did not have.
    txs: Vec<Option<Sender<RuntimeMsg>>>,
    /// Shared statistics of every worker ever registered.
    stats: HashMap<WorkerKey, SharedWorkerStats>,
    /// Report metadata of every worker ever registered.
    meta: HashMap<WorkerKey, WorkerMeta>,
}

impl RegistryInner {
    fn slot(&self, (node, model): WorkerKey) -> Option<usize> {
        let slot = model.index() * self.num_nodes + node.index();
        (node.index() < self.num_nodes && slot < self.txs.len()).then_some(slot)
    }

    fn tx(&self, key: WorkerKey) -> Option<&Sender<RuntimeMsg>> {
        self.txs[self.slot(key)?].as_ref()
    }

    /// Every live worker's channel with its pair, model by model in node
    /// order.
    fn live(&self) -> impl Iterator<Item = (WorkerKey, &Sender<RuntimeMsg>)> {
        let n = self.num_nodes;
        let txs = self.txs.iter().enumerate();
        txs.filter_map(move |(i, tx)| Some(((NodeId(i % n), ModelId(i / n)), tx.as_ref()?)))
    }
}

/// Mutable worker membership: who exists, how to reach them, and the
/// statistics they publish.  Confined to the data-plane thread.
pub(crate) struct WorkerRegistry {
    inner: RefCell<RegistryInner>,
}

impl WorkerRegistry {
    /// An empty registry for a cluster of `num_nodes` nodes serving
    /// `num_models` models.
    pub(crate) fn new(num_nodes: usize, num_models: usize) -> Self {
        // At least one column, so a slot always splits into its pair.
        let num_nodes = num_nodes.max(1);
        WorkerRegistry {
            inner: RefCell::new(RegistryInner {
                num_nodes,
                txs: (0..num_nodes * num_models).map(|_| None).collect(),
                ..RegistryInner::default()
            }),
        }
    }

    /// Registers a newly spawned worker under `key` (a pair outside the
    /// table cannot be planned, and stays unroutable).
    ///
    /// A pair that is re-added after an earlier incarnation retired seeds
    /// the new worker's cumulative counters (busy/nominal seconds, batches,
    /// tokens, rejections) from its predecessor, so the final report's
    /// per-(node, model) totals stay complete and observation windows —
    /// which mark cumulative counters — stay monotonic.
    pub(crate) fn register(
        &self,
        key: WorkerKey,
        tx: Sender<RuntimeMsg>,
        stats: SharedWorkerStats,
        meta: WorkerMeta,
    ) {
        let mut inner = self.inner.borrow_mut();
        if let Some(previous) = inner.stats.get(&key) {
            let prev = previous.borrow().clone();
            let mut fresh = stats.borrow_mut();
            fresh.busy_secs += prev.busy_secs;
            fresh.nominal_busy_secs += prev.nominal_busy_secs;
            fresh.batches += prev.batches;
            fresh.prompt_tokens += prev.prompt_tokens;
            fresh.decode_tokens += prev.decode_tokens;
            fresh.kv_rejections += prev.kv_rejections;
            fresh.kv_peak_utilization = fresh.kv_peak_utilization.max(prev.kv_peak_utilization);
        }
        if let Some(slot) = inner.slot(key) {
            inner.txs[slot] = Some(tx);
        }
        inner.stats.insert(key, stats);
        inner.meta.insert(key, meta);
    }

    /// Whether a live (routable) worker exists for `key`.
    pub(crate) fn is_routable(&self, key: WorkerKey) -> bool {
        self.inner.borrow().tx(key).is_some()
    }

    /// Hands `msg` to the live worker of `key`, in place; a message for a
    /// detached or unknown worker is dropped.
    pub(crate) fn deliver(&self, key: WorkerKey, msg: RuntimeMsg) {
        if let Some(tx) = self.inner.borrow().tx(key) {
            let _ = tx.send(msg);
        }
    }

    /// Sends `msg` to every live worker of `node`, across models.
    pub(crate) fn send_to_node(&self, node: NodeId, msg: RuntimeMsg) {
        let inner = self.inner.borrow();
        for (_, tx) in inner.live().filter(|&((n, _), _)| n == node) {
            let _ = tx.send(msg.clone());
        }
    }

    /// The live worker keys of one model, in node order.
    pub(crate) fn live_keys_for_model(&self, model: ModelId) -> Vec<WorkerKey> {
        let inner = self.inner.borrow();
        let keys = inner.live().map(|(key, _)| key);
        keys.filter(|&(_, m)| m == model).collect()
    }

    /// The shared statistics handle of one worker (live or detached).
    pub(crate) fn stats(&self, key: WorkerKey) -> Option<SharedWorkerStats> {
        self.inner.borrow().stats.get(&key).cloned()
    }

    /// Updates the report metadata of one worker after an in-place plan
    /// update changed its layer assignment.
    pub(crate) fn update_meta(&self, key: WorkerKey, layers: usize) {
        let mut inner = self.inner.borrow_mut();
        if let Some(meta) = inner.meta.get_mut(&key) {
            meta.layers = layers;
        }
    }

    /// Clones every *live* worker's current statistics, sorted by key for
    /// deterministic iteration (detached workers stop being observed).
    pub(crate) fn live_stats_snapshot(&self) -> Vec<(WorkerKey, WorkerStats)> {
        let inner = self.inner.borrow();
        let mut out: Vec<(WorkerKey, WorkerStats)> = inner
            .live()
            .map(|(key, _)| (key, inner.stats[&key].borrow().clone()))
            .collect();
        out.sort_by_key(|&(key, _)| key);
        out
    }

    /// Report rows for every worker ever registered, sorted by (node, model)
    /// — the same order the pre-session runtime reported in.
    pub(crate) fn report_rows(&self) -> Vec<(WorkerKey, WorkerMeta, WorkerStats)> {
        let inner = self.inner.borrow();
        let mut out: Vec<(WorkerKey, WorkerMeta, WorkerStats)> = inner
            .meta
            .iter()
            .map(|(&key, meta)| {
                let stats = inner.stats[&key].borrow().clone();
                (key, meta.clone(), stats)
            })
            .collect();
        out.sort_by_key(|&(key, _, _)| key);
        out
    }

    /// Retires one worker: sends it a shutdown and removes its delivery
    /// channel so the fabric stops routing to it.  Its statistics and report
    /// metadata survive; its task runs to completion on the executor.
    ///
    /// The caller is responsible for only detaching workers whose in-flight
    /// pipelines have drained (drain-then-switch).
    pub(crate) fn detach(&self, key: WorkerKey) {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.slot(key);
        if let Some(tx) = slot.and_then(|slot| inner.txs[slot].take()) {
            let _ = tx.send(RuntimeMsg::Shutdown);
        }
    }

    /// Sends a shutdown to every live worker.
    pub(crate) fn shutdown_all(&self) {
        let inner = self.inner.borrow();
        for (_, tx) in inner.live() {
            let _ = tx.send(RuntimeMsg::Shutdown);
        }
    }
}

/// Everything needed to spawn one more worker mid-run: the executor, the
/// clock, the fabric, the execution-model choice the original build
/// used and the slowdowns injected so far.
pub(crate) struct WorkerSpawner {
    pub executor: minirt::Executor,
    pub clock: VirtualClock,
    pub fabric: Rc<Fabric>,
    pub execution: ExecutionKind,
    pub registry: Rc<WorkerRegistry>,
    /// The injected speed factor of every node that has one; a worker
    /// spawned later on such a node starts slowed, as its siblings run.
    pub slowdowns: HashMap<NodeId, f64>,
}

impl WorkerSpawner {
    /// Slows every worker of `node`, present and future, to `factor`× the
    /// cost model's prediction.
    pub(crate) fn set_speed(&mut self, node: NodeId, factor: f64) {
        self.slowdowns.insert(node, factor);
        self.registry
            .send_to_node(node, RuntimeMsg::SetSpeed(factor));
    }

    /// Builds the execution model a worker of `node` should run under the
    /// current plan.
    fn execution_for(&self, profile: &ClusterProfile, node: NodeId) -> Arc<dyn ExecutionModel> {
        match self.execution {
            ExecutionKind::Analytic => Arc::new(AnalyticExecution::new(profile.node_profile(node))),
            ExecutionKind::Instant => Arc::new(InstantExecution),
        }
    }

    /// Spawns and registers a worker task for `(node, model)` with the given
    /// plan facts.  If a live worker already exists for the pair, its plan is
    /// updated **in place** instead: the worker swaps its execution model and
    /// re-sizes its KV pool without dropping queued work — surviving
    /// tenancies track a re-plan just like the simulator's re-split engines.
    pub(crate) fn spawn(
        &self,
        profile: &ClusterProfile,
        node: NodeId,
        model: ModelId,
        name: &str,
        layers: usize,
        kv_capacity_tokens: f64,
    ) {
        if self.registry.is_routable((node, model)) {
            let update = PlanUpdate {
                execution: self.execution_for(profile, node),
                kv_capacity_tokens,
                layers,
            };
            let msg = RuntimeMsg::UpdatePlan(update);
            self.registry.deliver((node, model), msg);
            self.registry.update_meta((node, model), layers);
            return;
        }
        let (tx, rx) = unbounded::<RuntimeMsg>();
        if let Some(&factor) = self.slowdowns.get(&node) {
            let _ = tx.send(RuntimeMsg::SetSpeed(factor));
        }
        let stats = SharedWorkerStats::default();
        let config = WorkerConfig {
            node,
            model,
            activation_bytes: profile.model().activation_bytes(),
            kv_capacity_tokens,
        };
        let _handle = worker::spawn_worker(
            &self.executor,
            config,
            self.execution_for(profile, node),
            self.clock,
            rx,
            Rc::clone(&self.fabric),
            Rc::clone(&stats),
        );
        self.registry.register(
            (node, model),
            tx,
            stats,
            WorkerMeta {
                name: name.to_string(),
                layers,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirt::channel::Receiver;

    fn dummy_entry(registry: &WorkerRegistry, key: WorkerKey) -> Receiver<RuntimeMsg> {
        let (tx, rx) = unbounded::<RuntimeMsg>();
        let stats = SharedWorkerStats::default();
        registry.register(
            key,
            tx,
            stats,
            WorkerMeta {
                name: format!("n{}", key.0.index()),
                layers: 4,
            },
        );
        rx
    }

    #[test]
    fn detach_stops_routing_but_keeps_the_report_row() {
        let registry = WorkerRegistry::new(4, 2);
        let key = (NodeId(3), ModelId(1));
        let rx = dummy_entry(&registry, key);
        assert!(registry.is_routable(key));
        registry.deliver(key, RuntimeMsg::SetSpeed(2.0));
        assert!(matches!(rx.try_recv(), Ok(RuntimeMsg::SetSpeed(_))));

        registry.detach(key);
        assert!(!registry.is_routable(key));
        assert!(matches!(rx.try_recv(), Ok(RuntimeMsg::Shutdown)));
        // Delivery to a detached or out-of-table pair drops the message.
        registry.deliver(key, RuntimeMsg::SetSpeed(2.0));
        registry.deliver((NodeId(9), ModelId(0)), RuntimeMsg::SetSpeed(2.0));
        assert!(rx.try_recv().is_err());
        // Stats and meta survive detachment for the final report.
        assert!(registry.stats(key).is_some());
        let rows = registry.report_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, key);
    }

    #[test]
    fn respawned_pair_inherits_its_predecessors_counters() {
        let registry = WorkerRegistry::new(2, 1);
        let key = (NodeId(1), ModelId(0));
        let _rx = dummy_entry(&registry, key);
        {
            let stats = registry.stats(key).unwrap();
            let mut s = stats.borrow_mut();
            s.busy_secs = 3.0;
            s.batches = 7;
            s.decode_tokens = 40;
        }
        registry.detach(key);

        // Re-adding the tenancy must not lose the first incarnation's work
        // from the report, nor make cumulative counters go backwards.
        let _rx2 = dummy_entry(&registry, key);
        let seeded = registry.stats(key).unwrap().borrow().clone();
        assert_eq!(seeded.batches, 7);
        assert_eq!(seeded.decode_tokens, 40);
        assert!((seeded.busy_secs - 3.0).abs() < 1e-12);
        registry.shutdown_all();
    }

    #[test]
    fn report_rows_are_sorted_by_node_then_model() {
        let registry = WorkerRegistry::new(3, 2);
        for key in [
            (NodeId(2), ModelId(0)),
            (NodeId(0), ModelId(1)),
            (NodeId(0), ModelId(0)),
        ] {
            let _ = dummy_entry(&registry, key);
        }
        let keys: Vec<WorkerKey> = registry.report_rows().iter().map(|r| r.0).collect();
        assert_eq!(
            keys,
            vec![
                (NodeId(0), ModelId(0)),
                (NodeId(0), ModelId(1)),
                (NodeId(2), ModelId(0)),
            ]
        );
        assert_eq!(registry.live_keys_for_model(ModelId(0)).len(), 2);
        registry.shutdown_all();
    }

    #[test]
    fn update_meta_rewrites_the_report_layer_count() {
        let registry = WorkerRegistry::new(1, 1);
        let key = (NodeId(0), ModelId(0));
        let _rx = dummy_entry(&registry, key);
        registry.update_meta(key, 9);
        assert_eq!(registry.report_rows()[0].1.layers, 9);
    }
}
