//! The worker table: one row per (compute node, fleet model) pair the plan
//! has ever named, in the dense [`PairTable`] the simulator keeps its engines
//! in.
//!
//! Membership is dynamic and there is nothing to spawn or join: a re-plan's
//! `PlacementDelta` that adds a tenancy [`plan`](Workers::plan)s its row —
//! a new one, built slowed if its node was slowed, or a retired one brought
//! back with its counters — and one the plan dropped (once its in-flight
//! pipelines drained) or a failure killed is [`retire`](Workers::retire)d:
//! the fabric's deliveries for it are dropped from then on, and its row stays
//! for the report.  The coordinator reads a row's queue length or counters,
//! and releases, seeds or hands over its KV, by indexing the table; the
//! plane's loop applies deliveries, batch completions and hand-over arrivals
//! to it ([`deliver`](Workers::deliver), [`batch_done`](Workers::batch_done),
//! [`touch`](Workers::touch)) and starts the batches of the rows they
//! touched once nothing more is due ([`start_touched`](Workers::start_touched)).

use crate::exec::{AnalyticExecution, ExecutionModel, InstantExecution};
use crate::fabric::Fabric;
use crate::message::StageWork;
use crate::runtime::ExecutionKind;
use crate::worker::Worker;
use helix_cluster::{ClusterProfile, ModelId, NodeId};
use helix_core::PairTable;
use std::collections::HashMap;

/// Key of one worker: the (compute node, fleet model) pair it serves.
pub(crate) type WorkerKey = (NodeId, ModelId);

/// Every worker the plan has ever named, live or not.
pub(crate) struct Workers {
    table: PairTable<Worker>,
    /// Rows that may have a batch to start once the current delivery pass
    /// is over (each at most once: [`Worker::touched`]).
    touched: Vec<WorkerKey>,
    /// The execution-model choice every row is built with.
    execution: ExecutionKind,
    /// The injected speed factor of every node that has one; a row built
    /// later on such a node starts slowed, as its siblings run.
    slowdowns: HashMap<NodeId, f64>,
}

impl Workers {
    /// An empty table for a cluster of `num_nodes` nodes serving
    /// `num_models` models.
    pub(crate) fn new(num_nodes: usize, num_models: usize, execution: ExecutionKind) -> Self {
        Workers {
            table: PairTable::new(num_nodes, num_models),
            touched: Vec::new(),
            execution,
            slowdowns: HashMap::new(),
        }
    }

    /// The row of `key`, live or not.
    pub(crate) fn get(&self, (node, model): WorkerKey) -> Option<&Worker> {
        self.table.get(node, model)
    }

    /// The row of `key` if the fabric delivers to it.
    pub(crate) fn live_mut(&mut self, (node, model): WorkerKey) -> Option<&mut Worker> {
        self.table.get_mut(node, model).filter(|worker| worker.live)
    }

    /// Whether a live (routable) worker exists for `key`.
    pub(crate) fn is_live(&self, key: WorkerKey) -> bool {
        self.get(key).is_some_and(|worker| worker.live)
    }

    /// The live rows of two different pairs at once.
    pub(crate) fn live_pair_mut(&mut self, [a, b]: [WorkerKey; 2]) -> Option<[&mut Worker; 2]> {
        self.table
            .pair_mut(a, b)
            .filter(|pair| pair.iter().all(|w| w.live))
    }

    /// The live workers of one model, in node order.
    pub(crate) fn live_of_model(&mut self, model: ModelId) -> impl Iterator<Item = &mut Worker> {
        let stride = self.table.of_model(model).iter_mut().flatten();
        stride.filter(|worker| worker.live)
    }

    /// Every row ever planned, sorted by (node, model) — the order reports
    /// and observations are made in.
    pub(crate) fn rows(&self) -> Vec<&Worker> {
        let mut rows: Vec<_> = self.table.iter().map(|(_, _, worker)| worker).collect();
        rows.sort_by_key(|worker| worker.key);
        rows
    }

    /// Puts `(node, model)` in service with the given plan facts.  A live
    /// row takes them **in place**, keeping its queue and residency; a
    /// retired one comes back empty with its counters; a pair the table
    /// never held gets a new row (a pair outside the table cannot be
    /// planned, and stays unroutable).
    pub(crate) fn plan(
        &mut self,
        profile: &ClusterProfile,
        (node, model): WorkerKey,
        name: &str,
        layers: usize,
        kv_capacity_tokens: f64,
    ) {
        let execution: Box<dyn ExecutionModel> = match self.execution {
            ExecutionKind::Analytic => Box::new(AnalyticExecution::new(profile.node_profile(node))),
            ExecutionKind::Instant => Box::new(InstantExecution),
        };
        if let Some(worker) = self.table.get_mut(node, model) {
            return worker.plan(execution, kv_capacity_tokens, layers);
        }
        let activation = profile.model().activation_bytes();
        let key = (node, model);
        let mut worker = Worker::new(key, name, activation, execution, kv_capacity_tokens, layers);
        if let Some(&factor) = self.slowdowns.get(&node) {
            worker.core.set_slowdown(factor);
        }
        self.table.insert(node, model, worker);
    }

    /// Takes one worker out of service (the plan dropped it and its
    /// in-flight pipelines drained, or its node failed): deliveries for it
    /// are dropped from here on; its row stays for the report.
    pub(crate) fn retire(&mut self, key: WorkerKey) {
        if let Some(worker) = self.live_mut(key) {
            worker.retire();
        }
    }

    /// Slows every worker of `node`, present and future, to `factor`× the
    /// cost model's prediction.  Workers *measure* the resulting
    /// predicted-vs-actual gap and the re-plan loop reacts to the
    /// measurement, never to the injected value itself.
    pub(crate) fn set_speed(&mut self, node: NodeId, factor: f64) {
        self.slowdowns.insert(node, factor);
        for worker in self.table.of_node_mut(node) {
            worker.core.set_slowdown(factor);
        }
    }

    /// Applies `apply` to the live worker of `key` — nothing happens for a
    /// retired or unknown one — and queues the row for
    /// [`start_touched`](Self::start_touched) if that left it idle with work
    /// queued.
    fn with_live(&mut self, key: WorkerKey, apply: impl FnOnce(&mut Worker)) {
        let Some(worker) = self.table.get_mut(key.0, key.1).filter(|w| w.live) else {
            return;
        };
        apply(worker);
        if !worker.touched && !worker.core.is_busy() && worker.core.queue_len() > 0 {
            worker.touched = true;
            self.touched.push(key);
        }
    }

    /// Queues `work` on the live worker of its stage: the batch starts once
    /// everything due at this instant is in.  Work for a retired or unknown
    /// worker is dropped.
    pub(crate) fn deliver(&mut self, work: StageWork) {
        let key = (work.node(), work.model());
        self.with_live(key, |worker| worker.core.enqueue(work));
    }

    /// The batch of `key` queued as due at `at` came up at `now`.
    pub(crate) fn batch_done(&mut self, key: WorkerKey, at: f64, now: f64, fabric: &mut Fabric) {
        self.with_live(key, |worker| worker.batch_done(at, now, fabric));
    }

    /// A freeze on `key` may have ended (a hand-over arrived): what the row
    /// holds starts with the touched rows.
    pub(crate) fn touch(&mut self, key: WorkerKey) {
        self.with_live(key, |_| {});
    }

    /// Starts a batch on every row the passes touched — *after* them, so
    /// everything delivered by then joins one batch (§5.1's rule).  Returns
    /// whether any row was waiting.
    pub(crate) fn start_touched(&mut self, now: f64, fabric: &mut Fabric) -> bool {
        let any = !self.touched.is_empty();
        for (node, model) in self.touched.drain(..) {
            if let Some(worker) = self.table.get_mut(node, model) {
                worker.touched = false;
                worker.start_batch(now, fabric);
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn profile() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
    }

    fn fabric() -> Fabric {
        Fabric::new(ClusterSpec::solver_quality_10(), VirtualClock::new(0.0001))
    }

    fn planned(workers: &mut Workers, key: WorkerKey) {
        let name = format!("n{}", key.0.index());
        workers.plan(&profile(), key, &name, 4, 1_000.0);
    }

    fn work((node, model): WorkerKey) -> StageWork {
        StageWork::one_stage(1, node, model)
    }

    #[test]
    fn detach_stops_routing_but_keeps_the_report_row() {
        let mut workers = Workers::new(4, 2, ExecutionKind::Instant);
        let key = (NodeId(3), ModelId(1));
        planned(&mut workers, key);
        assert!(workers.is_live(key));
        workers.deliver(work(key));
        assert_eq!(workers.get(key).unwrap().core.queue_len(), 1);

        workers.live_mut(key).unwrap().batches = 3;
        workers.retire(key);
        assert!(!workers.is_live(key));
        assert!(workers.live_mut(key).is_none());
        assert_eq!(workers.live_of_model(ModelId(1)).count(), 0);
        // Delivery to a retired or out-of-table pair drops the work;
        // retiring twice, or what was never planned, is a no-op.
        workers.deliver(work(key));
        assert_eq!(workers.get(key).unwrap().core.queue_len(), 0);
        let outside = (NodeId(9), ModelId(0));
        workers.deliver(work(outside));
        workers.retire(key);
        workers.retire((NodeId(0), ModelId(0)));
        // The row survives retirement for the final report.
        let rows = workers.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].key, rows[0].batches), (key, 3));
        assert_eq!(rows[0].name, "n3");
    }

    #[test]
    fn respawned_pair_inherits_its_predecessors_counters() {
        let mut workers = Workers::new(2, 1, ExecutionKind::Analytic);
        let mut fabric = fabric();
        let key = (NodeId(1), ModelId(0));
        planned(&mut workers, key);
        // A batch that takes time: the core counts it when it starts.
        workers.deliver(work(key));
        workers.start_touched(0.0, &mut fabric);
        let worker = workers.live_mut(key).unwrap();
        (worker.batches, worker.decode_tokens) = (7, 40);
        // 2 000 tokens in a 1 000-token pool: a rejection and a peak of 2.
        worker.core.kv.grow(1, 2_000);
        let counters = worker.core.counters();
        assert!(counters.busy_secs > 0.0);
        workers.retire(key);

        // Re-adding the tenancy must not lose the first incarnation's work
        // from the report, nor make cumulative counters go backwards: the
        // row comes back — empty, with the new plan's facts — and continues.
        workers.plan(&profile(), key, "n1", 6, 500.0);
        assert!(workers.is_live(key));
        let revived = workers.get(key).unwrap();
        assert_eq!((revived.batches, revived.decode_tokens), (7, 40));
        assert_eq!(revived.core.counters(), counters);
        assert_eq!(revived.core.kv.rejections(), 1);
        assert!(revived.core.kv.peak_utilization() >= 2.0);
        assert_eq!(revived.core.kv.used_tokens(), 0.0);
        assert_eq!(revived.core.kv.capacity_tokens(), 500.0);
        assert_eq!(revived.layers, 6);
    }

    #[test]
    fn report_rows_are_sorted_by_node_then_model() {
        let mut workers = Workers::new(3, 2, ExecutionKind::Instant);
        for key in [
            (NodeId(2), ModelId(0)),
            (NodeId(0), ModelId(1)),
            (NodeId(0), ModelId(0)),
        ] {
            planned(&mut workers, key);
        }
        let keys: Vec<WorkerKey> = workers.rows().iter().map(|w| w.key).collect();
        assert_eq!(
            keys,
            vec![
                (NodeId(0), ModelId(0)),
                (NodeId(0), ModelId(1)),
                (NodeId(2), ModelId(0)),
            ]
        );
        let of_model_0: Vec<_> = workers.live_of_model(ModelId(0)).map(|w| w.key.0).collect();
        assert_eq!(of_model_0, vec![NodeId(0), NodeId(2)], "in node order");
    }

    #[test]
    fn update_meta_rewrites_the_report_layer_count() {
        let mut workers = Workers::new(1, 1, ExecutionKind::Instant);
        let key = (NodeId(0), ModelId(0));
        planned(&mut workers, key);
        workers.live_mut(key).unwrap().core.kv.seed(1, 64);
        // Planning a live pair again updates it in place.
        workers.plan(&profile(), key, "n0", 9, 2_000.0);
        let rows = workers.rows();
        assert_eq!((rows.len(), rows[0].layers), (1, 9));
        assert_eq!(rows[0].core.kv.used_tokens(), 64.0, "residency survives");
    }

    /// A row built after its node was slowed runs slowed, and a slowdown
    /// reaches every model's row of the node, retired ones included.
    #[test]
    fn slowdowns_reach_present_and_future_rows_of_a_node() {
        let mut workers = Workers::new(2, 2, ExecutionKind::Analytic);
        let mut fabric = fabric();
        let (early, late) = ((NodeId(1), ModelId(0)), (NodeId(1), ModelId(1)));
        planned(&mut workers, early);
        workers.set_speed(NodeId(1), 4.0);
        planned(&mut workers, late);
        planned(&mut workers, (NodeId(0), ModelId(0)));
        for key in [early, late, (NodeId(0), ModelId(0))] {
            workers.deliver(work(key));
        }
        workers.start_touched(0.0, &mut fabric);
        // Three batches in flight; the slowed node's take 4× their nominal.
        let factor = |key| {
            let counters = workers.get(key).unwrap().core.counters();
            counters.busy_secs / counters.nominal_busy_secs
        };
        assert!((factor(early) - 4.0).abs() < 1e-9);
        assert!((factor(late) - 4.0).abs() < 1e-9);
        assert!((factor((NodeId(0), ModelId(0))) - 1.0).abs() < 1e-9);
    }
}
