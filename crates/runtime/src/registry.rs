//! The worker table: one row per (compute node, fleet model) pair the plan
//! has ever named, in the dense [`PairTable`] the simulator keeps its engines
//! in.
//!
//! A row is the simulator's engine ([`NodeEngine`]) and follows its
//! lifecycle; there is nothing to spawn or join: a re-plan's
//! `PlacementDelta` that adds a tenancy [`plan`](Workers::plan)s its row —
//! a new one, built slowed if its node was slowed — and a surviving one
//! takes the new plan's facts in place.  A row is never taken out of the
//! table: one the plan dropped keeps executing what it holds and gets no
//! new pipeline, and the rows of a node that failed start no batch
//! ([`fail`](Workers::fail)) but keep what they hold until a release frees
//! it.  The coordinator reads a row's queue length or counters, and
//! releases, seeds or hands over its KV, by indexing the table; the plane's
//! loop applies deliveries — each hop resolved against the coordinator's
//! request table — batch completions and hand-over arrivals to it
//! ([`deliver`](Workers::deliver), [`batch_done`](Workers::batch_done),
//! [`touch`](Workers::touch)) and starts the batches of the rows they
//! touched once nothing more is due ([`start_touched`](Workers::start_touched)).

use crate::fabric::Fabric;
use crate::runtime::ExecutionKind;
use crate::worker::Worker;
use helix_cluster::{ClusterProfile, ModelId, NodeId};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::{ExecModel, Hop, NodeEngine, PairTable, RequestTable};
use std::collections::HashMap;

/// Key of one worker: the (compute node, fleet model) pair it serves.
pub(crate) type WorkerKey = (NodeId, ModelId);

/// Every worker the plan has ever named.
pub(crate) struct Workers {
    table: PairTable<Worker>,
    /// Rows that may have a batch to start once the current delivery pass
    /// is over (each at most once: [`Worker::touched`]).
    touched: Vec<WorkerKey>,
    /// The execution-model choice every row is built with: the analytic
    /// cost model, or none (instant).
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

    /// The row of `key`.
    pub(crate) fn get(&self, (node, model): WorkerKey) -> Option<&Worker> {
        self.table.get(node, model)
    }

    /// The row of `key`, to change.
    pub(crate) fn get_mut(&mut self, (node, model): WorkerKey) -> Option<&mut Worker> {
        self.table.get_mut(node, model)
    }

    /// The rows of two different pairs at once.
    pub(crate) fn pair_mut(&mut self, [a, b]: [WorkerKey; 2]) -> Option<[&mut Worker; 2]> {
        self.table.pair_mut(a, b)
    }

    /// The rows of one model, in node order.
    pub(crate) fn of_model_mut(&mut self, model: ModelId) -> impl Iterator<Item = &mut Worker> {
        self.table.of_model(model).iter_mut().flatten()
    }

    /// Every row ever planned, sorted by (node, model) — the order reports
    /// and observations are made in.
    pub(crate) fn rows(&self) -> Vec<&Worker> {
        let mut rows: Vec<_> = self.table.iter().map(|(_, _, worker)| worker).collect();
        rows.sort_by_key(|worker| worker.key);
        rows
    }

    /// Puts `(node, model)` in service with the given plan facts.  A row
    /// the table holds takes them **in place**, keeping its queue,
    /// residency and counters (and staying failed if its node failed); a
    /// pair the table never held gets a new row (a pair outside the table
    /// cannot be planned, and stays unroutable).
    pub(crate) fn plan(
        &mut self,
        profile: &ClusterProfile,
        (node, model): WorkerKey,
        name: &str,
        layers: usize,
        kv_capacity_tokens: f64,
    ) {
        let exec = match self.execution {
            ExecutionKind::Analytic => Some(ExecModel::new(profile.node_profile(node))),
            ExecutionKind::Instant => None,
        };
        if let Some(worker) = self.table.get_mut(node, model) {
            return worker.engine.update_plan(exec, layers, kv_capacity_tokens);
        }
        let engine = NodeEngine::new(exec, layers, kv_capacity_tokens, DEFAULT_TOKENS_PER_PAGE);
        let activation = profile.model().activation_bytes();
        let mut worker = Worker::new((node, model), name, activation, engine);
        if let Some(&factor) = self.slowdowns.get(&node) {
            worker.engine.set_slowdown(factor);
        }
        self.table.insert(node, model, worker);
    }

    /// Fails every row of `node`: each drops its executing batch and starts
    /// no other ([`Worker::fail`]).
    pub(crate) fn fail(&mut self, node: NodeId) {
        self.table.of_node_mut(node).for_each(Worker::fail);
    }

    /// Slows every worker of `node`, present and future, to `factor`× the
    /// cost model's prediction.  Workers *measure* the resulting
    /// predicted-vs-actual gap and the re-plan loop reacts to the
    /// measurement, never to the injected value itself.
    pub(crate) fn set_speed(&mut self, node: NodeId, factor: f64) {
        self.slowdowns.insert(node, factor);
        for worker in self.table.of_node_mut(node) {
            worker.engine.set_slowdown(factor);
        }
    }

    /// Applies `apply` to the worker of `key` — nothing happens for a pair
    /// outside the table — and queues the row for
    /// [`start_touched`](Self::start_touched) if that left it idle with work
    /// queued.
    fn with_row(&mut self, key: WorkerKey, apply: impl FnOnce(&mut Worker)) {
        let Some(worker) = self.table.get_mut(key.0, key.1) else {
            return;
        };
        apply(worker);
        if !worker.touched && !worker.engine.is_busy() && worker.engine.queue_len() > 0 {
            worker.touched = true;
            self.touched.push(key);
        }
    }

    /// Resolves `hop` against its lane in `requests` and queues the work
    /// item on the row of its stage: the batch starts once everything due
    /// at this instant is in (a failed row only queues it).  A stale hop —
    /// its incarnation aborted, so its lane is closed or on a newer epoch —
    /// is dropped, as the simulator drops it; so is work for a pair outside
    /// the table.
    pub(crate) fn deliver(&mut self, hop: Hop, requests: &RequestTable) {
        if let Some((node, model, item)) = requests.land(hop) {
            self.with_row((node, model), |worker| worker.engine.enqueue(item));
        }
    }

    /// The batch of `key` queued as due at `at` came up at `now`.
    pub(crate) fn batch_done(
        &mut self,
        key: WorkerKey,
        at: f64,
        now: f64,
        requests: &RequestTable,
        fabric: &mut Fabric,
    ) {
        self.with_row(key, |worker| worker.batch_done(at, now, requests, fabric));
    }

    /// A freeze on `key` may have ended (a hand-over arrived): what the row
    /// holds starts with the touched rows.
    pub(crate) fn touch(&mut self, key: WorkerKey) {
        self.with_row(key, |_| {});
    }

    /// Starts a batch on every row the passes touched — *after* them, so
    /// everything delivered by then joins one batch (§5.1's rule).  Returns
    /// whether any row was waiting.
    pub(crate) fn start_touched(
        &mut self,
        now: f64,
        requests: &RequestTable,
        fabric: &mut Fabric,
    ) -> bool {
        let any = !self.touched.is_empty();
        for (node, model) in self.touched.drain(..) {
            if let Some(worker) = self.table.get_mut(node, model) {
                worker.touched = false;
                worker.start_batch(now, requests, fabric);
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterSpec, ModelConfig};

    fn profile() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
    }

    fn fabric() -> Fabric {
        Fabric::new(ClusterSpec::solver_quality_10())
    }

    fn planned(workers: &mut Workers, key: WorkerKey) {
        let name = format!("n{}", key.0.index());
        workers.plan(&profile(), key, &name, 4, 1_000.0);
    }

    /// A table in which request 1 runs on the single stage `key`, and its
    /// decode hop.
    fn work(key: WorkerKey) -> (RequestTable, Hop) {
        let mut requests = RequestTable::default();
        let hop = crate::message::one_stage_hop(&mut requests, 1, key);
        (requests, hop)
    }

    /// A failed row stays in the table, as the simulator's failed engine
    /// does: what reaches it queues, it starts no batch — not even once a
    /// re-plan gives it new facts — and it keeps its report row.  Work for a
    /// pair outside the table is dropped.
    #[test]
    fn detach_stops_routing_but_keeps_the_report_row() {
        let mut workers = Workers::new(4, 2, ExecutionKind::Analytic);
        let mut fabric = fabric();
        let key = (NodeId(3), ModelId(1));
        planned(&mut workers, key);
        // A batch that takes time: the engine counts it when it starts.
        let (requests, hop) = work(key);
        workers.deliver(hop, &requests);
        workers.start_touched(0.0, &requests, &mut fabric);
        let counters = workers.get(key).unwrap().engine.counters();
        assert!(counters.busy_secs > 0.0);

        workers.fail(NodeId(3));
        workers.deliver(hop, &requests);
        let (outside, hop) = work((NodeId(9), ModelId(0)));
        workers.deliver(hop, &outside);
        workers.start_touched(1.0, &requests, &mut fabric);
        // The row takes a re-plan's facts in place and stays failed.
        workers.plan(&profile(), key, "n3", 6, 500.0);
        workers.touch(key);
        workers.start_touched(2.0, &requests, &mut fabric);

        let rows = workers.rows();
        assert_eq!(rows.len(), 1, "the outside pair dropped its work");
        let row = rows[0];
        assert_eq!((row.key, row.name.as_str()), (key, "n3"));
        assert!(!row.engine.is_busy(), "the running batch was dropped");
        assert_eq!(row.engine.queue_len(), 1, "what reached it queued");
        assert_eq!(row.engine.counters(), counters, "no batch started");
        assert_eq!(row.engine.layers_held(), 6);
    }

    /// A failed row that a re-plan names again is the same row: it keeps
    /// its counters, its KV history and its residency, and takes the new
    /// plan's facts.
    #[test]
    fn respawned_pair_inherits_its_predecessors_counters() {
        let mut workers = Workers::new(4, 2, ExecutionKind::Analytic);
        let mut fabric = fabric();
        let key = (NodeId(3), ModelId(1));
        planned(&mut workers, key);
        let (requests, hop) = work(key);
        workers.deliver(hop, &requests);
        workers.start_touched(0.0, &requests, &mut fabric);
        let worker = workers.get_mut(key).unwrap();
        (worker.batches, worker.decode_tokens) = (7, 40);
        // 2 000 tokens in a 1 000-token pool: a rejection and a peak of 2.
        worker.engine.kv.grow(1, 2_000);
        let counters = worker.engine.counters();

        workers.fail(NodeId(3));
        workers.plan(&profile(), key, "n3", 6, 500.0);

        let rows = workers.rows();
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!((row.batches, row.decode_tokens), (7, 40));
        assert_eq!(row.engine.counters(), counters);
        assert_eq!(row.engine.kv.rejections(), 1);
        assert!(row.engine.kv.peak_utilization() >= 2.0);
        assert_eq!(row.engine.kv.used_tokens(), 2_001.0, "held until released");
        assert_eq!(row.engine.kv.capacity_tokens(), 500.0);
        assert_eq!(row.engine.layers_held(), 6);
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
        let of_model_0: Vec<_> = workers.of_model_mut(ModelId(0)).map(|w| w.key.0).collect();
        assert_eq!(of_model_0, vec![NodeId(0), NodeId(2)], "in node order");
    }

    #[test]
    fn update_meta_rewrites_the_report_layer_count() {
        let mut workers = Workers::new(1, 1, ExecutionKind::Instant);
        let key = (NodeId(0), ModelId(0));
        planned(&mut workers, key);
        workers.get_mut(key).unwrap().engine.kv.seed(1, 64);
        // Planning a pair again updates it in place.
        workers.plan(&profile(), key, "n0", 9, 2_000.0);
        let rows = workers.rows();
        assert_eq!((rows.len(), rows[0].engine.layers_held()), (1, 9));
        assert_eq!(rows[0].engine.kv.used_tokens(), 64.0, "residency survives");
    }

    /// A row built after its node was slowed runs slowed, and a slowdown
    /// reaches every model's row of the node.
    #[test]
    fn slowdowns_reach_present_and_future_rows_of_a_node() {
        let mut workers = Workers::new(2, 2, ExecutionKind::Analytic);
        let mut fabric = fabric();
        let (early, late) = ((NodeId(1), ModelId(0)), (NodeId(1), ModelId(1)));
        planned(&mut workers, early);
        workers.set_speed(NodeId(1), 4.0);
        planned(&mut workers, late);
        planned(&mut workers, (NodeId(0), ModelId(0)));
        let mut requests = RequestTable::default();
        for (request, key) in [early, late, (NodeId(0), ModelId(0))]
            .into_iter()
            .enumerate()
        {
            let hop = crate::message::one_stage_hop(&mut requests, request as u64, key);
            workers.deliver(hop, &requests);
        }
        workers.start_touched(0.0, &requests, &mut fabric);
        // Three batches in flight; the slowed node's take 4× their nominal.
        let factor = |key| {
            let counters = workers.get(key).unwrap().engine.counters();
            counters.busy_secs / counters.nominal_busy_secs
        };
        assert!((factor(early) - 4.0).abs() < 1e-9);
        assert!((factor(late) - 4.0).abs() < 1e-9);
        assert!((factor((NodeId(0), ModelId(0))) - 1.0).abs() < 1e-9);
    }
}
