//! The worker table: one row per (compute node, fleet model) pair the plan
//! has ever named — the shared [`Actuator`]'s rows, in the dense table the
//! simulator keeps its engines in.
//!
//! A row is the simulator's engine ([`NodeEngine`]) plus the runtime's
//! batching glue ([`Worker`]), and follows the engine's lifecycle: the
//! actuator plans, slows, fails, releases, seeds and hands over rows for
//! both surfaces, and a row is never taken out of the table — one the plan
//! dropped keeps executing what it holds and gets no new pipeline, and the
//! rows of a node that failed start no batch but keep what they hold until a
//! release frees it.  What is the runtime's own is how the plane's loop
//! feeds a row: it applies deliveries — each hop resolved against the
//! actuator's request table — batch completions and hand-over arrivals
//! ([`deliver`](Workers::deliver), [`batch_done`](Workers::batch_done),
//! [`touch`](Workers::touch)), and starts the batches of the rows they
//! touched once nothing more is due ([`start_touched`](Workers::start_touched)).

use crate::fabric::Fabric;
use crate::runtime::ExecutionKind;
use crate::worker::Worker;
use helix_cluster::{ModelId, NodeId};
use helix_core::actuator::forward;
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::{Actuator, FleetTopology, Hop};

/// Key of one worker: the (compute node, fleet model) pair it serves.
pub(crate) type WorkerKey = (NodeId, ModelId);

/// Every worker the plan has ever named.
pub(crate) struct Workers {
    /// The rows, the request table and the KV-transfer log.
    pub act: Actuator<Worker>,
    /// Rows that may have a batch to start once the current delivery pass
    /// is over (each at most once: [`Worker::touched`]).
    touched: Vec<WorkerKey>,
}

impl Workers {
    /// A row for every tenancy `fleet` plans, each executing by
    /// `execution` over a pool of the runtime's 16-token pages.
    pub(crate) fn new(fleet: &FleetTopology, execution: ExecutionKind) -> Self {
        let priced = execution == ExecutionKind::Analytic;
        Workers {
            act: Actuator::new(fleet, DEFAULT_TOKENS_PER_PAGE, priced),
            touched: Vec::new(),
        }
    }

    /// The row of `key`.
    pub(crate) fn get(&self, (node, model): WorkerKey) -> Option<&Worker> {
        self.act.rows.get(node, model)
    }

    /// The row of `key`, to change.
    pub(crate) fn get_mut(&mut self, (node, model): WorkerKey) -> Option<&mut Worker> {
        self.act.rows.get_mut(node, model)
    }

    /// Every row ever planned with its key, sorted by (node, model) — the
    /// order reports and observations are made in.
    pub(crate) fn rows(&self) -> Vec<(WorkerKey, &Worker)> {
        let rows = self.act.rows.iter();
        let mut rows: Vec<_> = rows.map(|(node, model, w)| ((node, model), w)).collect();
        rows.sort_by_key(|&(key, _)| key);
        rows
    }

    /// Queues the row of `key` for [`start_touched`](Self::start_touched)
    /// if it is idle with work queued — once: a freeze may have ended (a
    /// hand-over arrived), work landed or a batch finished.
    pub(crate) fn touch(&mut self, key: WorkerKey) {
        let Some(worker) = self.act.rows.get_mut(key.0, key.1) else {
            return;
        };
        if !worker.touched && !worker.engine.is_busy() && worker.engine.queue_len() > 0 {
            worker.touched = true;
            self.touched.push(key);
        }
    }

    /// Resolves `hop` against its lane and queues the work item on the row
    /// of its stage: the batch starts once everything due at this instant
    /// is in (a failed row only queues it).  A stale hop — its incarnation
    /// aborted, so its lane is closed or on a newer epoch — is dropped, as
    /// the simulator drops it; so is work for a pair outside the table.
    pub(crate) fn deliver(&mut self, hop: Hop) {
        let Some((node, model, item)) = self.act.requests.land(hop) else {
            return;
        };
        if let Some(worker) = self.act.rows.get_mut(node, model) {
            worker.engine.enqueue(item);
            self.touch((node, model));
        }
    }

    /// The batch of `key` queued as due at `at` came up at `now`: what it
    /// finished goes onward.
    pub(crate) fn batch_done(&mut self, key: WorkerKey, at: f64, now: f64, fabric: &mut Fabric) {
        let activation_bytes = self.act.activation_bytes(key.1);
        let Some(worker) = self.act.rows.get_mut(key.0, key.1) else {
            return;
        };
        for item in worker.batch_done(at) {
            forward(
                &self.act.requests,
                fabric,
                activation_bytes,
                key.0,
                item,
                now,
            );
        }
        self.touch(key);
    }

    /// Starts a batch on every row the passes touched — *after* them, so
    /// everything delivered by then joins one batch (§5.1's rule) — and
    /// forwards what a batch of no duration finished.  Returns whether any
    /// row was waiting.
    pub(crate) fn start_touched(&mut self, now: f64, fabric: &mut Fabric) -> bool {
        let any = !self.touched.is_empty();
        for (node, model) in self.touched.drain(..) {
            let activation_bytes = self.act.activation_bytes(model);
            let Some(worker) = self.act.rows.get_mut(node, model) else {
                continue;
            };
            worker.touched = false;
            for item in worker.start_batch((node, model), now, fabric) {
                forward(
                    &self.act.requests,
                    fabric,
                    activation_bytes,
                    node,
                    item,
                    now,
                );
            }
        }
        any
    }
}

#[cfg(test)]
/// LLaMA-13B models on four A100s: per model, `(node, first, end)` in
/// quarters of its layers.
pub(crate) fn fleet(models: &[&[(usize, usize, usize)]]) -> FleetTopology {
    use helix_cluster::{ClusterBuilder, GpuType, ModelConfig, Region};
    use helix_core::{fleet::fleet_profiles, FleetPlacement, LayerRange, ModelPlacement};
    let cluster = ClusterBuilder::new("rows-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let configs = vec![ModelConfig::llama_13b(); models.len()];
    let profiles = fleet_profiles(&cluster, &configs);
    let quarter = configs[0].num_layers / 4;
    let placements = models.iter().map(|ranges| {
        let mut placement = ModelPlacement::empty(4);
        for &(node, first, end) in *ranges {
            let layers = LayerRange::new(first * quarter, end * quarter);
            placement.assign(NodeId(node), layers);
        }
        placement
    });
    let placement = FleetPlacement::new(placements.collect());
    FleetTopology::plan(&profiles, &placement, true).unwrap()
}

#[cfg(test)]
/// Gives `request` a slot in `requests` whose lane is the single stage
/// `(node, model)` over layers `[0, 4)`, and returns the decode hop of it.
pub(crate) fn one_stage_hop(
    requests: &mut helix_core::RequestTable,
    request: helix_workload::RequestId,
    (node, model): WorkerKey,
) -> Hop {
    use helix_core::{Dispatch, LayerRange, PipelineStage, RequestPipeline};
    let slot = requests.insert(helix_workload::Request {
        id: request,
        model,
        ..Default::default()
    });
    let stages = vec![PipelineStage {
        node,
        layers: LayerRange::new(0, 4),
    }];
    let dispatch = Dispatch {
        pipeline: std::sync::Arc::new(RequestPipeline { model, stages }),
        epoch: 0,
        prefill_tokens: 1,
        prefix: None,
        resume_tokens: None,
        generated: 0,
    };
    requests.open(slot, &dispatch);
    Hop::decode(slot, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterBuilder, GpuType, Region};
    use std::collections::HashSet;

    /// Model 0 in two halves, on nodes 0 and 3.
    const HALVES: &[(usize, usize, usize)] = &[(0, 0, 2), (3, 2, 4)];
    /// The same pipeline with node 3 holding three quarters.
    const SHIFTED: &[(usize, usize, usize)] = &[(0, 0, 1), (3, 1, 4)];

    fn fabric() -> Fabric {
        Fabric::new(
            ClusterBuilder::new("rows-4")
                .add_nodes(GpuType::A100_80, 4, 1, Region(0))
                .build(),
        )
    }

    /// Delivers one-stage work of `request` to the row `key`.
    fn deliver(workers: &mut Workers, key: WorkerKey, request: u64) {
        let hop = one_stage_hop(&mut workers.act.requests, request, key);
        workers.deliver(hop);
    }

    /// Fails `node`'s rows, as the actuator's fail-over does.
    fn fail(workers: &mut Workers, node: NodeId) {
        let rows = workers.act.rows.of_node_mut(node);
        rows.for_each(|worker| worker.engine.fail());
    }

    /// A failed row stays in the table, as the simulator's failed engine
    /// does: the batch it was running is dropped when its completion comes
    /// due, what reaches it queues, it starts no batch — not even once a
    /// re-plan gives it new facts — and it keeps its report row.  Work for a
    /// pair outside the table is dropped.
    #[test]
    fn detach_stops_routing_but_keeps_the_report_row() {
        let mut workers = Workers::new(&fleet(&[HALVES]), ExecutionKind::Analytic);
        let mut fabric = fabric();
        let key = (NodeId(3), ModelId(0));
        // A batch that takes time: the engine counts it when it starts.
        deliver(&mut workers, key, 1);
        workers.start_touched(0.0, &mut fabric);
        let counters = workers.get(key).unwrap().engine.counters();
        assert!(counters.busy_secs > 0.0);

        fail(&mut workers, NodeId(3));
        let (at, _) = fabric.queue.pop().unwrap();
        workers.batch_done(key, at, at, &mut fabric);
        deliver(&mut workers, key, 2);
        deliver(&mut workers, (NodeId(1), ModelId(1)), 3);
        workers.start_touched(at, &mut fabric);
        // The row takes a re-plan's facts in place and stays failed.
        let shifted = fleet(&[SHIFTED]);
        workers.act.plan(&shifted, &HashSet::new(), [ModelId(0)]);
        workers.touch(key);
        workers.start_touched(at + 1.0, &mut fabric);

        let rows = workers.rows();
        let keys: Vec<WorkerKey> = rows.iter().map(|r| r.0).collect();
        assert_eq!(
            keys,
            [(NodeId(0), ModelId(0)), key],
            "the outside pair dropped its work"
        );
        let row = rows[1].1;
        assert_eq!(row.batches, 0, "the running batch was dropped");
        assert!(!row.engine.is_busy());
        assert_eq!(row.engine.queue_len(), 1, "what reached it queued");
        assert_eq!(row.engine.counters(), counters, "no batch started");
        assert_eq!(row.engine.layers_held(), 30);
        assert!(fabric.take_in_flight().is_empty(), "nothing was forwarded");
    }

    /// A failed row that a re-plan names again is the same row: it keeps
    /// its counters, its KV history and its residency, and takes the new
    /// plan's facts.
    #[test]
    fn respawned_pair_inherits_its_predecessors_counters() {
        let mut workers = Workers::new(&fleet(&[HALVES]), ExecutionKind::Analytic);
        let mut fabric = fabric();
        let key = (NodeId(3), ModelId(0));
        deliver(&mut workers, key, 1);
        workers.start_touched(0.0, &mut fabric);
        let worker = workers.get_mut(key).unwrap();
        (worker.batches, worker.decode_tokens) = (7, 40);
        // Twice the pool: a rejection and a peak of at least 2.
        let capacity = worker.engine.kv.capacity_tokens();
        worker.engine.kv.grow(1, 2 * capacity as usize);
        let (counters, used) = (worker.engine.counters(), worker.engine.kv.used_tokens());

        fail(&mut workers, NodeId(3));
        let shifted = fleet(&[SHIFTED]);
        workers.act.plan(&shifted, &HashSet::new(), [ModelId(0)]);

        let row = workers.get(key).unwrap();
        assert_eq!(workers.rows().len(), 2);
        assert_eq!((row.batches, row.decode_tokens), (7, 40));
        assert_eq!(row.engine.counters(), counters);
        assert_eq!(row.engine.kv.rejections(), 1);
        assert!(row.engine.kv.peak_utilization() >= 2.0);
        assert_eq!(row.engine.kv.used_tokens(), used, "held until released");
        let planned = shifted.model(ModelId(0)).unwrap().node(NodeId(3)).unwrap();
        assert_eq!(row.engine.kv.capacity_tokens(), planned.kv_capacity_tokens);
        assert!(planned.kv_capacity_tokens < capacity);
        assert_eq!(row.engine.layers_held(), 30);
    }

    #[test]
    fn report_rows_are_sorted_by_node_then_model() {
        let workers = Workers::new(
            &fleet(&[&[(0, 0, 2), (2, 2, 4)], &[(0, 0, 4)]]),
            ExecutionKind::Instant,
        );
        let keys: Vec<WorkerKey> = workers.rows().iter().map(|r| r.0).collect();
        assert_eq!(
            keys,
            vec![
                (NodeId(0), ModelId(0)),
                (NodeId(0), ModelId(1)),
                (NodeId(2), ModelId(0)),
            ]
        );
        let of_model_0 = workers
            .act
            .rows
            .iter()
            .filter(|(_, model, _)| model.index() == 0);
        let of_model_0: Vec<_> = of_model_0.map(|(node, _, _)| node).collect();
        assert_eq!(of_model_0, vec![NodeId(0), NodeId(2)], "in node order");
    }

    #[test]
    fn update_meta_rewrites_the_report_layer_count() {
        let mut workers = Workers::new(&fleet(&[HALVES]), ExecutionKind::Instant);
        let key = (NodeId(3), ModelId(0));
        workers.get_mut(key).unwrap().engine.kv.seed(1, 64);
        // Planning a pair again updates it in place.
        workers
            .act
            .plan(&fleet(&[SHIFTED]), &HashSet::new(), [ModelId(0)]);
        let rows = workers.rows();
        assert_eq!((rows.len(), rows[1].1.engine.layers_held()), (2, 30));
        assert_eq!(
            rows[1].1.engine.kv.used_tokens(),
            64.0,
            "residency survives"
        );
    }

    /// A row built after its node was slowed runs slowed, and a slowdown
    /// reaches every model's row of the node.
    #[test]
    fn slowdowns_reach_present_and_future_rows_of_a_node() {
        let second = |node| [(node, 0, 4)];
        let mut workers = Workers::new(&fleet(&[HALVES, &second(1)]), ExecutionKind::Analytic);
        let mut fabric = fabric();
        let (early, late) = ((NodeId(3), ModelId(0)), (NodeId(3), ModelId(1)));
        workers.act.set_slowdown(NodeId(3), 4.0);
        // Model 1 moves onto node 3: its row there is new.
        let moved = fleet(&[HALVES, &second(3)]);
        workers.act.plan(&moved, &HashSet::new(), [ModelId(1)]);
        for (request, key) in [early, late, (NodeId(0), ModelId(0))]
            .into_iter()
            .enumerate()
        {
            deliver(&mut workers, key, request as u64);
        }
        workers.start_touched(0.0, &mut fabric);
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
