//! The row table as the plane's loop feeds it: one row per (compute node,
//! fleet model) pair the plan has ever named — the shared
//! [`Actuator`](helix_core::Actuator)'s
//! [`NodeEngine`]s, in the dense table the simulator keeps its engines in.
//!
//! A row follows the engine's lifecycle: the actuator plans, slows, fails,
//! releases, seeds and hands over rows for both surfaces, starts a row's
//! batch, queues its completion on the fabric (or completes a batch of zero
//! duration at once) and forwards what it finished — its `start` /
//! `complete` step, the simulator's.  A row is never taken out of the
//! table: one the plan dropped keeps executing what it holds and gets no
//! new pipeline, and the rows of a node that failed start no batch but keep
//! what they hold until a release frees it.
//!
//! What is the runtime's own is *when* a row starts: the loop applies
//! deliveries — each hop resolved against the actuator's request table —
//! batch completions and hand-over arrivals ([`deliver`](Coordinator::deliver),
//! [`touch`](Coordinator::touch)), and starts the batches of the rows they
//! touched, each at most once, only once nothing more is due
//! ([`start_touched`](Coordinator::start_touched)) — so everything that has
//! arrived by then joins the batch (§5.1's rule).  Hundreds of busy rows
//! overlap their modelled execution because each one's completion is just
//! another entry of the fabric's queue.

use crate::coordinator::Coordinator;
use helix_core::RowKey;
use helix_core::{Hop, NodeEngine};

impl Coordinator {
    /// Every row ever planned with its key, sorted by (node, model) — the
    /// order reports and observations are made in.
    pub(crate) fn rows(&self) -> Vec<(RowKey, &NodeEngine)> {
        let rows = self.act.rows.iter();
        let mut rows: Vec<_> = rows
            .map(|(node, model, row)| ((node, model), row))
            .collect();
        rows.sort_by_key(|&(key, _)| key);
        rows
    }

    /// Queues the row of `key` for [`start_touched`](Self::start_touched)
    /// if it is idle with work queued — once: a freeze may have ended (a
    /// hand-over arrived), work landed or a batch finished.
    pub(crate) fn touch(&mut self, (node, model): RowKey) {
        let Some(row) = self.act.rows.get(node, model) else {
            return;
        };
        let queued = self.queued.get(node, model) == Some(&true);
        if !queued && !row.is_busy() && row.queue_len() > 0 {
            self.queued.insert(node, model, true);
            self.touched.push((node, model));
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
        if let Some(row) = self.act.rows.get_mut(node, model) {
            row.enqueue(item);
            self.touch((node, model));
        }
    }

    /// Starts a batch on every row the passes touched — *after* them, so
    /// everything delivered by then joins one batch (§5.1's rule) — with the
    /// shared [`Actuator::start`](helix_core::Actuator::start).  Returns
    /// whether any row was waiting.
    pub(crate) fn start_touched(&mut self, now: f64) -> bool {
        let any = !self.touched.is_empty();
        for (node, model) in self.touched.drain(..) {
            self.queued.insert(node, model, false);
            self.act.start(&mut self.wire, node, model, now);
        }
        any
    }
}

#[cfg(test)]
/// LLaMA-13B models on four A100s: per model, `(node, first, end)` in
/// quarters of its layers.
pub(crate) fn fleet(models: &[&[(usize, usize, usize)]]) -> helix_core::FleetTopology {
    use helix_cluster::{ClusterBuilder, GpuType, ModelConfig, NodeId, Region};
    use helix_core::{fleet::fleet_profiles, FleetPlacement, FleetTopology};
    use helix_core::{LayerRange, ModelPlacement};
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
/// The plane over `fleet`, its rows executing by `execution`, with IWRR
/// schedulers and no session on the far ends of its channels: a test calls
/// its methods.
pub(crate) fn plane_of(
    fleet: helix_core::FleetTopology,
    execution: crate::ExecutionKind,
) -> Coordinator {
    use crate::clock::VirtualClock;
    use crate::runtime::{PlaneSpec, RuntimeConfig};
    let config = RuntimeConfig {
        execution,
        ..RuntimeConfig::fast_test()
    };
    let schedulers = helix_core::FleetScheduler::iwrr(&fleet).unwrap();
    let (_, inbound) = std::sync::mpsc::channel();
    let (completions, _) = std::sync::mpsc::channel();
    Coordinator::new(PlaneSpec {
        fleet,
        schedulers: schedulers.into_parts(),
        clock: VirtualClock::new(config.wall_per_virtual),
        config,
        policy: None,
        inbound,
        completions,
    })
}

#[cfg(test)]
/// Gives `request` a slot in `requests` whose lane is the single stage
/// `(node, model)` over layers `[0, 4)`, and returns the decode hop of it.
pub(crate) fn one_stage_hop(
    requests: &mut helix_core::RequestTable,
    request: helix_workload::RequestId,
    (node, model): RowKey,
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
    use crate::fabric::{link_reports, take_in_flight};
    use crate::{ExecutionKind, Phase};
    use helix_cluster::TOKEN_WIRE_BYTES;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig, ModelId, NodeId, PrefixId};
    use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
    use helix_core::Actuator;
    use helix_core::{BatchTotals, Dispatch, ExecModel, LayerRange, PipelineStage};
    use helix_core::{LinkWire, WireEvent};
    use helix_core::{PerturbationEvent, RequestPipeline, RequestTable, Wire, WorkItem};
    use helix_workload::Request;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Model 0 in two halves, on nodes 0 and 3.
    const HALVES: &[(usize, usize, usize)] = &[(0, 0, 2), (3, 2, 4)];
    /// The same pipeline with node 3 holding three quarters.
    const SHIFTED: &[(usize, usize, usize)] = &[(0, 0, 1), (3, 1, 4)];

    /// Delivers one-stage work of `request` to the row `key`.
    fn deliver(plane: &mut Coordinator, key: RowKey, request: u64) {
        let hop = one_stage_hop(&mut plane.act.requests, request, key);
        plane.deliver(hop);
    }

    /// The row of `key`.
    fn row_of(plane: &Coordinator, (node, model): RowKey) -> &NodeEngine {
        plane.act.rows.get(node, model).unwrap()
    }

    /// The row of `key`, to change.
    fn row_of_mut(plane: &mut Coordinator, (node, model): RowKey) -> &mut NodeEngine {
        plane.act.rows.get_mut(node, model).unwrap()
    }

    /// Fails `node`'s rows, as the actuator's fail-over does.
    fn fail(plane: &mut Coordinator, node: NodeId) {
        plane.act.rows.of_node_mut(node).for_each(NodeEngine::fail);
    }

    /// A failed row stays in the table, as the simulator's failed engine
    /// does: the batch it was running is dropped when its completion comes
    /// due, what reaches it queues, it starts no batch — not even once a
    /// re-plan gives it new facts — and it keeps its report row.  Work for a
    /// pair outside the table is dropped.
    #[test]
    fn detach_stops_routing_but_keeps_the_report_row() {
        let mut plane = plane_of(fleet(&[HALVES]), ExecutionKind::Analytic);
        let key = (NodeId(3), ModelId(0));
        // A batch that takes time: the engine counts it when it starts.
        deliver(&mut plane, key, 1);
        plane.start_touched(0.0);
        let counters = row_of(&plane, key).counters();
        assert!(counters.busy_secs > 0.0);

        fail(&mut plane, NodeId(3));
        let (at, _) = plane.wire.queue.pop().unwrap();
        plane.act.complete(&mut plane.wire, key.0, key.1, at);
        deliver(&mut plane, key, 2);
        deliver(&mut plane, (NodeId(1), ModelId(1)), 3);
        plane.start_touched(at);
        // The row takes a re-plan's facts in place and stays failed.
        let shifted = fleet(&[SHIFTED]);
        plane.act.plan(&shifted, &HashSet::new(), [ModelId(0)]);
        plane.touch(key);
        plane.start_touched(at + 1.0);

        let rows = plane.rows();
        let keys: Vec<RowKey> = rows.iter().map(|r| r.0).collect();
        assert_eq!(
            keys,
            [(NodeId(0), ModelId(0)), key],
            "the outside pair dropped its work"
        );
        let row = rows[1].1;
        assert_eq!(row.totals().batches, 0, "the running batch was dropped");
        assert!(!row.is_busy());
        assert_eq!(row.queue_len(), 1, "what reached it queued");
        assert_eq!(row.counters(), counters, "no batch started");
        assert_eq!(row.layers_held(), 30);
        assert!(
            take_in_flight(&mut plane.wire).is_empty(),
            "nothing was forwarded"
        );
    }

    /// A failed row that a re-plan names again is the same row: it keeps
    /// its counters, its KV history and its residency, and takes the new
    /// plan's facts.
    #[test]
    fn respawned_pair_inherits_its_predecessors_counters() {
        let mut plane = plane_of(fleet(&[HALVES]), ExecutionKind::Analytic);
        let key = (NodeId(3), ModelId(0));
        deliver(&mut plane, key, 1);
        plane.start_touched(0.0);
        let (at, _) = plane.wire.queue.pop().unwrap();
        plane.act.complete(&mut plane.wire, key.0, key.1, at);
        let totals = BatchTotals {
            batches: 1,
            prompt_tokens: 0,
            decode_tokens: 1,
        };
        let row = row_of_mut(&mut plane, key);
        assert_eq!(row.totals(), totals);
        // Twice the pool: a rejection and a peak of at least 2.
        let capacity = row.kv.capacity_tokens();
        row.kv.grow(1, 2 * capacity as usize);
        let (counters, used) = (row.counters(), row.kv.used_tokens());

        fail(&mut plane, NodeId(3));
        let shifted = fleet(&[SHIFTED]);
        plane.act.plan(&shifted, &HashSet::new(), [ModelId(0)]);

        let row = row_of(&plane, key);
        assert_eq!(plane.rows().len(), 2);
        assert_eq!(row.totals(), totals);
        assert_eq!(row.counters(), counters);
        assert_eq!(row.kv.rejections(), 1);
        assert!(row.kv.peak_utilization() >= 2.0);
        assert_eq!(row.kv.used_tokens(), used, "held until released");
        let planned = shifted.model(ModelId(0)).unwrap().node(NodeId(3)).unwrap();
        assert_eq!(row.kv.capacity_tokens(), planned.kv_capacity_tokens);
        assert!(planned.kv_capacity_tokens < capacity);
        assert_eq!(row.layers_held(), 30);
    }

    #[test]
    fn report_rows_are_sorted_by_node_then_model() {
        let plane = plane_of(
            fleet(&[&[(0, 0, 2), (2, 2, 4)], &[(0, 0, 4)]]),
            ExecutionKind::Instant,
        );
        let keys: Vec<RowKey> = plane.rows().iter().map(|r| r.0).collect();
        assert_eq!(
            keys,
            vec![
                (NodeId(0), ModelId(0)),
                (NodeId(0), ModelId(1)),
                (NodeId(2), ModelId(0)),
            ]
        );
        let of_model_0 = plane
            .act
            .rows
            .iter()
            .filter(|(_, model, _)| model.index() == 0);
        let of_model_0: Vec<_> = of_model_0.map(|(node, _, _)| node).collect();
        assert_eq!(of_model_0, vec![NodeId(0), NodeId(2)], "in node order");
    }

    #[test]
    fn update_meta_rewrites_the_report_layer_count() {
        let mut plane = plane_of(fleet(&[HALVES]), ExecutionKind::Instant);
        let key = (NodeId(3), ModelId(0));
        row_of_mut(&mut plane, key).kv.seed(1, 64);
        // Planning a pair again updates it in place.
        plane
            .act
            .plan(&fleet(&[SHIFTED]), &HashSet::new(), [ModelId(0)]);
        let rows = plane.rows();
        assert_eq!((rows.len(), rows[1].1.layers_held()), (2, 30));
        assert_eq!(rows[1].1.kv.used_tokens(), 64.0, "residency survives");
    }

    /// A row built after its node was slowed runs slowed, and a slowdown
    /// reaches every model's row of the node.
    #[test]
    fn slowdowns_reach_present_and_future_rows_of_a_node() {
        let second = |node| [(node, 0, 4)];
        let mut plane = plane_of(fleet(&[HALVES, &second(1)]), ExecutionKind::Analytic);
        let (early, late) = ((NodeId(3), ModelId(0)), (NodeId(3), ModelId(1)));
        let slowdown = PerturbationEvent::NodeSlowdown {
            at: 0.0,
            node: NodeId(3),
            factor: 4.0,
        };
        let (control, wire) = (&mut plane.control, &mut plane.wire);
        plane.act.perturb(control, wire, &slowdown, 0.0);
        // Model 1 moves onto node 3: its row there is new.
        let moved = fleet(&[HALVES, &second(3)]);
        plane.act.plan(&moved, &HashSet::new(), [ModelId(1)]);
        for (request, key) in [early, late, (NodeId(0), ModelId(0))]
            .into_iter()
            .enumerate()
        {
            deliver(&mut plane, key, request as u64);
        }
        plane.start_touched(0.0);
        // Three batches in flight; the slowed node's take 4× their nominal.
        let factor = |key| {
            let counters = row_of(&plane, key).counters();
            counters.busy_secs / counters.nominal_busy_secs
        };
        assert!((factor(early) - 4.0).abs() < 1e-9);
        assert!((factor(late) - 4.0).abs() < 1e-9);
        assert!((factor((NodeId(0), ModelId(0))) - 1.0).abs() < 1e-9);
    }

    // One row driven through the shared batch step, `Actuator::{start,
    // complete}`, over the runtime's wire: work arrives in passes, and
    // what a batch finishes leaves on the fabric.

    /// Layers of the two stages: node 0 computes `[0, 4)`, node 1 `[4, 8)`.
    const STAGES: [(usize, LayerRange); 2] = [
        (0, LayerRange { start: 0, end: 4 }),
        (1, LayerRange { start: 4, end: 8 }),
    ];

    /// A table in which request `r < 8` holds slot `r` and a lane on the
    /// two-stage pipeline.
    fn lanes() -> RequestTable {
        let stages = STAGES.map(|(node, layers)| PipelineStage {
            node: NodeId(node),
            layers,
        });
        let pipeline = Arc::new(RequestPipeline {
            model: ModelId::default(),
            stages: stages.to_vec(),
        });
        let mut requests = RequestTable::default();
        for id in 0..8 {
            let slot = requests.insert(Request {
                id,
                ..Request::default()
            });
            let dispatch = Dispatch {
                pipeline: Arc::clone(&pipeline),
                epoch: 0,
                prefill_tokens: 1,
                prefix: None,
                resume_tokens: None,
                generated: 0,
            };
            requests.open(slot, &dispatch);
        }
        requests
    }

    /// The analytic cost model of node 1 of the study cluster: every batch
    /// takes time.
    fn analytic() -> Option<ExecModel> {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        Some(ExecModel::new(profile.node_profile(NodeId(1))))
    }

    /// The key of the row under test on `node`.
    fn key(node: usize) -> RowKey {
        (NodeId(node), ModelId::default())
    }

    /// Live instant-execution rows of 4 layers on nodes 0 and 1 over pools
    /// of `kv_capacity` tokens, the requests' lanes, and a fabric over the
    /// 10-node study cluster to send into — no loop: a test calls the
    /// actuator and reads the queue.
    fn test_rows(kv_capacity: f64) -> (Actuator, LinkWire<WireEvent>) {
        let halves = fleet(&[&[(0, 0, 2), (1, 2, 4)]]);
        let mut act = Actuator::new(&halves, DEFAULT_TOKENS_PER_PAGE, false);
        for (node, _) in STAGES {
            let engine = NodeEngine::new(None, 4, kv_capacity, DEFAULT_TOKENS_PER_PAGE);
            act.rows.insert(NodeId(node), ModelId::default(), engine);
        }
        act.requests = lanes();
        (act, LinkWire::new(ClusterSpec::solver_quality_10(), true))
    }

    /// The row under test on `node`.
    fn engine(act: &mut Actuator, node: usize) -> &mut NodeEngine {
        act.rows.get_mut(NodeId(node), ModelId::default()).unwrap()
    }

    fn work(request: u64, phase: Phase, tokens: u32, stage: u16) -> WorkItem {
        let hop = Hop {
            epoch: 0,
            slot: request as u32,
            tokens,
            stage,
            phase,
        };
        WorkItem {
            request,
            hop,
            layers: STAGES[usize::from(stage)].1,
            prefix: None,
        }
    }

    /// The batch step's start on the row of `node` at `now`.
    fn start(act: &mut Actuator, node: usize, now: f64, wire: &mut LinkWire<WireEvent>) {
        let (node, model) = key(node);
        act.start(wire, node, model, now);
    }

    /// The batch step's completion on the row of `node` at `now`.
    fn done(act: &mut Actuator, node: usize, now: f64, wire: &mut LinkWire<WireEvent>) {
        let (node, model) = key(node);
        act.complete(wire, node, model, now);
    }

    /// Queues `items` on the row of `node` in one pass and starts the batch
    /// after it, as the loop does.
    fn pass(
        act: &mut Actuator,
        node: usize,
        wire: &mut LinkWire<WireEvent>,
        items: impl IntoIterator<Item = WorkItem>,
    ) {
        for item in items {
            engine(act, node).enqueue(item);
        }
        start(act, node, 0.0, wire);
    }

    #[test]
    fn first_stage_forwards_to_the_next_node_and_last_stage_reports_back() {
        let (mut act, mut wire) = test_rows(100_000.0);
        pass(&mut act, 0, &mut wire, [work(5, Phase::Prompt, 64, 0)]);

        let (_, forwarded) = take_in_flight(&mut wire).pop().unwrap();
        let WireEvent::NodeArrival(next) = forwarded else {
            panic!("expected forwarded work, got {forwarded:?}");
        };
        assert_eq!((next.slot, next.stage, next.tokens), (5, 1, 64));
        assert_eq!(next.phase, Phase::Prompt);
        let links = link_reports(&wire);
        let link = (links[0].from, links[0].to);
        assert_eq!(link, (Some(NodeId(0)), Some(NodeId(1))));
        assert!(
            links[0].bytes > 16_384.0,
            "prompt activations scale with token count"
        );
        let row = engine(&mut act, 0);
        assert_eq!(row.totals().prompt_tokens, 64);
        assert_eq!(row.totals().batches, 1);
        assert!(row.kv.used_tokens() >= 64.0);

        // The same work executed on the *last* stage reports to the
        // coordinator.
        let (mut act, mut wire) = test_rows(100_000.0);
        pass(&mut act, 1, &mut wire, [work(5, Phase::Prompt, 64, 1)]);
        let (_, done) = take_in_flight(&mut wire).pop().unwrap();
        assert!(matches!(
            done,
            WireEvent::TokenAtCoordinator { slot: 5, .. }
        ));
    }

    #[test]
    fn release_frees_the_kv_pool_and_rejections_are_counted() {
        let (mut act, mut wire) = test_rows(64.0);
        // 128 tokens cannot fit in a 64-token pool: the batch still runs,
        // the allocation is recorded (modelled offload) and counted.
        pass(&mut act, 0, &mut wire, [work(1, Phase::Prompt, 128, 0)]);
        let row = engine(&mut act, 0);
        assert_eq!(row.kv.used_tokens(), 128.0, "the overflow is resident");
        assert_eq!(row.kv.peak_utilization(), 2.0, "8 pages used of 4");
        row.release_request(1);
        pass(&mut act, 0, &mut wire, [work(2, Phase::Prompt, 32, 0)]);
        let row = engine(&mut act, 0);
        assert_eq!(row.kv.rejections(), 1);
        assert!(
            (row.kv.used_tokens() - 32.0).abs() < 1e-9,
            "request 1 was released"
        );
        assert_eq!(row.queue_len(), 0);
    }

    /// §5.1's rule: what one pass delivered is one batch, because the batch
    /// starts after the pass.  (Start it on delivery and this is three
    /// batches of one.)
    #[test]
    fn everything_delivered_in_one_pass_joins_one_batch() {
        let (mut act, mut wire) = test_rows(100_000.0);
        let three = (0..3).map(|request| work(request, Phase::Decode, 1, 1));
        pass(&mut act, 1, &mut wire, three);
        let totals = engine(&mut act, 1).totals();
        assert_eq!(totals.batches, 1);
        assert_eq!(totals.decode_tokens, 3);
        assert_eq!(take_in_flight(&mut wire).len(), 3);
    }

    #[test]
    fn a_row_never_runs_two_batches_at_once() {
        let (mut act, mut wire) = test_rows(100_000.0);
        engine(&mut act, 1).update_plan(analytic(), 4, 100_000.0);
        pass(&mut act, 1, &mut wire, [work(1, Phase::Decode, 1, 1)]);
        // A batch that takes time is an entry of the fabric's queue, due at
        // start + duration; nothing is forwarded before it.
        let (at, event) = wire.queue.pop().unwrap();
        assert!(matches!(event, WireEvent::BatchComplete(due) if due == key(1)));
        assert!(at > 0.0);
        assert_eq!(at, engine(&mut act, 1).counters().busy_secs);
        assert_eq!(engine(&mut act, 1).totals().batches, 0);

        // Work that lands meanwhile queues behind the running batch.
        pass(&mut act, 1, &mut wire, [work(2, Phase::Decode, 1, 1)]);
        assert_eq!(engine(&mut act, 1).queue_len(), 1);
        assert!(
            wire.queue.peek_time().is_none(),
            "no second batch was started"
        );

        done(&mut act, 1, 0.5, &mut wire);
        assert_eq!(engine(&mut act, 1).totals().batches, 1);
        let (arrives, token) = take_in_flight(&mut wire).pop().unwrap();
        assert!(matches!(
            token,
            WireEvent::TokenAtCoordinator { slot: 1, .. }
        ));
        // It left at 0.5 on the row's so far unused link to the coordinator.
        let mut fresh: LinkWire<WireEvent> = LinkWire::new(ClusterSpec::solver_quality_10(), true);
        let sent = fresh.transfer(0.5, (Some(NodeId(1)), None), TOKEN_WIRE_BYTES);
        assert_eq!(arrives, sent, "stamped when the completion was applied");
        // The loop starts the next batch after the passes that completed
        // one; it is the same shape, so it takes as long.
        start(&mut act, 1, 0.5, &mut wire);
        assert_eq!(wire.queue.peek_time(), Some(0.5 + at));
    }

    /// Ordering change of the one-loop plane: the task-per-worker plane
    /// applied what landed during a batch after the batch.  Work queues on
    /// delivery, and a release — a call since KV bookkeeping stopped being
    /// a message — frees the pool under the running batch.
    #[test]
    fn a_message_landing_mid_batch_is_applied_on_delivery() {
        let (mut act, mut wire) = test_rows(100_000.0);
        engine(&mut act, 1).update_plan(analytic(), 4, 100_000.0);
        pass(&mut act, 1, &mut wire, [work(1, Phase::Prompt, 64, 1)]);
        let row = engine(&mut act, 1);
        assert!(row.is_busy());
        assert_eq!(row.kv.used_tokens(), 64.0);
        row.enqueue(work(2, Phase::Decode, 1, 1));
        assert_eq!(row.queue_len(), 1, "queued on delivery");
        row.release_request(1);
        assert!(row.is_busy(), "the batch keeps running");
        assert_eq!(row.kv.used_tokens(), 0.0, "released at once");
    }

    /// A failed row follows the simulator's failed engine: it starts no
    /// batch, and what it holds stays until a release frees it.  The batch
    /// it was executing is dropped, uncounted and unforwarded, when its
    /// completion comes due — every item of it belongs to a pipeline the
    /// failure stranded, whose work is stale.
    #[test]
    fn a_failed_row_drops_its_running_batch_and_keeps_its_counters() {
        let (mut act, mut wire) = test_rows(100_000.0);
        pass(&mut act, 1, &mut wire, [work(1, Phase::Decode, 1, 1)]);
        take_in_flight(&mut wire);
        engine(&mut act, 1).update_plan(analytic(), 4, 100_000.0);
        pass(&mut act, 1, &mut wire, [work(2, Phase::Decode, 1, 1)]);
        engine(&mut act, 1).enqueue(work(3, Phase::Decode, 1, 1));
        let (at, _) = wire.queue.pop().unwrap();

        let row = engine(&mut act, 1);
        row.fail();
        assert_eq!(row.queue_len(), 1, "queued work stays");
        assert_eq!(row.kv.used_tokens(), 2.0, "so does residency");
        // The completion of the running batch drops it, and what reaches
        // the row queues behind no batch.
        done(&mut act, 1, at, &mut wire);
        assert!(!engine(&mut act, 1).is_busy());
        pass(&mut act, 1, &mut wire, [work(4, Phase::Decode, 1, 1)]);
        assert!(take_in_flight(&mut wire).is_empty(), "nothing is forwarded");
        assert_eq!(wire.queue.peek_time(), None, "no batch started");
        let row = engine(&mut act, 1);
        assert_eq!(row.queue_len(), 2);
        let totals = row.totals();
        assert_eq!((totals.batches, totals.decode_tokens), (1, 1));
        row.release_request(1);
        row.release_request(2);
        assert_eq!(row.kv.used_tokens(), 0.0, "a release frees it");
    }

    #[test]
    fn frozen_layers_hold_their_work_while_other_layers_keep_executing() {
        let (mut act, mut wire) = test_rows(100_000.0);
        // Freeze [0, 4) until t = 1: stage-1 work on layers [4, 8) must keep
        // executing.
        engine(&mut act, 1).freeze(LayerRange::new(0, 4), 1.0);
        pass(&mut act, 1, &mut wire, [work(1, Phase::Decode, 1, 1)]);
        assert!(
            matches!(
                take_in_flight(&mut wire).pop().unwrap().1,
                WireEvent::TokenAtCoordinator { slot: 1, .. }
            ),
            "disjoint layers execute through a freeze"
        );

        // Freeze [4, 8) too: now stage-1 work queues.
        engine(&mut act, 1).freeze(LayerRange::new(4, 8), 1.0);
        pass(&mut act, 1, &mut wire, [work(2, Phase::Decode, 1, 1)]);
        assert!(
            take_in_flight(&mut wire).is_empty(),
            "intersecting layers are held"
        );
        assert_eq!(engine(&mut act, 1).queue_len(), 1);

        // At the deadline the held range's work runs.
        start(&mut act, 1, 1.0, &mut wire);
        assert!(matches!(
            take_in_flight(&mut wire).pop().unwrap().1,
            WireEvent::TokenAtCoordinator { slot: 2, .. }
        ));
    }

    /// Regression: a sharer whose prefix allocation did not fit used to
    /// detach on release anyway, freeing a prefix another request held.
    #[test]
    fn an_overflowing_sharers_release_leaves_the_prefix_to_the_other_holder() {
        let prefix_work = |request, tokens, hit| WorkItem {
            prefix: Some(helix_core::PrefixWork {
                id: PrefixId(7),
                tokens: 32,
                hit,
            }),
            ..work(request, Phase::Prompt, tokens, 1)
        };
        let (mut act, mut wire) = test_rows(64.0);
        // 3 of 4 pages taken; request 2's 2-page prefix does not fit.
        pass(&mut act, 1, &mut wire, [work(1, Phase::Prompt, 48, 1)]);
        pass(&mut act, 1, &mut wire, [prefix_work(2, 40, false)]);
        assert!(
            engine(&mut act, 1).kv.rejections() > 0,
            "the prefix overflowed"
        );
        engine(&mut act, 1).release_request(1);
        pass(&mut act, 1, &mut wire, [prefix_work(3, 8, true)]);
        let row = engine(&mut act, 1);
        assert_eq!(row.kv.shared_pages(), 2);
        row.release_request(2);
        assert_eq!(row.kv.shared_pages(), 2, "request 3 still holds the prefix");
        row.release_request(3);
        assert_eq!(row.kv.shared_pages(), 0);
        assert_eq!(row.kv.used_tokens(), 0.0);
    }

    #[test]
    fn update_plan_swaps_the_execution_model_and_resizes_the_pool_in_place() {
        let (mut act, mut wire) = test_rows(64.0);
        // Queued work and residency survive the update.
        let row = engine(&mut act, 1);
        row.enqueue(work(1, Phase::Decode, 1, 1));
        row.kv.seed(7, 16);
        row.update_plan(analytic(), 8, 4096.0);
        assert_eq!(row.kv.capacity_tokens(), 4096.0, "pool resized in place");
        assert_eq!(row.kv.used_tokens(), 16.0);
        assert_eq!(row.layers_held(), 8);
        start(&mut act, 1, 0.0, &mut wire);
        assert!(
            engine(&mut act, 1).counters().nominal_busy_secs > 0.0,
            "new execution model prices the batch"
        );
        let (at, _) = wire.queue.pop().unwrap();
        done(&mut act, 1, at, &mut wire);
        assert_eq!(take_in_flight(&mut wire).len(), 1);
    }

    /// A stage of an aborted incarnation — its lane closed when the
    /// control plane dropped the flight — executes where it already queued
    /// but is forwarded nowhere, as the simulator drops it.
    #[test]
    fn finished_work_of_a_closed_lane_goes_nowhere() {
        let (mut act, mut wire) = test_rows(100_000.0);
        act.requests.close(3);
        pass(&mut act, 0, &mut wire, [work(3, Phase::Decode, 1, 0)]);
        assert_eq!(engine(&mut act, 0).totals().batches, 1);
        assert!(take_in_flight(&mut wire).is_empty());
    }
}
