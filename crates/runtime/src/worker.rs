//! Compute-node workers: the rows of the data plane's worker table.
//!
//! Each worker mirrors one compute node of the paper's prototype (Fig. 3): it
//! owns the layers assigned to it by the model placement, keeps a paged KV
//! pool, and runs best-effort dynamic batching — a batch starts as soon as the
//! node is idle and includes every work item that arrived while the previous
//! batch was executing (§5.1).  Finished stages go to the next node in the
//! request's pipeline through the network fabric, or back to the
//! coordinator when the last stage completes.
//!
//! A worker *is* the simulator's engine: a [`NodeEngine`] — the shared
//! [`EngineCore`](helix_core::EngineCore) over the simulator's
//! [`WorkItem`]s, with the layers held and the cost model — decides which
//! queued items batch, which wait behind a frozen layer range, how KV
//! residency grows, when a batch pays the overflow penalty, how long it
//! takes and how a hand-over moves its KV.  This module adds what is
//! genuinely the runtime's: the pending batch-done entry and the report
//! counters.  What a row finished is forwarded by the shared
//! [`forward`](helix_core::actuator::forward) step through the request's
//! lane — the work of an aborted incarnation is dropped there, as the
//! simulator's engines drop it — and planning, slowing, failing, releasing,
//! seeding and handing over a row are the shared
//! [`Actuator`](helix_core::Actuator)'s, which keeps the rows.
//!
//! A worker is **plain data**, not a task: the plane's loop queues the work
//! the fabric delivers on its engine, calls [`Worker::start_batch`] once
//! everything that is due has been delivered, and [`Worker::batch_done`]
//! when the batch's entry in the fabric's queue comes due; each returns
//! what the batch finished, if it did.  A batch of zero duration completes
//! inside `start_batch`.  Hundreds of "busy" workers overlap their modelled
//! execution because each one's completion is just another entry of that
//! queue.

use crate::fabric::{Event, Fabric};
use crate::registry::WorkerKey;
use helix_core::engine::BatchRun;
use helix_core::{NodeEngine, WorkItem};

/// One (compute node, fleet model) tenancy: a shared node has one row per
/// model, each with its own KV-pool partition.
pub(crate) struct Worker {
    /// Queued for a batch start at the end of the current delivery pass.
    pub touched: bool,
    /// Queue, frozen layer ranges, KV pool, batching rules, cost model,
    /// layers held and the busy counters the re-plan loop observes.
    pub engine: NodeEngine,
    /// The executing batch, if it takes time, and when its completion is
    /// due in the fabric's queue.
    running: Option<(f64, BatchRun)>,
    /// The finished batch; its buffer goes back to the engine at the next
    /// completion, so steady-state batching allocates nothing.
    done: Vec<WorkItem>,
    /// Batches executed.
    pub batches: u64,
    /// Prompt tokens processed.
    pub prompt_tokens: u64,
    /// Decode tokens processed.
    pub decode_tokens: u64,
}

impl From<NodeEngine> for Worker {
    /// A row over `engine`, with no history.
    fn from(engine: NodeEngine) -> Self {
        Worker {
            touched: false,
            engine,
            running: None,
            done: Vec::new(),
            batches: 0,
            prompt_tokens: 0,
            decode_tokens: 0,
        }
    }
}

impl AsMut<NodeEngine> for Worker {
    fn as_mut(&mut self) -> &mut NodeEngine {
        &mut self.engine
    }
}

impl Worker {
    /// Starts a batch at `now` if the row `key` is idle and has unfrozen
    /// work — so a row never runs two batches at once.  A batch that takes
    /// time completes when its entry in the fabric's queue comes due; one of
    /// zero duration (every instant-execution run) completes here, and its
    /// items are returned for forwarding.
    pub(crate) fn start_batch(
        &mut self,
        key: WorkerKey,
        now: f64,
        fabric: &mut Fabric,
    ) -> &[WorkItem] {
        let Some(run) = self.engine.try_start_batch(now) else {
            return &[];
        };
        if run.actual_secs.is_finite() && run.actual_secs > 0.0 {
            let at = now + run.actual_secs;
            self.running = Some((at, run));
            fabric.queue.push(at, Event::BatchComplete(key));
            return &[];
        }
        self.complete(run)
    }

    /// The queue entry of the batch due at `at` came up: the batch's items,
    /// for forwarding.  An entry that matches nothing running is dropped.
    pub(crate) fn batch_done(&mut self, at: f64) -> &[WorkItem] {
        match self.running.take_if(|&mut (due, _)| due == at) {
            Some((_, run)) => self.complete(run),
            None => &[],
        }
    }

    /// Accounts the finished batch and returns its items.  The batch of a
    /// row that failed while it ran is dropped uncounted: every item of it
    /// belongs to a pipeline the failure stranded.
    fn complete(&mut self, run: BatchRun) -> &[WorkItem] {
        self.engine.complete_batch(&mut self.done);
        if self.engine.is_failed() {
            return &[];
        }
        self.batches += 1;
        self.prompt_tokens += run.prompt_tokens;
        self.decode_tokens += run.decode_tokens;
        &self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;
    use helix_cluster::{
        ClusterProfile, ClusterSpec, ModelConfig, ModelId, NodeId, PrefixId, TOKEN_WIRE_BYTES,
    };
    use helix_core::actuator::forward;
    use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
    use helix_core::{Dispatch, ExecModel, Hop, LayerRange, PipelineStage, RequestPipeline};
    use helix_core::{RequestTable, Wire};
    use helix_workload::Request;
    use std::sync::Arc;

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

    /// The analytic cost model of node 1: every batch takes time.
    fn analytic() -> Option<ExecModel> {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        Some(ExecModel::new(profile.node_profile(NodeId(1))))
    }

    /// Activation bytes per token of the rows under test.
    const ACTIVATION_BYTES: f64 = 16_384.0;

    /// The key of the row under test on `node`.
    fn row(node: usize) -> WorkerKey {
        (NodeId(node), ModelId::default())
    }

    /// A live instant-execution row over a pool of `kv_capacity` tokens, a
    /// fabric over the 10-node study cluster to send into and the requests'
    /// lanes — no executor, no loop: a test calls the row and reads the
    /// queue.
    fn test_worker(kv_capacity: f64) -> (Worker, Fabric, RequestTable) {
        let engine = NodeEngine::new(None, 4, kv_capacity, DEFAULT_TOKENS_PER_PAGE);
        (
            Worker::from(engine),
            Fabric::new(ClusterSpec::solver_quality_10()),
            lanes(),
        )
    }

    /// [`Worker::start_batch`] on the row `key`, forwarding what finished.
    fn start(
        worker: &mut Worker,
        key: WorkerKey,
        now: f64,
        requests: &RequestTable,
        fabric: &mut Fabric,
    ) {
        for item in worker.start_batch(key, now, fabric) {
            forward(requests, fabric, ACTIVATION_BYTES, key.0, item, now);
        }
    }

    /// [`Worker::batch_done`] at `now` on the row `key`, forwarding what
    /// finished.
    fn done(
        worker: &mut Worker,
        key: WorkerKey,
        at: f64,
        now: f64,
        requests: &RequestTable,
        fabric: &mut Fabric,
    ) {
        for item in worker.batch_done(at) {
            forward(requests, fabric, ACTIVATION_BYTES, key.0, item, now);
        }
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

    /// Queues `items` on the row `key` in one pass and starts the batch
    /// after it, as the loop does.
    fn pass(
        worker: &mut Worker,
        key: WorkerKey,
        fabric: &mut Fabric,
        requests: &RequestTable,
        items: impl IntoIterator<Item = WorkItem>,
    ) {
        for item in items {
            worker.engine.enqueue(item);
        }
        start(worker, key, 0.0, requests, fabric);
    }

    #[test]
    fn first_stage_forwards_to_the_next_node_and_last_stage_reports_back() {
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(0);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(5, Phase::Prompt, 64, 0)],
        );

        let (_, forwarded) = fabric.take_in_flight().pop().unwrap();
        let Event::NodeArrival(next) = forwarded else {
            panic!("expected forwarded work, got {forwarded:?}");
        };
        assert_eq!((next.slot, next.stage, next.tokens), (5, 1, 64));
        assert_eq!(next.phase, Phase::Prompt);
        let links = fabric.link_reports();
        let link = (links[0].from, links[0].to);
        assert_eq!(link, (Some(NodeId(0)), Some(NodeId(1))));
        assert!(
            links[0].bytes > 16_384.0,
            "prompt activations scale with token count"
        );
        assert_eq!(worker.prompt_tokens, 64);
        assert_eq!(worker.batches, 1);
        assert!(worker.engine.kv.used_tokens() >= 64.0);

        // The same work executed on the *last* stage reports to the
        // coordinator.
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(1);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(5, Phase::Prompt, 64, 1)],
        );
        let (_, done) = fabric.take_in_flight().pop().unwrap();
        assert!(matches!(done, Event::TokenAtCoordinator { slot: 5, .. }));
    }

    #[test]
    fn release_frees_the_kv_pool_and_rejections_are_counted() {
        let (mut worker, mut fabric, requests) = test_worker(64.0);
        let key = row(0);
        // 128 tokens cannot fit in a 64-token pool: the batch still runs,
        // the allocation is recorded (modelled offload) and counted.
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(1, Phase::Prompt, 128, 0)],
        );
        assert_eq!(
            worker.engine.kv.used_tokens(),
            128.0,
            "the overflow is resident"
        );
        assert_eq!(
            worker.engine.kv.peak_utilization(),
            2.0,
            "8 pages used of 4"
        );
        worker.engine.release_request(1);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(2, Phase::Prompt, 32, 0)],
        );
        assert_eq!(worker.engine.kv.rejections(), 1);
        assert!(
            (worker.engine.kv.used_tokens() - 32.0).abs() < 1e-9,
            "request 1 was released"
        );
        assert_eq!(worker.engine.queue_len(), 0);
    }

    /// §5.1's rule: what one pass delivered is one batch, because the batch
    /// starts after the pass.  (Start it on delivery and this is three
    /// batches of one.)
    #[test]
    fn everything_delivered_in_one_pass_joins_one_batch() {
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(1);
        let three = (0..3).map(|request| work(request, Phase::Decode, 1, 1));
        pass(&mut worker, key, &mut fabric, &requests, three);
        assert_eq!(worker.batches, 1);
        assert_eq!(worker.decode_tokens, 3);
        assert_eq!(fabric.take_in_flight().len(), 3);
    }

    #[test]
    fn a_row_never_runs_two_batches_at_once() {
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(1);
        worker.engine.update_plan(analytic(), 4, 100_000.0);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(1, Phase::Decode, 1, 1)],
        );
        // A batch that takes time is an entry of the fabric's queue, due at
        // start + duration; nothing is forwarded before it.
        let (at, event) = fabric.queue.pop().unwrap();
        assert!(matches!(event, Event::BatchComplete(due) if due == key));
        assert!(at > 0.0);
        assert_eq!(at, worker.engine.counters().busy_secs);
        assert_eq!(worker.batches, 0);

        // Work that lands meanwhile queues behind the running batch.
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(2, Phase::Decode, 1, 1)],
        );
        assert_eq!(worker.engine.queue_len(), 1);
        assert!(
            fabric.queue.peek_time().is_none(),
            "no second batch was started"
        );

        // A completion for another instant matches nothing running.
        done(&mut worker, key, at + 1.0, at + 1.0, &requests, &mut fabric);
        assert_eq!(worker.batches, 0);
        done(&mut worker, key, at, 0.5, &requests, &mut fabric);
        assert_eq!(worker.batches, 1);
        let (arrives, token) = fabric.take_in_flight().pop().unwrap();
        assert!(matches!(token, Event::TokenAtCoordinator { slot: 1, .. }));
        // It left at 0.5 on the row's so far unused link to the coordinator.
        let mut fresh = Fabric::new(ClusterSpec::solver_quality_10());
        let sent = fresh.transfer(0.5, (Some(key.0), None), TOKEN_WIRE_BYTES);
        assert_eq!(arrives, sent, "stamped when the completion was applied");
        // The loop starts the next batch after the passes that completed
        // one; it is the same shape, so it takes as long.
        start(&mut worker, key, 0.5, &requests, &mut fabric);
        assert_eq!(fabric.queue.peek_time(), Some(0.5 + at));
    }

    /// Ordering change of the one-loop plane: the task-per-worker plane
    /// applied what landed during a batch after the batch.  Work queues on
    /// delivery, and a release — a call since KV bookkeeping stopped being
    /// a message — frees the pool under the running batch.
    #[test]
    fn a_message_landing_mid_batch_is_applied_on_delivery() {
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(1);
        worker.engine.update_plan(analytic(), 4, 100_000.0);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(1, Phase::Prompt, 64, 1)],
        );
        assert!(worker.engine.is_busy());
        assert_eq!(worker.engine.kv.used_tokens(), 64.0);
        worker.engine.enqueue(work(2, Phase::Decode, 1, 1));
        assert_eq!(worker.engine.queue_len(), 1, "queued on delivery");
        worker.engine.release_request(1);
        assert!(worker.engine.is_busy(), "the batch keeps running");
        assert_eq!(worker.engine.kv.used_tokens(), 0.0, "released at once");
    }

    /// A failed row follows the simulator's failed engine: it starts no
    /// batch, and what it holds stays until a release frees it.  The batch
    /// it was executing is dropped, uncounted and unforwarded, when its
    /// completion comes due — every item of it belongs to a pipeline the
    /// failure stranded, whose work is stale.
    #[test]
    fn a_failed_row_drops_its_running_batch_and_keeps_its_counters() {
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(1);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(1, Phase::Decode, 1, 1)],
        );
        fabric.take_in_flight();
        worker.engine.update_plan(analytic(), 4, 100_000.0);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(2, Phase::Decode, 1, 1)],
        );
        worker.engine.enqueue(work(3, Phase::Decode, 1, 1));
        let (at, _) = fabric.queue.pop().unwrap();

        worker.engine.fail();
        assert_eq!(worker.engine.queue_len(), 1, "queued work stays");
        assert_eq!(worker.engine.kv.used_tokens(), 2.0, "so does residency");
        // The completion of the running batch drops it, and what reaches
        // the row queues behind no batch.
        done(&mut worker, key, at, at, &requests, &mut fabric);
        assert!(!worker.engine.is_busy());
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(4, Phase::Decode, 1, 1)],
        );
        assert!(fabric.take_in_flight().is_empty(), "nothing is forwarded");
        assert_eq!(fabric.queue.peek_time(), None, "no batch started");
        assert_eq!(worker.engine.queue_len(), 2);
        assert_eq!((worker.batches, worker.decode_tokens), (1, 1));
        worker.engine.release_request(1);
        worker.engine.release_request(2);
        assert_eq!(worker.engine.kv.used_tokens(), 0.0, "a release frees it");
    }

    #[test]
    fn frozen_layers_hold_their_work_while_other_layers_keep_executing() {
        let (mut worker, mut fabric, requests) = test_worker(100_000.0);
        let key = row(1);
        // Freeze [0, 4) until t = 1: stage-1 work on layers [4, 8) must keep
        // executing.
        worker.engine.freeze(LayerRange::new(0, 4), 1.0);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(1, Phase::Decode, 1, 1)],
        );
        assert!(
            matches!(
                fabric.take_in_flight().pop().unwrap().1,
                Event::TokenAtCoordinator { slot: 1, .. }
            ),
            "disjoint layers execute through a freeze"
        );

        // Freeze [4, 8) too: now stage-1 work queues.
        worker.engine.freeze(LayerRange::new(4, 8), 1.0);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(2, Phase::Decode, 1, 1)],
        );
        assert!(
            fabric.take_in_flight().is_empty(),
            "intersecting layers are held"
        );
        assert_eq!(worker.engine.queue_len(), 1);

        // At the deadline the held range's work runs.
        start(&mut worker, key, 1.0, &requests, &mut fabric);
        assert!(matches!(
            fabric.take_in_flight().pop().unwrap().1,
            Event::TokenAtCoordinator { slot: 2, .. }
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
        let (mut worker, mut fabric, requests) = test_worker(64.0);
        let key = row(1);
        // 3 of 4 pages taken; request 2's 2-page prefix does not fit.
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(1, Phase::Prompt, 48, 1)],
        );
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [prefix_work(2, 40, false)],
        );
        assert!(worker.engine.kv.rejections() > 0, "the prefix overflowed");
        worker.engine.release_request(1);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [prefix_work(3, 8, true)],
        );
        assert_eq!(worker.engine.kv.shared_pages(), 2);
        worker.engine.release_request(2);
        assert_eq!(
            worker.engine.kv.shared_pages(),
            2,
            "request 3 still holds the prefix"
        );
        worker.engine.release_request(3);
        assert_eq!(worker.engine.kv.shared_pages(), 0);
        assert_eq!(worker.engine.kv.used_tokens(), 0.0);
    }

    #[test]
    fn update_plan_swaps_the_execution_model_and_resizes_the_pool_in_place() {
        let (mut worker, mut fabric, requests) = test_worker(64.0);
        let key = row(1);
        // Queued work and residency survive the update.
        worker.engine.enqueue(work(1, Phase::Decode, 1, 1));
        worker.engine.kv.seed(7, 16);
        worker.engine.update_plan(analytic(), 8, 4096.0);
        assert_eq!(
            worker.engine.kv.capacity_tokens(),
            4096.0,
            "pool resized in place"
        );
        assert_eq!(worker.engine.kv.used_tokens(), 16.0);
        assert_eq!(worker.engine.layers_held(), 8);
        start(&mut worker, key, 0.0, &requests, &mut fabric);
        assert!(
            worker.engine.counters().nominal_busy_secs > 0.0,
            "new execution model prices the batch"
        );
        let (at, _) = fabric.queue.pop().unwrap();
        done(&mut worker, key, at, at, &requests, &mut fabric);
        assert_eq!(fabric.take_in_flight().len(), 1);
    }

    /// A stage of an aborted incarnation — its lane closed when the
    /// control plane dropped the flight — executes where it already queued
    /// but is forwarded nowhere, as the simulator's `route_onward` drops it.
    #[test]
    fn finished_work_of_a_closed_lane_goes_nowhere() {
        let (mut worker, mut fabric, mut requests) = test_worker(100_000.0);
        let key = row(0);
        requests.close(3);
        pass(
            &mut worker,
            key,
            &mut fabric,
            &requests,
            [work(3, Phase::Decode, 1, 0)],
        );
        assert_eq!(worker.batches, 1);
        assert!(fabric.take_in_flight().is_empty());
    }
}
