//! Compute-node workers: the rows of the data plane's worker table.
//!
//! Each worker mirrors one compute node of the paper's prototype (Fig. 3): it
//! owns the layers assigned to it by the model placement, keeps a paged KV
//! pool, and runs best-effort dynamic batching — a batch starts as soon as the
//! node is idle and includes every work item that arrived while the previous
//! batch was executing (§5.1).  Finished stages are forwarded to the next
//! node in the request's pipeline through the network fabric, or back to the
//! coordinator when the last stage completes.
//!
//! What a worker *decides* — which queued items batch, which wait behind a
//! frozen layer range, how KV residency grows, when a batch pays the
//! overflow penalty, how a hand-over moves its KV — is the shared
//! [`EngineCore`], the same code the simulator's engines run.  This module
//! adds what is genuinely the runtime's: forwarding and the report counters.
//!
//! A worker is **plain data**, not a task: the plane's loop queues the work
//! the fabric delivers on its core, calls [`Worker::start_batch`] once
//! everything that is due has been delivered, and [`Worker::batch_done`]
//! when the batch's entry in the fabric's queue comes due.  A batch of zero
//! duration completes inside `start_batch`.  Hundreds of "busy" workers
//! overlap their modelled execution because each one's completion is just
//! another entry of that queue.  The coordinator releases, seeds and hands
//! over KV by calling the core directly.

use crate::exec::ExecutionModel;
use crate::fabric::Fabric;
use crate::message::{Envelope, RuntimeMsg, StageWork};
use crate::registry::WorkerKey;
use helix_cluster::TOKEN_WIRE_BYTES;
use helix_core::engine::{BatchRun, EngineCore, Work, WorkMeta};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;

impl Work for StageWork {
    fn meta(&self) -> WorkMeta {
        WorkMeta {
            request: self.request,
            phase: self.phase,
            tokens: self.tokens,
            layers: self.pipeline.stages[self.stage_index].layers,
            prefix: self.prefix,
        }
    }
}

/// One (compute node, fleet model) tenancy: a shared node has one row per
/// model, each with its own KV-pool partition.
pub(crate) struct Worker {
    pub key: WorkerKey,
    /// Human-readable node name from the cluster spec, for the report.
    pub name: String,
    /// Layers the node holds for its model, for the report.
    pub layers: usize,
    /// Queued for a batch start at the end of the current delivery pass.
    pub touched: bool,
    /// Bytes of activation transferred per token to the next pipeline stage.
    activation_bytes: f64,
    execution: Box<dyn ExecutionModel>,
    /// Queue, frozen layer ranges, KV pool, batching rules and the busy
    /// counters the re-plan loop observes.
    pub core: EngineCore<StageWork>,
    /// The executing batch, if it takes time, and when its completion is
    /// due in the fabric's queue.
    running: Option<(f64, BatchRun)>,
    /// The finished batch; its buffer goes back to the core at the next
    /// completion, so steady-state batching allocates nothing.
    done: Vec<StageWork>,
    /// Batches executed.
    pub batches: u64,
    /// Prompt tokens processed.
    pub prompt_tokens: u64,
    /// Decode tokens processed.
    pub decode_tokens: u64,
}

impl Worker {
    /// A row with the given plan facts, an empty queue and pool and no
    /// history.
    pub(crate) fn new(
        key: WorkerKey,
        name: &str,
        activation_bytes: f64,
        execution: Box<dyn ExecutionModel>,
        kv_capacity_tokens: f64,
        layers: usize,
    ) -> Self {
        Worker {
            key,
            name: name.to_string(),
            layers,
            touched: false,
            activation_bytes,
            execution,
            core: EngineCore::new(kv_capacity_tokens, DEFAULT_TOKENS_PER_PAGE),
            running: None,
            done: Vec::new(),
            batches: 0,
            prompt_tokens: 0,
            decode_tokens: 0,
        }
    }

    /// Applies a plan's facts for this tenancy in place: the execution model
    /// (e.g. the new analytic contention split after tenancies moved on or
    /// off the node) is swapped and the KV pool re-sized without dropping
    /// queued work or residency — as the simulator re-splits its engines.
    /// A failed row stays failed.
    pub(crate) fn plan(
        &mut self,
        execution: Box<dyn ExecutionModel>,
        kv_capacity_tokens: f64,
        layers: usize,
    ) {
        self.execution = execution;
        self.core.kv.resize(kv_capacity_tokens);
        self.layers = layers;
    }

    /// The row's node failed: the executing batch is dropped (its
    /// completion, still in the fabric's queue, finds nothing running) and
    /// the core starts no further batch.  What the row holds stays until a
    /// release or purge frees it, and what reaches it queues; its counters
    /// stay for the report.
    pub(crate) fn fail(&mut self) {
        self.running = None;
        self.core.complete_batch(&mut self.done);
        self.done.clear();
        self.core.fail();
    }

    /// Starts a batch at `now` if the row is idle and has unfrozen work — so
    /// a row never runs two batches at once.  A batch that takes time
    /// completes when its entry in the fabric's queue comes due; one of zero
    /// duration (every instant-execution run) completes here.
    pub(crate) fn start_batch(&mut self, now: f64, fabric: &mut Fabric) {
        if self.core.queue_len() == 0 {
            return;
        }
        let execution = &self.execution;
        let started = self
            .core
            .start_batch(now, |batch| execution.batch_duration(batch));
        let Some(run) = started else {
            return;
        };
        if run.actual_secs.is_finite() && run.actual_secs > 0.0 {
            let at = now + run.actual_secs;
            self.running = Some((at, run));
            fabric.batch_done(at, self.key);
        } else {
            self.complete(run, now, fabric);
        }
    }

    /// The queue entry of the batch due at `at` came up at `now`.  An entry
    /// that outlived its batch (the row failed meanwhile) matches nothing
    /// running and is dropped.
    pub(crate) fn batch_done(&mut self, at: f64, now: f64, fabric: &mut Fabric) {
        if let Some((_, run)) = self.running.take_if(|&mut (due, _)| due == at) {
            self.complete(run, now, fabric);
        }
    }

    /// Accounts the finished batch and forwards every item.
    fn complete(&mut self, run: BatchRun, now: f64, fabric: &mut Fabric) {
        self.batches += 1;
        self.prompt_tokens += run.prompt_tokens;
        self.decode_tokens += run.decode_tokens;
        let mut done = std::mem::take(&mut self.done);
        self.core.complete_batch(&mut done);
        for item in done.drain(..) {
            self.forward(item, now, fabric);
        }
        self.done = done;
    }

    /// Sends a finished stage onward: to the next node in the pipeline, or to
    /// the coordinator if this was the last stage.
    fn forward(&self, item: StageWork, now: f64, fabric: &mut Fabric) {
        let from = Some(self.key.0);
        let envelope = if item.is_last_stage() {
            Envelope {
                from,
                to: None,
                bytes: TOKEN_WIRE_BYTES,
                msg: RuntimeMsg::IterationDone {
                    request: item.request,
                    emitted_at: now,
                    epoch: item.epoch,
                },
            }
        } else {
            let next = item.next_stage();
            Envelope {
                from,
                to: Some(next.node()),
                bytes: self.activation_bytes * next.tokens.max(1) as f64,
                msg: RuntimeMsg::Work(next),
            }
        };
        fabric.send(now, envelope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::InstantExecution;
    use crate::message::Phase;
    use helix_cluster::{ClusterSpec, ModelId, NodeId, PrefixId};
    use helix_core::{LayerRange, PipelineStage, RequestPipeline};
    use std::sync::Arc;

    fn two_stage_pipeline() -> Arc<RequestPipeline> {
        Arc::new(RequestPipeline {
            model: ModelId::default(),
            stages: vec![
                PipelineStage {
                    node: NodeId(0),
                    layers: LayerRange::new(0, 4),
                },
                PipelineStage {
                    node: NodeId(1),
                    layers: LayerRange::new(4, 8),
                },
            ],
        })
    }

    /// Every batch takes a quarter of a virtual second.
    struct Slow;
    impl ExecutionModel for Slow {
        fn batch_duration(&self, _items: &[StageWork]) -> f64 {
            0.25
        }
    }

    /// A live instant-execution row of `node` over a pool of `kv_capacity`
    /// tokens, and a fabric over the 10-node study cluster to send into —
    /// no executor, no loop: a test calls the row and reads the queue.
    fn test_worker(node: NodeId, kv_capacity: f64) -> (Worker, Fabric) {
        let key = (node, ModelId::default());
        let instant = Box::new(InstantExecution);
        let worker = Worker::new(key, "node", 16_384.0, instant, kv_capacity, 4);
        (worker, Fabric::new(ClusterSpec::solver_quality_10()))
    }

    fn work(request: u64, phase: Phase, tokens: usize, stage_index: usize) -> StageWork {
        StageWork {
            request,
            phase,
            tokens,
            stage_index,
            epoch: 0,
            pipeline: two_stage_pipeline(),
            prefix: None,
        }
    }

    /// Queues `items` in one pass and starts the batch after it, as the loop
    /// does.
    fn pass(worker: &mut Worker, fabric: &mut Fabric, items: impl IntoIterator<Item = StageWork>) {
        for item in items {
            worker.core.enqueue(item);
        }
        worker.start_batch(0.0, fabric);
    }

    #[test]
    fn first_stage_forwards_to_the_next_node_and_last_stage_reports_back() {
        let (mut worker, mut fabric) = test_worker(NodeId(0), 100_000.0);
        pass(&mut worker, &mut fabric, [work(9, Phase::Prompt, 64, 0)]);

        let forwarded = fabric.take_in_flight().pop().unwrap();
        assert_eq!(forwarded.from, Some(NodeId(0)));
        assert_eq!(forwarded.to, Some(NodeId(1)));
        assert!(
            forwarded.bytes > 16_384.0,
            "prompt activations scale with token count"
        );
        match forwarded.msg {
            RuntimeMsg::Work(next) => {
                assert_eq!(next.stage_index, 1);
                assert!(next.is_last_stage());
            }
            other => panic!("expected forwarded work, got {other:?}"),
        }
        assert_eq!(worker.prompt_tokens, 64);
        assert_eq!(worker.batches, 1);
        assert!(worker.core.kv.used_tokens() >= 64.0);

        // The same work executed on the *last* stage reports to the
        // coordinator.
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        pass(&mut worker, &mut fabric, [work(9, Phase::Prompt, 64, 1)]);
        let done = fabric.take_in_flight().pop().unwrap();
        assert_eq!(done.to, None);
        assert!(matches!(
            done.msg,
            RuntimeMsg::IterationDone { request: 9, .. }
        ));
    }

    #[test]
    fn release_frees_the_kv_pool_and_rejections_are_counted() {
        let (mut worker, mut fabric) = test_worker(NodeId(0), 64.0);
        // 128 tokens cannot fit in a 64-token pool: the batch still runs,
        // the allocation is recorded (modelled offload) and counted.
        pass(&mut worker, &mut fabric, [work(1, Phase::Prompt, 128, 0)]);
        assert_eq!(
            worker.core.kv.used_tokens(),
            128.0,
            "the overflow is resident"
        );
        assert_eq!(worker.core.kv.peak_utilization(), 2.0, "8 pages used of 4");
        worker.core.release_request(1);
        pass(&mut worker, &mut fabric, [work(2, Phase::Prompt, 32, 0)]);
        assert_eq!(worker.core.kv.rejections(), 1);
        assert!(
            (worker.core.kv.used_tokens() - 32.0).abs() < 1e-9,
            "request 1 was released"
        );
        assert_eq!(worker.core.queue_len(), 0);
    }

    /// §5.1's rule: what one pass delivered is one batch, because the batch
    /// starts after the pass.  (Start it on delivery and this is three
    /// batches of one.)
    #[test]
    fn everything_delivered_in_one_pass_joins_one_batch() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        let three = (0..3).map(|request| work(request, Phase::Decode, 1, 1));
        pass(&mut worker, &mut fabric, three);
        assert_eq!(worker.batches, 1);
        assert_eq!(worker.decode_tokens, 3);
        assert_eq!(fabric.take_in_flight().len(), 3);
    }

    #[test]
    fn a_row_never_runs_two_batches_at_once() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        worker.plan(Box::new(Slow), 100_000.0, 4);
        pass(&mut worker, &mut fabric, [work(1, Phase::Decode, 1, 1)]);
        // A batch that takes time is an entry of the fabric's queue, due at
        // start + duration; nothing is forwarded before it.
        let (at, event) = fabric.pop_due(f64::INFINITY).unwrap();
        assert!(matches!(event, crate::fabric::Event::BatchDone(key) if key == worker.key));
        assert_eq!(at, 0.25);
        assert_eq!(worker.batches, 0);

        // Work that lands meanwhile queues behind the running batch.
        pass(&mut worker, &mut fabric, [work(2, Phase::Decode, 1, 1)]);
        assert_eq!(worker.core.queue_len(), 1);
        assert!(fabric.next_at().is_none(), "no second batch was started");

        // A completion for another instant matches nothing running.
        worker.batch_done(1.0, 1.0, &mut fabric);
        assert_eq!(worker.batches, 0);
        worker.batch_done(at, 0.5, &mut fabric);
        assert_eq!(worker.batches, 1);
        assert!((worker.core.counters().busy_secs - 0.25).abs() < 1e-12);
        let done = fabric.take_in_flight().pop().unwrap();
        let RuntimeMsg::IterationDone { emitted_at, .. } = done.msg else {
            panic!("expected the finished iteration, got {done:?}");
        };
        assert_eq!(emitted_at, 0.5, "stamped when the completion was applied");
        // The loop starts the next batch after the passes that completed one.
        worker.start_batch(0.5, &mut fabric);
        assert_eq!(fabric.next_at(), Some(0.75));
    }

    /// Ordering change of the one-loop plane: the task-per-worker plane
    /// applied what landed during a batch after the batch.  Work queues on
    /// delivery, and a release — a call since KV bookkeeping stopped being
    /// a message — frees the pool under the running batch.
    #[test]
    fn a_message_landing_mid_batch_is_applied_on_delivery() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        worker.plan(Box::new(Slow), 100_000.0, 4);
        pass(&mut worker, &mut fabric, [work(1, Phase::Prompt, 64, 1)]);
        assert!(worker.core.is_busy());
        assert_eq!(worker.core.kv.used_tokens(), 64.0);
        worker.core.enqueue(work(2, Phase::Decode, 1, 1));
        assert_eq!(worker.core.queue_len(), 1, "queued on delivery");
        worker.core.release_request(1);
        assert!(worker.core.is_busy(), "the batch keeps running");
        assert_eq!(worker.core.kv.used_tokens(), 0.0, "released at once");
    }

    /// A failed row follows the simulator's failed engine: it starts no
    /// batch, and what it holds stays until a release frees it.  It also
    /// drops the batch it was executing, which the simulator's engine would
    /// complete — every item of it belongs to a pipeline the failure
    /// stranded, whose work is stale.
    #[test]
    fn a_failed_row_drops_its_running_batch_and_keeps_its_counters() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        pass(&mut worker, &mut fabric, [work(1, Phase::Decode, 1, 1)]);
        fabric.take_in_flight();
        worker.plan(Box::new(Slow), 100_000.0, 4);
        pass(&mut worker, &mut fabric, [work(2, Phase::Decode, 1, 1)]);
        worker.core.enqueue(work(3, Phase::Decode, 1, 1));
        let (at, _) = fabric.pop_due(f64::INFINITY).unwrap();

        worker.fail();
        assert!(!worker.core.is_busy());
        assert_eq!(worker.core.queue_len(), 1, "queued work stays");
        assert_eq!(worker.core.kv.used_tokens(), 2.0, "so does residency");
        // The completion still queued for the dropped batch finds nothing,
        // and what reaches the row queues behind no batch.
        worker.batch_done(at, at, &mut fabric);
        pass(&mut worker, &mut fabric, [work(4, Phase::Decode, 1, 1)]);
        assert!(fabric.take_in_flight().is_empty(), "nothing is forwarded");
        assert_eq!(fabric.next_at(), None, "no batch started");
        assert_eq!(worker.core.queue_len(), 2);
        assert_eq!((worker.batches, worker.decode_tokens), (1, 1));
        worker.core.release_request(1);
        worker.core.release_request(2);
        assert_eq!(worker.core.kv.used_tokens(), 0.0, "a release frees it");
    }

    #[test]
    fn frozen_layers_hold_their_work_while_other_layers_keep_executing() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        // Freeze [0, 4) until t = 1: stage-1 work on layers [4, 8) must keep
        // executing.
        worker.core.freeze(LayerRange::new(0, 4), 1.0);
        pass(&mut worker, &mut fabric, [work(1, Phase::Decode, 1, 1)]);
        assert!(
            matches!(
                fabric.take_in_flight().pop().unwrap().msg,
                RuntimeMsg::IterationDone { request: 1, .. }
            ),
            "disjoint layers execute through a freeze"
        );

        // Freeze [4, 8) too: now stage-1 work queues.
        worker.core.freeze(LayerRange::new(4, 8), 1.0);
        pass(&mut worker, &mut fabric, [work(2, Phase::Decode, 1, 1)]);
        assert!(
            fabric.take_in_flight().is_empty(),
            "intersecting layers are held"
        );
        assert_eq!(worker.core.queue_len(), 1);

        // At the deadline the held range's work runs.
        worker.start_batch(1.0, &mut fabric);
        assert!(matches!(
            fabric.take_in_flight().pop().unwrap().msg,
            RuntimeMsg::IterationDone { request: 2, .. }
        ));
    }

    /// Regression: a sharer whose prefix allocation did not fit used to
    /// detach on release anyway, freeing a prefix another request held.
    #[test]
    fn an_overflowing_sharers_release_leaves_the_prefix_to_the_other_holder() {
        let prefix_work = |request, tokens, hit| StageWork {
            prefix: Some(helix_core::PrefixWork {
                id: PrefixId(7),
                tokens: 32,
                hit,
            }),
            ..work(request, Phase::Prompt, tokens, 1)
        };
        let (mut worker, mut fabric) = test_worker(NodeId(1), 64.0);
        // 3 of 4 pages taken; request 2's 2-page prefix does not fit.
        pass(&mut worker, &mut fabric, [work(1, Phase::Prompt, 48, 1)]);
        pass(&mut worker, &mut fabric, [prefix_work(2, 40, false)]);
        assert!(worker.core.kv.rejections() > 0, "the prefix overflowed");
        worker.core.release_request(1);
        pass(&mut worker, &mut fabric, [prefix_work(3, 8, true)]);
        assert_eq!(worker.core.kv.shared_pages(), 2);
        worker.core.release_request(2);
        assert_eq!(
            worker.core.kv.shared_pages(),
            2,
            "request 3 still holds the prefix"
        );
        worker.core.release_request(3);
        assert_eq!(worker.core.kv.shared_pages(), 0);
        assert_eq!(worker.core.kv.used_tokens(), 0.0);
    }

    #[test]
    fn update_plan_swaps_the_execution_model_and_resizes_the_pool_in_place() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 64.0);
        // Queued work and residency survive the update.
        worker.core.enqueue(work(1, Phase::Decode, 1, 1));
        worker.core.kv.seed(7, 16);
        worker.plan(Box::new(Slow), 4096.0, 8);
        assert_eq!(
            worker.core.kv.capacity_tokens(),
            4096.0,
            "pool resized in place"
        );
        assert_eq!(worker.core.kv.used_tokens(), 16.0);
        assert_eq!(worker.layers, 8);
        worker.start_batch(0.0, &mut fabric);
        assert!(
            (worker.core.counters().nominal_busy_secs - 0.25).abs() < 1e-9,
            "new execution model prices the batch"
        );
        let (at, _) = fabric.pop_due(f64::INFINITY).unwrap();
        worker.batch_done(at, at, &mut fabric);
        assert_eq!(fabric.take_in_flight().len(), 1);
    }
}
