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
//! overflow penalty — is the shared [`EngineCore`], the same code the
//! simulator's engines run.  This module adds what is genuinely the
//! runtime's: forwarding, the chunked KV hand-over and the report counters.
//!
//! A worker is **plain data**, not a task: the plane's loop calls
//! [`Worker::handle`] with each message the fabric delivers,
//! [`Worker::start_batch`] once everything that is due has been delivered, and
//! [`Worker::batch_done`] when the batch's entry in the fabric's queue comes
//! due.  A batch of zero duration completes inside `start_batch`.  Hundreds
//! of "busy" workers overlap their modelled execution because each one's
//! completion is just another entry of that queue.

use crate::exec::ExecutionModel;
use crate::fabric::Fabric;
use crate::message::{Envelope, RuntimeMsg, StageWork};
use crate::registry::WorkerKey;
use helix_cluster::{NodeId, TOKEN_WIRE_BYTES};
use helix_core::engine::{BatchRun, EngineCore, Work, WorkMeta};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::LayerRange;
use helix_workload::RequestId;

/// Pages per pipelined KV hand-over chunk: small enough that activation
/// traffic interleaves on the link, large enough that chunk count stays
/// bounded for big pools.
const KV_CHUNK_PAGES: usize = 64;

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
    /// Whether the fabric delivers to this row.  A row the plan dropped or a
    /// failure killed stays in the table for the report — and to be planned
    /// again, continuing its counters.
    pub live: bool,
    /// Queued for a batch start at the end of the current delivery pass.
    pub touched: bool,
    /// Bytes of activation transferred per token to the next pipeline stage.
    activation_bytes: f64,
    execution: Box<dyn ExecutionModel>,
    /// Queue, frozen layer ranges, KV pool and batching rules.  A freeze
    /// carries no deadline here: it holds until the matching thaw.
    pub core: EngineCore<StageWork>,
    /// The executing batch, if it takes time, and when its completion is
    /// due in the fabric's queue.
    running: Option<(f64, BatchRun)>,
    /// The finished batch; its buffer goes back to the core at the next
    /// completion, so steady-state batching allocates nothing.
    done: Vec<StageWork>,
    /// Virtual seconds spent executing batches.
    pub busy_secs: f64,
    /// Virtual seconds the execution model *predicted* for those batches.
    /// `nominal_busy_secs / busy_secs` is the worker's measured speed factor
    /// — the observation the coordinator's re-plan loop consumes.
    pub nominal_busy_secs: f64,
    /// Batches executed.
    pub batches: u64,
    /// Prompt tokens processed.
    pub prompt_tokens: u64,
    /// Decode tokens processed.
    pub decode_tokens: u64,
}

impl Worker {
    /// A live row with the given plan facts, an empty queue and pool and no
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
            live: true,
            touched: false,
            activation_bytes,
            execution,
            core: EngineCore::new(kv_capacity_tokens, DEFAULT_TOKENS_PER_PAGE),
            running: None,
            done: Vec::new(),
            busy_secs: 0.0,
            nominal_busy_secs: 0.0,
            batches: 0,
            prompt_tokens: 0,
            decode_tokens: 0,
        }
    }

    /// Applies a plan's facts for this tenancy in place: the execution model
    /// (e.g. the new analytic contention split after tenancies moved on or
    /// off the node) is swapped and the KV pool re-sized without dropping
    /// queued work or residency — as the simulator re-splits its engines —
    /// and a row that was out of service is back in it.
    pub(crate) fn plan(
        &mut self,
        execution: Box<dyn ExecutionModel>,
        kv_capacity_tokens: f64,
        layers: usize,
    ) {
        self.execution = execution;
        self.core.kv.resize(kv_capacity_tokens);
        self.layers = layers;
        self.live = true;
    }

    /// Takes the row out of service: whatever it had queued, executing or
    /// resident is dropped (a completion still in the fabric's queue finds
    /// nothing running); its counters and name stay for the report.
    pub(crate) fn retire(&mut self) {
        self.live = false;
        self.running = None;
        self.core.retire();
    }

    /// Applies one delivered message.  Work only queues: the loop starts the
    /// batch once everything due at this instant is in.
    pub(crate) fn handle(&mut self, msg: RuntimeMsg, fabric: &mut Fabric) {
        let (node, model) = self.key;
        match msg {
            RuntimeMsg::Work(work) => {
                debug_assert_eq!((work.node(), work.model()), self.key, "misrouted work");
                self.core.enqueue(work);
            }
            RuntimeMsg::Release(request) => {
                // The coordinator releases on *every* live worker of the
                // model — migration destinations and replica standbys hold
                // seeded residency the pipeline alone does not name — and a
                // fail-over purge may be followed by the promoted
                // incarnation's own completion release, so a repeated (or
                // unmatched) Release is a no-op, not a protocol bug.
                self.core.release_request(request);
            }
            RuntimeMsg::KvChunk {
                from,
                layers,
                entries,
                prefix_entries,
                tokens,
                pages,
                bytes,
                last,
            } => {
                // Each migrated prefix arrives with the requests holding it,
                // so their `Release`s drop the references here too.
                self.core.kv.seed_snapshot(&entries, &prefix_entries);
                // Per-link FIFO delivery means the last chunk arrives last:
                // the whole residency is installed, so tell the coordinator
                // the hand-over landed (it re-routes and thaws both ends).
                if last {
                    fabric.send(Envelope {
                        from: Some(node),
                        to: None,
                        model,
                        bytes: TOKEN_WIRE_BYTES,
                        msg: RuntimeMsg::KvInstalled {
                            model,
                            from,
                            to: node,
                            layers,
                            tokens,
                            pages,
                            bytes,
                        },
                    });
                }
            }
            RuntimeMsg::IterationDone { .. } | RuntimeMsg::KvInstalled { .. } => {
                debug_assert!(false, "coordinator-bound message delivered to a worker");
            }
        }
    }

    /// The source half of a KV hand-over: snapshot the pool's residency,
    /// price the transfer with the shared [`KvTransferModel`] (identical to
    /// the simulator's pricing) and ship it to the destination as a
    /// *pipelined* sequence of page-bounded chunks.  Each chunk's envelope
    /// carries its share of the transfer bytes, so the pages queue behind —
    /// and interleave with — activation traffic on the inter-node link
    /// instead of blocking it with one monolithic blob.
    ///
    /// [`KvTransferModel`]: helix_core::KvTransferModel
    pub(crate) fn extract_kv(
        &mut self,
        to: NodeId,
        layers: LayerRange,
        kv_bytes_per_token_per_layer: f64,
        fabric: &mut Fabric,
    ) {
        let (node, model) = self.key;
        let kv = &self.core.kv;
        let entries = kv.snapshot();
        // Shared prefixes travel once each, no matter how many requests
        // share them — the transfer prices the deduplicated pages.  They
        // ride on the final chunk (FIFO delivery installs them before the
        // destination acknowledges).
        let prefix_entries = kv.prefix_snapshot();
        let tokens = kv.used_tokens();
        let transfer =
            helix_core::KvTransferModel::new(kv_bytes_per_token_per_layer, DEFAULT_TOKENS_PER_PAGE);
        // Totals priced once over the whole hand-over, exactly as the
        // single-blob protocol (and the simulator) price it, so reports and
        // cross-surface comparisons are unchanged by chunking.
        let pages = transfer.pages(tokens);
        let bytes = transfer.bytes(tokens, layers.len());
        let tokens = tokens as u64;

        let chunk_tokens_budget = KV_CHUNK_PAGES * DEFAULT_TOKENS_PER_PAGE;
        let mut chunks: Vec<Vec<(RequestId, usize)>> = Vec::new();
        let mut current: Vec<(RequestId, usize)> = Vec::new();
        let mut current_tokens = 0usize;
        for entry in entries {
            if current_tokens >= chunk_tokens_budget && !current.is_empty() {
                chunks.push(std::mem::take(&mut current));
                current_tokens = 0;
            }
            current_tokens += entry.1;
            current.push(entry);
        }
        chunks.push(current); // Always ship a final (possibly empty) chunk.

        let total_chunk_tokens: u64 = tokens.max(1);
        let mut bytes_sent = 0.0;
        let last_index = chunks.len() - 1;
        for (index, chunk) in chunks.into_iter().enumerate() {
            let chunk_tokens: u64 = chunk.iter().map(|&(_, t)| t as u64).sum();
            // Proportional byte split whose sum is exactly the priced total.
            let chunk_bytes = if index == last_index {
                bytes - bytes_sent
            } else {
                bytes * (chunk_tokens as f64 / total_chunk_tokens as f64)
            };
            bytes_sent += chunk_bytes;
            let last = index == last_index;
            fabric.send(Envelope {
                from: Some(node),
                to: Some(to),
                model,
                bytes: chunk_bytes,
                msg: RuntimeMsg::KvChunk {
                    from: node,
                    layers,
                    entries: chunk,
                    prefix_entries: if last {
                        prefix_entries.clone()
                    } else {
                        Vec::new()
                    },
                    tokens,
                    pages,
                    bytes,
                    last,
                },
            });
        }
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
    /// that outlived its batch (the row was retired meanwhile) matches
    /// nothing running and is dropped.
    pub(crate) fn batch_done(&mut self, at: f64, now: f64, fabric: &mut Fabric) {
        if let Some((_, run)) = self.running.take_if(|&mut (due, _)| due == at) {
            self.complete(run, now, fabric);
        }
    }

    /// Accounts the finished batch and forwards every item.
    fn complete(&mut self, run: BatchRun, now: f64, fabric: &mut Fabric) {
        self.busy_secs += run.actual_secs;
        self.nominal_busy_secs += run.nominal_secs;
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
        let (node, model) = self.key;
        let envelope = if item.is_last_stage() {
            Envelope {
                from: Some(node),
                to: None,
                model,
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
                from: Some(node),
                to: Some(next.node()),
                model,
                bytes: self.activation_bytes * next.tokens.max(1) as f64,
                msg: RuntimeMsg::Work(next),
            }
        };
        fabric.send(envelope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::exec::InstantExecution;
    use crate::message::Phase;
    use helix_cluster::{ClusterSpec, ModelId, PrefixId};
    use helix_core::{PipelineStage, RequestPipeline};
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
        let clock = VirtualClock::new(0.0001);
        (worker, Fabric::new(ClusterSpec::solver_quality_10(), clock))
    }

    fn work(request: u64, phase: Phase, tokens: usize, stage_index: usize) -> RuntimeMsg {
        RuntimeMsg::Work(StageWork {
            request,
            phase,
            tokens,
            stage_index,
            epoch: 0,
            pipeline: two_stage_pipeline(),
            prefix: None,
        })
    }

    /// Delivers `msgs` in one pass and starts the batch after it, as the
    /// loop does.
    fn pass(worker: &mut Worker, fabric: &mut Fabric, msgs: impl IntoIterator<Item = RuntimeMsg>) {
        for msg in msgs {
            worker.handle(msg, fabric);
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
        let next = [RuntimeMsg::Release(1), work(2, Phase::Prompt, 32, 0)];
        pass(&mut worker, &mut fabric, next);
        assert_eq!(worker.core.kv.rejections(), 1);
        assert!(
            (worker.core.kv.used_tokens() - 32.0).abs() < 1e-9,
            "request 1 was released"
        );
        assert_eq!(worker.core.queue_len(), 0);
    }

    /// §5.1's rule: what one pass delivered is one batch, because the batch
    /// starts after the pass.  (Start it inside `handle` and this is three
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
        // start + duration; nothing is accounted or forwarded before it.
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
        assert!((worker.busy_secs - 0.25).abs() < 1e-12);
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
    /// applied a message that landed during a batch after the batch.
    #[test]
    fn a_message_landing_mid_batch_is_applied_on_delivery() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        worker.plan(Box::new(Slow), 100_000.0, 4);
        pass(&mut worker, &mut fabric, [work(1, Phase::Prompt, 64, 1)]);
        assert!(worker.core.is_busy());
        assert_eq!(worker.core.kv.used_tokens(), 64.0);
        worker.handle(RuntimeMsg::Release(1), &mut fabric);
        assert!(worker.core.is_busy(), "the batch keeps running");
        assert_eq!(worker.core.kv.used_tokens(), 0.0, "released on delivery");
    }

    /// Ordering change of the one-loop plane: a failed worker used to batch
    /// and forward what it had queued, as a zombie, before it shut down.
    #[test]
    fn a_retired_row_drops_its_work_and_keeps_its_counters() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        pass(&mut worker, &mut fabric, [work(1, Phase::Decode, 1, 1)]);
        fabric.take_in_flight();
        worker.plan(Box::new(Slow), 100_000.0, 4);
        pass(&mut worker, &mut fabric, [work(2, Phase::Decode, 1, 1)]);
        worker.handle(work(3, Phase::Decode, 1, 1), &mut fabric);
        let (at, _) = fabric.pop_due(f64::INFINITY).unwrap();

        worker.retire();
        assert!(!worker.live);
        assert_eq!(worker.core.queue_len(), 0);
        assert_eq!(worker.core.kv.used_tokens(), 0.0);
        // The completion still queued for the dropped batch finds nothing.
        worker.batch_done(at, at, &mut fabric);
        worker.start_batch(at, &mut fabric);
        assert!(fabric.take_in_flight().is_empty(), "nothing is forwarded");
        assert_eq!((worker.batches, worker.decode_tokens), (1, 1));
    }

    #[test]
    fn frozen_layers_hold_their_work_while_other_layers_keep_executing() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        // Freeze [0, 4): stage-1 work on layers [4, 8) must keep executing.
        worker.core.freeze(LayerRange::new(0, 4), f64::INFINITY);
        pass(&mut worker, &mut fabric, [work(1, Phase::Decode, 1, 1)]);
        assert!(
            matches!(
                fabric.take_in_flight().pop().unwrap().msg,
                RuntimeMsg::IterationDone { request: 1, .. }
            ),
            "disjoint layers execute through a freeze"
        );

        // Freeze [4, 8) too: now stage-1 work queues.
        worker.core.freeze(LayerRange::new(4, 8), f64::INFINITY);
        pass(&mut worker, &mut fabric, [work(2, Phase::Decode, 1, 1)]);
        assert!(
            fabric.take_in_flight().is_empty(),
            "intersecting layers are held"
        );
        assert_eq!(worker.core.queue_len(), 1);

        // Thawing releases exactly the held range's work.
        worker.core.thaw(LayerRange::new(4, 8));
        worker.start_batch(0.0, &mut fabric);
        assert!(matches!(
            fabric.take_in_flight().pop().unwrap().msg,
            RuntimeMsg::IterationDone { request: 2, .. }
        ));
    }

    #[test]
    fn kv_extract_ships_pipelined_chunks_whose_bytes_sum_to_the_priced_total() {
        let (mut worker, mut fabric) = test_worker(NodeId(0), 1_000_000.0);
        // Seed lots of residency: 40 requests × 256 tokens = 10 240 tokens
        // = 640 pages, far more than one 64-page chunk.
        let seed = (0..40).map(|request| work(request, Phase::Prompt, 256, 0));
        pass(&mut worker, &mut fabric, seed);
        fabric.take_in_flight();
        worker.extract_kv(NodeId(1), LayerRange::new(0, 4), 1024.0, &mut fabric);

        let chunks = fabric.take_in_flight();
        assert!(
            chunks.len() > 1,
            "a large pool splits into multiple chunks, got {}",
            chunks.len()
        );
        let (mut total_entry_tokens, mut envelope_bytes) = (0u64, 0.0);
        let mut lasts = 0;
        for envelope in &chunks {
            envelope_bytes += envelope.bytes;
            let RuntimeMsg::KvChunk {
                entries,
                tokens,
                bytes,
                last,
                ..
            } = &envelope.msg
            else {
                panic!("expected a chunk, got {envelope:?}");
            };
            total_entry_tokens += entries.iter().map(|&(_, t)| t as u64).sum::<u64>();
            assert_eq!(*tokens, 10_240, "every chunk carries the totals");
            assert!(*bytes > 0.0);
            if *last {
                lasts += 1;
            }
        }
        assert_eq!(lasts, 1, "exactly one final chunk");
        assert!(
            matches!(
                chunks.last().unwrap().msg,
                RuntimeMsg::KvChunk { last: true, .. }
            ),
            "the final chunk is sent last"
        );
        assert_eq!(total_entry_tokens, 10_240, "every entry travels once");
        let RuntimeMsg::KvChunk { bytes, .. } = &chunks[0].msg else {
            unreachable!()
        };
        assert!(
            (envelope_bytes - *bytes).abs() < 1e-6,
            "chunk envelope bytes sum exactly to the priced total"
        );
    }

    fn chunk(
        entries: Vec<(RequestId, usize)>,
        prefix_entries: Vec<(PrefixId, usize, Vec<RequestId>)>,
        tokens: u64,
        last: bool,
    ) -> RuntimeMsg {
        RuntimeMsg::KvChunk {
            from: NodeId(0),
            layers: LayerRange::new(0, 4),
            entries,
            prefix_entries,
            tokens,
            pages: 8,
            bytes: 4096.0,
            last,
        }
    }

    #[test]
    fn installing_chunks_seeds_kv_and_only_the_last_acknowledges() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        let first = chunk(vec![(1, 64), (2, 32)], vec![], 128, false);
        worker.handle(first, &mut fabric);
        assert!(
            fabric.take_in_flight().is_empty(),
            "no ack before the last chunk"
        );
        let prefix = vec![(PrefixId(4), 16, vec![1, 2])];
        worker.handle(chunk(vec![(3, 32)], prefix, 128, true), &mut fabric);
        // The chunk is installed before its acknowledgement is even sent.
        // 128 per-request tokens plus the 16-token shared prefix, installed
        // as one refcounted page.
        assert!((worker.core.kv.used_tokens() - 144.0).abs() < 1e-9);
        assert_eq!(worker.core.kv.shared_pages(), 1);
        let ack = fabric.take_in_flight().pop().unwrap();
        assert_eq!((ack.from, ack.to), (Some(NodeId(1)), None));
        assert!(matches!(
            ack.msg,
            RuntimeMsg::KvInstalled {
                from: NodeId(0),
                to: NodeId(1),
                tokens: 128,
                pages: 8,
                ..
            }
        ));
    }

    /// Regression: a migrated prefix arrives with its holders, so the
    /// holders' releases free it on the destination (it used to stay resident
    /// for ever — nothing on the destination knew who referenced it).
    #[test]
    fn releases_after_a_hand_over_free_the_migrated_prefix() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 100_000.0);
        let prefix = vec![(PrefixId(4), 16, vec![1, 2])];
        let only = chunk(vec![(1, 64), (2, 32)], prefix, 112, true);
        worker.handle(only, &mut fabric);
        assert_eq!(worker.core.kv.shared_pages(), 1);
        worker.handle(RuntimeMsg::Release(1), &mut fabric);
        assert_eq!(worker.core.kv.shared_pages(), 1, "request 2 still holds it");
        worker.handle(RuntimeMsg::Release(2), &mut fabric);
        assert_eq!(worker.core.kv.shared_pages(), 0);
        assert_eq!(worker.core.kv.used_tokens(), 0.0);
    }

    /// Regression: a sharer whose prefix allocation did not fit used to
    /// detach on release anyway, freeing a prefix another request held.
    #[test]
    fn an_overflowing_sharers_release_leaves_the_prefix_to_the_other_holder() {
        let prefix_work = |request, tokens, hit| {
            RuntimeMsg::Work(StageWork {
                request,
                phase: Phase::Prompt,
                tokens,
                stage_index: 1,
                epoch: 0,
                pipeline: two_stage_pipeline(),
                prefix: Some(helix_core::PrefixWork {
                    id: PrefixId(7),
                    tokens: 32,
                    hit,
                }),
            })
        };
        let (mut worker, mut fabric) = test_worker(NodeId(1), 64.0);
        // 3 of 4 pages taken; request 2's 2-page prefix does not fit.
        pass(&mut worker, &mut fabric, [work(1, Phase::Prompt, 48, 1)]);
        pass(&mut worker, &mut fabric, [prefix_work(2, 40, false)]);
        assert!(worker.core.kv.rejections() > 0, "the prefix overflowed");
        let next = [RuntimeMsg::Release(1), prefix_work(3, 8, true)];
        pass(&mut worker, &mut fabric, next);
        assert_eq!(worker.core.kv.shared_pages(), 2);
        worker.handle(RuntimeMsg::Release(2), &mut fabric);
        assert_eq!(
            worker.core.kv.shared_pages(),
            2,
            "request 3 still holds the prefix"
        );
        worker.handle(RuntimeMsg::Release(3), &mut fabric);
        assert_eq!(worker.core.kv.shared_pages(), 0);
        assert_eq!(worker.core.kv.used_tokens(), 0.0);
    }

    #[test]
    fn update_plan_swaps_the_execution_model_and_resizes_the_pool_in_place() {
        let (mut worker, mut fabric) = test_worker(NodeId(1), 64.0);
        // Queued work and residency survive the update.
        worker.handle(work(1, Phase::Decode, 1, 1), &mut fabric);
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
        let (at, _) = fabric.pop_due(f64::INFINITY).unwrap();
        worker.batch_done(at, at, &mut fabric);
        assert!(
            (worker.nominal_busy_secs - 0.25).abs() < 1e-9,
            "new execution model prices the batch"
        );
        assert_eq!(fabric.take_in_flight().len(), 1);
    }
}
