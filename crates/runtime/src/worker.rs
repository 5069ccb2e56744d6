//! Compute-node worker tasks.
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
//! runtime's: the task loop, sleeping the batch duration on the virtual
//! clock, forwarding, the chunked KV hand-over and published statistics.
//!
//! Workers are **async tasks** on the data plane's [`minirt`] executor, not
//! OS threads: a 500-node fleet is 500 tasks sharing one driver thread.  A
//! worker waiting for work parks on its channel's waker; a worker executing
//! a batch suspends on a virtual-time timer, so hundreds of "busy" workers
//! overlap their modelled execution exactly as the thread-per-worker runtime
//! overlapped real sleeps.

use crate::clock::VirtualClock;
use crate::exec::ExecutionModel;
use crate::fabric::Fabric;
use crate::message::{Envelope, RuntimeMsg, StageWork};
use helix_cluster::{ModelId, NodeId, TOKEN_WIRE_BYTES};
use helix_core::engine::{BatchRun, EngineCore, Work, WorkMeta};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::LayerRange;
use helix_workload::RequestId;
use minirt::channel::Receiver;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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

/// Live statistics one worker shares with the coordinator and the final
/// report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Work items waiting for the next batch.
    pub queue_len: usize,
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
    /// Tokens currently resident in the KV pool.  Every append is recorded,
    /// so this may exceed the capacity: the excess is the modelled
    /// host-memory offload.
    pub kv_used_tokens: f64,
    /// Planned capacity of the KV pool in tokens.
    pub kv_capacity_tokens: f64,
    /// Highest KV pool utilisation (used pages / whole pages of capacity)
    /// observed at any allocation.  Not clamped: a value above 1.0 is the
    /// share of residency that was offloaded.
    pub kv_peak_utilization: f64,
    /// KV allocations that did not fit the pool.  They are recorded anyway
    /// (offloaded), and every batch that runs while the pool is over
    /// capacity pays the overflow penalty.
    pub kv_rejections: u64,
    /// Tokens per second (prompt and decode) over the most recent
    /// measurement window, refreshed when a batch starts.
    pub recent_throughput: f64,
    /// KV pages currently held by shared prefixes (counted once each,
    /// regardless of how many resident requests share them).
    pub kv_shared_pages: usize,
}

/// The worker's statistics, written by its task and read by the coordinator
/// on the same thread.
pub(crate) type SharedWorkerStats = Rc<RefCell<WorkerStats>>;

/// Static configuration of one worker.
#[derive(Debug, Clone)]
pub(crate) struct WorkerConfig {
    /// The compute node this worker represents.
    pub node: NodeId,
    /// The fleet model this worker serves (a shared node runs one worker per
    /// model, each with its own KV-pool partition).
    pub model: ModelId,
    /// Bytes of activation transferred per token to the next pipeline stage.
    pub activation_bytes: f64,
    /// KV pool capacity in tokens (derived from the placement).
    pub kv_capacity_tokens: f64,
}

/// Spawns a worker task on `executor`.  The task exits when it receives
/// [`RuntimeMsg::Shutdown`] or its inbound channel disconnects.
pub(crate) fn spawn_worker(
    executor: &minirt::Executor,
    config: WorkerConfig,
    execution: Arc<dyn ExecutionModel>,
    clock: VirtualClock,
    inbound: Receiver<RuntimeMsg>,
    fabric: Rc<Fabric>,
    stats: SharedWorkerStats,
) -> minirt::JoinHandle<()> {
    stats.borrow_mut().kv_capacity_tokens = config.kv_capacity_tokens;
    let mut worker = Worker {
        core: EngineCore::new(config.kv_capacity_tokens, DEFAULT_TOKENS_PER_PAGE),
        config,
        execution,
        clock,
        inbound,
        fabric,
        stats,
        done: Vec::new(),
        shutdown: false,
    };
    executor.spawn(async move { worker.run().await })
}

struct Worker {
    config: WorkerConfig,
    execution: Arc<dyn ExecutionModel>,
    clock: VirtualClock,
    inbound: Receiver<RuntimeMsg>,
    fabric: Rc<Fabric>,
    stats: SharedWorkerStats,
    /// Queue, frozen layer ranges, KV pool and batching rules.  A `Freeze`
    /// carries no deadline here: it holds until the matching `Resume`.
    core: EngineCore<StageWork>,
    /// The finished batch; its buffer goes back to the core at the next
    /// completion, so steady-state batching allocates nothing.
    done: Vec<StageWork>,
    shutdown: bool,
}

impl Worker {
    async fn run(&mut self) {
        loop {
            // Dynamic batching: everything that has arrived by now joins the
            // next batch.
            while let Ok(msg) = self.inbound.try_recv() {
                self.handle(msg);
            }
            if self.shutdown {
                // Shutdown overrides every freeze so teardown never strands
                // queued work.
                self.core.thaw_all();
            }
            let execution = &self.execution;
            // Nothing queued (the common wake-up on a lightly loaded fleet):
            // park without reading the clock.
            let started = match self.core.queue_len() {
                0 => None,
                _ => self
                    .core
                    .start_batch(self.clock.now(), |batch| execution.batch_duration(batch)),
            };
            match started {
                Some(run) => self.execute_batch(run).await,
                None if self.shutdown => break,
                // Idle (or every queued item frozen mid-hand-over): park on
                // the channel's waker until something arrives — a frozen
                // range only thaws on `Resume` or shutdown.
                None => match self.inbound.recv().await {
                    Ok(msg) => self.handle(msg),
                    Err(_) => break,
                },
            }
        }
        self.publish_stats();
    }

    fn handle(&mut self, msg: RuntimeMsg) {
        match msg {
            RuntimeMsg::Work(work) => {
                debug_assert_eq!(work.node(), self.config.node, "misrouted work item");
                debug_assert_eq!(work.model(), self.config.model, "misrouted model");
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
            RuntimeMsg::IterationDone { .. } | RuntimeMsg::KvInstalled { .. } => {
                // Only the coordinator consumes these; ignore defensively.
            }
            RuntimeMsg::SetSpeed(factor) => self.core.set_slowdown(factor),
            RuntimeMsg::Freeze(layers) => self.core.freeze(layers, f64::INFINITY),
            RuntimeMsg::Resume(layers) => self.core.thaw(layers),
            RuntimeMsg::KvExtract {
                to,
                layers,
                kv_bytes_per_token_per_layer,
            } => {
                self.extract_kv(to, layers, kv_bytes_per_token_per_layer);
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
                    self.fabric.send(Envelope {
                        from: Some(self.config.node),
                        to: None,
                        model: self.config.model,
                        bytes: TOKEN_WIRE_BYTES,
                        msg: RuntimeMsg::KvInstalled {
                            model: self.config.model,
                            from,
                            to: self.config.node,
                            layers,
                            tokens,
                            pages,
                            bytes,
                        },
                    });
                }
            }
            RuntimeMsg::UpdatePlan(update) => {
                self.execution = update.execution;
                self.core.kv.resize(update.kv_capacity_tokens);
                self.stats.borrow_mut().kv_capacity_tokens = update.kv_capacity_tokens;
            }
            RuntimeMsg::Shutdown => {
                self.shutdown = true;
            }
        }
        self.publish_stats();
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
    fn extract_kv(&mut self, to: NodeId, layers: LayerRange, kv_bytes_per_token_per_layer: f64) {
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
            self.fabric.send(Envelope {
                from: Some(self.config.node),
                to: Some(to),
                model: self.config.model,
                bytes: chunk_bytes,
                msg: RuntimeMsg::KvChunk {
                    from: self.config.node,
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

    /// Runs one started batch: suspend for its duration on the virtual
    /// clock, account it, forward every item.
    async fn execute_batch(&mut self, run: BatchRun) {
        self.clock.sleep_async(run.actual_secs).await;
        let now = self.clock.now();
        {
            let mut s = self.stats.borrow_mut();
            s.busy_secs += run.actual_secs;
            s.nominal_busy_secs += run.nominal_secs;
            s.batches += 1;
            s.prompt_tokens += run.prompt_tokens;
            s.decode_tokens += run.decode_tokens;
        }
        let mut done = std::mem::take(&mut self.done);
        self.core.complete_batch(&mut done);
        for item in done.drain(..) {
            self.forward(item, now);
        }
        self.done = done;
        self.publish_stats();
    }

    /// Sends a finished stage onward: to the next node in the pipeline, or to
    /// the coordinator if this was the last stage.
    fn forward(&mut self, item: StageWork, now: f64) {
        let model = item.model();
        let envelope = if item.is_last_stage() {
            Envelope {
                from: Some(self.config.node),
                to: None,
                model,
                bytes: TOKEN_WIRE_BYTES,
                msg: RuntimeMsg::IterationDone {
                    request: item.request,
                    phase: item.phase,
                    emitted_at: now,
                    epoch: item.epoch,
                },
            }
        } else {
            let next = item.next_stage();
            let to = next.node();
            Envelope {
                from: Some(self.config.node),
                to: Some(to),
                model,
                bytes: self.config.activation_bytes * next.tokens.max(1) as f64,
                msg: RuntimeMsg::Work(next),
            }
        };
        self.fabric.send(envelope);
    }

    fn publish_stats(&self) {
        let kv = &self.core.kv;
        let mut s = self.stats.borrow_mut();
        s.queue_len = self.core.queue_len();
        s.kv_used_tokens = kv.used_tokens();
        s.kv_peak_utilization = kv.peak_utilization();
        s.kv_rejections = kv.rejections();
        s.kv_shared_pages = kv.shared_pages();
        s.recent_throughput = self.core.recent_throughput();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::InstantExecution;
    use crate::message::Phase;
    use helix_cluster::PrefixId;
    use helix_core::{PipelineStage, RequestPipeline};
    use minirt::channel::{unbounded, Sender};

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

    fn test_worker(
        node: NodeId,
        kv_capacity: f64,
    ) -> (
        minirt::Executor,
        Sender<RuntimeMsg>,
        Rc<Fabric>,
        SharedWorkerStats,
        minirt::JoinHandle<()>,
    ) {
        let executor = minirt::Executor::new();
        let (inbound_tx, inbound_rx) = unbounded();
        // No pump: what the worker forwards stays in flight for the test.
        let fabric = Fabric::detached();
        let stats = SharedWorkerStats::default();
        let config = WorkerConfig {
            node,
            model: ModelId::default(),
            activation_bytes: 16_384.0,
            kv_capacity_tokens: kv_capacity,
        };
        let handle = spawn_worker(
            &executor,
            config,
            Arc::new(InstantExecution),
            VirtualClock::new(0.0001),
            inbound_rx,
            Rc::clone(&fabric),
            Rc::clone(&stats),
        );
        (executor, inbound_tx, fabric, stats, handle)
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

    #[test]
    fn first_stage_forwards_to_the_next_node_and_last_stage_reports_back() {
        let (executor, tx, fabric, stats, handle) = test_worker(NodeId(0), 100_000.0);
        tx.send(work(9, Phase::Prompt, 64, 0)).unwrap();
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
        assert!(handle.is_finished());

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
        let s = stats.borrow();
        assert_eq!(s.prompt_tokens, 64);
        assert_eq!(s.batches, 1);
        assert!(s.kv_used_tokens >= 64.0);
        drop(s);

        // The same work executed on the *last* stage reports to the
        // coordinator.
        let (executor, tx, fabric, _stats, _handle) = test_worker(NodeId(1), 100_000.0);
        tx.send(work(9, Phase::Prompt, 64, 1)).unwrap();
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
        let done = fabric.take_in_flight().pop().unwrap();
        assert_eq!(done.to, None);
        assert!(matches!(
            done.msg,
            RuntimeMsg::IterationDone {
                request: 9,
                phase: Phase::Prompt,
                ..
            }
        ));
    }

    #[test]
    fn release_frees_the_kv_pool_and_rejections_are_counted() {
        let (executor, tx, _fabric, stats, _handle) = test_worker(NodeId(0), 64.0);
        // 128 tokens cannot fit in a 64-token pool: the batch still runs,
        // the allocation is recorded (modelled offload) and counted.
        tx.send(work(1, Phase::Prompt, 128, 0)).unwrap();
        executor.drain();
        {
            let s = stats.borrow();
            assert_eq!(s.kv_used_tokens, 128.0, "the overflow is resident");
            assert_eq!(s.kv_peak_utilization, 2.0, "8 pages used of 4");
        }
        tx.send(RuntimeMsg::Release(1)).unwrap();
        tx.send(work(2, Phase::Prompt, 32, 0)).unwrap();
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
        let s = stats.borrow();
        assert_eq!(s.kv_rejections, 1);
        assert!(
            (s.kv_used_tokens - 32.0).abs() < 1e-9,
            "request 1 was released"
        );
        assert_eq!(s.queue_len, 0);
    }

    #[test]
    fn shutdown_drains_pending_work_before_exiting() {
        let (executor, tx, fabric, stats, handle) = test_worker(NodeId(1), 100_000.0);
        for request in 0..5 {
            tx.send(work(request, Phase::Decode, 1, 1)).unwrap();
        }
        tx.send(RuntimeMsg::Shutdown).unwrap();
        drop(tx);
        executor.drain();
        assert!(handle.is_finished());
        assert_eq!(fabric.take_in_flight().len(), 5);
        assert_eq!(stats.borrow().decode_tokens, 5);
    }

    #[test]
    fn frozen_layers_hold_their_work_while_other_layers_keep_executing() {
        let (executor, tx, fabric, stats, _handle) = test_worker(NodeId(1), 100_000.0);
        // Freeze [0, 4): stage-1 work on layers [4, 8) must keep executing.
        tx.send(RuntimeMsg::Freeze(LayerRange::new(0, 4))).unwrap();
        tx.send(work(1, Phase::Decode, 1, 1)).unwrap();
        executor.drain();
        assert!(
            matches!(
                fabric.take_in_flight().pop().unwrap().msg,
                RuntimeMsg::IterationDone { request: 1, .. }
            ),
            "disjoint layers execute through a freeze"
        );

        // Freeze [4, 8) too: now stage-1 work queues.
        tx.send(RuntimeMsg::Freeze(LayerRange::new(4, 8))).unwrap();
        tx.send(work(2, Phase::Decode, 1, 1)).unwrap();
        executor.drain();
        assert!(
            fabric.take_in_flight().is_empty(),
            "intersecting layers are held"
        );
        assert_eq!(stats.borrow().queue_len, 1);

        // Thawing releases exactly the held range's work.
        tx.send(RuntimeMsg::Resume(LayerRange::new(4, 8))).unwrap();
        executor.drain();
        assert!(matches!(
            fabric.take_in_flight().pop().unwrap().msg,
            RuntimeMsg::IterationDone { request: 2, .. }
        ));
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
    }

    #[test]
    fn kv_extract_ships_pipelined_chunks_whose_bytes_sum_to_the_priced_total() {
        let (executor, tx, fabric, _stats, _handle) = test_worker(NodeId(0), 1_000_000.0);
        // Seed lots of residency: 40 requests × 256 tokens = 10 240 tokens
        // = 640 pages, far more than one 64-page chunk.
        for request in 0..40 {
            tx.send(work(request, Phase::Prompt, 256, 0)).unwrap();
        }
        executor.drain(); // Execute the batches so the residency exists.
        tx.send(RuntimeMsg::KvExtract {
            to: NodeId(1),
            layers: LayerRange::new(0, 4),
            kv_bytes_per_token_per_layer: 1024.0,
        })
        .unwrap();
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();

        let mut chunks = fabric.take_in_flight();
        chunks.retain(|envelope| matches!(envelope.msg, RuntimeMsg::KvChunk { .. }));
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
                unreachable!()
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

    #[test]
    fn installing_chunks_seeds_kv_and_only_the_last_acknowledges() {
        let (executor, tx, fabric, stats, _handle) = test_worker(NodeId(1), 100_000.0);
        let layers = LayerRange::new(0, 4);
        tx.send(RuntimeMsg::KvChunk {
            from: NodeId(0),
            layers,
            entries: vec![(1, 64), (2, 32)],
            prefix_entries: vec![],
            tokens: 128,
            pages: 8,
            bytes: 4096.0,
            last: false,
        })
        .unwrap();
        executor.drain();
        assert!(
            fabric.take_in_flight().is_empty(),
            "no ack before the last chunk"
        );
        tx.send(RuntimeMsg::KvChunk {
            from: NodeId(0),
            layers,
            entries: vec![(3, 32)],
            prefix_entries: vec![(PrefixId(4), 16, vec![1, 2])],
            tokens: 128,
            pages: 8,
            bytes: 4096.0,
            last: true,
        })
        .unwrap();
        executor.drain();
        let ack = fabric.take_in_flight().pop().unwrap();
        assert!(matches!(
            ack.msg,
            RuntimeMsg::KvInstalled {
                from: NodeId(0),
                tokens: 128,
                pages: 8,
                ..
            }
        ));
        // 128 per-request tokens plus the 16-token shared prefix, installed
        // as one refcounted page.
        let s = stats.borrow();
        assert!((s.kv_used_tokens - 144.0).abs() < 1e-9);
        assert_eq!(s.kv_shared_pages, 1);
        drop(s);
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
    }

    /// Regression: a migrated prefix arrives with its holders, so the
    /// holders' releases free it on the destination (it used to stay resident
    /// for ever — nothing on the destination knew who referenced it).
    #[test]
    fn releases_after_a_hand_over_free_the_migrated_prefix() {
        let (executor, tx, _fabric, stats, _handle) = test_worker(NodeId(1), 100_000.0);
        tx.send(RuntimeMsg::KvChunk {
            from: NodeId(0),
            layers: LayerRange::new(0, 4),
            entries: vec![(1, 64), (2, 32)],
            prefix_entries: vec![(PrefixId(4), 16, vec![1, 2])],
            tokens: 112,
            pages: 7,
            bytes: 4096.0,
            last: true,
        })
        .unwrap();
        executor.drain();
        assert_eq!(stats.borrow().kv_shared_pages, 1);
        tx.send(RuntimeMsg::Release(1)).unwrap();
        executor.drain();
        assert_eq!(
            stats.borrow().kv_shared_pages,
            1,
            "request 2 still holds it"
        );
        tx.send(RuntimeMsg::Release(2)).unwrap();
        executor.drain();
        let s = stats.borrow();
        assert_eq!(s.kv_shared_pages, 0);
        assert_eq!(s.kv_used_tokens, 0.0);
        drop(s);
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
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
        let (executor, tx, _fabric, stats, _handle) = test_worker(NodeId(1), 64.0);
        // 3 of 4 pages taken; request 2's 2-page prefix does not fit.
        tx.send(work(1, Phase::Prompt, 48, 1)).unwrap();
        executor.drain();
        tx.send(prefix_work(2, 40, false)).unwrap();
        executor.drain();
        assert!(stats.borrow().kv_rejections > 0, "the prefix overflowed");
        tx.send(RuntimeMsg::Release(1)).unwrap();
        tx.send(prefix_work(3, 8, true)).unwrap();
        executor.drain();
        assert_eq!(stats.borrow().kv_shared_pages, 2);
        tx.send(RuntimeMsg::Release(2)).unwrap();
        executor.drain();
        assert_eq!(
            stats.borrow().kv_shared_pages,
            2,
            "request 3 still holds the prefix"
        );
        tx.send(RuntimeMsg::Release(3)).unwrap();
        executor.drain();
        let s = stats.borrow();
        assert_eq!(s.kv_shared_pages, 0);
        assert_eq!(s.kv_used_tokens, 0.0);
        drop(s);
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
    }

    #[test]
    fn update_plan_swaps_the_execution_model_and_resizes_the_pool_in_place() {
        struct Slow;
        impl ExecutionModel for Slow {
            fn batch_duration(&self, _items: &[StageWork]) -> f64 {
                0.25
            }
        }
        let (executor, tx, fabric, stats, _handle) = test_worker(NodeId(1), 64.0);
        tx.send(RuntimeMsg::UpdatePlan(crate::message::PlanUpdate {
            execution: Arc::new(Slow),
            kv_capacity_tokens: 4096.0,
            layers: 8,
        }))
        .unwrap();
        tx.send(work(1, Phase::Decode, 1, 1)).unwrap();
        tx.send(RuntimeMsg::Shutdown).unwrap();
        executor.drain();
        let s = stats.borrow();
        assert_eq!(s.kv_capacity_tokens, 4096.0, "pool resized in place");
        assert!(
            (s.nominal_busy_secs - 0.25).abs() < 1e-9,
            "new execution model prices the batch"
        );
        assert_eq!(fabric.take_in_flight().len(), 1);
    }
}
