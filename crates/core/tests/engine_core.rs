//! The engine against itself: [`PagedKvPool`] and [`NodeEngine`] driven
//! directly, batches priced by a cost function of the test's own, with
//! nothing from `helix_sim` or `helix_runtime` in scope.  Whatever holds
//! here holds for the simulator's engines and the runtime's rows alike,
//! because both are this engine.
//!
//! The unit tests are the pool tests that used to live in the runtime's
//! `kv_pool.rs` and the engine tests that used to live in the simulator's
//! `engine.rs`, moved with the code.  The three properties are:
//!
//! 1. the table's reference counting and running totals under any
//!    interleaving of append / prefix hold / release / hand-over / resize,
//!    overflow included;
//! 2. freeze-range batching: nothing frozen runs, nothing disjoint waits,
//!    and everything runs once or is purged;
//! 3. batch formation and nominal durations do not depend on the page size
//!    while neither pool overflows.

use helix_cluster::{ModelId, NodeId, PrefixId};
use helix_core::engine::{KvPoolError, NodeEngine, PagedKvPool};
use helix_core::exec_model::{Phase, KV_OVERFLOW_PENALTY};
use helix_core::{Hop, KvMigration, KvTransferModel, LayerRange, PrefixWork, WorkItem};
use helix_workload::RequestId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// The pool (moved from `crates/runtime/src/kv_pool.rs`)
// ---------------------------------------------------------------------------

#[test]
fn pages_are_allocated_lazily_and_released_in_full() {
    let mut pool = PagedKvPool::new(160.0, 16);
    assert_eq!(pool.total_pages(), 10);
    pool.append_tokens(1, 10).unwrap();
    assert_eq!(pool.used_pages(), 1);
    // The next 6 tokens fit in the already-allocated page.
    pool.append_tokens(1, 6).unwrap();
    assert_eq!(pool.used_pages(), 1);
    // One more token needs a second page.
    pool.append_tokens(1, 1).unwrap();
    assert_eq!(pool.used_pages(), 2);
    assert_eq!(pool.tokens_of(1), 17);
    assert!(pool.release(1));
    assert_eq!(pool.used_pages(), 0);
    assert_eq!(pool.used_tokens(), 0.0);
    // A double release frees nothing and says so.
    assert!(!pool.release(1));
    assert!(pool.snapshot().is_empty());
}

#[test]
fn shared_prefixes_are_materialised_once_and_freed_with_the_last_reference() {
    let mut pool = PagedKvPool::new(320.0, 16);
    // First attach materialises ceil(100/16) = 7 pages.
    assert!(pool.attach_prefix(PrefixId(5), 100).unwrap());
    assert_eq!(pool.used_pages(), 7);
    assert_eq!(pool.shared_pages(), 7);
    // Later attaches cost nothing.
    assert!(!pool.attach_prefix(PrefixId(5), 100).unwrap());
    assert!(!pool.attach_prefix(PrefixId(5), 100).unwrap());
    assert_eq!(pool.used_pages(), 7);
    assert_eq!(pool.prefix_snapshot(), vec![(PrefixId(5), 100, vec![])]);
    // Requests and prefixes share the same page budget.
    pool.append_tokens(1, 32).unwrap();
    assert_eq!(pool.used_pages(), 9);
    assert_eq!(pool.used_tokens(), 132.0);
    // Pages survive until the last reference drops.
    assert!(!pool.detach_prefix(PrefixId(5)));
    assert!(!pool.detach_prefix(PrefixId(5)));
    assert!(pool.detach_prefix(PrefixId(5)));
    assert_eq!(pool.shared_pages(), 0);
    assert_eq!(pool.used_pages(), 2);
    // Detaching an unknown prefix is a no-op returning false.
    assert!(!pool.detach_prefix(PrefixId(5)));
}

#[test]
fn checked_attach_respects_capacity_and_the_snapshot_carries_the_holders() {
    let mut pool = PagedKvPool::new(64.0, 16);
    pool.append_tokens(1, 48).unwrap();
    // 3 of 4 pages used: a 32-token prefix does not fit the checked front.
    assert_eq!(
        pool.attach_prefix(PrefixId(0), 32),
        Err(KvPoolError::OutOfPages {
            requested: 2,
            available: 1
        })
    );
    assert_eq!(pool.rejections(), 1);
    assert!(
        pool.prefix_snapshot().is_empty(),
        "a refusal records nothing"
    );
    // References taken by requests travel with the snapshot; repeating a
    // hold (every stage arrival does) changes nothing.
    pool.hold_prefix(7, PrefixId(1), 16);
    pool.hold_prefix(9, PrefixId(1), 16);
    pool.hold_prefix(9, PrefixId(1), 16);
    assert_eq!(pool.prefix_snapshot(), vec![(PrefixId(1), 16, vec![7, 9])]);
    assert_eq!(pool.shared_pages(), 1);
    // The holders' releases — not an anonymous detach — free the entry.
    assert!(pool.release(7));
    assert_eq!(pool.shared_pages(), 1);
    assert!(pool.release(9));
    assert_eq!(pool.shared_pages(), 0);
    assert_eq!(pool.used_pages(), 3);
}

#[test]
fn a_hand_over_installs_the_references_where_the_releases_will_look() {
    let mut source = PagedKvPool::new(4096.0, 16);
    source.grow(1, 64);
    source.grow(2, 32);
    source.hold_prefix(1, PrefixId(4), 16);
    source.hold_prefix(2, PrefixId(4), 16);
    let mut destination = PagedKvPool::new(4096.0, 16);
    // Request 2 is already being served (and attached) on the destination.
    destination.grow(2, 40);
    destination.hold_prefix(2, PrefixId(4), 16);
    source.hand_over(&mut destination, true);
    // Residency merges by max (the same sequence, not a second copy).
    assert_eq!(destination.snapshot(), vec![(1, 64), (2, 40)]);
    assert_eq!(destination.used_tokens(), 64.0 + 40.0 + 16.0);
    // The move leaves no stale reference behind on the source.
    assert_eq!(source.shared_pages(), 0);
    assert_eq!(source.used_tokens(), 96.0);
    assert!(source.release(1) && source.release(2));
    assert_eq!(source.used_pages(), 0);
    // Each request's release drops its reference on the destination.
    assert!(destination.release(1));
    assert_eq!(destination.shared_pages(), 1);
    assert!(destination.release(2));
    assert_eq!(destination.shared_pages(), 0);
    assert_eq!(destination.used_pages(), 0);
}

#[test]
fn exhaustion_is_reported_and_leaves_the_pool_unchanged() {
    let mut pool = PagedKvPool::new(64.0, 16);
    pool.append_tokens(1, 48).unwrap();
    let err = pool.append_tokens(2, 32).unwrap_err();
    assert_eq!(
        err,
        KvPoolError::OutOfPages {
            requested: 2,
            available: 1
        }
    );
    assert_eq!(pool.rejections(), 1);
    // The failed allocation did not leak pages.
    assert_eq!(pool.used_pages(), 3);
    assert_eq!(pool.tokens_of(2), 0);
    // A smaller allocation still fits.
    pool.append_tokens(2, 16).unwrap();
    assert_eq!(pool.used_pages(), 4);
    assert!(pool.utilization() > 0.99);
    assert!((pool.peak_utilization() - 1.0).abs() < 1e-9);
    assert!(err.to_string().contains("exhausted"));
}

#[test]
fn the_engine_path_records_what_the_checked_front_refuses() {
    let mut pool = PagedKvPool::new(64.0, 16);
    pool.grow(1, 48);
    assert!(!pool.over_capacity());
    assert_eq!(pool.rejections(), 0);
    // 2 more pages with 1 free: recorded, counted, over capacity.
    pool.grow(2, 32);
    assert_eq!(pool.tokens_of(2), 32);
    assert_eq!(pool.used_pages(), 5);
    assert!(pool.over_capacity());
    assert_eq!(pool.rejections(), 1);
    // Utilisation is not clamped: a quarter of the residency is offloaded.
    assert_eq!(pool.utilization(), 1.25);
    assert_eq!(pool.peak_utilization(), 1.25);
    // A decode append into an allocated page allocates nothing and is not
    // counted, even while the pool is over capacity.
    pool.grow(1, 0);
    pool.grow(2, 0);
    assert_eq!(pool.rejections(), 1);
    assert!(pool.release(1));
    assert!(!pool.over_capacity());
    assert_eq!(pool.peak_utilization(), 1.25, "the peak is kept");
}

#[test]
fn zero_capacity_pool_rejects_everything() {
    let mut pool = PagedKvPool::new(0.0, 16);
    assert_eq!(pool.total_pages(), 0);
    assert_eq!(pool.utilization(), 1.0);
    assert!(pool.append_tokens(1, 1).is_err());
    assert!(
        pool.append_tokens(1, 0).is_ok(),
        "empty appends always succeed"
    );
}

#[test]
fn whole_pages_round_down_but_the_planned_capacity_is_reported_as_given() {
    let pool = PagedKvPool::new(100.0, 16);
    assert_eq!(pool.total_pages(), 6);
    assert_eq!(pool.capacity_tokens(), 100.0);
}

/// Replaces `zero_page_size_is_rejected` (a `should_panic` test): the core
/// does not panic, it clamps.
#[test]
fn degenerate_arguments_are_clamped() {
    let mut pool = PagedKvPool::new(100.0, 0);
    assert_eq!(pool.total_pages(), 100, "a zero page size means 1");
    pool.grow(1, 3);
    assert_eq!(pool.used_pages(), 3);
    for capacity in [-5.0, f64::NAN] {
        let pool = PagedKvPool::new(capacity, 16);
        assert_eq!(pool.capacity_tokens(), 0.0);
        assert_eq!(pool.total_pages(), 0);
    }
}

#[test]
fn resize_keeps_residency_and_never_evicts() {
    let mut pool = PagedKvPool::new(64.0, 16);
    pool.append_tokens(1, 32).unwrap();
    pool.resize(128.0);
    assert_eq!(pool.total_pages(), 8);
    assert_eq!(pool.used_pages(), 2);
    pool.append_tokens(2, 64).unwrap();
    // Shrinking below the 6 pages in use evicts nothing: the pool is over
    // capacity and nothing new fits until releases catch up.
    pool.resize(16.0);
    assert_eq!(pool.total_pages(), 1);
    assert_eq!(pool.used_pages(), 6);
    assert!(pool.over_capacity());
    assert!(pool.append_tokens(3, 16).is_err());
    pool.release(1);
    pool.release(2);
    assert!(!pool.over_capacity());
    assert!(pool.append_tokens(3, 16).is_ok());
}

// ---------------------------------------------------------------------------
// The engine (moved from `crates/sim/src/engine.rs`)
// ---------------------------------------------------------------------------

/// A queued item, numbered by its hop's epoch field.
fn item(id: u64, request: RequestId, phase: Phase, tokens: usize, layers: LayerRange) -> WorkItem {
    let tokens = u32::try_from(tokens).unwrap();
    let hop = Hop {
        epoch: id,
        slot: 0,
        tokens,
        stage: 0,
        phase,
    };
    WorkItem {
        request,
        hop,
        layers,
        prefix: None,
    }
}

fn decode(request: RequestId) -> WorkItem {
    item(request, request, Phase::Decode, 1, LayerRange::new(0, 10))
}

/// A deterministic stand-in for the surfaces' cost models.
fn cost(batch: &[WorkItem]) -> f64 {
    0.015
        + batch
            .iter()
            .map(|i| f64::from(i.hop.tokens) * 1e-3)
            .sum::<f64>()
}

#[test]
fn an_idle_engine_starts_a_batch_and_a_busy_one_does_not() {
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    assert!(e.start_batch(0.0, cost).is_none(), "no work, no batch");
    e.enqueue(decode(1));
    let run = e.start_batch(0.0, cost).unwrap();
    assert_eq!(run.nominal_secs, 0.016);
    assert_eq!(run.actual_secs, 0.016);
    assert_eq!((run.prompt_tokens, run.decode_tokens), (0, 1));
    assert!(e.is_busy());
    // More work arrives while busy; no new batch can start.
    e.enqueue(decode(2));
    assert!(e.start_batch(0.1, cost).is_none());
    assert_eq!(complete(&mut e), vec![decode(1)]);
    assert!(!e.is_busy());
    assert_eq!(e.queue_len(), 1);
}

/// Replaces `completing_idle_node_panics`: an idle completion is empty.
#[test]
fn completing_an_idle_engine_returns_nothing() {
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    assert!(complete(&mut e).is_empty());
    e.enqueue(decode(1));
    assert!(complete(&mut e).is_empty(), "queued is not in flight");
    assert_eq!(e.queue_len(), 1);
}

#[test]
fn kv_accounting_and_the_overflow_penalty() {
    let prompt = |request| item(request, request, Phase::Prompt, 200, LayerRange::new(0, 10));
    let mut small: NodeEngine = NodeEngine::new(None, 0, 50.0, 1);
    let mut big: NodeEngine = NodeEngine::new(None, 0, 1e9, 1);
    small.enqueue(prompt(1));
    big.enqueue(prompt(1));
    let slow = small.start_batch(0.0, cost).unwrap();
    let fast = big.start_batch(0.0, cost).unwrap();
    assert_eq!(slow.nominal_secs, fast.nominal_secs * KV_OVERFLOW_PENALTY);
    assert_eq!(small.kv.used_tokens(), 200.0, "overflow is recorded");
    complete(&mut small);
    // The next batch is still over capacity and is penalised too, even
    // though its own append is tiny — the rule looks at the pool, not at
    // the allocation.
    small.enqueue(decode(1));
    let still_slow = small.start_batch(1.0, cost).unwrap();
    assert_eq!(still_slow.nominal_secs, 0.016 * KV_OVERFLOW_PENALTY);
    complete(&mut small);
    small.release_request(1);
    assert_eq!(small.kv.used_tokens(), 0.0);
    small.enqueue(decode(2));
    assert_eq!(small.start_batch(2.0, cost).unwrap().nominal_secs, 0.016);
}

#[test]
fn a_prefix_miss_caches_the_shared_range_once_and_a_hit_reuses_it() {
    let with_prefix = |request, tokens, hit| {
        let mut i = item(
            request,
            request,
            Phase::Prompt,
            tokens,
            LayerRange::new(0, 10),
        );
        i.prefix = Some(PrefixWork {
            id: PrefixId(3),
            tokens: 64,
            hit,
        });
        i
    };
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    // The miss computes 100 tokens; 64 land in the shared entry, 36 in its own.
    e.enqueue(with_prefix(1, 100, false));
    // The hit's 30 tokens already exclude the shared range.
    e.enqueue(with_prefix(2, 30, true));
    let run = e.start_batch(0.0, cost).unwrap();
    assert_eq!(run.prompt_tokens, 130);
    assert_eq!(e.kv.snapshot(), vec![(1, 36), (2, 30)]);
    assert_eq!(e.kv.prefix_snapshot(), vec![(PrefixId(3), 64, vec![1, 2])]);
    assert_eq!(e.kv.used_tokens(), 130.0);
    complete(&mut e);
    e.release_request(1);
    assert_eq!(e.kv.shared_pages(), 4, "request 2 still shares it");
    e.release_request(2);
    assert_eq!(e.kv.used_pages(), 0);
}

#[test]
fn the_throughput_window_and_the_counters_update() {
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    e.set_slowdown(2.0);
    let mut now = 0.0;
    for round in 0..200u64 {
        e.enqueue(decode(round));
        let run = e.start_batch(now, cost).unwrap();
        assert_eq!(run.actual_secs, 2.0 * run.nominal_secs);
        complete(&mut e);
        e.release_request(round);
        now += 0.1;
    }
    // 200 tokens in 20 s, measured over 10-second windows.
    assert!((e.recent_throughput() - 10.0).abs() < 0.2);
    let counters = e.counters();
    assert_eq!(counters.tokens, 200);
    assert!((counters.nominal_busy_secs - 200.0 * 0.016).abs() < 1e-9);
    assert!((counters.busy_secs - 2.0 * counters.nominal_busy_secs).abs() < 1e-9);
}

#[test]
fn a_failed_engine_starts_nothing_until_it_recovers_and_a_purge_drops_queued_work() {
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    e.enqueue(decode(1));
    e.enqueue(decode(2));
    e.kv.seed(1, 40);
    e.fail();
    assert!(e.start_batch(0.0, cost).is_none());
    e.purge_request(1);
    assert_eq!(e.queue_len(), 1);
    assert_eq!(e.kv.used_tokens(), 0.0);
    e.recover();
    assert!(e.start_batch(0.0, cost).is_some());
    assert_eq!(complete(&mut e), vec![decode(2)]);
}

#[test]
fn frozen_layers_hold_work_while_disjoint_layers_keep_batching() {
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    // Freeze layers [0, 5) until t=10; work on [5, 10) must still run.
    e.freeze(LayerRange::new(0, 5), 10.0);
    let held = item(1, 1, Phase::Decode, 1, LayerRange::new(0, 5));
    let runnable = item(2, 2, Phase::Decode, 1, LayerRange::new(5, 10));
    e.enqueue(held);
    e.enqueue(runnable);

    assert!(e.start_batch(0.0, cost).is_some(), "disjoint layers batch");
    assert_eq!(complete(&mut e), vec![runnable], "only un-frozen work");
    assert_eq!(e.queue_len(), 1, "frozen work still queued");
    // While the range is frozen the held item cannot start...
    assert!(e.start_batch(9.9, cost).is_none());
    // ...but once the freeze expires it batches normally.
    assert!(e.start_batch(10.0, cost).is_some());
    assert_eq!(complete(&mut e), vec![held]);

    // Overlapping hand-overs stack: the range is held until the later one
    // arrives.
    e.freeze(LayerRange::new(0, 5), 20.0);
    e.freeze(LayerRange::new(2, 3), 30.0);
    e.enqueue(held);
    assert!(e.start_batch(20.0, cost).is_none(), "one freeze remains");
    assert!(e.start_batch(30.0, cost).is_some());
    assert_eq!(complete(&mut e), vec![held]);
}

// ---------------------------------------------------------------------------
// The hand-over both surfaces perform
// ---------------------------------------------------------------------------

/// A migration of layers `[4, 8)` from node 0 to node 1.
fn migration() -> KvMigration {
    KvMigration {
        model: ModelId(0),
        from: NodeId(0),
        to: NodeId(1),
        layers: LayerRange::new(4, 8),
    }
}

/// Regression, moved from the runtime worker's suite: a migrated prefix
/// arrives with its holders, so the holders' releases free it on the
/// destination (it used to stay resident for ever — nothing on the
/// destination knew who referenced it).
#[test]
fn releases_after_a_hand_over_free_the_migrated_prefix() {
    let mut source = PagedKvPool::new(100_000.0, 16);
    source.grow(1, 64);
    source.grow(2, 32);
    source.hold_prefix(1, PrefixId(4), 16);
    source.hold_prefix(2, PrefixId(4), 16);
    let mut destination = PagedKvPool::new(100_000.0, 16);
    source.hand_over(&mut destination, true);
    assert_eq!(destination.shared_pages(), 1);
    assert!(destination.release(1));
    assert_eq!(destination.shared_pages(), 1, "request 2 still holds it");
    assert!(destination.release(2));
    assert_eq!(destination.shared_pages(), 0);
    assert_eq!(destination.used_tokens(), 0.0);
}

/// The source's residency after a move: a node the plan dropped keeps
/// nothing, one that keeps layers of the model keeps its per-request
/// entries (its stages still serve them) but never the moved prefixes.
#[test]
fn a_dropped_source_keeps_nothing_and_a_source_with_layers_keeps_its_requests() {
    let source = || {
        let mut pool = PagedKvPool::new(100_000.0, 16);
        pool.grow(1, 40);
        pool.grow(2, 8);
        pool.hold_prefix(2, PrefixId(9), 32);
        pool
    };
    let mut dropped = source();
    let mut destination = PagedKvPool::new(100_000.0, 16);
    dropped.hand_over(&mut destination, false);
    assert_eq!((dropped.used_pages(), dropped.used_tokens()), (0, 0.0));
    assert!(dropped.snapshot().is_empty() && dropped.prefix_snapshot().is_empty());
    assert_eq!(destination.snapshot(), vec![(1, 40), (2, 8)]);
    assert_eq!(
        destination.prefix_snapshot(),
        vec![(PrefixId(9), 32, vec![2])]
    );

    let mut keeping = source();
    let mut destination = PagedKvPool::new(100_000.0, 16);
    keeping.hand_over(&mut destination, true);
    assert_eq!(keeping.snapshot(), vec![(1, 40), (2, 8)]);
    assert!(keeping.prefix_snapshot().is_empty());
    assert_eq!(keeping.used_tokens(), 48.0);
    assert_eq!(destination.used_tokens(), 80.0);
    // Request 2's release on the source finds no prefix reference to drop.
    assert!(keeping.release(2) && keeping.release(1));
    assert_eq!(keeping.used_pages(), 0);
}

/// What the hand-over reports is what [`KvTransferModel`] prices for what
/// the source held, crossing the link as one transfer; both ends freeze the
/// migrated range until it arrives.
#[test]
fn a_hand_over_is_one_priced_transfer_and_freezes_both_ends_until_it_arrives() {
    let mut source: NodeEngine = NodeEngine::new(None, 0, 100_000.0, 16);
    let mut destination: NodeEngine = NodeEngine::new(None, 0, 100_000.0, 16);
    source.kv.grow(1, 100);
    source.kv.hold_prefix(1, PrefixId(3), 20);
    let transfer = KvTransferModel::new(512.0, 16);
    let mut sent = Vec::new();
    let record = source.hand_over(
        &mut destination,
        migration(),
        true,
        transfer,
        2.0,
        |bytes| {
            sent.push(bytes);
            5.0
        },
    );
    // 120 tokens (the prefix once) in ⌈120 / 16⌉ = 8 pages of 4 layers.
    assert_eq!(record.tokens, 120.0);
    assert_eq!(record.pages, transfer.pages(120.0));
    assert_eq!(record.bytes, transfer.bytes(120.0, 4));
    assert_eq!(record.bytes, 8.0 * 16.0 * 4.0 * 512.0);
    assert_eq!(sent, [record.bytes], "one transfer of the priced bytes");
    assert_eq!((record.at, record.transfer_secs), (5.0, 3.0));
    assert_eq!(record.migration, migration());
    assert_eq!(destination.kv.used_tokens(), 120.0);
    // Both ends hold work on the migrated layers until the arrival, and
    // only those layers.
    let on = |layers, id| item(id, id, Phase::Decode, 1, layers);
    for engine in [&mut source, &mut destination] {
        engine.enqueue(on(LayerRange::new(0, 4), 1));
        engine.enqueue(on(LayerRange::new(6, 7), 2));
        assert_eq!(start(engine, 4.9).unwrap().0, [1]);
        complete(engine);
        assert_eq!(start(engine, 5.0).unwrap().0, [2]);
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

const REQUESTS: u64 = 8;
const PREFIXES: u64 = 3;

/// What the test believes a table holds: an entry per request (tokens,
/// possibly zero), the prefix each request references, the unowned
/// (checked-front) references, and the token count each resident prefix was
/// materialised with.
#[derive(Debug, Default, Clone)]
struct TableModel {
    tokens: BTreeMap<RequestId, usize>,
    holds: BTreeMap<RequestId, PrefixId>,
    unowned: BTreeMap<PrefixId, usize>,
    prefix_tokens: BTreeMap<PrefixId, usize>,
}

impl TableModel {
    fn grow(&mut self, request: RequestId, tokens: usize) {
        *self.tokens.entry(request).or_insert(0) += tokens;
    }

    fn hold(&mut self, request: RequestId, prefix: PrefixId, tokens: usize) {
        self.tokens.entry(request).or_insert(0);
        if *self.holds.entry(request).or_insert(prefix) == prefix {
            self.prefix_tokens.entry(prefix).or_insert(tokens);
        }
    }

    fn release(&mut self, request: RequestId) {
        self.tokens.remove(&request);
        self.holds.remove(&request);
    }

    fn references(&self, prefix: PrefixId) -> usize {
        self.holds.values().filter(|&&p| p == prefix).count()
            + self.unowned.get(&prefix).copied().unwrap_or(0)
    }

    /// Forgets the prefixes nothing references any more: the table must have
    /// freed exactly those.
    fn sweep(&mut self) {
        let live: BTreeSet<PrefixId> = (0..PREFIXES)
            .map(PrefixId)
            .filter(|&p| self.references(p) > 0)
            .collect();
        self.prefix_tokens.retain(|prefix, _| live.contains(prefix));
    }
}

/// The table agrees with the model — a prefix is resident exactly while
/// something references it, with exactly the model's holders — and its
/// running totals equal a from-scratch recount of its own snapshots.
fn check_table(pool: &PagedKvPool, model: &TableModel, page: usize) -> Result<(), TestCaseError> {
    let requests = pool.snapshot();
    let prefixes = pool.prefix_snapshot();
    let expected: Vec<(RequestId, usize)> = model.tokens.iter().map(|(&r, &t)| (r, t)).collect();
    prop_assert_eq!(&requests, &expected);
    let expected: Vec<(PrefixId, usize, Vec<RequestId>)> = model
        .prefix_tokens
        .iter()
        .map(|(&prefix, &tokens)| {
            let holders = model.holds.iter().filter(|(_, &p)| p == prefix);
            (prefix, tokens, holders.map(|(&r, _)| r).collect())
        })
        .collect();
    prop_assert_eq!(&prefixes, &expected);
    let request_pages: usize = requests.iter().map(|&(_, t)| t.div_ceil(page)).sum();
    let shared_pages: usize = prefixes.iter().map(|(_, t, _)| t.div_ceil(page)).sum();
    let tokens: usize = requests.iter().map(|&(_, t)| t).sum::<usize>()
        + prefixes.iter().map(|(_, t, _)| t).sum::<usize>();
    prop_assert_eq!(pool.used_pages(), request_pages + shared_pages);
    prop_assert_eq!(pool.shared_pages(), shared_pages);
    prop_assert_eq!(pool.used_tokens(), tokens as f64);
    prop_assert_eq!(pool.over_capacity(), pool.used_pages() > pool.total_pages());
    Ok(())
}

/// Un-frozen batches take the whole queue by swapping buffers; a live freeze
/// forces the partition path in between.  Order, contents and the queue
/// length agree across the switch, through the engine's rotating buffers.
#[test]
fn a_frozen_range_partitions_between_two_swapped_batches() {
    let mut e: NodeEngine = NodeEngine::new(None, 0, 10_000.0, 16);
    let low = |id| item(id, id, Phase::Decode, 1, LayerRange::new(0, 4));
    let high = |id| item(id, id, Phase::Decode, 1, LayerRange::new(4, 8));
    // Swap path: everything queued runs, in arrival order.
    for id in [1, 2, 3] {
        e.enqueue(if id == 2 { high(id) } else { low(id) });
    }
    assert_eq!(start(&mut e, 0.0).unwrap().0, [1, 2, 3]);
    e.enqueue(low(4));
    assert_eq!(ids(complete(&mut e)), [1, 2, 3]);
    // Partition path: layers 4..8 freeze until t = 5, so 5 and 7 wait while
    // 4 and 6 run — both halves keep their arrival order.
    e.freeze(LayerRange::new(4, 8), 5.0);
    for id in [5, 6, 7] {
        e.enqueue(if id == 6 { low(id) } else { high(id) });
    }
    assert_eq!(start(&mut e, 1.0).unwrap().0, [4, 6]);
    assert_eq!(e.queue_len(), 2);
    assert_eq!(ids(complete(&mut e)), [4, 6]);
    // Everything runnable is frozen: no batch, nothing lost.
    assert!(start(&mut e, 2.0).is_none());
    assert!(!e.is_busy());
    assert_eq!(e.queue_len(), 2);
    // Swap path again once the deadline passed, behind the held work.
    e.enqueue(low(8));
    assert_eq!(start(&mut e, 5.0).unwrap().0, [5, 7, 8]);
    assert_eq!(ids(complete(&mut e)), [5, 7, 8]);
    assert_eq!(ids(complete(&mut e)), [0u64; 0], "idle: nothing completes");
    assert_eq!(e.queue_len(), 0);
}

/// Runs `start_batch` and reports the ids it started with its nominal time.
fn start(engine: &mut NodeEngine, now: f64) -> Option<(Vec<u64>, f64)> {
    let mut ids = Vec::new();
    let run = engine.start_batch(now, |batch| {
        ids = batch.iter().map(|i| i.hop.epoch).collect();
        cost(batch)
    })?;
    Some((ids, run.nominal_secs))
}

/// Completes the executing batch and takes its items.
fn complete(engine: &mut NodeEngine) -> Vec<WorkItem> {
    let mut done = Vec::new();
    engine.complete_batch(|item| done.push(*item));
    done
}

fn ids(items: Vec<WorkItem>) -> Vec<u64> {
    items.into_iter().map(|i| i.hop.epoch).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (i) PR 8's refcount property, on the shared table, widened: any
    /// interleaving of engine-path and checked-front operations on two
    /// tables, hand-overs between them (from a source that keeps layers or
    /// one the plan dropped) and resizes keeps every running total
    /// equal to a recount, keeps a prefix resident exactly as long as
    /// something references it (so it is freed once, by its last reference),
    /// and ends exactly empty once everything is released — overflow or not.
    #[test]
    fn the_table_balances_under_any_interleaving(
        page in 1usize..20,
        capacity in 0usize..600,
        ops in prop::collection::vec((0u8..9, 0u64..REQUESTS, 0u64..PREFIXES, 1usize..90), 1..80),
    ) {
        let mut pools = [
            PagedKvPool::new(capacity as f64, page),
            PagedKvPool::new(capacity as f64 / 2.0, page),
        ];
        let mut models = [TableModel::default(), TableModel::default()];
        for (op, request, prefix, tokens) in ops {
            let side = (request % 2) as usize;
            let other = 1 - side;
            let prefix = PrefixId(prefix);
            match op {
                0 | 1 => {
                    pools[side].grow(request, tokens);
                    models[side].grow(request, tokens);
                }
                2 => {
                    pools[side].hold_prefix(request, prefix, tokens);
                    models[side].hold(request, prefix, tokens);
                }
                3 => {
                    let held = pools[side].release(request);
                    prop_assert_eq!(held, models[side].tokens.contains_key(&request));
                    models[side].release(request);
                }
                4 => {
                    // Checked append: fits → recorded, else counted and
                    // nothing changes.
                    let (used, rejected) = (pools[side].used_pages(), pools[side].rejections());
                    if pools[side].append_tokens(request, tokens).is_ok() {
                        models[side].grow(request, tokens);
                        let newly_over = pools[side].over_capacity() && used <= pools[side].total_pages();
                        prop_assert!(!newly_over, "a checked append never overflows");
                    } else {
                        prop_assert_eq!(pools[side].used_pages(), used);
                        prop_assert_eq!(pools[side].rejections(), rejected + 1);
                    }
                }
                5 => {
                    if pools[side].attach_prefix(prefix, tokens).is_ok() {
                        *models[side].unowned.entry(prefix).or_insert(0) += 1;
                        models[side].prefix_tokens.entry(prefix).or_insert(tokens);
                    }
                }
                6 => {
                    // Every unowned attach is paired with one detach, so
                    // only detach what the checked front attached.
                    if let Some(count) = models[side].unowned.get_mut(&prefix) {
                        *count -= 1;
                        if *count == 0 {
                            models[side].unowned.remove(&prefix);
                        }
                        let freed = pools[side].detach_prefix(prefix);
                        prop_assert_eq!(freed, models[side].references(prefix) == 0);
                    } else if !models[side].prefix_tokens.contains_key(&prefix) {
                        prop_assert!(!pools[side].detach_prefix(prefix), "unknown prefix");
                    }
                }
                7 => {
                    // Hand-over from `side` to the other table.
                    let (requests, prefixes) =
                        (pools[side].snapshot(), pools[side].prefix_snapshot());
                    let keeps_layers = tokens % 2 == 0;
                    let [low, high] = &mut pools;
                    let (source, destination) = if side == 0 { (low, high) } else { (high, low) };
                    source.hand_over(destination, keeps_layers);
                    for (r, t) in requests {
                        let have = models[other].tokens.entry(r).or_insert(0);
                        *have = (*have).max(t);
                    }
                    for (p, t, holders) in prefixes {
                        for holder in holders {
                            models[other].hold(holder, p, t);
                        }
                    }
                    if keeps_layers {
                        // The prefixes moved, references and all.
                        models[side].holds.clear();
                        models[side].unowned.clear();
                    } else {
                        models[side] = TableModel::default();
                    }
                }
                _ => pools[side].resize(tokens as f64 * 7.0),
            }
            for side in 0..2 {
                models[side].sweep();
                check_table(&pools[side], &models[side], page)?;
            }
        }
        // Drain: drop the unowned references, release every request.
        for side in 0..2 {
            for (prefix, count) in std::mem::take(&mut models[side].unowned) {
                for _ in 0..count {
                    pools[side].detach_prefix(prefix);
                }
            }
            for request in 0..REQUESTS {
                pools[side].release(request);
                prop_assert!(!pools[side].release(request), "a second release is a no-op");
                models[side].release(request);
            }
            models[side].sweep();
            check_table(&pools[side], &models[side], page)?;
            prop_assert_eq!(pools[side].used_pages(), 0);
            prop_assert_eq!(pools[side].shared_pages(), 0);
            prop_assert_eq!(pools[side].used_tokens(), 0.0);
            prop_assert!(pools[side].snapshot().is_empty());
            prop_assert!(pools[side].prefix_snapshot().is_empty());
        }
    }

    /// (ii) Over random enqueue / freeze / start / complete / purge
    /// sequences: a started batch is exactly the queued items whose layers
    /// intersect no live frozen range (nothing frozen runs, nothing disjoint
    /// waits), a freeze ends at its deadline, and every item executes
    /// exactly once or is purged.
    #[test]
    fn freezes_hold_exactly_the_intersecting_work(
        ops in prop::collection::vec((0u8..8, 0usize..6, 1usize..4, 0u64..4), 1..150),
    ) {
        let mut engine: NodeEngine = NodeEngine::new(None, 0, 1e9, 16);
            let mut now = 0.0;
        // The model: live freezes, queued items in arrival order, fates.
        let mut live: Vec<(LayerRange, f64)> = Vec::new();
        let mut queued: Vec<WorkItem> = Vec::new();
        let mut in_flight: Vec<u64> = Vec::new();
        let (mut executed, mut purged) = (BTreeSet::new(), BTreeSet::new());
        let mut next_id = 0u64;
        // After the script, four start-or-complete steps drain the engine.
        let scripted = ops.len();
        let draining = (0..4).map(|_| (7u8, 0usize, 1usize, 0u64));
        for (step, (op, a, b, request)) in ops.into_iter().chain(draining).enumerate() {
            let drain = step >= scripted;
            let range = LayerRange::new(a, a + b);
            match op {
                0..=2 => {
                    let new = item(next_id, request, Phase::Decode, 1, range);
                    next_id += 1;
                    engine.enqueue(new);
                    queued.push(new);
                }
                3 => {
                    // A hand-over freeze that lands at `until`.
                    let until = now + request as f64 + 0.5;
                    engine.freeze(range, until);
                    live.push((range, until));
                }
                4 => now += 1.0,
                5 => {
                    let finished = ids(complete(&mut engine));
                    prop_assert_eq!(&finished, &in_flight);
                    for id in in_flight.drain(..) {
                        prop_assert!(executed.insert(id), "item {id} executed twice");
                    }
                }
                6 => {
                    engine.purge_request(request);
                    queued.retain(|i| i.request != request || !purged.insert(i.hop.epoch));
                }
                _ => {
                    if drain {
                        // Every hand-over has landed; run what is left.
                        now = 1e9;
                    }
                    live.retain(|&(_, until)| now < until);
                    let expected: Vec<u64> = if in_flight.is_empty() {
                        let frozen = |i: &WorkItem| {
                            live.iter().any(|&(range, _)| range.intersects(i.layers))
                        };
                        queued.iter().filter(|i| !frozen(i)).map(|i| i.hop.epoch).collect()
                    } else {
                        Vec::new()
                    };
                    let started = start(&mut engine, now).map(|(ids, _)| ids).unwrap_or_default();
                    prop_assert!(started == expected, "{started:?} != {expected:?} at {now}, {live:?}");
                    if !expected.is_empty() {
                        queued.retain(|i| !expected.contains(&i.hop.epoch));
                        in_flight = expected;
                    } else if drain {
                        let finished = ids(complete(&mut engine));
                        prop_assert_eq!(&finished, &in_flight);
                        for id in in_flight.drain(..) {
                            prop_assert!(executed.insert(id), "item {id} executed twice");
                        }
                    }
                }
            }
            prop_assert_eq!(engine.queue_len(), queued.len());
        }
        prop_assert!(queued.is_empty() && in_flight.is_empty(), "the drain runs everything");
        prop_assert!(executed.is_disjoint(&purged));
        prop_assert_eq!(executed.len() + purged.len(), next_id as usize);
    }

    /// (iii) The page size is a pool parameter, not a behaviour: the same
    /// operations on a 1-token-page core (the simulator's) and a
    /// 16-token-page core (the runtime's) form identical batches, and price
    /// them identically whenever neither pool is over capacity.
    #[test]
    fn batches_do_not_depend_on_the_page_size(
        capacity in 200usize..6000,
        ops in prop::collection::vec((0u8..6, 0u64..6, 1usize..300, prop::bool::ANY), 1..100),
    ) {
        let mut fine: NodeEngine = NodeEngine::new(None, 0, capacity as f64, 1);
        let mut paged: NodeEngine = NodeEngine::new(None, 0, capacity as f64, 16);
        let (mut next_id, mut now) = (0u64, 0.0);
        for (op, request, tokens, prompt) in ops {
            match op {
                0..=2 => {
                    let (phase, tokens) = if prompt { (Phase::Prompt, tokens) } else { (Phase::Decode, 1) };
                    let new = item(next_id, request, phase, tokens, LayerRange::new(0, 8));
                    next_id += 1;
                    fine.enqueue(new);
                    paged.enqueue(new);
                }
                3 => {
                    now += 0.5;
                    let a = start(&mut fine, now);
                    let b = start(&mut paged, now);
                    prop_assert_eq!(a.as_ref().map(|(ids, _)| ids), b.as_ref().map(|(ids, _)| ids));
                    if let (Some((_, a)), Some((_, b))) = (a, b) {
                        if !fine.kv.over_capacity() && !paged.kv.over_capacity() {
                            prop_assert_eq!(a, b);
                        }
                        // Pages only round up: the paged pool overflows first.
                        prop_assert!(paged.kv.over_capacity() || !fine.kv.over_capacity());
                    }
                }
                4 => {
                    prop_assert_eq!(ids(complete(&mut fine)), ids(complete(&mut paged)));
                }
                _ => {
                    fine.release_request(request);
                    paged.release_request(request);
                }
            }
            prop_assert_eq!(fine.kv.used_tokens(), paged.kv.used_tokens());
        }
    }
}
