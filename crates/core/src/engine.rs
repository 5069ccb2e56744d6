//! The per-node engine core: the one batch / freeze / KV-residency
//! implementation behind both execution surfaces.
//!
//! The paper has **one** per-node worker — best-effort dynamic batching
//! (§5.1) over one paged KV pool whose exhaustion forces slow offloading to
//! host memory (§5.2, §6.1).  The simulator's `NodeEngine` and the runtime's
//! worker row are both that worker, so both are built on the two plain
//! structs of this module and neither keeps a private copy of the rules:
//!
//! * [`PagedKvPool`] — the KV residency table: tokens and pages per request,
//!   shared-prefix entries counted once however many requests reference
//!   them, *which request holds which prefix reference*, and running totals
//!   (used pages, used tokens, shared pages, peak utilisation, allocations
//!   that did not fit), all O(1) to read.
//! * [`EngineCore`] — the pending queue partitioned by frozen layer ranges,
//!   batch formation, per-item KV growth, the overflow decision, slowdown,
//!   failed/recover and the cumulative counters.  It answers one question:
//!   *given `now` and a cost function over the batch, which items start and
//!   how long do they take*.
//!
//! # What the core decides
//!
//! * **Batching.** An idle, healthy engine starts a batch of every queued
//!   item whose layers intersect no live frozen range; the rest stay queued.
//! * **KV growth.** Each started item grows its request's residency by the
//!   tokens it processes.  An item carrying shared-prefix work first takes
//!   the request's reference on the prefix entry (a no-op if it already
//!   holds one); a prefix *miss* computes the shared range but caches it in
//!   that entry, so only the unshared suffix grows the request's own pages.
//! * **Overflow: record and penalise.** Every append is recorded — pages
//!   beyond capacity are the modelled host-memory offload — and a batch is
//!   slowed by [`KV_OVERFLOW_PENALTY`](crate::exec_model::KV_OVERFLOW_PENALTY)
//!   when the pool is over capacity after the batch's appends.  This is the
//!   rule `perf/exact.json` pins.
//! * **Freezes.** A range thaws at its deadline: a KV hand-over freezes the
//!   migrated range on both ends until its transfer arrives.
//! * **Hand-overs.** [`EngineCore::hand_over`] is the one KV move of a
//!   migration: the residency moves at once ([`PagedKvPool::hand_over`]),
//!   [`KvTransferModel`] prices it as one transfer, and both ends freeze the
//!   migrated range until that transfer arrives.
//!
//! # What each surface adds, and who owns which state
//!
//! The core owns the queue, the in-flight batch, the frozen ranges, the pool
//! and the counters.  It never sees an event queue or a message: the
//! *simulator* adds `SimTime` scheduling (it turns the returned duration
//! into a `BatchComplete` event) and prices batches with
//! [`ExecModel`]; the *runtime worker* queues the returned duration in the
//! fabric's heap beside the deliveries (or completes a zero-duration batch
//! in place), forwards finished items through the fabric, keeps the report
//! counters and prices batches with its `ExecutionModel`.  Each surface
//! supplies the link a hand-over crosses and wakes both ends when it
//! arrives.  Cross-engine facts (which engines hold a request) stay with
//! the surfaces' coordinators.
//!
//! # Why the page size is a constructor argument
//!
//! The simulator instantiates the pool with **1-token pages** and its raw
//! `f64` capacity: every quantity it caches is a whole number of tokens, so
//! `used_pages > ⌊capacity⌋ ⇔ Σ tokens > capacity` and the modelled results
//! are bit-identical to the pre-core simulator.  The runtime keeps vLLM's
//! 16-token pages ([`DEFAULT_TOKENS_PER_PAGE`](crate::exec_model::DEFAULT_TOKENS_PER_PAGE)).
//! Two real callers with two values make it an argument, not a config field;
//! a change that re-records `perf/exact.json` can put the simulator on 16
//! and delete it.
//!
//! # Batch buffers and id hashing
//!
//! Steady-state batching allocates nothing.  With no live freeze,
//! [`start_batch`](EngineCore::start_batch) swaps the queue with the (empty)
//! in-flight buffer instead of partitioning it, and
//! [`complete_batch`](EngineCore::complete_batch) swaps the finished batch
//! into a buffer the caller owns — so three buffers rotate between the
//! caller, the batch and the queue, each keeping its capacity.  The maps
//! that remain on the per-token and per-batch-item paths (this pool's, the
//! control plane's in-flight, epoch and resume tables, the replica tracker)
//! are keyed by request and prefix ids — integers minted in-process — and use
//! a one-multiply folding hasher instead of SipHash; no result depends on
//! their iteration order (every snapshot and id list is sorted).
//!
//! # The checked front
//!
//! [`PagedKvPool::append_tokens`], [`attach_prefix`](PagedKvPool::attach_prefix)
//! and [`detach_prefix`](PagedKvPool::detach_prefix) are the *checked* front
//! of the same table for callers that want admission instead of offload: an
//! allocation that fits is recorded, one that does not counts a rejection
//! and leaves the table unchanged.  The engines never call them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::exec_model::{ExecModel, Phase};
use crate::placement::LayerRange;
use crate::replan::{EngineCounters, KvMigration, KvTransferModel, KvTransferRecord};
use crate::scheduling::prefix::PrefixWork;
use helix_cluster::PrefixId;
use helix_workload::RequestId;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Seconds of the recent-throughput window.
const THROUGHPUT_WINDOW_SECS: f64 = 10.0;

/// Multiply-fold hasher for the id-keyed maps of this crate (see the
/// [module documentation](self)): one widening multiply per `u64` written.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let wide = u128::from(self.0 ^ id) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

/// A map keyed by a `RequestId` or `PrefixId`.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Error returned when the checked front cannot satisfy an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvPoolError {
    /// The pool does not have enough free pages for the allocation.
    OutOfPages {
        /// Pages the allocation needed.
        requested: usize,
        /// Pages currently free.
        available: usize,
    },
}

impl fmt::Display for KvPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvPoolError::OutOfPages { requested, available } => write!(
                f,
                "kv pool exhausted: allocation needs {requested} pages but only {available} are free"
            ),
        }
    }
}

impl std::error::Error for KvPoolError {}

/// What one request holds: its own tokens and pages, and the shared-prefix
/// reference it took (dropped with the request).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Residency {
    tokens: usize,
    pages: usize,
    prefix: Option<PrefixId>,
}

/// One shared prefix: cached once, freed when the last reference drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharedPrefix {
    tokens: usize,
    pages: usize,
    refcount: usize,
}

/// The paged KV residency table of one (node, model) engine — the stand-in
/// for vLLM's PagedAttention block manager (§6.1).
///
/// KV memory is carved into pages of `tokens_per_page` tokens; a request
/// allocates pages lazily as its sequence grows and returns them all on
/// [`release`](Self::release), together with the shared-prefix reference it
/// holds.  The engine path ([`grow`](Self::grow), [`seed`](Self::seed),
/// [`hold_prefix`](Self::hold_prefix)) always records — usage may pass
/// capacity, which [`over_capacity`](Self::over_capacity) reports and the
/// engine penalises; the checked front refuses instead.
///
/// # Example
///
/// ```rust
/// use helix_core::engine::PagedKvPool;
///
/// let mut pool = PagedKvPool::new(1024.0, 16);
/// pool.append_tokens(1, 100).unwrap();
/// assert_eq!(pool.used_pages(), 7); // ceil(100 / 16)
/// assert!(pool.release(1));
/// assert!(!pool.release(1)); // nothing left to free
/// assert_eq!(pool.used_tokens(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PagedKvPool {
    tokens_per_page: usize,
    capacity_tokens: f64,
    total_pages: usize,
    requests: IdMap<RequestId, Residency>,
    prefixes: IdMap<PrefixId, SharedPrefix>,
    used_pages: usize,
    used_tokens: usize,
    shared_pages: usize,
    peak_utilization: f64,
    rejections: u64,
}

impl PagedKvPool {
    /// Creates a pool holding `capacity_tokens` tokens split into pages of
    /// `tokens_per_page` (at least 1; a negative or NaN capacity is empty).
    pub fn new(capacity_tokens: f64, tokens_per_page: usize) -> Self {
        let mut pool = PagedKvPool {
            tokens_per_page: tokens_per_page.max(1),
            capacity_tokens: 0.0,
            total_pages: 0,
            requests: IdMap::default(),
            prefixes: IdMap::default(),
            used_pages: 0,
            used_tokens: 0,
            shared_pages: 0,
            peak_utilization: 0.0,
            rejections: 0,
        };
        pool.resize(capacity_tokens);
        pool
    }

    /// Re-sizes the pool to `capacity_tokens`, keeping everything resident
    /// (an in-place plan update).  Nothing is evicted: a pool shrunk below
    /// its usage is simply over capacity until releases catch up.
    pub fn resize(&mut self, capacity_tokens: f64) {
        self.capacity_tokens = if capacity_tokens > 0.0 {
            capacity_tokens
        } else {
            0.0
        };
        self.total_pages = (self.capacity_tokens / self.tokens_per_page as f64).floor() as usize;
    }

    /// The planned capacity in tokens, exactly as given (not rounded down to
    /// whole pages).
    pub fn capacity_tokens(&self) -> f64 {
        self.capacity_tokens
    }

    /// Whole pages the capacity holds.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages currently allocated to requests and shared prefixes.
    pub fn used_pages(&self) -> usize {
        self.used_pages
    }

    /// Tokens currently cached across all requests and shared prefixes (each
    /// prefix counted once).
    pub fn used_tokens(&self) -> f64 {
        self.used_tokens as f64
    }

    /// Pages held by shared prefixes (counted once each).
    pub fn shared_pages(&self) -> usize {
        self.shared_pages
    }

    /// Whether more pages are allocated than the capacity holds — the
    /// condition under which the engine applies the overflow penalty.
    pub fn over_capacity(&self) -> bool {
        self.used_pages > self.total_pages
    }

    /// Used pages over total pages.  Not clamped: a value above 1.0 is the
    /// share of residency offloaded to host memory.  An empty pool reports
    /// 1.0.
    pub fn utilization(&self) -> f64 {
        if self.total_pages == 0 {
            return 1.0;
        }
        self.used_pages as f64 / self.total_pages as f64
    }

    /// The highest utilisation observed at any allocation.
    pub fn peak_utilization(&self) -> f64 {
        self.peak_utilization
    }

    /// Allocations that did not fit: refused by the checked front, or
    /// recorded beyond capacity (offloaded) by the engine path.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Tokens currently cached for one request.
    pub fn tokens_of(&self, request: RequestId) -> usize {
        self.requests.get(&request).map_or(0, |r| r.tokens)
    }

    /// Accounts `pages` newly allocated pages.
    fn allocated(&mut self, pages: usize) {
        if pages == 0 {
            return;
        }
        self.used_pages += pages;
        if self.over_capacity() {
            self.rejections += 1;
        }
        self.peak_utilization = self.peak_utilization.max(self.utilization());
    }

    /// Checked front: refuses (and counts) an allocation of `pages` that
    /// does not fit.
    fn admit(&mut self, pages: usize) -> Result<(), KvPoolError> {
        let available = self.total_pages.saturating_sub(self.used_pages);
        if pages > available {
            self.rejections += 1;
            return Err(KvPoolError::OutOfPages {
                requested: pages,
                available,
            });
        }
        Ok(())
    }

    /// Records `tokens` newly cached tokens for `request`, allocating pages
    /// only when its last page is full (the PagedAttention rule).  Always
    /// succeeds; pages beyond capacity count as offloaded.
    pub fn grow(&mut self, request: RequestId, tokens: usize) {
        let entry = self.requests.entry(request).or_default();
        entry.tokens += tokens;
        let extra = entry.tokens.div_ceil(self.tokens_per_page) - entry.pages;
        entry.pages += extra;
        self.used_tokens += tokens;
        self.allocated(extra);
    }

    /// Seeds migrated or replicated KV state: tops `request`'s residency up
    /// to at least `tokens`.  Residency counts the request's cached
    /// *sequence* tokens — the same count on every node holding layers for
    /// it — so a request already served here merges by `max`, not by sum.
    pub fn seed(&mut self, request: RequestId, tokens: usize) {
        self.grow(request, tokens.saturating_sub(self.tokens_of(request)));
    }

    /// Takes `request`'s reference on shared prefix `prefix` covering
    /// `tokens` tokens, materialising the entry on the first reference.  A
    /// request holds at most one reference per pool, so repeating the call
    /// (every stage arrival, a hand-over seeding an already attached
    /// request) is a no-op.  The reference drops with
    /// [`release`](Self::release).
    pub fn hold_prefix(&mut self, request: RequestId, prefix: PrefixId, tokens: usize) {
        let holder = self.requests.entry(request).or_default();
        if holder.prefix.is_none() {
            holder.prefix = Some(prefix);
            self.add_reference(prefix, tokens);
        }
    }

    /// Adds one reference to `prefix`; returns whether it was materialised.
    fn add_reference(&mut self, prefix: PrefixId, tokens: usize) -> bool {
        if let Some(entry) = self.prefixes.get_mut(&prefix) {
            entry.refcount += 1;
            return false;
        }
        let pages = tokens.div_ceil(self.tokens_per_page);
        self.prefixes.insert(
            prefix,
            SharedPrefix {
                tokens,
                pages,
                refcount: 1,
            },
        );
        self.used_tokens += tokens;
        self.shared_pages += pages;
        self.allocated(pages);
        true
    }

    /// Frees everything `request` holds: its pages and its shared-prefix
    /// reference (the last reference frees the prefix).  Returns `false`
    /// when the request held nothing — never allocated, or already released
    /// — so a repeated release is a no-op.
    pub fn release(&mut self, request: RequestId) -> bool {
        let Some(held) = self.requests.remove(&request) else {
            return false;
        };
        self.used_pages -= held.pages;
        self.used_tokens -= held.tokens;
        if let Some(prefix) = held.prefix {
            self.detach_prefix(prefix);
        }
        true
    }

    /// Checked [`grow`](Self::grow).
    ///
    /// # Errors
    ///
    /// Returns [`KvPoolError::OutOfPages`], counts a rejection and leaves
    /// the pool unchanged if there are not enough free pages.
    pub fn append_tokens(&mut self, request: RequestId, tokens: usize) -> Result<(), KvPoolError> {
        let have = self.requests.get(&request).copied().unwrap_or_default();
        let needed = (have.tokens + tokens).div_ceil(self.tokens_per_page);
        self.admit(needed.saturating_sub(have.pages))?;
        self.grow(request, tokens);
        Ok(())
    }

    /// Checked, unowned prefix reference: the first attach materialises the
    /// pages (`Ok(true)`), later ones only bump the count (`Ok(false)`).
    /// Pair every attach with one [`detach_prefix`](Self::detach_prefix).
    ///
    /// # Errors
    ///
    /// Returns [`KvPoolError::OutOfPages`], counts a rejection and leaves
    /// the pool unchanged if the prefix is not resident and does not fit.
    pub fn attach_prefix(&mut self, prefix: PrefixId, tokens: usize) -> Result<bool, KvPoolError> {
        if !self.prefixes.contains_key(&prefix) {
            self.admit(tokens.div_ceil(self.tokens_per_page))?;
        }
        Ok(self.add_reference(prefix, tokens))
    }

    /// Drops one reference to `prefix`; the last one frees its pages.
    /// Returns `true` when this call freed them; unknown prefixes return
    /// `false` (the entry may have moved with a migration).
    pub fn detach_prefix(&mut self, prefix: PrefixId) -> bool {
        let Some(entry) = self.prefixes.get_mut(&prefix) else {
            return false;
        };
        entry.refcount = entry.refcount.saturating_sub(1);
        if entry.refcount > 0 {
            return false;
        }
        let SharedPrefix { tokens, pages, .. } = *entry;
        self.prefixes.remove(&prefix);
        self.used_pages -= pages;
        self.shared_pages -= pages;
        self.used_tokens -= tokens;
        true
    }

    /// Every request's cached tokens, sorted by request id.
    pub fn snapshot(&self) -> Vec<(RequestId, usize)> {
        let mut entries: Vec<_> = self.requests.iter().map(|(&r, h)| (r, h.tokens)).collect();
        entries.sort_unstable_by_key(|&(request, _)| request);
        entries
    }

    /// Every shared prefix, sorted by prefix id: its cached tokens (counted
    /// once, not once per sharer) and the requests holding a reference.
    pub fn prefix_snapshot(&self) -> Vec<(PrefixId, usize, Vec<RequestId>)> {
        let mut entries: Vec<_> = self
            .prefixes
            .iter()
            .map(|(&prefix, p)| (prefix, p.tokens, Vec::new()))
            .collect();
        entries.sort_unstable_by_key(|entry| entry.0);
        for (&request, held) in &self.requests {
            let slot = held
                .prefix
                .and_then(|p| entries.binary_search_by_key(&p, |entry| entry.0).ok());
            if let Some(slot) = slot {
                entries[slot].2.push(request);
            }
        }
        for entry in &mut entries {
            entry.2.sort_unstable();
        }
        entries
    }

    /// The residency move of a KV hand-over to `destination`.  Every
    /// request's residency merges there as in [`seed`](Self::seed), and
    /// every shared prefix *moves* with its holders' references — they are
    /// installed where the holders' releases will look, and this pool keeps
    /// no stale copy to decrement.  A source whose node keeps layers of the
    /// model (`keeps_layers`) keeps its per-request entries; one the plan
    /// dropped keeps nothing.
    pub fn hand_over(&mut self, destination: &mut PagedKvPool, keeps_layers: bool) {
        for (request, tokens) in self.snapshot() {
            destination.seed(request, tokens);
        }
        for (prefix, tokens, holders) in self.prefix_snapshot() {
            for holder in holders {
                destination.hold_prefix(holder, prefix, tokens);
            }
        }
        if !keeps_layers {
            return self.clear();
        }
        for (_, entry) in self.prefixes.drain() {
            self.used_pages -= entry.pages;
            self.used_tokens -= entry.tokens;
        }
        self.shared_pages = 0;
        for held in self.requests.values_mut() {
            held.prefix = None;
        }
    }

    /// Drops all residency.
    fn clear(&mut self) {
        self.requests.clear();
        self.prefixes.clear();
        (self.used_pages, self.used_tokens, self.shared_pages) = (0, 0, 0);
    }
}

/// What the core needs to know about a queued work item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkMeta {
    /// The request the item belongs to.
    pub request: RequestId,
    /// Prompt or decode.
    pub phase: Phase,
    /// Tokens the item runs through the layers.
    pub tokens: usize,
    /// Layers the node computes for the item.
    pub layers: LayerRange,
    /// Shared-prefix work riding on the item (prompt phase only).  A hit's
    /// `tokens` already exclude the shared range; a miss's include it.
    pub prefix: Option<PrefixWork>,
}

/// The accessor that lets each surface queue its own item type (the
/// simulator's `WorkItem`, the runtime's `StageWork`) in an [`EngineCore`].
pub trait Work {
    /// The facts the core batches and accounts by.
    fn meta(&self) -> WorkMeta;
}

/// One started batch: how long it takes and what it processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRun {
    /// Seconds the cost function predicted, overflow penalty included.
    pub nominal_secs: f64,
    /// Seconds the batch actually takes (`nominal_secs × slowdown`).
    pub actual_secs: f64,
    /// Prompt tokens in the batch.
    pub prompt_tokens: u64,
    /// Decode tokens in the batch.
    pub decode_tokens: u64,
}

/// The synchronous core of one (node, model) engine; see the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct EngineCore<W> {
    /// The engine's KV residency table.  Batches grow it; the surfaces touch
    /// it *between* batches: seeding a replica or a promoted request,
    /// admission-time prefix references, re-sizing on a plan update.
    pub kv: PagedKvPool,
    /// Work waiting for the next batch.
    pending: Vec<W>,
    /// The executing batch (empty when idle).
    in_flight: Vec<W>,
    /// Frozen layer ranges, each until its deadline.  Overlapping hand-overs
    /// stack.
    frozen: Vec<(LayerRange, f64)>,
    /// Multiplier on batch duration: `1.0` = healthy hardware.
    slowdown: f64,
    failed: bool,
    counters: EngineCounters,
    window_tokens: u64,
    window_start: f64,
    recent_throughput: f64,
}

impl<W: Work> EngineCore<W> {
    /// Creates an idle engine over a pool of `kv_capacity_tokens` tokens in
    /// pages of `tokens_per_page`.
    pub fn new(kv_capacity_tokens: f64, tokens_per_page: usize) -> Self {
        EngineCore {
            kv: PagedKvPool::new(kv_capacity_tokens, tokens_per_page),
            pending: Vec::new(),
            in_flight: Vec::new(),
            frozen: Vec::new(),
            slowdown: 1.0,
            failed: false,
            counters: EngineCounters::default(),
            window_tokens: 0,
            window_start: 0.0,
            recent_throughput: 0.0,
        }
    }

    /// Items waiting for the next batch.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether a batch is executing.
    pub fn is_busy(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Cumulative busy seconds (predicted and actual) and tokens processed.
    /// `nominal_busy_secs / busy_secs` is the engine's measured speed factor
    /// — the signal fed back into the re-planner.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Tokens per second (prompt and decode) over the last completed
    /// measurement window, refreshed at batch start.
    pub fn recent_throughput(&self) -> f64 {
        self.recent_throughput
    }

    /// Sets the multiplier on batch duration (`2.0` = every batch takes
    /// twice the cost function's prediction; `1.0` restores nominal speed).
    pub fn set_slowdown(&mut self, factor: f64) {
        self.slowdown = factor.max(1e-6);
    }

    /// Marks the node failed: the engine starts no further batches.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Brings a failed engine back into service.  Its work and residency
    /// were purged when it failed; it picks up work on the next dispatch.
    pub fn recover(&mut self) {
        self.failed = false;
    }

    /// Freezes `layers` until `until` (the freeze half of a KV hand-over):
    /// queued work touching them waits while work on disjoint layers keeps
    /// batching.  A batch started at or after `until` no longer sees it.
    pub fn freeze(&mut self, layers: LayerRange, until: f64) {
        self.frozen.push((layers, until));
    }

    /// The KV hand-over of `migration` from this engine to `destination`,
    /// as both surfaces perform it.  The residency moves now
    /// ([`PagedKvPool::hand_over`]; `keeps_layers` says whether this node
    /// keeps layers of the model), `transfer` prices what this engine held
    /// as one transfer, `link` queues those bytes on the `from → to` link
    /// and returns when they arrive, and both ends freeze the migrated range
    /// until then — the surface wakes both at that instant.  Returns the
    /// transfer's record.
    pub fn hand_over(
        &mut self,
        destination: &mut Self,
        migration: KvMigration,
        keeps_layers: bool,
        transfer: KvTransferModel,
        now: f64,
        link: impl FnOnce(f64) -> f64,
    ) -> KvTransferRecord {
        let tokens = self.kv.used_tokens();
        let bytes = transfer.bytes(tokens, migration.layers.len());
        let at = link(bytes);
        self.kv.hand_over(&mut destination.kv, keeps_layers);
        self.freeze(migration.layers, at);
        destination.freeze(migration.layers, at);
        KvTransferRecord {
            at,
            migration,
            tokens,
            pages: transfer.pages(tokens),
            bytes,
            transfer_secs: at - now,
        }
    }

    /// Takes the engine out of service: queued and executing work, freezes
    /// and residency are dropped.  What is cumulative — the counters, the
    /// pool's peak and rejection counts — and the slowdown survive, so a
    /// tenancy that is planned again later continues them.
    pub fn retire(&mut self) {
        self.pending.clear();
        self.in_flight.clear();
        self.frozen.clear();
        self.kv.clear();
        (
            self.window_tokens,
            self.window_start,
            self.recent_throughput,
        ) = (0, 0.0, 0.0);
    }

    /// Starts a new timeline epoch: freezes and the throughput window are
    /// timeline-relative and reset; cumulative counters survive.
    pub fn rebase_epoch(&mut self) {
        self.frozen.clear();
        self.window_start = 0.0;
        self.window_tokens = 0;
    }

    /// Adds a work item to the pending queue.
    pub fn enqueue(&mut self, item: W) {
        self.pending.push(item);
    }

    /// Drops every pending item of `request` and frees what it holds — the
    /// abort path when a failed node strands an in-flight pipeline.
    pub fn purge_request(&mut self, request: RequestId) {
        self.pending.retain(|item| item.meta().request != request);
        self.kv.release(request);
    }

    /// Frees what a finished request holds.
    pub fn release_request(&mut self, request: RequestId) {
        self.kv.release(request);
    }

    /// Starts a batch at `now` if the engine is idle, healthy and has
    /// runnable work; `cost` prices the batch (seconds, before any overflow
    /// penalty or slowdown).  The batch stays in flight until
    /// [`complete_batch`](Self::complete_batch).
    pub fn start_batch(&mut self, now: f64, cost: impl FnOnce(&[W]) -> f64) -> Option<BatchRun> {
        if self.is_busy() || self.failed || self.pending.is_empty() {
            return None;
        }
        self.frozen.retain(|&(_, until)| now < until);
        if self.frozen.is_empty() {
            // `in_flight` is empty (the engine is idle): the whole queue
            // becomes the batch and its spent buffer the next queue.
            std::mem::swap(&mut self.pending, &mut self.in_flight);
        } else {
            let frozen = &self.frozen;
            let runnable = self.pending.extract_if(.., |item| {
                let layers = item.meta().layers;
                !frozen.iter().any(|&(range, _)| range.intersects(layers))
            });
            self.in_flight.extend(runnable);
            if self.in_flight.is_empty() {
                return None;
            }
        }
        let mut run = BatchRun {
            nominal_secs: cost(&self.in_flight),
            actual_secs: 0.0,
            prompt_tokens: 0,
            decode_tokens: 0,
        };
        for item in &self.in_flight {
            let item = item.meta();
            let mut cached = item.tokens;
            if let Some(p) = item.prefix {
                self.kv.hold_prefix(item.request, p.id, p.tokens);
                if !p.hit {
                    cached -= p.tokens.min(item.tokens);
                }
            }
            self.kv.grow(item.request, cached);
            match item.phase {
                Phase::Prompt => run.prompt_tokens += item.tokens as u64,
                Phase::Decode => run.decode_tokens += item.tokens as u64,
            }
        }
        run.nominal_secs = ExecModel::apply_kv_overflow(run.nominal_secs, self.kv.over_capacity());
        // The cost function predicts `nominal`; perturbed hardware delivers
        // it `slowdown` times slower.  Both are recorded, so the measured
        // speed factor is what an observer of the real node would compute.
        run.actual_secs = run.nominal_secs * self.slowdown;
        let tokens = run.prompt_tokens + run.decode_tokens;
        self.counters.busy_secs += run.actual_secs;
        self.counters.nominal_busy_secs += run.nominal_secs;
        self.counters.tokens += tokens;
        self.window_tokens += tokens;
        if now - self.window_start >= THROUGHPUT_WINDOW_SECS {
            self.recent_throughput =
                self.window_tokens as f64 / (now - self.window_start).max(1e-9);
            self.window_tokens = 0;
            self.window_start = now;
        }
        Some(run)
    }

    /// Completes the executing batch: `done` is emptied and receives the
    /// batch's items for routing (none when the engine is idle), and its
    /// buffer becomes the engine's next batch buffer.
    pub fn complete_batch(&mut self, done: &mut Vec<W>) {
        done.clear();
        std::mem::swap(&mut self.in_flight, done);
    }
}
