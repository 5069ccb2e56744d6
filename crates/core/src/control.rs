//! The serving control plane: the one coordinator of the paper's Fig. 3.
//!
//! Helix has a single coordinator (§5.1–§5.2): it picks a per-request
//! pipeline by IWRR over the max-flow solution, masks nodes by KV usage, and
//! tracks every request until its last token.  This repository executes that
//! coordinator on two surfaces — the discrete-event `helix-sim` and the
//! wall-clock-paced `helix-runtime` — and [`ControlPlane`] is the part they
//! share **by construction**: every decision is made here, once, and each
//! surface only actuates the plain data the decision returns.
//!
//! # What the control plane decides
//!
//! * **Admission** ([`ControlPlane::admit`]): prefix route → base schedule →
//!   dead-node guard → adopt / bypass → prefill length → standby selection
//!   for replication.  A request promoted by a fail-over resumes here on its
//!   replica pipeline instead of being scheduled afresh.
//! * **Progress** ([`ControlPlane::on_token`], [`ControlPlane::finish`]):
//!   stale-epoch filtering, first-token and inter-token times, completion,
//!   and which KV replica chunks are now owed to which standby.
//! * **Fail-over** ([`ControlPlane::fail_nodes`], [`ControlPlane::rejoin`]):
//!   the stranded set (in id order), the epoch bump, promote-or-abort with
//!   the [`FailoverRecord`] accounting, prefix-home eviction and the removal
//!   (or hand-back) re-plan.
//! * **Re-planning** ([`ControlPlane::replan`], [`ControlPlane::observe`]):
//!   windowed measurement, the [`ReplanPolicy`] verdict, the fleet re-solve,
//!   prefix-router invalidation, scheduler rebuild and the [`ReplanRecord`].
//!
//! # What a surface actuates
//!
//! Everything a decision returns ([`Dispatch`], [`TokenProgress`],
//! [`Failover`], [`ReplanOutcome`]) is plain data, and one
//! [`Actuator`](crate::Actuator) acts on it for both surfaces: it puts
//! planned tenancies in service, moves bytes, seeds or frees KV, fails rows
//! over and performs each migration's KV hand-over with
//! [`NodeEngine::hand_over`](crate::engine::NodeEngine::hand_over), priced
//! by [`ControlPlane::kv_transfer`].  A surface supplies exactly two things
//! and nothing selectable:
//!
//! 1. a KV view — the `&dyn ClusterState` its admission is scheduled
//!    against (the simulator reads its engines, the runtime its §5.2 KV
//!    estimators);
//! 2. a [`Wire`](crate::Wire) — how bytes move: the simulator's link queues
//!    and event queue, or the runtime's fabric.
//!
//! The tenancy-liveness predicate standby promotion needs is the
//! actuator's: a row exists for the pair.
//!
//! # Who owns which state
//!
//! The control plane **owns** the standing [`FleetTopology`], the per-model
//! schedulers and [`PrefixRouter`]s, the [`ReplicationPolicy`] and
//! [`ReplicaTracker`], the failed-node set, per-request epochs, the in-flight
//! table, promotion credits awaiting re-admission, and the policy clock with
//! the re-plan and fail-over logs.  Surfaces hold no
//! copy of any of it; they read it through the accessors below.

use crate::engine::IdMap;
use crate::exec_model::DEFAULT_TOKENS_PER_PAGE;
use crate::{
    scheduler_of_kind, select_standby, ClusterState, EngineCounters, FailoverRecord, FleetTopology,
    HelixError, KvTransferModel, LayerRange, NodeObservations, ObservationWindows, PlacementDelta,
    PrefixRoute, PrefixRouter, PrefixStats, PrefixWork, ReplanOutcome, ReplanPolicy, ReplanReason,
    ReplanRecord, ReplicaTracker, ReplicationPolicy, ReplicationStats, RequestPipeline, Scheduler,
};
use helix_cluster::{ModelId, NodeId};
use helix_workload::{Request, RequestId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One admitted request, from dispatch to its last token.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The request as submitted.
    pub request: Request,
    /// The pipeline this incarnation runs on (fixed until it finishes or a
    /// failure strands it).
    pub pipeline: Arc<RequestPipeline>,
    /// Output tokens delivered so far; a promoted incarnation carries the
    /// count across the fail-over.
    pub generated: usize,
    /// The incarnation: work and tokens carrying an older epoch are stale.
    pub epoch: u64,
    /// The shared-prefix reference this admission holds.
    pub prefix: Option<PrefixWork>,
    /// When the first output token arrived (kept across a promotion).
    pub first_token_at: Option<f64>,
    /// When the previous output token of this incarnation arrived.
    pub last_token_at: Option<f64>,
}

/// An admission the surface must now put on the wire.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The pipeline to run on.
    pub pipeline: Arc<RequestPipeline>,
    /// The incarnation to stamp on every work item.
    pub epoch: u64,
    /// Tokens the first pipeline pass computes: the prompt, minus a resident
    /// shared prefix, or only what a promotion's replicas had not received —
    /// never less than one, since a token must flow to produce output.
    pub prefill_tokens: usize,
    /// Shared-prefix residency to attach on every pipeline node.
    pub prefix: Option<PrefixWork>,
    /// Set for a promoted request: the replicated sequence tokens to seed as
    /// KV residency on every pipeline node before the recompute arrives.
    pub resume_tokens: Option<usize>,
    /// Output tokens an earlier incarnation already delivered.
    pub generated: usize,
}

/// The verdict of [`ControlPlane::admit`].
#[derive(Debug, Clone)]
pub enum Admission {
    /// Admitted: actuate the dispatch.
    Dispatch(Dispatch),
    /// Every candidate is masked (KV high-water) or the only pipeline on
    /// offer crosses a dead node: retry later.  Nothing was recorded.
    Defer,
}

/// One KV replica chunk owed to a standby.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaChunk {
    /// The stage node holding the primary copy.
    pub primary: NodeId,
    /// The standby receiving the chunk.
    pub standby: NodeId,
    /// The stage's layers (the chunk carries their pages).
    pub layers: LayerRange,
    /// Bytes on the `primary → standby` link.
    pub bytes: f64,
    /// KV pages in the chunk.
    pub pages: u64,
}

/// What one output token changed.
#[derive(Debug, Clone)]
pub struct TokenProgress {
    /// This was the request's first output token.
    pub first: bool,
    /// Seconds since the previous token of this incarnation.
    pub gap: Option<f64>,
    /// The request generated its last token: call [`ControlPlane::finish`].
    pub finished: bool,
    /// Sequence tokens durable on the standbys once `chunks` land.
    pub durable_tokens: usize,
    /// Tokens the chunks add.
    pub new_tokens: usize,
    /// Replica chunks to ship now, one per pipeline stage (empty below the
    /// next chunk boundary and for unreplicated requests).
    pub chunks: Vec<ReplicaChunk>,
}

/// What a node failure stranded and how the plan moved around it.
#[derive(Debug, Clone)]
pub struct Failover {
    /// The incarnations the failure cut off, in request-id order.  The
    /// surface purges their KV and re-submits each request to
    /// [`ControlPlane::admit`], which resumes the promoted ones.
    pub stranded: Vec<InFlight>,
    /// The removal re-plan, when feasible (`None` leaves the old plan
    /// serving around the hole).
    pub replan: Option<ReplanOutcome>,
}

/// The logs and counters of a run, handed over once.
#[derive(Debug, Clone, Default)]
pub struct ControlLogs {
    /// Every re-plan applied, in order.
    pub replans: Vec<ReplanRecord>,
    /// One record per [`ControlPlane::fail_nodes`] call.
    pub failovers: Vec<FailoverRecord>,
    /// Prefix-sharing counters summed over all models.
    pub prefix: PrefixStats,
    /// Replica traffic trickled to standbys.
    pub replication: ReplicationStats,
}

/// What a promoted request resumes with: the bounded-loss contract.
struct ResumeCredit {
    pipeline: Arc<RequestPipeline>,
    /// Sequence tokens durable on the standbys.
    resume_tokens: usize,
    generated: usize,
    first_token_at: Option<f64>,
}

/// The shared coordinator state machine; see the [module docs](self).
pub struct ControlPlane {
    fleet: FleetTopology,
    schedulers: Vec<Box<dyn Scheduler>>,
    prefix_routers: Vec<PrefixRouter>,
    replication: ReplicationPolicy,
    replica_tracker: ReplicaTracker,
    failed: HashSet<NodeId>,
    /// Layer ranges each failed node held when it dropped, handed back to
    /// the planner if it rejoins.
    rejoin_ranges: HashMap<NodeId, Vec<(ModelId, LayerRange)>>,
    epochs: IdMap<RequestId, u64>,
    in_flight: IdMap<RequestId, InFlight>,
    resume: IdMap<RequestId, ResumeCredit>,
    policy: Option<ReplanPolicy>,
    windows: ObservationWindows,
    last_check: f64,
    last_replan: Option<f64>,
    replans: Vec<ReplanRecord>,
    failovers: Vec<FailoverRecord>,
}

impl ControlPlane {
    /// A control plane serving `fleet` with one scheduler per model.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler count does not match the fleet's model count.
    pub fn new(fleet: FleetTopology, schedulers: Vec<Box<dyn Scheduler>>) -> Self {
        assert_eq!(
            fleet.num_models(),
            schedulers.len(),
            "one scheduler per model"
        );
        ControlPlane {
            prefix_routers: schedulers.iter().map(|_| PrefixRouter::new()).collect(),
            fleet,
            schedulers,
            replication: ReplicationPolicy::disabled(),
            replica_tracker: ReplicaTracker::new(),
            failed: HashSet::new(),
            rejoin_ranges: HashMap::new(),
            epochs: IdMap::default(),
            in_flight: IdMap::default(),
            resume: IdMap::default(),
            policy: None,
            windows: ObservationWindows::new(),
            last_check: 0.0,
            last_replan: None,
            replans: Vec::new(),
            failovers: Vec::new(),
        }
    }

    /// Closes the observe → re-plan loop under `policy` (`None` opens it).
    pub fn set_policy(&mut self, policy: Option<ReplanPolicy>) {
        self.policy = policy;
    }

    /// The standing fleet plan (re-plans update it).
    pub fn fleet(&self) -> &FleetTopology {
        &self.fleet
    }

    /// Sets the replication policy for requests admitted from now on.
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.replication = policy;
    }

    /// Per-request replication progress.
    pub fn replica_tracker(&self) -> &ReplicaTracker {
        &self.replica_tracker
    }

    /// One model's cache-aware router.
    pub fn prefix_router(&self, model: ModelId) -> Option<&PrefixRouter> {
        self.prefix_routers.get(model.index())
    }

    /// Nodes that failed and have not rejoined.
    pub fn failed(&self) -> &HashSet<NodeId> {
        &self.failed
    }

    /// The observation policy, if the feedback loop is closed.
    pub fn policy(&self) -> Option<ReplanPolicy> {
        self.policy
    }

    /// When the last observation window closed.
    pub fn last_check(&self) -> f64 {
        self.last_check
    }

    /// The in-flight entry of `request`, if admitted and unfinished.
    pub fn flight(&self, request: RequestId) -> Option<&InFlight> {
        self.in_flight.get(&request)
    }

    /// Every in-flight request, in no particular order.
    pub fn flights(&self) -> impl Iterator<Item = &InFlight> + '_ {
        self.in_flight.values()
    }

    /// How many requests are in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// The logs and counters since the control plane was built.
    pub fn logs(&self) -> ControlLogs {
        let mut prefix = PrefixStats::default();
        for router in &self.prefix_routers {
            prefix.merge(router.stats());
        }
        ControlLogs {
            replans: self.replans.clone(),
            failovers: self.failovers.clone(),
            prefix,
            replication: self.replica_tracker.stats(),
        }
    }

    fn crosses_failed(&self, pipeline: &RequestPipeline) -> bool {
        !self.failed.is_empty()
            && pipeline
                .stages
                .iter()
                .any(|s| self.failed.contains(&s.node))
    }

    /// Admits `request` against the surface's view of the cluster, or defers
    /// it.  A request holding a promotion credit skips scheduling and resumes
    /// on its replica pipeline, recomputing only what its standbys had not
    /// received (a credit whose pipeline has since lost a node is void, and
    /// the request is admitted afresh).
    ///
    /// # Errors
    ///
    /// [`HelixError::UnknownModel`] for a model the fleet does not serve;
    /// scheduler errors other than "no candidate" propagate.
    pub fn admit(
        &mut self,
        request: &Request,
        state: &dyn ClusterState,
    ) -> Result<Admission, HelixError> {
        let num_models = self.schedulers.len();
        if request.model.index() >= num_models {
            return Err(HelixError::UnknownModel {
                model: request.model,
                num_models,
            });
        }
        let credit = self.resume.remove(&request.id);
        let credit = credit.filter(|c| !self.crosses_failed(&c.pipeline));
        let (pipeline, prefix, prefill_tokens) = match &credit {
            Some(c) => {
                let total = request.prompt_tokens + c.generated;
                let recompute = total.saturating_sub(c.resume_tokens).max(1);
                (Arc::clone(&c.pipeline), None, recompute)
            }
            None => match self.schedule(request, state)? {
                Some(scheduled) => scheduled,
                None => return Ok(Admission::Defer),
            },
        };
        let epoch = self.epochs.get(&request.id).copied().unwrap_or(0);
        let generated = credit.as_ref().map_or(0, |c| c.generated);
        self.in_flight.insert(
            request.id,
            InFlight {
                request: *request,
                pipeline: Arc::clone(&pipeline),
                generated,
                epoch,
                prefix,
                first_token_at: credit.as_ref().and_then(|c| c.first_token_at),
                last_token_at: None,
            },
        );
        Ok(Admission::Dispatch(Dispatch {
            pipeline,
            epoch,
            prefill_tokens,
            prefix,
            resume_tokens: credit.map(|c| c.resume_tokens),
            generated,
        }))
    }

    /// Picks the pipeline of a fresh admission: `(pipeline, prefix work,
    /// prefill tokens)`, or `None` to defer.  A prefix-tagged request goes to
    /// the pipeline already holding its prefix when that pipeline has KV
    /// headroom; a saturated home degrades to the base policy with sharing
    /// disabled.
    #[allow(clippy::type_complexity)]
    fn schedule(
        &mut self,
        request: &Request,
        state: &dyn ClusterState,
    ) -> Result<Option<(Arc<RequestPipeline>, Option<PrefixWork>, usize)>, HelixError> {
        let model = request.model;
        let router = &mut self.prefix_routers[model.index()];
        let mut prefix = None;
        let mut routed = None;
        let mut bypassed = false;
        if let Some((id, tokens)) = request.shared_prefix() {
            match router.route(id, tokens, state) {
                PrefixRoute::Hit {
                    pipeline,
                    shared_tokens: tokens,
                } => {
                    let hit = true;
                    prefix = Some(PrefixWork { id, tokens, hit });
                    routed = Some(pipeline);
                }
                PrefixRoute::Miss => {
                    let hit = false;
                    prefix = Some(PrefixWork { id, tokens, hit });
                }
                PrefixRoute::Bypass => bypassed = true,
            }
        }
        let hit = routed.is_some();
        let mut pipeline = match routed {
            Some(pipeline) => pipeline,
            // A hit never lands here (its reference is only taken on Hit),
            // so deferral leaks nothing.
            None => match self.schedulers[model.index()].schedule(state) {
                Ok(pipeline) => pipeline,
                Err(HelixError::NoCandidateAvailable { .. }) => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        pipeline.model = model;
        // When the re-plan around a failed node was infeasible the scheduler
        // keeps serving the old plan, which may still route across the hole;
        // defer until a live pipeline comes up in rotation.  Hits are exempt:
        // `fail_nodes` evicts every home crossing a dead node.
        if !hit && self.crosses_failed(&pipeline) {
            return Ok(None);
        }
        let router = &mut self.prefix_routers[model.index()];
        match prefix {
            // A miss materialises the prefix: the scheduled pipeline becomes
            // its home for later sharers.
            Some(p) if !p.hit => router.adopt(p.id, p.tokens, &pipeline),
            None if bypassed => router.record_bypass(),
            _ => {}
        }
        // A cache hit skips prefilling the shared range (that is the compute
        // saving); at least one token still flows through the pipeline to
        // produce the first output token.
        let shared = prefix.filter(|p| p.hit).map_or(0, |p| p.tokens);
        let prefill_tokens = request.prompt_tokens.saturating_sub(shared).max(1);
        self.begin_replication(request.id, &pipeline, request.output_tokens);
        Ok(Some((Arc::new(pipeline), prefix, prefill_tokens)))
    }

    /// Starts replication tracking when the policy marks the request hot
    /// *and* every pipeline stage has a live standby whose layer range covers
    /// it; otherwise the request runs unreplicated and a failure falls back
    /// to abort-and-readmit.  Promoted incarnations are not re-tracked — the
    /// replication factor applies from admission.
    fn begin_replication(
        &mut self,
        request: RequestId,
        pipeline: &RequestPipeline,
        output_tokens: usize,
    ) {
        if !self.replication.replicates(output_tokens) {
            return;
        }
        let Some(topology) = self.fleet.model(pipeline.model) else {
            return;
        };
        let candidates: Vec<(NodeId, LayerRange)> = topology
            .nodes()
            .filter(|n| !self.failed.contains(&n.node))
            .map(|n| (n.node, n.layers))
            .collect();
        let standbys: Option<Vec<(NodeId, NodeId)>> = pipeline
            .stages
            .iter()
            .map(|s| select_standby(s.node, s.layers, &candidates).map(|standby| (s.node, standby)))
            .collect();
        if let Some(standbys) = standbys {
            self.replica_tracker.begin(request, standbys);
        }
    }

    /// Records one output token of `request` arriving at `now`.  `None` for
    /// an unknown request or a stale incarnation (pre-failure work still
    /// draining through surviving stages) — drop the token.
    ///
    /// Replication trickles as decode proceeds: the first token
    /// force-replicates everything cached so far (a fail-over never
    /// re-prefills a replicated prompt), then whole chunks ship at every
    /// chunk boundary, per stage, priced by the shared [`KvTransferModel`].
    pub fn on_token(&mut self, request: RequestId, epoch: u64, now: f64) -> Option<TokenProgress> {
        let flight = self.in_flight.get_mut(&request)?;
        if flight.epoch != epoch {
            return None;
        }
        let first = flight.first_token_at.is_none();
        flight.first_token_at.get_or_insert(now);
        let gap = flight.last_token_at.replace(now).map(|last| now - last);
        flight.generated += 1;
        let mut progress = TokenProgress {
            first,
            gap,
            finished: flight.generated >= flight.request.output_tokens,
            durable_tokens: 0,
            new_tokens: 0,
            chunks: Vec::new(),
        };
        if progress.finished || !self.replica_tracker.is_tracked(request) {
            return Some(progress);
        }
        let total = flight.request.prompt_tokens + flight.generated;
        let chunk_tokens = self.replication.chunk_tokens;
        progress.new_tokens =
            self.replica_tracker
                .record_progress(request, total, chunk_tokens, first);
        if progress.new_tokens == 0 {
            return Some(progress);
        }
        progress.durable_tokens = self.replica_tracker.replicated_tokens(request);
        let pipeline = Arc::clone(&flight.pipeline);
        let transfer = self.kv_transfer(pipeline.model);
        let new_tokens = progress.new_tokens as f64;
        let standbys = self.replica_tracker.standbys(request);
        for (stage, &(primary, standby)) in pipeline.stages.iter().zip(standbys) {
            progress.chunks.push(ReplicaChunk {
                primary,
                standby,
                layers: stage.layers,
                bytes: transfer.bytes(new_tokens, stage.layers.len()),
                pages: transfer.pages(new_tokens),
            });
        }
        for chunk in &progress.chunks {
            self.replica_tracker.record_bytes(chunk.bytes);
        }
        Some(progress)
    }

    /// Completes `request`: drops it from the in-flight table, releases its
    /// prefix-home reference and stops its replication.  The surface frees
    /// the returned incarnation's KV wherever it seeded any.
    pub fn finish(&mut self, request: RequestId) -> Option<InFlight> {
        let flight = self.in_flight.remove(&request)?;
        if let Some(p) = flight.prefix {
            self.prefix_routers[flight.pipeline.model.index()].release(p.id);
        }
        self.replica_tracker.finish(request);
        Some(flight)
    }

    /// Fails `nodes` together (one node, or a whole region) at `now`.  Every
    /// unfinished pipeline crossing a dead node is cut off and its epoch
    /// bumped, so stale work of the old incarnation is dropped on arrival.  A
    /// replicated request whose standbys are alive (`is_live` says whether a
    /// tenancy can still execute) is promoted and will resume from its last
    /// replicated chunk; the rest re-admit from token zero.  Prefix homes
    /// crossing a dead node are evicted, and one re-plan removes all the
    /// dead nodes from every model's placement.
    pub fn fail_nodes(
        &mut self,
        nodes: &[NodeId],
        reason: ReplanReason,
        now: f64,
        is_live: &dyn Fn(NodeId, ModelId) -> bool,
    ) -> Failover {
        let num_models = self.fleet.num_models();
        let mut delta = PlacementDelta::new();
        for &node in nodes {
            let held = (0..num_models).map(ModelId).filter_map(|m| {
                let layers = self.fleet.model(m)?.node(node)?.layers;
                Some((m, layers))
            });
            self.rejoin_ranges.insert(node, held.collect());
            self.failed.insert(node);
            // Dead pipelines must not stay prefix homes.  The re-plan below
            // clears routers only when it succeeds; when removing the nodes
            // is infeasible (they were load-bearing) the old plan keeps
            // serving, so evict exactly the homes that crossed a dead node.
            for router in &mut self.prefix_routers {
                router.evict_node(node);
            }
            delta = delta.remove_node(node, num_models);
        }
        let mut doomed: Vec<RequestId> = self
            .in_flight
            .values()
            .filter(|f| f.pipeline.stages.iter().any(|s| nodes.contains(&s.node)))
            .map(|f| f.request.id)
            .collect();
        // Deterministic fail-over order (map iteration order is not).
        doomed.sort_unstable();
        let mut record = FailoverRecord {
            at: now,
            node: nodes[0],
            promoted: Vec::new(),
            aborted: Vec::new(),
            tokens_recomputed: 0,
            abort_recompute_tokens: 0,
            replica_tokens_used: 0,
        };
        let mut stranded = Vec::with_capacity(doomed.len());
        for id in doomed {
            let Some(flight) = self.in_flight.remove(&id) else {
                continue;
            };
            if let Some(p) = flight.prefix {
                self.prefix_routers[flight.pipeline.model.index()].release(p.id);
            }
            *self.epochs.entry(id).or_insert(0) += 1;
            let total = flight.request.prompt_tokens + flight.generated;
            record.abort_recompute_tokens += total as u64;
            match self.promote(&flight, nodes, is_live) {
                Some(pipeline) => {
                    let resume_tokens = self.replica_tracker.replicated_tokens(id).min(total);
                    record.promoted.push(id);
                    record.tokens_recomputed += (total - resume_tokens) as u64;
                    record.replica_tokens_used += resume_tokens as u64;
                    self.resume.insert(
                        id,
                        ResumeCredit {
                            pipeline: Arc::new(pipeline),
                            resume_tokens,
                            generated: flight.generated,
                            first_token_at: flight.first_token_at,
                        },
                    );
                }
                None => {
                    record.aborted.push(id);
                    record.tokens_recomputed += total as u64;
                }
            }
            self.replica_tracker.finish(id);
            stranded.push(flight);
        }
        self.failovers.push(record);
        let replan = self.replan(&delta, None, reason, now);
        Failover { stranded, replan }
    }

    /// The promoted pipeline of `flight`: every stage on a node failing
    /// *now* is substituted by its standby.  `None` — untracked request, no
    /// standby for a failed stage, or a standby that is itself dead.
    fn promote(
        &self,
        flight: &InFlight,
        failed_now: &[NodeId],
        is_live: &dyn Fn(NodeId, ModelId) -> bool,
    ) -> Option<RequestPipeline> {
        let id = flight.request.id;
        if !self.replica_tracker.is_tracked(id) {
            return None;
        }
        let standbys = self.replica_tracker.standbys(id);
        let mut promoted = (*flight.pipeline).clone();
        for stage in &mut promoted.stages {
            if failed_now.contains(&stage.node) {
                let &(_, standby) = standbys.iter().find(|&&(p, _)| p == stage.node)?;
                if self.failed.contains(&standby) || !is_live(standby, promoted.model) {
                    return None;
                }
                stage.node = standby;
            }
        }
        Some(promoted)
    }

    /// A failed node comes back at `now`: it leaves the failed set and one
    /// assign-delta re-plan hands the node the layer ranges it held when
    /// it dropped (`None` when it was not failed, or never left the plan
    /// because the failure-time removal was infeasible).
    pub fn rejoin(&mut self, node: NodeId, now: f64) -> Option<ReplanOutcome> {
        if !self.failed.remove(&node) {
            return None;
        }
        let mut delta = PlacementDelta::new();
        for (m, layers) in self.rejoin_ranges.remove(&node).unwrap_or_default() {
            if self.fleet.model(m).and_then(|t| t.node(node)).is_none() {
                delta = delta.assign(m, node, layers);
            }
        }
        if delta.is_empty() {
            return None;
        }
        self.replan(&delta, None, ReplanReason::NodeRejoin { node }, now)
    }

    /// Applies one re-plan to the standing fleet, against `observed` speeds
    /// (`None` keeps whatever observations are already priced in).  Affected
    /// models forget their prefix homes (pipelines of the old plan; in-flight
    /// references stay balanced through their own release) and get their
    /// scheduler rebuilt — drain-then-switch: in-flight pipelines keep their
    /// routes.  A model owed a KV hand-over (`outcome.migrations`) is
    /// re-routed at once too: the hand-over's freeze holds work on the
    /// migrated layers until the transfer arrives.  `None` when the re-plan
    /// is infeasible: the current plan keeps serving.
    pub fn replan(
        &mut self,
        delta: &PlacementDelta,
        observed: Option<&NodeObservations>,
        reason: ReplanReason,
        now: f64,
    ) -> Option<ReplanOutcome> {
        let outcome = match observed {
            Some(observed) => self.fleet.replan(delta, observed),
            None => {
                let priced_in = self.fleet.observations().clone();
                self.fleet.replan(delta, &priced_in)
            }
        }
        .ok()?;
        for &model in &outcome.affected {
            self.prefix_routers[model.index()].clear();
            self.install_scheduler(model);
        }
        self.replans.push(ReplanRecord {
            at: now,
            reason,
            affected: outcome.affected.clone(),
            planned_flow: self.fleet.total_flow_value(),
        });
        Some(outcome)
    }

    /// Rebuilds `model`'s scheduler, of the kind it had, over the fleet as it
    /// stands now: IWRR re-derives its weights, a baseline its graph.  A
    /// rebuilt [`RandomScheduler`](crate::RandomScheduler) is seeded with
    /// the number of re-plans applied before this one, so runs repeat and
    /// successive rebuilds draw different sequences.  A model whose planned
    /// flow is zero keeps its old IWRR scheduler (serving degraded beats
    /// serving nothing).
    fn install_scheduler(&mut self, model: ModelId) {
        let kind = self.schedulers[model.index()].kind();
        let seed = self.replans.len() as u64;
        let rebuilt = self
            .fleet
            .model(model)
            .map(|t| scheduler_of_kind(kind, t, seed));
        if let Some(Ok(scheduler)) = rebuilt {
            self.schedulers[model.index()] = scheduler;
        }
    }

    /// How `model`'s KV is priced when it crosses a link: replica chunks
    /// and hand-overs alike.
    pub fn kv_transfer(&self, model: ModelId) -> KvTransferModel {
        let model = self.fleet.profiles()[model.index()].model();
        let bytes_per_token_per_layer = model.kv_bytes_per_token_per_layer();
        KvTransferModel::new(bytes_per_token_per_layer, DEFAULT_TOKENS_PER_PAGE)
    }

    /// One observation-window boundary at `now`: every engine's cumulative
    /// counters are measured into a window, and the policy (if any) decides
    /// whether the measured speeds have drifted far enough from the plan to
    /// re-plan.
    pub fn observe(
        &mut self,
        now: f64,
        engines: &[(NodeId, ModelId, EngineCounters)],
    ) -> Option<ReplanOutcome> {
        let window = (now - self.last_check).max(1e-9);
        self.last_check = now;
        let mut observed = NodeObservations::new();
        for &(node, model, counters) in engines {
            let planned = self.fleet.observations();
            self.windows
                .measure(&mut observed, node, model, counters, window, planned);
        }
        let planned = self.fleet.observations();
        let (node, model, speed) =
            self.policy?
                .should_replan(&observed, planned, now, self.last_replan)?;
        let reason = ReplanReason::ThroughputGap { node, model, speed };
        let outcome = self.replan(&PlacementDelta::new(), Some(&observed), reason, now)?;
        self.last_replan = Some(now);
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{heuristics, SchedulerKind, SwarmScheduler, Topology};
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};

    /// A re-plan rebuilds each model's scheduler with the kind it had: a
    /// Swarm run stays Swarm after a failure re-plans around a node.
    #[test]
    fn a_failure_replan_keeps_each_models_scheduler_kind() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let redundant = topology.nodes().map(|n| n.node).find(|&node| {
            let mut without = placement.clone();
            without.clear(node);
            without.has_complete_pipeline(topology.num_layers())
        });
        let node = redundant.expect("petals replicates some range");
        let swarm: Box<dyn Scheduler> = Box::new(SwarmScheduler::new(&topology));
        let mut control = ControlPlane::new(FleetTopology::single(topology), vec![swarm]);
        let reason = ReplanReason::NodeFailure { node };
        let failover = control.fail_nodes(&[node], reason, 1.0, &|_, _| true);
        assert!(failover.replan.is_some(), "the removal re-planned");
        assert_eq!(control.schedulers[0].kind(), SchedulerKind::Swarm);
    }
}
