//! The coordinator: request admission, per-request pipeline scheduling and
//! lifecycle tracking.
//!
//! This is the runtime counterpart of the coordinator in the paper's Fig. 3:
//! when a request arrives it asks the configured [`Scheduler`] for a
//! per-request pipeline, sends the request to the pipeline's first node, and
//! when the last node reports a finished iteration it either launches the
//! next decode iteration on the *same* pipeline or completes the request and
//! releases its KV cache everywhere (§5.1–§5.2).
//!
//! Every *decision* — admission, replication, fail-over, when and how to
//! re-plan — is made by the shared [`ControlPlane`] (the same state machine
//! the simulator drives); this module is its runtime actuator.  It owns what
//! is genuinely the runtime's: the worker registry and spawner, the fabric
//! envelopes, the §5.2 [`KvCacheEstimator`]s, drain-aware retirement and the
//! in-flight KV hand-overs.
//!
//! There is one loop, [`Coordinator::run_live`] — the session loop behind
//! [`ServingSession`](crate::ServingSession): requests arrive as control
//! messages on the inbound channel, completions stream back as they happen,
//! and mid-run placement deltas can *spawn new workers* for (node, model)
//! pairs the original build never had.
//!
//! When a [`ReplanPolicy`] is configured the loop also closes the online
//! re-planning feedback: every policy interval the workers' shared
//! statistics are handed to [`ControlPlane::observe`], and an applied
//! re-plan is handed over **drain-then-switch** — the affected models'
//! schedulers and KV estimators are swapped for *new* requests while every
//! in-flight pipeline keeps the route it was assigned, so nothing is dropped
//! mid-generation.

use crate::clock::VirtualClock;
use crate::error::RuntimeError;
use crate::message::{Envelope, Phase, RuntimeMsg, StageWork};
use crate::metrics::RequestOutcome;
use crate::registry::{WorkerKey, WorkerRegistry, WorkerSpawner};
use helix_cluster::{ModelId, NodeId, TOKEN_WIRE_BYTES};
use helix_core::{
    Admission, ClusterState, ControlLogs, ControlPlane, EngineCounters, FleetTopology, InFlight,
    KvCacheEstimator, KvMigration, KvTransferRecord, LayerRange, PlacementDelta, ReplanOutcome,
    ReplanPolicy, ReplanReason, ReplicationPolicy, Scheduler,
};
use helix_workload::{Request, RequestId};
use minirt::channel::{Receiver, Sender};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline slack absorbing float rounding between virtual-time deadlines and
/// the wall clock, so a wait never wakes an iteration too early and re-arms a
/// deadline that is microscopically in the past.
const DEADLINE_SLACK: Duration = Duration::from_micros(1);

/// What arrives on the coordinator's inbound channel, in one FIFO: worker
/// traffic routed by the fabric and the session's control messages (each
/// wakes the coordinator's waker-based wait by arriving).
pub(crate) enum CoordinatorMsg {
    /// A message from a worker, delivered by the fabric.
    Runtime(RuntimeMsg),
    /// A control message from the session.
    Control(SessionControl),
}

/// Control messages a [`ServingSession`](crate::ServingSession) sends to its
/// coordinator; every session call travels this way, in call order.
pub(crate) enum SessionControl {
    /// Admit one request (honouring its `arrival_time` in virtual seconds).
    Submit(Request),
    /// Admit a whole workload: one message, so requests due at the same time
    /// are seen — and admitted — together.
    SubmitAll(Vec<Request>),
    /// Slow every worker of a node, present and future, to the given factor.
    InjectSpeed(NodeId, f64),
    /// Apply a placement delta to the standing fleet plan: re-plan, swap the
    /// affected models' schedulers, spawn workers for newly added
    /// (node, model) tenancies and retire ones the plan dropped (after their
    /// in-flight pipelines drain).
    ApplyDelta(PlacementDelta),
    /// Fail a node at the given virtual time: detach its workers, promote
    /// replicated in-flight pipelines onto their standbys (or abort and
    /// re-admit), and re-plan around the hole.
    FailNode(NodeId, f64),
    /// Install the replication policy governing subsequently admitted
    /// requests (already-running requests keep their admission-time
    /// decision).
    SetReplication(ReplicationPolicy),
    /// Complete everything submitted so far, then acknowledge.
    Drain(Sender<()>),
    /// Drain and exit the live loop.
    Finish,
}

/// Everything the coordinator needs to run.
pub(crate) struct CoordinatorSpec {
    /// One scheduling policy per model of the fleet (Helix IWRR or one of the
    /// baselines); single-model runs carry exactly one entry.
    pub schedulers: Vec<Box<dyn Scheduler>>,
    /// One KV-cache usage estimator per model (§5.2) — each model's slice of
    /// a shared node's KV pool is masked independently.
    pub estimators: Vec<KvCacheEstimator>,
    /// Shared virtual clock.
    pub clock: VirtualClock,
    /// Messages arriving from workers through the fabric, plus the session's
    /// control messages.
    pub inbound: Receiver<CoordinatorMsg>,
    /// Spawns additional workers when a re-plan adds a tenancy, and holds
    /// the fabric and the live worker set it routes over.
    pub spawner: WorkerSpawner,
    /// Wall-clock budget for the whole run.
    pub max_wall: Duration,
    /// The standing fleet plan, mutated in place by re-plans.
    pub fleet: FleetTopology,
    /// When the observation-driven loop fires (None = only explicit deltas
    /// re-plan).
    pub policy: Option<ReplanPolicy>,
}

/// The coordinator's runtime view of the cluster for one model, used by that
/// model's scheduler.
///
/// Queue lengths and recent throughput come from the model's workers' shared
/// statistics (the runtime equivalent of the paper's runtime monitoring);
/// KV usage comes from the model's coordinator-side estimator, exactly as in
/// §5.2.
struct CoordinatorView<'a> {
    model: ModelId,
    estimators: &'a [KvCacheEstimator],
    registry: &'a WorkerRegistry,
}

impl ClusterState for CoordinatorView<'_> {
    fn queue_len(&self, node: NodeId) -> usize {
        self.registry
            .stats((node, self.model))
            .map(|s| s.borrow().queue_len)
            .unwrap_or(0)
    }

    fn recent_throughput(&self, node: NodeId) -> f64 {
        self.registry
            .stats((node, self.model))
            .map(|s| s.borrow().recent_throughput)
            .unwrap_or(0.0)
    }

    fn kv_used_tokens(&self, node: NodeId) -> f64 {
        self.estimators[self.model.index()].estimated_tokens(node)
    }

    fn kv_capacity_tokens(&self, node: NodeId) -> f64 {
        self.estimators[self.model.index()].capacity_tokens(node)
    }
}

pub(crate) struct Coordinator {
    /// The shared coordinator state machine (fleet plan, schedulers, prefix
    /// routers, replication, fail-over, re-plan policy, in-flight table).
    control: ControlPlane,
    estimators: Vec<KvCacheEstimator>,
    clock: VirtualClock,
    inbound: Receiver<CoordinatorMsg>,
    spawner: WorkerSpawner,
    max_wall: Duration,
    outcomes: Vec<RequestOutcome>,
    /// Workers the plan dropped, awaiting their in-flight pipelines to drain.
    pending_retire: HashSet<WorkerKey>,
    /// KV hand-overs in flight, with the virtual time each freeze began.
    /// Drains wait for these; each resolves on the matching `KvInstalled`.
    /// Freezes are layer-scoped: each pending migration holds exactly one
    /// `Freeze(layers)` on each endpoint, and overlapping hand-overs stack
    /// their ranges on the worker rather than refcounting here.  A model with
    /// a hand-over pending keeps its old scheduler (freeze → transfer →
    /// re-route → resume).
    pending_migrations: Vec<(KvMigration, f64)>,
    /// Completed KV hand-overs, for the final report.
    kv_transfers: Vec<KvTransferRecord>,
    /// The completion stream of the live loop.
    completions: Option<Sender<RequestOutcome>>,
    /// Injected failures not yet due: `(virtual time, node)`.
    pending_failures: Vec<(f64, NodeId)>,
}

impl Coordinator {
    pub(crate) fn new(spec: CoordinatorSpec) -> Self {
        assert_eq!(
            spec.schedulers.len(),
            spec.estimators.len(),
            "one estimator per model"
        );
        let mut control = ControlPlane::new(spec.fleet, spec.schedulers);
        control.start_timeline(spec.policy);
        Coordinator {
            control,
            estimators: spec.estimators,
            clock: spec.clock,
            inbound: spec.inbound,
            spawner: spec.spawner,
            max_wall: spec.max_wall,
            outcomes: Vec::new(),
            pending_retire: HashSet::new(),
            pending_migrations: Vec::new(),
            kv_transfers: Vec::new(),
            completions: None,
            pending_failures: Vec::new(),
        }
    }

    /// Everything the run accumulated besides the outcomes, for the final
    /// report.
    pub(crate) fn into_logs(mut self) -> (ControlLogs, Vec<KvTransferRecord>) {
        (self.control.take_logs(), self.kv_transfers)
    }

    /// The live session loop: requests, placement deltas and drain/finish
    /// commands arrive on the inbound channel beside the workers' events;
    /// completions stream out over `completions` as they happen.
    ///
    /// Requests are admitted when their `arrival_time` (virtual seconds)
    /// passes, so submit-all-then-drain replays a workload's arrival
    /// process.  The wall-clock budget is enforced only while a drain or
    /// finish is pending — an idle session may live indefinitely, parked on
    /// its inbound channel's waker at zero cost.
    pub(crate) async fn run_live(
        &mut self,
        completions: Sender<RequestOutcome>,
    ) -> Result<Vec<RequestOutcome>, RuntimeError> {
        self.completions = Some(completions);
        let mut pending: VecDeque<Request> = VecDeque::new();
        let mut deferred: VecDeque<Request> = VecDeque::new();
        let mut drain_acks: Vec<Sender<()>> = Vec::new();
        let mut finishing = false;
        let mut submitted = 0usize;
        // Wall-clock mark of when the current drain began; the budget bounds
        // each drain, not the session's lifetime.
        let mut drain_started: Option<Duration> = None;

        loop {
            // 1. Wait for the next message on the channel's waker.  Deadlines
            // exist only to pace deferred arrivals, injected failures, policy
            // ticks and the drain budget — a fully idle session waits with
            // *no* deadline at all.
            let next_arrival = pending
                .iter()
                .map(|r| r.arrival_time)
                .chain(self.pending_failures.iter().map(|&(at, _)| at))
                .fold(f64::INFINITY, f64::min);
            let mut deadline: Option<Instant> = None;
            if next_arrival.is_finite() {
                deadline = Some(self.clock.instant_at(next_arrival));
            }
            if let Some(at) = self.next_policy_deadline() {
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
            if let Some(started) = drain_started {
                let at = self.clock.instant_at_wall(started + self.max_wall);
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
            let received = match deadline {
                Some(at) => minirt::time::timeout_at(at + DEADLINE_SLACK, self.inbound.recv())
                    .await
                    .ok(),
                None => Some(self.inbound.recv().await),
            };
            let mut next = match received {
                Some(Ok(msg)) => Some(msg),
                Some(Err(_)) => return Err(RuntimeError::Disconnected("network fabric")),
                None => None,
            };

            // 2. Handle it and everything queued behind it, in arrival order.
            while let Some(msg) = next {
                match msg {
                    CoordinatorMsg::Runtime(msg) => self.handle(msg)?,
                    CoordinatorMsg::Control(SessionControl::Submit(request)) => {
                        submitted += 1;
                        pending.push_back(request);
                    }
                    CoordinatorMsg::Control(SessionControl::SubmitAll(requests)) => {
                        submitted += requests.len();
                        pending.extend(requests);
                    }
                    CoordinatorMsg::Control(SessionControl::InjectSpeed(node, factor)) => {
                        self.spawner.set_speed(node, factor);
                    }
                    CoordinatorMsg::Control(SessionControl::ApplyDelta(delta)) => {
                        let now = self.clock.now();
                        let outcome = self.control.replan(&delta, None, ReplanReason::Manual, now);
                        self.hand_over(outcome, now);
                    }
                    CoordinatorMsg::Control(SessionControl::FailNode(node, at)) => {
                        self.pending_failures.push((at, node));
                    }
                    CoordinatorMsg::Control(SessionControl::SetReplication(policy)) => {
                        self.control.set_replication(policy);
                    }
                    CoordinatorMsg::Control(SessionControl::Drain(ack)) => drain_acks.push(ack),
                    CoordinatorMsg::Control(SessionControl::Finish) => finishing = true,
                }
                next = self.inbound.try_recv().ok();
            }
            let draining = finishing || !drain_acks.is_empty();

            // 3. Observe, consult the policy, re-plan, hand over.
            self.maybe_replan();

            // 4. The wall budget guards each drain (measured from when the
            // drain began until it is acknowledged), never idle session time.
            if draining {
                let started = *drain_started.get_or_insert_with(|| self.clock.wall_elapsed());
                if self.clock.wall_elapsed().saturating_sub(started) > self.max_wall {
                    return Err(RuntimeError::WallClockBudgetExceeded {
                        budget: self.max_wall,
                        completed: self.outcomes.len(),
                        total: submitted,
                    });
                }
            }

            // 5. Fire injected node failures whose virtual time has passed:
            // promote replicated in-flight pipelines, abort the rest and
            // queue them for re-admission through the normal path.
            let now = self.clock.now();
            let mut due = Vec::new();
            self.pending_failures.retain(|&(at, node)| {
                if at <= now {
                    due.push(node);
                }
                at > now
            });
            if !due.is_empty() {
                pending.extend(self.fail_nodes(&due, now)?);
            }

            // 6. Admit every request whose arrival time has passed, in
            // submission order.
            for _ in 0..pending.len() {
                let request = pending.pop_front().expect("bounded by len");
                if request.arrival_time <= now {
                    if !self.try_dispatch(request)? {
                        deferred.push_back(request);
                    }
                } else {
                    pending.push_back(request);
                }
            }
            // 7. Retry requests every candidate masked out earlier.
            for _ in 0..deferred.len() {
                let request = deferred.pop_front().expect("bounded by len");
                if !self.try_dispatch(request)? {
                    deferred.push_back(request);
                }
            }
            // Deferred work is only genuinely stuck when nothing can still
            // unmask a candidate: an in-flight completion frees KV, a landed
            // transfer lifts its freeze, and a due failure re-plans — so a
            // pending migration or failure postpones the stall verdict.
            if draining
                && !deferred.is_empty()
                && self.control.in_flight_len() == 0
                && self.pending_migrations.is_empty()
                && self.pending_failures.is_empty()
            {
                return Err(RuntimeError::Stalled {
                    pending: deferred.len() + pending.len(),
                    completed: self.outcomes.len(),
                });
            }

            // 8. Acknowledge drains once everything in sight completed —
            // including any KV hand-over still in flight (its frozen workers
            // resume before the drain resolves).
            if draining
                && pending.is_empty()
                && deferred.is_empty()
                && self.control.in_flight_len() == 0
                && self.pending_migrations.is_empty()
                && self.pending_failures.is_empty()
            {
                for ack in drain_acks.drain(..) {
                    let _ = ack.send(());
                }
                drain_started = None;
                if finishing {
                    break;
                }
            }
        }
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// When the next observation-window check is due (virtual seconds), if
    /// a policy is configured.
    fn next_policy_check(&self) -> Option<f64> {
        let policy = self.control.policy()?;
        Some(self.control.last_check() + policy.check_interval_secs)
    }

    /// The wake-up deadline of the next policy check for the waker-based
    /// waits.
    fn next_policy_deadline(&self) -> Option<Instant> {
        self.next_policy_check().map(|at| self.clock.instant_at(at))
    }

    /// One observation-window check of the online re-planning loop, when
    /// due: every live worker's shared statistics go to the control plane,
    /// and a re-plan it applies is handed over.
    fn maybe_replan(&mut self) {
        // No policy, no clock read: this runs once per loop iteration.
        let Some(due) = self.next_policy_check() else {
            return;
        };
        let now = self.clock.now();
        if now < due {
            return;
        }
        let stats = self.spawner.registry.live_stats_snapshot().into_iter();
        let counters: Vec<_> = stats
            .map(|((node, model), stats)| {
                let counters = EngineCounters {
                    nominal_busy_secs: stats.nominal_busy_secs,
                    busy_secs: stats.busy_secs,
                    tokens: stats.prompt_tokens + stats.decode_tokens,
                };
                (node, model, counters)
            })
            .collect();
        let outcome = self.control.observe(now, &counters);
        self.hand_over(outcome, now);
    }

    /// Actuates one applied re-plan (`None`: it was infeasible or not due,
    /// and the current plan keeps serving): swaps the affected models' KV
    /// budgets for *new* requests (drain-then-switch), spawns workers for
    /// (node, model) tenancies the delta added, queues drain-aware
    /// retirement for ones it dropped, and starts the KV transfer of every
    /// migration.
    fn hand_over(&mut self, outcome: Option<ReplanOutcome>, now: f64) {
        let Some(outcome) = outcome else {
            return;
        };
        let fleet = self.control.fleet();
        for &model in &outcome.affected {
            // Re-derived KV budgets, and dynamic membership — a tenancy the
            // delta added gets a live worker on the spot, routable through
            // the fabric immediately (a migration destination must exist
            // before the pages can land).  New workers execute at the
            // analytic contention split; measured speed factors re-price
            // planning, not execution.
            let contention = fleet.contention_profile(model);
            let mut planned_nodes: HashSet<NodeId> = HashSet::new();
            for n in fleet.topologies()[model.index()].nodes() {
                let (layers, kv_capacity_tokens) = (n.layers.len(), n.kv_capacity_tokens);
                planned_nodes.insert(n.node);
                self.estimators[model.index()].set_capacity(n.node, kv_capacity_tokens);
                self.pending_retire.remove(&(n.node, model));
                self.spawner.spawn(
                    &contention,
                    n.node,
                    model,
                    &n.name,
                    layers,
                    kv_capacity_tokens,
                );
            }
            // Pairs the plan no longer includes keep serving their in-flight
            // pipelines and are detached once those drain; new requests
            // already steer around them.
            for key in self.spawner.registry.live_keys_for_model(model) {
                if !planned_nodes.contains(&key.0) {
                    self.pending_retire.insert(key);
                }
            }
        }
        // Initiate each migration's KV transfer — freeze the *migrated layer
        // range* on both ends (work on other layers keeps executing;
        // overlapping hand-overs stack their ranges on the worker), then ask
        // the source to extract its pool through the fabric as a pipelined
        // chunk stream (the pages queue behind — and interleave with —
        // activation traffic on the `from → to` link).  `KvInstalled`
        // re-routes and resumes.
        for &migration in &outcome.migrations {
            let KvMigration {
                model,
                from,
                to,
                layers,
            } = migration;
            let registry = &self.spawner.registry;
            if registry.is_routable((from, model)) {
                registry.deliver((from, model), RuntimeMsg::Freeze(layers));
                registry.deliver((to, model), RuntimeMsg::Freeze(layers));
                let kv_bytes_per_token_per_layer = self.control.fleet().profiles()[model.index()]
                    .model()
                    .kv_bytes_per_token_per_layer();
                let extract = RuntimeMsg::KvExtract {
                    to,
                    layers,
                    kv_bytes_per_token_per_layer,
                };
                registry.deliver((from, model), extract);
                self.pending_migrations.push((migration, now));
            }
            self.reroute_when_settled(model);
        }
        self.sweep_retirements();
    }

    /// Installs `model`'s re-planned scheduler unless a KV transfer it owes
    /// is still in flight (the last `KvInstalled` asks again).  The control
    /// plane re-derives the weights from the fleet as it stands then, so a
    /// node failure that re-planned mid-transfer never resurrects routes
    /// through nodes that died since.
    fn reroute_when_settled(&mut self, model: ModelId) {
        let pending = &self.pending_migrations;
        if !pending.iter().any(|&(m, _)| m.model == model) {
            self.control.install_scheduler(model);
        }
    }

    /// Detaches every pending-retire worker whose in-flight pipelines have
    /// all drained (drain-then-switch: the worker keeps executing the routes
    /// it was already part of, and disappears only when they finish).
    fn sweep_retirements(&mut self) {
        if self.pending_retire.is_empty() {
            return;
        }
        let busy: HashSet<WorkerKey> = self
            .control
            .flights()
            .flat_map(|flight| {
                let model = flight.pipeline.model;
                flight
                    .pipeline
                    .stages
                    .iter()
                    .map(move |stage| (stage.node, model))
            })
            .collect();
        let ready: Vec<WorkerKey> = self
            .pending_retire
            .iter()
            .copied()
            .filter(|key| !busy.contains(key))
            .collect();
        for key in ready {
            self.pending_retire.remove(&key);
            self.spawner.registry.detach(key);
        }
    }

    /// Asks the control plane to admit one request and puts the dispatch on
    /// the wire.  Returns `Ok(false)` if the admission was deferred (every
    /// candidate masked, or only dead pipelines on offer) and the request
    /// should be retried later.
    fn try_dispatch(&mut self, request: Request) -> Result<bool, RuntimeError> {
        let model = request.model;
        let view = CoordinatorView {
            model,
            estimators: &self.estimators,
            registry: &self.spawner.registry,
        };
        let Admission::Dispatch(dispatch) = self.control.admit(&request, &view)? else {
            return Ok(false);
        };
        // The per-request estimate covers only the unshared suffix (plus, for
        // a promoted incarnation, what it had already decoded); the shared
        // range is attached (refcounted, counted once per node) so the
        // estimator mirrors the workers' refcounted pool entries.
        let shared = dispatch.prefix.map_or(0, |p| p.tokens);
        let cached = request.prompt_tokens - shared.min(request.prompt_tokens) + dispatch.generated;
        for stage in &dispatch.pipeline.stages {
            let estimator = &mut self.estimators[model.index()];
            estimator.on_scheduled(stage.node, request.id, cached);
            if let Some(p) = dispatch.prefix {
                estimator.attach_shared(stage.node, p.id, p.tokens);
            }
            // A promoted request re-seeds its surviving replicated tokens on
            // every promoted stage (the fail-over purge released them;
            // per-link FIFO delivers the purge first).
            if let Some(tokens) = dispatch.resume_tokens.filter(|&tokens| tokens > 0) {
                self.spawner.fabric.send(Envelope {
                    from: None,
                    to: Some(stage.node),
                    model,
                    bytes: TOKEN_WIRE_BYTES,
                    msg: RuntimeMsg::KvChunk {
                        from: stage.node,
                        layers: stage.layers,
                        entries: vec![(request.id, tokens)],
                        prefix_entries: Vec::new(),
                        tokens: tokens as u64,
                        pages: 0,
                        bytes: 0.0,
                        last: false,
                    },
                });
            }
        }
        self.spawner.fabric.send(Envelope {
            from: None,
            to: Some(dispatch.pipeline.stages[0].node),
            model,
            bytes: TOKEN_WIRE_BYTES * dispatch.prefill_tokens as f64,
            msg: RuntimeMsg::Work(StageWork {
                request: request.id,
                phase: Phase::Prompt,
                tokens: dispatch.prefill_tokens,
                stage_index: 0,
                epoch: dispatch.epoch,
                pipeline: dispatch.pipeline,
                prefix: dispatch.prefix,
            }),
        });
        Ok(true)
    }

    /// Fails `nodes` together at `now`: their workers are detached (their
    /// in-flight work is lost, and messages routed to them from here on drop
    /// harmlessly), every pipeline the control plane reports stranded has
    /// its KV purged, and the removal re-plan is handed over.  Returns the
    /// stranded requests for re-submission — the control plane resumes the
    /// promoted ones on their replicas and re-admits the rest from scratch.
    fn fail_nodes(&mut self, nodes: &[NodeId], now: f64) -> Result<Vec<Request>, RuntimeError> {
        for &node in nodes {
            for m in 0..self.control.fleet().num_models() {
                let key = (node, ModelId(m));
                self.pending_retire.remove(&key);
                if self.spawner.registry.is_routable(key) {
                    self.spawner.registry.detach(key);
                }
            }
        }
        let registry = &self.spawner.registry;
        let is_live = |node, model| registry.is_routable((node, model));
        let reason = ReplanReason::NodeFailure { node: nodes[0] };
        let failover = self.control.fail_nodes(nodes, reason, now, &is_live);
        for flight in &failover.stranded {
            self.release_kv(flight);
        }
        self.hand_over(failover.replan, now);
        self.sweep_retirements();
        Ok(failover.stranded.iter().map(|f| f.request).collect())
    }

    /// Frees what one finished or aborted incarnation held: its estimator
    /// entries, and its KV on *every* live worker of its model, not only its
    /// pipeline nodes — migrations seed destination workers and replication
    /// seeds standbys, and all those copies are keyed by the request id (so
    /// other requests are untouched).
    fn release_kv(&mut self, flight: &InFlight) {
        let model = flight.pipeline.model;
        let estimator = &mut self.estimators[model.index()];
        for stage in &flight.pipeline.stages {
            estimator.on_finished(stage.node, flight.request.id, flight.generated);
            if let Some(p) = flight.prefix {
                estimator.release_shared(stage.node, p.id);
            }
        }
        for (node, _) in self.spawner.registry.live_keys_for_model(model) {
            self.spawner.fabric.send(Envelope {
                from: None,
                to: Some(node),
                model,
                bytes: TOKEN_WIRE_BYTES,
                msg: RuntimeMsg::Release(flight.request.id),
            });
        }
    }

    fn handle(&mut self, msg: RuntimeMsg) -> Result<(), RuntimeError> {
        let RuntimeMsg::IterationDone {
            request,
            emitted_at,
            epoch,
            ..
        } = msg
        else {
            if let RuntimeMsg::KvInstalled {
                model,
                from,
                to,
                layers,
                tokens,
                pages,
                bytes,
            } = msg
            {
                self.finish_migration(model, from, to, layers, tokens, pages, bytes);
            }
            // Work/Release/Shutdown are worker-bound; nothing else to do.
            return Ok(());
        };
        // `None`: a stale incarnation — pre-failure work was still draining
        // through surviving stages when the request was promoted or
        // re-admitted.
        let Some(progress) = self.control.on_token(request, epoch, emitted_at) else {
            return Ok(());
        };
        if progress.finished {
            return self.finish(request, emitted_at);
        }
        let flight = self
            .control
            .flight(request)
            .expect("in flight until finished");
        let pipeline = Arc::clone(&flight.pipeline);
        let model = pipeline.model;
        // Replica chunks travel from every primary stage to its standby as
        // non-final `KvChunk`s, and the standby workers seed the durable
        // tokens as KV residency — replication steals link bandwidth and KV
        // headroom, which is exactly the trade-off measured.
        for chunk in &progress.chunks {
            self.spawner.fabric.send(Envelope {
                from: Some(chunk.primary),
                to: Some(chunk.standby),
                model,
                bytes: chunk.bytes,
                msg: RuntimeMsg::KvChunk {
                    from: chunk.primary,
                    layers: chunk.layers,
                    entries: vec![(request, progress.durable_tokens)],
                    prefix_entries: Vec::new(),
                    tokens: progress.new_tokens as u64,
                    pages: chunk.pages,
                    bytes: chunk.bytes,
                    last: false,
                },
            });
        }
        self.spawner.fabric.send(Envelope {
            from: None,
            to: Some(pipeline.stages[0].node),
            model,
            bytes: TOKEN_WIRE_BYTES,
            msg: RuntimeMsg::Work(StageWork {
                request,
                phase: Phase::Decode,
                tokens: 1,
                stage_index: 0,
                epoch,
                pipeline,
                prefix: None,
            }),
        });
        Ok(())
    }

    /// Completes one KV hand-over: records the transfer, re-routes once the
    /// model's last pending transfer landed, and thaws the migrated layer
    /// range on both ends (an endpoint with another hand-over still in
    /// flight keeps that other range frozen).
    #[allow(clippy::too_many_arguments)]
    fn finish_migration(
        &mut self,
        model: ModelId,
        from: NodeId,
        to: NodeId,
        layers: LayerRange,
        tokens: u64,
        pages: u64,
        bytes: f64,
    ) {
        let now = self.clock.now();
        let migration = KvMigration {
            model,
            from,
            to,
            layers,
        };
        // Resolve the exact pending entry this `KvInstalled` acknowledges
        // (a migration is unique by (model, from, to, layers) at any time:
        // resolution would reject re-moving layers the source gave up).
        let Some(position) = self
            .pending_migrations
            .iter()
            .position(|&(pending, _)| pending == migration)
        else {
            return;
        };
        let (_, started) = self.pending_migrations.remove(position);
        self.kv_transfers.push(KvTransferRecord {
            at: now,
            migration,
            tokens: tokens as f64,
            pages,
            bytes,
            transfer_secs: (now - started).max(0.0),
        });
        self.reroute_when_settled(model);
        let registry = &self.spawner.registry;
        registry.deliver((from, model), RuntimeMsg::Resume(layers));
        registry.deliver((to, model), RuntimeMsg::Resume(layers));
    }

    /// Completes a request: records its outcome and frees everything it
    /// held on the data plane.
    fn finish(&mut self, request: RequestId, completed_at: f64) -> Result<(), RuntimeError> {
        let Some(flight) = self.control.finish(request) else {
            return Ok(());
        };
        self.release_kv(&flight);
        let outcome = RequestOutcome {
            id: request,
            model: flight.pipeline.model,
            prompt_tokens: flight.request.prompt_tokens,
            output_tokens: flight.request.output_tokens,
            arrival: flight.request.arrival_time,
            first_token_at: flight.first_token_at.unwrap_or(completed_at),
            completed_at,
            pipeline_depth: flight.pipeline.stages.len(),
        };
        if let Some(tx) = &self.completions {
            let _ = tx.send(outcome);
        }
        self.outcomes.push(outcome);
        // A completed pipeline may free a pending-retire worker.
        self.sweep_retirements();
        Ok(())
    }
}
