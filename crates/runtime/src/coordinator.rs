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
//! is genuinely the runtime's: the worker table, the fabric with everything
//! in flight, the §5.2 [`KvCacheEstimator`]s and drain-aware retirement.
//! KV bookkeeping — releasing a finished or aborted request, seeding a
//! replica or a promoted request, handing a layer range over — is a call on
//! the rows at the moment the simulator makes it, priced on the link it
//! crosses.
//!
//! There is one loop, [`Coordinator::run_live`] — the data plane's loop and
//! the session loop behind [`ServingSession`](crate::ServingSession), a
//! plain function on the data plane's thread.  One turn waits
//! ([`Coordinator::wait`], on the session's `std::sync::mpsc` channel) for a
//! session call or for the earliest thing due (the fabric's queue, an
//! arrival, an injected failure, a policy tick, the drain budget), and then
//! ([`Coordinator::turn`]) handles the session calls; applies every
//! delivery, batch completion and hand-over arrival that is due, pass after
//! pass until a fresh clock reading finds nothing more, and only then
//! starts the batches of the rows those passes touched — until nothing is
//! due and no row waits; and then — once per quiescence, not once per
//! delivery — handles what reached the coordinator, observes, fails nodes,
//! admits, retries what was deferred and acknowledges drains.  Requests
//! arrive as control messages on the inbound channel, completions stream
//! back as they happen, and mid-run placement deltas can add rows for
//! (node, model) pairs the original build never had.
//!
//! When a [`ReplanPolicy`] is configured the loop also closes the online
//! re-planning feedback: every policy interval the workers' counters are
//! handed to [`ControlPlane::observe`], and an applied
//! re-plan is handed over **drain-then-switch** — the affected models'
//! schedulers and KV estimators are swapped for *new* requests while every
//! in-flight pipeline keeps the route it was assigned, so nothing is dropped
//! mid-generation.

use crate::clock::VirtualClock;
use crate::error::RuntimeError;
use crate::fabric::{Event, Fabric};
use crate::message::{Envelope, Phase, RuntimeMsg, StageWork};
use crate::metrics::RequestOutcome;
use crate::registry::{WorkerKey, Workers};
use helix_cluster::{ModelId, NodeId, TOKEN_WIRE_BYTES};
use helix_core::{
    Admission, ClusterState, ControlLogs, ControlPlane, FleetTopology, InFlight, KvCacheEstimator,
    KvMigration, KvTransferRecord, PlacementDelta, ReplanOutcome, ReplanPolicy, ReplanReason,
    ReplicationPolicy, Scheduler,
};
use helix_workload::{Request, RequestId};
use std::collections::{HashSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slack absorbing float rounding between virtual-time deadlines and
/// the wall clock, so a wait never wakes an iteration too early and re-arms a
/// deadline that is microscopically in the past.
const DEADLINE_SLACK: Duration = Duration::from_micros(1);

/// A timed wait shorter than this is not worth a system call: the kernel
/// rounds it up by its timer slack (50 µs by default), so the loop spins
/// instead of blocking.
const SHORTEST_PARK: Duration = Duration::from_micros(50);

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
    /// affected models' schedulers, add workers for newly added
    /// (node, model) tenancies and retire ones the plan dropped (after their
    /// in-flight pipelines drain).
    ApplyDelta(PlacementDelta),
    /// Fail a node at the given virtual time: retire its workers, promote
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
    /// The session's control messages.
    pub inbound: Receiver<SessionControl>,
    /// The worker table, with a row for every planned tenancy.
    pub workers: Workers,
    /// The links and what is in flight on them.
    pub fabric: Fabric,
    /// Wall-clock budget for the whole run.
    pub max_wall: Duration,
    /// The standing fleet plan, mutated in place by re-plans.
    pub fleet: FleetTopology,
    /// When the observation-driven loop fires (None = only explicit deltas
    /// re-plan).
    pub policy: Option<ReplanPolicy>,
    /// The completion stream of the live loop.
    pub completions: Sender<RequestOutcome>,
}

/// The coordinator's runtime view of the cluster for one model, used by that
/// model's scheduler.
///
/// Queue lengths and recent throughput are read off the model's rows of the
/// worker table (the runtime equivalent of the paper's runtime monitoring);
/// KV usage comes from the model's coordinator-side estimator, exactly as in
/// §5.2.
struct CoordinatorView<'a> {
    model: ModelId,
    estimators: &'a [KvCacheEstimator],
    workers: &'a Workers,
}

impl ClusterState for CoordinatorView<'_> {
    fn queue_len(&self, node: NodeId) -> usize {
        let worker = self.workers.get((node, self.model));
        worker.map_or(0, |w| w.core.queue_len())
    }

    fn recent_throughput(&self, node: NodeId) -> f64 {
        let worker = self.workers.get((node, self.model));
        worker.map_or(0.0, |w| w.core.recent_throughput())
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
    inbound: Receiver<SessionControl>,
    pub workers: Workers,
    pub fabric: Fabric,
    max_wall: Duration,
    outcomes: Vec<RequestOutcome>,
    /// Workers the plan dropped, awaiting their in-flight pipelines to drain.
    pending_retire: HashSet<WorkerKey>,
    /// KV hand-overs, for the final report.
    kv_transfers: Vec<KvTransferRecord>,
    completions: Sender<RequestOutcome>,
    /// Injected failures not yet due: `(virtual time, node)`.
    pending_failures: Vec<(f64, NodeId)>,
    /// Submitted requests whose arrival time has not passed, in submission
    /// order.
    pending: VecDeque<Request>,
    /// Requests every candidate masked out, retried once per turn.
    deferred: VecDeque<Request>,
    drain_acks: Vec<Sender<()>>,
    /// The iterations the fabric reported to the coordinator during this
    /// turn's passes, in delivery order: `(request, emitted_at, epoch)`.
    arrived: VecDeque<(RequestId, f64, u64)>,
    finishing: bool,
    submitted: usize,
    /// Wall-clock mark of when the current drain began; the budget bounds
    /// each drain, not the session's lifetime.
    drain_started: Option<Duration>,
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
            workers: spec.workers,
            fabric: spec.fabric,
            max_wall: spec.max_wall,
            outcomes: Vec::new(),
            pending_retire: HashSet::new(),
            kv_transfers: Vec::new(),
            completions: spec.completions,
            pending_failures: Vec::new(),
            pending: VecDeque::new(),
            deferred: VecDeque::new(),
            drain_acks: Vec::new(),
            arrived: VecDeque::new(),
            finishing: false,
            submitted: 0,
            drain_started: None,
        }
    }

    /// Everything the run accumulated besides the outcomes, for the final
    /// report.
    pub(crate) fn take_logs(&mut self) -> (ControlLogs, Vec<KvTransferRecord>) {
        let kv_transfers = std::mem::take(&mut self.kv_transfers);
        (self.control.take_logs(), kv_transfers)
    }

    /// The data plane's loop: requests, placement deltas and drain/finish
    /// commands arrive on the inbound channel; completions stream out as
    /// they happen.
    ///
    /// Requests are admitted when their `arrival_time` (virtual seconds)
    /// passes, so submit-all-then-drain replays a workload's arrival
    /// process.  The wall-clock budget is enforced only while a drain or
    /// finish is pending — an idle session may live indefinitely, blocked
    /// on its inbound channel at zero cost.  The loop returns once no
    /// request or injected failure is pending; a hand-over's arrival may
    /// still sit in the fabric's queue and is dropped with it — the report
    /// reads only counters taken at the send and cumulative ones, so
    /// teardown is that return.
    pub(crate) fn run_live(&mut self) -> Result<Vec<RequestOutcome>, RuntimeError> {
        loop {
            let first = self.wait();
            if self.turn(first)? {
                return Ok(std::mem::take(&mut self.outcomes));
            }
        }
    }

    /// The loop's one wait: for the next session call, or until the earliest
    /// thing due ([`next_wake`](Self::next_wake)) — `None`.  A call already
    /// queued or a deadline already past returns at once, a deadline nearer
    /// than [`SHORTEST_PARK`] is spun for, and a fully idle session waits
    /// with no deadline at all.  A closed channel is a `Finish` — the
    /// session is gone and has nothing more to say — and a finishing loop
    /// waits on its deadlines alone (it always has one, the drain budget).
    fn wait(&self) -> Option<SessionControl> {
        let deadline = self.next_wake();
        loop {
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            let received = match left {
                Some(left) if self.finishing => {
                    if left >= SHORTEST_PARK {
                        std::thread::sleep(left);
                    }
                    Err(RecvTimeoutError::Timeout)
                }
                Some(left) if left < SHORTEST_PARK => match self.inbound.try_recv() {
                    Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                    polled => polled.map_err(|_| RecvTimeoutError::Timeout),
                },
                Some(left) => self.inbound.recv_timeout(left),
                None => self
                    .inbound
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
            match received {
                Ok(msg) => return Some(msg),
                Err(RecvTimeoutError::Disconnected) => return Some(SessionControl::Finish),
                Err(RecvTimeoutError::Timeout) if left.is_some_and(|l| l.is_zero()) => return None,
                Err(RecvTimeoutError::Timeout) => std::hint::spin_loop(),
            }
        }
    }

    /// When the loop has something to do without being called: the earliest
    /// of the fabric's queue, the next arrival or injected failure, the next
    /// policy tick and the drain budget.
    fn next_wake(&self) -> Option<Instant> {
        let arrivals = self.pending.iter().map(|r| r.arrival_time);
        let failures = self.pending_failures.iter().map(|&(at, _)| at);
        let paced = arrivals
            .chain(failures)
            .chain(self.next_policy_check())
            .fold(f64::INFINITY, f64::min);
        let paced = paced.is_finite().then(|| self.clock.instant_at(paced));
        let budget = self.drain_started;
        let budget = budget.map(|started| self.clock.instant_at_wall(started + self.max_wall));
        // A queue entry is waited for to the instant: a microsecond of slack
        // is several deliveries on a fast link.
        let due = self.fabric.next_at().map(|at| self.clock.instant_at(at));
        let slacked = [paced, budget].into_iter().flatten().min();
        let slacked = slacked.map(|at| at + DEADLINE_SLACK);
        [slacked, due].into_iter().flatten().min()
    }

    /// One turn of the loop, after its wait: `first` is the session call
    /// that ended the wait, if one did.  Returns whether the session
    /// finished.
    fn turn(&mut self, first: Option<SessionControl>) -> Result<bool, RuntimeError> {
        // 1. The session's calls, in call order.
        let mut next = first;
        while let Some(msg) = next {
            match msg {
                SessionControl::Submit(request) => {
                    self.submitted += 1;
                    self.pending.push_back(request);
                }
                SessionControl::SubmitAll(requests) => {
                    self.submitted += requests.len();
                    self.pending.extend(requests);
                }
                SessionControl::InjectSpeed(node, factor) => self.workers.set_speed(node, factor),
                SessionControl::ApplyDelta(delta) => {
                    let now = self.clock.now();
                    let outcome = self.control.replan(&delta, None, ReplanReason::Manual, now);
                    self.hand_over(outcome, now);
                }
                SessionControl::FailNode(node, at) => self.pending_failures.push((at, node)),
                SessionControl::SetReplication(policy) => self.control.set_replication(policy),
                SessionControl::Drain(ack) => self.drain_acks.push(ack),
                SessionControl::Finish => self.finishing = true,
            }
            next = self.inbound.try_recv().ok();
        }
        let draining = self.finishing || !self.drain_acks.is_empty();

        // 2. Everything due on the data plane, until nothing is — and only
        // then what it delivered to the coordinator and steps 3–8, once per
        // quiescence rather than once per delivery pass: each round retries
        // every deferred admission, and work dispatched between two passes
        // fragments the batches of both.
        let clock = self.clock;
        let now = self.run_due(|| clock.now());
        while let Some((request, emitted_at, epoch)) = self.arrived.pop_front() {
            self.on_iteration(request, emitted_at, epoch);
        }

        // 3. Observe, consult the policy, re-plan, hand over.
        self.maybe_replan(now);

        // 4. The wall budget guards each drain (measured from when the
        // drain began until it is acknowledged), never idle session time.
        if draining {
            let wall = self.clock.wall_elapsed();
            let started = *self.drain_started.get_or_insert(wall);
            if wall.saturating_sub(started) > self.max_wall {
                return Err(RuntimeError::WallClockBudgetExceeded {
                    budget: self.max_wall,
                    completed: self.outcomes.len(),
                    total: self.submitted,
                });
            }
        }

        // 5. Fire injected node failures whose virtual time has passed:
        // promote replicated in-flight pipelines, abort the rest and
        // queue them for re-admission through the normal path.
        let mut due = Vec::new();
        self.pending_failures.retain(|&(at, node)| {
            if at <= now {
                due.push(node);
            }
            at > now
        });
        if !due.is_empty() {
            let stranded = self.fail_nodes(&due, now);
            self.pending.extend(stranded);
        }

        // 6. Admit every request whose arrival time has passed, in
        // submission order.
        for _ in 0..self.pending.len() {
            let request = self.pending.pop_front().expect("bounded by len");
            if request.arrival_time > now {
                self.pending.push_back(request);
            } else if !self.try_dispatch(request)? {
                self.deferred.push_back(request);
            }
        }
        // 7. Retry requests every candidate masked out earlier.
        for _ in 0..self.deferred.len() {
            let request = self.deferred.pop_front().expect("bounded by len");
            if !self.try_dispatch(request)? {
                self.deferred.push_back(request);
            }
        }
        // Deferred work is only genuinely stuck when nothing can still
        // unmask a candidate: an in-flight completion frees KV and a due
        // failure re-plans — so a pending failure postpones the stall
        // verdict.  The requests a hand-over holds are in flight.
        let settled = self.control.in_flight_len() == 0 && self.pending_failures.is_empty();
        if draining && settled && !self.deferred.is_empty() {
            return Err(RuntimeError::Stalled {
                pending: self.deferred.len() + self.pending.len(),
                completed: self.outcomes.len(),
            });
        }

        // 8. Acknowledge drains once everything in sight completed.
        if draining && settled && self.pending.is_empty() {
            for ack in self.drain_acks.drain(..) {
                let _ = ack.send(());
            }
            self.drain_started = None;
            return Ok(self.finishing);
        }
        Ok(false)
    }

    /// Applies every queue entry that is due, in `(at, seq)` order, one pass
    /// per clock reading: a delivery of work, a batch completion or a
    /// hand-over's arrival is a call on its rows (the coordinator's own
    /// reports wait in `arrived` for the end of the turn).  The rows the
    /// passes touched start their batches once a fresh reading finds nothing
    /// more due — so everything that has arrived by the time a batch starts
    /// joins it (§5.1's rule), however fast a pass is.  Zero-duration batches
    /// and fast links make new entries due at once; the loop ends when
    /// nothing is due and no row is waiting to start.  `read` is the clock
    /// (virtual seconds; a test scripts it); returns its last reading.
    fn run_due(&mut self, mut read: impl FnMut() -> f64) -> f64 {
        loop {
            let now = read();
            let mut applied = false;
            while let Some((at, event)) = self.fabric.pop_due(now) {
                applied = true;
                match event {
                    Event::Deliver(envelope) => match envelope.msg {
                        RuntimeMsg::Work(work) => self.workers.deliver(work),
                        RuntimeMsg::IterationDone {
                            request,
                            emitted_at,
                            epoch,
                        } => self.arrived.push_back((request, emitted_at, epoch)),
                    },
                    Event::BatchDone(key) => {
                        self.workers.batch_done(key, at, now, &mut self.fabric);
                    }
                    Event::Landed(rows) => rows.into_iter().for_each(|key| self.workers.touch(key)),
                }
            }
            if !applied && !self.workers.start_touched(now, &mut self.fabric) {
                return now;
            }
        }
    }

    /// When the next observation-window check is due (virtual seconds), if
    /// a policy is configured.
    fn next_policy_check(&self) -> Option<f64> {
        let policy = self.control.policy()?;
        Some(self.control.last_check() + policy.check_interval_secs)
    }

    /// One observation-window check of the online re-planning loop, when
    /// due: every live worker's counters go to the control plane, and a
    /// re-plan it applies is handed over.
    fn maybe_replan(&mut self, now: f64) {
        if self.next_policy_check().is_none_or(|due| now < due) {
            return;
        }
        let live = self.workers.rows().into_iter().filter(|w| w.live);
        let counters: Vec<_> = live
            .map(|w| (w.key.0, w.key.1, w.core.counters()))
            .collect();
        let outcome = self.control.observe(now, &counters);
        self.hand_over(outcome, now);
    }

    /// Actuates one applied re-plan (`None`: it was infeasible or not due,
    /// and the current plan keeps serving): swaps the affected models' KV
    /// budgets for *new* requests (drain-then-switch), puts the rows of
    /// (node, model) tenancies the delta added in service, queues
    /// drain-aware retirement for ones it dropped, and performs the KV
    /// hand-over of every migration.
    fn hand_over(&mut self, outcome: Option<ReplanOutcome>, now: f64) {
        let Some(outcome) = outcome else {
            return;
        };
        let fleet = self.control.fleet();
        for &model in &outcome.affected {
            // Re-derived KV budgets, and dynamic membership — a tenancy the
            // delta added has a live row on the spot, routable through the
            // fabric immediately (a migration destination must exist before
            // the pages can land), and a surviving one takes the new facts
            // in place.  Workers execute at the analytic contention split;
            // measured speed factors re-price planning, not execution.
            let contention = fleet.contention_profile(model);
            let mut planned_nodes: HashSet<NodeId> = HashSet::new();
            for n in fleet.topologies()[model.index()].nodes() {
                let (layers, kv_capacity_tokens) = (n.layers.len(), n.kv_capacity_tokens);
                planned_nodes.insert(n.node);
                self.estimators[model.index()].set_capacity(n.node, kv_capacity_tokens);
                self.pending_retire.remove(&(n.node, model));
                let key = (n.node, model);
                self.workers
                    .plan(&contention, key, &n.name, layers, kv_capacity_tokens);
            }
            // Pairs the plan no longer includes keep serving their in-flight
            // pipelines and are retired once those drain; new requests
            // already steer around them.
            let live = self.workers.live_of_model(model).map(|w| w.key);
            let dropped = live.filter(|key| !planned_nodes.contains(&key.0));
            self.pending_retire.extend(dropped);
        }
        // Each migration's KV hand-over, the one the simulator performs: the
        // pages cross the `from → to` link as one transfer (queueing behind
        // activations), both ends freeze *only the migrated layer range*
        // until it arrives — work on other layers keeps executing — and one
        // queue entry at the arrival starts what the freeze held.
        for &migration in &outcome.migrations {
            let KvMigration {
                model, from, to, ..
            } = migration;
            let keeps_layers = fleet.placement().placements()[model.index()]
                .range(from)
                .is_some();
            let rows = [(from, model), (to, model)];
            let Some([source, destination]) = self.workers.live_pair_mut(rows) else {
                continue;
            };
            let fabric = &mut self.fabric;
            let record = source.core.hand_over(
                &mut destination.core,
                migration,
                keeps_layers,
                self.control.kv_transfer(model),
                now,
                |bytes| fabric.transfer(Some(from), Some(to), bytes),
            );
            self.fabric.landed(record.at, rows);
            self.kv_transfers.push(record);
        }
        self.sweep_retirements();
    }

    /// Retires every pending-retire worker whose in-flight pipelines have
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
            self.workers.retire(key);
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
            workers: &self.workers,
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
            // every promoted stage (the fail-over purge released them).
            if let Some(tokens) = dispatch.resume_tokens.filter(|&tokens| tokens > 0) {
                self.fabric
                    .transfer(None, Some(stage.node), TOKEN_WIRE_BYTES);
                if let Some(worker) = self.workers.live_mut((stage.node, model)) {
                    worker.core.kv.seed(request.id, tokens);
                }
            }
        }
        self.fabric.send(Envelope {
            from: None,
            to: Some(dispatch.pipeline.stages[0].node),
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

    /// Fails `nodes` together at `now`: their workers are retired (what they
    /// had queued or executing is lost, and messages routed to them from
    /// here on drop harmlessly), every pipeline the control plane reports
    /// stranded is purged from every live row of its model — queued items
    /// and KV — and the removal re-plan is handed over.  Returns the
    /// stranded requests for re-submission — the control plane resumes the
    /// promoted ones on their replicas and re-admits the rest from scratch,
    /// after the purge (step 6 of the turn), so it never reaches the new
    /// incarnation.
    fn fail_nodes(&mut self, nodes: &[NodeId], now: f64) -> Vec<Request> {
        for &node in nodes {
            for m in 0..self.control.fleet().num_models() {
                let key = (node, ModelId(m));
                self.pending_retire.remove(&key);
                self.workers.retire(key);
            }
        }
        let workers = &self.workers;
        let is_live = |node, model| workers.is_live((node, model));
        let reason = ReplanReason::NodeFailure { node: nodes[0] };
        let failover = self.control.fail_nodes(nodes, reason, now, &is_live);
        for flight in &failover.stranded {
            self.release_kv(flight, true);
        }
        self.hand_over(failover.replan, now);
        self.sweep_retirements();
        failover.stranded.iter().map(|f| f.request).collect()
    }

    /// Frees what one finished (or, with `purge`, aborted) incarnation held:
    /// its estimator entries, and its KV on *every* live worker of its
    /// model, not only its pipeline nodes — migrations seed destination
    /// workers and replication seeds standbys, and all those copies are
    /// keyed by the request id (so other requests are untouched).  A purge
    /// also drops the incarnation's queued items.  Each row's call is priced
    /// as a coordinator → row message on its link.
    fn release_kv(&mut self, flight: &InFlight, purge: bool) {
        let (model, request) = (flight.pipeline.model, flight.request.id);
        let estimator = &mut self.estimators[model.index()];
        for stage in &flight.pipeline.stages {
            estimator.on_finished(stage.node, request, flight.generated);
            if let Some(p) = flight.prefix {
                estimator.release_shared(stage.node, p.id);
            }
        }
        for worker in self.workers.live_of_model(model) {
            self.fabric
                .transfer(None, Some(worker.key.0), TOKEN_WIRE_BYTES);
            if purge {
                worker.core.purge_request(request);
            } else {
                worker.core.release_request(request);
            }
        }
    }

    /// Applies one iteration the fabric reported to the coordinator.
    fn on_iteration(&mut self, request: RequestId, emitted_at: f64, epoch: u64) {
        // `None`: a stale incarnation — pre-failure work was still draining
        // through surviving stages when the request was promoted or
        // re-admitted.
        let Some(progress) = self.control.on_token(request, epoch, emitted_at) else {
            return;
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
        // Replica chunks cross the link from every primary stage to its
        // standby, and the standby workers seed the durable tokens as KV
        // residency — replication steals link bandwidth and KV headroom,
        // which is exactly the trade-off measured.
        for chunk in &progress.chunks {
            self.fabric
                .transfer(Some(chunk.primary), Some(chunk.standby), chunk.bytes);
            if let Some(standby) = self.workers.live_mut((chunk.standby, model)) {
                standby.core.kv.seed(request, progress.durable_tokens);
            }
        }
        self.fabric.send(Envelope {
            from: None,
            to: Some(pipeline.stages[0].node),
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
    }

    /// Completes a request: records its outcome and frees everything it
    /// held on the data plane.
    fn finish(&mut self, request: RequestId, completed_at: f64) {
        let Some(flight) = self.control.finish(request) else {
            return;
        };
        self.release_kv(&flight, false);
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
        let _ = self.completions.send(outcome);
        self.outcomes.push(outcome);
        // A completed pipeline may free a pending-retire worker.
        self.sweep_retirements();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{self, PlaneSpec, RuntimeConfig};
    use helix_cluster::{
        ClusterBuilder, ClusterProfile, ClusterSpec, GpuType, ModelConfig, Region,
    };
    use helix_core::{heuristics, HelixError, IwrrScheduler, NoCandidateReason, RequestPipeline};
    use helix_core::{LayerRange, ModelPlacement, PipelineStage, SchedulerKind, Topology};
    use helix_workload::PrefixId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    /// IWRR for the first request; every later call is counted and finds
    /// every candidate masked, so each admission round shows as one call.
    struct FirstOnly {
        inner: IwrrScheduler,
        calls: Arc<AtomicUsize>,
    }

    impl Scheduler for FirstOnly {
        fn kind(&self) -> SchedulerKind {
            self.inner.kind()
        }

        fn schedule(&mut self, state: &dyn ClusterState) -> Result<RequestPipeline, HelixError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                return self.inner.schedule(state);
            }
            let reason = NoCandidateReason::AllMasked { layer: 0 };
            Err(HelixError::NoCandidateAvailable { reason })
        }
    }

    /// The plane `runtime::run` builds — petals placement of LLaMA-30B on
    /// the 10-node study cluster, instant execution — with the far ends of
    /// its two channels; no thread: a test calls `wait`, `turn` or
    /// `run_live`.
    fn plane(
        scheduler: impl FnOnce(&Topology) -> Box<dyn Scheduler>,
        wall_per_virtual: f64,
    ) -> (
        Coordinator,
        Sender<SessionControl>,
        Receiver<RequestOutcome>,
    ) {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        plane_on(topology, scheduler, wall_per_virtual)
    }

    /// [`plane`] over `topology`.
    fn plane_on(
        topology: Topology,
        scheduler: impl FnOnce(&Topology) -> Box<dyn Scheduler>,
        wall_per_virtual: f64,
    ) -> (
        Coordinator,
        Sender<SessionControl>,
        Receiver<RequestOutcome>,
    ) {
        let config = RuntimeConfig {
            wall_per_virtual,
            ..RuntimeConfig::fast_test()
        };
        let (control, inbound) = channel();
        let (completions, completed) = channel();
        let coordinator = runtime::build(PlaneSpec {
            schedulers: vec![scheduler(&topology)],
            fleet: FleetTopology::single(topology),
            clock: VirtualClock::new(config.wall_per_virtual),
            config,
            policy: None,
            inbound,
            completions,
        });
        (coordinator, control, completed)
    }

    fn iwrr(topology: &Topology) -> Box<dyn Scheduler> {
        Box::new(IwrrScheduler::from_topology(topology).unwrap())
    }

    fn request(id: u64) -> Request {
        Request {
            id,
            prompt_tokens: 32,
            output_tokens: 6,
            ..Request::default()
        }
    }

    /// The first live row of the plane, and one-stage work for it.
    fn first_row(coordinator: &Coordinator) -> WorkerKey {
        coordinator.workers.rows()[0].key
    }

    fn work_for(key: WorkerKey, request: u64) -> StageWork {
        StageWork::one_stage(request, key.0, key.1)
    }

    /// PR 22's first finding, held without an executor: the loop's turn is a
    /// plain call.  At a nanosecond of wall per virtual second every send is
    /// due by the next clock reading, so one turn is many delivery passes —
    /// a whole pipeline traversal — and still exactly one admission round.
    #[test]
    fn admission_and_retries_run_once_per_quiescence_not_once_per_pass() {
        let calls = Arc::new(AtomicUsize::new(0));
        let scripted = |topology: &Topology| -> Box<dyn Scheduler> {
            Box::new(FirstOnly {
                inner: IwrrScheduler::from_topology(topology).unwrap(),
                calls: Arc::clone(&calls),
            })
        };
        let (mut coordinator, control, completed) = plane(scripted, 1e-9);
        let submit = SessionControl::SubmitAll(vec![request(0), request(1)]);

        // Turn 1 admits request 0 and defers request 1 (calls 1 and 2), then
        // retries it (call 3); every later turn retries it once more.
        let mut turns = 1;
        assert!(!coordinator.turn(Some(submit)).unwrap());
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        while completed.try_recv().is_err() {
            assert!(!coordinator.turn(None).unwrap());
            turns += 1;
            assert!(turns < 1_000, "request 0 never completed");
        }
        // One turn per iteration of request 0, each a pipeline of several
        // hops — several passes — and one admission round.
        assert!(turns >= 6, "{turns} turns");
        let batches: u64 = coordinator.workers.rows().iter().map(|w| w.batches).sum();
        assert!(
            batches > 2 * turns as u64,
            "{batches} batches in {turns} turns"
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2 + turns);

        // Nothing in flight, request 1 still masked: finishing stalls.
        let stalled = coordinator.turn(Some(SessionControl::Finish));
        assert!(matches!(
            stalled,
            Err(RuntimeError::Stalled {
                pending: 1,
                completed: 1
            })
        ));
        drop(control);
    }

    /// `run_due`'s catch-up rule on a scripted clock: a row's batch starts
    /// only once a reading finds nothing more due, so a second wave that
    /// comes due between two readings joins the batch of the first.
    #[test]
    fn what_comes_due_between_two_readings_joins_the_same_batch() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1.0);
        let key = first_row(&coordinator);
        // Two items for one row on one link, the second behind a second of
        // transfer: due a virtual second apart.
        for (request, bytes) in [(1, TOKEN_WIRE_BYTES), (2, 1.25e9)] {
            coordinator.fabric.send(Envelope {
                from: None,
                to: Some(key.0),
                bytes,
                msg: RuntimeMsg::Work(work_for(key, request)),
            });
        }
        let first = coordinator.fabric.next_at().unwrap();
        let second = first + 2.0;
        // Reading 1 delivers the first item, reading 2 the second; only
        // reading 3 finds nothing due and starts the row's batch — whose two
        // `IterationDone`s reading 4 delivers to the coordinator.
        let mut readings = [first, second].into_iter();
        let mut reads = 0;
        let now = coordinator.run_due(|| {
            reads += 1;
            readings.next().unwrap_or(second)
        });
        assert_eq!((now, reads), (second, 5));
        let row = coordinator.workers.get(key).unwrap();
        assert_eq!((row.batches, row.decode_tokens), (1, 2));
        assert_eq!(coordinator.arrived.len(), 2);
        assert_eq!(coordinator.fabric.next_at(), None);
    }

    /// A hand-over freezes the migrated range on both ends until its
    /// transfer arrives, and one queue entry at that arrival starts what the
    /// freeze held — on a plane with nothing else in flight it is the only
    /// deadline the loop has.
    #[test]
    fn work_held_by_a_hand_over_starts_when_its_arrival_comes_due() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1e-9);
        let rows = coordinator.workers.rows();
        let (from, to) = (rows[0].key, rows[1].key);
        let migration = KvMigration {
            model: from.1,
            from: from.0,
            to: to.0,
            layers: LayerRange::new(0, 4),
        };
        let outcome = ReplanOutcome {
            affected: Vec::new(),
            warm_flow_values: Vec::new(),
            migrations: vec![migration],
        };
        coordinator.hand_over(Some(outcome), 0.0);
        let [record] = coordinator.kv_transfers.as_slice() else {
            panic!("one hand-over, recorded when it starts");
        };
        let due = record.at;
        assert_eq!(coordinator.fabric.next_at(), Some(due), "its arrival alone");
        // Work on the migrated range is held on the source.
        coordinator.workers.deliver(work_for(from, 7));
        coordinator
            .workers
            .start_touched(0.0, &mut coordinator.fabric);
        assert_eq!(coordinator.workers.get(from).unwrap().batches, 0);

        while coordinator.clock.now() < due {}
        assert!(!coordinator.turn(None).unwrap());
        let row = coordinator.workers.get(from).unwrap();
        assert_eq!((row.batches, row.core.queue_len()), (1, 0));
    }

    /// KV bookkeeping is a call: a release frees every live row's pool at
    /// once and is priced as one coordinator → row message on each row's
    /// link, with nothing queued.
    #[test]
    fn a_release_is_counted_on_its_link_and_frees_the_pool_at_once() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1.0);
        let keys: Vec<WorkerKey> = coordinator.workers.rows().iter().map(|w| w.key).collect();
        for &key in &keys {
            coordinator
                .workers
                .live_mut(key)
                .unwrap()
                .core
                .kv
                .seed(7, 64);
        }
        let stage = PipelineStage {
            node: keys[0].0,
            layers: LayerRange::new(0, 4),
        };
        let flight = InFlight {
            request: request(7),
            pipeline: Arc::new(RequestPipeline {
                model: keys[0].1,
                stages: vec![stage],
            }),
            generated: 0,
            epoch: 0,
            prefix: None,
            first_token_at: None,
            last_token_at: None,
        };
        coordinator.release_kv(&flight, false);
        for &key in &keys {
            let row = coordinator.workers.get(key).unwrap();
            assert_eq!(row.core.kv.used_tokens(), 0.0, "{key:?} still holds KV");
        }
        assert_eq!(coordinator.fabric.next_at(), None, "nothing is queued");
        let links = coordinator.fabric.link_reports();
        assert_eq!(links.len(), keys.len());
        assert!(links.iter().all(|l| l.from.is_none() && l.messages == 1));
    }

    /// The runtime purges on abort, as the simulator does: the failure turn
    /// drops the stranded incarnation's queued items (and KV) from every
    /// live row before step 6 re-admits it, and the new incarnation then
    /// completes.
    #[test]
    fn a_failure_purges_the_stranded_incarnation_from_every_live_row() {
        let (mut coordinator, control, _completed) = plane(iwrr, 1e-4);
        assert!(!coordinator
            .turn(Some(SessionControl::Submit(request(0))))
            .unwrap());
        let pipeline = Arc::clone(&coordinator.control.flight(0).unwrap().pipeline);
        let topology = &coordinator.control.fleet().topologies()[0];
        let redundant = |node| {
            let mut without = topology.placement().clone();
            without.clear(node);
            without.has_complete_pipeline(topology.num_layers())
        };
        let stages = &pipeline.stages;
        let failed = stages.iter().map(|s| s.node).find(|&n| redundant(n));
        let failed = failed.expect("the plan can lose a stage of the pipeline");
        let (stage_index, survivor) = stages
            .iter()
            .enumerate()
            .find(|(_, s)| s.node != failed)
            .expect("a pipeline of several stages");
        let key = (survivor.node, pipeline.model);
        // An item of the incarnation held on the survivor by a freeze that
        // outlasts the failure turn (as a hand-over's would, with its
        // arrival queued).
        let until = 1_000.0;
        let row = coordinator.workers.live_mut(key).unwrap();
        row.core.freeze(survivor.layers, until);
        coordinator.fabric.landed(until, [key, key]);
        coordinator.workers.deliver(StageWork {
            stage_index,
            pipeline: Arc::clone(&pipeline),
            ..work_for(key, 0)
        });

        assert!(!coordinator
            .turn(Some(SessionControl::FailNode(failed, 0.0)))
            .unwrap());
        let readmitted = coordinator.control.flight(0).map(|f| f.epoch);
        assert_eq!(readmitted, Some(1), "re-admitted under a new epoch");
        let row = coordinator.workers.get(key).unwrap();
        assert_eq!(row.core.queue_len(), 0, "the stranded item is gone");

        control.send(SessionControl::Finish).unwrap();
        let outcomes = coordinator.run_live().unwrap();
        assert_eq!(outcomes.iter().map(|o| o.id).collect::<Vec<_>>(), [0]);
    }

    /// Aim 3's invariant on the runtime: with RF=2 replication, shared
    /// prefixes, a mid-run migration and a node failure, every live row's
    /// pool is empty once the plane has finished — every release, purge,
    /// seed and hand-over balanced.
    #[test]
    fn kv_is_balanced_at_quiescence_after_replication_a_migration_and_a_failure() {
        // Every stage doubled: nodes 0 and 2 hold the bottom half, 1 and 3
        // the top half.
        let cluster = ClusterBuilder::new("balance-4")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_80, 4, 1, Region(0))
            .build();
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
        let layers = profile.model().num_layers;
        let (quarter, half) = (layers / 4, layers / 2);
        let mut placement = ModelPlacement::empty(4);
        for (node, start, end) in [
            (0, 0, half),
            (2, 0, half),
            (1, half, layers),
            (3, half, layers),
        ] {
            placement.assign(NodeId(node), LayerRange::new(start, end));
        }
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let (mut coordinator, control, _completed) = plane_on(topology, iwrr, 0.01);
        let requests: Vec<Request> = (0..40)
            .map(|id| Request {
                id,
                prompt_tokens: 48,
                output_tokens: 32,
                arrival_time: 0.02 * id as f64,
                prefix: (id % 2 == 0).then_some(PrefixId(id % 3)),
                prefix_tokens: if id % 2 == 0 { 16 } else { 0 },
                ..Request::default()
            })
            .collect();
        let replication = ReplicationPolicy::rf2(0, 16);
        control
            .send(SessionControl::SetReplication(replication))
            .unwrap();
        control.send(SessionControl::SubmitAll(requests)).unwrap();
        while coordinator.clock.now() < 0.3 {
            let first = coordinator.wait();
            assert!(!coordinator.turn(first).unwrap());
        }
        // Mid-run: node 0 hands layers [quarter, half) to node 1, and node 3
        // fails later.
        let moved = LayerRange::new(quarter, half);
        let migrate = PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(1), moved);
        control.send(SessionControl::ApplyDelta(migrate)).unwrap();
        control
            .send(SessionControl::FailNode(NodeId(3), 0.5))
            .unwrap();
        control.send(SessionControl::Finish).unwrap();
        assert_eq!(coordinator.run_live().unwrap().len(), 40);

        let (logs, transfers) = coordinator.take_logs();
        assert_eq!(transfers.len(), 1, "the migration handed over");
        assert_eq!(logs.failovers.len(), 1);
        assert!(logs.replication.chunks > 0, "replicas were seeded");
        for row in coordinator.workers.rows().into_iter().filter(|w| w.live) {
            let kv = &row.core.kv;
            let held = (kv.used_tokens(), kv.shared_pages());
            assert_eq!(held, (0.0, 0), "{:?} still holds KV", row.key);
        }
    }

    /// A call already queued is returned without waiting for the deadline,
    /// however far off it is.
    #[test]
    fn a_queued_call_is_returned_without_waiting() {
        let (mut coordinator, control, _completed) = plane(iwrr, 1.0);
        let far = Request {
            arrival_time: 1e6,
            ..request(0)
        };
        assert!(!coordinator.turn(Some(SessionControl::Submit(far))).unwrap());
        let deadline = coordinator.next_wake().unwrap();
        assert!(deadline > Instant::now() + Duration::from_secs(3_600));
        control
            .send(SessionControl::InjectSpeed(NodeId(0), 0.5))
            .unwrap();
        let started = Instant::now();
        let call = coordinator.wait();
        assert!(matches!(
            call,
            Some(SessionControl::InjectSpeed(NodeId(0), _))
        ));
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    /// A deadline already past ends the wait at once — with the queued call
    /// if there is one, with `None` otherwise — and never blocks on the
    /// channel.
    #[test]
    fn a_deadline_in_the_past_returns_at_once() {
        let (mut coordinator, control, _completed) = plane(iwrr, 1.0);
        coordinator.pending_failures.push((0.0, NodeId(0)));
        while coordinator
            .next_wake()
            .is_some_and(|at| at > Instant::now())
        {}
        assert!(coordinator.wait().is_none());
        control
            .send(SessionControl::InjectSpeed(NodeId(0), 0.5))
            .unwrap();
        let call = coordinator.wait();
        assert!(matches!(call, Some(SessionControl::InjectSpeed(..))));
        assert!(coordinator.wait().is_none());
    }

    /// A session that goes away without a word — no `Finish`, its sender
    /// just closes the channel — is a `Finish`: what it said before comes
    /// first, then the closed channel reads as `Finish`, and the loop
    /// completes what was submitted on its deadlines alone and returns.
    #[test]
    fn a_closed_inbound_channel_finishes_what_is_in_flight() {
        let (mut coordinator, control, completed) = plane(iwrr, 0.0002);
        let submit = SessionControl::SubmitAll((0..4).map(request).collect());
        control.send(submit).ok().unwrap();
        drop(control);
        let submit = coordinator.wait();
        assert!(matches!(submit, Some(SessionControl::SubmitAll(_))));
        assert!(!coordinator.turn(submit).unwrap());
        assert!(matches!(coordinator.wait(), Some(SessionControl::Finish)));
        let outcomes = coordinator.run_live().unwrap();
        assert!(coordinator.finishing);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(std::iter::from_fn(|| completed.try_recv().ok()).count(), 4);
    }
}
