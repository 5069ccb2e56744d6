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
//! the simulator drives), and every *action* on one — dispatch, the token
//! step, the batch step, releases, fail-over, re-plans with their KV
//! hand-overs, observation windows — by the shared [`Actuator`], whose wire is
//! the fabric ([`fabric`](crate::fabric): the shared `LinkWire`, calls
//! priced).  The actuator also keeps the
//! [`RequestTable`](helix_core::RequestTable): each dispatched request gets
//! a slot whose lane is its live incarnation, and every hop and iteration
//! report is resolved against that lane, so the work of an aborted
//! incarnation is dropped where it lands, without a lookup.  Slots are
//! never reused within a session: the table grows by one entry per
//! distinct request id, as the report's outcomes do.  What is genuinely the
//! runtime's stays here: the loop and its wall-paced clock, the session's
//! calls, the list of rows to start once nothing more is due (see
//! [`registry`](crate::registry)), and the outcome records.  Admission reads
//! the actuator's [`Actuator::estimated_view`]: the §5.2 KV estimate, which
//! the actuator charges at dispatch and frees at release, is the runtime's
//! KV number.  KV bookkeeping — releasing a finished or aborted request,
//! seeding a replica or a promoted request, handing a layer range over — is
//! a call on every row of the model at the moment the simulator makes it,
//! priced on the link it crosses.
//!
//! There is one loop, [`Coordinator::run_live`] — the data plane's loop and
//! the session loop behind [`ServingSession`](crate::ServingSession), a
//! plain function on the data plane's thread.  One turn waits
//! ([`Coordinator::wait`], on the session's `std::sync::mpsc` channel) for a
//! session call or for the earliest thing due (the fabric's queue, an
//! arrival, a scheduled perturbation, a policy tick, the drain budget), and
//! then ([`Coordinator::turn`]) handles the session calls; applies every
//! delivery, batch completion and hand-over arrival that is due, pass after
//! pass until a fresh clock reading finds nothing more, and only then
//! starts the batches of the rows those passes touched — until nothing is
//! due and no row waits; and then — once per quiescence, not once per
//! delivery — handles what reached the coordinator, observes, applies the
//! scheduled perturbations that are due (one [`Actuator::perturb`] each, in
//! virtual-time order), admits, retries what was deferred and acknowledges
//! drains.  Requests and perturbations arrive as control messages on the
//! inbound channel, completions stream back as they happen, and mid-run
//! placement deltas can add rows for (node, model) pairs the original build
//! never had.
//!
//! The clock is read once per pass and not in between: the fabric has none,
//! so every send and priced transfer carries the reading its caller acts on
//! — a pass's reading for the forwards of the batches it completes, the
//! turn's last reading for the coordinator's dispatches, decode launches,
//! releases, seeds and hand-overs.  Everything in flight waits in the
//! fabric's one queue — the shared [`Timeline`](helix_core::Timeline) of
//! the simulator's 24-byte wire events — and a token is timed by its
//! arrival at the coordinator, as in the simulator.
//!
//! When a [`ReplanPolicy`] is configured the loop also closes the online
//! re-planning feedback: every policy interval the rows' counters are
//! handed to [`ControlPlane::observe`], and an applied
//! re-plan is handed over **drain-then-switch** — the affected models'
//! schedulers are swapped, and their rows take the new KV budgets, for *new*
//! requests while every in-flight pipeline keeps the route it was assigned,
//! so nothing is dropped mid-generation.

use crate::clock::VirtualClock;
use crate::error::RuntimeError;
use crate::metrics::RequestOutcome;
use crate::runtime::{ExecutionKind, PlaneSpec};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::{
    Actuator, Admission, ControlLogs, ControlPlane, InFlight, KvTransferRecord, LinkWire,
    PairTable, PerturbationEvent, ReplicationPolicy, RowKey, WireEvent,
};
use helix_workload::Request;
use std::cmp::Ordering::Greater;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
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
    /// Apply a scripted perturbation once its virtual time has passed
    /// (see [`Actuator::perturb`]).
    Perturb(PerturbationEvent),
    /// Install the replication policy governing subsequently admitted
    /// requests (already-running requests keep their admission-time
    /// decision).
    SetReplication(ReplicationPolicy),
    /// Complete everything submitted so far, then acknowledge.
    Drain(Sender<()>),
    /// Drain and exit the live loop.
    Finish,
}

pub(crate) struct Coordinator {
    /// The shared coordinator state machine (fleet plan, schedulers, prefix
    /// routers, replication, fail-over, re-plan policy, in-flight table).
    pub control: ControlPlane,
    clock: VirtualClock,
    inbound: Receiver<SessionControl>,
    /// The rows, the request table and the KV-transfer log.
    pub act: Actuator,
    pub wire: LinkWire<WireEvent>,
    /// Rows that may have a batch to start once the current passes are
    /// over, each at most once: `queued` marks those in the list.
    pub touched: Vec<RowKey>,
    pub queued: PairTable<bool>,
    max_wall: Duration,
    outcomes: Vec<RequestOutcome>,
    completions: Sender<RequestOutcome>,
    /// Scheduled perturbations not yet due, in call order.
    perturbations: Vec<PerturbationEvent>,
    /// Submitted requests whose arrival time has not passed, in submission
    /// order.
    pending: VecDeque<Request>,
    /// Requests every candidate masked out, retried once per turn.
    deferred: VecDeque<Request>,
    drain_acks: Vec<Sender<()>>,
    /// The tokens that reached the coordinator during this turn's passes,
    /// in arrival order: `(slot, arrival time, epoch)`.
    arrived: VecDeque<(u32, f64, u64)>,
    finishing: bool,
    submitted: usize,
    /// Wall-clock mark of when the current drain began; the budget bounds
    /// each drain, not the session's lifetime.
    drain_started: Option<Duration>,
}

impl Coordinator {
    /// Builds the plane as plain data: one row per (assigned node, model)
    /// pair — each with its own partition of the node's KV pool, over the
    /// runtime's 16-token pages — with the actuator's estimates, the network
    /// fabric, and the control plane that routes every request to its
    /// model's scheduler.
    pub(crate) fn new(spec: PlaneSpec) -> Self {
        let (fleet, config) = (spec.fleet, spec.config);
        // Link bandwidth/latency are model-independent; the fabric uses the
        // first model's cluster.
        let cluster = fleet.topologies()[0].profile().cluster().clone();
        let queued = PairTable::new(cluster.num_nodes(), fleet.num_models());
        let priced = config.execution == ExecutionKind::Analytic;
        let act = Actuator::new(&fleet, DEFAULT_TOKENS_PER_PAGE, priced);
        let mut control = ControlPlane::new(fleet, spec.schedulers);
        control.set_policy(spec.policy);
        Coordinator {
            control,
            clock: spec.clock,
            inbound: spec.inbound,
            act,
            // A coordinator → row call is a message on its link.
            wire: LinkWire::new(cluster, true),
            touched: Vec::new(),
            queued,
            max_wall: config.max_wall,
            outcomes: Vec::new(),
            completions: spec.completions,
            perturbations: Vec::new(),
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
    pub(crate) fn logs(&self) -> (ControlLogs, Vec<KvTransferRecord>) {
        (self.control.logs(), self.act.kv_transfers().to_vec())
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
    /// request or scheduled perturbation is pending; a hand-over's arrival
    /// may still sit in the fabric's queue and is dropped with it — the report
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
    /// of the fabric's queue, the next arrival or scheduled perturbation, the
    /// next policy tick and the drain budget.
    fn next_wake(&self) -> Option<Instant> {
        let arrivals = self.pending.iter().map(|r| r.arrival_time);
        let perturbations = self.perturbations.iter().map(PerturbationEvent::at);
        let paced = arrivals
            .chain(perturbations)
            .chain(self.next_policy_check())
            .fold(f64::INFINITY, f64::min);
        let paced = paced.is_finite().then(|| self.clock.instant_at(paced));
        let budget = self.drain_started;
        let budget = budget.map(|started| self.clock.instant_at_wall(started + self.max_wall));
        // A queue entry is waited for to the instant: a microsecond of slack
        // is several deliveries on a fast link.
        let due = self.wire.queue.peek_time();
        let due = due.map(|at| self.clock.instant_at(at));
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
                SessionControl::Perturb(event) => self.perturbations.push(event),
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
        self.take_tokens(now);

        // 3. When a policy window is due, observe every row, as the
        // simulator observes every engine, and hand a re-plan over.
        if self.next_policy_check().is_some_and(|due| now >= due) {
            self.act.observe(&mut self.control, &mut self.wire, now);
        }

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

        // 5. Apply every scheduled perturbation whose virtual time is not
        // after this reading (a NaN time included: the simulator clamps it
        // to its clock), in (time, call order), as the simulator handles one
        // perturbation event at a time.  What a failure strands — the
        // promoted pipelines and the aborted rest, their KV and estimate
        // purged — queues for re-admission through the normal path.
        let due = self
            .perturbations
            .extract_if(.., |event| event.at().partial_cmp(&now) != Some(Greater));
        let mut due: Vec<PerturbationEvent> = due.collect();
        due.sort_by(|a, b| a.at().total_cmp(&b.at()));
        for event in &due {
            let (control, wire) = (&mut self.control, &mut self.wire);
            for flight in self.act.perturb(control, wire, event, now) {
                self.pending.push_back(flight.request);
            }
        }

        // 6. Admit every request whose arrival time has passed, in
        // submission order.
        for _ in 0..self.pending.len() {
            let Some(request) = self.pending.pop_front() else {
                break;
            };
            if request.arrival_time > now {
                self.pending.push_back(request);
            } else if !self.try_dispatch(request, now)? {
                self.deferred.push_back(request);
            }
        }
        // 7. Retry requests every candidate masked out earlier.
        for _ in 0..self.deferred.len() {
            let Some(request) = self.deferred.pop_front() else {
                break;
            };
            if !self.try_dispatch(request, now)? {
                self.deferred.push_back(request);
            }
        }
        // Deferred work is only genuinely stuck when nothing can still
        // unmask a candidate: an in-flight completion frees KV and a due
        // perturbation re-plans or re-prices — so a pending perturbation
        // postpones the stall verdict.  The requests a hand-over holds are
        // in flight.
        let settled = self.control.in_flight_len() == 0 && self.perturbations.is_empty();
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
    /// per clock reading: a delivery of work (resolved against its lane, and
    /// dropped if stale), a batch completion or a hand-over's arrival is a
    /// call on its rows (the coordinator's own reports wait in `arrived` for
    /// the end of the turn), and whatever the pass sends is stamped with its
    /// reading.  The rows the passes touched start their batches once a
    /// fresh reading finds nothing more due — so everything that has arrived
    /// by the time a batch starts joins it (§5.1's rule), however fast a
    /// pass is.  Zero-duration batches
    /// and fast links make new entries due at once; the loop ends when
    /// nothing is due and no row is waiting to start.  `read` is the clock
    /// (virtual seconds; a test scripts it); returns its last reading.
    fn run_due(&mut self, mut read: impl FnMut() -> f64) -> f64 {
        loop {
            let now = read();
            let mut applied = false;
            while let Some((at, event)) = self.wire.queue.pop_due(now) {
                applied = true;
                match event {
                    WireEvent::NodeArrival(hop) => self.deliver(hop),
                    WireEvent::TokenAtCoordinator { slot, epoch } => {
                        self.arrived.push_back((slot, at, epoch))
                    }
                    WireEvent::BatchComplete((node, model)) => {
                        self.act.complete(&mut self.wire, node, model, now);
                        self.touch((node, model));
                    }
                    WireEvent::EngineThaw(key) => self.touch(key),
                }
            }
            if !applied && !self.start_touched(now) {
                return now;
            }
        }
    }

    /// The token step for every token that reached the coordinator during
    /// the turn's passes, in arrival order: a token is timed by its arrival,
    /// as in the simulator, and what it triggers leaves at `now`.
    fn take_tokens(&mut self, now: f64) {
        while let Some((slot, at, epoch)) = self.arrived.pop_front() {
            let (control, wire) = (&mut self.control, &mut self.wire);
            let token = self.act.token(control, wire, slot, epoch, at, now);
            if let Some(flight) = token.and_then(|token| token.finished) {
                self.complete(flight, at);
            }
        }
    }

    /// When the next observation-window check is due (virtual seconds), if
    /// a policy is configured.
    fn next_policy_check(&self) -> Option<f64> {
        let policy = self.control.policy()?;
        Some(self.control.last_check() + policy.check_interval_secs)
    }

    /// Asks the control plane to admit one request against the §5.2
    /// estimate and puts the dispatch on the wire at `now`.  Returns
    /// `Ok(false)` if the admission was deferred (every candidate masked, or
    /// only dead pipelines on offer) and the request should be retried
    /// later.
    fn try_dispatch(&mut self, request: Request, now: f64) -> Result<bool, RuntimeError> {
        let view = self.act.estimated_view(request.model);
        let Admission::Dispatch(dispatch) = self.control.admit(&request, &view)? else {
            return Ok(false);
        };
        let slot = self.act.requests.insert(request);
        self.act.dispatch(&mut self.wire, slot, &dispatch, now);
        Ok(true)
    }

    /// Records a request the token step finished — its KV and estimate
    /// already freed.
    fn complete(&mut self, flight: InFlight, completed_at: f64) {
        let outcome = RequestOutcome {
            id: flight.request.id,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::link_reports;
    use crate::registry::one_stage_hop;
    use crate::runtime::RuntimeConfig;
    use crate::Phase;
    use helix_cluster::{
        ClusterBuilder, ClusterProfile, ClusterSpec, GpuType, ModelConfig, ModelId, NodeId, Region,
        TOKEN_WIRE_BYTES,
    };
    use helix_core::{heuristics, HelixError, IwrrScheduler, NoCandidateReason, RequestPipeline};
    use helix_core::{ClusterState, NodeEngine, PlacementDelta};
    use helix_core::{FleetTopology, Scheduler};
    use helix_core::{Hop, Wire};
    use helix_core::{LayerRange, ModelPlacement, PipelineStage, SchedulerKind, Topology};
    use helix_workload::PrefixId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;

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
        let coordinator = Coordinator::new(PlaneSpec {
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

    /// The row of `key`.
    fn row(coordinator: &Coordinator, (node, model): RowKey) -> &NodeEngine {
        coordinator.act.rows.get(node, model).unwrap()
    }

    /// The first row of the plane.
    fn first_row(coordinator: &Coordinator) -> RowKey {
        coordinator.rows()[0].0
    }

    /// One-stage work for the row `key`: `request` gets a slot whose lane is
    /// that row alone, and this is its decode hop.
    fn hop_for(coordinator: &mut Coordinator, key: RowKey, request: u64) -> Hop {
        one_stage_hop(&mut coordinator.act.requests, request, key)
    }

    /// Delivers one-stage work of `request` to the row `key`.
    fn deliver(coordinator: &mut Coordinator, key: RowKey, request: u64) {
        let hop = hop_for(coordinator, key, request);
        coordinator.deliver(hop);
    }

    /// When tokens sent at `now` from `nodes`, in order, reach the
    /// coordinator over links of the plane's cluster that carried nothing
    /// before.
    fn tokens_sent_at(now: f64, nodes: &[NodeId]) -> Vec<f64> {
        let mut wire: LinkWire<WireEvent> = LinkWire::new(ClusterSpec::solver_quality_10(), true);
        let send = |&node| wire.transfer(now, (Some(node), None), TOKEN_WIRE_BYTES);
        nodes.iter().map(send).collect()
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
        let batches: u64 = coordinator
            .rows()
            .iter()
            .map(|(_, row)| row.totals().batches)
            .sum();
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
            let hop = hop_for(&mut coordinator, key, request);
            let link = (None, Some(key.0));
            coordinator.wire.send_hop(0.0, link, bytes, hop);
        }
        let first = coordinator.wire.queue.peek_time().unwrap();
        let (second, later) = (first + 2.0, first + 3.0);
        // Reading 1 delivers the first item, reading 2 the second; only
        // reading 3 finds nothing due and starts the row's batch — whose two
        // tokens leave stamped with that reading, and reading 4 delivers
        // them to the coordinator.
        let mut readings = [first, second, second].into_iter();
        let mut reads = 0;
        let now = coordinator.run_due(|| {
            reads += 1;
            readings.next().unwrap_or(later)
        });
        assert_eq!((now, reads), (later, 5));
        let totals = row(&coordinator, key).totals();
        assert_eq!((totals.batches, totals.decode_tokens), (1, 2));
        let arrived: Vec<f64> = coordinator.arrived.iter().map(|a| a.1).collect();
        assert_eq!(arrived, tokens_sent_at(second, &[key.0, key.0]));
        assert_eq!(coordinator.wire.queue.peek_time(), None);
    }

    /// A pass's sends are stamped with its reading, never with the wall: on
    /// a clock where a wall nanosecond is a virtual second, the reports two
    /// rows forward in one pass leave at the scripted reading and, on two
    /// equal links, arrive together.
    #[test]
    fn the_sends_of_one_pass_are_stamped_with_its_reading() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1e-9);
        let rows = coordinator.rows();
        let (a, b) = (rows[0].0, rows[1].0);
        deliver(&mut coordinator, a, 1);
        deliver(&mut coordinator, b, 2);
        let reading = 5.0;
        assert!(coordinator.clock.now() > 1e3 * reading, "the wall is ahead");
        assert_eq!(coordinator.run_due(|| reading), reading);
        let due = std::iter::from_fn(|| coordinator.wire.queue.pop());
        let tokens: Vec<f64> = due
            .map(|(at, event)| match event {
                WireEvent::TokenAtCoordinator { .. } => at,
                other => panic!("expected a token, got {other:?}"),
            })
            .collect();
        assert_eq!(tokens, tokens_sent_at(reading, &[a.0, b.0]));
        assert_eq!(tokens[0], tokens[1], "{tokens:?}");
        assert!(tokens[0] - reading < 0.01, "{tokens:?}");
    }

    /// The simulator's token rule: a token is timed when it reaches the
    /// coordinator — the reading of the pass that sent it plus the
    /// transfer on its node → coordinator link — not when it was sent.
    #[test]
    fn a_token_is_timed_by_its_arrival_at_the_coordinator() {
        let (mut coordinator, _control, completed) = plane(iwrr, 1.0);
        let one_token = Request {
            output_tokens: 1,
            ..request(0)
        };
        assert!(coordinator.try_dispatch(one_token, 0.0).unwrap());
        let pipeline = Arc::clone(&coordinator.control.flight(0).unwrap().pipeline);
        let last = pipeline.stages.last().unwrap().node;
        // One hop per reading: a reading delivers what the one before sent,
        // and the row it reaches forwards it at once.
        let mut reading = 0.0;
        while coordinator.arrived.is_empty() {
            reading += 1.0;
            assert!(reading < 100.0, "the token never arrived");
            coordinator.run_due(|| reading);
        }
        // The last stage sent it at the reading before.
        let arrival = tokens_sent_at(reading - 1.0, &[last])[0];
        coordinator.take_tokens(reading);
        let outcome = completed.try_recv().unwrap();
        let timed = (outcome.first_token_at, outcome.completed_at);
        assert_eq!(timed, (arrival, arrival));
        assert!(arrival > reading - 1.0, "the link took time");
    }

    /// A hand-over freezes the migrated range on both ends until its
    /// transfer arrives, and one queue entry at that arrival starts what the
    /// freeze held — on a plane with nothing else in flight it is the only
    /// deadline the loop has.
    #[test]
    fn work_held_by_a_hand_over_starts_when_its_arrival_comes_due() {
        use crate::registry::{fleet, plane_of};
        // Every stage doubled; node 0 hands its first quarter to node 2.
        let doubled: &[(usize, usize, usize)] = &[(0, 0, 2), (2, 0, 2), (1, 2, 4), (3, 2, 4)];
        let mut coordinator = plane_of(fleet(&[doubled]), ExecutionKind::Instant);
        let (from, to) = ((NodeId(0), ModelId(0)), (NodeId(2), ModelId(0)));
        let quarter = coordinator.control.fleet().topologies()[0].num_layers() / 4;
        let moved = LayerRange::new(0, quarter);
        let delta = PlacementDelta::new().migrate(from.1, from.0, to.0, moved);
        let migrate = PerturbationEvent::Replan { at: 0.0, delta };
        let (act, control) = (&mut coordinator.act, &mut coordinator.control);
        act.perturb(control, &mut coordinator.wire, &migrate, 0.0);
        let [record] = act.kv_transfers() else {
            panic!("one hand-over, recorded when it starts");
        };
        let due = record.at;
        assert_eq!(
            coordinator.wire.queue.peek_time(),
            Some(due),
            "its arrival alone"
        );
        // Work on the migrated range is held on the source.
        deliver(&mut coordinator, from, 7);
        coordinator.start_touched(0.0);
        assert_eq!(row(&coordinator, from).totals().batches, 0);

        while coordinator.clock.now() < due {}
        assert!(!coordinator.turn(None).unwrap());
        let row = row(&coordinator, from);
        assert_eq!((row.totals().batches, row.queue_len()), (1, 0));
    }

    /// KV bookkeeping is a call: a release frees every row's pool at
    /// once and is priced as one coordinator → row message on each row's
    /// link, with nothing queued.
    #[test]
    fn a_release_is_counted_on_its_link_and_frees_the_pool_at_once() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1.0);
        let keys: Vec<RowKey> = coordinator.rows().iter().map(|r| r.0).collect();
        for &(node, model) in &keys {
            let row = coordinator.act.rows.get_mut(node, model).unwrap();
            row.kv.seed(7, 64);
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
        let act = &mut coordinator.act;
        act.release(&mut coordinator.wire, &flight, false, 0.0);
        for &key in &keys {
            let kv = row(&coordinator, key).kv.used_tokens();
            assert_eq!(kv, 0.0, "{key:?} still holds KV");
        }
        assert_eq!(
            coordinator.wire.queue.peek_time(),
            None,
            "nothing is queued"
        );
        let links = link_reports(&coordinator.wire);
        assert_eq!(links.len(), keys.len());
        assert!(links.iter().all(|l| l.from.is_none() && l.messages == 1));
    }

    /// The runtime purges on abort, as the simulator does: the failure turn
    /// drops the stranded incarnation's queued items (and KV) from every
    /// row before step 6 re-admits it, and the new incarnation then
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
        let held = coordinator.act.rows.get_mut(key.0, key.1).unwrap();
        held.freeze(survivor.layers, until);
        coordinator.wire.landed(until, [key, key]);
        let hop = Hop {
            epoch: 0,
            slot: coordinator.act.requests.slot(0).unwrap(),
            tokens: 1,
            stage: stage_index as u16,
            phase: Phase::Decode,
        };
        coordinator.deliver(hop);
        assert_eq!(row(&coordinator, key).queue_len(), 1);

        let fail = PerturbationEvent::NodeFailure {
            at: 0.0,
            node: failed,
        };
        assert!(!coordinator
            .turn(Some(SessionControl::Perturb(fail)))
            .unwrap());
        let readmitted = coordinator.control.flight(0).map(|f| f.epoch);
        assert_eq!(readmitted, Some(1), "re-admitted under a new epoch");
        let queued = row(&coordinator, key).queue_len();
        assert_eq!(queued, 0, "the stranded item is gone");

        control.send(SessionControl::Finish).unwrap();
        let outcomes = coordinator.run_live().unwrap();
        assert_eq!(outcomes.iter().map(|o| o.id).collect::<Vec<_>>(), [0]);
    }

    /// A hop of an aborted incarnation, still on a link when a node of its
    /// pipeline failed, reaches a surviving row after the request was
    /// re-admitted under a new epoch: it is dropped where it lands, by its
    /// slot's lane, so the row's queue, KV and batch count do not move.
    #[test]
    fn a_stale_hop_reaching_a_surviving_row_moves_nothing() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1.0);
        assert!(coordinator.try_dispatch(request(0), 0.0).unwrap());
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
        let (stage, survivor) = stages
            .iter()
            .enumerate()
            .find(|(_, s)| s.node != failed)
            .expect("a pipeline of several stages");
        // The incarnation's decode hop to the survivor is on its link.
        let slot = coordinator.act.requests.slot(0).unwrap();
        let stale = Hop {
            epoch: 0,
            slot,
            tokens: 1,
            stage: stage as u16,
            phase: Phase::Decode,
        };
        let link = (None, Some(survivor.node));
        coordinator.wire.send_hop(0.0, link, 0.0, stale);

        let (act, control) = (&mut coordinator.act, &mut coordinator.control);
        let fail = PerturbationEvent::NodeFailure {
            at: 0.0,
            node: failed,
        };
        let stranded = act.perturb(control, &mut coordinator.wire, &fail, 0.0);
        assert_eq!(
            stranded.iter().map(|f| f.request.id).collect::<Vec<_>>(),
            [0]
        );
        assert!(coordinator.try_dispatch(request(0), 1.0).unwrap());
        assert_eq!(coordinator.control.flight(0).map(|f| f.epoch), Some(1));
        let key = (survivor.node, pipeline.model);
        let state = |coordinator: &Coordinator| {
            let row = row(coordinator, key);
            let kv = row.kv.used_tokens();
            (row.queue_len(), kv, row.totals().batches, row.is_busy())
        };
        let before = state(&coordinator);

        // Everything sent before the failure lands; the new prefill, sent
        // at 1.0, is not due yet.
        coordinator.run_due(|| 0.5);
        assert_eq!(state(&coordinator), before);
        assert!(coordinator.wire.queue.peek_time().unwrap() >= 1.0);
    }

    /// Aim 3's invariant on the runtime: with RF=2 replication, shared
    /// prefixes, a mid-run migration and a node failure, every row's
    /// pool is empty and every node's §5.2 estimate reads zero once the
    /// plane has finished — every release, purge, seed and hand-over
    /// balanced, and every dispatch's estimate freed by a finish or a purge.
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
        let delta = PlacementDelta::new().migrate(ModelId(0), NodeId(0), NodeId(1), moved);
        let fail = PerturbationEvent::NodeFailure {
            at: 0.5,
            node: NodeId(3),
        };
        for event in [PerturbationEvent::Replan { at: 0.0, delta }, fail] {
            control.send(SessionControl::Perturb(event)).unwrap();
        }
        control.send(SessionControl::Finish).unwrap();
        assert_eq!(coordinator.run_live().unwrap().len(), 40);

        let (logs, transfers) = coordinator.logs();
        assert_eq!(transfers.len(), 1, "the migration handed over");
        assert_eq!(logs.failovers.len(), 1);
        assert!(logs.replication.chunks > 0, "replicas were seeded");
        for (key, row) in coordinator.rows() {
            let kv = &row.kv;
            let held = (kv.used_tokens(), kv.shared_pages());
            assert_eq!(held, (0.0, 0), "{key:?} still holds KV");
        }
        // Footprints carry the running average, a fraction: what they leave
        // behind is rounding, far below one token.
        let estimate = coordinator.act.estimated_view(ModelId(0));
        for node in (0..4).map(NodeId) {
            let left = estimate.kv_used_tokens(node);
            assert!(left < 1e-6, "{node:?}'s estimate reads {left}");
        }
    }

    /// A re-plan does not put a failed node's row back in service.  Node 0
    /// alone holds the bottom half, so its removal is infeasible and it stays
    /// in the plan; a later migration re-plans the model over it, and work
    /// that reaches its row still starts no batch.
    #[test]
    fn a_replan_does_not_revive_a_failed_row() {
        let cluster = ClusterBuilder::new("revive-4")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_80, 4, 1, Region(0))
            .build();
        let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
        let layers = profile.model().num_layers;
        let top = LayerRange::new(layers / 2, layers);
        let mut placement = ModelPlacement::empty(4);
        placement.assign(NodeId(0), LayerRange::new(0, layers / 2));
        placement.assign(NodeId(1), top);
        placement.assign(NodeId(2), top);
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let (mut coordinator, _control, _completed) = plane_on(topology, iwrr, 1.0);
        let failed = (NodeId(0), ModelId(0));

        let fail = PerturbationEvent::NodeFailure {
            at: 0.0,
            node: failed.0,
        };
        assert!(!coordinator
            .turn(Some(SessionControl::Perturb(fail)))
            .unwrap());
        let delta = PlacementDelta::new().migrate(ModelId(0), NodeId(1), NodeId(3), top);
        let migrate = PerturbationEvent::Replan { at: 0.0, delta };
        assert!(!coordinator
            .turn(Some(SessionControl::Perturb(migrate)))
            .unwrap());
        let plan = &coordinator.control.fleet().topologies()[0];
        assert!(plan.node(failed.0).is_some(), "the removal was infeasible");
        assert!(plan.node(NodeId(1)).is_none() && plan.node(NodeId(3)).is_some());

        deliver(&mut coordinator, failed, 7);
        let now = coordinator.clock.now();
        coordinator.start_touched(now);
        let row = row(&coordinator, failed);
        assert_eq!((row.totals().batches, row.queue_len()), (0, 1));
        assert!(!row.is_busy());
    }

    /// The runtime's admission view counts a running batch, as the
    /// simulator's does (it is the one row view): a row mid-batch with
    /// nothing queued reads one, so a busy row never ties an idle one under
    /// the shortest-queue baseline.
    #[test]
    fn a_row_mid_batch_with_nothing_queued_has_queue_length_one() {
        use crate::registry::{fleet, plane_of};
        let halves: &[(usize, usize, usize)] = &[(0, 0, 2), (3, 2, 4)];
        let mut plane = plane_of(fleet(&[halves]), ExecutionKind::Analytic);
        let key = first_row(&plane);
        deliver(&mut plane, key, 1);
        assert!(plane.start_touched(0.0), "the row starts its batch");
        let row = row(&plane, key);
        assert_eq!((row.is_busy(), row.queue_len()), (true, 0));
        let view = plane.act.estimated_view(key.1);
        assert_eq!(view.queue_len(key.0), 1);
        assert_eq!(view.queue_len(NodeId(3)), 0, "an idle row reads zero");
    }

    /// A perturbation timed NaN is due in the turn that receives it, as the
    /// simulator clamps its time to the clock's reading; one timed later
    /// waits.
    #[test]
    fn a_perturbation_timed_nan_applies_in_the_turn_that_receives_it() {
        let (mut coordinator, _control, _completed) = plane(iwrr, 1.0);
        for at in [f64::NAN, 1e6] {
            let event = PerturbationEvent::NodeRecovery {
                at,
                node: NodeId(0),
            };
            assert!(!coordinator
                .turn(Some(SessionControl::Perturb(event)))
                .unwrap());
        }
        let waiting: Vec<f64> = coordinator.perturbations.iter().map(|e| e.at()).collect();
        assert_eq!(waiting, [1e6]);
    }

    /// Node 0 at half speed, now.
    fn slowdown() -> PerturbationEvent {
        PerturbationEvent::NodeSlowdown {
            at: 0.0,
            node: NodeId(0),
            factor: 0.5,
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
        control.send(SessionControl::Perturb(slowdown())).unwrap();
        let started = Instant::now();
        let call = coordinator.wait();
        assert!(matches!(call, Some(SessionControl::Perturb(e)) if e == slowdown()));
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    /// A deadline already past ends the wait at once — with the queued call
    /// if there is one, with `None` otherwise — and never blocks on the
    /// channel.
    #[test]
    fn a_deadline_in_the_past_returns_at_once() {
        let (mut coordinator, control, _completed) = plane(iwrr, 1.0);
        let fail = PerturbationEvent::NodeFailure {
            at: 0.0,
            node: NodeId(0),
        };
        coordinator.perturbations.push(fail);
        while coordinator
            .next_wake()
            .is_some_and(|at| at > Instant::now())
        {}
        assert!(coordinator.wait().is_none());
        control.send(SessionControl::Perturb(slowdown())).unwrap();
        let call = coordinator.wait();
        assert!(matches!(call, Some(SessionControl::Perturb(e)) if e == slowdown()));
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
