//! The cluster simulator: the discrete-event surface of the shared
//! [`ControlPlane`].  Its loop and virtual clock, the admission cap and
//! metrics are its own; every action on the control plane's decisions —
//! dispatches, the token and batch steps, releases, observations, scripted
//! [`PerturbationEvent`]s (fail-overs, rejoins, re-plans) and their KV
//! hand-overs — is the shared [`Actuator`]'s, over the shared [`LinkWire`]:
//! its link queues and the simulator's event queue, with coordinator →
//! engine calls free.  Admission reads the actuator's one row view with the
//! engines' KV residency ([`Actuator::resident_view`]); the actuator keeps
//! the §5.2 estimate the runtime admits against here too, unread.

use crate::event::{Event, EventQueue, SimTime};
use crate::metrics::{IntervalMetrics, LatencyStats, LinkStats, Metrics};
use helix_cluster::{ModelId, NodeId};
use helix_core::{
    Actuator, Admission, ControlPlane, FailoverRecord, FleetScheduler, FleetTopology,
    KvTransferRecord, LinkWire, NodeEngine, PerturbationEvent, PrefixStats, ReplanPolicy,
    ReplanRecord, ReplicationPolicy, ReplicationStats, Scheduler, Token, Topology,
};
use helix_workload::{RequestId, Workload};
use std::collections::{HashMap, HashSet, VecDeque};
use std::iter::Peekable;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Warm-up period excluded from measurements (seconds).
    pub warmup_secs: f64,
    /// Measurement window length (seconds).
    pub duration_secs: f64,
    /// Maximum number of requests concurrently admitted into the cluster;
    /// further arrivals wait in the coordinator backlog.  This is how the
    /// offline setting saturates the cluster without infinite queues.
    pub admission_limit: usize,
}

/// Safety cap on the events a simulator processes over its runs.
const MAX_EVENTS: u64 = 200_000_000;

/// The simulator caches whole tokens against the planned `f64` capacity:
/// 1-token pages make the shared page table exactly that accounting (see
/// [`helix_core::engine`]).  Moving to the runtime's 16 changes modelled
/// results and needs `perf/exact.json` re-recorded.
const SIM_TOKENS_PER_PAGE: usize = 1;

impl SimulationConfig {
    /// Offline serving (paper: 1 minute warm-up, 10 minute measurement; here
    /// parameterised): all requests are available immediately and admission
    /// control keeps the cluster saturated.
    pub fn offline(duration_secs: f64) -> Self {
        SimulationConfig {
            warmup_secs: duration_secs * 0.1,
            duration_secs,
            admission_limit: 512,
        }
    }

    /// Online serving: requests arrive over time; admission control is
    /// effectively unlimited.
    pub fn online(duration_secs: f64) -> Self {
        SimulationConfig {
            warmup_secs: duration_secs * 0.05,
            duration_secs,
            admission_limit: usize::MAX,
        }
    }

    /// Overrides the warm-up period.
    pub fn with_warmup(mut self, warmup_secs: f64) -> Self {
        self.warmup_secs = warmup_secs;
        self
    }

    /// Overrides the admission limit.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit;
        self
    }
}

/// A run's workload arrivals in (time, workload position) order, none before
/// the clock's reading.  They are merged with the event queue at pop and
/// never enter it; deferred and re-submitted arrivals do.
type Arrivals = Peekable<std::vec::IntoIter<(SimTime, RequestId)>>;

/// Orders arrivals by time as the queue orders events (`-0.0` and `0.0`
/// are one instant), workload order breaking ties.
fn arrival_stream(mut arrivals: Vec<(SimTime, RequestId)>) -> Arrivals {
    debug_assert!(arrivals.iter().all(|&(at, _)| at.is_finite() && at >= 0.0));
    arrivals.iter_mut().for_each(|(at, _)| *at += 0.0);
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    arrivals.into_iter().peekable()
}

/// Per-model metrics of a fleet simulation, alongside the combined view.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Metrics over all models together (per-model link contention included).
    pub overall: Metrics,
    /// Metrics of each model's own requests, indexed by [`ModelId`].  Link
    /// statistics live only in `overall` — links are shared by the fleet.
    pub per_model: Vec<Metrics>,
}

/// One request finishing in a simulation run — the simulator's analogue of
/// the runtime's per-request outcome, so cross-surface suites can compare
/// *when* things completed (e.g. relative to a KV hand-over window), not
/// just how many did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// The completed request.
    pub id: RequestId,
    /// The model it ran against.
    pub model: ModelId,
    /// Virtual time its final output token reached the coordinator.
    pub at: SimTime,
}

/// What a simulator's clock has measured since it started at zero, as a
/// [`SimSession`](crate::SimSession) reports it: the metrics plus the
/// windowed interval metrics and the re-plan log.  It covers every drain.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// The combined and per-model metrics.
    pub metrics: FleetMetrics,
    /// Windowed per-model decode progress, one entry per observation window.
    pub intervals: Vec<IntervalMetrics>,
    /// Every re-plan applied, in order.
    pub replans: Vec<ReplanRecord>,
    /// Every KV hand-over a partial-layer migration performed, in completion
    /// order.
    pub kv_transfers: Vec<KvTransferRecord>,
    /// Every in-window request completion, in completion order (the count
    /// matches `metrics.overall.completed_requests`).
    pub completions: Vec<CompletionRecord>,
    /// Prefix-sharing counters summed over all models (all zeros when no
    /// request carries a prefix tag).
    pub prefix: PrefixStats,
    /// Every fail-over handled (one record per failure event), with
    /// the promoted/aborted request sets and the recompute-token accounting.
    pub failovers: Vec<FailoverRecord>,
    /// Replica traffic the replication policy trickled to standbys.
    pub replication: ReplicationStats,
}

/// Discrete-event simulator of a Helix-style serving cluster.
///
/// One simulator serves one model (via [`ClusterSimulator::new`]) or a whole
/// multi-model fleet (via [`ClusterSimulator::new_fleet`]): every (node,
/// model) pair gets its own batching engine with the capacity-split profile
/// the fleet planner assigned it, while network links are shared across
/// models, so cross-model link contention emerges naturally.
///
/// Every coordinator *decision* — admission, replication, fail-over, when
/// and how to re-plan — is made by the shared [`ControlPlane`], which owns
/// the standing [`FleetTopology`], and acted on by the shared [`Actuator`]
/// over the simulator's engines, link queues and event queue.  A session
/// with a [`ReplanPolicy`] ([`SimSession::with_policy`]) closes the loop
/// mid-run: engines are observed over windows, the policy decides when the
/// observed throughput gap warrants action, and the plan is re-derived —
/// after which schedulers are swapped **drain-then-switch**: in-flight
/// pipelines keep routing over the engines they were assigned, while new
/// requests follow the re-planned IWRR weights.  A session with no policy
/// and no perturbation schedules no observation tick.
///
/// The simulator has one clock.  It reads zero when the simulator is built,
/// and every drain continues it: requests and perturbations timed before its
/// reading happen at that reading, and each report covers everything the
/// clock has measured since zero.
///
/// A [`SimSession`] is the one way to drive it, through the same
/// submit → drain → finish surface as the threaded runtime's serving
/// session.
///
/// [`SimSession`]: crate::SimSession
/// [`SimSession::with_policy`]: crate::SimSession::with_policy
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct ClusterSimulator {
    /// The shared coordinator state machine (fleet plan, schedulers, prefix
    /// routers, replication, fail-over, re-plan policy).
    control: ControlPlane,
    /// The engines, the request table, slowdowns and KV hand-overs.
    act: Actuator,
    /// The links and the clock's timeline; a coordinator → engine call is
    /// free.
    wire: LinkWire<Event>,
    clock: Clock,
}

/// The simulator's clock and what it has measured, kept across runs so a
/// later run continues where the last one stopped.
struct Clock {
    /// The measured clock: the time of the last event that is not
    /// bookkeeping.
    now: SimTime,
    /// Events processed, against [`MAX_EVENTS`].
    events: u64,
    /// Requests submitted, each taking a 32-bit slot at most.
    requests: usize,
    /// Arrivals waiting for the admission cap.
    backlog: VecDeque<RequestId>,
    /// Whether an observation tick is queued.
    tick_pending: bool,
    /// Per-model measurements inside the window.
    decode_tokens: Vec<u64>,
    completed: Vec<u64>,
    prompt_latencies: Vec<Vec<f64>>,
    decode_gaps: Vec<Vec<f64>>,
    /// Per-model decode tokens, warm-up included, and their counts when the
    /// last interval window closed.
    total_decode_tokens: Vec<u64>,
    interval_base: Vec<u64>,
    intervals: Vec<IntervalMetrics>,
    completions: Vec<CompletionRecord>,
}

impl Clock {
    fn new(num_models: usize) -> Self {
        Clock {
            now: 0.0,
            events: 0,
            requests: 0,
            backlog: VecDeque::new(),
            tick_pending: false,
            decode_tokens: vec![0; num_models],
            completed: vec![0; num_models],
            prompt_latencies: vec![Vec::new(); num_models],
            decode_gaps: vec![Vec::new(); num_models],
            total_decode_tokens: vec![0; num_models],
            interval_base: vec![0; num_models],
            intervals: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Counts a token that reached the coordinator at `now`: toward the
    /// interval windows always, toward the metrics after the warm-up.
    fn count(&mut self, token: &Token, now: SimTime, warmup_secs: f64) {
        let (progress, m) = (&token.progress, token.model.index());
        self.total_decode_tokens[m] += 1;
        if now < warmup_secs {
            return;
        }
        self.decode_tokens[m] += 1;
        if progress.first {
            self.prompt_latencies[m].push(now - token.arrival_time.max(0.0));
        } else if let Some(gap) = progress.gap {
            self.decode_gaps[m].push(gap);
        }
        if progress.finished {
            self.completed[m] += 1;
            self.completions.push(CompletionRecord {
                id: token.request,
                model: token.model,
                at: now,
            });
        }
    }

    /// The next event, or `None` once no arrival is pending and nothing but
    /// the pending observation tick (if one is pending) is queued: a tick
    /// alone does not run the clock.  An arrival due no later than the
    /// queue's head goes first: were the arrivals queued, they would hold
    /// the lowest sequence numbers and win every tie.
    fn pop(&self, queue: &mut EventQueue, arrivals: &mut Arrivals) -> Option<(SimTime, Event)> {
        if arrivals.peek().is_none() && queue.len() == usize::from(self.tick_pending) {
            return None;
        }
        let head = queue.peek_time();
        match arrivals.next_if(|&(at, _)| head.is_none_or(|t| at <= t)) {
            Some((at, request)) => Some((at, Event::RequestArrival { request })),
            None => queue.pop(),
        }
    }
}

impl ClusterSimulator {
    /// Creates a simulator for one (topology, scheduler) pair.  Node
    /// engines, layer counts and KV capacities all come from the shared
    /// planning artifact, so the simulator sees exactly the cluster the
    /// planner evaluated.
    pub fn new(topology: &Topology, scheduler: Box<dyn Scheduler>) -> Self {
        Self::from_parts(FleetTopology::single(topology.clone()), vec![scheduler])
    }

    /// Creates a fleet simulator: one lane per model of the fleet topology,
    /// with the matching per-model schedulers.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler count does not match the fleet's model count.
    pub fn new_fleet(fleet: &FleetTopology, schedulers: FleetScheduler) -> Self {
        Self::from_parts(fleet.clone(), schedulers.into_parts())
    }

    fn from_parts(fleet: FleetTopology, schedulers: Vec<Box<dyn Scheduler>>) -> Self {
        ClusterSimulator {
            clock: Clock::new(fleet.num_models()),
            act: Actuator::new(&fleet, SIM_TOKENS_PER_PAGE, true),
            // Link hardware is shared by every model; the first profile's
            // cluster supplies the (model-independent) numbers.
            wire: LinkWire::new(fleet.profiles()[0].cluster().clone(), false),
            control: ControlPlane::new(fleet, schedulers),
        }
    }

    /// The fleet plan the simulator currently serves (re-plans update it).
    pub fn fleet(&self) -> &FleetTopology {
        self.control.fleet()
    }

    /// Sets the fleet-wide KV replication policy.  Takes effect for requests
    /// admitted afterwards; [`ReplicationPolicy::disabled`] (the default)
    /// reproduces pure abort-and-readmit recovery.
    pub(crate) fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.control.set_replication(policy);
    }

    /// Nodes that failed and have not rejoined.
    pub fn failed_nodes(&self) -> &HashSet<NodeId> {
        self.control.failed()
    }

    /// Number of models the simulator serves.
    pub(crate) fn num_models(&self) -> usize {
        self.fleet().num_models()
    }

    /// Runs the clock on over `workload` and `events`, with (when `policy`
    /// is given) the closed re-planning loop: every `check_interval_secs`
    /// the engines are measured into
    /// [`NodeObservations`](helix_core::NodeObservations), an interval
    /// window closes, and the policy decides whether the observed-vs-planned
    /// gap warrants a [`FleetTopology::replan`].  Node failures always
    /// re-plan immediately (removal delta), aborting and re-admitting the
    /// pipelines they strand.  With no events and no policy no observation
    /// tick is scheduled.
    ///
    /// The run continues the one clock: a request or perturbation timed
    /// before its reading happens at that reading.  It stops at the end of
    /// `config`'s window, or once nothing but the next observation tick is
    /// left to happen.
    ///
    /// Panics, before the first event, if a request targets a model the
    /// fleet does not serve, or cannot ride a hop (see [`SimSession::drain`]).
    ///
    /// [`SimSession::drain`]: crate::SimSession::drain
    pub(crate) fn advance(
        &mut self,
        workload: &Workload,
        config: SimulationConfig,
        events: Vec<PerturbationEvent>,
        policy: Option<ReplanPolicy>,
    ) {
        let num_models = self.num_models();
        let clock = self.clock.now;
        self.control.set_policy(policy);

        let requests = self.clock.requests + workload.len();
        assert!(
            u32::try_from(requests).is_ok(),
            "{requests} requests do not fit a 32-bit slot",
        );
        self.clock.requests = requests;
        // The request table: a slot per distinct id (its first position); a
        // repeated id overwrites its spec and still arrives once per
        // occurrence.
        for r in workload.iter() {
            assert!(
                r.model.index() < num_models,
                "request {} targets {} but the fleet serves {num_models} model(s)",
                r.id,
                r.model,
            );
            let depth = self.fleet().topologies()[r.model.index()].num_layers();
            assert!(
                u32::try_from(r.total_tokens()).is_ok() && u16::try_from(depth).is_ok(),
                "request {} does not fit a hop: {} tokens over up to {depth} stages",
                r.id,
                r.total_tokens(),
            );
            self.act.requests.insert(*r);
        }

        let requests = &self.act.requests;
        let arrivals = workload.iter().filter_map(|r| {
            let spec = requests.spec(requests.slot(r.id)?)?;
            Some((spec.arrival_time.max(clock), r.id))
        });
        let mut arrivals = arrival_stream(arrivals.collect());
        let end_time = config.warmup_secs + config.duration_secs;
        let ticks_enabled = policy.is_some() || !events.is_empty();
        for event in events {
            let at = event.at().max(clock);
            self.wire
                .queue
                .push(at, Event::Perturbation(Box::new(event)));
        }
        // Observation ticks exist only for perturbed / policy-driven runs, so
        // the static serve path schedules exactly the events it always did.
        let tick_interval = policy
            .map(|p| p.check_interval_secs)
            .unwrap_or(10.0)
            .max(1e-3);
        let tick = self.control.last_check().max(clock) + tick_interval;
        if ticks_enabled && !self.clock.tick_pending && tick <= end_time {
            self.wire.queue.push(tick, Event::ObservationTick);
            self.clock.tick_pending = true;
        }

        while let Some((time, event)) = self.clock.pop(&mut self.wire.queue, &mut arrivals) {
            if time > end_time {
                break;
            }
            // Bookkeeping events don't advance the measured clock: the
            // no-perturbation path must report bit-identical metrics.
            if !matches!(
                event,
                Event::ObservationTick | Event::Perturbation(_) | Event::EngineThaw { .. }
            ) {
                self.clock.now = time;
            }
            let now = self.clock.now;
            self.clock.events += 1;
            if self.clock.events > MAX_EVENTS {
                break;
            }
            match event {
                Event::RequestArrival { request } => {
                    if self.control.in_flight_len() >= config.admission_limit {
                        self.clock.backlog.push_back(request);
                        continue;
                    }
                    self.admit_request(request, now);
                }
                Event::NodeArrival(hop) => {
                    // No lane: the request (incarnation) was aborted — e.g.
                    // its pipeline crossed a failed node; drop the stale work.
                    let Some((node, model, item)) = self.act.requests.land(hop) else {
                        continue;
                    };
                    if let Some(engine) = self.act.rows.get_mut(node, model) {
                        engine.enqueue(item);
                        self.act.start(&mut self.wire, node, model, now);
                    }
                }
                Event::BatchComplete { node, model } => {
                    self.act.complete(&mut self.wire, node, model, now);
                    self.act.start(&mut self.wire, node, model, now);
                }
                Event::TokenAtCoordinator { slot, epoch } => {
                    // `None`: a token of an aborted incarnation; ignore.
                    let wire = &mut self.wire;
                    let token = self
                        .act
                        .token(&mut self.control, wire, slot, epoch, now, now);
                    let Some(token) = token else {
                        continue;
                    };
                    self.clock.count(&token, now, config.warmup_secs);
                    if token.progress.finished {
                        if let Some(next) = self.clock.backlog.pop_front() {
                            self.admit_request(next, now);
                        }
                    }
                }
                Event::Perturbation(perturbation) => {
                    // A failure's stranded requests re-submit at `time`:
                    // promoted ones resume on their replicas, the rest
                    // re-admit under a new epoch.
                    let (control, wire) = (&mut self.control, &mut self.wire);
                    for flight in self.act.perturb(control, wire, &perturbation, time) {
                        let request = flight.request.id;
                        self.wire
                            .queue
                            .push(time, Event::RequestArrival { request });
                    }
                }
                Event::EngineThaw { node, model } => {
                    // The KV hand-over finished; work that queued up during
                    // the freeze starts batching again.
                    self.act.start(&mut self.wire, node, model, time);
                }
                Event::ObservationTick => {
                    // Close the interval window, then let the control plane
                    // measure the engines and consult the policy.
                    let clock = &mut self.clock;
                    clock.tick_pending = false;
                    clock.intervals.push(IntervalMetrics {
                        start: self.control.last_check(),
                        end: time,
                        decode_tokens: clock
                            .total_decode_tokens
                            .iter()
                            .zip(&clock.interval_base)
                            .map(|(t, b)| t - b)
                            .collect(),
                    });
                    clock.interval_base.clone_from(&clock.total_decode_tokens);
                    self.act.observe(&mut self.control, &mut self.wire, time);
                    let next = time + tick_interval;
                    if next <= end_time {
                        self.wire.queue.push(next, Event::ObservationTick);
                        self.clock.tick_pending = true;
                    }
                }
            }
        }
    }

    /// What the clock has measured since zero, over the window and warm-up
    /// of `config`.
    pub(crate) fn report(&self, config: SimulationConfig) -> FleetRunReport {
        let (num_models, clock) = (self.num_models(), &self.clock);
        let now = clock.now;
        let end_time = config.warmup_secs + config.duration_secs;
        let measured = (now.min(end_time) - config.warmup_secs).max(1e-9);
        // Overall utilisation merges each node's per-model engines.
        let mut node_busy: HashMap<NodeId, f64> = HashMap::new();
        for (node, _, engine) in self.act.rows.iter() {
            *node_busy.entry(node).or_insert(0.0) += engine.counters().busy_secs;
        }
        let node_utilization: HashMap<NodeId, f64> = node_busy
            .into_iter()
            .map(|(node, busy)| (node, (busy / now.max(1e-9)).min(1.0)))
            .collect();
        let links = self.wire.links().iter();
        let mut link_stats: Vec<LinkStats> = links
            .map(|&((from, to), ref link)| LinkStats {
                from,
                to,
                transfers: link.transfers,
                bytes: link.bytes_transferred,
                mean_queue_delay: link.mean_queue_delay(),
                max_queue_delay: link.max_queue_delay,
            })
            .collect();
        link_stats.sort_by(|a, b| b.mean_queue_delay.total_cmp(&a.mean_queue_delay));

        let per_model: Vec<Metrics> = (0..num_models)
            .map(|m| {
                let utilization: HashMap<NodeId, f64> = self
                    .act
                    .rows
                    .iter()
                    .filter(|(_, model, _)| model.index() == m)
                    .map(|(node, _, engine)| {
                        (node, (engine.counters().busy_secs / now.max(1e-9)).min(1.0))
                    })
                    .collect();
                Metrics {
                    measured_seconds: measured,
                    decode_tokens: clock.decode_tokens[m],
                    completed_requests: clock.completed[m],
                    prompt_latency: LatencyStats::from_samples(&clock.prompt_latencies[m]),
                    decode_latency: LatencyStats::from_samples(&clock.decode_gaps[m]),
                    node_utilization: utilization,
                    // Links are shared across the fleet; see `overall`.
                    link_stats: Vec::new(),
                }
            })
            .collect();
        // A one-model fleet's samples are that model's: summarised (sorted)
        // once, above.
        let (prompt_latency, decode_latency) = match per_model.as_slice() {
            [only] => (only.prompt_latency, only.decode_latency),
            _ => (
                LatencyStats::from_samples(&clock.prompt_latencies.concat()),
                LatencyStats::from_samples(&clock.decode_gaps.concat()),
            ),
        };
        let overall = Metrics {
            measured_seconds: measured,
            decode_tokens: clock.decode_tokens.iter().sum(),
            completed_requests: clock.completed.iter().sum(),
            prompt_latency,
            decode_latency,
            node_utilization,
            link_stats,
        };
        let logs = self.control.logs();
        FleetRunReport {
            metrics: FleetMetrics { overall, per_model },
            intervals: clock.intervals.clone(),
            replans: logs.replans,
            kv_transfers: self.act.kv_transfers().to_vec(),
            completions: clock.completions.clone(),
            prefix: logs.prefix,
            failovers: logs.failovers,
            replication: logs.replication,
        }
    }

    /// The standing engine of one (node, model) pair, if any — exposed so
    /// tests can compare surviving engines against freshly created ones.
    pub fn engine(&self, node: NodeId, model: ModelId) -> Option<&NodeEngine> {
        self.act.rows.get(node, model)
    }

    /// Asks the control plane to admit `request` against its model's
    /// engines — their KV residency, not the §5.2 estimate — and puts the
    /// dispatch on the wire: shared-prefix residency is attached
    /// (refcounted) on every pipeline node, and the actuator charges the
    /// estimate, seeds a promoted request's replicated tokens there and
    /// sends the prefill to the first stage.  A deferred request retries
    /// shortly.
    fn admit_request(&mut self, request: RequestId, now: SimTime) {
        let requests = &self.act.requests;
        let Some((slot, spec)) = requests
            .slot(request)
            .and_then(|s| Some((s, requests.spec(s)?)))
        else {
            return;
        };
        let model = spec.model;
        // The engines' residency, not the estimate: reading the estimate here
        // moves modelled results (ROADMAP item 1(b)).
        let view = self.act.resident_view(model);
        let Ok(Admission::Dispatch(dispatch)) = self.control.admit(spec, &view) else {
            let retry = Event::RequestArrival { request };
            self.wire.queue.push(now + 0.2, retry);
            return;
        };
        for stage in &dispatch.pipeline.stages {
            let engine = self.act.rows.get_mut(stage.node, model);
            if let (Some(engine), Some(p)) = (engine, dispatch.prefix) {
                engine.kv.hold_prefix(request, p.id, p.tokens);
            }
        }
        self.act.dispatch(&mut self.wire, slot, &dispatch, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSession;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, IwrrScheduler, RandomScheduler, ReplanReason, SwarmScheduler};
    use helix_workload::ArrivalPattern;

    fn small_profile() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
    }

    fn petals_topology(profile: &ClusterProfile) -> Topology {
        let placement = heuristics::petals_placement(profile).unwrap();
        Topology::plan(profile, &placement, true).unwrap()
    }

    /// Serves `workload` on a fresh one-model simulator.
    fn serve(
        topology: &Topology,
        scheduler: Box<dyn Scheduler>,
        workload: &Workload,
        config: SimulationConfig,
    ) -> FleetRunReport {
        SimSession::new(ClusterSimulator::new(topology, scheduler), config).serve(workload)
    }

    /// Serves `workload` on a fresh one-model simulator under IWRR.
    fn serve_iwrr(
        topology: &Topology,
        workload: &Workload,
        config: SimulationConfig,
    ) -> FleetRunReport {
        let scheduler = IwrrScheduler::from_topology(topology).unwrap();
        serve(topology, Box::new(scheduler), workload, config)
    }

    fn small_workload(n: usize) -> Workload {
        // Short requests keep the unit tests quick.
        let config = helix_workload::AzureTraceConfig {
            mean_input_tokens: 128.0,
            mean_output_tokens: 32.0,
            max_input_tokens: 512,
            max_output_tokens: 64,
        };
        config
            .generate(n, 3)
            .with_arrivals(ArrivalPattern::Offline, 4)
    }

    #[test]
    fn simulation_completes_requests_and_reports_metrics() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let config = SimulationConfig::offline(120.0).with_warmup(0.0);
        let metrics = serve_iwrr(&topology, &small_workload(40), config)
            .metrics
            .overall;
        assert!(metrics.decode_throughput() > 0.0);
        assert!(metrics.completed_requests > 0);
        assert!(metrics.avg_prompt_latency() > 0.0);
        assert!(metrics.avg_decode_latency() > 0.0);
        // Utilisation values are sane.
        for u in metrics.node_utilization.values() {
            assert!(*u >= 0.0 && *u <= 1.0);
        }
        assert!(!metrics.link_stats.is_empty());
    }

    #[test]
    fn online_arrivals_produce_lower_latency_than_saturation() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload_sat = small_workload(60);
        let workload_light =
            small_workload(60).with_arrivals(ArrivalPattern::constant_rate(0.5), 5);
        let run = |w: &Workload| {
            let config = SimulationConfig::online(200.0).with_warmup(0.0);
            serve_iwrr(&topology, w, config).metrics.overall
        };
        let saturated = run(&workload_sat);
        let light = run(&workload_light);
        assert!(
            light.avg_prompt_latency() <= saturated.avg_prompt_latency() * 1.5,
            "light {} vs saturated {}",
            light.avg_prompt_latency(),
            saturated.avg_prompt_latency()
        );
    }

    #[test]
    fn admission_limit_throttles_concurrency() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let config = SimulationConfig::offline(120.0)
            .with_warmup(0.0)
            .with_admission_limit(2);
        let metrics = serve_iwrr(&topology, &small_workload(30), config);
        assert!(metrics.metrics.overall.completed_requests > 0);
    }

    #[test]
    fn different_schedulers_run_on_the_same_placement() {
        let profile = small_profile();
        let placement = heuristics::swarm_placement(&profile).unwrap();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let workload = small_workload(25);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(IwrrScheduler::from_topology(&topology).unwrap()),
            Box::new(SwarmScheduler::new(&topology)),
            Box::new(RandomScheduler::new(&topology, 11)),
        ];
        let config = SimulationConfig::offline(90.0).with_warmup(0.0);
        for scheduler in schedulers {
            let report = serve(&topology, scheduler, &workload, config);
            assert!(report.metrics.overall.decode_tokens > 0);
        }
    }

    #[test]
    fn fleet_simulation_reports_per_model_metrics() {
        use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner};
        use helix_core::{FleetScheduler, FleetTopology};
        let profiles = fleet_profiles(
            &ClusterSpec::single_cluster_24(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(FleetAnnealingOptions {
            iterations: 300,
            ..Default::default()
        });
        let (placement, _) = planner.solve().unwrap();
        let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
        let schedulers = FleetScheduler::iwrr(&fleet).unwrap();
        let config = helix_workload::AzureTraceConfig {
            mean_input_tokens: 128.0,
            mean_output_tokens: 32.0,
            max_input_tokens: 512,
            max_output_tokens: 64,
        };
        let workload = Workload::merge(vec![
            config.generate(25, 3).with_model(helix_cluster::ModelId(0)),
            config.generate(25, 4).with_model(helix_cluster::ModelId(1)),
        ])
        .with_arrivals(ArrivalPattern::Offline, 4);
        let sim = ClusterSimulator::new_fleet(&fleet, schedulers);
        assert_eq!(sim.num_models(), 2);
        let config = SimulationConfig::offline(150.0).with_warmup(0.0);
        let metrics = SimSession::new(sim, config).serve(&workload).metrics;
        assert_eq!(metrics.per_model.len(), 2);
        for m in &metrics.per_model {
            assert!(m.decode_tokens > 0, "every model makes progress");
        }
        assert_eq!(
            metrics.overall.decode_tokens,
            metrics
                .per_model
                .iter()
                .map(|m| m.decode_tokens)
                .sum::<u64>()
        );
        assert_eq!(
            metrics.overall.completed_requests,
            metrics
                .per_model
                .iter()
                .map(|m| m.completed_requests)
                .sum::<u64>()
        );
        // Two models: the overall summaries are over both models' samples.
        let prompts = |m: &Metrics| m.prompt_latency.count;
        let gaps = |m: &Metrics| m.decode_latency.count;
        let (overall, per_model) = (&metrics.overall, &metrics.per_model);
        assert!(per_model.iter().all(|m| prompts(m) > 0 && gaps(m) > 0));
        assert_eq!(
            prompts(overall),
            per_model.iter().map(prompts).sum::<usize>()
        );
        assert_eq!(gaps(overall), per_model.iter().map(gaps).sum::<usize>());
        // The two models run on disjoint node partitions.
        let nodes0: Vec<_> = metrics.per_model[0].node_utilization.keys().collect();
        assert!(nodes0
            .iter()
            .all(|n| !metrics.per_model[1].node_utilization.contains_key(n)));
    }

    /// One model: its samples are the fleet's, summarised once.
    #[test]
    fn a_one_model_run_reports_its_models_latency_summaries_as_the_overall_ones() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let config = SimulationConfig::offline(120.0).with_warmup(0.0);
        let metrics = serve_iwrr(&topology, &small_workload(40), config).metrics;
        let [only] = metrics.per_model.as_slice() else {
            panic!("one model, one entry");
        };
        assert!(only.prompt_latency.count > 0 && only.decode_latency.count > 0);
        assert_eq!(metrics.overall.prompt_latency, only.prompt_latency);
        assert_eq!(metrics.overall.decode_latency, only.decode_latency);
    }

    #[test]
    fn single_model_run_matches_fleet_of_one() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(30);
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let single = serve_iwrr(&topology, &workload, config).metrics.overall;
        let fleet_of_one = {
            let fleet = helix_core::FleetTopology::single(topology.clone());
            let schedulers = helix_core::FleetScheduler::iwrr(&fleet).unwrap();
            let sim = ClusterSimulator::new_fleet(&fleet, schedulers);
            SimSession::new(sim, config).serve(&workload).metrics
        };
        assert_eq!(single, fleet_of_one.overall);
        // Per-model metrics carry no link stats (links are fleet-shared);
        // everything else matches the single-model run exactly.
        let mut per_model = fleet_of_one.per_model[0].clone();
        per_model.link_stats = single.link_stats.clone();
        assert_eq!(single, per_model);
    }

    #[test]
    fn warmup_window_excludes_early_tokens() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(40);
        let run = |warmup: f64| {
            let config = SimulationConfig::offline(60.0)
                .with_warmup(warmup)
                .with_admission_limit(64);
            serve_iwrr(&topology, &workload, config).metrics.overall
        };
        let with_warmup = run(30.0);
        let without = run(0.0);
        assert!(with_warmup.decode_tokens <= without.decode_tokens);
    }

    /// With no perturbation and no policy no observation tick is scheduled:
    /// no interval window closes and nothing re-plans.
    #[test]
    fn an_unperturbed_policy_free_session_reports_no_windows_and_no_replans() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let report = serve_iwrr(&topology, &small_workload(30), config);
        assert!(report.metrics.overall.completed_requests > 0);
        assert!(report.replans.is_empty());
        assert!(report.intervals.is_empty());
    }

    #[test]
    fn slowdown_without_policy_degrades_throughput_and_reports_intervals() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(60);
        let config = SimulationConfig::offline(200.0).with_warmup(0.0);
        // Slow down the busiest node hard at t=0.
        let slow = topology
            .nodes()
            .max_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
            .unwrap()
            .node;
        let events = [PerturbationEvent::NodeSlowdown {
            at: 0.0,
            node: slow,
            factor: 4.0,
        }];
        let run = |events: &[PerturbationEvent]| {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            let mut session = SimSession::new(sim, config);
            events.iter().cloned().for_each(|e| session.schedule(e));
            session.serve(&workload)
        };
        let healthy = run(&[]);
        let degraded = run(&events);
        assert!(
            degraded.metrics.overall.decode_throughput()
                < healthy.metrics.overall.decode_throughput()
        );
        // Perturbed runs emit interval metrics even without a policy.
        assert!(!degraded.intervals.is_empty());
        assert!(degraded.replans.is_empty(), "no policy, no re-plan");
        for w in &degraded.intervals {
            assert!(w.end > w.start);
            assert_eq!(w.decode_tokens.len(), 1);
        }
    }

    #[test]
    fn node_failure_triggers_immediate_replan_and_requests_still_complete() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(40);
        let config = SimulationConfig::offline(240.0).with_warmup(0.0);
        // Fail a node that holds layers but is not the only holder of any
        // layer (petals over 10 nodes replicates ranges).
        let candidates: Vec<NodeId> = topology.nodes().map(|n| n.node).collect();
        let placement = topology.placement().clone();
        let num_layers = topology.num_layers();
        let failed = candidates
            .iter()
            .copied()
            .find(|&node| {
                let mut without = placement.clone();
                without.clear(node);
                without.has_complete_pipeline(num_layers)
            })
            .expect("some node is redundant");
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let mut session = SimSession::new(sim, config);
        session.fail_node(failed, 30.0);
        for request in workload.requests() {
            session.submit(*request);
        }
        session.drain();
        let (report, sim) = (session.report(), session.simulator());
        assert_eq!(report.replans.len(), 1);
        assert!(matches!(
            report.replans[0].reason,
            ReplanReason::NodeFailure { node } if node == failed
        ));
        // The failed node left the plan …
        assert!(sim
            .fleet()
            .model(ModelId(0))
            .unwrap()
            .node(failed)
            .is_none());
        // … and the run still completes requests afterwards.
        assert!(report.metrics.overall.completed_requests > 0);
        // Requests that finished before the failure keep exactly one counted
        // completion, and aborted incarnations are never double-counted.
        assert!(report.metrics.overall.completed_requests <= 40);
    }

    /// Aim 3's estimate invariant on the simulator: with shared prefixes,
    /// RF=2 replication and a node failure that strands requests, every
    /// node's §5.2 estimate — kept by the actuator, unread here — reads zero
    /// once every request completed, as every engine's KV does.
    #[test]
    fn the_estimate_and_the_kv_drain_to_zero_after_prefixes_replication_and_a_failure() {
        use helix_core::ClusterState;
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let failed = topology.nodes().map(|n| n.node).find(|&node| {
            let mut without = topology.placement().clone();
            without.clear(node);
            without.has_complete_pipeline(topology.num_layers())
        });
        let workload = small_workload(40).with_shared_prefixes(4, 64, 1.0);
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let config = SimulationConfig::offline(600.0).with_warmup(0.0);
        let mut session = SimSession::new(sim, config);
        session.set_replication(ReplicationPolicy::rf2(0, 1));
        session.fail_node(failed.expect("some node is redundant"), 5.0);
        for request in workload.iter() {
            session.submit(*request);
        }
        session.drain();
        let report = session.report();
        assert_eq!(report.metrics.overall.completed_requests, 40);
        assert!(report.prefix.prefix_hits > 0);
        let stranded = &report.failovers[0];
        assert!(stranded.promoted.len() + stranded.aborted.len() > 0);
        let sim = session.simulator();
        let estimate = sim.act.estimated_view(ModelId(0));
        for node in profile.cluster().node_ids() {
            let kv = sim
                .engine(node, ModelId(0))
                .map_or(0.0, |e| e.kv.used_tokens());
            assert_eq!(kv, 0.0, "{node:?} holds KV");
            // Footprints carry the running average, a fraction: what they
            // leave behind is rounding, far below one token.
            let left = estimate.kv_used_tokens(node);
            assert!(left < 1e-6, "{node:?}'s estimate reads {left}");
        }
    }

    /// The parent's behaviour, kept as the oracle: every arrival pushed into
    /// the one event queue first, in workload order.
    #[test]
    fn arrival_cursor_and_heap_pop_in_single_queue_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Few distinct instants (`-0.0` among them), so arrivals collide with
        // each other and with tick / perturbation / hop times.
        const TIMES: [f64; 5] = [0.0, -0.0, 0.2, 0.4, 1.0];
        let other = |k: u64| match k % 3 {
            0 => Event::ObservationTick,
            1 => Event::Perturbation(Box::new(PerturbationEvent::NodeRecovery {
                at: 0.0,
                node: NodeId(k as usize),
            })),
            _ => Event::BatchComplete {
                node: NodeId(k as usize),
                model: ModelId(0),
            },
        };
        for seed in 1..=32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pick = |n: u64| rng.gen_range(0..n);
            let arrivals: Vec<(SimTime, RequestId)> = (0..40)
                .map(|request| (TIMES[pick(5) as usize] * (1 + pick(3)) as f64, request))
                .collect();
            let mut oracle = EventQueue::new();
            for &(at, request) in &arrivals {
                oracle.push(at, Event::RequestArrival { request });
            }
            let (clock, mut queue) = (Clock::new(1), EventQueue::new());
            let mut arrivals = arrival_stream(arrivals);
            for k in 0..30 {
                let at = TIMES[pick(5) as usize] * (1 + pick(3)) as f64;
                oracle.push(at, other(k));
                queue.push(at, other(k));
            }
            let mut k = 30;
            while let Some((time, event)) = oracle.pop() {
                let merged = clock.pop(&mut queue, &mut arrivals);
                let (at, merged) = merged.expect("as many events as the oracle");
                assert_eq!((time, &event), (at, &merged), "seed {seed}");
                // Handling an event schedules more: hops and deferred
                // (`now + 0.2`) or re-submitted (`now`) arrivals.
                if k < 120 && pick(2) == 0 {
                    k += 1;
                    let later = time + TIMES[pick(5) as usize];
                    let next = match pick(3) {
                        0 => Event::RequestArrival { request: k },
                        _ => other(k),
                    };
                    oracle.push(later, next.clone());
                    queue.push(later, next);
                }
            }
            assert!(clock.pop(&mut queue, &mut arrivals).is_none());
        }
    }
}
