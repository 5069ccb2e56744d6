//! The cluster simulator: the discrete-event actuator of the shared
//! [`ControlPlane`].  It owns engines, link queues and the event queue, fills
//! the scheduler's `ClusterState` view from its engines, and applies what the
//! control plane decides — dispatches, replica chunks, stranded pipelines,
//! re-plans with their KV hand-overs — plus metrics collection and the
//! scripted perturbation events.

use crate::engine::NodeEngine;
use crate::event::{Event, EventQueue, Hop, PerturbationEvent, Phase, SimTime, WorkItem};
use crate::metrics::{IntervalMetrics, LatencyStats, LinkStats, Metrics};
use helix_cluster::{ModelId, NodeId, Region, TOKEN_WIRE_BYTES};
use helix_core::{
    Admission, ClusterState, ControlPlane, FailoverRecord, FleetScheduler, FleetTopology, InFlight,
    KvMigration, KvTransferRecord, LinkTable, ModelPlacement, PairTable, PlacementDelta,
    PrefixStats, PrefixWork, ReplanOutcome, ReplanPolicy, ReplanReason, ReplanRecord,
    ReplicationPolicy, ReplicationStats, RequestPipeline, Scheduler, Topology,
};
use helix_workload::{Request, RequestId, Workload};
use std::collections::{HashMap, HashSet, VecDeque};
use std::iter::Peekable;
use std::sync::Arc;

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

/// Safety cap on the events one run processes.
const MAX_EVENTS: u64 = 200_000_000;

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

/// One model's engines as the scheduler sees them: queue/throughput/KV
/// state of that model's engines only, so per-model KV masking sees its own
/// partition.
struct EngineView<'a>(&'a [Option<NodeEngine>]);

impl EngineView<'_> {
    fn engine(&self, node: NodeId) -> Option<&NodeEngine> {
        self.0.get(node.index())?.as_ref()
    }
}

impl ClusterState for EngineView<'_> {
    fn queue_len(&self, node: NodeId) -> usize {
        self.engine(node)
            .map_or(0, |e| e.queue_len() + usize::from(e.is_busy()))
    }
    fn recent_throughput(&self, node: NodeId) -> f64 {
        self.engine(node).map_or(0.0, |e| e.recent_throughput())
    }
    fn kv_used_tokens(&self, node: NodeId) -> f64 {
        self.engine(node).map_or(0.0, NodeEngine::kv_used_tokens)
    }
    fn kv_capacity_tokens(&self, node: NodeId) -> f64 {
        self.engine(node)
            .map_or(f64::INFINITY, NodeEngine::kv_capacity_tokens)
    }
}

/// What the hops and tokens of one admitted incarnation resolve against.
struct Lane {
    epoch: u64,
    pipeline: Arc<RequestPipeline>,
    prefix: Option<PrefixWork>,
}

/// One run's timeline and request table.
struct Run {
    queue: EventQueue,
    /// The workload's arrivals in (time, workload position) order.  They are
    /// merged with the queue at pop and never enter it; deferred and
    /// re-submitted arrivals do.
    arrivals: Peekable<std::vec::IntoIter<(SimTime, RequestId)>>,
    /// The requests by slot.
    specs: Vec<Request>,
    /// Id → slot: consulted per arrival and admission, never per hop.
    slots: HashMap<RequestId, u32>,
    /// The live incarnation per slot: set at dispatch, cleared exactly where
    /// the control plane drops the flight.  Slots are never reused within a
    /// run, so stale work meets `None` or a newer epoch.
    lanes: Vec<Option<Lane>>,
}

/// Orders arrivals by time as the queue orders events (`-0.0` and `0.0`
/// are one instant), workload order breaking ties.
fn arrival_stream(
    mut arrivals: Vec<(SimTime, RequestId)>,
) -> Peekable<std::vec::IntoIter<(SimTime, RequestId)>> {
    debug_assert!(arrivals.iter().all(|&(at, _)| at.is_finite() && at >= 0.0));
    arrivals.iter_mut().for_each(|(at, _)| *at += 0.0);
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    arrivals.into_iter().peekable()
}

impl Run {
    /// The next event.  An arrival due no later than the queue's head goes
    /// first: were the arrivals queued, they would hold the lowest sequence
    /// numbers and win every tie.
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let head = self.queue.peek_time();
        match self
            .arrivals
            .next_if(|&(at, _)| head.is_none_or(|t| at <= t))
        {
            Some((at, request)) => Some((at, Event::RequestArrival { request })),
            None => self.queue.pop(),
        }
    }

    /// The request and lane work of (`slot`, `epoch`) belongs to, unless it
    /// is stale.
    fn lane(&self, slot: u32, epoch: u64) -> Option<(&Request, &Lane)> {
        let lane = self.lanes.get(slot as usize)?.as_ref()?;
        (lane.epoch == epoch).then_some((self.specs.get(slot as usize)?, lane))
    }
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

/// The full result of a [`ClusterSimulator::run_with_events`] run: end-of-run
/// metrics plus the windowed interval metrics and the re-plan log.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// End-of-run metrics (identical shape to [`ClusterSimulator::run_per_model`]).
    pub metrics: FleetMetrics,
    /// Windowed per-model decode progress, one entry per observation window.
    pub intervals: Vec<IntervalMetrics>,
    /// Every re-plan the run applied, in order.
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
    /// Every fail-over the run handled (one record per failure event), with
    /// the promoted/aborted request sets and the recompute-token accounting.
    pub failovers: Vec<FailoverRecord>,
    /// Replica traffic the run's replication policy trickled to standbys.
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
/// the standing [`FleetTopology`]; the simulator actuates those decisions
/// against its engines, link queues and event queue.
/// [`ClusterSimulator::run_with_events`] closes the loop mid-run: engines
/// are observed over windows, a [`ReplanPolicy`] decides when the observed
/// throughput gap warrants action, and the plan is re-derived — after which
/// schedulers are swapped **drain-then-switch**: in-flight pipelines keep
/// routing over the engines they were assigned, while new requests follow
/// the re-planned IWRR weights.  The plain [`ClusterSimulator::run`] /
/// [`ClusterSimulator::run_per_model`] paths schedule no observation ticks
/// and are bit-identical to the static pipeline.
///
/// To drive the simulator through the same submit → drain → finish surface
/// as the threaded runtime's serving session, wrap it in a
/// [`SimSession`](crate::SimSession).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct ClusterSimulator {
    /// The shared coordinator state machine (fleet plan, schedulers, prefix
    /// routers, replication, fail-over, re-plan policy).
    control: ControlPlane,
    engines: PairTable<NodeEngine>,
    links: LinkTable,
    /// Active slowdown perturbations by node (applied to engines created by
    /// later re-plans too).
    slowdowns: HashMap<NodeId, f64>,
    /// KV hand-overs of the current run, drained into its report.
    kv_transfers: Vec<KvTransferRecord>,
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
        let num_nodes = fleet
            .profiles()
            .first()
            .map_or(0, |p| p.cluster().num_nodes());
        let mut engines = PairTable::new(num_nodes, fleet.num_models());
        for (m, topology) in fleet.topologies().iter().enumerate() {
            // Engines run at the analytic contention split (identical to the
            // planning profile when the fleet was planned without
            // observations); measured speed factors never slow an engine —
            // they re-price planning against a degradation the engine's own
            // slowdown state delivers.
            let profile = fleet.contention_profile(ModelId(m));
            for n in topology.nodes() {
                let engine = NodeEngine::new(
                    profile.node_profile(n.node),
                    n.layers.len(),
                    n.kv_capacity_tokens,
                );
                engines.insert(n.node, ModelId(m), engine);
            }
        }
        ClusterSimulator {
            control: ControlPlane::new(fleet, schedulers),
            engines,
            links: LinkTable::new(num_nodes),
            slowdowns: HashMap::new(),
            kv_transfers: Vec::new(),
        }
    }

    /// The fleet plan the simulator currently serves (re-plans update it).
    pub fn fleet(&self) -> &FleetTopology {
        self.control.fleet()
    }

    /// Sets the fleet-wide KV replication policy.  Takes effect for requests
    /// admitted afterwards; [`ReplicationPolicy::disabled`] (the default)
    /// reproduces pure abort-and-readmit recovery.
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.control.set_replication(policy);
    }

    /// The current replication policy.
    pub fn replication(&self) -> ReplicationPolicy {
        self.control.replication()
    }

    /// Nodes that failed and have not rejoined.
    pub fn failed_nodes(&self) -> &HashSet<NodeId> {
        self.control.failed()
    }

    /// The topology the simulator runs for one model.
    pub fn model_topology(&self, model: ModelId) -> Option<&Topology> {
        self.fleet().model(model)
    }

    /// Number of models the simulator serves.
    pub fn num_models(&self) -> usize {
        self.fleet().num_models()
    }

    /// The topology the simulator is running (the first model's lane).
    pub fn topology(&self) -> &Topology {
        &self.fleet().topologies()[0]
    }

    /// The placement the simulator is running (the first model's lane).
    pub fn placement(&self) -> &ModelPlacement {
        self.topology().placement()
    }

    /// Runs the simulation of `workload` and returns the combined metrics.
    pub fn run(&mut self, workload: &Workload, config: SimulationConfig) -> Metrics {
        self.run_per_model(workload, config).overall
    }

    /// Runs the simulation and reports both combined and per-model metrics.
    ///
    /// # Panics
    ///
    /// Panics if a request targets a model the fleet does not serve — the
    /// same workload fails loudly on the runtime surface too
    /// (`HelixError::UnknownModel`), so the two surfaces stay comparable.
    pub fn run_per_model(&mut self, workload: &Workload, config: SimulationConfig) -> FleetMetrics {
        self.run_with_events(workload, config, &[], None).metrics
    }

    /// Runs the simulation with scripted mid-run perturbations and (when a
    /// policy is given) the closed re-planning loop: every
    /// `check_interval_secs` the engines are measured into
    /// [`NodeObservations`](helix_core::NodeObservations), interval metrics
    /// are emitted, and the policy decides whether the observed-vs-planned
    /// gap warrants a [`FleetTopology::replan`].  Node failures always
    /// re-plan immediately (removal delta), aborting and re-admitting the
    /// pipelines they strand.
    ///
    /// With no events and no policy this is exactly
    /// [`ClusterSimulator::run_per_model`] (no observation ticks are
    /// scheduled, so event timing is bit-identical).
    ///
    /// # Panics
    ///
    /// Panics, before the first event, if a request targets a model the
    /// fleet does not serve (see [`ClusterSimulator::run_per_model`]), or
    /// cannot ride a hop: more than `u32::MAX` prompt + output tokens, a
    /// model of more than `u16::MAX` layers (a pipeline has at most one stage
    /// per layer), or a workload of 2³² requests or more.
    pub fn run_with_events(
        &mut self,
        workload: &Workload,
        config: SimulationConfig,
        events: &[PerturbationEvent],
        policy: Option<ReplanPolicy>,
    ) -> FleetRunReport {
        let num_models = self.num_models();
        // Each run's timeline restarts at zero; links and engines keep their
        // cumulative counters but must not stay "busy" (or frozen) into the
        // new epoch, and the policy clock restarts with them.
        self.links.rebase_epoch();
        for engine in self.engines.values_mut() {
            engine.rebase_epoch();
        }
        self.control.start_timeline(policy);

        // The request table: a slot per distinct id (its first position); a
        // repeated id overwrites its spec and still arrives once per
        // occurrence.
        let mut specs: Vec<Request> = Vec::with_capacity(workload.len());
        let mut slots: HashMap<RequestId, u32> = HashMap::with_capacity(workload.len());
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
            let next = u32::try_from(specs.len()).expect("fewer than 2^32 requests");
            match *slots.entry(r.id).or_insert(next) {
                slot if slot == next => specs.push(*r),
                slot => specs[slot as usize] = *r,
            }
        }

        // Arrival-rate shifts re-time the arrival process: gaps after the
        // shift point shrink by the rate factor.  Shifts are applied in
        // effect-time order, each in the already-shifted timeline.
        let mut shifts: Vec<(SimTime, f64)> = events
            .iter()
            .filter_map(|e| match *e {
                PerturbationEvent::ArrivalRateShift { at, factor } => Some((at, factor)),
                _ => None,
            })
            .collect();
        shifts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for spec in &mut specs {
            for &(at, factor) in &shifts {
                if spec.arrival_time > at && factor > 0.0 {
                    spec.arrival_time = at + (spec.arrival_time - at) / factor;
                }
            }
        }

        let arrivals = workload.iter().filter_map(|r| {
            let spec = specs.get(*slots.get(&r.id)? as usize)?;
            Some((spec.arrival_time, r.id))
        });
        let mut run = Run {
            queue: EventQueue::new(),
            arrivals: arrival_stream(arrivals.collect()),
            lanes: specs.iter().map(|_| None).collect(),
            specs,
            slots,
        };
        let end_time = config.warmup_secs + config.duration_secs;
        for e in events {
            match e {
                PerturbationEvent::ArrivalRateShift { .. } => {} // applied above
                other => run
                    .queue
                    .push(other.at(), Event::Perturbation(Box::new(*other))),
            }
        }
        // Observation ticks exist only for perturbed / policy-driven runs, so
        // the static serve path schedules exactly the events it always did.
        let ticks_enabled = policy.is_some() || !events.is_empty();
        let tick_interval = policy
            .map(|p| p.check_interval_secs)
            .unwrap_or(10.0)
            .max(1e-3);
        if ticks_enabled && tick_interval <= end_time {
            run.queue.push(tick_interval, Event::ObservationTick);
        }

        let mut backlog: VecDeque<RequestId> = VecDeque::new();
        // The finished batch being routed; its buffer returns to the engine
        // at the next completion.
        let mut done: Vec<WorkItem> = Vec::new();

        // Per-model measurement accumulators.
        let mut decode_tokens: Vec<u64> = vec![0; num_models];
        let mut completed: Vec<u64> = vec![0; num_models];
        let mut prompt_latencies: Vec<Vec<f64>> = vec![Vec::new(); num_models];
        let mut decode_gaps: Vec<Vec<f64>> = vec![Vec::new(); num_models];
        // Warmup-independent totals backing the windowed interval metrics.
        let mut total_decode_tokens: Vec<u64> = vec![0; num_models];
        let mut processed_events: u64 = 0;
        let mut now: SimTime = 0.0;

        let mut intervals: Vec<IntervalMetrics> = Vec::new();
        let mut completions: Vec<CompletionRecord> = Vec::new();
        let mut interval_base: Vec<u64> = vec![0; num_models];

        while let Some((time, event)) = run.pop() {
            if time > end_time {
                break;
            }
            // Bookkeeping events don't advance the measured clock: the
            // no-perturbation path must report bit-identical metrics.
            if !matches!(
                event,
                Event::ObservationTick | Event::Perturbation(_) | Event::EngineThaw { .. }
            ) {
                now = time;
            }
            processed_events += 1;
            if processed_events > MAX_EVENTS {
                break;
            }
            match event {
                Event::RequestArrival { request } => {
                    if self.control.in_flight_len() >= config.admission_limit {
                        backlog.push_back(request);
                        continue;
                    }
                    self.admit_request(request, &mut run, now);
                }
                Event::NodeArrival(hop) => {
                    // No lane: the request (incarnation) was aborted — e.g.
                    // its pipeline crossed a failed node; drop the stale work.
                    let Some((spec, lane)) = run.lane(hop.slot, hop.epoch) else {
                        continue;
                    };
                    let Some(&stage) = lane.pipeline.stages.get(usize::from(hop.stage)) else {
                        continue;
                    };
                    let (node, model) = (stage.node, lane.pipeline.model);
                    if let Some(engine) = self.engines.get_mut(node, model) {
                        engine.enqueue(WorkItem {
                            request: spec.id,
                            hop,
                            layers: stage.layers,
                            prefix: lane.prefix.filter(|_| hop.phase == Phase::Prompt),
                        });
                        if let Some(done) = engine.try_start_batch(now) {
                            run.queue.push(done, Event::BatchComplete { node, model });
                        }
                    }
                }
                Event::BatchComplete { node, model } => {
                    let Some(engine) = self.engines.get_mut(node, model) else {
                        continue;
                    };
                    engine.complete_batch(&mut done);
                    for &item in &done {
                        self.route_onward(node, item, &mut run, now);
                    }
                    if let Some(engine) = self.engines.get_mut(node, model) {
                        if let Some(done) = engine.try_start_batch(now) {
                            run.queue.push(done, Event::BatchComplete { node, model });
                        }
                    }
                }
                Event::TokenAtCoordinator { slot, epoch } => {
                    // No lane: a token of an aborted incarnation; ignore.
                    let Some((spec, lane)) = run.lane(slot, epoch) else {
                        continue;
                    };
                    let Some(&first) = lane.pipeline.stages.first() else {
                        continue;
                    };
                    let (request, model) = (spec.id, lane.pipeline.model);
                    let arrival_time = spec.arrival_time.max(0.0);
                    let Some(progress) = self.control.on_token(request, epoch, now) else {
                        continue;
                    };
                    debug_assert!(self.control.flight(request).is_some_and(|flight| {
                        flight.epoch == epoch && Arc::ptr_eq(&flight.pipeline, &lane.pipeline)
                    }));
                    let m = model.index();
                    let in_window = now >= config.warmup_secs;
                    total_decode_tokens[m] += 1;
                    if in_window {
                        decode_tokens[m] += 1;
                        if progress.first {
                            prompt_latencies[m].push(now - arrival_time);
                        } else if let Some(gap) = progress.gap {
                            decode_gaps[m].push(gap);
                        }
                    }
                    if progress.finished {
                        if in_window {
                            completed[m] += 1;
                            completions.push(CompletionRecord {
                                id: request,
                                model,
                                at: now,
                            });
                        }
                        run.lanes[slot as usize] = None;
                        let Some(flight) = self.control.finish(request) else {
                            continue;
                        };
                        self.release_kv(&flight, false);
                        if let Some(next) = backlog.pop_front() {
                            self.admit_request(next, &mut run, now);
                        }
                    } else {
                        // Replica chunks travel the primary→standby links
                        // like any other transfer, and the standby engines
                        // seed the durable tokens as KV residency —
                        // replication steals serving bandwidth and KV
                        // headroom, which is exactly the trade-off measured.
                        for chunk in &progress.chunks {
                            self.link_transfer(
                                Some(chunk.primary),
                                Some(chunk.standby),
                                now,
                                chunk.bytes,
                            );
                            if let Some(engine) = self.engines.get_mut(chunk.standby, model) {
                                engine.kv.seed(request, progress.durable_tokens);
                            }
                        }
                        // Schedule the next decode iteration over the same pipeline.
                        let arrival =
                            self.link_transfer(None, Some(first.node), now, TOKEN_WIRE_BYTES);
                        let hop = Hop {
                            epoch,
                            slot,
                            tokens: 1,
                            stage: 0,
                            phase: Phase::Decode,
                        };
                        run.queue.push(arrival, Event::NodeArrival(hop));
                    }
                }
                Event::Perturbation(perturbation) => {
                    self.apply_perturbation(*perturbation, time, &mut run);
                }
                Event::EngineThaw { node, model } => {
                    // The KV hand-over finished; work that queued up during
                    // the freeze starts batching again.
                    if let Some(engine) = self.engines.get_mut(node, model) {
                        if let Some(done) = engine.try_start_batch(time) {
                            run.queue.push(done, Event::BatchComplete { node, model });
                        }
                    }
                }
                Event::ObservationTick => {
                    // Close the interval window, then let the control plane
                    // measure the engines and consult the policy.
                    intervals.push(IntervalMetrics {
                        start: self.control.last_check(),
                        end: time,
                        decode_tokens: total_decode_tokens
                            .iter()
                            .zip(&interval_base)
                            .map(|(t, b)| t - b)
                            .collect(),
                    });
                    interval_base.clone_from(&total_decode_tokens);
                    let counters: Vec<_> = self
                        .engines
                        .iter()
                        .map(|(node, model, engine)| (node, model, engine.counters()))
                        .collect();
                    let outcome = self.control.observe(time, &counters);
                    self.hand_over(outcome, time, &mut run.queue);
                    let next = time + tick_interval;
                    if next <= end_time {
                        run.queue.push(next, Event::ObservationTick);
                    }
                }
            }
        }

        let measured = (now.min(end_time) - config.warmup_secs).max(1e-9);
        // Overall utilisation merges each node's per-model engines.
        let mut node_busy: HashMap<NodeId, f64> = HashMap::new();
        for (node, _, engine) in self.engines.iter() {
            *node_busy.entry(node).or_insert(0.0) += engine.counters().busy_secs;
        }
        let node_utilization: HashMap<NodeId, f64> = node_busy
            .into_iter()
            .map(|(node, busy)| (node, (busy / now.max(1e-9)).min(1.0)))
            .collect();
        let mut link_stats: Vec<LinkStats> = self
            .links
            .used()
            .iter()
            .map(|&((from, to), ref link)| LinkStats {
                from,
                to,
                transfers: link.transfers,
                bytes: link.bytes_transferred,
                mean_queue_delay: link.mean_queue_delay(),
                max_queue_delay: link.max_queue_delay,
            })
            .collect();
        link_stats.sort_by(|a, b| {
            b.mean_queue_delay
                .partial_cmp(&a.mean_queue_delay)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let per_model: Vec<Metrics> = (0..num_models)
            .map(|m| {
                let utilization: HashMap<NodeId, f64> = self
                    .engines
                    .iter()
                    .filter(|(_, model, _)| model.index() == m)
                    .map(|(node, _, engine)| {
                        (node, (engine.counters().busy_secs / now.max(1e-9)).min(1.0))
                    })
                    .collect();
                Metrics {
                    measured_seconds: measured,
                    decode_tokens: decode_tokens[m],
                    completed_requests: completed[m],
                    prompt_latency: LatencyStats::from_samples(&prompt_latencies[m]),
                    decode_latency: LatencyStats::from_samples(&decode_gaps[m]),
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
                LatencyStats::from_samples(&prompt_latencies.concat()),
                LatencyStats::from_samples(&decode_gaps.concat()),
            ),
        };
        let overall = Metrics {
            measured_seconds: measured,
            decode_tokens: decode_tokens.iter().sum(),
            completed_requests: completed.iter().sum(),
            prompt_latency,
            decode_latency,
            node_utilization,
            link_stats,
        };
        // Per-run logs and counters: taken (not copied) so back-to-back runs
        // on one simulator — e.g. session drains — each report their own.
        let logs = self.control.take_logs();
        FleetRunReport {
            metrics: FleetMetrics { overall, per_model },
            intervals,
            replans: logs.replans,
            kv_transfers: std::mem::take(&mut self.kv_transfers),
            completions,
            prefix: logs.prefix,
            failovers: logs.failovers,
            replication: logs.replication,
        }
    }

    /// Applies (or, at `1.0`, lifts) a slowdown on every engine of `node`,
    /// present and future.
    fn set_slowdown(&mut self, node: NodeId, factor: f64) {
        self.slowdowns.insert(node, factor);
        for engine in self.engines.of_node_mut(node) {
            engine.set_slowdown(factor);
        }
    }

    /// The nodes the fleet's cluster spec (all profiles share one) places
    /// in `region`.
    fn region_nodes(&self, region: Region) -> Vec<NodeId> {
        let cluster = self.fleet().profiles()[0].cluster();
        let in_region = cluster.nodes().iter().filter(|n| n.region == region);
        in_region.map(|n| n.id).collect()
    }

    fn apply_perturbation(
        &mut self,
        perturbation: PerturbationEvent,
        time: SimTime,
        run: &mut Run,
    ) {
        let queue = &mut run.queue;
        let rejoin = |queue: &mut EventQueue, node: NodeId, at: SimTime| {
            let rejoin = PerturbationEvent::NodeRejoin { at, node };
            queue.push(at, Event::Perturbation(Box::new(rejoin)));
        };
        match perturbation {
            PerturbationEvent::NodeSlowdown { node, factor, .. } => self.set_slowdown(node, factor),
            PerturbationEvent::NodeRecovery { node, .. } => self.set_slowdown(node, 1.0),
            PerturbationEvent::NodeStraggler {
                node,
                factor,
                recover_secs,
                ..
            } => {
                // A straggler is a slowdown that heals itself after
                // `recover_secs`.
                self.set_slowdown(node, factor);
                let at = time + recover_secs.max(0.0);
                let recovery = PerturbationEvent::NodeRecovery { at, node };
                queue.push(at, Event::Perturbation(Box::new(recovery)));
            }
            PerturbationEvent::NodeFlap {
                node, down_secs, ..
            } => {
                // The down edge is a full node failure; the control plane
                // remembers the layer ranges the node holds right now, so
                // the rejoin can hand them back.
                rejoin(queue, node, time + down_secs.max(0.0));
                self.fail_nodes(&[node], ReplanReason::NodeFailure { node }, time, run);
            }
            PerturbationEvent::RegionPartition {
                region, heal_secs, ..
            } => {
                // The coordinator cannot tell a partition from a crash: the
                // unreachable side fails as a region outage, and every node
                // rejoins when the partition heals.
                let nodes = self.region_nodes(region);
                for &node in &nodes {
                    rejoin(queue, node, time + heal_secs.max(0.0));
                }
                self.fail_nodes(&nodes, ReplanReason::RegionOutage { region }, time, run);
            }
            PerturbationEvent::NodeRejoin { node, .. } => {
                // A flapped node comes back: its engines recover, and the
                // control plane hands it its pre-failure layer ranges (a
                // no-op when the node never left the plan).
                if self.control.failed().contains(&node) {
                    self.engines.of_node_mut(node).for_each(|e| e.recover());
                }
                let outcome = self.control.rejoin(node, time);
                self.hand_over(outcome, time, queue);
            }
            PerturbationEvent::NodeFailure { node, .. } => {
                self.fail_nodes(&[node], ReplanReason::NodeFailure { node }, time, run);
            }
            PerturbationEvent::RegionOutage { region, .. } => {
                // Fail the region's nodes together: one abort/re-admit
                // sweep, one re-plan removing the whole region.
                let nodes = self.region_nodes(region);
                self.fail_nodes(&nodes, ReplanReason::RegionOutage { region }, time, run);
            }
            PerturbationEvent::ArrivalRateShift { .. } => {
                // Applied to the arrival process before the run started.
            }
            PerturbationEvent::Migrate {
                model,
                from,
                to,
                layers,
                ..
            } => {
                let delta = PlacementDelta::new().migrate(model, from, to, layers);
                let outcome = self
                    .control
                    .replan(&delta, None, ReplanReason::Manual, time);
                self.hand_over(outcome, time, queue);
            }
        }
    }

    /// Fails a set of nodes at once (one node for [`NodeFailure`], a whole
    /// region for [`RegionOutage`]): their engines stop, and every pipeline
    /// the control plane reports stranded has its KV purged and its request
    /// re-submitted (promoted requests resume on their replicas, the rest
    /// re-admit under a new epoch; stale work of the old incarnation is
    /// dropped on arrival).  Completed requests are untouched.
    ///
    /// [`NodeFailure`]: PerturbationEvent::NodeFailure
    /// [`RegionOutage`]: PerturbationEvent::RegionOutage
    fn fail_nodes(&mut self, nodes: &[NodeId], reason: ReplanReason, time: SimTime, run: &mut Run) {
        if nodes.is_empty() {
            return;
        }
        for &node in nodes {
            self.engines.of_node_mut(node).for_each(|e| e.fail());
        }
        let engines = &self.engines;
        let has_engine = |node, model| engines.get(node, model).is_some();
        let failover = self.control.fail_nodes(nodes, reason, time, &has_engine);
        for flight in &failover.stranded {
            self.release_kv(flight, true);
            let request = flight.request.id;
            if let Some(&slot) = run.slots.get(&request) {
                run.lanes[slot as usize] = None;
            }
            run.queue.push(time, Event::RequestArrival { request });
        }
        self.hand_over(failover.replan, time, &mut run.queue);
    }

    /// Frees what one finished (or, with `purge`, aborted) incarnation held
    /// on the engines.  It goes on *every* engine of its model, not only its
    /// pipeline nodes: migrations seed destination engines and replication
    /// seeds standbys, all keyed by the request id — and a migrated prefix
    /// entry carries the request's reference along, so the release finds it
    /// wherever the entry lives now.
    fn release_kv(&mut self, flight: &InFlight, purge: bool) {
        let engines = self.engines.of_model(flight.pipeline.model);
        for engine in engines.iter_mut().flatten() {
            if purge {
                engine.purge_request(flight.request.id);
            } else {
                engine.release_request(flight.request.id);
            }
        }
    }

    /// Actuates one applied re-plan (`None`: it was infeasible or not due,
    /// and the current plan keeps serving): reconciles the engine set with
    /// the new plan and performs the KV hand-over of any partial-layer
    /// migration the delta carried.
    fn hand_over(&mut self, outcome: Option<ReplanOutcome>, time: SimTime, queue: &mut EventQueue) {
        let Some(outcome) = outcome else {
            return;
        };
        let fleet = self.control.fleet();
        for &model in &outcome.affected {
            // Existing engines take the new layer count / KV budget in place
            // (their queues and cached tokens survive) *and rebuild their
            // execution cost model from the re-derived contention split*, so
            // a surviving engine on a node whose tenancy changed runs at the
            // same re-split speed a freshly created engine would; pairs the
            // plan no longer includes keep draining their in-flight work but
            // receive no new pipelines; newly planned pairs get fresh
            // engines.  Engines run at the analytic contention split;
            // observed speed factors only re-price planning (the engine's
            // own `slowdown` already delivers the physical degradation
            // being measured).
            let profile = fleet.contention_profile(model);
            for n in fleet.topologies()[model.index()].nodes() {
                let (layers, kv_capacity) = (n.layers.len(), n.kv_capacity_tokens);
                let node_profile = profile.node_profile(n.node);
                match self.engines.get_mut(n.node, model) {
                    Some(engine) => engine.update_plan(node_profile, layers, kv_capacity),
                    None => {
                        let mut engine = NodeEngine::new(node_profile, layers, kv_capacity);
                        if let Some(&factor) = self.slowdowns.get(&n.node) {
                            engine.set_slowdown(factor);
                        }
                        if self.control.failed().contains(&n.node) {
                            engine.fail();
                        }
                        self.engines.insert(n.node, model, engine);
                    }
                }
            }
        }
        // Each migration's KV hand-over, the one the runtime performs too:
        // the pages travel as one transfer on the `from → to` link (queueing
        // behind activations), and both ends freeze *only the migrated layer
        // range* until it lands.  Requests whose stages run on disjoint
        // layers of the same nodes keep decoding throughout.
        let cluster = fleet.topologies()[0].profile().cluster();
        for &migration in &outcome.migrations {
            let KvMigration {
                model, from, to, ..
            } = migration;
            let keeps_layers = fleet.placement().placements()[model.index()]
                .range(from)
                .is_some();
            let Some([source, destination]) = self.engines.pair_mut((from, model), (to, model))
            else {
                continue;
            };
            let link = self.links.queue(cluster, (Some(from), Some(to)));
            let record = source.hand_over(
                destination,
                migration,
                keeps_layers,
                self.control.kv_transfer(model),
                time,
                |bytes| link.transfer(time, bytes),
            );
            for node in [from, to] {
                queue.push(record.at, Event::EngineThaw { node, model });
            }
            self.kv_transfers.push(record);
        }
    }

    /// The standing engine of one (node, model) pair, if any — exposed so
    /// tests can compare surviving engines against freshly created ones.
    pub fn engine(&self, node: NodeId, model: ModelId) -> Option<&NodeEngine> {
        self.engines.get(node, model)
    }

    /// Asks the control plane to admit `request` against its model's
    /// engines and puts the dispatch on the wire: shared-prefix residency is
    /// attached (refcounted) on every pipeline node, a promoted request's
    /// replicated tokens are seeded as KV residency there, and the prefill
    /// travels to the first stage.  A deferred request retries shortly.
    fn admit_request(&mut self, request: RequestId, run: &mut Run, now: SimTime) {
        let Some(&slot) = run.slots.get(&request) else {
            return;
        };
        let Some(spec) = run.specs.get(slot as usize) else {
            return;
        };
        let model = spec.model;
        let view = EngineView(self.engines.of_model(model));
        let Ok(Admission::Dispatch(dispatch)) = self.control.admit(spec, &view) else {
            run.queue.push(now + 0.2, Event::RequestArrival { request });
            return;
        };
        for stage in &dispatch.pipeline.stages {
            if let Some(engine) = self.engines.get_mut(stage.node, model) {
                if let Some(tokens) = dispatch.resume_tokens {
                    engine.kv.seed(request, tokens);
                }
                if let Some(p) = dispatch.prefix {
                    engine.kv.hold_prefix(request, p.id, p.tokens);
                }
            }
        }
        let first = dispatch.pipeline.stages[0];
        let bytes = dispatch.prefill_tokens as f64 * TOKEN_WIRE_BYTES;
        let arrival = self.link_transfer(None, Some(first.node), now, bytes);
        let hop = Hop {
            epoch: dispatch.epoch,
            slot,
            // Never more than the request's total tokens, which fit (checked
            // per request before the run).
            tokens: u32::try_from(dispatch.prefill_tokens).unwrap_or(u32::MAX),
            stage: 0,
            phase: Phase::Prompt,
        };
        run.queue.push(arrival, Event::NodeArrival(hop));
        run.lanes[slot as usize] = Some(Lane {
            epoch: dispatch.epoch,
            pipeline: dispatch.pipeline,
            prefix: dispatch.prefix,
        });
    }

    fn route_onward(&mut self, node: NodeId, item: WorkItem, run: &mut Run, now: SimTime) {
        let hop = item.hop;
        // Work of an aborted incarnation describes the old pipeline, not the
        // re-admitted one, and work an earlier run left on an engine belongs
        // to no lane of this one.  Drop it.
        let lane = run.lane(hop.slot, hop.epoch);
        let Some((_, lane)) = lane.filter(|(spec, _)| spec.id == item.request) else {
            return;
        };
        let model = lane.pipeline.model;
        if let Some(next) = lane.pipeline.stages.get(usize::from(hop.stage) + 1) {
            let activation_bytes = self.fleet().topologies()[model.index()]
                .profile()
                .model()
                .activation_bytes();
            let bytes = f64::from(hop.tokens) * activation_bytes;
            let arrival = self.link_transfer(Some(node), Some(next.node), now, bytes);
            let stage = hop.stage + 1;
            run.queue
                .push(arrival, Event::NodeArrival(Hop { stage, ..hop }));
        } else {
            // Last stage: the generated token returns to the coordinator.
            let arrival = self.link_transfer(Some(node), None, now, TOKEN_WIRE_BYTES);
            let (slot, epoch) = (hop.slot, hop.epoch);
            run.queue
                .push(arrival, Event::TokenAtCoordinator { slot, epoch });
        }
    }

    fn link_transfer(
        &mut self,
        from: Option<NodeId>,
        to: Option<NodeId>,
        now: SimTime,
        bytes: f64,
    ) -> SimTime {
        // Link hardware is shared by every model; the first lane's profile
        // supplies the (model-independent) bandwidth and latency numbers.
        let cluster = self.control.fleet().topologies()[0].profile().cluster();
        self.links.queue(cluster, (from, to)).transfer(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, IwrrScheduler, RandomScheduler, SwarmScheduler};
    use helix_workload::ArrivalPattern;

    fn small_profile() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
    }

    fn petals_topology(profile: &ClusterProfile) -> Topology {
        let placement = heuristics::petals_placement(profile).unwrap();
        Topology::plan(profile, &placement, true).unwrap()
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
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let workload = small_workload(40);
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let metrics = sim.run(&workload, SimulationConfig::offline(120.0).with_warmup(0.0));
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
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run(w, SimulationConfig::online(200.0).with_warmup(0.0))
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
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let workload = small_workload(30);
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let metrics = sim.run(
            &workload,
            SimulationConfig::offline(120.0)
                .with_warmup(0.0)
                .with_admission_limit(2),
        );
        assert!(metrics.completed_requests > 0);
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
        for scheduler in schedulers {
            let mut sim = ClusterSimulator::new(&topology, scheduler);
            let metrics = sim.run(&workload, SimulationConfig::offline(90.0).with_warmup(0.0));
            assert!(metrics.decode_tokens > 0);
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
        let mut sim = ClusterSimulator::new_fleet(&fleet, schedulers);
        assert_eq!(sim.num_models(), 2);
        let metrics =
            sim.run_per_model(&workload, SimulationConfig::offline(150.0).with_warmup(0.0));
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
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let config = SimulationConfig::offline(120.0).with_warmup(0.0);
        let metrics = sim.run_per_model(&small_workload(40), config);
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
        let single = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run(&workload, config)
        };
        let fleet_of_one = {
            let fleet = helix_core::FleetTopology::single(topology.clone());
            let schedulers = helix_core::FleetScheduler::iwrr(&fleet).unwrap();
            let mut sim = ClusterSimulator::new_fleet(&fleet, schedulers);
            sim.run_per_model(&workload, config)
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
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run(
                &workload,
                SimulationConfig::offline(60.0)
                    .with_warmup(warmup)
                    .with_admission_limit(64),
            )
        };
        let with_warmup = run(30.0);
        let without = run(0.0);
        assert!(with_warmup.decode_tokens <= without.decode_tokens);
    }

    #[test]
    fn run_with_no_events_is_bit_identical_to_the_static_path() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(30);
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let static_metrics = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_per_model(&workload, config)
        };
        let event_metrics = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_with_events(&workload, config, &[], None)
        };
        assert!(event_metrics.replans.is_empty());
        assert!(event_metrics.intervals.is_empty());
        assert_eq!(static_metrics.overall, event_metrics.metrics.overall);
        assert_eq!(static_metrics.per_model, event_metrics.metrics.per_model);
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
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_with_events(&workload, config, events, None)
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
        let events = [PerturbationEvent::NodeFailure {
            at: 30.0,
            node: failed,
        }];
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let report = sim.run_with_events(&workload, config, &events, None);
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
            let mut run = Run {
                queue: EventQueue::new(),
                arrivals: arrival_stream(arrivals),
                specs: Vec::new(),
                slots: HashMap::new(),
                lanes: Vec::new(),
            };
            for k in 0..30 {
                let at = TIMES[pick(5) as usize] * (1 + pick(3)) as f64;
                oracle.push(at, other(k));
                run.queue.push(at, other(k));
            }
            let mut k = 30;
            while let Some((time, event)) = oracle.pop() {
                let (at, merged) = run.pop().expect("as many events as the oracle");
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
                    run.queue.push(later, next);
                }
            }
            assert!(run.pop().is_none());
        }
    }
}
