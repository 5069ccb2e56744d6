//! The actuator: what both serving surfaces do with the control plane's
//! decisions, written once.
//!
//! [`ControlPlane`] makes every coordinator decision; the discrete-event
//! simulator and the wall-clock runtime both act on them against the same
//! parts — a [`PairTable`] of engine rows, the [`RequestTable`] hops resolve
//! against, and links priced by the shared link model.  [`Actuator`] owns
//! the rows, the request table, the per-node slowdowns and the KV-transfer
//! log, and performs each action once:
//!
//! * **Row planning** ([`Actuator::plan`]): a planned tenancy's row takes
//!   the plan's facts in place, or is built — slowed if its node is slowed,
//!   failed if its node failed.  A row is never taken out: one the plan
//!   drops keeps executing what it holds and gets no new pipeline.
//! * **KV hand-over** (behind every re-plan, observed or perturbed): each
//!   migration's [`NodeEngine::hand_over`] between its two rows, priced on
//!   the `from → to` link.
//! * **Release and purge** ([`Actuator::release`]): a request is freed on
//!   every row of its model, not only its pipeline's — migrations seed
//!   destinations and replication seeds standbys, all keyed by request id —
//!   and its §5.2 KV estimate on every stage of its pipeline.
//! * **Perturbations** ([`Actuator::perturb`]): the one interpreter of
//!   [`PerturbationEvent`] — a slowdown re-prices a node's rows; a failure or
//!   an outage fails its rows, purges the stranded requests, closes their
//!   lanes and hands the removal re-plan over; a rejoin or a scripted
//!   placement delta hands its re-plan over.
//! * **Observation** ([`Actuator::observe`]): the rows' counters go to
//!   [`ControlPlane::observe`], and what it applies is handed over.
//! * **Dispatch** ([`Actuator::dispatch`]): an admitted request's lane opens,
//!   its §5.2 KV estimate is charged on every stage, a promoted request's
//!   replicated tokens are seeded there, and its prefill leaves for the first
//!   stage.
//! * **Admission view** ([`RowView`]): one model's rows as its scheduler
//!   sees them — queue length (a running batch counts as one), recent
//!   throughput and KV capacity read off the rows, and KV usage either the
//!   rows' residency ([`Actuator::resident_view`]) or the §5.2 estimate
//!   ([`Actuator::estimated_view`]): nodes whose usage passes the high-water
//!   mark are masked out of IWRR.
//! * **Token step** ([`Actuator::token`]): an iteration's token reaches the
//!   coordinator; the request finishes, or its replica chunks ship, its
//!   standbys seed the durable tokens and its next decode hop leaves.
//! * **Batch step** ([`Actuator::start`], [`Actuator::complete`]): a row
//!   starts a batch; one that takes time completes when the wire's entry
//!   for it comes due, one of zero duration at once; each finished stage
//!   goes to the next stage, or its token to the coordinator.
//!
//! # What a surface supplies
//!
//! A [`Wire`]: how a transfer is priced, how a hop travels, how a hand-over's
//! arrival and a batch's completion are signalled and what a coordinator →
//! row call costs.  Both surfaces supply the one [`LinkWire`] over their
//! cluster's links and event queue; they differ only in whether a call is
//! priced (the runtime's is a message, the simulator's is free).  Every
//! action makes its wire calls in one fixed order — the simulator's heap
//! breaks ties by push order, so that order is part of the modelled results.
//! Each surface keeps its loop and clock, its rule for *when* a row starts a
//! batch (the simulator's on every arrival, the runtime's once nothing more
//! is due), which KV number its admission view reads (the runtime's the
//! estimate, the simulator's the residency), the simulator its admission cap
//! and its shared-prefix hold at admission, and its metrics.
//!
//! [`LinkWire`]: crate::link::LinkWire

use crate::control::{ControlPlane, Dispatch, InFlight, TokenProgress};
use crate::engine::NodeEngine;
use crate::exec_model::ExecModel;
use crate::fleet::FleetTopology;
use crate::lane::{Hop, RequestTable};
use crate::link::{LinkKey, RowKey};
use crate::pair_table::PairTable;
use crate::replan::{
    KvMigration, KvTransferRecord, PerturbationEvent, ReplanOutcome, ReplanReason,
};
use crate::{ClusterState, KvCacheEstimator};
use helix_cluster::{ModelId, NodeId, TOKEN_WIRE_BYTES};
use helix_workload::RequestId;
use std::collections::{HashMap, HashSet};

/// How a surface moves bytes; see the [module documentation](self).  A
/// link is `(from, to)`, `None` the coordinator.
pub trait Wire {
    /// Puts `bytes` on `link` at `now`; returns when they arrive.
    fn transfer(&mut self, now: f64, link: LinkKey, bytes: f64) -> f64;

    /// Sends `hop` over `link` at `now`: work for the stage on its far end,
    /// or — the far end the coordinator — the token its iteration produced.
    fn send_hop(&mut self, now: f64, link: LinkKey, bytes: f64, hop: Hop);

    /// A KV hand-over between `rows` arrives at `at`: both ends' freezes of
    /// the migrated range end then.
    fn landed(&mut self, at: f64, rows: [RowKey; 2]);

    /// One coordinator → row call on `node` at `now` (KV bookkeeping: a
    /// release, a purge, a seed); whether it costs a message is the wire's.
    fn call(&mut self, now: f64, node: NodeId);

    /// The batch `row` just started completes at `at`: queue its
    /// [`Actuator::complete`].
    fn completes(&mut self, at: f64, row: RowKey);
}

/// The output length the §5.2 estimate assumes before a request finishes;
/// the Azure Conversation trace averages 232 output tokens.
const INITIAL_AVG_OUTPUT_TOKENS: f64 = 232.0;

/// One model's rows as its scheduler sees them: the one [`ClusterState`]
/// both surfaces admit through (see the [module documentation](self)).
pub struct RowView<'a> {
    rows: &'a PairTable<NodeEngine>,
    model: ModelId,
    /// The estimate KV usage reads; `None`: the rows' residency.
    estimate: Option<&'a KvCacheEstimator>,
}

impl ClusterState for RowView<'_> {
    fn queue_len(&self, node: NodeId) -> usize {
        let row = self.rows.get(node, self.model);
        row.map_or(0, |row| row.queue_len() + usize::from(row.is_busy()))
    }

    fn recent_throughput(&self, node: NodeId) -> f64 {
        let row = self.rows.get(node, self.model);
        row.map_or(0.0, NodeEngine::recent_throughput)
    }

    fn kv_used_tokens(&self, node: NodeId) -> f64 {
        let Some(estimate) = self.estimate else {
            let row = self.rows.get(node, self.model);
            return row.map_or(0.0, |row| row.kv.used_tokens());
        };
        estimate.estimated_tokens(node)
    }

    fn kv_capacity_tokens(&self, node: NodeId) -> f64 {
        let row = self.rows.get(node, self.model);
        row.map_or(f64::INFINITY, |row| row.kv.capacity_tokens())
    }
}

/// What one token reaching the coordinator did, for the surface's metrics.
#[derive(Debug, Clone)]
pub struct Token {
    /// The request that produced it.
    pub request: RequestId,
    /// Its model.
    pub model: ModelId,
    /// The request's arrival time, as submitted.
    pub arrival_time: f64,
    /// What the control plane recorded.
    pub progress: TokenProgress,
    /// The finished incarnation, its KV already released everywhere (set
    /// when `progress.finished`).
    pub finished: Option<InFlight>,
}

/// The rows, the request table and what acting on them logs; see the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct Actuator {
    /// One row per (node, model) tenancy any plan has named.
    pub rows: PairTable<NodeEngine>,
    /// The requests by slot and the lane of each live incarnation.
    pub requests: RequestTable,
    /// The §5.2 KV estimate of each model's nodes.
    estimates: Vec<KvCacheEstimator>,
    /// The slowdown of every node that has one, for rows built later.
    slowdowns: HashMap<NodeId, f64>,
    /// KV hand-overs performed, drained into the surface's report.
    kv_transfers: Vec<KvTransferRecord>,
    /// Activation bytes per token crossing a stage boundary, by model.
    activation: Vec<f64>,
    /// Page size of every row's KV pool.
    tokens_per_page: usize,
    /// Whether rows price their batches with the analytic cost model (a row
    /// without one completes every batch in no time).
    priced: bool,
}

impl Actuator {
    /// An actuator with a row for every tenancy `fleet` plans, each over a
    /// KV pool of `tokens_per_page`-token pages and — when `priced` — the
    /// analytic cost model of its node.
    pub fn new(fleet: &FleetTopology, tokens_per_page: usize, priced: bool) -> Self {
        let profiles = fleet.profiles();
        let num_nodes = profiles.first().map_or(0, |p| p.cluster().num_nodes());
        let activation = profiles.iter().map(|p| p.model().activation_bytes());
        let estimate = |p| KvCacheEstimator::new(p, INITIAL_AVG_OUTPUT_TOKENS);
        let mut actuator = Actuator {
            rows: PairTable::new(num_nodes, fleet.num_models()),
            requests: RequestTable::default(),
            estimates: profiles.iter().map(estimate).collect(),
            slowdowns: HashMap::new(),
            kv_transfers: Vec::new(),
            activation: activation.collect(),
            tokens_per_page,
            priced,
        };
        let models = (0..fleet.num_models()).map(ModelId);
        actuator.plan(fleet, &HashSet::new(), models);
        actuator
    }

    /// Puts `models`' planned tenancies in service.  A row the table holds
    /// takes the plan's layer count, KV budget and cost model in place — its
    /// queue, residency and counters survive, and a failed row stays failed;
    /// a new one starts slowed if its node is slowed and failed if it is in
    /// `failed`.  Rows run at the analytic contention split: observed speed
    /// factors re-price planning, and a row's own slowdown delivers them.
    pub fn plan(
        &mut self,
        fleet: &FleetTopology,
        failed: &HashSet<NodeId>,
        models: impl IntoIterator<Item = ModelId>,
    ) {
        for model in models {
            let Some(topology) = fleet.model(model) else {
                continue;
            };
            let profile = fleet.contention_profile(model);
            for n in topology.nodes() {
                let node = profile.node_profile(n.node);
                let exec = self.priced.then(|| ExecModel::new(node));
                let (layers, kv_capacity) = (n.layers.len(), n.kv_capacity_tokens);
                if let Some(row) = self.rows.get_mut(n.node, model) {
                    row.update_plan(exec, layers, kv_capacity);
                    continue;
                }
                let mut engine = NodeEngine::new(exec, layers, kv_capacity, self.tokens_per_page);
                if let Some(&factor) = self.slowdowns.get(&n.node) {
                    engine.set_slowdown(factor);
                }
                if failed.contains(&n.node) {
                    engine.fail();
                }
                self.rows.insert(n.node, model, engine);
            }
        }
    }

    /// Slows every row of `node`, present and future, to `factor`× its cost
    /// model (`1.0` lifts it).
    fn set_slowdown(&mut self, node: NodeId, factor: f64) {
        self.slowdowns.insert(node, factor);
        for row in self.rows.of_node_mut(node) {
            row.set_slowdown(factor);
        }
    }

    /// Activation bytes one token carries between two stages of `model`.
    #[inline]
    fn activation_bytes(&self, model: ModelId) -> f64 {
        self.activation.get(model.index()).copied().unwrap_or(0.0)
    }

    /// `model`'s rows as its scheduler sees them, KV usage read off their
    /// residency.
    pub fn resident_view(&self, model: ModelId) -> RowView<'_> {
        RowView {
            estimate: None,
            ..self.estimated_view(model)
        }
    }

    /// `model`'s rows as its scheduler sees them, KV usage the §5.2
    /// estimate: prompt suffix plus running-average output per request, a
    /// shared prefix once per node.
    pub fn estimated_view(&self, model: ModelId) -> RowView<'_> {
        RowView {
            rows: &self.rows,
            model,
            estimate: self.estimates.get(model.index()),
        }
    }

    /// The KV hand-overs performed so far, in the order they started.
    pub fn kv_transfers(&self) -> &[KvTransferRecord] {
        &self.kv_transfers
    }

    /// Actuates one applied re-plan (`None`: infeasible or not due, and the
    /// standing plan keeps serving): the affected models' rows are planned,
    /// and each migration's KV moves from source to destination row at
    /// `now` as one transfer on the `from → to` link.  Both rows freeze the
    /// migrated range — work on other layers keeps executing — until the
    /// wire signals the arrival.
    fn hand_over(
        &mut self,
        control: &ControlPlane,
        wire: &mut impl Wire,
        outcome: Option<ReplanOutcome>,
        now: f64,
    ) {
        let Some(outcome) = outcome else {
            return;
        };
        let fleet = control.fleet();
        self.plan(fleet, control.failed(), outcome.affected.iter().copied());
        for &migration in &outcome.migrations {
            let KvMigration {
                model, from, to, ..
            } = migration;
            let placement = fleet.placement().placements().get(model.index());
            let keeps_layers = placement.is_some_and(|p| p.range(from).is_some());
            let rows = [(from, model), (to, model)];
            let Some([source, destination]) = self.rows.pair_mut(rows[0], rows[1]) else {
                continue;
            };
            let record = source.hand_over(
                destination,
                migration,
                keeps_layers,
                control.kv_transfer(model),
                now,
                |bytes| wire.transfer(now, (Some(from), Some(to)), bytes),
            );
            wire.landed(record.at, rows);
            self.kv_transfers.push(record);
        }
    }

    /// One observation-window boundary at `now`: every row's cumulative
    /// counters go to [`ControlPlane::observe`] (which keys them by node
    /// and model, so the walk's order does not matter), and a re-plan its
    /// policy applies is handed over.
    pub fn observe(&mut self, control: &mut ControlPlane, wire: &mut impl Wire, now: f64) {
        let rows = self.rows.iter();
        let counters: Vec<_> = rows
            .map(|(node, model, row)| (node, model, row.counters()))
            .collect();
        let outcome = control.observe(now, &counters);
        self.hand_over(control, wire, outcome, now);
    }

    /// Applies one scripted perturbation at `now` — the only code that
    /// reads the variants of [`PerturbationEvent`], for both surfaces:
    ///
    /// * a slowdown or recovery re-prices every row of its node, present
    ///   and future;
    /// * a failure, or a region's outage, fails its nodes together in one
    ///   fail-over with one removal re-plan;
    /// * a rejoin recovers the node's rows if it had failed and hands the
    ///   control plane's rejoin re-plan over;
    /// * a re-plan applies its delta to the standing placement and hands the
    ///   outcome over.
    ///
    /// Returns the incarnations a failure stranded, in request-id order, for
    /// the surface to re-submit (admission resumes the promoted ones on their
    /// replicas and re-admits the rest); every other kind strands nothing.
    pub fn perturb(
        &mut self,
        control: &mut ControlPlane,
        wire: &mut impl Wire,
        event: &PerturbationEvent,
        now: f64,
    ) -> Vec<InFlight> {
        match *event {
            PerturbationEvent::NodeSlowdown { node, factor, .. } => self.set_slowdown(node, factor),
            PerturbationEvent::NodeRecovery { node, .. } => self.set_slowdown(node, 1.0),
            PerturbationEvent::NodeFailure { node, .. } => {
                let reason = ReplanReason::NodeFailure { node };
                return self.fail_over(control, wire, &[node], reason, now);
            }
            PerturbationEvent::RegionOutage { region, .. } => {
                // The fleet's profiles share one cluster spec.
                let cluster = control.fleet().profiles().first();
                let all = cluster.map(|p| p.cluster().nodes()).unwrap_or_default();
                let in_region = all.iter().filter(|n| n.region == region);
                let nodes: Vec<NodeId> = in_region.map(|n| n.id).collect();
                let reason = ReplanReason::RegionOutage { region };
                return self.fail_over(control, wire, &nodes, reason, now);
            }
            PerturbationEvent::NodeRejoin { node, .. } => {
                if control.failed().contains(&node) {
                    self.rows.of_node_mut(node).for_each(NodeEngine::recover);
                }
                let outcome = control.rejoin(node, now);
                self.hand_over(control, wire, outcome, now);
            }
            PerturbationEvent::Replan { ref delta, .. } => {
                let outcome = control.replan(delta, None, ReplanReason::Manual, now);
                self.hand_over(control, wire, outcome, now);
            }
        }
        Vec::new()
    }

    /// Frees what one finished — or, with `purge`, aborted — incarnation
    /// holds on every row of its model, in node order, each a priced call at
    /// `now`, and its estimate on every stage (an aborted one's leaves the
    /// running output-length average alone).  A purge also drops its queued
    /// work.
    pub fn release(&mut self, wire: &mut impl Wire, flight: &InFlight, purge: bool, now: f64) {
        let (request, model) = (flight.request.id, flight.pipeline.model);
        if let Some(estimate) = self.estimates.get_mut(model.index()) {
            for stage in &flight.pipeline.stages {
                if purge {
                    estimate.on_aborted(stage.node, request);
                } else {
                    estimate.on_finished(stage.node, request, flight.generated);
                }
                if let Some(p) = flight.prefix {
                    estimate.release_shared(stage.node, p.id);
                }
            }
        }
        let rows = self.rows.of_model(model).iter_mut();
        for (node, row) in rows.enumerate() {
            let Some(row) = row else {
                continue;
            };
            wire.call(now, NodeId(node));
            if purge {
                row.purge_request(request);
            } else {
                row.release_request(request);
            }
        }
    }

    /// Fails `nodes` together at `now`: their rows start no further batch,
    /// every pipeline the control plane strands is purged from every row of
    /// its model and its lane closed — what of it is still on a link is
    /// dropped where it lands — and the removal re-plan is handed over.
    /// Returns the stranded incarnations, in request-id order, for the
    /// surface to re-submit: admission resumes the promoted ones on their
    /// replicas and re-admits the rest.
    fn fail_over(
        &mut self,
        control: &mut ControlPlane,
        wire: &mut impl Wire,
        nodes: &[NodeId],
        reason: ReplanReason,
        now: f64,
    ) -> Vec<InFlight> {
        if nodes.is_empty() {
            return Vec::new();
        }
        for &node in nodes {
            self.rows.of_node_mut(node).for_each(NodeEngine::fail);
        }
        let rows = &self.rows;
        let has_row = |node, model| rows.get(node, model).is_some();
        let failover = control.fail_nodes(nodes, reason, now, &has_row);
        for flight in &failover.stranded {
            self.release(wire, flight, true, now);
            self.requests.close(flight.request.id);
        }
        self.hand_over(control, wire, failover.replan, now);
        failover.stranded
    }

    /// Opens the lane of the request in `slot` for the incarnation
    /// `dispatch` admitted and sends its prefill to the first stage at
    /// `now`.  Every stage is first charged its estimate: the unshared
    /// prompt suffix (plus what a promoted incarnation had decoded) and the
    /// running-average output, a shared prefix attached once per node.  A
    /// promoted request also re-seeds its replicated tokens on every stage,
    /// one call each (the fail-over purge released them); a promotion whose
    /// replicas received nothing seeds nothing.
    pub fn dispatch(&mut self, wire: &mut impl Wire, slot: u32, dispatch: &Dispatch, now: f64) {
        let stages = &dispatch.pipeline.stages;
        let (Some(first), Some(spec)) = (stages.first(), self.requests.spec(slot)) else {
            return;
        };
        let (request, model) = (spec.id, dispatch.pipeline.model);
        let shared = dispatch.prefix.map_or(0, |p| p.tokens);
        let cached = spec.prompt_tokens - shared.min(spec.prompt_tokens) + dispatch.generated;
        let resume = dispatch.resume_tokens.filter(|&tokens| tokens > 0);
        for stage in stages {
            if let Some(estimate) = self.estimates.get_mut(model.index()) {
                estimate.on_scheduled(stage.node, request, cached);
                if let Some(p) = dispatch.prefix {
                    estimate.attach_shared(stage.node, p.id, p.tokens);
                }
            }
            if let Some(tokens) = resume {
                wire.call(now, stage.node);
                if let Some(row) = self.rows.get_mut(stage.node, model) {
                    row.kv.seed(request, tokens);
                }
            }
        }
        let bytes = dispatch.prefill_tokens as f64 * TOKEN_WIRE_BYTES;
        let hop = self.requests.open(slot, dispatch);
        wire.send_hop(now, (None, Some(first.node)), bytes, hop);
    }

    /// The token of the iteration (`slot`, `epoch`) reaches the coordinator
    /// at `at`; what it triggers leaves at `now`.  A finished
    /// request's lane closes and its KV is released everywhere; otherwise
    /// its replica chunks cross the primary → standby links, the standby
    /// rows seed the durable tokens, and the next decode hop leaves for the
    /// first stage.  `None` for a stale token (its incarnation was aborted
    /// or promoted).
    #[inline]
    pub fn token(
        &mut self,
        control: &mut ControlPlane,
        wire: &mut impl Wire,
        slot: u32,
        epoch: u64,
        at: f64,
        now: f64,
    ) -> Option<Token> {
        let (spec, lane) = self.requests.lane(slot, epoch)?;
        let first = lane.pipeline.stages.first()?.node;
        let (request, model) = (spec.id, lane.pipeline.model);
        let arrival_time = spec.arrival_time;
        let progress = control.on_token(request, epoch, at)?;
        debug_assert!(control.flight(request).is_some_and(|flight| {
            flight.epoch == epoch && std::sync::Arc::ptr_eq(&flight.pipeline, &lane.pipeline)
        }));
        let mut token = Token {
            request,
            model,
            arrival_time,
            progress,
            finished: None,
        };
        if token.progress.finished {
            self.requests.close(request);
            token.finished = control.finish(request);
            if let Some(flight) = &token.finished {
                self.release(wire, flight, false, now);
            }
            return Some(token);
        }
        // Replication steals link bandwidth and KV headroom: exactly the
        // trade-off measured.
        for chunk in &token.progress.chunks {
            let link = (Some(chunk.primary), Some(chunk.standby));
            wire.transfer(now, link, chunk.bytes);
            if let Some(standby) = self.rows.get_mut(chunk.standby, model) {
                let durable = token.progress.durable_tokens;
                standby.kv.seed(request, durable);
            }
        }
        let hop = Hop::decode(slot, epoch);
        wire.send_hop(now, (None, Some(first)), TOKEN_WIRE_BYTES, hop);
        Some(token)
    }

    /// Starts a batch on the row of (`node`, `model`) at `now` if it is
    /// idle, healthy and has unfrozen work — so a row never runs two batches
    /// at once.  A batch that takes time completes when the wire's entry for
    /// it comes due; one of zero duration (a row without a cost model)
    /// completes here, its items leaving at `now`.
    #[inline]
    pub fn start(&mut self, wire: &mut impl Wire, node: NodeId, model: ModelId, now: f64) {
        let Some(run) = self
            .rows
            .get_mut(node, model)
            .and_then(|row| row.try_start_batch(now))
        else {
            return;
        };
        if run.actual_secs > 0.0 {
            wire.completes(now + run.actual_secs, (node, model));
        } else {
            self.complete(wire, node, model, now);
        }
    }

    /// The batch of the row of (`node`, `model`) completes at `now`: each
    /// finished item goes onward — its activations to the next stage's
    /// node, or after the last stage its token to the coordinator.  Work of
    /// an aborted incarnation, or one an earlier run left on the row, has no
    /// lane and goes nowhere; so does the batch of a row that failed.
    #[inline]
    pub fn complete(&mut self, wire: &mut impl Wire, node: NodeId, model: ModelId, now: f64) {
        let activation_bytes = self.activation_bytes(model);
        let Some(row) = self.rows.get_mut(node, model) else {
            return;
        };
        let requests = &self.requests;
        row.complete_batch(|item| {
            let Some((_, next)) = requests.onward(item) else {
                return;
            };
            let hop = item.hop;
            match next {
                Some(next) => {
                    let bytes = f64::from(hop.tokens) * activation_bytes;
                    let stage = hop.stage + 1;
                    wire.send_hop(now, (Some(node), Some(next)), bytes, Hop { stage, ..hop });
                }
                None => wire.send_hop(now, (Some(node), None), TOKEN_WIRE_BYTES, hop),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BatchTotals;
    use crate::fleet::{fleet_profiles, FleetPlacement, FleetScheduler};
    use crate::{
        Admission, IdleClusterState, LayerRange, ModelPlacement, PipelineStage, PlacementDelta,
        ReplicationPolicy, RequestPipeline, WorkItem,
    };
    use helix_cluster::{ClusterBuilder, GpuType, ModelConfig, PrefixId, Region};
    use helix_workload::Request;
    use std::sync::Arc;

    const MODEL: ModelId = ModelId(0);

    /// One wire call, as the actuator made it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Sent {
        Transfer(f64, LinkKey, f64),
        Hop(f64, LinkKey, Hop),
        Landed(f64, [(NodeId, ModelId); 2]),
        Call(f64, NodeId),
        Completes(f64, (NodeId, ModelId)),
    }

    /// A wire that records its calls; every transfer arrives a second after
    /// it is sent.
    #[derive(Default)]
    struct Recorder(Vec<Sent>);

    impl Wire for Recorder {
        fn transfer(&mut self, now: f64, link: LinkKey, bytes: f64) -> f64 {
            self.0.push(Sent::Transfer(now, link, bytes));
            now + 1.0
        }
        fn send_hop(&mut self, now: f64, link: LinkKey, _bytes: f64, hop: Hop) {
            self.0.push(Sent::Hop(now, link, hop));
        }
        fn landed(&mut self, at: f64, rows: [(NodeId, ModelId); 2]) {
            self.0.push(Sent::Landed(at, rows));
        }
        fn call(&mut self, now: f64, node: NodeId) {
            self.0.push(Sent::Call(now, node));
        }
        fn completes(&mut self, at: f64, row: (NodeId, ModelId)) {
            self.0.push(Sent::Completes(at, row));
        }
    }

    /// LLaMA-13B on four A100s in two stages, each held twice: nodes 0 and
    /// 2 the bottom half, nodes 1 and 3 the top half; rows of 1-token
    /// pages that batch in no time.
    fn plane() -> (ControlPlane, Actuator) {
        let cluster = ClusterBuilder::new("actuator-4")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_80, 4, 1, Region(0))
            .build();
        let profiles = fleet_profiles(&cluster, &[ModelConfig::llama_13b()]);
        let half = profiles[0].model().num_layers / 2;
        let mut placement = ModelPlacement::empty(4);
        for node in 0..4 {
            let first = (node % 2) * half;
            placement.assign(NodeId(node), LayerRange::new(first, first + half));
        }
        let placement = FleetPlacement::new(vec![placement]);
        let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
        let schedulers = FleetScheduler::iwrr(&fleet).unwrap().into_parts();
        let actuator = Actuator::new(&fleet, 1, false);
        (ControlPlane::new(fleet, schedulers), actuator)
    }

    fn engine(actuator: &mut Actuator, node: usize) -> &mut NodeEngine {
        actuator.rows.get_mut(NodeId(node), MODEL).unwrap()
    }

    /// Tokens `request` holds on each node's row, in node order.
    fn held(actuator: &mut Actuator, request: RequestId) -> Vec<usize> {
        (0..4)
            .map(|n| engine(actuator, n).kv.tokens_of(request))
            .collect()
    }

    /// Admits request `id` on an idle view and dispatches it at `now`.
    fn admit(control: &mut ControlPlane, actuator: &mut Actuator, id: u64) -> InFlight {
        let request = Request {
            id,
            prompt_tokens: 32,
            output_tokens: 8,
            ..Request::default()
        };
        let Ok(Admission::Dispatch(dispatch)) = control.admit(&request, &IdleClusterState) else {
            panic!("an idle plane admits");
        };
        let slot = actuator.requests.insert(request);
        actuator.dispatch(&mut Recorder::default(), slot, &dispatch, 0.0);
        control.flight(id).unwrap().clone()
    }

    /// Request `id` of 32 prompt tokens, the first 16 of them shared prefix
    /// 7, decoding `output_tokens`.
    fn prefixed(id: u64, output_tokens: usize) -> Request {
        Request {
            id,
            prompt_tokens: 32,
            output_tokens,
            prefix: Some(PrefixId(7)),
            prefix_tokens: 16,
            ..Request::default()
        }
    }

    /// Admits `request` against the estimated view and dispatches it at 0
    /// over `wire`.
    fn dispatch(
        control: &mut ControlPlane,
        actuator: &mut Actuator,
        wire: &mut Recorder,
        request: Request,
    ) -> Dispatch {
        let admitted = control.admit(&request, &actuator.estimated_view(MODEL));
        let Ok(Admission::Dispatch(dispatch)) = admitted else {
            panic!("request {} is admitted", request.id);
        };
        let slot = actuator.requests.insert(request);
        actuator.dispatch(wire, slot, &dispatch, 0.0);
        dispatch
    }

    /// Feeds `request`'s incarnation `epoch` tokens until it finishes.
    fn finish(control: &mut ControlPlane, actuator: &mut Actuator, request: u64, epoch: u64) {
        let slot = actuator.requests.slot(request).unwrap();
        for step in 1.. {
            let at = f64::from(step);
            let token = actuator.token(control, &mut Recorder::default(), slot, epoch, at, at);
            if token.unwrap().progress.finished {
                return;
            }
        }
    }

    /// The estimate of `node` under the estimated view.
    fn estimate(actuator: &Actuator, node: usize) -> f64 {
        actuator.estimated_view(MODEL).kv_used_tokens(NodeId(node))
    }

    /// Aim 3's estimate invariant on the actuator alone: dispatch charges
    /// every stage its suffix plus the running-average output and a shared
    /// prefix once per node; a token finish and a fail-over purge free
    /// them — a promoted and an aborted sharer of one prefix included — so
    /// every node reads zero once everything finished.
    #[test]
    fn the_estimate_balances_through_dispatch_finish_and_purge() {
        let (mut control, mut actuator) = plane();
        // Requests of 8 output tokens replicate, shorter ones do not.
        control.set_replication(ReplicationPolicy::rf2(8, 1));
        let mut wire = Recorder::default();
        let first = dispatch(&mut control, &mut actuator, &mut wire, prefixed(1, 8));
        for (id, output) in [(2, 4), (3, 2)] {
            let hit = dispatch(&mut control, &mut actuator, &mut wire, prefixed(id, output));
            assert_eq!(hit.pipeline, first.pipeline, "a prefix hit");
        }
        let nodes: Vec<usize> = first
            .pipeline
            .stages
            .iter()
            .map(|s| s.node.index())
            .collect();
        for n in 0..4 {
            let charged = if nodes.contains(&n) {
                3.0 * (16.0 + 232.0) + 16.0
            } else {
                0.0
            };
            assert_eq!(estimate(&actuator, n), charged, "node {n}");
        }

        finish(&mut control, &mut actuator, 3, 0);
        let failed = PerturbationEvent::NodeFailure {
            at: 9.0,
            node: NodeId(nodes[0]),
        };
        let stranded = actuator.perturb(&mut control, &mut wire, &failed, 9.0);
        let record = &control.logs().failovers[0];
        assert_eq!(
            (&record.promoted[..], &record.aborted[..]),
            (&[1][..], &[2][..])
        );
        for flight in stranded {
            let again = dispatch(&mut control, &mut actuator, &mut wire, flight.request);
            finish(&mut control, &mut actuator, flight.request.id, again.epoch);
        }
        assert_eq!(control.in_flight_len(), 0);
        for n in 0..4 {
            assert_eq!(estimate(&actuator, n), 0.0, "node {n}");
        }
    }

    /// The one documented difference between the two reads of the one row
    /// view: after two dispatches sharing a prefix, and before the first
    /// batch, both agree on queue length, recent throughput and KV capacity;
    /// the resident read is the rows' residency — the prefix a simulator's
    /// admission holds, once — and the estimated read is each request's
    /// suffix and running-average output plus the prefix once.
    #[test]
    fn the_resident_and_estimated_reads_differ_only_in_kv_usage() {
        let (mut control, mut actuator) = plane();
        let mut wire = Recorder::default();
        for id in [1, 2] {
            let dispatch = dispatch(&mut control, &mut actuator, &mut wire, prefixed(id, 8));
            for stage in &dispatch.pipeline.stages {
                let row = engine(&mut actuator, stage.node.index());
                row.kv.hold_prefix(id, PrefixId(7), 16);
            }
        }
        let pipeline = Arc::clone(&control.flight(1).unwrap().pipeline);
        assert_eq!(
            pipeline,
            control.flight(2).unwrap().pipeline,
            "a prefix hit"
        );
        let Sent::Hop(_, _, prefill) = wire.0[0] else {
            panic!("the first prefill, got {:?}", wire.0);
        };
        let (node, model, item) = actuator.requests.land(prefill).unwrap();
        actuator.rows.get_mut(node, model).unwrap().enqueue(item);

        let (resident, estimated) = (
            actuator.resident_view(MODEL),
            actuator.estimated_view(MODEL),
        );
        for node in (0..4).map(NodeId) {
            let on_pipeline = pipeline.stages.iter().any(|s| s.node == node);
            let queued = usize::from(node == pipeline.stages[0].node);
            assert_eq!(resident.queue_len(node), queued);
            assert_eq!(estimated.queue_len(node), queued);
            let throughput = resident.recent_throughput(node);
            assert_eq!(estimated.recent_throughput(node), throughput);
            let capacity = resident.kv_capacity_tokens(node);
            assert!(capacity.is_finite() && capacity > 0.0);
            assert_eq!(estimated.kv_capacity_tokens(node), capacity);
            let (held, charged) = match on_pipeline {
                true => (16.0, 2.0 * (16.0 + 232.0) + 16.0),
                false => (0.0, 0.0),
            };
            let used = (
                resident.kv_used_tokens(node),
                estimated.kv_used_tokens(node),
            );
            assert_eq!(used, (held, charged), "{node:?}");
        }
    }

    /// A release frees the request on every row of its model — its
    /// pipeline's, a migration destination's and a standby's — one priced
    /// call per row in node order, and leaves other requests alone.
    #[test]
    fn a_release_frees_every_row_of_the_model_one_call_each() {
        let (control, mut actuator) = plane();
        let half = control.fleet().model(MODEL).unwrap().num_layers() / 2;
        let stage = |node, first| PipelineStage {
            node: NodeId(node),
            layers: LayerRange::new(first, first + half),
        };
        let flight = InFlight {
            request: Request {
                id: 7,
                ..Request::default()
            },
            pipeline: Arc::new(RequestPipeline {
                model: MODEL,
                stages: vec![stage(0, 0), stage(1, half)],
            }),
            generated: 0,
            epoch: 0,
            prefix: None,
            first_token_at: None,
            last_token_at: None,
        };
        for node in [0, 1] {
            engine(&mut actuator, node).kv.seed(7, 40);
        }
        // A migration from node 0 handed its residency to node 3's row, and
        // node 2's row is request 7's standby.
        let [source, destination] = actuator
            .rows
            .pair_mut((NodeId(0), MODEL), (NodeId(3), MODEL))
            .unwrap();
        source.kv.hand_over(&mut destination.kv, true);
        engine(&mut actuator, 2).kv.seed(7, 40);
        engine(&mut actuator, 0).kv.seed(8, 16);
        assert_eq!(held(&mut actuator, 7), [40, 40, 40, 40]);

        let mut wire = Recorder::default();
        actuator.release(&mut wire, &flight, false, 5.0);
        let calls = (0..4).map(|n| Sent::Call(5.0, NodeId(n)));
        assert_eq!(wire.0, calls.collect::<Vec<_>>());
        assert_eq!(held(&mut actuator, 7), [0, 0, 0, 0]);
        assert_eq!(held(&mut actuator, 8), [16, 0, 0, 0], "request 8 stays");
    }

    /// A promoted request's dispatch seeds its replicated tokens on every
    /// stage, one call per stage before its prefill leaves; a promotion
    /// whose replicas received nothing seeds nothing and calls no row.
    #[test]
    fn a_resumed_dispatch_seeds_every_stage_one_call_each() {
        let (control, mut actuator) = plane();
        let half = control.fleet().model(MODEL).unwrap().num_layers() / 2;
        let stages = [(1, 0), (2, half)].map(|(node, first)| PipelineStage {
            node: NodeId(node),
            layers: LayerRange::new(first, first + half),
        });
        for (id, resume) in [(7, 0), (8, 24)] {
            let slot = actuator.requests.insert(Request {
                id,
                ..Request::default()
            });
            let dispatch = Dispatch {
                pipeline: Arc::new(RequestPipeline {
                    model: MODEL,
                    stages: stages.to_vec(),
                }),
                epoch: 1,
                prefill_tokens: 1,
                prefix: None,
                resume_tokens: Some(resume),
                generated: 3,
            };
            let mut wire = Recorder::default();
            actuator.dispatch(&mut wire, slot, &dispatch, 4.0);
            let calls = stages.iter().filter(|_| resume > 0);
            let mut expected: Vec<_> = calls.map(|s| Sent::Call(4.0, s.node)).collect();
            let first = (None, Some(NodeId(1)));
            expected.push(Sent::Hop(
                4.0,
                first,
                Hop {
                    epoch: 1,
                    slot,
                    tokens: 1,
                    stage: 0,
                    phase: crate::Phase::Prompt,
                },
            ));
            assert_eq!(wire.0, expected, "request {id}");
            assert_eq!(held(&mut actuator, id), [0, resume, resume, 0]);
        }
    }

    /// A fail-over fails the node's rows, purges each stranded request from
    /// every row — KV and queued work, one call per row in node order — and
    /// closes its lane; a request on a pipeline the failure missed keeps
    /// its lane, residency and queued work.
    #[test]
    fn a_fail_over_purges_every_row_and_closes_the_stranded_lanes() {
        let (mut control, mut actuator) = plane();
        let flights = [
            admit(&mut control, &mut actuator, 1),
            admit(&mut control, &mut actuator, 2),
        ];
        let nodes =
            |f: &InFlight| -> Vec<NodeId> { f.pipeline.stages.iter().map(|s| s.node).collect() };
        let failed = nodes(&flights[0])
            .into_iter()
            .find(|n| !nodes(&flights[1]).contains(n));
        let failed = failed.expect("two admissions take two pipelines");
        for flight in &flights {
            let id = flight.request.id;
            let slot = actuator.requests.slot(id).unwrap();
            for node in nodes(flight) {
                let (_, _, item) = actuator.requests.land(Hop::decode(slot, 0)).unwrap();
                let row = engine(&mut actuator, node.index());
                row.kv.seed(id, 33);
                row.enqueue(item);
            }
        }

        let mut wire = Recorder::default();
        let reason = ReplanReason::NodeFailure { node: failed };
        let stranded = actuator.fail_over(&mut control, &mut wire, &[failed], reason, 3.0);
        assert_eq!(
            stranded.iter().map(|f| f.request.id).collect::<Vec<_>>(),
            [1]
        );
        let calls = (0..4).map(|n| Sent::Call(3.0, NodeId(n)));
        assert_eq!(wire.0, calls.collect::<Vec<_>>(), "the removal moves no KV");
        assert_eq!(held(&mut actuator, 1), [0, 0, 0, 0]);
        let lane = |actuator: &Actuator, id| {
            let slot = actuator.requests.slot(id).unwrap();
            actuator.requests.lane(slot, 0).is_some()
        };
        assert!(!lane(&actuator, 1) && lane(&actuator, 2));
        for node in nodes(&flights[1]) {
            let row = engine(&mut actuator, node.index());
            assert_eq!((row.kv.tokens_of(2), row.queue_len()), (33, 1));
        }
        for node in nodes(&flights[0]) {
            let row = engine(&mut actuator, node.index());
            let shared = nodes(&flights[1]).contains(&node);
            assert_eq!(row.queue_len(), usize::from(shared), "node {node:?}");
        }
        // The failed row is marked failed: idle, with work queued, it starts
        // no batch.
        let slot = actuator.requests.slot(2).unwrap();
        let (_, _, item) = actuator.requests.land(Hop::decode(slot, 0)).unwrap();
        let row = engine(&mut actuator, failed.index());
        row.enqueue(item);
        assert!(!row.is_busy());
        assert!(
            row.start_batch(3.0, |_| 1.0).is_none(),
            "a failed row starts no batch"
        );
    }

    /// A hand-over moves the source row's KV at once, priced as one
    /// transfer on the `from → to` link, freezes the migrated range on both
    /// rows until that transfer arrives, and signals the arrival for both
    /// rows at the record's time.
    #[test]
    fn a_hand_over_lands_on_both_rows_at_the_records_arrival() {
        let (mut control, mut actuator) = plane();
        let half = control.fleet().model(MODEL).unwrap().num_layers() / 2;
        let layers = LayerRange::new(half / 2, half);
        engine(&mut actuator, 0).kv.seed(7, 40);
        let delta = PlacementDelta::new().migrate(MODEL, NodeId(0), NodeId(3), layers);
        let outcome = control.replan(&delta, None, ReplanReason::Manual, 2.0);
        assert!(outcome.is_some(), "the migration re-plans");

        let mut wire = Recorder::default();
        actuator.hand_over(&control, &mut wire, outcome, 2.0);
        let [record] = actuator.kv_transfers() else {
            panic!("one hand-over");
        };
        let rows = [(NodeId(0), MODEL), (NodeId(3), MODEL)];
        let link = (Some(NodeId(0)), Some(NodeId(3)));
        let expected = [
            Sent::Transfer(2.0, link, record.bytes),
            Sent::Landed(3.0, rows),
        ];
        assert_eq!(wire.0, expected);
        assert_eq!((record.at, record.tokens), (3.0, 40.0));
        assert_eq!(
            held(&mut actuator, 7),
            [40, 0, 0, 40],
            "node 0 keeps its lower quarter"
        );
        // Work on the migrated layers waits on both rows until the arrival.
        for node in [0, 3] {
            let item = WorkItem {
                request: 9,
                hop: Hop::decode(0, 0),
                layers,
                prefix: None,
            };
            let row = engine(&mut actuator, node);
            row.enqueue(item);
            assert!(row.try_start_batch(2.5).is_none(), "node {node} is frozen");
            assert!(row.try_start_batch(3.0).is_some(), "node {node} thawed");
        }
    }

    /// The simulator's tie order: a completion's forwards are pushed before
    /// the completion entry of the batch the row starts next, so at equal
    /// times the forwarded work pops first.  A batch that takes time leaves
    /// nothing but its entry, and a busy row starts no second batch.
    #[test]
    fn a_completions_forwards_are_pushed_before_the_next_batchs_entry() {
        let (mut control, _) = plane();
        let mut actuator = Actuator::new(control.fleet(), 1, true);
        let flight = admit(&mut control, &mut actuator, 1);
        let slot = actuator.requests.slot(1).unwrap();
        let (node, model, item) = actuator.requests.land(Hop::decode(slot, 0)).unwrap();
        let next = flight.pipeline.stages[1].node;
        let mut wire = Recorder::default();
        actuator.rows.get_mut(node, model).unwrap().enqueue(item);
        actuator.start(&mut wire, node, model, 0.0);
        let [Sent::Completes(at, row)] = wire.0[..] else {
            panic!("one completion entry, got {:?}", wire.0);
        };
        assert!(at > 0.0 && row == (node, model));
        // Work landing meanwhile queues behind the running batch.
        actuator.rows.get_mut(node, model).unwrap().enqueue(item);
        actuator.start(&mut wire, node, model, at / 2.0);
        assert_eq!(wire.0.len(), 1, "no second batch");

        wire.0.clear();
        actuator.complete(&mut wire, node, model, at);
        actuator.start(&mut wire, node, model, at);
        let forwarded = Hop {
            stage: 1,
            ..item.hop
        };
        let link = (Some(node), Some(next));
        let [Sent::Hop(sent, to, hop), Sent::Completes(due, row)] = wire.0[..] else {
            panic!("the forward, then the next entry; got {:?}", wire.0);
        };
        assert_eq!((sent, to, hop, row), (at, link, forwarded, (node, model)));
        assert!(due > at);
    }

    /// A batch of zero duration (a row without a cost model) completes
    /// inside `start`: its items leave at `now`, nothing is queued for it,
    /// and it is counted once — a later completion finds nothing.
    #[test]
    fn a_zero_duration_batch_completes_inside_start_and_counts_once() {
        let (mut control, mut actuator) = plane();
        let flight = admit(&mut control, &mut actuator, 1);
        let slot = actuator.requests.slot(1).unwrap();
        let (node, model, item) = actuator.requests.land(Hop::decode(slot, 0)).unwrap();
        let next = flight.pipeline.stages[1].node;
        actuator.rows.get_mut(node, model).unwrap().enqueue(item);

        let mut wire = Recorder::default();
        actuator.start(&mut wire, node, model, 2.0);
        let forwarded = Hop {
            stage: 1,
            ..item.hop
        };
        let link = (Some(node), Some(next));
        assert_eq!(wire.0, [Sent::Hop(2.0, link, forwarded)]);
        let counted = BatchTotals {
            batches: 1,
            prompt_tokens: 0,
            decode_tokens: 1,
        };
        let row = actuator.rows.get(node, model).unwrap();
        assert!(!row.is_busy());
        assert_eq!(row.totals(), counted);
        actuator.complete(&mut wire, node, model, 3.0);
        assert_eq!(wire.0.len(), 1, "nothing more leaves");
        assert_eq!(actuator.rows.get(node, model).unwrap().totals(), counted);
    }
}
