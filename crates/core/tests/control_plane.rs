//! Invariants of the serving control logic, checked against
//! [`ControlPlane`] directly: random interleavings of admit / token / finish
//! / `fail_nodes` / `rejoin` / `replan` over a small redundant fleet with a
//! toy `ClusterState`.  No execution surface is started — whatever holds
//! here holds for the simulator and the runtime alike, because both only
//! actuate what these calls return.

use helix_cluster::{ClusterBuilder, GpuType, ModelConfig, ModelId, NodeId, PrefixId, Region};
use helix_core::fleet::fleet_profiles;
use helix_core::{
    Admission, ClusterState, ControlPlane, FleetPlacement, FleetScheduler, FleetTopology,
    LayerRange, ModelPlacement, PlacementDelta, ReplanReason, ReplicationPolicy,
};
use helix_workload::Request;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const NODES: usize = 6;
const PREFIXES: u64 = 3;

/// Model 0 runs in two stages, each held by three nodes: even nodes the
/// bottom half, odd nodes the top half.  Any node can fail and its stage
/// keeps two replicas, which are also its replication standbys.  Model 1
/// lives on node 0 alone and takes no traffic here: it makes *removing*
/// node 0 infeasible for the fleet, so after node 0 fails the old plan keeps
/// serving and model 0's scheduler keeps offering pipelines through the
/// hole — the case the dead-node guard exists for.
fn control_plane() -> ControlPlane {
    let cluster = ClusterBuilder::new("control-6")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, NODES, 1, Region(0))
        .build();
    let models = [ModelConfig::llama_13b(), ModelConfig::llama_13b()];
    let profiles = fleet_profiles(&cluster, &models);
    let layers = models[0].num_layers;
    let half = layers / 2;
    let mut redundant = ModelPlacement::empty(NODES);
    for n in 0..NODES {
        let range = match n % 2 {
            0 => LayerRange::new(0, half),
            _ => LayerRange::new(half, layers),
        };
        redundant.assign(NodeId(n), range);
    }
    let mut solitary = ModelPlacement::empty(NODES);
    solitary.assign(NodeId(0), LayerRange::new(0, layers));
    let placement = FleetPlacement::new(vec![redundant, solitary]);
    let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
    let schedulers = FleetScheduler::iwrr(&fleet).unwrap().into_parts();
    let mut control = ControlPlane::new(fleet, schedulers);
    control.set_replication(ReplicationPolicy::rf2(2, 1));
    control
}

/// KV pressure grows with the pipelines in flight through a node, so busy
/// nodes get masked (deferrals) and busy prefix homes get bypassed.
struct ToyState(BTreeMap<NodeId, f64>);

impl ToyState {
    fn of(control: &ControlPlane) -> Self {
        let mut used = BTreeMap::new();
        for flight in control.flights() {
            for stage in &flight.pipeline.stages {
                *used.entry(stage.node).or_insert(0.0) += 250.0;
            }
        }
        ToyState(used)
    }
}

impl ClusterState for ToyState {
    fn queue_len(&self, _node: NodeId) -> usize {
        0
    }
    fn recent_throughput(&self, _node: NodeId) -> f64 {
        0.0
    }
    fn kv_used_tokens(&self, node: NodeId) -> f64 {
        self.0.get(&node).copied().unwrap_or(0.0)
    }
    fn kv_capacity_tokens(&self, _node: NodeId) -> f64 {
        1000.0
    }
}

/// The harness's own books, compared with the control plane's after every
/// step.
struct Harness {
    control: ControlPlane,
    submitted: BTreeMap<u64, Request>,
    /// Deferred or stranded: awaiting (re-)admission.
    waiting: Vec<u64>,
    completed: BTreeSet<u64>,
    /// Epochs that were once live for a request and no longer are.
    stale: Vec<(u64, u64)>,
    now: f64,
}

impl Harness {
    /// Tries to admit `id`; a deferral parks it in `waiting`.
    fn admit(&mut self, id: u64) -> Result<(), TestCaseError> {
        let request = self.submitted[&id];
        let state = ToyState::of(&self.control);
        match self.control.admit(&request, &state).unwrap() {
            Admission::Dispatch(dispatch) => {
                for stage in &dispatch.pipeline.stages {
                    prop_assert!(
                        !self.control.failed().contains(&stage.node),
                        "request {id} dispatched across failed node {:?}",
                        stage.node
                    );
                }
                prop_assert!(dispatch.pipeline.covers_model(40));
                prop_assert!(dispatch.prefill_tokens >= 1);
                let flight = self.control.flight(id).expect("dispatched => in flight");
                prop_assert_eq!(flight.epoch, dispatch.epoch);
                prop_assert_eq!(flight.generated, dispatch.generated);
            }
            Admission::Defer => self.waiting.push(id),
        }
        Ok(())
    }

    /// Delivers one output token of in-flight request `id`.
    fn token(&mut self, id: u64) -> Result<(), TestCaseError> {
        let flight = self
            .control
            .flight(id)
            .expect("caller picked an in-flight id");
        let (epoch, before) = (flight.epoch, flight.generated);
        self.now += 0.01;
        let progress = self.control.on_token(id, epoch, self.now);
        let progress = progress.expect("a live epoch is never stale");
        prop_assert_eq!(progress.first, before == 0);
        if progress.finished {
            let flight = self.control.finish(id).expect("finished => was in flight");
            prop_assert_eq!(flight.generated, flight.request.output_tokens.max(1));
            self.completed.insert(id);
        }
        Ok(())
    }

    fn fail(&mut self, node: NodeId) {
        let reason = ReplanReason::NodeFailure { node };
        let failover = self
            .control
            .fail_nodes(&[node], reason, self.now, &|_, _| true);
        for flight in failover.stranded {
            self.stale.push((flight.request.id, flight.epoch));
            self.waiting.push(flight.request.id);
        }
    }

    /// Whether `node`'s stage keeps a live, planned replica without it.
    fn stage_survives_without(&self, node: NodeId) -> bool {
        let topology = self.control.fleet().model(ModelId(0)).unwrap();
        let serving = |n: NodeId| topology.node(n).is_some() && !self.control.failed().contains(&n);
        (0..NODES)
            .map(NodeId)
            .any(|n| n.0 % 2 == node.0 % 2 && n != node && serving(n))
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for &id in self.submitted.keys() {
            let places = usize::from(self.control.flight(id).is_some())
                + usize::from(self.completed.contains(&id))
                + self.waiting.iter().filter(|&&w| w == id).count();
            prop_assert!(places == 1, "request {id} is in {places} places");
        }
        let live = self.submitted.len() - self.completed.len() - self.waiting.len();
        prop_assert_eq!(self.control.in_flight_len(), live);
        for flight in self.control.flights() {
            for stage in &flight.pipeline.stages {
                prop_assert!(!self.control.failed().contains(&stage.node));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn control_plane_invariants_hold_under_random_interleavings(
        ops in prop::collection::vec((0u8..12, 0usize..1000), 20..90),
    ) {
        let mut h = Harness {
            control: control_plane(),
            submitted: BTreeMap::new(),
            waiting: Vec::new(),
            completed: BTreeSet::new(),
            stale: Vec::new(),
            now: 0.0,
        };
        for (op, arg) in ops {
            let in_flight: Vec<u64> = {
                let mut ids: Vec<u64> = h.control.flights().map(|f| f.request.id).collect();
                ids.sort_unstable();
                ids
            };
            match op {
                // Submit a new request (two in three share a prefix).
                0..=2 => {
                    let id = h.submitted.len() as u64;
                    let prefix = (arg % 3 != 0).then_some(PrefixId(arg as u64 % PREFIXES));
                    let request = Request {
                        id,
                        prompt_tokens: 8 + arg % 24,
                        output_tokens: arg % 5,
                        model: ModelId(0),
                        prefix,
                        prefix_tokens: prefix.map_or(0, |_| 4),
                        ..Request::default()
                    };
                    h.submitted.insert(id, request);
                    h.admit(id)?;
                }
                // Retry a deferred or stranded request.
                3 | 4 if !h.waiting.is_empty() => {
                    let id = h.waiting.remove(arg % h.waiting.len());
                    h.admit(id)?;
                }
                // An output token arrives.
                5..=8 if !in_flight.is_empty() => h.token(in_flight[arg % in_flight.len()])?,
                // A token of a dead incarnation arrives and must be dropped.
                9 if !h.stale.is_empty() => {
                    let (id, epoch) = h.stale[arg % h.stale.len()];
                    prop_assert!(h.control.on_token(id, epoch, h.now).is_none());
                }
                // A node fails (never the last replica of its stage) or, if
                // it is down already, rejoins.
                10 => {
                    let node = NodeId(arg % NODES);
                    if h.control.failed().contains(&node) {
                        h.control.rejoin(node, h.now);
                    } else if h.stage_survives_without(node) {
                        h.fail(node);
                    }
                }
                // An operator re-plan: drop a live replica's layers, or a
                // no-op delta that only re-derives the plan.
                11 => {
                    let node = NodeId(arg % NODES);
                    let mut delta = PlacementDelta::new();
                    if arg % 2 == 0 && h.stage_survives_without(node) {
                        delta = delta.remove(ModelId(0), node);
                    }
                    h.control.replan(&delta, None, ReplanReason::Manual, h.now);
                }
                _ => {}
            }
            h.check()?;
        }

        // Quiescence: everything submitted completes (each stage kept a live
        // replica, and KV pressure falls as requests finish).
        for _ in 0..10_000 {
            if h.completed.len() == h.submitted.len() {
                break;
            }
            for id in std::mem::take(&mut h.waiting) {
                h.admit(id)?;
            }
            let mut ids: Vec<u64> = h.control.flights().map(|f| f.request.id).collect();
            ids.sort_unstable();
            for id in ids {
                h.token(id)?;
            }
            h.check()?;
        }
        prop_assert!(
            h.completed.len() == h.submitted.len(),
            "only {} of {} requests completed",
            h.completed.len(),
            h.submitted.len()
        );
        prop_assert_eq!(h.control.in_flight_len(), 0);
        prop_assert!(h.control.replica_tracker().tracked().is_empty());
        let router = h.control.prefix_router(ModelId(0)).unwrap();
        for p in 0..PREFIXES {
            prop_assert!(
                router.home_of(PrefixId(p)).is_none(),
                "prefix {p} still holds a reference at quiescence"
            );
        }
        for record in h.control.logs().failovers {
            prop_assert!(record.tokens_recomputed <= record.abort_recompute_tokens);
            prop_assert!(record.promoted.iter().all(|id| !record.aborted.contains(id)));
            let stranded = record.promoted.len() + record.aborted.len();
            prop_assert!(record.replica_tokens_used == 0 || !record.promoted.is_empty());
            prop_assert!(stranded > 0 || record.abort_recompute_tokens == 0);
        }
    }
}
