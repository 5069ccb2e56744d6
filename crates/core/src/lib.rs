//! Helix core: max-flow model placement and per-request pipeline scheduling.
//!
//! This crate implements the paper's primary contribution (§4–§5):
//!
//! * [`ModelPlacement`] — an assignment of a contiguous layer range to every
//!   compute node, with validation.
//! * [`FlowGraphBuilder`] / [`PlacementFlowGraph`] — the graph abstraction of
//!   a cluster under a given placement (§4.3): every compute node becomes a
//!   `c_in → c_out` edge whose capacity is the node's token throughput, every
//!   valid network connection becomes an edge whose capacity is the link's
//!   token throughput, and the max flow from source to sink equals the
//!   cluster's maximum serving throughput.
//! * [`Topology`] — the typed planning artifact produced once from a
//!   placement (surviving connections, per-edge capacities, max-flow
//!   solution, per-node layer ranges) and consumed by the scheduler, the
//!   simulator and the prototype runtime alike.
//! * [`exec_model`] — the execution cost model (batching formula, prompt vs
//!   decode token costs, KV-overflow penalty) shared by the simulator and
//!   the runtime so the two can never drift apart.
//! * [`engine`] — the per-node worker of §5.1–§5.2 once: [`NodeEngine`]
//!   (batching, layer-range freezes, the KV-overflow decision, its cost
//!   model) over the [`PagedKvPool`] residency table — the simulator's
//!   engines and the runtime's rows are both a `NodeEngine` fed
//!   [`WorkItem`]s.  [`lane`] is the request table
//!   a 24-byte [`Hop`] is resolved against, stale work dropped by slot and
//!   epoch; [`LinkQueue`] is the FIFO link model the surfaces likewise share,
//!   [`LinkWire`] the one wire both act through — links in a dense table, a
//!   [`Timeline`] of what is in flight — and [`PairTable`] the dense
//!   `model × node` table both keep their rows in.
//! * [`MilpPlacementPlanner`] — the MILP formulation of §4.4 (Tables 5–6)
//!   with optional partial inference, cluster pruning, heuristic warm starts
//!   and the early-stop upper bound of §4.5.
//! * [`heuristics`] — the baseline placement strategies the paper compares
//!   against: Swarm-style balanced stages, Petals-style greedy assignment and
//!   separate per-GPU-type pipelines, plus a flow-guided simulated-annealing
//!   refiner used for large clusters where exact MILP solving is impractical.
//! * [`PartitionedPlanner`] — the §4.5 scale-out path: partition very large
//!   clusters into region-respecting groups that each hold a model replica
//!   and plan every group independently.
//! * [`IwrrScheduler`] — the per-request pipeline scheduler of §5.1:
//!   interleaved weighted round-robin over the topology graph with weights
//!   taken from the max-flow solution, plus the KV-cache high-water masking
//!   of §5.2.
//! * [`fleet`] — the multi-model generalisation: [`FleetPlacement`] /
//!   [`FleetTopology`] split shared-node compute and KV capacity (and
//!   fleet-shared link capacity) between co-located models,
//!   [`FleetScheduler`] routes per-model IWRR pipelines and
//!   [`FleetAnnealingPlanner`] searches all models jointly (cross-model
//!   node moves over warm-started flow evaluators).  A one-model fleet is
//!   bit-identical to the single-model pipeline.
//! * [`replan`] — the feedback half of online re-planning: measured
//!   [`NodeObservations`] that override the analytic compute shares, sparse
//!   [`PlacementDelta`]s, and the [`ReplanPolicy`] both execution surfaces
//!   share.  [`FleetTopology::replan`] applies them with one
//!   [`FleetTopology::plan_observed`] of the mutated placement and names the
//!   models the change affects.
//! * [`control`] — the one coordinator of the paper's Fig. 3:
//!   [`ControlPlane`] owns the standing fleet plan, schedulers, prefix
//!   routers, replication, fail-over and re-plan state and makes every
//!   admission / progress / fail-over / re-plan decision once; the simulator
//!   and the runtime are its two surfaces.
//! * [`actuator`] — what both surfaces do with those decisions, once:
//!   [`Actuator`] plans the engine rows, hands KV over, releases and purges
//!   it, fails nodes over, dispatches, and takes the token and batch
//!   steps; a surface supplies only its [`Wire`] (how bytes move).
//! * [`obs`] — what both surfaces report in one shape ([`LatencyStats`]).
//! * [`scheduling`] — baseline schedulers (Swarm throughput-proportional,
//!   random, shortest-queue-first) used in the §6.7 scheduling deep dive.
//!
//! # Quick start
//!
//! ```rust
//! use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
//! use helix_core::{heuristics, IdleClusterState, IwrrScheduler, Scheduler, Topology};
//!
//! let profile = ClusterProfile::analytic(
//!     ClusterSpec::solver_quality_10(),
//!     ModelConfig::llama_30b(),
//! );
//! // A quick heuristic placement (the MILP planner would refine this).
//! let placement = heuristics::swarm_placement(&profile).unwrap();
//! // Plan once: the Topology holds the surviving connections, capacities
//! // and the max-flow solution, and every downstream surface consumes it.
//! let topology = Topology::plan(&profile, &placement, true).unwrap();
//! assert!(topology.flow_value() > 0.0);
//! let mut scheduler = IwrrScheduler::from_topology(&topology).unwrap();
//! let pipeline = scheduler.schedule(&IdleClusterState).unwrap();
//! assert!(!pipeline.stages.is_empty());
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod actuator;
pub mod control;
pub mod engine;
pub mod error;
pub mod event;
pub mod exec_model;
pub mod fleet;
pub mod flow_graph;
pub mod ha;
pub mod lane;
pub mod link;
pub mod obs;
pub mod pair_table;
pub mod placement;
pub mod region;
pub mod replan;
pub mod scheduling;
pub mod topology;

pub use actuator::{Actuator, RowView, Token, Wire};
pub use control::{
    Admission, ControlLogs, ControlPlane, Dispatch, Failover, InFlight, ReplicaChunk, TokenProgress,
};
pub use engine::{BatchTotals, KvPoolError, NodeEngine, PagedKvPool, WorkItem};
pub use error::{HelixError, NoCandidateReason};
pub use event::Timeline;
pub use exec_model::{ExecModel, Phase, WorkUnit};
pub use fleet::{
    fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner, FleetPlacement, FleetScheduler,
    FleetTopology,
};
pub use flow_graph::{Endpoint, FlowGraphBuilder, PlacementFlowGraph};
pub use ha::{
    select_standby, FailoverRecord, ReplicaTracker, ReplicationPolicy, ReplicationStats,
    REPLICA_CHUNK_PAGES,
};
pub use lane::{Hop, Lane, RequestTable};
pub use link::{LinkKey, LinkQueue, LinkWire, RowKey, WireEvent};
pub use obs::LatencyStats;
pub use pair_table::PairTable;
pub use placement::heuristics;
pub use placement::hierarchical::{
    HierarchicalFleetPlanner, HierarchicalOptions, HierarchicalPlan,
};
pub use placement::incremental::IncrementalFlowEvaluator;
pub use placement::milp::{MilpPlacementPlanner, MilpPlannerReport, PlannerOptions};
pub use placement::partition::{
    Partition, PartitionOptions, PartitionPlan, PartitionedPlanner, Pod, PodMap,
    PodPartitionOptions, PodPartitioner,
};
pub use placement::refine::{AnnealingOptions, FlowAnnealingPlanner};
pub use placement::{LayerRange, ModelPlacement};
pub use region::{RegionRing, RingOptions};
pub use replan::{
    EngineCounters, KvMigration, KvTransferModel, KvTransferRecord, NodeObservation,
    NodeObservations, ObservationWindows, PerturbationEvent, PlacementDelta, ReplanOutcome,
    ReplanPolicy, ReplanReason, ReplanRecord,
};
pub use scheduling::iwrr::IwrrScheduler;
pub use scheduling::kv_estimate::KvCacheEstimator;
pub use scheduling::prefix::{PrefixRoute, PrefixRouter, PrefixStats, PrefixWork};
pub use scheduling::{
    scheduler_of_kind, ClusterState, IdleClusterState, PipelineStage, RandomScheduler,
    RequestPipeline, Scheduler, SchedulerKind, ShortestQueueScheduler, SwarmScheduler,
};
pub use topology::{Topology, TopologyLink, TopologyNode};
