//! Helix — serving large language models over heterogeneous GPUs and
//! networks via max-flow (ASPLOS '25 reproduction).
//!
//! This facade crate re-exports the whole workspace so applications can use a
//! single dependency:
//!
//! * [`cluster`] — GPU/model/cluster specifications and analytic profiling.
//! * [`maxflow`] — flow networks and maximum-flow algorithms.
//! * [`milp`] — the LP/MILP solver used by the placement planner.
//! * [`core`] — model placement (MILP + heuristics + annealing) and
//!   per-request pipeline scheduling (IWRR + baselines).
//! * [`sim`] — the discrete-event serving simulator.
//! * [`runtime`] — the wall-clock-paced prototype serving runtime: one loop
//!   over a coordinator, a table of per-node workers with paged KV pools and
//!   a network fabric.
//! * [`workload`] — synthetic Azure-Conversation-style workloads.
//! * [`front`] — the [`ServingFrontEnd`](front::ServingFrontEnd) trait: one
//!   submit → drain → finish surface over the runtime's `ServingSession`
//!   and the simulator's `SimSession`.
//! * [`region`] — the front tier: a
//!   [`MultiRegionSession`](region::MultiRegionSession) routes requests
//!   across a fleet of regional fleets by region tag, then by a
//!   consistent-hash ring keyed by shared prefix or request id; a region
//!   marked down leaves the ring and spills its buffered requests.
//!
//! # Quick start
//!
//! ```rust
//! use helix::prelude::*;
//!
//! // 1. Describe the cluster and the model (the paper's 10-node study cluster).
//! let profile = ClusterProfile::analytic(
//!     ClusterSpec::solver_quality_10(),
//!     ModelConfig::llama_30b(),
//! );
//!
//! // 2. Plan a model placement that maximises the cluster's max-flow throughput.
//! let planner = FlowAnnealingPlanner::new(&profile)
//!     .with_options(AnnealingOptions { iterations: 400, ..Default::default() });
//! let (placement, throughput) = planner.solve().unwrap();
//! assert!(throughput > 0.0);
//!
//! // 3. Materialise the shared Topology artifact and build Helix's IWRR
//! //    scheduler from its max-flow solution.
//! let topology = Topology::plan(&profile, &placement, true).unwrap();
//! let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
//!
//! // 4. Simulate serving a workload and read the metrics the paper reports.
//! let workload = Workload::azure_like(50, 1).with_arrivals(ArrivalPattern::Offline, 2);
//! let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
//! let report = SimSession::new(sim, SimulationConfig::offline(60.0)).serve(&workload);
//! let metrics = report.metrics.overall;
//! println!("decode throughput: {:.1} tokens/s", metrics.decode_throughput());
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use helix_cluster as cluster;
pub use helix_core as core;
pub use helix_maxflow as maxflow;
pub use helix_milp as milp;
pub use helix_runtime as runtime;
pub use helix_sim as sim;
pub use helix_workload as workload;

pub mod front;
pub mod region;

/// One-stop imports for typical Helix usage.
pub mod prelude {
    pub use crate::front::ServingFrontEnd;
    pub use crate::region::{
        FrontTierStats, MultiRegionReport, MultiRegionSession, RegionReport, ReportTotals,
    };
    pub use helix_cluster::{
        ClusterBuilder, ClusterProfile, ClusterSpec, ComputeNode, GpuSpec, GpuType, ModelConfig,
        ModelId, NetworkLink, NodeId, PrefixId, Region,
    };
    pub use helix_core::{
        fleet_profiles, heuristics, AnnealingOptions, Endpoint, FailoverRecord,
        FleetAnnealingOptions, FleetAnnealingPlanner, FleetPlacement, FleetScheduler,
        FleetTopology, FlowAnnealingPlanner, FlowGraphBuilder, HelixError, IwrrScheduler,
        KvCacheEstimator, LayerRange, MilpPlacementPlanner, MilpPlannerReport, ModelPlacement,
        PerturbationEvent, PipelineStage, PlacementDelta, PlacementFlowGraph, PlannerOptions,
        PrefixStats, RandomScheduler, RegionRing, ReplicationPolicy, ReplicationStats,
        RequestPipeline, RingOptions, Scheduler, SchedulerKind, ShortestQueueScheduler,
        SwarmScheduler, Topology,
    };
    pub use helix_maxflow::{FlowNetwork, MaxFlowAlgorithm};
    pub use helix_milp::{MilpSolver, Model, ObjectiveSense, Sense, VarType};
    pub use helix_runtime::{RuntimeConfig, RuntimeReport, ServingBuilder, ServingSession};
    pub use helix_sim::{
        ClusterSimulator, CompletionRecord, FleetMetrics, FleetRunReport, Metrics, SimSession,
        SimulationConfig,
    };
    pub use helix_workload::{
        ArrivalPattern, AzureTraceConfig, Request, TicketId, TraceError, Workload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let cluster = ClusterSpec::fig2_example();
        assert_eq!(cluster.num_nodes(), 3);
        let model = ModelConfig::llama_30b();
        assert_eq!(model.num_layers, 60);
    }
}
