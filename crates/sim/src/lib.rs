//! Discrete-event simulator for distributed LLM serving over heterogeneous
//! GPUs and networks.
//!
//! The paper's evaluation relies on a 14k-LoC Python simulator validated to
//! within 5% of the real prototype (§6.1); the geo-distributed and
//! high-heterogeneity experiments (Figs. 7–8) and parts of the deep dives run
//! entirely in simulation.  This crate is the Rust counterpart: it replays a
//! workload against a cluster profile, a model placement and a scheduler, and
//! reports the same metrics the paper reports — decode throughput, prompt
//! latency and decode latency.
//!
//! The simulated mechanics mirror the prototype described in §5 and §6.1:
//!
//! * the coordinator assigns each arriving request a per-request pipeline by
//!   calling the configured [`Scheduler`](helix_core::Scheduler) — through
//!   the shared [`helix_core::control::ControlPlane`], the same decision
//!   code the runtime executes, so the simulator preserves the runtime's
//!   admission, replication, fail-over and re-plan behaviour by construction;
//! * every compute node runs best-effort dynamic batching: a batch starts as
//!   soon as the node is idle and includes everything that arrived while the
//!   previous batch was executing;
//! * prompt and decode phases have different per-token costs (prompt is
//!   compute-bound, decode memory-bound), with all costs coming from the
//!   shared [`helix_core::exec_model`] — the same model the prototype
//!   runtime executes against, so the two can never drift;
//! * network links are FIFO queues with finite bandwidth and latency, so slow
//!   links can and do congest (§6.7's case study);
//! * each node's KV cache is finite; exceeding it forces (simulated)
//!   offloading which slows the node down drastically (§5.2);
//! * decode iterations for a request reuse the pipeline it was assigned on
//!   arrival, exactly as in the paper's runtime.
//!
//! # Example
//!
//! ```rust
//! use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
//! use helix_core::{heuristics, IwrrScheduler, Topology};
//! use helix_sim::{ClusterSimulator, SimulationConfig};
//! use helix_workload::{ArrivalPattern, Workload};
//!
//! let profile = ClusterProfile::analytic(
//!     ClusterSpec::solver_quality_10(),
//!     ModelConfig::llama_30b(),
//! );
//! let placement = heuristics::petals_placement(&profile).unwrap();
//! // One planning artifact feeds the scheduler and the simulator alike.
//! let topology = Topology::plan(&profile, &placement, true).unwrap();
//! let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
//! let workload = Workload::azure_like(50, 1).with_arrivals(ArrivalPattern::Offline, 2);
//! let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
//! let metrics = sim.run(&workload, SimulationConfig::offline(60.0));
//! assert!(metrics.decode_throughput() > 0.0);
//! ```

mod engine;
mod event;
mod metrics;
mod session;
mod simulator;

pub use engine::NodeEngine;
pub use event::{Event, EventQueue, PerturbationEvent, SimTime};
// The link model lives beside the engine core; the runtime's fabric uses it too.
pub use helix_core::LinkQueue;
pub use metrics::{IntervalMetrics, LatencyStats, LinkStats, Metrics};
pub use session::SimSession;
pub use simulator::{
    ClusterSimulator, CompletionRecord, FleetMetrics, FleetRunReport, SimulationConfig,
};
