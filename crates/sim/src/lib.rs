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
//! # How the event loop is laid out
//!
//! One pipeline hop costs array indexing and one small heap operation;
//! nothing is hashed per hop.
//!
//! * **Tables.**  `NodeId` and `ModelId` are dense indices: engines sit in
//!   the `helix_core::PairTable` the runtime keeps its workers in, link
//!   queues in first-use order behind a `(num_nodes + 1)²` table of slots
//!   (the coordinator is row and column 0).  Every walk over them has one fixed order, so identical runs
//!   report identically, the order of tied `link_stats` included.
//! * **Requests.**  A run turns its workload into a request table — one
//!   slot per distinct id, found through an id → slot map once per arrival
//!   or admission — and keeps one *lane* per slot: the admitted
//!   incarnation's epoch, pipeline and prefix.
//! * **What a hop carries.**  [`Event::NodeArrival`] is a 24-byte [`Hop`]:
//!   epoch, slot, tokens, stage index, phase.  The node, layers, model,
//!   request id and prefix are read from the lane when the hop lands, and
//!   the engine's work item is built there.
//! * **The arrival rule.**  The workload's arrivals are a cursor over a
//!   stable time-sorted list, merged with the [`EventQueue`] at pop: the
//!   cursor goes first when its arrival is due no later than the queue's
//!   head — the order one queue would give with the arrivals pushed first.
//!   Deferred and re-submitted arrivals do go through the queue.  The queue
//!   orders by `f64::total_cmp` on `time + 0.0`, then push order.
//! * **Who invalidates a lane.**  A lane is written at dispatch and cleared
//!   exactly where the control plane drops the flight: at the request's last
//!   token and for every pipeline a fail-over strands.  Slots are never
//!   reused within a run, so stale hops and tokens meet an empty lane or a
//!   newer epoch and are dropped.
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
pub use event::{Event, EventQueue, Hop, PerturbationEvent, SimTime};
// The link model lives beside the engine core; the runtime's fabric uses it too.
pub use helix_core::LinkQueue;
pub use metrics::{IntervalMetrics, LatencyStats, LinkStats, Metrics};
pub use session::SimSession;
pub use simulator::{
    ClusterSimulator, CompletionRecord, FleetMetrics, FleetRunReport, SimulationConfig,
};
