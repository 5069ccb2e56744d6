//! Prototype serving runtime for Helix.
//!
//! The paper evaluates two artefacts: a prototype system (vLLM workers plus a
//! ZeroMQ control plane, §6.1) and a discrete-event simulator.  The
//! [`helix-sim`](https://docs.rs/helix-sim) crate reproduces the simulator;
//! this crate reproduces the *prototype's architecture* (Fig. 3) — a
//! coordinator, one worker per compute node and the network between them —
//! paced by the wall clock, as **one loop over plain data**:
//!
//! * a **coordinator** that admits requests, asks the configured
//!   [`Scheduler`](helix_core::Scheduler) for a per-request pipeline, tracks
//!   decode iterations and releases KV cache when requests finish
//!   (§5.1–§5.2) — releases, seeds, hand-overs, fail-overs and the token
//!   and batch steps are the simulator's own, the shared
//!   [`helix_core::Actuator`] acting on the rows over the fabric;
//! * one **row per (compute node, model) pair**, in the dense table
//!   the simulator keeps its engines in, running best-effort dynamic
//!   batching over the layers the placement assigned to it, with a paged
//!   KV-cache pool modelled after vLLM's PagedAttention block manager
//!   ([`PagedKvPool`]) — each row *is* a simulator engine
//!   ([`helix_core::NodeEngine`]), fed the simulator's work items: a hop
//!   is resolved against its request's lane where it lands, and the work of
//!   an aborted incarnation is dropped there;
//! * a **network fabric** — the simulator's own wire,
//!   [`helix_core::LinkWire`] — that prices each message on its link
//!   (per-link bandwidth, latency and FIFO queueing taken from the cluster
//!   profile, so congestion on slow links emerges exactly as in the paper's
//!   Fig. 10b case study) and keeps what is in flight in the simulator's
//!   event queue ([`helix_core::Timeline`]), as the four wire events
//!   ([`helix_core::WireEvent`]): a hop reaching its stage, a token reaching
//!   the coordinator, a batch that takes time completing and a KV hand-over
//!   thawing its rows.  The one thing the runtime sets differently is that
//!   a coordinator → row call (a release, a purge, a seed) is a message.
//!
//! The loop belongs to one `helix-dataplane` thread per session, which
//! builds the plane, runs it and assembles the report; even a 500-node fleet
//! is rows of a table, not threads or tasks, and the loop is a plain
//! function — no executor, future or timer.  One turn waits — on the
//! session's `std::sync::mpsc` channel, with the queue's earliest entry as
//! deadline — then
//! applies every delivery and completion that is due (a delivery is a method
//! call on its row), starts the batches of the rows it touched, and, once
//! nothing more is due, lets the coordinator consume what was delivered to
//! it, admit and retry.  The session reaches the loop only through that
//! channel, the completion stream and the thread's join handle; nothing in
//! the data plane polls on an interval.
//!
//! GPU kernels are replaced by a calibrated cost model (the shared
//! [`helix_core::exec_model`]) — the same substitution the paper's own
//! simulator makes — while batching, paging, link queueing and backpressure
//! play out in real time.  Time is virtualised by a scaled clock
//! ([`RuntimeConfig::wall_per_virtual`]) so runs execute faster than real
//! time; all reported latencies and throughputs are in virtual seconds and
//! directly comparable with the simulator's output.
//!
//! The front door is session-oriented: a [`ServingBuilder`] unifies
//! single-model, multi-model and adaptive construction, and the
//! [`ServingSession`] it returns is a *live* handle — non-blocking
//! [`submit`](ServingSession::submit), streaming completions, and one
//! [`schedule`](ServingSession::schedule) for every mid-run
//! [`PerturbationEvent`](helix_core::PerturbationEvent) the simulator takes
//! too: slowdowns and recoveries, node failures and rejoins, region outages,
//! and placement deltas that can add workers for brand-new (node, model)
//! tenancies.  The batch call survives as
//! [`ServingSession::serve`]: submit everything, drain, finish — over the
//! one coordinator loop, which is itself only the runtime *actuator* of the
//! shared [`helix_core::control::ControlPlane`] (every admission, fail-over
//! and re-plan decision is made there, identically for the simulator).
//!
//! # Example: builder → session → report
//!
//! ```rust
//! use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
//! use helix_core::{heuristics, Topology};
//! use helix_runtime::{RuntimeConfig, ServingBuilder};
//! use helix_workload::Request;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = ClusterProfile::analytic(
//!     ClusterSpec::solver_quality_10(),
//!     ModelConfig::llama_30b(),
//! );
//! let placement = heuristics::swarm_placement(&profile)?;
//! // One planning artifact feeds the scheduler and the runtime alike.
//! let topology = Topology::plan(&profile, &placement, true)?;
//!
//! // Builder: IWRR from the max-flow solution is the default scheduler.
//! let mut session = ServingBuilder::new()
//!     .topology(&topology)
//!     .config(RuntimeConfig::fast_test())
//!     .build()?;
//!
//! // Session: non-blocking submission, per-ticket completion.
//! let tickets: Vec<_> = (0..4)
//!     .map(|i| {
//!         session.submit(Request {
//!             id: i,
//!             prompt_tokens: 64,
//!             output_tokens: 4,
//!             arrival_time: 0.0,
//!             ..Request::default()
//!         })
//!     })
//!     .collect();
//! let first = session.wait_completion(tickets[0])?;
//! assert_eq!(first.output_tokens, 4);
//!
//! // Report: drain the rest and shut the data plane down.
//! session.drain()?;
//! let report = session.finish()?;
//! assert_eq!(report.completed(), 4);
//! assert!(report.decode_throughput() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod builder;
mod clock;
mod coordinator;
mod error;
mod fabric;
mod metrics;
mod registry;
mod runtime;
mod session;

pub use builder::ServingBuilder;
pub use error::RuntimeError;
// The paged KV pool is the shared engine's residency table.
pub use helix_core::engine::{KvPoolError, PagedKvPool};
/// Which phase of auto-regressive generation a work item belongs to (the
/// shared execution-model type).
pub use helix_core::exec_model::Phase;
pub use metrics::{LinkReport, NodeReport, RequestOutcome, RuntimeReport};
pub use runtime::{ExecutionKind, RuntimeConfig};
pub use session::ServingSession;

// The ticket type is defined next to `Request` so every serving surface
// (runtime and simulator) shares it; re-exported here for convenience.
pub use helix_workload::TicketId;
