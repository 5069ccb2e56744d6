//! Async prototype serving runtime for Helix.
//!
//! The paper evaluates two artefacts: a prototype system (vLLM workers plus a
//! ZeroMQ control plane, §6.1) and a discrete-event simulator.  The
//! [`helix-sim`](https://docs.rs/helix-sim) crate reproduces the simulator;
//! this crate reproduces the *prototype's architecture* (Fig. 3) as a real
//! concurrent system of async tasks on a vendored single-threaded executor
//! (`minirt`):
//!
//! * a **coordinator task** that admits requests, asks the configured
//!   [`Scheduler`](helix_core::Scheduler) for a per-request pipeline, tracks
//!   decode iterations and releases KV cache when requests finish
//!   (§5.1–§5.2);
//! * one **worker task per (compute node, model) pair** running best-effort
//!   dynamic batching over the layers the placement assigned to it, with a
//!   paged KV-cache pool modelled after vLLM's PagedAttention block manager
//!   ([`PagedKvPool`]) — batching and pool are [`helix_core::engine`], the
//!   same code the simulator's engines run;
//! * a **network fabric** that senders push messages into — it prices each
//!   on its link (per-link bandwidth, latency and FIFO queueing taken from
//!   the cluster profile, so congestion on slow links emerges exactly as in
//!   the paper's Fig. 10b case study) — and whose one pump task, woken by a
//!   timer, hands over what is due.
//!
//! Because workers are tasks rather than OS threads, the whole data plane —
//! even a 500-node fleet — is built, driven and torn down by one
//! `helix-dataplane` thread per session, and its state (executor, worker
//! registry, statistics, link counters) is `Rc` / `RefCell` data that cannot
//! leave that thread; the session reaches it only through the coordinator's
//! inbound channel, the completion stream and the thread's join handle.
//! Every wait is waker-based (channel wakers and virtual-time timers);
//! nothing in the data plane polls on an interval.
//!
//! GPU kernels are replaced by a calibrated cost model ([`AnalyticExecution`])
//! — the same substitution the paper's own simulator makes — while every other
//! part of the system (tasks, channels, batching, paging, backpressure) is
//! real.  Time is virtualised by a [`VirtualClock`] so runs execute faster
//! than real time; all reported latencies and throughputs are in virtual
//! seconds and directly comparable with the simulator's output.
//!
//! The front door is session-oriented: a [`ServingBuilder`] unifies
//! single-model, multi-model and adaptive construction, and the
//! [`ServingSession`] it returns is a *live* handle — non-blocking
//! [`submit`](ServingSession::submit), streaming completions, mid-run speed
//! injection and placement deltas that can spawn workers for brand-new
//! (node, model) tenancies.  The batch call survives as
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

mod builder;
mod clock;
mod coordinator;
mod error;
mod exec;
mod fabric;
mod message;
mod metrics;
mod registry;
mod runtime;
mod session;
mod worker;

pub use builder::ServingBuilder;
pub use clock::VirtualClock;
pub use error::RuntimeError;
pub use exec::{AnalyticExecution, ExecutionModel, InstantExecution};
pub use helix_core::LinkKey;
// The paged KV pool is the shared engine core's residency table.
pub use helix_core::engine::{KvPoolError, PagedKvPool};
pub use message::{Envelope, Phase, PlanUpdate, RuntimeMsg, StageWork};
pub use metrics::{LatencySummary, LinkReport, NodeReport, RequestOutcome, RuntimeReport};
pub use runtime::{ExecutionKind, RuntimeConfig};
pub use session::ServingSession;
pub use worker::WorkerStats;

// The ticket type is defined next to `Request` so every serving surface
// (runtime and simulator) shares it; re-exported here for convenience.
pub use helix_workload::TicketId;
