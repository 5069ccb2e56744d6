//! The serving runtime: builds the worker table, the network fabric and the
//! coordinator on the one thread that then runs their loop, and assembles the
//! report when it returns.
//!
//! Construction goes through [`ServingBuilder`](crate::ServingBuilder),
//! which starts the `helix-dataplane` thread on [`run`] and returns the
//! [`ServingSession`](crate::ServingSession) holding the other ends of its
//! channels.

use crate::clock::VirtualClock;
use crate::coordinator::{Coordinator, CoordinatorSpec, SessionControl};
use crate::error::RuntimeError;
use crate::fabric::Fabric;
use crate::metrics::{NodeReport, RequestOutcome, RuntimeReport};
use crate::registry::Workers;
use helix_cluster::ModelId;
use helix_core::{FleetTopology, HelixError, KvCacheEstimator, ReplanPolicy, Scheduler};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// Which execution model the workers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionKind {
    /// Roofline cost model derived from the node profiles (the default).
    #[default]
    Analytic,
    /// Batches complete instantly; useful for functional tests.
    Instant,
}

/// Configuration of a serving run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Wall-clock seconds per virtual second (smaller = faster run).
    pub wall_per_virtual: f64,
    /// Hard wall-clock budget: it bounds each drain (so each `serve` call)
    /// and each completion wait, not idle session time.
    pub max_wall: Duration,
    /// Worker execution model.
    pub execution: ExecutionKind,
}

/// Initial average output length used by the KV estimator (§5.2); the Azure
/// Conversation trace averages 232 output tokens.
const INITIAL_AVG_OUTPUT_TOKENS: f64 = 232.0;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            wall_per_virtual: 0.002,
            max_wall: Duration::from_secs(120),
            execution: ExecutionKind::Analytic,
        }
    }
}

impl RuntimeConfig {
    /// A configuration suited to fast functional tests: instant execution and
    /// an aggressive virtual-time speed-up.
    pub fn fast_test() -> Self {
        RuntimeConfig {
            wall_per_virtual: 0.0002,
            execution: ExecutionKind::Instant,
            max_wall: Duration::from_secs(30),
        }
    }
}

/// What the `helix-dataplane` thread is started with: the plan, and its
/// ends of the channels that cross to the session's thread.  Everything
/// built from it — worker table, fabric, coordinator — is plain data the
/// thread's loop owns.
pub(crate) struct PlaneSpec {
    pub fleet: FleetTopology,
    pub schedulers: Vec<Box<dyn Scheduler>>,
    pub config: RuntimeConfig,
    pub policy: Option<ReplanPolicy>,
    pub clock: VirtualClock,
    /// The session's calls, in call order.
    pub inbound: Receiver<SessionControl>,
    pub completions: Sender<RequestOutcome>,
}

/// What a plane cannot be built from; checked on the caller's thread so
/// `build()` returns the error.
pub(crate) fn validate(
    fleet: &FleetTopology,
    schedulers: &[Box<dyn Scheduler>],
) -> Result<(), RuntimeError> {
    if fleet.num_models() != schedulers.len() {
        return Err(RuntimeError::Scheduling(
            HelixError::SchedulerCountMismatch {
                models: fleet.num_models(),
                schedulers: schedulers.len(),
            },
        ));
    }
    for topology in fleet.topologies() {
        topology
            .placement()
            .validate(topology.profile())
            .map_err(RuntimeError::Scheduling)?;
    }
    Ok(())
}

/// Builds the plane as plain data: one worker row per (assigned node, model)
/// pair — each with its own partition of the node's KV pool — one KV
/// estimator per model, the network fabric, and a coordinator that routes
/// every request to its model's scheduler.
pub(crate) fn build(spec: PlaneSpec) -> Coordinator {
    let (fleet, config, clock) = (spec.fleet, spec.config, spec.clock);
    // Link bandwidth/latency are model-independent; the fabric uses the
    // first model's cluster.
    let cluster = fleet.topologies()[0].profile().cluster();
    let mut workers = Workers::new(cluster.num_nodes(), fleet.num_models(), config.execution);
    let fabric = Fabric::new(cluster.clone(), clock);

    let mut estimators = Vec::with_capacity(fleet.num_models());
    for (m, topology) in fleet.topologies().iter().enumerate() {
        let model = ModelId(m);
        // Workers execute at the analytic contention split (identical to
        // the planning profile when the fleet was planned without
        // observations); measured speed factors re-price planning only.
        let contention = fleet.contention_profile(model);
        let mut estimator = KvCacheEstimator::new(topology.profile(), INITIAL_AVG_OUTPUT_TOKENS);
        for planned in topology.nodes() {
            estimator.set_capacity(planned.node, planned.kv_capacity_tokens);
            workers.plan(
                &contention,
                (planned.node, model),
                &planned.name,
                planned.layers.len(),
                planned.kv_capacity_tokens,
            );
        }
        estimators.push(estimator);
    }

    Coordinator::new(CoordinatorSpec {
        schedulers: spec.schedulers,
        estimators,
        clock,
        inbound: spec.inbound,
        workers,
        fabric,
        max_wall: config.max_wall,
        fleet,
        policy: spec.policy,
        completions: spec.completions,
    })
}

/// The whole life of a data plane, on the thread that owns it: builds it,
/// runs its loop until the session says `Finish` (or is gone), and assembles
/// the final report from the tables as they stand.  The loop returns once no
/// request or injected failure is pending; a hand-over's arrival still
/// queued in the fabric is dropped with it, and the report reads only what
/// was counted at the send (links) or is cumulative (rows) — so there is
/// nothing to shut down or drain.  `wired` is told once the plane is built,
/// so building a session includes it.
pub(crate) fn run(spec: PlaneSpec, wired: Sender<()>) -> Result<RuntimeReport, RuntimeError> {
    let clock = spec.clock;
    let mut coordinator = build(spec);
    let _ = wired.send(());
    let outcome = coordinator.run_live();
    let (control, kv_transfers) = coordinator.take_logs();

    let outcomes = outcome?;
    let makespan = {
        let first_arrival = outcomes
            .iter()
            .map(|o| o.arrival)
            .fold(f64::INFINITY, f64::min);
        let first_arrival = if first_arrival.is_finite() {
            first_arrival
        } else {
            0.0
        };
        let last_completion = outcomes
            .iter()
            .map(|o| o.completed_at)
            .fold(0.0_f64, f64::max);
        (last_completion - first_arrival).max(0.0)
    };

    let rows = coordinator.workers.rows().into_iter();
    let nodes = rows
        .map(|worker| NodeReport {
            node: worker.key.0,
            model: worker.key.1,
            name: worker.name.clone(),
            layers_held: worker.layers,
            busy_secs: worker.core.counters().busy_secs,
            batches: worker.batches,
            prompt_tokens: worker.prompt_tokens,
            decode_tokens: worker.decode_tokens,
            kv_peak_utilization: worker.core.kv.peak_utilization(),
            kv_rejections: worker.core.kv.rejections(),
        })
        .collect();

    Ok(RuntimeReport {
        outcomes,
        makespan,
        wall_seconds: clock.wall_elapsed().as_secs_f64(),
        nodes,
        links: coordinator.fabric.link_reports(),
        replans: control.replans,
        kv_transfers,
        prefix: control.prefix,
        failovers: control.failovers,
        replication: control.replication,
    })
}
