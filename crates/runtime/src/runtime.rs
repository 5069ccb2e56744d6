//! The serving runtime: wires the coordinator, the workers and the network
//! fabric together, on the one thread that then drives them.
//!
//! Construction goes through [`ServingBuilder`](crate::ServingBuilder),
//! which starts the `helix-dataplane` thread on [`run`] and returns the
//! [`ServingSession`](crate::ServingSession) holding the other ends of its
//! channels.

use crate::clock::VirtualClock;
use crate::coordinator::{Coordinator, CoordinatorMsg, CoordinatorSpec};
use crate::error::RuntimeError;
use crate::fabric;
use crate::metrics::{NodeReport, RequestOutcome, RuntimeReport};
use crate::registry::{WorkerRegistry, WorkerSpawner};
use helix_cluster::ModelId;
use helix_core::{FleetTopology, HelixError, KvCacheEstimator, ReplanPolicy, Scheduler};
use minirt::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::rc::Rc;
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
/// built from it — executor, registry, fabric, workers, coordinator — is
/// `!Send` and never leaves that thread.
pub(crate) struct PlaneSpec {
    pub fleet: FleetTopology,
    pub schedulers: Vec<Box<dyn Scheduler>>,
    pub config: RuntimeConfig,
    pub policy: Option<ReplanPolicy>,
    pub clock: VirtualClock,
    /// The coordinator's inbound channel: session control messages and the
    /// fabric's deliveries (through `coordinator_tx`).
    pub inbound: Receiver<CoordinatorMsg>,
    pub coordinator_tx: Sender<CoordinatorMsg>,
    pub completions: Sender<RequestOutcome>,
    /// Told once the plane is wired, so building a session includes it.
    pub wired: Sender<()>,
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

/// The whole life of a data plane, on the thread that owns it.  Wires one
/// worker task per (assigned node, model) pair — each with its own partition
/// of the node's KV pool — one KV estimator per model, the network fabric
/// with its pump task, and a coordinator that routes every request to its
/// model's scheduler; drives them until the session says `Finish`; then
/// shuts the workers down and drains the executor — even when the run ended
/// in an error: workers process their shutdowns, the fabric's pump delivers
/// what is still in flight — and assembles the final report.
pub(crate) fn run(spec: PlaneSpec) -> Result<RuntimeReport, RuntimeError> {
    let (fleet, config, clock) = (spec.fleet, spec.config, spec.clock);
    let executor = minirt::Executor::new();
    // Link bandwidth/latency are model-independent; the fabric uses the
    // first model's cluster.
    let cluster = fleet.topologies()[0].profile().cluster();
    let registry = Rc::new(WorkerRegistry::new(cluster.num_nodes(), fleet.num_models()));
    let fabric = fabric::spawn_fabric(
        &executor,
        cluster.clone(),
        clock,
        Rc::clone(&registry),
        spec.coordinator_tx,
    );

    let spawner = WorkerSpawner {
        executor: executor.clone(),
        clock,
        fabric: Rc::clone(&fabric),
        execution: config.execution,
        registry: Rc::clone(&registry),
        slowdowns: HashMap::new(),
    };

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
            spawner.spawn(
                &contention,
                planned.node,
                model,
                &planned.name,
                planned.layers.len(),
                planned.kv_capacity_tokens,
            );
        }
        estimators.push(estimator);
    }

    let mut coordinator = Coordinator::new(CoordinatorSpec {
        schedulers: spec.schedulers,
        estimators,
        clock,
        inbound: spec.inbound,
        spawner,
        max_wall: config.max_wall,
        fleet,
        policy: spec.policy,
    });
    let _ = spec.wired.send(());

    let outcome = executor.block_on(coordinator.run_live(spec.completions));
    registry.shutdown_all();
    let (control, kv_transfers) = coordinator.into_logs();
    executor.drain();

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

    let nodes = registry
        .report_rows()
        .into_iter()
        .map(|((node, model), meta, stats)| NodeReport {
            node,
            model,
            name: meta.name,
            layers_held: meta.layers,
            busy_secs: stats.busy_secs,
            batches: stats.batches,
            prompt_tokens: stats.prompt_tokens,
            decode_tokens: stats.decode_tokens,
            kv_peak_utilization: stats.kv_peak_utilization,
            kv_rejections: stats.kv_rejections,
        })
        .collect();

    let mut links = fabric.link_reports();
    links.sort_by_key(|l| (l.from, l.to));

    Ok(RuntimeReport {
        outcomes,
        makespan,
        wall_seconds: clock.wall_elapsed().as_secs_f64(),
        nodes,
        links,
        replans: control.replans,
        kv_transfers,
        prefix: control.prefix,
        failovers: control.failovers,
        replication: control.replication,
    })
}
