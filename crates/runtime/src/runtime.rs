//! The serving runtime: wires the coordinator, the workers and the network
//! fabric together.
//!
//! Construction goes through [`ServingBuilder`](crate::ServingBuilder),
//! which wires a [`Wired`] data plane and returns a live
//! [`ServingSession`](crate::ServingSession).  (The legacy one-shot
//! `ServingRuntime` shim and its deprecated constructors were removed after
//! one release, as promised.)

use crate::clock::VirtualClock;
use crate::coordinator::{Coordinator, CoordinatorArtifacts, CoordinatorMsg, CoordinatorSpec};
use crate::error::RuntimeError;
use crate::fabric::{self, FabricSpec, LinkTrafficMap};
use crate::message::Envelope;
use crate::metrics::{LinkReport, NodeReport, RequestOutcome, RuntimeReport};
use crate::registry::{WorkerRegistry, WorkerSpawner};
use helix_cluster::ModelId;
use helix_core::{FleetTopology, HelixError, KvCacheEstimator, ReplanPolicy, Scheduler};
use minirt::channel::{unbounded, Sender};
use std::sync::Arc;
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

/// The wired data plane of one serving system: the task executor, clock,
/// coordinator, worker registry, fabric and traffic counters.  The
/// [`ServingSession`](crate::ServingSession) front door drives one of these.
///
/// Workers and the fabric are *tasks* on `executor`, not threads: one
/// dedicated data-plane thread drives the whole plane once the session goes
/// live, so the thread count is O(1) in the fleet size.
pub(crate) struct Wired {
    pub executor: minirt::Executor,
    pub clock: VirtualClock,
    /// Taken when the live loop moves the coordinator onto the data-plane
    /// thread.
    pub coordinator: Option<Coordinator>,
    pub registry: Arc<WorkerRegistry>,
    pub ingress_tx: Option<Sender<Envelope>>,
    /// Clone of the coordinator's inbound sender: the session's control
    /// messages travel on it, beside the fabric's deliveries.
    pub coordinator_tx: Sender<CoordinatorMsg>,
    pub traffic: LinkTrafficMap,
    pub max_wall: Duration,
}

impl Wired {
    /// Builds the full data plane for a planned fleet: one worker task per
    /// (assigned node, model) pair — each with its own partition of the
    /// node's KV pool — one KV estimator per model, the network fabric
    /// task, and a coordinator that routes every request to its model's
    /// scheduler.
    pub(crate) fn build(
        fleet: FleetTopology,
        schedulers: Vec<Box<dyn Scheduler>>,
        config: RuntimeConfig,
        policy: Option<ReplanPolicy>,
    ) -> Result<Self, RuntimeError> {
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
        let clock = VirtualClock::new(config.wall_per_virtual);
        // Link bandwidth/latency are model-independent; the fabric uses the
        // first model's profile.
        let profile_arc = Arc::new(fleet.topologies()[0].profile().clone());

        let executor = minirt::Executor::new();
        let registry = Arc::new(WorkerRegistry::new());
        let (ingress_tx, ingress_rx) = unbounded::<Envelope>();
        let (coordinator_tx, coordinator_rx) = unbounded();

        let traffic = fabric::spawn_fabric(
            &executor,
            FabricSpec {
                profile: profile_arc,
                clock,
                registry: Arc::clone(&registry),
                coordinator_tx: coordinator_tx.clone(),
            },
            ingress_rx,
        );

        let spawner = WorkerSpawner {
            executor: executor.clone(),
            clock,
            fabric: ingress_tx.clone(),
            execution: config.execution,
            registry: Arc::clone(&registry),
        };

        let mut estimators = Vec::with_capacity(fleet.num_models());
        for (m, topology) in fleet.topologies().iter().enumerate() {
            let model = ModelId(m);
            // Workers execute at the analytic contention split (identical to
            // the planning profile when the fleet was planned without
            // observations); measured speed factors re-price planning only.
            let contention = fleet.contention_profile(model);
            let mut estimator =
                KvCacheEstimator::new(topology.profile(), INITIAL_AVG_OUTPUT_TOKENS);
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

        let coordinator = Coordinator::new(CoordinatorSpec {
            schedulers,
            estimators,
            clock,
            inbound: coordinator_rx,
            fabric: ingress_tx.clone(),
            registry: Arc::clone(&registry),
            spawner,
            max_wall: config.max_wall,
            fleet,
            policy,
        });

        Ok(Wired {
            executor,
            clock,
            coordinator: Some(coordinator),
            registry,
            ingress_tx: Some(ingress_tx),
            coordinator_tx,
            traffic,
            max_wall: config.max_wall,
        })
    }

    /// Shuts the whole data plane down (workers, fabric) and assembles the
    /// final report from the run's outcomes and the shared counters.  Every
    /// task is run to completion — even when the run ended in an error — by
    /// draining the executor on the calling thread: workers process their
    /// shutdowns and drop their fabric senders, the fabric flushes its
    /// in-flight deliveries and exits on ingress disconnect.
    pub(crate) fn shutdown_and_report(
        &mut self,
        outcome: Result<Vec<RequestOutcome>, RuntimeError>,
        artifacts: CoordinatorArtifacts,
    ) -> Result<RuntimeReport, RuntimeError> {
        self.registry.shutdown_all();
        drop(self.coordinator.take());
        drop(self.ingress_tx.take());
        self.executor.drain();

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

        let nodes = self
            .registry
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

        let mut links: Vec<LinkReport> = self
            .traffic
            .lock()
            .iter()
            .map(|(&(from, to), traffic)| LinkReport::new(from, to, traffic))
            .collect();
        links.sort_by_key(|l| (l.from, l.to));

        Ok(RuntimeReport {
            outcomes,
            makespan,
            wall_seconds: self.clock.wall_elapsed().as_secs_f64(),
            nodes,
            links,
            replans: artifacts.control.replans,
            kv_transfers: artifacts.kv_transfers,
            prefix: artifacts.control.prefix,
            failovers: artifacts.control.failovers,
            replication: artifacts.control.replication,
        })
    }
}
