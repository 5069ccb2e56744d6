//! The serving runtime: builds the row table, the network fabric and the
//! coordinator on the one thread that then runs their loop, and assembles the
//! report when it returns.
//!
//! Construction goes through [`ServingBuilder`](crate::ServingBuilder),
//! which starts the `helix-dataplane` thread on [`run`] and returns the
//! [`ServingSession`](crate::ServingSession) holding the other ends of its
//! channels.

use crate::clock::VirtualClock;
use crate::coordinator::{Coordinator, SessionControl};
use crate::error::RuntimeError;
use crate::fabric;
use crate::metrics::{NodeReport, RequestOutcome, RuntimeReport};
use helix_core::{FleetTopology, HelixError, ReplanPolicy, Scheduler};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// Which execution model the rows use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionKind {
    /// Roofline cost model derived from the node profiles (the default):
    /// the simulator's [`ExecModel`](helix_core::ExecModel).
    #[default]
    Analytic,
    /// Batches complete instantly (an engine without a cost model); useful
    /// for functional tests.
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
    /// Row execution model.
    pub execution: ExecutionKind,
}

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
/// built from it — row table, fabric, coordinator — is plain data the
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
    config: &RuntimeConfig,
) -> Result<(), RuntimeError> {
    let scale = config.wall_per_virtual;
    if !(scale.is_finite() && scale > 0.0) {
        let what = "RuntimeConfig::wall_per_virtual must be positive and finite";
        return Err(RuntimeError::InvalidBuild(what));
    }
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

/// The whole life of a data plane, on the thread that owns it: builds it,
/// runs its loop until the session says `Finish` (or is gone), and assembles
/// the final report from the tables as they stand.  The loop returns once no
/// request or scheduled perturbation is pending; a hand-over's arrival still
/// queued in the fabric is dropped with it, and the report reads only what
/// was counted at the send (links) or is cumulative (rows) — so there is
/// nothing to shut down or drain.  `wired` is told once the plane is built,
/// so building a session includes it.
pub(crate) fn run(spec: PlaneSpec, wired: Sender<()>) -> Result<RuntimeReport, RuntimeError> {
    let clock = spec.clock;
    let mut coordinator = Coordinator::new(spec);
    let _ = wired.send(());
    let outcome = coordinator.run_live();
    let (control, kv_transfers) = coordinator.logs();

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

    let rows = coordinator.rows().into_iter();
    let nodes = rows
        .map(|((node, model), row)| NodeReport {
            node,
            model,
            name: coordinator.wire.cluster().node(node).name.clone(),
            layers_held: row.layers_held(),
            busy_secs: row.counters().busy_secs,
            batches: row.totals().batches,
            prompt_tokens: row.totals().prompt_tokens,
            decode_tokens: row.totals().decode_tokens,
            kv_peak_utilization: row.kv.peak_utilization(),
            kv_rejections: row.kv.rejections(),
        })
        .collect();

    Ok(RuntimeReport {
        outcomes,
        makespan,
        wall_seconds: clock.wall_elapsed().as_secs_f64(),
        nodes,
        links: fabric::link_reports(&coordinator.wire),
        replans: control.replans,
        kv_transfers,
        prefix: control.prefix,
        failovers: control.failovers,
        replication: control.replication,
    })
}
