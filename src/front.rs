//! One front door over both serving surfaces.
//!
//! The workspace has two executable models of a Helix cluster: the
//! discrete-event simulator ([`helix_sim::ClusterSimulator`]) and the
//! wall-clock-paced prototype runtime (`helix_runtime`).  Each is driven
//! through one session — [`helix_runtime::ServingSession`] and
//! [`helix_sim::SimSession`] — and this module ties them together with the
//! [`ServingFrontEnd`] trait, so examples, tests and benches can drive either
//! surface through one generic `submit → drain → finish` flow, and script
//! the same mid-run [`PerturbationEvent`]s on either through one
//! [`schedule`](ServingFrontEnd::schedule):
//!
//! ```rust,no_run
//! use helix::front::ServingFrontEnd;
//! use helix_workload::Workload;
//!
//! fn run<F: ServingFrontEnd>(front: F, workload: &Workload) -> Result<F::Report, F::Error> {
//!     front.serve(workload)
//! }
//! ```

use helix_cluster::NodeId;
use helix_core::{PerturbationEvent, ReplicationPolicy};
use helix_runtime::{RuntimeError, RuntimeReport, ServingSession};
use helix_sim::{FleetRunReport, SimSession};
use helix_workload::{Request, TicketId, Workload};
use std::convert::Infallible;

/// A session-shaped serving surface: non-blocking submission, scripted
/// mid-run perturbations, drain and a final report.
///
/// Implemented by [`ServingSession`] (wall-clock-paced prototype runtime) and
/// [`SimSession`] (discrete-event simulator).  The two return different
/// report types — the runtime's per-request [`RuntimeReport`] and the
/// simulator's windowed [`FleetRunReport`] — so the report is an associated
/// type rather than a common denominator that would lose information.
pub trait ServingFrontEnd {
    /// The report the surface produces when finished.
    type Report;
    /// The error type of draining/finishing ([`Infallible`] for the
    /// simulator).
    type Error: std::error::Error + 'static;

    /// Submits one request and returns its ticket without blocking.
    fn submit(&mut self, request: Request) -> TicketId;

    /// Scripts a mid-run [`PerturbationEvent`] at its virtual time `at`
    /// (seconds since the session started; a time already past means the
    /// clock's reading): a slowdown or recovery, a node failure or rejoin,
    /// a region outage, or a placement delta — a migration's KV pages
    /// travel its `from → to` link while both ends freeze the moved range,
    /// so no in-flight pipeline drops.  Both surfaces apply it through the
    /// one [`Actuator::perturb`](helix_core::Actuator::perturb), and *measure*
    /// what a slowdown does; adaptive configurations react to the
    /// measurement.
    fn schedule(&mut self, event: PerturbationEvent);

    /// Installs the fleet-wide KV replication policy governing subsequently
    /// admitted requests: hot sequences trickle their KV to standby
    /// tenancies as decode proceeds, making them promotable when their
    /// primary fails.
    fn set_replication(&mut self, policy: ReplicationPolicy);

    /// Kills `node` at virtual time `at` — a [`schedule`](Self::schedule)d
    /// [`PerturbationEvent::NodeFailure`]: its workers stop, in-flight
    /// pipelines crossing it promote their replicas — when the replication
    /// policy trickled their KV to standbys — or abort and re-admit, and the
    /// fleet re-plans around the hole.  The fail-over shows up in the final
    /// report's `failovers` log on both surfaces.
    fn fail_node(&mut self, node: NodeId, at: f64) {
        self.schedule(PerturbationEvent::NodeFailure { at, node });
    }

    /// Completes everything submitted so far.
    fn drain(&mut self) -> Result<(), Self::Error>;

    /// Drains, shuts the surface down and returns its report.
    fn finish(self) -> Result<Self::Report, Self::Error>
    where
        Self: Sized;

    /// Serves a whole workload: submit everything, drain, finish.
    fn serve(mut self, workload: &Workload) -> Result<Self::Report, Self::Error>
    where
        Self: Sized,
    {
        for request in workload.requests() {
            self.submit(*request);
        }
        self.drain()?;
        self.finish()
    }
}

impl ServingFrontEnd for ServingSession {
    type Report = RuntimeReport;
    type Error = RuntimeError;

    fn submit(&mut self, request: Request) -> TicketId {
        ServingSession::submit(self, request)
    }

    fn schedule(&mut self, event: PerturbationEvent) {
        ServingSession::schedule(self, event)
    }

    fn set_replication(&mut self, policy: ReplicationPolicy) {
        ServingSession::set_replication(self, policy)
    }

    fn drain(&mut self) -> Result<(), RuntimeError> {
        ServingSession::drain(self)
    }

    fn finish(self) -> Result<RuntimeReport, RuntimeError> {
        ServingSession::finish(self)
    }

    fn serve(self, workload: &Workload) -> Result<RuntimeReport, RuntimeError> {
        // The inherent batch call queues a fresh session's whole workload
        // before its data plane starts, so simultaneous arrivals are
        // admitted together.
        ServingSession::serve(self, workload)
    }
}

impl ServingFrontEnd for SimSession {
    type Report = FleetRunReport;
    type Error = Infallible;

    fn submit(&mut self, request: Request) -> TicketId {
        SimSession::submit(self, request)
    }

    fn schedule(&mut self, event: PerturbationEvent) {
        SimSession::schedule(self, event)
    }

    fn set_replication(&mut self, policy: ReplicationPolicy) {
        SimSession::set_replication(self, policy)
    }

    fn drain(&mut self) -> Result<(), Infallible> {
        SimSession::drain(self);
        Ok(())
    }

    fn finish(self) -> Result<FleetRunReport, Infallible> {
        Ok(SimSession::finish(self))
    }

    fn serve(self, workload: &Workload) -> Result<FleetRunReport, Infallible> {
        Ok(SimSession::serve(self, workload))
    }
}
