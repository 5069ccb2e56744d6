//! One front door over both serving surfaces.
//!
//! The workspace has two executable models of a Helix cluster: the
//! discrete-event simulator ([`helix_sim::ClusterSimulator`]) and the
//! wall-clock-paced prototype runtime (`helix_runtime`).  Both now expose a
//! session-shaped API — [`helix_runtime::ServingSession`] and
//! [`helix_sim::SimSession`] — and this module ties them together with the
//! [`ServingFrontEnd`] trait, so examples, tests and benches can drive either
//! surface through one generic `submit → drain → finish` flow:
//!
//! ```rust,no_run
//! use helix::front::ServingFrontEnd;
//! use helix_workload::Workload;
//!
//! fn run<F: ServingFrontEnd>(front: F, workload: &Workload) -> Result<F::Report, F::Error> {
//!     front.serve(workload)
//! }
//! ```

use helix_cluster::{ModelId, NodeId};
use helix_core::{LayerRange, PlacementDelta, ReplicationPolicy};
use helix_runtime::{RuntimeError, RuntimeReport, ServingSession};
use helix_sim::{FleetRunReport, SimSession};
use helix_workload::{Request, TicketId, Workload};
use std::convert::Infallible;

/// A session-shaped serving surface: non-blocking submission, mid-run speed
/// perturbation, drain and a final report.
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

    /// Makes `node`'s batches take `factor`× the cost model's prediction
    /// from now on (1.0 restores nominal speed).  Both surfaces *measure*
    /// the resulting gap; adaptive configurations react to the measurement.
    fn inject_speed(&mut self, node: NodeId, factor: f64);

    /// Migrates `layers` of `model` from `from` to `to` mid-run, KV state
    /// included: the fleet re-plans with the equivalent placement delta, the
    /// KV pages travel the `from → to` link as modelled traffic, and the
    /// hand-over sequences freeze → transfer → re-route → resume so no
    /// in-flight pipeline drops.  On the prototype runtime the migration
    /// applies immediately; on the simulator it applies at the start of the
    /// next drained batch.
    fn migrate(&mut self, model: ModelId, from: NodeId, to: NodeId, layers: LayerRange);

    /// Installs the fleet-wide KV replication policy governing subsequently
    /// admitted requests: hot sequences trickle their KV to standby
    /// tenancies as decode proceeds, making them promotable when their
    /// primary fails.
    fn set_replication(&mut self, policy: ReplicationPolicy);

    /// Kills `node` at virtual time `at` (seconds since the surface
    /// started serving the current batch): its workers stop, in-flight
    /// pipelines crossing it promote their replicas — when the replication
    /// policy trickled their KV to standbys — or abort and re-admit, and the
    /// fleet re-plans around the hole.  The fail-over shows up in the final
    /// report's `failovers` log on both surfaces.
    fn fail_node(&mut self, node: NodeId, at: f64);

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

    fn inject_speed(&mut self, node: NodeId, factor: f64) {
        ServingSession::inject_speed(self, node, factor)
    }

    fn migrate(&mut self, model: ModelId, from: NodeId, to: NodeId, layers: LayerRange) {
        self.apply_placement_delta(PlacementDelta::new().migrate(model, from, to, layers));
    }

    fn set_replication(&mut self, policy: ReplicationPolicy) {
        ServingSession::set_replication(self, policy)
    }

    fn fail_node(&mut self, node: NodeId, at: f64) {
        ServingSession::fail_node(self, node, at)
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

    fn inject_speed(&mut self, node: NodeId, factor: f64) {
        SimSession::inject_speed(self, node, factor)
    }

    fn migrate(&mut self, model: ModelId, from: NodeId, to: NodeId, layers: LayerRange) {
        SimSession::migrate(self, model, from, to, layers)
    }

    fn set_replication(&mut self, policy: ReplicationPolicy) {
        SimSession::set_replication(self, policy)
    }

    fn fail_node(&mut self, node: NodeId, at: f64) {
        SimSession::fail_node(self, node, at)
    }

    fn drain(&mut self) -> Result<(), Infallible> {
        SimSession::drain(self);
        Ok(())
    }

    fn finish(self) -> Result<FleetRunReport, Infallible> {
        Ok(SimSession::finish(self))
    }
}
