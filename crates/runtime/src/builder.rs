//! Fluent construction of a serving system.
//!
//! [`ServingBuilder`] replaces the constructor zoo of the legacy (since
//! removed) `ServingRuntime` (`new` / `new_fleet` / `new_adaptive`) with one
//! surface:
//! single-model, multi-model and adaptive systems are all expressed as
//! combinations of [`topology`](ServingBuilder::topology) /
//! [`fleet`](ServingBuilder::fleet), optional schedulers and an optional
//! [`replan_policy`](ServingBuilder::replan_policy).  Misconfigurations
//! return typed [`RuntimeError`]s instead of panicking — notably the
//! scheduler-count mismatch that used to be an `assert_eq!` in `new_fleet`.

use crate::error::RuntimeError;
use crate::runtime::RuntimeConfig;
use crate::session::ServingSession;
use helix_core::{FleetScheduler, FleetTopology, ReplanPolicy, Scheduler, Topology};

/// Builds a [`ServingSession`] over a planned topology or fleet.
///
/// ```rust,no_run
/// use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
/// use helix_core::{heuristics, Topology};
/// use helix_runtime::{RuntimeConfig, ServingBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = ClusterProfile::analytic(
///     ClusterSpec::solver_quality_10(),
///     ModelConfig::llama_30b(),
/// );
/// let placement = heuristics::swarm_placement(&profile)?;
/// let topology = Topology::plan(&profile, &placement, true)?;
/// // IWRR from the max-flow solution is the default scheduler.
/// let session = ServingBuilder::new()
///     .topology(&topology)
///     .config(RuntimeConfig::fast_test())
///     .build()?;
/// # let _ = session;
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct ServingBuilder {
    topology: Option<Topology>,
    fleet: Option<FleetTopology>,
    schedulers: Vec<Box<dyn Scheduler>>,
    policy: Option<ReplanPolicy>,
    config: Option<RuntimeConfig>,
}

impl ServingBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves one model over `topology` (mutually exclusive with
    /// [`fleet`](Self::fleet)).
    #[must_use]
    pub fn topology(mut self, topology: &Topology) -> Self {
        self.topology = Some(topology.clone());
        self
    }

    /// Serves a multi-model fleet (mutually exclusive with
    /// [`topology`](Self::topology)).
    #[must_use]
    pub fn fleet(mut self, fleet: &FleetTopology) -> Self {
        self.fleet = Some(fleet.clone());
        self
    }

    /// Appends one per-model scheduling policy; call once per model, in
    /// model order.  When no scheduler is supplied the builder derives IWRR
    /// schedulers from the max-flow solution, exactly as the paper does.
    #[must_use]
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.schedulers.push(scheduler);
        self
    }

    /// Closes the online re-planning loop: workers are observed every
    /// `policy.check_interval_secs` of virtual time and the coordinator
    /// re-plans when measured speed factors fall below the threshold.
    #[must_use]
    pub fn replan_policy(mut self, policy: ReplanPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Overrides the runtime configuration (defaults to
    /// [`RuntimeConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Builds and starts the serving system — row table, fabric and
    /// coordinator — on its `helix-dataplane` thread, and returns once it is
    /// built.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidBuild`] when neither (or both) of
    ///   `.topology(..)` / `.fleet(..)` were given, or when
    ///   [`RuntimeConfig::wall_per_virtual`] is not positive and finite.
    /// * [`RuntimeError::Scheduling`] when a placement is invalid for its
    ///   profile, a default scheduler cannot be derived, or the scheduler
    ///   count does not match the fleet's model count
    ///   (`HelixError::SchedulerCountMismatch` — previously an
    ///   `assert_eq!` panic in `ServingRuntime::new_fleet`).
    pub fn build(self) -> Result<ServingSession, RuntimeError> {
        let fleet = match (self.topology, self.fleet) {
            (Some(_), Some(_)) => {
                return Err(RuntimeError::InvalidBuild(
                    ".topology(..) and .fleet(..) are mutually exclusive",
                ))
            }
            (Some(topology), None) => FleetTopology::single(topology),
            (None, Some(fleet)) => fleet,
            (None, None) => {
                return Err(RuntimeError::InvalidBuild(
                    "a serving system needs .topology(..) or .fleet(..)",
                ))
            }
        };
        let schedulers = if self.schedulers.is_empty() {
            FleetScheduler::iwrr(&fleet)
                .map_err(RuntimeError::Scheduling)?
                .into_parts()
        } else {
            self.schedulers
        };
        let config = self.config.unwrap_or_default();
        ServingSession::start(fleet, schedulers, config, self.policy)
    }
}
