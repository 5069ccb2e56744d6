//! The live serving front door.
//!
//! A [`ServingSession`] is a long-lived handle over a running data plane
//! (coordinator, workers, fabric): requests are submitted without blocking,
//! completions stream back as they happen, and one call,
//! [`schedule`](ServingSession::schedule), takes every mid-run
//! [`PerturbationEvent`](helix_core::PerturbationEvent) the simulator's
//! session takes: slowdowns and recoveries, node failures and rejoins, region
//! outages, and placement deltas that can *add new workers*.  The batch call
//! is a thin convenience wrapper: [`ServingSession::serve`] is
//! submit-everything → finish over the same loop every other call drives.
//!
//! The whole data plane — coordinator, row table, fabric — is one loop
//! over plain data, built and run by a single dedicated `helix-dataplane`
//! thread that starts with the session, so the OS thread count stays O(1)
//! however many nodes the fleet has.  The session holds only
//! what crosses to that thread: the coordinator's inbound channel (every
//! call below is one message on it, handled in call order), the completion
//! stream, and the thread's handle, whose result is the final report.

use crate::clock::VirtualClock;
use crate::coordinator::SessionControl;
use crate::error::RuntimeError;
use crate::metrics::{RequestOutcome, RuntimeReport};
use crate::runtime::{self, PlaneSpec, RuntimeConfig};
use helix_core::{FleetTopology, PerturbationEvent, ReplanPolicy, ReplicationPolicy, Scheduler};
use helix_workload::{Request, TicketId, Workload};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A live handle over a running serving system.
///
/// Built by [`ServingBuilder`](crate::ServingBuilder); see the
/// [crate-level documentation](crate) for an end-to-end example.
///
/// # Lifecycle
///
/// * [`submit`](Self::submit) hands a request to the coordinator and returns
///   a [`TicketId`] immediately; admission honours the request's
///   `arrival_time` (virtual seconds).
/// * [`try_completions`](Self::try_completions) /
///   [`wait_completion`](Self::wait_completion) collect finished requests.
/// * [`drain`](Self::drain) blocks until everything submitted so far has
///   completed; [`finish`](Self::finish) drains, shuts the data plane down
///   and returns the final [`RuntimeReport`].
/// * [`serve`](Self::serve) is the batch convenience wrapper: it submits
///   everything and finishes.
pub struct ServingSession {
    clock: VirtualClock,
    max_wall: Duration,
    control: Sender<SessionControl>,
    completions: Receiver<RequestOutcome>,
    /// The data-plane thread.  `None` once it died and was joined: its error
    /// went to whoever observed the death first.
    plane: Option<JoinHandle<Result<RuntimeReport, RuntimeError>>>,
    /// Completions pulled off the channel but not yet handed to the caller.
    undelivered: VecDeque<RequestOutcome>,
    submitted: usize,
    delivered: usize,
}

impl std::fmt::Debug for ServingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSession")
            .field("submitted", &self.submitted)
            .field("delivered", &self.delivered)
            .field("failed", &self.plane.is_none())
            .finish_non_exhaustive()
    }
}

impl ServingSession {
    /// Starts the data-plane thread on a validated plan and returns once it
    /// reports the plane wired, so a first `submit` never waits for
    /// construction.  Virtual time starts here.
    pub(crate) fn start(
        fleet: FleetTopology,
        schedulers: Vec<Box<dyn Scheduler>>,
        config: RuntimeConfig,
        policy: Option<ReplanPolicy>,
    ) -> Result<Self, RuntimeError> {
        runtime::validate(&fleet, &schedulers, &config)?;
        let clock = VirtualClock::new(config.wall_per_virtual);
        let max_wall = config.max_wall;
        let (control, inbound) = channel();
        let (completion_tx, completions) = channel();
        let (wired_tx, wired_rx) = channel();
        let spec = PlaneSpec {
            fleet,
            schedulers,
            config,
            policy,
            clock,
            inbound,
            completions: completion_tx,
        };
        let plane = std::thread::Builder::new()
            .name("helix-dataplane".to_string())
            .spawn(move || runtime::run(spec, wired_tx))
            .map_err(|_| RuntimeError::Disconnected("the data-plane thread did not start"))?;
        let mut session = ServingSession {
            clock,
            max_wall,
            control,
            completions,
            plane: Some(plane),
            undelivered: VecDeque::new(),
            submitted: 0,
            delivered: 0,
        };
        match wired_rx.recv() {
            Ok(()) => Ok(session),
            Err(_) => Err(session.coordinator_died()),
        }
    }

    /// Queues one control message on the coordinator's inbound channel; its
    /// arrival ends the loop's wait.  `false` when the coordinator is gone.
    fn send_control(&self, msg: SessionControl) -> bool {
        self.control.send(msg).is_ok()
    }

    /// Submits one request without blocking and returns its ticket.
    ///
    /// The request is admitted once its `arrival_time` (virtual seconds since
    /// the session was built) passes — submit a whole trace up front and the
    /// coordinator replays its arrival process.  Request ids should be unique
    /// within the session; the ticket wraps the id.
    pub fn submit(&mut self, request: Request) -> TicketId {
        self.submitted += 1;
        self.send_control(SessionControl::Submit(request));
        TicketId(request.id)
    }

    /// Returns every completion that has arrived since the last call,
    /// without blocking.
    pub fn try_completions(&mut self) -> Vec<RequestOutcome> {
        while let Ok(outcome) = self.completions.try_recv() {
            self.undelivered.push_back(outcome);
        }
        self.delivered += self.undelivered.len();
        self.undelivered.drain(..).collect()
    }

    /// Blocks until the request behind `ticket` completes and returns its
    /// outcome.  Completions of *other* requests that arrive while waiting
    /// are buffered for later [`try_completions`](Self::try_completions) /
    /// `wait_completion` calls.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::WallClockBudgetExceeded`] once this wait has
    /// lasted longer than the configured wall budget (a ticket that was
    /// never submitted can never complete), and propagates a coordinator
    /// failure.  The budget bounds each wait, not the session's lifetime.
    pub fn wait_completion(&mut self, ticket: TicketId) -> Result<RequestOutcome, RuntimeError> {
        let wait_started = self.clock.wall_elapsed();
        loop {
            let pos = self.undelivered.iter().position(|o| o.id == ticket.0);
            if let Some(outcome) = pos.and_then(|pos| self.undelivered.remove(pos)) {
                self.delivered += 1;
                return Ok(outcome);
            }
            // Check the budget on *every* iteration, not only when the
            // channel goes quiet: a steady stream of other tickets'
            // completions must not starve the check (a never-submitted
            // ticket would otherwise wait forever on a busy session).
            let waited = self.clock.wall_elapsed().saturating_sub(wait_started);
            if waited > self.max_wall {
                return Err(RuntimeError::WallClockBudgetExceeded {
                    budget: self.max_wall,
                    completed: self.delivered + self.undelivered.len(),
                    total: self.submitted,
                });
            }
            // Block on the channel until a completion arrives or the budget
            // expires — no 10 ms polling interval.
            match self.completions.recv_timeout(self.max_wall - waited) {
                Ok(outcome) => self.undelivered.push_back(outcome),
                // The next iteration's budget check reports the exceeded
                // budget.
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(self.coordinator_died()),
            }
        }
    }

    /// Schedules a mid-run [`PerturbationEvent`] — the vocabulary the
    /// simulator's session takes too — without blocking.  The coordinator
    /// applies it once its virtual time `at` has passed (one already past
    /// applies at once), in (`at`, call order), through the same
    /// [`Actuator::perturb`](helix_core::Actuator::perturb) the simulator
    /// calls:
    ///
    /// * a slowdown re-prices every worker of its node, including ones a
    ///   later re-plan adds; the workers *measure* the gap, and an adaptive
    ///   session reacts to the measurement, never to the injected value;
    /// * a failure or a region's outage fails its workers — they drop the
    ///   batch they were executing and start no other, stay in the report,
    ///   and keep what they hold until a release frees it — promotes every
    ///   in-flight pipeline crossing them onto its replica standbys (when
    ///   the replication policy trickled its KV there) or aborts and
    ///   re-admits it, and re-plans around the hole; the fail-over shows up
    ///   in the final report's `failovers` log;
    /// * a rejoin recovers a failed node's workers and hands its
    ///   pre-failure layer ranges back;
    /// * a re-plan applies its placement delta, swaps the affected models'
    ///   schedulers and KV budgets for new requests, hands migrated KV over
    ///   and **puts a worker in service** for every (node, model) tenancy
    ///   the delta added; a worker the plan dropped keeps executing what it
    ///   holds and gets no new pipeline.  An infeasible delta leaves the
    ///   current plan serving.
    ///
    /// A pending perturbation postpones a drain's stall verdict: it may
    /// still unmask a deferred request.
    pub fn schedule(&mut self, event: PerturbationEvent) {
        self.send_control(SessionControl::Perturb(event));
    }

    /// Installs the replication policy governing subsequently admitted
    /// requests: hot sequences (expected decode length at or above the
    /// policy threshold) trickle their KV to standby tenancies as decode
    /// proceeds, making them promotable if their primary fails.
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.send_control(SessionControl::SetReplication(policy));
    }

    /// Blocks until every request submitted so far has completed.
    ///
    /// # Errors
    ///
    /// Propagates the coordinator's error if the drain cannot complete
    /// (stall, wall budget, disconnect).
    pub fn drain(&mut self) -> Result<(), RuntimeError> {
        let (ack_tx, ack_rx) = channel();
        if !self.send_control(SessionControl::Drain(ack_tx)) {
            return Err(self.coordinator_died());
        }
        match ack_rx.recv() {
            Ok(()) => Ok(()),
            Err(_) => Err(self.coordinator_died()),
        }
    }

    /// Drains, ends the data plane's loop and returns the final report.  The
    /// data-plane thread is joined before this method returns, even on error.
    pub fn finish(mut self) -> Result<RuntimeReport, RuntimeError> {
        self.send_control(SessionControl::Finish);
        self.join_plane()
    }

    /// Serves a whole workload to completion: the batch convenience wrapper
    /// — submit everything, finish.  The workload travels as one message,
    /// so requests due at the same time are admitted together.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::WallClockBudgetExceeded`] if the configured
    /// wall-clock budget runs out, [`RuntimeError::Stalled`] if no request
    /// can make progress, and propagates scheduling errors.
    pub fn serve(mut self, workload: &Workload) -> Result<RuntimeReport, RuntimeError> {
        self.submitted += workload.len();
        self.send_control(SessionControl::SubmitAll(workload.requests().to_vec()));
        self.finish()
    }

    /// Joins the data-plane thread and returns what it returned.
    fn join_plane(&mut self) -> Result<RuntimeReport, RuntimeError> {
        match self.plane.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            _ => Err(RuntimeError::Disconnected("serving session")),
        }
    }

    /// Joins the data-plane thread after it died and recovers its error.
    fn coordinator_died(&mut self) -> RuntimeError {
        let died = RuntimeError::Disconnected("serving session");
        self.join_plane().err().unwrap_or(died)
    }
}

impl Drop for ServingSession {
    /// A session dropped without [`finish`](Self::finish) tells its
    /// coordinator to finish: the detached data-plane thread completes what
    /// is in flight and exits, and the data plane is freed with it.
    fn drop(&mut self) {
        self.send_control(SessionControl::Finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServingBuilder;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, Topology};
    use std::time::Instant;

    /// Everything the session holds crosses to the data-plane thread by
    /// channel or join handle, so the session itself may move between
    /// threads.
    #[test]
    fn the_session_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ServingSession>();
    }

    /// The coordinator owns the receiving end of the control channel, so a
    /// kept sender starts failing exactly when the data-plane thread has
    /// left its live loop and dropped the coordinator.
    #[test]
    fn a_session_dropped_mid_run_shuts_its_data_plane_down() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let config = RuntimeConfig::fast_test();
        let budget = config.max_wall;
        let mut session = ServingBuilder::new()
            .topology(&topology)
            .config(config)
            .build()
            .unwrap();
        for id in 0..8 {
            session.submit(Request {
                id,
                prompt_tokens: 32,
                output_tokens: 8,
                ..Request::default()
            });
        }
        let probe = session.control.clone();
        drop(session);
        let deadline = Instant::now() + budget;
        while probe.send(SessionControl::Finish).is_ok() {
            assert!(Instant::now() < deadline, "data plane still alive");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
