//! The live serving front door.
//!
//! A [`ServingSession`] is a long-lived handle over the wired data plane
//! (coordinator, workers, fabric): requests are submitted without blocking,
//! completions stream back as they happen, and a small control plane accepts
//! mid-run perturbations ([`inject_speed`](ServingSession::inject_speed)),
//! placement deltas that can *spawn new workers*
//! ([`apply_placement_delta`](ServingSession::apply_placement_delta)) and
//! retire dropped ones once they drain.  The batch call is a thin convenience
//! wrapper: [`ServingSession::serve`] is submit-everything → drain → finish
//! over the same loop every other call drives.
//!
//! The whole data plane — coordinator, workers, fabric — is a set of async
//! tasks on one executor.  Once the session goes live (first `submit`,
//! `serve` or delta) a single dedicated `helix-dataplane` thread
//! drives it, so the OS thread count stays O(1) however many nodes the fleet
//! has.

use crate::coordinator::{CoordinatorArtifacts, CoordinatorMsg, SessionControl};
use crate::error::RuntimeError;
use crate::message::RuntimeMsg;
use crate::metrics::{RequestOutcome, RuntimeReport};
use crate::runtime::Wired;
use helix_cluster::NodeId;
use helix_core::{PlacementDelta, ReplicationPolicy};
use helix_workload::{Request, TicketId, Workload};
use minirt::channel::{unbounded, Receiver, RecvTimeoutError};
use std::collections::VecDeque;
use std::thread::JoinHandle;

/// What the data-plane thread hands back when the live loop ends.
type LiveResult = (
    Result<Vec<RequestOutcome>, RuntimeError>,
    CoordinatorArtifacts,
);

/// The live half of a session: the completion stream of the coordinator task
/// and the data-plane thread driving it.
struct Live {
    completion_rx: Receiver<RequestOutcome>,
    handle: JoinHandle<LiveResult>,
}

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
///   everything, drains and finishes.
pub struct ServingSession {
    wired: Wired,
    live: Option<Live>,
    /// Completions pulled off the channel but not yet handed to the caller.
    undelivered: VecDeque<RequestOutcome>,
    submitted: usize,
    delivered: usize,
    /// Set when the data-plane thread died; the session can only report the
    /// failure once (the error is returned to whoever observed it first).
    failed: bool,
}

impl std::fmt::Debug for ServingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSession")
            .field("live", &self.live.is_some())
            .field("submitted", &self.submitted)
            .field("delivered", &self.delivered)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl ServingSession {
    pub(crate) fn from_wired(wired: Wired) -> Self {
        ServingSession {
            wired,
            live: None,
            undelivered: VecDeque::new(),
            submitted: 0,
            delivered: 0,
            failed: false,
        }
    }

    /// Whether the data plane is running on its own thread (true after the
    /// first `submit` or delta).
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// Starts the data-plane thread if it is not running yet.
    fn ensure_live(&mut self) {
        if self.live.is_none() && !self.failed {
            self.go_live(&[]);
        }
    }

    /// Starts the data-plane thread: one thread driving the executor that
    /// runs the coordinator's live loop alongside every worker task and the
    /// fabric task.  `backlog` is queued on the coordinator's channel before
    /// the thread starts, so the coordinator sees those requests together and
    /// admits every due arrival before it processes any completion.
    fn go_live(&mut self, backlog: &[Request]) {
        let mut coordinator = self
            .wired
            .coordinator
            .take()
            .expect("coordinator present until the session goes live");
        let executor = self.wired.executor.clone();
        let (completion_tx, completion_rx) = unbounded();
        for request in backlog {
            let submit = CoordinatorMsg::Control(SessionControl::Submit(*request));
            let _ = self.wired.coordinator_tx.send(submit);
        }
        self.submitted += backlog.len();
        let handle = std::thread::Builder::new()
            .name("helix-dataplane".to_string())
            .spawn(move || {
                let result = executor.block_on(coordinator.run_live(completion_tx));
                let artifacts = coordinator.take_artifacts();
                (result, artifacts)
            })
            .expect("spawning the data-plane thread never fails");
        self.live = Some(Live {
            completion_rx,
            handle,
        });
    }

    /// Queues one control message on the coordinator's inbound channel; its
    /// arrival wakes the coordinator's waker-based wait.  `false` when the
    /// session is not live or the coordinator is gone.
    fn send_control(&self, msg: SessionControl) -> bool {
        let msg = CoordinatorMsg::Control(msg);
        self.live.is_some() && self.wired.coordinator_tx.send(msg).is_ok()
    }

    /// Submits one request without blocking and returns its ticket.
    ///
    /// The request is admitted once its `arrival_time` (virtual seconds since
    /// the session was built) passes — submit a whole trace up front and the
    /// coordinator replays its arrival process.  Request ids should be unique
    /// within the session; the ticket wraps the id.
    pub fn submit(&mut self, request: Request) -> TicketId {
        self.ensure_live();
        self.submitted += 1;
        self.send_control(SessionControl::Submit(request));
        TicketId(request.id)
    }

    /// Returns every completion that has arrived since the last call,
    /// without blocking.
    pub fn try_completions(&mut self) -> Vec<RequestOutcome> {
        if let Some(live) = &self.live {
            while let Ok(outcome) = live.completion_rx.try_recv() {
                self.undelivered.push_back(outcome);
            }
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
        let wait_started = self.wired.clock.wall_elapsed();
        let deadline = self
            .wired
            .clock
            .instant_at_wall(wait_started + self.wired.max_wall);
        loop {
            if let Some(pos) = self.undelivered.iter().position(|o| o.id == ticket.0) {
                self.delivered += 1;
                return Ok(self.undelivered.remove(pos).expect("position just found"));
            }
            // Check the budget on *every* iteration, not only when the
            // channel goes quiet: a steady stream of other tickets'
            // completions must not starve the check (a never-submitted
            // ticket would otherwise wait forever on a busy session).
            let waited = self.wired.clock.wall_elapsed().saturating_sub(wait_started);
            if waited > self.wired.max_wall {
                return Err(RuntimeError::WallClockBudgetExceeded {
                    budget: self.wired.max_wall,
                    completed: self.delivered + self.undelivered.len(),
                    total: self.submitted,
                });
            }
            let Some(live) = &self.live else {
                return Err(RuntimeError::Disconnected("serving session"));
            };
            // Block on the channel's condvar until a completion arrives or
            // the budget expires — no 10 ms polling interval.
            match live.completion_rx.recv_deadline(deadline) {
                Ok(outcome) => self.undelivered.push_back(outcome),
                // The next iteration's budget check reports the exceeded
                // budget.
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(self.coordinator_died()),
            }
        }
    }

    /// Injects a hardware slowdown on every worker of `node`: their batches
    /// take `factor`× the cost model's prediction from now on (1.0 restores
    /// nominal speed).  The workers *measure* the resulting gap; an adaptive
    /// session reacts to the measurement, never to the injected value.
    pub fn inject_speed(&self, node: NodeId, factor: f64) {
        self.wired
            .registry
            .send_to_node(node, RuntimeMsg::SetSpeed(factor));
    }

    /// Applies a placement delta to the standing fleet plan, asynchronously:
    /// the coordinator re-plans with the observations already priced in,
    /// swaps the affected models' schedulers and KV budgets for new requests,
    /// **spawns a worker** for every (node, model) tenancy the delta added —
    /// closing the mid-run scale-out loop — and retires workers the plan
    /// dropped once their in-flight pipelines drain.
    ///
    /// An infeasible delta (e.g. one that breaks a model's pipeline) leaves
    /// the current plan serving; applied deltas show up in the final
    /// report's `replans` log with [`ReplanReason::Manual`].
    ///
    /// [`ReplanReason::Manual`]: helix_core::ReplanReason::Manual
    pub fn apply_placement_delta(&mut self, delta: PlacementDelta) {
        self.ensure_live();
        self.send_control(SessionControl::ApplyDelta(delta));
    }

    /// Fails `node` at virtual time `at`: its workers are detached, every
    /// in-flight pipeline crossing it is promoted onto its replica standbys
    /// (when the replication policy trickled its KV there) or aborted and
    /// re-admitted from scratch, and the fleet re-plans around the hole.
    /// The fail-over shows up in the final report's `failovers` log.
    pub fn fail_node(&mut self, node: NodeId, at: f64) {
        self.ensure_live();
        self.send_control(SessionControl::FailNode(node, at));
    }

    /// Installs the replication policy governing subsequently admitted
    /// requests: hot sequences (expected decode length at or above the
    /// policy threshold) trickle their KV to standby tenancies as decode
    /// proceeds, making them promotable if their primary fails.
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.ensure_live();
        self.send_control(SessionControl::SetReplication(policy));
    }

    /// Blocks until every request submitted so far has completed.
    ///
    /// # Errors
    ///
    /// Propagates the coordinator's error if the drain cannot complete
    /// (stall, wall budget, disconnect).
    pub fn drain(&mut self) -> Result<(), RuntimeError> {
        if self.live.is_none() {
            // Nothing was ever submitted.
            return Ok(());
        }
        let (ack_tx, ack_rx) = unbounded();
        if !self.send_control(SessionControl::Drain(ack_tx)) {
            return Err(self.coordinator_died());
        }
        match ack_rx.recv_blocking() {
            Ok(()) => Ok(()),
            Err(_) => Err(self.coordinator_died()),
        }
    }

    /// Drains, shuts the whole data plane down (workers, fabric, coordinator)
    /// and returns the final report.  The data-plane thread is joined and
    /// every task run to completion before this method returns, even on
    /// error.
    pub fn finish(mut self) -> Result<RuntimeReport, RuntimeError> {
        if self.failed {
            return self.wired.shutdown_and_report(
                Err(RuntimeError::Disconnected("serving session")),
                CoordinatorArtifacts::default(),
            );
        }
        self.send_control(SessionControl::Finish);
        match self.live.take() {
            Some(live) => {
                let (result, artifacts) = match live.handle.join() {
                    Ok(result) => result,
                    Err(_) => (
                        Err(RuntimeError::Disconnected("serving session")),
                        CoordinatorArtifacts::default(),
                    ),
                };
                self.wired.shutdown_and_report(result, artifacts)
            }
            None => self
                .wired
                .shutdown_and_report(Ok(Vec::new()), CoordinatorArtifacts::default()),
        }
    }

    /// Serves a whole workload to completion: the batch convenience wrapper
    /// — submit everything, drain, finish.  On a fresh session the whole
    /// workload is queued before the data plane starts, so requests due at
    /// the same time are admitted together.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::WallClockBudgetExceeded`] if the configured
    /// wall-clock budget runs out, [`RuntimeError::Stalled`] if no request
    /// can make progress, and propagates scheduling errors.
    pub fn serve(mut self, workload: &Workload) -> Result<RuntimeReport, RuntimeError> {
        if self.live.is_none() && !self.failed && !workload.is_empty() {
            self.go_live(workload.requests());
        } else {
            for request in workload.requests() {
                self.submit(*request);
            }
        }
        if let Err(e) = self.drain() {
            // Still tear the whole data plane down (workers, fabric,
            // coordinator) before surfacing the drain error.
            let _ = self.finish();
            return Err(e);
        }
        self.finish()
    }

    /// Tears the live half down after the data-plane thread died and
    /// recovers its error.
    fn coordinator_died(&mut self) -> RuntimeError {
        self.failed = true;
        let Some(live) = self.live.take() else {
            return RuntimeError::Disconnected("serving session");
        };
        match live.handle.join() {
            Ok((Err(e), _)) => e,
            _ => RuntimeError::Disconnected("serving session"),
        }
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
    use crate::{RuntimeConfig, ServingBuilder};
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, Topology};
    use helix_workload::Request;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The registry `Arc` is held by the session, the coordinator, the fabric
    /// task and (through it) the executor's task list, so it can only die
    /// once all of them are gone.
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
        let registry = Arc::downgrade(&session.wired.registry);
        drop(session);
        let deadline = Instant::now() + budget;
        while registry.strong_count() > 0 {
            assert!(
                Instant::now() < deadline,
                "data plane still alive: {} registry handles",
                registry.strong_count()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
