//! The one front door to the discrete-event simulator.
//!
//! [`SimSession`] mirrors the threaded runtime's serving-session surface
//! (`submit` → `drain` → `finish`, or `serve` for a whole workload) so
//! examples, tests and benches drive the simulator and the prototype runtime
//! through one API (the facade crate's `ServingFrontEnd` trait is
//! implemented by both).  Because the simulator is pull-based, submissions
//! and scripted perturbations — the shared [`PerturbationEvent`] vocabulary
//! the runtime's session schedules too — are buffered and the event loop
//! runs when the session drains.  Each drain
//! continues the simulator's one clock, as a runtime drain continues the
//! runtime's: the fleet plan, re-plans, engines, links and measurements
//! persist, a request or perturbation timed before the clock's reading
//! happens at that reading, and a drain with only perturbations runs them.

use crate::simulator::{ClusterSimulator, FleetRunReport, SimulationConfig};
use helix_cluster::NodeId;
use helix_core::{PerturbationEvent, ReplanPolicy, ReplicationPolicy};
use helix_workload::{Request, TicketId, Workload};

/// A live handle over a [`ClusterSimulator`], shaped like the runtime's
/// serving session, and the only way to drive one.  Times are readings of
/// the simulator's clock, which starts at zero with the session's simulator
/// and runs on across drains.
///
/// * [`submit`](Self::submit) buffers a request and returns its ticket.
/// * [`schedule`](Self::schedule) scripts a mid-run [`PerturbationEvent`]
///   at a simulated time — a slowdown, a failure, an outage, a rejoin or a
///   placement delta — as the runtime's session does.
/// * [`drain`](Self::drain) simulates everything buffered so far (with the
///   configured [`ReplanPolicy`], if any, closing the feedback loop);
///   [`finish`](Self::finish) drains and returns the final
///   [`FleetRunReport`]; [`serve`](Self::serve) submits a whole workload,
///   then finishes.
pub struct SimSession {
    sim: ClusterSimulator,
    config: SimulationConfig,
    policy: Option<ReplanPolicy>,
    pending: Vec<Request>,
    events: Vec<PerturbationEvent>,
}

impl SimSession {
    /// Wraps a simulator in a session front door.
    pub fn new(sim: ClusterSimulator, config: SimulationConfig) -> Self {
        SimSession {
            sim,
            config,
            policy: None,
            pending: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Closes the observe → re-plan → hand-over loop for every drain.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplanPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Buffers one request for the next drain and returns its ticket.
    pub fn submit(&mut self, request: Request) -> TicketId {
        self.pending.push(request);
        TicketId(request.id)
    }

    /// Scripts a perturbation for the next drain, at its session time (one
    /// timed before the clock's reading happens at that reading).
    pub fn schedule(&mut self, event: PerturbationEvent) {
        self.events.push(event);
    }

    /// Kills one node at session time `at` (see
    /// [`PerturbationEvent::NodeFailure`]).  With a replication policy set,
    /// in-flight replicated pipelines promote their standbys and resume with
    /// bounded token loss; everything else aborts and re-admits.
    pub fn fail_node(&mut self, node: NodeId, at: f64) {
        self.schedule(PerturbationEvent::NodeFailure { at, node });
    }

    /// Sets the fleet-wide KV replication policy on the underlying
    /// simulator (applies to requests admitted in later drains).
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.sim.set_replication(policy);
    }

    /// Runs the clock on over everything submitted and scheduled since the
    /// last drain, until nothing but the next observation tick is left to
    /// happen.  The simulator's fleet plan, applied re-plans, slowdowns and
    /// measurements persist, so [`finish`](Self::finish) covers every drain
    /// — matching the runtime session, whose report covers all submissions.
    ///
    /// # Panics
    ///
    /// Panics, before the first event, if a request targets a model the
    /// fleet does not serve — the same workload fails loudly on the runtime
    /// surface too (`HelixError::UnknownModel`) — or cannot ride a hop: more
    /// than `u32::MAX` prompt + output tokens, a model of more than
    /// `u16::MAX` layers (a pipeline has at most one stage per layer), or
    /// 2³² requests or more over the simulator's life.
    pub fn drain(&mut self) {
        let workload = Workload::new(std::mem::take(&mut self.pending));
        let events = std::mem::take(&mut self.events);
        self.sim
            .advance(&workload, self.config, events, self.policy);
    }

    /// Drains and returns the session's report.
    pub fn finish(mut self) -> FleetRunReport {
        self.drain();
        self.report()
    }

    /// Serves a whole workload: submits every request, then finishes — the
    /// counterpart of the runtime session's `serve`.
    pub fn serve(mut self, workload: &Workload) -> FleetRunReport {
        for request in workload.requests() {
            self.submit(*request);
        }
        self.finish()
    }

    /// What the session's clock has measured so far, over every drain.
    pub fn report(&self) -> FleetRunReport {
        self.sim.report(self.config)
    }

    /// The underlying simulator (its standing fleet plan reflects applied
    /// re-plans).
    pub fn simulator(&self) -> &ClusterSimulator {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, IwrrScheduler, Topology};
    use helix_workload::ArrivalPattern;

    fn topology() -> Topology {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        Topology::plan(&profile, &placement, true).unwrap()
    }

    fn workload(n: usize, seed: u64) -> Workload {
        helix_workload::AzureTraceConfig {
            mean_input_tokens: 128.0,
            mean_output_tokens: 32.0,
            max_input_tokens: 512,
            max_output_tokens: 64,
        }
        .generate(n, seed)
        .with_arrivals(ArrivalPattern::Offline, 4)
    }

    #[test]
    fn multi_batch_session_report_covers_all_batches() {
        let topology = topology();
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let mut session = SimSession::new(sim, config);

        for request in workload(10, 1).requests() {
            session.submit(*request);
        }
        session.drain();
        let first_batch = session.report().metrics.overall;
        assert_eq!(first_batch.completed_requests, 10);

        for request in workload(10, 2).requests() {
            session.submit(*request);
        }
        let report = session.finish();
        // The final report accumulates both drained batches, matching the
        // runtime session's "finish covers every submission" contract.
        assert_eq!(report.metrics.overall.completed_requests, 20);
        assert!(report.metrics.overall.decode_tokens > first_batch.decode_tokens);
        assert_eq!(report.metrics.overall.prompt_latency.count, 20);
    }

    /// A later drain continues the clock: the second request arrives when
    /// the first drain stopped and completes after the first, and the
    /// report's percentiles are read from both requests' samples.
    #[test]
    fn a_later_drain_continues_the_clock_and_its_percentiles_are_exact() {
        let topology = topology();
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let mut session = SimSession::new(sim, config);
        let request = |id, prompt_tokens| Request {
            id,
            prompt_tokens,
            output_tokens: 4,
            ..Request::default()
        };
        session.submit(request(0, 512));
        session.drain();
        session.submit(request(1, 32));
        let report = session.finish();

        let [first, second] = report.completions.as_slice() else {
            panic!("two completions, got {:?}", report.completions);
        };
        assert_eq!((first.id, second.id), (0, 1));
        assert!(
            second.at > first.at,
            "the second drain starts where the first stopped: {second:?} after {first:?}"
        );
        let prompt = report.metrics.overall.prompt_latency;
        assert_eq!(prompt.count, 2);
        assert!(prompt.p5 < prompt.p50, "{prompt:?}");
        assert_eq!(prompt.p50, prompt.max);
    }

    #[test]
    fn empty_session_reports_an_empty_run() {
        let topology = topology();
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let session = SimSession::new(sim, SimulationConfig::offline(10.0));
        let report = session.finish();
        assert_eq!(report.metrics.overall.completed_requests, 0);
        assert!(report.replans.is_empty());
    }

    #[test]
    fn injected_slowdown_degrades_the_session_batch() {
        let topology = topology();
        let config = SimulationConfig::offline(150.0).with_warmup(0.0);
        let slow = topology
            .nodes()
            .max_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
            .unwrap()
            .node;
        let run = |inject: bool| {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            let mut session = SimSession::new(sim, config);
            if inject {
                session.schedule(PerturbationEvent::NodeSlowdown {
                    at: 0.0,
                    node: slow,
                    factor: 4.0,
                });
            }
            for request in workload(40, 5).requests() {
                session.submit(*request);
            }
            session.finish()
        };
        let healthy = run(false);
        let degraded = run(true);
        assert!(
            degraded.metrics.overall.decode_throughput()
                < healthy.metrics.overall.decode_throughput()
        );
    }
}
