//! Reproduces the Helix paper's tables and figures.
//!
//! Each table or figure is one function of [`artifacts`], named in
//! [`artifacts::ARTIFACTS`]; the `report` binary runs the ones it is asked
//! for and writes their reports.  This library also holds the machinery they
//! share:
//!
//! * [`ExperimentScale`] — every experiment runs either in `quick` mode
//!   (scaled-down workloads so the whole suite finishes in minutes on a
//!   laptop) or `full` mode (trace sizes and durations close to the paper's);
//! * [`SystemKind`] — the serving systems compared throughout §6: Helix,
//!   Swarm, separate pipelines (SP) and SP+;
//! * [`run_serving`] — plan a placement for a system, build its scheduler,
//!   simulate a workload and report the paper's metrics;
//! * [`ExperimentReport`] — JSON + human-readable output written to
//!   `results/*.json`, so every printed number is machine-checkable;
//! * [`BenchError`] — why an artifact could not be produced.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod artifacts;

use helix_cluster::ClusterProfile;
use helix_core::{
    heuristics, AnnealingOptions, FlowAnnealingPlanner, FlowGraphBuilder, HelixError,
    IwrrScheduler, LatencyStats, ModelPlacement, RandomScheduler, Scheduler, SchedulerKind,
    ShortestQueueScheduler, SwarmScheduler, Topology,
};
use helix_sim::{ClusterSimulator, Metrics, SimulationConfig};
use helix_workload::{ArrivalPattern, AzureTraceConfig, Workload};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;

/// Why an artifact could not be produced.
#[derive(Debug)]
pub enum BenchError {
    /// No artifact has this name.
    UnknownArtifact(String),
    /// A planner or the flow machinery failed where the artifact needs its
    /// result.
    Planning(HelixError),
    /// A report could not be serialised.
    Json(serde_json::Error),
    /// A report could not be written.
    Io(std::io::Error),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownArtifact(name) => write!(f, "no artifact is named `{name}`"),
            BenchError::Planning(e) => write!(f, "planning failed: {e}"),
            BenchError::Json(e) => write!(f, "report does not serialise: {e}"),
            BenchError::Io(e) => write!(f, "report not written: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<HelixError> for BenchError {
    fn from(e: HelixError) -> Self {
        BenchError::Planning(e)
    }
}

impl From<serde_json::Error> for BenchError {
    fn from(e: serde_json::Error) -> Self {
        BenchError::Json(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// How big the experiment should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Scaled-down workloads (default): hundreds of requests, a few simulated
    /// minutes.  Preserves the relative ordering of systems.
    Quick,
    /// Paper-scale workloads: the full synthetic trace and long measurement
    /// windows.  Slow but closest to the published setup.
    Full,
}

impl ExperimentScale {
    /// Number of requests in the generated trace.
    pub fn num_requests(self) -> usize {
        match self {
            ExperimentScale::Quick => 600,
            ExperimentScale::Full => 16_657,
        }
    }

    /// Simulated measurement duration in seconds.
    pub fn duration_secs(self) -> f64 {
        match self {
            ExperimentScale::Quick => 300.0,
            ExperimentScale::Full => 1800.0,
        }
    }

    /// Iterations of the flow-guided placement search.
    pub fn planner_iterations(self) -> usize {
        match self {
            ExperimentScale::Quick => 2500,
            ExperimentScale::Full => 12_000,
        }
    }

    /// Mean output length used when sizing request lengths; quick mode trims
    /// request lengths to keep the event count manageable.
    pub fn trace_config(self) -> AzureTraceConfig {
        match self {
            ExperimentScale::Quick => AzureTraceConfig {
                mean_input_tokens: 256.0,
                mean_output_tokens: 64.0,
                max_input_tokens: 1024,
                max_output_tokens: 256,
            },
            ExperimentScale::Full => AzureTraceConfig::default(),
        }
    }
}

/// The serving systems compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Helix: flow-maximising placement + IWRR scheduling.
    Helix,
    /// Swarm: equal-stage placement + throughput-proportional scheduling.
    Swarm,
    /// Separate pipelines: one replica per GPU type, IWRR within each.
    SeparatePipelines,
    /// SP+: separate pipelines plus a mixed pipeline from leftover nodes.
    SeparatePipelinesPlus,
}

impl SystemKind {
    /// Short label used in tables ("H", "S", "SP", "SP+").
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Helix => "Helix",
            SystemKind::Swarm => "Swarm",
            SystemKind::SeparatePipelines => "SP",
            SystemKind::SeparatePipelinesPlus => "SP+",
        }
    }

    /// Plans the model placement this system would use.
    pub fn placement(
        self,
        profile: &ClusterProfile,
        scale: ExperimentScale,
    ) -> Option<ModelPlacement> {
        match self {
            SystemKind::Helix => {
                let planner = FlowAnnealingPlanner::new(profile).with_options(AnnealingOptions {
                    iterations: scale.planner_iterations(),
                    ..Default::default()
                });
                planner.solve().ok().map(|(p, _)| p)
            }
            SystemKind::Swarm => heuristics::swarm_placement(profile).ok(),
            SystemKind::SeparatePipelines => heuristics::separate_pipelines_placement(profile).ok(),
            SystemKind::SeparatePipelinesPlus => {
                heuristics::separate_pipelines_plus_placement(profile).ok()
            }
        }
    }

    /// Plans this system's placement and materialises it as the shared
    /// [`Topology`] artifact every downstream surface consumes.
    pub fn topology(self, profile: &ClusterProfile, scale: ExperimentScale) -> Option<Topology> {
        let placement = self.placement(profile, scale)?;
        Topology::plan(profile, &placement, true).ok()
    }

    /// Builds the request scheduler this system would use for a planned
    /// topology.
    pub fn scheduler(self, topology: &Topology) -> Option<Box<dyn Scheduler>> {
        let kind = match self {
            SystemKind::Helix
            | SystemKind::SeparatePipelines
            | SystemKind::SeparatePipelinesPlus => SchedulerKind::HelixIwrr,
            SystemKind::Swarm => SchedulerKind::Swarm,
        };
        // Neither kind draws from the seed.
        scheduler_of_kind(kind, topology, 0).ok()
    }
}

/// Builds a scheduler of the given kind for an already-planned topology
/// (used by the §6.6–§6.7 deep dives).
///
/// # Errors
///
/// The IWRR scheduler's, when the topology has no pipeline to weigh.
pub fn scheduler_of_kind(
    kind: SchedulerKind,
    topology: &Topology,
    seed: u64,
) -> Result<Box<dyn Scheduler>, HelixError> {
    Ok(match kind {
        SchedulerKind::HelixIwrr => Box::new(IwrrScheduler::from_topology(topology)?),
        SchedulerKind::Swarm => Box::new(SwarmScheduler::new(topology)),
        SchedulerKind::Random => Box::new(RandomScheduler::new(topology, seed)),
        SchedulerKind::ShortestQueue => Box::new(ShortestQueueScheduler::new(topology)),
    })
}

/// Offline or online serving setting (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingSetting {
    /// Requests arrive as fast as the cluster can absorb them.
    Offline,
    /// Arrivals follow a diurnal curve scaled to 75% of peak throughput.
    Online,
}

impl ServingSetting {
    /// Short label used in table rows.
    pub fn label(self) -> &'static str {
        match self {
            ServingSetting::Offline => "offline",
            ServingSetting::Online => "online",
        }
    }
}

/// One measured row: a (system, setting) pair and its serving metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingRow {
    /// System label ("Helix", "Swarm", "SP", "SP+").
    pub system: String,
    /// "offline" or "online".
    pub setting: String,
    /// Model name.
    pub model: String,
    /// Cluster name.
    pub cluster: String,
    /// Max-flow throughput of the system's placement (tokens/s).
    pub placement_max_flow: f64,
    /// Pipeline depth of the placement.
    pub pipeline_depth: usize,
    /// Measured decode throughput (tokens/s).
    pub decode_throughput: f64,
    /// Prompt-latency samples in the measurement window; the three prompt
    /// latencies are `None` (JSON `null`) without one.
    pub prompt_samples: usize,
    /// Mean prompt latency (s).
    pub prompt_latency_mean: Option<f64>,
    /// Median prompt latency (s).
    pub prompt_latency_p50: Option<f64>,
    /// 95th-percentile prompt latency (s).
    pub prompt_latency_p95: Option<f64>,
    /// Decode-latency samples in the measurement window; the three decode
    /// latencies are `None` (JSON `null`) without one.
    pub decode_samples: usize,
    /// Mean decode latency (s/token).
    pub decode_latency_mean: Option<f64>,
    /// Median decode latency (s/token).
    pub decode_latency_p50: Option<f64>,
    /// 95th-percentile decode latency (s/token).
    pub decode_latency_p95: Option<f64>,
    /// Requests completed in the measurement window.
    pub completed_requests: u64,
}

impl ServingRow {
    fn from_metrics(
        system: SystemKind,
        setting: ServingSetting,
        topology: &Topology,
        metrics: &Metrics,
    ) -> Self {
        let profile = topology.profile();
        // An empty summary is all zeros; a row says "no sample" instead.
        let (prompt, decode) = (&metrics.prompt_latency, &metrics.decode_latency);
        let sampled = |stats: &LatencyStats, value: f64| (stats.count > 0).then_some(value);
        ServingRow {
            system: system.label().to_string(),
            setting: setting.label().to_string(),
            model: profile.model().name.clone(),
            cluster: profile.cluster().name.clone(),
            placement_max_flow: topology.flow_value(),
            pipeline_depth: topology
                .placement()
                .pipeline_depth(profile.model().num_layers),
            decode_throughput: metrics.decode_throughput(),
            prompt_samples: prompt.count,
            prompt_latency_mean: sampled(prompt, prompt.mean),
            prompt_latency_p50: sampled(prompt, prompt.p50),
            prompt_latency_p95: sampled(prompt, prompt.p95),
            decode_samples: decode.count,
            decode_latency_mean: sampled(decode, decode.mean),
            decode_latency_p50: sampled(decode, decode.p50),
            decode_latency_p95: sampled(decode, decode.p95),
            completed_requests: metrics.completed_requests,
        }
    }
}

/// Generates the workload used by a serving experiment.
pub fn experiment_workload(
    profile: &ClusterProfile,
    setting: ServingSetting,
    scale: ExperimentScale,
    seed: u64,
) -> Workload {
    let base = scale.trace_config().generate(scale.num_requests(), seed);
    match setting {
        ServingSetting::Offline => base.with_arrivals(ArrivalPattern::Offline, seed + 1),
        ServingSetting::Online => {
            // 75% of the cluster's peak request throughput, like the paper.
            let peak = best_placement_flow(profile, scale);
            let mean_output = scale.trace_config().mean_output_tokens;
            base.with_arrivals(ArrivalPattern::online(peak, mean_output, 0.75), seed + 1)
        }
    }
}

/// Max-flow throughput of the Helix placement (used to scale online arrival
/// rates).
fn best_placement_flow(profile: &ClusterProfile, scale: ExperimentScale) -> f64 {
    FlowAnnealingPlanner::new(profile)
        .with_options(AnnealingOptions {
            iterations: scale.planner_iterations() / 4,
            ..Default::default()
        })
        .solve()
        .map(|(_, v)| v)
        .unwrap_or(1000.0)
}

/// Evaluates a placement's max flow (0 if infeasible).
pub fn placement_flow(profile: &ClusterProfile, placement: &ModelPlacement) -> f64 {
    FlowGraphBuilder::new(profile)
        .build(placement)
        .map(|g| g.max_flow().value)
        .unwrap_or(0.0)
}

/// Plans, schedules and simulates one (system, setting) combination.
///
/// The system's placement is planned **once** into a [`Topology`]; the
/// scheduler and the simulator both consume that artifact (no re-derivation,
/// no second max-flow solve).
///
/// Returns `None` when the system cannot build a placement on this cluster
/// (e.g. plain SP on a cluster where no GPU type can hold the model).
pub fn run_serving(
    profile: &ClusterProfile,
    system: SystemKind,
    setting: ServingSetting,
    scale: ExperimentScale,
    seed: u64,
) -> Option<ServingRow> {
    let topology = system.topology(profile, scale)?;
    let scheduler = system.scheduler(&topology)?;
    let workload = experiment_workload(profile, setting, scale, seed);
    let config = match setting {
        ServingSetting::Offline => SimulationConfig::offline(scale.duration_secs()),
        ServingSetting::Online => SimulationConfig::online(scale.duration_secs()),
    };
    let mut sim = ClusterSimulator::new(&topology, scheduler);
    let metrics = sim.run(&workload, config);
    Some(ServingRow::from_metrics(
        system, setting, &topology, &metrics,
    ))
}

/// Serves the offline workload on a fixed placement with a specific
/// scheduler kind (the §6.6–§6.7 deep dives and the pruning ablation) and
/// returns the metrics with the placement's max flow.
///
/// # Errors
///
/// When the placement cannot be planned into a topology or the scheduler
/// cannot be built on it.
pub fn run_with_scheduler(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    kind: SchedulerKind,
    scale: ExperimentScale,
    seed: u64,
) -> Result<(Metrics, f64), HelixError> {
    let topology = Topology::plan(profile, placement, true)?;
    let scheduler = scheduler_of_kind(kind, &topology, seed)?;
    let workload = experiment_workload(profile, ServingSetting::Offline, scale, seed);
    let mut sim = ClusterSimulator::new(&topology, scheduler);
    let metrics = sim.run(&workload, SimulationConfig::offline(scale.duration_secs()));
    Ok((metrics, topology.flow_value()))
}

/// A machine-readable experiment report written to `results/<name>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment identifier, e.g. `"fig6_single_cluster"`.
    pub name: String,
    /// Which paper artifact this reproduces.
    pub paper_artifact: String,
    /// Scale the run used.
    pub scale: ExperimentScale,
    /// Arbitrary JSON payload with the measured rows/series.
    pub data: serde_json::Value,
}

impl ExperimentReport {
    /// Creates a report.
    pub fn new(
        name: impl Into<String>,
        paper_artifact: impl Into<String>,
        scale: ExperimentScale,
        data: serde_json::Value,
    ) -> Self {
        ExperimentReport {
            name: name.into(),
            paper_artifact: paper_artifact.into(),
            scale,
            data,
        }
    }

    /// Writes the report to `results/<name>.json` (directory is created if
    /// needed) and returns the path.
    ///
    /// # Errors
    ///
    /// [`BenchError::Json`] or [`BenchError::Io`] when it cannot.
    pub fn write(&self) -> Result<PathBuf, BenchError> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, serde_json::to_string_pretty(self)?)?;
        Ok(path)
    }
}

/// The directory experiment outputs are written to (`HELIX_RESULTS_DIR` or
/// `./results`).
pub fn results_dir() -> PathBuf {
    std::env::var("HELIX_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterSpec, ModelConfig};
    use std::collections::HashMap;

    #[test]
    fn scale_parsing_and_parameters() {
        assert_eq!(ExperimentScale::Quick.num_requests(), 600);
        assert!(ExperimentScale::Full.num_requests() > 10_000);
        assert!(ExperimentScale::Full.duration_secs() > ExperimentScale::Quick.duration_secs());
    }

    #[test]
    fn system_kinds_have_labels_and_placements() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        for system in [SystemKind::Swarm, SystemKind::SeparatePipelines] {
            let topology = system.topology(&profile, ExperimentScale::Quick).unwrap();
            assert!(topology.flow_value() > 0.0);
            assert!(
                (placement_flow(&profile, topology.placement()) - topology.flow_value()).abs()
                    < 1e-9
            );
            assert!(system.scheduler(&topology).is_some());
            assert!(!system.label().is_empty());
        }
    }

    #[test]
    fn experiment_report_round_trips_to_disk() {
        std::env::set_var(
            "HELIX_RESULTS_DIR",
            std::env::temp_dir().join("helix-bench-test"),
        );
        let report = ExperimentReport::new(
            "unit_test_report",
            "none",
            ExperimentScale::Quick,
            serde_json::json!({"value": 42}),
        );
        let path = report.write().unwrap();
        let loaded: ExperimentReport =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(loaded.name, "unit_test_report");
        assert_eq!(loaded.data["value"], 42);
    }

    /// Helix online at quick scale completes requests yet has no prompt
    /// sample in the window (every arrival lands inside the warm-up): such a
    /// summary is absent, never a latency of zero.
    #[test]
    fn a_summary_without_samples_is_absent_not_zero() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let system = SystemKind::Swarm;
        let topology = system.topology(&profile, ExperimentScale::Quick).unwrap();
        let metrics = Metrics {
            measured_seconds: 10.0,
            decode_tokens: 640,
            completed_requests: 5,
            prompt_latency: LatencyStats::from_samples(&[]),
            decode_latency: LatencyStats::from_samples(&[0.1, 0.2]),
            node_utilization: HashMap::new(),
            link_stats: Vec::new(),
        };
        let setting = ServingSetting::Online;
        let row = ServingRow::from_metrics(system, setting, &topology, &metrics);
        assert_eq!((row.prompt_samples, row.decode_samples), (0, 2));
        assert_eq!(row.prompt_latency_mean, None);
        assert_eq!(row.prompt_latency_p95, None);
        assert!((row.decode_latency_mean.unwrap() - 0.15).abs() < 1e-12);
        let json = serde_json::to_value(&row).unwrap();
        for field in [
            "prompt_latency_mean",
            "prompt_latency_p50",
            "prompt_latency_p95",
        ] {
            assert_eq!(json[field], serde_json::Value::Null, "{field}");
        }
        assert_eq!(json["prompt_samples"], 0);
        assert_eq!(json["completed_requests"], 5);
    }
}
