//! End-to-end multi-model serving: a 2-model mixed workload runs through the
//! joint fleet planner → `FleetTopology` → per-model IWRR → the discrete-event
//! simulator **and** the prototype runtime, with per-model throughput and
//! latency reported by both surfaces.

use helix::prelude::*;
use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner};
use helix_core::{FleetScheduler, FleetTopology};
use helix_workload::AzureTraceConfig;

fn planned_fleet() -> (Vec<ClusterProfile>, FleetTopology) {
    let profiles = fleet_profiles(
        &ClusterSpec::single_cluster_24(),
        &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
    );
    let planner = FleetAnnealingPlanner::new(&profiles).with_options(FleetAnnealingOptions {
        iterations: 500,
        ..Default::default()
    });
    let (placement, flows) = planner.solve().expect("2-model fleet plans");
    assert!(flows.iter().all(|&f| f > 0.0), "per-model flows {flows:?}");
    let fleet = FleetTopology::plan(&profiles, &placement, true).expect("fleet topology plans");
    (profiles, fleet)
}

fn mixed_workload(n_per_model: usize) -> helix_workload::Workload {
    let config = AzureTraceConfig {
        mean_input_tokens: 96.0,
        mean_output_tokens: 16.0,
        max_input_tokens: 256,
        max_output_tokens: 32,
    };
    helix_workload::Workload::merge(vec![
        config
            .generate(n_per_model, 21)
            .with_model(helix_cluster::ModelId(0)),
        config
            .generate(n_per_model, 22)
            .with_model(helix_cluster::ModelId(1)),
    ])
    .with_arrivals(ArrivalPattern::Offline, 9)
}

#[test]
fn two_model_mixed_workload_serves_in_the_simulator() {
    let (_, fleet) = planned_fleet();
    let schedulers = FleetScheduler::iwrr(&fleet).unwrap();
    let sim = ClusterSimulator::new_fleet(&fleet, schedulers);
    let config = SimulationConfig::offline(200.0).with_warmup(0.0);
    let metrics = SimSession::new(sim, config)
        .serve(&mixed_workload(30))
        .metrics;

    assert_eq!(metrics.per_model.len(), 2);
    for (m, per_model) in metrics.per_model.iter().enumerate() {
        assert!(
            per_model.decode_throughput() > 0.0,
            "model {m} reports no throughput"
        );
        assert!(
            per_model.completed_requests > 0,
            "model {m} completed nothing"
        );
        assert!(per_model.avg_prompt_latency() > 0.0);
    }
    // The combined view aggregates the per-model ones.
    assert_eq!(
        metrics.overall.decode_tokens,
        metrics
            .per_model
            .iter()
            .map(|m| m.decode_tokens)
            .sum::<u64>()
    );
    assert!(metrics.overall.decode_throughput() > 0.0);
}

#[test]
fn two_model_mixed_workload_serves_in_the_runtime() {
    let (_, fleet) = planned_fleet();
    let session = FleetScheduler::iwrr(&fleet)
        .unwrap()
        .into_parts()
        .into_iter()
        .fold(
            helix_runtime::ServingBuilder::new().fleet(&fleet),
            helix_runtime::ServingBuilder::scheduler,
        )
        .config(helix_runtime::RuntimeConfig::fast_test())
        .build()
        .unwrap();
    let workload = mixed_workload(15);
    let total = workload.len();
    let report = session.serve(&workload).unwrap();
    assert_eq!(report.completed(), total);
    for m in 0..2 {
        let model = helix_cluster::ModelId(m);
        assert!(
            report.decode_throughput_for(model) > 0.0,
            "model {m} reports no throughput"
        );
        let latency = report.prompt_latency_for(model);
        assert!(latency.count > 0 && latency.mean >= 0.0);
        assert!(!report.outcomes_for(model).is_empty());
    }
    // Throughputs decompose over models.
    let sum = report.decode_throughput_for(helix_cluster::ModelId(0))
        + report.decode_throughput_for(helix_cluster::ModelId(1));
    assert!((sum - report.decode_throughput()).abs() < 1e-6);
}

#[test]
fn jsonl_traces_with_model_mixes_replay_through_the_simulator() {
    let (_, fleet) = planned_fleet();
    // A small hand-written mixed trace.
    let mut lines = String::new();
    for i in 0..30 {
        lines.push_str(&format!(
            "{{\"arrival_time\": {:.2}, \"prompt_tokens\": 64, \"output_tokens\": 8, \"model\": {}}}\n",
            0.1 * i as f64,
            i % 2
        ));
    }
    let workload = helix_workload::Workload::from_jsonl_str(&lines).unwrap();
    assert_eq!(workload.len(), 30);
    let models: std::collections::BTreeSet<ModelId> = workload.iter().map(|r| r.model).collect();
    assert_eq!(models.len(), 2);
    let schedulers = FleetScheduler::iwrr(&fleet).unwrap();
    let sim = ClusterSimulator::new_fleet(&fleet, schedulers);
    let config = SimulationConfig::online(120.0).with_warmup(0.0);
    let metrics = SimSession::new(sim, config).serve(&workload).metrics;
    assert!(metrics.per_model[0].completed_requests > 0);
    assert!(metrics.per_model[1].completed_requests > 0);
}
