//! The benchmark's metrics — end to end and per layer — and the one result
//! line each run prints.  `BENCHMARK.json` at the repository root lists the
//! same names for the driver, says why each workload exists and holds the
//! bounds; `perf check` fails when the two lists differ.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// When a metric must repeat bit for bit for one seed: between two runs, and
/// from commit to commit against `perf/exact.json` (`perf check` enforces
/// both).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    /// A wall-clock measurement or something that depends on one.
    No,
    /// Deterministic on every workload: planner results, graph sizes,
    /// simulated statistics (0 where the simulator is idle).
    Yes,
    /// Deterministic on `plan_fleet` and `sim_*`; on `rt_*` the runtime's
    /// wall-clock batching decides it, and the median is reported.
    Simulated,
    /// Deterministic only with a single request in flight (`rt_live_500`).
    OneInFlight,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: Exact,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, exact: Exact) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
    }
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    metric(name, unit, better, Exact::No)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    metric(name, unit, better, Exact::Yes)
}

const fn simulated(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    metric(name, unit, better, Exact::Simulated)
}

const fn one_in_flight(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    metric(name, unit, better, Exact::OneInFlight)
}

use Better::{Higher, Lower};

/// Every end-to-end metric is defined, and never 0, on every workload.  A
/// "request" is a serving request on `sim_*` / `rt_*` and one planner call
/// on `plan_fleet`.  Their bounds are in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    wall("setup_s", "s", Lower),
    wall("req_per_wall_s", "1/s", Higher),
];

/// Per-layer metrics, reported by the traced run.  A layer that a workload
/// leaves idle reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // -- host: for reading the rest ------------------------------------
    wall("host.nproc", "count", Higher),
    wall("host.calib_mops_before", "Mops/s", Higher),
    wall("host.calib_mops_after", "Mops/s", Higher),
    wall("host.noisy", "count", Lower),
    wall("host.trace_overhead_share", "ratio", Lower),
    wall("host.cpu_per_wall", "ratio", Lower),
    wall("host.peak_rss_mb", "MB", Lower),
    // -- set-up path: moves setup_s ------------------------------------
    wall("cluster.profile_us", "us", Lower),
    wall("workload.generate_us_per_kreq", "us", Lower),
    wall("core.plan_us", "us", Lower),
    wall("core.topology.plan_us", "us", Lower),
    exact("core.topology.pipelines", "count", Higher),
    wall("core.fleet.plan_us", "us", Lower),
    wall("core.scheduling.iwrr_build_us", "us", Lower),
    wall("sim.build_us", "us", Lower),
    wall("runtime.build_ms", "ms", Lower),
    exact("core.plan_flow_tok_per_vs", "tok/vs", Higher),
    // -- planner: moves req_per_wall_s on plan_fleet, setup_s on sim_* ---
    wall("maxflow.dinic_us_per_solve", "us", Lower),
    wall("maxflow.decompose_us", "us", Lower),
    exact("maxflow.graph_nodes", "count", Lower),
    exact("maxflow.graph_edges", "count", Lower),
    wall("milp.wall_s", "s", Lower),
    exact("milp.nodes_explored", "count", Lower),
    wall("milp.ms_per_node", "ms", Lower),
    exact("milp.vars", "count", Lower),
    exact("milp.constraints", "count", Lower),
    exact("milp.objective_tok_per_vs", "tok/vs", Higher),
    wall("core.placement.anneal_us_per_iter_24", "us", Lower),
    wall("core.placement.anneal_us_per_iter_geo24", "us", Lower),
    wall("core.placement.anneal_us_per_iter_42", "us", Lower),
    exact("core.placement.anneal_flow_tok_per_vs_24", "tok/vs", Higher),
    exact(
        "core.placement.anneal_flow_tok_per_vs_geo24",
        "tok/vs",
        Higher,
    ),
    exact("core.placement.anneal_flow_tok_per_vs_42", "tok/vs", Higher),
    wall("core.placement.hier_wall_s_1008", "s", Lower),
    exact("core.placement.hier_flow_tok_per_vs_1008", "tok/vs", Higher),
    exact("core.placement.hier_pods", "count", Higher),
    wall("core.placement.incr_eval_ns_per_move", "ns", Lower),
    wall("core.placement.cold_eval_ns_per_move", "ns", Lower),
    wall("core.replan.replan_us_warm", "us", Lower),
    wall("core.replan.replan_us_cold", "us", Lower),
    // -- simulator: moves req_per_wall_s on sim_* ------------------------
    wall("sim.submit_ns_per_req", "ns", Lower),
    wall("sim.drain_wall_s", "s", Lower),
    wall("sim.finish_wall_ms", "ms", Lower),
    wall("sim.wall_us_per_req", "us", Lower),
    exact("sim.link_transfers", "count", Lower),
    wall("sim.ns_per_link_transfer", "ns", Lower),
    exact("sim.completions", "count", Higher),
    wall("sim.virtual_s_per_wall_s", "vs/s", Higher),
    wall("sim.allocs_per_req", "count", Lower),
    wall("sim.alloc_bytes_per_req", "bytes", Lower),
    wall("sim.linkqueue_ns_per_transfer", "ns", Lower),
    wall("sim.eventqueue_ns_per_push_pop", "ns", Lower),
    // Modelled (virtual-time) statistics of the simulated cluster: a change
    // meant only to speed the simulator up must leave every one identical.
    exact("sim.decode_tok_per_vs", "tok/vs", Higher),
    exact("sim.prompt_lat_vs_p50", "vs", Lower),
    exact("sim.prompt_lat_vs_p95", "vs", Lower),
    exact("sim.decode_lat_vs_p50", "vs", Lower),
    exact("sim.decode_lat_vs_p95", "vs", Lower),
    exact("sim.latency_samples", "count", Higher),
    exact("sim.virtual_s", "vs", Lower),
    exact("sim.node_util_mean", "ratio", Higher),
    exact("sim.node_util_max", "ratio", Higher),
    exact("sim.link_queue_delay_mean_vs", "vs", Lower),
    exact("sim.link_queue_delay_max_vs", "vs", Lower),
    exact("sim.replans", "count", Lower),
    // -- scheduling -------------------------------------------------------
    wall("core.scheduling.iwrr_ns_per_schedule_24", "ns", Lower),
    wall("core.scheduling.iwrr_ns_per_schedule_500", "ns", Lower),
    wall("core.scheduling.kv_estimate_ns", "ns", Lower),
    wall("core.scheduling.prefix_route_ns", "ns", Lower),
    simulated("core.scheduling.prefix_hit_share", "ratio", Higher),
    simulated("core.scheduling.prefill_saved_share", "ratio", Higher),
    // -- high availability --------------------------------------------------
    simulated("core.ha.repl_chunks", "count", Lower),
    simulated("core.ha.repl_bytes", "bytes", Lower),
    exact("core.ha.promoted", "count", Higher),
    exact("core.ha.aborted", "count", Lower),
    exact("core.ha.recompute_share", "ratio", Lower),
    wall("core.ha.select_standby_ns", "ns", Lower),
    // -- runtime: moves req_per_wall_s on rt_* ------------------------------
    wall("runtime.submit_ns_per_req", "ns", Lower),
    wall("runtime.drain_wall_s", "s", Lower),
    wall("runtime.finish_ms", "ms", Lower),
    wall("runtime.wall_us_per_req", "us", Lower),
    one_in_flight("runtime.messages", "count", Lower),
    one_in_flight("runtime.msgs_per_req", "count", Lower),
    wall("runtime.ns_per_message", "ns", Lower),
    wall("runtime.batches", "count", Lower),
    wall("runtime.tokens_per_batch", "count", Higher),
    wall("runtime.kv_rejections", "count", Lower),
    wall("runtime.kv_peak_util_max", "ratio", Lower),
    wall("runtime.allocs_per_req", "count", Lower),
    wall("runtime.threads", "count", Lower),
    wall("runtime.rtt_wall_us_p50", "us", Lower),
    wall("runtime.rtt_wall_us_p99", "us", Lower),
    wall("runtime.kvpool_ns_per_alloc_release", "ns", Lower),
    wall("runtime.kvpool_prefix_attach_ns", "ns", Lower),
    wall("minirt.spawn_ns", "ns", Lower),
    wall("minirt.channel_ns_per_msg", "ns", Lower),
    wall("minirt.timer_ns_per_sleep0", "ns", Lower),
    // -- region tier: parked, no workload routes through it ------------------
    wall("core.region.ring_route_ns", "ns", Lower),
];

/// Values measured by one run, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a defined metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undefined metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn number(value: f64) -> String {
    // JSON has no NaN or infinity; a measurement that produced one is a bug
    // worth seeing, so it becomes an (invalid for the driver) null.
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The one line the driver reads: `correct`, `attempted`, `failed` and
/// every metric of `defs` (a metric the run did not set reports 0: the
/// layer was idle).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        let value = values.get(def.name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            number(value),
            def.unit
        );
    }
    line.push_str("}}");
    line
}
