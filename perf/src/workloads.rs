//! The five workloads.  Each is a fixed amount of work on input generated
//! from the seed; one call of [`Workload::rep`] sets the system up from
//! scratch, does the work once and verifies what came back.
//!
//! Sizes are frozen here (and divided by ten under `--smoke`).  Arrival
//! rates and windows are absolute numbers, never derived from a plan, so a
//! seed gives the same input on every commit.

use crate::alloc::{self, AllocCount};
use crate::host;
use crate::surface::{self as sf, Cluster, Llm, Res};
use crate::trace::Tracer;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanFleet,
    SimOffline24,
    SimOnlineHa96,
    RtBurstHa24,
    RtLive500,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PlanFleet,
        Workload::SimOffline24,
        Workload::SimOnlineHa96,
        Workload::RtBurstHa24,
        Workload::RtLive500,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanFleet => "plan_fleet",
            Workload::SimOffline24 => "sim_offline_24",
            Workload::SimOnlineHa96 => "sim_online_ha_96",
            Workload::RtBurstHa24 => "rt_burst_ha_24",
            Workload::RtLive500 => "rt_live_500",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether identical input must give bit-identical results: true for
    /// the planner and the simulator, false for the wall-clock-driven
    /// runtime.
    pub fn deterministic(self) -> bool {
        !matches!(self, Workload::RtBurstHa24 | Workload::RtLive500)
    }
}

/// What one repetition is asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    /// `--smoke`: a tenth of the work.
    pub smoke: bool,
    pub tracer: &'a mut Tracer,
    /// Count allocations during the measured section (traced runs only).
    pub count_allocs: bool,
}

/// A frozen size, or a tenth of it under `--smoke`.
pub fn scaled(full: usize, smoke: bool) -> usize {
    if smoke {
        (full / 10).max(1)
    } else {
        full
    }
}

impl Ctx<'_> {
    fn size(&self, full: usize) -> usize {
        scaled(full, self.smoke)
    }

    /// Runs `f` inside a span called `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.scope(name, f)
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub work_s: f64,
    /// CPU seconds (all threads) spent during the measured section.
    pub work_cpu_s: f64,
    /// Requests behind `req_per_wall_s`: serving requests, or planner calls.
    pub items: u64,
    pub attempted: u64,
    /// Requests that did not complete correctly, plus one per verification
    /// rule broken.
    pub failed: u64,
    /// Per-layer values that must repeat bit for bit on identical input.
    pub exact: Vec<(&'static str, f64)>,
    /// Per-layer counts that depend on wall-clock timing.
    pub varying: Vec<(&'static str, f64)>,
    /// Allocations during the measured section, when counted.
    pub allocs: Option<AllocCount>,
}

impl Rep {
    /// Counts one broken verification rule.
    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("perf: verification failed: {what}");
        }
    }
}

/// Wall and CPU clocks around the measured section, plus the allocation
/// counter when the repetition is traced.
struct Measured {
    start: Instant,
    cpu_start: f64,
    counting: bool,
}

impl Measured {
    fn start(cx: &Ctx) -> Measured {
        if cx.count_allocs {
            alloc::start();
        }
        Measured {
            cpu_start: host::cpu_seconds(),
            counting: cx.count_allocs,
            start: Instant::now(),
        }
    }

    fn stop(self, rep: &mut Rep) {
        rep.work_s = self.start.elapsed().as_secs_f64();
        rep.work_cpu_s = host::cpu_seconds() - self.cpu_start;
        rep.allocs = self.counting.then(alloc::stop);
    }
}

/// Runs a workload's set-up inside the `setup` span and records how long it
/// took.
fn timed_setup<T>(cx: &mut Ctx, rep: &mut Rep, setup: impl FnOnce(&mut Ctx) -> Res<T>) -> Res<T> {
    let start = Instant::now();
    let open = cx.tracer.begin("setup");
    let ready = setup(cx)?;
    cx.tracer.end(open);
    rep.setup_s = start.elapsed().as_secs_f64();
    Ok(ready)
}

impl Workload {
    /// One repetition: set-up, the measured work, verification.
    pub fn rep(self, cx: &mut Ctx) -> Res<Rep> {
        let open = cx.tracer.begin("rep");
        let rep = match self {
            Workload::PlanFleet => plan_fleet(cx),
            Workload::SimOffline24 => sim_offline_24(cx),
            Workload::SimOnlineHa96 => sim_online_ha_96(cx),
            Workload::RtBurstHa24 => rt_burst_ha_24(cx),
            Workload::RtLive500 => rt_live_500(cx),
        };
        match rep {
            Ok(_) => cx.tracer.end(open),
            // The error left inner spans open; close them all.
            Err(_) => cx.tracer.close_all(),
        }
        rep
    }

    /// Requests one repetition attempts (for counting a repetition that
    /// failed before it could report).
    pub fn items(self, smoke: bool) -> u64 {
        let size = |full: usize| scaled(full, smoke) as u64;
        match self {
            Workload::PlanFleet => 5 + size(PLAN_REPLANS),
            Workload::SimOffline24 => size(OFFLINE_REQUESTS),
            Workload::SimOnlineHa96 => size(ONLINE_REQUESTS),
            Workload::RtBurstHa24 => size(BURST_REQUESTS),
            Workload::RtLive500 => size(LIVE_ROUND_TRIPS),
        }
    }
}

// ---------------------------------------------------------------------------
// plan_fleet
// ---------------------------------------------------------------------------

/// Branch & bound node budget of the MILP on the pruned 10-node problem.
const PLAN_MILP_NODES: usize = 10;
/// Annealing moves on each of the paper's three clusters.
pub const PLAN_ANNEAL_ITERATIONS: usize = 10_000;
/// Fleet-wide move budget of the hierarchical planner on 1008 nodes.
const PLAN_HIER_ITERATIONS: usize = 2_000;
/// Warm re-plans of the migration delta.
pub const PLAN_REPLANS: usize = 200;
/// Worker threads of the hierarchical planner (this box has 2 cores; the
/// result does not depend on the value).
const PLAN_THREADS: usize = 2;

struct PlanReady {
    study10: sf::Profile,
    clusters: [(&'static str, &'static str, sf::Profile); 3],
    planet: sf::FleetProfiles,
    replan: sf::ReplanRig,
}

fn plan_setup(cx: &mut Ctx) -> Res<PlanReady> {
    let (study10, clusters, planet) = cx.span("cluster.profile", || {
        (
            sf::profile(Cluster::Study10, Llm::Llama30b),
            [
                (
                    "core.placement.anneal_24",
                    "core.placement.anneal_flow_tok_per_vs_24",
                    sf::profile(Cluster::Single24, Llm::Llama70b),
                ),
                (
                    "core.placement.anneal_geo24",
                    "core.placement.anneal_flow_tok_per_vs_geo24",
                    sf::profile(Cluster::Geo24, Llm::Llama70b),
                ),
                (
                    "core.placement.anneal_42",
                    "core.placement.anneal_flow_tok_per_vs_42",
                    sf::profile(Cluster::Hetero42, Llm::Llama70b),
                ),
            ],
            sf::fleet_profiles(
                Cluster::Planet1008,
                &[Llm::Llama30b, Llm::Llama13b, Llm::Llama70b, Llm::Llama405b],
            ),
        )
    });
    let replan = cx.span("core.fleet.plan", sf::replan_rig)?;
    Ok(PlanReady {
        study10,
        clusters,
        planet,
        replan,
    })
}

fn plan_fleet(cx: &mut Ctx) -> Res<Rep> {
    let mut rep = Rep::default();
    let mut ready = timed_setup(cx, &mut rep, plan_setup)?;

    let milp_nodes = cx.size(PLAN_MILP_NODES) as u64;
    let anneal_iterations = cx.size(PLAN_ANNEAL_ITERATIONS);
    let hier_iterations = cx.size(PLAN_HIER_ITERATIONS);
    let replans = cx.size(PLAN_REPLANS);

    let measured = Measured::start(cx);
    let open = cx.tracer.begin("serve");
    let milp = cx.span("milp.solve", || sf::milp(&ready.study10, milp_nodes));
    let mut annealed = Vec::with_capacity(3);
    for (span, _, profile) in &ready.clusters {
        annealed.push(cx.span(span, || sf::anneal(profile, anneal_iterations)));
    }
    let hier = cx.span("core.placement.hier_1008", || {
        sf::hierarchical(&ready.planet, hier_iterations, PLAN_THREADS)
    });
    let replanned: Vec<Res<f64>> = cx.span("core.replan.warm", || {
        (0..replans).map(|_| ready.replan.replan()).collect()
    });
    cx.tracer.end(open);
    measured.stop(&mut rep);

    let open = cx.tracer.begin("verify");
    rep.items = Workload::PlanFleet.items(cx.smoke);
    rep.attempted = rep.items;
    let mut planned_flow = 0.0;
    match &milp {
        Ok(run) => {
            rep.require(
                run.placement.valid_for(&ready.study10),
                "MILP placement validates",
            );
            rep.require(run.objective_tok_per_vs > 0.0, "MILP objective is positive");
            rep.exact.extend([
                ("milp.nodes_explored", run.nodes_explored as f64),
                ("milp.vars", run.vars as f64),
                ("milp.constraints", run.constraints as f64),
                ("milp.objective_tok_per_vs", run.objective_tok_per_vs),
            ]);
        }
        Err(e) => rep.require(false, &format!("MILP planner: {e}")),
    }
    for ((_, flow_metric, profile), result) in ready.clusters.iter().zip(&annealed) {
        match result {
            Ok((placement, flow)) => {
                rep.require(placement.valid_for(profile), "annealed placement validates");
                rep.require(*flow > 0.0, "annealed flow is positive");
                rep.exact.push((*flow_metric, *flow));
                planned_flow += flow;
            }
            Err(e) => rep.require(false, &format!("annealing planner: {e}")),
        }
    }
    match &hier {
        Ok(run) => {
            rep.require(
                run.plan.valid_for(&ready.planet),
                "hierarchical plan validates",
            );
            rep.require(!run.used_fallback, "1008 nodes plan hierarchically");
            rep.require(
                run.flows.iter().all(|&f| f > 0.0),
                "every model of the fleet gets flow",
            );
            let total: f64 = run.flows.iter().sum();
            rep.exact.extend([
                ("core.placement.hier_flow_tok_per_vs_1008", total),
                ("core.placement.hier_pods", run.pods as f64),
            ]);
            planned_flow += total;
        }
        Err(e) => rep.require(false, &format!("hierarchical planner: {e}")),
    }
    let bad_replans = replanned
        .iter()
        .filter(|r| !matches!(r, Ok(flow) if *flow > 0.0))
        .count();
    rep.failed += bad_replans as u64;
    rep.exact.push(("core.plan_flow_tok_per_vs", planned_flow));
    cx.tracer.end(open);
    Ok(rep)
}

// ---------------------------------------------------------------------------
// sim_offline_24
// ---------------------------------------------------------------------------

const OFFLINE_REQUESTS: usize = 4_000;
const OFFLINE_ANNEAL_ITERATIONS: usize = 2_500;
/// Keeps the 24-node cluster saturated without exceeding its KV budget.
const OFFLINE_ADMISSION_LIMIT: usize = 64;

struct OfflineReady {
    profile: sf::Profile,
    placement: sf::Placement,
    topology: sf::Topo,
    sim: sf::Sim,
    requests: sf::Requests,
}

fn offline_setup(cx: &mut Ctx) -> Res<OfflineReady> {
    let iterations = cx.size(OFFLINE_ANNEAL_ITERATIONS);
    let n = cx.size(OFFLINE_REQUESTS);
    let seed = cx.seed;
    let profile = cx.span("cluster.profile", || {
        sf::profile(Cluster::Single24, Llm::Llama70b)
    });
    let (placement, _) = cx.span("core.plan", || sf::anneal(&profile, iterations))?;
    let topology = cx.span("core.topology.plan", || sf::topology(&profile, &placement))?;
    let scheduler = cx.span("core.scheduling.iwrr_build", || sf::iwrr(&topology))?;
    let sim = cx.span("sim.build", || {
        sf::sim_offline(&topology, scheduler, OFFLINE_ADMISSION_LIMIT)
    });
    let requests = cx.span("workload.generate", || sf::requests_offline(n, seed));
    Ok(OfflineReady {
        profile,
        placement,
        topology,
        sim,
        requests,
    })
}

/// submit -> drain -> finish on a simulator session, each in its span.
fn sim_serve(cx: &mut Ctx, mut sim: sf::Sim, requests: &sf::Requests, rep: &mut Rep) -> sf::SimRun {
    let measured = Measured::start(cx);
    let open = cx.tracer.begin("serve");
    cx.span("sim.submit", || sim.submit_all(requests));
    cx.span("sim.drain", || sim.drain());
    let run = cx.span("sim.finish", || sim.finish());
    cx.tracer.end(open);
    measured.stop(rep);
    run
}

/// The checks and the exact per-layer values every simulated run shares.
fn sim_verify(rep: &mut Rep, run: &sf::SimRun, requests: &sf::Requests) {
    let n = requests.len() as u64;
    rep.items = n;
    rep.attempted = n;
    rep.failed += n.saturating_sub(run.completed);
    rep.require(run.completed <= n, "no more completions than submissions");
    rep.require(
        run.distinct_completions == run.completed,
        "every completion is a distinct request",
    );
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    rep.exact.extend([
        ("sim.completions", run.completed as f64),
        ("sim.link_transfers", run.link_transfers as f64),
        ("sim.decode_tok_per_vs", run.decode_tok_per_vs),
        ("sim.prompt_lat_vs_p50", run.prompt_lat_vs_p50),
        ("sim.prompt_lat_vs_p95", run.prompt_lat_vs_p95),
        ("sim.decode_lat_vs_p50", run.decode_lat_vs_p50),
        ("sim.decode_lat_vs_p95", run.decode_lat_vs_p95),
        ("sim.latency_samples", run.latency_samples as f64),
        ("sim.virtual_s", run.virtual_s),
        ("sim.node_util_mean", run.node_util_mean),
        ("sim.node_util_max", run.node_util_max),
        ("sim.link_queue_delay_mean_vs", run.link_queue_delay_mean_vs),
        ("sim.link_queue_delay_max_vs", run.link_queue_delay_max_vs),
        ("sim.replans", run.replans as f64),
        (
            "core.scheduling.prefix_hit_share",
            share(run.prefix_hits, run.prefix_lookups),
        ),
        (
            "core.scheduling.prefill_saved_share",
            share(run.prefill_tokens_saved, requests.prompt_tokens()),
        ),
        ("core.ha.repl_chunks", run.repl_chunks as f64),
        ("core.ha.repl_bytes", run.repl_bytes),
        ("core.ha.promoted", run.promoted as f64),
        ("core.ha.aborted", run.aborted as f64),
        (
            "core.ha.recompute_share",
            share(run.tokens_recomputed, run.abort_recompute_tokens),
        ),
    ]);
    // Not exact: the simulator's hash maps are randomly seeded, and whether a
    // map rehashes in place or grows depends on where its tombstones fall.
    if let Some(allocs) = rep.allocs {
        rep.varying.extend([
            ("sim.allocs_per_req", allocs.allocs as f64 / n as f64),
            ("sim.alloc_bytes_per_req", allocs.bytes as f64 / n as f64),
        ]);
    }
}

fn sim_offline_24(cx: &mut Ctx) -> Res<Rep> {
    let mut rep = Rep::default();
    let ready = timed_setup(cx, &mut rep, offline_setup)?;

    let run = sim_serve(cx, ready.sim, &ready.requests, &mut rep);

    let open = cx.tracer.begin("verify");
    sim_verify(&mut rep, &run, &ready.requests);
    rep.require(
        ready.placement.valid_for(&ready.profile),
        "annealed placement validates",
    );
    rep.require(
        ready.topology.flow_tok_per_vs() > 0.0,
        "planned flow is positive",
    );
    rep.require(run.repl_chunks == 0, "replication is idle");
    rep.exact.extend([
        (
            "core.plan_flow_tok_per_vs",
            ready.topology.flow_tok_per_vs(),
        ),
        ("core.topology.pipelines", ready.topology.pipelines() as f64),
    ]);
    cx.tracer.end(open);
    Ok(rep)
}

// ---------------------------------------------------------------------------
// sim_online_ha_96
// ---------------------------------------------------------------------------

const ONLINE_REQUESTS: usize = 6_000;
const ONLINE_ANNEAL_ITERATIONS: usize = 3_000;
/// Requests per virtual second over both models: under the fleet's capacity
/// (prompt p50 stays well below a second).
const ONLINE_RATE_PER_VS: f64 = 6.0;
/// Measurement window in virtual seconds; four times the arrival horizon of
/// the full-size workload.
const ONLINE_WINDOW_VS: f64 = 4_000.0;

struct OnlineReady {
    profiles: sf::FleetProfiles,
    plan: sf::FleetPlan,
    fleet: sf::FleetTopo,
    sim: sf::Sim,
    requests: sf::Requests,
}

fn online_setup(cx: &mut Ctx) -> Res<OnlineReady> {
    let iterations = cx.size(ONLINE_ANNEAL_ITERATIONS);
    let n = cx.size(ONLINE_REQUESTS);
    let seed = cx.seed;
    let profiles = cx.span("cluster.profile", || {
        sf::fleet_profiles(Cluster::Single96, &[Llm::Llama30b, Llm::Llama13b])
    });
    let (plan, _) = cx.span("core.plan", || sf::fleet_anneal(&profiles, iterations))?;
    let fleet = cx.span("core.fleet.plan", || sf::fleet_topology(&profiles, &plan))?;
    let schedulers = cx.span("core.scheduling.iwrr_build", || sf::fleet_iwrr(&fleet))?;
    let mut sim = cx.span("sim.build", || {
        let mut sim = sf::sim_online(&fleet, schedulers, ONLINE_WINDOW_VS);
        sim.set_rf2();
        sim
    });
    let requests = cx.span("workload.generate", || {
        sf::requests_online_shared(n, seed, ONLINE_RATE_PER_VS, 2)
    });
    // The lowest-id node serving model 0 dies half-way through the arrivals.
    let victim = plan.lowest_node_of(0).ok_or("model 0 holds no node")?;
    sim.fail_node(victim, requests.horizon_vs() / 2.0);
    Ok(OnlineReady {
        profiles,
        plan,
        fleet,
        sim,
        requests,
    })
}

fn sim_online_ha_96(cx: &mut Ctx) -> Res<Rep> {
    let mut rep = Rep::default();
    let ready = timed_setup(cx, &mut rep, online_setup)?;

    let run = sim_serve(cx, ready.sim, &ready.requests, &mut rep);

    let open = cx.tracer.begin("verify");
    sim_verify(&mut rep, &run, &ready.requests);
    rep.require(
        ready.plan.valid_for(&ready.profiles),
        "fleet plan validates",
    );
    rep.require(
        ready.fleet.flow_tok_per_vs() > 0.0,
        "planned flow is positive",
    );
    rep.require(run.failovers == 1, "the node failure was handled once");
    rep.require(run.repl_chunks > 0, "replication shipped chunks");
    rep.exact.extend([
        ("core.plan_flow_tok_per_vs", ready.fleet.flow_tok_per_vs()),
        ("core.topology.pipelines", ready.fleet.pipelines() as f64),
    ]);
    cx.tracer.end(open);
    Ok(rep)
}

// ---------------------------------------------------------------------------
// rt_burst_ha_24 and rt_live_500
// ---------------------------------------------------------------------------

const BURST_REQUESTS: usize = 2_000;
const LIVE_ROUND_TRIPS: usize = 1_500;

struct RtReady {
    profile: sf::Profile,
    topology: sf::Topo,
    rt: sf::Rt,
    requests: sf::Requests,
}

/// Swarm placement (so planner changes cannot move the runtime numbers) ->
/// topology -> live session.
fn rt_setup(
    cx: &mut Ctx,
    cluster: Cluster,
    requests: impl FnOnce() -> sf::Requests,
) -> Res<RtReady> {
    let profile = cx.span("cluster.profile", || sf::profile(cluster, Llm::Llama30b));
    let placement = cx.span("core.plan", || sf::swarm_placement(&profile))?;
    let topology = cx.span("core.topology.plan", || sf::topology(&profile, &placement))?;
    let rt = cx.span("runtime.build", || sf::runtime(&topology))?;
    let requests = cx.span("workload.generate", requests);
    Ok(RtReady {
        profile,
        topology,
        rt,
        requests,
    })
}

/// The checks and counts every runtime run shares.
fn rt_verify(rep: &mut Rep, run: &sf::RtRun, requests: &sf::Requests, topology: &sf::Topo) {
    let n = requests.len() as u64;
    rep.items = n;
    rep.attempted = n;
    rep.failed += n.saturating_sub(run.completed) + run.bad_outcomes;
    rep.require(run.completed <= n, "no more completions than submissions");
    rep.require(topology.flow_tok_per_vs() > 0.0, "planned flow is positive");
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    rep.exact.extend([
        ("core.plan_flow_tok_per_vs", topology.flow_tok_per_vs()),
        ("core.topology.pipelines", topology.pipelines() as f64),
    ]);
    rep.varying.extend([
        ("runtime.messages", run.messages as f64),
        ("runtime.msgs_per_req", run.messages as f64 / n as f64),
        ("runtime.batches", run.batches as f64),
        (
            "runtime.tokens_per_batch",
            run.batch_tokens as f64 / run.batches.max(1) as f64,
        ),
        ("runtime.kv_rejections", run.kv_rejections as f64),
        ("runtime.kv_peak_util_max", run.kv_peak_util_max),
        (
            "core.scheduling.prefix_hit_share",
            share(run.prefix_hits, run.prefix_lookups),
        ),
        (
            "core.scheduling.prefill_saved_share",
            share(run.prefill_tokens_saved, requests.prompt_tokens()),
        ),
        ("core.ha.repl_chunks", run.repl_chunks as f64),
        ("core.ha.repl_bytes", run.repl_bytes),
    ]);
    if let Some(allocs) = rep.allocs {
        rep.varying
            .push(("runtime.allocs_per_req", allocs.allocs as f64 / n as f64));
    }
}

fn rt_burst_ha_24(cx: &mut Ctx) -> Res<Rep> {
    let mut rep = Rep::default();
    let (n, seed) = (cx.size(BURST_REQUESTS), cx.seed);
    let ready = timed_setup(cx, &mut rep, |cx| {
        let mut ready = rt_setup(cx, Cluster::Single24, || sf::requests_burst_shared(n, seed))?;
        // Installing the policy starts the data-plane thread: part of set-up.
        cx.span("runtime.go_live", || ready.rt.set_rf2());
        Ok(ready)
    })?;

    let RtReady {
        mut rt,
        requests,
        topology,
        ..
    } = ready;
    let measured = Measured::start(cx);
    let open = cx.tracer.begin("serve");
    cx.span("runtime.submit", || rt.submit_all(&requests));
    let threads = host::threads();
    let drained = cx.span("runtime.drain", || rt.drain());
    let run = cx.span("runtime.finish", || rt.finish(&requests, n));
    cx.tracer.end(open);
    measured.stop(&mut rep);
    drained?;
    let run = run?;

    let open = cx.tracer.begin("verify");
    rt_verify(&mut rep, &run, &requests, &topology);
    rep.require(run.repl_chunks > 0, "replication shipped chunks");
    rep.varying.push(("runtime.threads", threads));
    cx.tracer.end(open);
    Ok(rep)
}

fn rt_live_500(cx: &mut Ctx) -> Res<Rep> {
    let mut rep = Rep::default();
    let n = cx.size(LIVE_ROUND_TRIPS);
    // The input is fixed (256-token prompts, 16 output tokens, untagged), so
    // the seed has nothing to vary here.
    let ready = timed_setup(cx, &mut rep, |cx| {
        rt_setup(cx, Cluster::Single500, || sf::requests_fixed(n))
    })?;

    let RtReady {
        mut rt,
        requests,
        topology,
        ..
    } = ready;
    let measured = Measured::start(cx);
    let open = cx.tracer.begin("serve");
    // Closed loop, one client: the next request is sent only when the
    // previous one has completed.
    let mut lost = 0;
    let mut threads = 0.0;
    for index in 0..n {
        let open = cx.tracer.begin_request("runtime.request", index as u64);
        if let Err(e) = rt.round_trip(&requests, index) {
            lost += 1u64;
            eprintln!("perf: round trip {index} failed: {e}");
        }
        cx.tracer.end(open);
        if index == 0 {
            threads = host::threads();
        }
    }
    let run = cx.span("runtime.finish", || rt.finish(&requests, n));
    cx.tracer.end(open);
    measured.stop(&mut rep);
    let run = run?;

    let open = cx.tracer.begin("verify");
    rt_verify(&mut rep, &run, &requests, &topology);
    // A lost round trip already shows as a missing completion.
    rep.require(lost == 0, "every round trip returned its own completion");
    rep.require(run.repl_chunks == 0, "replication is idle");
    rep.varying.push(("runtime.threads", threads));
    cx.tracer.end(open);
    Ok(rep)
}

// ---------------------------------------------------------------------------
// Stand-alone layer timings (traced run only)
// ---------------------------------------------------------------------------

/// Nanoseconds per operation of `run(n)`, after a warm-up of a tenth.
fn ns_per_op(n: u64, mut run: impl FnMut(u64) -> u64) -> f64 {
    std::hint::black_box(run(n / 10 + 1));
    let start = Instant::now();
    std::hint::black_box(run(n));
    start.elapsed().as_nanos() as f64 / n as f64
}

fn flow_micro(rig: &sf::FlowRig, out: &mut Vec<(&'static str, f64)>) -> Res<()> {
    rig.decompose()?;
    // Fewer solves on the 500-node graph (25 k edges) than on the small ones.
    let solves = (400_000 / rig.edges().max(1) as u64).clamp(5, 200);
    out.extend([
        ("maxflow.graph_nodes", rig.nodes() as f64),
        ("maxflow.graph_edges", rig.edges() as f64),
        (
            "maxflow.dinic_us_per_solve",
            ns_per_op(solves, |n| (0..n).map(|_| rig.dinic().to_bits() & 1).sum()) / 1e3,
        ),
        (
            "maxflow.decompose_us",
            ns_per_op(solves, |n| {
                (0..n).map(|_| rig.decompose().unwrap_or(0) as u64).sum()
            }) / 1e3,
        ),
    ]);
    Ok(())
}

impl Workload {
    /// Times single components the workload leans on, outside any
    /// repetition.  Returns `(metric, value)` pairs.
    pub fn micro(self, cx: &mut Ctx) -> Res<Vec<(&'static str, f64)>> {
        let mut out = Vec::new();
        let scale = if cx.smoke { 10 } else { 1 };
        let ops = |full: u64| full / scale;
        match self {
            Workload::PlanFleet => {
                let ready = plan_setup(cx)?;
                let (_, _, hetero42) = &ready.clusters[2];
                let (placement, _) = sf::anneal(hetero42, 1_000 / scale as usize)?;
                flow_micro(&sf::flow_rig(hetero42, &placement)?, &mut out)?;
                let (_, _, geo24) = &ready.clusters[1];
                let mut eval = sf::eval_rig(geo24)?;
                out.extend([
                    (
                        "core.placement.incr_eval_ns_per_move",
                        ns_per_op(ops(2_000), |n| {
                            (0..n).map(|_| eval.incremental_move().to_bits() & 1).sum()
                        }),
                    ),
                    (
                        "core.placement.cold_eval_ns_per_move",
                        ns_per_op(ops(2_000), |n| {
                            (0..n).map(|_| eval.cold_move().to_bits() & 1).sum()
                        }),
                    ),
                    (
                        "core.replan.replan_us_cold",
                        ns_per_op(ops(500), |n| {
                            (0..n)
                                .map(|_| ready.replan.cold_plan().map_or(0, |f| f.to_bits() & 1))
                                .sum()
                        }) / 1e3,
                    ),
                    (
                        "core.region.ring_route_ns",
                        ns_per_op(ops(2_000_000), {
                            let mut ring = sf::ring_rig();
                            move |n| ring.run(n)
                        }),
                    ),
                ]);
            }
            Workload::SimOffline24 => {
                let ready = offline_setup(cx)?;
                flow_micro(&sf::flow_rig(&ready.profile, &ready.placement)?, &mut out)?;
                let mut iwrr = sf::iwrr(&ready.topology)?;
                let mut kv = sf::kv_estimate_rig(&ready.profile);
                out.extend([
                    (
                        "core.scheduling.iwrr_ns_per_schedule_24",
                        ns_per_op(ops(200_000), |n| iwrr.run(n)),
                    ),
                    (
                        "core.scheduling.kv_estimate_ns",
                        ns_per_op(ops(1_000_000), |n| kv.run(n)),
                    ),
                ]);
                sim_component_micro(&ops, &mut out);
            }
            Workload::SimOnlineHa96 => {
                let ready = online_setup(cx)?;
                flow_micro(&sf::flow_rig_of_fleet(&ready.fleet)?, &mut out)?;
                // The prefix router needs a single-model topology to route
                // over; the 24-node swarm one stands in for a fleet member.
                let profile = sf::profile(Cluster::Single24, Llm::Llama30b);
                let topology = sf::topology(&profile, &sf::swarm_placement(&profile)?)?;
                let mut prefix = sf::prefix_rig(&topology)?;
                let mut standby = sf::standby_rig();
                out.extend([
                    (
                        "core.scheduling.prefix_route_ns",
                        ns_per_op(ops(1_000_000), |n| prefix.run(n)),
                    ),
                    (
                        "core.ha.select_standby_ns",
                        ns_per_op(ops(1_000_000), |n| standby.run(n)),
                    ),
                ]);
                sim_component_micro(&ops, &mut out);
            }
            Workload::RtBurstHa24 => {
                let ready = rt_setup(cx, Cluster::Single24, || sf::requests_fixed(1))?;
                let placement = sf::swarm_placement(&ready.profile)?;
                flow_micro(&sf::flow_rig(&ready.profile, &placement)?, &mut out)?;
                let mut iwrr = sf::iwrr(&ready.topology)?;
                let mut prefix = sf::prefix_rig(&ready.topology)?;
                out.extend([
                    (
                        "core.scheduling.iwrr_ns_per_schedule_24",
                        ns_per_op(ops(200_000), |n| iwrr.run(n)),
                    ),
                    (
                        "core.scheduling.prefix_route_ns",
                        ns_per_op(ops(1_000_000), |n| prefix.run(n)),
                    ),
                ]);
                ready.rt.finish(&ready.requests, 0)?;
                runtime_component_micro(&ops, &mut out);
            }
            Workload::RtLive500 => {
                let ready = rt_setup(cx, Cluster::Single500, || sf::requests_fixed(1))?;
                let placement = sf::swarm_placement(&ready.profile)?;
                flow_micro(&sf::flow_rig(&ready.profile, &placement)?, &mut out)?;
                let mut iwrr = sf::iwrr(&ready.topology)?;
                let mut kv = sf::kv_estimate_rig(&ready.profile);
                out.extend([
                    (
                        "core.scheduling.iwrr_ns_per_schedule_500",
                        ns_per_op(ops(100_000), |n| iwrr.run(n)),
                    ),
                    (
                        "core.scheduling.kv_estimate_ns",
                        ns_per_op(ops(1_000_000), |n| kv.run(n)),
                    ),
                ]);
                ready.rt.finish(&ready.requests, 0)?;
                runtime_component_micro(&ops, &mut out);
            }
        }
        Ok(out)
    }
}

fn sim_component_micro(ops: &impl Fn(u64) -> u64, out: &mut Vec<(&'static str, f64)>) {
    let mut link = sf::link_rig();
    let mut events = sf::event_rig();
    out.extend([
        (
            "sim.linkqueue_ns_per_transfer",
            ns_per_op(ops(5_000_000), |n| link.run(n)),
        ),
        (
            "sim.eventqueue_ns_per_push_pop",
            ns_per_op(ops(2_000_000), |n| events.run(n)),
        ),
    ]);
}

fn runtime_component_micro(ops: &impl Fn(u64) -> u64, out: &mut Vec<(&'static str, f64)>) {
    let mut pool = sf::kv_pool_rig();
    let mut rt = sf::minirt_rig();
    out.extend([
        (
            "runtime.kvpool_ns_per_alloc_release",
            ns_per_op(ops(200_000), |n| pool.run(n)),
        ),
        (
            "runtime.kvpool_prefix_attach_ns",
            ns_per_op(ops(2_000_000), |n| pool.run_prefix(n)),
        ),
        (
            "minirt.spawn_ns",
            ns_per_op(ops(200_000), |n| rt.run_spawn(n)),
        ),
        (
            "minirt.channel_ns_per_msg",
            ns_per_op(ops(1_000_000), |n| rt.run_channel(n)),
        ),
        (
            "minirt.timer_ns_per_sleep0",
            ns_per_op(ops(200_000), |n| rt.run_timer(n)),
        ),
    ]);
}
