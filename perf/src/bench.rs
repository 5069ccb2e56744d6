//! One benchmark run: repetitions of a workload inside the time budget,
//! verification across them, and the metrics the run reports.
//!
//! An untraced run (`--trace 0`) only repeats the workload and reports the
//! end-to-end metrics.  A traced run (`--trace 1`) alternates untraced and
//! traced repetitions (spans recorded, allocations counted), then takes the
//! stand-alone layer timings, and reports the per-layer metrics; the gap
//! between its untraced and traced repetitions is the tracing overhead.

use crate::host;
use crate::report::{self, Values};
use crate::trace::Tracer;
use crate::workloads::{scaled, Ctx, Rep, Workload, PLAN_ANNEAL_ITERATIONS, PLAN_REPLANS};
use std::time::Instant;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where to write the spans of a traced run, if anywhere.
    pub trace_out: Option<String>,
    pub smoke: bool,
}

/// Repetitions of an untraced run when the budget allows fewer (`--smoke`
/// runs exactly one; a traced run at least two pairs).
const MIN_REPS: usize = 3;
/// Share of a traced run's budget after which repetitions stop, to leave
/// room for the stand-alone timings.
const TRACED_SHARE: f64 = 0.7;

#[derive(Default)]
struct Tally {
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one repetition and books its requests.
    fn rep(&mut self, args: &Args, tracer: &mut Tracer, run_start: Instant) {
        let traced = tracer.enabled();
        let mut cx = Ctx {
            seed: args.seed,
            smoke: args.smoke,
            tracer,
            count_allocs: traced,
        };
        match args.workload.rep(&mut cx) {
            Ok(rep) => {
                eprintln!(
                    "perf: rep at {:7.3} s: setup {:.6} s, work {:.6} s, {} of {} ok{}",
                    run_start.elapsed().as_secs_f64(),
                    rep.setup_s,
                    rep.work_s,
                    rep.attempted - rep.failed.min(rep.attempted),
                    rep.attempted,
                    if traced { ", traced" } else { "" },
                );
                self.attempted += rep.attempted;
                self.failed += rep.failed;
                self.reps.push(rep);
            }
            Err(e) => {
                eprintln!("perf: repetition failed: {e}");
                let items = args.workload.items(args.smoke);
                self.attempted += items;
                self.failed += items;
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.reps.extend(other.reps);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Identical input must give identical results: every repetition of a
    /// deterministic workload reports the same exact values, bit for bit.
    /// Returns the number of repetitions that differ from the first.
    fn nondeterministic_reps(&self, workload: Workload) -> u64 {
        if !workload.deterministic() {
            return 0;
        }
        let bits = |rep: &Rep| -> Vec<(&'static str, u64)> {
            rep.exact
                .iter()
                .map(|&(name, v)| (name, v.to_bits()))
                .collect()
        };
        let Some(first) = self.reps.first().map(bits) else {
            return 0;
        };
        let differing = self.reps.iter().filter(|r| bits(r) != first).count();
        if differing > 0 {
            eprintln!("perf: {differing} repetition(s) differ from the first on identical input");
        }
        differing as u64
    }
}

/// Median set-up time of the repetitions.
fn setup_s(reps: &[Rep]) -> f64 {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    host::median(&setup)
}

/// Requests completed per wall second of the measured section: the median
/// over the repetitions.
///
/// Measured, not assumed: over ten runs of each workload with ten seeds, the
/// median spread (quartile distance over median) 2.1-7.1 %, the aggregate
/// over all repetitions 3.7-7.6 %, and the lower quartile, the lowest decile
/// and the fastest repetition 4.1-12 %; the median was the steadiest on
/// every workload.
fn req_per_wall_s(reps: &[Rep]) -> f64 {
    let rates: Vec<f64> = reps
        .iter()
        .filter(|r| r.work_s > 0.0)
        .map(|r| r.items as f64 / r.work_s)
        .collect();
    host::median(&rates)
}

/// Runs the benchmark and prints the result line.  Returns the process exit
/// code: 0 when every request succeeded and every check held.
pub fn run(args: &Args) -> i32 {
    let run_start = Instant::now();
    let calib_before = calibrate(args);
    let mut tally = Tally::default();
    let mut values = Values::default();

    let defs = if args.trace {
        // Untraced and traced repetitions alternate, so warm-up and machine
        // drift fall on both sides of the overhead comparison alike.
        let mut off = Tracer::new(false);
        let mut tracer = Tracer::new(true);
        let mut plain = Tally::default();
        let mut traced = Tally::default();
        for pairs in 1.. {
            plain.rep(args, &mut off, run_start);
            traced.rep(args, &mut tracer, run_start);
            let in_time = run_start.elapsed().as_secs_f64() < args.seconds * TRACED_SHARE;
            if args.smoke || (pairs >= 2 && !in_time) {
                break;
            }
        }
        let micro = args.workload.micro(&mut Ctx {
            seed: args.seed,
            smoke: args.smoke,
            tracer: &mut off,
            count_allocs: false,
        });
        match micro {
            Ok(pairs) => pairs.into_iter().for_each(|(name, v)| values.set(name, v)),
            Err(e) => {
                eprintln!("perf: stand-alone timings failed: {e}");
                tally.failed += 1;
            }
        }
        layer_metrics(args, &tracer, &plain.reps, &traced.reps, &mut values);
        tally.absorb(plain);
        tally.absorb(traced);
        if let Some(path) = &args.trace_out {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perf: cannot write {path}: {e}");
                tally.failed += 1;
            }
        }
        report::PER_LAYER
    } else {
        let mut off = Tracer::new(false);
        for reps in 1.. {
            tally.rep(args, &mut off, run_start);
            let in_time = run_start.elapsed().as_secs_f64() < args.seconds;
            if args.smoke || (reps >= MIN_REPS && !in_time) {
                break;
            }
        }
        values.set("setup_s", setup_s(&tally.reps));
        values.set("req_per_wall_s", req_per_wall_s(&tally.reps));
        report::END_TO_END
    };

    tally.failed += tally.nondeterministic_reps(args.workload);
    let calib_after = calibrate(args);
    let noisy = host::noisy(calib_before, calib_after);
    if args.trace {
        values.set("host.nproc", host::nproc());
        values.set("host.calib_mops_before", calib_before);
        values.set("host.calib_mops_after", calib_after);
        values.set("host.noisy", noisy as u64 as f64);
        values.set("host.peak_rss_mb", host::peak_rss_mb());
    }

    let correct = tally.failed == 0 && !tally.reps.is_empty();
    eprintln!(
        "perf: {} seed {}: {} repetitions in {:.1} s, attempted {}, failed {}, calibration {:.1} -> {:.1} Mops/s, \"noisy\": {noisy}",
        args.workload.name(),
        args.seed,
        tally.reps.len(),
        run_start.elapsed().as_secs_f64(),
        tally.attempted,
        tally.failed,
        calib_before,
        calib_after,
    );
    for def in defs {
        if let Some(v) = values.get(def.name) {
            eprintln!("perf:   {:<46} {v:>18.6} {}", def.name, def.unit);
        }
    }
    println!(
        "{}",
        report::result_line(correct, tally.attempted.max(1), tally.failed, defs, &values)
    );
    if correct {
        0
    } else {
        1
    }
}

fn calibrate(args: &Args) -> f64 {
    host::calibrate(if args.smoke { 10 } else { 1 })
}

/// Per-layer metrics of a traced run: span medians, the exact values and
/// counts of the traced repetitions, and what follows from both.
fn layer_metrics(args: &Args, tracer: &Tracer, plain: &[Rep], traced: &[Rep], values: &mut Values) {
    let Some(last) = traced.last() else {
        return;
    };
    // Exact values are the same on every repetition (verified separately);
    // timing-dependent counts are reported as their median.
    for &(name, v) in &last.exact {
        values.set(name, v);
    }
    for &(name, _) in &last.varying {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|r| {
                r.varying
                    .iter()
                    .filter(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
            })
            .collect();
        values.set(name, host::median(&samples));
    }

    let us = |span: &str| tracer.median_us(span);
    let n = last.items as f64;
    let kreq = n / 1e3;

    // Set-up path.
    values.set("cluster.profile_us", us("cluster.profile"));
    values.set(
        "workload.generate_us_per_kreq",
        us("workload.generate") / kreq,
    );
    values.set("core.plan_us", us("core.plan"));
    values.set("core.topology.plan_us", us("core.topology.plan"));
    values.set("core.fleet.plan_us", us("core.fleet.plan"));
    values.set(
        "core.scheduling.iwrr_build_us",
        us("core.scheduling.iwrr_build"),
    );
    values.set("sim.build_us", us("sim.build"));
    // Wiring the session, plus starting its data-plane thread where the
    // workload does that during set-up.
    values.set(
        "runtime.build_ms",
        (us("runtime.build") + us("runtime.go_live")) / 1e3,
    );

    // Planner calls of plan_fleet.
    let milp_us = us("milp.solve");
    values.set("milp.wall_s", milp_us / 1e6);
    if let Some(nodes) = values.get("milp.nodes_explored").filter(|&n| n > 0.0) {
        values.set("milp.ms_per_node", milp_us / 1e3 / nodes);
    }
    if args.workload == Workload::PlanFleet {
        let iterations = scaled(PLAN_ANNEAL_ITERATIONS, args.smoke) as f64;
        let per_iter = |span: &str| us(span) / iterations;
        values.set(
            "core.placement.anneal_us_per_iter_24",
            per_iter("core.placement.anneal_24"),
        );
        values.set(
            "core.placement.anneal_us_per_iter_geo24",
            per_iter("core.placement.anneal_geo24"),
        );
        values.set(
            "core.placement.anneal_us_per_iter_42",
            per_iter("core.placement.anneal_42"),
        );
        values.set(
            "core.placement.hier_wall_s_1008",
            us("core.placement.hier_1008") / 1e6,
        );
        let replans = scaled(PLAN_REPLANS, args.smoke) as f64;
        values.set(
            "core.replan.replan_us_warm",
            us("core.replan.warm") / replans,
        );
    }

    // Simulator.
    let drain_us = us("sim.drain");
    if drain_us > 0.0 {
        values.set("sim.submit_ns_per_req", us("sim.submit") * 1e3 / n);
        values.set("sim.drain_wall_s", drain_us / 1e6);
        values.set("sim.finish_wall_ms", us("sim.finish") / 1e3);
        values.set("sim.wall_us_per_req", us("serve") / n);
        if let Some(transfers) = values.get("sim.link_transfers").filter(|&t| t > 0.0) {
            values.set("sim.ns_per_link_transfer", drain_us * 1e3 / transfers);
        }
        if let Some(virtual_s) = values.get("sim.virtual_s") {
            values.set("sim.virtual_s_per_wall_s", virtual_s / (drain_us / 1e6));
        }
    }

    // Runtime.
    let finish_us = us("runtime.finish");
    if finish_us > 0.0 {
        let serve_us = us("serve");
        values.set("runtime.submit_ns_per_req", us("runtime.submit") * 1e3 / n);
        values.set("runtime.drain_wall_s", us("runtime.drain") / 1e6);
        values.set("runtime.finish_ms", finish_us / 1e3);
        values.set("runtime.wall_us_per_req", serve_us / n);
        if let Some(messages) = values.get("runtime.messages").filter(|&m| m > 0.0) {
            values.set("runtime.ns_per_message", serve_us * 1e3 / messages);
        }
        let rtts = tracer.durations_us("runtime.request");
        values.set("runtime.rtt_wall_us_p50", host::percentile(&rtts, 0.50));
        values.set("runtime.rtt_wall_us_p99", host::percentile(&rtts, 0.99));
    }

    // What tracing cost, and how many cores the measured sections kept busy
    // (the acceptance criterion is no more than 2).
    let plain_rate = req_per_wall_s(plain);
    if plain_rate > 0.0 {
        values.set(
            "host.trace_overhead_share",
            1.0 - req_per_wall_s(traced) / plain_rate,
        );
    }
    let (cpu, wall): (f64, f64) = traced
        .iter()
        .fold((0.0, 0.0), |(c, w), r| (c + r.work_cpu_s, w + r.work_s));
    if wall > 0.0 {
        values.set("host.cpu_per_wall", cpu / wall);
    }
}
