//! `perf`: one command that measures the planner, the simulator and the
//! runtime end to end and layer by layer.  See `perf/README.md`.

mod alloc;
mod bench;
mod check;
mod host;
mod report;
mod surface;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file.jsonl>] [--smoke]
  perf trace-summary <file.jsonl>
  perf check [--smoke] [--seed <u64>] [--record]
workloads: plan_fleet sim_offline_24 sim_online_ha_96 rt_burst_ha_24 rt_live_500";

fn parse_run(args: &[String]) -> Result<bench::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(bench::Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
        smoke,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("trace-summary") if args.len() == 2 => match trace::print_summary(&args[1]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perf: {e}");
                1
            }
        },
        Some("check") => match check::run(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perf: check failed: {e}");
                1
            }
        },
        _ => match parse_run(&args) {
            Ok(run) => bench::run(&run),
            Err(e) => {
                eprintln!("perf: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}
