//! `perf check`: runs the whole set twice, as child processes, and fails
//! unless every run is correct and the two passes agree — every end-to-end
//! metric within its bound, every exact per-layer metric bit for bit — and
//! the exact metrics equal the ones recorded in `perf/exact.json`, which is
//! what holds modelled results and counts still from one commit to the next.
//!
//! `--smoke` divides the work by ten and runs one repetition per phase:
//! wall-clock numbers of such a run mean nothing, so only correctness and
//! the exact metrics are compared.  `--record` rewrites the recorded values
//! of the mode that ran; a change that means to move them does that and
//! says so.

use crate::report::{self, Exact, MetricDef};
use crate::workloads::Workload;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// Where the files sat when this binary was built.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const EXACT_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/exact.json");

type Metrics = BTreeMap<String, f64>;

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// What `check` needs from `BENCHMARK.json`.
struct Benchmark {
    run_seconds: u64,
    /// Bound of each end-to-end metric, in the order of `report::END_TO_END`.
    bounds: Vec<f64>,
}

/// Reads `BENCHMARK.json` and fails unless it lists exactly the workloads
/// and metrics of `report`, in order, with the same units and directions.
fn benchmark() -> Result<Benchmark, String> {
    let file = read_json(BENCHMARK_JSON)?;
    let list = |key: &str| {
        file.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let text = |entry: &Value, key: &str| {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };

    let names: Vec<String> = list("workloads")?.iter().map(|w| text(w, "name")).collect();
    if !names.iter().eq(Workload::ALL.iter().map(|w| w.name())) {
        return Err(format!("BENCHMARK.json: workloads are {names:?}"));
    }
    for (key, defs) in [
        ("end_to_end", report::END_TO_END),
        ("per_layer", report::PER_LAYER),
    ] {
        let listed: Vec<[String; 3]> = list(key)?
            .iter()
            .map(|m| [text(m, "name"), text(m, "unit"), text(m, "better")])
            .collect();
        let defined = defs
            .iter()
            .map(|d| [d.name, d.unit, d.better.as_str()].map(str::to_string));
        if let Some((file, ours)) = listed.iter().cloned().zip(defined).find(|(a, b)| a != b) {
            return Err(format!(
                "BENCHMARK.json `{key}`: {file:?} where perf has {ours:?}"
            ));
        }
        if listed.len() != defs.len() {
            return Err(format!(
                "BENCHMARK.json `{key}`: {} metrics where perf has {}",
                listed.len(),
                defs.len()
            ));
        }
    }
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64))
        .collect::<Option<Vec<f64>>>()
        .ok_or("BENCHMARK.json: an end-to-end metric has no bound")?;
    let run_seconds = file
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json: no `run_seconds`")?;
    Ok(Benchmark {
        run_seconds,
        bounds,
    })
}

/// Runs one workload in a child process and parses its result line.
fn child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // The child's own summary goes to stderr; keep the terminal for ours.
    let output = command.output().map_err(|e| e.to_string())?;
    let what = format!("{} --trace {}", workload.name(), trace as u8);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{what}: no result line"))?;
    let result: Value = serde_json::from_str(line).map_err(|e| format!("{what}: {e:?}"))?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{what}: not correct (exit {:?}): {line}\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{what}: no metrics"))?;
    metrics
        .iter()
        .map(|(name, entry)| {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{what}: {name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

fn value(metrics: &Metrics, def: &MetricDef) -> Result<f64, String> {
    metrics
        .get(def.name)
        .copied()
        .ok_or_else(|| format!("{} is missing from the result", def.name))
}

/// Whether `def` must repeat bit for bit on `workload`.
fn must_match(def: &MetricDef, workload: Workload) -> bool {
    match def.exact {
        Exact::No => false,
        Exact::Yes => true,
        Exact::Simulated => workload.deterministic(),
        Exact::OneInFlight => workload == Workload::RtLive500,
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut record = false;
    let mut seed = 1u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--record" => record = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }

    let benchmark = benchmark()?;
    let seconds = if smoke { 1 } else { benchmark.run_seconds };
    let mode = if smoke { "smoke" } else { "full" };
    // Recorded exact values: {"seed": n, "full": {workload: {metric: value}}, "smoke": {..}}.
    let mut recorded = match read_json(EXACT_JSON) {
        Ok(Value::Object(map)) if map.get("seed").and_then(Value::as_u64) == Some(seed) => map,
        Ok(_) | Err(_) if record => Map::new(),
        Ok(_) => {
            println!("perf/exact.json holds another seed: nothing recorded to compare with");
            Map::new()
        }
        Err(e) => return Err(e),
    };
    let mut exact_now = Map::new();

    let mut problems = Vec::new();
    for workload in Workload::ALL {
        // End to end: two passes within each metric's bound of each other.
        let first = child(workload, seed, seconds, false, smoke)?;
        if !smoke {
            let second = child(workload, seed, seconds, false, smoke)?;
            for (def, &bound) in report::END_TO_END.iter().zip(&benchmark.bounds) {
                let (a, b) = (value(&first, def)?, value(&second, def)?);
                let spread = (a - b).abs() / a.min(b);
                println!(
                    "{:<18} {:<44} {a:>16.6} {b:>16.6} {:>6.2}% of {:.0}%",
                    workload.name(),
                    def.name,
                    spread * 100.0,
                    bound * 100.0
                );
                if !(a > 0.0 && b > 0.0 && spread <= bound) {
                    problems.push(format!("{} {}: {a} vs {b}", workload.name(), def.name));
                }
            }
        }
        // Per layer: two traced passes, exact metrics bit-equal to each
        // other and equal to the recorded ones.
        let first = child(workload, seed, seconds, true, smoke)?;
        let second = child(workload, seed, seconds, true, smoke)?;
        let was = recorded.get(mode).and_then(|m| m.get(workload.name()));
        let mut now = Map::new();
        for def in report::PER_LAYER.iter().filter(|d| must_match(d, workload)) {
            let (a, b) = (value(&first, def)?, value(&second, def)?);
            if a.to_bits() != b.to_bits() {
                problems.push(format!("{} {}: {a} vs {b}", workload.name(), def.name));
            }
            match was.map(|w| w.get(def.name).and_then(Value::as_f64)) {
                Some(Some(r)) if r == a => {}
                Some(r) if !record => problems.push(format!(
                    "{} {}: {a}, recorded {r:?} in perf/exact.json",
                    workload.name(),
                    def.name
                )),
                _ => {}
            }
            now.insert(def.name.to_string(), Value::Number(a));
        }
        exact_now.insert(workload.name().to_string(), Value::Object(now));
        println!(
            "{:<18} traced passes compared{}",
            workload.name(),
            if was.is_some() {
                ", and with perf/exact.json"
            } else {
                ""
            }
        );
    }
    if !problems.is_empty() {
        return Err(format!("\n  {}", problems.join("\n  ")));
    }
    if record {
        recorded.insert("seed".to_string(), Value::Number(seed as f64));
        recorded.insert(mode.to_string(), Value::Object(exact_now));
        let text =
            serde_json::to_string_pretty(&Value::Object(recorded)).map_err(|e| format!("{e:?}"))?;
        std::fs::write(EXACT_JSON, text + "\n").map_err(|e| format!("{EXACT_JSON}: {e}"))?;
        println!("recorded the {mode} exact metrics of seed {seed} in perf/exact.json");
    }
    println!("check passed (seed {seed}, {mode})");
    Ok(())
}
