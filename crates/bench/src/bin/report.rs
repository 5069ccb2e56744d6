//! Regenerates the paper's tables and figures: runs each named artifact (quick
//! scale unless `--full`), prints what it measured and writes its report to
//! `results/<name>.json` (`HELIX_RESULTS_DIR` overrides the directory).
//! `all` runs every artifact; the run exits non-zero if any of them failed.
//!
//! ```text
//! cargo run --release -p helix-bench --bin report -- <artifact>… | all [--full] [--case-study]
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use helix_bench::artifacts::{resolve, Run, ARTIFACTS};
use helix_bench::ExperimentScale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::Full
    } else {
        ExperimentScale::Quick
    };
    let case_study = args.iter().any(|a| a == "--case-study");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    // Every name is checked before the first artifact runs.
    let artifacts = resolve(&names).unwrap_or_else(|e| {
        eprintln!("{e}");
        Vec::new()
    });
    if artifacts.is_empty() {
        let known = ARTIFACTS.map(|(name, _)| name).join(" ");
        eprintln!("usage: report <artifact>… | all [--full] [--case-study]\nartifacts: {known}");
        return ExitCode::FAILURE;
    }
    let mut failed = Vec::new();
    for (name, artifact) in artifacts {
        println!("\n########## {name} ##########");
        let run = Run {
            name,
            scale,
            case_study,
        };
        match artifact(run).and_then(|report| report.write()) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                failed.push(name);
            }
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("failed: {}", failed.join(" "));
    ExitCode::FAILURE
}
