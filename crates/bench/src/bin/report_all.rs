//! Runs every experiment harness in sequence (quick scale unless `--full`)
//! and prints where each JSON report was written.  This is the one-command
//! regeneration entry point for `results/*.json`.
//!
//! ```text
//! cargo run --release -p helix-bench --bin report_all [--full]
//! ```

use std::process::Command;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let bins = [
        "table1_min_gpus",
        "table3_gpu_catalog",
        "fig2_graph_abstraction",
        "fig5_trace_stats",
        "table8_problem_size",
        "fig12_solver_quality",
        "fig11_ablation",
        "fig9_placement_deepdive",
        "fig10_scheduling_deepdive",
        "fig6_single_cluster",
        "fig7_geo_distributed",
        "fig8_high_heterogeneity",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("current executable has a parent directory");
    for bin in bins {
        println!("\n########## {bin} ##########");
        let path = exe_dir.join(bin);
        let mut cmd = if path.exists() {
            Command::new(path)
        } else {
            // Fall back to cargo run if the sibling binary is not built yet.
            let mut c = Command::new("cargo");
            c.args(["run", "--release", "-p", "helix-bench", "--bin", bin, "--"]);
            c
        };
        if full {
            cmd.arg("--full");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("{bin} exited with {status}"),
            Err(e) => eprintln!("failed to launch {bin}: {e}"),
        }
    }
    println!("\nAll experiment reports are in ./results/*.json");
}
