//! What the machine did while a workload ran: a calibration loop to spot
//! drift, the process's peak memory, its CPU time and its thread count.
//! Raw measurements are never rescaled by any of these.

use std::hint::black_box;
use std::time::Instant;

/// Words in the calibration buffer: 256 KiB, so the walk leaves the L1
/// cache but stays in the core's own L2.  (A 1 MiB walk drifted by 40 %
/// inside one idle process on this virtual machine, which says more about
/// the host's other tenants than about the run being measured.)
const CALIB_WORDS: usize = 1 << 15;
/// Dependent steps of the walk; sized to take about 200 ms here.
const CALIB_STEPS: u64 = 32_000_000;

/// Runs the fixed integer + memory walk (`1 / divisor` of it) and returns
/// millions of steps per second.  Every step depends on the previous one, so
/// the loop cannot be vectorised or hoisted.
pub fn calibrate(divisor: u64) -> f64 {
    let steps = CALIB_STEPS / divisor.max(1);
    let mut buf: Vec<u64> = (0..CALIB_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11)
        .collect();
    let mask = CALIB_WORDS as u64 - 1;
    let mut idx = 1u64;
    let mut acc = 0u64;
    let mut walk = |steps: u64| {
        for step in 0..steps {
            let slot = (idx & mask) as usize;
            let v = buf[slot];
            acc = acc.wrapping_add(v ^ step);
            buf[slot] = v.rotate_left(7) ^ acc;
            idx = idx
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(v | 1);
        }
    };
    // A tenth untimed, so page faults and a cold cache stay out of the rate.
    walk(steps / 10);
    let start = Instant::now();
    walk(steps);
    let elapsed = start.elapsed().as_secs_f64();
    black_box((acc, &buf));
    steps as f64 / elapsed / 1e6
}

/// Whether two calibration readings differ by more than 10 %.
pub fn noisy(before: f64, after: f64) -> bool {
    (before - after).abs() > 0.10 * before.max(after)
}

fn status_field(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// OS threads of this process right now.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

/// User + system CPU seconds of this process so far, all threads, including
/// ones that have exited (`/proc/self/stat` fields 14 and 15, in the
/// kernel's fixed 100 Hz user-space ticks).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Cores the scheduler will give this process.
pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]`; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
