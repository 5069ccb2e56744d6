//! Arrival processes for the online and offline serving settings.

use crate::request::Request;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp1};

/// How request arrival times are assigned (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Offline serving: every request is available at time zero and the
    /// cluster runs saturated.
    Offline,
    /// Poisson arrivals at a constant rate (requests per second).
    Poisson {
        /// Mean arrival rate in requests per second.  A rate below `1e-9`
        /// (or NaN) reads as `1e-9`; `+∞` puts every arrival at time zero.
        rate_per_sec: f64,
    },
    /// Diurnal arrivals: a Poisson process whose rate follows a sinusoidal
    /// day/night curve, mimicking the Azure Conversation arrival-rate plot
    /// (Fig. 5b).
    Diurnal {
        /// Mean arrival rate in requests per second; read as the Poisson
        /// arm reads its rate (below `1e-9`, or NaN, is `1e-9`).
        mean_rate_per_sec: f64,
        /// Relative amplitude of the rate oscillation, clamped to
        /// `[0, 0.95]`; NaN is no oscillation.
        amplitude: f64,
        /// Period of the oscillation in seconds; a non-finite or
        /// non-positive period is no oscillation.
        period_secs: f64,
    },
}

impl ArrivalPattern {
    /// Constant-rate Poisson arrivals.
    pub fn constant_rate(rate_per_sec: f64) -> Self {
        ArrivalPattern::Poisson { rate_per_sec }
    }

    /// The paper's online setting: a diurnal curve with mean rate equal to
    /// `utilization` × the cluster's peak request throughput.
    ///
    /// `peak_decode_tokens_per_sec` is the cluster's max-flow throughput and
    /// `mean_output_tokens` the average output length, so
    /// `peak_requests_per_sec = peak_tokens / mean_output_tokens`.
    pub fn online(
        peak_decode_tokens_per_sec: f64,
        mean_output_tokens: f64,
        utilization: f64,
    ) -> Self {
        let peak_requests = peak_decode_tokens_per_sec / mean_output_tokens.max(1.0);
        ArrivalPattern::Diurnal {
            mean_rate_per_sec: peak_requests * utilization,
            amplitude: 0.3,
            period_secs: 1200.0,
        }
    }

    /// Assigns arrival times to `requests` in place.
    pub fn assign(&self, requests: &mut [Request], seed: u64) {
        match *self {
            ArrivalPattern::Offline => {
                for r in requests.iter_mut() {
                    r.arrival_time = 0.0;
                }
            }
            ArrivalPattern::Poisson { rate_per_sec } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let rate = rate_per_sec.max(1e-9);
                let mut t = 0.0;
                for r in requests.iter_mut() {
                    let gap: f64 = Exp1.sample(&mut rng);
                    t += gap / rate;
                    r.arrival_time = t;
                }
            }
            ArrivalPattern::Diurnal {
                mean_rate_per_sec,
                amplitude,
                period_secs,
            } => {
                // Thinning-free approach: integrate the time-varying rate by
                // stepping one expected inter-arrival at a time at the local
                // rate.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0f64;
                let mean_rate_per_sec = mean_rate_per_sec.max(1e-9);
                let oscillates = period_secs.is_finite() && period_secs > 0.0;
                let amplitude = if oscillates && !amplitude.is_nan() {
                    amplitude.clamp(0.0, 0.95)
                } else {
                    0.0
                };
                for r in requests.iter_mut() {
                    let phase = 2.0 * std::f64::consts::PI * t / period_secs;
                    let wave = if amplitude > 0.0 {
                        amplitude * phase.sin()
                    } else {
                        0.0
                    };
                    let local_rate = mean_rate_per_sec * (1.0 + wave);
                    let local_rate = local_rate.max(mean_rate_per_sec * 0.05);
                    let gap: f64 = Exp1.sample(&mut rng);
                    t += gap / local_rate;
                    r.arrival_time = t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn offline_sets_all_arrivals_to_zero() {
        let w = Workload::azure_like(100, 1).with_arrivals(ArrivalPattern::Offline, 2);
        assert!(w.iter().all(|r| r.arrival_time == 0.0));
    }

    #[test]
    fn poisson_rate_is_roughly_respected() {
        let n = 5000;
        let rate = 20.0;
        let w = Workload::azure_like(n, 1).with_arrivals(ArrivalPattern::constant_rate(rate), 3);
        let span = w.requests().last().unwrap().arrival_time;
        let empirical_rate = n as f64 / span;
        assert!(
            (empirical_rate - rate).abs() < rate * 0.1,
            "empirical {empirical_rate}"
        );
    }

    /// A degenerate diurnal pattern still gives finite, ordered arrivals: a
    /// zero, negative or NaN mean rate reads as the Poisson arm's floor, and
    /// a NaN amplitude or a non-finite or non-positive period is no
    /// oscillation.
    #[test]
    fn degenerate_diurnal_inputs_give_finite_ordered_arrivals() {
        let diurnal = |mean_rate_per_sec, amplitude, period_secs| ArrivalPattern::Diurnal {
            mean_rate_per_sec,
            amplitude,
            period_secs,
        };
        let arrivals = |pattern| -> Vec<f64> {
            let w = Workload::azure_like(50, 1).with_arrivals(pattern, 7);
            w.iter().map(|r| r.arrival_time).collect()
        };
        for mean in [0.0, -3.0, f64::NAN] {
            let times = arrivals(diurnal(mean, 0.3, 600.0));
            let valid = times.iter().all(|t| t.is_finite() && *t >= 0.0);
            assert!(valid && times.is_sorted(), "mean {mean}: {times:?}");
        }
        let flat = arrivals(diurnal(4.0, 0.0, 600.0));
        for (amplitude, period) in [
            (f64::NAN, 600.0),
            (0.3, 0.0),
            (0.3, -600.0),
            (0.3, f64::NAN),
            (0.3, f64::INFINITY),
        ] {
            let times = arrivals(diurnal(4.0, amplitude, period));
            assert_eq!(times, flat, "amplitude {amplitude}, period {period}");
        }
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let pattern = ArrivalPattern::Diurnal {
            mean_rate_per_sec: 10.0,
            amplitude: 0.5,
            period_secs: 600.0,
        };
        let w = Workload::azure_like(12_000, 1).with_arrivals(pattern, 4);
        let stats = w.statistics();
        // Arrival counts per minute should vary noticeably across the trace.
        let counts: Vec<usize> = stats
            .arrivals_per_minute
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max > min * 1.5, "max {max} min {min}");
    }

    #[test]
    fn online_helper_scales_with_cluster_capacity() {
        let fast = ArrivalPattern::online(10_000.0, 232.0, 0.75);
        let slow = ArrivalPattern::online(1_000.0, 232.0, 0.75);
        let rate = |p: ArrivalPattern| match p {
            ArrivalPattern::Diurnal {
                mean_rate_per_sec, ..
            } => mean_rate_per_sec,
            _ => unreachable!(),
        };
        assert!(rate(fast) > rate(slow) * 5.0);
    }
}
