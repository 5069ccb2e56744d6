//! Azure-Conversation-like length distribution generator.

use crate::request::Request;
use crate::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};

/// Configuration of the synthetic Azure-Conversation-style trace.
///
/// Defaults are calibrated so the generated lengths reproduce the statistics
/// the paper reports for the pruned trace (average input 763, average output
/// 232, caps 2048 / 1024).
///
/// Every value generates a workload: a request has at least one token, so a
/// cap of 0 reads as 1, and a mean must be a positive finite number, so a
/// mean that is NaN, zero or negative reads as 1 token and `+∞` as
/// `f64::MAX` (which the cap then bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureTraceConfig {
    /// Target mean prompt length in tokens (NaN or ≤ 0 reads as 1, `+∞` as
    /// `f64::MAX`).
    pub mean_input_tokens: f64,
    /// Target mean output length in tokens (NaN or ≤ 0 reads as 1, `+∞` as
    /// `f64::MAX`).
    pub mean_output_tokens: f64,
    /// Maximum prompt length (longer samples are capped; 0 reads as 1).
    pub max_input_tokens: usize,
    /// Maximum output length (longer samples are capped; 0 reads as 1).
    pub max_output_tokens: usize,
}

/// Shape (sigma of the underlying normal) of the input length distribution;
/// larger values make the distribution heavier-tailed.
const INPUT_SIGMA: f64 = 0.9;
/// Shape of the output length distribution.
const OUTPUT_SIGMA: f64 = 0.8;

impl Default for AzureTraceConfig {
    fn default() -> Self {
        AzureTraceConfig {
            mean_input_tokens: 763.0,
            mean_output_tokens: 232.0,
            max_input_tokens: 2048,
            max_output_tokens: 1024,
        }
    }
}

impl AzureTraceConfig {
    /// Generates `n` requests with arrival time zero (offline setting); use
    /// [`Workload::with_arrivals`] to assign arrival times.
    pub fn generate(&self, n: usize, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        // A log-normal with parameters (mu, sigma) has mean exp(mu + sigma^2/2).
        // Capping at max reduces the realised mean, so aim slightly above the
        // target and rely on the calibration test to keep us honest.
        let (max_input, max_output) = (self.max_input_tokens.max(1), self.max_output_tokens.max(1));
        let input_mu = Self::calibrated_mu(
            positive_finite(self.mean_input_tokens),
            INPUT_SIGMA,
            max_input,
        );
        let output_mu = Self::calibrated_mu(
            positive_finite(self.mean_output_tokens),
            OUTPUT_SIGMA,
            max_output,
        );
        let requests = (0..n)
            .map(|id| {
                let prompt = Self::sample_capped(input_mu, INPUT_SIGMA, max_input, &mut rng);
                let output = Self::sample_capped(output_mu, OUTPUT_SIGMA, max_output, &mut rng);
                Request {
                    id: id as u64,
                    prompt_tokens: prompt,
                    output_tokens: output,
                    ..Request::default()
                }
            })
            .collect();
        Workload::new(requests)
    }

    /// Chooses `mu` such that the *capped* log-normal roughly hits the target
    /// mean: start from the uncapped formula and apply a small correction for
    /// the probability mass that gets clipped at `max`.
    fn calibrated_mu(target_mean: f64, sigma: f64, max: usize) -> f64 {
        let uncapped = target_mean.ln() - sigma * sigma / 2.0;
        // Iterate a couple of fixed-point corrections using a quick Monte
        // Carlo estimate of the capped mean; cheap and deterministic.
        let mut mu = uncapped;
        let mut rng = StdRng::seed_from_u64(0xA2);
        for _ in 0..8 {
            let est: f64 = (0..4000)
                .map(|_| log_normal(mu, sigma, &mut rng).min(max as f64).max(1.0))
                .sum::<f64>()
                / 4000.0;
            mu += (target_mean.ln() - est.max(1.0).ln()) * 0.8;
        }
        mu
    }

    /// One log-normal length, rounded into `1..=max` (`max` ≥ 1).
    fn sample_capped(mu: f64, sigma: f64, max: usize, rng: &mut StdRng) -> usize {
        let v = log_normal(mu, sigma, rng);
        (v.round() as usize).clamp(1, max)
    }
}

/// One draw of the log-normal `exp(mu + sigma * Z)`, `Z ~ N(0, 1)`.
fn log_normal(mu: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    let z: f64 = StandardNormal.sample(rng);
    (mu + sigma * z).exp()
}

/// `mean` if it is a positive finite number; 1 token if it is NaN, zero or
/// negative, and `f64::MAX` if it is `+∞`.
fn positive_finite(mean: f64) -> f64 {
    if mean.is_nan() || mean <= 0.0 {
        1.0
    } else {
        mean.min(f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_hits_target_means() {
        let w = AzureTraceConfig::default().generate(8000, 11);
        let stats = w.statistics();
        assert!(
            (stats.mean_input_tokens - 763.0).abs() < 60.0,
            "{}",
            stats.mean_input_tokens
        );
        assert!(
            (stats.mean_output_tokens - 232.0).abs() < 25.0,
            "{}",
            stats.mean_output_tokens
        );
    }

    #[test]
    fn custom_configuration_is_respected() {
        let config = AzureTraceConfig {
            mean_input_tokens: 100.0,
            mean_output_tokens: 50.0,
            max_input_tokens: 256,
            max_output_tokens: 128,
        };
        let w = config.generate(4000, 2);
        let stats = w.statistics();
        assert!(stats.max_input_tokens <= 256);
        assert!(stats.max_output_tokens <= 128);
        assert!((stats.mean_input_tokens - 100.0).abs() < 20.0);
        assert!((stats.mean_output_tokens - 50.0).abs() < 10.0);
    }

    #[test]
    fn lengths_are_heavy_tailed_like_the_real_trace() {
        let w = AzureTraceConfig::default().generate(8000, 13);
        let stats = w.statistics();
        // The distribution has many short prompts and a long tail: the first
        // few buckets should hold a substantial fraction of requests while
        // requests also exist beyond 4x the mean.
        let short: usize = stats.input_histogram.iter().take(4).sum();
        assert!(short as f64 > 0.3 * stats.num_requests as f64);
        assert!(stats.max_input_tokens > 1800);
    }
}
