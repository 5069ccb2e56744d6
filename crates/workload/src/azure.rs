//! Azure-Conversation-like length distribution generator.

use crate::request::Request;
use crate::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};

/// Configuration of the synthetic Azure-Conversation-style trace.
///
/// Defaults are calibrated so the generated lengths reproduce the statistics
/// the paper reports for the pruned trace (average input 763, average output
/// 232, caps 2048 / 1024).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureTraceConfig {
    /// Target mean prompt length in tokens.
    pub mean_input_tokens: f64,
    /// Target mean output length in tokens.
    pub mean_output_tokens: f64,
    /// Maximum prompt length (longer samples are resampled/capped).
    pub max_input_tokens: usize,
    /// Maximum output length.
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
        let input_mu =
            self.calibrated_mu(self.mean_input_tokens, INPUT_SIGMA, self.max_input_tokens);
        let output_mu = self.calibrated_mu(
            self.mean_output_tokens,
            OUTPUT_SIGMA,
            self.max_output_tokens,
        );
        let input_dist = LogNormal::new(input_mu, INPUT_SIGMA).expect("sigma is positive");
        let output_dist = LogNormal::new(output_mu, OUTPUT_SIGMA).expect("sigma is positive");
        let requests = (0..n)
            .map(|id| {
                let prompt = Self::sample_capped(&input_dist, self.max_input_tokens, &mut rng);
                let output = Self::sample_capped(&output_dist, self.max_output_tokens, &mut rng);
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
    fn calibrated_mu(&self, target_mean: f64, sigma: f64, max: usize) -> f64 {
        let uncapped = target_mean.ln() - sigma * sigma / 2.0;
        // Iterate a couple of fixed-point corrections using a quick Monte
        // Carlo estimate of the capped mean; cheap and deterministic.
        let mut mu = uncapped;
        let mut rng = StdRng::seed_from_u64(0xA2);
        for _ in 0..8 {
            let dist = LogNormal::new(mu, sigma).expect("sigma is positive");
            let est: f64 = (0..4000)
                .map(|_| dist.sample(&mut rng).min(max as f64).max(1.0))
                .sum::<f64>()
                / 4000.0;
            mu += (target_mean.ln() - est.max(1.0).ln()) * 0.8;
        }
        mu
    }

    fn sample_capped(dist: &LogNormal<f64>, max: usize, rng: &mut StdRng) -> usize {
        let v = dist.sample(rng);
        (v.round() as usize).clamp(1, max)
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
