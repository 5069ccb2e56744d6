//! Synthetic LLM-serving workloads modelled on the Azure Conversation trace.
//!
//! The paper evaluates Helix on the Azure Conversation dataset (§6.2,
//! Fig. 5): 16,657 requests after pruning, average input length 763 tokens,
//! average output length 232 tokens, inputs capped at 2048 and outputs at
//! 1024 tokens.  The real trace is not redistributable, so this crate
//! generates synthetic workloads matched to those published statistics:
//!
//! * [`AzureTraceConfig`] / [`Workload::azure_like`] — log-normal prompt and
//!   output length distributions calibrated to the published means and caps.
//! * [`ArrivalPattern`] — the paper's two settings: *offline* (requests are
//!   all available up front, the cluster runs saturated) and *online*
//!   (arrivals follow a diurnal rate curve scaled to a fraction of the
//!   cluster's peak throughput, 75% in the paper).
//! * [`TraceStatistics`] — the summaries plotted in Fig. 5 (length
//!   distributions and arrival rate over time).
//!
//! Generation never panics: every configuration value and arrival rate maps
//! into the domain a request has (see [`AzureTraceConfig`] and
//! [`ArrivalPattern::Poisson`]).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod arrival;
mod azure;
mod request;
mod trace;

pub use arrival::ArrivalPattern;
pub use azure::AzureTraceConfig;
pub use request::{PrefixId, Request, RequestId, TicketId};
pub use trace::TraceError;

use helix_cluster::ModelId;

/// A set of requests with lengths and arrival times, sorted by arrival time.
///
/// # Example
///
/// ```rust
/// use helix_workload::{ArrivalPattern, Workload};
///
/// let workload = Workload::azure_like(1000, 42)
///     .with_arrivals(ArrivalPattern::constant_rate(10.0), 7);
/// assert_eq!(workload.len(), 1000);
/// let stats = workload.statistics();
/// assert!((stats.mean_input_tokens - 763.0).abs() < 80.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    requests: Vec<Request>,
}

impl Workload {
    /// Builds a workload from explicit requests (sorted by arrival time).
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by(|a, b| {
            a.arrival_time
                .partial_cmp(&b.arrival_time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        Workload { requests }
    }

    /// Generates `n` requests with Azure-Conversation-like length statistics
    /// and all arrival times at zero (offline setting).
    pub fn azure_like(n: usize, seed: u64) -> Self {
        AzureTraceConfig::default().generate(n, seed)
    }

    /// Tags every request with `model`.
    pub fn with_model(mut self, model: ModelId) -> Self {
        for r in &mut self.requests {
            r.model = model;
        }
        self
    }

    /// Merges several workloads into one, re-numbering request ids so they
    /// stay globally unique, and re-sorting by arrival time.
    pub fn merge(workloads: Vec<Workload>) -> Self {
        let mut requests: Vec<Request> = Vec::new();
        for w in workloads {
            for mut r in w.requests {
                r.id = requests.len() as RequestId;
                requests.push(r);
            }
        }
        Workload::new(requests)
    }

    /// Reassigns arrival times according to `pattern`.
    pub fn with_arrivals(mut self, pattern: ArrivalPattern, seed: u64) -> Self {
        pattern.assign(&mut self.requests, seed);
        self.requests.sort_by(|a, b| {
            a.arrival_time
                .partial_cmp(&b.arrival_time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        self
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests, sorted by arrival time.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> + '_ {
        self.requests.iter()
    }

    /// Tags a deterministic fraction of requests with shared prompt
    /// prefixes, modelling system prompts and few-shot templates reused
    /// across users.
    ///
    /// Requests are visited in arrival order; request `i` participates when
    /// `⌊(i+1)·share_ratio⌋ > ⌊i·share_ratio⌋`, which spreads participants
    /// evenly without randomness (the same workload and ratio always yield
    /// the same tagging).  Participant `i` joins prefix group `i % groups`
    /// and shares its leading `prefix_len` prompt tokens, clamped so at
    /// least one suffix token remains to prefill (requests with a one-token
    /// prompt are skipped).  A `share_ratio` of `0.0` returns the workload
    /// untouched; `1.0` tags every eligible request.
    pub fn with_shared_prefixes(
        mut self,
        groups: usize,
        prefix_len: usize,
        share_ratio: f64,
    ) -> Self {
        let ratio = share_ratio.clamp(0.0, 1.0);
        if groups == 0 || prefix_len == 0 || ratio <= 0.0 {
            return self;
        }
        let mut participant = 0usize;
        for (i, r) in self.requests.iter_mut().enumerate() {
            let participates = ((i + 1) as f64 * ratio).floor() > (i as f64 * ratio).floor()
                && r.prompt_tokens > 1;
            if participates {
                r.prefix = Some(PrefixId((participant % groups) as u64));
                r.prefix_tokens = prefix_len.min(r.prompt_tokens - 1);
                participant += 1;
            }
        }
        self
    }

    /// Strips every shared-prefix tag, yielding the cache-blind equivalent
    /// of the workload: identical token counts and arrivals, but no request
    /// can share KV pages or skip prefill work.  The baseline side of
    /// cache-aware vs cache-blind comparisons.
    pub fn without_prefixes(mut self) -> Self {
        for r in &mut self.requests {
            r.prefix = None;
            r.prefix_tokens = 0;
        }
        self
    }

    /// Summary statistics (Fig. 5).
    pub fn statistics(&self) -> TraceStatistics {
        TraceStatistics::from_requests(&self.requests)
    }

    /// Total number of output (decode) tokens across all requests.
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output_tokens as u64).sum()
    }
}

/// Summary statistics of a workload (paper Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStatistics {
    /// Number of requests.
    pub num_requests: usize,
    /// Mean prompt length in tokens.
    pub mean_input_tokens: f64,
    /// Mean output length in tokens.
    pub mean_output_tokens: f64,
    /// Maximum prompt length.
    pub max_input_tokens: usize,
    /// Maximum output length.
    pub max_output_tokens: usize,
    /// Histogram of prompt lengths (bucket width 128 tokens).
    pub input_histogram: Vec<usize>,
    /// Histogram of output lengths (bucket width 64 tokens).
    pub output_histogram: Vec<usize>,
    /// Requests arriving in each minute of the trace.
    pub arrivals_per_minute: Vec<usize>,
}

impl TraceStatistics {
    /// Bucket width of [`TraceStatistics::input_histogram`].
    pub const INPUT_BUCKET: usize = 128;
    /// Bucket width of [`TraceStatistics::output_histogram`].
    pub const OUTPUT_BUCKET: usize = 64;

    fn from_requests(requests: &[Request]) -> Self {
        let n = requests.len().max(1) as f64;
        let mean_input_tokens = requests.iter().map(|r| r.prompt_tokens as f64).sum::<f64>() / n;
        let mean_output_tokens = requests.iter().map(|r| r.output_tokens as f64).sum::<f64>() / n;
        let max_input_tokens = requests.iter().map(|r| r.prompt_tokens).max().unwrap_or(0);
        let max_output_tokens = requests.iter().map(|r| r.output_tokens).max().unwrap_or(0);
        let mut input_histogram = vec![0usize; max_input_tokens / Self::INPUT_BUCKET + 1];
        let mut output_histogram = vec![0usize; max_output_tokens / Self::OUTPUT_BUCKET + 1];
        for r in requests {
            input_histogram[r.prompt_tokens / Self::INPUT_BUCKET] += 1;
            output_histogram[r.output_tokens / Self::OUTPUT_BUCKET] += 1;
        }
        let max_minute = requests
            .iter()
            .map(|r| (r.arrival_time / 60.0).floor() as usize)
            .max()
            .unwrap_or(0);
        let mut arrivals_per_minute = vec![0usize; max_minute + 1];
        for r in requests {
            arrivals_per_minute[(r.arrival_time / 60.0).floor() as usize] += 1;
        }
        TraceStatistics {
            num_requests: requests.len(),
            mean_input_tokens,
            mean_output_tokens,
            max_input_tokens,
            max_output_tokens,
            input_histogram,
            output_histogram,
            arrivals_per_minute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs outside a request's domain map into it instead of panicking:
    /// a zero or NaN mean length, a zero cap and an infinite arrival rate.
    #[test]
    fn out_of_domain_inputs_generate_requests_instead_of_panicking() {
        let base = AzureTraceConfig::default();
        let zero_mean = AzureTraceConfig {
            mean_input_tokens: 0.0,
            ..base
        };
        let nan_mean = AzureTraceConfig {
            mean_output_tokens: f64::NAN,
            ..base
        };
        let zero_cap = AzureTraceConfig {
            max_output_tokens: 0,
            ..base
        };
        for config in [zero_mean, nan_mean, zero_cap] {
            let w = config.generate(4, 1);
            assert_eq!(w.len(), 4);
            assert!(w
                .iter()
                .all(|r| r.prompt_tokens >= 1 && r.output_tokens >= 1));
        }
        assert!(zero_cap.generate(4, 1).iter().all(|r| r.output_tokens == 1));
        let w = Workload::azure_like(2, 1)
            .with_arrivals(ArrivalPattern::constant_rate(f64::INFINITY), 2);
        assert!(w.iter().all(|r| r.arrival_time == 0.0));
    }

    #[test]
    fn azure_like_matches_published_statistics() {
        let w = Workload::azure_like(16_657, 1);
        let stats = w.statistics();
        assert_eq!(stats.num_requests, 16_657);
        // Paper: average input 763, average output 232, caps 2048/1024.
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
        assert!(stats.max_input_tokens <= 2048);
        assert!(stats.max_output_tokens <= 1024);
        // Every request has at least one prompt token and one output token.
        assert!(w
            .iter()
            .all(|r| r.prompt_tokens >= 1 && r.output_tokens >= 1));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Workload::azure_like(100, 7);
        let b = Workload::azure_like(100, 7);
        let c = Workload::azure_like(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_patterns_sort() {
        let w = Workload::azure_like(500, 3).with_arrivals(ArrivalPattern::constant_rate(5.0), 9);
        let times: Vec<f64> = w.iter().map(|r| r.arrival_time).collect();
        assert!(times.windows(2).all(|p| p[0] <= p[1]));
        // Roughly 500 requests at 5 req/s -> about 100 seconds.
        assert!(*times.last().unwrap() > 50.0 && *times.last().unwrap() < 200.0);
    }

    #[test]
    fn statistics_histograms_sum_to_request_count() {
        let w = Workload::azure_like(2000, 5);
        let stats = w.statistics();
        assert_eq!(stats.input_histogram.iter().sum::<usize>(), 2000);
        assert_eq!(stats.output_histogram.iter().sum::<usize>(), 2000);
        assert_eq!(stats.arrivals_per_minute.iter().sum::<usize>(), 2000);
        assert!(w.total_output_tokens() > 0);
    }

    #[test]
    fn mixed_model_workloads_merge_split_and_stay_unique() {
        let w = Workload::merge(vec![
            AzureTraceConfig::default()
                .generate(30, 5)
                .with_model(ModelId(0)),
            AzureTraceConfig::default()
                .generate(20, 6)
                .with_model(ModelId(1)),
        ]);
        assert_eq!(w.len(), 50);
        let count = |m| w.iter().filter(|r| r.model == ModelId(m)).count();
        assert_eq!((count(0), count(1)), (30, 20));
        // Ids are globally unique.
        let mut ids: Vec<RequestId> = w.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
        // Tagging is total.
        let tagged = Workload::azure_like(10, 1).with_model(ModelId(3));
        assert!(tagged.iter().all(|r| r.model == ModelId(3)));
        // Merging preserves arrival ordering.
        let merged = Workload::merge(vec![
            Workload::azure_like(5, 2).with_arrivals(ArrivalPattern::constant_rate(1.0), 3),
            Workload::azure_like(5, 4).with_arrivals(ArrivalPattern::constant_rate(2.0), 5),
        ]);
        let times: Vec<f64> = merged.iter().map(|r| r.arrival_time).collect();
        assert!(times.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn shared_prefix_tagging_is_deterministic_and_ratio_scaled() {
        let base = Workload::azure_like(200, 11);
        // Ratio 0 leaves the workload bit-identical.
        assert_eq!(base.clone().with_shared_prefixes(4, 64, 0.0), base);
        // Ratio 1 tags every request with a multi-token prompt.
        let all = base.clone().with_shared_prefixes(4, 64, 1.0);
        for r in all.iter() {
            if r.prompt_tokens > 1 {
                let (prefix, shared) = r.shared_prefix().expect("tagged");
                assert!(prefix.0 < 4);
                assert_eq!(shared, 64.min(r.prompt_tokens - 1));
                assert!(r.suffix_tokens() >= 1, "a suffix token always remains");
            } else {
                assert_eq!(r.shared_prefix(), None);
            }
        }
        // A 50% ratio tags about half, spread over all groups, and the same
        // call is deterministic.
        let half = base.clone().with_shared_prefixes(4, 64, 0.5);
        let tagged = half.iter().filter(|r| r.prefix.is_some()).count();
        assert!((90..=100).contains(&tagged), "tagged {tagged} of 200");
        let groups: std::collections::BTreeSet<u64> =
            half.iter().filter_map(|r| r.prefix.map(|p| p.0)).collect();
        assert_eq!(groups.len(), 4);
        assert_eq!(half, base.clone().with_shared_prefixes(4, 64, 0.5));
        // Stripping restores the cache-blind workload exactly.
        assert_eq!(half.without_prefixes(), base);
    }

    #[test]
    fn empty_workload_is_harmless() {
        let w = Workload::new(vec![]);
        assert!(w.is_empty());
        let stats = w.statistics();
        assert_eq!(stats.num_requests, 0);
        assert_eq!(stats.mean_input_tokens, 0.0);
    }
}
