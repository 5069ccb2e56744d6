//! Request records.

use helix_cluster::{ModelId, Region};

/// Identifier of a request within a workload.
pub type RequestId = u64;

/// Handle returned by a serving front door when a request is submitted.
///
/// A ticket wraps the submitted request's [`RequestId`]; session front ends
/// (the threaded runtime's `ServingSession`, the simulator's `SimSession`)
/// hand it back so completions can be awaited per request.  Request ids must
/// be unique within one session for tickets to be unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub RequestId);

impl TicketId {
    /// The submitted request's id.
    pub fn request(&self) -> RequestId {
        self.0
    }
}

pub use helix_cluster::PrefixId;

/// One LLM serving request: a prompt of known length and the (ground-truth)
/// number of output tokens it will generate.
///
/// The output length is of course unknown to the serving system until the
/// request finishes; the simulator only uses it to decide when the request
/// emits its end-of-sequence token, mirroring how trace replay works in the
/// paper's evaluation.
///
/// Requests default to no shared prefix (`prefix: None`): every existing
/// trace and workload behaves exactly as before prefix sharing existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id within the workload.
    pub id: RequestId,
    /// Number of prompt tokens.
    pub prompt_tokens: usize,
    /// Number of output tokens the request will generate.
    pub output_tokens: usize,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_time: f64,
    /// Which model of the fleet the request targets (`ModelId(0)` in
    /// single-model deployments).
    pub model: ModelId,
    /// The shared prompt prefix this request starts with, if any.
    pub prefix: Option<PrefixId>,
    /// How many leading prompt tokens the shared prefix covers (0 when
    /// `prefix` is `None`; always ≤ `prompt_tokens`).
    pub prefix_tokens: usize,
    /// The region the request prefers (user locality), if any.  A front-tier
    /// router honours the tag while the region is healthy; untagged requests
    /// are placed by consistent hashing.  Single-region surfaces ignore it.
    pub region: Option<Region>,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: 0,
            prompt_tokens: 0,
            output_tokens: 0,
            arrival_time: 0.0,
            model: ModelId::default(),
            prefix: None,
            prefix_tokens: 0,
            region: None,
        }
    }
}

impl Request {
    /// Total tokens that end up in the KV cache when the request completes.
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.output_tokens
    }

    /// The shared prefix and its token count, when the request actually
    /// shares a non-empty range (`Some` requires both a `PrefixId` and
    /// `prefix_tokens > 0`).
    pub fn shared_prefix(&self) -> Option<(PrefixId, usize)> {
        match self.prefix {
            Some(prefix) if self.prefix_tokens > 0 => {
                Some((prefix, self.prefix_tokens.min(self.prompt_tokens)))
            }
            _ => None,
        }
    }

    /// Prompt tokens *outside* the shared prefix — what a cache-hit request
    /// still has to prefill itself.
    pub fn suffix_tokens(&self) -> usize {
        match self.shared_prefix() {
            Some((_, shared)) => self.prompt_tokens - shared,
            None => self.prompt_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_tokens_adds_prompt_and_output() {
        let r = Request {
            id: 1,
            prompt_tokens: 100,
            output_tokens: 50,
            ..Request::default()
        };
        assert_eq!(r.total_tokens(), 150);
        assert_eq!(r.model, ModelId(0));
    }

    #[test]
    fn default_request_shares_nothing() {
        let r = Request::default();
        assert_eq!(r.prefix, None);
        assert_eq!(r.shared_prefix(), None);
        assert_eq!(r.suffix_tokens(), 0);
    }

    #[test]
    fn shared_prefix_requires_id_and_positive_range() {
        let mut r = Request {
            prompt_tokens: 100,
            prefix: Some(PrefixId(7)),
            prefix_tokens: 60,
            ..Request::default()
        };
        assert_eq!(r.shared_prefix(), Some((PrefixId(7), 60)));
        assert_eq!(r.suffix_tokens(), 40);
        // A prefix id with a zero-length range shares nothing.
        r.prefix_tokens = 0;
        assert_eq!(r.shared_prefix(), None);
        assert_eq!(r.suffix_tokens(), 100);
        // A range longer than the prompt is clamped to the prompt.
        r.prefix_tokens = 500;
        assert_eq!(r.shared_prefix(), Some((PrefixId(7), 100)));
        assert_eq!(r.suffix_tokens(), 0);
    }
}
