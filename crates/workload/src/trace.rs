//! JSONL trace loading: replay real request traces through sim and runtime.
//!
//! Each line is one JSON object describing a request:
//!
//! ```json
//! {"arrival_time": 0.5, "prompt_tokens": 512, "output_tokens": 128, "model": 1}
//! ```
//!
//! Field aliases accepted for interoperability with common trace dumps:
//! `arrival_time` | `timestamp` | `arrival` (seconds from trace start,
//! defaults to 0), `prompt_tokens` | `input_tokens` (required),
//! `output_tokens` (required), and the optional `model` tag (defaults to
//! `ModelId(0)`), so single-model traces load unchanged and multi-model
//! traces carry their model mix.
//!
//! Shared-prefix tags are optional: `prefix` | `session` (a non-negative
//! integer naming the shared prompt prefix group) plus an optional
//! `prefix_tokens` count of leading prompt tokens the group shares
//! (defaults to half the prompt when the tag is present, and is clamped to
//! the prompt length).  Traces without these fields load exactly as before
//! (`prefix: None`).
//!
//! Region tags are optional too: `region` | `zone` (a non-negative integer
//! naming the regional cluster the request prefers, for locality-aware
//! front-tier routing).  Traces without the field load with `region: None`
//! and route purely by consistent hashing.

use crate::request::{PrefixId, Request, RequestId};
use crate::Workload;
use helix_cluster::{ModelId, Region};
use std::fmt;
use std::path::Path;

/// Errors produced while loading a JSONL trace.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line was not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A line was valid JSON but not a usable request record.
    InvalidRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace file unreadable: {e}"),
            TraceError::Json { line, message } => {
                write!(f, "trace line {line} is not valid JSON: {message}")
            }
            TraceError::InvalidRecord { line, message } => {
                write!(f, "trace line {line} is not a request record: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Workload {
    /// Parses a JSONL trace from a string (one JSON object per line; blank
    /// lines and `#` comment lines are skipped).  Request ids are assigned in
    /// input order; the result is sorted by arrival time as usual.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first malformed line.
    pub fn from_jsonl_str(text: &str) -> Result<Workload, TraceError> {
        let mut requests = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let value: serde_json::Value =
                serde_json::from_str(trimmed).map_err(|e| TraceError::Json {
                    line,
                    message: e.to_string(),
                })?;
            let object = value.as_object().ok_or_else(|| TraceError::InvalidRecord {
                line,
                message: "expected a JSON object".to_string(),
            })?;
            let field = |names: &[&str]| -> Option<f64> {
                names
                    .iter()
                    .find_map(|n| object.get(n))
                    .and_then(|v| v.as_f64())
            };
            let token_count = |names: &[&str]| -> Result<usize, TraceError> {
                let value = field(names).ok_or_else(|| TraceError::InvalidRecord {
                    line,
                    message: format!("missing numeric {}", names.join("/")),
                })?;
                if !value.is_finite() || value < 1.0 {
                    return Err(TraceError::InvalidRecord {
                        line,
                        message: format!("{} must be a positive count, got {value}", names[0]),
                    });
                }
                Ok(value as usize)
            };
            let prompt_tokens = token_count(&["prompt_tokens", "input_tokens"])?;
            let output_tokens = token_count(&["output_tokens"])?;
            let arrival_time = field(&["arrival_time", "timestamp", "arrival"]).unwrap_or(0.0);
            if !arrival_time.is_finite() || arrival_time < 0.0 {
                return Err(TraceError::InvalidRecord {
                    line,
                    message: format!("invalid arrival time {arrival_time}"),
                });
            }
            let model = match object.get("model") {
                None => ModelId::default(),
                Some(v) => ModelId(v.as_u64().ok_or_else(|| TraceError::InvalidRecord {
                    line,
                    message: "model tag must be a non-negative integer".to_string(),
                })? as usize),
            };
            let prefix = match ["prefix", "session"].iter().find_map(|n| object.get(n)) {
                None => None,
                Some(v) => Some(PrefixId(v.as_u64().ok_or_else(|| {
                    TraceError::InvalidRecord {
                        line,
                        message: "prefix/session tag must be a non-negative integer".to_string(),
                    }
                })?)),
            };
            let prefix_tokens = if prefix.is_some() {
                match field(&["prefix_tokens"]) {
                    Some(value) if value.is_finite() && value >= 0.0 => {
                        (value as usize).min(prompt_tokens)
                    }
                    Some(value) => {
                        return Err(TraceError::InvalidRecord {
                            line,
                            message: format!(
                                "prefix_tokens must be a non-negative count, got {value}"
                            ),
                        });
                    }
                    // A prefix tag without an explicit length shares half
                    // the prompt — a usable default for session dumps that
                    // only record the session id.
                    None => prompt_tokens / 2,
                }
            } else {
                0
            };
            let region = match ["region", "zone"].iter().find_map(|n| object.get(n)) {
                None => None,
                Some(v) => Some(Region(v.as_u64().ok_or_else(|| TraceError::InvalidRecord {
                    line,
                    message: "region/zone tag must be a non-negative integer".to_string(),
                })? as u32)),
            };
            requests.push(Request {
                id: requests.len() as RequestId,
                prompt_tokens,
                output_tokens,
                arrival_time,
                model,
                prefix,
                prefix_tokens,
                region,
            });
        }
        Ok(Workload::new(requests))
    }

    /// Loads a JSONL trace from a file; see [`Workload::from_jsonl_str`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on I/O failures or malformed lines.
    pub fn load_jsonl(path: impl AsRef<Path>) -> Result<Workload, TraceError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_jsonl_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_records_with_aliases_comments_and_model_tags() {
        let text = r#"
# a comment line
{"arrival_time": 2.0, "prompt_tokens": 100, "output_tokens": 10}
{"timestamp": 1.0, "input_tokens": 50, "output_tokens": 5, "model": 1}

{"arrival": 0.5, "prompt_tokens": 30, "output_tokens": 3, "model": 0}
"#;
        let w = Workload::from_jsonl_str(text).unwrap();
        assert_eq!(w.len(), 3);
        // Sorted by arrival time.
        let arrivals: Vec<f64> = w.iter().map(|r| r.arrival_time).collect();
        assert_eq!(arrivals, vec![0.5, 1.0, 2.0]);
        let models: Vec<ModelId> = w.iter().map(|r| r.model).collect();
        assert_eq!(models, vec![ModelId(0), ModelId(1), ModelId(0)]);
    }

    #[test]
    fn prefix_and_session_aliases_round_trip() {
        let text = r#"
{"arrival_time": 0.0, "prompt_tokens": 100, "output_tokens": 10, "prefix": 3, "prefix_tokens": 64}
{"arrival_time": 1.0, "prompt_tokens": 100, "output_tokens": 10, "session": 3}
{"arrival_time": 2.0, "prompt_tokens": 40, "output_tokens": 4, "prefix": 9, "prefix_tokens": 900}
{"arrival_time": 3.0, "prompt_tokens": 40, "output_tokens": 4}
"#;
        let w = Workload::from_jsonl_str(text).unwrap();
        assert_eq!(w.len(), 4);
        let r = w.requests();
        // Explicit prefix + length.
        assert_eq!(r[0].shared_prefix(), Some((PrefixId(3), 64)));
        // `session` aliases `prefix`; the length defaults to half the prompt.
        assert_eq!(r[1].shared_prefix(), Some((PrefixId(3), 50)));
        // An over-long range is clamped to the prompt.
        assert_eq!(r[2].prefix_tokens, 40);
        // Untagged records stay prefix-free.
        assert_eq!(r[3].shared_prefix(), None);
        assert_eq!(r[3].prefix_tokens, 0);

        // Malformed prefix tags are rejected with the line number.
        let bad = "{\"prompt_tokens\": 10, \"output_tokens\": 1, \"prefix\": -2}";
        assert!(matches!(
            Workload::from_jsonl_str(bad),
            Err(TraceError::InvalidRecord { .. })
        ));
        let bad_len =
            "{\"prompt_tokens\": 10, \"output_tokens\": 1, \"prefix\": 1, \"prefix_tokens\": -5}";
        assert!(matches!(
            Workload::from_jsonl_str(bad_len),
            Err(TraceError::InvalidRecord { .. })
        ));
    }

    #[test]
    fn region_and_zone_aliases_round_trip() {
        use helix_cluster::Region;
        let text = r#"
{"arrival_time": 0.0, "prompt_tokens": 100, "output_tokens": 10, "region": 2}
{"arrival_time": 1.0, "prompt_tokens": 100, "output_tokens": 10, "zone": 0}
{"arrival_time": 2.0, "prompt_tokens": 40, "output_tokens": 4, "region": 1, "prefix": 7}
{"arrival_time": 3.0, "prompt_tokens": 40, "output_tokens": 4}
"#;
        let w = Workload::from_jsonl_str(text).unwrap();
        assert_eq!(w.len(), 4);
        let r = w.requests();
        assert_eq!(r[0].region, Some(Region(2)));
        // `zone` aliases `region`.
        assert_eq!(r[1].region, Some(Region(0)));
        // Region and prefix tags compose on one record.
        assert_eq!(r[2].region, Some(Region(1)));
        assert_eq!(r[2].shared_prefix(), Some((PrefixId(7), 20)));
        // Untagged records stay region-free and route by hashing alone.
        assert_eq!(r[3].region, None);

        // Malformed region tags are rejected with the line number.
        let bad = "{\"prompt_tokens\": 10, \"output_tokens\": 1, \"region\": -1}";
        assert!(matches!(
            Workload::from_jsonl_str(bad),
            Err(TraceError::InvalidRecord { .. })
        ));
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let bad_json = "{\"prompt_tokens\": 1, \"output_tokens\": 1}\nnot json";
        match Workload::from_jsonl_str(bad_json) {
            Err(TraceError::Json { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a JSON error, got {other:?}"),
        }
        let missing = "{\"prompt_tokens\": 1}";
        match Workload::from_jsonl_str(missing) {
            Err(TraceError::InvalidRecord { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("output_tokens"));
            }
            other => panic!("expected an invalid record, got {other:?}"),
        }
        let negative = "{\"prompt_tokens\": 1, \"output_tokens\": 1, \"arrival_time\": -3}";
        assert!(matches!(
            Workload::from_jsonl_str(negative),
            Err(TraceError::InvalidRecord { .. })
        ));
        // Non-positive token counts are rejected, not silently clamped.
        let zero_output = "{\"prompt_tokens\": 10, \"output_tokens\": 0}";
        assert!(matches!(
            Workload::from_jsonl_str(zero_output),
            Err(TraceError::InvalidRecord { .. })
        ));
        let negative_prompt = "{\"prompt_tokens\": -512, \"output_tokens\": 4}";
        assert!(matches!(
            Workload::from_jsonl_str(negative_prompt),
            Err(TraceError::InvalidRecord { .. })
        ));
        let bad_model = "{\"prompt_tokens\": 1, \"output_tokens\": 1, \"model\": -1}";
        assert!(matches!(
            Workload::from_jsonl_str(bad_model),
            Err(TraceError::InvalidRecord { .. })
        ));
        let not_object = "[1, 2, 3]";
        assert!(matches!(
            Workload::from_jsonl_str(not_object),
            Err(TraceError::InvalidRecord { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("helix_trace_test.jsonl");
        std::fs::write(
            &path,
            "{\"arrival_time\": 0.0, \"prompt_tokens\": 8, \"output_tokens\": 4, \"model\": 1}\n",
        )
        .unwrap();
        let w = Workload::load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(w.len(), 1);
        assert_eq!(w.requests()[0].model, ModelId(1));
        assert!(Workload::load_jsonl(dir.join("does_not_exist.jsonl")).is_err());
        assert!(TraceError::from(std::io::Error::other("x"))
            .to_string()
            .contains("unreadable"));
    }
}
