//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans are kept in memory and written out (as JSON lines) only when the
//! run ends.  A disabled tracer records nothing and reads no clock, so the
//! end-to-end numbers of an untraced run carry no tracing cost.

use crate::host;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Borrowed when recorded (recording a span allocates nothing but the
    /// span itself), owned when read back from a file.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one request share its id.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_for(name, None)
    }

    /// Opens a span that belongs to request `request`.
    pub fn begin_request(&mut self, name: &'static str, request: u64) -> Open {
        self.begin_for(name, Some(request))
    }

    fn begin_for(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: index as u64,
            parent: self.stack.last().map(|&p| p as u64),
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: start_ns,
            request,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Closes every open span now (after an error unwound past their ends).
    pub fn close_all(&mut self) {
        let end_ns = self.now_ns();
        for index in self.stack.drain(..) {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let value = f();
        self.end(open);
        value
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration in microseconds of the spans called `name` (one per
    /// repetition for most names); 0 when the layer never ran.
    pub fn median_us(&self, name: &str) -> f64 {
        host::median(&self.durations_us(name))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
            if let Some(request) = s.request {
                write!(out, ",\"request\":{request}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover, summed over the spans of that name.  Children of one
/// parent never overlap (the tracer is a stack), so the self times of a
/// span and all its descendants sum exactly to the span's duration.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let entry = by_name.entry(s.name.to_string()).or_default();
        entry.0 += s.duration_ns().saturating_sub(covered);
        entry.1 += 1;
    }
    by_name
}

/// Parses a file written by [`Tracer::write_jsonl`].
pub fn read_jsonl(path: &str) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spans = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e:?}", n + 1))?;
        let field = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("{path}:{}: missing `{key}`", n + 1))
        };
        spans.push(Span {
            id: field("id")?,
            parent: v.get("parent").and_then(|p| p.as_u64()),
            name: v
                .get("name")
                .and_then(|x| x.as_str())
                .ok_or_else(|| format!("{path}:{}: missing `name`", n + 1))?
                .to_string()
                .into(),
            start_ns: field("start_ns")?,
            end_ns: field("end_ns")?,
            request: v.get("request").and_then(|r| r.as_u64()),
        });
    }
    Ok(spans)
}

/// The `trace-summary` subcommand: self time per span name, and a check
/// that below every `serve` span the self times add up to its duration.
pub fn print_summary(path: &str) -> Result<(), String> {
    let spans = read_jsonl(path)?;
    let table = self_times_ns(&spans);
    let mut rows: Vec<(&String, &(u64, u64))> = table.iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1 .0));
    println!("{:<28} {:>8} {:>14}", "span", "count", "self_ms");
    for (name, (self_ns, count)) in rows {
        println!("{name:<28} {count:>8} {:>14.3}", *self_ns as f64 / 1e6);
    }

    // Descendants of each `serve` span, via the parent links.
    let parent_of: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let under_serve = |mut id: u64, serve: u64| loop {
        if id == serve {
            return true;
        }
        match parent_of.get(&id).copied().flatten() {
            Some(parent) => id = parent,
            None => return false,
        }
    };
    let (mut serve_ns, mut parts_ns) = (0u64, 0u64);
    for serve in spans.iter().filter(|s| s.name == "serve") {
        serve_ns += serve.duration_ns();
        let subtree: Vec<Span> = spans
            .iter()
            .filter(|s| under_serve(s.id, serve.id))
            .cloned()
            .collect();
        parts_ns += self_times_ns(&subtree).values().map(|v| v.0).sum::<u64>();
    }
    println!(
        "serve spans: {:.3} ms; self times below them (serve's own included): {:.3} ms",
        serve_ns as f64 / 1e6,
        parts_ns as f64 / 1e6
    );
    if serve_ns != parts_ns {
        return Err("self times do not add up to the serve spans".to_string());
    }
    Ok(())
}
