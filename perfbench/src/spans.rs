//! Spans recorded by the benchmark's own code around each call into a
//! layer of the program, plus the per-layer metrics they add up to. Kept
//! in memory and written out as one JSON file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept individually; later ones still count toward the totals.
const KEPT_SPANS: usize = 4000;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span.
pub struct Open {
    index: usize,
    started: Instant,
}

/// The span recorder of one traced run. A disabled recorder times
/// nothing and keeps nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    /// A recorder; `enabled` is the `--trace` flag.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// True for a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let started = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: nanos(started - self.epoch),
            end_ns: 0,
        });
        self.stack.push(index);
        Some(Open { index, started })
    }

    /// Closes a span and adds its duration to its name's total.
    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end = Instant::now();
        let secs = (end - open.started).as_secs_f64();
        let span = &mut self.spans[open.index];
        span.end_ns = nanos(end - self.epoch);
        let total = self.totals.entry(span.name).or_default();
        total.0 += secs;
        total.1 += 1;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.index), "spans close innermost first");
        if self.spans.len() > KEPT_SPANS && self.stack.is_empty() {
            self.spans.truncate(KEPT_SPANS);
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Total seconds spent in spans of `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0)
    }

    /// Writes the spans, their totals and `extra` fields as one JSON file.
    pub fn write(&self, path: &str, extra: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = String::from("{\n");
        for (key, value) in extra {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"span_totals\": {");
        for (i, (name, (secs, count))) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{name}\": {{\"seconds\": {secs}, \"count\": {count}}}"
            );
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
