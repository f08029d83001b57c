//! Benchmark-side spans around the public calls the benchmark makes.
//!
//! A span has a name, a start and an end (nanoseconds since the process
//! epoch), its own id, and the id of the span that caused it; every span
//! of one request carries that request's trace id. Each thread collects
//! its own spans in memory and hands them back when it ends; the traced
//! run writes them all out as JSON lines when it exits. Untraced runs hold
//! a disabled [`Spans`] and record nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A fresh span or trace id (never 0, which means "no parent").
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // relaxed: a unique counter, publishes no other data.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span buffer.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        epoch();
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records span `id` over `[start, end)` under `trace`, caused by
    /// `parent` (0 for a root).
    pub fn record(
        &mut self,
        (trace, id, parent): (u64, u64, u64),
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
            self.spans.push(Span {
                trace,
                id,
                parent,
                name,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    /// Times `f` as a root span of its own trace.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let id = next_id();
        self.record((id, id, 0), name, start, Instant::now());
        out
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
