//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer; nothing inside the program is instrumented. A
//! disabled tracer records nothing, so the untraced passes pay two
//! branches per call site. Spans are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span: a named interval, the span that enclosed it, and the
/// number of operations it covered.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span; `None` inside when the tracer was disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// Position of the span in [`Tracer::spans`], if it was recorded.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
            ops: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, recording that it covered `ops` operations.
    pub fn close(&mut self, id: SpanId, ops: u64) {
        let Some(id) = id.0 else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ops = ops;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Times `f` as one span covering `ops` operations.
    pub fn time<T>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, ops);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration (ns) of span `id`; 0 if it was not recorded.
    pub fn ns(&self, id: SpanId) -> f64 {
        id.0.map_or(0.0, |i| self.spans[i].ns() as f64)
    }

    /// Total duration over total operations of the spans called `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (ns, ops) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, ops), s| (ns + s.ns(), ops + s.ops));
        ns as f64 / ops.max(1) as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"ops\": {}}}",
                s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}
