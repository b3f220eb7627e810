//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions,
//! kept in memory, and written out once at the end as JSON lines under one
//! run identifier. Each span carries two counts taken at the same
//! boundary: `work` (values, items or calls the layer handled) and
//! `useful` (the outcomes that counted, e.g. items enrich found evidence
//! for, items an action accepted), so ratios are measured where the work
//! happens.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (one execution, commit or request) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
    pub useful: u64,
    /// Read syscalls the process made during the span, where measured.
    pub reads: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    run: String,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run: String) -> Self {
        Tracer { run, origin: Instant::now(), op: 0, spans: Vec::new() }
    }

    pub fn run_id(&self) -> &str {
        &self.run
    }

    /// Starts the root span of the next operation.
    pub fn start_op(&mut self, name: &'static str) -> usize {
        self.op += 1;
        self.start(name, None)
    }

    pub fn start(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: now,
            end_ns: now,
            work: 0,
            useful: 0,
            reads: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize, work: u64, useful: u64) {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.work = work;
        span.useful = useful;
    }

    /// Sets the counts of an already ended span (for counts computed after
    /// the timed call returned).
    pub fn count(&mut self, id: usize, work: u64, useful: u64) {
        self.spans[id].work = work;
        self.spans[id].useful = useful;
    }

    /// Places a span at instants measured elsewhere (another thread).
    pub fn place(&mut self, id: usize, start: Instant, end: Instant) {
        self.spans[id].start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans[id].end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    pub fn set_reads(&mut self, id: usize, reads: u64) {
        self.spans[id].reads = reads;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time, work and useful counts of every span named `name`.
    pub fn total(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.spans += 1;
            t.ns += s.ns();
            t.work += s.work;
            t.useful += s.useful;
            t.reads += s.reads;
        }
        t
    }

    /// Per-operation durations of spans named `name` (one per span).
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// For every root span named `root`, the summed duration of its direct
    /// children: the time its layer calls account for.
    pub fn child_sums_ns(&self, root: &str) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root {
                sums.insert(id, 0u64);
            }
        }
        for s in &self.spans {
            if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
                *sum += s.ns();
            }
        }
        sums.into_values().map(|v| v as f64).collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"op\":{},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"work\":{},\"useful\":{},\"reads\":{}}}",
                self.run, s.op, s.name, s.start_ns, s.end_ns, s.work, s.useful, s.reads
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub spans: u64,
    pub ns: u64,
    pub work: u64,
    pub useful: u64,
    pub reads: u64,
}

impl Totals {
    /// Microseconds per unit of work (0 when no work was recorded).
    pub fn us_per_work(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.work as f64)
    }

    /// Microseconds per span.
    pub fn us_per_span(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.spans as f64)
    }

    pub fn useful_share(&self) -> f64 {
        ratio(self.useful as f64, self.work as f64)
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_under_their_root() {
        let mut t = Tracer::new("r".into());
        let root = t.start_op("execute");
        let a = t.start("validate", Some(root));
        t.end(a, 1, 1);
        let b = t.start("annotate", Some(root));
        t.end(b, 30, 30);
        t.end(root, 10, 5);
        let sums = t.child_sums_ns("execute");
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0], (t.spans()[a].ns() + t.spans()[b].ns()) as f64);
        assert_eq!(t.total("annotate").work, 30);
        assert_eq!(t.total("execute").useful_share(), 0.5);
    }
}
