//! In-memory span log for traced runs. Spans are recorded by the
//! benchmark around its calls into the program's public functions and
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

struct Span {
    /// Shared by every span of one query or request.
    trace_id: u64,
    id: u64,
    /// The span that caused this one (0 for a root span).
    parent: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        trace_id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            trace_id,
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Records a finished span and returns its duration in milliseconds.
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let id = self.reserve();
        self.record_as(id, trace_id, parent, name, start, end);
        end.duration_since(start).as_secs_f64() * 1e3
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace_id\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.trace_id, s.id, s.parent, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
