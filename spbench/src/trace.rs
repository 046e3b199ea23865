//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory; written out when the run ends.

use std::io::Write;
use std::path::Path;

use crate::stats::now_ns;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the span that caused this one (0 for a root span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Ids carry the thread's lane in their high
/// bits, so logs merge without renumbering.
#[derive(Debug)]
pub struct Recorder {
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(lane: u64) -> Recorder {
        Recorder {
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A request identifier unique across lanes.
    pub fn request(&self, index: u64) -> u64 {
        (self.lane << 40) | index
    }

    /// Logs a span that already happened; returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span; returns its result and the nanoseconds it
    /// took.
    pub fn time<R>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = now_ns();
        let result = f();
        let end = now_ns();
        self.record(parent, request, name, start, end);
        (result, end - start)
    }
}

/// A span's duration minus the part of it its children cover.
pub fn self_nanos(span: &Span, spans: &[Span]) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == span.id)
        .map(Span::nanos)
        .sum();
    span.nanos().saturating_sub(children)
}

/// Writes the spans as a JSON array, one span per line.
pub fn write(path: &Path, spans: &[Span]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    out.write_all(b"[\n").map_err(fail)?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )
        .map_err(fail)?;
    }
    out.write_all(b"]\n").map_err(fail)?;
    out.flush().map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new(3);
        let request = rec.request(9);
        let root = rec.record(0, request, "client.call", 100, 200);
        rec.record(root, request, "wire.decode_request", 110, 120);
        rec.record(root, request, "service.frame_hit", 120, 150);
        rec.record(0, rec.request(10), "client.call", 300, 400);
        assert_eq!(self_nanos(&rec.spans[0], &rec.spans), 60);
        assert_eq!(rec.spans[0].id >> 40, 3);
        assert_ne!(rec.spans[0].request, rec.spans[3].request);
    }

    #[test]
    fn trace_files_are_json() {
        let mut rec = Recorder::new(1);
        rec.record(0, 1, "client.call", 1, 2);
        rec.record(0, 2, "client.call", 3, 5);
        let path = std::env::temp_dir().join(format!("spbench-trace-{}.json", std::process::id()));
        write(&path, &rec.spans).unwrap();
        let parsed = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 2);
        assert_eq!(
            parsed.as_arr().unwrap()[1].get("end_ns").unwrap().as_f64(),
            Some(5.0)
        );
    }
}
