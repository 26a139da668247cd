//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`; spans of one batch share the
//! batch's root span as parent. Recording is off in untraced runs (one
//! branch per call). The traced run writes every span out at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `NONE` for "no parent".
pub type SpanId = usize;
/// The parent of a root span.
pub const NONE: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: SpanId,
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates blocks of
    /// batches to measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a finished span; returns its id (`NONE` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span { name, start, end, parent });
        self.spans.len() - 1
    }

    /// Moves the end of an open span (one recorded with a provisional end,
    /// so its children can name it as parent).
    pub fn finish(&mut self, id: SpanId, end: Instant) {
        if let Some(s) = self.spans.get_mut(id) {
            s.end = end;
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let ns = |t: Instant| (t - self.origin).as_nanos();
            let parent = if s.parent == NONE { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_their_parent_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let root = tr.record("batch", t0, t0, NONE);
        let child = tr.record("engine.submit", t0, t0 + Duration::from_micros(30), root);
        tr.finish(root, t0 + Duration::from_micros(100));
        assert_eq!((root, child), (0, 1));
        assert_eq!(tr.spans[1].parent, root);
        assert_eq!(tr.spans[0].end - tr.spans[0].start, Duration::from_micros(100));
        tr.set_enabled(false);
        assert_eq!(tr.record("engine.submit", t0, t0, NONE), NONE);
        assert_eq!(tr.spans.len(), 2);
    }
}
