//! The suite's own span buffer.
//!
//! The traced pass records `{name, op, parent, start, end}` from the
//! benchmark's code, around the calls it makes into each layer; the
//! program is not touched. Spans stay in memory, per-layer metrics are
//! folded from them, and the buffer is written as Chrome `trace_event`
//! JSON when the pass ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `f2db.sql_parse`.
    pub name: &'static str,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span in the buffer, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; hand it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty buffer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[idx].start_ns = self.at(Instant::now());
        Open(idx)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        let now = Instant::now();
        self.spans[span.0].end_ns = self.at(now);
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, op);
        let out = f();
        self.exit(span);
        out
    }

    /// Records an interval measured elsewhere (the HTTP client's phase
    /// boundaries) as a child of the innermost open span.
    pub fn add(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fails unless every span lies inside its parent, belongs to its
    /// parent's op, and the children of each span sum to no more than
    /// the span itself.
    pub fn verify_nesting(&self) -> Result<(), String> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} was never closed", s.name));
            }
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op != parent.op {
                return Err(format!(
                    "span {} of op {} escapes its parent {}",
                    s.name, s.op, parent.name
                ));
            }
            children[p] += s.ns();
        }
        match self.spans.iter().zip(&children).find(|(s, &c)| c > s.ns()) {
            Some((s, c)) => Err(format!(
                "children of {} (op {}) sum to {c} ns, the span is {} ns",
                s.name,
                s.op,
                s.ns()
            )),
            None => Ok(()),
        }
    }

    /// Writes the buffer as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps; op and parent ride in `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        t.leaf("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("inner", 7, || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let whole = t.spans()[0].ns();
        let inner: u64 = t.spans()[1..].iter().map(Span::ns).sum();
        assert!(inner >= 2_000_000 && inner <= whole);
        t.verify_nesting().unwrap();
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let mut t = Tracer::new();
        let before = Instant::now();
        let outer = t.enter("outer", 1);
        t.add("stray", 1, before, Instant::now());
        t.exit(outer);
        assert!(t.verify_nesting().is_err());
    }
}
