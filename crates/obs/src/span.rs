//! Hierarchical tracing spans.
//!
//! A span is an RAII guard around a region of work. Spans nest per
//! thread: entering `"select"` while `"advisor.step"` is open produces
//! the dotted-slash path `advisor.step/select`. Closing a span
//!
//! * records its wall-clock duration into the global histogram
//!   `span.<path>.ns`, and
//! * notifies the global [`SpanSubscriber`], if one is installed.
//!
//! A **timed** span ([`SpanGuard::timed`]) is for work that keeps its
//! own latency histogram: its clock runs whether or not spans are
//! collected, and [`SpanGuard::finish`] reads it once, records that one
//! duration into the caller's histogram, tells the subscriber (a
//! collected span only) and hands the duration back. It never records
//! `span.<path>.ns`, and dropped unfinished — the work failed — it
//! closes for the subscriber and records nothing.
//!
//! [`FlameCollector`] is the built-in subscriber: it aggregates
//! count/total/self time per path and renders an indented flame-style
//! summary. Span collection is cheap: two `Instant::now()` calls and
//! one histogram record per span (a timed span's record is its caller's
//! own, so it adds only the path bookkeeping); each thread remembers the
//! paths it has entered and the histogram each closes into, so a span
//! on a path its thread has closed before builds no string and takes no
//! registry lock; and with no subscriber installed a close reads one
//! atomic flag instead of the subscriber slot's lock. Collection can be
//! disabled globally with [`set_spans_enabled`] — a disabled plain span
//! costs one relaxed atomic load.
//! Threads running under an **unsampled** [`TraceContext`] skip span
//! collection too (one thread-local read): the head-sampling decision
//! made at request ingress covers every span under that request, which
//! is what keeps tracing affordable at high sampling-out rates.

use crate::metrics::{registry, Histogram};
use crate::trace::{self, TraceContext};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

static SPANS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables span collection process-wide.
pub fn set_spans_enabled(enabled: bool) {
    SPANS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span collection is currently enabled.
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// A span's distributed-trace identity, minted at enter time when a
/// *sampled* [`TraceContext`] is active on the thread. Spans opened
/// outside any trace (or under an unsampled one) carry no `SpanTrace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTrace {
    /// Trace id shared across processes (from the active context).
    pub trace_id: u128,
    /// This span's own fresh 64-bit id.
    pub span_id: u64,
    /// The enclosing span's id (the context's id at enter time).
    pub parent_span_id: u64,
}

/// Observer of span closures. Implementations must be cheap — they run
/// inline in the instrumented thread on every span close.
pub trait SpanSubscriber: Send + Sync {
    /// Called when a span closes. `path` is the full slash-joined path,
    /// `depth` its nesting depth (0 = root span), `elapsed` the
    /// wall-clock time between enter and close.
    fn on_close(&self, path: &str, depth: usize, elapsed: Duration);

    /// Trace-aware close notification; `trace` is `Some` when the span
    /// was opened under a sampled [`TraceContext`]. Defaults to
    /// forwarding to [`SpanSubscriber::on_close`], so subscribers that
    /// do not care about trace ids need no changes.
    fn on_close_traced(
        &self,
        path: &str,
        depth: usize,
        elapsed: Duration,
        _trace: Option<&SpanTrace>,
    ) {
        self.on_close(path, depth, elapsed);
    }
}

fn subscriber_slot() -> &'static RwLock<Option<Arc<dyn SpanSubscriber>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn SpanSubscriber>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Whether the subscriber slot holds a subscriber: written under the
/// slot's write lock, read by every close before it takes the slot's
/// read lock, so a process without a subscriber never touches the lock.
static SUBSCRIBED: AtomicBool = AtomicBool::new(false);

/// Installs the global span subscriber, replacing any previous one.
pub fn set_subscriber(sub: Arc<dyn SpanSubscriber>) {
    let mut slot = subscriber_slot().write().unwrap();
    *slot = Some(sub);
    SUBSCRIBED.store(true, Ordering::Release);
}

/// Removes and returns the global span subscriber.
pub fn take_subscriber() -> Option<Arc<dyn SpanSubscriber>> {
    let mut slot = subscriber_slot().write().unwrap();
    SUBSCRIBED.store(false, Ordering::Release);
    slot.take()
}

/// What closing a span on one path needs: the slash-joined path and —
/// resolved by the first close, as before — its `span.<path>.ns`
/// histogram. Behind an `Rc` so a close can use it after letting go of
/// the thread's span state (a subscriber may open spans of its own).
struct PathClose {
    path: String,
    histogram: OnceCell<Arc<Histogram>>,
}

/// One path this thread has entered before.
struct KnownPath {
    close: Rc<PathClose>,
    /// Where the path's last segment, the span's own name, begins.
    name_at: usize,
    /// The known paths one level below this one.
    children: Vec<usize>,
}

impl KnownPath {
    fn name(&self) -> &str {
        &self.close.path[self.name_at..]
    }
}

/// A thread's span state: the tree of paths it has entered so far —
/// bounded by the span names in the code, like the registry's
/// `span.*` series — and the spans open right now.
#[derive(Default)]
struct ThreadSpans {
    known: Vec<KnownPath>,
    roots: Vec<usize>,
    /// Indices into `known`, outermost first.
    open: Vec<usize>,
}

impl ThreadSpans {
    /// Opens `name` under the innermost open span — a path learnt on
    /// the thread's first visit — and returns its nesting depth.
    fn enter(&mut self, name: &str) -> usize {
        let parent = self.open.last().copied();
        let siblings = match parent {
            Some(p) => &self.known[p].children,
            None => &self.roots,
        };
        let known = siblings
            .iter()
            .copied()
            .find(|&id| self.known[id].name() == name);
        let id = known.unwrap_or_else(|| {
            let path = match parent {
                Some(p) => format!("{}/{name}", self.known[p].close.path),
                None => name.to_string(),
            };
            let id = self.known.len();
            self.known.push(KnownPath {
                name_at: path.len() - name.len(),
                close: Rc::new(PathClose {
                    path,
                    histogram: OnceCell::new(),
                }),
                children: Vec::new(),
            });
            match parent {
                Some(p) => self.known[p].children.push(id),
                None => self.roots.push(id),
            }
            id
        });
        self.open.push(id);
        self.open.len() - 1
    }
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// RAII guard for an open span; created by [`crate::span!`],
/// [`SpanGuard::enter`] or [`SpanGuard::timed`]. Closing (dropping)
/// records the elapsed time — a timed span's through
/// [`SpanGuard::finish`] only.
#[must_use = "a span guard must be bound (`let _g = span!(..)`) or it closes immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when a plain span was entered with spans disabled; a
    /// timed span always holds its start.
    start: Option<Instant>,
    /// Whether the span is on the thread's open stack (spans enabled,
    /// context not unsampled): only such a span is reported.
    live: bool,
    /// A timed span records into the histogram its finisher is given,
    /// never into `span.<path>.ns`.
    timed: bool,
    depth: usize,
    /// Trace identity minted at enter (sampled contexts only).
    trace: Option<SpanTrace>,
    /// Set when this guard pushed a child context that must be undone.
    prev_ctx: Option<Option<TraceContext>>,
}

impl SpanGuard {
    /// Opens a span named `name` nested under the innermost open span
    /// of the current thread. When a sampled [`TraceContext`] is active
    /// the span mints itself a child span id and becomes the active
    /// context for its extent, so nested spans (and outbound hops) form
    /// a parent/child chain under one trace id.
    pub fn enter(name: &str) -> SpanGuard {
        let mut guard = SpanGuard::open(name, false);
        if guard.live {
            guard.start = Some(Instant::now());
        }
        guard
    }

    /// Opens a span like [`SpanGuard::enter`] whose clock runs even when
    /// the span is not collected (spans disabled, unsampled context):
    /// the work it covers is timed by [`SpanGuard::finish`] either way.
    /// Dropped unfinished, it closes for the subscriber and records
    /// nothing.
    pub fn timed(name: &str) -> SpanGuard {
        let mut guard = SpanGuard::open(name, true);
        guard.start = Some(Instant::now());
        guard
    }

    /// Reads the clock once, records that duration into `histogram`,
    /// closes the span for the subscriber if it was collected, and
    /// returns the duration. Zero for a plain span entered with spans
    /// disabled, which never started its clock.
    pub fn finish(mut self, histogram: &Histogram) -> Duration {
        let elapsed = self.start.map_or(Duration::ZERO, |start| start.elapsed());
        histogram.record_duration(elapsed);
        if self.live {
            self.live = false;
            self.close(elapsed, false);
        }
        elapsed
    }

    /// The trace identity minted for this span, if any.
    pub fn trace(&self) -> Option<SpanTrace> {
        self.trace
    }

    /// Pushes `name` on the thread's open stack unless collection is
    /// off; the caller starts the clock.
    fn open(name: &str, timed: bool) -> SpanGuard {
        let mut guard = SpanGuard {
            start: None,
            live: false,
            timed,
            depth: 0,
            trace: None,
            prev_ctx: None,
        };
        if !spans_enabled() {
            return guard;
        }
        // Head sampling is an opt-out that covers the whole request: a
        // thread running under a context minted *unsampled* at ingress
        // skips span collection entirely — no path build, no stack
        // push, no histogram, no subscriber. Context-free work (advisor
        // runs, maintenance threads) keeps recording as before.
        let active = trace::current();
        if matches!(active, Some(ctx) if !ctx.sampled) {
            return guard;
        }
        guard.live = true;
        guard.depth = SPANS.with(|spans| spans.borrow_mut().enter(name));
        if let Some(ctx) = active {
            let child = ctx.child();
            guard.trace = Some(SpanTrace {
                trace_id: child.trace_id,
                span_id: child.span_id,
                parent_span_id: ctx.span_id,
            });
            guard.prev_ctx = Some(trace::swap_current(Some(child)));
        }
        guard
    }

    /// Pops the span off the thread's stack, records `elapsed` into
    /// `span.<path>.ns` when `record`, and tells the subscriber.
    fn close(&mut self, elapsed: Duration, record: bool) {
        if let Some(prev) = self.prev_ctx.take() {
            trace::swap_current(prev);
        }
        // A close with nothing to record and nobody to tell only pops.
        let subscribed = SUBSCRIBED.load(Ordering::Acquire);
        let close = SPANS.with(|spans| {
            let mut spans = spans.borrow_mut();
            let id = spans.open.pop()?;
            (record || subscribed).then(|| Rc::clone(&spans.known[id].close))
        });
        let Some(close) = close else { return };
        if record {
            close
                .histogram
                .get_or_init(|| registry().histogram(&format!("span.{}.ns", close.path)))
                .record_duration(elapsed);
        }
        if !subscribed {
            return;
        }
        if let Some(sub) = subscriber_slot().read().unwrap().as_ref() {
            sub.on_close_traced(&close.path, self.depth, elapsed, self.trace.as_ref());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let Some(start) = self.start else { return };
        self.close(start.elapsed(), !self.timed);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct PathStat {
    count: u64,
    total: Duration,
}

/// A [`SpanSubscriber`] that aggregates per-path statistics and renders
/// a flame-style summary: one line per path, indented by depth, with
/// call count, total time, and self time (total minus direct children).
#[derive(Debug, Default)]
pub struct FlameCollector {
    stats: Mutex<BTreeMap<String, PathStat>>,
}

impl FlameCollector {
    /// Creates a collector ready to pass to [`set_subscriber`].
    pub fn new() -> Arc<FlameCollector> {
        Arc::new(FlameCollector::default())
    }

    /// How many spans closed on `path`, and their summed duration.
    pub fn total(&self, path: &str) -> (u64, Duration) {
        self.stats
            .lock()
            .unwrap()
            .get(path)
            .map_or((0, Duration::ZERO), |stat| (stat.count, stat.total))
    }

    /// Renders the flame-style summary. Paths are sorted, so children
    /// appear beneath their parents.
    pub fn summary(&self) -> String {
        let stats = self.stats.lock().unwrap();
        if stats.is_empty() {
            return "(no spans recorded)\n".to_string();
        }
        // Self time = total − Σ direct children totals.
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<52} {:>8} {:>12} {:>12}",
            "span", "count", "total", "self"
        );
        for (path, stat) in stats.iter() {
            let child_total: Duration = stats
                .iter()
                .filter(|(p, _)| {
                    p.starts_with(path.as_str())
                        && p.len() > path.len()
                        && p.as_bytes()[path.len()] == b'/'
                        && !p[path.len() + 1..].contains('/')
                })
                .map(|(_, s)| s.total)
                .sum();
            let self_time = stat.total.saturating_sub(child_total);
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "{:<52} {:>8} {:>12} {:>12}",
                format!("{}{}", "  ".repeat(depth), name),
                stat.count,
                format!("{:.1?}", stat.total),
                format!("{:.1?}", self_time),
            );
        }
        out
    }
}

impl SpanSubscriber for FlameCollector {
    fn on_close(&self, path: &str, _depth: usize, elapsed: Duration) {
        let mut stats = self.stats.lock().unwrap();
        let stat = stats.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total += elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_slash_paths() {
        let collector = FlameCollector::new();
        {
            // Drive the subscriber interface directly so this test is
            // independent of the global subscriber slot (other tests in
            // the binary may install their own).
            collector.on_close("root_t/leaf", 1, Duration::from_millis(2));
            collector.on_close("root_t", 0, Duration::from_millis(5));
        }
        let summary = collector.summary();
        assert!(summary.contains("root_t"), "{summary}");
        assert!(summary.contains("  leaf"), "{summary}");
    }

    #[test]
    fn flame_summary_computes_self_time() {
        let c = FlameCollector::default();
        c.on_close("a/b", 1, Duration::from_millis(30));
        c.on_close("a/b/c", 2, Duration::from_millis(10));
        c.on_close("a", 0, Duration::from_millis(100));
        let s = c.summary();
        // a: total 100ms, self 100-30 = 70ms; a/b: total 30, self 20.
        assert!(s.contains("70.0ms"), "{s}");
        assert!(s.contains("20.0ms"), "{s}");
    }

    #[test]
    fn empty_collector_reports_no_spans() {
        let c = FlameCollector::default();
        assert!(c.summary().contains("no spans"));
    }

    #[test]
    fn spans_mint_child_ids_under_sampled_context() {
        let root = TraceContext::root(true);
        let _ctx = trace::activate(root);
        let outer = SpanGuard::enter("span_trace_test.outer");
        let outer_trace = outer.trace().expect("sampled context mints a trace");
        assert_eq!(outer_trace.trace_id, root.trace_id);
        assert_eq!(outer_trace.parent_span_id, root.span_id);
        {
            let inner = SpanGuard::enter("inner");
            let inner_trace = inner.trace().unwrap();
            assert_eq!(inner_trace.trace_id, root.trace_id);
            assert_eq!(inner_trace.parent_span_id, outer_trace.span_id);
        }
        // Inner restored the active context to the outer span.
        assert_eq!(trace::current().unwrap().span_id, outer_trace.span_id);
        drop(outer);
        assert_eq!(trace::current(), Some(root));
    }

    #[test]
    fn unsampled_or_absent_context_mints_no_trace() {
        {
            let g = SpanGuard::enter("span_trace_test.bare");
            assert_eq!(g.trace(), None);
        }
        let _ctx = trace::activate(TraceContext::root(false));
        let g = SpanGuard::enter("span_trace_test.unsampled");
        assert_eq!(g.trace(), None);
    }

    #[test]
    fn unsampled_context_skips_span_collection_entirely() {
        // The head-sampling opt-out: under an unsampled context the
        // span records nothing — not even its latency histogram (the
        // unique name below is only ever touched by this test, so the
        // global registry is a safe oracle).
        {
            let _ctx = trace::activate(TraceContext::root(false));
            let _g = SpanGuard::enter("span_trace_test.skip_unsampled");
        }
        let recorded = registry()
            .histogram("span.span_trace_test.skip_unsampled.ns")
            .snapshot()
            .count;
        assert_eq!(recorded, 0, "an unsampled span recorded its histogram");

        // A context-free span of the same shape *does* record — the
        // opt-out is the explicit unsampled flag, not absence of spans.
        {
            let _g = SpanGuard::enter("span_trace_test.keep_bare");
        }
        let recorded = registry()
            .histogram("span.span_trace_test.keep_bare.ns")
            .snapshot()
            .count;
        assert_eq!(recorded, 1, "a context-free span failed to record");
    }
}
