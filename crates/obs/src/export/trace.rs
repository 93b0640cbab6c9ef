//! Chrome `trace_event` span export.
//!
//! [`TraceCollector`] is a [`SpanSubscriber`] that records every span
//! close as a complete ("X") trace event. The resulting JSON document
//! (`{"traceEvents":[...]}`) loads directly into Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`, giving a real
//! timeline view of advisor runs and F²DB maintenance.
//!
//! Spans only report their *close* time and elapsed duration, so the
//! start timestamp is reconstructed as `close − elapsed`. Timestamps
//! are anchored to the Unix epoch in microseconds (wall-clock sampled
//! once at collector creation, advanced monotonically): two collectors
//! in different processes therefore share a timebase, and
//! [`merge_trace_documents`] can splice their exports into one
//! timeline. Events carry the real OS `pid` plus an optional
//! process-name metadata event ([`TraceCollector::set_process_name`]),
//! so a merged trace shows "fdc-serve primary" and "fdc-serve follower"
//! as separate process tracks. Each OS thread gets a stable small `tid`
//! from a thread-local counter, so nested spans of one thread stack
//! correctly in the viewer.
//!
//! Spans closed under a sampled [`crate::trace::TraceContext`] carry
//! their trace/span/parent ids in `args`, which is what makes the
//! merged timeline *joinable*: filtering a merged file for one
//! `trace_id` shows a single request crossing the process boundary.

use crate::span::{SpanSubscriber, SpanTrace};
use fdc_codec::json::Writer;
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One recorded complete event.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    /// Start timestamp in µs since the Unix epoch.
    ts_us: u64,
    /// Duration in µs.
    dur_us: u64,
    tid: u64,
    depth: usize,
    trace: Option<SpanTrace>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stable per-thread id, assigned on first span close of the thread.
    static TRACE_TID: Cell<u64> = const { Cell::new(0) };
}

fn current_tid() -> u64 {
    TRACE_TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// A [`SpanSubscriber`] that buffers spans as Chrome trace events.
/// Install with `fdc_obs::set_subscriber(TraceCollector::new())`, run
/// the workload, then [`TraceCollector::write_to`] a `.json` file.
#[derive(Debug)]
pub struct TraceCollector {
    t0: Instant,
    /// Wall-clock µs at `t0` — the cross-process alignment anchor.
    epoch_us: u64,
    pid: u64,
    process_name: Mutex<Option<String>>,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector {
            t0: Instant::now(),
            epoch_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            pid: u64::from(std::process::id()),
            process_name: Mutex::new(None),
            events: Mutex::new(Vec::new()),
        }
    }
}

impl TraceCollector {
    /// Creates a collector ready for [`crate::set_subscriber`].
    pub fn new() -> std::sync::Arc<TraceCollector> {
        std::sync::Arc::new(TraceCollector::default())
    }

    /// Sets the process name emitted as a `process_name` metadata event,
    /// labeling this process's track in Perfetto (e.g. `"fdc primary"`).
    pub fn set_process_name(&self, name: &str) {
        *self.process_name.lock().unwrap() = Some(name.to_string());
    }

    /// Number of events buffered so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the buffered events as a Chrome `trace_event` JSON
    /// document (`{"traceEvents":[...]}`).
    pub fn to_json(&self) -> String {
        let events = self.events.lock().unwrap();
        let mut w = Writer::with_capacity(64 + events.len() * 128);
        w.begin_object().key("traceEvents").begin_array();
        if let Some(name) = self.process_name.lock().unwrap().as_deref() {
            w.begin_object().key("name").str("process_name");
            w.key("ph").str("M").key("pid").u64(self.pid);
            w.key("tid").u64(0).key("args").begin_object();
            w.key("name").str(name).end_object().end_object();
        }
        for e in events.iter() {
            w.begin_object().key("name").str(&e.name);
            w.key("cat").str("span").key("ph").str("X");
            w.key("ts").u64(e.ts_us).key("dur").u64(e.dur_us);
            w.key("pid").u64(self.pid).key("tid").u64(e.tid);
            w.key("args").begin_object().key("depth").usize(e.depth);
            if let Some(t) = &e.trace {
                w.key("trace_id").str(&format!("{:032x}", t.trace_id));
                w.key("span_id").str(&format!("{:016x}", t.span_id));
                w.key("parent_span_id");
                w.str(&format!("{:016x}", t.parent_span_id));
            }
            w.end_object().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Writes the JSON document to `path` (Perfetto-loadable).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes atomically: the document lands under a temporary name in
    /// the same directory, then renames over `path`. A reader (or a
    /// merge) never observes a torn file — the property the crash
    /// harness relies on, since it SIGKILLs the exporting process.
    pub fn write_to_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    fn record(&self, path: &str, depth: usize, elapsed: Duration, trace: Option<&SpanTrace>) {
        let close_us = self.epoch_us + self.t0.elapsed().as_micros() as u64;
        let dur_us = elapsed.as_micros() as u64;
        let event = TraceEvent {
            name: path.to_string(),
            ts_us: close_us.saturating_sub(dur_us),
            dur_us,
            tid: current_tid(),
            depth,
            trace: trace.copied(),
        };
        self.events.lock().unwrap().push(event);
    }
}

impl SpanSubscriber for TraceCollector {
    fn on_close(&self, path: &str, depth: usize, elapsed: Duration) {
        self.record(path, depth, elapsed, None);
    }

    fn on_close_traced(
        &self,
        path: &str,
        depth: usize,
        elapsed: Duration,
        trace: Option<&SpanTrace>,
    ) {
        self.record(path, depth, elapsed, trace);
    }
}

/// Splices several Chrome-trace documents into one by concatenating
/// their `traceEvents` arrays. Purely textual — both inputs and output
/// are the exact shape [`TraceCollector::to_json`] produces
/// (`{"traceEvents":[...]}`), so no JSON parser is needed. Documents
/// that do not match that shape are skipped.
pub fn merge_trace_documents<S: AsRef<str>>(docs: &[S]) -> String {
    const PREFIX: &str = "{\"traceEvents\":[";
    const SUFFIX: &str = "]}";
    let mut out = String::from(PREFIX);
    let mut first = true;
    for doc in docs {
        let doc = doc.as_ref().trim();
        let Some(rest) = doc.strip_prefix(PREFIX) else {
            continue;
        };
        let Some(inner) = rest.strip_suffix(SUFFIX) else {
            continue;
        };
        if inner.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(inner);
    }
    out.push_str(SUFFIX);
    out
}

/// Reads each input trace file, merges them with
/// [`merge_trace_documents`], and writes the result to `out`.
pub fn merge_trace_files(inputs: &[&Path], out: &Path) -> std::io::Result<()> {
    let mut docs = Vec::with_capacity(inputs.len());
    for p in inputs {
        docs.push(std::fs::read_to_string(p)?);
    }
    std::fs::write(out, merge_trace_documents(&docs))
}

/// Installs a [`TraceCollector`] as the global subscriber when the
/// `FDC_TRACE_OUT` environment variable names an output path, and
/// spawns a background thread that rewrites the file atomically every
/// ~100 ms. `FDC_TRACE_NAME` (optional) labels the process track.
///
/// The periodic rewrite is what makes the export crash-tolerant: a
/// process killed mid-run (the primary-kill harness does exactly that)
/// still leaves a complete, loadable trace no older than one flush
/// interval. Returns the collector when installed.
pub fn install_env_exporter() -> Option<std::sync::Arc<TraceCollector>> {
    let out = std::env::var("FDC_TRACE_OUT")
        .ok()
        .filter(|p| !p.is_empty())?;
    let collector = TraceCollector::new();
    if let Ok(name) = std::env::var("FDC_TRACE_NAME") {
        if !name.is_empty() {
            collector.set_process_name(&name);
        }
    }
    crate::span::set_subscriber(collector.clone());
    let flusher = std::sync::Arc::clone(&collector);
    let path = std::path::PathBuf::from(out);
    std::thread::Builder::new()
        .name("fdc-trace-export".to_string())
        .spawn(move || {
            let mut last_len = usize::MAX;
            loop {
                std::thread::sleep(Duration::from_millis(100));
                let len = flusher.len();
                if len != last_len {
                    let _ = flusher.write_to_atomic(&path);
                    last_len = len;
                }
            }
        })
        .ok();
    Some(collector)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_complete_events_with_reconstructed_start() {
        let c = TraceCollector::default();
        std::thread::sleep(Duration::from_millis(2));
        c.on_close("advisor.run/step", 1, Duration::from_millis(1));
        c.on_close("advisor.run", 0, Duration::from_millis(2));
        assert_eq!(c.len(), 2);
        let json = c.to_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"name\":\"advisor.run/step\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1000"));
        assert!(json.contains("\"args\":{\"depth\":1}"));
        assert!(json.contains(&format!("\"pid\":{}", std::process::id())));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn threads_get_distinct_tids() {
        let c = std::sync::Arc::new(TraceCollector::default());
        let c2 = std::sync::Arc::clone(&c);
        c.on_close("main_thread", 0, Duration::from_micros(10));
        std::thread::spawn(move || {
            c2.on_close("other_thread", 0, Duration::from_micros(10));
        })
        .join()
        .unwrap();
        let events = c.events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn write_to_produces_loadable_file() {
        let c = TraceCollector::default();
        c.on_close("x", 0, Duration::from_micros(5));
        let path = std::env::temp_dir().join(format!(
            "fdc_trace_test_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        c.write_to(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"traceEvents\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traced_close_embeds_ids_in_args() {
        let c = TraceCollector::default();
        let t = SpanTrace {
            trace_id: 0xabcd,
            span_id: 0x1234,
            parent_span_id: 0x5678,
        };
        c.on_close_traced("serve.request", 0, Duration::from_micros(50), Some(&t));
        let json = c.to_json();
        assert!(
            json.contains("\"trace_id\":\"0000000000000000000000000000abcd\""),
            "{json}"
        );
        assert!(json.contains("\"span_id\":\"0000000000001234\""), "{json}");
        assert!(
            json.contains("\"parent_span_id\":\"0000000000005678\""),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn process_name_metadata_event_labels_the_track() {
        let c = TraceCollector::default();
        c.set_process_name("fdc follower");
        c.on_close("x", 0, Duration::from_micros(5));
        let json = c.to_json();
        assert!(json.contains("\"name\":\"process_name\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"fdc follower\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn merge_splices_trace_events_arrays() {
        let a = TraceCollector::default();
        a.set_process_name("primary");
        a.on_close("a_span", 0, Duration::from_micros(10));
        let b = TraceCollector::default();
        b.set_process_name("follower");
        b.on_close("b_span", 0, Duration::from_micros(10));
        let merged = merge_trace_documents(&[a.to_json(), b.to_json()]);
        assert!(merged.starts_with("{\"traceEvents\":["), "{merged}");
        assert!(merged.ends_with("]}"), "{merged}");
        assert!(merged.contains("a_span"), "{merged}");
        assert!(merged.contains("b_span"), "{merged}");
        assert!(merged.contains("primary") && merged.contains("follower"));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        // Garbage and empty documents are skipped without corrupting it.
        let with_junk = merge_trace_documents(&[
            a.to_json(),
            "not json".to_string(),
            "{\"traceEvents\":[]}".to_string(),
        ]);
        assert!(with_junk.contains("a_span"));
        assert!(!with_junk.contains("not json"));
        assert_eq!(
            with_junk.matches('{').count(),
            with_junk.matches('}').count()
        );
    }

    #[test]
    fn timestamps_are_unix_anchored() {
        let c = TraceCollector::default();
        c.on_close("anchored", 0, Duration::from_micros(1));
        let events = c.events.lock().unwrap();
        // 2020-01-01 in unix µs — any sane wall clock is far past this.
        assert!(
            events[0].ts_us > 1_577_836_800_000_000,
            "{}",
            events[0].ts_us
        );
    }
}
