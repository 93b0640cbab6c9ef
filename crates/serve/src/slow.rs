//! The auto-`EXPLAIN` slow-query log: a bounded ring of requests that
//! ran past a configurable latency threshold, each carrying what a
//! post-hoc investigation needs — the route, the SQL (when the route
//! has one), a captured `EXPLAIN ANALYZE` plan, the WAL wait breakdown
//! for writes, and the request's trace id so the entry joins
//! the distributed trace in Perfetto.
//!
//! Capture happens *after* the response is written (see
//! `handle_connection`), so a slow query pays for its own plan capture
//! off the client's critical path. The ring is bounded: the newest
//! [`ServeOptions::slow_log_cap`](crate::ServeOptions::slow_log_cap)
//! entries win, and a monotonic `captured` total records how many were
//! ever taken so `GET /slow` readers can tell "quiet server" from
//! "ring wrapped".
//!
//! A threshold of zero turns the log into a sampler that captures every
//! request — useful in tests and short diagnostic sessions.

use crate::json::Writer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One captured slow request.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Route label (`query`, `insert`, ...), as counted by
    /// `serve.http.requests`.
    pub route: &'static str,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// End-to-end latency from worker pickup to response written.
    pub latency_ns: u64,
    /// Trace id of the request's (sampled) trace context, joinable
    /// against the Chrome-trace export and `/metrics` exemplars.
    pub trace_id: Option<u128>,
    /// The statement, for routes that carry one (`/query`, `/explain`).
    pub sql: Option<String>,
    /// Captured `EXPLAIN ANALYZE` plan text (timings masked — the
    /// interesting signal is the plan shape and source models).
    pub explain: Option<String>,
    /// Wait breakdown for write routes, as a pre-rendered JSON object
    /// (buffered rows, queue depth, WAL position).
    pub wait: Option<String>,
}

impl SlowEntry {
    /// Renders the entry as a JSON object.
    pub fn to_json(&self) -> String {
        fn opt_str(w: &mut Writer, v: Option<&str>) {
            match v {
                Some(s) => w.str(s),
                None => w.null(),
            };
        }
        let mut w = Writer::new();
        w.begin_object().key("unix_ms").u64(self.unix_ms);
        w.key("route").str(self.route);
        w.key("status").u64(u64::from(self.status));
        w.key("latency_ns").u64(self.latency_ns).key("trace_id");
        opt_str(
            &mut w,
            self.trace_id.map(|t| format!("{t:032x}")).as_deref(),
        );
        w.key("sql");
        opt_str(&mut w, self.sql.as_deref());
        w.key("explain");
        opt_str(&mut w, self.explain.as_deref());
        w.key("wait").raw(self.wait.as_deref().unwrap_or("null"));
        w.end_object();
        w.finish()
    }
}

/// The bounded slow-request ring shared by the workers and `GET /slow`.
pub struct SlowLog {
    threshold: Duration,
    cap: usize,
    captured: AtomicU64,
    ring: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// A log capturing requests slower than `threshold`, keeping the
    /// newest `cap` entries.
    pub fn new(threshold: Duration, cap: usize) -> SlowLog {
        SlowLog {
            threshold,
            cap: cap.max(1),
            captured: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The capture threshold (zero captures everything).
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Requests ever captured (monotonic; the ring may have evicted).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Appends an entry, evicting the oldest past the bound.
    pub fn push(&self, entry: SlowEntry) {
        self.captured.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// A snapshot of the ring, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// The `GET /slow` response body.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("threshold_ms").u64(self.threshold.as_millis() as u64);
        w.key("captured").u64(self.captured());
        w.key("entries").begin_array();
        for entry in self.ring.lock().unwrap().iter() {
            w.raw(&entry.to_json());
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(route: &'static str, latency_ns: u64) -> SlowEntry {
        SlowEntry {
            unix_ms: 1_700_000_000_000,
            route,
            status: 200,
            latency_ns,
            trace_id: None,
            sql: None,
            explain: None,
            wait: None,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let log = SlowLog::new(Duration::from_millis(100), 3);
        for i in 0..5u64 {
            log.push(entry("query", i));
        }
        let kept: Vec<u64> = log.entries().iter().map(|e| e.latency_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(log.captured(), 5);
    }

    #[test]
    fn json_renders_optionals_and_trace_hex() {
        let mut e = entry("query", 42);
        e.trace_id = Some(0xabc);
        e.sql = Some("FORECAST \"x\"".into());
        e.wait = Some("{\"buffered_rows\":3}".into());
        let j = e.to_json();
        assert!(
            j.contains("\"trace_id\":\"00000000000000000000000000000abc\""),
            "{j}"
        );
        assert!(j.contains("\"sql\":\"FORECAST \\\"x\\\"\""), "{j}");
        assert!(j.contains("\"explain\":null"), "{j}");
        assert!(j.contains("\"wait\":{\"buffered_rows\":3}"), "{j}");

        let log = SlowLog::new(Duration::ZERO, 4);
        log.push(e);
        let body = log.to_json();
        assert!(
            body.starts_with("{\"threshold_ms\":0,\"captured\":1,\"entries\":["),
            "{body}"
        );
        assert!(body.ends_with("]}"), "{body}");
    }
}
