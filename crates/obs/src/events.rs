//! The structured event journal — the audit trail of the maintenance
//! loop.
//!
//! Metrics answer "how much"; the journal answers "what happened, in
//! what order": every invalidation-driven re-estimation, drift alert,
//! batched time advance and catalog save lands here as one typed
//! [`Event`] with a process-wide sequence number and a wall-clock
//! timestamp. The journal is a fixed-capacity ring (oldest events are
//! dropped once [`Journal::capacity`] is exceeded — a bounded audit
//! trail that can never exhaust memory), with an optional JSONL file
//! sink that persists every event as it is published.
//!
//! Pushes take one short mutex; events are structural (per time
//! advance or re-fit, not per insert or query), so this is far from any
//! hot path. The global journal is process-wide ([`journal`]), matching
//! the metrics registry.

use fdc_codec::json::Writer;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default ring capacity of the global journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// A typed observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A model's forecast error crossed a drift condition (windowed
    /// SMAPE over its threshold, or MAE beyond the baseline by
    /// k·stddev).
    DriftAlert {
        /// Catalog node of the drifting model.
        node: u64,
        /// Windowed SMAPE at the crossing.
        smape: f64,
        /// Windowed MAE at the crossing.
        mae: f64,
        /// The configured SMAPE threshold.
        threshold: f64,
        /// Which condition fired: `"smape_threshold"` or `"variance"`
        /// (see `DriftTrigger::as_str`).
        trigger: &'static str,
    },
    /// A lazy (or sweep-driven) parameter re-estimation resolved.
    ReEstimation {
        /// Catalog node of the model.
        node: u64,
        /// The model's invalidation epoch after the call.
        epoch: u64,
        /// How the single-flight call was satisfied: `"refit"`,
        /// `"waited"` or `"already_valid"`.
        outcome: &'static str,
    },
    /// A batched insert completed a time stamp and the graph advanced.
    BatchAdvance {
        /// Index of the newly appended time stamp.
        time_index: u64,
        /// Incremental model state updates performed.
        model_updates: u64,
        /// Models newly marked invalid by the policy.
        invalidations: u64,
        /// Drift alerts raised during this advance.
        drift_alerts: u64,
    },
    /// The catalog was persisted to disk.
    CatalogSave {
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A catalog was restored from disk.
    CatalogLoad {
        /// Decoded size in bytes.
        bytes: u64,
    },
    /// A forecast server started serving.
    ServeStart {
        /// The bound address, e.g. `127.0.0.1:8090`.
        addr: String,
    },
    /// A checkpoint recorded the durable WAL position and truncated
    /// fully-covered segments.
    WalCheckpoint {
        /// Highest record sequence number the checkpoint covers.
        checkpoint_seq: u64,
        /// Highest sequence number appended to the log so far.
        last_seq: u64,
        /// Segment files deleted by the truncation.
        truncated_segments: u64,
    },
    /// A write-ahead log was opened and replayed.
    WalRecovery {
        /// Records replayed (past the checkpoint watermark).
        replayed_records: u64,
        /// Torn-tail bytes discarded from the last segment.
        truncated_bytes: u64,
        /// Highest sequence number found in the log.
        last_seq: u64,
        /// The checkpoint watermark the replay started from.
        checkpoint_seq: u64,
    },
    /// A network server completed its graceful drain: it stopped
    /// accepting, answered every queued request, flushed buffered
    /// insert rows into the engine and persisted its state.
    ServeShutdown {
        /// The address the server was bound to.
        addr: String,
        /// Queued requests answered during the drain.
        drained_requests: u64,
        /// Buffered insert rows flushed into the engine.
        flushed_rows: u64,
    },
    /// A follower replica began pulling WAL frames from a primary.
    ReplicaStart {
        /// The primary's address, e.g. `127.0.0.1:9200`.
        primary: String,
        /// The follower's applied watermark at start.
        applied_seq: u64,
    },
    /// A labeled-series family hit its cardinality bound for the first
    /// time in this process — subsequent samples of novel label sets
    /// land in the family's shared overflow series (warning: label
    /// values are likely unbounded, e.g. a raw node id).
    SeriesOverflow {
        /// The metric family that overflowed.
        family: String,
    },
    /// The routing tier started serving in front of a shard fleet.
    RouterStart {
        /// The router's bound address.
        addr: String,
        /// Shards in the topology it loaded.
        shards: u64,
        /// Version of that topology.
        topology_version: u64,
    },
    /// The router marked a shard endpoint unreachable (connect error,
    /// timeout or 5xx); reads fail over to the shard's replica until
    /// [`Event::ShardRecovered`].
    ShardDown {
        /// Topology id of the shard.
        shard: String,
        /// The endpoint that failed, e.g. `127.0.0.1:7001`.
        addr: String,
        /// Short description of the failure.
        error: String,
    },
    /// A previously-down shard endpoint answered a health probe again.
    ShardRecovered {
        /// Topology id of the shard.
        shard: String,
        /// The endpoint that recovered.
        addr: String,
    },
    /// A follower replica was promoted to a writable primary.
    ReplicaPromoted {
        /// The applied watermark when replication sealed.
        applied_seq: u64,
        /// Records replayed from the dead primary's surviving log tail
        /// during promotion (0 when no tail was available).
        tail_records: u64,
        /// Highest sequence number in the promoted engine's log.
        last_seq: u64,
        /// Wall-clock promotion time in nanoseconds.
        promotion_ns: u64,
    },
}

impl Event {
    /// The event's type tag as rendered in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DriftAlert { .. } => "DriftAlert",
            Event::ReEstimation { .. } => "ReEstimation",
            Event::BatchAdvance { .. } => "BatchAdvance",
            Event::CatalogSave { .. } => "CatalogSave",
            Event::CatalogLoad { .. } => "CatalogLoad",
            Event::WalCheckpoint { .. } => "WalCheckpoint",
            Event::WalRecovery { .. } => "WalRecovery",
            Event::ServeStart { .. } => "ServeStart",
            Event::ServeShutdown { .. } => "ServeShutdown",
            Event::ReplicaStart { .. } => "ReplicaStart",
            Event::SeriesOverflow { .. } => "SeriesOverflow",
            Event::RouterStart { .. } => "RouterStart",
            Event::ShardDown { .. } => "ShardDown",
            Event::ShardRecovered { .. } => "ShardRecovered",
            Event::ReplicaPromoted { .. } => "ReplicaPromoted",
        }
    }

    /// Writes the payload fields (without the envelope) as members of
    /// the object `w` is in, e.g. `"node":3,"smape":0.61`.
    fn write_payload(&self, w: &mut Writer) {
        match self {
            Event::DriftAlert {
                node,
                smape,
                mae,
                threshold,
                trigger,
            } => {
                w.key("node").u64(*node).key("smape").f64(*smape);
                w.key("mae").f64(*mae).key("threshold").f64(*threshold);
                w.key("trigger").str(trigger);
            }
            Event::ReEstimation {
                node,
                epoch,
                outcome,
            } => {
                w.key("node").u64(*node).key("epoch").u64(*epoch);
                w.key("outcome").str(outcome);
            }
            Event::BatchAdvance {
                time_index,
                model_updates,
                invalidations,
                drift_alerts,
            } => {
                w.key("time_index").u64(*time_index);
                w.key("model_updates").u64(*model_updates);
                w.key("invalidations").u64(*invalidations);
                w.key("drift_alerts").u64(*drift_alerts);
            }
            Event::CatalogSave { bytes } | Event::CatalogLoad { bytes } => {
                w.key("bytes").u64(*bytes);
            }
            Event::WalCheckpoint {
                checkpoint_seq,
                last_seq,
                truncated_segments,
            } => {
                w.key("checkpoint_seq").u64(*checkpoint_seq);
                w.key("last_seq").u64(*last_seq);
                w.key("truncated_segments").u64(*truncated_segments);
            }
            Event::WalRecovery {
                replayed_records,
                truncated_bytes,
                last_seq,
                checkpoint_seq,
            } => {
                w.key("replayed_records").u64(*replayed_records);
                w.key("truncated_bytes").u64(*truncated_bytes);
                w.key("last_seq").u64(*last_seq);
                w.key("checkpoint_seq").u64(*checkpoint_seq);
            }
            Event::ServeStart { addr } => {
                w.key("addr").str(addr);
            }
            Event::ServeShutdown {
                addr,
                drained_requests,
                flushed_rows,
            } => {
                w.key("addr").str(addr);
                w.key("drained_requests").u64(*drained_requests);
                w.key("flushed_rows").u64(*flushed_rows);
            }
            Event::ReplicaStart {
                primary,
                applied_seq,
            } => {
                w.key("primary").str(primary);
                w.key("applied_seq").u64(*applied_seq);
            }
            Event::SeriesOverflow { family } => {
                w.key("family").str(family);
            }
            Event::RouterStart {
                addr,
                shards,
                topology_version,
            } => {
                w.key("addr").str(addr).key("shards").u64(*shards);
                w.key("topology_version").u64(*topology_version);
            }
            Event::ShardDown { shard, addr, error } => {
                w.key("shard").str(shard).key("addr").str(addr);
                w.key("error").str(error);
            }
            Event::ShardRecovered { shard, addr } => {
                w.key("shard").str(shard).key("addr").str(addr);
            }
            Event::ReplicaPromoted {
                applied_seq,
                tail_records,
                last_seq,
                promotion_ns,
            } => {
                w.key("applied_seq").u64(*applied_seq);
                w.key("tail_records").u64(*tail_records);
                w.key("last_seq").u64(*last_seq);
                w.key("promotion_ns").u64(*promotion_ns);
            }
        }
    }
}

/// An [`Event`] with its journal envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Monotonic sequence number (process-wide, starts at 1).
    pub seq: u64,
    /// Wall-clock publication time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Trace id of the sampled span active when the event was
    /// published, if any — makes `/events` entries joinable against the
    /// distributed-trace exports.
    pub trace_id: Option<u128>,
    /// Span id of that active span.
    pub span_id: Option<u64>,
    /// The event itself.
    pub event: Event,
}

impl TimedEvent {
    /// One JSON object per event — the JSONL line format.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("seq").u64(self.seq);
        w.key("unix_ms").u64(self.unix_ms);
        if let (Some(t), Some(s)) = (self.trace_id, self.span_id) {
            w.key("trace_id").str(&format!("{t:032x}"));
            w.key("span_id").str(&format!("{s:016x}"));
        }
        w.key("type").str(self.event.kind());
        self.event.write_payload(&mut w);
        w.end_object();
        w.finish()
    }
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

#[derive(Default)]
struct JournalInner {
    ring: VecDeque<TimedEvent>,
    sink: Option<BufWriter<File>>,
}

/// The bounded event ring with an optional JSONL sink.
pub struct Journal {
    capacity: usize,
    seq: AtomicU64,
    total: AtomicU64,
    inner: Mutex<JournalInner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("total", &self.total())
            .finish()
    }
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Journal {
    /// Creates a journal holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            total: AtomicU64::new(0),
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Publishes an event: assigns seq + timestamp, appends to the ring
    /// (dropping the oldest event when full) and writes one JSONL line
    /// to the sink, if any. Returns the assigned sequence number.
    pub fn publish(&self, event: Event) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.total.fetch_add(1, Ordering::Relaxed);
        crate::counter(crate::names::OBS_JOURNAL_EVENTS).incr();
        let trace = crate::trace::current_sampled_pair();
        let timed = TimedEvent {
            seq,
            unix_ms: now_unix_ms(),
            trace_id: trace.map(|(t, _)| t),
            span_id: trace.map(|(_, s)| s),
            event,
        };
        let mut inner = self.inner.lock().unwrap();
        if let Some(sink) = inner.sink.as_mut() {
            // Line-buffered-ish: write + flush per event so a crash (or
            // an abrupt test-process exit) loses nothing. Events are
            // structural, so the syscall rate is negligible.
            let _ = writeln!(sink, "{}", timed.to_json());
            let _ = sink.flush();
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(timed);
        seq
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TimedEvent> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Total events ever published (including ones the ring dropped).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Attaches a JSONL file sink (truncating `path`); every subsequent
    /// publish appends one line. Replaces any previous sink.
    pub fn set_jsonl_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        self.inner.lock().unwrap().sink = Some(BufWriter::new(file));
        Ok(())
    }

    /// Detaches the JSONL sink, flushing buffered lines.
    pub fn close_sink(&self) {
        if let Some(mut sink) = self.inner.lock().unwrap().sink.take() {
            let _ = sink.flush();
        }
    }

    /// Renders the most recent `n` events as a JSON array (oldest
    /// first) — the `/events` response body.
    pub fn recent_json(&self, n: usize) -> String {
        let mut w = Writer::new();
        w.begin_array();
        for event in self.recent(n) {
            w.raw(&event.to_json());
        }
        w.end_array();
        w.finish()
    }
}

/// The process-global journal (capacity
/// [`DEFAULT_JOURNAL_CAPACITY`]).
pub fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(|| Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_assigns_increasing_seq() {
        let j = Journal::with_capacity(8);
        let a = j.publish(Event::CatalogSave { bytes: 10 });
        let b = j.publish(Event::CatalogLoad { bytes: 10 });
        assert!(b > a);
        let recent = j.recent(10);
        assert_eq!(recent.len(), 2);
        assert!(recent[0].seq < recent[1].seq);
        assert_eq!(j.total(), 2);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let j = Journal::with_capacity(3);
        for i in 0..5 {
            j.publish(Event::CatalogSave { bytes: i });
        }
        let recent = j.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent
                .iter()
                .map(|e| match e.event {
                    Event::CatalogSave { bytes } => bytes,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(j.total(), 5);
    }

    #[test]
    fn event_json_is_well_formed() {
        let j = Journal::with_capacity(8);
        j.publish(Event::DriftAlert {
            node: 3,
            smape: 0.625,
            mae: 12.5,
            threshold: 0.5,
            trigger: "smape_threshold",
        });
        j.publish(Event::ReEstimation {
            node: 3,
            epoch: 2,
            outcome: "refit",
        });
        j.publish(Event::BatchAdvance {
            time_index: 33,
            model_updates: 7,
            invalidations: 1,
            drift_alerts: 1,
        });
        let json = j.recent_json(10);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"type\":\"DriftAlert\""), "{json}");
        assert!(json.contains("\"smape\":0.625"), "{json}");
        assert!(json.contains("\"trigger\":\"smape_threshold\""), "{json}");
        assert!(json.contains("\"outcome\":\"refit\""), "{json}");
        assert!(json.contains("\"time_index\":33"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn jsonl_sink_persists_every_event() {
        let j = Journal::with_capacity(2);
        let path = std::env::temp_dir().join(format!(
            "fdc_journal_test_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        j.set_jsonl_sink(&path).unwrap();
        for i in 0..4 {
            j.publish(Event::CatalogSave { bytes: i });
        }
        j.close_sink();
        let content = std::fs::read_to_string(&path).unwrap();
        // The ring kept 2 events, the sink all 4.
        assert_eq!(content.lines().count(), 4);
        for line in content.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\"CatalogSave\""));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn events_inside_a_sampled_span_carry_trace_ids() {
        let j = Journal::with_capacity(8);
        j.publish(Event::CatalogSave { bytes: 1 });
        let ctx = crate::trace::TraceContext::root(true);
        {
            let _g = crate::trace::activate(ctx);
            j.publish(Event::BatchAdvance {
                time_index: 7,
                model_updates: 1,
                invalidations: 0,
                drift_alerts: 0,
            });
        }
        let recent = j.recent(2);
        assert_eq!(recent[0].trace_id, None);
        assert_eq!(recent[0].span_id, None);
        assert!(!recent[0].to_json().contains("trace_id"));
        assert_eq!(recent[1].trace_id, Some(ctx.trace_id));
        assert_eq!(recent[1].span_id, Some(ctx.span_id));
        let json = recent[1].to_json();
        assert!(
            json.contains(&format!("\"trace_id\":\"{:032x}\"", ctx.trace_id)),
            "{json}"
        );
        assert!(
            json.contains(&format!("\"span_id\":\"{:016x}\"", ctx.span_id)),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn unsampled_span_events_stay_bare() {
        let j = Journal::with_capacity(8);
        let _g = crate::trace::activate(crate::trace::TraceContext::root(false));
        j.publish(Event::CatalogSave { bytes: 2 });
        assert_eq!(j.recent(1)[0].trace_id, None);
    }

    /// Every string of an event is an operator's or the network's (a
    /// shard id is any non-empty string of the topology file): each line
    /// stays one JSON document and reads back what went in.
    #[test]
    fn every_string_field_survives_a_round_trip() {
        const ODD: &str = "a\"b\\c\nd\u{1}\t é";
        let odd = || ODD.to_string();
        let events = [
            Event::ServeStart { addr: odd() },
            Event::ServeShutdown {
                addr: odd(),
                drained_requests: 1,
                flushed_rows: 2,
            },
            Event::ReplicaStart {
                primary: odd(),
                applied_seq: 3,
            },
            Event::SeriesOverflow { family: odd() },
            Event::RouterStart {
                addr: odd(),
                shards: 2,
                topology_version: 1,
            },
            Event::ShardDown {
                shard: odd(),
                addr: odd(),
                error: odd(),
            },
            Event::ShardRecovered {
                shard: odd(),
                addr: odd(),
            },
            Event::DriftAlert {
                node: 1,
                smape: 0.5,
                mae: 1.0,
                threshold: 0.25,
                trigger: ODD,
            },
            Event::ReEstimation {
                node: 1,
                epoch: 2,
                outcome: ODD,
            },
        ];
        let j = Journal::with_capacity(16);
        for event in events {
            j.publish(event);
        }
        let strings = [
            "addr", "primary", "family", "shard", "error", "trigger", "outcome",
        ];
        let mut read = 0;
        for event in j.recent(16) {
            let line = event.to_json();
            let doc = fdc_codec::json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(doc.get("type").unwrap().as_str(), Some(event.event.kind()));
            for value in strings.iter().filter_map(|member| doc.get(member)) {
                assert_eq!(value.as_str(), Some(ODD), "{line}");
                read += 1;
            }
        }
        assert_eq!(read, 12);
        assert!(fdc_codec::json::parse(&j.recent_json(16)).is_ok());
    }

    #[test]
    fn recent_handles_small_n() {
        let j = Journal::with_capacity(8);
        for i in 0..5 {
            j.publish(Event::CatalogSave { bytes: i });
        }
        let last_two = j.recent(2);
        assert_eq!(last_two.len(), 2);
        assert_eq!(last_two[1].seq, 5);
    }
}
