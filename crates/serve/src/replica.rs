//! Follower replicas: WAL shipping over HTTP and the promotion path.
//!
//! A follower is a second `fdc-serve` process fronting a **read-only**
//! engine. It keeps its own local write-ahead log — *not* attached to
//! the engine — and a fetch loop that repeatedly asks the primary's
//! `GET /wal/fetch?after=<applied>` for everything past its applied
//! watermark. Each fetched [`ShipChunk`] is verified (CRCs, sequence
//! contiguity, protocol version), durably appended to the local log via
//! [`Wal::apply_chunk`], and only then applied to the engine through
//! [`F2db::replay`], the engine's one log-replay entry point — so the
//! follower's log is always a prefix of the primary's durable log and a
//! follower crash recovers by replaying its own log from scratch.
//!
//! ## Promotion
//!
//! [`Replica::promote`] turns the follower into a writable primary:
//!
//! 1. **Seal** — the fetch loop is stopped and joined; the applied
//!    watermark is frozen.
//! 2. **Tail replay** — when the dead primary's WAL directory is
//!    reachable (shared-storage failover), it is opened read-only
//!    (`fsync: false`; a torn tail truncates exactly as crash recovery
//!    would), and its records past the applied watermark are applied as
//!    a fetched chunk is: one verified [`Wal::apply_chunk`] (a gap
//!    appends nothing), then [`F2db::replay`]. Frames the primary had
//!    written but not yet shipped — including fsynced, *acknowledged*
//!    writes — are recovered here, which is what makes the
//!    zero-acked-writes-lost contract hold across a primary SIGKILL.
//! 3. **Open for writes** — the local log is adopted by the engine
//!    (future inserts append to it with contiguous sequences), the
//!    read-only guard drops, and the `REPLICA` marker file is removed.
//!
//! A second `promote` call fails with a typed error; the state machine
//! only moves forward: `following → sealed → promoted`.

use crate::ServeOptions;
use fdc_f2db::{F2db, F2dbError, WalRecord};
use fdc_obs::httpcore::client::{Client, Outgoing};
use fdc_obs::{journal, names, Event, TraceContext};
use fdc_wal::{decode_chunk, ShipChunk, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Marker file a follower writes into its WAL directory. While it
/// exists, [`crate::open_engine`] refuses to open the directory
/// writable — writes answer [`F2dbError::ReadOnly`] — so a crashed
/// follower cannot be accidentally restarted as an independent primary
/// with half a log. [`Replica::promote`] removes it.
pub const REPLICA_MARKER: &str = "REPLICA";

/// Path of the [`REPLICA_MARKER`] inside a follower's WAL directory.
pub fn replica_marker_path(wal_dir: &Path) -> PathBuf {
    wal_dir.join(REPLICA_MARKER)
}

/// Largest chunk the follower requests per fetch.
const FETCH_MAX_BYTES: usize = 256 << 10;

/// Socket timeout for one fetch round trip — also bounds how long
/// [`Replica::promote`] waits for the loop to notice the seal.
const FETCH_TIMEOUT: Duration = Duration::from_millis(500);

/// Head-sampling rate for the fetch loop's own traces: roughly one
/// round in 64 mints a sampled root context, whose `traceparent` rides
/// the outbound `/wal/fetch` so the primary's ship-side spans join the
/// follower's round trace. Kept well below 1.0 — the loop polls every
/// few milliseconds and tracing every round would drown the export.
const ROUND_TRACE_RATE: f64 = 1.0 / 64.0;

/// What [`Replica::promote`] did, mirrored into the `ReplicaPromoted`
/// journal event and the `POST /promote` response body.
#[derive(Debug, Clone)]
pub struct PromotionReport {
    /// The applied watermark at seal time — the highest sequence the
    /// follower had replicated before promotion began.
    pub applied_seq: u64,
    /// Records recovered from the dead primary's WAL tail (sequences
    /// past `applied_seq` that were never shipped).
    pub tail_records: u64,
    /// The promoted log's last sequence (`applied_seq + tail_records`).
    pub last_seq: u64,
    /// Wall-clock nanoseconds from seal to open-for-writes.
    pub promotion_ns: u64,
}

/// A running follower: the fetch loop plus the state `fdc-serve` routes
/// report and act on. Created by [`open_follower`].
pub struct Replica {
    primary: String,
    /// The fetch loop's connection to the primary, kept between polls;
    /// an active trace context rides every fetch as `traceparent`.
    client: Client,
    db: Arc<F2db>,
    /// The local log. `None` after promotion hands it to the engine.
    wal: Mutex<Option<Wal>>,
    marker: PathBuf,
    poll: Duration,
    applied_seq: AtomicU64,
    primary_durable_seq: AtomicU64,
    fetch_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
    sealed: AtomicBool,
    promoted: AtomicBool,
    fetcher: Mutex<Option<JoinHandle<()>>>,
}

impl Replica {
    /// The primary address this follower fetches from.
    pub fn primary(&self) -> &str {
        &self.primary
    }

    /// The follower's applied watermark: the highest sequence durably
    /// in its local log *and* applied to the engine.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Acquire)
    }

    /// The primary's durable watermark as of the last successful fetch.
    pub fn primary_durable_seq(&self) -> u64 {
        self.primary_durable_seq.load(Ordering::Acquire)
    }

    /// Replication lag in sequences: durable-on-primary minus applied.
    pub fn lag(&self) -> u64 {
        self.primary_durable_seq()
            .saturating_sub(self.applied_seq())
    }

    /// Fetch rounds that failed (network, decode, or apply).
    pub fn fetch_errors(&self) -> u64 {
        self.fetch_errors.load(Ordering::Relaxed)
    }

    /// The most recent fetch-loop error, for `/stats`.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().unwrap().clone()
    }

    /// Whether [`Replica::promote`] has completed.
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::Acquire)
    }

    /// Stops the fetch loop without promoting (server shutdown). Safe
    /// to call more than once.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
        if let Some(h) = self.fetcher.lock().unwrap().take() {
            h.join().expect("replica fetch thread panicked");
        }
    }

    /// Promotes this follower to a writable primary. See the module
    /// docs for the three phases. `tail_wal_dir` is the dead primary's
    /// WAL directory when it is reachable (shared-storage failover);
    /// `None` promotes on the shipped prefix alone.
    pub fn promote(&self, tail_wal_dir: Option<&Path>) -> Result<PromotionReport, F2dbError> {
        let started = Instant::now();
        if self.promoted.swap(true, Ordering::SeqCst) {
            return Err(F2dbError::ReadOnly(
                "promote rejected: this replica is already promoted".into(),
            ));
        }
        self.seal();
        let applied_seq = self.applied_seq();

        // Phase 2: recover the dead primary's unshipped tail. Opening
        // with fsync off replays without spawning a syncer and
        // truncates a torn tail exactly as the primary's own crash
        // recovery would.
        let mut tail_records = 0u64;
        if let Some(dir) = tail_wal_dir.filter(|d| d.exists()) {
            let (primary_wal, recovery) = Wal::open(
                dir,
                WalOptions {
                    fsync: false,
                    ..WalOptions::default()
                },
            )
            .map_err(|e| F2dbError::Storage(format!("promotion tail replay: {e}")))?;
            drop(primary_wal);
            let mut tail = ShipChunk {
                durable_seq: recovery.last_seq,
                checkpoint_seq: recovery.checkpoint_seq,
                frames: recovery.records,
            };
            tail.frames.retain(|(seq, _)| *seq > applied_seq);
            self.apply(&tail)?;
            tail_records = tail.frames.len() as u64;
        }

        // Phase 3: open for writes.
        let wal = self.wal.lock().unwrap().take();
        let wal = wal.expect("the first promote holds the replica's log");
        let last_seq = wal.stats().last_seq;
        self.db.adopt_wal(wal)?;
        self.db.set_read_only(false);
        std::fs::remove_file(&self.marker).ok();
        fdc_obs::gauge(names::WAL_REPLICATION_APPLIED_SEQ).set(last_seq as i64);
        fdc_obs::gauge(names::WAL_REPLICATION_LAG_SEQ).set(0);
        let report = PromotionReport {
            applied_seq,
            tail_records,
            last_seq,
            promotion_ns: started.elapsed().as_nanos() as u64,
        };
        journal().publish(Event::ReplicaPromoted {
            applied_seq: report.applied_seq,
            tail_records: report.tail_records,
            last_seq: report.last_seq,
            promotion_ns: report.promotion_ns,
        });
        Ok(report)
    }

    /// One fetch-and-apply round. Returns whether the watermark moved.
    /// Sampled rounds (see [`ROUND_TRACE_RATE`]) run under a fresh root
    /// context propagated to the primary on the fetch hop; either way
    /// the span guards below are RAII, so an error return (torn
    /// response, decode failure, apply failure) can never leak an open
    /// span or a stale thread-local context.
    fn round(&self) -> Result<bool, String> {
        let traced = fdc_obs::trace::should_sample(ROUND_TRACE_RATE);
        let _ctx = traced.then(|| fdc_obs::trace::activate(TraceContext::root(true)));
        let _span = traced.then(|| fdc_obs::span!("replica.round"));
        let after = self.applied_seq();
        let path = format!("/wal/fetch?after={after}&max_bytes={FETCH_MAX_BYTES}");
        let response = self
            .client
            .send(&self.primary, &Outgoing::new("GET", &path, b""))
            .map_err(|e| e.to_string())?;
        if response.status != 200 {
            return Err(format!(
                "primary answered {} to /wal/fetch: {}",
                response.status,
                response.text()
            ));
        }
        let chunk = decode_chunk(&response.body).map_err(|e| e.to_string())?;
        self.primary_durable_seq
            .store(chunk.durable_seq, Ordering::Release);
        let advanced = if chunk.frames.is_empty() {
            false
        } else {
            self.apply(&chunk).map_err(|e| e.to_string())?;
            true
        };
        fdc_obs::gauge(names::WAL_REPLICATION_APPLIED_SEQ).set(self.applied_seq() as i64);
        fdc_obs::gauge(names::WAL_REPLICATION_LAG_SEQ).set(self.lag() as i64);
        Ok(advanced)
    }

    /// Durably appends a verified chunk to the local log, then applies
    /// its records to the engine — log first, engine second, so a crash
    /// between the two re-applies from the log instead of losing rows.
    /// A fetched chunk and promotion's tail both come through here.
    fn apply(&self, chunk: &ShipChunk) -> Result<(), F2dbError> {
        let guard = self.wal.lock().unwrap();
        let wal = guard
            .as_ref()
            .ok_or_else(|| F2dbError::Storage("replica log gone (promoted?)".into()))?;
        let applied = wal
            .apply_chunk(chunk)
            .map_err(|e| F2dbError::Storage(e.to_string()))?;
        for (seq, payload) in &chunk.frames {
            apply_record(&self.db, *seq, payload)?;
        }
        self.applied_seq.store(applied, Ordering::Release);
        Ok(())
    }

    fn run_fetch_loop(&self) {
        while !self.sealed.load(Ordering::SeqCst) {
            match self.round() {
                Ok(true) => {} // keep draining while behind
                Ok(false) => std::thread::sleep(self.poll),
                Err(msg) => {
                    self.fetch_errors.fetch_add(1, Ordering::Relaxed);
                    fdc_obs::counter(names::WAL_REPLICATION_ERRORS).incr();
                    *self.last_error.lock().unwrap() = Some(msg);
                    std::thread::sleep(self.poll);
                }
            }
        }
    }
}

/// Decodes one logged record and hands it to [`F2db::replay`]. A
/// traced record re-activates the originating insert's context, so the
/// follower's `replica.apply` span lands in the *same trace* as the
/// primary-side serve and WAL-commit spans.
fn apply_record(db: &F2db, seq: u64, payload: &[u8]) -> Result<(), F2dbError> {
    let record = WalRecord::decode(payload)?;
    let WalRecord::InsertBatch { trace, .. } = &record;
    let _ctx = trace.map(|(trace_id, span_id)| {
        fdc_obs::trace::activate(TraceContext {
            trace_id,
            span_id,
            sampled: true,
        })
    });
    let _span = fdc_obs::span!("replica.apply");
    db.replay(seq, &record)?;
    Ok(())
}

/// Builds the engine and fetch loop of a follower replica.
///
/// The follower's state is exactly its local log: the `fresh` engine is
/// made read-only, every record already in `opts.wal_dir` is replayed
/// (a follower restart recovers from its own log, no catalog needed),
/// the [`REPLICA_MARKER`] is written, and the fetch loop starts against
/// `opts.replica_of`. Pass the returned pair to
/// [`crate::Server::start_with_replica`].
pub fn open_follower(
    fresh: F2db,
    opts: &ServeOptions,
) -> Result<(Arc<F2db>, Arc<Replica>), F2dbError> {
    let primary = opts
        .replica_of
        .clone()
        .ok_or_else(|| F2dbError::Storage("open_follower needs ServeOptions::replica_of".into()))?;
    let wal_dir = opts
        .wal_dir
        .clone()
        .ok_or_else(|| F2dbError::Storage("a follower needs ServeOptions::wal_dir".into()))?;
    let (wal, recovery) = Wal::open(
        &wal_dir,
        WalOptions {
            fsync: opts.wal_fsync,
            ..WalOptions::default()
        },
    )
    .map_err(|e| F2dbError::Storage(format!("follower log open: {e}")))?;
    let db = Arc::new(fresh);
    for (seq, payload) in &recovery.records {
        apply_record(&db, *seq, payload)?;
    }
    db.set_read_only(true);
    let marker = replica_marker_path(&wal_dir);
    std::fs::write(&marker, b"follower replica; promote before writing\n")
        .map_err(|e| F2dbError::Storage(format!("replica marker: {e}")))?;

    let applied = recovery.last_seq;
    let replica = Arc::new(Replica {
        primary: primary.clone(),
        client: Client::new(FETCH_TIMEOUT),
        db: Arc::clone(&db),
        wal: Mutex::new(Some(wal)),
        marker,
        poll: opts.replica_poll,
        applied_seq: AtomicU64::new(applied),
        primary_durable_seq: AtomicU64::new(0),
        fetch_errors: AtomicU64::new(0),
        last_error: Mutex::new(None),
        sealed: AtomicBool::new(false),
        promoted: AtomicBool::new(false),
        fetcher: Mutex::new(None),
    });
    journal().publish(Event::ReplicaStart {
        primary,
        applied_seq: applied,
    });
    let fetcher = {
        let replica = Arc::clone(&replica);
        std::thread::Builder::new()
            .name("fdc-replica-fetch".into())
            .spawn(move || replica.run_fetch_loop())
            .expect("spawn replica fetch thread")
    };
    *replica.fetcher.lock().unwrap() = Some(fetcher);
    Ok((db, replica))
}
