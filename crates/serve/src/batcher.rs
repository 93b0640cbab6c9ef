//! The insert coalescer: group-commits concurrent `/insert` requests
//! into single [`F2db::insert_batch`] commits.
//!
//! Workers *deposit* resolved rows and block until the flush generation
//! that contains them completes; a dedicated flusher thread commits
//! whatever is buffered the moment there is anything, in one engine
//! call. Rows deposited while a commit runs form the next generation,
//! so the group is sized by how long a commit takes (an fsync, a time
//! advance) — the way `fdc-wal`'s sync thread groups its appenders —
//! not by a timer: a lone writer waits for its own commit and nothing
//! else, and under contention `n` coalesced rows still cost one
//! pending-mutex pass instead of `n`, with full time stamps advancing
//! inline.
//!
//! Acknowledgement contract: a depositor is only released (and the
//! server only answers `202`) after its rows are **committed into the
//! engine** — never merely buffered. That is what makes the graceful-
//! drain guarantee ("every acknowledged row survives a restart")
//! checkable at all.

use fdc_f2db::F2db;
use fdc_obs::{names, TraceContext};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of waiting for a deposit's flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepositOutcome {
    /// The rows were committed into the engine.
    Committed,
    /// The flush ran and the engine rejected the batch.
    Failed(String),
    /// The deadline elapsed before the flush generation completed. The
    /// rows are still buffered and will be committed by a later flush
    /// (or the shutdown flush).
    TimedOut,
}

struct State {
    rows: Vec<(usize, f64)>,
    /// Trace context of the first *sampled* depositor in the buffered
    /// generation. The flush happens on the flusher thread, so without
    /// this hand-off the engine commit (and the WAL record it appends)
    /// would lose the request's trace. A coalesced flush carries many
    /// requests but one representative trace — the exemplar convention.
    trace: Option<TraceContext>,
    /// Generation the *currently buffered* rows will flush under.
    next_gen: u64,
    /// Highest generation whose flush has completed.
    completed_gen: u64,
    /// Flush errors by generation, kept for a bounded window so late
    /// waiters can still observe them.
    errors: HashMap<u64, String>,
    /// Tells the flusher thread to exit once the buffer is empty.
    stop: bool,
}

/// The generation-based coalescing buffer shared by workers and the
/// flusher thread.
pub struct Batcher {
    state: Mutex<State>,
    /// Wakes the flusher when rows arrive or stop is requested.
    work: Condvar,
    /// Wakes depositors when a flush generation completes.
    flushed: Condvar,
}

impl Default for Batcher {
    fn default() -> Self {
        Batcher {
            state: Mutex::new(State {
                rows: Vec::new(),
                trace: None,
                next_gen: 1,
                completed_gen: 0,
                errors: HashMap::new(),
                stop: false,
            }),
            work: Condvar::new(),
            flushed: Condvar::new(),
        }
    }
}

impl Batcher {
    /// Deposits rows and blocks until the flush containing them commits,
    /// fails, or `deadline` passes.
    pub fn deposit_and_wait(&self, rows: &[(usize, f64)], deadline: Duration) -> DepositOutcome {
        let started = Instant::now();
        let mut state = self.state.lock().unwrap();
        state.rows.extend_from_slice(rows);
        if state.trace.is_none() {
            state.trace = fdc_obs::trace::current().filter(|c| c.sampled);
        }
        let my_gen = state.next_gen;
        self.work.notify_one();
        while state.completed_gen < my_gen {
            let remaining = match deadline.checked_sub(started.elapsed()) {
                Some(r) if !r.is_zero() => r,
                _ => return DepositOutcome::TimedOut,
            };
            let (next, timeout) = self.flushed.wait_timeout(state, remaining).unwrap();
            state = next;
            if timeout.timed_out() && state.completed_gen < my_gen {
                return DepositOutcome::TimedOut;
            }
        }
        match state.errors.get(&my_gen) {
            Some(msg) => DepositOutcome::Failed(msg.clone()),
            None => DepositOutcome::Committed,
        }
    }

    /// The flusher thread's main loop: commit whenever rows are
    /// buffered. Returns (flushes, rows) totals when asked to stop.
    pub fn run_flusher(&self, db: &F2db) -> (u64, u64) {
        let mut flushes = 0u64;
        let mut total_rows = 0u64;
        loop {
            {
                let mut state = self.state.lock().unwrap();
                while state.rows.is_empty() && !state.stop {
                    state = self.work.wait(state).unwrap();
                }
                if state.rows.is_empty() && state.stop {
                    return (flushes, total_rows);
                }
            }
            total_rows += self.flush_once(db);
            flushes += 1;
        }
    }

    /// Commits everything currently buffered in one engine call; returns
    /// the number of rows flushed. Used by the flusher loop and by the
    /// shutdown path's final drain.
    pub fn flush_once(&self, db: &F2db) -> u64 {
        let (gen, rows, trace) = {
            let mut state = self.state.lock().unwrap();
            if state.rows.is_empty() {
                return 0;
            }
            let gen = state.next_gen;
            state.next_gen += 1;
            (gen, std::mem::take(&mut state.rows), state.trace.take())
        };
        // Re-activate the representative depositor's context on this
        // thread so the commit's spans — and the WAL record the engine
        // appends — join the originating request's trace.
        let result = {
            let _ctx = trace.map(fdc_obs::trace::activate);
            let _span = fdc_obs::span!("serve.batch_flush");
            db.insert_batch(&rows)
        };
        let mut state = self.state.lock().unwrap();
        state.completed_gen = gen;
        if let Err(e) = &result {
            state.errors.insert(gen, e.to_string());
        }
        // Errors older than a window no one can still be waiting on.
        state.errors.retain(|&g, _| g + 1024 > gen);
        drop(state);
        self.flushed.notify_all();
        fdc_obs::counter!(names::SERVE_BATCH_FLUSHES).incr();
        fdc_obs::histogram!(names::SERVE_BATCH_FLUSH_ROWS).record(rows.len() as u64);
        rows.len() as u64
    }

    /// Asks the flusher loop to exit after draining its buffer.
    pub fn stop(&self) {
        self.state.lock().unwrap().stop = true;
        self.work.notify_all();
    }

    /// Rows currently buffered (deposited but not yet flushed).
    pub fn buffered(&self) -> usize {
        self.state.lock().unwrap().rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::{Advisor, AdvisorOptions};
    use fdc_datagen::tourism_proxy;
    use std::sync::Arc;

    fn small_db_raw() -> F2db {
        let ds = tourism_proxy(1);
        let outcome = Advisor::new(
            &ds,
            AdvisorOptions {
                parallelism: Some(2),
                ..AdvisorOptions::default()
            },
        )
        .unwrap()
        .run();
        F2db::load(ds, &outcome.configuration).unwrap()
    }

    fn small_db() -> Arc<F2db> {
        Arc::new(small_db_raw())
    }

    #[test]
    fn concurrent_deposits_coalesce_into_few_commits() {
        let db = small_db();
        let base: Vec<usize> = db.dataset().graph().base_nodes().to_vec();
        let len_before = db.dataset().series_len();
        let batcher = Arc::new(Batcher::default());
        let flusher = {
            let batcher = Arc::clone(&batcher);
            let db = Arc::clone(&db);
            std::thread::spawn(move || batcher.run_flusher(&db))
        };
        // 8 threads each deposit one full round concurrently.
        std::thread::scope(|scope| {
            for round in 0..8 {
                let rows: Vec<(usize, f64)> =
                    base.iter().map(|&b| (b, 10.0 + round as f64)).collect();
                let batcher = &batcher;
                scope.spawn(move || {
                    assert_eq!(
                        batcher.deposit_and_wait(&rows, Duration::from_secs(10)),
                        DepositOutcome::Committed
                    );
                });
            }
        });
        batcher.stop();
        let (flushes, rows) = flusher.join().unwrap();
        assert_eq!(rows as usize, base.len() * 8);
        assert!(flushes >= 1);
        assert_eq!(batcher.buffered(), 0);
        // Every acknowledged round is in the engine.
        assert_eq!(db.dataset().series_len(), len_before + 8);
        // The point of coalescing: more than one row per engine commit.
        let stats = db.stats();
        assert_eq!(stats.insert_batches as u64, flushes);
        assert!(stats.inserts / stats.insert_batches > 1);
    }

    #[test]
    fn deposits_during_a_commit_share_the_next_one() {
        // A synced log makes a commit long enough for the other writers
        // to arrive while it runs: the group is sized by the commit.
        let dir = std::env::temp_dir().join(format!("fdc_batcher_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_opts = fdc_wal::WalOptions {
            fsync: true,
            ..fdc_wal::WalOptions::default()
        };
        let db = Arc::new(small_db_raw().attach_wal(&dir, wal_opts).unwrap().0);
        let base: Vec<usize> = db.dataset().graph().base_nodes().to_vec();
        let len_before = db.dataset().series_len();
        let batcher = Arc::new(Batcher::default());
        let flusher = {
            let batcher = Arc::clone(&batcher);
            let db = Arc::clone(&db);
            std::thread::spawn(move || batcher.run_flusher(&db))
        };
        // 8 threads × 20 single-row deposits: 5 rounds of the 32 base
        // series, each thread writing its own 4 cells of every round.
        let (threads, rounds) = (8, 5);
        let round_done = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for cells in base.chunks(base.len() / threads) {
                let (batcher, round_done) = (&batcher, &round_done);
                scope.spawn(move || {
                    for round in 0..rounds {
                        for &cell in cells {
                            assert_eq!(
                                batcher.deposit_and_wait(
                                    &[(cell, round as f64)],
                                    Duration::from_secs(30)
                                ),
                                DepositOutcome::Committed
                            );
                        }
                        // A cell's next value must not overwrite this one.
                        round_done.wait();
                    }
                });
            }
        });
        batcher.stop();
        let (flushes, rows) = flusher.join().unwrap();
        let deposits = (base.len() * rounds) as u64;
        assert_eq!(rows, deposits);
        assert!(flushes < deposits, "{flushes} flushes of {deposits} rows");
        // Every acknowledged row is in the engine, and in the log.
        assert_eq!(db.dataset().series_len(), len_before + rounds);
        assert_eq!(db.pending_inserts(), 0);
        let wal = db.wal_stats().unwrap();
        assert_eq!((wal.appends, wal.durable_seq), (flushes, wal.last_seq));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lone_deposit_commits_on_its_own() {
        let db = small_db();
        let b = db.dataset().graph().base_nodes()[0];
        let batcher = Arc::new(Batcher::default());
        let flusher = {
            let batcher = Arc::clone(&batcher);
            let db = Arc::clone(&db);
            std::thread::spawn(move || batcher.run_flusher(&db))
        };
        // No second deposit and no timer: the row's own arrival is what
        // commits it. (The totals are what `serve.batch.flushes` and
        // `serve.batch.flush_rows` count, for this batcher alone.)
        assert_eq!(
            batcher.deposit_and_wait(&[(b, 1.0)], Duration::from_secs(30)),
            DepositOutcome::Committed
        );
        assert_eq!(db.pending_inserts(), 1);
        batcher.stop();
        assert_eq!(flusher.join().unwrap(), (1, 1));
    }

    #[test]
    fn engine_rejection_reaches_the_depositor() {
        let db = small_db();
        let top = db.dataset().graph().top_node();
        let batcher = Arc::new(Batcher::default());
        let flusher = {
            let batcher = Arc::clone(&batcher);
            let db = Arc::clone(&db);
            std::thread::spawn(move || batcher.run_flusher(&db))
        };
        match batcher.deposit_and_wait(&[(top, 1.0)], Duration::from_secs(10)) {
            DepositOutcome::Failed(msg) => assert!(msg.contains("not a base series"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        batcher.stop();
        flusher.join().unwrap();
    }

    #[test]
    fn deposit_times_out_when_no_flusher_runs() {
        let db = small_db();
        let b = db.dataset().graph().base_nodes()[0];
        let batcher = Batcher::default();
        assert_eq!(
            batcher.deposit_and_wait(&[(b, 1.0)], Duration::from_millis(20)),
            DepositOutcome::TimedOut
        );
        // The rows stay buffered; a later (shutdown) flush commits them.
        assert_eq!(batcher.buffered(), 1);
        assert_eq!(batcher.flush_once(&db), 1);
        assert_eq!(db.pending_inserts(), 1);
    }
}
