//! `serve-recover`: what a crash costs. A `serve-mixed` server takes
//! some rounds, is checkpointed, takes exactly [`TAIL_ROUNDS`] more and
//! goes away without a graceful save; the op is `open_engine` on what
//! it left behind — the checkpoint plus the replay of the logged tail.
//! Recovery is idempotent (a second recovery of the same files
//! reproduces the same state), so one crash image serves every op of a
//! block.

use crate::suite::client::Client;
use crate::suite::embed;
use crate::suite::fixture::{base_bits, mix_seed, Cube, HISTORY, MAX_HORIZON};
use crate::suite::reference::cpu_scale;
use crate::suite::report::{Block, ScaledOps, SegmentStart};
use crate::suite::serve::{serve_options, Deployment, Kind, BASES, LOG_FSYNC};
use fdc_cube::Configuration;
use fdc_f2db::F2db;
use fdc_serve::{open_engine, ServeOptions};
use std::time::Instant;

/// Rounds the server takes before its last checkpoint.
pub const PRE_ROUNDS: usize = 20;
/// Rounds logged after the checkpoint, which every recovery replays.
pub const TAIL_ROUNDS: usize = 200;
/// Recoveries per block: one warm-up, then seven segments of four.
const RECOVERIES: usize = 29;
const WARMUP: usize = 1;
const SEGMENT: usize = 4;

/// Runs one block: build the crash image (set-up), then recover from it
/// again and again.
pub fn run_block(seed: u64, block: u64) -> Result<Block, String> {
    let msg = |e: &dyn std::fmt::Display| e.to_string();
    // The set-up takes over a second, so it is scaled piece by piece:
    // one sample of the reference kernel stands for twenty rounds.
    let mut setup_from = Instant::now();
    let mut scaled_setup_s = 0.0;
    let lap = |from: &mut Instant| {
        let spent = from.elapsed().as_secs_f64();
        let scaled = spent * cpu_scale();
        *from = Instant::now();
        scaled
    };
    let inserted = PRE_ROUNDS + TAIL_ROUNDS;
    let cube = Cube::generate(BASES, inserted + MAX_HORIZON, mix_seed(seed, block));
    let dep = Deployment::start(Kind::Mixed, &cube, &format!("Recover-{block}"), LOG_FSYNC)?;
    let checkpoint = dep.dir.join("checkpoint.f2ck");
    let mut client = Client::new(dep.addr);
    let mut out = Block {
        models: dep.models as f64,
        ..Block::default()
    };
    for round in 0..inserted {
        let acked = client.post("/insert", &cube.round_body(round));
        out.attempted += 1;
        if !acked.is_ok_and(|r| r.status == 202) {
            return Err(format!("round {round} was not acknowledged"));
        }
        if round + 1 == PRE_ROUNDS {
            dep.engines[0]
                .save_catalog(&checkpoint)
                .map_err(|e| msg(&e))?;
        }
        if (round + 1).is_multiple_of(20) {
            scaled_setup_s += lap(&mut setup_from);
        }
    }
    let before = base_bits(&dep.engines[0]);
    let dir = dep.crash()?;
    out.setup_s = scaled_setup_s + lap(&mut setup_from);

    let opts = ServeOptions {
        catalog_path: Some(checkpoint),
        wal_dir: Some(dir.join("wal")),
        wal_fsync: LOG_FSYNC,
        ..serve_options()
    };
    let mut measured_from = Instant::now();
    let mut segment_from = SegmentStart::now();
    let mut recoveries = ScaledOps::default();
    for i in 0..RECOVERIES {
        if i == WARMUP {
            measured_from = Instant::now();
            segment_from = SegmentStart::now();
        }
        // `open_engine` takes the data set from the engine it is handed
        // and everything else from the checkpoint.
        let empty = Configuration::new(cube.history.node_count());
        let fresh = F2db::load(cube.history.clone(), &empty).map_err(|e| msg(&e))?;
        out.attempted += 1;
        let started = Instant::now();
        let opened = open_engine(fresh, &opts);
        let ns = started.elapsed().as_nanos() as u64;
        let scale = cpu_scale();
        let (recovered, report) = opened.map_err(|e| msg(&e))?;
        let replayed = report.wal.map_or(0, |w| w.advances);
        if !report.opened_catalog
            || replayed != TAIL_ROUNDS as u64
            || recovered.dataset().series_len() != HISTORY + inserted
            || base_bits(&recovered) != before
        {
            eprintln!("recovery replayed {replayed} of {TAIL_ROUNDS} rounds, or lost a value");
            out.failed += 1;
            continue;
        }
        if i == 0 {
            out.smape = embed::accuracy(&recovered, &cube, inserted)?;
        }
        drop(recovered);
        if i < WARMUP {
            continue;
        }
        recoveries.push(ns, scale);
        if (i + 1 - WARMUP).is_multiple_of(SEGMENT) {
            out.segments.extend(recoveries.fold(&segment_from));
            segment_from = SegmentStart::now();
        }
    }
    out.measured_s = measured_from.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).map_err(|e| msg(&e))?;
    Ok(out)
}
