//! `embed-fig9b`: the engine alone. In-process, one thread, no log —
//! per time point one full-round insert, then a burst of forecast
//! queries: the paper's Fig. 9(b) at a query/insert ratio of 4
//! (4000 queries per 1000-row round). `serve`, `router`, `wal` and
//! `httpcore` do no work here, so a network change must show no change.

use crate::suite::fixture::{bench_config, mix_seed, Cube, MAX_HORIZON};
use crate::suite::ops::{Mix, Op};
use crate::suite::reference::cpu_scale;
use crate::suite::report::{Block, Segment, SegmentStart};
use crate::suite::serve::{pool, BASES};
use fdc_f2db::{F2db, MaintenancePolicy};
use std::ops::Range;
use std::time::Instant;

/// Time points per block, calibrated to ≈ 3.3 s on the baseline box.
pub const ROUNDS: usize = 66;
/// The first of them are warm-up: run, checked, not measured.
pub const WARMUP_ROUNDS: usize = 6;
/// Rounds per segment (≈ 0.1 s): one maintenance cycle, so every
/// segment holds exactly one round whose queries re-fit the models the
/// round before invalidated.
pub const SEGMENT_ROUNDS: usize = 3;
/// Forecast queries after every inserted round.
pub const QUERIES_PER_ROUND: usize = 4000;

/// The query mix; inserts are not drawn, they come once per round.
/// 86 % point queries on a uniformly random node, 14 % multi-row
/// `GROUP BY time, <dimension>` (13 % over the coarsest dimension, 1 %
/// over the second): p50 falls inside the point class and p90 inside
/// the coarse GROUP BY class — also here, where lazy re-fits add about
/// 2 % of slow queries on top — and neither on the border between two,
/// where a percentile flips class from run to run.
pub const MIX: Mix = Mix {
    insert: 0.0,
    group_coarse: 0.13,
    group_mid: 0.01,
    skip_top: false,
};

/// Loads `benchcfg` over the cube's history with the Fig. 9(b)
/// maintenance policy: every model invalidated every third time point.
pub fn engine(cube: &Cube) -> Result<F2db, String> {
    let cfg = bench_config(&cube.history);
    Ok(F2db::load(cube.history.clone(), &cfg)
        .map_err(|e| e.to_string())?
        .with_policy(MaintenancePolicy::TimeBased { every: 3 }))
}

/// The block's whole query sequence; `--seed` alone decides it.
pub fn stream(seed: u64) -> Vec<Op> {
    pool().stream(MIX, mix_seed(seed, 0xE3BED), ROUNDS * QUERIES_PER_ROUND)
}

/// What a stretch of rounds left behind: the engine's maintenance
/// counters and a digest of every forecast value answered. Both are
/// single-threaded and so repeat exactly for the same cube and stream.
#[derive(Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Lazy re-estimations so far.
    pub reestimations: usize,
    /// Incremental model updates so far.
    pub model_updates: usize,
    /// FNV-1a over the bits of every answered value, in order.
    pub digest: u64,
}

/// Plays `rounds` of the sequence: per round one full-round insert,
/// then its queries. Every [`SEGMENT_ROUNDS`] rounds become one segment
/// of `out`, followed by a sample of the reference kernel.
pub fn play(
    db: &F2db,
    cube: &Cube,
    stream: &[Op],
    rounds: Range<usize>,
    out: &mut Block,
) -> Result<Footprint, String> {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut query_ns = Vec::with_capacity(SEGMENT_ROUNDS * QUERIES_PER_ROUND);
    let mut segment_from = SegmentStart::now();
    let mut completed = 0usize;
    let first = rounds.start;
    for r in rounds {
        let rows = cube.round_rows(r);
        let advances = db.insert_batch(&rows).map_err(|e| e.to_string())?;
        let before = completed;
        completed += (advances == 1) as usize;
        for op in &stream[r * QUERIES_PER_ROUND..(r + 1) * QUERIES_PER_ROUND] {
            let Op::Query(q) = *op else {
                unreachable!("the embedded mix draws no insert")
            };
            let q = &pool().queries[q as usize];
            let started = Instant::now();
            let answer = db.query(&q.sql);
            let ns = started.elapsed().as_nanos() as u64;
            let right = answer.as_ref().is_ok_and(|a| {
                a.rows.len() == q.nodes.len()
                    && a.rows.iter().zip(&q.nodes).all(|(row, &n)| {
                        row.node == n
                            && row.values.len() == q.horizon
                            && row.values.iter().all(|(_, v)| v.is_finite())
                    })
            });
            if !right {
                continue;
            }
            for row in &answer.expect("checked above").rows {
                for (_, v) in &row.values {
                    digest = (digest ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            completed += 1;
            query_ns.push(ns);
        }
        out.attempted += 1 + QUERIES_PER_ROUND as u64;
        out.failed += (1 + QUERIES_PER_ROUND - (completed - before)) as u64;
        if (r + 1 - first).is_multiple_of(SEGMENT_ROUNDS) {
            let elapsed = segment_from.elapsed();
            out.segments
                .extend(Segment::of(&mut query_ns, completed, elapsed, cpu_scale()));
            query_ns.clear();
            completed = 0;
            segment_from = SegmentStart::now();
        }
    }
    let stats = db.stats();
    Ok(Footprint {
        reestimations: stats.reestimations,
        model_updates: stats.model_updates,
        digest,
    })
}

/// Mean SMAPE of the horizon-4 forecast of every node against what the
/// series really did after the `inserted` rounds `db` holds.
pub fn accuracy(db: &F2db, cube: &Cube, inserted: usize) -> Result<f64, String> {
    let nodes = cube.history.node_count();
    let mut sum = 0.0;
    for node in 0..nodes {
        let answer = db
            .query(&pool().longest_point_query(node).sql)
            .map_err(|e| e.to_string())?;
        let forecast: Vec<f64> = answer.rows[0].values.iter().map(|&(_, v)| v).collect();
        sum += fdc_forecast::smape(cube.truth(node, inserted, MAX_HORIZON), &forecast);
    }
    Ok(sum / nodes as f64)
}

/// Runs one block: set up, score accuracy, warm up, then the measured
/// rounds. The first block of a run also replays its warm-up on a
/// fresh engine and fails unless counters and answers repeat exactly.
pub fn run_block(seed: u64, block: u64) -> Result<Block, String> {
    let stream = stream(seed);

    let setup_started = Instant::now();
    let cube = Cube::generate(BASES, ROUNDS, mix_seed(seed, block));
    let db = engine(&cube)?;
    let setup_s = setup_started.elapsed().as_secs_f64() * cpu_scale();

    let mut out = Block {
        setup_s,
        smape: accuracy(&db, &cube, 0)?,
        models: db.catalog().model_count() as f64,
        ..Block::default()
    };
    let warm = play(&db, &cube, &stream, 0..WARMUP_ROUNDS, &mut out)?;
    out.segments.clear();
    let measured_from = Instant::now();
    play(&db, &cube, &stream, WARMUP_ROUNDS..ROUNDS, &mut out)?;
    out.measured_s = measured_from.elapsed().as_secs_f64();
    if db.stats().time_advances != ROUNDS {
        return Err(format!(
            "{ROUNDS} rounds inserted, {} advances",
            db.stats().time_advances
        ));
    }
    if block == 0 {
        let fresh = engine(&cube)?;
        accuracy(&fresh, &cube, 0)?;
        let again = play(
            &fresh,
            &cube,
            &stream,
            0..WARMUP_ROUNDS,
            &mut Block::default(),
        )?;
        if again != warm {
            return Err(format!(
                "the same rounds did not repeat: {warm:?} then {again:?}"
            ));
        }
    }
    Ok(out)
}
