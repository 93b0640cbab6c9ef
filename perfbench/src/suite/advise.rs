//! `advise-genx`: the offline path. `Advisor::new(..).run()` with
//! default options over a stream of Gen2000 cubes — `fdc-core`, model
//! fitting in `fdc-forecast` and derivation in `fdc-cube`; no serving
//! code runs at all.

use crate::suite::fixture::mix_seed;
use crate::suite::reference::cpu_scale;
use crate::suite::report::{Block, ScaledOps, SegmentStart};
use fdc_core::{Advisor, AdvisorOptions, AdvisorOutcome};
use fdc_cube::{CubeSplit, Dataset};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_hierarchical::{direct, BaselineOptions};
use std::time::Instant;

/// Base series per cube. One advisor run's time varies by ±30 % from
/// cube to cube (the data decides how many iterations it takes), so
/// every run gets a fresh cube and the run-to-run spread of the
/// workload falls with the cubes a run gets through: at Gen4000
/// (0.45 s a run) ten seconds hold twenty cubes and ten runs of the
/// benchmark spread by 18–23 %, at Gen2000 sixty cubes and 9 %. Every
/// end-to-end metric has one bound for all workloads, so the larger
/// cube would cost every other workload its gate; Gen1000, Gen2000 and
/// Gen4000 are all timed in the traced pass.
pub const BASES: usize = 2000;
/// Points per series; the advisor trains on the first 80 %.
pub const LENGTH: usize = 48;
/// Cubes, and so advisor runs, per block (≈ 3.3 s on the baseline box):
/// one warm-up run, then two segments of ten.
pub const CUBES_PER_BLOCK: usize = 21;
const WARMUP: usize = 1;
const SEGMENT: usize = 10;

/// One advisor run with default options, construction included.
pub fn advise(dataset: &Dataset) -> Result<AdvisorOutcome, String> {
    Ok(Advisor::new(dataset, AdvisorOptions::default())
        .map_err(|e| e.to_string())?
        .run())
}

/// Models the advisor actually built and tried during a run.
pub fn trial_fits(outcome: &AdvisorOutcome) -> usize {
    outcome.history.iter().map(|it| it.models_built).sum()
}

/// Error and wall time of the direct baseline (a model at every node)
/// — the reference the advisor's error must stay below.
pub fn direct_baseline(dataset: &Dataset) -> (f64, f64) {
    let split = CubeSplit::new(dataset, AdvisorOptions::default().train_frac);
    let started = Instant::now();
    let result = direct(dataset, &split, &BaselineOptions::default());
    (result.overall_error(), started.elapsed().as_secs_f64())
}

/// Runs one block: generate the cubes, then advise each in turn.
pub fn run_block(seed: u64, block: u64) -> Result<Block, String> {
    let setup_started = Instant::now();
    let cubes: Vec<Dataset> = (0..CUBES_PER_BLOCK as u64)
        .map(|i| {
            let cube_seed = mix_seed(seed, block * CUBES_PER_BLOCK as u64 + i);
            generate_cube(&GenSpec::new(BASES, LENGTH, cube_seed)).dataset
        })
        .collect();
    let setup_s = setup_started.elapsed().as_secs_f64() * cpu_scale();

    let (direct_smape, _) = direct_baseline(&cubes[0]);

    let mut out = Block {
        setup_s,
        ..Block::default()
    };
    let mut measured_from = Instant::now();
    let mut segment_from = SegmentStart::now();
    let mut runs = ScaledOps::default();
    let (mut error_sum, mut model_sum) = (0.0, 0usize);
    for (i, dataset) in cubes.iter().enumerate() {
        if i == WARMUP {
            measured_from = Instant::now();
            segment_from = SegmentStart::now();
        }
        out.attempted += 1;
        let started = Instant::now();
        let outcome = advise(dataset)?;
        let ns = started.elapsed().as_nanos() as u64;
        let scale = cpu_scale();
        let served =
            (0..dataset.node_count()).all(|v| outcome.configuration.estimate(v).scheme.is_some());
        let beats_direct = i > 0 || outcome.error < direct_smape;
        if trial_fits(&outcome) == 0 || !served || !beats_direct {
            out.failed += 1;
            continue;
        }
        error_sum += outcome.error;
        model_sum += outcome.model_count;
        if i < WARMUP {
            continue;
        }
        runs.push(ns, scale);
        if (i + 1 - WARMUP).is_multiple_of(SEGMENT) {
            out.segments.extend(runs.fold(&segment_from));
            segment_from = SegmentStart::now();
        }
    }
    out.measured_s = measured_from.elapsed().as_secs_f64();
    let succeeded = (out.attempted - out.failed).max(1) as f64;
    out.smape = error_sum / succeeded;
    out.models = model_sum as f64 / succeeded;
    Ok(out)
}
