//! Golden-value regression tests for the model fits.
//!
//! One fixed seeded series (trend × quarterly season + noise), one fit
//! per model family with the default `FitOptions`, and hard-coded
//! expectations for the estimated parameters, the first forecast
//! values and the holdout SMAPE — all to 1e-9 relative tolerance.
//!
//! These pin the *numerics*: any change to the optimizers, the
//! initialization heuristics or the model recursions that moves a fit
//! by more than one part in a billion fails here, on purpose. If a
//! change is intentional, regenerate the constants with
//!
//! ```text
//! cargo test -p fdc-forecast --test golden_fits -- --ignored --nocapture
//! ```
//!
//! and paste the printed table back into this file.

// The regenerator prints every constant with 17 significant digits so
// the literals round-trip the exact f64 bits; keep them verbatim.
#![allow(clippy::excessive_precision)]

use fdc_codec::hash::{fnv1a, FNV_OFFSET};
use fdc_forecast::model::OptimizerKind;
use fdc_forecast::{optimize, smape, FitOptions, Granularity, ModelSpec, SeasonalKind, TimeSeries};
use fdc_rng::Rng;

const TRAIN: usize = 48;
const HOLDOUT: usize = 8;

/// The fixed series: linear trend scaled by a quarterly seasonal
/// profile plus small seeded noise. Split into 48 training points and
/// an 8-point holdout.
fn golden_series() -> (TimeSeries, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(0x601d);
    let season = [1.12, 0.94, 0.78, 1.16];
    let all: Vec<f64> = (0..TRAIN + HOLDOUT)
        .map(|t| {
            let trend = 120.0 + 2.5 * t as f64;
            trend * season[t % 4] + rng.f64_range(-4.0, 4.0)
        })
        .collect();
    (
        TimeSeries::new(all[..TRAIN].to_vec(), Granularity::Quarterly),
        all[TRAIN..].to_vec(),
    )
}

fn specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("ses", ModelSpec::Ses),
        ("holt", ModelSpec::Holt),
        (
            "holt_winters",
            ModelSpec::HoltWinters {
                period: 4,
                seasonal: SeasonalKind::Multiplicative,
            },
        ),
        ("arima", ModelSpec::Arima { p: 2, d: 1, q: 1 }),
    ]
}

/// Fits `spec` on the golden series; returns (params, forecasts, smape).
fn fit_golden(spec: &ModelSpec) -> (Vec<f64>, Vec<f64>, f64) {
    let (train, holdout) = golden_series();
    let model = spec
        .fit(&train, &FitOptions::default())
        .expect("golden fit succeeds");
    let fc = model.forecast(HOLDOUT);
    let err = smape(&holdout, &fc);
    (model.params(), fc, err)
}

#[track_caller]
fn assert_close(actual: f64, expected: f64, what: &str) {
    let tol = 1e-9 * expected.abs().max(1.0);
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: got {actual:.17e}, golden {expected:.17e}"
    );
}

#[track_caller]
fn assert_golden(name: &str, params: &[f64], forecast4: &[f64], err: f64) {
    let spec = specs()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known spec")
        .1;
    let (p, fc, e) = fit_golden(&spec);
    assert_eq!(p.len(), params.len(), "{name}: parameter count");
    for (i, (&a, &g)) in p.iter().zip(params).enumerate() {
        assert_close(a, g, &format!("{name} param[{i}]"));
    }
    for (i, (&a, &g)) in fc.iter().zip(forecast4).enumerate() {
        assert_close(a, g, &format!("{name} forecast[{i}]"));
    }
    assert_close(e, err, &format!("{name} smape"));
}

/// Prints the golden table for pasting back into this file after an
/// intentional numerics change.
#[test]
#[ignore = "regenerates the golden constants; run with --ignored --nocapture"]
fn regenerate_golden_constants() {
    for (name, spec) in specs() {
        let (p, fc, e) = fit_golden(&spec);
        println!("// {name}");
        let plist: Vec<String> = p.iter().map(|v| format!("{v:.17e}")).collect();
        let flist: Vec<String> = fc.iter().take(4).map(|v| format!("{v:.17e}")).collect();
        println!(
            "assert_golden(\"{name}\", &[{}], &[{}], {:.17e});",
            plist.join(", "),
            flist.join(", "),
            e
        );
    }
}

#[test]
fn ses_fit_matches_golden_values() {
    assert_golden(
        "ses",
        &[2.10230468749999982e-1],
        &[
            2.29048952613281358e2,
            2.29048952613281358e2,
            2.29048952613281358e2,
            2.29048952613281358e2,
        ],
        7.72839430821467277e-2,
    );
}

#[test]
fn holt_fit_matches_golden_values() {
    assert_golden(
        "holt",
        &[2.05584397789586426e-1, 7.08155737903402471e-1],
        &[
            2.37802240565592797e2,
            2.41171780857992843e2,
            2.44541321150392861e2,
            2.47910861442792907e2,
        ],
        7.15897394702981055e-2,
    );
}

#[test]
fn holt_winters_fit_matches_golden_values() {
    assert_golden(
        "holt_winters",
        &[
            1.76386863023005908e-1,
            3.21360741960262652e-2,
            2.73120465398107304e-1,
        ],
        &[
            2.69297785764518153e2,
            2.29124165781136355e2,
            1.92371177670802496e2,
            2.87983229020699980e2,
        ],
        2.46764876262622369e-3,
    );
}

#[test]
fn arima_fit_matches_golden_values() {
    assert_golden(
        "arima",
        &[
            -1.81974636985412885e-1,
            -7.91146742371619416e-1,
            -7.81619228279932132e-1,
        ],
        &[
            2.77408677125954910e2,
            2.13408210956195973e2,
            2.27467301058137167e2,
            2.81284170659053132e2,
        ],
        4.30186167485717558e-2,
    );
}

/// The specs of the workspace's catalog fixture (`tests/common/mod.rs`):
/// one model of every family, Holt–Winters both ways.
fn catalog_specs() -> Vec<ModelSpec> {
    let hw = |seasonal| ModelSpec::HoltWinters {
        period: 4,
        seasonal,
    };
    vec![
        hw(SeasonalKind::Additive),
        ModelSpec::Ses,
        ModelSpec::Holt,
        hw(SeasonalKind::Multiplicative),
        ModelSpec::HoltDamped,
        ModelSpec::Arima { p: 1, d: 1, q: 1 },
        ModelSpec::Sarima {
            order: (1, 0, 0),
            seasonal: (0, 1, 1),
            period: 4,
        },
    ]
}

const OPTIMIZERS: [OptimizerKind; 3] = [
    OptimizerKind::NelderMead,
    OptimizerKind::HillClimbing,
    OptimizerKind::SimulatedAnnealing,
];

/// FNV-1a over the bits of a fit on the golden series: the state's
/// parameters and state values, a 12-step forecast, and the objective
/// evaluations the fit spent (the advisor's counted model cost).
fn fit_fingerprint(spec: &ModelSpec, optimizer: OptimizerKind) -> u64 {
    let (train, _) = golden_series();
    let options = FitOptions {
        optimizer,
        ..FitOptions::default()
    };
    let before = optimize::thread_evaluations();
    let model = spec.fit(&train, &options).expect("golden fit succeeds");
    let evaluations = optimize::thread_evaluations() - before;
    let state = model.state();
    assert_eq!(
        &state.spec, spec,
        "a fit reports the spec it was fitted from"
    );
    let mut h = FNV_OFFSET;
    for v in state
        .params
        .iter()
        .chain(&state.state)
        .chain(&model.forecast(12))
    {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    fnv1a(h, &evaluations.to_le_bytes())
}

/// Fingerprints of every catalog spec under every optimizer, in
/// `catalog_specs()` × `OPTIMIZERS` order. Taken before the smoothing
/// recursions and the optimizer dispatch were shared; never edit them.
const PINNED_FITS: [u64; 21] = [
    // Holt-Winters additive: Nelder–Mead, Hill-Climbing, Simulated Annealing
    0x20be4d15a294a6ba,
    0x7fd5c6bdc670a573,
    0x8218deedb21c634d,
    // SES: Nelder–Mead, Hill-Climbing, Simulated Annealing
    0x51f39346f8141edf,
    0x089ab565b62b2032,
    0x1d9f0af8031d51c5,
    // Holt: Nelder–Mead, Hill-Climbing, Simulated Annealing
    0x1fb39e2de983b907,
    0x9f36246f2f82c4bf,
    0xa2f69390355cd8ab,
    // Holt-Winters multiplicative: Nelder–Mead, Hill-Climbing, Simulated Annealing
    0x02239e9ca8555178,
    0x98b591a41d0c46c7,
    0xc9139c63abb57bcf,
    // damped Holt: Nelder–Mead, Hill-Climbing, Simulated Annealing
    0x01d802e611228c5a,
    0xf5dd133f36a79bed,
    0xf4844598255731fe,
    // ARIMA(1,1,1): Nelder–Mead, Hill-Climbing, Simulated Annealing
    0x7c8d03f6c0e3c2ae,
    0x1b81b92cb020e5ef,
    0x910539a683b855b1,
    // SARIMA(1,0,0)(0,1,1)4: Nelder–Mead, Hill-Climbing, Simulated Annealing
    0xfabacf4c4c441f57,
    0x9b1b099e4b01ad29,
    0x7929e281a78e927c,
];

/// Every optimizer's fit of every catalog family is the pinned one,
/// bit for bit, evaluation count included. `format_goldens` holds the
/// Nelder–Mead fits through the catalog bytes; this holds Hill-Climbing
/// and Simulated-Annealing too.
#[test]
fn every_optimizer_fits_every_family_to_the_pinned_bits() {
    let mut i = 0;
    for spec in catalog_specs() {
        for optimizer in OPTIMIZERS {
            let got = fit_fingerprint(&spec, optimizer);
            assert_eq!(
                got, PINNED_FITS[i],
                "{spec:?} with {optimizer:?}: got {got:#018x}"
            );
            i += 1;
        }
    }
}

/// Prints [`PINNED_FITS`] as this build computes it.
#[test]
#[ignore = "prints the fit fingerprints; run with --ignored --nocapture"]
fn print_fit_fingerprints() {
    for spec in catalog_specs() {
        for optimizer in OPTIMIZERS {
            println!(
                "    {:#018x}, // {spec:?} {optimizer:?}",
                fit_fingerprint(&spec, optimizer)
            );
        }
    }
}
