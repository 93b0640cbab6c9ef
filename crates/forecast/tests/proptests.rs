//! Randomized property tests of the forecasting substrate, driven by
//! the deterministic workspace RNG.

use fdc_forecast::model::restore_model;
use fdc_forecast::{
    smape, FitOptions, ForecastModel, Granularity, ModelSpec, SeasonalKind, TimeSeries,
};
use fdc_rng::Rng;

fn random_series(rng: &mut Rng, min_len: usize) -> TimeSeries {
    let len = min_len + rng.usize_below(64);
    let v: Vec<f64> = (0..len).map(|_| rng.f64_range(1.0, 1000.0)).collect();
    TimeSeries::new(v, Granularity::Monthly)
}

/// The bits of a model's serialized state — parameters, state values
/// and observation count: what F²DB persists and forecasts from.
fn state_bits(model: &impl ForecastModel) -> (Vec<u64>, Vec<u64>, usize) {
    let state = model.state();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (bits(&state.params), bits(&state.state), state.observations)
}

/// One to seven further observations.
fn extra_values(rng: &mut Rng) -> Vec<f64> {
    (0..1 + rng.usize_below(7))
        .map(|_| rng.f64_range(1.0, 1000.0))
        .collect()
}

/// A model built on `series` that absorbs `extra` one `update` at a
/// time reaches the state, bit for bit, of the model built on both.
#[track_caller]
fn assert_update_reaches_batch<M: ForecastModel>(
    series: &[f64],
    extra: &[f64],
    with_params: impl Fn(&[f64]) -> M,
    case: usize,
) {
    let mut all = series.to_vec();
    all.extend_from_slice(extra);
    let batch = with_params(&all);
    let mut incr = with_params(series);
    for &v in extra {
        incr.update(v);
    }
    assert_eq!(state_bits(&incr), state_bits(&batch), "case {case}");
}

/// Incremental update equals batch recomputation for SES (the
/// invariant F²DB maintenance relies on), to the bit.
#[test]
fn ses_incremental_equals_batch() {
    use fdc_forecast::smoothing::SimpleExponentialSmoothing;
    let mut rng = Rng::seed_from_u64(0xf01);
    for case in 0..48 {
        let series = random_series(&mut rng, 8);
        let alpha = rng.f64_range(0.05, 0.95);
        let extra = extra_values(&mut rng);
        assert_update_reaches_batch(
            series.values(),
            &extra,
            |x| SimpleExponentialSmoothing::with_params(x, alpha),
            case,
        );
    }
}

/// Holt incremental update equals batch recomputation, to the bit.
#[test]
fn holt_incremental_equals_batch() {
    use fdc_forecast::smoothing::Holt;
    let mut rng = Rng::seed_from_u64(0xf02);
    for case in 0..48 {
        let series = random_series(&mut rng, 8);
        let alpha = rng.f64_range(0.05, 0.95);
        let beta = rng.f64_range(0.05, 0.95);
        let extra = extra_values(&mut rng);
        assert_update_reaches_batch(
            series.values(),
            &extra,
            |x| Holt::with_params(x, alpha, beta),
            case,
        );
    }
}

/// Damped-Holt incremental update equals batch recomputation, to the
/// bit.
#[test]
fn damped_holt_incremental_equals_batch() {
    use fdc_forecast::smoothing::DampedHolt;
    let mut rng = Rng::seed_from_u64(0xf07);
    for case in 0..48 {
        let series = random_series(&mut rng, 8);
        let alpha = rng.f64_range(0.05, 0.95);
        let beta = rng.f64_range(0.05, 0.95);
        let phi = rng.f64_range(0.7, 0.99);
        let extra = extra_values(&mut rng);
        assert_update_reaches_batch(
            series.values(),
            &extra,
            |x| DampedHolt::with_params(x, alpha, beta, phi),
            case,
        );
    }
}

/// Holt–Winters incremental update equals batch recomputation, to the
/// bit, for additive and multiplicative seasonality over periods 2–12.
#[test]
fn holt_winters_incremental_equals_batch() {
    use fdc_forecast::smoothing::HoltWinters;
    let mut rng = Rng::seed_from_u64(0xf08);
    for kind in [SeasonalKind::Additive, SeasonalKind::Multiplicative] {
        for case in 0..48 {
            let period = 2 + rng.usize_below(11);
            let series = random_series(&mut rng, 2 * period + 1);
            let alpha = rng.f64_range(0.05, 0.95);
            let beta = rng.f64_range(0.05, 0.95);
            let gamma = rng.f64_range(0.05, 0.95);
            let extra = extra_values(&mut rng);
            assert_update_reaches_batch(
                series.values(),
                &extra,
                |x| HoltWinters::with_params(x, period, kind, alpha, beta, gamma),
                case,
            );
        }
    }
}

/// Every fitted model produces finite forecasts of the requested
/// length, and restores identically from serialized state.
#[test]
fn fitted_models_forecast_finitely_and_round_trip() {
    let mut rng = Rng::seed_from_u64(0xf03);
    let opts = FitOptions::default();
    for case in 0..24 {
        let series = random_series(&mut rng, 30);
        let horizon = 1 + rng.usize_below(23);
        for spec in [
            ModelSpec::Ses,
            ModelSpec::Holt,
            ModelSpec::HoltWinters {
                period: 4,
                seasonal: SeasonalKind::Additive,
            },
            ModelSpec::Arima { p: 1, d: 1, q: 0 },
        ] {
            let model = spec.fit(&series, &opts).expect("series long enough");
            let fc = model.forecast(horizon);
            assert_eq!(fc.len(), horizon);
            assert!(
                fc.iter().all(|v| v.is_finite()),
                "case {case} {spec:?}: {fc:?}"
            );
            let restored = restore_model(&model.state()).expect("state is valid");
            assert_eq!(restored.forecast(horizon), fc);
        }
    }
}

/// A constant series is forecast (almost) exactly by every smoothing
/// model.
#[test]
fn constant_series_forecast_exactly() {
    let mut rng = Rng::seed_from_u64(0xf04);
    let opts = FitOptions::default();
    for _ in 0..32 {
        let level = rng.f64_range(1.0, 1e4);
        let len = 12 + rng.usize_below(28);
        let series = TimeSeries::new(vec![level; len], Granularity::Quarterly);
        for spec in [ModelSpec::Ses, ModelSpec::Holt] {
            let model = spec.fit(&series, &opts).unwrap();
            for v in model.forecast(4) {
                assert!((v - level).abs() < 1e-6 * level, "{spec:?} -> {v}");
            }
        }
    }
}

/// SMAPE of a forecast scaled toward the actual decreases
/// monotonically (closer forecasts are never judged worse).
#[test]
fn smape_monotone_under_contraction() {
    let mut rng = Rng::seed_from_u64(0xf05);
    for _ in 0..48 {
        let n = 4 + rng.usize_below(28);
        let actual: Vec<f64> = (0..n).map(|_| rng.f64_range(1.0, 1e4)).collect();
        let scale = rng.f64_range(1.1, 4.0);
        let far: Vec<f64> = actual.iter().map(|v| v * scale).collect();
        let near: Vec<f64> = actual
            .iter()
            .map(|v| v * (1.0 + (scale - 1.0) / 2.0))
            .collect();
        assert!(smape(&actual, &near) <= smape(&actual, &far) + 1e-12);
    }
}

/// Train/test split partitions the series exactly.
#[test]
fn split_partitions_series() {
    let mut rng = Rng::seed_from_u64(0xf06);
    for _ in 0..48 {
        let series = random_series(&mut rng, 4);
        let frac = rng.f64();
        let (train, test) = series.split(frac);
        assert_eq!(train.len() + test.len(), series.len());
        let mut joined = train.values().to_vec();
        joined.extend_from_slice(test.values());
        assert_eq!(joined.as_slice(), series.values());
        assert_eq!(test.start(), train.end());
    }
}
