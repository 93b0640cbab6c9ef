//! Micro-benchmarks of the forecast model substrate: fitting, forecasting
//! and incremental updates for every model family.
//!
//! Run with `cargo bench -p fdc-bench --bench models`.

use fdc_bench::timing::{bench, emit_metrics};
use fdc_forecast::{
    ArimaOrder, FitOptions, ForecastModel, ModelSpec, Sarima, SeasonalKind, SeasonalOrder,
    TimeSeries,
};
use std::hint::black_box;

fn seasonal_series(n: usize, period: usize) -> TimeSeries {
    let values = (0..n)
        .map(|t| {
            100.0
                + 0.4 * t as f64
                + 15.0 * (2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64).sin()
                + ((t as f64 * 1.7).sin() * 2.0)
        })
        .collect();
    TimeSeries::new(values, fdc_forecast::Granularity::Monthly)
}

fn bench_fit() {
    let series = seasonal_series(96, 12);
    let opts = FitOptions::default();
    for (name, spec) in [
        ("model_fit/ses", ModelSpec::Ses),
        ("model_fit/holt", ModelSpec::Holt),
        (
            "model_fit/holt_winters",
            ModelSpec::HoltWinters {
                period: 12,
                seasonal: SeasonalKind::Additive,
            },
        ),
        ("model_fit/arima_111", ModelSpec::Arima { p: 1, d: 1, q: 1 }),
        (
            "model_fit/sarima",
            ModelSpec::Sarima {
                order: (1, 0, 0),
                seasonal: (0, 1, 0),
                period: 12,
            },
        ),
    ] {
        bench(name, || spec.fit(black_box(&series), &opts).unwrap());
    }
}

fn bench_forecast_and_update() {
    let series = seasonal_series(96, 12);
    let opts = FitOptions::default();
    let hw = ModelSpec::HoltWinters {
        period: 12,
        seasonal: SeasonalKind::Additive,
    }
    .fit(&series, &opts)
    .unwrap();
    let arima = ModelSpec::Arima { p: 2, d: 1, q: 1 }
        .fit(&series, &opts)
        .unwrap();
    let sarima = Sarima::fit(
        &series,
        ArimaOrder::new(1, 0, 1),
        SeasonalOrder::new(0, 1, 0, 12),
        &opts,
    )
    .unwrap();

    for h in [1usize, 12, 48] {
        bench(&format!("model_forecast/holt_winters/{h}"), || {
            hw.forecast(h)
        });
        bench(&format!("model_forecast/arima/{h}"), || arima.forecast(h));
        bench(&format!("model_forecast/sarima/{h}"), || sarima.forecast(h));
    }

    bench("model_update/holt_winters", || {
        let mut m = hw.clone();
        m.update(black_box(123.0));
        m
    });
    bench("model_update/sarima", || {
        let mut m = sarima.clone();
        m.update(black_box(123.0));
        m
    });
}

fn bench_accuracy() {
    let actual: Vec<f64> = (0..256).map(|t| 50.0 + (t as f64).sin()).collect();
    let forecast: Vec<f64> = actual.iter().map(|v| v * 1.01).collect();
    bench("smape_256", || {
        fdc_forecast::smape(black_box(&actual), black_box(&forecast))
    });
}

fn main() {
    bench_fit();
    bench_forecast_and_update();
    bench_accuracy();
    emit_metrics("bench_models");
}
