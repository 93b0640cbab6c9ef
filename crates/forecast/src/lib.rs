//! # fdc-forecast
//!
//! Time series forecasting substrate for the data-cube reproduction.
//!
//! The paper (§II-B) employs **exponential smoothing** and **ARIMA** models
//! — "thoroughly examined, able to model a wide range of real world time
//! series, and usually computationally more efficient than elaborate
//! machine learning approaches". This crate implements both families from
//! scratch:
//!
//! * [`SimpleExponentialSmoothing`](smoothing::SimpleExponentialSmoothing),
//! * [`Holt`](smoothing::Holt) (double exponential smoothing with trend)
//!   and its damped-trend variant [`DampedHolt`](smoothing::DampedHolt),
//! * [`HoltWinters`](smoothing::HoltWinters) (triple exponential smoothing,
//!   additive or multiplicative seasonality — the model that "worked best in
//!   most cases" in §VI-A),
//! * seasonal ARIMA, [`Sarima`], estimated by conditional sum of squares;
//!   a plain ARIMA is its all-zero seasonal order, fitted from
//!   [`ModelSpec::Arima`] and reporting that spec,
//!
//! together with the numerical optimization machinery the paper references
//! for parameter estimation (§IV-B.1): local [`HillClimbing`]
//! (hill climbing), global [`SimulatedAnnealing`] (simulated annealing),
//! plus the standard [`NelderMead`] simplex and [`GridSearch`] coarse
//! initialization.
//!
//! Accuracy is measured with [`smape`], the symmetric mean
//! absolute percentage error of Eq. (4); other conventional measures are
//! provided for completeness and tests.
//!
//! All models implement [`ForecastModel`], which also supports the
//! *incremental maintenance* used by F²DB (§V): [`ForecastModel::update`]
//! rolls the model state forward by one observation without re-estimating
//! parameters, and [`ForecastModel::refit`] performs full parameter
//! re-estimation.

//! ## Example
//!
//! ```
//! use fdc_forecast::{FitOptions, Granularity, ModelSpec, SeasonalKind, TimeSeries};
//!
//! let values: Vec<f64> = (0..48)
//!     .map(|t| 100.0 + t as f64 + 10.0 * ((t % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
//!     .collect();
//! let series = TimeSeries::new(values, Granularity::Monthly);
//! let spec = ModelSpec::HoltWinters { period: 12, seasonal: SeasonalKind::Additive };
//! let mut model = spec.fit(&series, &FitOptions::default()).unwrap();
//! let forecast = model.forecast(12);
//! assert_eq!(forecast.len(), 12);
//! model.update(160.0); // incremental maintenance: absorb a new actual
//! ```

pub mod accuracy;
pub mod arima;
pub mod model;
pub mod optimize;
pub mod sampling;
pub mod series;
pub mod smoothing;

pub use accuracy::{mae, mape, mase, rmse, smape, AccuracyMeasure};
pub use arima::{ArimaOrder, Sarima, SeasonalOrder};
pub use model::{
    FitOptions, ForecastError, ForecastModel, ModelSpec, ModelState, SeasonalKind,
    WORK_UNITS_PER_US,
};
pub use optimize::{
    GridSearch, HillClimbing, NelderMead, Objective, OptimizeResult, Optimizer, SimulatedAnnealing,
};
pub use sampling::{
    inverse_normal_cdf, stratified_estimate, z_quantile, HtEstimate, StratumSample,
};
pub use series::{Granularity, TimeSeries};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ForecastError>;
