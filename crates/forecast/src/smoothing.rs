//! Exponential smoothing models: simple, Holt (trend) and Holt–Winters
//! (trend + seasonality).
//!
//! These are the workhorse models of the paper's evaluation — "triple
//! exponential smoothing worked best in most cases, where we set the
//! seasonality according to the granularity of the data" (§VI-A).
//! Smoothing parameters are estimated by minimizing the in-sample
//! one-step-ahead sum of squared errors with the optimizer selected in
//! [`FitOptions`].
//!
//! Each family writes its state transition once, as a [`Recursion`]
//! step: [`ForecastModel::update`] takes one, and [`filter`] runs it
//! over a series for both the fitted state and the SSE the fit
//! minimizes.

use crate::model::{
    forecast_vec, FitOptions, ForecastError, ForecastModel, ModelSpec, ModelState, SeasonalKind,
};
use crate::optimize::{self, FnObjective};
use crate::series::TimeSeries;

/// Bounds for smoothing parameters: open interval (0, 1) approximated by a
/// closed interval that keeps the recursions numerically stable.
const SMOOTH_BOUNDS: (f64, f64) = (0.01, 0.99);

/// A smoothing family's recursion over its components.
trait Recursion {
    /// Absorbs the next observation `v` and returns the one-step-ahead
    /// forecast the components held for it (one transition computes
    /// both, so the seasonal index and slot are read once). Each impl
    /// is `#[inline]`: `update` calls it too, and without the hint the
    /// compiler kept Holt–Winters' step out of the fit's loop, which
    /// made its fits 20–45 % slower (2-vCPU Xeon).
    fn step(&mut self, v: f64) -> f64;
}

/// Runs `model` over `rest`, the observations after the ones its
/// initial components were built from, and returns it with its
/// one-step-ahead sum of squared errors.
fn filter<M: Recursion>(mut model: M, rest: &[f64]) -> (M, f64) {
    let mut sse = 0.0;
    for &v in rest {
        let e = v - model.step(v);
        sse += e * e;
    }
    (model, sse)
}

/// Estimates a family's parameters: minimizes the SSE `filtered`
/// returns for a parameter vector, from `x0` inside `bounds`, and
/// returns the model filtered at the optimum.
fn estimate<M>(
    options: &FitOptions,
    bounds: Vec<(f64, f64)>,
    x0: &[f64],
    filtered: impl Fn(&[f64]) -> (M, f64),
) -> M {
    let objective = FnObjective::new(bounds, |p| filtered(p).1);
    let best = optimize::minimize(options, &objective, x0).x;
    filtered(&best).0
}

// ---------------------------------------------------------------------------
// Simple exponential smoothing
// ---------------------------------------------------------------------------

/// Simple exponential smoothing: one level component, one parameter `α`.
///
/// Appropriate for series without trend or seasonality; the flat forecast
/// equals the current level.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleExponentialSmoothing {
    alpha: f64,
    level: f64,
    observations: usize,
}

impl SimpleExponentialSmoothing {
    /// Fits `α` by one-step SSE minimization.
    pub fn fit(series: &TimeSeries, options: &FitOptions) -> crate::Result<Self> {
        let x = series.values();
        if x.len() < 2 {
            return Err(ForecastError::SeriesTooShort {
                required: 2,
                got: x.len(),
            });
        }
        Ok(estimate(options, vec![SMOOTH_BOUNDS], &[0.3], |p| {
            Self::filtered(x, p[0])
        }))
    }

    /// Builds the model with a fixed `α` (no estimation).
    pub fn with_params(x: &[f64], alpha: f64) -> Self {
        Self::filtered(x, alpha).0
    }

    /// The model of `α` filtered over `x`, and its one-step SSE.
    fn filtered(x: &[f64], alpha: f64) -> (Self, f64) {
        let start = SimpleExponentialSmoothing {
            alpha,
            level: x[0],
            observations: 1,
        };
        filter(start, &x[1..])
    }

    /// The estimated smoothing parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Restores from a serialized state.
    pub fn from_state(state: &ModelState) -> crate::Result<Self> {
        if !matches!(state.spec, ModelSpec::Ses) {
            return Err(ForecastError::InvalidState("expected SES state".into()));
        }
        let (alpha, level) = match (state.params.as_slice(), state.state.as_slice()) {
            ([a], [l]) => (*a, *l),
            _ => return Err(ForecastError::InvalidState("malformed SES state".into())),
        };
        Ok(SimpleExponentialSmoothing {
            alpha,
            level,
            observations: state.observations,
        })
    }
}

impl Recursion for SimpleExponentialSmoothing {
    #[inline]
    fn step(&mut self, v: f64) -> f64 {
        let predicted = self.level;
        self.level = self.alpha * v + (1.0 - self.alpha) * self.level;
        self.observations += 1;
        predicted
    }
}

impl ForecastModel for SimpleExponentialSmoothing {
    fn name(&self) -> &'static str {
        "ses"
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        vec![self.level; horizon]
    }

    fn forecast_into(&self, out: &mut [f64]) {
        out.fill(self.level);
    }

    fn update(&mut self, value: f64) {
        self.step(value);
    }

    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()> {
        *self = Self::fit(series, options)?;
        Ok(())
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha]
    }

    fn state(&self) -> ModelState {
        ModelState {
            spec: ModelSpec::Ses,
            params: vec![self.alpha],
            state: vec![self.level],
            observations: self.observations,
        }
    }

    fn observations(&self) -> usize {
        self.observations
    }

    fn boxed_clone(&self) -> Box<dyn ForecastModel> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Holt (double exponential smoothing)
// ---------------------------------------------------------------------------

/// Holt's linear trend method: level + trend components, parameters `α`
/// and `β`. Forecast at horizon `h` is `level + h·trend`.
#[derive(Debug, Clone, PartialEq)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: f64,
    trend: f64,
    observations: usize,
}

impl Holt {
    /// Fits `α`, `β` by one-step SSE minimization.
    pub fn fit(series: &TimeSeries, options: &FitOptions) -> crate::Result<Self> {
        let x = series.values();
        if x.len() < 3 {
            return Err(ForecastError::SeriesTooShort {
                required: 3,
                got: x.len(),
            });
        }
        Ok(estimate(
            options,
            vec![SMOOTH_BOUNDS; 2],
            &[0.3, 0.1],
            |p| Self::filtered(x, p[0], p[1]),
        ))
    }

    /// Builds the model with fixed parameters.
    pub fn with_params(x: &[f64], alpha: f64, beta: f64) -> Self {
        Self::filtered(x, alpha, beta).0
    }

    /// The model of `(α, β)` filtered over `x`, and its one-step SSE.
    fn filtered(x: &[f64], alpha: f64, beta: f64) -> (Self, f64) {
        let start = Holt {
            alpha,
            beta,
            level: x[0],
            trend: x[1] - x[0],
            observations: 1,
        };
        filter(start, &x[1..])
    }

    /// `(α, β)`.
    pub fn parameters(&self) -> (f64, f64) {
        (self.alpha, self.beta)
    }

    /// Restores from a serialized state.
    pub fn from_state(state: &ModelState) -> crate::Result<Self> {
        if !matches!(state.spec, ModelSpec::Holt) {
            return Err(ForecastError::InvalidState("expected Holt state".into()));
        }
        let (alpha, beta, level, trend) = match (state.params.as_slice(), state.state.as_slice()) {
            ([a, b], [l, t]) => (*a, *b, *l, *t),
            _ => return Err(ForecastError::InvalidState("malformed Holt state".into())),
        };
        Ok(Holt {
            alpha,
            beta,
            level,
            trend,
            observations: state.observations,
        })
    }
}

impl Recursion for Holt {
    #[inline]
    fn step(&mut self, v: f64) -> f64 {
        let prev_level = self.level;
        let predicted = self.level + self.trend;
        self.level = self.alpha * v + (1.0 - self.alpha) * predicted;
        self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
        self.observations += 1;
        predicted
    }
}

impl ForecastModel for Holt {
    fn name(&self) -> &'static str {
        "holt"
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        forecast_vec(self, horizon)
    }

    fn forecast_into(&self, out: &mut [f64]) {
        for (h, v) in (1usize..).zip(out) {
            *v = self.level + h as f64 * self.trend;
        }
    }

    fn update(&mut self, value: f64) {
        self.step(value);
    }

    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()> {
        *self = Self::fit(series, options)?;
        Ok(())
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.beta]
    }

    fn state(&self) -> ModelState {
        ModelState {
            spec: ModelSpec::Holt,
            params: vec![self.alpha, self.beta],
            state: vec![self.level, self.trend],
            observations: self.observations,
        }
    }

    fn observations(&self) -> usize {
        self.observations
    }

    fn boxed_clone(&self) -> Box<dyn ForecastModel> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Damped-trend Holt
// ---------------------------------------------------------------------------

/// Holt's method with a damped trend: parameters `α`, `β` and damping
/// `φ ∈ (0, 1)`. The forecast at horizon `h` is
/// `level + (φ + φ² + … + φʰ)·trend`, so the trend flattens out instead
/// of extrapolating linearly forever — the empirically safer default for
/// long horizons (Gardner & McKenzie).
#[derive(Debug, Clone, PartialEq)]
pub struct DampedHolt {
    alpha: f64,
    beta: f64,
    phi: f64,
    level: f64,
    trend: f64,
    observations: usize,
}

impl DampedHolt {
    /// Fits `α`, `β`, `φ` by one-step SSE minimization.
    pub fn fit(series: &TimeSeries, options: &FitOptions) -> crate::Result<Self> {
        let x = series.values();
        if x.len() < 3 {
            return Err(ForecastError::SeriesTooShort {
                required: 3,
                got: x.len(),
            });
        }
        // φ is bounded to [0.7, 0.99]: lower values damp so aggressively
        // the model degenerates to SES (standard practice).
        let bounds = vec![SMOOTH_BOUNDS, SMOOTH_BOUNDS, (0.7, 0.99)];
        Ok(estimate(options, bounds, &[0.3, 0.1, 0.9], |p| {
            Self::filtered(x, p[0], p[1], p[2])
        }))
    }

    /// Builds the model with fixed parameters.
    pub fn with_params(x: &[f64], alpha: f64, beta: f64, phi: f64) -> Self {
        Self::filtered(x, alpha, beta, phi).0
    }

    /// The model of `(α, β, φ)` filtered over `x`, and its one-step SSE.
    fn filtered(x: &[f64], alpha: f64, beta: f64, phi: f64) -> (Self, f64) {
        let start = DampedHolt {
            alpha,
            beta,
            phi,
            level: x[0],
            trend: x[1] - x[0],
            observations: 1,
        };
        filter(start, &x[1..])
    }

    /// `(α, β, φ)`.
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.alpha, self.beta, self.phi)
    }

    /// Restores from a serialized state.
    pub fn from_state(state: &ModelState) -> crate::Result<Self> {
        if !matches!(state.spec, ModelSpec::HoltDamped) {
            return Err(ForecastError::InvalidState(
                "expected damped-Holt state".into(),
            ));
        }
        let (alpha, beta, phi, level, trend) =
            match (state.params.as_slice(), state.state.as_slice()) {
                ([a, b, p], [l, t]) => (*a, *b, *p, *l, *t),
                _ => {
                    return Err(ForecastError::InvalidState(
                        "malformed damped-Holt state".into(),
                    ))
                }
            };
        Ok(DampedHolt {
            alpha,
            beta,
            phi,
            level,
            trend,
            observations: state.observations,
        })
    }
}

impl Recursion for DampedHolt {
    #[inline]
    fn step(&mut self, v: f64) -> f64 {
        let prev_level = self.level;
        let predicted = self.level + self.phi * self.trend;
        self.level = self.alpha * v + (1.0 - self.alpha) * predicted;
        self.trend =
            self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.phi * self.trend;
        self.observations += 1;
        predicted
    }
}

impl ForecastModel for DampedHolt {
    fn name(&self) -> &'static str {
        "holt-damped"
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        forecast_vec(self, horizon)
    }

    fn forecast_into(&self, out: &mut [f64]) {
        let mut damp_sum = 0.0;
        let mut damp = 1.0;
        for v in out {
            damp *= self.phi;
            damp_sum += damp;
            *v = self.level + damp_sum * self.trend;
        }
    }

    fn update(&mut self, value: f64) {
        self.step(value);
    }

    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()> {
        *self = Self::fit(series, options)?;
        Ok(())
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.beta, self.phi]
    }

    fn state(&self) -> ModelState {
        ModelState {
            spec: ModelSpec::HoltDamped,
            params: vec![self.alpha, self.beta, self.phi],
            state: vec![self.level, self.trend],
            observations: self.observations,
        }
    }

    fn observations(&self) -> usize {
        self.observations
    }

    fn boxed_clone(&self) -> Box<dyn ForecastModel> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Holt–Winters (triple exponential smoothing)
// ---------------------------------------------------------------------------

/// Holt–Winters triple exponential smoothing with additive or
/// multiplicative seasonality.
///
/// The seasonal array is indexed by `t mod period`, where `t` counts
/// absorbed observations, and is updated in place as the recursion
/// proceeds.
#[derive(Debug, Clone, PartialEq)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    kind: SeasonalKind,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    observations: usize,
}

impl HoltWinters {
    /// Fits `α`, `β`, `γ` by one-step SSE minimization.
    ///
    /// Multiplicative seasonality requires strictly positive observations;
    /// otherwise [`ForecastError::InvalidParameter`] is returned.
    pub fn fit(
        series: &TimeSeries,
        period: usize,
        kind: SeasonalKind,
        options: &FitOptions,
    ) -> crate::Result<Self> {
        let x = series.values();
        if period < 2 {
            return Err(ForecastError::InvalidParameter(
                "Holt-Winters requires a seasonal period of at least 2".into(),
            ));
        }
        let required = 2 * period + 1;
        if x.len() < required {
            return Err(ForecastError::SeriesTooShort {
                required,
                got: x.len(),
            });
        }
        if kind == SeasonalKind::Multiplicative && x.iter().any(|&v| v <= 0.0) {
            return Err(ForecastError::InvalidParameter(
                "multiplicative seasonality requires strictly positive data".into(),
            ));
        }
        Ok(estimate(
            options,
            vec![SMOOTH_BOUNDS; 3],
            &[0.3, 0.05, 0.1],
            |p| Self::filtered(x, period, kind, p[0], p[1], p[2]),
        ))
    }

    /// Builds the model with fixed parameters.
    pub fn with_params(
        x: &[f64],
        period: usize,
        kind: SeasonalKind,
        alpha: f64,
        beta: f64,
        gamma: f64,
    ) -> Self {
        Self::filtered(x, period, kind, alpha, beta, gamma).0
    }

    /// The model of `(α, β, γ)` filtered over `x` from its classical
    /// initial components, and its one-step SSE.
    fn filtered(
        x: &[f64],
        period: usize,
        kind: SeasonalKind,
        alpha: f64,
        beta: f64,
        gamma: f64,
    ) -> (Self, f64) {
        let (level, trend, seasonal) = Self::initial_components(x, period, kind);
        let start = HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            kind,
            level,
            trend,
            seasonal,
            observations: period,
        };
        filter(start, &x[period..])
    }

    /// `(α, β, γ)`.
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.alpha, self.beta, self.gamma)
    }

    /// The seasonal period.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Classical initialization: level = mean of the first season, trend =
    /// averaged per-step difference between the first two seasons, seasonal
    /// indices from the first season relative to its mean.
    fn initial_components(x: &[f64], period: usize, kind: SeasonalKind) -> (f64, f64, Vec<f64>) {
        let m = period;
        let season1_mean = x[..m].iter().sum::<f64>() / m as f64;
        let trend = if x.len() >= 2 * m {
            let season2_mean = x[m..2 * m].iter().sum::<f64>() / m as f64;
            (season2_mean - season1_mean) / m as f64
        } else {
            0.0
        };
        let seasonal: Vec<f64> = (0..m)
            .map(|i| match kind {
                SeasonalKind::Additive => x[i] - season1_mean,
                SeasonalKind::Multiplicative => {
                    if season1_mean.abs() < f64::EPSILON {
                        1.0
                    } else {
                        x[i] / season1_mean
                    }
                }
            })
            .collect();
        (season1_mean, trend, seasonal)
    }

    /// Restores from a serialized state.
    pub fn from_state(state: &ModelState) -> crate::Result<Self> {
        let (period, kind) = match state.spec {
            ModelSpec::HoltWinters { period, seasonal } => (period, seasonal),
            _ => {
                return Err(ForecastError::InvalidState(
                    "expected Holt-Winters state".into(),
                ))
            }
        };
        if state.params.len() != 3 || state.state.len() != 2 + period {
            return Err(ForecastError::InvalidState(
                "malformed Holt-Winters state".into(),
            ));
        }
        Ok(HoltWinters {
            alpha: state.params[0],
            beta: state.params[1],
            gamma: state.params[2],
            period,
            kind,
            level: state.state[0],
            trend: state.state[1],
            seasonal: state.state[2..].to_vec(),
            observations: state.observations,
        })
    }
}

impl Recursion for HoltWinters {
    #[inline]
    fn step(&mut self, v: f64) -> f64 {
        let (alpha, beta, gamma) = (self.alpha, self.beta, self.gamma);
        let si = self.observations % self.period;
        let s_old = self.seasonal[si];
        let prev_level = self.level;
        let base = self.level + self.trend;
        let predicted = match self.kind {
            SeasonalKind::Additive => {
                self.level = alpha * (v - s_old) + (1.0 - alpha) * base;
                self.trend = beta * (self.level - prev_level) + (1.0 - beta) * self.trend;
                self.seasonal[si] = gamma * (v - self.level) + (1.0 - gamma) * s_old;
                base + s_old
            }
            SeasonalKind::Multiplicative => {
                let s_safe = if s_old.abs() < 1e-9 { 1.0 } else { s_old };
                self.level = alpha * (v / s_safe) + (1.0 - alpha) * base;
                self.trend = beta * (self.level - prev_level) + (1.0 - beta) * self.trend;
                let l_safe = if self.level.abs() < 1e-9 {
                    1.0
                } else {
                    self.level
                };
                self.seasonal[si] = gamma * (v / l_safe) + (1.0 - gamma) * s_old;
                base * s_old
            }
        };
        self.observations += 1;
        predicted
    }
}

impl ForecastModel for HoltWinters {
    fn name(&self) -> &'static str {
        "holt-winters"
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        forecast_vec(self, horizon)
    }

    fn forecast_into(&self, out: &mut [f64]) {
        for (h, v) in (1usize..).zip(out) {
            let s = self.seasonal[(self.observations + h - 1) % self.period];
            *v = match self.kind {
                SeasonalKind::Additive => self.level + h as f64 * self.trend + s,
                SeasonalKind::Multiplicative => (self.level + h as f64 * self.trend) * s,
            };
        }
    }

    fn update(&mut self, value: f64) {
        self.step(value);
    }

    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()> {
        *self = Self::fit(series, self.period, self.kind, options)?;
        Ok(())
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.beta, self.gamma]
    }

    fn state(&self) -> ModelState {
        let mut state = vec![self.level, self.trend];
        state.extend_from_slice(&self.seasonal);
        ModelState {
            spec: ModelSpec::HoltWinters {
                period: self.period,
                seasonal: self.kind,
            },
            params: vec![self.alpha, self.beta, self.gamma],
            state,
            observations: self.observations,
        }
    }

    fn observations(&self) -> usize {
        self.observations
    }

    fn boxed_clone(&self) -> Box<dyn ForecastModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OptimizerKind;
    use crate::series::Granularity;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(values, Granularity::Monthly)
    }

    fn seasonal_series(n: usize, period: usize) -> TimeSeries {
        let values = (0..n)
            .map(|t| {
                100.0
                    + 0.5 * t as f64
                    + 20.0
                        * (2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64).sin()
            })
            .collect();
        ts(values)
    }

    #[test]
    fn ses_constant_series_forecasts_constant() {
        let model =
            SimpleExponentialSmoothing::fit(&ts(vec![5.0; 20]), &FitOptions::default()).unwrap();
        let fc = model.forecast(3);
        for v in fc {
            assert!((v - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ses_rejects_tiny_series() {
        assert!(matches!(
            SimpleExponentialSmoothing::fit(&ts(vec![1.0]), &FitOptions::default()),
            Err(ForecastError::SeriesTooShort { .. })
        ));
    }

    #[test]
    fn ses_update_matches_batch() {
        let values: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let full = SimpleExponentialSmoothing::with_params(&values, 0.4);
        let mut incremental = SimpleExponentialSmoothing::with_params(&values[..15], 0.4);
        for &v in &values[15..] {
            incremental.update(v);
        }
        assert!((incremental.level - full.level).abs() < 1e-12);
        assert_eq!(incremental.observations(), full.observations());
    }

    #[test]
    fn ses_high_alpha_tracks_last_value() {
        let model = SimpleExponentialSmoothing::with_params(&[1.0, 2.0, 3.0, 10.0], 0.99);
        assert!((model.forecast(1)[0] - 10.0).abs() < 0.2);
    }

    #[test]
    fn holt_recovers_linear_trend() {
        let values: Vec<f64> = (0..30).map(|t| 3.0 + 2.0 * t as f64).collect();
        let model = Holt::fit(&ts(values), &FitOptions::default()).unwrap();
        let fc = model.forecast(3);
        // Next values should continue the line: 63, 65, 67 (last value 61).
        assert!((fc[0] - 63.0).abs() < 0.5, "{fc:?}");
        assert!((fc[2] - 67.0).abs() < 1.0, "{fc:?}");
    }

    #[test]
    fn holt_update_matches_batch() {
        let values: Vec<f64> = (0..25).map(|t| t as f64 + (t as f64 * 0.3).cos()).collect();
        let full = Holt::with_params(&values, 0.5, 0.2);
        let mut incremental = Holt::with_params(&values[..20], 0.5, 0.2);
        for &v in &values[20..] {
            incremental.update(v);
        }
        assert!((incremental.level - full.level).abs() < 1e-12);
        assert!((incremental.trend - full.trend).abs() < 1e-12);
    }

    #[test]
    fn holt_winters_recovers_seasonal_pattern() {
        let series = seasonal_series(48, 12);
        let model =
            HoltWinters::fit(&series, 12, SeasonalKind::Additive, &FitOptions::default()).unwrap();
        // Forecast the next full season and compare against the generating
        // process.
        let fc = model.forecast(12);
        let truth: Vec<f64> = (48..60)
            .map(|t| {
                100.0
                    + 0.5 * t as f64
                    + 20.0 * (2.0 * std::f64::consts::PI * (t % 12) as f64 / 12.0).sin()
            })
            .collect();
        let err = crate::accuracy::smape(&truth, &fc);
        assert!(err < 0.05, "SMAPE {err} too high: {fc:?}");
    }

    #[test]
    fn holt_winters_multiplicative_on_positive_data() {
        let values: Vec<f64> = (0..36)
            .map(|t| (50.0 + t as f64) * (1.0 + 0.3 * ((t % 4) as f64 - 1.5) / 3.0))
            .collect();
        let model = HoltWinters::fit(
            &ts(values),
            4,
            SeasonalKind::Multiplicative,
            &FitOptions::default(),
        )
        .unwrap();
        assert!(model.forecast(4).iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn holt_winters_multiplicative_rejects_nonpositive() {
        let mut values = vec![1.0; 20];
        values[3] = 0.0;
        assert!(matches!(
            HoltWinters::fit(
                &ts(values),
                4,
                SeasonalKind::Multiplicative,
                &FitOptions::default()
            ),
            Err(ForecastError::InvalidParameter(_))
        ));
    }

    #[test]
    fn holt_winters_rejects_short_series_and_tiny_period() {
        assert!(matches!(
            HoltWinters::fit(
                &ts(vec![1.0; 8]),
                4,
                SeasonalKind::Additive,
                &FitOptions::default()
            ),
            Err(ForecastError::SeriesTooShort { .. })
        ));
        assert!(matches!(
            HoltWinters::fit(
                &ts(vec![1.0; 8]),
                1,
                SeasonalKind::Additive,
                &FitOptions::default()
            ),
            Err(ForecastError::InvalidParameter(_))
        ));
    }

    #[test]
    fn holt_winters_update_matches_batch() {
        let series = seasonal_series(40, 4);
        let x = series.values();
        let full = HoltWinters::with_params(x, 4, SeasonalKind::Additive, 0.4, 0.1, 0.2);
        let mut incr = HoltWinters::with_params(&x[..32], 4, SeasonalKind::Additive, 0.4, 0.1, 0.2);
        for &v in &x[32..] {
            incr.update(v);
        }
        assert!((incr.level - full.level).abs() < 1e-9);
        assert!((incr.trend - full.trend).abs() < 1e-9);
        for (a, b) in incr.seasonal.iter().zip(&full.seasonal) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn holt_winters_state_round_trip() {
        let series = seasonal_series(36, 12);
        let model =
            HoltWinters::fit(&series, 12, SeasonalKind::Additive, &FitOptions::default()).unwrap();
        let restored = HoltWinters::from_state(&model.state()).unwrap();
        assert_eq!(restored.forecast(6), model.forecast(6));
    }

    #[test]
    fn from_state_rejects_wrong_spec() {
        let series = seasonal_series(36, 12);
        let model = Holt::fit(&series, &FitOptions::default()).unwrap();
        assert!(HoltWinters::from_state(&model.state()).is_err());
        assert!(SimpleExponentialSmoothing::from_state(&model.state()).is_err());
    }

    #[test]
    fn all_optimizers_fit_holt_winters() {
        let series = seasonal_series(48, 4);
        for optimizer in [
            OptimizerKind::NelderMead,
            OptimizerKind::HillClimbing,
            OptimizerKind::SimulatedAnnealing,
        ] {
            let opts = FitOptions {
                optimizer,
                ..FitOptions::default()
            };
            let model = HoltWinters::fit(&series, 4, SeasonalKind::Additive, &opts).unwrap();
            let fc = model.forecast(4);
            assert!(fc.iter().all(|v| v.is_finite()), "{optimizer:?}: {fc:?}");
        }
    }

    #[test]
    fn damped_holt_flattens_at_long_horizons() {
        let values: Vec<f64> = (0..40).map(|t| 10.0 + 2.0 * t as f64).collect();
        let m = DampedHolt::with_params(&values, 0.5, 0.2, 0.8);
        let fc = m.forecast(200);
        // With damping, increments shrink geometrically: the last steps
        // are nearly flat while the first step still moves.
        let first_step = fc[1] - fc[0];
        let last_step = fc[199] - fc[198];
        assert!(last_step.abs() < first_step.abs() * 0.01);
        // The limit is level + φ/(1−φ)·trend — finite.
        assert!(fc[199].is_finite());
        // An undamped Holt keeps climbing linearly by comparison.
        let plain = Holt::with_params(&values, 0.5, 0.2);
        assert!(plain.forecast(200)[199] > fc[199]);
    }

    #[test]
    fn damped_holt_fits_and_round_trips() {
        let values: Vec<f64> = (0..30).map(|t| 50.0 + 1.5 * t as f64).collect();
        let series = ts(values);
        let m = DampedHolt::fit(&series, &FitOptions::default()).unwrap();
        let (a, b, p) = m.parameters();
        assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b));
        assert!((0.7..=0.99).contains(&p));
        let restored = DampedHolt::from_state(&m.state()).unwrap();
        assert_eq!(restored.forecast(6), m.forecast(6));
        assert!(DampedHolt::from_state(
            &Holt::fit(&series, &FitOptions::default()).unwrap().state()
        )
        .is_err());
    }

    #[test]
    fn damped_holt_update_matches_batch() {
        let values: Vec<f64> = (0..25).map(|t| t as f64 + (t as f64 * 0.4).sin()).collect();
        let full = DampedHolt::with_params(&values, 0.4, 0.2, 0.85);
        let mut incr = DampedHolt::with_params(&values[..20], 0.4, 0.2, 0.85);
        for &v in &values[20..] {
            incr.update(v);
        }
        assert!((incr.level - full.level).abs() < 1e-12);
        assert!((incr.trend - full.trend).abs() < 1e-12);
    }

    #[test]
    fn refit_replaces_parameters() {
        let series = seasonal_series(48, 4);
        let mut model =
            HoltWinters::with_params(series.values(), 4, SeasonalKind::Additive, 0.9, 0.9, 0.9);
        model
            .refit(&series, &FitOptions::default())
            .expect("refit succeeds");
        let (a, b, g) = model.parameters();
        // Fitted parameters should differ from the deliberately bad fixed ones.
        assert!(a != 0.9 || b != 0.9 || g != 0.9);
    }
}
