//! ARIMA and seasonal ARIMA models estimated by conditional sum of
//! squares (CSS).
//!
//! The seasonal model is
//!
//! ```text
//! φ(B) Φ(Bˢ) (1−B)ᵈ (1−Bˢ)ᴰ x_t = θ(B) Θ(Bˢ) ε_t
//! ```
//!
//! Both lag polynomials are expanded into plain ARMA coefficient vectors
//! over the differenced, mean-centered series `w_t`, residuals are
//! computed with the conditional recursion (pre-sample values treated as
//! zero), and the raw coefficients are estimated by grid-seeded numerical
//! optimization (§IV-B.1 of the paper: parameter estimation "involves
//! numerical optimization methods that iterate several times over the
//! data").
//!
//! Incremental maintenance (needed by F²DB, §V) keeps per-stage
//! differencing ring buffers plus short histories of `w` and residuals, so
//! absorbing one new observation is `O(p + q + d + D·s)`.
//!
//! A non-seasonal ARIMA(p, d, q) is the [`Sarima`] of
//! [`SeasonalOrder::none`]; the model keeps the [`ModelSpec`] it was
//! fitted from, so its state and name still say `Arima`.

use crate::model::{FitOptions, ForecastError, ForecastModel, ModelSpec, ModelState};
use crate::optimize::{self, FnObjective, GridSearch, Optimizer};
use crate::series::TimeSeries;

/// Bound for individual AR/MA coefficients; keeps the recursions stable
/// while covering virtually all practically identified models.
const COEF_BOUND: (f64, f64) = (-0.95, 0.95);

/// Non-seasonal order (p, d, q).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArimaOrder {
    /// Autoregressive order.
    pub p: usize,
    /// Degree of regular differencing.
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

impl ArimaOrder {
    /// Creates an order triple.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        ArimaOrder { p, d, q }
    }
}

/// Seasonal order (P, D, Q) with period `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeasonalOrder {
    /// Seasonal autoregressive order.
    pub p: usize,
    /// Degree of seasonal differencing.
    pub d: usize,
    /// Seasonal moving-average order.
    pub q: usize,
    /// Seasonal period (1 disables all seasonal terms).
    pub period: usize,
}

impl SeasonalOrder {
    /// Creates a seasonal order.
    pub fn new(p: usize, d: usize, q: usize, period: usize) -> Self {
        SeasonalOrder { p, d, q, period }
    }

    /// The all-zero seasonal order (plain ARIMA).
    pub fn none() -> Self {
        SeasonalOrder {
            p: 0,
            d: 0,
            q: 0,
            period: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Differencing pipeline
// ---------------------------------------------------------------------------

/// One differencing stage `(1 − B^lag)` with a ring buffer of the last
/// `lag` stage inputs, enabling both incremental differencing of new
/// observations and integration of forecasts.
#[derive(Debug, Clone, PartialEq)]
struct DiffStage {
    lag: usize,
    /// Ring buffer of the last `lag` inputs; `pos` indexes the oldest.
    buffer: Vec<f64>,
    pos: usize,
}

impl DiffStage {
    fn new(lag: usize, last_inputs: &[f64]) -> Self {
        debug_assert_eq!(last_inputs.len(), lag);
        DiffStage {
            lag,
            buffer: last_inputs.to_vec(),
            pos: 0,
        }
    }

    /// Feeds one input, returning the differenced output.
    fn push(&mut self, z: f64) -> f64 {
        let old = self.buffer[self.pos];
        self.buffer[self.pos] = z;
        self.pos = (self.pos + 1) % self.lag;
        z - old
    }

    /// Buffer contents in chronological order (oldest first).
    fn chronological(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.lag);
        for i in 0..self.lag {
            out.push(self.buffer[(self.pos + i) % self.lag]);
        }
        out
    }
}

/// The full differencing pipeline: `D` seasonal stages followed by `d`
/// regular stages.
#[derive(Debug, Clone, PartialEq)]
struct Differencer {
    stages: Vec<DiffStage>,
}

impl Differencer {
    /// Batch-differences `x`, returning the differenced series `w` and the
    /// pipeline primed with the tail of `x` for incremental use.
    fn batch(x: &[f64], d: usize, seasonal_d: usize, period: usize) -> Option<(Vec<f64>, Self)> {
        let mut lags = vec![period; seasonal_d];
        lags.extend(std::iter::repeat_n(1, d));
        let total: usize = lags.iter().sum();
        if x.len() <= total {
            return None;
        }
        let mut current = x.to_vec();
        let mut stages = Vec::with_capacity(lags.len());
        for lag in lags {
            let next: Vec<f64> = (lag..current.len())
                .map(|t| current[t] - current[t - lag])
                .collect();
            stages.push(DiffStage::new(lag, &current[current.len() - lag..]));
            current = next;
        }
        Some((current, Differencer { stages }))
    }

    /// Incrementally differences one new raw observation.
    fn push(&mut self, x: f64) -> f64 {
        let mut z = x;
        for stage in &mut self.stages {
            z = stage.push(z);
        }
        z
    }

    /// Integrates `w_forecasts` back to the original scale using the
    /// buffered stage tails (without mutating the pipeline).
    fn integrate(&self, w_forecasts: &[f64]) -> Vec<f64> {
        let mut current = w_forecasts.to_vec();
        for stage in self.stages.iter().rev() {
            let mut hist = stage.chronological();
            let lag = stage.lag;
            let mut out = Vec::with_capacity(current.len());
            for &w in &current {
                let z = w + hist[hist.len() - lag];
                hist.push(z);
                out.push(z);
            }
            current = out;
        }
        current
    }

    /// Flattens all stage buffers (chronological per stage) for storage.
    fn flatten(&self) -> Vec<f64> {
        self.stages.iter().flat_map(|s| s.chronological()).collect()
    }

    /// Rebuilds the pipeline from flattened buffers.
    fn restore(d: usize, seasonal_d: usize, period: usize, flat: &[f64]) -> Option<Self> {
        let mut lags = vec![period; seasonal_d];
        lags.extend(std::iter::repeat_n(1, d));
        if flat.len() != lags.iter().sum::<usize>() {
            return None;
        }
        let mut stages = Vec::new();
        let mut off = 0;
        for lag in lags {
            stages.push(DiffStage::new(lag, &flat[off..off + lag]));
            off += lag;
        }
        Some(Differencer { stages })
    }
}

// ---------------------------------------------------------------------------
// Polynomial expansion
// ---------------------------------------------------------------------------

/// Expands `(1 − Σ cᵢ Bⁱ)(1 − Σ Cⱼ B^{s·j})` into the coefficient vector
/// `a` such that the product equals `1 − Σ a_k B^k` (AR convention).
fn expand_ar(nonseasonal: &[f64], seasonal: &[f64], period: usize) -> Vec<f64> {
    expand(nonseasonal, seasonal, period, -1.0)
}

/// Expands `(1 + Σ cᵢ Bⁱ)(1 + Σ Cⱼ B^{s·j})` into `b` such that the
/// product equals `1 + Σ b_k B^k` (MA convention).
fn expand_ma(nonseasonal: &[f64], seasonal: &[f64], period: usize) -> Vec<f64> {
    expand(nonseasonal, seasonal, period, 1.0)
}

/// Shared expansion: builds full polynomials with constant term 1 and
/// signed lag coefficients, convolves them, then extracts the lag
/// coefficients back with the same sign convention.
fn expand(nonseasonal: &[f64], seasonal: &[f64], period: usize, sign: f64) -> Vec<f64> {
    let n1 = nonseasonal.len();
    let n2 = seasonal.len() * period;
    let mut poly1 = vec![0.0; n1 + 1];
    poly1[0] = 1.0;
    for (i, &c) in nonseasonal.iter().enumerate() {
        poly1[i + 1] = sign * c;
    }
    let mut poly2 = vec![0.0; n2 + 1];
    poly2[0] = 1.0;
    for (j, &c) in seasonal.iter().enumerate() {
        poly2[(j + 1) * period] = sign * c;
    }
    // Convolution.
    let mut prod = vec![0.0; n1 + n2 + 1];
    for (i, &a) in poly1.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (j, &b) in poly2.iter().enumerate() {
            prod[i + j] += a * b;
        }
    }
    prod[1..].iter().map(|&v| sign * v).collect()
}

/// Conditional residual recursion shared by fitting, state priming and
/// scoring. `w` must already be mean-centered. Returns residuals (same
/// length as `w`).
fn css_residuals(w: &[f64], ar: &[f64], ma: &[f64]) -> Vec<f64> {
    let n = w.len();
    let mut e = vec![0.0; n];
    for t in 0..n {
        let mut pred = 0.0;
        for (i, &a) in ar.iter().enumerate() {
            if t > i {
                pred += a * w[t - i - 1];
            }
        }
        for (j, &b) in ma.iter().enumerate() {
            if t > j {
                pred += b * e[t - j - 1];
            }
        }
        e[t] = w[t] - pred;
    }
    e
}

fn css_objective(w: &[f64], ar: &[f64], ma: &[f64]) -> f64 {
    let e = css_residuals(w, ar, ma);
    let skip = ar.len().min(w.len());
    let count = (w.len() - skip).max(1);
    e[skip..].iter().map(|v| v * v).sum::<f64>() / count as f64
}

// ---------------------------------------------------------------------------
// Sarima
// ---------------------------------------------------------------------------

/// The orders of an ARIMA or SARIMA spec, a plain ARIMA's seasonal
/// order being [`SeasonalOrder::none`]; `None` for any other family.
fn orders(spec: &ModelSpec) -> Option<(ArimaOrder, SeasonalOrder)> {
    match *spec {
        ModelSpec::Arima { p, d, q } => Some((ArimaOrder::new(p, d, q), SeasonalOrder::none())),
        ModelSpec::Sarima {
            order,
            seasonal,
            period,
        } => Some((
            ArimaOrder::new(order.0, order.1, order.2),
            SeasonalOrder::new(seasonal.0, seasonal.1, seasonal.2, period),
        )),
        _ => None,
    }
}

/// Seasonal ARIMA model, and the non-seasonal ARIMA as its
/// all-zero seasonal order.
#[derive(Debug, Clone, PartialEq)]
pub struct Sarima {
    /// The `Arima` or `Sarima` spec the model was fitted from.
    spec: ModelSpec,
    order: ArimaOrder,
    seasonal: SeasonalOrder,
    /// Raw coefficients: φ (p), Φ (P), θ (q), Θ (Q).
    raw: Vec<f64>,
    /// Expanded AR coefficients over w.
    ar: Vec<f64>,
    /// Expanded MA coefficients over w.
    ma: Vec<f64>,
    /// Mean of the differenced training series (centering constant).
    mean: f64,
    differencer: Differencer,
    /// Recent centered w values, chronological, length = ar.len().
    recent_w: Vec<f64>,
    /// Recent residuals, chronological, length = ma.len().
    recent_e: Vec<f64>,
    observations: usize,
}

impl Sarima {
    /// Fits a SARIMA model by grid-seeded CSS minimization.
    pub fn fit(
        series: &TimeSeries,
        order: ArimaOrder,
        seasonal: SeasonalOrder,
        options: &FitOptions,
    ) -> crate::Result<Self> {
        let spec = ModelSpec::Sarima {
            order: (order.p, order.d, order.q),
            seasonal: (seasonal.p, seasonal.d, seasonal.q),
            period: seasonal.period,
        };
        Self::fit_spec(&spec, series, options)
    }

    /// Fits an `Arima` or `Sarima` spec by grid-seeded CSS minimization;
    /// the model reports `spec` as its own.
    pub(crate) fn fit_spec(
        spec: &ModelSpec,
        series: &TimeSeries,
        options: &FitOptions,
    ) -> crate::Result<Self> {
        let (order, seasonal) = orders(spec).ok_or_else(|| {
            ForecastError::InvalidParameter(format!("{spec:?} is not an ARIMA spec"))
        })?;
        if seasonal.period == 0 {
            return Err(ForecastError::InvalidParameter(
                "seasonal period must be at least 1".into(),
            ));
        }
        if (seasonal.p > 0 || seasonal.d > 0 || seasonal.q > 0) && seasonal.period < 2 {
            return Err(ForecastError::InvalidParameter(
                "seasonal terms require a period of at least 2".into(),
            ));
        }
        let x = series.values();
        let total_diff = order.d + seasonal.d * seasonal.period;
        let ar_len = order.p + seasonal.p * seasonal.period;
        let ma_len = order.q + seasonal.q * seasonal.period;
        let required = total_diff + ar_len + ma_len + 4;
        if x.len() < required {
            return Err(ForecastError::SeriesTooShort {
                required,
                got: x.len(),
            });
        }

        let (w_raw, differencer) = Differencer::batch(x, order.d, seasonal.d, seasonal.period)
            .ok_or(ForecastError::SeriesTooShort {
                required,
                got: x.len(),
            })?;
        let mean = w_raw.iter().sum::<f64>() / w_raw.len() as f64;
        let w: Vec<f64> = w_raw.iter().map(|v| v - mean).collect();

        let dim = order.p + seasonal.p + order.q + seasonal.q;
        let raw = if dim == 0 {
            Vec::new()
        } else {
            let obj = FnObjective::new(vec![COEF_BOUND; dim], |params| {
                let (ar, ma) = Self::expand_params(params, order, seasonal);
                css_objective(&w, &ar, &ma)
            });
            // Coarse grid seed, finer for low dimensions.
            let points = if dim <= 2 { 7 } else { 3 };
            let seed = GridSearch {
                points_per_dim: points,
            }
            .minimize(&obj, &vec![0.0; dim]);
            let refined = optimize::minimize(options, &obj, &seed.x);
            if refined.value.is_finite() {
                refined.x
            } else {
                return Err(ForecastError::EstimationFailed(
                    "CSS objective diverged for all candidate parameters".into(),
                ));
            }
        };

        let (ar, ma) = Self::expand_params(&raw, order, seasonal);
        let e = css_residuals(&w, &ar, &ma);
        let recent_w = tail(&w, ar.len());
        let recent_e = tail(&e, ma.len());

        Ok(Sarima {
            spec: spec.clone(),
            order,
            seasonal,
            raw,
            ar,
            ma,
            mean,
            differencer,
            recent_w,
            recent_e,
            observations: x.len(),
        })
    }

    fn expand_params(
        raw: &[f64],
        order: ArimaOrder,
        seasonal: SeasonalOrder,
    ) -> (Vec<f64>, Vec<f64>) {
        let (phi, rest) = raw.split_at(order.p);
        let (cap_phi, rest) = rest.split_at(seasonal.p);
        let (theta, cap_theta) = rest.split_at(order.q);
        let ar = expand_ar(phi, cap_phi, seasonal.period);
        let ma = expand_ma(theta, cap_theta, seasonal.period);
        (ar, ma)
    }

    /// Non-seasonal order.
    pub fn order(&self) -> ArimaOrder {
        self.order
    }

    /// Raw (unexpanded) coefficient estimates.
    pub fn raw_params(&self) -> &[f64] {
        &self.raw
    }

    /// Restores from serialized state.
    pub fn from_state(state: &ModelState) -> crate::Result<Self> {
        let (order, seasonal) = orders(&state.spec)
            .ok_or_else(|| ForecastError::InvalidState("expected (S)ARIMA state".into()))?;
        let dim = order.p + seasonal.p + order.q + seasonal.q;
        if state.params.len() != dim {
            return Err(ForecastError::InvalidState(
                "parameter count mismatch".into(),
            ));
        }
        let (ar, ma) = Self::expand_params(&state.params, order, seasonal);
        let ar_len = ar.len();
        let ma_len = ma.len();
        let diff_len = order.d + seasonal.d * seasonal.period;
        let expected = 1 + ar_len + ma_len + diff_len;
        if state.state.len() != expected {
            return Err(ForecastError::InvalidState(format!(
                "state length mismatch: expected {expected}, got {}",
                state.state.len()
            )));
        }
        let mean = state.state[0];
        let recent_w = state.state[1..1 + ar_len].to_vec();
        let recent_e = state.state[1 + ar_len..1 + ar_len + ma_len].to_vec();
        let flat = &state.state[1 + ar_len + ma_len..];
        let differencer = Differencer::restore(order.d, seasonal.d, seasonal.period, flat)
            .ok_or_else(|| ForecastError::InvalidState("bad differencer buffers".into()))?;
        Ok(Sarima {
            spec: state.spec.clone(),
            order,
            seasonal,
            raw: state.params.clone(),
            ar,
            ma,
            mean,
            differencer,
            recent_w,
            recent_e,
            observations: state.observations,
        })
    }
}

fn tail(v: &[f64], n: usize) -> Vec<f64> {
    if n == 0 {
        Vec::new()
    } else if v.len() >= n {
        v[v.len() - n..].to_vec()
    } else {
        // Pad the front with zeros (conditional convention).
        let mut out = vec![0.0; n - v.len()];
        out.extend_from_slice(v);
        out
    }
}

fn shift_push(buf: &mut [f64], v: f64) {
    if buf.is_empty() {
        return;
    }
    buf.copy_within(1.., 0);
    *buf.last_mut().expect("non-empty") = v;
}

impl ForecastModel for Sarima {
    fn name(&self) -> &'static str {
        match self.spec {
            ModelSpec::Arima { .. } => "arima",
            _ => "sarima",
        }
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        // Forecast recursion on the centered differenced series with
        // future shocks set to zero.
        let mut w_ext = self.recent_w.clone();
        let e_hist = &self.recent_e;
        let mut w_forecasts = Vec::with_capacity(horizon);
        for k in 0..horizon {
            let mut pred = 0.0;
            for (i, &a) in self.ar.iter().enumerate() {
                // Value i+1 steps back from the point being forecast.
                let idx = w_ext.len() as isize - 1 - i as isize;
                if idx >= 0 {
                    pred += a * w_ext[idx as usize];
                }
            }
            for (j, &b) in self.ma.iter().enumerate() {
                // Residuals are only known for the historical part.
                let steps_back = j + 1;
                if steps_back > k {
                    let hist_idx = e_hist.len() as isize - (steps_back - k) as isize;
                    if hist_idx >= 0 {
                        pred += b * e_hist[hist_idx as usize];
                    }
                }
            }
            if !pred.is_finite() {
                pred = 0.0;
            }
            w_ext.push(pred);
            w_forecasts.push(pred + self.mean);
        }
        let mut out = self.differencer.integrate(&w_forecasts);
        for v in &mut out {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        out
    }

    fn update(&mut self, value: f64) {
        let w = self.differencer.push(value) - self.mean;
        let mut pred = 0.0;
        for (i, &a) in self.ar.iter().enumerate() {
            let idx = self.recent_w.len() as isize - 1 - i as isize;
            if idx >= 0 {
                pred += a * self.recent_w[idx as usize];
            }
        }
        for (j, &b) in self.ma.iter().enumerate() {
            let idx = self.recent_e.len() as isize - 1 - j as isize;
            if idx >= 0 {
                pred += b * self.recent_e[idx as usize];
            }
        }
        let e = w - pred;
        shift_push(&mut self.recent_w, w);
        shift_push(&mut self.recent_e, e);
        self.observations += 1;
    }

    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()> {
        *self = Self::fit_spec(&self.spec, series, options)?;
        Ok(())
    }

    fn params(&self) -> Vec<f64> {
        self.raw.clone()
    }

    fn state(&self) -> ModelState {
        let mut state = vec![self.mean];
        state.extend_from_slice(&self.recent_w);
        state.extend_from_slice(&self.recent_e);
        state.extend(self.differencer.flatten());
        ModelState {
            spec: self.spec.clone(),
            params: self.raw.clone(),
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
    use crate::series::Granularity;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(values, Granularity::Monthly)
    }

    /// Fits `ModelSpec::Arima` of order (p, d, q) with default options.
    fn arima(series: &TimeSeries, p: usize, d: usize, q: usize) -> crate::Result<Sarima> {
        Sarima::fit_spec(
            &ModelSpec::Arima { p, d, q },
            series,
            &FitOptions::default(),
        )
    }

    // -- differencing --------------------------------------------------------

    #[test]
    fn batch_differencing_matches_manual() {
        let x = [1.0, 3.0, 6.0, 10.0, 15.0];
        let (w, _) = Differencer::batch(&x, 1, 0, 1).unwrap();
        assert_eq!(w, vec![2.0, 3.0, 4.0, 5.0]);
        let (w2, _) = Differencer::batch(&x, 2, 0, 1).unwrap();
        assert_eq!(w2, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn seasonal_differencing_matches_manual() {
        let x = [1.0, 2.0, 3.0, 5.0, 7.0, 9.0];
        let (w, _) = Differencer::batch(&x, 0, 1, 3).unwrap();
        assert_eq!(w, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn incremental_differencing_matches_batch() {
        let x: Vec<f64> = (0..20)
            .map(|t| (t as f64).powi(2) * 0.1 + t as f64)
            .collect();
        let (w_full, _) = Differencer::batch(&x, 1, 1, 4).unwrap();
        let (_, mut diff) = Differencer::batch(&x[..15], 1, 1, 4).unwrap();
        let mut incr = Vec::new();
        for &v in &x[15..] {
            incr.push(diff.push(v));
        }
        assert_eq!(&w_full[w_full.len() - 5..], incr.as_slice());
    }

    #[test]
    fn integration_inverts_differencing() {
        let x: Vec<f64> = (0..24)
            .map(|t| 5.0 + t as f64 * 2.0 + ((t % 4) as f64))
            .collect();
        // Difference the first 20, then "forecast" the true differenced
        // values of the last 4 and integrate: must reproduce x exactly.
        let (w_all, _) = Differencer::batch(&x, 1, 1, 4).unwrap();
        let (_, diff) = Differencer::batch(&x[..20], 1, 1, 4).unwrap();
        let future_w = &w_all[w_all.len() - 4..];
        let rebuilt = diff.integrate(future_w);
        for (a, b) in rebuilt.iter().zip(&x[20..]) {
            assert!((a - b).abs() < 1e-9, "{rebuilt:?} vs {:?}", &x[20..]);
        }
    }

    #[test]
    fn differencing_requires_enough_data() {
        assert!(Differencer::batch(&[1.0, 2.0], 2, 0, 1).is_none());
    }

    // -- polynomial expansion -------------------------------------------------

    #[test]
    fn ar_expansion_includes_cross_terms() {
        // (1 − 0.5B)(1 − 0.4B²) = 1 − 0.5B − 0.4B² + 0.2B³
        let a = expand_ar(&[0.5], &[0.4], 2);
        assert_eq!(a.len(), 3);
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[1] - 0.4).abs() < 1e-12);
        assert!((a[2] + 0.2).abs() < 1e-12);
    }

    #[test]
    fn ma_expansion_includes_cross_terms() {
        // (1 + 0.5B)(1 + 0.4B²) = 1 + 0.5B + 0.4B² + 0.2B³
        let b = expand_ma(&[0.5], &[0.4], 2);
        assert!((b[0] - 0.5).abs() < 1e-12);
        assert!((b[1] - 0.4).abs() < 1e-12);
        assert!((b[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn expansion_without_seasonal_is_identity() {
        let a = expand_ar(&[0.7, -0.2], &[], 4);
        assert_eq!(a, vec![0.7, -0.2]);
    }

    // -- residual recursion ----------------------------------------------------

    #[test]
    fn residuals_of_white_noise_under_null_model() {
        let w = [1.0, -0.5, 0.25, 0.7];
        let e = css_residuals(&w, &[], &[]);
        assert_eq!(e, w.to_vec());
    }

    #[test]
    fn residuals_of_pure_ar1() {
        // w_t = 0.5 w_{t-1} exactly → residuals all 0 after t=0.
        let mut w = vec![1.0];
        for t in 1..10 {
            let prev = w[t - 1];
            w.push(0.5 * prev);
        }
        let e = css_residuals(&w, &[0.5], &[]);
        for &v in &e[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    // -- model fitting ----------------------------------------------------------

    /// Deterministic AR(1) series driven by LCG white noise so the test is
    /// reproducible without depending on `rand`.
    fn ar1_series(n: usize, phi: f64) -> TimeSeries {
        let mut values = vec![10.0];
        let mut state = 0x1234_5678_9abc_def0_u64;
        for t in 1..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let prev = values[t - 1];
            values.push(10.0 + phi * (prev - 10.0) + noise);
        }
        ts(values)
    }

    #[test]
    fn ar1_coefficient_recovered() {
        let series = ar1_series(200, 0.7);
        let model = arima(&series, 1, 0, 0).unwrap();
        let phi = model.raw_params()[0];
        assert!((phi - 0.7).abs() < 0.15, "estimated φ = {phi}");
    }

    #[test]
    fn random_walk_arima010_forecasts_near_last_value() {
        let values: Vec<f64> = (0..30).map(|t| 100.0 + t as f64).collect();
        let model = arima(&ts(values), 0, 1, 0).unwrap();
        let fc = model.forecast(3);
        // Drift = mean of differences = 1 → forecasts 130, 131, 132.
        assert!((fc[0] - 130.0).abs() < 1e-6, "{fc:?}");
        assert!((fc[2] - 132.0).abs() < 1e-6, "{fc:?}");
    }

    #[test]
    fn sarima_fits_seasonal_series() {
        let values: Vec<f64> = (0..60)
            .map(|t| 50.0 + ((t % 4) as f64) * 10.0 + t as f64 * 0.2)
            .collect();
        let model = Sarima::fit(
            &ts(values.clone()),
            ArimaOrder::new(0, 1, 0),
            SeasonalOrder::new(0, 1, 0, 4),
            &FitOptions::default(),
        )
        .unwrap();
        let fc = model.forecast(4);
        let truth: Vec<f64> = (60..64)
            .map(|t| 50.0 + ((t % 4) as f64) * 10.0 + t as f64 * 0.2)
            .collect();
        for (f, t) in fc.iter().zip(&truth) {
            assert!((f - t).abs() < 1.0, "{fc:?} vs {truth:?}");
        }
    }

    #[test]
    fn fit_rejects_short_series() {
        assert!(matches!(
            arima(&ts(vec![1.0; 4]), 2, 1, 2),
            Err(ForecastError::SeriesTooShort { .. })
        ));
    }

    #[test]
    fn fit_rejects_zero_period() {
        assert!(Sarima::fit(
            &ts(vec![1.0; 50]),
            ArimaOrder::new(1, 0, 0),
            SeasonalOrder::new(1, 0, 0, 0),
            &FitOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn update_matches_refitted_residual_path() {
        let series = ar1_series(100, 0.6);
        let mut model = arima(&series, 1, 0, 1).unwrap();
        let before = model.observations();
        model.update(12.0);
        model.update(11.5);
        assert_eq!(model.observations(), before + 2);
        assert!(model.forecast(3).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn update_shifts_known_state_correctly() {
        // Hand-checkable ARIMA(1,0,0) with φ=0.5, mean 0 via symmetric data.
        let series = ts(vec![0.0, 1.0, -1.0, 2.0, -2.0, 1.0, -1.0, 0.0, 0.0, 0.0]);
        let mut model = arima(&series, 1, 0, 0).unwrap();
        let phi = model.raw_params()[0];
        let mean = model.mean;
        let w_last = model.recent_w[0];
        model.update(3.0);
        let expected_w = 3.0 - mean;
        assert!((model.recent_w[0] - expected_w).abs() < 1e-12);
        // One-step forecast should be mean + φ·w_new (integration is identity
        // for d=0).
        let fc = model.forecast(1)[0];
        assert!((fc - (mean + phi * expected_w)).abs() < 1e-9);
        let _ = w_last;
    }

    #[test]
    fn sarima_state_round_trip() {
        let values: Vec<f64> = (0..60)
            .map(|t| 50.0 + ((t % 4) as f64) * 10.0 + t as f64 * 0.2)
            .collect();
        let model = Sarima::fit(
            &ts(values),
            ArimaOrder::new(1, 1, 1),
            SeasonalOrder::new(0, 1, 0, 4),
            &FitOptions::default(),
        )
        .unwrap();
        let restored = Sarima::from_state(&model.state()).unwrap();
        assert_eq!(restored.forecast(8), model.forecast(8));
        // Restored model must also keep evolving identically.
        let mut a = model.clone();
        let mut b = restored;
        a.update(55.0);
        b.update(55.0);
        assert_eq!(a.forecast(4), b.forecast(4));
    }

    #[test]
    fn arima_state_round_trip() {
        let series = ar1_series(80, 0.5);
        let model = arima(&series, 1, 0, 1).unwrap();
        let restored = Sarima::from_state(&model.state()).unwrap();
        assert_eq!(restored.forecast(5), model.forecast(5));
        assert_eq!(restored.state().spec, ModelSpec::Arima { p: 1, d: 0, q: 1 });
        assert_eq!(restored.name(), "arima");
    }

    #[test]
    fn from_state_rejects_mismatched_spec() {
        let series = ar1_series(80, 0.5);
        let model = arima(&series, 1, 0, 0).unwrap();
        let holt = crate::smoothing::Holt::fit(&series, &FitOptions::default()).unwrap();
        assert!(Sarima::from_state(&holt.state()).is_err());
        let mut bad = model.state();
        bad.state.pop();
        assert!(Sarima::from_state(&bad).is_err());
    }

    #[test]
    fn forecasts_are_finite_even_for_boundary_parameters() {
        // Construct the state directly with extreme-but-bounded φ.
        let series = ar1_series(60, 0.9);
        let model = arima(&series, 2, 1, 2).unwrap();
        let fc = model.forecast(50);
        assert!(fc.iter().all(|v| v.is_finite()));
    }
}
