//! Forecast accuracy measures.
//!
//! The paper's evaluation metric is the **symmetric mean absolute
//! percentage error** (SMAPE, Eq. 4) — scale-independent and bounded in
//! `[0, 1]`, "making it easily comparable" (§II-D). The remaining measures
//! are the conventional alternatives from Hyndman & Koehler, *Another look
//! at measures of forecast accuracy* \[18\], provided for tests and for
//! users who prefer scale-dependent diagnostics.

/// Which accuracy measure to use when scoring forecasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccuracyMeasure {
    /// Symmetric mean absolute percentage error (the paper's measure).
    Smape,
    /// Mean absolute percentage error.
    Mape,
    /// Mean absolute error.
    Mae,
    /// Root mean squared error.
    Rmse,
}

impl AccuracyMeasure {
    /// Scores `forecast` against `actual` with the selected measure.
    pub fn score(self, actual: &[f64], forecast: &[f64]) -> f64 {
        if actual.is_empty() {
            return 0.0;
        }
        let sum: f64 = paired(actual, forecast)
            .map(|(x, f)| self.point_error(x, f))
            .sum();
        self.from_sum(sum, actual.len())
    }

    /// One pair's term of the measure: [`AccuracyMeasure::score`] is
    /// [`AccuracyMeasure::from_sum`] of these terms summed in order, so a
    /// caller that produces the forecast on the fly scores it without
    /// storing it.
    #[inline]
    pub fn point_error(self, x: f64, f: f64) -> f64 {
        match self {
            AccuracyMeasure::Smape => {
                let denom = (x + f).abs();
                if denom < f64::EPSILON {
                    0.0
                } else {
                    (x - f).abs() / denom
                }
            }
            AccuracyMeasure::Mape => {
                if x.abs() < f64::EPSILON {
                    0.0
                } else {
                    ((x - f) / x).abs()
                }
            }
            AccuracyMeasure::Mae => (x - f).abs(),
            AccuracyMeasure::Rmse => (x - f) * (x - f),
        }
    }

    /// The measure over `n ≥ 1` pairs whose point errors sum to `sum`.
    #[inline]
    pub fn from_sum(self, sum: f64, n: usize) -> f64 {
        let mean = sum / n as f64;
        match self {
            AccuracyMeasure::Rmse => mean.sqrt(),
            _ => mean,
        }
    }
}

fn paired<'a>(actual: &'a [f64], forecast: &'a [f64]) -> impl Iterator<Item = (f64, f64)> + 'a {
    debug_assert_eq!(
        actual.len(),
        forecast.len(),
        "actual and forecast lengths must match"
    );
    actual.iter().copied().zip(forecast.iter().copied())
}

/// Symmetric mean absolute percentage error — Eq. (4) of the paper:
///
/// ```text
/// SMAPE = mean( |x_t − x̂_t| / (x_t + x̂_t) )
/// ```
///
/// Pairs where `x_t + x̂_t` is zero (both values zero for a non-negative
/// measure) contribute a zero error, keeping the measure defined on sparse
/// cube cells. Returns 0 for empty input.
pub fn smape(actual: &[f64], forecast: &[f64]) -> f64 {
    AccuracyMeasure::Smape.score(actual, forecast)
}

/// Mean absolute percentage error. Zero actual values contribute zero to
/// keep the measure finite on sparse data.
pub fn mape(actual: &[f64], forecast: &[f64]) -> f64 {
    AccuracyMeasure::Mape.score(actual, forecast)
}

/// Mean absolute error.
pub fn mae(actual: &[f64], forecast: &[f64]) -> f64 {
    AccuracyMeasure::Mae.score(actual, forecast)
}

/// Root mean squared error.
pub fn rmse(actual: &[f64], forecast: &[f64]) -> f64 {
    AccuracyMeasure::Rmse.score(actual, forecast)
}

/// Mean absolute scaled error relative to the in-sample naive forecast of
/// `train`. Returns `f64::INFINITY` when the naive error is zero (constant
/// training series) and the forecast is not perfect.
pub fn mase(train: &[f64], actual: &[f64], forecast: &[f64]) -> f64 {
    if actual.is_empty() {
        return 0.0;
    }
    let naive_err: f64 = train.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>()
        / (train.len().saturating_sub(1)).max(1) as f64;
    let err = mae(actual, forecast);
    if naive_err < f64::EPSILON {
        if err < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        err / naive_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smape_perfect_forecast_is_zero() {
        assert_eq!(smape(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn smape_bounded_in_unit_interval() {
        // Worst case: forecast 0 for a positive actual → error 1.
        assert!((smape(&[5.0, 10.0], &[0.0, 0.0]) - 1.0).abs() < 1e-12);
        let e = smape(&[1.0, 2.0, 3.0], &[3.0, 1.0, 0.5]);
        assert!(e > 0.0 && e <= 1.0);
    }

    #[test]
    fn smape_known_value() {
        // |2-1|/(2+1) = 1/3 and |4-6|/(4+6) = 0.2 → mean = 0.2667
        let e = smape(&[2.0, 4.0], &[1.0, 6.0]);
        assert!((e - (1.0 / 3.0 + 0.2) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn smape_zero_pairs_contribute_zero() {
        assert_eq!(smape(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn smape_empty_is_zero() {
        assert_eq!(smape(&[], &[]), 0.0);
    }

    #[test]
    fn mape_known_value() {
        assert!((mape(&[2.0, 4.0], &[1.0, 5.0]) - (0.5 + 0.25) / 2.0).abs() < 1e-12);
        assert_eq!(mape(&[0.0], &[1.0]), 0.0); // zero actual skipped
    }

    #[test]
    fn mae_and_rmse_known_values() {
        assert_eq!(mae(&[1.0, 2.0], &[2.0, 4.0]), 1.5);
        assert!((rmse(&[1.0, 2.0], &[2.0, 4.0]) - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mase_scales_by_naive_error() {
        // Naive in-sample error of [1,2,3] is 1; forecast MAE is 0.5.
        let v = mase(&[1.0, 2.0, 3.0], &[4.0, 5.0], &[4.5, 4.5]);
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mase_constant_train() {
        assert_eq!(mase(&[2.0, 2.0], &[2.0], &[2.0]), 0.0);
        assert!(mase(&[2.0, 2.0], &[2.0], &[3.0]).is_infinite());
    }

    #[test]
    fn measure_dispatch() {
        let a = [1.0, 2.0];
        let f = [2.0, 2.0];
        assert_eq!(AccuracyMeasure::Mae.score(&a, &f), mae(&a, &f));
        assert_eq!(AccuracyMeasure::Smape.score(&a, &f), smape(&a, &f));
        assert_eq!(AccuracyMeasure::Mape.score(&a, &f), mape(&a, &f));
        assert_eq!(AccuracyMeasure::Rmse.score(&a, &f), rmse(&a, &f));
    }
}
