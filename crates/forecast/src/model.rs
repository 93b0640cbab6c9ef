//! The [`ForecastModel`] abstraction, model specifications and
//! serializable model state.

use crate::arima::Sarima;
use crate::series::TimeSeries;
use crate::smoothing::{DampedHolt, Holt, HoltWinters, SimpleExponentialSmoothing};
use fdc_codec::{DecodeError, Reader, Writer};

/// Errors raised while fitting or using forecast models.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// The training series is too short for the requested model.
    SeriesTooShort {
        /// Minimum number of observations the model needs.
        required: usize,
        /// Number of observations supplied.
        got: usize,
    },
    /// A parameter was outside its legal domain.
    InvalidParameter(String),
    /// Numerical optimization failed to produce a usable estimate.
    EstimationFailed(String),
    /// The model state in storage is incompatible with the requested
    /// operation (e.g. deserialized state of a different model type).
    InvalidState(String),
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::SeriesTooShort { required, got } => {
                write!(
                    f,
                    "series too short: need {required} observations, got {got}"
                )
            }
            ForecastError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ForecastError::EstimationFailed(msg) => write!(f, "estimation failed: {msg}"),
            ForecastError::InvalidState(msg) => write!(f, "invalid model state: {msg}"),
        }
    }
}

impl std::error::Error for ForecastError {}

/// Kind of seasonal component for triple exponential smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeasonalKind {
    /// Seasonal effect added to the level (robust for series containing
    /// zeros).
    Additive,
    /// Seasonal effect scales the level.
    Multiplicative,
}

/// Options controlling model fitting.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Which optimizer estimates smoothing/ARMA parameters.
    pub optimizer: OptimizerKind,
    /// Maximum optimizer iterations.
    pub max_iterations: usize,
    /// Seed for stochastic optimizers (simulated annealing).
    pub seed: u64,
    /// Artificial extra model-creation time, in microseconds of busy work —
    /// used only by the Fig. 8(c,d) experiments that "artificially vary the
    /// time that is required to create a single forecast model" (§VI-C).
    pub artificial_cost_us: u64,
    /// Artificial extra model-creation time, in microseconds of *sleep* —
    /// models the I/O portion of a (re-)fit: inside the DBMS, re-estimating
    /// a model scans the stored base history, during which the CPU is idle.
    /// Set only by tests: `fdc-serve`'s `http_api` makes lazy re-fits slow
    /// enough to fill a request queue, `fdc-f2db`'s
    /// `a_refit_blocks_only_readers_of_its_own_model` holds one model's
    /// lock through a stalled re-fit, and an `fdc-cube` unit test checks
    /// that the stall counts as creation work.
    pub artificial_stall_us: u64,
}

/// Counted-work units one microsecond of artificial model-creation cost
/// stands for. A unit is one objective evaluation over one training
/// point; a Holt-Winters fit on a Gen2000 node (38 points, ≈ 134
/// evaluations) spends about 127 of them per microsecond on a 2-vCPU
/// Xeon.
pub const WORK_UNITS_PER_US: u64 = 128;

impl FitOptions {
    /// The artificial cost (busy work plus sleep) in counted-work units
    /// ([`WORK_UNITS_PER_US`]), so a work count grows with it the way a
    /// wall-clock time does.
    pub fn artificial_work(&self) -> u64 {
        (self.artificial_cost_us + self.artificial_stall_us).saturating_mul(WORK_UNITS_PER_US)
    }

    /// Burns the configured artificial model-creation cost: busy work
    /// first, then the I/O-style sleep. Every fit and re-fit entry point
    /// pays this once per model.
    pub fn apply_artificial_cost(&self) {
        if self.artificial_cost_us > 0 {
            busy_wait_us(self.artificial_cost_us);
        }
        if self.artificial_stall_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.artificial_stall_us));
        }
    }
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            optimizer: OptimizerKind::NelderMead,
            max_iterations: 200,
            seed: 0x5eed,
            artificial_cost_us: 0,
            artificial_stall_us: 0,
        }
    }
}

/// Which numerical optimizer estimates model parameters (§IV-B.1:
/// "standard local (e.g., Hill-Climbing) or global (e.g., Simulated
/// Annealing) optimization algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Nelder–Mead simplex (default; robust for the ≤3-parameter smoothing
    /// models and small ARMA orders).
    NelderMead,
    /// Local coordinate hill climbing.
    HillClimbing,
    /// Global simulated annealing.
    SimulatedAnnealing,
}

/// Declarative specification of a model type plus structural
/// hyper-parameters. The advisor and the baselines fit models through this
/// type so the forecast method stays "independent of our approach"
/// (§II-B).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Simple exponential smoothing.
    Ses,
    /// Holt's linear trend (double exponential smoothing).
    Holt,
    /// Holt's method with a damped trend (the trend flattens out at long
    /// horizons — often more robust than the plain linear trend).
    HoltDamped,
    /// Holt–Winters triple exponential smoothing.
    HoltWinters {
        /// Length of the seasonal cycle.
        period: usize,
        /// Additive or multiplicative seasonality.
        seasonal: SeasonalKind,
    },
    /// Non-seasonal ARIMA(p, d, q).
    Arima {
        /// Autoregressive order.
        p: usize,
        /// Degree of differencing.
        d: usize,
        /// Moving-average order.
        q: usize,
    },
    /// Seasonal ARIMA(p, d, q)(P, D, Q)ₛ.
    Sarima {
        /// Non-seasonal order.
        order: (usize, usize, usize),
        /// Seasonal order.
        seasonal: (usize, usize, usize),
        /// Seasonal period.
        period: usize,
    },
}

impl ModelSpec {
    /// The minimum series length this spec can be fitted on.
    pub fn min_observations(&self) -> usize {
        match self {
            ModelSpec::Ses => 2,
            ModelSpec::Holt => 3,
            ModelSpec::HoltDamped => 3,
            ModelSpec::HoltWinters { period, .. } => 2 * period.max(&1) + 1,
            ModelSpec::Arima { p, d, q } => (p + d + q + 2).max(4),
            ModelSpec::Sarima {
                order: (p, d, q),
                seasonal: (sp, sd, sq),
                period,
            } => (p + d + q + (sp + sd + sq) * period + 2).max(4),
        }
    }

    /// Fits a model of this spec on `series`.
    pub fn fit(
        &self,
        series: &TimeSeries,
        options: &FitOptions,
    ) -> crate::Result<Box<dyn ForecastModel>> {
        options.apply_artificial_cost();
        match self {
            ModelSpec::Ses => Ok(Box::new(SimpleExponentialSmoothing::fit(series, options)?)),
            ModelSpec::Holt => Ok(Box::new(Holt::fit(series, options)?)),
            ModelSpec::HoltDamped => Ok(Box::new(DampedHolt::fit(series, options)?)),
            ModelSpec::HoltWinters { period, seasonal } => Ok(Box::new(HoltWinters::fit(
                series, *period, *seasonal, options,
            )?)),
            ModelSpec::Arima { .. } | ModelSpec::Sarima { .. } => {
                Ok(Box::new(Sarima::fit_spec(self, series, options)?))
            }
        }
    }

    /// A reasonable default spec for a given seasonal period: triple
    /// exponential smoothing when a season exists (the paper found it
    /// "worked best in most cases", §VI-A), Holt otherwise.
    pub fn default_for_period(period: usize) -> ModelSpec {
        if period > 1 {
            ModelSpec::HoltWinters {
                period,
                seasonal: SeasonalKind::Additive,
            }
        } else {
            ModelSpec::Holt
        }
    }

    /// Like [`ModelSpec::default_for_period`], but degrades to simpler
    /// specs when the (training) history is too short for the seasonal
    /// model — so short data sets get Holt or SES instead of nothing.
    pub fn default_for_history(period: usize, history_len: usize) -> ModelSpec {
        let preferred = Self::default_for_period(period);
        if preferred.min_observations() <= history_len {
            preferred
        } else if ModelSpec::Holt.min_observations() <= history_len {
            ModelSpec::Holt
        } else {
            ModelSpec::Ses
        }
    }
}

// Spec tags of the binary encoding. Tags are wire format: never reuse
// or renumber one.
const TAG_SES: u8 = 0;
const TAG_HOLT: u8 = 1;
const TAG_HOLT_WINTERS: u8 = 2;
const TAG_ARIMA: u8 = 3;
const TAG_SARIMA: u8 = 4;
const TAG_HOLT_DAMPED: u8 = 5;

fn read_usize(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    usize::try_from(r.u64()?).map_err(|_| DecodeError::Corrupt("model size exceeds usize"))
}

fn read_period(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    match read_usize(r)? {
        // Every seasonal recursion indexes modulo the period.
        0 => Err(DecodeError::Corrupt("seasonal period 0")),
        period => Ok(period),
    }
}

impl ModelSpec {
    /// Appends the spec's binary encoding — a tag byte, then the
    /// structural hyper-parameters as `u64`s. Shared by every format
    /// that stores a spec (catalog model states, sampling planes).
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            ModelSpec::Ses => w.u8(TAG_SES),
            ModelSpec::Holt => w.u8(TAG_HOLT),
            ModelSpec::HoltDamped => w.u8(TAG_HOLT_DAMPED),
            ModelSpec::HoltWinters { period, seasonal } => {
                w.u8(TAG_HOLT_WINTERS);
                w.len(*period);
                w.u8(match seasonal {
                    SeasonalKind::Additive => 0,
                    SeasonalKind::Multiplicative => 1,
                });
            }
            ModelSpec::Arima { p, d, q } => {
                w.u8(TAG_ARIMA);
                for n in [p, d, q] {
                    w.len(*n);
                }
            }
            ModelSpec::Sarima {
                order,
                seasonal,
                period,
            } => {
                w.u8(TAG_SARIMA);
                for n in [order.0, order.1, order.2] {
                    w.len(n);
                }
                for n in [seasonal.0, seasonal.1, seasonal.2] {
                    w.len(n);
                }
                w.len(*period);
            }
        }
    }

    /// Reads a spec written by [`ModelSpec::encode_into`]. A seasonal
    /// period of 0 is refused here; orders are only checked against the
    /// state they size, in [`ModelState::decode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<ModelSpec, DecodeError> {
        Ok(match r.u8()? {
            TAG_SES => ModelSpec::Ses,
            TAG_HOLT => ModelSpec::Holt,
            TAG_HOLT_DAMPED => ModelSpec::HoltDamped,
            TAG_HOLT_WINTERS => {
                let period = read_period(r)?;
                let seasonal = match r.u8()? {
                    0 => SeasonalKind::Additive,
                    1 => SeasonalKind::Multiplicative,
                    _ => return Err(DecodeError::Corrupt("seasonal kind")),
                };
                ModelSpec::HoltWinters { period, seasonal }
            }
            TAG_ARIMA => ModelSpec::Arima {
                p: read_usize(r)?,
                d: read_usize(r)?,
                q: read_usize(r)?,
            },
            TAG_SARIMA => ModelSpec::Sarima {
                order: (read_usize(r)?, read_usize(r)?, read_usize(r)?),
                seasonal: (read_usize(r)?, read_usize(r)?, read_usize(r)?),
                period: read_period(r)?,
            },
            _ => return Err(DecodeError::Corrupt("model spec tag")),
        })
    }

    /// Whether every length `from_state` derives from this spec — the
    /// coefficient and lag-buffer sizes it splits, indexes and
    /// allocates by — is backed by a state of `params` parameters and
    /// `state` state values. The exact shape stays `from_state`'s
    /// check; this one only has to make that arithmetic safe.
    fn fits(&self, params: usize, state: usize) -> bool {
        match *self {
            ModelSpec::Ses | ModelSpec::Holt | ModelSpec::HoltDamped => true,
            ModelSpec::HoltWinters { period, .. } => period <= state,
            ModelSpec::Arima { p, d, q } => p.max(q) <= params && d <= state,
            ModelSpec::Sarima {
                order: (p, d, q),
                seasonal: (sp, sd, sq),
                period,
            } => {
                p.max(q).max(sp).max(sq) <= params
                    && d <= state
                    && sp
                        .max(sd)
                        .max(sq)
                        .checked_mul(period)
                        .is_some_and(|lags| lags <= state)
            }
        }
    }
}

/// Burns roughly `us` microseconds of CPU. Deliberately a busy loop (not a
/// sleep) so it contributes to measured model *creation time* the way real
/// parameter estimation would.
fn busy_wait_us(us: u64) {
    let start = std::time::Instant::now();
    let dur = std::time::Duration::from_micros(us);
    let mut sink = 0u64;
    while start.elapsed() < dur {
        // Mix the counter so the loop cannot be optimized away.
        sink = sink.wrapping_mul(6364136223846793005).wrapping_add(1);
        std::hint::black_box(sink);
    }
}

/// Serializable snapshot of a fitted model: what F²DB's second catalog
/// table stores ("the forecast models itself including state and parameter
/// values", §V).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Structural specification the state belongs to.
    pub spec: ModelSpec,
    /// Estimated parameters (meaning depends on `spec`).
    pub params: Vec<f64>,
    /// Internal smoothing / residual state needed to resume forecasting.
    pub state: Vec<f64>,
    /// Number of observations the model has absorbed.
    pub observations: usize,
}

impl ModelState {
    /// The smallest encoding of a state — a bare spec tag, two empty
    /// runs and the observation count: what a decoder of a format that
    /// embeds states passes to `Reader::count`.
    pub const MIN_ENCODED_BYTES: usize = 1 + 8 + 8 + 8;

    /// Appends the state's binary encoding: the spec, the parameters
    /// and the state values as count-prefixed `f64` runs, then the
    /// observation count. The one model-state layout of the workspace —
    /// catalog files and sampling planes both embed it.
    pub fn encode_into(&self, w: &mut Writer) {
        self.spec.encode_into(w);
        w.f64s(&self.params);
        w.f64s(&self.state);
        w.len(self.observations);
    }

    /// Reads a state written by [`ModelState::encode_into`], refusing
    /// what a model restored from it would divide, index or allocate
    /// by: an order or period the decoded vectors cannot back, and an
    /// observation count with the top bit set (no series is that long,
    /// and `observations + horizon` must not wrap).
    pub fn decode(r: &mut Reader<'_>) -> Result<ModelState, DecodeError> {
        let spec = ModelSpec::decode(r)?;
        let params = r.f64s()?;
        let state = r.f64s()?;
        let observations = read_usize(r)?;
        if !spec.fits(params.len(), state.len()) {
            return Err(DecodeError::Corrupt(
                "model order or period exceeds its state",
            ));
        }
        if observations > isize::MAX as usize {
            return Err(DecodeError::Corrupt("observation count"));
        }
        Ok(ModelState {
            spec,
            params,
            state,
            observations,
        })
    }
}

/// A fitted forecast model over a single time series of a node (§II-B).
///
/// Implementations capture "the dependency of future on past data". The
/// trait supports both query-time forecasting and the incremental
/// maintenance performed by F²DB when new values arrive. Models are
/// `Send + Sync` so the catalog can serve one model's `forecast` calls
/// from many reader threads behind a shared lock.
pub trait ForecastModel: Send + Sync {
    /// Human-readable model family name.
    fn name(&self) -> &'static str;

    /// Forecasts the next `horizon` values after the end of the absorbed
    /// history.
    fn forecast(&self, horizon: usize) -> Vec<f64>;

    /// [`ForecastModel::forecast`] over `out.len()` steps, written into
    /// `out`: the same values, bit for bit, without a buffer of the
    /// model's own. The default copies what `forecast` returns.
    fn forecast_into(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.forecast(out.len()));
    }

    /// Absorbs one new actual observation, updating internal state
    /// *without* re-estimating parameters (cheap incremental maintenance).
    fn update(&mut self, value: f64);

    /// Fully re-estimates parameters on `series` (expensive maintenance,
    /// triggered lazily by F²DB when a model was marked invalid).
    fn refit(&mut self, series: &TimeSeries, options: &FitOptions) -> crate::Result<()>;

    /// Estimated parameters (for diagnostics and storage).
    fn params(&self) -> Vec<f64>;

    /// Serializable state snapshot.
    fn state(&self) -> ModelState;

    /// Number of observations absorbed so far.
    fn observations(&self) -> usize;

    /// Clones the model behind the trait object.
    fn boxed_clone(&self) -> Box<dyn ForecastModel>;
}

impl Clone for Box<dyn ForecastModel> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// [`ForecastModel::forecast`] of a model whose [`ForecastModel::forecast_into`]
/// is its own: a buffer of `horizon` steps, filled. (Reserved, then
/// zeroed in place: `vec![0.0; n]` asks the allocator for zeroed memory,
/// which costs more than the few values it saves writing.)
pub(crate) fn forecast_vec(model: &impl ForecastModel, horizon: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(horizon);
    out.resize(horizon, 0.0);
    model.forecast_into(&mut out);
    out
}

/// Restores a model from its serialized [`ModelState`].
pub fn restore_model(state: &ModelState) -> crate::Result<Box<dyn ForecastModel>> {
    match &state.spec {
        ModelSpec::Ses => Ok(Box::new(SimpleExponentialSmoothing::from_state(state)?)),
        ModelSpec::Holt => Ok(Box::new(Holt::from_state(state)?)),
        ModelSpec::HoltDamped => Ok(Box::new(DampedHolt::from_state(state)?)),
        ModelSpec::HoltWinters { .. } => Ok(Box::new(HoltWinters::from_state(state)?)),
        ModelSpec::Arima { .. } | ModelSpec::Sarima { .. } => {
            Ok(Box::new(Sarima::from_state(state)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Granularity;

    fn series(n: usize) -> TimeSeries {
        let values = (0..n).map(|i| 10.0 + (i as f64) * 0.5).collect();
        TimeSeries::new(values, Granularity::Monthly)
    }

    #[test]
    fn min_observations_scale_with_structure() {
        assert_eq!(ModelSpec::Ses.min_observations(), 2);
        assert!(
            ModelSpec::HoltWinters {
                period: 12,
                seasonal: SeasonalKind::Additive
            }
            .min_observations()
                > 24
        );
        assert!(
            ModelSpec::Sarima {
                order: (1, 0, 1),
                seasonal: (1, 1, 0),
                period: 12
            }
            .min_observations()
                >= 26
        );
    }

    #[test]
    fn default_for_period_picks_seasonal_model() {
        assert!(matches!(
            ModelSpec::default_for_period(12),
            ModelSpec::HoltWinters { period: 12, .. }
        ));
        assert_eq!(ModelSpec::default_for_period(1), ModelSpec::Holt);
    }

    #[test]
    fn fit_dispatches_to_each_family() {
        let s = series(40);
        let opts = FitOptions::default();
        for spec in [
            ModelSpec::Ses,
            ModelSpec::Holt,
            ModelSpec::HoltWinters {
                period: 4,
                seasonal: SeasonalKind::Additive,
            },
            ModelSpec::Arima { p: 1, d: 1, q: 1 },
            ModelSpec::Sarima {
                order: (1, 0, 0),
                seasonal: (1, 0, 0),
                period: 4,
            },
        ] {
            let model = spec.fit(&s, &opts).unwrap();
            let fc = model.forecast(3);
            assert_eq!(fc.len(), 3);
            assert!(fc.iter().all(|v| v.is_finite()), "{spec:?} produced {fc:?}");
        }
    }

    #[test]
    fn state_round_trips_through_restore() {
        let s = series(30);
        let opts = FitOptions::default();
        let model = ModelSpec::Holt.fit(&s, &opts).unwrap();
        let state = model.state();
        let restored = restore_model(&state).unwrap();
        assert_eq!(restored.forecast(5), model.forecast(5));
        assert_eq!(restored.observations(), model.observations());
    }

    fn encode(state: &ModelState) -> Vec<u8> {
        let mut w = Writer::new();
        state.encode_into(&mut w);
        w.finish()
    }

    #[test]
    fn model_states_round_trip_through_the_codec() {
        let states = vec![
            ModelState {
                spec: ModelSpec::Ses,
                params: vec![0.4],
                state: vec![10.0],
                observations: 20,
            },
            ModelState {
                spec: ModelSpec::HoltWinters {
                    period: 12,
                    seasonal: SeasonalKind::Multiplicative,
                },
                params: vec![0.3, 0.1, 0.2],
                state: vec![1.0; 14],
                observations: 48,
            },
            ModelState {
                spec: ModelSpec::Sarima {
                    order: (1, 1, 1),
                    seasonal: (0, 1, 0),
                    period: 4,
                },
                params: vec![0.5, -0.2],
                state: vec![0.1; 9],
                observations: 60,
            },
        ];
        let mut w = Writer::new();
        for s in &states {
            s.encode_into(&mut w);
        }
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        for s in &states {
            assert_eq!(&ModelState::decode(&mut r).unwrap(), s);
        }
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn decode_refuses_sizes_the_state_cannot_back() {
        let corrupt = |spec: ModelSpec, params: usize, state: usize, observations: usize| {
            let bytes = encode(&ModelState {
                spec,
                params: vec![0.5; params],
                state: vec![1.0; state],
                observations,
            });
            matches!(
                ModelState::decode(&mut Reader::new(&bytes)),
                Err(DecodeError::Corrupt(_))
            )
        };
        let hw = |period| ModelSpec::HoltWinters {
            period,
            seasonal: SeasonalKind::Additive,
        };
        // A zero period decoded fine and divided by it on the first
        // forecast; a huge one overflowed `2 + period`.
        assert!(corrupt(hw(0), 3, 2, 8));
        assert!(corrupt(hw(usize::MAX), 3, 2, 8));
        assert!(!corrupt(hw(4), 3, 6, 8));
        // Orders summed unchecked: p = MAX, q = 1 wrapped to 0.
        let arima = |p, d, q| ModelSpec::Arima { p, d, q };
        assert!(corrupt(arima(usize::MAX, 0, 1), 0, 1, 8));
        assert!(corrupt(arima(0, usize::MAX, 0), 0, 1, 8));
        assert!(!corrupt(arima(1, 1, 1), 2, 4, 8));
        // Seasonal lags are orders times the period; the product must
        // be backed too, and must not wrap.
        let sarima = |seasonal, period| ModelSpec::Sarima {
            order: (1, 0, 0),
            seasonal,
            period,
        };
        assert!(corrupt(sarima((1, 0, 0), 1 << 40), 2, 4, 8));
        assert!(corrupt(sarima((2, 0, 0), usize::MAX / 2 + 1), 2, 4, 8));
        assert!(corrupt(sarima((0, 1, 0), 0), 1, 2, 8));
        // An unused period (all seasonal orders zero) sizes nothing.
        assert!(!corrupt(sarima((0, 0, 0), 1 << 40), 1, 2, 8));
        // The top bit of an observation count is never set.
        assert!(corrupt(ModelSpec::Ses, 1, 1, usize::MAX));
        assert!(!corrupt(ModelSpec::Ses, 1, 1, isize::MAX as usize));
    }

    #[test]
    fn decode_refuses_unknown_tags_and_truncation() {
        assert_eq!(
            ModelSpec::decode(&mut Reader::new(&[9])),
            Err(DecodeError::Corrupt("model spec tag"))
        );
        let bytes = encode(&ModelState {
            spec: ModelSpec::Holt,
            params: vec![0.5, 0.1],
            state: vec![3.0, 0.2],
            observations: 12,
        });
        for cut in 0..bytes.len() {
            assert_eq!(
                ModelState::decode(&mut Reader::new(&bytes[..cut])),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn artificial_cost_burns_time() {
        let s = series(20);
        let opts = FitOptions {
            artificial_cost_us: 3_000,
            ..FitOptions::default()
        };
        let start = std::time::Instant::now();
        ModelSpec::Ses.fit(&s, &opts).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_micros(3_000));
    }

    #[test]
    fn clone_box_preserves_behavior() {
        let s = series(25);
        let model = ModelSpec::Ses.fit(&s, &FitOptions::default()).unwrap();
        let cloned = model.clone();
        assert_eq!(cloned.forecast(4), model.forecast(4));
    }
}
