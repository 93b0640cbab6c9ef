//! Numerical optimization for model parameter estimation.
//!
//! §IV-B.1 of the paper: *"Creating a forecast model requires estimating
//! its parameters using standard local (e.g., Hill-Climbing) or global
//! (e.g., Simulated Annealing) optimization algorithms"*. This module
//! provides those two, plus the Nelder–Mead simplex (a robust default for
//! the low-dimensional smoothing objectives) and a coarse grid search used
//! to seed the local methods.
//!
//! All optimizers minimize a boxed [`Objective`] subject to per-dimension
//! box constraints; candidate points outside the box are clamped to it,
//! which is appropriate for smoothing parameters in `(0, 1)` and ARMA
//! coefficients constrained to `(-1, 1)`.

use crate::model::{FitOptions, OptimizerKind};
use fdc_rng::Rng;
use std::cell::Cell;

thread_local! {
    static THREAD_EVALUATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Records one optimizer run into the metrics registry
/// (`optimize.<algo>.runs` / `optimize.<algo>.evals`), so the advisor's
/// objective-evaluation budget is observable per algorithm, and into the
/// calling thread's [`thread_evaluations`].
fn record_run(algo: &str, evaluations: usize) {
    fdc_obs::counter(&fdc_obs::names::optimize_runs(algo)).incr();
    fdc_obs::counter(&fdc_obs::names::optimize_evals(algo)).add(evaluations as u64);
    THREAD_EVALUATIONS.with(|c| c.set(c.get() + evaluations as u64));
}

/// Objective evaluations every optimizer run on the calling thread has
/// spent so far. A fit runs on one thread, so the difference across it
/// is that fit's count.
pub fn thread_evaluations() -> u64 {
    THREAD_EVALUATIONS.with(Cell::get)
}

/// A function to minimize, with box constraints.
pub trait Objective {
    /// Number of parameters.
    fn dim(&self) -> usize;

    /// Evaluates the objective at `x` (must have length `dim()`).
    fn eval(&self, x: &[f64]) -> f64;

    /// Per-dimension inclusive bounds `(lo, hi)`.
    fn bounds(&self) -> Vec<(f64, f64)>;
}

/// Implements [`Objective`] for a closure plus explicit bounds —
/// convenient in tests and for the model-fitting objectives.
pub struct FnObjective<F: Fn(&[f64]) -> f64> {
    f: F,
    bounds: Vec<(f64, f64)>,
}

impl<F: Fn(&[f64]) -> f64> FnObjective<F> {
    /// Wraps closure `f` with the given box constraints.
    pub fn new(bounds: Vec<(f64, f64)>, f: F) -> Self {
        FnObjective { f, bounds }
    }
}

impl<F: Fn(&[f64]) -> f64> Objective for FnObjective<F> {
    fn dim(&self) -> usize {
        self.bounds.len()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
}

/// A minimization strategy.
pub trait Optimizer {
    /// Minimizes `objective` starting from `x0`.
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult;
}

/// Minimizes a model's fit `objective` from `x0` with the optimizer
/// `options` selects, on the fit budget of `max_iterations.max(50)`
/// evaluations per dimension. Every model family estimates its
/// parameters through this one dispatch.
pub(crate) fn minimize(
    options: &FitOptions,
    objective: &dyn Objective,
    x0: &[f64],
) -> OptimizeResult {
    let max_evaluations = options.max_iterations.max(50) * objective.dim().max(1);
    match options.optimizer {
        OptimizerKind::NelderMead => NelderMead {
            max_evaluations,
            ..NelderMead::default()
        }
        .minimize(objective, x0),
        OptimizerKind::HillClimbing => HillClimbing {
            max_evaluations,
            ..HillClimbing::default()
        }
        .minimize(objective, x0),
        OptimizerKind::SimulatedAnnealing => SimulatedAnnealing {
            max_evaluations,
            seed: options.seed,
            ..SimulatedAnnealing::default()
        }
        .minimize(objective, x0),
    }
}

fn clamp_to_bounds(x: &mut [f64], bounds: &[(f64, f64)]) {
    for (v, &(lo, hi)) in x.iter_mut().zip(bounds) {
        *v = v.clamp(lo, hi);
    }
}

fn eval_clamped(
    objective: &dyn Objective,
    bounds: &[(f64, f64)],
    x: &mut [f64],
    evals: &mut usize,
) -> f64 {
    clamp_to_bounds(x, bounds);
    *evals += 1;
    let v = objective.eval(x);
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

/// Nelder–Mead downhill simplex with adaptive restarts suppressed —
/// the objectives here are smooth enough that a single pass suffices.
#[derive(Debug, Clone)]
pub struct NelderMead {
    /// Maximum objective evaluations.
    pub max_evaluations: usize,
    /// Convergence tolerance on the simplex value spread.
    pub tolerance: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            max_evaluations: 400,
            tolerance: 1e-9,
        }
    }
}

impl Optimizer for NelderMead {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        let n = objective.dim();
        assert_eq!(x0.len(), n, "x0 dimension mismatch");
        let bounds = objective.bounds();
        let mut evals = 0usize;

        // Build the initial simplex: x0 plus a perturbation along each axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        let mut first = x0.to_vec();
        let v0 = eval_clamped(objective, &bounds, &mut first, &mut evals);
        simplex.push((first, v0));
        for i in 0..n {
            let mut p = x0.to_vec();
            let span = bounds[i].1 - bounds[i].0;
            let step = if span.is_finite() && span > 0.0 {
                0.1 * span
            } else {
                0.1 * p[i].abs().max(1.0)
            };
            p[i] += step;
            let v = eval_clamped(objective, &bounds, &mut p, &mut evals);
            simplex.push((p, v));
        }

        const ALPHA: f64 = 1.0; // reflection
        const GAMMA: f64 = 2.0; // expansion
        const RHO: f64 = 0.5; // contraction
        const SIGMA: f64 = 0.5; // shrink

        while evals < self.max_evaluations {
            simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
            let best = simplex[0].1;
            let worst = simplex[n].1;
            // Converged only when both the value spread AND the simplex
            // extent are tiny — a value-only criterion stops prematurely on
            // flat or symmetric objectives.
            let x_spread = simplex[1..]
                .iter()
                .flat_map(|(p, _)| p.iter().zip(&simplex[0].0).map(|(a, b)| (a - b).abs()))
                .fold(0.0f64, f64::max);
            if (worst - best).abs() <= self.tolerance * (1.0 + best.abs())
                && x_spread <= self.tolerance.sqrt()
            {
                break;
            }

            // Centroid of all but the worst vertex.
            let mut centroid = vec![0.0; n];
            for (p, _) in &simplex[..n] {
                for (c, v) in centroid.iter_mut().zip(p) {
                    *c += v / n as f64;
                }
            }

            let reflect = |coef: f64| -> Vec<f64> {
                centroid
                    .iter()
                    .zip(&simplex[n].0)
                    .map(|(c, w)| c + coef * (c - w))
                    .collect()
            };

            let mut xr = reflect(ALPHA);
            let fr = eval_clamped(objective, &bounds, &mut xr, &mut evals);
            if fr < simplex[0].1 {
                // Try to expand.
                let mut xe = reflect(GAMMA);
                let fe = eval_clamped(objective, &bounds, &mut xe, &mut evals);
                simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
            } else if fr < simplex[n - 1].1 {
                simplex[n] = (xr, fr);
            } else {
                // Contract toward the centroid.
                let mut xc: Vec<f64> = centroid
                    .iter()
                    .zip(&simplex[n].0)
                    .map(|(c, w)| c + RHO * (w - c))
                    .collect();
                let fc = eval_clamped(objective, &bounds, &mut xc, &mut evals);
                if fc < simplex[n].1 {
                    simplex[n] = (xc, fc);
                } else {
                    // Shrink all vertices toward the best.
                    let best_point = simplex[0].0.clone();
                    for entry in simplex.iter_mut().skip(1) {
                        let mut p: Vec<f64> = best_point
                            .iter()
                            .zip(&entry.0)
                            .map(|(b, v)| b + SIGMA * (v - b))
                            .collect();
                        let fv = eval_clamped(objective, &bounds, &mut p, &mut evals);
                        *entry = (p, fv);
                    }
                }
            }
        }

        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (x, value) = simplex.swap_remove(0);
        record_run("nelder_mead", evals);
        OptimizeResult {
            x,
            value,
            evaluations: evals,
        }
    }
}

/// Local coordinate hill climbing with geometric step shrinking — the
/// "standard local" estimator the paper names.
#[derive(Debug, Clone)]
pub struct HillClimbing {
    /// Maximum objective evaluations.
    pub max_evaluations: usize,
    /// Initial step as a fraction of each bound span.
    pub initial_step: f64,
    /// Step shrink factor applied when no coordinate move improves.
    pub shrink: f64,
    /// Stop when the step fraction drops below this value.
    pub min_step: f64,
}

impl Default for HillClimbing {
    fn default() -> Self {
        HillClimbing {
            max_evaluations: 400,
            initial_step: 0.25,
            shrink: 0.5,
            min_step: 1e-6,
        }
    }
}

impl Optimizer for HillClimbing {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        let n = objective.dim();
        assert_eq!(x0.len(), n, "x0 dimension mismatch");
        let bounds = objective.bounds();
        let spans: Vec<f64> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let s = hi - lo;
                if s.is_finite() && s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        let mut evals = 0usize;
        let mut x = x0.to_vec();
        let mut fx = eval_clamped(objective, &bounds, &mut x, &mut evals);
        let mut step = self.initial_step;

        while step > self.min_step && evals < self.max_evaluations {
            let mut improved = false;
            for i in 0..n {
                for dir in [1.0, -1.0] {
                    if evals >= self.max_evaluations {
                        break;
                    }
                    let mut cand = x.clone();
                    cand[i] += dir * step * spans[i];
                    let fc = eval_clamped(objective, &bounds, &mut cand, &mut evals);
                    if fc < fx {
                        x = cand;
                        fx = fc;
                        improved = true;
                        break; // keep climbing from the improved point
                    }
                }
            }
            if !improved {
                step *= self.shrink;
            }
        }

        record_run("hill_climbing", evals);
        OptimizeResult {
            x,
            value: fx,
            evaluations: evals,
        }
    }
}

/// Simulated annealing with Gaussian proposal moves and geometric cooling
/// — the "standard global" estimator the paper names.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Maximum objective evaluations.
    pub max_evaluations: usize,
    /// Initial temperature relative to the initial objective value.
    pub initial_temperature: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// Proposal standard deviation as a fraction of each bound span.
    pub proposal_scale: f64,
    /// RNG seed for reproducible estimation.
    pub seed: u64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            max_evaluations: 600,
            initial_temperature: 1.0,
            cooling: 0.995,
            proposal_scale: 0.15,
            seed: 0x5eed,
        }
    }
}

impl SimulatedAnnealing {
    /// Draws a standard normal sample via Box–Muller (keeps us independent
    /// of external distribution crates).
    fn standard_normal(rng: &mut Rng) -> f64 {
        let u1: f64 = rng.f64_range(f64::EPSILON, 1.0);
        let u2: f64 = rng.f64_range(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Optimizer for SimulatedAnnealing {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        let n = objective.dim();
        assert_eq!(x0.len(), n, "x0 dimension mismatch");
        let bounds = objective.bounds();
        let spans: Vec<f64> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let s = hi - lo;
                if s.is_finite() && s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut evals = 0usize;

        let mut current = x0.to_vec();
        let mut f_current = eval_clamped(objective, &bounds, &mut current, &mut evals);
        let mut best = current.clone();
        let mut f_best = f_current;
        let mut temperature = self.initial_temperature * (1.0 + f_current.abs());

        while evals < self.max_evaluations {
            let mut cand = current.clone();
            for (i, c) in cand.iter_mut().enumerate() {
                *c += Self::standard_normal(&mut rng) * self.proposal_scale * spans[i];
            }
            let f_cand = eval_clamped(objective, &bounds, &mut cand, &mut evals);
            let accept = f_cand <= f_current || {
                let delta = f_cand - f_current;
                rng.f64() < (-delta / temperature.max(1e-12)).exp()
            };
            if accept {
                current = cand;
                f_current = f_cand;
                if f_current < f_best {
                    best = current.clone();
                    f_best = f_current;
                }
            }
            temperature *= self.cooling;
        }

        record_run("simulated_annealing", evals);
        OptimizeResult {
            x: best,
            value: f_best,
            evaluations: evals,
        }
    }
}

/// Uniform grid search over the bound box — used to seed local optimizers
/// with a decent starting point for multi-modal objectives (ARMA CSS).
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Grid points per dimension.
    pub points_per_dim: usize,
}

impl Default for GridSearch {
    fn default() -> Self {
        GridSearch { points_per_dim: 5 }
    }
}

impl Optimizer for GridSearch {
    fn minimize(&self, objective: &dyn Objective, _x0: &[f64]) -> OptimizeResult {
        let n = objective.dim();
        let bounds = objective.bounds();
        let k = self.points_per_dim.max(1);
        let mut evals = 0usize;
        let mut best: Option<(Vec<f64>, f64)> = None;

        // Iterate over the kⁿ grid with a mixed-radix counter.
        let total = k.pow(n as u32);
        let mut point = vec![0.0; n];
        for idx in 0..total {
            let mut rem = idx;
            for (i, p) in point.iter_mut().enumerate() {
                let pos = rem % k;
                rem /= k;
                let (lo, hi) = bounds[i];
                // Keep grid points strictly inside open intervals like (0,1).
                *p = lo + (hi - lo) * (pos as f64 + 0.5) / k as f64;
            }
            evals += 1;
            let v = objective.eval(&point);
            let v = if v.is_nan() { f64::INFINITY } else { v };
            if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
                best = Some((point.clone(), v));
            }
        }

        let (x, value) = best.expect("grid search evaluated at least one point");
        record_run("grid_search", evals);
        OptimizeResult {
            x,
            value,
            evaluations: evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shifted quadratic bowl with minimum at (0.3, 0.7).
    fn bowl() -> FnObjective<impl Fn(&[f64]) -> f64> {
        FnObjective::new(vec![(0.0, 1.0), (0.0, 1.0)], |x| {
            (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2)
        })
    }

    #[test]
    fn nelder_mead_finds_bowl_minimum() {
        let r = NelderMead::default().minimize(&bowl(), &[0.9, 0.1]);
        assert!((r.x[0] - 0.3).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 0.7).abs() < 1e-3, "{:?}", r.x);
        assert!(r.value < 1e-6);
    }

    #[test]
    fn hill_climbing_finds_bowl_minimum() {
        let r = HillClimbing::default().minimize(&bowl(), &[0.9, 0.1]);
        assert!((r.x[0] - 0.3).abs() < 1e-2, "{:?}", r.x);
        assert!((r.x[1] - 0.7).abs() < 1e-2, "{:?}", r.x);
    }

    #[test]
    fn annealing_approaches_bowl_minimum() {
        let sa = SimulatedAnnealing {
            max_evaluations: 2000,
            ..SimulatedAnnealing::default()
        };
        let r = sa.minimize(&bowl(), &[0.9, 0.1]);
        assert!(r.value < 1e-2, "value {}", r.value);
    }

    #[test]
    fn annealing_is_deterministic_for_fixed_seed() {
        let sa = SimulatedAnnealing::default();
        let a = sa.minimize(&bowl(), &[0.5, 0.5]);
        let b = sa.minimize(&bowl(), &[0.5, 0.5]);
        assert_eq!(a.x, b.x);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn annealing_escapes_local_minimum() {
        // Double well: local min near x=0.2 (value 0.05), global near
        // x=0.8 (value 0.0).
        let obj = FnObjective::new(vec![(0.0, 1.0)], |x| {
            let a = (x[0] - 0.2).powi(2) + 0.05;
            let b = (x[0] - 0.8).powi(2);
            a.min(b)
        });
        let sa = SimulatedAnnealing {
            max_evaluations: 3000,
            proposal_scale: 0.3,
            ..SimulatedAnnealing::default()
        };
        let r = sa.minimize(&obj, &[0.2]);
        assert!((r.x[0] - 0.8).abs() < 0.05, "stuck at {:?}", r.x);
    }

    #[test]
    fn grid_search_stays_inside_bounds_and_finds_cell() {
        let r = GridSearch { points_per_dim: 9 }.minimize(&bowl(), &[0.0, 0.0]);
        assert_eq!(r.evaluations, 81);
        assert!(r.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((r.x[0] - 0.3).abs() < 0.1);
        assert!((r.x[1] - 0.7).abs() < 0.1);
    }

    #[test]
    fn optimizers_respect_bounds() {
        // Minimum of (x+2)² over [0,1] is at the boundary x=0.
        let obj = FnObjective::new(vec![(0.0, 1.0)], |x| (x[0] + 2.0).powi(2));
        for opt in [
            &NelderMead::default() as &dyn Optimizer,
            &HillClimbing::default(),
            &SimulatedAnnealing::default(),
        ] {
            let r = opt.minimize(&obj, &[0.5]);
            assert!(r.x[0] >= 0.0 && r.x[0] <= 1.0);
            assert!(r.x[0] < 0.05, "expected boundary minimum, got {:?}", r.x);
        }
    }

    #[test]
    fn nan_objective_treated_as_infinite() {
        let obj = FnObjective::new(vec![(0.0, 1.0)], |x| {
            if x[0] < 0.5 {
                f64::NAN
            } else {
                (x[0] - 0.75).powi(2)
            }
        });
        let r = NelderMead::default().minimize(&obj, &[0.9]);
        assert!((r.x[0] - 0.75).abs() < 1e-2);
        assert!(r.value.is_finite());
    }

    #[test]
    fn evaluation_budget_respected() {
        let obj = bowl();
        let nm = NelderMead {
            max_evaluations: 10,
            ..NelderMead::default()
        };
        // Simplex construction costs dim+1 evals; allow small overshoot of
        // one iteration but never unbounded.
        let r = nm.minimize(&obj, &[0.5, 0.5]);
        assert!(r.evaluations <= 20);
    }
}
