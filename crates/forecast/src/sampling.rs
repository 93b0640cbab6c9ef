//! Sampling estimators for approximate aggregate forecasting.
//!
//! A high-cardinality aggregation node sums the forecasts of N base
//! cells; fitting a model per cell is infeasible past ~10⁵ cells. The
//! approximate plane (fdc-approx) instead fits models on a stratified
//! sample and scales the sampled forecasts up to the population. This
//! module holds the estimator math, kept in the forecast crate so it is
//! reusable by anything that samples (the FlashP direction: "forecast on
//! samples with error guarantees").
//!
//! ## Estimator
//!
//! Cells are partitioned into strata h = 1..H by per-cell scale; within
//! stratum h the plane samples n_h of N_h cells uniformly (hash-order
//! bottom-k, see fdc-approx). With ŷ_i the per-cell model forecast, the
//! stratified expansion (Horvitz–Thompson with π_i = n_h/N_h) estimator
//! of the population total is
//!
//! ```text
//!   Ŷ = Σ_h (N_h / n_h) Σ_{i ∈ s_h} ŷ_i = Σ_h N_h · ȳ_h
//! ```
//!
//! with the textbook stratified variance (finite-population corrected):
//!
//! ```text
//!   V̂(Ŷ) = Σ_h N_h² (1 − n_h/N_h) s²_h / n_h
//! ```
//!
//! where s²_h is the within-stratum sample variance of ŷ. A confidence
//! interval at level c is `Ŷ ± z_c · √V̂(Ŷ)`. Fully-sampled strata
//! (n_h = N_h) contribute their exact sum and zero variance.

use fdc_obs::MomentSummary;

/// One stratum's contribution to a stratified estimate: the stratum
/// population and the moment summary of the *sampled* per-cell
/// forecasts. `summary.count()` is n_h, `population` is N_h.
#[derive(Debug, Clone, Copy)]
pub struct StratumSample {
    /// Number of cells in the stratum (N_h).
    pub population: u64,
    /// Moments of the sampled cells' forecasts (n_h = `summary.count()`).
    pub summary: MomentSummary,
}

impl StratumSample {
    /// Builds a stratum sample from the sampled forecasts.
    pub fn from_values(population: u64, values: &[f64]) -> Self {
        let mut summary = MomentSummary::new();
        for &v in values {
            summary.insert(v);
        }
        StratumSample {
            population,
            summary,
        }
    }
}

/// A stratified Horvitz–Thompson estimate of a population total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtEstimate {
    /// Estimated population total Ŷ.
    pub total: f64,
    /// Estimated variance V̂(Ŷ) of the total.
    pub variance: f64,
    /// Cells sampled (Σ n_h).
    pub sampled: u64,
    /// Population size (Σ N_h).
    pub population: u64,
}

impl HtEstimate {
    /// Half-width of the confidence interval at `confidence`
    /// (e.g. 0.95): `z · √V̂`.
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        z_quantile(confidence) * self.variance.max(0.0).sqrt()
    }
}

/// Computes the stratified expansion estimate over `strata`. Strata with
/// an empty sample but a non-empty population contribute nothing to the
/// total (the caller should avoid producing them: every non-empty
/// stratum must keep at least one sampled cell); strata with n_h == 1
/// or n_h == N_h contribute zero variance.
pub fn stratified_estimate(strata: &[StratumSample]) -> HtEstimate {
    let mut total = 0.0;
    let mut variance = 0.0;
    let mut sampled = 0u64;
    let mut population = 0u64;
    for s in strata {
        let n_h = s.summary.count();
        let cap_n = s.population;
        population += cap_n;
        sampled += n_h.min(cap_n);
        if n_h == 0 || cap_n == 0 {
            continue;
        }
        total += cap_n as f64 * s.summary.mean();
        if n_h >= 2 && n_h < cap_n {
            let fpc = 1.0 - n_h as f64 / cap_n as f64;
            variance +=
                (cap_n as f64) * (cap_n as f64) * fpc * s.summary.sample_variance() / n_h as f64;
        }
    }
    HtEstimate {
        total,
        variance,
        sampled,
        population,
    }
}

/// Two-sided standard-normal quantile for a confidence level in (0, 1):
/// `z` such that P(|Z| ≤ z) = confidence, read from
/// [`inverse_normal_cdf`], which is plenty for interval construction.
/// Degenerate levels clamp to the nearest meaningful value; a NaN level
/// (a decoded plane may carry one) has a NaN quantile.
pub fn z_quantile(confidence: f64) -> f64 {
    if confidence.is_nan() {
        return f64::NAN;
    }
    let c = confidence.clamp(1e-9, 1.0 - 1e-12);
    let p = 0.5 + c / 2.0; // upper-tail probability point
    inverse_normal_cdf(p)
}

/// Acklam's rational approximation of the inverse standard normal CDF
/// (absolute error < 1.15e-9): the `z` with P(Z ≤ z) = `p`, −∞ at 0 and
/// +∞ at 1. Interval widths ([`z_quantile`]) and the advisor's γ both
/// read it.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_normal_known_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert_eq!(inverse_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_normal_cdf(1.0), f64::INFINITY);
    }

    #[test]
    fn z_quantile_matches_textbook_values() {
        assert!(
            (z_quantile(0.95) - 1.959964).abs() < 1e-4,
            "{}",
            z_quantile(0.95)
        );
        assert!((z_quantile(0.90) - 1.644854).abs() < 1e-4);
        assert!((z_quantile(0.99) - 2.575829).abs() < 1e-4);
        assert!((z_quantile(0.6827) - 1.0).abs() < 1e-3);
        assert!(z_quantile(f64::NAN).is_nan());
    }

    #[test]
    fn fully_sampled_strata_are_exact_with_zero_variance() {
        let s = StratumSample::from_values(3, &[1.0, 2.0, 3.0]);
        let est = stratified_estimate(&[s]);
        assert!((est.total - 6.0).abs() < 1e-12);
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.sampled, 3);
        assert_eq!(est.population, 3);
        assert_eq!(est.ci_half_width(0.95), 0.0);
    }

    #[test]
    fn estimate_matches_hand_computation() {
        // Stratum 1: N=10, sample {4, 6} → mean 5, s² = 2.
        // Stratum 2: N=4, sample {1, 3} → mean 2, s² = 2.
        let est = stratified_estimate(&[
            StratumSample::from_values(10, &[4.0, 6.0]),
            StratumSample::from_values(4, &[1.0, 3.0]),
        ]);
        assert!((est.total - (10.0 * 5.0 + 4.0 * 2.0)).abs() < 1e-12);
        // V = 100·(1−0.2)·2/2 + 16·(1−0.5)·2/2 = 80 + 8 = 88.
        assert!((est.variance - 88.0).abs() < 1e-9, "{}", est.variance);
        assert_eq!(est.sampled, 4);
        assert_eq!(est.population, 14);
        let half = est.ci_half_width(0.95);
        assert!((half - 1.959964 * 88.0_f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn unbiased_over_all_samples_of_a_tiny_population() {
        // Exhaustive check on one stratum: population {1,2,3,4}, n=2.
        // The expansion estimator must average to the true total 10 over
        // all 6 equally-likely samples.
        let pop = [1.0, 2.0, 3.0, 4.0];
        let mut sum = 0.0;
        let mut count = 0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                let est = stratified_estimate(&[StratumSample::from_values(4, &[pop[i], pop[j]])]);
                sum += est.total;
                count += 1;
            }
        }
        assert_eq!(count, 6);
        assert!((sum / 6.0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_samples_contribute_total_but_no_variance() {
        let est = stratified_estimate(&[StratumSample::from_values(5, &[2.0])]);
        assert!((est.total - 10.0).abs() < 1e-12);
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.sampled, 1);
    }

    #[test]
    fn empty_strata_are_skipped() {
        let est = stratified_estimate(&[
            StratumSample::from_values(7, &[]),
            StratumSample::from_values(2, &[3.0, 5.0]),
        ]);
        assert!((est.total - 8.0).abs() < 1e-12);
        assert_eq!(est.population, 9);
        assert_eq!(est.sampled, 2);
    }
}
