//! Control phase (§IV-C.1): regulation of the advisor parameters.
//!
//! Three parameters are regulated:
//!
//! * **`|I|` (indicator size)** — sized so all indicator arrays fit in a
//!   memory budget: each installed or cached local indicator costs
//!   roughly `|I| · 16` bytes (target id + value), and in the worst case
//!   one array exists per node.
//! * **`γ` (candidate threshold)** — initialized, assuming normally
//!   distributed indicator values, so the expected number of positive
//!   candidates roughly equals the models built per iteration; afterwards
//!   adapted each iteration by comparing the work done in candidate
//!   selection with the work done in evaluation. Candidate selection
//!   "should not be more expensive than the evaluation phase, otherwise
//!   we could just invest the time to directly create forecast models".
//!   Both sides are *counted*, never timed, so γ — and with it the
//!   search — is a property of the data and the options, not of the
//!   machine or the run: selection work is the local indicator entries
//!   built × (training length + series length), evaluation work the
//!   effect targets measured × horizon plus every fit's
//!   [`fdc_cube::ConfiguredModel::creation_work`]. The phases' wall times
//!   are only reported.
//! * **`α` (acceptance weight)** — starts low (only high-benefit models
//!   are accepted) and is increased when (1) a number of rejects
//!   occurred, (2) the per-α iteration cap is reached, or (3) the error
//!   improvement became too small; the advisor stops when α exceeds its
//!   limit.

use fdc_forecast::inverse_normal_cdf;

/// Mutable control state carried across advisor iterations.
#[derive(Debug, Clone)]
pub struct ControlState {
    /// Current candidate threshold multiplier γ (Eq. 5).
    pub gamma: f64,
    /// Current acceptance weight α (Eq. 8).
    pub alpha: f64,
    /// α schedule: increment applied on each trigger.
    pub alpha_step: f64,
    /// α value past which the advisor terminates.
    pub alpha_limit: f64,
    /// Whether γ adapts to the phases' counted work.
    pub adaptive_gamma: bool,
    /// Rejects since the last α increase.
    rejects: usize,
    /// Iterations since the last α increase.
    iterations: usize,
    /// Rejects that trigger an α increase.
    pub reject_threshold: usize,
    /// Iteration cap per α level.
    pub iteration_threshold: usize,
    /// Minimal per-iteration error improvement; below it α increases.
    pub min_improvement: f64,
}

impl ControlState {
    /// Creates the control state with the paper's defaults: α starts at
    /// 0.1 and is continuously increased until it exceeds `alpha_limit`.
    pub fn new(initial_alpha: f64, alpha_limit: f64, adaptive_gamma: bool) -> Self {
        ControlState {
            gamma: 0.0,
            alpha: initial_alpha,
            alpha_step: 0.1,
            alpha_limit,
            adaptive_gamma,
            rejects: 0,
            iterations: 0,
            reject_threshold: 4,
            iteration_threshold: 10,
            min_improvement: 1e-6,
        }
    }

    /// Initializes γ so that, under a normal approximation of the global
    /// indicator distribution, the expected number of positive candidates
    /// equals `target_candidates` out of `node_count` nodes:
    /// `P(I > μ + γσ) = target/n  ⇒  γ = Φ⁻¹(1 − target/n)`.
    pub fn init_gamma(&mut self, target_candidates: usize, node_count: usize) {
        let n = node_count.max(1) as f64;
        let p = (target_candidates.max(1) as f64 / n).clamp(1e-6, 0.5);
        self.gamma = inverse_normal_cdf(1.0 - p).clamp(-2.0, 4.0);
    }

    /// Adapts γ from the phases' counted work: if candidate selection
    /// did more work than evaluation, raise γ (fewer candidates); if
    /// evaluation dominates, lower γ so more candidates are examined by
    /// the cheap indicators before the expensive model builds.
    pub fn adapt_gamma(&mut self, selection_work: u64, evaluation_work: u64) {
        if !self.adaptive_gamma {
            return;
        }
        if selection_work > evaluation_work {
            self.gamma = (self.gamma + 0.1).min(4.0);
        } else {
            self.gamma = (self.gamma - 0.1).max(-2.0);
        }
    }

    /// Records the outcome of one iteration; returns `true` when the α
    /// schedule advanced.
    pub fn record_iteration(&mut self, rejects_this_iter: usize, error_improvement: f64) -> bool {
        self.rejects += rejects_this_iter;
        self.iterations += 1;
        let trigger = self.rejects >= self.reject_threshold
            || self.iterations >= self.iteration_threshold
            || error_improvement < self.min_improvement;
        if trigger {
            self.alpha += self.alpha_step;
            self.rejects = 0;
            self.iterations = 0;
        }
        trigger
    }

    /// Whether the α schedule is exhausted (advisor should stop if no
    /// other criterion fired earlier).
    pub fn schedule_exhausted(&self) -> bool {
        self.alpha > self.alpha_limit
    }

    /// The α used for acceptance, capped at 1 (α beyond 1 only signals
    /// schedule exhaustion).
    pub fn effective_alpha(&self) -> f64 {
        self.alpha.min(1.0)
    }
}

/// Chooses the indicator size `|I|` so that one local array per node fits
/// into the memory budget (16 bytes per entry), clamped to
/// `[min_size, node_count]`.
pub fn indicator_size_for_budget(
    node_count: usize,
    memory_budget_bytes: usize,
    min_size: usize,
) -> usize {
    let per_entry = 16usize;
    let per_node = memory_budget_bytes / node_count.max(1) / per_entry;
    per_node.clamp(min_size.min(node_count.max(1)), node_count.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_gamma_targets_candidate_count() {
        let mut c = ControlState::new(0.1, 1.0, true);
        // 12 candidates out of 10_000 → a high γ (small tail).
        c.init_gamma(12, 10_000);
        assert!(c.gamma > 2.0, "γ = {}", c.gamma);
        // 12 out of 24 → γ ≈ 0 (half the nodes).
        c.init_gamma(12, 24);
        assert!(c.gamma.abs() < 0.1, "γ = {}", c.gamma);
    }

    #[test]
    fn adapt_gamma_follows_counted_work() {
        let mut c = ControlState::new(0.1, 1.0, true);
        c.gamma = 1.0;
        c.adapt_gamma(10, 100);
        assert!(c.gamma < 1.0, "evaluation-heavy → more candidates");
        let g = c.gamma;
        c.adapt_gamma(100, 10);
        assert!(c.gamma > g, "selection-heavy → fewer candidates");
        let g = c.gamma;
        c.adapt_gamma(10, 10);
        assert!(c.gamma < g, "a tie favours more candidates");
    }

    #[test]
    fn adapt_gamma_noop_when_disabled() {
        let mut c = ControlState::new(0.1, 1.0, false);
        let g = c.gamma;
        c.adapt_gamma(100, 1);
        assert_eq!(c.gamma, g);
    }

    #[test]
    fn alpha_increases_on_rejects() {
        let mut c = ControlState::new(0.1, 1.0, true);
        let a0 = c.alpha;
        for i in 1..c.reject_threshold {
            assert!(!c.record_iteration(1, 1.0), "advanced after {i} rejects");
        }
        assert!(c.record_iteration(1, 1.0), "threshold rejects accumulated");
        assert!(c.alpha > a0);
    }

    #[test]
    fn alpha_increases_on_small_improvement() {
        let mut c = ControlState::new(0.1, 1.0, true);
        assert!(c.record_iteration(0, 0.0));
    }

    #[test]
    fn alpha_increases_on_iteration_cap() {
        let mut c = ControlState::new(0.1, 1.0, true);
        let mut advanced = false;
        for _ in 0..c.iteration_threshold {
            advanced = c.record_iteration(0, 1.0);
        }
        assert!(advanced);
    }

    #[test]
    fn schedule_exhausts_past_limit() {
        let mut c = ControlState::new(0.95, 1.0, true);
        assert!(!c.schedule_exhausted());
        c.record_iteration(0, 0.0); // 0.95 → 1.10
        assert!(c.schedule_exhausted());
        assert!((c.effective_alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn indicator_size_respects_budget_and_bounds() {
        // 1000 nodes, 1.6 MB → 100 entries per node.
        assert_eq!(indicator_size_for_budget(1_000, 1_600_000, 16), 100);
        // Huge budget → clamped to node count.
        assert_eq!(indicator_size_for_budget(100, usize::MAX / 32, 16), 100);
        // Tiny budget → clamped to the minimum.
        assert_eq!(indicator_size_for_budget(1_000_000, 1024, 16), 16);
        // min_size larger than node count degrades gracefully.
        assert_eq!(indicator_size_for_budget(8, 0, 16), 8);
    }
}
