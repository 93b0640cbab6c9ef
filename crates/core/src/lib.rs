//! # fdc-core — the model configuration advisor
//!
//! The primary contribution of the paper (§III–IV): an offline advisor
//! that, given a multi-dimensional time series data set, iteratively
//! determines the best set of forecast models — a *model configuration* —
//! trading forecast accuracy against model costs.
//!
//! The advisor runs an iterative four-phase process:
//!
//! 1. **Candidate selection** ([`candidate`]) — cheap heuristic
//!    *indicators* ([`indicator`]) rank nodes that would benefit from a
//!    model (`V_A`) and models that might be deleted (`V_R`);
//! 2. **Evaluation** ([`evaluation`]) — models are actually created for
//!    the top-n positive candidates (in parallel), their real effect on
//!    the cube is measured, and an acceptance criterion weighting error
//!    against cost (Eq. 8) decides admission; deletion candidates are
//!    handled symmetrically;
//! 3. **Control** ([`control`]) — the advisor's parameters (indicator
//!    size `|I|`, candidate threshold `γ`, acceptance weight `α`) are
//!    regulated from data characteristics, observed phase timings and
//!    the hardware;
//! 4. **Output** ([`advisor`]) — per-iteration statistics stream out and
//!    stop criteria (error-, cost- or schedule-based) decide termination,
//!    so a valid configuration is available at *any* time.
//!
//! The optional asynchronous [`multisource`] component searches
//! derivation schemes with several source nodes (§IV-C.2).

//! ## Example
//!
//! ```
//! use fdc_core::{Advisor, AdvisorOptions};
//! use fdc_datagen::{generate_cube, GenSpec};
//!
//! let cube = generate_cube(&GenSpec::new(12, 40, 1));
//! let outcome = Advisor::new(&cube.dataset, AdvisorOptions::default()).unwrap().run();
//! assert!(outcome.model_count >= 1);
//! assert!(outcome.error < 1.0);
//! // The configuration serves every node with a derivation scheme.
//! for v in 0..cube.dataset.node_count() {
//!     assert!(outcome.configuration.estimate(v).scheme.is_some());
//! }
//! ```

pub mod advisor;
pub mod candidate;
pub mod control;
pub mod evaluation;
pub mod indicator;
pub mod multisource;
pub mod report;

pub use advisor::{
    Advisor, AdvisorOptions, AdvisorOutcome, IterationStats, StopCriteria, StopReason,
};
pub use candidate::{CandidateSet, RankedCandidate};
pub use control::ControlState;
pub use evaluation::AcceptanceCriterion;
pub use indicator::{IndicatorOptions, IndicatorStore, LocalIndicator};
pub use multisource::MultiSourceSearch;
pub use report::{summarize, ConfigurationReport, SchemeCounts};
