//! # fdc — Forecasting the Data Cube
//!
//! Umbrella crate for the reproduction of *Forecasting the Data Cube: A
//! Model Configuration Advisor for Multi-Dimensional Data Sets* (Fischer,
//! Schildt, Hartmann, Lehner — ICDE 2013).
//!
//! The workspace is organized as one crate per subsystem; this crate
//! re-exports their public APIs so downstream users can depend on a single
//! crate:
//!
//! * [`forecast`] — time series, accuracy measures, exponential smoothing
//!   and (S)ARIMA models, numerical parameter estimation.
//! * [`cube`] — dimension schemas with functional dependencies, the time
//!   series hyper graph, derivation schemes and configuration evaluation.
//! * [`advisor`] — the model configuration advisor (the paper's primary
//!   contribution).
//! * [`hierarchical`] — the baselines the paper compares against: direct,
//!   bottom-up, top-down, optimal combination, greedy.
//! * [`f2db`] — the embedded flash-forward database: configuration storage,
//!   forecast query language and processor, maintenance processor.
//! * [`datagen`] — synthetic data generation (SARIMA simulation, GenX
//!   cubes, proxies of the paper's real-world data sets).
//! * [`linalg`] — the dense linear algebra kernel used by reconciliation.
//! * [`obs`] — observability: the global metrics registry (counters,
//!   gauges, latency histograms) and hierarchical tracing spans.
//! * [`serve`] — the network forecast-serving subsystem: an HTTP/1.1
//!   worker pool over the F²DB engine with group-committed writes,
//!   admission control and graceful drain.
//! * [`wal`] — the write-ahead log: segmented, checksummed, group-
//!   committed durability under the F²DB engine, with replay-on-open
//!   crash recovery.
//! * [`rng`] — the deterministic xoshiro256** random number generator
//!   shared by data generation, stochastic optimizers and sampling.
//! * [`codec`] — the byte-codec kit every binary format is written and
//!   read with, and the workspace's hashes.
//!
//! ## Quickstart
//!
//! ```
//! use fdc::datagen::{GenSpec, generate_cube};
//! use fdc::advisor::{Advisor, AdvisorOptions};
//!
//! // Generate a small synthetic cube (16 base series, 3 levels).
//! let data = generate_cube(&GenSpec::small(16, 48, 7));
//! // Run the advisor until its α schedule completes.
//! let mut advisor = Advisor::new(&data.dataset, AdvisorOptions::default()).unwrap();
//! let outcome = advisor.run();
//! assert!(outcome.configuration.model_count() >= 1);
//! ```

pub use fdc_approx as approx;
pub use fdc_codec as codec;
pub use fdc_core as advisor;
pub use fdc_cube as cube;
pub use fdc_datagen as datagen;
pub use fdc_f2db as f2db;
pub use fdc_forecast as forecast;
pub use fdc_hierarchical as hierarchical;
pub use fdc_linalg as linalg;
pub use fdc_obs as obs;
pub use fdc_rng as rng;
pub use fdc_router as router;
pub use fdc_serve as serve;
pub use fdc_wal as wal;
