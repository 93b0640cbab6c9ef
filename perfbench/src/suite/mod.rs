//! The benchmark suite: load generation, fixtures, workloads, the span
//! buffer of the traced pass and the per-layer probes.

pub mod advise;
pub mod client;
pub mod embed;
pub mod fixture;
pub mod ops;
pub mod probes;
pub mod recover;
pub mod reference;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
