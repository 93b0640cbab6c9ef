//! # fdc-perfbench — the repo benchmark
//!
//! Seven workloads over the paper's pipeline — the advisor (§III–IV)
//! and the F²DB query and maintenance processors (§V, Fig. 9) — each
//! reporting the same end-to-end metrics, plus a traced pass that times
//! every layer from outside, through its public functions only. See
//! `README.md` for the metric glossary and the prediction table.

pub mod suite;
