//! Human-readable configuration reports — the output phase's view of a
//! configuration (§IV-D: the advisor "continuously outputs the forecast
//! error as well as the model costs of the current best configuration").

use fdc_cube::{derive::classify_scheme, Configuration, Dataset, SchemeKind};
use std::fmt::Write as _;

/// A structured summary of a model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurationReport {
    /// Overall error (mean node SMAPE).
    pub error: f64,
    /// Number of stored models.
    pub model_count: usize,
    /// Total nodes in the graph.
    pub node_count: usize,
    /// Total model cost (counted creation work).
    pub total_cost: u64,
    /// Models per aggregation level, index = level.
    pub models_per_level: Vec<usize>,
    /// Nodes served per scheme kind: (direct, aggregation,
    /// disaggregation, general, unserved).
    pub scheme_counts: SchemeCounts,
    /// The worst-served nodes: `(label, error)`, highest error first.
    pub worst_nodes: Vec<(String, f64)>,
}

/// Node counts per derivation scheme kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemeCounts {
    /// Nodes using their own model.
    pub direct: usize,
    /// Nodes aggregating a full hyperedge of child models.
    pub aggregation: usize,
    /// Nodes disaggregating an ancestor model.
    pub disaggregation: usize,
    /// Nodes using any other source combination.
    pub general: usize,
    /// Nodes without any derivation scheme.
    pub unserved: usize,
}

/// Builds the report for a configuration over its data set. `top_k`
/// bounds the worst-nodes list.
pub fn summarize(
    dataset: &Dataset,
    configuration: &Configuration,
    top_k: usize,
) -> ConfigurationReport {
    let g = dataset.graph();
    let mut models_per_level = vec![0usize; g.max_level() + 1];
    for (v, _) in configuration.models() {
        models_per_level[g.level(v)] += 1;
    }
    let mut counts = SchemeCounts::default();
    let mut errors: Vec<(usize, f64)> = Vec::with_capacity(g.node_count());
    for v in 0..g.node_count() {
        let est = configuration.estimate(v);
        errors.push((v, est.error));
        match &est.scheme {
            None => counts.unserved += 1,
            Some(s) => match classify_scheme(dataset, &s.sources, v) {
                SchemeKind::Direct => counts.direct += 1,
                SchemeKind::Aggregation => counts.aggregation += 1,
                SchemeKind::Disaggregation => counts.disaggregation += 1,
                SchemeKind::General => counts.general += 1,
            },
        }
    }
    errors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let worst_nodes = errors
        .into_iter()
        .take(top_k)
        .map(|(v, e)| (g.coord(v).display(g.schema()), e))
        .collect();
    ConfigurationReport {
        error: configuration.overall_error(),
        model_count: configuration.model_count(),
        node_count: g.node_count(),
        total_cost: configuration.total_cost(),
        models_per_level,
        scheme_counts: counts,
        worst_nodes,
    }
}

impl std::fmt::Display for ConfigurationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Configuration: error {:.4}, {} models over {} nodes, cost {} work units",
            self.error, self.model_count, self.node_count, self.total_cost
        )?;
        let mut levels = String::new();
        for (l, n) in self.models_per_level.iter().enumerate() {
            if *n > 0 {
                let _ = write!(levels, " L{l}:{n}");
            }
        }
        writeln!(f, "  models per level:{levels}")?;
        let c = &self.scheme_counts;
        writeln!(
            f,
            "  schemes: {} direct, {} aggregation, {} disaggregation, {} general, {} unserved",
            c.direct, c.aggregation, c.disaggregation, c.general, c.unserved
        )?;
        if !self.worst_nodes.is_empty() {
            writeln!(f, "  worst-served nodes:")?;
            for (label, err) in &self.worst_nodes {
                writeln!(f, "    {label:<24} {err:.4}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorOptions};
    use fdc_datagen::tourism_proxy;

    #[test]
    fn summary_counts_are_consistent() {
        let ds = tourism_proxy(1);
        let outcome = Advisor::new(&ds, AdvisorOptions::default()).unwrap().run();
        let report = summarize(&ds, &outcome.configuration, 3);
        assert_eq!(report.node_count, ds.node_count());
        assert_eq!(report.model_count, outcome.model_count);
        assert!((report.error - outcome.error).abs() < 1e-12);
        let c = &report.scheme_counts;
        assert_eq!(
            c.direct + c.aggregation + c.disaggregation + c.general + c.unserved,
            ds.node_count()
        );
        assert_eq!(
            report.models_per_level.iter().sum::<usize>(),
            outcome.model_count
        );
        assert_eq!(report.worst_nodes.len(), 3);
        // Worst list sorted descending.
        assert!(report.worst_nodes[0].1 >= report.worst_nodes[2].1);
    }

    #[test]
    fn display_renders_all_sections() {
        let ds = tourism_proxy(2);
        let outcome = Advisor::new(&ds, AdvisorOptions::default()).unwrap().run();
        let text = summarize(&ds, &outcome.configuration, 2).to_string();
        assert!(text.contains("Configuration: error"));
        assert!(text.contains("models per level"));
        assert!(text.contains("schemes:"));
        assert!(text.contains("worst-served"));
    }

    #[test]
    fn empty_configuration_reports_unserved_nodes() {
        let ds = tourism_proxy(3);
        let cfg = fdc_cube::Configuration::new(ds.node_count());
        let report = summarize(&ds, &cfg, 1);
        assert_eq!(report.scheme_counts.unserved, ds.node_count());
        assert_eq!(report.model_count, 0);
    }
}
