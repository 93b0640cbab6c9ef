//! A data set: the hyper graph plus one materialized time series per
//! node.
//!
//! Aggregates are computed bottom-up along one hyperedge per node, which
//! reproduces the paper's setup of creating "all aggregated time series
//! for the whole time series graph" up front to avoid repeated scans
//! (§VI-A).

use crate::graph::{Coord, NodeId, TimeSeriesGraph};
use crate::schema::Schema;
use crate::{CubeError, Result};
use fdc_forecast::TimeSeries;
use std::sync::Arc;

/// The full multi-dimensional data set: graph + per-node series.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Never changes once built, so clones share it.
    graph: Arc<TimeSeriesGraph>,
    series: Vec<TimeSeries>,
}

impl Dataset {
    /// Builds the hyper graph over the given base series and materializes
    /// every aggregate.
    ///
    /// All base series must be aligned: same logical start, length and
    /// granularity.
    pub fn from_base(schema: Schema, base: Vec<(Coord, TimeSeries)>) -> Result<Self> {
        if base.is_empty() {
            return Err(CubeError::InvalidData("no base series supplied".into()));
        }
        let (first_len, first_start, first_gran) = {
            let first = &base[0].1;
            (first.len(), first.start(), first.granularity())
        };
        let first = &base[0].1;
        if first.is_empty() {
            return Err(CubeError::InvalidData("base series are empty".into()));
        }
        for (c, s) in &base {
            if s.len() != first.len()
                || s.start() != first.start()
                || s.granularity() != first.granularity()
            {
                return Err(CubeError::InvalidData(format!(
                    "base series at {:?} is misaligned with the first series",
                    c.values()
                )));
            }
        }

        let coords: Vec<Coord> = base.iter().map(|(c, _)| c.clone()).collect();
        let graph = TimeSeriesGraph::build(schema, &coords)?;

        // Place base series, then aggregate level by level.
        let n = graph.node_count();
        let zero = TimeSeries::with_start(vec![0.0; first_len], first_start, first_gran);
        let mut series: Vec<TimeSeries> = vec![zero; n];
        for ((_, s), &id) in base.into_iter().zip(graph.base_nodes()) {
            series[id] = s;
        }
        for v in graph.nodes_by_level() {
            if graph.level(v) == 0 {
                continue;
            }
            let edge = graph
                .edges(v)
                .first()
                .ok_or_else(|| CubeError::InvalidData("aggregate node without children".into()))?;
            let mut values = vec![0.0; first_len];
            for &c in &edge.children {
                for (acc, x) in values.iter_mut().zip(series[c].values()) {
                    *acc += x;
                }
            }
            series[v] = TimeSeries::with_start(values, first_start, first_gran);
        }

        Ok(Dataset {
            graph: Arc::new(graph),
            series,
        })
    }

    /// The underlying hyper graph.
    pub fn graph(&self) -> &TimeSeriesGraph {
        &self.graph
    }

    /// The underlying hyper graph, for a holder that outlives this
    /// borrow — the same graph, not a copy.
    pub fn shared_graph(&self) -> Arc<TimeSeriesGraph> {
        Arc::clone(&self.graph)
    }

    /// The (materialized) series of node `v`.
    pub fn series(&self, v: NodeId) -> &TimeSeries {
        &self.series[v]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Length of every series in the data set.
    pub fn series_len(&self) -> usize {
        self.series.first().map_or(0, |s| s.len())
    }

    /// Returns a new data set with an additional base series (e.g. a new
    /// product started selling). The hyper graph is rebuilt, so node ids
    /// change — existing configurations must be re-advised (or
    /// warm-started) against the result.
    ///
    /// The new series must be aligned with the existing ones and its
    /// coordinate fully concrete, canonical and previously absent.
    pub fn with_added_base(&self, coord: Coord, series: TimeSeries) -> Result<Dataset> {
        let g = self.graph();
        let mut base: Vec<(Coord, TimeSeries)> = g
            .base_nodes()
            .iter()
            .map(|&b| (g.coord(b).clone(), self.series(b).clone()))
            .collect();
        base.push((coord, series));
        Dataset::from_base(g.schema().clone(), base)
    }

    /// Appends one new observation per base series (keyed by base node
    /// id) and rolls all aggregates forward — the time-advance operation
    /// of the maintenance processor (§V). Every base node must be present
    /// exactly once.
    pub fn advance_time(&mut self, new_values: &[(NodeId, f64)]) -> Result<()> {
        let base_count = self.graph.base_nodes().len();
        if new_values.len() != base_count {
            return Err(CubeError::InvalidData(format!(
                "expected {base_count} base values, got {}",
                new_values.len()
            )));
        }
        let mut pending = vec![f64::NAN; self.graph.node_count()];
        // Seen rows get their own mask: a NaN value is a legal row, so
        // the value cannot double as the "unset" marker.
        let mut seen = vec![false; self.graph.node_count()];
        for &(id, v) in new_values {
            if !self.graph.is_base(id) {
                return Err(CubeError::InvalidData(format!(
                    "node {id} is not a base node"
                )));
            }
            if std::mem::replace(&mut seen[id], true) {
                return Err(CubeError::InvalidData(format!(
                    "duplicate value for base node {id}"
                )));
            }
            pending[id] = v;
        }
        for v in self.graph.nodes_by_level() {
            if self.graph.level(v) == 0 {
                continue;
            }
            let edge = &self.graph.edges(v)[0];
            pending[v] = edge.children.iter().map(|&c| pending[c]).sum();
        }
        for (s, &p) in self.series.iter_mut().zip(&pending) {
            s.push(p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::STAR;
    use crate::schema::{Dimension, FunctionalDependency};
    use fdc_forecast::Granularity;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Dimension::new(
                    "city",
                    vec!["C1".into(), "C2".into(), "C3".into(), "C4".into()],
                ),
                Dimension::new("region", vec!["R1".into(), "R2".into()]),
                Dimension::new("product", vec!["P1".into(), "P2".into()]),
            ],
            vec![FunctionalDependency::new(0, 1, vec![0, 0, 1, 1])],
        )
        .unwrap()
    }

    fn dataset() -> Dataset {
        let region_of = [0u32, 0, 1, 1];
        let mut base = Vec::new();
        for city in 0..4u32 {
            for product in 0..2u32 {
                let values: Vec<f64> = (0..10)
                    .map(|t| (city as f64 + 1.0) * 10.0 + product as f64 + t as f64)
                    .collect();
                base.push((
                    Coord::new(vec![city, region_of[city as usize], product]),
                    TimeSeries::new(values, Granularity::Monthly),
                ));
            }
        }
        Dataset::from_base(schema(), base).unwrap()
    }

    #[test]
    fn aggregates_equal_sum_of_base_descendants() {
        let ds = dataset();
        let g = ds.graph();
        for v in 0..g.node_count() {
            let desc = g.base_descendants(v);
            let mut expect = vec![0.0; ds.series_len()];
            for b in desc {
                for (acc, x) in expect.iter_mut().zip(ds.series(b).values()) {
                    *acc += x;
                }
            }
            for (a, e) in ds.series(v).values().iter().zip(&expect) {
                assert!(
                    (a - e).abs() < 1e-9,
                    "node {}",
                    g.coord(v).display(g.schema())
                );
            }
        }
    }

    #[test]
    fn top_node_is_total_sum() {
        let ds = dataset();
        let top = ds.graph().top_node();
        let total0: f64 = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| ds.series(b).values()[0])
            .sum();
        assert!((ds.series(top).values()[0] - total0).abs() < 1e-9);
    }

    #[test]
    fn rejects_misaligned_base_series() {
        let s = schema();
        let base = vec![
            (
                Coord::new(vec![0, 0, 0]),
                TimeSeries::new(vec![1.0, 2.0], Granularity::Monthly),
            ),
            (
                Coord::new(vec![1, 0, 0]),
                TimeSeries::new(vec![1.0], Granularity::Monthly),
            ),
        ];
        assert!(Dataset::from_base(s, base).is_err());
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(Dataset::from_base(schema(), vec![]).is_err());
        let base = vec![(
            Coord::new(vec![0, 0, 0]),
            TimeSeries::new(vec![], Granularity::Monthly),
        )];
        assert!(Dataset::from_base(schema(), base).is_err());
    }

    #[test]
    fn with_added_base_extends_the_graph() {
        let ds = dataset();
        // The fixture covers all 4 cities × 2 products; build a smaller
        // cube first, then add one series back.
        let g = ds.graph();
        let partial: Vec<(Coord, TimeSeries)> = g
            .base_nodes()
            .iter()
            .take(7)
            .map(|&b| (g.coord(b).clone(), ds.series(b).clone()))
            .collect();
        let small = Dataset::from_base(schema(), partial).unwrap();
        assert_eq!(small.graph().base_nodes().len(), 7);

        let missing = g.base_nodes()[7];
        let grown = small
            .with_added_base(g.coord(missing).clone(), ds.series(missing).clone())
            .unwrap();
        assert_eq!(grown.graph().base_nodes().len(), 8);
        // The grown cube's total equals the original's.
        let a = grown.series(grown.graph().top_node()).values().to_vec();
        let b = ds.series(ds.graph().top_node()).values().to_vec();
        assert_eq!(a, b);
        // Duplicates and misaligned series are rejected.
        assert!(grown
            .with_added_base(g.coord(missing).clone(), ds.series(missing).clone())
            .is_err());
        assert!(small
            .with_added_base(
                g.coord(missing).clone(),
                TimeSeries::new(vec![1.0], Granularity::Monthly)
            )
            .is_err());
    }

    #[test]
    fn advance_time_updates_all_levels() {
        let mut ds = dataset();
        let n_before = ds.series_len();
        let new: Vec<(NodeId, f64)> = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| (b, 100.0))
            .collect();
        ds.advance_time(&new).unwrap();
        assert_eq!(ds.series_len(), n_before + 1);
        let top = ds.graph().top_node();
        assert!((ds.series(top).values().last().unwrap() - 800.0).abs() < 1e-9);
        let r1 = ds.graph().node(&Coord::new(vec![STAR, 0, STAR])).unwrap();
        assert!((ds.series(r1).values().last().unwrap() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn advance_time_validates_input() {
        let mut ds = dataset();
        // Too few values.
        assert!(ds.advance_time(&[(0, 1.0)]).is_err());
        // Duplicate node.
        let base = ds.graph().base_nodes().to_vec();
        let mut vals: Vec<(NodeId, f64)> = base.iter().map(|&b| (b, 1.0)).collect();
        vals[1] = vals[0];
        assert!(ds.advance_time(&vals).is_err());
        // Duplicate node whose first value is NaN.
        vals[0].1 = f64::NAN;
        vals[1] = (vals[0].0, 2.0);
        assert!(ds.advance_time(&vals).is_err());
        // Non-base node.
        let top = ds.graph().top_node();
        let mut vals: Vec<(NodeId, f64)> = base.iter().map(|&b| (b, 1.0)).collect();
        vals[0] = (top, 1.0);
        assert!(ds.advance_time(&vals).is_err());
    }
}
