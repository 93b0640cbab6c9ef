//! Node-level queries against the hyper graph.
//!
//! A query "describes one or several nodes in the hyper graph" (§II-A):
//! equality predicates pin dimensions to values, unmentioned dimensions
//! are aggregated (star), and a GROUP BY over a dimension expands to one
//! node per value. This module is the logical layer; the SQL-ish surface
//! syntax lives in `fdc-f2db`.

use crate::graph::{NodeId, TimeSeriesGraph, STAR};
use crate::schema::{Dimension, Schema};
use crate::{CubeError, Result};

/// Per-dimension selector of a node query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimSelector {
    /// Aggregate over the dimension (the default for unmentioned dims).
    All,
    /// Pin the dimension to one value label.
    Value(String),
    /// Expand the query into one node per value of this dimension
    /// (GROUP BY).
    GroupBy,
}

/// A declarative node query: one selector per dimension of the graph
/// it was built for, value labels already looked up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeQuery {
    selectors: Vec<Selector<String>>,
}

/// A [`DimSelector`] against one graph: a label that names a value is
/// kept as that value's index. `L` holds a label the dimension does not
/// have, for the error that reports it: owned in a [`NodeQuery`],
/// borrowed from the caller in [`resolve_labels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selector<L> {
    All,
    Value(u32),
    Unknown(L),
    GroupBy,
}

impl<'a> Selector<&'a str> {
    /// `label` looked up in `dimension`; `None` expands the dimension.
    fn of(dimension: &Dimension, label: Option<&'a str>) -> Self {
        match label {
            None => Selector::GroupBy,
            Some(label) => dimension
                .value_index(label)
                .map_or(Selector::Unknown(label), Selector::Value),
        }
    }

    fn owned(self) -> Selector<String> {
        match self {
            Selector::All => Selector::All,
            Selector::Value(idx) => Selector::Value(idx),
            Selector::Unknown(label) => Selector::Unknown(label.to_owned()),
            Selector::GroupBy => Selector::GroupBy,
        }
    }
}

/// Dimensions whose selectors and candidate coordinate a resolution
/// keeps on the stack; a wider schema's go to the heap.
const INLINE_DIMS: usize = 16;

/// The first `len` slots of `inline`, or of `heap` filled with `fill`
/// when they do not fit: a scratch buffer whose common size costs no
/// allocation.
pub fn stack_or_heap<'b, T: Copy, const N: usize>(
    inline: &'b mut [T; N],
    heap: &'b mut Vec<T>,
    len: usize,
    fill: T,
) -> &'b mut [T] {
    if len <= N {
        &mut inline[..len]
    } else {
        heap.resize(len, fill);
        heap
    }
}

/// The index of the dimension called `name`.
fn dim_index(schema: &Schema, name: &str) -> Result<usize> {
    schema
        .dim_index(name)
        .ok_or_else(|| CubeError::NotFound(format!("dimension {name}")))
}

impl NodeQuery {
    /// A query aggregating over every dimension (the top node).
    pub fn all(dim_count: usize) -> Self {
        NodeQuery {
            selectors: vec![Selector::All; dim_count],
        }
    }

    /// Builds a query from named predicates: `(dimension, selector)`
    /// pairs; unmentioned dimensions default to [`DimSelector::All`],
    /// and of two predicates on one dimension the later one counts.
    pub fn from_predicates(
        graph: &TimeSeriesGraph,
        predicates: &[(&str, DimSelector)],
    ) -> Result<Self> {
        let schema = graph.schema();
        let mut selectors = vec![Selector::All; schema.dim_count()];
        for (name, sel) in predicates {
            let d = dim_index(schema, name)?;
            let dimension = &schema.dimensions()[d];
            selectors[d] = match sel {
                DimSelector::All => Selector::All,
                DimSelector::GroupBy => Selector::GroupBy,
                DimSelector::Value(label) => Selector::of(dimension, Some(label.as_str())).owned(),
            };
        }
        Ok(NodeQuery { selectors })
    }

    /// Resolves the query to its node set, against the graph it was
    /// built for.
    ///
    /// Without GROUP BY selectors the result has exactly one entry.
    /// Each GROUP BY dimension multiplies the result by its (present)
    /// values, the last such dimension varying fastest; nodes without
    /// data are skipped.
    pub fn resolve(&self, graph: &TimeSeriesGraph) -> Result<Vec<NodeId>> {
        let dim_count = graph.schema().dim_count();
        if self.selectors.len() != dim_count {
            return Err(CubeError::InvalidCoordinate(format!(
                "query has {} selectors, schema has {dim_count} dimensions",
                self.selectors.len(),
            )));
        }
        expand(graph, &self.selectors)
    }
}

/// [`NodeQuery::from_predicates`] and [`NodeQuery::resolve`] in one
/// pass over borrowed labels: `(dimension, Some(label))` pins a
/// dimension to a value, `(dimension, None)` expands it (GROUP BY).
/// Same answers, same errors in the same order; below 17 dimensions
/// nothing is allocated but the answer.
pub fn resolve_labels<'a>(
    graph: &TimeSeriesGraph,
    selections: impl IntoIterator<Item = (&'a str, Option<&'a str>)>,
) -> Result<Vec<NodeId>> {
    let schema = graph.schema();
    let mut inline = [Selector::All; INLINE_DIMS];
    let mut heap = Vec::new();
    let selectors = stack_or_heap(&mut inline, &mut heap, schema.dim_count(), Selector::All);
    for (name, label) in selections {
        let d = dim_index(schema, name)?;
        selectors[d] = Selector::of(&schema.dimensions()[d], label);
    }
    expand(graph, selectors)
}

/// The nodes one selector per dimension selects: an unknown label is
/// reported first (the first dimension in schema order that has one),
/// then every GROUP BY combination is canonicalized and looked up.
fn expand<L: AsRef<str>>(
    graph: &TimeSeriesGraph,
    selectors: &[Selector<L>],
) -> Result<Vec<NodeId>> {
    let dimensions = graph.schema().dimensions();
    // How many coordinates the GROUP BYs span (one without any).
    let mut count = 1usize;
    for (sel, dim) in selectors.iter().zip(dimensions) {
        match sel {
            Selector::Unknown(label) => {
                return Err(CubeError::NotFound(format!(
                    "value {} in dimension {}",
                    label.as_ref(),
                    dim.name()
                )));
            }
            Selector::GroupBy => count *= dim.cardinality(),
            Selector::All | Selector::Value(_) => {}
        }
    }
    // One buffer serves every candidate. It is filled anew each time,
    // because canonicalizing writes the dependent dimensions into it;
    // `i` is the candidate's number, its digits the values of the GROUP
    // BY dimensions.
    let mut nodes = Vec::new();
    let (mut inline, mut heap) = ([STAR; INLINE_DIMS], Vec::new());
    let candidate = stack_or_heap(&mut inline, &mut heap, selectors.len(), STAR);
    for mut i in 0..count {
        for (d, sel) in selectors.iter().enumerate().rev() {
            candidate[d] = match sel {
                Selector::Value(idx) => *idx,
                Selector::GroupBy => {
                    let cardinality = dimensions[d].cardinality();
                    let value = i % cardinality;
                    i /= cardinality;
                    value as u32
                }
                Selector::All | Selector::Unknown(_) => STAR,
            };
        }
        nodes.extend(graph.resolve_in_place(candidate));
    }
    if nodes.is_empty() {
        return Err(CubeError::NotFound(
            "query does not match any node with data".into(),
        ));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Coord;
    use crate::schema::{Dimension, FunctionalDependency, Schema};

    fn graph() -> TimeSeriesGraph {
        let schema = Schema::new(
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
        .unwrap();
        let region_of = [0u32, 0, 1, 1];
        let mut base = Vec::new();
        for city in 0..4u32 {
            for product in 0..2u32 {
                base.push(Coord::new(vec![city, region_of[city as usize], product]));
            }
        }
        TimeSeriesGraph::build(schema, &base).unwrap()
    }

    #[test]
    fn query1_of_figure1_resolves_base_node() {
        // SELECT ... WHERE product='P2' AND city='C4' → node C4,R2,P2.
        let g = graph();
        let q = NodeQuery::from_predicates(
            &g,
            &[
                ("product", DimSelector::Value("P2".into())),
                ("city", DimSelector::Value("C4".into())),
            ],
        )
        .unwrap();
        let nodes = q.resolve(&g).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(g.coord(nodes[0]).values(), &[3, 1, 1]);
    }

    #[test]
    fn query2_of_figure1_resolves_aggregate_node() {
        // SELECT SUM ... WHERE product='P2' AND region='R2' → node *,R2,P2.
        let g = graph();
        let q = NodeQuery::from_predicates(
            &g,
            &[
                ("product", DimSelector::Value("P2".into())),
                ("region", DimSelector::Value("R2".into())),
            ],
        )
        .unwrap();
        let nodes = q.resolve(&g).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(g.coord(nodes[0]).values(), &[STAR, 1, 1]);
    }

    #[test]
    fn empty_predicates_resolve_top() {
        let g = graph();
        let q = NodeQuery::all(3);
        let nodes = q.resolve(&g).unwrap();
        assert_eq!(nodes, vec![g.top_node()]);
    }

    #[test]
    fn group_by_expands_to_one_node_per_value() {
        let g = graph();
        let q = NodeQuery::from_predicates(
            &g,
            &[
                ("product", DimSelector::Value("P1".into())),
                ("region", DimSelector::GroupBy),
            ],
        )
        .unwrap();
        let nodes = q.resolve(&g).unwrap();
        assert_eq!(nodes.len(), 2);
        for n in nodes {
            assert_eq!(g.coord(n).values()[2], 0);
            assert_ne!(g.coord(n).values()[1], STAR);
        }
    }

    #[test]
    fn two_group_bys_enumerate_with_the_last_dimension_fastest() {
        let g = graph();
        let q = NodeQuery::from_predicates(
            &g,
            &[
                ("product", DimSelector::GroupBy),
                ("region", DimSelector::GroupBy),
            ],
        )
        .unwrap();
        let coords: Vec<&[u32]> = q
            .resolve(&g)
            .unwrap()
            .into_iter()
            .map(|n| g.coord(n).values())
            .collect();
        let expected: [&[u32]; 4] = [&[STAR, 0, 0], &[STAR, 0, 1], &[STAR, 1, 0], &[STAR, 1, 1]];
        assert_eq!(coords, expected);
        // City forces its region: the combinations that contradict the
        // dependency have no node and are skipped.
        let q = NodeQuery::from_predicates(
            &g,
            &[
                ("region", DimSelector::GroupBy),
                ("city", DimSelector::GroupBy),
            ],
        )
        .unwrap();
        let cities: Vec<u32> = q
            .resolve(&g)
            .unwrap()
            .into_iter()
            .map(|n| g.coord(n).values()[0])
            .collect();
        assert_eq!(cities, [0, 1, 2, 3]);
    }

    #[test]
    fn the_later_predicate_on_a_dimension_counts_and_errors_follow_schema_order() {
        let g = graph();
        let value = |label: &str| DimSelector::Value(label.into());
        // An unknown label is only an error if it is still selected.
        let q = NodeQuery::from_predicates(&g, &[("city", value("C9")), ("city", value("C2"))])
            .unwrap();
        assert_eq!(g.coord(q.resolve(&g).unwrap()[0]).values(), &[1, 0, STAR]);
        // Two unknown labels: the dimension that comes first in the
        // schema is reported, whatever the order of the predicates.
        let q = NodeQuery::from_predicates(&g, &[("product", value("P9")), ("city", value("C9"))])
            .unwrap();
        assert_eq!(
            q.resolve(&g).unwrap_err().to_string(),
            CubeError::NotFound("value C9 in dimension city".into()).to_string()
        );
    }

    #[test]
    fn unknown_dimension_and_value_are_errors() {
        let g = graph();
        assert!(
            NodeQuery::from_predicates(&g, &[("nope", DimSelector::Value("x".into()))]).is_err()
        );
        let q = NodeQuery::from_predicates(&g, &[("city", DimSelector::Value("C9".into()))])
            .unwrap_err_or(&g);
        assert!(q);
    }

    /// Helper extension so the test above reads naturally.
    trait UnwrapErrOr {
        fn unwrap_err_or(self, graph: &TimeSeriesGraph) -> bool;
    }

    impl UnwrapErrOr for crate::Result<NodeQuery> {
        fn unwrap_err_or(self, graph: &TimeSeriesGraph) -> bool {
            match self {
                Err(_) => true,
                Ok(q) => q.resolve(graph).is_err(),
            }
        }
    }

    #[test]
    fn fd_implied_query_canonicalizes() {
        // WHERE city='C1' (region unspecified) resolves to the base node
        // C1,R1,* — wait: product unspecified → star. City concrete forces
        // region. Node C1,R1,* exists.
        let g = graph();
        let q =
            NodeQuery::from_predicates(&g, &[("city", DimSelector::Value("C1".into()))]).unwrap();
        let nodes = q.resolve(&g).unwrap();
        assert_eq!(g.coord(nodes[0]).values(), &[0, 0, STAR]);
    }

    #[test]
    fn wrong_arity_query_rejected() {
        let g = graph();
        let q = NodeQuery::all(2);
        assert!(q.resolve(&g).is_err());
    }
}
