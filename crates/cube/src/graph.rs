//! The directed time series hyper graph (§II-A, Fig. 2).
//!
//! Each node represents one time series instance — base series at the
//! lowest level, aggregated series above — and a hyperedge assigns the set
//! of time series that sum to an aggregate. In contrast to the aggregation
//! lattice of the classical data cube, this representation works on the
//! *instance* level: only coordinates under which base data actually
//! exists become nodes.
//!
//! The three properties the paper requires hold by construction:
//!
//! 1. **Completeness** — every aggregation possibility over the values of
//!    the categorical dimensions of the present base series is a node
//!    (built by starring every subset of dimensions of every base
//!    coordinate).
//! 2. **Sharing** — one series contributes to several aggregates (a node
//!    has one parent per free concrete dimension).
//! 3. **Functional dependencies** — coordinates are canonicalized against
//!    the schema's dependencies, so e.g. `C1,*,P2` is folded into
//!    `C1,R1,P2` and never becomes a separate node.

use crate::schema::Schema;
use crate::{CubeError, Result};
use std::collections::HashMap;

/// Sentinel value index representing the aggregation over a dimension
/// (the `*` of Fig. 2).
pub const STAR: u32 = u32::MAX;

/// Identifier of a node in the hyper graph (dense, 0-based).
pub type NodeId = usize;

/// A coordinate in the cube: one value index per dimension, or [`STAR`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Coord(Box<[u32]>);

/// A coordinate hashes and compares as its values, so the graph's index
/// can be asked about a slice (`#[derive(Hash)]` on the one-field struct
/// hashes exactly the boxed slice).
impl std::borrow::Borrow<[u32]> for Coord {
    fn borrow(&self) -> &[u32] {
        &self.0
    }
}

impl Coord {
    /// Creates a coordinate from per-dimension value indices.
    pub fn new(values: Vec<u32>) -> Self {
        Coord(values.into_boxed_slice())
    }

    /// The all-star coordinate (top node) for `dims` dimensions.
    pub fn top(dims: usize) -> Self {
        Coord(vec![STAR; dims].into_boxed_slice())
    }

    /// Per-dimension entries.
    pub fn values(&self) -> &[u32] {
        &self.0
    }

    /// Whether dimension `d` is aggregated in this coordinate.
    pub fn is_star(&self, d: usize) -> bool {
        self.0[d] == STAR
    }

    /// Number of aggregated dimensions.
    pub fn star_count(&self) -> usize {
        self.0.iter().filter(|&&v| v == STAR).count()
    }

    /// Whether every dimension is concrete (a base coordinate).
    pub fn is_base(&self) -> bool {
        self.star_count() == 0
    }

    /// Whether `base` (fully concrete) falls inside the region this
    /// coordinate describes.
    pub fn matches_base(&self, base: &Coord) -> bool {
        self.0
            .iter()
            .zip(base.0.iter())
            .all(|(&a, &b)| a == STAR || a == b)
    }

    /// Renders the coordinate with schema labels, e.g. `C1,R1,*`.
    pub fn display(&self, schema: &Schema) -> String {
        let label = |(d, &v): (usize, &u32)| match v {
            STAR => "*",
            _ => schema.dimensions()[d].values()[v as usize].as_str(),
        };
        // Sized first: one allocation for a label every query row makes.
        let commas = self.0.len().saturating_sub(1);
        let len: usize = self.0.iter().enumerate().map(label).map(str::len).sum();
        let mut out = String::with_capacity(len + commas);
        for at in self.0.iter().enumerate() {
            if at.0 > 0 {
                out.push(',');
            }
            out.push_str(label(at));
        }
        out
    }
}

/// Canonicalizes a coordinate against the schema's functional
/// dependencies: a concrete determinant forces its dependent's value.
///
/// Returns `None` if the coordinate contradicts a dependency (e.g. city
/// C1 combined with a region other than C1's region).
pub fn canonicalize(schema: &Schema, coord: &Coord) -> Option<Coord> {
    let mut vals: Vec<u32> = coord.values().to_vec();
    canonicalize_in_place(schema, &mut vals).then(|| Coord::new(vals))
}

/// [`canonicalize`] on the caller's buffer; `false` on a contradiction
/// (the buffer is then partly canonicalized).
fn canonicalize_in_place(schema: &Schema, vals: &mut [u32]) -> bool {
    // Dependencies may chain (city → region → country); iterate to a
    // fixpoint. Chains are acyclic by schema validation, so at most
    // dim_count passes are needed.
    let mut changed = true;
    while changed {
        changed = false;
        for fd in schema.dependencies() {
            let det = vals[fd.determinant];
            if det == STAR {
                continue;
            }
            let forced = fd.mapping[det as usize];
            match vals[fd.dependent] {
                STAR => {
                    vals[fd.dependent] = forced;
                    changed = true;
                }
                v if v != forced => return false,
                _ => {}
            }
        }
    }
    true
}

/// A hyperedge: instantiating dimension `dim` of a node yields the set of
/// `children` whose series sum to the node's series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperEdge {
    /// The dimension whose values the children enumerate.
    pub dim: usize,
    /// Children node ids, one per present value of `dim`.
    pub children: Vec<NodeId>,
}

/// The time series hyper graph.
#[derive(Debug, Clone)]
pub struct TimeSeriesGraph {
    schema: Schema,
    coords: Vec<Coord>,
    index: HashMap<Coord, NodeId>,
    /// `parents[v]` lists `(starred dimension, parent id)`.
    parents: Vec<Vec<(usize, NodeId)>>,
    /// `edges[v]` lists the hyperedges below `v`, grouped by dimension.
    edges: Vec<Vec<HyperEdge>>,
    /// Node ids of base (fully concrete) coordinates.
    base: Vec<NodeId>,
    /// `levels[v]` = number of aggregated dimensions of `v`.
    levels: Vec<usize>,
}

impl TimeSeriesGraph {
    /// Builds the complete instance-level hyper graph above the given base
    /// coordinates.
    ///
    /// Base coordinates must be fully concrete, canonical (consistent with
    /// all functional dependencies), in range, and free of duplicates.
    pub fn build(schema: Schema, base_coords: &[Coord]) -> Result<Self> {
        let k = schema.dim_count();
        if base_coords.is_empty() {
            return Err(CubeError::InvalidData(
                "at least one base time series is required".into(),
            ));
        }

        // Validate base coordinates.
        for c in base_coords {
            if c.values().len() != k {
                return Err(CubeError::InvalidCoordinate(format!(
                    "coordinate has {} dimensions, schema has {k}",
                    c.values().len()
                )));
            }
            // Ranges first: the messages below display the coordinate.
            for (d, &v) in c.values().iter().enumerate() {
                if v != STAR && v as usize >= schema.dimensions()[d].cardinality() {
                    return Err(CubeError::InvalidCoordinate(format!(
                        "value index {v} out of range for dimension {}",
                        schema.dimensions()[d].name()
                    )));
                }
            }
            if !c.is_base() {
                return Err(CubeError::InvalidCoordinate(format!(
                    "base coordinate {} contains aggregated dimensions",
                    c.display(&schema)
                )));
            }
            match canonicalize(&schema, c) {
                Some(canon) if &canon == c => {}
                _ => {
                    return Err(CubeError::InvalidCoordinate(format!(
                        "base coordinate {} violates a functional dependency",
                        c.display(&schema)
                    )));
                }
            }
        }

        // Enumerate all ancestors of every base coordinate by starring
        // every subset of dimensions, canonicalizing, and deduplicating.
        let mut index: HashMap<Coord, NodeId> = HashMap::new();
        let mut coords: Vec<Coord> = Vec::new();
        let mut base = Vec::with_capacity(base_coords.len());
        let subset_count = 1usize << k;
        for c in base_coords {
            for mask in 0..subset_count {
                let mut vals = c.values().to_vec();
                for (d, val) in vals.iter_mut().enumerate() {
                    if mask & (1 << d) != 0 {
                        *val = STAR;
                    }
                }
                let Some(canon) = canonicalize(&schema, &Coord::new(vals)) else {
                    // Cannot happen starting from a canonical base coord,
                    // but stay defensive.
                    continue;
                };
                let next_id = coords.len();
                let id = *index.entry(canon.clone()).or_insert_with(|| {
                    coords.push(canon);
                    next_id
                });
                if mask == 0 {
                    // mask 0 runs first for every coord, and a starred
                    // mask canonicalizes back to a base coordinate only
                    // when it IS that coordinate — so finding the base
                    // coord already indexed means a duplicate. O(1),
                    // where scanning `base` would be quadratic in the
                    // cell count.
                    if id != next_id {
                        return Err(CubeError::InvalidData(format!(
                            "duplicate base coordinate {}",
                            coords[id].display(&schema)
                        )));
                    }
                    base.push(id);
                }
            }
        }

        let n = coords.len();
        let levels: Vec<usize> = coords.iter().map(|c| c.star_count()).collect();

        // Parents: star each concrete dimension and canonicalize; if the
        // result is a different existing node, it is a parent.
        let mut parents: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); n];
        let mut edge_map: Vec<HashMap<usize, Vec<NodeId>>> = vec![HashMap::new(); n];
        for v in 0..n {
            for d in 0..k {
                if coords[v].is_star(d) {
                    continue;
                }
                let mut vals = coords[v].values().to_vec();
                vals[d] = STAR;
                let Some(p_coord) = canonicalize(&schema, &Coord::new(vals)) else {
                    continue;
                };
                if p_coord == coords[v] {
                    continue;
                }
                if let Some(&p) = index.get(&p_coord) {
                    parents[v].push((d, p));
                    edge_map[p].entry(d).or_default().push(v);
                }
            }
        }
        let edges: Vec<Vec<HyperEdge>> = edge_map
            .into_iter()
            .map(|m| {
                let mut es: Vec<HyperEdge> = m
                    .into_iter()
                    .map(|(dim, mut children)| {
                        children.sort_unstable();
                        HyperEdge { dim, children }
                    })
                    .collect();
                es.sort_by_key(|e| e.dim);
                es
            })
            .collect();

        Ok(TimeSeriesGraph {
            schema,
            coords,
            index,
            parents,
            edges,
            base,
            levels,
        })
    }

    /// The schema this graph is built over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate of node `v`.
    pub fn coord(&self, v: NodeId) -> &Coord {
        &self.coords[v]
    }

    /// Looks a coordinate up (must be canonical).
    pub fn node(&self, coord: &Coord) -> Option<NodeId> {
        self.node_at(coord.values())
    }

    /// [`TimeSeriesGraph::node`] by the coordinate's values, for a
    /// caller that resolves many rows through one buffer.
    pub fn node_at(&self, values: &[u32]) -> Option<NodeId> {
        self.index.get(values).copied()
    }

    /// Resolves a possibly non-canonical coordinate by canonicalizing
    /// first.
    pub fn resolve(&self, coord: &Coord) -> Option<NodeId> {
        self.resolve_in_place(&mut coord.values().to_vec())
    }

    /// [`TimeSeriesGraph::resolve`] for a caller that resolves many
    /// coordinates: canonicalizes `vals` where they are and looks the
    /// result up by slice, so a resolution allocates nothing.
    pub(crate) fn resolve_in_place(&self, vals: &mut [u32]) -> Option<NodeId> {
        if !canonicalize_in_place(&self.schema, vals) {
            return None;
        }
        self.index.get(&*vals).copied()
    }

    /// Base node ids (insertion order of the base coordinates).
    pub fn base_nodes(&self) -> &[NodeId] {
        &self.base
    }

    /// Whether `v` is a base node — O(1): exactly the level-0 nodes are
    /// base coordinates. An id outside the graph is not.
    pub fn is_base(&self, v: NodeId) -> bool {
        self.levels.get(v) == Some(&0)
    }

    /// The top node (all dimensions aggregated).
    pub fn top_node(&self) -> NodeId {
        self.index[&Coord::top(self.schema.dim_count())]
    }

    /// Parents of `v` as `(starred dimension, parent)` pairs.
    pub fn parents(&self, v: NodeId) -> &[(usize, NodeId)] {
        &self.parents[v]
    }

    /// Hyperedges below `v`, grouped by instantiated dimension.
    pub fn edges(&self, v: NodeId) -> &[HyperEdge] {
        &self.edges[v]
    }

    /// Aggregation level of `v` (number of starred dimensions; base = 0).
    pub fn level(&self, v: NodeId) -> usize {
        self.levels[v]
    }

    /// Maximum level in the graph.
    pub fn max_level(&self) -> usize {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Node ids ordered by ascending level (base first) — the order in
    /// which aggregates can be materialized bottom-up.
    pub fn nodes_by_level(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..self.node_count()).collect();
        ids.sort_by_key(|&v| self.levels[v]);
        ids
    }

    /// All base nodes lying below `v` (those its aggregate sums over).
    pub fn base_descendants(&self, v: NodeId) -> Vec<NodeId> {
        let pat = &self.coords[v];
        self.base
            .iter()
            .copied()
            .filter(|&b| pat.matches_base(&self.coords[b]))
            .collect()
    }

    /// Undirected graph distance between two nodes, used by the indicator
    /// neighborhoods ("those nodes which are closest to s in the time
    /// series graph", §IV-C.1). Computed as the number of differing
    /// dimension entries — a cheap, order-consistent proxy for BFS
    /// distance in the aggregation graph.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        self.coords[a]
            .values()
            .iter()
            .zip(self.coords[b].values())
            .filter(|(x, y)| x != y)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Dimension, FunctionalDependency};

    /// The schema of Fig. 2: 4 cities in 2 regions (FD city → region) and
    /// 2 products.
    fn fig2_schema() -> Schema {
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

    fn fig2_base() -> Vec<Coord> {
        // All 4 cities × 2 products, regions forced by the FD.
        let region_of = [0u32, 0, 1, 1];
        let mut out = Vec::new();
        for city in 0..4u32 {
            for product in 0..2u32 {
                out.push(Coord::new(vec![city, region_of[city as usize], product]));
            }
        }
        out
    }

    fn fig2_graph() -> TimeSeriesGraph {
        TimeSeriesGraph::build(fig2_schema(), &fig2_base()).unwrap()
    }

    #[test]
    fn canonicalize_fills_dependent_dimension() {
        let s = fig2_schema();
        let c = canonicalize(&s, &Coord::new(vec![0, STAR, 1])).unwrap();
        assert_eq!(c.values(), &[0, 0, 1]);
    }

    #[test]
    fn canonicalize_rejects_contradiction() {
        let s = fig2_schema();
        // City C1 lies in R1; pairing it with R2 is invalid.
        assert!(canonicalize(&s, &Coord::new(vec![0, 1, 0])).is_none());
    }

    #[test]
    fn canonicalize_handles_chains() {
        // a → b → c.
        let schema = Schema::new(
            vec![
                Dimension::new("a", vec!["a0".into(), "a1".into()]),
                Dimension::new("b", vec!["b0".into(), "b1".into()]),
                Dimension::new("c", vec!["c0".into()]),
            ],
            vec![
                FunctionalDependency::new(0, 1, vec![0, 1]),
                FunctionalDependency::new(1, 2, vec![0, 0]),
            ],
        )
        .unwrap();
        let c = canonicalize(&schema, &Coord::new(vec![1, STAR, STAR])).unwrap();
        assert_eq!(c.values(), &[1, 1, 0]);
    }

    #[test]
    fn fig2_graph_has_expected_node_count() {
        // Fig. 2 for both products: base 4×2 = 8; per product: 2 region
        // aggregates, 1 total → with product star: cities ×1 (C_i,R,*): 4,
        // regions 2, top 1. Count explicitly:
        // concrete product (2 products): 4 base + 2 region + 1 all = 7 → 14
        // star product: 4 city + 2 region + 1 top = 7
        // total 21.
        let g = fig2_graph();
        assert_eq!(g.node_count(), 21);
        assert_eq!(g.base_nodes().len(), 8);
    }

    #[test]
    fn fd_violating_combinations_are_not_nodes() {
        let g = fig2_graph();
        // C1,*,P2 canonicalizes to C1,R1,P2 — must resolve to the base node.
        let resolved = g.resolve(&Coord::new(vec![0, STAR, 1])).unwrap();
        assert_eq!(g.coord(resolved).values(), &[0, 0, 1]);
        // No stored node has city concrete but region star.
        for v in 0..g.node_count() {
            let c = g.coord(v);
            if !c.is_star(0) {
                assert!(
                    !c.is_star(1),
                    "node {} is non-canonical",
                    c.display(g.schema())
                );
            }
        }
    }

    #[test]
    fn top_node_exists_and_has_max_level() {
        let g = fig2_graph();
        let top = g.top_node();
        assert_eq!(g.coord(top).values(), &[STAR, STAR, STAR]);
        assert_eq!(g.level(top), 3);
        assert_eq!(g.max_level(), 3);
    }

    #[test]
    fn base_nodes_have_no_edges_below() {
        let g = fig2_graph();
        for &b in g.base_nodes() {
            assert_eq!(g.level(b), 0);
            assert!(g.edges(b).is_empty());
            assert!(!g.parents(b).is_empty());
        }
        // `is_base` is exactly membership in `base_nodes`.
        for v in 0..g.node_count() + 1 {
            assert_eq!(g.is_base(v), g.base_nodes().contains(&v), "node {v}");
        }
    }

    #[test]
    fn sharing_property_multiple_parents() {
        let g = fig2_graph();
        // Base node C1,R1,P2 can aggregate to *,R1,P2 (star city) or to
        // C1,R1,* (star product) — exactly two parents (starring region is
        // non-canonical).
        let b = g.node(&Coord::new(vec![0, 0, 1])).unwrap();
        let parents = g.parents(b);
        assert_eq!(parents.len(), 2);
        let coords: Vec<&[u32]> = parents.iter().map(|&(_, p)| g.coord(p).values()).collect();
        assert!(coords.contains(&&[STAR, 0, 1][..]));
        assert!(coords.contains(&&[0, 0, STAR][..]));
    }

    #[test]
    fn hyperedges_group_children_by_dimension() {
        let g = fig2_graph();
        // Node *,R1,P1 has one hyperedge (city) with 2 children.
        let v = g.node(&Coord::new(vec![STAR, 0, 0])).unwrap();
        let edges = g.edges(v);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].dim, 0);
        assert_eq!(edges[0].children.len(), 2);
        // The top node aggregates via region or product — NOT via city:
        // a node with a concrete city always carries its region (FD), so
        // starring its city lands on the region aggregate, not on top.
        // This matches Fig. 2, where the top's incoming edges come from
        // the region and product levels.
        let top = g.top_node();
        let dims: Vec<usize> = g.edges(top).iter().map(|e| e.dim).collect();
        assert_eq!(dims, vec![1, 2]);
        // Children of top via region: 2 nodes; via product: 2.
        assert_eq!(g.edges(top)[0].children.len(), 2);
        assert_eq!(g.edges(top)[1].children.len(), 2);
    }

    #[test]
    fn base_descendants_respect_region_structure() {
        let g = fig2_graph();
        let v = g.node(&Coord::new(vec![STAR, 1, STAR])).unwrap(); // region R2
        let desc = g.base_descendants(v);
        assert_eq!(desc.len(), 4); // cities C3, C4 × products P1, P2
        for b in desc {
            assert_eq!(g.coord(b).values()[1], 1);
        }
    }

    #[test]
    fn build_rejects_bad_bases() {
        let s = fig2_schema();
        // Aggregated dim in base.
        assert!(TimeSeriesGraph::build(s.clone(), &[Coord::new(vec![0, 0, STAR])]).is_err());
        // FD violation.
        assert!(TimeSeriesGraph::build(s.clone(), &[Coord::new(vec![0, 1, 0])]).is_err());
        // Out of range.
        assert!(TimeSeriesGraph::build(s.clone(), &[Coord::new(vec![9, 0, 0])]).is_err());
        // Wrong arity.
        assert!(TimeSeriesGraph::build(s.clone(), &[Coord::new(vec![0, 0])]).is_err());
        // Duplicate.
        assert!(TimeSeriesGraph::build(
            s.clone(),
            &[Coord::new(vec![0, 0, 0]), Coord::new(vec![0, 0, 0])]
        )
        .is_err());
        // Empty.
        assert!(TimeSeriesGraph::build(s, &[]).is_err());
    }

    #[test]
    fn sparse_base_set_builds_partial_graph() {
        // Only one base series: the graph is a single chain of aggregates.
        let g = TimeSeriesGraph::build(fig2_schema(), &[Coord::new(vec![0, 0, 0])]).unwrap();
        // Nodes: base, *R1P1, C1R1*, *R1*, **P1... enumerate:
        // mask over {city, region, product} canonicalized:
        // {} → C1R1P1 ; {c} → *R1P1 ; {r} → C1R1P1 (dup) ; {p} → C1R1* ;
        // {c,r} → **P1 ; {c,p} → *R1* ; {r,p} → C1R1* (dup) ; {c,r,p} → ***
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.base_nodes().len(), 1);
    }

    #[test]
    fn distance_counts_differing_dimensions() {
        let g = fig2_graph();
        let a = g.node(&Coord::new(vec![0, 0, 0])).unwrap();
        let b = g.node(&Coord::new(vec![1, 0, 0])).unwrap();
        let top = g.top_node();
        assert_eq!(g.distance(a, a), 0);
        assert_eq!(g.distance(a, b), 1);
        assert_eq!(g.distance(a, top), 3);
    }

    #[test]
    fn nodes_by_level_is_monotone() {
        let g = fig2_graph();
        let order = g.nodes_by_level();
        for w in order.windows(2) {
            assert!(g.level(w[0]) <= g.level(w[1]));
        }
        assert_eq!(order.len(), g.node_count());
    }
}
