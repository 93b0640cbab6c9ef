//! The placement map and the one planner both serving tiers run.
//!
//! A forecast statement becomes the nodes it answers in one step:
//! parse and classify the statement under the request's mode, resolve
//! its borrowed labels over the time series graph, keep the caller's
//! node filter (in resolve order). No label is copied on the way: the
//! parse borrows the text and [`fdc_cube::query::resolve_labels`] looks
//! each label up where it stands.
//! [`F2db::execute`](crate::F2db::execute) takes that step over its own
//! data set; a [`Placement`] takes it over a copy of what the step
//! reads — the graph (schema plus base coordinates) and the catalog's
//! per-node scheme sources, both fixed for an engine's lifetime — so a
//! process without the cube plans exactly as a shard would, refusing a
//! statement in the shard's own words.
//!
//! A shard serves its map encoded (`GET /placement`) and answers `POST
//! /plan` from it; a router fetches it once and plans every routed query
//! locally, then asks each shard only for the nodes it owns.
//!
//! ## Encoding
//!
//! `FDCP`, version 1, through `fdc-codec`: the dimensions (name, value
//! labels), the functional dependencies, every base coordinate in the
//! graph's base order (which fixes the node numbering a rebuilt graph
//! gets), and one source table row per node (tag `0`: no scheme; `1`:
//! the scheme's source ids). The last eight bytes are the FNV-1a hash of
//! everything before them: the map's **fingerprint**, which every routed
//! sub-request carries so that a shard holding another map refuses it.
//! A decoder checks the fingerprint first, so every truncation and every
//! bit flip is a typed error.

use crate::parser::{parse, Parsed, Query};
use crate::query::QueryMode;
use crate::{F2dbError, Result};
use fdc_codec::hash::{fnv1a, FNV_OFFSET};
use fdc_codec::{DecodeError, Reader, Writer};
use fdc_cube::{Coord, Dimension, FunctionalDependency, NodeId, Schema, TimeSeriesGraph};
use std::sync::Arc;

/// Magic bytes of an encoded placement map.
pub const MAGIC: &[u8; 4] = b"FDCP";
/// The one version this build reads and writes.
pub const VERSION: u16 = 1;
/// The widest schema a decoded map may declare: building a graph visits
/// every subset of the dimensions for every base cell.
const MAX_DIMS: usize = 16;

/// What a statement resolves to and what each node's forecast needs;
/// see the module docs.
#[derive(Debug, Clone)]
pub struct Placement {
    /// On a shard, the engine's own graph, shared.
    graph: Arc<TimeSeriesGraph>,
    /// `sources[v]`: the scheme sources of node `v`'s catalog entry;
    /// `None` when the configuration does not serve `v`.
    sources: Vec<Option<Vec<NodeId>>>,
    /// The encoding, fingerprint included — built once, served as is.
    bytes: Vec<u8>,
    fingerprint: u64,
}

impl Placement {
    /// The map of `graph` under the per-node `sources` (one row per
    /// node, ids inside the graph).
    pub(crate) fn new(graph: Arc<TimeSeriesGraph>, sources: Vec<Option<Vec<NodeId>>>) -> Placement {
        let mut w = Writer::with_capacity(4096);
        w.header(MAGIC, VERSION);
        let schema = graph.schema();
        w.len(schema.dim_count());
        for d in schema.dimensions() {
            text(&mut w, d.name());
            w.len(d.cardinality());
            for label in d.values() {
                text(&mut w, label);
            }
        }
        w.len(schema.dependencies().len());
        for fd in schema.dependencies() {
            w.len(fd.determinant);
            w.len(fd.dependent);
            w.len(fd.mapping.len());
            for &m in &fd.mapping {
                w.u32(m);
            }
        }
        w.len(graph.base_nodes().len());
        for &b in graph.base_nodes() {
            for &v in graph.coord(b).values() {
                w.u32(v);
            }
        }
        w.len(sources.len());
        for row in &sources {
            match row {
                None => w.u8(0),
                Some(ids) => {
                    w.u8(1);
                    w.len(ids.len());
                    for &id in ids {
                        w.u64(id as u64);
                    }
                }
            }
        }
        let fingerprint = fnv1a(FNV_OFFSET, w.as_bytes());
        w.u64(fingerprint);
        Placement {
            graph,
            sources,
            bytes: w.finish(),
            fingerprint,
        }
    }

    /// Reads a map written by [`Placement::encode`]: the fingerprint
    /// must match, the schema and the graph must build, and the source
    /// table must have one row per graph node naming graph nodes.
    pub fn decode(bytes: &[u8]) -> Result<Placement> {
        let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(8));
        let mut r = Reader::new(body);
        r.header(MAGIC, VERSION..=VERSION)?;
        let fingerprint = fnv1a(FNV_OFFSET, body);
        if Reader::new(trailer).u64()? != fingerprint {
            return Err(DecodeError::Corrupt("placement fingerprint mismatch").into());
        }
        // A dimension is at least its name's and its value count's
        // lengths; a label, a mapping entry, its length or value.
        let dim_count = r.count(16)?;
        if dim_count > MAX_DIMS {
            return Err(DecodeError::Corrupt("placement declares too many dimensions").into());
        }
        let mut dimensions = Vec::with_capacity(dim_count);
        for _ in 0..dim_count {
            let name = read_text(&mut r)?;
            let labels = r.count(8)?;
            let values = (0..labels)
                .map(|_| read_text(&mut r))
                .collect::<Result<_>>()?;
            dimensions.push(Dimension::new(name, values));
        }
        let fd_count = r.count(24)?;
        let mut dependencies = Vec::with_capacity(fd_count);
        for _ in 0..fd_count {
            let determinant = r.u64()? as usize;
            let dependent = r.u64()? as usize;
            let entries = r.count(4)?;
            let mapping = (0..entries)
                .map(|_| r.u32())
                .collect::<std::result::Result<_, _>>()?;
            dependencies.push(FunctionalDependency::new(determinant, dependent, mapping));
        }
        let schema = Schema::new(dimensions, dependencies)
            .map_err(|e| F2dbError::Storage(format!("placement schema: {e}")))?;
        let k = schema.dim_count();
        let base_count = r.count(4 * k)?;
        let mut coords = Vec::with_capacity(base_count);
        for _ in 0..base_count {
            let values = (0..k)
                .map(|_| r.u32())
                .collect::<std::result::Result<_, _>>()?;
            coords.push(Coord::new(values));
        }
        let graph = TimeSeriesGraph::build(schema, &coords)
            .map_err(|e| F2dbError::Storage(format!("placement graph: {e}")))?;
        let n = r.count(1)?;
        if n != graph.node_count() {
            return Err(F2dbError::Storage(format!(
                "placement lists sources of {n} nodes, its graph has {}",
                graph.node_count()
            )));
        }
        let mut sources = Vec::with_capacity(n);
        for _ in 0..n {
            sources.push(match r.u8()? {
                0 => None,
                1 => {
                    let count = r.count(8)?;
                    let ids = (0..count)
                        .map(|_| r.u64().map(|id| id as NodeId))
                        .collect::<std::result::Result<Vec<_>, _>>()?;
                    if let Some(id) = ids.iter().find(|&&id| id >= n) {
                        return Err(F2dbError::Storage(format!(
                            "scheme source {id} outside a placement of {n} nodes"
                        )));
                    }
                    Some(ids)
                }
                t => return Err(F2dbError::Storage(format!("bad source tag {t}"))),
            });
        }
        r.finish()?;
        Ok(Placement {
            graph: Arc::new(graph),
            sources,
            bytes: bytes.to_vec(),
            fingerprint,
        })
    }

    /// The encoded map, fingerprint last.
    pub fn encode(&self) -> &[u8] {
        &self.bytes
    }

    /// The FNV-1a hash of the encoding: equal maps, equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The graph the map resolves statements over.
    pub fn graph(&self) -> &TimeSeriesGraph {
        &self.graph
    }

    /// The planner: the nodes `sql` answers under `mode`, in row order,
    /// restricted to `filter` — refused exactly as
    /// [`F2db::execute`](crate::F2db::execute) refuses the statement
    /// (the explain modes accept an `EXPLAIN` prefix), and also when a
    /// node has no scheme in the configuration.
    pub fn plan(
        &self,
        sql: &str,
        mode: QueryMode,
        filter: Option<&[NodeId]>,
    ) -> Result<Vec<NodeId>> {
        let nodes = resolve(&self.graph, &statement(sql, mode)?, filter)?;
        if let Some(&n) = nodes.iter().find(|&&n| self.sources[n].is_none()) {
            return Err(F2dbError::Semantic(format!(
                "node {} has no derivation scheme in the configuration",
                self.label(n)
            )));
        }
        Ok(nodes)
    }

    /// The coordinate label of `node`, e.g. `(holiday, *)`.
    pub fn label(&self, node: NodeId) -> String {
        self.graph.coord(node).display(self.graph.schema())
    }

    /// Base nodes the forecast at `node` depends on, ascending: see
    /// [`closure`].
    pub fn closure(&self, node: NodeId) -> Vec<NodeId> {
        closure(
            &self.graph,
            self.sources[node].as_deref().unwrap_or(&[]),
            node,
        )
    }

    /// The placement key of base node `base`: see [`key`].
    pub fn key(&self, base: NodeId, key_dims: usize) -> String {
        key(&self.graph, base, key_dims)
    }
}

fn text(w: &mut Writer, s: &str) {
    w.len(s.len());
    w.bytes(s.as_bytes());
}

fn read_text(r: &mut Reader<'_>) -> Result<String> {
    let len = r.count(1)?;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| DecodeError::Corrupt("placement label is not UTF-8").into())
}

/// Parses `sql` and classifies it against `mode` — the one place a
/// statement becomes a [`Query`].
pub(crate) fn statement(sql: &str, mode: QueryMode) -> Result<Query<'_>> {
    match (parse(sql)?, mode) {
        (Parsed::Insert { .. }, _) => Err(F2dbError::Semantic(
            "expected a forecast query, got an INSERT".into(),
        )),
        (Parsed::Explain { .. }, QueryMode::Forecast) => Err(F2dbError::Semantic(
            "EXPLAIN statements return a plan; use QueryMode::Explain or \
             QueryMode::ExplainAnalyze"
                .into(),
        )),
        (Parsed::Explain { analyze: true, .. }, QueryMode::Explain) => Err(F2dbError::Semantic(
            "EXPLAIN ANALYZE executes the query; use QueryMode::ExplainAnalyze".into(),
        )),
        (Parsed::Forecast(q) | Parsed::Explain { query: q, .. }, _) => Ok(q),
    }
}

/// The nodes a query's predicates and GROUP BY dimensions select, in
/// row order, restricted to `filter` (resolve order kept; an empty
/// intersection is an error).
pub(crate) fn resolve(
    graph: &TimeSeriesGraph,
    query: &Query<'_>,
    filter: Option<&[NodeId]>,
) -> Result<Vec<NodeId>> {
    let values = query
        .predicates
        .iter()
        .map(|&(dim, value)| (dim, Some(value)));
    let groups = query.group_dims.iter().map(|&dim| (dim, None));
    let mut nodes = fdc_cube::query::resolve_labels(graph, values.chain(groups))
        .map_err(|e| F2dbError::Semantic(e.to_string()))?;
    if let Some(f) = filter {
        let keep: std::collections::HashSet<NodeId> = f.iter().copied().collect();
        nodes.retain(|n| keep.contains(n));
        if nodes.is_empty() {
            return Err(F2dbError::Semantic(
                "node filter excludes every node the query resolves to".into(),
            ));
        }
    }
    Ok(nodes)
}

/// Base nodes the forecast at `v` transitively depends on: `v`'s own
/// base descendants plus those of every scheme source (sorted,
/// deduplicated). This is the node set one shard must own for the
/// forecast to be computable there.
pub(crate) fn closure(graph: &TimeSeriesGraph, sources: &[NodeId], v: NodeId) -> Vec<NodeId> {
    let mut closure = Vec::new();
    for node in std::iter::once(v).chain(sources.iter().copied()) {
        push_bases(graph, node, &mut closure);
    }
    closure.sort_unstable();
    closure.dedup();
    closure
}

/// Appends the base nodes below `v`, walking one hyperedge a level: the
/// children of any one edge split their parent's base cells between
/// them, so a node costs its own descendants, not a scan of every base.
fn push_bases(graph: &TimeSeriesGraph, v: NodeId, out: &mut Vec<NodeId>) {
    match graph.edges(v).first() {
        None => out.push(v),
        Some(edge) => {
            for &child in &edge.children {
                push_bases(graph, child, out);
            }
        }
    }
}

/// The placement key of a base node: its first `key_dims` dimension
/// *values* (schema order) joined with `|` — the string a
/// consistent-hash placement function scores. `key_dims` of 0 (or more
/// dimensions than the schema has) uses every dimension, i.e. one key
/// per base cell; `key_dims = 1` co-locates the entire sub-hierarchy
/// under each first-dimension value.
pub(crate) fn key(graph: &TimeSeriesGraph, base: NodeId, key_dims: usize) -> String {
    let dimensions = graph.schema().dimensions();
    let take = match key_dims {
        0 => dimensions.len(),
        n => n.min(dimensions.len()),
    };
    let mut key = String::new();
    for (d, &v) in graph.coord(base).values()[..take].iter().enumerate() {
        if d > 0 {
            key.push('|');
        }
        key.push_str(&dimensions[d].values()[v as usize]);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F2db;

    /// Tourism with one model, at the top: every other node derives
    /// from it, so every closure is the whole cube.
    fn db() -> F2db {
        let ds = fdc_datagen::tourism_proxy(1);
        let split = fdc_cube::CubeSplit::new(&ds, 0.8);
        let fit = fdc_forecast::FitOptions::default();
        let top = ds.graph().top_node();
        let model =
            fdc_cube::ConfiguredModel::fit(&split, top, &fdc_forecast::ModelSpec::Ses, &fit)
                .unwrap();
        let mut cfg = fdc_cube::Configuration::new(ds.node_count());
        cfg.insert_model(top, model);
        let all: Vec<NodeId> = (0..ds.node_count()).collect();
        cfg.recompute_nodes(&ds, &split, &all);
        F2db::load(ds, &cfg).unwrap()
    }

    #[test]
    fn a_decoded_map_is_the_map() {
        let db = db();
        let map = db.placement();
        let back = Placement::decode(map.encode()).unwrap();
        assert_eq!(back.encode(), map.encode());
        assert_eq!(back.fingerprint(), map.fingerprint());
        let g = db.dataset().graph().clone();
        assert_eq!(back.graph().node_count(), g.node_count());
        for v in 0..g.node_count() {
            assert_eq!(back.graph().coord(v), g.coord(v));
            assert_eq!(back.closure(v), map.closure(v));
        }
    }

    #[test]
    fn the_closure_walk_finds_every_base_below_a_dependency() {
        use fdc_cube::{Configuration, Dataset, NodeEstimate, Scheme};
        use fdc_forecast::{Granularity, TimeSeries};
        let labels = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        let schema = Schema::new(
            vec![
                Dimension::new("city", labels(&["C1", "C2", "C3", "C4"])),
                Dimension::new("region", labels(&["R1", "R2"])),
                Dimension::new("product", labels(&["P1", "P2"])),
            ],
            vec![FunctionalDependency::new(0, 1, vec![0, 0, 1, 1])],
        )
        .unwrap();
        let base = (0..4u32)
            .flat_map(|c| (0..2u32).map(move |p| (c, p)))
            .map(|(c, p)| {
                let series = TimeSeries::new(vec![1.0; 6], Granularity::Quarterly);
                (Coord::new(vec![c, c / 2, p]), series)
            })
            .collect();
        let ds = Dataset::from_base(schema, base).unwrap();
        let n = ds.node_count();
        let mut cfg = Configuration::new(n);
        for v in 0..n {
            let sources = vec![v, (v * 5 + 1) % n];
            let scheme = Some(Scheme {
                sources,
                weight: 1.0,
            });
            cfg.set_estimate(v, NodeEstimate { error: 0.5, scheme });
        }
        let db = F2db::load(ds, &cfg).unwrap();
        let map = db.placement();
        let g = map.graph();
        for v in 0..n {
            let mut scan = g.base_descendants(v);
            scan.extend(g.base_descendants((v * 5 + 1) % n));
            scan.sort_unstable();
            scan.dedup();
            assert_eq!(map.closure(v), scan, "node {}", map.label(v));
        }
    }

    #[test]
    fn the_plan_is_the_rows_the_engine_answers() {
        let db = db();
        let map = db.placement();
        let sql = "SELECT time, SUM(visitors) FROM facts \
                   GROUP BY time, purpose AS OF now() + '2 quarters'";
        let nodes = map.plan(sql, QueryMode::Forecast, None).unwrap();
        let rows = db.query(sql).unwrap().rows;
        assert_eq!(nodes, rows.iter().map(|r| r.node).collect::<Vec<_>>());
        for (&n, row) in nodes.iter().zip(&rows) {
            assert_eq!(map.label(n), row.label);
            let closure = map.closure(n);
            assert!(
                closure.windows(2).all(|w| w[0] < w[1]),
                "sorted, no repeats"
            );
            let own = db.dataset().graph().base_descendants(n);
            assert!(own.iter().all(|b| closure.contains(b)));
        }
        // The filter keeps resolve order; an empty intersection refuses.
        let kept = map
            .plan(sql, QueryMode::Forecast, Some(&[nodes[2], nodes[0]]))
            .unwrap();
        assert_eq!(kept, [nodes[0], nodes[2]]);
        let none = map.plan(sql, QueryMode::Forecast, Some(&[NodeId::MAX]));
        assert!(matches!(none, Err(F2dbError::Semantic(_))));
        // The modes classify the statement as the engine does.
        let explain = format!("EXPLAIN {sql}");
        assert_eq!(map.plan(&explain, QueryMode::Explain, None).unwrap(), nodes);
        assert!(map.plan(&explain, QueryMode::Forecast, None).is_err());
        assert!(map
            .plan(
                "INSERT INTO facts VALUES ('holiday', 'NSW', 1.0)",
                QueryMode::ExplainAnalyze,
                None
            )
            .is_err());
    }
}
