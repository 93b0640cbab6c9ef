//! Seeded op streams: the forecast queries a cube admits and the
//! order in which a client issues them, mixed with full-round inserts.

use crate::suite::fixture::MAX_HORIZON;
use fdc_cube::{DimSelector, NodeId, NodeQuery, TimeSeriesGraph, STAR};
use fdc_rng::Rng;

/// One forecast query of the pool.
#[derive(Debug, Clone)]
pub struct Query {
    /// The statement, for in-process calls.
    pub sql: String,
    /// The same statement as a `POST /query` body.
    pub body: String,
    /// The nodes it resolves to, in row order.
    pub nodes: Vec<NodeId>,
    /// Forecast horizon in steps.
    pub horizon: usize,
}

/// Every distinct query of the workload shapes: a point query per node
/// and horizon, and `GROUP BY time, <dimension>` over each of the two
/// coarsest dimensions per horizon.
#[derive(Debug)]
pub struct QueryPool {
    /// Point queries first (node-major, horizon-minor), then GROUP BYs.
    pub queries: Vec<Query>,
    points: usize,
    top: NodeId,
}

/// How a client's op stream is mixed. Shares are chosen so that p50
/// and p90 each fall well inside one class of op, never on the border
/// between two (a border percentile flips class from run to run).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of ops that insert one full round: 0, or one in a whole
    /// number.
    pub insert: f64,
    /// Share of queries that are `GROUP BY time, <coarsest dimension>`.
    pub group_coarse: f64,
    /// Share of queries that are `GROUP BY time, <second dimension>`.
    pub group_mid: f64,
    /// Leave out the top node: on a partitioned deployment its
    /// derivation closure spans every shard, so no shard can serve it.
    pub skip_top: bool,
}

/// One step of a client's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Issue query `i` of the pool.
    Query(u32),
    /// Insert the next held-out round.
    Insert,
}

impl QueryPool {
    /// Builds the pool for `graph` (any data set of the cube: node ids
    /// depend only on the schema and the base coordinates).
    pub fn new(graph: &TimeSeriesGraph) -> QueryPool {
        let schema = graph.schema();
        let mut queries = Vec::new();
        for node in 0..graph.node_count() {
            let predicates: Vec<String> = graph
                .coord(node)
                .values()
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != STAR)
                .map(|(d, &v)| {
                    let dim = &schema.dimensions()[d];
                    format!("{} = '{}'", dim.name(), dim.values()[v as usize])
                })
                .collect();
            let filter = if predicates.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", predicates.join(" AND "))
            };
            for h in 1..=MAX_HORIZON {
                let sql = format!(
                    "SELECT time, SUM(value) FROM facts{filter} GROUP BY time AS OF now() + '{h} steps'"
                );
                queries.push(Query::new(sql, vec![node], h));
            }
        }
        let points = queries.len();
        for d in 0..2.min(schema.dim_count()) {
            let name = schema.dimensions()[d].name();
            let nodes = NodeQuery::from_predicates(graph, &[(name, DimSelector::GroupBy)])
                .and_then(|q| q.resolve(graph))
                .expect("GROUP BY over a schema dimension resolves");
            for h in 1..=MAX_HORIZON {
                let sql = format!(
                    "SELECT time, SUM(value) FROM facts GROUP BY time, {name} AS OF now() + '{h} steps'"
                );
                queries.push(Query::new(sql, nodes.clone(), h));
            }
        }
        QueryPool {
            queries,
            points,
            top: graph.top_node(),
        }
    }

    /// The horizon-`MAX_HORIZON` point query of `node`.
    pub fn longest_point_query(&self, node: NodeId) -> &Query {
        &self.queries[node * MAX_HORIZON + MAX_HORIZON - 1]
    }

    /// `count` ops drawn from `mix`, deterministic in `seed`. Inserts
    /// are stratified: with a share of one in `n`, every `n` consecutive
    /// ops hold exactly one insert, at a random place among them — so
    /// every seed, block and segment holds the same number of the op
    /// that sets the pace (drawn independently, a segment of 250 ops
    /// held 25 ± 5 of them and its rate followed that count).
    pub fn stream(&self, mix: Mix, seed: u64, count: usize) -> Vec<Op> {
        let mut rng = Rng::seed_from_u64(seed);
        let nodes = self.points / MAX_HORIZON;
        let group = if mix.insert > 0.0 {
            (1.0 / mix.insert).round() as usize
        } else {
            usize::MAX
        };
        let mut insert_at = 0;
        (0..count)
            .map(|i| {
                if group != usize::MAX {
                    if i % group == 0 {
                        insert_at = rng.usize_below(group);
                    }
                    if i % group == insert_at {
                        return Op::Insert;
                    }
                }
                let shape = rng.f64();
                let h = rng.usize_below(MAX_HORIZON);
                let idx = if shape < mix.group_coarse {
                    self.points + h
                } else if shape < mix.group_coarse + mix.group_mid {
                    self.points + MAX_HORIZON + h
                } else {
                    let mut node = rng.usize_below(nodes);
                    while mix.skip_top && node == self.top {
                        node = rng.usize_below(nodes);
                    }
                    node * MAX_HORIZON + h
                };
                Op::Query(idx as u32)
            })
            .collect()
    }
}

impl Query {
    fn new(sql: String, nodes: Vec<NodeId>, horizon: usize) -> Query {
        // The statements contain no character JSON would escape.
        let body = format!("{{\"sql\":\"{sql}\"}}");
        Query {
            sql,
            body,
            nodes,
            horizon,
        }
    }
}
