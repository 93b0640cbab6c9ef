//! Query AST, the request description and results for the forecast
//! query dialect.

use crate::explain::ExplainReport;
use crate::{F2dbError, Result};
use fdc_approx::ApproxQuerySpec;
use fdc_codec::hash::{fnv1a, FNV_OFFSET};
use fdc_cube::NodeId;
use fdc_forecast::Granularity;

/// What a [`QueryRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Answer the forecast query with rows.
    #[default]
    Forecast,
    /// Describe how the query would be answered, without executing it:
    /// resolved nodes, scheme kinds, sources, weights and the
    /// maintenance state of the models that would serve it.
    Explain,
    /// Execute the plan and annotate it with per-node wall-clock
    /// timings, source-model states and the values produced.
    ExplainAnalyze,
}

/// One forecast request — everything [`crate::F2db::execute`] needs,
/// whether it arrives from an embedder, the shell or the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The statement text. The explain modes accept it with or without
    /// a leading `EXPLAIN [ANALYZE]`.
    pub sql: String,
    /// Restricts the answer to these of the resolved nodes — the
    /// scatter half of a routed query: the router plans once, then asks
    /// each shard only for the nodes it owns.
    pub nodes: Option<Vec<NodeId>>,
    /// Per-request approximation controls; `None` is the exact path.
    pub approx: Option<ApproxQuerySpec>,
    /// What to do with the statement.
    pub mode: QueryMode,
}

impl QueryRequest {
    /// An exact, unfiltered request.
    pub fn new(sql: impl Into<String>, mode: QueryMode) -> Self {
        QueryRequest {
            sql: sql.into(),
            nodes: None,
            approx: None,
            mode,
        }
    }

    /// Rejects the member combinations no statement text can make
    /// legal, so a router can refuse a request with the engine's own
    /// error before it reaches a shard.
    pub fn validate(&self) -> Result<()> {
        if self.approx.is_some() && self.mode == QueryMode::ExplainAnalyze {
            return Err(F2dbError::Semantic(
                "approx cannot be combined with EXPLAIN ANALYZE: an analyzed plan \
                 executes the exact derivation"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// What [`crate::F2db::execute`] answers: rows for
/// [`QueryMode::Forecast`], a plan for the explain modes.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Forecast rows.
    Rows(QueryResult),
    /// The (possibly analyzed) plan.
    Plan(ExplainReport),
}

impl QueryAnswer {
    /// The forecast rows; `None` for a plan.
    pub fn into_rows(self) -> Option<QueryResult> {
        match self {
            QueryAnswer::Rows(result) => Some(result),
            QueryAnswer::Plan(_) => None,
        }
    }

    /// The plan; `None` for forecast rows.
    pub fn into_plan(self) -> Option<ExplainReport> {
        match self {
            QueryAnswer::Plan(report) => Some(report),
            QueryAnswer::Rows(_) => None,
        }
    }
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A forecast query (`SELECT … AS OF now() + '…'`).
    Forecast(ForecastQuery),
    /// `EXPLAIN [ANALYZE] SELECT …` — describe how the query would be
    /// answered (resolved nodes, derivation schemes, models). With
    /// `ANALYZE` the plan is actually executed and annotated with
    /// per-node wall-clock timings, source-model states and the values
    /// produced.
    Explain {
        /// The query being explained.
        query: ForecastQuery,
        /// Whether the plan should be executed (`EXPLAIN ANALYZE`).
        analyze: bool,
    },
    /// An insert of one base observation
    /// (`INSERT INTO facts VALUES ('C1', 'R1', 'P2', 12.5)`).
    Insert {
        /// Dimension value labels in schema order.
        values: Vec<String>,
        /// The measure value.
        measure: f64,
    },
}

/// The aggregate applied to the measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregateFn {
    /// SUM — the cube's native aggregation (forecasts derive directly).
    #[default]
    Sum,
    /// AVG — derived from the SUM forecast divided by the number of base
    /// series under the node (exact for aligned cubes).
    Avg,
}

/// A forecast query in the shape of Fig. 1:
///
/// ```sql
/// SELECT time, SUM(sales) FROM facts
/// WHERE product = 'P4' AND region = 'R2'
/// GROUP BY time
/// AS OF now() + '1 day'
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastQuery {
    /// Raw select items (informational; the measure is implied).
    pub select: Vec<String>,
    /// The fact table name (informational; one cube per database).
    pub table: String,
    /// Equality predicates `dimension = 'value'`.
    pub predicates: Vec<(String, String)>,
    /// Dimensions listed in GROUP BY besides `time` (query expansion).
    pub group_dims: Vec<String>,
    /// The forecast horizon of the AS OF clause.
    pub horizon: HorizonSpec,
    /// The aggregate applied to the measure (SUM by default).
    pub aggregate: AggregateFn,
}

/// Time units accepted in the AS OF clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeUnit {
    /// Hours.
    Hour,
    /// Days.
    Day,
    /// Weeks.
    Week,
    /// Months.
    Month,
    /// Quarters.
    Quarter,
    /// Years.
    Year,
}

/// The horizon of a forecast query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonSpec {
    /// A raw number of series steps (`'3 steps'`).
    Steps(usize),
    /// A calendar quantity (`'1 day'`), converted against the data's
    /// granularity.
    Units {
        /// Quantity.
        n: usize,
        /// Unit.
        unit: TimeUnit,
    },
}

impl HorizonSpec {
    /// Converts the horizon into a number of series steps for the given
    /// granularity. Returns `None` when the unit is finer than the
    /// granularity (e.g. hours over monthly data).
    pub fn steps(&self, granularity: Granularity) -> Option<usize> {
        match *self {
            HorizonSpec::Steps(n) => Some(n),
            HorizonSpec::Units { n, unit } => {
                let per_unit: Option<usize> = match (granularity, unit) {
                    (Granularity::Hourly, TimeUnit::Hour) => Some(1),
                    (Granularity::Hourly, TimeUnit::Day) => Some(24),
                    (Granularity::Hourly, TimeUnit::Week) => Some(168),
                    (Granularity::Daily, TimeUnit::Day) => Some(1),
                    (Granularity::Daily, TimeUnit::Week) => Some(7),
                    (Granularity::Weekly, TimeUnit::Week) => Some(1),
                    (Granularity::Weekly, TimeUnit::Year) => Some(52),
                    (Granularity::Monthly, TimeUnit::Month) => Some(1),
                    (Granularity::Monthly, TimeUnit::Quarter) => Some(3),
                    (Granularity::Monthly, TimeUnit::Year) => Some(12),
                    (Granularity::Quarterly, TimeUnit::Quarter) => Some(1),
                    (Granularity::Quarterly, TimeUnit::Year) => Some(4),
                    (Granularity::Yearly, TimeUnit::Year) => Some(1),
                    _ => None,
                };
                per_unit.map(|p| p * n)
            }
        }
    }
}

/// Approximation metadata of a row answered from the sampling plane.
#[derive(Debug, Clone, PartialEq)]
pub struct RowApprox {
    /// Sampled cells actually evaluated.
    pub sampled: u64,
    /// The node's base-cell population.
    pub population: u64,
    /// Confidence level of `ci_half`.
    pub confidence: f64,
    /// Confidence-interval half-width per forecast step, parallel to
    /// [`QueryRow::values`].
    pub ci_half: Vec<f64>,
}

/// One result row: the forecasts of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// The graph node answering the query.
    pub node: NodeId,
    /// Human-readable coordinate label (e.g. `holiday,NSW` or `*,QLD`).
    pub label: String,
    /// `(logical time, forecast value)` pairs.
    pub values: Vec<(i64, f64)>,
    /// `Some` iff this row was answered approximately (a sampled
    /// Horvitz–Thompson scale-up instead of the exact derivation).
    /// Always `None` unless the caller opted into approximation, so
    /// exact results stay byte-identical.
    pub approx: Option<RowApprox>,
}

/// Result of a forecast query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Result rows.
    pub rows: Vec<QueryRow>,
}

impl QueryResult {
    /// A fingerprint over the exact bit patterns of every row: node ids,
    /// labels, time stamps and the raw IEEE-754 bits of each forecast
    /// value (FNV-1a). Two results fingerprint equal iff they are
    /// **byte-identical** — the equivalence the concurrency stress suite
    /// demands between the concurrent engine and its serial replay.
    /// Approximation metadata is intentionally excluded: an exact query
    /// must fingerprint identically whether or not a sampling plane is
    /// attached to the engine.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
        eat(&(self.rows.len() as u64).to_le_bytes());
        for row in &self.rows {
            eat(&(row.node as u64).to_le_bytes());
            eat(row.label.as_bytes());
            eat(&(row.values.len() as u64).to_le_bytes());
            for &(t, v) in &row.values {
                eat(&t.to_le_bytes());
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_conversion_matches_granularity() {
        assert_eq!(
            HorizonSpec::Units {
                n: 1,
                unit: TimeUnit::Day
            }
            .steps(Granularity::Hourly),
            Some(24)
        );
        assert_eq!(
            HorizonSpec::Units {
                n: 2,
                unit: TimeUnit::Quarter
            }
            .steps(Granularity::Monthly),
            Some(6)
        );
        assert_eq!(
            HorizonSpec::Units {
                n: 1,
                unit: TimeUnit::Year
            }
            .steps(Granularity::Quarterly),
            Some(4)
        );
        assert_eq!(HorizonSpec::Steps(5).steps(Granularity::Monthly), Some(5));
    }

    #[test]
    fn fingerprint_separates_bitwise_differences() {
        let row = |v: f64| QueryRow {
            node: 3,
            label: "*,NSW".into(),
            values: vec![(32, v), (33, v + 1.0)],
            approx: None,
        };
        let a = QueryResult {
            rows: vec![row(10.0)],
        };
        let same = QueryResult {
            rows: vec![row(10.0)],
        };
        assert_eq!(a.fingerprint(), same.fingerprint());
        // One ULP of difference must change the fingerprint.
        let nudged = QueryResult {
            rows: vec![row(f64::from_bits(10.0_f64.to_bits() + 1))],
        };
        assert_ne!(a.fingerprint(), nudged.fingerprint());
        assert_ne!(a.fingerprint(), QueryResult::default().fingerprint());
    }

    #[test]
    fn finer_units_than_granularity_are_rejected() {
        assert_eq!(
            HorizonSpec::Units {
                n: 3,
                unit: TimeUnit::Hour
            }
            .steps(Granularity::Monthly),
            None
        );
        assert_eq!(
            HorizonSpec::Units {
                n: 1,
                unit: TimeUnit::Day
            }
            .steps(Granularity::Quarterly),
            None
        );
    }
}
