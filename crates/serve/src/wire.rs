//! The JSON wire forms the server and the router share.
//!
//! **A forecast request** — the one decoder and the one encoder of
//! [`QueryRequest`]. The server decodes `/query`, `/explain` and `/plan`
//! bodies (and feeds the slow log) through it; the router decodes the
//! client's body and encodes every shard sub-request through it, so the
//! two tiers cannot disagree on what a body means or on which bodies
//! are malformed.
//!
//! | JSON member | `QueryRequest` field | Accepted |
//! |---|---|---|
//! | `"sql": "..."` (required) | `sql` | every route |
//! | `"analyze": bool` | `mode`: `Explain` → `ExplainAnalyze` | `/explain` (ignored elsewhere) |
//! | `"nodes": [ids]` | `nodes` | every mode |
//! | `"approx": {"budget": cells?, "target_ci": rel?, "confidence": level?}` | `approx` | `Forecast`, `Explain` |
//!
//! The route carries the rest of the mode: `/explain` is an explain
//! request, anything else a forecast. `approx` with `analyze` decodes
//! fine and is refused by [`QueryRequest::validate`] — the engine owns
//! that rule.
//!
//! **An `/insert` body** — `{"rows": [row, ...]}` or one bare `row`,
//! a row being `{"dims": ["label", ...], "value": number}`.
//! [`decode_insert`] reads it in one pass of a [`json::Reader`], with no
//! tree in between: the server resolves each row's labels to a base
//! node as they are read, the router hashes them to a shard and keeps
//! the row's bytes.

use crate::json::{self, Kind, Reader, Writer};
use fdc_cube::NodeId;
use fdc_f2db::{ApproxQuerySpec, BaseResolver, QueryMode, QueryRequest};

/// The request header a routed forecast carries: the fingerprint of the
/// placement map the router planned it over, as 16 hex digits. A shard
/// whose own map has another fingerprint answers `421`.
pub const PLACEMENT_HEADER: &str = "fdc-placement";

/// `fingerprint` as [`PLACEMENT_HEADER`] carries it.
pub fn placement_header(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// The route a request of `mode` travels on.
pub fn path(mode: QueryMode) -> &'static str {
    match mode {
        QueryMode::Forecast => "/query",
        QueryMode::Explain | QueryMode::ExplainAnalyze => "/explain",
    }
}

/// Parses a request body as one UTF-8 JSON document.
pub fn parse_body(body: &[u8]) -> Result<json::Value, String> {
    json::parse(utf8(body)?)
}

fn utf8(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())
}

/// An integer-valued JSON number in `[min, max]`.
fn integer(v: &json::Value, min: f64, max: f64) -> Option<f64> {
    v.as_f64()
        .filter(|f| f.fract() == 0.0 && *f >= min && *f <= max)
}

/// Decodes the request a parsed body carries, given the route it
/// arrived on. Every member is checked here, where it enters: the
/// engine only ever sees well-formed node ids and approximation
/// controls.
pub fn decode(path: &str, doc: &json::Value) -> Result<QueryRequest, String> {
    let sql = doc
        .get("sql")
        .and_then(json::Value::as_str)
        .ok_or("body must be a JSON object with a \"sql\" string")?
        .to_string();
    let analyze = doc
        .get("analyze")
        .and_then(json::Value::as_bool)
        .unwrap_or(false);
    let mode = match (path, analyze) {
        ("/explain", true) => QueryMode::ExplainAnalyze,
        ("/explain", false) => QueryMode::Explain,
        _ => QueryMode::Forecast,
    };
    let nodes = match doc.get("nodes") {
        None => None,
        Some(v) => {
            let ids = v
                .as_array()
                .ok_or("\"nodes\" must be an array of node ids")?;
            let ids: Option<Vec<NodeId>> = ids
                .iter()
                .map(|id| integer(id, 0.0, (1u64 << 53) as f64).map(|f| f as NodeId))
                .collect();
            Some(ids.ok_or("\"nodes\" must be an array of non-negative integers")?)
        }
    };
    let approx = match doc.get("approx") {
        None => None,
        Some(v) => {
            if !matches!(v, json::Value::Obj(_)) {
                return Err("\"approx\" must be an object".into());
            }
            let mut spec = ApproxQuerySpec::default();
            if let Some(b) = v.get("budget") {
                let n = integer(b, 1.0, (1u64 << 32) as f64)
                    .ok_or("\"approx.budget\" must be a positive integer")?;
                spec.budget = Some(n as usize);
            }
            if let Some(t) = v.get("target_ci") {
                let f = t
                    .as_f64()
                    .filter(|f| f.is_finite() && *f > 0.0)
                    .ok_or("\"approx.target_ci\" must be a positive number")?;
                spec.target_ci = Some(f);
            }
            if let Some(c) = v.get("confidence") {
                let f = c
                    .as_f64()
                    .filter(|f| *f > 0.0 && *f < 1.0)
                    .ok_or("\"approx.confidence\" must be in (0, 1)")?;
                spec.confidence = Some(f);
            }
            Some(spec)
        }
    };
    Ok(QueryRequest {
        sql,
        nodes,
        approx,
        mode,
    })
}

/// Encodes `request` as the body to send to [`path`]`(request.mode)`;
/// [`decode`] on that route gives `request` back. Absent members are
/// omitted, so an exact request never mentions approximation.
pub fn encode(request: &QueryRequest) -> String {
    // Room for the statement and a node id's digits apiece, so a wide
    // scatter's body is written without growing.
    let ids = request.nodes.as_ref().map_or(0, Vec::len);
    let mut w = Writer::with_capacity(request.sql.len() + 8 * ids + 96);
    w.begin_object().key("sql").str(&request.sql);
    if request.mode == QueryMode::ExplainAnalyze {
        w.key("analyze").bool(true);
    }
    if let Some(nodes) = &request.nodes {
        w.key("nodes").begin_array();
        for node in nodes {
            w.usize(*node);
        }
        w.end_array();
    }
    if let Some(spec) = &request.approx {
        w.key("approx").begin_object();
        if let Some(budget) = spec.budget {
            w.key("budget").usize(budget);
        }
        if let Some(target) = spec.target_ci {
            w.key("target_ci").f64(target);
        }
        if let Some(confidence) = spec.confidence {
            w.key("confidence").f64(confidence);
        }
        w.end_object();
    }
    w.end_object();
    w.finish()
}

/// `{"<key>":<n>}` — what a write route answers with.
pub fn count_body(key: &str, n: usize) -> String {
    let mut w = Writer::new();
    w.begin_object().key(key).usize(n).end_object();
    w.finish()
}

/// What a caller of [`decode_insert`] makes of one row's `dims`: it is
/// handed the labels in order, then asked for the result.
pub trait RowDims {
    /// What a row's labels come to.
    type Out;
    /// The row's next label.
    fn label(&mut self, label: &str);
    /// The row had no more labels; the next one begins another row.
    fn end(&mut self) -> Result<Self::Out, String>;
}

/// The server's reading of a row's labels: the base node they name.
impl RowDims for BaseResolver<'_> {
    type Out = NodeId;
    fn label(&mut self, label: &str) {
        self.push(label);
    }
    fn end(&mut self) -> Result<NodeId, String> {
        self.finish().map_err(|e| e.to_string())
    }
}

/// The last `"dims"` member of a row (a repeated key overrides, as it
/// does in [`json::parse`]'s tree).
enum RowLabels<T> {
    /// None, or not an array.
    Missing,
    /// An array holding something other than a string.
    NotStrings,
    /// An array of strings, and what [`RowDims::end`] made of them.
    Read(Result<T, String>),
}

/// What has been read of a row: its last `"dims"` and its last `"value"`.
struct RowMembers<T> {
    labels: RowLabels<T>,
    value: Option<f64>,
}

impl<T> RowMembers<T> {
    fn new() -> Self {
        RowMembers {
            labels: RowLabels::Missing,
            value: None,
        }
    }

    /// Reads the member `key` whose value the cursor is on: kept when it
    /// is one of a row's, passed over otherwise.
    fn read<D>(&mut self, key: &str, r: &mut Reader<'_>, dims: &mut D) -> Result<(), String>
    where
        D: RowDims<Out = T>,
    {
        match key {
            "dims" => self.labels = row_labels(r, dims)?,
            "value" => self.value = number(r)?,
            _ => r.skip_value()?,
        }
        Ok(())
    }

    /// The row, or why the members do not make one.
    fn finish(self) -> Result<(T, f64), String> {
        match (self.labels, self.value) {
            (RowLabels::Missing, _) => Err("row needs a \"dims\" array".into()),
            (RowLabels::NotStrings, _) => Err("dims must be strings".into()),
            (RowLabels::Read(_), None) => Err("row needs a numeric \"value\"".into()),
            (RowLabels::Read(Err(m)), Some(_)) => Err(m),
            (RowLabels::Read(Ok(out)), Some(value)) => Ok((out, value)),
        }
    }
}

/// Decodes an `/insert` body in one pass: `row(dims, value, bytes)` is
/// called for every row, with what `dims` made of its labels, its value
/// and the row as it stands in the body. All rows or an error: the body
/// must be one whole JSON document, and then the first row in error
/// refuses the batch — as if the body had been parsed to a tree first.
/// Members other than `rows`, `dims` and `value` are passed over.
pub fn decode_insert<'a, D: RowDims, R>(
    body: &'a [u8],
    dims: &mut D,
    row: impl Fn(D::Out, f64, &'a str) -> R,
) -> Result<Vec<R>, String> {
    let mut r = Reader::new(utf8(body)?);
    // The body read as one row (the single-row form), and what its last
    // "rows" member held, if that was an array.
    let mut bare = RowMembers::new();
    let mut rows = None;
    let bytes = members(&mut r, |key, r| match key {
        "rows" => insert_rows(r, dims, &row).map(|held| rows = held),
        key => bare.read(key, r, dims),
    })?;
    r.finish()?;
    match rows {
        Some(rows) => rows,
        None => bare
            .finish()
            .map(|(out, value)| vec![row(out, value, bytes)]),
    }
}

/// Walks the members of the object the cursor is on — `member(key, r)`
/// reads each one's value — and returns the object as it stands in the
/// document. A value that is no object is passed over, with no member.
fn members<'a>(
    r: &mut Reader<'a>,
    mut member: impl FnMut(&str, &mut Reader<'a>) -> Result<(), String>,
) -> Result<&'a str, String> {
    let object = r.peek()? == Kind::Obj;
    let start = r.offset();
    if object {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            member(&key, r)?;
        }
    } else {
        r.skip_value()?;
    }
    Ok(r.since(start))
}

/// What a body's `"rows"` member holds: `None` unless it is an array,
/// then its rows or the first refusal among them.
type Rows<R> = Option<Result<Vec<R>, String>>;

/// Reads one element of `"rows"`. The outer error is the document's, the
/// inner one the row's.
fn insert_row<'a, D: RowDims, R>(
    r: &mut Reader<'a>,
    dims: &mut D,
    make: &impl Fn(D::Out, f64, &'a str) -> R,
) -> Result<Result<R, String>, String> {
    let mut row = RowMembers::new();
    let bytes = members(r, |key, r| row.read(key, r, dims))?;
    Ok(row.finish().map(|(out, value)| make(out, value, bytes)))
}

/// A `"dims"` member: its strings handed to `dims`.
fn row_labels<D: RowDims>(r: &mut Reader<'_>, dims: &mut D) -> Result<RowLabels<D::Out>, String> {
    if r.peek()? != Kind::Arr {
        r.skip_value()?;
        return Ok(RowLabels::Missing);
    }
    let mut strings = true;
    r.begin_array()?;
    while r.next_element()? {
        if strings && r.peek()? == Kind::Str {
            dims.label(&r.string()?);
        } else {
            strings = false;
            r.skip_value()?;
        }
    }
    // Asked either way: it is what begins `dims`' next row.
    let read = dims.end();
    Ok(match strings {
        true => RowLabels::Read(read),
        false => RowLabels::NotStrings,
    })
}

/// A `"value"` member: the number, if it is one.
fn number(r: &mut Reader<'_>) -> Result<Option<f64>, String> {
    Ok(match r.peek()? {
        Kind::Num => Some(r.number()?),
        _ => {
            r.skip_value()?;
            None
        }
    })
}

/// The body's `"rows"` member.
fn insert_rows<'a, D: RowDims, R>(
    r: &mut Reader<'a>,
    dims: &mut D,
    make: &impl Fn(D::Out, f64, &'a str) -> R,
) -> Result<Rows<R>, String> {
    if r.peek()? != Kind::Arr {
        r.skip_value()?;
        return Ok(None);
    }
    let mut made = Vec::new();
    let mut refused = None;
    r.begin_array()?;
    while r.next_element()? {
        match insert_row(r, dims, make)? {
            Ok(row) => made.push(row),
            Err(m) => drop(refused.get_or_insert(m)),
        }
    }
    Ok(Some(match refused {
        Some(m) => Err(m),
        None if made.is_empty() => Err("\"rows\" must not be empty".into()),
        None => Ok(made),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_rng::Rng;

    fn round_trip(request: &QueryRequest) -> Result<QueryRequest, String> {
        let body = encode(request);
        decode(path(request.mode), &parse_body(body.as_bytes())?)
    }

    #[test]
    fn decode_inverts_encode_for_every_request_shape() {
        let alphabet: Vec<char> = "aZ09 '\"\\/\n\t\u{1}\u{7f}é€😀,:{}[]".chars().collect();
        let modes = [
            QueryMode::Forecast,
            QueryMode::Explain,
            QueryMode::ExplainAnalyze,
        ];
        let mut rng = Rng::seed_from_u64(0x51EE_D12E);
        for case in 0..2000 {
            let sql: String = (0..rng.usize_below(40))
                .map(|_| alphabet[rng.usize_below(alphabet.len())])
                .collect();
            let nodes = rng.bool().then(|| {
                (0..rng.usize_below(6))
                    .map(|_| match rng.usize_below(4) {
                        0 => 0,
                        1 => 1usize << 53,
                        2 => (1usize << 53) - 1,
                        _ => (rng.next_u64() >> 11) as NodeId,
                    })
                    .collect()
            });
            // Every subset of the approx members, plus no approx at all.
            let subset = rng.usize_below(9);
            let approx = (subset < 8).then(|| ApproxQuerySpec {
                budget: (subset & 1 != 0).then(|| 1 + rng.usize_below(1 << 32)),
                target_ci: (subset & 2 != 0).then(|| f64::MIN_POSITIVE + rng.f64() * 3.0),
                confidence: (subset & 4 != 0).then(|| (0.5 + rng.f64() / 2.0).min(0.999_999)),
            });
            let request = QueryRequest {
                sql,
                nodes,
                approx,
                mode: modes[rng.usize_below(3)],
            };
            assert_eq!(round_trip(&request).as_ref(), Ok(&request), "case {case}");
        }
    }

    /// Joins a row's labels; `"?"` is a label it does not know.
    struct Joined(String);

    impl RowDims for Joined {
        type Out = String;
        fn label(&mut self, label: &str) {
            self.0.push_str(label);
            self.0.push('/');
        }
        fn end(&mut self) -> Result<String, String> {
            let joined = std::mem::take(&mut self.0);
            match joined.contains('?') {
                true => Err(format!("unknown {joined}")),
                false => Ok(joined),
            }
        }
    }

    fn insert(body: &str) -> Result<Vec<(String, f64, &str)>, String> {
        decode_insert(body.as_bytes(), &mut Joined(String::new()), |d, v, b| {
            (d, v, b)
        })
    }

    #[test]
    fn insert_bodies_decode_rows_in_order_with_their_bytes() {
        let a = r#"{"dims": ["x", "y\"z"], "value": 1.5}"#;
        let b = r#"{"value":-0,"dims":[],"note":{"dims":7}}"#;
        assert_eq!(
            insert(&format!(r#"{{"rows": [{a} , {b}], "value": "ignored"}}"#)),
            Ok(vec![
                ("x/y\"z/".to_string(), 1.5, a),
                (String::new(), -0.0, b)
            ])
        );
        // The bare row is the body's one row.
        assert_eq!(
            insert(&format!(" {a}\n")),
            Ok(vec![("x/y\"z/".to_string(), 1.5, a)])
        );
        // A repeated key: the last one counts, at either level.
        let last = r#"{"dims":["?"],"dims":["k"],"value":1,"value":2}"#;
        assert_eq!(
            insert(&format!(
                r#"{{"rows":[{{"dims":["?"],"value":1}}],"rows":[{last}]}}"#
            )),
            Ok(vec![("k/".to_string(), 2.0, last)])
        );
        assert_eq!(
            insert(r#"{"rows":[{"dims":["?"],"value":1}],"rows":0,"dims":["k"],"value":3}"#)
                .map(|rows| rows.len()),
            Ok(1)
        );
    }

    #[test]
    fn insert_bodies_are_refused_whole_and_for_the_first_reason() {
        for (body, why) in [
            (r#"{"rows": []}"#, "\"rows\" must not be empty"),
            (r#"[1]"#, "row needs a \"dims\" array"),
            (r#"{"rows": [7]}"#, "row needs a \"dims\" array"),
            (r#"{"dims": "x", "value": 1}"#, "row needs a \"dims\" array"),
            (r#"{"dims": ["x", 1, "?"]}"#, "dims must be strings"),
            (
                r#"{"dims": ["?"], "value": "1"}"#,
                "row needs a numeric \"value\"",
            ),
            (r#"{"dims": ["?"], "value": 1}"#, "unknown ?/"),
            // A good row does not save the batch, the first bad one names it,
            (
                r#"{"rows": [{"dims":["a"],"value":1}, {"dims":["?"],"value":1}, {"dims":[]}]}"#,
                "unknown ?/",
            ),
            // and a body that is not one JSON document is refused as that.
            (
                r#"{"rows": [{"dims":["?"],"value":1}, {"dims":["a"],"value":1}]"#,
                "expected ',' or '}' at offset 61",
            ),
            (
                r#"{"dims":["a"],"value":1} x"#,
                "trailing bytes at offset 25",
            ),
        ] {
            assert_eq!(insert(body), Err(why.to_string()), "{body}");
        }
        assert_eq!(
            decode_insert(b"\xff", &mut Joined(String::new()), |_, _, _| ()),
            Err("body is not UTF-8".to_string())
        );
    }

    #[test]
    fn exact_requests_encode_without_optional_members() {
        let plain = QueryRequest::new("SELECT 1", QueryMode::Forecast);
        assert_eq!(encode(&plain), "{\"sql\":\"SELECT 1\"}");
        let analyzed = QueryRequest {
            nodes: Some(vec![3, 12]),
            ..QueryRequest::new("q", QueryMode::ExplainAnalyze)
        };
        assert_eq!(
            encode(&analyzed),
            "{\"sql\":\"q\",\"analyze\":true,\"nodes\":[3,12]}"
        );
    }

    #[test]
    fn the_route_decides_between_forecast_and_explain() {
        let doc = parse_body(b"{\"sql\":\"q\",\"analyze\":true}").unwrap();
        assert_eq!(
            decode("/explain", &doc).unwrap().mode,
            QueryMode::ExplainAnalyze
        );
        // `/query` (and `/plan`) have always ignored the member.
        assert_eq!(decode("/query", &doc).unwrap().mode, QueryMode::Forecast);
        let doc = parse_body(b"{\"sql\":\"q\"}").unwrap();
        assert_eq!(decode("/explain", &doc).unwrap().mode, QueryMode::Explain);
    }

    #[test]
    fn malformed_members_are_rejected_where_they_enter() {
        for bad in [
            "{}",
            "{\"sql\":7}",
            "[\"sql\"]",
            "{\"sql\":\"q\",\"nodes\":3}",
            "{\"sql\":\"q\",\"nodes\":[1.5]}",
            "{\"sql\":\"q\",\"nodes\":[-1]}",
            "{\"sql\":\"q\",\"nodes\":[9007199254740994]}",
            "{\"sql\":\"q\",\"nodes\":[\"1\"]}",
            "{\"sql\":\"q\",\"approx\":3}",
            "{\"sql\":\"q\",\"approx\":{\"budget\":0}}",
            "{\"sql\":\"q\",\"approx\":{\"budget\":1.5}}",
            "{\"sql\":\"q\",\"approx\":{\"budget\":\"x\"}}",
            "{\"sql\":\"q\",\"approx\":{\"target_ci\":0}}",
            "{\"sql\":\"q\",\"approx\":{\"target_ci\":-0.1}}",
            "{\"sql\":\"q\",\"approx\":{\"confidence\":1.5}}",
            "{\"sql\":\"q\",\"approx\":{\"confidence\":0}}",
        ] {
            let doc = parse_body(bad.as_bytes()).unwrap();
            assert!(decode("/query", &doc).is_err(), "accepted {bad}");
        }
        assert!(parse_body(b"\xff").is_err());
        assert!(parse_body(b"{").is_err());
    }
}
