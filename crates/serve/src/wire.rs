//! The JSON wire form of a forecast request — the one decoder and the
//! one encoder of [`QueryRequest`]. The server decodes `/query`,
//! `/explain` and `/plan` bodies (and feeds the slow log) through it;
//! the router decodes the client's body and encodes every shard
//! sub-request through it, so the two tiers cannot disagree on what a
//! body means or on which bodies are malformed.
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

use crate::json;
use fdc_cube::NodeId;
use fdc_f2db::{ApproxQuerySpec, QueryMode, QueryRequest};

/// The route a request of `mode` travels on.
pub fn path(mode: QueryMode) -> &'static str {
    match mode {
        QueryMode::Forecast => "/query",
        QueryMode::Explain | QueryMode::ExplainAnalyze => "/explain",
    }
}

/// Parses a request body as one UTF-8 JSON document.
pub fn parse_body(body: &[u8]) -> Result<json::Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text)
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
    let mut out = format!("{{\"sql\":\"{}\"", json::escape(&request.sql));
    if request.mode == QueryMode::ExplainAnalyze {
        out.push_str(",\"analyze\":true");
    }
    if let Some(nodes) = &request.nodes {
        let ids: Vec<String> = nodes.iter().map(NodeId::to_string).collect();
        out.push_str(&format!(",\"nodes\":[{}]", ids.join(",")));
    }
    if let Some(spec) = &request.approx {
        let members: Vec<String> = [
            spec.budget.map(|b| format!("\"budget\":{b}")),
            spec.target_ci
                .map(|t| format!("\"target_ci\":{}", json::num(t))),
            spec.confidence
                .map(|c| format!("\"confidence\":{}", json::num(c))),
        ]
        .into_iter()
        .flatten()
        .collect();
        out.push_str(&format!(",\"approx\":{{{}}}", members.join(",")));
    }
    out.push('}');
    out
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
