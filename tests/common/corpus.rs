//! The statement corpus of `tests/parser_goldens.rs`: demo statements,
//! the benchmark pool's shapes, seeded random forecasts and inserts and
//! byte mutations of a few samples. `parser_goldens` carries its own
//! copy of this generator, frozen with its expected values;
//! `query_paths` pins this one to the same digest, so the two cannot
//! drift apart.

use super::mutate::{apply, mutations};
use fdc::rng::Rng;

fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
    from[rng.usize_below(from.len())]
}

/// The statements `perfbench`'s query pool is made of: a point query
/// per node of a GenX cube (coarsest dimension first) and a
/// `GROUP BY time, <dimension>` over the two coarsest dimensions.
fn pool_shapes(rng: &mut Rng, out: &mut Vec<String>) {
    let dims = [("level2", 10), ("level1", 100), ("level0", 1000)];
    for _ in 0..600 {
        let mut predicates = Vec::new();
        for (d, (name, cardinality)) in dims.iter().enumerate() {
            if rng.bool() {
                let value = rng.usize_below(*cardinality);
                predicates.push(format!("{name} = 'L{}V{value}'", 2 - d));
            }
        }
        let filter = if predicates.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", predicates.join(" AND "))
        };
        let h = 1 + rng.usize_below(4);
        out.push(format!(
            "SELECT time, SUM(value) FROM facts{filter} GROUP BY time AS OF now() + '{h} steps'"
        ));
    }
    for (name, _) in &dims[..2] {
        for h in 1..=4 {
            out.push(format!(
                "SELECT time, SUM(value) FROM facts GROUP BY time, {name} AS OF now() + '{h} steps'"
            ));
        }
    }
}

/// What the shell, the README and the examples show a user.
const DEMO: &[&str] = &[
    "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'",
    "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '3 steps'",
    "EXPLAIN SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'",
    "EXPLAIN ANALYZE SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'",
    "INSERT INTO facts VALUES ('L0V16', 'L1V3', 250.0)",
    "INSERT INTO facts VALUES ('L0V0', 'L1V0', 16.5)",
    "SELECT time, SUM(value) FROM facts GROUP BY time AS OF now() + '4 quarters'",
    "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose AS OF now() + '2 quarters'",
    "SELECT time, SUM(sales) FROM facts WHERE region = 'North' GROUP BY time AS OF now() + '3 months'",
    "SELECT time, AVG(sales) FROM facts GROUP BY time AS OF now() + '1 month'",
    "SELECT time, sales FROM facts WHERE product = 'P4' AND city = 'C4' AS OF now() + '1 month'",
    "SELECT time, SUM(sales) FROM facts WHERE product = 'P4' AND region = 'R2' GROUP BY time AS OF now() + '1 month'",
    "SELECT time, SUM(sales) FROM facts WHERE product = 'P4' AND region = 'R2' GROUP BY time, city AS OF now() + '1 month'",
    "SELECT time, SUM(demand) FROM grid GROUP BY time AS OF now() + '1 day'",
    "",
    ";",
    "   ",
];

#[rustfmt::skip]
const IDENTS: &[&str] = &[
    "time", "sales", "v", "value", "facts", "t", "product", "region", "city", "level0",
    "purpose", "_x", "x_1", "a1", "Time", "TIME", "sum", "avg", "select", "from", "région",
    "größe", "製品", "ÅNGSTRÖM", "ñ", "x²", "9lives", "2e5x", "a-b", "a.b", "tab\u{2003}le",
];

#[rustfmt::skip]
const LABELS: &[&str] = &[
    "P4", "C4", "R2", "North", "L0V16", "DE", "prod0", "Zürich", "東京", "a b", "", "x=y,(z)",
    "it;s", "tab\there", "ünï", "😀", "1 day", "SELECT", "--", "\u{a0}",
];

const NUMBERS: &[&str] = &[
    "12.5", "-3.5e2", ".5", "1e-3", "250.0", "0", "-0", "1E3", "1e", "-", "1.2.3", "--1", "1-2",
    "5e+3", "007", "1e400", "-.e",
];

const QUANTITIES: &[&str] = &[
    "1", "2", "3", "4", "6", "12", "0", "007", "-1", "1.5", "x", "", "+2",
];

#[rustfmt::skip]
const UNITS: &[&str] = &[
    "step", "steps", "hour", "hours", "day", "days", "week", "weeks", "month", "months",
    "quarter", "quarters", "year", "years", "STEPS", "Days", "qUaRtEr", "lightyear",
    "lightyears", "s", "", "dayz", "day extra", "步",
];

/// A keyword in upper, lower or seeded mixed case.
fn keyword(rng: &mut Rng, word: &str) -> String {
    match rng.usize_below(4) {
        0 => word.to_ascii_lowercase(),
        1 => word
            .chars()
            .map(|c| {
                if rng.bool() {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect(),
        _ => word.to_ascii_uppercase(),
    }
}

/// White space between two words: mostly one blank, sometimes odd.
fn gap(rng: &mut Rng) -> &'static str {
    match rng.usize_below(16) {
        0 => "  ",
        1 => "\t",
        2 => "\n",
        3 => "\r\n",
        4 => "\u{a0}",
        5 => "\u{2003}",
        6 => " \t\n ",
        _ => " ",
    }
}

/// White space around punctuation, where none is needed.
fn tight(rng: &mut Rng) -> &'static str {
    pick(rng, &["", "", " ", "\t"])
}

fn horizon(rng: &mut Rng) -> String {
    let quantity = pick(rng, QUANTITIES);
    let unit = pick(rng, UNITS);
    match rng.usize_below(8) {
        0 => format!("{quantity}{unit}"),
        1 => format!(" {quantity}\t{unit} "),
        2 => format!("{quantity}  {unit}"),
        _ => format!("{quantity} {unit}"),
    }
}

fn select_item(rng: &mut Rng) -> String {
    let ident = pick(rng, IDENTS);
    match rng.usize_below(5) {
        0 | 1 => ident.to_string(),
        2 => format!(
            "{}{}({}{ident}{})",
            keyword(rng, "sum"),
            tight(rng),
            tight(rng),
            tight(rng)
        ),
        3 => format!("{}({ident})", keyword(rng, "avg")),
        _ => format!("{}({ident})", pick(rng, &["count", "SUM(", "Σ", "sum)"])),
    }
}

fn forecast(rng: &mut Rng) -> String {
    let mut s = String::new();
    match rng.usize_below(8) {
        0 => s += &format!("{}{}", keyword(rng, "explain"), gap(rng)),
        1 => {
            s += &format!(
                "{}{}{}{}",
                keyword(rng, "explain"),
                gap(rng),
                keyword(rng, "analyze"),
                gap(rng)
            )
        }
        2 => s += tight(rng),
        _ => {}
    }
    s += &keyword(rng, "select");
    s += gap(rng);
    for i in 0..1 + rng.usize_below(3) {
        if i > 0 {
            s += &format!("{},{}", tight(rng), tight(rng));
        }
        s += &select_item(rng);
    }
    s += &format!(
        "{}{}{}{}",
        gap(rng),
        keyword(rng, "from"),
        gap(rng),
        pick(rng, IDENTS)
    );
    let predicates = rng.usize_below(4);
    for i in 0..predicates {
        let lead = if i == 0 { "where" } else { "and" };
        s += &format!(
            "{}{}{}{}{}={}'{}'",
            gap(rng),
            keyword(rng, lead),
            gap(rng),
            pick(rng, IDENTS),
            tight(rng),
            tight(rng),
            pick(rng, LABELS)
        );
    }
    let group = match rng.usize_below(6) {
        0 => vec![],
        1 | 2 => vec!["time"],
        3 => vec!["time", pick(rng, IDENTS)],
        4 => vec![pick(rng, IDENTS), pick(rng, IDENTS)],
        _ => vec![pick(rng, IDENTS)],
    };
    if !group.is_empty() {
        s += &format!(
            "{}{}{}{}{}",
            gap(rng),
            keyword(rng, "group"),
            gap(rng),
            keyword(rng, "by"),
            gap(rng)
        );
        s += &group.join(&format!("{},{}", tight(rng), tight(rng)));
    }
    s += &format!(
        "{}{}{}{}{}{}{}({}){}+{}'{}'",
        gap(rng),
        keyword(rng, "as"),
        gap(rng),
        keyword(rng, "of"),
        gap(rng),
        keyword(rng, "now"),
        tight(rng),
        tight(rng),
        tight(rng),
        tight(rng),
        horizon(rng)
    );
    s += match rng.usize_below(12) {
        0 => ";",
        1 => " ;",
        2 => ";;\n",
        3 => " extra",
        4 => " @",
        5 => "\u{2003}",
        _ => "",
    };
    s
}

fn insert(rng: &mut Rng) -> String {
    let mut s = format!(
        "{}{}{}{}{}{}{}{}(",
        keyword(rng, "insert"),
        gap(rng),
        keyword(rng, "into"),
        gap(rng),
        pick(rng, IDENTS),
        gap(rng),
        keyword(rng, "values"),
        tight(rng)
    );
    let mut values: Vec<String> = (0..rng.usize_below(5))
        .map(|_| format!("'{}'", pick(rng, LABELS)))
        .collect();
    match rng.usize_below(8) {
        0 => {}
        1 => values.insert(0, pick(rng, NUMBERS).to_string()),
        _ => values.push(pick(rng, NUMBERS).to_string()),
    }
    s += &values.join(&format!("{},{}", tight(rng), tight(rng)));
    s += ")";
    s += match rng.usize_below(10) {
        0 => ", ('a', 'b', -1e3)",
        1 => " garbage",
        2 => " @",
        3 => ";",
        4 => " 'open",
        _ => "",
    };
    s
}

/// The statements `decoders_total` mutates, plus one pool statement
/// with a non-ASCII label, mutated the same way.
fn mutants(rng: &mut Rng, out: &mut Vec<String>) {
    let samples: Vec<Vec<u8>> = [
        "SELECT time, SUM(sales) FROM facts WHERE product = 'prod0' AND country = 'DE' \
         GROUP BY time, category AS OF now() + '3 months'",
        "EXPLAIN ANALYZE SELECT time, v FROM t AS OF now() + '12 steps'",
        "INSERT INTO facts VALUES ('L0V16', 'L1V3', 250.0), ('a', 'b', -1e3)",
        "select time, avg(größe) from facts where région = 'Zürich' as of now() + '1 day';",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    for index in 0..samples.len() {
        for mutation in mutations(&samples, index, rng) {
            let bytes = apply(&samples, index, mutation);
            out.push(String::from_utf8_lossy(&bytes).into_owned());
        }
    }
}

/// Every statement of the corpus, in the order `parser_goldens` digests
/// them.
pub fn corpus() -> Vec<String> {
    let mut rng = Rng::seed_from_u64(0x5EED_601D);
    let mut out: Vec<String> = DEMO.iter().map(|s| s.to_string()).collect();
    pool_shapes(&mut rng, &mut out);
    for _ in 0..1500 {
        out.push(forecast(&mut rng));
    }
    for _ in 0..500 {
        out.push(insert(&mut rng));
    }
    mutants(&mut rng, &mut out);
    // The deliberate change to the language (see the file comment).
    out.retain(|s| !s.to_ascii_lowercase().contains("ss"));
    out
}
