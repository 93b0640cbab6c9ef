//! Hand-rolled tokenizer and recursive-descent parser for the forecast
//! query dialect.
//!
//! Supported grammar (keywords case-insensitive):
//!
//! ```text
//! statement := forecast | explain | insert
//! explain   := EXPLAIN (ANALYZE)? forecast
//! forecast  := SELECT item (',' item)* FROM ident
//!              (WHERE pred (AND pred)*)?
//!              (GROUP BY group (',' group)*)?
//!              AS OF NOW '(' ')' '+' STRING
//! item      := ident | SUM '(' ident ')'
//! pred      := ident '=' STRING
//! group     := ident                  -- `time` marks plain aggregation
//! insert    := INSERT INTO ident VALUES '(' STRING (',' STRING)* ',' NUMBER ')'
//! ```
//!
//! The AS OF string holds the horizon, e.g. `'1 day'`, `'4 quarters'` or
//! `'6 steps'`.
//!
//! A statement parses into a [`Parsed`] that borrows its text and holds
//! no `String`. [`F2db::execute`](crate::F2db::execute) and
//! [`Placement::plan`](crate::Placement::plan) resolve a [`Query`] as
//! it is; [`parse_query`] copies it into the owned [`Statement`].

use crate::query::{AggregateFn, ForecastQuery, HorizonSpec, Statement, TimeUnit};
use crate::{F2dbError, Result};

/// One lexical token. Identifiers and string literals borrow from the
/// statement.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Str(&'a str),
    Number(f64),
    Comma,
    LParen,
    RParen,
    Equals,
    Plus,
}

/// The character starting at byte `at`, a char boundary inside `sql`.
fn char_at(sql: &str, at: usize) -> char {
    sql[at..]
        .chars()
        .next()
        .expect("a char boundary before the end")
}

/// Scans a statement token by token. ASCII bytes are classified
/// directly; the `char` classes (Unicode white space, alphanumerics)
/// are consulted only at a byte ≥ 0x80.
struct Lexer<'a> {
    sql: &'a str,
    pos: usize,
    /// Where the token `next` returned last begins (after the last, the
    /// end of the text).
    start: usize,
}

impl<'a> Lexer<'a> {
    fn new(sql: &'a str) -> Self {
        Lexer {
            sql,
            pos: 0,
            start: 0,
        }
    }

    /// The next token, `None` at the end of the statement. A lexical
    /// error leaves the position where it was, so asking again answers
    /// the same error.
    fn next(&mut self) -> Result<Option<Token<'a>>> {
        let sql = self.sql;
        let bytes = sql.as_bytes();
        // White space and `;` separate tokens and mean nothing else.
        let mut start = self.pos;
        let first = loop {
            match bytes.get(start) {
                None => {
                    self.pos = start;
                    self.start = start;
                    return Ok(None);
                }
                Some(b' ' | b'\t'..=b'\r' | b';') => start += 1,
                Some(&b) => {
                    if !b.is_ascii() {
                        let c = char_at(sql, start);
                        if c.is_whitespace() {
                            start += c.len_utf8();
                            continue;
                        }
                    }
                    break b;
                }
            }
        };
        let (token, end) = match first {
            b',' => (Token::Comma, start + 1),
            b'(' => (Token::LParen, start + 1),
            b')' => (Token::RParen, start + 1),
            b'=' => (Token::Equals, start + 1),
            b'+' => (Token::Plus, start + 1),
            b'\'' => {
                // The quote is ASCII, so it is never a byte of a longer
                // character and both cuts fall on char boundaries.
                let len = bytes[start + 1..]
                    .iter()
                    .position(|&b| b == b'\'')
                    .ok_or_else(|| F2dbError::Parse("unterminated string literal".into()))?;
                let close = start + 1 + len;
                (Token::Str(&sql[start + 1..close]), close + 1)
            }
            b'0'..=b'9' | b'-' | b'.' => {
                let mut end = start + 1;
                while matches!(
                    bytes.get(end),
                    Some(b'0'..=b'9' | b'.' | b'-' | b'e' | b'E')
                ) {
                    end += 1;
                }
                let literal = &sql[start..end];
                let value = literal
                    .parse()
                    .map_err(|_| F2dbError::Parse(format!("bad number literal: {literal}")))?;
                (Token::Number(value), end)
            }
            _ => {
                let mut end = start;
                loop {
                    match bytes.get(end) {
                        Some(&b) if b.is_ascii_alphanumeric() || b == b'_' => end += 1,
                        Some(&b) if !b.is_ascii() => {
                            let c = char_at(sql, end);
                            if !c.is_alphanumeric() {
                                break;
                            }
                            end += c.len_utf8();
                        }
                        _ => break,
                    }
                }
                if end == start {
                    let other = char_at(sql, start);
                    return Err(F2dbError::Parse(format!("unexpected character `{other}`")));
                }
                (Token::Ident(&sql[start..end]), end)
            }
        };
        self.pos = end;
        self.start = start;
        Ok(Some(token))
    }
}

/// The tokens of text a parse has checked.
fn tokens(clause: &str) -> impl Iterator<Item = Token<'_>> {
    let mut lexer = Lexer::new(clause);
    std::iter::from_fn(move || lexer.next().ok().flatten())
}

/// The lexer plus one token of lookahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Token<'a>>,
    /// Where the lookahead begins.
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> Result<Self> {
        let mut lexer = Lexer::new(sql);
        let lookahead = lexer.next()?;
        let at = lexer.start;
        Ok(Parser {
            lexer,
            lookahead,
            at,
        })
    }

    fn next(&mut self) -> Result<Token<'a>> {
        let t = self
            .lookahead
            .ok_or_else(|| F2dbError::Parse("unexpected end of statement".into()))?;
        self.lookahead = self.lexer.next()?;
        self.at = self.lexer.start;
        Ok(t)
    }

    /// The text from byte `from` up to the lookahead.
    fn since(&self, from: usize) -> &'a str {
        &self.lexer.sql[from..self.at]
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(F2dbError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn expect(&mut self, token: Token) -> Result<()> {
        let t = self.next()?;
        if t == token {
            Ok(())
        } else {
            Err(F2dbError::Parse(format!("expected {token:?}, found {t:?}")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.lookahead, Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes the next token when it is `token`.
    fn eat(&mut self, token: Token) -> Result<bool> {
        let found = self.lookahead == Some(token);
        if found {
            self.next()?;
        }
        Ok(found)
    }

    fn ident(&mut self) -> Result<&'a str> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(F2dbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn string(&mut self) -> Result<&'a str> {
        match self.next()? {
            Token::Str(s) => Ok(s),
            other => Err(F2dbError::Parse(format!(
                "expected string literal, found {other:?}"
            ))),
        }
    }
}

/// A list whose first `N` items live inline: the push past `N` moves
/// them to the heap, where the list then grows (the
/// `fdc_cube::query::stack_or_heap` idiom for a list built item by
/// item).
pub(crate) struct InlineList<T, const N: usize> {
    len: usize,
    inline: [T; N],
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    fn new() -> Self {
        InlineList {
            len: 0,
            inline: [T::default(); N],
            heap: Vec::new(),
        }
    }

    fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(item);
        }
        self.len += 1;
    }
}

impl<T, const N: usize> std::ops::Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Predicates a statement keeps inline: a point statement of a cube of
/// up to four dimensions allocates none.
const INLINE_PREDICATES: usize = 4;

/// A statement as parsed, borrowing its text.
#[derive(Debug)]
pub(crate) enum Parsed<'a> {
    Forecast(Query<'a>),
    Explain { query: Query<'a>, analyze: bool },
    Insert { values: Vec<&'a str>, measure: f64 },
}

/// A forecast query as parsed: the borrowed form of [`ForecastQuery`].
#[derive(Debug)]
pub(crate) struct Query<'a> {
    /// The text of the select list: only the owned form reads it, so
    /// it is kept as parsed and read again token by token.
    select: &'a str,
    table: &'a str,
    /// `(dimension, value)` of every WHERE predicate, in order.
    pub(crate) predicates: InlineList<(&'a str, &'a str), INLINE_PREDICATES>,
    /// The GROUP BY dimensions besides `time`, in order.
    pub(crate) group_dims: Vec<&'a str>,
    pub(crate) horizon: HorizonSpec,
    pub(crate) aggregate: AggregateFn,
}

impl Query<'_> {
    fn owned(&self) -> ForecastQuery {
        // An item is a name, or `SUM(name)` / `AVG(name)` with the
        // function in capitals.
        let mut select: Vec<String> = Vec::new();
        for token in tokens(self.select) {
            match (token, select.last_mut()) {
                (Token::Ident(inner), Some(call)) if call.ends_with('(') => call.push_str(inner),
                (Token::Ident(item), _) => select.push(item.to_string()),
                (Token::LParen, Some(function)) => {
                    function.make_ascii_uppercase();
                    function.push('(');
                }
                (Token::RParen, Some(call)) => call.push(')'),
                _ => {}
            }
        }
        ForecastQuery {
            select,
            table: self.table.to_string(),
            predicates: self
                .predicates
                .iter()
                .map(|&(dim, value)| (dim.to_string(), value.to_string()))
                .collect(),
            group_dims: self.group_dims.iter().map(|&dim| dim.to_string()).collect(),
            horizon: self.horizon,
            aggregate: self.aggregate,
        }
    }
}

impl From<Parsed<'_>> for Statement {
    fn from(parsed: Parsed<'_>) -> Statement {
        match parsed {
            Parsed::Forecast(query) => Statement::Forecast(query.owned()),
            Parsed::Explain { query, analyze } => Statement::Explain {
                query: query.owned(),
                analyze,
            },
            Parsed::Insert { values, measure } => Statement::Insert {
                values: values.into_iter().map(str::to_string).collect(),
                measure,
            },
        }
    }
}

/// Parses one SQL statement of the dialect.
pub fn parse_query(sql: &str) -> Result<Statement> {
    parse(sql).map(Statement::from)
}

/// Parses one SQL statement of the dialect, borrowing its text.
pub(crate) fn parse(sql: &str) -> Result<Parsed<'_>> {
    let mut p = Parser::new(sql)?;
    let parsed = parse_statement(&mut p);
    // A lexical error anywhere in the text is the statement's error,
    // also one behind the token a grammar error stopped at or behind
    // an INSERT's closing parenthesis: scan what the parser left. (When
    // the parser itself stopped at one, the lexer repeats it here.)
    while p.lexer.next()?.is_some() {}
    parsed
}

fn parse_statement<'a>(p: &mut Parser<'a>) -> Result<Parsed<'a>> {
    if p.peek_keyword("insert") {
        parse_insert(p)
    } else if p.peek_keyword("explain") {
        p.next()?;
        let analyze = p.peek_keyword("analyze");
        if analyze {
            p.next()?;
        }
        let query = parse_forecast(p)?;
        Ok(Parsed::Explain { query, analyze })
    } else {
        parse_forecast(p).map(Parsed::Forecast)
    }
}

fn parse_insert<'a>(p: &mut Parser<'a>) -> Result<Parsed<'a>> {
    p.expect_keyword("insert")?;
    p.expect_keyword("into")?;
    let _table = p.ident()?;
    p.expect_keyword("values")?;
    p.expect(Token::LParen)?;
    let mut values = Vec::new();
    let measure = loop {
        match p.next()? {
            Token::Str(s) => match p.next()? {
                Token::Comma => values.push(s),
                Token::RParen => {
                    return Err(F2dbError::Parse(
                        "INSERT must end with the numeric measure".into(),
                    ));
                }
                other => {
                    return Err(F2dbError::Parse(format!("expected `,`, found {other:?}")));
                }
            },
            Token::Number(v) => {
                p.expect(Token::RParen)?;
                break v;
            }
            other => {
                return Err(F2dbError::Parse(format!(
                    "expected value literal, found {other:?}"
                )));
            }
        }
    };
    if values.is_empty() {
        return Err(F2dbError::Parse(
            "INSERT needs at least one dimension value".into(),
        ));
    }
    Ok(Parsed::Insert { values, measure })
}

fn parse_forecast<'a>(p: &mut Parser<'a>) -> Result<Query<'a>> {
    p.expect_keyword("select")?;
    let from = p.at;
    let mut aggregate = AggregateFn::Sum;
    loop {
        let item = p.ident()?;
        let avg = item.eq_ignore_ascii_case("avg");
        if avg || item.eq_ignore_ascii_case("sum") {
            p.expect(Token::LParen)?;
            p.ident()?;
            p.expect(Token::RParen)?;
            if avg {
                aggregate = AggregateFn::Avg;
            }
        }
        if !p.eat(Token::Comma)? {
            break;
        }
    }
    let select = p.since(from);
    p.expect_keyword("from")?;
    let table = p.ident()?;

    let mut predicates = InlineList::new();
    if p.peek_keyword("where") {
        p.next()?;
        loop {
            let dim = p.ident()?;
            p.expect(Token::Equals)?;
            predicates.push((dim, p.string()?));
            if p.peek_keyword("and") {
                p.next()?;
            } else {
                break;
            }
        }
    }

    let mut group_dims = Vec::new();
    if p.peek_keyword("group") {
        p.next()?;
        p.expect_keyword("by")?;
        loop {
            let g = p.ident()?;
            if !g.eq_ignore_ascii_case("time") {
                group_dims.push(g);
            }
            if !p.eat(Token::Comma)? {
                break;
            }
        }
    }

    p.expect_keyword("as")?;
    p.expect_keyword("of")?;
    p.expect_keyword("now")?;
    p.expect(Token::LParen)?;
    p.expect(Token::RParen)?;
    p.expect(Token::Plus)?;
    let horizon = parse_horizon(p.string()?)?;

    if p.lookahead.is_some() {
        return Err(F2dbError::Parse(
            "trailing tokens after AS OF clause".into(),
        ));
    }
    Ok(Query {
        select,
        table,
        predicates,
        group_dims,
        horizon,
        aggregate,
    })
}

/// Parses the horizon string of the AS OF clause, e.g. `1 day`,
/// `4 quarters` or `6 steps`.
pub fn parse_horizon(s: &str) -> Result<HorizonSpec> {
    let mut parts = s.split_whitespace();
    let n: usize = parts
        .next()
        .ok_or_else(|| F2dbError::Parse("empty horizon".into()))?
        .parse()
        .map_err(|_| F2dbError::Parse(format!("bad horizon quantity in `{s}`")))?;
    if n == 0 {
        return Err(F2dbError::Parse("horizon must be positive".into()));
    }
    let word = parts
        .next()
        .ok_or_else(|| F2dbError::Parse(format!("missing horizon unit in `{s}`")))?;
    if parts.next().is_some() {
        return Err(F2dbError::Parse(format!("malformed horizon `{s}`")));
    }
    // A unit may be plural: one `s`, not any number of them.
    let singular = word.strip_suffix(['s', 'S']).unwrap_or(word);
    let unit = match UNITS
        .iter()
        .find(|(name, _)| singular.eq_ignore_ascii_case(name))
    {
        Some((_, None)) => return Ok(HorizonSpec::Steps(n)),
        Some((_, Some(unit))) => *unit,
        None => {
            return Err(F2dbError::Parse(format!(
                "unknown horizon unit `{}`",
                singular.to_ascii_lowercase()
            )));
        }
    };
    Ok(HorizonSpec::Units { n, unit })
}

/// Horizon unit words, singular; `None` is a plain number of steps.
const UNITS: [(&str, Option<TimeUnit>); 7] = [
    ("step", None),
    ("hour", Some(TimeUnit::Hour)),
    ("day", Some(TimeUnit::Day)),
    ("week", Some(TimeUnit::Week)),
    ("month", Some(TimeUnit::Month)),
    ("quarter", Some(TimeUnit::Quarter)),
    ("year", Some(TimeUnit::Year)),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn forecast(sql: &str) -> ForecastQuery {
        match parse_query(sql).unwrap() {
            Statement::Forecast(q) => q,
            other => panic!("expected forecast, got {other:?}"),
        }
    }

    #[test]
    fn an_inline_list_spills_to_the_heap_in_order() {
        let mut list = InlineList::<u32, 2>::new();
        assert!(list.is_empty());
        for i in 0..5 {
            list.push(i);
            assert_eq!(*list, *(0..=i).collect::<Vec<_>>());
        }
        assert_eq!(format!("{list:?}"), "[0, 1, 2, 3, 4]");
    }

    #[test]
    fn parses_query1_of_figure1() {
        let q = forecast(
            "SELECT time, sales FROM facts WHERE product = 'P4' AND city = 'C4' AS OF now() + '1 day'",
        );
        assert_eq!(q.select, vec!["time", "sales"]);
        assert_eq!(q.table, "facts");
        assert_eq!(
            q.predicates,
            vec![
                ("product".to_string(), "P4".to_string()),
                ("city".to_string(), "C4".to_string())
            ]
        );
        assert!(q.group_dims.is_empty());
        assert_eq!(
            q.horizon,
            HorizonSpec::Units {
                n: 1,
                unit: TimeUnit::Day
            }
        );
    }

    #[test]
    fn parses_query2_of_figure1() {
        let q = forecast(
            "SELECT time, SUM(sales) FROM facts WHERE product = 'P4' AND region = 'R2' GROUP BY time AS OF now() + '1 day'",
        );
        assert_eq!(q.select, vec!["time", "SUM(sales)"]);
        assert!(q.group_dims.is_empty(), "GROUP BY time is aggregation only");
    }

    #[test]
    fn group_by_dimension_is_captured() {
        let q = forecast(
            "SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '2 days'",
        );
        assert_eq!(q.group_dims, vec!["region"]);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = forecast("select time, v from facts where a = 'x' as of NOW() + '3 steps'");
        assert_eq!(q.horizon, HorizonSpec::Steps(3));
        assert_eq!(q.predicates[0].0, "a");
    }

    #[test]
    fn parses_explain_and_explain_analyze() {
        let sql = "SELECT time, v FROM facts AS OF now() + '2 steps'";
        match parse_query(&format!("EXPLAIN {sql}")).unwrap() {
            Statement::Explain { query, analyze } => {
                assert!(!analyze);
                assert_eq!(query.horizon, HorizonSpec::Steps(2));
            }
            other => panic!("expected explain, got {other:?}"),
        }
        match parse_query(&format!("explain ANALYZE {sql}")).unwrap() {
            Statement::Explain { analyze, .. } => assert!(analyze),
            other => panic!("expected explain analyze, got {other:?}"),
        }
        // ANALYZE alone (without EXPLAIN) is not a statement.
        assert!(parse_query(&format!("ANALYZE {sql}")).is_err());
    }

    #[test]
    fn parses_insert() {
        match parse_query("INSERT INTO facts VALUES ('C1', 'R1', 'P2', 12.5)").unwrap() {
            Statement::Insert { values, measure } => {
                assert_eq!(values, vec!["C1", "R1", "P2"]);
                assert_eq!(measure, 12.5);
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn horizon_units_singular_and_plural() {
        assert_eq!(
            parse_horizon("4 quarters").unwrap(),
            HorizonSpec::Units {
                n: 4,
                unit: TimeUnit::Quarter
            }
        );
        assert_eq!(
            parse_horizon("1 quarter").unwrap(),
            HorizonSpec::Units {
                n: 1,
                unit: TimeUnit::Quarter
            }
        );
        assert_eq!(parse_horizon("10 steps").unwrap(), HorizonSpec::Steps(10));
        assert_eq!(parse_horizon("10 STEPS").unwrap(), HorizonSpec::Steps(10));
    }

    #[test]
    fn a_horizon_unit_loses_at_most_one_plural_s() {
        for (horizon, left) in [
            ("3 dayssss", "daysss"),
            ("2 stepss", "steps"),
            ("1 monthsS", "months"),
            ("1 glass", "glas"),
        ] {
            assert_eq!(
                parse_horizon(horizon),
                Err(F2dbError::Parse(format!("unknown horizon unit `{left}`"))),
                "{horizon}"
            );
        }
    }

    #[test]
    fn a_lexical_error_anywhere_outranks_the_grammar() {
        // The lexer is lazy, the precedence is the eager tokenizer's:
        // behind the token the grammar gave up at, behind an INSERT's `)`.
        assert_eq!(
            parse_query("SELECT time FROM facts AS OF now() + '1 day' extra @"),
            Err(F2dbError::Parse("unexpected character `@`".into()))
        );
        assert_eq!(
            parse_query("INSERT INTO t VALUES ('a', 1) 'open"),
            Err(F2dbError::Parse("unterminated string literal".into()))
        );
        assert!(parse_query("INSERT INTO t VALUES ('a', 1) whatever").is_ok());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT time FROM facts").is_err()); // no AS OF
        assert!(parse_query("SELECT time FROM facts AS OF now() + '0 days'").is_err());
        assert!(parse_query("SELECT time FROM facts AS OF now() + 'soon'").is_err());
        assert!(parse_query("SELECT time FROM facts AS OF now() + '1 lightyear'").is_err());
        assert!(
            parse_query("SELECT time FROM facts WHERE a = 'x' AS OF now() + '1 day' extra")
                .is_err()
        );
        assert!(parse_query("INSERT INTO facts VALUES ()").is_err());
        assert!(parse_query("INSERT INTO facts VALUES ('a')").is_err());
        assert!(parse_query("SELECT 'unterminated FROM facts").is_err());
        assert!(parse_query("SELECT ti@me FROM facts").is_err());
    }

    #[test]
    fn number_tokenizer_handles_floats() {
        match parse_query("INSERT INTO t VALUES ('a', -3.5e2)").unwrap() {
            Statement::Insert { measure, .. } => assert_eq!(measure, -350.0),
            _ => unreachable!(),
        }
    }
}
