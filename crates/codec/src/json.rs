//! The workspace's one JSON kit: a pull [`Reader`] with [`parse`] as a
//! thin fold over it, and an append-only [`Writer`]. Nothing else in the
//! workspace reads a JSON document or escapes a string into one.
//!
//! **Reading.** Standard JSON (RFC 8259) with the usual embedded-parser
//! limits: nesting is bounded and `\uXXXX` escapes outside the BMP must
//! form valid surrogate pairs.
//!
//! **Writing.** One `String`, appended to; the writer places the commas.
//! Two rules hold for every document (DESIGN.md §15):
//!
//! * *the escape set* — `"` and `\` are backslash-escaped, line feed,
//!   carriage return and tab are `\n`, `\r`, `\t`, any other byte below
//!   `0x20` is `\u00XX` (lower-case hex); all else stands as it is;
//! * *the number rule* — an `f64` is Rust's shortest round-trip
//!   `Display` (never an exponent, `-0` for minus zero), and `null` when
//!   it is not finite.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. BTreeMap keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error. A
/// fold of the [`Reader`]'s events into a tree, so the workspace has
/// one JSON grammar.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut r = Reader::new(input);
    let v = tree(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// The value at the reader's cursor as a tree; the reader bounds the
/// recursion.
fn tree(r: &mut Reader<'_>) -> Result<Value, String> {
    Ok(match r.peek()? {
        Kind::Null => {
            r.skip_value()?;
            Value::Null
        }
        Kind::Bool => Value::Bool(r.boolean()?),
        Kind::Num => Value::Num(r.number()?),
        Kind::Str => Value::Str(r.string()?.into_owned()),
        Kind::Arr => {
            let mut items = Vec::new();
            r.begin_array()?;
            while r.next_element()? {
                items.push(tree(r)?);
            }
            Value::Arr(items)
        }
        Kind::Obj => {
            let mut map = BTreeMap::new();
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                map.insert(key.into_owned(), tree(r)?);
            }
            Value::Obj(map)
        }
    })
}

/// A value may sit inside at most this many arrays and objects.
const MAX_DEPTH: usize = 32;

/// What the value at a [`Reader`]'s cursor is, told by its first byte
/// (a literal is only checked when it is read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array: [`Reader::begin_array`], then [`Reader::next_element`].
    Arr,
    /// An object: [`Reader::begin_object`], then [`Reader::next_key`].
    Obj,
}

/// A pull reader over one JSON document: the caller asks what the next
/// value is ([`Reader::peek`]) and reads it as what it needs, steps
/// through it, skips it or takes its bytes — no tree is built, strings
/// borrow from the input unless they hold an escape, and numbers are
/// parsed where they stand. Every value passed over is checked against
/// the whole grammar, skipped or not, so a document [`parse`] refuses is
/// refused here with the same message. Nesting is bounded, and no input
/// makes it index out of range.
///
/// The contract: after `next_key` returns a key or `next_element`
/// returns `true`, read exactly one value before stepping again; call
/// [`Reader::finish`] after the document's value.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
    /// Bit `d` is set while the container at depth `d` has not been
    /// stepped into yet (its first member takes no comma).
    fresh: u64,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: 0,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    /// Moves to the first byte of the next value.
    fn value_start(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        Ok(())
    }

    /// What the next value is.
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.value_start()?;
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Num),
            Some(c) => Err(format!("unexpected '{}' at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// Reads `true` or `false`.
    pub fn boolean(&mut self) -> Result<bool, String> {
        self.value_start()?;
        let v = self.byte() == Some(b't');
        self.literal(if v { "true" } else { "false" })?;
        Ok(v)
    }

    /// Reads a number (as f64, like JavaScript).
    pub fn number(&mut self) -> Result<f64, String> {
        self.value_start()?;
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.byte(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map_err(|_| format!("bad number '{s}' at offset {start}"))
    }

    /// Reads a string value: a slice of the input, or a copy when it
    /// holds an escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.value_start()?;
        self.quoted()
    }

    /// A string value or an object key.
    fn quoted(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let text = self.text;
        // Start of the bytes not yet copied into `unescaped`.
        let mut run = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            match self.byte() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.pos));
                }
                // Any other byte, the rest of a UTF-8 scalar included
                // (the input is a &str, so those are whole).
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape stands for; the cursor is past its `\`.
    fn escape(&mut self) -> Result<char, String> {
        let ch = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                if !(0xD800..0xDC00).contains(&cp) {
                    return char::from_u32(cp).ok_or_else(|| "invalid \\u escape".into());
                }
                // High surrogate: a \uXXXX low surrogate must follow.
                if self.byte() != Some(b'\\') {
                    return Err("lone high surrogate".into());
                }
                self.pos += 1;
                if self.byte() != Some(b'u') {
                    return Err("lone high surrogate".into());
                }
                self.pos += 1;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err("invalid low surrogate".into());
                }
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| "invalid surrogate pair".into());
            }
            _ => return Err(format!("bad escape at offset {}", self.pos)),
        };
        self.pos += 1;
        Ok(ch)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.text.len() {
            return Err("truncated \\u escape".into());
        }
        let s = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or("bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    /// Enters an array; [`Reader::next_element`] steps through it.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Enters an object; [`Reader::next_key`] steps through it.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.value_start()?;
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh |= 1 << self.depth;
        Ok(())
    }

    /// Steps to the innermost container's next member, or out of the
    /// container at its `close`.
    fn step(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let fresh = self.fresh & (1 << self.depth) != 0;
        self.fresh &= !(1 << self.depth);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at offset {}",
                close as char, self.pos
            )),
        }
    }

    /// Whether the array the cursor is in has another element; `true`
    /// leaves the cursor on it, `false` leaves the array.
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.step(b']')
    }

    /// The object's next key, with the cursor on its value, or `None`
    /// and the cursor past the object.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.step(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.quoted()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Passes over the next value, whatever it is.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek()? {
            Kind::Null => self.literal("null"),
            Kind::Bool => self.boolean().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// The cursor's byte offset into the document. With the cursor on a
    /// value, `offset`, [`Reader::skip_value`] (or reading the value)
    /// and [`Reader::since`] give the value's bytes as they stand.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The document from byte `start` (an earlier [`Reader::offset`]) to
    /// the cursor.
    pub fn since(&self, start: usize) -> &'a str {
        &self.text[start..self.pos]
    }

    /// Ends the document: anything but whitespace left is an error.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(())
    }
}

/// Appends one JSON document to a `String`. The caller says what comes
/// next — a container's begin and end, a key, a value — and the writer
/// places the commas; keys and strings go through the one escape
/// routine, floats through the one renderer. Nothing is checked: a
/// sequence of calls that is not a document writes text that is not one.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// A comma belongs before the next key or value: the container the
    /// cursor is in already holds one.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// Where the next value goes: past the comma it may need.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value().push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object: [`Writer::key`] then a value, per member.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array: one value per element.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// A member's key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string value, quoted and escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        // Whole runs of bytes that stand for themselves are copied at once.
        let mut run = 0;
        for (at, byte) in s.bytes().enumerate() {
            let short = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[run..at]);
            out.push_str(short);
            if short.is_empty() {
                let _ = write!(out, "\\u{byte:04x}");
            }
            run = at + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
        self
    }

    /// A number: shortest round-trip `Display`, `null` when not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let _ = write!(self.value(), "{v}");
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// An unsigned integer the width of a pointer: a count, a node id.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value().push_str(if v { "true" } else { "false" });
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// A value that already is a JSON document — a shard's answer inside
    /// the router's, a row kept from a request — as it stands: reading it
    /// to write it again could only change a float's bytes.
    pub fn raw(&mut self, document: &str) -> &mut Self {
        self.value().push_str(document);
        self
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = parse(r#"{"sql": "SELECT 1", "analyze": true, "n": -2.5}"#).unwrap();
        assert_eq!(v.get("sql").and_then(Value::as_str), Some("SELECT 1"));
        assert_eq!(v.get("analyze").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-2.5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_rows_body() {
        let v =
            parse(r#"{"rows":[{"dims":["a","b"],"value":1.0},{"dims":["c"],"value":2}]}"#).unwrap();
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        let dims = rows[0].get("dims").and_then(Value::as_array).unwrap();
        assert_eq!(dims[1].as_str(), Some("b"));
        assert_eq!(rows[1].get("value").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\nd é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd é 😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            r#"{"a":}"#,
            "tru",
            r#""unterminated"#,
            "1 2",
            r#""\ud800""#,
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
        // Depth bomb is bounded, not a stack overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn reader_steps_borrows_skips_and_spans() {
        let text =
            r#" {"a": [1, {"b": "x\ny"}, "é"], "skip": {"deep": [null, true]}, "n": -2.5e1} "#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        assert_eq!(r.peek(), Ok(Kind::Arr));
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.number(), Ok(1.0));
        assert!(r.next_element().unwrap());
        let start = r.offset();
        r.skip_value().unwrap();
        assert_eq!(r.since(start), r#"{"b": "x\ny"}"#);
        assert!(r.next_element().unwrap());
        // No escape: the string is a slice of the input.
        assert!(matches!(r.string(), Ok(Cow::Borrowed("é"))));
        assert!(!r.next_element().unwrap());
        assert!(matches!(r.next_key(), Ok(Some(Cow::Borrowed("skip")))));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.number(), Ok(-25.0));
        assert_eq!(r.next_key(), Ok(None));
        assert_eq!(r.finish(), Ok(()));
        // An escape: unescaped into a copy.
        let mut r = Reader::new(r#""x\ny""#);
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "x\ny"));
    }

    #[test]
    fn reader_checks_what_it_skips() {
        for bad in [
            r#"{"a": [1,], "b": 2}"#,
            r#"{"a": "\x", "b": 2}"#,
            r#"{"a": 1e, "b": 2}"#,
            r#"{"a": nul, "b": 2}"#,
            r#"{"a": {"c" 1}, "b": 2}"#,
            r#"{"a": [1 2], "b": 2}"#,
        ] {
            let mut r = Reader::new(bad);
            r.begin_object().unwrap();
            assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
            assert_eq!(r.skip_value().err(), parse(bad).err(), "{bad}");
        }
        // 32 containers may hold a value, 33 may not — skipped or built.
        for (depth, ok) in [(MAX_DEPTH, true), (MAX_DEPTH + 1, false)] {
            let doc = "[".repeat(depth) + "1" + &"]".repeat(depth);
            assert_eq!(Reader::new(&doc).skip_value().is_ok(), ok, "{depth}");
            assert_eq!(parse(&doc).is_ok(), ok, "{depth}");
        }
    }

    #[test]
    fn writer_places_commas_at_every_depth() {
        let mut w = Writer::new();
        w.begin_object().key("a").begin_array().end_array();
        w.key("b").begin_array().u64(1).i64(-2).bool(true).null();
        w.begin_object()
            .end_object()
            .begin_array()
            .str("x")
            .end_array();
        w.end_array()
            .key("c")
            .begin_object()
            .key("d")
            .raw("{\"e\":[0.5]}");
        w.key("f").f64(1.5).end_object().end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"a":[],"b":[1,-2,true,null,{},["x"]],"c":{"d":{"e":[0.5]},"f":1.5}}"#
        );
        assert!(parse(&doc).is_ok());
        // A document may be a bare value.
        let mut w = Writer::with_capacity(8);
        w.str("only");
        assert_eq!(w.finish(), "\"only\"");
    }

    /// The escape set, pinned: there is one spelling of every string in
    /// every document — a tab is `\t` in a trace export as in a query
    /// answer (the trace exporter's own escaper used to write `\u0009`).
    #[test]
    fn writer_escapes_one_way_and_parse_reads_it_back() {
        let mut w = Writer::new();
        w.str("q\"b\\s/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f} \u{7f}é\u{2028}😀");
        let doc = w.finish();
        assert_eq!(
            doc,
            "\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u0001\\u0008\\u000c\\u001f \u{7f}é\u{2028}😀\""
        );
        assert_eq!(
            parse(&doc).unwrap().as_str(),
            Some("q\"b\\s/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f} \u{7f}é\u{2028}😀")
        );
        let mut w = Writer::new();
        w.begin_object().key("k\"\n").str("").end_object();
        assert_eq!(w.finish(), "{\"k\\\"\\n\":\"\"}");
    }

    /// The number rule, pinned.
    #[test]
    fn writer_renders_numbers_one_way() {
        let mut w = Writer::new();
        w.begin_array();
        for v in [
            1.5,
            -0.0,
            1e21,
            1e-7,
            0.1 + 0.2,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            w.f64(v);
        }
        w.u64(u64::MAX).usize(7).i64(i64::MIN).end_array();
        assert_eq!(
            w.finish(),
            "[1.5,-0,1000000000000000000000,0.0000001,0.30000000000000004,null,null,null,\
             18446744073709551615,7,-9223372036854775808]"
        );
    }
}
