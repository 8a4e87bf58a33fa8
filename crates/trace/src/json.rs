//! The workspace's JSON value type: one writer, one parser.
//!
//! Every JSON artifact — the trace's event lines, the experiment results
//! under `results/`, the lint report, profiles — is built and rendered
//! here, so string escaping and number formatting have one definition.
//! The workspace is offline (no serde); this covers what the artifacts
//! use: objects, arrays, strings with the standard escapes, finite f64
//! numbers, bools, and null.
//!
//! Objects keep insertion order (the parser keeps document order), so a
//! writer controls its byte layout: an event line leads with `"type"`, a
//! results file lists its fields in the order a reader expects. Duplicate
//! keys are a parse error, so [`Json::get`] is never ambiguous.

use std::fmt::Write as _;

/// Nesting depth past which [`Json::parse`] gives up instead of
/// recursing further: parsed files can come from outside the program.
pub const MAX_DEPTH: usize = 256;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion (or document) order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value; non-finite values become `null`, which JSON
    /// requires.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// An integer value (exact for v <= 2^53).
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64, if it is a whole number in `0..=2^53` (the
    /// range f64 holds exactly). Negative, fractional, non-finite and
    /// larger numbers are `None`, never truncated or saturated.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if (0.0..=EXACT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Member lookup: `j.get("spans")` on an object, else `None`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on one line with no whitespace (a JSONL record).
    pub fn render_compact(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is the pretty-printing depth, `None`
    /// for the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `+ 0.0` turns -0 into 0; f64's Display never uses an
            // exponent, so whole numbers print as integers.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{}", n + 0.0);
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(pairs) => write_seq(out, indent, ['{', '}'], pairs, |out, (k, v), inner| {
                write_escaped(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.write(out, inner);
            }),
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// a duplicate object key, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Writes `items` between `brackets`: one per line at `indent + 1` when
/// pretty-printing, comma-separated on one line when compact.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(brackets[0]);
    let inner = indent.map(|d| d + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            pad(out, d);
        }
        write_item(out, item, inner);
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        out.push('\n');
        pad(out, d);
    }
    out.push(brackets[1]);
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A recursive-descent parser over the document's bytes. Every structural
/// character is ASCII, so byte offsets at them are char boundaries and
/// plain string runs can be copied out of `text` in one slice.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    /// Parses one value nested inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(":")?;
                    pairs.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
                    return Err(format!("duplicate key `{}`", dup[0]));
                }
                Ok(Json::Obj(pairs))
            }
            Some(_) => self.number(),
        }
    }

    /// Parses the members of an array or object whose opening bracket is
    /// at `pos`, calling `member` for each until `close`.
    fn seq(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut s = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                self.pos += 4;
                // Surrogate pairs don't occur in our own output; map
                // lone surrogates to the replacement char.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("kernel", Json::str("S-W")),
            ("threads", Json::Arr(vec![Json::int(1), Json::int(8)])),
            ("ratio", Json::num(0.7075)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "nested",
                Json::obj([("name", Json::str("spawn \"quoted\"\n\r"))]),
            ),
        ]);
        for text in [doc.render(), doc.render_compact()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn objects_keep_insertion_and_document_order() {
        let doc = Json::obj([("z", Json::int(1)), ("a", Json::int(2))]);
        assert_eq!(doc.render_compact(), r#"{"z":1,"a":2}"#);
        assert_eq!(doc.render(), "{\n  \"z\": 1,\n  \"a\": 2\n}\n");
        let back = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_hand_written_json() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ty"}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            j.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\ty"
        );
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3.0)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1, 2,]",
            "nul",
            "{} extra",
            r#"{"a" 1}"#,
            r#""abc"#,
            r#""\u12""#,
            r#""\q""#,
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key `a`"), "{err}");
        assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::int(42).render(), "42\n");
        assert_eq!(Json::num(2.5).render(), "2.5\n");
        assert_eq!(Json::num(-0.0).render_compact(), "0");
        assert_eq!(Json::num(1e15).render_compact(), "1000000000000000");
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("name", Json::str("S-W")),
            ("speedup", Json::num(125.9)),
            ("feasible", Json::Bool(true)),
            ("trace", Json::Arr(vec![Json::num(1.0), Json::num(0.5)])),
            ("nan_is_null", Json::num(f64::NAN)),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"name\": \"S-W\",\n  \"speedup\": 125.9,\n  \"feasible\": true,\n  \
             \"trace\": [\n    1,\n    0.5\n  ],\n  \"nan_is_null\": null\n}\n"
        );
    }

    #[test]
    fn escapes_strings() {
        let s = Json::str("a\"b\\c\nd\re\u{1}");
        assert_eq!(s.render().trim(), r#""a\"b\\c\nd\re\u0001""#);
        assert_eq!(s.render_compact(), s.render().trim());
    }

    #[test]
    fn empty_collections() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
        let nested = Json::obj([("a", Json::Arr(vec![])), ("o", Json::obj::<&str>([]))]);
        assert_eq!(nested.render(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }

    #[test]
    fn compact_form_has_no_whitespace() {
        let doc = Json::obj([
            ("type", Json::str("eval")),
            ("a", Json::Arr(vec![Json::int(1), Json::Null])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render_compact(),
            r#"{"type":"eval","a":[1,null],"e":[]}"#
        );
    }

    #[test]
    fn unicode_and_empty_containers() {
        let j = Json::parse(r#"{"s": "héllo é", "e": {}, "a": []}"#).unwrap();
        assert_eq!(j.get("s").unwrap().as_str().unwrap(), "héllo é");
        assert_eq!(j.get("e").unwrap(), &Json::Obj(vec![]));
        assert_eq!(j.get("a").unwrap(), &Json::Arr(vec![]));
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(Json::parse(r#""é\u0001""#).unwrap(), Json::str("é\u{1}"));
    }

    #[test]
    fn long_strings_round_trip_in_linear_time() {
        // 1.5 MiB of mixed one- to four-byte chars and escapes; a parser
        // that re-validates the remaining input per char takes minutes.
        let unit = "aé€😀\"\\\n\t\u{1}";
        let s = unit.repeat((3 << 19) / unit.len());
        assert!(s.len() >= 1 << 20);
        let doc = Json::Arr(vec![Json::str(s.clone())]);
        let start = std::time::Instant::now();
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.as_arr().unwrap()[0].as_str(), Some(s.as_str()));
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");

        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn as_u64_accepts_only_exact_whole_numbers() {
        assert_eq!(Json::int(7).as_u64(), Some(7));
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), Some(1 << 53));
        for bad in [-5.0, 1.5, f64::INFINITY, f64::NAN, 1e16] {
            assert_eq!(Json::Num(bad).as_u64(), None, "{bad}");
        }
        assert_eq!(Json::str("7").as_u64(), None);
    }
}
