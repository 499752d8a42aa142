//! The workspace's only JSON code: the escaper every producer uses
//! ([`json_string`]) and one strict RFC 8259 parser ([`parse`]) behind
//! the `crserve` request decoder, the bench gates and the
//! [`validate_json`] / [`validate_jsonl`] checks the tests trust.
//!
//! The workspace deliberately ships no JSON dependency. With a single
//! parser, a line the service accepts is exactly a line the validator
//! accepts.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts. `crserve` hands
/// socket input (up to `max_line` bytes) straight to the parser, so the
/// recursion is bounded: a line of a million `[` is an error, not a
/// stack overflow in a worker. The workspace writes at most three levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Ordered, so whatever iterates one is deterministic.
    Obj(BTreeMap<String, Value>),
}

/// Escapes `s` as a JSON string literal (quotes included). Every JSON
/// producer in the workspace (trace lines, metrics, `crserve` responses)
/// goes through this, so all of them escape identically.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Copy the run before this byte whole: every escaped byte is
        // ASCII, so runs start and end on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
    out
}

/// Parses `text` as exactly one JSON value, surrounded by nothing but
/// whitespace.
///
/// # Errors
///
/// A message with the byte offset of the first violation: bad syntax,
/// a duplicate object key, a raw control byte or lone surrogate in a
/// string, a number outside the JSON grammar or beyond `f64`, nesting
/// deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Checks that `text` is one well-formed JSON value ([`parse`] without
/// keeping the result).
///
/// # Errors
///
/// The first violation, as [`parse`] reports it.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse(text).map(drop)
}

/// Checks JSONL: every non-blank line must be a well-formed JSON value.
///
/// # Errors
///
/// The first offending line (1-based) and its error.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        }
    }
    Ok(())
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `want`.
    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        // The offset of the byte read, or the input's length at its end.
        let at = self.pos;
        if self.next() == Some(want) {
            return Ok(());
        }
        Err(format!("expected '{}' at byte {at}", want as char))
    }

    /// `depth` counts the arrays and objects already open around the
    /// value.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        let at = self.pos;
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!("nested too deep at byte {at}")),
            Some(b'{') => {
                let mut fields = BTreeMap::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    let value = p.value(depth + 1)?;
                    match fields.insert(key.clone(), value) {
                        Some(_) => Err(format!("duplicate field `{key}`")),
                        None => Ok(()),
                    }
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| p.value(depth + 1).map(|v| items.push(v)))?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {at}")),
        }
    }

    /// Runs `item` on each comma-separated item of the array or object
    /// whose opening bracket is at `pos`, through the `close` bracket.
    fn items<F>(&mut self, close: u8, mut item: F) -> Result<(), String>
    where
        F: FnMut(&mut Self) -> Result<(), String>,
    {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        let at = loop {
            item(self)?;
            self.skip_ws();
            // The offset of the byte read, or the input's length at its
            // end.
            let at = self.pos;
            match self.next() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(()),
                _ => break at,
            }
        };
        let close = char::from(close);
        Err(format!("expected ',' or '{close}' at byte {at}"))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Takes the run of number characters and holds it to JSON's grammar,
    /// which rejects the `01`, `1.` and `1.e5` that Rust's float syntax
    /// takes (`.5` and `+1` never reach here).
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let digit = |s: &str| s.starts_with(|c: char| c.is_ascii_digit());
        let int = text.strip_prefix('-').unwrap_or(text);
        let json = digit(int)
            && !(int.starts_with('0') && digit(&int[1..]))
            && text.split('.').skip(1).all(digit);
        match text.parse::<f64>() {
            Ok(v) if json && v.is_finite() => Ok(Value::Num(v)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole: those are ASCII, so the run ends on a char
            // boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let at = self.pos;
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(format!("raw control byte in string at {at}")),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    /// Decodes the escape after a backslash, joining a `\uXXXX` high
    /// surrogate with the low surrogate escape that must follow it.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        Ok(match self.next() {
            Some(c @ (b'"' | b'\\' | b'/')) => char::from(c),
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let at = self.pos;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    // Not a low surrogate: leave `code` invalid.
                    let low = self.hex4()?.checked_sub(0xdc00).filter(|low| *low < 0x400);
                    code = low.map_or(u32::MAX, |low| 0x10000 + ((code - 0xd800) << 10) + low);
                }
                char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {at}"))?
            }
            _ => return Err(format!("bad escape at byte {at}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut digits = self.text.get(self.pos..self.pos + 4).unwrap_or("?").chars();
        let code = digits.try_fold(0, |n, c| Some(n * 16 + c.to_digit(16)?));
        let code = code.ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grammar_table() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "0",
            "-0.0E+2",
            "10.25e05",
            "{\"a\": [1, 2.5, \"x\", true, null], \"b\": {}}",
            "  {\"nested\": {\"deep\": [[[]]]}}  ",
            "\"\\u00e9\\n\"",
            "\"\\ud83d\\ude00\"",
            "\n[1,\r\n2]\t",
        ] {
            assert!(validate_json(good).is_ok(), "{good}: {:?}", parse(good));
        }
        // Offsets name the offending byte, or the input's length when it
        // ends early.
        for (bad, needle) in [
            ("", "expected a value"),
            ("{", "expected '\"' at byte 1"),
            ("{ ", "expected '\"' at byte 2"),
            ("{\"a\"", "expected ':' at byte 4"),
            ("{\"a\" x", "expected ':' at byte 5"),
            ("{\"a\":1,", "expected '\"' at byte 7"),
            ("}", "expected a value"),
            ("{\"a\":}", "expected a value"),
            ("{\"a\":1,}", "expected '\"' at byte 7"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("[1}", "expected ',' or ']' at byte 2"),
            ("[1, 2 ", "expected ',' or ']' at byte 6"),
            ("{\"a\":1 2}", "expected ',' or '}' at byte 7"),
            ("{\"a\":1", "expected ',' or '}' at byte 6"),
            ("tru", "bad literal"),
            ("1.", "bad number"),
            ("01x", "bad number"),
            ("01", "bad number"),
            ("-01", "bad number"),
            ("1e", "bad number"),
            ("1e+", "bad number"),
            ("1.5e", "bad number"),
            ("1.e5", "bad number"),
            ("1.E5", "bad number"),
            ("-.5", "bad number"),
            ("--1", "bad number"),
            ("1-2", "bad number"),
            ("-", "bad number"),
            ("1e999", "bad number"),
            (".5", "expected a value"),
            ("+1", "expected a value"),
            ("\"unterminated", "unterminated"),
            ("{\"a\":1} extra", "trailing garbage"),
            ("{'a':1}", "expected '\"'"),
            ("{\"a\":1,\"a\":2}", "duplicate field `a`"),
            ("\"a\u{1}b\"", "raw control byte in string at 2"),
            ("\"\\x\"", "bad escape at byte 2"),
            ("\"\\", "bad escape at byte 2"),
            ("\"\\u12\"", "bad \\u escape at byte 3"),
            ("\"\\ud83d\"", "lone surrogate"),
            ("\"\\ud83dx\"", "lone surrogate at byte 3"),
            ("\"\\ud83d\\u0041\"", "lone surrogate"),
            ("\"\\ude00\"", "lone surrogate"),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad:?}: got {err:?}");
            assert!(validate_json(bad).is_err(), "{bad}");
        }
        assert!(validate_jsonl("{}\n[1]\n\n\"x\"\n").is_ok());
        assert!(validate_jsonl("{}\nnot json\n").is_err());
    }

    #[test]
    fn parses_to_values() {
        let v = parse("{\"b\":[1,-2.5e1,null],\"a\":{\"t\":true},\"s\":\"\\ud83d\\ude00\\/\"}");
        let want = Value::Obj(BTreeMap::from([
            (
                "a".to_owned(),
                Value::Obj(BTreeMap::from([("t".to_owned(), Value::Bool(true))])),
            ),
            (
                "b".to_owned(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(-25.0), Value::Null]),
            ),
            ("s".to_owned(), Value::Str("😀/".to_owned())),
        ]));
        assert_eq!(v, Ok(want));
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().contains("nested too deep"));
        let frame = "[".repeat(1 << 20);
        assert!(parse(&frame).unwrap_err().contains("nested too deep"));
        let objects = "{\"a\":".repeat(1 << 16);
        assert!(parse(&objects).unwrap_err().contains("nested too deep"));
    }

    #[test]
    fn bench_trajectories_parse() {
        let file = "BENCH_core.json";
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut rows = 0;
        for (i, line) in text.lines().enumerate() {
            let row = parse(line).unwrap_or_else(|e| panic!("{file}:{}: {e}", i + 1));
            assert!(matches!(row, Value::Obj(_)), "{file}:{}", i + 1);
            rows += 1;
        }
        assert!(rows > 0, "{file} is empty");
    }

    /// A char-at-a-time reference escaper: `json_string` must match it
    /// byte for byte.
    fn json_string_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        #[test]
        fn escaping_matches_the_char_by_char_reference(
            codes in proptest::collection::vec(prop_oneof![0u32..0x80, 0u32..0x11_0000], 0..40)
        ) {
            let s: String = codes
                .iter()
                .map(|&c| char::from_u32(c).unwrap_or('\u{fffd}'))
                .collect();
            prop_assert_eq!(json_string(&s), json_string_by_char(&s));
        }

        #[test]
        fn escaped_strings_round_trip(
            codes in proptest::collection::vec(prop_oneof![0u32..0x80, 0u32..0x11_0000], 0..40)
        ) {
            let s: String = codes
                .iter()
                .map(|&c| char::from_u32(c).unwrap_or('\u{fffd}'))
                .collect();
            prop_assert_eq!(parse(&json_string(&s)), Ok(Value::Str(s.clone())));
        }
    }
}
