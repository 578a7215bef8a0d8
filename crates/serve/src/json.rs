//! A minimal flat-JSON reader and string escaper.
//!
//! Job bodies are single-level JSON objects of scalars (`{"benchmark":
//! "diffeq","alg":"mfs","cs":4}`); there is no serde in the offline
//! container, and the job schema needs nothing nested, so nested
//! objects and arrays are rejected with a clear message rather than
//! half-supported.

use std::collections::BTreeMap;

/// Escapes a string into JSON string contents (without the quotes).
pub use hls_telemetry::escape_json as escape_into;

/// A scalar JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string.
    Str(String),
    /// A number (JSON numbers are doubles; integral checks live at the
    /// point of use).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part. Accepts `"4"` (a numeric string) too, so knobs
    /// read the same from JSON bodies and query strings.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            JsonValue::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a boolean (`true`, `false`, `"true"`, `"false"`,
    /// `1`, `0`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            JsonValue::Num(n) if *n == 0.0 => Some(false),
            JsonValue::Num(n) if *n == 1.0 => Some(true),
            JsonValue::Str(s) => match s.as_str() {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Parses one flat JSON object into key → scalar value.
pub fn parse_flat_object(text: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    let map = p.object()?;
    p.skip_ws();
    p.end(map)
}

/// Parses a JSON array of flat objects (`[{...},{...}]`) — the
/// `POST /batch` body shape. The array itself is the only nesting
/// level; each element follows the [`parse_flat_object`] rules.
pub fn parse_flat_array(text: &str) -> Result<Vec<BTreeMap<String, JsonValue>>, String> {
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    p.expect('[')?;
    let mut items = Vec::new();
    p.skip_ws();
    if p.eat(']') {
        p.skip_ws();
        return p.end(items);
    }
    loop {
        p.skip_ws();
        items.push(p.object()?);
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect(']')?;
        p.skip_ws();
        return p.end(items);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    /// One `{...}` object of scalar values, cursor left just past the
    /// closing brace.
    fn object(&mut self) -> Result<BTreeMap<String, JsonValue>, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat('}') {
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            if self.eat(',') {
                continue;
            }
            self.expect('}')?;
            return Ok(map);
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected `{want}` at byte {i}, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of input")),
        }
    }

    fn end<T>(&mut self, value: T) -> Result<T, String> {
        match self.chars.next() {
            None => Ok(value),
            Some((i, c)) => Err(format!("trailing `{c}` at byte {i} after the object")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "bad escape `\\{}` at byte {i}",
                            other.map_or(String::new(), |(_, c)| c.to_string())
                        ))
                    }
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.chars.peek().copied() {
            Some((_, '"')) => Ok(JsonValue::Str(self.string()?)),
            Some((i, '{')) | Some((i, '[')) => Err(format!(
                "nested values are not supported in a job object (byte {i})"
            )),
            Some((start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some((i, c)) = self.chars.peek().copied() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                self.text[start..end]
                    .parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("invalid number `{}`", &self.text[start..end]))
            }
            Some((_, 't')) if self.keyword("true") => Ok(JsonValue::Bool(true)),
            Some((_, 'f')) if self.keyword("false") => Ok(JsonValue::Bool(false)),
            Some((_, 'n')) if self.keyword("null") => Ok(JsonValue::Null),
            Some((i, c)) => Err(format!("unexpected `{c}` at byte {i}")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(&mut self, word: &str) -> bool {
        let rest = &self.text[self.chars.peek().map_or(self.text.len(), |(i, _)| *i)..];
        if rest.starts_with(word) {
            for _ in 0..word.len() {
                self.chars.next();
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_object() {
        let m = parse_flat_object(
            r#" {"benchmark": "diffeq", "alg": "mfs", "cs": 4, "warm": true, "x": null} "#,
        )
        .unwrap();
        assert_eq!(m["benchmark"].as_str(), Some("diffeq"));
        assert_eq!(m["cs"].as_u64(), Some(4));
        assert_eq!(m["warm"].as_bool(), Some(true));
        assert_eq!(m["x"], JsonValue::Null);
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn string_escapes_round_trip() {
        let m = parse_flat_object(r#"{"dfg":"input a, b\nop p = mul(a, b)\n","q":"A\""}"#).unwrap();
        assert_eq!(m["dfg"].as_str(), Some("input a, b\nop p = mul(a, b)\n"));
        assert_eq!(m["q"].as_str(), Some("A\""));
    }

    #[test]
    fn numbers_and_coercions() {
        let m = parse_flat_object(r#"{"a":-2.5,"b":"7","c":1e3}"#).unwrap();
        assert_eq!(m["a"], JsonValue::Num(-2.5));
        assert_eq!(m["a"].as_u64(), None, "negative/fractional is not a u64");
        assert_eq!(m["b"].as_u64(), Some(7));
        assert_eq!(m["c"].as_u64(), Some(1000));
    }

    #[test]
    fn malformed_objects_error_out() {
        for bad in [
            "",
            "null",
            "{",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1} trailing"#,
            r#"{"a":{"nested":1}}"#,
            r#"{"a":[1,2]}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":tru}"#,
        ] {
            assert!(parse_flat_object(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_an_array_of_flat_objects() {
        let items =
            parse_flat_array(r#" [ {"benchmark":"diffeq","cs":4}, {"cs": 6}, {} ] "#).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0]["benchmark"].as_str(), Some("diffeq"));
        assert_eq!(items[1]["cs"].as_u64(), Some(6));
        assert!(items[2].is_empty());
        assert!(parse_flat_array("[]").unwrap().is_empty());
        for bad in [
            "",
            "{}",
            "[",
            "[{}",
            "[{},]",
            "[1,2]",
            r#"[{"a":[1]}]"#,
            "[{}] trailing",
        ] {
            assert!(parse_flat_array(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn escape_into_matches_parser() {
        let original = "a\"b\\c\nd\u{1}";
        let mut encoded = String::from("{\"k\":\"");
        escape_into(&mut encoded, original);
        encoded.push_str("\"}");
        let m = parse_flat_object(&encoded).unwrap();
        assert_eq!(m["k"].as_str(), Some(original));
    }
}
