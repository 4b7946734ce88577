//! The workspace's one text reader and writer: JSON (`aeon-lint`'s class
//! graphs and reports) and the TOML subset of `aeond`'s config file.
//!
//! Both formats are input from outside the program, so one scanner reads
//! them and refuses what it cannot read with a typed error, never a panic:
//!
//! * whitespace, and strings with JSON's escapes (`\" \\ \/ \b \f \n \r \t
//!   \uXXXX`; a `\u` escape must name a Unicode scalar value);
//! * one scalar grammar: `true`, `false`, `null`, integers (which may carry
//!   `_` separators) and floats;
//! * JSON arrays and objects nested at most [`MAX_DEPTH`] deep, the codec's
//!   bound — the reader recurses once per level.
//!
//! [`json`] reads a document into a [`Value`]: an object becomes a
//! [`Value::Map`] (a repeated key is refused), an array a [`Value::List`].
//! Its errors are [`AeonError::Codec`] and name a line and a column.
//!
//! [`toml`] reads `[section]` headers and `key = value` lines (the value a
//! string, integer, float or boolean; `#` starts a comment outside a
//! string) into section → key → (value, line).  Its errors are
//! [`AeonError::Config`] and start with `line N:`.
//!
//! [`to_json`] is the one writer: compact, object keys in name order.
//!
//! # Examples
//!
//! ```
//! use aeon_types::{text, Value};
//!
//! let doc = text::json(r#"{"b": [1, 2.5, "x\n"], "a": null}"#).unwrap();
//! assert_eq!(doc.get("b").unwrap().as_list().unwrap()[1], Value::Float(2.5));
//! assert_eq!(text::to_json(&doc), r#"{"a":null,"b":[1,2.5,"x\n"]}"#);
//!
//! let config = text::toml("[server]\nport = 8_080 # admin\n").unwrap();
//! assert_eq!(config["server"]["port"], (Value::Int(8080), 2));
//! ```

use crate::codec::MAX_DEPTH;
use crate::error::{AeonError, Result};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The entries of one TOML section: key → (value, line it was set on).
pub type Section = BTreeMap<String, (Value, usize)>;

/// Reads one JSON document.
///
/// # Errors
///
/// [`AeonError::Codec`] naming the line and column of the first thing that
/// is not JSON: a syntax error, a repeated object key, nesting deeper than
/// [`MAX_DEPTH`], or data after the document.
pub fn json(text: &str) -> Result<Value> {
    let mut s = Scanner::new(text, Format::Json);
    let value = s.value()?;
    s.skip_ws();
    if s.pos < s.bytes.len() {
        return Err(s.fail("trailing data after the JSON document"));
    }
    Ok(value)
}

/// Reads the TOML subset into section → key → (value, line).  A key before
/// any `[section]` header, a repeated key and a `null` are refused; a
/// section may be opened more than once.
///
/// # Errors
///
/// [`AeonError::Config`] whose message starts with the offending line.
pub fn toml(text: &str) -> Result<BTreeMap<String, Section>> {
    let mut s = Scanner::new(text, Format::Toml);
    let mut sections: BTreeMap<String, Section> = BTreeMap::new();
    let mut current: Option<String> = None;
    let mut line = 0;
    loop {
        // One turn reads one line.
        line += 1;
        s.skip_blank();
        let rest = s.rest();
        match s.peek() {
            None => return Ok(sections),
            Some(b'\n' | b'#') => {}
            Some(b'[') => {
                let end = rest
                    .find(']')
                    .ok_or_else(|| s.fail("unterminated [section"))?;
                let name = rest[1..end].trim();
                if name.is_empty() || !name.bytes().all(is_key_byte) {
                    return Err(s.fail(format!("invalid section name {name:?}")));
                }
                sections.entry(name.to_string()).or_default();
                current = Some(name.to_string());
                s.pos += end + 1;
                if !s.line_ends() {
                    return Err(s.fail(format!("unexpected {:?} after [{name}]", s.rest())));
                }
            }
            Some(_) => {
                let (key, _) = rest
                    .split_once('=')
                    .ok_or_else(|| s.fail("expected `key = value` or `[section]`"))?;
                let key = key.trim();
                if key.is_empty() || !key.bytes().all(is_key_byte) {
                    return Err(s.fail(format!("invalid key {key:?}")));
                }
                let section = current.as_ref().ok_or_else(|| {
                    s.fail(format!("key {key:?} appears before any [section] header"))
                })?;
                s.pos += rest.find('=').expect("the line holds '='") + 1;
                s.skip_blank();
                let start = s.pos;
                let value = match s.peek() {
                    Some(b'"') => s.string().map(Value::from).ok(),
                    _ => s.scalar().ok(),
                }
                .filter(|value| {
                    !value.is_null() && !s.text[start..s.pos].contains('\n') && s.line_ends()
                });
                let Some(value) = value else {
                    s.pos = start;
                    let shown = s.rest().trim_end();
                    return Err(s.fail(if shown.starts_with('"') {
                        format!("malformed string {shown}")
                    } else {
                        format!(
                            "cannot parse value `{shown}` \
                             (expected a string, integer, float, or boolean)"
                        )
                    }));
                };
                let entries = sections
                    .get_mut(section)
                    .expect("the current section exists");
                if entries.insert(key.to_string(), (value, line)).is_some() {
                    return Err(s.fail(format!("duplicate key {key:?}")));
                }
            }
        }
        s.line_ends();
        s.pos += usize::from(s.peek() == Some(b'\n'));
    }
}

/// Writes `value` as compact JSON, object keys in name order.  What JSON
/// has no form for — a non-finite float, bytes, a context reference — is
/// written `null`.
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    write_json(value, &mut out);
    out
}

fn write_json(value: &Value, out: &mut String) {
    match value {
        Value::Bool(b) => write!(out, "{b}").expect("writing to a String"),
        Value::Int(i) => write!(out, "{i}").expect("writing to a String"),
        Value::Float(x) if x.is_finite() => write!(out, "{x:?}").expect("writing to a String"),
        Value::Null | Value::Float(_) | Value::Bytes(_) | Value::ContextRef(_) => {
            out.push_str("null")
        }
        Value::Str(s) => write_string(s, out),
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Value::Map(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_json(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn is_key_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Json,
    Toml,
}

struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    format: Format,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str, format: Format) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            format,
            depth: 0,
        }
    }

    /// The error `msg` at the current position, in the format's variant.
    fn fail(&self, msg: impl fmt::Display) -> AeonError {
        match self.format {
            Format::Json => {
                let column = self.pos
                    - self.bytes[..self.pos]
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .map_or(0, |nl| nl + 1)
                    + 1;
                AeonError::Codec(format!("JSON line {}, column {column}: {msg}", self.line()))
            }
            Format::Toml => AeonError::Config(format!("line {}: {msg}", self.line())),
        }
    }

    fn line(&self) -> usize {
        self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The rest of the current line.
    fn rest(&self) -> &'a str {
        let rest = &self.text[self.pos..];
        rest.split('\n').next().unwrap_or(rest)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Skips whitespace short of a line end.
    fn skip_blank(&mut self) {
        while self
            .peek()
            .is_some_and(|b| b != b'\n' && b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    /// Skips blanks and a `#` comment; whether the line ends there.
    fn line_ends(&mut self) -> bool {
        self.skip_blank();
        if self.peek() == Some(b'#') {
            self.pos += self.rest().len();
        }
        matches!(self.peek(), None | Some(b'\n'))
    }

    /// `true`, `false`, `null`, an integer or a float: the run of letters,
    /// digits and `_ - + .` at `pos`.
    fn scalar(&mut self) -> Result<Value> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| is_key_byte(b) || matches!(b, b'-' | b'+' | b'.'))
        {
            self.pos += 1;
        }
        let word = &self.text[start..self.pos];
        let value = match word {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            "null" => Some(Value::Null),
            _ if word.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+')
                && word
                    .bytes()
                    .all(|b| b.is_ascii_digit() || b"_-+.eE".contains(&b)) =>
            {
                let digits = word.replace('_', "");
                digits
                    .parse()
                    .map(Value::Int)
                    .or_else(|_| digits.parse().map(Value::Float))
                    .ok()
            }
            _ => None,
        };
        value.ok_or_else(|| {
            self.pos = start;
            match word {
                "" => self.fail(match self.peek() {
                    Some(b) => format!("unexpected character {:?}", char::from(b)),
                    None => "unexpected end of input".to_string(),
                }),
                _ => self.fail(format!("invalid value {word:?}")),
            }
        })
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => self.container(),
            Some(b'"') => self.string().map(Value::from),
            _ => self.scalar(),
        }
    }

    /// An object or an array: items separated by commas up to the closing
    /// bracket, one nesting level down.
    fn container(&mut self) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail(format!("nested deeper than {MAX_DEPTH}")));
        }
        let object = self.peek() == Some(b'{');
        let close = if object { b'}' } else { b']' };
        let (mut map, mut items) = (BTreeMap::new(), Vec::new());
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        let mut open = self.peek() != Some(close);
        while open {
            if object {
                self.skip_ws();
                let at = self.pos;
                let key = self.string()?;
                if map.contains_key(&key) {
                    self.pos = at;
                    return Err(self.fail(format!("repeated key {key:?}")));
                }
                self.expect(b':')?;
                map.insert(key, self.value()?);
            } else {
                items.push(self.value()?);
            }
            self.skip_ws();
            open = self.peek() == Some(b',');
            if !open && self.peek() != Some(close) {
                return Err(self.fail(format!("expected ',' or {:?}", char::from(close))));
            }
            self.pos += usize::from(open);
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(if object {
            Value::Map(Box::new(map))
        } else {
            items.into()
        })
    }

    /// Consumes `b` after optional whitespace.
    fn expect(&mut self, b: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format!("expected {:?}", char::from(b))))
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // '"' and '\\' are ASCII, so every cut below is a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.fail("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = self
                .peek()
                .ok_or_else(|| self.fail("unterminated escape"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                        .ok_or_else(|| self.fail("a \\u escape needs four hex digits"))?;
                    let code = hex.iter().fold(0, |code, &b| {
                        code * 16 + char::from(b).to_digit(16).expect("a hex digit")
                    });
                    // Surrogate pairs are refused rather than mis-decoded.
                    let c = char::from_u32(code)
                        .ok_or_else(|| self.fail("a \\u escape must be a scalar value"))?;
                    self.pos += 4;
                    c
                }
                other => {
                    self.pos -= 2;
                    return Err(self.fail(format!("unknown escape '\\{}'", char::from(other))));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config_text() -> &'static str {
        "# service\n[deployment]\nbackend = \"cluster\" # distributed\nservers = 3\n\n\
         [admin]\nlisten = \"127.0.0.1:9464\"\nratio = -1.5e3\non = true\n\
         name = \"a\\\"b\\u00e9\\n\" # escaped\n"
    }

    fn json_text() -> &'static str {
        r#"{"classes": {"A": {"owns": ["B"], "methods": [{"name": "m", "readonly": true, "calls": ["B::n", null]}]}, "n": -12_000, "x": 0.25, "s": "q\"\\\u00e9\n"}}"#
    }

    #[test]
    fn json_reads_every_kind_and_writes_it_back() {
        let doc = json(json_text()).unwrap();
        assert_eq!(
            doc.get("classes").and_then(|c| c.get("n")),
            Some(&Value::Int(-12000))
        );
        let written = to_json(&doc);
        assert_eq!(json(&written).unwrap(), doc);
        assert_eq!(to_json(&json(&written).unwrap()), written);
        assert_eq!(json(" [ ] ").unwrap(), Value::from(Vec::<Value>::new()));
        assert_eq!(to_json(&Value::Float(1.0)), "1.0");
        assert_eq!(to_json(&Value::Float(f64::NAN)), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = json(r#""q\"b\\s\/n\nr\rt\tb\bf\fé\u0001""#).unwrap();
        assert_eq!(doc.as_str(), Some("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}é\u{1}"));
        assert_eq!(json(&to_json(&doc)).unwrap(), doc);
        for bad in [
            r#""\ud800""#,
            r#""\u12""#,
            r#""\u+fff""#,
            r#""\q""#,
            "\"open",
            "\"\\",
        ] {
            assert!(matches!(json(bad), Err(AeonError::Codec(_))), "{bad}");
        }
    }

    #[test]
    fn json_errors_name_a_line_and_a_column() {
        let err = json("{\n  \"a\": 1,\n  \"a\": 2\n}").unwrap_err();
        assert_eq!(
            err,
            AeonError::Codec("JSON line 3, column 3: repeated key \"a\"".into())
        );
        let err = json("[1,\n 2 x]").unwrap_err();
        assert_eq!(
            err,
            AeonError::Codec("JSON line 2, column 4: expected ',' or ']'".into())
        );
        let err = json("[tru]").unwrap_err();
        assert!(
            err.to_string().contains("column 2: invalid value \"tru\""),
            "{err}"
        );
        assert!(json("{} {}")
            .unwrap_err()
            .to_string()
            .contains("trailing data"));
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(json(&arrays(MAX_DEPTH)).is_ok());
        for text in [
            arrays(MAX_DEPTH + 1),
            "[".repeat(200_000),
            "{\"k\":".repeat(200_000),
        ] {
            let err = json(&text).unwrap_err();
            assert!(err.to_string().contains("nested deeper than 512"), "{err}");
        }
    }

    #[test]
    fn toml_reads_sections_keys_values_and_lines() {
        let sections = toml(config_text()).unwrap();
        assert_eq!(
            sections["deployment"]["backend"],
            (Value::from("cluster"), 3)
        );
        assert_eq!(sections["deployment"]["servers"], (Value::Int(3), 4));
        assert_eq!(sections["admin"]["ratio"], (Value::Float(-1500.0), 8));
        assert_eq!(sections["admin"]["on"], (Value::Bool(true), 9));
        assert_eq!(sections["admin"]["name"], (Value::from("a\"bé\n"), 10));
        let escaped = toml("[a]\ns = \"a\\\"b # c\" # d").unwrap();
        assert_eq!(escaped["a"]["s"].0, Value::from("a\"b # c"));
        assert!(toml("[a]\n[b]\n[a]\n").unwrap()["a"].is_empty());
    }

    #[test]
    fn toml_errors_start_with_their_line() {
        for (text, msg) in [
            ("[a]\nx = 1\nx = 2", "line 3: duplicate key \"x\""),
            (
                "x = 1",
                "line 1: key \"x\" appears before any [section] header",
            ),
            ("[a\nx = 1", "line 1: unterminated [section"),
            ("[a.b]", "line 1: invalid section name \"a.b\""),
            ("[a]\nx", "line 2: expected `key = value` or `[section]`"),
            ("[a]\nx y = 1", "line 2: invalid key \"x y\""),
            ("[a]\nx* = 1", "line 2: invalid key \"x*\""),
            (
                "[a]\nx = null",
                "line 2: cannot parse value `null` (expected a string, integer, float, or boolean)",
            ),
            ("[a]\nx = \"open\ny = 1", "line 2: malformed string \"open"),
            (
                "[a]\nx = 1 2",
                "line 2: cannot parse value `1 2` (expected a string, integer, float, or boolean)",
            ),
        ] {
            assert_eq!(
                toml(text).unwrap_err(),
                AeonError::Config(msg.into()),
                "{text:?}"
            );
        }
    }

    /// Every prefix of `text`, each also with the byte at `at` (modulo its
    /// length) replaced by `byte`.
    fn mutations(text: &str, at: u64, byte: u8) -> Vec<String> {
        let mut out = Vec::new();
        for end in 0..=text.len() {
            let mut bytes = text.as_bytes()[..end].to_vec();
            out.push(String::from_utf8_lossy(&bytes).into_owned());
            if end > 0 {
                bytes[at as usize % end] = byte;
                out.push(String::from_utf8_lossy(&bytes).into_owned());
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 5_000 }
        ))]

        #[test]
        fn readers_refuse_arbitrary_bytes_with_a_typed_error(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            if let Err(err) = json(&text) {
                prop_assert!(matches!(err, AeonError::Codec(_)), "{err}");
            }
            if let Err(err) = toml(&text) {
                prop_assert!(matches!(err, AeonError::Config(_)), "{err}");
            }
        }

        #[test]
        fn readers_refuse_truncated_and_altered_documents_with_a_typed_error(
            at in any::<u64>(),
            byte in any::<u8>(),
        ) {
            for text in mutations(json_text(), at, byte) {
                match json(&text) {
                    Ok(value) => prop_assert_eq!(json(&to_json(&value)).unwrap(), value),
                    Err(err) => prop_assert!(matches!(err, AeonError::Codec(_)), "{err}"),
                }
            }
            for text in mutations(config_text(), at, byte) {
                if let Err(err) = toml(&text) {
                    prop_assert!(matches!(err, AeonError::Config(_)), "{err}");
                }
            }
        }
    }
}
