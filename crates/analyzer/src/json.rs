//! Self-contained JSON encoding of [`ClassGraph`]s for `aeon-lint`.
//!
//! The workspace's offline `serde` is a marker stub (snapshots use the
//! `aeon_types::codec` binary format), so the lint surface carries its own
//! minimal JSON reader/writer.  The document shape:
//!
//! ```json
//! {
//!   "classes": {
//!     "Branch": {
//!       "owns": ["Account"],
//!       "methods": [
//!         {"name": "transfer", "readonly": false, "calls": ["Account::add"]},
//!         {"name": "account_ids", "readonly": true}
//!       ]
//!     }
//!   }
//! }
//! ```
//!
//! A method without a `"calls"` key (or with `"calls": null`) never declared
//! a call summary; `"calls": []` declares "calls nothing".

use aeon_ownership::{ClassGraph, MethodRef};
use aeon_types::codec::MAX_DEPTH;
use aeon_types::{AeonError, Result};

/// Escapes and quotes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// Serialises a [`ClassGraph`] to the JSON document format `aeon-lint`
/// reads.  Classes and constraints are emitted in name order, methods in
/// declaration order, so the output is deterministic.
pub fn to_json(classes: &ClassGraph) -> String {
    let mut out = String::from("{\"classes\":{");
    for (ci, class) in classes.classes().enumerate() {
        if ci > 0 {
            out.push(',');
        }
        out.push_str(&json_string(class));
        out.push_str(":{\"owns\":[");
        for (oi, owned) in classes.owned_by(class).enumerate() {
            if oi > 0 {
                out.push(',');
            }
            out.push_str(&json_string(owned));
        }
        out.push_str("],\"methods\":[");
        for (mi, method) in classes.methods_of(class).iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"readonly\":{}",
                json_string(&method.name),
                method.readonly
            ));
            if let Some(calls) = &method.calls {
                out.push_str(",\"calls\":[");
                for (li, call) in calls.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(&call.to_string()));
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// Parses the JSON document format back into a [`ClassGraph`].
///
/// # Errors
///
/// Returns [`AeonError::Codec`] on malformed JSON or a document of the
/// wrong shape.
pub fn from_json(text: &str) -> Result<ClassGraph> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(bad("trailing data after JSON document"));
    }
    graph_of(&value)
}

fn bad(msg: impl std::fmt::Display) -> AeonError {
    AeonError::Codec(format!("class graph JSON: {msg}"))
}

/// Minimal JSON value tree (numbers are not needed by the schema but are
/// parsed so almost-right documents fail with shape errors, not syntax
/// errors).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around `pos`.  The parser recurses once per
    /// level, so it stops at [`MAX_DEPTH`] instead of overflowing its stack.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| bad("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(bad(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' | b'f' | b'n' => self.keyword(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(bad(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// Runs `body` one nesting level down.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(bad(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(bad(format!(
                        "expected ',' or '}}', got '{}'",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(bad(format!("expected ',' or ']', got '{}'", other as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| bad("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| bad("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| bad("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| bad("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| bad("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by class names;
                            // reject them rather than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| bad("\\u escape is not a scalar value"))?,
                            );
                        }
                        other => return Err(bad(format!("unknown escape '\\{}'", other as char))),
                    }
                }
                _ => {
                    // Re-synchronise on UTF-8 boundaries: push the raw byte
                    // run of this code point.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| bad("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn keyword(&mut self) -> Result<Json> {
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(bad(format!("unknown keyword at byte {}", self.pos)))
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii run");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| bad(format!("invalid number {text:?}")))
    }
}

fn graph_of(doc: &Json) -> Result<ClassGraph> {
    let classes = doc
        .get("classes")
        .ok_or_else(|| bad("missing top-level \"classes\" object"))?;
    let Json::Obj(entries) = classes else {
        return Err(bad("\"classes\" must be an object"));
    };
    let mut graph = ClassGraph::new();
    for (class, spec) in entries {
        graph.add_class(class.as_str());
        if let Some(owns) = spec.get("owns") {
            let Json::Arr(owned) = owns else {
                return Err(bad(format!("class {class}: \"owns\" must be an array")));
            };
            for item in owned {
                let Json::Str(owned_class) = item else {
                    return Err(bad(format!("class {class}: owned entries must be strings")));
                };
                graph.add_constraint(class.as_str(), owned_class.as_str());
            }
        }
        let Some(methods) = spec.get("methods") else {
            continue;
        };
        let Json::Arr(methods) = methods else {
            return Err(bad(format!("class {class}: \"methods\" must be an array")));
        };
        for method in methods {
            let Some(Json::Str(name)) = method.get("name") else {
                return Err(bad(format!(
                    "class {class}: every method needs a string \"name\""
                )));
            };
            let readonly = match method.get("readonly") {
                None | Some(Json::Bool(false)) => false,
                Some(Json::Bool(true)) => true,
                Some(_) => {
                    return Err(bad(format!(
                        "class {class} method {name}: \"readonly\" must be a boolean"
                    )))
                }
            };
            graph.declare_method(class.as_str(), name.as_str(), readonly);
            match method.get("calls") {
                None | Some(Json::Null) => {}
                Some(Json::Arr(calls)) => {
                    let mut refs = Vec::with_capacity(calls.len());
                    for call in calls {
                        let Json::Str(call) = call else {
                            return Err(bad(format!(
                                "class {class} method {name}: call entries must be strings"
                            )));
                        };
                        refs.push(MethodRef::parse(call).ok_or_else(|| {
                            bad(format!(
                                "class {class} method {name}: malformed call {call:?} \
                                 (expected \"Class::method\")"
                            ))
                        })?);
                    }
                    graph.declare_calls(class.as_str(), name.as_str(), refs);
                }
                Some(_) => {
                    return Err(bad(format!(
                        "class {class} method {name}: \"calls\" must be an array or null"
                    )))
                }
            }
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClassGraph {
        let mut g = ClassGraph::new();
        g.add_constraint("Bank", "Branch");
        g.add_constraint("Branch", "Account");
        g.declare_method("Account", "read", true);
        g.declare_method("Account", "add", false);
        g.declare_calls("Branch", "transfer", [MethodRef::new("Account", "add")]);
        g.declare_calls("Branch", "noop", []);
        g.declare_method("Bank", "branch_count", true);
        g
    }

    #[test]
    fn round_trips_a_class_graph() {
        let graph = sample();
        let json = to_json(&graph);
        let back = from_json(&json).unwrap();
        let classes: Vec<&str> = back.classes().collect();
        assert_eq!(classes, vec!["Account", "Bank", "Branch"]);
        assert!(back.declares("Branch", "Account"));
        assert_eq!(back.readonly_method("Account", "read"), Some(true));
        assert_eq!(
            back.calls_of("Branch", "transfer"),
            Some(&[MethodRef::new("Account", "add")][..])
        );
        assert_eq!(back.calls_of("Branch", "noop"), Some(&[][..]));
        assert_eq!(back.calls_of("Bank", "branch_count"), None);
        // Determinism: re-serialising the parse gives identical text.
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn parses_hand_written_documents_with_whitespace() {
        let text = r#"
        {
          "classes": {
            "List": { "owns": ["Node", "Node"], "methods": [] },
            "Node": {
              "owns": ["Node"],
              "methods": [
                { "name": "next", "readonly": true, "calls": [] },
                { "name": "insert_after", "calls": ["Node::insert_after"] }
              ]
            }
          }
        }
        "#;
        let graph = from_json(text).unwrap();
        assert!(graph.declares("Node", "Node"));
        assert_eq!(graph.readonly_method("Node", "insert_after"), Some(false));
        assert_eq!(
            graph.calls_of("Node", "insert_after"),
            Some(&[MethodRef::new("Node", "insert_after")][..])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut g = ClassGraph::new();
        g.add_class("weird \"class\"\nname\tü");
        let json = to_json(&g);
        let back = from_json(&json).unwrap();
        assert!(back.contains("weird \"class\"\nname\tü"));
    }

    #[test]
    fn malformed_documents_are_codec_errors() {
        for text in [
            "",
            "{",
            "[1, 2",
            "{\"classes\": []}",
            "{\"classes\": {\"A\": {\"owns\": \"B\"}}}",
            "{\"classes\": {\"A\": {\"methods\": [{}]}}}",
            "{\"classes\": {\"A\": {\"methods\": [{\"name\": \"m\", \"calls\": [\"bad\"]}]}}}",
            "{\"classes\": {}} trailing",
            "nope",
        ] {
            let err = from_json(text).unwrap_err();
            assert!(matches!(err, AeonError::Codec(_)), "{text:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        // Runs on a default 2 MiB test thread; unbounded, a file of
        // 200 000 '[' aborts the process.
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let err = from_json(&arrays(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("missing top-level"), "{err}");
        for text in [
            arrays(MAX_DEPTH + 1),
            "[".repeat(200_000),
            "{\"k\":".repeat(200_000),
        ] {
            let err = from_json(&text).unwrap_err();
            assert!(matches!(err, AeonError::Codec(_)), "{err}");
            assert!(err.to_string().contains("nested deeper than 512"), "{err}");
        }
    }
}
