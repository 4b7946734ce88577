//! Self-contained JSON encoding of [`ClassGraph`]s for `aeon-lint`.
//!
//! The workspace's offline `serde` is a marker stub, so the document is read
//! and written by `aeon_types::text`, the workspace's one text reader (a
//! repeated object key is refused, nesting is bounded).  The shape:
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
use aeon_types::{text, AeonError, Result, Value};

/// Serialises a [`ClassGraph`] to the JSON document format `aeon-lint`
/// reads.  Classes, constraints and object keys are emitted in name order,
/// methods in declaration order, so the output is deterministic.
pub fn to_json(classes: &ClassGraph) -> String {
    let class = |class: &str| {
        let methods = classes.methods_of(class).iter().map(|method| {
            let mut fields = vec![
                ("name", Value::from(method.name.as_str())),
                ("readonly", Value::from(method.readonly)),
            ];
            if let Some(calls) = &method.calls {
                let calls: Vec<String> = calls.iter().map(MethodRef::to_string).collect();
                fields.push(("calls", Value::from(calls)));
            }
            Value::map(fields)
        });
        Value::map([
            (
                "owns",
                Value::from(classes.owned_by(class).collect::<Vec<_>>()),
            ),
            ("methods", Value::from(methods.collect::<Vec<_>>())),
        ])
    };
    let graph = Value::map(classes.classes().map(|name| (name, class(name))));
    text::to_json(&Value::map([("classes", graph)]))
}

/// Parses the JSON document format back into a [`ClassGraph`].
///
/// # Errors
///
/// Returns [`AeonError::Codec`] on malformed JSON or a document of the
/// wrong shape.
pub fn from_json(json: &str) -> Result<ClassGraph> {
    graph_of(&text::json(json)?)
}

fn bad(msg: impl std::fmt::Display) -> AeonError {
    AeonError::Codec(format!("class graph JSON: {msg}"))
}

fn graph_of(doc: &Value) -> Result<ClassGraph> {
    let classes = doc
        .get("classes")
        .ok_or_else(|| bad("missing top-level \"classes\" object"))?;
    let entries = classes
        .as_map()
        .ok_or_else(|| bad("\"classes\" must be an object"))?;
    let mut graph = ClassGraph::new();
    for (class, spec) in entries {
        graph.add_class(class.as_str());
        if let Some(owns) = spec.get("owns") {
            let owned = owns
                .as_list()
                .ok_or_else(|| bad(format!("class {class}: \"owns\" must be an array")))?;
            for item in owned {
                let owned_class = item
                    .as_str()
                    .ok_or_else(|| bad(format!("class {class}: owned entries must be strings")))?;
                graph.add_constraint(class.as_str(), owned_class);
            }
        }
        let Some(methods) = spec.get("methods") else {
            continue;
        };
        let methods = methods
            .as_list()
            .ok_or_else(|| bad(format!("class {class}: \"methods\" must be an array")))?;
        for method in methods {
            let name = method.get("name").and_then(Value::as_str).ok_or_else(|| {
                bad(format!(
                    "class {class}: every method needs a string \"name\""
                ))
            })?;
            let readonly = match method.get("readonly") {
                None => false,
                Some(flag) => flag.as_bool().ok_or_else(|| {
                    bad(format!(
                        "class {class} method {name}: \"readonly\" must be a boolean"
                    ))
                })?,
            };
            graph.declare_method(class.as_str(), name, readonly);
            match method.get("calls") {
                None | Some(Value::Null) => {}
                Some(Value::List(calls)) => {
                    let mut refs = Vec::with_capacity(calls.len());
                    for call in calls.iter() {
                        let call = call.as_str().ok_or_else(|| {
                            bad(format!(
                                "class {class} method {name}: call entries must be strings"
                            ))
                        })?;
                        refs.push(MethodRef::parse(call).ok_or_else(|| {
                            bad(format!(
                                "class {class} method {name}: malformed call {call:?} \
                                 (expected \"Class::method\")"
                            ))
                        })?);
                    }
                    graph.declare_calls(class.as_str(), name, refs);
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
    use aeon_types::codec::MAX_DEPTH;

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
