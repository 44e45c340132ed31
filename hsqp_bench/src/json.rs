//! JSON out and in, on the umbrella crate's `benchjson::Json` value (the
//! workspace builds offline, so there is no serde).

use std::collections::BTreeMap;

pub use hsqp::benchjson::{parse, Json};

/// An object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A string value.
pub fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// A number value.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Compact one-line rendering. Numbers keep every digit `f64` has (Rust's
/// shortest round-trip form); a non-finite number becomes `null`.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_the_parser() {
        let value = obj([
            ("name", s("a \"quoted\"\nline")),
            ("n", num(0.1 + 0.2)),
            ("big", num(1.0e21)),
            (
                "list",
                Json::Arr(vec![Json::Bool(true), Json::Null, num(-3.0)]),
            ),
        ]);
        let text = render(&value);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).expect("valid JSON"), value);
    }
}
