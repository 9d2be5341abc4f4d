//! A JSON value and its writer — enough for `results.json`, the trace file
//! and the one-line result the driver reads.

use std::fmt::Write;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Written with every digit `f64` needs to round-trip; a value that is
    /// not finite is written as `null`.
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl Json {
    /// Compact form on one line.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented form, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        let colon = if indent.is_some() { ": " } else { ":" };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => write!(out, "{v}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push_str(colon);
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                obj([(
                    "setup_s",
                    obj([
                        ("value", Json::Num(0.8127)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Int(1), Json::Num(2.5)])),
            ("empty", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn compact_line() {
        assert_eq!(
            doc().line(),
            r#"{"correct":true,"attempted":1000,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}},"list":[1,2.5],"empty":[]}"#
        );
    }

    #[test]
    fn pretty_form() {
        let expected = "{\n  \"correct\": true,\n  \"attempted\": 1000,\n  \"metrics\": {\n    \"setup_s\": {\n      \"value\": 0.8127,\n      \"unit\": \"s\"\n    }\n  },\n  \"list\": [\n    1,\n    2.5\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(doc().pretty(), expected);
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(Json::Num(1.2034567891234).line(), "1.2034567891234");
        assert_eq!(Json::Num(1e-9).line(), "0.000000001");
        assert_eq!(Json::Num(3.0).line(), "3");
        assert_eq!(Json::Num(f64::NAN).line(), "null");
        assert_eq!(Json::Num(f64::INFINITY).line(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\te\u{1}".into()).line(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }
}
