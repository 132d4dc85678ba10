//! The one JSON writer every workload and report shares (no serde_json is
//! vendored). Values are built as a tree and rendered once; object keys keep
//! insertion order so reports diff cleanly.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field (builder style); panics on a non-object, which is a
    /// bug in the caller.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            // JSON has no NaN or infinity; a metric that comes out as one is
            // reported as null so the consumer fails loudly, not silently.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` prints the shortest text that round-trips the f64 —
            // every digit measured and no more.
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let j = Json::obj()
            .field("correct", true)
            .field("attempted", 1000u64)
            .field(
                "metrics",
                Json::obj().field(
                    "latency_ms",
                    Json::obj().field("value", 1.2034).field("unit", "ms"),
                ),
            )
            .field("list", vec![Json::Int(1), Json::Num(0.5)]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":1000,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"}},"list":[1,0.5]}"#
        );
    }

    #[test]
    fn escapes_strings_and_keeps_every_digit() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}").render(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
