//! The hand-rolled JSON every campaign artifact is written with: stable
//! field order, integers only, no timestamps, so identical seeds give
//! byte-identical documents.

use netsim::TransportError;

/// `s` as a JSON string literal. Quote, backslash and newline get their
/// short escapes, other control characters `\u00XX`; everything else,
/// non-ASCII included, passes through unchanged.
pub fn str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A surfaced transport error as its `Debug` name, or `null`.
pub fn err(e: Option<TransportError>) -> String {
    e.map_or_else(|| "null".into(), |e| str(&format!("{e:?}")))
}

/// An integer array, `[1,2,3]`.
pub fn arr(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// A string array, `["a","b"]`.
pub fn str_list<S: AsRef<str>>(items: &[S]) -> String {
    let q: Vec<String> = items.iter().map(|s| str(s.as_ref())).collect();
    format!("[{}]", q.join(","))
}

/// A JSON object written field by field, in call order, with no
/// whitespace: `{"a":1,"b":"x"}`. Keys are written verbatim.
#[derive(Default)]
pub struct Object(String);

impl Object {
    /// Add a raw value: a number, a bool, `null`, or JSON already encoded
    /// by this module.
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push_str(&format!("\"{key}\":{value}"));
        self
    }

    /// Add a string value.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, str(value))
    }

    pub fn end(self) -> String {
        if self.0.is_empty() {
            "{}".into()
        } else {
            self.0 + "}"
        }
    }
}

/// The one envelope a campaign sweep is published in. Without a
/// cross-check key: `{"campaigns":[…],"total":N,"violations":V}`. With
/// one: `{"runs":[…],"<key>":[…],"total":N,"violations":V}`. Rows go one
/// per line so a diff of two artifacts points at the cell that moved.
pub fn envelope(
    cross_key: Option<&str>,
    rows: &[String],
    cross: &[String],
    violations: usize,
) -> String {
    let (total, rows) = (rows.len(), rows.join(",\n  "));
    match cross_key {
        None => format!(
            "{{\"campaigns\":[\n  {rows}\n],\"total\":{total},\"violations\":{violations}}}"
        ),
        Some(key) => format!(
            "{{\"runs\":[\n  {rows}\n],\"{key}\":{},\"total\":{total},\"violations\":{violations}}}",
            str_list(cross)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_escapes_exactly_what_json_requires() {
        assert_eq!(str(r#"a"b"#), r#""a\"b""#);
        assert_eq!(str(r"a\b"), r#""a\\b""#);
        assert_eq!(str("a\nb"), r#""a\nb""#);
        assert_eq!(str("a\u{1}b\tc"), r#""a\u0001b\u0009c""#);
        assert_eq!(str("ü→✓"), "\"ü→✓\"");
        assert_eq!(str(""), "\"\"");
    }

    #[test]
    fn envelopes_have_the_two_published_shapes() {
        let rows = ["{\"a\":1}".to_string(), "{\"a\":2}".to_string()];
        assert_eq!(
            envelope(None, &rows, &[], 0),
            "{\"campaigns\":[\n  {\"a\":1},\n  {\"a\":2}\n],\"total\":2,\"violations\":0}"
        );
        assert_eq!(
            envelope(Some("cross_checks"), &rows, &["x".into()], 1),
            "{\"runs\":[\n  {\"a\":1},\n  {\"a\":2}\n],\"cross_checks\":[\"x\"],\"total\":2,\"violations\":1}"
        );
    }

    #[test]
    fn objects_keep_field_order() {
        assert_eq!(Object::default().end(), "{}");
        let o = Object::default()
            .str("s", "a\"b")
            .field("n", 7)
            .field("ok", true)
            .field("l", arr(&[1]));
        assert_eq!(o.end(), r#"{"s":"a\"b","n":7,"ok":true,"l":[1]}"#);
    }

    #[test]
    fn lists_and_errors() {
        assert_eq!(arr(&[]), "[]");
        assert_eq!(arr(&[1, 20]), "[1,20]");
        assert_eq!(str_list(&["a", "b"]), r#"["a","b"]"#);
        assert_eq!(err(None), "null");
        assert_eq!(
            err(Some(TransportError::RetriesExhausted)),
            "\"RetriesExhausted\""
        );
    }
}
