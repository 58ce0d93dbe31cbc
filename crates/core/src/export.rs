//! Hand-rolled JSON rendering — the exporter that replaces a serde
//! dependency, since the workspace builds with no external crates (README
//! § Architecture). The [`JsonObj`] builder is the substrate for the
//! `holdcsim-harness` JSONL trial artifacts and the federation and WAN
//! reports.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders an `f64` as a JSON value: shortest round-trip decimal for
/// finite values, `null` for NaN/infinities (which JSON cannot carry).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An incremental JSON-object builder (insertion-ordered, no nesting
/// bookkeeping — callers pass pre-rendered JSON for nested values).
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    /// Adds a numeric field (`null` if not finite).
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":{}"#, json_escape(key), json_f64(v));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":{}"#, json_escape(key), v);
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":"{}""#, json_escape(key), json_escape(v));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, literal) verbatim.
    pub fn raw(mut self, key: &str, v: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, r#""{}":{}"#, json_escape(key), v);
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_obj_builds_ordered_objects() {
        let j = JsonObj::new()
            .str("name", "fig \"5\"")
            .int("trials", 24)
            .num("energy_j", 1.5)
            .num("bad", f64::NAN)
            .raw("nested", r#"{"a":1}"#)
            .finish();
        assert_eq!(
            j,
            r#"{"name":"fig \"5\"","trials":24,"energy_j":1.5,"bad":null,"nested":{"a":1}}"#
        );
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
