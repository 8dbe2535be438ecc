//! The workspace's one JSON writer.
//!
//! Telemetry JSONL lines and the `--metrics-out` snapshot are both written
//! through [`JsonWriter`]: a streaming writer that tracks commas and
//! (optionally) indentation, so callers only say which keys and values to
//! emit, in which order.
//!
//! Conventions: compact lines for JSONL, two-space indentation for pretty
//! documents, `{}`/`[]` for empty containers, `f64` printed via `{:?}` (so
//! whole numbers keep a `.0`) and non-finite floats as `null`.

use std::fmt::Write as _;

/// A streaming JSON writer. Containers are opened and closed explicitly;
/// inside an object every value is preceded by [`JsonWriter::key`].
///
/// # Examples
///
/// ```
/// use ytcdn_telemetry::JsonWriter;
///
/// let mut w = JsonWriter::compact();
/// w.begin_object();
/// w.key("name").string("EU2");
/// w.key("flows").u64(3);
/// w.key("share").f64(0.5);
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"EU2","flows":3,"share":0.5}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// One entry per open container: whether it is still empty.
    open: Vec<bool>,
    /// A key was just written; the next value follows it directly.
    after_key: bool,
}

impl JsonWriter {
    /// A writer producing one line with no insignificant whitespace.
    pub fn compact() -> Self {
        Self {
            out: String::new(),
            pretty: false,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// A writer producing a document indented by two spaces per level.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::compact()
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open_container('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close_container('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open_container('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close_container(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.push_string(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes a string value, escaped.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.separate();
        self.push_string(value);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a float value: `{:?}` when finite, `null` otherwise.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.separate();
        if value.is_finite() {
            let _ = write!(self.out, "{value:?}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// The document written so far. Every container should be closed.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed JSON container");
        self.out
    }

    fn open_container(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.open.push(true);
        self
    }

    fn close_container(&mut self, bracket: char) -> &mut Self {
        let empty = self.open.pop().unwrap_or(true);
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
        self
    }

    /// Emits what goes before a key or value: nothing right after a key,
    /// else a comma after a sibling plus the newline and indent of a
    /// pretty document.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(empty) = self.open.last_mut() {
            if !std::mem::replace(empty, false) {
                self.out.push(',');
            }
            self.newline();
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.open.len() {
                self.out.push_str("  ");
            }
        }
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                '\u{08}' => self.out.push_str("\\b"),
                '\u{0c}' => self.out.push_str("\\f"),
                c if c < ' ' => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_nesting_and_commas() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("a").begin_array();
        w.u64(1).u64(2);
        w.end_array();
        w.key("b").begin_object().end_object();
        w.key("c").begin_array().end_array();
        w.key("d").string("x");
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":[1,2],"b":{},"c":[],"d":"x"}"#);
    }

    #[test]
    fn pretty_indents_two_spaces() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("counters").begin_object();
        w.key("x").u64(5);
        w.end_object();
        w.key("gauges").begin_object().end_object();
        w.key("bounds").begin_array();
        w.f64(1.0).f64(2.5);
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"counters\": {\n    \"x\": 5\n  },\n  \"gauges\": {},\n  \
             \"bounds\": [\n    1.0,\n    2.5\n  ]\n}"
        );
    }

    #[test]
    fn floats_use_debug_form_and_null_for_non_finite() {
        let mut w = JsonWriter::compact();
        w.begin_array();
        w.f64(310.0)
            .f64(0.11)
            .f64(1e-7)
            .f64(f64::NAN)
            .f64(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[310.0,0.11,1e-7,null,null]");
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::compact();
        w.string("a\"b\\c\nd\te\u{1}é");
        assert_eq!(w.finish(), r#""a\"b\\c\nd\te\u0001é""#);
    }
}
