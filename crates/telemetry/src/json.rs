//! The one JSON writer every artifact under `results/` is rendered with.
//!
//! A document is a [`Json`] tree; each object and array carries one of the
//! three [`Layout`]s the committed files use, so a renderer states *what*
//! it emits and the byte-level shape (indentation, separators, commas)
//! lives here once. Numbers enter pre-formatted ([`lit`], [`fixed`]) so
//! every field keeps the precision its artifact was committed with;
//! strings are escaped by the single [`esc`].

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

/// How an object or array is laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces past the opening bracket's
    /// line; the closing bracket sits on its own line (also when empty).
    Block,
    /// One line, `", "` between members and `": "` after keys.
    Row,
    /// One line, no whitespace at all.
    Compact,
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// A number, `true`/`false` or `null`, already formatted.
    Lit(String),
    /// A string, escaped on rendering.
    Str(String),
    /// An object; members keep insertion order.
    Obj(Layout, Vec<(String, Json)>),
    /// An array.
    Arr(Layout, Vec<Json>),
}

/// A pre-formatted literal: an integer, `null`, or a float through
/// `format_args!` when the field's format is not [`fixed`] (e.g. `{:e}`).
pub fn lit(v: impl Display) -> Json {
    Json::Lit(v.to_string())
}

/// A float with exactly `digits` fractional digits.
pub fn fixed(v: f64, digits: usize) -> Json {
    Json::Lit(format!("{v:.digits$}"))
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(layout: Layout, members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(
        layout,
        members.into_iter().map(|(k, v)| (k.into(), v)).collect(),
    )
}

/// An array.
pub fn arr(layout: Layout, items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(layout, items.into_iter().collect())
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

macro_rules! lit_from {
    ($($t:ty),+) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                lit(v)
            }
        }
    )+};
}
lit_from!(bool, u32, u64, usize);

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(|| lit("null"), Into::into)
    }
}

/// Escape `s` into the body of a JSON string literal. Borrows when nothing
/// needs escaping (every name the exporters generate themselves).
pub fn esc(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

impl Json {
    /// Render the document (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Append this value; `indent` is the indentation of the line the value
    /// starts on.
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Lit(v) => out.push_str(v),
            Json::Str(s) => quoted(out, s),
            Json::Obj(layout, members) => {
                let colon = if *layout == Layout::Compact {
                    ":"
                } else {
                    ": "
                };
                brackets(
                    out,
                    *layout,
                    indent,
                    ['{', '}'],
                    members,
                    |out, (k, v), at| {
                        quoted(out, k);
                        out.push_str(colon);
                        v.write(out, at);
                    },
                );
            }
            Json::Arr(layout, items) => {
                brackets(out, *layout, indent, ['[', ']'], items, |out, v, at| {
                    v.write(out, at)
                });
            }
        }
    }
}

fn quoted(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&esc(s));
    out.push('"');
}

/// The shared bracket/separator logic of objects and arrays.
fn brackets<T>(
    out: &mut String,
    layout: Layout,
    indent: usize,
    [open, close]: [char; 2],
    items: &[T],
    mut each: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    let inner = indent + 2;
    for (i, item) in items.iter().enumerate() {
        match layout {
            Layout::Block => {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', inner));
            }
            Layout::Row if i > 0 => out.push(' '),
            _ => {}
        }
        each(out, item, inner);
        if i + 1 < items.len() {
            out.push(',');
        }
    }
    if layout == Layout::Block {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(close);
}

/// Minimal JSON validity scanner for tests: `true` iff `s` is exactly one
/// well-formed JSON value (RFC 8259 grammar, surrounding whitespace
/// allowed).
#[cfg(test)]
pub(crate) fn is_valid(s: &str) -> bool {
    struct P<'a>(&'a [u8], usize);
    impl P<'_> {
        fn peek(&self) -> Option<u8> {
            self.0.get(self.1).copied()
        }
        fn eat(&mut self, b: u8) -> bool {
            let hit = self.peek() == Some(b);
            self.1 += hit as usize;
            hit
        }
        fn ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
                self.1 += 1;
            }
        }
        fn digits(&mut self) -> bool {
            let from = self.1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.1 += 1;
            }
            self.1 > from
        }
        fn string(&mut self) -> bool {
            if !self.eat(b'"') {
                return false;
            }
            loop {
                let Some(b) = self.peek() else { return false };
                self.1 += 1;
                match b {
                    b'"' => return true,
                    b'\\' => {
                        let Some(e) = self.peek() else { return false };
                        self.1 += 1;
                        if e == b'u' {
                            let hex = self.0.get(self.1..self.1 + 4);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return false;
                            }
                            self.1 += 4;
                        } else if !b"\"\\/bfnrt".contains(&e) {
                            return false;
                        }
                    }
                    0..=0x1f => return false,
                    _ => {}
                }
            }
        }
        fn number(&mut self) -> bool {
            self.eat(b'-');
            // No leading zeros: "0" or a nonzero digit followed by digits.
            if !self.eat(b'0') && !self.digits() {
                return false;
            }
            if self.eat(b'.') && !self.digits() {
                return false;
            }
            if self.eat(b'e') || self.eat(b'E') {
                let _ = self.eat(b'+') || self.eat(b'-');
                return self.digits();
            }
            true
        }
        fn list(&mut self, close: u8, mut member: impl FnMut(&mut Self) -> bool) -> bool {
            self.1 += 1;
            self.ws();
            if self.eat(close) {
                return true;
            }
            loop {
                self.ws();
                if !member(self) {
                    return false;
                }
                self.ws();
                if self.eat(close) {
                    return true;
                }
                if !self.eat(b',') {
                    return false;
                }
            }
        }
        fn value(&mut self) -> bool {
            match self.peek() {
                Some(b'{') => self.list(b'}', |p| {
                    p.string()
                        && {
                            p.ws();
                            p.eat(b':')
                        }
                        && {
                            p.ws();
                            p.value()
                        }
                }),
                Some(b'[') => self.list(b']', Self::value),
                Some(b'"') => self.string(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => ["true", "false", "null"].iter().any(|w| {
                    let hit = self.0[self.1..].starts_with(w.as_bytes());
                    self.1 += if hit { w.len() } else { 0 };
                    hit
                }),
            }
        }
    }
    let mut p = P(s.as_bytes(), 0);
    p.ws();
    let ok = p.value();
    p.ws();
    ok && p.1 == s.len()
}

#[cfg(test)]
mod tests {
    use super::Layout::{Block, Compact, Row};
    use super::*;

    #[test]
    fn scanner_accepts_json_and_rejects_near_misses() {
        for good in [
            "0",
            "-1.5e-3",
            "5.173324727625428e-2",
            "\"a\\\"b\\\\c\\u000b\"",
            "[]",
            "{}",
            "[\n  ]",
            "{\"a\": [1, {\"b\": null}], \"c\": true}",
            " {\"é\": \"ü→\"} ",
        ] {
            assert!(is_valid(good), "rejected {good}");
        }
        for bad in [
            "",
            "{",
            "{\"a\": 1,}",
            "[1 2]",
            "[1,]",
            "{\"a\" 1}",
            "{a: 1}",
            "\"unterminated",
            "\"raw\nnewline\"",
            "\"bad \\x escape\"",
            "\"\\u12g4\"",
            "01",
            "1.",
            "1e",
            "nul",
            "{} {}",
        ] {
            assert!(!is_valid(bad), "accepted {bad}");
        }
    }

    #[test]
    fn escapes_quotes_backslashes_controls_and_keeps_non_ascii() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("l1\nl2\tx\r"), "l1\\nl2\\tx\\r");
        assert_eq!(esc("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(esc("wire 0->1 µs é"), "wire 0->1 µs é");
        assert!(matches!(esc("plain"), Cow::Borrowed(_)));
        // Keys are escaped like values.
        let doc = obj(Compact, [("k\"\n", Json::from("v\\\u{7}é"))]).render();
        assert_eq!(doc, "{\"k\\\"\\n\":\"v\\\\\\u0007é\"}");
        assert!(is_valid(&doc));
    }

    /// The same nested value in one layout throughout.
    fn nest(l: Layout) -> Json {
        obj(
            l,
            [
                ("n", lit(3)),
                ("f", fixed(0.5, 3)),
                ("none", Json::from(None::<u64>)),
                ("some", Json::from(Some(7u64))),
                ("s", "x,y".into()),
                ("empty_obj", obj(l, Vec::<(String, Json)>::new())),
                ("empty_arr", arr(l, [])),
                ("arr", arr(l, [true.into(), obj(l, [("k", 1u32.into())])])),
            ],
        )
    }

    #[test]
    fn compact_and_row_layouts() {
        assert_eq!(
            nest(Compact).render(),
            "{\"n\":3,\"f\":0.500,\"none\":null,\"some\":7,\"s\":\"x,y\",\
             \"empty_obj\":{},\"empty_arr\":[],\"arr\":[true,{\"k\":1}]}"
        );
        assert_eq!(
            nest(Row).render(),
            "{\"n\": 3, \"f\": 0.500, \"none\": null, \"some\": 7, \"s\": \"x,y\", \
             \"empty_obj\": {}, \"empty_arr\": [], \"arr\": [true, {\"k\": 1}]}"
        );
    }

    #[test]
    fn block_layout_indents_nested_blocks_and_hosts_rows() {
        let doc = obj(
            Block,
            [
                ("seed", lit(42)),
                (
                    "cells",
                    arr(
                        Block,
                        [
                            obj(Row, [("a", lit(1))]),
                            obj(Block, [("deep", arr(Row, [lit(1), lit(2)]))]),
                        ],
                    ),
                ),
                ("failures", arr(Block, [])),
                ("ok", true.into()),
            ],
        );
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"seed\": 42,\n  \"cells\": [\n    {\"a\": 1},\n    {\n      \
             \"deep\": [1, 2]\n    }\n  ],\n  \"failures\": [\n  ],\n  \"ok\": true\n}"
        );
        assert!(is_valid(&text));
    }

    #[test]
    fn every_layout_renders_valid_json() {
        for l in [Block, Row, Compact] {
            let text = nest(l).render();
            assert!(is_valid(&text), "{l:?}: {text}");
        }
    }
}
