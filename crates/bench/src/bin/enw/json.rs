//! The one JSON writer behind every `BENCH_*.json`: a value tree whose
//! objects keep insertion order, rendered with two-space indentation
//! (containers holding only scalars stay on one line). No serde in the
//! workspace.

use std::fmt::{Display, Write as _};

/// A JSON value under construction.
pub enum Json {
    Bool(bool),
    /// An already-formatted number; build it with [`num`].
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// A number exactly as `v` displays, so the experiment picks the
/// precision (`num(format_args!("{x:.6}"))`) and integers print in
/// full. JSON has no NaN or infinity: those become `null`.
pub fn num(v: impl Display) -> Json {
    let text = v.to_string();
    let finite = text.parse::<f64>().is_ok_and(f64::is_finite);
    Json::Num(if finite { text } else { "null".to_string() })
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl Json {
    pub fn arr(items: impl Iterator<Item = Json>) -> Json {
        Json::Arr(items.collect())
    }

    /// The document text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (close, items): (char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => (']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => ('}', fields.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        let inline = items.iter().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let indent = |depth: usize| format!("\n{}", "  ".repeat(depth));
        out.push(if close == ']' { '[' } else { '{' });
        for (i, (key, value)) in items.iter().enumerate() {
            match (inline, i) {
                (true, 0) => {}
                (true, _) => out.push_str(", "),
                (false, 0) => out.push_str(&indent(depth + 1)),
                (false, _) => out.push_str(&format!(",{}", indent(depth + 1))),
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !inline {
            out.push_str(&indent(depth));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents_in_insertion_order() {
        let row = Json::Obj(vec![("n", num(3u64)), ("t", num(format_args!("{:.2}", 0.5)))]);
        let doc = Json::Obj(vec![
            ("bench", "demo \"x\"\n".into()),
            ("ok", true.into()),
            ("nan", num(f64::NAN)),
            ("rows", Json::Arr(vec![row])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"demo \\\"x\\\"\\u000a\",\n  \"ok\": true,\n  \"nan\": null,\n  \"rows\": [\n    {\"n\": 3, \"t\": 0.50}\n  ],\n  \"empty\": []\n}\n"
        );
    }
}
