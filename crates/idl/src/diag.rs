//! Compiler diagnostics with source locations.
//!
//! A [`Diagnostic`] carries a file, a position, a message, a
//! [`Severity`], and (for analyzer findings) a lint code such as
//! `PA001`. Plain compiler errors keep the historical
//! `file:line:col: error: message` rendering; lint findings render as
//! `file:line:col: warning[PA001]: message`. The whole collection can
//! be serialized to a machine-readable JSON document for
//! `pardis-idlc --analyze`.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// Construct a position.
    pub fn new(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not fatal; exit status stays 0 unless warnings
    /// are denied.
    Warning,
    /// The input is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One error or warning produced by the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the diagnostic refers to.
    pub file: String,
    /// Where in the file.
    pub pos: Pos,
    /// Human-readable message.
    pub message: String,
    /// Error by default; lints may downgrade to warnings.
    pub severity: Severity,
    /// Lint code (`PA001`…) for analyzer findings, `None` for plain
    /// compiler errors.
    pub code: Option<String>,
}

impl Diagnostic {
    /// Construct an error diagnostic (no lint code).
    pub fn new(file: &str, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            pos,
            message: message.into(),
            severity: Severity::Error,
            code: None,
        }
    }

    /// Construct a warning diagnostic (no lint code).
    pub fn warning(file: &str, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(file, pos, message)
        }
    }

    /// Construct an analyzer finding with a lint code.
    pub fn lint(
        code: &str,
        severity: Severity,
        file: &str,
        pos: Pos,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code: Some(code.to_string()),
            ..Diagnostic::new(file, pos, message)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.code {
            Some(c) => write!(
                f,
                "{}:{}: {}[{c}]: {}",
                self.file, self.pos, self.severity, self.message
            ),
            None => write!(
                f,
                "{}:{}: {}: {}",
                self.file, self.pos, self.severity, self.message
            ),
        }
    }
}

/// An ordered collection of diagnostics (never empty when returned as an
/// `Err`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// The individual diagnostics, in source order.
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Record a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Whether any error-severity diagnostics were recorded.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether any warning-severity diagnostics were recorded.
    pub fn has_warnings(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Warning)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Wrap a single diagnostic.
    pub fn single(d: Diagnostic) -> Diagnostics {
        Diagnostics { items: vec![d] }
    }

    /// Sort into deterministic reporting order: file, then position,
    /// then lint code. Lints from independent passes interleave by
    /// source location instead of by pass.
    pub fn sort(&mut self) {
        self.items
            .sort_by(|a, b| (&a.file, a.pos, &a.code).cmp(&(&b.file, b.pos, &b.code)));
    }

    /// Keep only diagnostics at `min` severity or above.
    pub fn filter_severity(&self, min: Severity) -> Diagnostics {
        Diagnostics {
            items: self
                .items
                .iter()
                .filter(|d| d.severity >= min)
                .cloned()
                .collect(),
        }
    }

    /// Render as a machine-readable JSON document (the
    /// `pardis-idlc --analyze` output schema):
    ///
    /// ```json
    /// {"schema_version":2,"lint_catalog_version":3,"version":1,
    ///  "findings":[{"code":"PA001","severity":"warning","file":"x.idl",
    ///  "line":3,"col":7,"message":"..."}]}
    /// ```
    ///
    /// `schema_version` is the document's real version (bumped to 2
    /// when the PA2xx lints landed); `lint_catalog_version` names the
    /// lint registry the findings can draw from
    /// ([`crate::lint::CATALOG_VERSION`]); the legacy `version:1` key
    /// stays so v1 consumers that match on it keep parsing.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"schema_version\":2,\"lint_catalog_version\":{},\"version\":1,\"findings\":[",
            crate::lint::CATALOG_VERSION
        );
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"code\":");
            match &d.code {
                Some(c) => {
                    s.push('"');
                    s.push_str(&json_escape(c));
                    s.push('"');
                }
                None => s.push_str("null"),
            }
            s.push_str(&format!(
                ",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
                d.severity,
                json_escape(&d.file),
                d.pos.line,
                d.pos.col,
                json_escape(&d.message)
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Escape a string for embedding in a JSON document: the one escaper
/// the workspace's JSON findings writers share.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_location() {
        let d = Diagnostic::new("f.idl", Pos::new(3, 7), "unexpected token");
        assert_eq!(d.to_string(), "f.idl:3:7: error: unexpected token");
    }

    #[test]
    fn lint_display_carries_code_and_severity() {
        let d = Diagnostic::lint(
            "PA001",
            Severity::Warning,
            "f.idl",
            Pos::new(2, 5),
            "ineffective template",
        );
        assert_eq!(
            d.to_string(),
            "f.idl:2:5: warning[PA001]: ineffective template"
        );
    }

    #[test]
    fn collection_accumulates() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.push(Diagnostic::new("f", Pos::new(1, 1), "a"));
        ds.push(Diagnostic::new("f", Pos::new(2, 1), "b"));
        assert_eq!(ds.len(), 2);
        let text = ds.to_string();
        assert!(text.contains("a") && text.contains("b"));
    }

    #[test]
    fn warnings_do_not_count_as_errors() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("f", Pos::new(1, 1), "w"));
        assert!(!ds.has_errors());
        assert!(ds.has_warnings());
        assert_eq!(ds.warning_count(), 1);
        assert_eq!(ds.error_count(), 0);
    }

    #[test]
    fn sort_orders_by_file_then_position() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new("b.idl", Pos::new(1, 1), "third"));
        ds.push(Diagnostic::new("a.idl", Pos::new(9, 1), "second"));
        ds.push(Diagnostic::new("a.idl", Pos::new(2, 4), "first"));
        ds.sort();
        let msgs: Vec<&str> = ds.items.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(msgs, vec!["first", "second", "third"]);
    }

    #[test]
    fn severity_filter() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("f", Pos::new(1, 1), "w"));
        ds.push(Diagnostic::new("f", Pos::new(2, 1), "e"));
        let errs = ds.filter_severity(Severity::Error);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs.items[0].message, "e");
        assert_eq!(ds.filter_severity(Severity::Warning).len(), 2);
    }

    #[test]
    fn json_schema_round_trips_fields() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::lint(
            "PA002",
            Severity::Error,
            "x.idl",
            Pos::new(4, 11),
            "arity \"mismatch\"",
        ));
        let j = ds.to_json();
        assert!(
            j.starts_with("{\"schema_version\":2,\"lint_catalog_version\":3,\"version\":1,"),
            "{j}"
        );
        assert!(j.contains("\"code\":\"PA002\""), "{j}");
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("\"line\":4"), "{j}");
        assert!(j.contains("\"col\":11"), "{j}");
        assert!(j.contains("arity \\\"mismatch\\\""), "{j}");
        // Plain errors serialize with a null code.
        let ds2 = Diagnostics::single(Diagnostic::new("y.idl", Pos::new(1, 1), "parse"));
        assert!(ds2.to_json().contains("\"code\":null"));
    }
}
