//! The `compstat-audit/v2` document: structured audit results.
//!
//! Findings are sorted by `(file, line, col, rule)` so the text and
//! JSON renderings are deterministic — the audit holds itself to the
//! byte-stability invariant it enforces.

use crate::rules::{Finding, Rule};
use compstat_core::json::Json;

/// Schema identifier of audit documents.
pub const AUDIT_SCHEMA: &str = "compstat-audit/v2";

/// The result of one audit run.
#[derive(Default)]
pub struct AuditDoc {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Violations, sorted.
    pub findings: Vec<Finding>,
}

fn sort_key(f: &Finding) -> (String, u32, u32, &'static str) {
    (f.file.clone(), f.line, f.col, f.rule.as_str())
}

impl AuditDoc {
    /// Sorts findings into canonical order.
    pub fn sort(&mut self) {
        self.findings.sort_by_key(sort_key);
    }

    /// True when no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule counts of findings, in [`Rule::ALL`] order.
    #[must_use]
    pub fn by_rule(&self) -> Vec<(Rule, usize)> {
        Rule::ALL
            .iter()
            .map(|&r| (r, self.findings.iter().filter(|f| f.rule == r).count()))
            .collect()
    }

    /// Serializes to the `compstat-audit/v2` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let finding_json = |f: &Finding| {
            Json::obj(vec![
                ("rule", Json::str(f.rule.as_str())),
                ("file", Json::str(f.file.clone())),
                ("line", Json::Num(f64::from(f.line))),
                ("col", Json::Num(f64::from(f.col))),
                ("snippet", Json::str(f.snippet.clone())),
                ("message", Json::str(f.message.clone())),
            ])
        };
        let by_rule = Json::Obj(
            self.by_rule()
                .into_iter()
                .map(|(r, n)| (r.as_str().to_string(), Json::Num(n as f64)))
                .collect(),
        );
        Json::obj(vec![
            ("schema", Json::str(AUDIT_SCHEMA)),
            (
                "summary",
                Json::obj(vec![
                    ("files_scanned", Json::Num(self.files_scanned as f64)),
                    ("findings", Json::Num(self.findings.len() as f64)),
                    ("by_rule", by_rule),
                ]),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
        ])
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                f.file,
                f.line,
                f.col,
                f.rule.as_str(),
                f.message
            ));
            if !f.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", f.snippet));
            }
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "audit: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        if !self.findings.is_empty() {
            let counts: Vec<String> = self
                .by_rule()
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .map(|(r, n)| format!("{} {}", n, r.as_str()))
                .collect();
            out.push_str(&format!("  by rule: {}\n", counts.join(", ")));
        }
        out
    }
}

/// Structural validation of a parsed `compstat-audit/v2` document —
/// used by `compstat validate`. Returns every problem found.
#[must_use]
pub fn validate_json(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == AUDIT_SCHEMA => {}
        Some(s) => errors.push(format!("schema is {s:?}, expected {AUDIT_SCHEMA:?}")),
        None => errors.push("missing string field \"schema\"".to_string()),
    }
    let summary = doc.get("summary");
    match summary {
        None => errors.push("missing object field \"summary\"".to_string()),
        Some(s) => {
            for key in ["files_scanned", "findings"] {
                if s.get(key).and_then(Json::as_f64).is_none() {
                    errors.push(format!("summary: missing numeric field {key:?}"));
                }
            }
        }
    }
    match doc.get("findings").and_then(Json::as_arr) {
        None => errors.push("missing array field \"findings\"".to_string()),
        Some(arr) => {
            for (idx, f) in arr.iter().enumerate() {
                for key in ["rule", "file", "snippet", "message"] {
                    if f.get(key).and_then(Json::as_str).is_none() {
                        errors.push(format!("findings[{idx}]: missing string field {key:?}"));
                    }
                }
                if let Some(rule) = f.get("rule").and_then(Json::as_str) {
                    if Rule::parse(rule).is_none() {
                        errors.push(format!("findings[{idx}]: unknown rule {rule:?}"));
                    }
                }
                for key in ["line", "col"] {
                    if f.get(key).and_then(Json::as_f64).is_none() {
                        errors.push(format!("findings[{idx}]: missing numeric field {key:?}"));
                    }
                }
            }
        }
    }
    if let (Some(s), Some(arr)) = (summary, doc.get("findings").and_then(Json::as_arr)) {
        if let Some(n) = s.get("findings").and_then(Json::as_f64) {
            if n != arr.len() as f64 {
                errors.push(format!(
                    "summary.findings is {n} but the findings array has {} entries",
                    arr.len()
                ));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditDoc {
        let f = |file: &str, line: u32, rule: Rule| Finding {
            rule,
            file: file.to_string(),
            line,
            col: 5,
            snippet: "format!(\"{}\", ratio)".to_string(),
            message: "msg".to_string(),
        };
        let mut doc = AuditDoc {
            files_scanned: 2,
            findings: vec![
                f("b.rs", 9, Rule::KernelTagGuard),
                f("a.rs", 3, Rule::FloatFormat),
            ],
        };
        doc.sort();
        doc
    }

    #[test]
    fn json_round_trips_and_validates() {
        let doc = sample();
        let json = doc.to_json();
        let text = json.to_json_string();
        let parsed = Json::parse(&text).expect("well-formed");
        assert_eq!(validate_json(&parsed), Vec::<String>::new());
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(AUDIT_SCHEMA)
        );
    }

    #[test]
    fn findings_are_sorted_by_location() {
        let doc = sample();
        assert_eq!(doc.findings[0].file, "a.rs");
        assert_eq!(doc.findings[1].file, "b.rs");
    }

    #[test]
    fn validate_rejects_broken_docs() {
        let bad = Json::parse(
            r#"{"schema":"compstat-audit/v2",
                "summary":{"files_scanned":1,"findings":2},
                "findings":[{"rule":"no-such-rule","file":"a.rs","line":1,"col":1,
                             "snippet":"","message":"m"}]}"#,
        )
        .expect("parse");
        let errors = validate_json(&bad);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("unknown rule"), "{errors:?}");
        assert!(errors[1].contains("summary.findings"), "{errors:?}");
    }

    #[test]
    fn text_rendering_is_stable() {
        let doc = sample();
        let text = doc.render_text();
        assert!(text.contains("a.rs:3:5: [float-format] msg"), "{text}");
        assert!(text.contains("2 file(s) scanned, 2 finding(s)\n"), "{text}");
        assert!(
            text.contains("by rule: 1 float-format, 1 kernel-tag-guard"),
            "{text}"
        );
    }
}
