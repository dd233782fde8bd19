//! Rendering: human-readable text and byte-deterministic JSON.
//!
//! The JSON writer keeps the benchmark artifacts' discipline — keys in
//! sorted (BTreeMap) order, no timestamps, no float formatting
//! surprises — so two runs over the same tree are byte-identical.

use crate::engine::{Finding, Report};

/// Human output: one block per finding plus a summary line.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n    hint: {}\n",
            f.file, f.line, f.col, f.rule, f.message, f.hint
        ));
    }
    let counts = report.rule_counts();
    if !counts.is_empty() {
        out.push('\n');
        for (rule, n) in &counts {
            out.push_str(&format!("  {rule}: {n}\n"));
        }
    }
    out.push_str(&format!(
        "{} finding(s), {} suppressed, {} file(s) scanned\n",
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned
    ));
    out
}

/// Deterministic JSON document for `--json`.
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"findings\": [");
    write_findings(&mut out, &report.findings, false);
    out.push_str("],\n");
    out.push_str("  \"rules\": {");
    let counts = report.rule_counts();
    let mut first = true;
    for (rule, n) in &counts {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{rule}\": {n}"));
    }
    out.push_str("},\n");
    out.push_str("  \"summary\": {");
    out.push_str(&format!(
        "\"files_scanned\": {}, \"findings\": {}, \"suppressed\": {}",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len()
    ));
    out.push_str("},\n");
    out.push_str("  \"suppressed\": [");
    write_findings(&mut out, &report.suppressed, true);
    out.push_str("],\n");
    out.push_str("  \"version\": 1\n");
    out.push_str("}\n");
    out
}

fn write_findings(out: &mut String, findings: &[Finding], with_reason: bool) {
    if findings.is_empty() {
        return;
    }
    out.push('\n');
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"col\": {}, \"file\": {}, \"hint\": {}, \"line\": {}, \"message\": {}",
            f.col,
            json_str(&f.file),
            json_str(&f.hint),
            f.line,
            json_str(&f.message)
        ));
        if with_reason {
            out.push_str(&format!(
                ", \"reason\": {}",
                json_str(f.suppressed.as_deref().unwrap_or(""))
            ));
        }
        out.push_str(&format!(", \"rule\": {}", json_str(&f.rule)));
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ");
}

/// Minimal JSON string escape (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Finding;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "hash_order".into(),
                file: "crates/eval/src/x.rs".into(),
                line: 3,
                col: 7,
                message: "a \"quoted\" message".into(),
                hint: "fix it".into(),
                suppressed: None,
            }],
            suppressed: vec![],
            files_scanned: 1,
        }
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let r = sample();
        let a = render_json(&r);
        let b = render_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"version\": 1"));
    }

    #[test]
    fn human_mentions_rule_and_hint() {
        let text = render_human(&sample());
        assert!(text.contains("[hash_order]"));
        assert!(text.contains("hint: fix it"));
        assert!(text.contains("1 finding(s)"));
    }
}
