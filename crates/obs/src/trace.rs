//! chrome://tracing export.
//!
//! Renders the span ring (as `"X"` complete events) and the event ring
//! (as `"i"` instant events) into the Trace Event Format JSON that
//! `chrome://tracing` and Perfetto load directly. Timestamps are
//! microseconds on the [`crate::clock`] timeline; thread lanes come from
//! the spans' dense thread ids.

use crate::events::{Event, EventRecord};
use crate::span::SpanRecord;

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, (ns % 1_000))
}

fn span_json(s: &SpanRecord) -> String {
    let mut args = vec![
        format!("\"span_id\":{}", s.id),
        format!("\"parent\":{}", s.parent),
    ];
    for (k, v) in &s.args {
        args.push(format!("\"{}\":\"{}\"", esc(k), esc(v)));
    }
    format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
        esc(&s.name),
        micros(s.start_ns),
        micros(s.dur_ns),
        s.tid,
        args.join(",")
    )
}

fn event_json(r: &EventRecord) -> String {
    let detail = match &r.event {
        Event::BudgetCalibration {
            mechanism,
            sigma,
            epsilon_share,
        } => format!(
            "\"mechanism\":\"{mechanism}\",\"sigma\":{sigma},\"epsilon_share\":{epsilon_share}"
        ),
        Event::BudgetSpend {
            mechanism,
            sigma,
            composed_epsilon,
            delta,
        } => format!(
            "\"mechanism\":\"{mechanism}\",\"sigma\":{sigma},\"composed_epsilon\":{composed_epsilon},\"delta\":{delta}"
        ),
        Event::LedgerReplay {
            records,
            dangling,
            spent_epsilon,
        } => format!(
            "\"records\":{records},\"dangling\":{dangling},\"spent_epsilon\":\"{spent_epsilon}\""
        ),
    };
    format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":0,\"s\":\"p\",\"args\":{{\"seq\":{},{detail}}}}}",
        r.event.tag(),
        micros(r.ts_ns),
        r.seq
    )
}

/// Render spans + events as a chrome://tracing JSON document.
pub fn render_chrome_trace(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(spans.len() + events.len() + 1);
    entries.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"kamino\"}}"
            .to_string(),
    );
    entries.extend(spans.iter().map(span_json));
    entries.extend(events.iter().map(event_json));
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        entries.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(id: u64, parent: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            tid: 1,
            start_ns: 1_500,
            dur_ns: 2_250,
            args: vec![("status", "200".into())],
        }
    }

    /// A tiny structural JSON validator: balanced containers outside
    /// strings, no trailing garbage. Enough to catch malformed output
    /// without a JSON dependency.
    fn assert_balanced_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        for c in s.trim().chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced containers in {s}");
    }

    #[test]
    fn trace_document_is_valid_and_complete() {
        let spans = vec![span(1, 0, "fit"), span(2, 1, "fit.training")];
        let events = vec![EventRecord {
            seq: 0,
            ts_ns: 3_000,
            event: Event::BudgetSpend {
                mechanism: "composed",
                sigma: 1.5,
                composed_epsilon: 0.98,
                delta: 1e-6,
            },
        }];
        let doc = render_chrome_trace(&spans, &events);
        assert_balanced_json(&doc);
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"fit.training\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.250"));
        assert!(doc.contains("\"name\":\"budget_spend\",\"ph\":\"i\""));
        assert!(doc.contains("\"composed_epsilon\":0.98"));
    }

    #[test]
    fn names_are_escaped() {
        let mut s = span(1, 0, "x");
        s.name = Cow::Owned("a\"b\\c\nd".to_string());
        let doc = render_chrome_trace(&[s], &[]);
        assert_balanced_json(&doc);
        assert!(doc.contains("a\\\"b\\\\c\\nd"));
    }
}
