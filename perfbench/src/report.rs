//! Output: the result line, the report line before it, and the span file
//! of a traced run. JSON is written by hand (the workspace has no serde).

use std::fmt::Write as _;
use std::path::PathBuf;

use kamino_obs::ObsHandle;

use crate::trace::Tracer;
use crate::{Args, Run, END_TO_END, PER_LAYER};

/// Where run artifacts go, relative to the directory the benchmark runs
/// in (the repository root).
pub const OUT_DIR: &str = "perfbench/out";

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot hold) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The last line of standard output: `correct`, `attempted`, `failed`, and
/// every metric of the run's kind with its unit.
pub fn result_line(args: &Args, run: &Run) -> String {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = run.metrics.0.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(v),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct()
            && table
                .iter()
                .all(|(n, _)| run.metrics.0.get(n).is_some_and(|v| v.is_finite())),
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

/// The line before the result: the workload's own figures under their
/// glossary names, output digests, failure messages and (traced run) span
/// self times.
pub fn report_line(args: &Args, run: &Run) -> String {
    let detail: Vec<String> = run
        .detail
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(k),
                num(*v),
                quote(unit)
            )
        })
        .collect();
    let digests: Vec<String> = run
        .digests
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let errors: Vec<String> = run.errors.iter().map(|e| quote(e)).collect();
    let self_times: Vec<String> = run
        .self_times
        .iter()
        .map(|(k, (calls, total, own))| {
            format!(
                "{}: {{\"calls\": {calls}, \"total_s\": {}, \"self_s\": {}}}",
                quote(k),
                num(*total),
                num(*own)
            )
        })
        .collect();
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"detail\": {{{}}}, \"digests\": {{{}}}, \"errors\": [{}], \"self_times\": {{{}}}}}}}",
        quote(args.workload.name()),
        args.seed,
        num(args.seconds),
        args.trace,
        detail.join(", "),
        digests.join(", "),
        errors.join(", "),
        self_times.join(", ")
    )
}

/// Writes the traced run's spans — the benchmark's own and the program's
/// `kamino-obs` spans — to `perfbench/out/<workload>-seed<N>.trace.json`.
pub fn write_trace(args: &Args, tr: &Tracer, obs: &ObsHandle) -> std::io::Result<PathBuf> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"spans\": [",
        quote(args.workload.name()),
        args.seed
    );
    for (i, s) in tr.spans().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\": {}, \"parent\": {}, \"op\": {}, \"workload\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            if i == 0 { "" } else { ", " },
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            quote(args.workload.name()),
            quote(&s.name),
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("], \"self_times\": {");
    for (i, (name, (calls, total, own))) in tr.self_times().iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"calls\": {calls}, \"total_s\": {}, \"self_s\": {}}}",
            if i == 0 { "" } else { ", " },
            quote(name),
            num(*total),
            num(*own)
        );
    }
    out.push_str("}, \"program_spans\": [");
    for (i, s) in obs.spans().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            if i == 0 { "" } else { ", " },
            s.id,
            s.parent,
            quote(&s.name),
            s.start_ns,
            s.dur_ns
        );
    }
    out.push_str("]}\n");
    std::fs::create_dir_all(OUT_DIR)?;
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, out)?;
    Ok(path)
}
