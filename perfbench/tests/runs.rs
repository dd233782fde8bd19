//! Whole-run tests of the benchmark binary: a corrupted output makes the
//! run fail, and a seed fixes every count, digest and quality figure.

use std::process::Command;

use kamino_perfbench::DETERMINISTIC_LAYER_KEYS;

/// Runs the benchmark from the repository root; returns (exit code,
/// report line, result line).
fn bench(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_kamino-perfbench"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "no result: {stdout}");
    (
        out.status.code().unwrap_or(-1),
        lines[lines.len() - 2].to_string(),
        lines[lines.len() - 1].to_string(),
    )
}

/// The value of metric `name` on a result line.
fn metric(result: &str, name: &str) -> String {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {result}"))
        + key.len();
    result[at..].split(',').next().unwrap().to_string()
}

/// The `"digests": {...}` object of a report line.
fn digests(report: &str) -> String {
    let at = report.find("\"digests\": {").expect("digests present");
    report[at..at + report[at..].find('}').unwrap()].to_string()
}

/// A report-line detail figure.
fn detail(report: &str, name: &str) -> String {
    let key = format!("\"{name}\": ");
    let at = report
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {report}"))
        + key.len();
    report[at..].split([',', '}']).next().unwrap().to_string()
}

#[test]
fn a_violating_pair_fails_the_run() {
    let (code, report, result) = bench(&[
        "--workload",
        "draw_tax",
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--corrupt",
        "violating-pair",
    ]);
    assert_eq!(code, 1, "{report}");
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    assert!(report.contains("hard DC"), "{report}");
}

#[test]
fn a_short_stream_fails_the_run() {
    let (code, report, result) = bench(&[
        "--workload",
        "serve_tpch",
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--corrupt",
        "short-stream",
    ]);
    assert_eq!(code, 1, "{report}");
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    assert!(report.contains("response 1"), "{report}");
}

#[test]
fn a_seed_fixes_counts_digests_and_quality() {
    let run = |seed: &str| {
        bench(&[
            "--workload",
            "draw_tax",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
    };
    let (code_a, report_a, result_a) = run("3");
    let (code_b, report_b, result_b) = run("3");
    let (code_c, report_c, _) = run("4");
    assert_eq!(
        (code_a, code_b, code_c),
        (0, 0, 0),
        "{report_a}\n{report_b}\n{report_c}"
    );
    for key in DETERMINISTIC_LAYER_KEYS {
        assert_eq!(metric(&result_a, key), metric(&result_b, key), "{key}");
    }
    assert_eq!(digests(&report_a), digests(&report_b));
    assert_ne!(digests(&report_a), digests(&report_c));
}

#[test]
fn served_bytes_are_seed_determined() {
    let run = |seed: &str| {
        bench(&[
            "--workload",
            "serve_tpch",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
    };
    let (code_a, report_a, result_a) = run("5");
    let (code_b, report_b, result_b) = run("5");
    let (_, report_c, _) = run("6");
    assert_eq!((code_a, code_b), (0, 0), "{report_a}\n{report_b}");
    assert_eq!(digests(&report_a), digests(&report_b));
    assert_ne!(digests(&report_a), digests(&report_c));
    for key in ["hard_dc_violation_pct", "marginal_tvd_1way"] {
        assert_eq!(detail(&report_a, key), detail(&report_b, key), "{key}");
    }
    for key in ["hard_dc_satisfied_pct", "marginal_fidelity_1way"] {
        assert_eq!(metric(&result_a, key), metric(&result_b, key), "{key}");
    }
}
