//! The output checks catch corrupted outputs, and BENCHMARK.json lists
//! exactly the metrics the benchmark prints.

use kamino_datasets::Corpus;
use kamino_perfbench::checks::{dechunk_ok, parse_csv, plant_violating_pair, Truth};
use kamino_perfbench::{END_TO_END, PER_LAYER};

#[test]
fn a_violating_row_pair_fails_the_check() {
    for corpus in [Corpus::TpcH, Corpus::Tax] {
        let truth = Truth::new(corpus.generate(300, 5));
        let mut inst = truth.data.instance.clone();
        let q = truth
            .check(&inst, 300)
            .expect("the generated truth is clean");
        assert_eq!(q.hard_dc_violation_pct, 0.0);
        assert!(plant_violating_pair(&truth, &mut inst));
        let err = truth.check(&inst, 300).expect_err("planted pair must fail");
        assert!(err.contains("hard DC"), "{err}");
    }
}

#[test]
fn a_wrong_row_count_fails_the_check() {
    let truth = Truth::new(Corpus::TpcH.generate(50, 1));
    assert!(truth.check(&truth.data.instance, 49).is_err());
}

fn chunked(body: &str) -> Vec<u8> {
    let mut raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
    for part in [&body[..body.len() / 2], &body[body.len() / 2..]] {
        raw.extend_from_slice(format!("{:x}\r\n{part}\r\n", part.len()).as_bytes());
    }
    raw.extend_from_slice(b"0\r\n\r\n");
    raw
}

#[test]
fn a_short_stream_fails_the_check() {
    let truth = Truth::new(Corpus::TpcH.generate(20, 2));
    let schema = &truth.data.schema;
    let body = kamino_data::csv::header_line(schema).unwrap()
        + &kamino_data::csv::rows_text(schema, &truth.data.instance).unwrap();
    let raw = chunked(&body);
    let parsed = dechunk_ok(&raw).expect("complete stream");
    assert_eq!(parse_csv(schema, &parsed, 20).unwrap().n_rows(), 20);
    // cut anywhere before the terminal chunk: the stream must be refused
    for cut in [raw.len() - 1, raw.len() - 5, raw.len() - 9, raw.len() / 2] {
        assert!(dechunk_ok(&raw[..cut]).is_err(), "cut at {cut} accepted");
    }
    // a complete stream with a row missing fails the row count
    let short = body[..body.trim_end().rfind('\n').unwrap() + 1].to_string();
    let parsed = dechunk_ok(&chunked(&short)).unwrap();
    assert!(parse_csv(schema, &parsed, 20).is_err());
    // non-200 replies fail
    assert!(dechunk_ok(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n").is_err());
}

/// The `name`s of one BENCHMARK.json metric list, in order.
fn names_in(spec: &str, list: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{list}\"")).expect("list present");
    let body = &spec[start..spec[start..].find(']').map(|e| start + e).unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&spec, "end_to_end"), e2e);
    assert_eq!(names_in(&spec, "per_layer"), layers);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            spec.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} must carry unit {unit}"
        );
    }
}
