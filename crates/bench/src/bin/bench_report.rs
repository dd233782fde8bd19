//! Machine-readable throughput baseline: times one fit and the sharded
//! synthesis engine at several shard counts, reporting rows/sec.
//!
//! ```bash
//! cargo run --release -p kamino-bench --bin bench_report            # table
//! cargo run --release -p kamino-bench --bin bench_report -- --json  # + BENCH_synthesis.json
//! cargo run --release -p kamino-bench --bin bench_report -- --json --out path.json
//! ```
//!
//! Prints one row per phase (fit, then a synthesis round per shard
//! count). The `--json` mode also writes `BENCH_synthesis.json`
//! (deterministic keys, stable schema) so fit latency and synthesis
//! throughput can be diffed across revisions. `KAMINO_BENCH_FAST=1`
//! shrinks the run ~10× (150-row fit, 300-row draws) for CI smoke.
//!
//! `--dump-rows PATH` additionally writes the synthesized rows (CSV with
//! header) from a fresh snapshot restore. The fit, the snapshot, and the
//! restored RNG cursor are all seed-determined, so two runs with the same
//! configuration must produce byte-identical dumps — CI diffs them as a
//! determinism guard over the whole fit→snapshot→synthesize path.

use kamino_core::{fit_kamino, KaminoConfig};
use kamino_datasets::Corpus;
use kamino_dp::Budget;
use kamino_obs::{clock, ObsHandle};
use kamino_serve::Json;

/// One timed synthesis run.
struct SynthSample {
    shards: usize,
    rows: usize,
    seconds: f64,
}

impl SynthSample {
    fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.seconds.max(1e-9)
    }
}

fn main() {
    let mut json_mode = false;
    let mut out_path = String::from("BENCH_synthesis.json");
    let mut dump_rows: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_mode = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out takes a path");
                    std::process::exit(2);
                })
            }
            "--dump-rows" => {
                dump_rows = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--dump-rows takes a path");
                    std::process::exit(2);
                }))
            }
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out takes a path");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!(
                    "usage: bench_report [--json] [--out PATH] [--dump-rows PATH] [--trace-out PATH] (got `{other}`)"
                );
                std::process::exit(2);
            }
        }
    }

    let fast = std::env::var("KAMINO_BENCH_FAST").is_ok_and(|v| v == "1");
    let corpus = Corpus::Adult;
    let n: usize = if fast { 150 } else { 800 };
    let train_scale = if fast { 0.03 } else { 0.2 };
    let synth_rows = if fast { 300 } else { 2_000 };
    let shard_counts = [1usize, 2, 4];
    let seed = 11;

    let d = corpus.generate(n, 1);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = seed;
    cfg.train_scale = train_scale;
    // phase spans and the DP budget ledger only when a trace was asked
    // for; the measured numbers and the JSON artifact are unaffected
    let obs = if trace_out.is_some() {
        ObsHandle::enabled()
    } else {
        ObsHandle::disabled()
    };
    cfg.obs = obs.clone();

    let t0 = clock::now_nanos();
    let fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
    let fit_seconds = clock::secs_since(t0);

    // one fit feeds every shard measurement: each round restores the
    // session from the same snapshot bytes (identical model AND RNG
    // cursor, so the shard counts sample the same stream position) and
    // re-tunes only the execution knob
    let snapshot = kamino_serve::encode_fitted(&fitted);
    let mut samples = Vec::new();
    for &shards in &shard_counts {
        let mut session = kamino_serve::decode_fitted(&snapshot).expect("snapshot round-trip");
        // snapshots carry no handle: attach the run's so draws trace
        session.set_obs(obs.clone());
        session.set_shards(shards);
        // warm-up draw so allocation effects do not dominate small runs
        let _ = session.sample(synth_rows.min(100));
        let t0 = clock::now_nanos();
        let inst = session.sample(synth_rows);
        let seconds = clock::secs_since(t0);
        assert_eq!(inst.n_rows(), synth_rows);
        samples.push(SynthSample {
            shards,
            rows: synth_rows,
            seconds,
        });
    }

    println!("Synthesis throughput baseline (fit once, sample many)");
    println!(
        "{:<10}  {:>6}  {:>6}  {:>8}  {:>8}",
        "Phase", "Shards", "Rows", "Seconds", "Rows/sec"
    );
    println!(
        "{:<10}  {:>6}  {n:>6}  {fit_seconds:>8.3}  {:>8}",
        "fit", "-", "-"
    );
    for s in &samples {
        println!(
            "{:<10}  {:>6}  {:>6}  {:>8.3}  {:>8.0}",
            "synthesize",
            s.shards,
            s.rows,
            s.seconds,
            s.rows_per_sec()
        );
    }

    if let Some(path) = &dump_rows {
        // Fresh restore: identical model and RNG cursor every run, so the
        // dump is a byte-exact function of corpus/seed/row-count alone.
        let mut session = kamino_serve::decode_fitted(&snapshot).expect("snapshot round-trip");
        session.set_obs(obs.clone());
        session.set_shards(*shard_counts.last().expect("non-empty shard list"));
        let inst = session.sample(synth_rows);
        let header = kamino_data::csv::header_line(session.schema()).expect("csv header");
        let rows = kamino_data::csv::rows_text(session.schema(), &inst).expect("csv rows");
        std::fs::write(path, format!("{header}{rows}")).unwrap_or_else(|e| {
            eprintln!("bench_report: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if let Some(path) = &trace_out {
        std::fs::write(path, obs.chrome_trace_json()).unwrap_or_else(|e| {
            eprintln!("bench_report: cannot write trace {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if json_mode {
        let body = Json::obj([
            ("schema_version", Json::Num(1.0)),
            ("corpus", Json::Str(corpus.name().to_string())),
            ("fit_rows", Json::Num(n as f64)),
            ("train_scale", Json::Num(train_scale)),
            ("seed", Json::Num(seed as f64)),
            ("fit_seconds", Json::Num(fit_seconds)),
            (
                "synthesize",
                Json::Arr(
                    samples
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("shards", Json::Num(s.shards as f64)),
                                ("rows", Json::Num(s.rows as f64)),
                                ("seconds", Json::Num(s.seconds)),
                                ("rows_per_sec", Json::Num(s.rows_per_sec())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&out_path, format!("{body}\n")).unwrap_or_else(|e| {
            eprintln!("bench_report: cannot write {out_path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {out_path}");
    }
}
