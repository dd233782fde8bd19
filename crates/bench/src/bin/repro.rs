//! `kamino-repro` — the paper-reproduction harness (see `bench::repro`),
//! and the one runner for every §7 table and figure.
//!
//! ```bash
//! # full run (offline default): 4 corpora × 4 ε × 6 synthesizers, plus
//! # the study cells (Table 3 / Fig 5, Exp 6, Figs 1, 8, 9, Exp 10)
//! cargo run --release -p kamino-bench --bin kamino-repro
//!
//! # CI-sized: Adult + Tax × {0.4, 1.0} × {Kamino, PrivBayes, Independent}
//! cargo run --release -p kamino-bench --bin kamino-repro -- --fast --seed 17
//! ```
//!
//! Emits `BENCH_repro.json` (machine-readable, diffable — byte-identical
//! across re-runs of the same config) and `REPRODUCTION.md` (paper-style
//! tables with deltas vs. paper-reported numbers, and the Studies table).
//! Fitted Kamino-family models are cached as `.kamino` snapshots under
//! `--cache-dir`; a re-run skips every DP-SGD fit whose
//! `(dataset, ε, seed, config)` key is already cached and reports the hit
//! count on stdout. `--timings` adds wall-clock, split into the Figure 7
//! fit/sample phases for Kamino-family cells.

use std::path::PathBuf;

use kamino_bench::repro::{render_markdown, run_matrix, to_json, ReproConfig};

fn usage() -> ! {
    eprintln!(
        "usage: kamino-repro [--fast] [--seed N] [--rows N] [--threads N]\n\
         \x20                  [--cache-dir PATH] [--out-json PATH] [--out-md PATH]\n\
         \x20                  [--timings] [--trace-out PATH]\n\
         \n\
         --fast        CI-sized matrix (Adult+Tax, 2-point ε grid, 3 synthesizers,\n\
         \x20             no studies)\n\
         --seed N      master seed (default 11)\n\
         --rows N      rows per corpus (default: 2000 fast / 800 full; env KAMINO_REPRO_N)\n\
         --threads N   worker threads (default: available parallelism)\n\
         --cache-dir   snapshot cache directory (default target/repro-cache)\n\
         --out-json    output path (default BENCH_repro.json)\n\
         --out-md      output path (default REPRODUCTION.md)\n\
         --timings     include wall-clock and Kamino phase seconds in the\n\
         \x20             artifacts (breaks diffability)\n\
         --trace-out   write a chrome://tracing JSON of the run (cells, fit\n\
         \x20             phases, DP budget ledger); artifacts stay byte-identical"
    );
    std::process::exit(2);
}

fn main() {
    let mut fast = false;
    let mut seed: u64 = 11;
    let mut rows: Option<usize> = std::env::var("KAMINO_REPRO_N")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut threads: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut out_json = String::from("BENCH_repro.json");
    let mut out_md = String::from("REPRODUCTION.md");
    let mut timings = false;
    let mut trace_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} takes a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--fast" => fast = true,
            "--timings" => timings = true,
            "--seed" => seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--rows" => rows = Some(take("--rows").parse().unwrap_or_else(|_| usage())),
            "--threads" => threads = Some(take("--threads").parse().unwrap_or_else(|_| usage())),
            "--cache-dir" => cache_dir = Some(PathBuf::from(take("--cache-dir"))),
            "--out-json" => out_json = take("--out-json"),
            "--out-md" => out_md = take("--out-md"),
            "--trace-out" => trace_out = Some(PathBuf::from(take("--trace-out"))),
            _ => usage(),
        }
    }

    let mut cfg = if fast {
        ReproConfig::fast(seed)
    } else {
        ReproConfig::full(seed)
    };
    if let Some(n) = rows {
        cfg.rows = n;
    }
    if let Some(t) = threads {
        cfg.threads = t.max(1);
    }
    if let Some(dir) = cache_dir {
        cfg.cache_dir = dir;
    }
    cfg.timings = timings;
    // always on: the spans are the run's only clock, so every cache entry
    // keeps its fit phases for a later --timings run. Tracing is strictly
    // off the determinism contract — --timings alone decides whether
    // wall-clock reaches the artifacts, and --trace-out only whether the
    // trace is written
    cfg.obs = kamino_obs::ObsHandle::enabled();

    eprintln!(
        "kamino-repro: {} matrix — {} datasets × {} ε × {} synthesizers = {} cells, \
         {} study rows, {} rows/corpus, seed {seed}, {} threads",
        cfg.mode,
        cfg.datasets.len(),
        cfg.epsilons.len(),
        cfg.methods.len(),
        cfg.datasets.len() * cfg.epsilons.len() * cfg.methods.len(),
        cfg.studies.len(),
        cfg.rows,
        cfg.threads,
    );

    let report = run_matrix(&cfg);

    if let Some(path) = &trace_out {
        match std::fs::write(path, cfg.obs.chrome_trace_json()) {
            Ok(()) => eprintln!("kamino-repro: trace written to {}", path.display()),
            Err(e) => eprintln!("kamino-repro: cannot write trace {}: {e}", path.display()),
        }
    }

    std::fs::write(&out_json, format!("{}\n", to_json(&report, &cfg))).unwrap_or_else(|e| {
        eprintln!("kamino-repro: cannot write {out_json}: {e}");
        std::process::exit(1);
    });
    std::fs::write(&out_md, render_markdown(&report, &cfg)).unwrap_or_else(|e| {
        eprintln!("kamino-repro: cannot write {out_md}: {e}");
        std::process::exit(1);
    });

    println!(
        "snapshot cache: {} hits, {} misses across {} kamino cells (dir: {})",
        report.cache_hits,
        report.cache_misses,
        report.kamino_cells,
        cfg.cache_dir.display()
    );
    println!(
        "wrote {out_json} and {out_md} ({} cells in {:.1}s)",
        report.cells.len(),
        report.total_seconds
    );
}
