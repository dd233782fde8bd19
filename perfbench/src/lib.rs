//! The Kamino benchmark: seeded workloads over the library crates' public
//! APIs, their output checks, and the metrics they report. `main.rs` turns
//! the command line into [`Args`], calls [`run`], and prints the result.
//! See README.md for the workloads, the metric glossary and the sizing
//! facts behind the workload sizes.

pub mod checks;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// The privacy budget every workload fits at.
pub const EPSILON: f64 = 1.0;
/// The δ of that budget.
pub const DELTA: f64 = 1e-6;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// End-to-end metrics (untraced run), with units. BENCHMARK.json lists the
/// same names; a test keeps the two in step.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cost_p50", "ref"),
    ("rows_per_ref", "rows/ref"),
    ("hard_dc_satisfied_pct", "%"),
    ("marginal_fidelity_1way", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.sequence.s", "s"),
    ("dp.planner.s", "s"),
    ("core.train.s", "s"),
    ("core.train.sgd_steps", "count"),
    ("core.weights.s", "s"),
    ("serve.snapshot.encode_s", "s"),
    ("serve.snapshot.decode_s", "s"),
    ("serve.snapshot.bytes", "B"),
    ("core.sampler.draw_s", "s"),
    ("core.sampler.fill_s", "s"),
    ("core.sampler.mcmc_s", "s"),
    ("core.sampler.rows", "count"),
    ("core.model.predict_s", "s"),
    ("core.model.predicts", "count"),
    ("constraints.score_s", "s"),
    ("constraints.insert_s", "s"),
    ("constraints.scan_rows_visited", "count"),
    ("constraints.fd_probes", "count"),
    ("constraints.zero_weight_scan_ratio", "ratio"),
    ("data.csv.encode_s", "s"),
    ("data.csv.bytes", "B"),
    ("serve.ttfb_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.pool_hits", "count"),
    ("serve.pool_misses", "count"),
    ("serve.pool_hit_ratio", "ratio"),
    ("serve.snapshot_write_ms_p50", "ms"),
    ("serve.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("quality.hard_dc_violation_pct", "%"),
    ("quality.soft_dc_violation_gap_pct", "pp"),
    ("quality.marginal_tvd_1way", "ratio"),
];

/// Per-layer metric names whose values are seed-determined: two runs at
/// one seed must report them identically.
pub const DETERMINISTIC_LAYER_KEYS: &[&str] = &[
    "core.train.sgd_steps",
    "core.sampler.rows",
    "core.model.predicts",
    "constraints.scan_rows_visited",
    "constraints.fd_probes",
    "serve.snapshot.bytes",
    "data.csv.bytes",
    "quality.hard_dc_violation_pct",
    "quality.soft_dc_violation_gap_pct",
    "quality.marginal_tvd_1way",
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-H fit at n = 5000: DP-SGD training dominates.
    FitTpch,
    /// Tax draws of 2500 rows from one snapshot: hard FDs + an order DC.
    DrawTax,
    /// BR2000 draws of 1000 rows from one snapshot: the soft-DC path.
    DrawBr2000,
    /// Two keep-alive clients against the in-process server.
    ServeTpch,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::FitTpch,
        Workload::DrawTax,
        Workload::DrawBr2000,
        Workload::ServeTpch,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FitTpch => "fit_tpch",
            Workload::DrawTax => "draw_tax",
            Workload::DrawBr2000 => "draw_br2000",
            Workload::ServeTpch => "serve_tpch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A deliberate output corruption, for tests that prove the checks are
/// live: the run must then report `correct: false` and exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Make two rows of the first checked output violate a hard FD.
    ViolatingPair,
    /// Cut the first served stream short (serve_tpch only).
    ShortStream,
}

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Test hook; `None` in every real run.
    pub corrupt: Option<Corrupt>,
}

/// Largest accepted seed: seeds travel through the server's JSON, whose
/// numbers are `f64`, so they stay well inside its exact-integer range.
pub const MAX_SEED: u64 = 1 << 40;

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--corrupt violating-pair|short-stream]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut corrupt = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => {
                    let s: u64 = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                    if s > MAX_SEED {
                        return Err(format!("seed must be at most {MAX_SEED}"));
                    }
                    seed = Some(s);
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err("seconds must be in (0, 3600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("trace must be 0 or 1".into()),
                    }
                }
                "--corrupt" => {
                    corrupt = Some(match value.as_str() {
                        "violating-pair" => Corrupt::ViolatingPair,
                        "short-stream" => Corrupt::ShortStream,
                        _ => return Err(format!("unknown corruption `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            corrupt,
        })
    }
}

/// Named metric values of one run (end-to-end or per-layer).
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in the measured window (fits, draws,
    /// requests) plus the output checks run outside it.
    pub attempted: u64,
    /// Operations that errored or whose output failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The metrics printed on the result line.
    pub metrics: Layers,
    /// Workload-specific figures and raw wall-clock timings for the report
    /// line, with units (the names the README glossary uses: `fit_s`,
    /// `requests_per_s`, …).
    pub detail: BTreeMap<&'static str, (f64, &'static str)>,
    /// Digests of synthesized CSV, by what they cover.
    pub digests: BTreeMap<&'static str, String>,
    /// Per span name: (calls, total s, self s) — traced run only.
    pub self_times: BTreeMap<String, (u64, f64, f64)>,
}

impl Run {
    /// Counts one operation and, if it failed, its error.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Records a report-line figure.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail.insert(name, (value, unit));
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    match args.workload {
        Workload::FitTpch => workloads::fit_tpch(args, &mut run),
        Workload::DrawTax | Workload::DrawBr2000 => workloads::draw(args, &mut run),
        Workload::ServeTpch => serve::serve_tpch(args, &mut run),
    }
    if !args.trace {
        run.metrics
            .set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    }
    run
}
