//! The fit and draw workloads, and what every workload shares: the
//! Kamino configuration, the measured-window loop, and the traced run's
//! bookkeeping (quality keys, tracing overhead, the span file).

use std::time::{Duration, Instant};

use kamino_core::{fit_kamino, FittedKamino, KaminoConfig};
use kamino_datasets::Corpus;
use kamino_dp::Budget;
use kamino_obs::ObsHandle;

use crate::checks::{plant_violating_pair, Quality, Truth};
use crate::stats::{median, now, quantile, reference_kernel_ms, Digest, Kernel};
use crate::trace::Tracer;
use crate::{replay, serve, Args, Corrupt, Layers, Run, Workload, DELTA, EPSILON, SETUP_REPEATS};

/// A corpus, its size, and how hard to train on it.
#[derive(Debug, Clone, Copy)]
pub struct FitSpec {
    /// The generator.
    pub corpus: Corpus,
    /// Rows generated and fitted.
    pub rows: usize,
    /// `KaminoConfig::train_scale`.
    pub train_scale: f64,
}

/// fit_tpch: the fit it measures.
pub const FIT_TPCH: FitSpec = FitSpec {
    corpus: Corpus::TpcH,
    rows: 5000,
    train_scale: 1.0,
};
/// fit_tpch: rows of the draw that checks each run's last fit.
pub const FIT_CHECK_ROWS: usize = 1000;
/// draw_tax: the fit set-up makes, and the rows each measured draw asks for.
pub const DRAW_TAX: (FitSpec, usize) = (
    FitSpec {
        corpus: Corpus::Tax,
        rows: 2000,
        train_scale: 0.2,
    },
    2500,
);
/// draw_br2000: the fit set-up makes, and the rows each measured draw asks for.
pub const DRAW_BR2000: (FitSpec, usize) = (
    FitSpec {
        corpus: Corpus::Br2000,
        rows: 5000,
        train_scale: 1.0,
    },
    1000,
);

/// The pipeline configuration the fit and draw workloads use: ε = 1,
/// δ = 1e-6, one shard, and the rayon fan-out of candidate scoring and
/// DP-SGD microbatches off. That switch changes no output byte; on a
/// 2-vCPU host the fan-out made identical fits ~35% slower and identical
/// 5,000-row Tax draws ~15% slower and six times noisier (README.md).
/// Library defaults otherwise.
pub fn kamino_cfg(seed: u64, train_scale: f64) -> KaminoConfig {
    let mut cfg = KaminoConfig::new(Budget::new(EPSILON, DELTA));
    cfg.seed = seed;
    cfg.train_scale = train_scale;
    cfg.shards = 1;
    cfg.parallel_substrate = false;
    cfg
}

/// The planner must never spend more than the budget.
pub fn check_epsilon(achieved: f64) -> Result<(), String> {
    if achieved <= EPSILON {
        Ok(())
    } else {
        Err(format!(
            "achieved ε {achieved} exceeds the budget {EPSILON}"
        ))
    }
}

/// The measured window: which half of it a traced run is in, and when it
/// may end.
pub struct Window {
    start: Instant,
    length: Duration,
    trace: bool,
}

impl Window {
    /// Opens a window of `args.seconds`.
    pub fn open(args: &Args) -> Window {
        Window {
            start: now(),
            length: Duration::from_secs_f64(args.seconds),
            trace: args.trace,
        }
    }

    /// In a traced run, the second half of the window runs with tracing
    /// on; the first half is its untraced reference.
    pub fn traced_half(&self) -> bool {
        self.trace && self.start.elapsed() >= self.length / 2
    }

    /// Whether the window is over, given the operations done in its
    /// untraced and traced halves (each half needs at least one).
    pub fn done(&self, untraced_ops: usize, traced_ops: usize) -> bool {
        self.start.elapsed() >= self.length && untraced_ops > 0 && (!self.trace || traced_ops > 0)
    }
}

/// Reference-kernel passes timed before each fit or draw.
pub const REF_PASSES_PER_OP: usize = 3;

/// Untraced and traced operation times of one window, in seconds, and
/// the reference-kernel times measured beside them, in milliseconds.
pub struct OpTimes {
    /// The reference kernel this workload is divided by.
    kernel: Kernel,
    /// Operations run with tracing off (all of them in an untraced run).
    pub plain: Vec<f64>,
    /// The reference time each untraced operation is divided by.
    pub plain_ref: Vec<f64>,
    /// Operations run with tracing on (traced run only).
    pub traced: Vec<f64>,
    /// Every reference-kernel pass time.
    pub refs: Vec<f64>,
    /// Median of the latest [`OpTimes::calibrate`] call.
    last_ref: f64,
    /// The latest untraced operation, while it still awaits the
    /// calibration that follows it.
    open: Option<usize>,
}

impl OpTimes {
    /// Empty, referenced against `kernel`.
    pub fn new(kernel: Kernel) -> OpTimes {
        OpTimes {
            kernel,
            plain: Vec::new(),
            plain_ref: Vec::new(),
            traced: Vec::new(),
            refs: Vec::new(),
            last_ref: f64::NAN,
            open: None,
        }
    }

    /// Records one operation.
    pub fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced.push(secs);
        } else {
            self.open = Some(self.plain.len());
            self.plain.push(secs);
            self.plain_ref.push(self.last_ref);
        }
    }

    /// Times `passes` reference-kernel passes. An untraced operation is
    /// divided by the mean of the medians of the calibrations just before
    /// and just after it.
    pub fn calibrate(&mut self, passes: usize) {
        let passes: Vec<f64> = (0..passes)
            .map(|_| reference_kernel_ms(self.kernel))
            .collect();
        self.last_ref = median(&passes);
        if let Some(i) = self.open.take() {
            self.plain_ref[i] = (self.plain_ref[i] + self.last_ref) / 2.0;
        }
        self.refs.extend(passes);
    }

    /// Divides operations pushed from now on by the median of every pass
    /// so far (for a window whose operations overlap and are referenced as
    /// a whole).
    pub fn pool_calibration(&mut self) {
        self.last_ref = median(&self.refs);
    }

    /// Each untraced operation's cost: its time over its reference time.
    pub fn costs(&self) -> Vec<f64> {
        self.plain
            .iter()
            .zip(&self.plain_ref)
            .map(|(s, r)| s * 1e3 / r)
            .collect()
    }

    /// Median traced time over median untraced time.
    pub fn overhead_ratio(&self) -> f64 {
        median(&self.traced) / median(&self.plain)
    }
}

/// How a workload's rows relate to its operations.
pub enum Throughput {
    /// Every operation produces (or fits) this many rows.
    PerOp(usize),
    /// The window as a whole served `rows` rows in `secs` seconds.
    Window {
        /// Rows served.
        rows: usize,
        /// Window length.
        secs: f64,
    },
}

/// The end-to-end metrics every workload reports, from its untraced
/// operation times, its throughput, and the quality of its checked
/// output; the raw wall-clock figures go to the report line.
pub fn end_to_end(run: &mut Run, setup: &[f64], times: &OpTimes, rows: Throughput, q: Quality) {
    let ms: Vec<f64> = times.plain.iter().map(|s| s * 1e3).collect();
    let costs = times.costs();
    let ref_ms = median(&times.refs);
    let (rows_per_s, rows_per_ref) = match rows {
        Throughput::PerOp(n) => (n as f64 / median(&times.plain), n as f64 / median(&costs)),
        Throughput::Window { rows, secs } => {
            (rows as f64 / secs, rows as f64 / secs * ref_ms / 1e3)
        }
    };
    let m = &mut run.metrics;
    m.set("setup_s", median(setup));
    m.set("op_cost_p50", median(&costs));
    m.set("rows_per_ref", rows_per_ref);
    m.set("hard_dc_satisfied_pct", 100.0 - q.hard_dc_violation_pct);
    m.set("marginal_fidelity_1way", 1.0 - q.marginal_tvd_1way);
    run.note("op_cost_p90", quantile(&costs, 0.9), "ref");
    run.note("ops", ms.len() as f64, "count");
    run.note("op_ms_p50", median(&ms), "ms");
    run.note("op_ms_p90", quantile(&ms, 0.9), "ms");
    run.note("rows_per_s", rows_per_s, "rows/s");
    run.note("ref_ms", ref_ms, "ms");
    run.note("ref_passes", times.refs.len() as f64, "count");
    quality_detail(run, q);
}

/// Records the quality figures under their glossary names.
pub fn quality_detail(run: &mut Run, q: Quality) {
    run.note("hard_dc_violation_pct", q.hard_dc_violation_pct, "%");
    run.note(
        "soft_dc_violation_gap_pct",
        q.soft_dc_violation_gap_pct,
        "pp",
    );
    run.note("marginal_tvd_1way", q.marginal_tvd_1way, "ratio");
}

/// The traced run's closing steps: quality keys, tracing overhead, the
/// serve layer, span self times, and the span file.
pub fn finish_traced(
    args: &Args,
    run: &mut Run,
    tr: &Tracer,
    obs: &ObsHandle,
    mut layers: Layers,
    q: Quality,
    overhead: f64,
) {
    layers.set("quality.hard_dc_violation_pct", q.hard_dc_violation_pct);
    layers.set(
        "quality.soft_dc_violation_gap_pct",
        q.soft_dc_violation_gap_pct,
    );
    layers.set("quality.marginal_tvd_1way", q.marginal_tvd_1way);
    layers.set("trace.overhead_ratio", overhead);
    run.note("trace.overhead_ratio", overhead, "ratio");
    run.self_times = tr.self_times();
    for (name, _) in crate::PER_LAYER {
        if !layers.0.contains_key(name) {
            run.op(
                "traced run",
                Err(format!("per-layer metric `{name}` was not measured")),
            );
        }
    }
    run.metrics = layers;
    if let Err(e) = crate::report::write_trace(args, tr, obs) {
        eprintln!("warning: trace file not written: {e}");
    }
}

/// fit_tpch: set-up generates the corpus; the window fits it repeatedly
/// (every fit is identical, seed-determined work); a 1,000-row draw from
/// the last fit checks the output.
pub fn fit_tpch(args: &Args, run: &mut Run) {
    let mut tr = Tracer::new(args.trace);
    let obs = ObsHandle::enabled();
    let spec = FIT_TPCH;
    let mut setup = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = now();
        data = Some(spec.corpus.generate(spec.rows, args.seed));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let truth = Truth::new(data.expect("set-up ran"));
    let cfg = kamino_cfg(args.seed, spec.train_scale);

    let window = Window::open(args);
    let mut times = OpTimes::new(Kernel::Mixed);
    let mut first_model: Option<Digest> = None;
    let mut last: Option<FittedKamino> = None;
    while !window.done(times.plain.len(), times.traced.len()) {
        tr.time("reference", |_| times.calibrate(REF_PASSES_PER_OP));
        let traced = window.traced_half();
        let mut c = cfg.clone();
        if traced {
            c.obs = obs.clone();
        }
        let d = &truth.data;
        let (fitted, secs) = tr.time("fit", |_| fit_kamino(&d.schema, &d.instance, &d.dcs, &c));
        times.push(traced, secs);
        let model = model_digest(&fitted);
        let same = *first_model.get_or_insert(model);
        run.op(
            "fit",
            check_epsilon(fitted.achieved_epsilon()).and_then(|()| {
                if same.hex() == model.hex() {
                    Ok(())
                } else {
                    Err("fit is not deterministic: snapshot bytes differ between fits".into())
                }
            }),
        );
        last = Some(fitted);
    }
    tr.time("reference", |_| times.calibrate(REF_PASSES_PER_OP));
    let mut fitted = last.expect("the window ran at least one fit");
    run.note("fit_s", median(&times.plain), "s");
    run.note("achieved_epsilon", fitted.achieved_epsilon(), "eps");

    let mut layers = Layers::default();
    let replayed = if args.trace {
        let matches = replay::fit_phases(&mut tr, &truth.data, &cfg, &fitted, &mut layers);
        run.op(
            "fit replay",
            if matches {
                Ok(())
            } else {
                Err("phase replay disagrees with fit_kamino (sequence or ε)".into())
            },
        );
        match replay::sample_layers(&mut tr, &fitted, FIT_CHECK_ROWS, &obs, &mut layers) {
            Ok(inst) => Some(inst),
            Err(e) => {
                run.op("sample replay", Err(e));
                None
            }
        }
    } else {
        None
    };

    let mut inst = fitted.sample(FIT_CHECK_ROWS);
    let q = check_output(
        args,
        run,
        &truth,
        &mut inst,
        FIT_CHECK_ROWS,
        "fit_tpch.draw",
    );
    if let Some(r) = replayed {
        run.op("sample replay", same_rows(&truth, &r, &inst));
    }

    if args.trace {
        serve::probe(args, &mut tr, spec, &mut layers, run);
        finish_traced(args, run, &tr, &obs, layers, q, times.overhead_ratio());
    } else {
        end_to_end(run, &setup, &times, Throughput::PerOp(spec.rows), q);
    }
}

/// A digest of everything a fit decides — the trained model, the DC
/// weights and the achieved ε — but not its wall-clock timings, which the
/// snapshot format also stores.
fn model_digest(f: &FittedKamino) -> Digest {
    let mut w = kamino_data::wire::ByteWriter::new();
    kamino_core::snapshot::encode_model(f.model(), &mut w);
    let mut d = Digest::of(&w.into_bytes());
    for x in f.weights.iter().chain([&f.achieved_epsilon()]) {
        d.update(&x.to_le_bytes());
    }
    d
}

/// Checks one synthesized instance (planting a violation first when the
/// run was asked to), records its digest under `digest_key`, and returns
/// its quality.
pub fn check_output(
    args: &Args,
    run: &mut Run,
    truth: &Truth,
    inst: &mut kamino_data::Instance,
    rows: usize,
    digest_key: &'static str,
) -> Quality {
    if args.corrupt == Some(Corrupt::ViolatingPair) && !plant_violating_pair(truth, inst) {
        run.op("corrupt", Err("no exactly-held hard FD to violate".into()));
    }
    if let Ok(csv) = kamino_data::csv::rows_text(&truth.data.schema, inst) {
        run.digests
            .insert(digest_key, Digest::of(csv.as_bytes()).hex());
    }
    let result = truth.check(inst, rows);
    let q = result.clone().unwrap_or_default();
    run.op("output check", result.map(|_| ()));
    q
}

/// Whether a replayed draw produced exactly the rows of the measured one.
fn same_rows(
    truth: &Truth,
    a: &kamino_data::Instance,
    b: &kamino_data::Instance,
) -> Result<(), String> {
    let csv = |i| kamino_data::csv::rows_text(&truth.data.schema, i).unwrap_or_default();
    if csv(a) == csv(b) {
        Ok(())
    } else {
        Err("traced draw differs from the untraced draw".into())
    }
}

/// draw_tax / draw_br2000: set-up fits the corpus and encodes a snapshot;
/// every measured draw restores a session from those same bytes and draws
/// the same rows, so all repetitions are identical work.
pub fn draw(args: &Args, run: &mut Run) {
    let mut tr = Tracer::new(args.trace);
    let obs = ObsHandle::enabled();
    let (spec, rows) = match args.workload {
        Workload::DrawTax => DRAW_TAX,
        _ => DRAW_BR2000,
    };
    let cfg = kamino_cfg(args.seed, spec.train_scale);
    let mut setup = Vec::new();
    let mut fit_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = now();
        let data = spec.corpus.generate(spec.rows, args.seed);
        let t_fit = now();
        let fitted = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
        fit_s.push(t_fit.elapsed().as_secs_f64());
        let bytes = kamino_serve::encode_fitted(&fitted);
        setup.push(t0.elapsed().as_secs_f64());
        prepared = Some((data, fitted, bytes));
    }
    let (data, fitted, bytes) = prepared.expect("set-up ran");
    run.op("fit", check_epsilon(fitted.achieved_epsilon()));
    run.note("fit_s", median(&fit_s), "s");
    run.note("achieved_epsilon", fitted.achieved_epsilon(), "eps");
    let truth = Truth::new(data);

    let window = Window::open(args);
    let mut ops = OpTimes::new(Kernel::PairScan);
    let mut sample_s = Vec::new();
    let mut first: Option<(String, Quality)> = None;
    let mut measured = None;
    while !window.done(ops.plain.len(), ops.traced.len()) {
        tr.time("reference", |_| ops.calibrate(REF_PASSES_PER_OP));
        let traced = window.traced_half();
        let t0 = now();
        let session = kamino_serve::decode_fitted(&bytes);
        let decode_s = t0.elapsed().as_secs_f64();
        let mut session = match session {
            Ok(s) if traced => replay::with_obs(&s, obs.clone()),
            Ok(s) => s,
            Err(e) => {
                run.op("draw", Err(format!("snapshot does not decode: {e}")));
                break;
            }
        };
        let (mut inst, secs) = tr.time("draw", |_| session.sample(rows));
        ops.push(traced, decode_s + secs);
        if !traced {
            sample_s.push(secs);
        }
        match &first {
            None => {
                let q = check_output(args, run, &truth, &mut inst, rows, "draw.csv");
                let digest = run.digests.get("draw.csv").cloned().unwrap_or_default();
                first = Some((digest, q));
                measured = Some(inst);
            }
            Some((digest, _)) => {
                let csv = kamino_data::csv::rows_text(&truth.data.schema, &inst);
                let same = csv.map(|c| Digest::of(c.as_bytes()).hex() == *digest);
                run.op(
                    "draw",
                    match same {
                        Ok(true) => Ok(()),
                        Ok(false) => Err("draw differs from the first draw of the run".into()),
                        Err(e) => Err(format!("drawn rows do not encode: {e}")),
                    },
                );
            }
        }
    }
    tr.time("reference", |_| ops.calibrate(REF_PASSES_PER_OP));
    let q = first.map(|(_, q)| q).unwrap_or_default();
    run.note("draw_rows_per_s", rows as f64 / median(&sample_s), "rows/s");

    if args.trace {
        let mut layers = Layers::default();
        let matches = replay::fit_phases(&mut tr, &truth.data, &cfg, &fitted, &mut layers);
        run.op(
            "fit replay",
            if matches {
                Ok(())
            } else {
                Err("phase replay disagrees with fit_kamino (sequence or ε)".into())
            },
        );
        let restored = kamino_serve::decode_fitted(&bytes).map_err(|e| e.to_string());
        let replayed =
            restored.and_then(|s| replay::sample_layers(&mut tr, &s, rows, &obs, &mut layers));
        let result = match (&replayed, &measured) {
            (Ok(r), Some(m)) => same_rows(&truth, r, m),
            (Err(e), _) => Err(e.clone()),
            (_, None) => Err("no measured draw to compare with".into()),
        };
        run.op("sample replay", result);
        serve::probe(args, &mut tr, spec, &mut layers, run);
        finish_traced(args, run, &tr, &obs, layers, q, ops.overhead_ratio());
    } else {
        end_to_end(run, &setup, &ops, Throughput::PerOp(rows), q);
    }
}
