//! Determinism guard: observability is strictly off the contract.
//!
//! Fitting and sampling with tracing enabled must produce artifacts —
//! the `.kamino` snapshot bytes and the synthesized rows — that are
//! byte-identical to a run with tracing disabled. Spans, metrics, and
//! the DP budget ledger may read the wall clock, but nothing they do is
//! allowed to perturb the sample stream or leak a timestamp into an
//! artifact.

use std::time::Duration;

use kamino::core::model::{SubModelKind, SubModelTrainer};
use kamino::core::{
    fit_kamino, synthesize, FittedKamino, KaminoConfig, PhaseTimings, SamplingRule,
};
use kamino::datasets::{adult_like, tax_like};
use kamino::dp::Budget;
use kamino::nn::PerExampleModel;
use kamino::obs::{Event, ObsHandle};
use kamino::serve::{decode_fitted, encode_fitted};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fit every test here runs, under the given handle.
fn fit(obs: ObsHandle) -> FittedKamino {
    fit_scaled(obs, 0.05)
}

/// [`fit`] with its DP-SGD steps scaled by `train_scale`.
fn fit_scaled(obs: ObsHandle, train_scale: f64) -> FittedKamino {
    let data = adult_like(120, 5);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 23;
    cfg.train_scale = train_scale;
    cfg.obs = obs;
    fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg)
}

/// Fit, snapshot, restore, and sample under the given handle.
///
/// Phase timings are zeroed before encoding: they are the one
/// deliberately wall-clock-dependent snapshot section (surfaced by
/// `GET /models/{id}` and `--timings`), so a traced fit's vary run to
/// run (an untraced fit's are all zero). Everything else — model
/// weights, RNG cursor, schema, DC weights — must be bit-stable.
fn artifacts(obs: ObsHandle) -> (Vec<u8>, String) {
    let mut fitted = fit(obs);
    fitted.timings = Default::default();
    let snapshot = encode_fitted(&fitted);
    let mut session = decode_fitted(&snapshot).expect("snapshot round-trip");
    let inst = session.sample(60);
    let header = kamino::data::csv::header_line(session.schema()).expect("csv header");
    let rows = kamino::data::csv::rows_text(session.schema(), &inst).expect("csv rows");
    (snapshot, format!("{header}{rows}"))
}

#[test]
fn tracing_enabled_and_disabled_yield_byte_identical_artifacts() {
    let (snap_off, csv_off) = artifacts(ObsHandle::disabled());
    let (snap_on, csv_on) = artifacts(ObsHandle::enabled());
    assert_eq!(
        snap_off, snap_on,
        ".kamino snapshot bytes must not depend on tracing"
    );
    assert_eq!(csv_off, csv_on, "sampled rows must not depend on tracing");
}

#[test]
fn the_enabled_run_recorded_spans_and_the_budget_ledger() {
    let obs = ObsHandle::enabled();
    let _ = artifacts(obs.clone());

    let spans = obs.spans();
    for name in [
        "fit",
        "fit.sequencing",
        "fit.plan",
        "fit.training",
        "fit.dc_weights",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing span {name:?} in {:?}",
            spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
    }
    // the planner's σ bisection nests inside the sequencing phase
    let span_named = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    assert_eq!(
        span_named("fit.plan").parent,
        span_named("fit.sequencing").id
    );

    let events = obs.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::BudgetCalibration { .. })),
        "planner calibration never hit the ledger"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::BudgetSpend { .. })),
        "no budget spend recorded"
    );

    // the exporters agree the data is there
    assert!(obs.render_prometheus().contains("kamino_dp_plans_total"));
    assert!(obs.chrome_trace_json().contains("fit.training"));
}

#[test]
fn phase_timings_are_span_durations() {
    let obs = ObsHandle::enabled();
    let mut session = fit(obs.clone());
    let _ = session.sample(60);
    let t = session.timings;

    let spans = obs.spans();
    let summed = |name: &str| -> Duration {
        let matching: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
        assert!(!matching.is_empty(), "no {name:?} span");
        matching
            .iter()
            .map(|s| Duration::from_nanos(s.dur_ns))
            .sum()
    };
    for (field, value, span) in [
        ("sequencing", t.sequencing, "fit.sequencing"),
        ("training", t.training, "fit.training"),
        ("dc_weights", t.dc_weights, "fit.dc_weights"),
        ("sampling", t.sampling, "sample"),
        ("sample_fill", t.sample_fill, "sample.fill"),
        ("sample_mcmc", t.sample_mcmc, "sample.mcmc"),
    ] {
        assert_eq!(value, summed(span), "{field} is not the {span:?} span");
    }

    // a disabled handle reads no clock: every field is zero, so untraced
    // snapshots carry no wall-clock and encode byte-identically
    let mut a = fit(ObsHandle::disabled());
    let b = fit(ObsHandle::disabled());
    assert_eq!(
        encode_fitted(&a),
        encode_fitted(&b),
        "untraced fits must snapshot byte-identically"
    );
    let _ = a.sample(60);
    assert_eq!(a.timings, PhaseTimings::default());
}

/// A session restored from a snapshot traces its draws once it is given
/// a handle: the `sample` span and, nested in it, one `sample.fill` and
/// one `sample.mcmc` span per column pass.
#[test]
fn a_restored_session_traces_its_draws() {
    let snapshot = encode_fitted(&fit(ObsHandle::disabled()));
    let mut session = decode_fitted(&snapshot).expect("snapshot round-trip");
    let obs = ObsHandle::enabled();
    session.set_obs(obs.clone());
    let _ = session.sample(60);

    let spans = obs.spans();
    let draws: Vec<_> = spans.iter().filter(|s| s.name == "sample").collect();
    assert_eq!(draws.len(), 1, "one draw, one `sample` span");
    let columns = session.sequence.len();
    for name in ["sample.fill", "sample.mcmc"] {
        let passes: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
        assert_eq!(passes.len(), columns, "one {name:?} span per column");
        assert!(passes.iter().all(|s| s.parent == draws[0].id));
    }
}

/// Accept–reject runs through the same column loop as Algorithm 3, so a
/// traced accept–reject draw records one `sample.fill` span per column
/// and fills `PhaseTimings::sample_fill`.
#[test]
fn an_accept_reject_draw_traces_its_fill() {
    let obs = ObsHandle::enabled();
    let data = adult_like(120, 5);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 23;
    cfg.train_scale = 0.05;
    cfg.sampling = SamplingRule::AcceptReject;
    cfg.obs = obs.clone();
    let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
    let _ = session.sample(60);

    let spans = obs.spans();
    let draws: Vec<_> = spans.iter().filter(|s| s.name == "sample").collect();
    assert_eq!(draws.len(), 1, "one draw, one `sample` span");
    let fills: Vec<_> = spans.iter().filter(|s| s.name == "sample.fill").collect();
    assert_eq!(
        fills.len(),
        session.sequence.len(),
        "one fill span per column"
    );
    assert!(fills.iter().all(|s| s.parent == draws[0].id));
    assert!(session.timings.sample_fill > Duration::ZERO);
}

/// DP-SGD's work counters, read off the handle a fit ran under:
/// (coordinates visited, noise draws).
fn dpsgd_work(obs: &ObsHandle) -> (u64, u64) {
    (
        obs.counter("kamino_dpsgd_coords_visited_total", &[]).get(),
        obs.counter("kamino_dpsgd_noise_draws_total", &[]).get(),
    )
}

#[test]
fn identical_traced_fits_record_identical_dpsgd_work() {
    let runs: Vec<(u64, u64)> = (0..2)
        .map(|_| {
            let obs = ObsHandle::enabled();
            let _ = fit(obs.clone());
            dpsgd_work(&obs)
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "DP-SGD work counters must be deterministic"
    );
    assert!(runs[0].0 > 0 && runs[0].1 > 0, "no DP-SGD work counted");
}

/// The noise counter is the mechanism's exact size. Every step of every
/// DP-SGD-trained sub-model draws one `N(0, 1)` per dense parameter it
/// trains (attention, head, numeric encoders). Embedding rows defer their
/// noise: each settle draws one per coordinate of the row, and every
/// sub-model's last settle covers every row of its context tables.
#[test]
fn noise_draws_are_dense_params_per_step_plus_settled_rows() {
    let obs = ObsHandle::enabled();
    let fitted = fit_scaled(obs.clone(), 0.5);
    assert!(fitted.params.sigma_d > 0.0, "the fit must be private");
    assert!(
        fitted.params.t > 1,
        "the steps after the first must settle rows"
    );
    let model = fitted.model();
    let mut store = model.store.clone();
    let (mut dense, mut table_rows) = (0u64, 0u64);
    for sm in &model.submodels {
        if !matches!(sm.kind, SubModelKind::Discriminative { .. }) {
            continue;
        }
        let mut sm = sm.clone();
        let mut trainer = SubModelTrainer::new(&mut store, &mut sm);
        trainer.visit_blocks(&mut |b| match b.row_width() {
            None => dense += b.len() as u64,
            Some(w) => table_rows += (b.len() / w) as u64,
        });
    }
    assert!(dense > 0 && table_rows > 0);
    let (_, draws) = dpsgd_work(&obs);
    let settled = obs.counter("kamino_dpsgd_rows_settled_total", &[]).get();
    assert!(
        settled > table_rows,
        "{settled} rows settled: the finishing settles alone are {table_rows}"
    );
    let width = store.dim() as u64;
    assert_eq!(draws, fitted.params.t as u64 * dense + settled * width);
}

/// Sequence positions whose cells a discriminative sub-model predicts.
fn discriminative_positions(session: &FittedKamino) -> u64 {
    session
        .model()
        .submodels
        .iter()
        .filter(|sm| matches!(sm.kind, SubModelKind::Discriminative { .. }))
        .count() as u64
}

/// Draws `rows` rows from `session`'s model under its configuration
/// with the sampling rule `sampling`, and returns the number of
/// predictions the traced draw counted.
fn traced_draw_predicts(session: &FittedKamino, sampling: SamplingRule, rows: usize) -> u64 {
    let obs = ObsHandle::enabled();
    let mut cfg = session.config().clone();
    cfg.sampling = sampling;
    cfg.obs = obs.clone();
    let _ = synthesize(
        session.schema(),
        session.model(),
        session.dcs(),
        &session.weights,
        &cfg,
        rows,
        &mut StdRng::seed_from_u64(29),
        &mut PhaseTimings::default(),
    );
    obs.counter("kamino_sampler_predicts_total", &[]).get()
}

#[test]
fn identical_traced_draws_record_identical_predicts() {
    let session = fit(ObsHandle::disabled());
    let rule = session.config().sampling;
    let a = traced_draw_predicts(&session, rule, 60);
    let b = traced_draw_predicts(&session, rule, 60);
    assert_eq!(a, b, "the prediction counter must be deterministic");
    assert!(a > 0, "no prediction counted");
}

/// The planner's work is a deterministic count: two identical private
/// fits add the same, non-zero number of `(order, σ)` RDP evaluations to
/// `kamino_dp_planner_rdp_evals_total`.
#[test]
fn identical_fits_record_identical_planner_work() {
    let evals = || {
        let obs = ObsHandle::enabled();
        fit(obs.clone());
        obs.counter("kamino_dp_planner_rdp_evals_total", &[]).get()
    };
    let (a, b) = (evals(), evals());
    assert_eq!(a, b, "the planner's work counter must be deterministic");
    assert!(a > 0, "no planner work counted");
}

/// The default rule (no MCMC, no FD lookup) predicts each cell of every
/// discriminative position exactly once, and so does accept–reject: it
/// predicts a cell once however many tries it draws.
#[test]
fn every_rule_predicts_each_cell_once() {
    let session = fit(ObsHandle::disabled());
    let cfg = session.config();
    let default_rule = SamplingRule::Algorithm3 {
        hard_fd_lookup: false,
    };
    assert!(cfg.mcmc_ratio == 0.0 && cfg.sampling == default_rule);
    let positions = discriminative_positions(&session);
    assert!(positions > 0, "the fit has no discriminative sub-model");
    let rows = 60;
    for rule in [default_rule, SamplingRule::AcceptReject] {
        assert_eq!(
            traced_draw_predicts(&session, rule, rows),
            rows as u64 * positions,
            "{rule:?}"
        );
    }
}

/// The `kind` labels of `kamino_sampler_cells_total`.
const CELL_KINDS: [&str; 4] = ["model", "fd_injection", "order_clamp", "fallback"];

/// Cells counted under each of [`CELL_KINDS`] on `obs`.
fn cell_kinds(obs: &ObsHandle) -> [u64; 4] {
    CELL_KINDS.map(|kind| {
        obs.counter("kamino_sampler_cells_total", &[("kind", kind)])
            .get()
    })
}

/// A small Tax fit: chained hard FDs and the hard order DC φ_t6.
fn tax_fit() -> FittedKamino {
    let data = tax_like(300, 5);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 23;
    cfg.train_scale = 0.05;
    fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg)
}

/// Every cell of a default-rule draw is counted once, under the one kind
/// that says why it got its value; a Tax draw has cells that a hard FD
/// forced and cells clamped into φ_t6's band, and equal draws count
/// alike, restored sessions included.
#[test]
fn every_drawn_cell_is_counted_once_by_kind() {
    let session = tax_fit();
    assert!(session.config().mcmc_ratio == 0.0);
    let rows = 200;
    let traced_draw = || {
        let obs = ObsHandle::enabled();
        let mut cfg = session.config().clone();
        cfg.obs = obs.clone();
        let _ = synthesize(
            session.schema(),
            session.model(),
            session.dcs(),
            &session.weights,
            &cfg,
            rows,
            &mut StdRng::seed_from_u64(29),
            &mut PhaseTimings::default(),
        );
        cell_kinds(&obs)
    };
    let kinds = traced_draw();
    assert_eq!(kinds, traced_draw(), "cell kinds must be deterministic");
    let cells = (rows * session.sequence.len()) as u64;
    assert_eq!(kinds.iter().sum::<u64>(), cells, "{kinds:?}");
    let (fd_injection, order_clamp) = (kinds[1], kinds[2]);
    assert!(fd_injection > 0 && order_clamp > 0, "{kinds:?}");

    // a restored session draws the same rows and counts the same kinds
    let snapshot = encode_fitted(&session);
    let restored_kinds = |mut s: FittedKamino| {
        let obs = ObsHandle::enabled();
        s.set_obs(obs.clone());
        let _ = s.sample(rows);
        cell_kinds(&obs)
    };
    let live = restored_kinds(session);
    assert_eq!(live.iter().sum::<u64>(), cells);
    let restored = decode_fitted(&snapshot).expect("snapshot round-trip");
    assert_eq!(restored_kinds(restored), live);
}
