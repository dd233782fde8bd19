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
use kamino::core::{fit_kamino, FittedKamino, KaminoConfig, PhaseTimings};
use kamino::datasets::adult_like;
use kamino::dp::Budget;
use kamino::nn::PerExampleModel;
use kamino::obs::{Event, ObsHandle};
use kamino::serve::{decode_fitted, encode_fitted};

/// The fit every test here runs, under the given handle.
fn fit(obs: ObsHandle) -> FittedKamino {
    let data = adult_like(120, 5);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 23;
    cfg.train_scale = 0.05;
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
/// traced `ar_sampling` draw records one `sample.fill` span per column
/// and fills `PhaseTimings::sample_fill`.
#[test]
fn an_accept_reject_draw_traces_its_fill() {
    let obs = ObsHandle::enabled();
    let data = adult_like(120, 5);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 23;
    cfg.train_scale = 0.05;
    cfg.ar_sampling = true;
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

/// The noise counter is the mechanism's exact size: every step of every
/// DP-SGD-trained sub-model draws one `N(0, 1)` per parameter it trains
/// (its context embeddings, attention and head).
#[test]
fn noise_draws_are_one_per_parameter_per_step() {
    let obs = ObsHandle::enabled();
    let fitted = fit(obs.clone());
    assert!(fitted.params.sigma_d > 0.0, "the fit must be private");
    let model = fitted.model();
    let mut store = model.store.clone();
    let mut params = 0u64;
    for sm in &model.submodels {
        if !matches!(sm.kind, SubModelKind::Discriminative { .. }) {
            continue;
        }
        let mut trainer = SubModelTrainer {
            store: &mut store,
            sm: &mut sm.clone(),
        };
        trainer.visit_blocks(&mut |b| params += b.len() as u64);
    }
    assert!(params > 0);
    let (_, draws) = dpsgd_work(&obs);
    assert_eq!(draws, fitted.params.t as u64 * params);
}
