//! Layer replays for the traced run. Each replay calls one layer's public
//! functions on the workload's own inputs or outputs, from this file, and
//! times those calls: the fit phase by phase, a drawn instance cell by
//! cell through the sub-models and through the DC scorers, and its CSV
//! encoding. Nothing here runs in the untraced run.

use std::hint::black_box;

use kamino_constraints::{CandidateRow, CellContext, DcScorer, Hardness, ScoreSet};
use kamino_core::model::{DataModel, SubModelKind};
use kamino_core::params::SearchShape;
use kamino_core::train::{count_marginal_releases, count_sgd_models};
use kamino_core::{
    active_dcs_by_position, learn_weights, search_params_with_obs, sequence_attrs, train_model,
    FittedKamino, KaminoConfig, PhaseTimings, TrainConfig, WeightConfig,
};
use kamino_data::{AttrKind, Instance, Schema, Value};
use kamino_datasets::Dataset;
use kamino_obs::ObsHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::now;
use crate::trace::Tracer;
use crate::Layers;

/// Replays a fit one phase at a time — sequencing, the planner's σ
/// search, DP-SGD training, weight learning — timing each call. Returns
/// whether the replayed sequence and achieved ε match `fitted`.
pub fn fit_phases(
    tr: &mut Tracer,
    data: &Dataset,
    cfg: &KaminoConfig,
    fitted: &FittedKamino,
    layers: &mut Layers,
) -> bool {
    let (schema, inst, dcs) = (&data.schema, &data.instance, &data.dcs);
    let (sequence, t_seq) = tr.time("core.sequence", |_| sequence_attrs(schema, dcs));
    let sgd_models = count_sgd_models(schema, &sequence, cfg.large_domain_threshold);
    let shape = SearchShape {
        n: inst.n_rows(),
        n_sgd_models: sgd_models,
        n_marginal_releases: count_marginal_releases(schema, &sequence, cfg.large_domain_threshold),
        first_attr_domain: schema.attr(sequence[0]).domain_size(),
        weights_unknown: dcs.iter().any(|dc| dc.hardness == Hardness::Soft),
        train_scale: cfg.train_scale,
    };
    let (params, t_plan) = tr.time("dp.planner", |_| {
        search_params_with_obs(cfg.budget, shape, &ObsHandle::disabled())
    });
    let train_cfg = TrainConfig {
        embed_dim: cfg.embed_dim,
        lr: cfg.lr,
        batch: params.b,
        iters: params.t,
        clip: params.clip,
        sigma_g: params.sigma_g,
        sigma_d: params.sigma_d,
        parallel: cfg.parallel_training,
        microbatch_parallel: cfg.parallel_substrate,
        large_domain_threshold: cfg.large_domain_threshold,
        seed: cfg.seed,
    };
    let (model, t_train) = tr.time("core.train", |_| {
        train_model(schema, inst, &sequence, &train_cfg)
    });
    black_box(&model);
    let wcfg = WeightConfig {
        l_w: params.l_w,
        sigma_w: params.sigma_w,
        t_w: params.t_w,
        b_w: params.b_w,
        ..WeightConfig::default()
    };
    // kamino-lint: allow(raw_rng) -- only times learn_weights on a replay; the weights it returns are discarded and never reach an output
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (weights, t_w) = tr.time("core.weights", |_| {
        learn_weights(schema, inst, dcs, &sequence, &wcfg, &mut rng)
    });
    black_box(&weights);
    layers.set("core.sequence.s", t_seq);
    layers.set("dp.planner.s", t_plan);
    layers.set("core.train.s", t_train);
    layers.set("core.train.sgd_steps", (params.t * sgd_models) as f64);
    layers.set("core.weights.s", t_w);
    sequence == fitted.sequence && params.achieved_epsilon == fitted.achieved_epsilon()
}

/// A copy of `f` — same model, weights and stream cursor — whose config
/// carries `obs`, so its draws fill the sampler's fill/MCMC/repair
/// breakdown. Restored sessions come back with tracing off.
pub fn with_obs(f: &FittedKamino, obs: ObsHandle) -> FittedKamino {
    let m = f.model();
    let model = DataModel {
        sequence: m.sequence.clone(),
        first_dist: m.first_dist.clone(),
        store: m.store.clone(),
        submodels: m.submodels.clone(),
    };
    let mut cfg = f.config().clone();
    cfg.obs = obs;
    FittedKamino::from_parts(
        f.sequence.clone(),
        f.weights.clone(),
        f.params.clone(),
        PhaseTimings::default(),
        f.schema().clone(),
        f.dcs().to_vec(),
        model,
        cfg,
        f.n_input(),
        f.rng_state(),
    )
}

/// Snapshot encode/decode of `f`, then one traced draw of `rows` rows from
/// the decoded session, then the model, constraints and CSV replays over
/// the drawn instance. Returns the drawn instance.
pub fn sample_layers(
    tr: &mut Tracer,
    f: &FittedKamino,
    rows: usize,
    obs: &ObsHandle,
    layers: &mut Layers,
) -> Result<Instance, String> {
    let (bytes, t_enc) = tr.time("serve.snapshot.encode", |_| kamino_serve::encode_fitted(f));
    let (decoded, t_dec) = tr.time("serve.snapshot.decode", |_| {
        kamino_serve::decode_fitted(&bytes)
    });
    let decoded = decoded.map_err(|e| format!("snapshot does not decode: {e}"))?;
    layers.set("serve.snapshot.encode_s", t_enc);
    layers.set("serve.snapshot.decode_s", t_dec);
    layers.set("serve.snapshot.bytes", bytes.len() as f64);

    let mut session = with_obs(&decoded, obs.clone());
    let (inst, t_draw) = tr.time("core.sampler", |_| session.sample(rows));
    layers.set("core.sampler.draw_s", t_draw);
    layers.set(
        "core.sampler.fill_s",
        session.timings.sample_fill.as_secs_f64(),
    );
    layers.set(
        "core.sampler.mcmc_s",
        session.timings.sample_mcmc.as_secs_f64(),
    );
    layers.set("core.sampler.rows", inst.n_rows() as f64);

    let ((secs, predicts), _) =
        tr.time("core.model", |_| model_replay(f.model(), f.schema(), &inst));
    layers.set("core.model.predict_s", secs);
    layers.set("core.model.predicts", predicts as f64);

    let parallel = f.config().parallel_substrate;
    let (c, _) = tr.time("constraints", |_| {
        constraints_replay(f.schema(), f.model(), f.dcs(), &f.weights, &inst, parallel)
    });
    layers.set("constraints.score_s", c.score_s);
    layers.set("constraints.insert_s", c.insert_s);
    layers.set("constraints.scan_rows_visited", c.scan_rows as f64);
    layers.set("constraints.fd_probes", c.fd_probes as f64);
    layers.set(
        "constraints.zero_weight_scan_ratio",
        if c.scan_rows == 0 {
            0.0
        } else {
            c.zero_weight_scan_rows as f64 / c.scan_rows as f64
        },
    );

    let (csv, t_csv) = tr.time("data.csv", |_| {
        kamino_data::csv::rows_text(f.schema(), &inst)
    });
    let csv = csv.map_err(|e| format!("drawn rows do not encode: {e}"))?;
    layers.set("data.csv.encode_s", t_csv);
    layers.set("data.csv.bytes", csv.len() as f64);
    Ok(inst)
}

/// Re-predicts every drawn cell (sequence positions ≥ 1) from its row's
/// prefix through `DataModel::submodel_at(j)`, as the sampler does once
/// per cell. Returns (seconds inside the predict calls, predicts made).
fn model_replay(model: &DataModel, schema: &Schema, inst: &Instance) -> (f64, u64) {
    let mut ns = 0u128;
    let mut predicts = 0u64;
    let mut ctx: Vec<Value> = Vec::new();
    for i in 0..inst.n_rows() {
        for j in 1..model.sequence.len() {
            let sm = model.submodel_at(j);
            ctx.clear();
            ctx.extend(model.sequence[..j].iter().map(|&a| inst.value(i, a)));
            let numeric = matches!(
                schema.attr(model.sequence[j]).kind,
                AttrKind::Numeric { .. }
            );
            let t0 = now();
            match (&sm.kind, numeric) {
                (SubModelKind::NoisyMarginal { .. }, true) => continue,
                (SubModelKind::Discriminative { .. }, true) => {
                    black_box(sm.predict_num(&model.store, &ctx));
                }
                (_, false) => {
                    black_box(sm.predict_cat(&model.store, &ctx));
                }
            }
            ns += t0.elapsed().as_nanos();
            predicts += 1;
        }
    }
    (ns as f64 / 1e9, predicts)
}

/// What the constraints replay measured.
struct ConstraintWork {
    score_s: f64,
    insert_s: f64,
    scan_rows: u64,
    zero_weight_scan_rows: u64,
    fd_probes: u64,
}

/// Largest categorical candidate set the sampler scores per cell.
const MAX_CAT_CANDIDATES: usize = 64;
/// Numeric candidates the sampler scores per cell (`d_candidates`).
const NUM_CANDIDATES: usize = 10;

/// Rebuilds the sampler's per-column DC state over the drawn instance:
/// for each sequence position, `ScoreSet::build` over its active DCs, then
/// for each row a batch score of a sampler-sized candidate set (the
/// committed value plus fixed alternatives) and an insert of the committed
/// row. Work counts come from the scorers: rows a `Scan` scorer visits per
/// candidate (`DcScorer::scan_cost`) and hash probes an `Fd` scorer makes.
fn constraints_replay(
    schema: &Schema,
    model: &DataModel,
    dcs: &[kamino_constraints::DenialConstraint],
    weights: &[f64],
    inst: &Instance,
    parallel: bool,
) -> ConstraintWork {
    let mut w = ConstraintWork {
        score_s: 0.0,
        insert_s: 0.0,
        scan_rows: 0,
        zero_weight_scan_rows: 0,
        fd_probes: 0,
    };
    let (mut score_ns, mut insert_ns) = (0u128, 0u128);
    let active = active_dcs_by_position(&model.sequence, dcs);
    let mut out = Vec::new();
    for (j, active_j) in active.iter().enumerate() {
        let target = model.sequence[j];
        let mut scores = ScoreSet::build(active_j, dcs);
        let alternatives = candidate_grid(schema, target);
        let mut values = Vec::with_capacity(alternatives.len() + 1);
        for i in 0..inst.n_rows() {
            let committed = inst.value(i, target);
            values.clear();
            values.push(committed);
            values.extend(
                alternatives
                    .iter()
                    .filter(|v| v.compare(committed) != std::cmp::Ordering::Equal)
                    .take(alternatives.len() - 1),
            );
            let k = values.len() as u64;
            for (l, c) in scores.iter() {
                match c.scorer() {
                    DcScorer::Scan(_) => {
                        let rows = c.scorer().scan_cost() as u64 * k;
                        w.scan_rows += rows;
                        if weights[l] == 0.0 {
                            w.zero_weight_scan_rows += rows;
                        }
                    }
                    DcScorer::Fd(_) => w.fd_probes += k,
                    DcScorer::Unary(_) => {}
                }
            }
            let t0 = now();
            scores.score_candidates_into(
                CellContext::new(inst, i, target),
                &values,
                weights,
                parallel,
                &mut out,
            );
            black_box(&out);
            let t1 = now();
            scores.insert(&CandidateRow::committed(inst, i, target));
            insert_ns += t1.elapsed().as_nanos();
            score_ns += (t1 - t0).as_nanos();
        }
    }
    w.score_s = score_ns as f64 / 1e9;
    w.insert_s = insert_ns as f64 / 1e9;
    w
}

/// The fixed alternatives scored beside each committed value: the first
/// codes of a categorical domain (all of it when it has at most
/// [`MAX_CAT_CANDIDATES`] codes), or evenly spaced points of a numeric
/// range.
fn candidate_grid(schema: &Schema, attr: usize) -> Vec<Value> {
    match &schema.attr(attr).kind {
        AttrKind::Categorical { labels } => (0..labels.len().min(MAX_CAT_CANDIDATES))
            .map(|c| Value::Cat(c as u32))
            .collect(),
        AttrKind::Numeric { min, max, .. } => (0..NUM_CANDIDATES)
            .map(|k| Value::Num(min + (max - min) * k as f64 / (NUM_CANDIDATES - 1) as f64))
            .collect(),
    }
}
