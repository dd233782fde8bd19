//! Constraint-aware database sampling (Algorithm 3).
//!
//! Synthesis walks the schema sequence; for each attribute `S[j]` it fills
//! all `n` cells in tuple order. A candidate value `v` for cell
//! `t_i[S[j]]` is drawn with probability
//!
//! ```text
//! P[v] ∝ p_{v|c} · exp(−Σ_{φ ∈ Φ_{S[j]}} w_φ · |V(φ, t_i[S_:j]=c ∧ t_i[S[j]]=v | D'_:i)|)
//! ```
//!
//! where `p_{v|c}` comes from the learned sub-model and the violation
//! counts from the incremental [`DcCounter`]s. Hard DCs (`w = ∞`) zero the
//! probability of any violating candidate; if *every* candidate violates,
//! the sampler falls back to the candidate with the fewest violations
//! (breaking ties by model probability) rather than sampling uniformly
//! from garbage.
//!
//! [`synthesize`] is the one sampling engine. How a cell gets its value is
//! a rule chosen from the [`KaminoConfig`]:
//! * Algorithm 3 (the default), with the constrained MCMC step (line 12):
//!   after each column pass, `m = mcmc_ratio · n` random cells of that
//!   column are re-sampled conditioned on all other cells, using counter
//!   `remove`/`insert`; and the §7.3.6 hard-FD lookup fast path: when the
//!   attribute being sampled is the dependent of a hard FD and the
//!   determinant group already exists, the forced value is copied directly
//!   instead of scored;
//! * the "RandSampling" ablation (Experiment 5,
//!   `constraint_aware_sampling = false`): samples i.i.d. from the model;
//! * accept–reject sampling (Experiment 6, §7.3.2, `ar_sampling`): draw
//!   one value from the model and accept it with probability
//!   `exp(−Σ w_φ·vio_φ)`, retrying up to 300 times (`AR_MAX_TRIES`) and then
//!   keeping the last draw — which is how accept–reject ends up
//!   *producing* violations on hard-DC datasets. It runs no MCMC.
//!
//! Timings are span-derived: [`synthesize`] adds each column's
//! `sample.fill` / `sample.mcmc` span duration (from [`KaminoConfig::obs`])
//! to the matching [`PhaseTimings`] field, which gains zero with a
//! disabled handle.
//!
//! [`DcCounter`]: kamino_constraints::DcCounter

use std::time::Duration;

use kamino_constraints::{CandidateRow, CellContext, DenialConstraint, ScoreSet};
use kamino_data::stats::sample_weighted;
use kamino_data::{AttrKind, Instance, Quantizer, Schema, Value};
use kamino_obs::ObsHandle;
use rand::Rng;

use crate::model::{DataModel, SubModel, SubModelKind};
use crate::pipeline::{KaminoConfig, PhaseTimings};
use crate::sequence::active_dcs_by_position;

/// Runs `f` under the span `name` and adds the span's duration to `acc`.
/// With `obs` disabled the span is inert: no clock read, no allocation.
fn timed_phase<T>(
    obs: &ObsHandle,
    name: &'static str,
    column: usize,
    acc: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let mut span = obs.span(name);
    if span.is_active() {
        span.arg("column", column.to_string());
    }
    let out = f();
    *acc += span.finish();
    out
}

/// Documented ceiling (in percent of tuple pairs) for the *FD-cycle
/// residual*: when a hard FD's dependent precedes its determinant in the
/// synthesis sequence (e.g. Tax's `state` before `areacode`, TPC-H's
/// `custkey → nation`), a weakly trained conditional can bind determinant
/// groups to wrong dependents before rare values appear, leaving a small
/// hard-DC violation rate at harness scale even though the mechanism is
/// correct. Observed residuals sit around 2% (up to ≈2.15% across seeds
/// and planner revisions); every DC outside an FD cycle must be exactly
/// clean. Integration tests and the README cite this constant instead of
/// restating the number.
pub const FD_CYCLE_TOLERANCE_PCT: f64 = 2.5;

/// Cap on candidate values for very large categorical domains (§4.2's
/// "selected set of values of size d").
const MAX_CAT_CANDIDATES: usize = 64;

/// Model draws per cell before accept–reject keeps its last draw
/// (§7.3.2 uses 300).
const AR_MAX_TRIES: usize = 300;

/// Reusable buffers for the sampler's cell loop (a bump-style arena:
/// every buffer is cleared and refilled per cell, never freed), so the
/// `n × k` inner loop is allocation-free in steady state. One arena per
/// [`synthesize`] call. Purely a memory-reuse vehicle: no
/// RNG draws, value computations, or iteration orders change, which keeps
/// the sampled output bit-identical to the allocating implementation.
#[derive(Default)]
struct CellArena {
    /// Candidate set `(value, model probability)` for the current cell.
    candidates: Vec<(Value, f64)>,
    /// Candidate values split out for the batch scorer.
    values: Vec<Value>,
    /// Weighted violation penalties, aligned with `values`.
    penalties: Vec<f64>,
    /// Final sampling weights `p · exp(−penalty)` (also reused for the
    /// plain model probabilities on the constraint-unaware path).
    scored: Vec<f64>,
    /// Context-attribute values for the sub-model predictors.
    ctx: Vec<Value>,
    /// Scratch for top-k candidate selection over categorical domains.
    idx_buf: Vec<(usize, f64)>,
    /// Values the hard FDs on the target force, in counter order.
    forced: Vec<Value>,
}

/// Synthesizes `n` tuples from the trained model under `cfg`'s sampling
/// rule (Algorithm 3, RandSampling or accept–reject).
///
/// `weights` is aligned with `dcs`; hard DCs carry
/// [`crate::weights::HARD_WEIGHT`]. Per-column spans go through
/// `cfg.obs`, their durations added to `timings`' sample fields (zero,
/// with no clock read, when the handle is disabled). The instance does
/// not depend on `cfg.obs`.
#[allow(clippy::too_many_arguments)]
pub fn synthesize<R: Rng + ?Sized>(
    schema: &Schema,
    model: &DataModel,
    dcs: &[DenialConstraint],
    weights: &[f64],
    cfg: &KaminoConfig,
    n: usize,
    rng: &mut R,
    timings: &mut PhaseTimings,
) -> Instance {
    assert_eq!(dcs.len(), weights.len(), "one weight per DC");
    assert!(n > 0, "cannot synthesize an empty instance");
    let mcmc_resamples = if cfg.ar_sampling {
        0
    } else {
        (cfg.mcmc_ratio * n as f64).round() as usize
    };
    let k = model.sequence.len();
    let mut inst = Instance::zeroed(schema, n);
    let active = active_dcs_by_position(&model.sequence, dcs);
    let mut arena = CellArena::default();
    let mut cell = |inst: &Instance, j: usize, row: usize, scores: &ScoreSet, rng: &mut R| {
        let c = Cell {
            schema,
            model,
            j,
            inst,
            row,
            scores,
            weights,
        };
        if cfg.ar_sampling {
            accept_reject(&c, &mut arena, rng)
        } else {
            sample_cell(&c, cfg, &mut arena, rng)
        }
    };

    for (j, active_j) in active.iter().enumerate().take(k) {
        let target = model.sequence[j];
        let mut scores = ScoreSet::build(active_j, dcs);

        timed_phase(&cfg.obs, "sample.fill", j, &mut timings.sample_fill, || {
            for i in 0..n {
                let value = cell(&inst, j, i, &scores, rng);
                inst.set(i, target, value);
                scores.insert(&CandidateRow::committed(&inst, i, target));
            }
        });

        // Constrained MCMC (line 12): re-sample m random cells of this
        // column conditioned on everything else. Each site draw and its
        // candidate draws share one interleaved RNG stream, and every
        // site is re-scored through the same batch substrate as the main
        // pass. Accept–reject runs no MCMC.
        timed_phase(&cfg.obs, "sample.mcmc", j, &mut timings.sample_mcmc, || {
            for _ in 0..mcmc_resamples {
                let r = rng.gen_range(0..n);
                scores.remove(&CandidateRow::committed(&inst, r, target));
                let value = cell(&inst, j, r, &scores, rng);
                inst.set(r, target, value);
                scores.insert(&CandidateRow::committed(&inst, r, target));
            }
        });
    }
    inst
}

/// One cell being sampled: row `row` at sequence position `j`, against the
/// column's prefix counters.
struct Cell<'a> {
    schema: &'a Schema,
    model: &'a DataModel,
    j: usize,
    inst: &'a Instance,
    row: usize,
    scores: &'a ScoreSet,
    weights: &'a [f64],
}

impl Cell<'_> {
    fn target(&self) -> usize {
        self.model.sequence[self.j]
    }
}

/// Draws one cell value by Algorithm 3 or, for RandSampling
/// (`constraint_aware_sampling` off), by model probability alone.
fn sample_cell<R: Rng + ?Sized>(
    cell: &Cell<'_>,
    cfg: &KaminoConfig,
    arena: &mut CellArena,
    rng: &mut R,
) -> Value {
    let Cell {
        schema,
        inst,
        row,
        scores,
        weights,
        ..
    } = *cell;
    let target = cell.target();
    let constrained = cfg.constraint_aware_sampling && !scores.is_empty();

    // One probe of the hard counters before the candidate draw (none of
    // it reads the RNG): the values hard FDs on the target force, and the
    // feasible band hard strict-order DCs leave a numeric target. With
    // the hard-FD lookup fast path (§7.3.6), the first forced value is
    // copied as is.
    arena.forced.clear();
    let mut band = (f64::NEG_INFINITY, f64::INFINITY);
    let mut bounded = false;
    if constrained {
        let numeric = matches!(schema.attr(target).kind, AttrKind::Numeric { .. });
        let probe = CandidateRow::new(inst, row, target, placeholder_value(schema, target));
        for (l, c) in scores.iter() {
            if !weights[l].is_infinite() {
                continue;
            }
            if c.fd_rhs() == Some(target) {
                if let Some(v) = c.required_value(&probe) {
                    if cfg.hard_fd_lookup {
                        return v;
                    }
                    arena.forced.push(v);
                }
            }
            if numeric {
                if let Some((l_b, h_b)) = c.feasible_range(&probe, target) {
                    band = (band.0.max(l_b), band.1.min(h_b));
                    bounded = true;
                }
            }
        }
    }

    candidate_values(cell, cfg.d_candidates, arena, rng);
    let CellArena {
        candidates,
        values,
        penalties,
        scored,
        forced,
        ..
    } = arena;
    if !constrained {
        scored.clear();
        scored.extend(candidates.iter().map(|&(_, p)| p));
        return candidates[sample_weighted(scored, rng)].0;
    }

    // For hard FDs whose dependent is the attribute being sampled, the
    // only violation-free value is the one the determinant group already
    // carries. Continuous candidate sets almost never contain it by
    // chance, so inject it (this is the "selected set of values" of §4.2:
    // candidates the model alone would miss but the constraints demand).
    for &v in forced.iter() {
        if !candidates
            .iter()
            .any(|&(cv, _)| cv.compare(v) == std::cmp::Ordering::Equal)
        {
            // kamino-lint: allow(float_fold) -- max accumulator: 0.0 is the identity for max over non-negative values, not a sum seed
            let p = candidates.iter().map(|&(_, p)| p).fold(0.0, f64::max);
            candidates.push((v, p.max(1e-12)));
        }
    }

    // Hard strict-order DCs leave a closed feasible band [lo, hi] for a
    // numeric target; Gaussian candidates land outside it almost surely
    // once the prefix is long, so clamp them in (keeping the model's
    // within-band preferences). This is the order-DC analogue of the FD
    // value injection above.
    let (lo, hi) = band;
    if bounded && lo <= hi {
        let integer = matches!(
            schema.attr(target).kind,
            AttrKind::Numeric { integer: true, .. }
        );
        for (v, _) in candidates.iter_mut() {
            let clamped = v.num().clamp(lo, hi);
            let adjusted = if integer {
                let r = clamped.round();
                if (lo..=hi).contains(&r) {
                    r
                } else {
                    clamped
                }
            } else {
                clamped
            };
            *v = Value::Num(adjusted);
        }
    }

    // Score candidates: P[v] ∝ p_{v|c} · exp(−Σ w_φ·vio_φ). The whole
    // candidate set goes through batch scoring in one call, so the
    // scorer views are built once per cell.
    let ctx = CellContext::new(inst, row, target);
    values.clear();
    values.extend(candidates.iter().map(|&(v, _)| v));
    scores.score_candidates_into(ctx, values, weights, false, penalties);
    scored.clear();
    let mut best_fallback = (f64::INFINITY, f64::NEG_INFINITY, 0usize); // (penalty, p, idx)
    for (idx, (&(_, p), &penalty)) in candidates.iter().zip(penalties.iter()).enumerate() {
        scored.push(p * (-penalty).exp());
        if penalty < best_fallback.0 || (penalty == best_fallback.0 && p > best_fallback.1) {
            best_fallback = (penalty, p, idx);
        }
    }
    let total: f64 = scored.iter().sum();
    if total > 0.0 && total.is_finite() {
        candidates[sample_weighted(scored, rng)].0
    } else {
        // every candidate violates a hard DC: take the least-violating one
        candidates[best_fallback.2].0
    }
}

/// Draws one cell value by accept–reject: a model draw is kept with
/// probability `exp(−penalty)`; after [`AR_MAX_TRIES`] rejections the
/// last draw is kept even if it violates (the paper's behaviour).
fn accept_reject<R: Rng + ?Sized>(cell: &Cell<'_>, arena: &mut CellArena, rng: &mut R) -> Value {
    let mut last = model_draw(cell, &mut arena.ctx, rng);
    if cell.scores.is_empty() {
        return last;
    }
    for _ in 0..AR_MAX_TRIES {
        let cand = CandidateRow::new(cell.inst, cell.row, cell.target(), last);
        let accept = (-cell.scores.penalty(&cand, cell.weights)).exp();
        if accept >= 1.0 || rng.gen::<f64>() < accept {
            return last;
        }
        last = model_draw(cell, &mut arena.ctx, rng);
    }
    last
}

/// One value drawn from the model alone (no candidate set, no
/// constraint reweighting); `ctx` is scratch for the context values.
fn model_draw<R: Rng + ?Sized>(cell: &Cell<'_>, ctx: &mut Vec<Value>, rng: &mut R) -> Value {
    let Cell {
        schema, model, j, ..
    } = *cell;
    let attr = schema.attr(cell.target());
    let q = Quantizer::for_attr(attr);
    if j == 0 {
        let b = sample_weighted(&model.first_dist, rng);
        return q.sample_in_bin(b, rng);
    }
    let sm = model.submodel_at(j);
    fill_context(cell, ctx);
    match (&sm.kind, &attr.kind) {
        (SubModelKind::NoisyMarginal { dist }, _) => {
            let b = sample_weighted(dist, rng);
            q.sample_in_bin(b, rng)
        }
        (SubModelKind::Discriminative { .. }, AttrKind::Categorical { .. }) => {
            let p = sm.predict_cat(&model.store, ctx);
            Value::Cat(sample_weighted(&p, rng) as u32)
        }
        (SubModelKind::Discriminative { .. }, AttrKind::Numeric { .. }) => {
            let (mu, sigma) = sm.predict_num(&model.store, ctx);
            q.clamp(Value::Num(kamino_dp::normal::normal(
                rng,
                mu,
                sigma.max(1e-9),
            )))
        }
    }
}

/// Writes the cell's context-attribute values `t_i[S_:j]` into `ctx`
/// (cleared first).
fn fill_context(cell: &Cell<'_>, ctx: &mut Vec<Value>) {
    ctx.clear();
    ctx.extend(
        cell.model.sequence[..cell.j]
            .iter()
            .map(|&a| cell.inst.value(cell.row, a)),
    );
}

/// A schema-conformant placeholder for probing FD counters (the probe only
/// reads determinant attributes, never the target).
fn placeholder_value(schema: &Schema, attr: usize) -> Value {
    match schema.attr(attr).kind {
        AttrKind::Categorical { .. } => Value::Cat(0),
        AttrKind::Numeric { min, .. } => Value::Num(min),
    }
}

/// Builds the candidate set `D(S[j])` with model probabilities into
/// `arena.candidates` (cleared first; `arena.ctx`/`arena.idx_buf` serve as
/// scratch). Identical values and probabilities, in identical order, to
/// the old allocating form — candidate construction drives the RNG, so
/// order *is* part of the determinism contract.
fn candidate_values<R: Rng + ?Sized>(
    cell: &Cell<'_>,
    d_candidates: usize,
    arena: &mut CellArena,
    rng: &mut R,
) {
    let Cell {
        schema, model, j, ..
    } = *cell;
    let attr = schema.attr(cell.target());
    let q = Quantizer::for_attr(attr);
    let out = &mut arena.candidates;
    out.clear();

    // Position 0 draws from the released first-attribute distribution.
    if j == 0 {
        out.extend(
            (0..model.first_dist.len()).map(|b| (q.sample_in_bin(b, rng), model.first_dist[b])),
        );
        return;
    }

    let sm: &SubModel = model.submodel_at(j);
    fill_context(cell, &mut arena.ctx);
    let ctx = &arena.ctx;

    match (&sm.kind, &attr.kind) {
        (SubModelKind::NoisyMarginal { dist }, AttrKind::Categorical { .. }) => {
            top_k_into(dist, MAX_CAT_CANDIDATES, &mut arena.idx_buf);
            out.extend(
                arena
                    .idx_buf
                    .iter()
                    .map(|&(code, p)| (Value::Cat(code as u32), p)),
            );
        }
        (SubModelKind::NoisyMarginal { dist }, AttrKind::Numeric { .. }) => {
            out.extend((0..d_candidates).map(|_| {
                let b = sample_weighted(dist, rng);
                (q.sample_in_bin(b, rng), dist[b])
            }));
        }
        (SubModelKind::Discriminative { .. }, AttrKind::Categorical { .. }) => {
            let p = sm.predict_cat(&model.store, ctx);
            top_k_into(&p, MAX_CAT_CANDIDATES, &mut arena.idx_buf);
            out.extend(
                arena
                    .idx_buf
                    .iter()
                    .map(|&(code, p)| (Value::Cat(code as u32), p)),
            );
        }
        (SubModelKind::Discriminative { .. }, AttrKind::Numeric { .. }) => {
            let (mu, sigma) = sm.predict_num(&model.store, ctx);
            out.extend((0..d_candidates).map(|_| {
                let raw = kamino_dp::normal::normal(rng, mu, sigma.max(1e-9));
                let v = q.clamp(Value::Num(raw));
                // weight ∝ model density at the (clamped) candidate
                let z = (v.num() - mu) / sigma.max(1e-9);
                (v, (-0.5 * z * z).exp().max(1e-300))
            }));
        }
    }
}

/// The `k` most probable codes with their probabilities (all codes when
/// the domain is small), written into a reused buffer (cleared first).
/// The sort is stable and keyed only on the input, so buffer reuse cannot
/// change the selection.
fn top_k_into(dist: &[f64], k: usize, out: &mut Vec<(usize, f64)>) {
    out.clear();
    out.extend(dist.iter().copied().enumerate());
    if out.len() > k {
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out.truncate(k);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::train::{train_model, TrainConfig};
    use crate::weights::HARD_WEIGHT;
    use kamino_constraints::{count_violating_pairs, parse_dc, violation_percentage, Hardness};
    use kamino_data::stats::{histogram, normalize};
    use kamino_data::Attribute;
    use kamino_dp::Budget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::categorical_indexed("b", 3).unwrap(),
            Attribute::numeric("x", 0.0, 10.0, 5).unwrap(),
        ])
        .unwrap()
    }

    /// b == a; x increases with a.
    fn toy_instance(s: &Schema, n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = Instance::empty(s);
        for _ in 0..n {
            let a = rng.gen_range(0..3u32);
            let x = (3.0 * a as f64 + rng.gen::<f64>()).clamp(0.0, 10.0);
            inst.push_row(s, &[Value::Cat(a), Value::Cat(a), Value::Num(x)])
                .unwrap();
        }
        inst
    }

    /// The two categorical columns of [`schema`] alone (b == a).
    fn pair_schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::categorical_indexed("b", 3).unwrap(),
        ])
        .unwrap()
    }

    fn pair_instance(s: &Schema, n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = Instance::empty(s);
        for _ in 0..n {
            let a = rng.gen_range(0..3u32);
            inst.push_row(s, &[Value::Cat(a), Value::Cat(a)]).unwrap();
        }
        inst
    }

    fn trained_model(s: &Schema, inst: &Instance, iters: usize) -> DataModel {
        let cfg = TrainConfig {
            sigma_g: 0.0,
            sigma_d: 0.0,
            iters,
            lr: 0.2,
            ..TrainConfig::default()
        };
        train_model(s, inst, &(0..s.len()).collect::<Vec<_>>(), &cfg)
    }

    fn fd(s: &Schema) -> DenialConstraint {
        parse_dc(s, "fd", "!(t1.a == t2.a & t1.b != t2.b)", Hardness::Hard).unwrap()
    }

    /// The default sampling rule: Algorithm 3, no MCMC, no FD lookup.
    fn aware() -> KaminoConfig {
        KaminoConfig::new(Budget::non_private())
    }

    /// The accept–reject rule.
    fn accept_reject_cfg() -> KaminoConfig {
        let mut cfg = aware();
        cfg.ar_sampling = true;
        cfg
    }

    /// Draws `n` rows with a fresh RNG seeded by `seed`.
    fn draw(
        s: &Schema,
        model: &DataModel,
        dcs: &[DenialConstraint],
        weights: &[f64],
        cfg: &KaminoConfig,
        n: usize,
        seed: u64,
    ) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut timings = PhaseTimings::default();
        synthesize(s, model, dcs, weights, cfg, n, &mut rng, &mut timings)
    }

    #[test]
    fn synthesizes_right_shape_and_domains() {
        let s = schema();
        let truth = toy_instance(&s, 200, 1);
        let model = trained_model(&s, &truth, 50);
        let out = draw(&s, &model, &[], &[], &aware(), 150, 2);
        assert_eq!(out.n_rows(), 150);
        for i in 0..out.n_rows() {
            for j in 0..s.len() {
                assert!(s.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
    }

    #[test]
    fn constraint_aware_sampling_eliminates_fd_violations() {
        let s = schema();
        let truth = toy_instance(&s, 300, 3);
        // deliberately under-train so the raw model makes FD mistakes
        let model = trained_model(&s, &truth, 10);
        let dcs = vec![fd(&s)];
        let weights = vec![HARD_WEIGHT];
        let clean = draw(&s, &model, &dcs, &weights, &aware(), 250, 4);
        assert_eq!(
            count_violating_pairs(&dcs[0], &clean),
            0,
            "constraint-aware sampling left hard-FD violations"
        );
        // the ablation arm on the same under-trained model violates
        let mut cfg = aware();
        cfg.constraint_aware_sampling = false;
        let blind = draw(&s, &model, &dcs, &weights, &cfg, 250, 4);
        assert!(
            count_violating_pairs(&dcs[0], &blind) > 0,
            "ablation arm unexpectedly clean — test is vacuous"
        );
    }

    #[test]
    fn hard_fd_lookup_matches_constraint_semantics() {
        let s = schema();
        let truth = toy_instance(&s, 300, 5);
        let model = trained_model(&s, &truth, 10);
        let dcs = vec![fd(&s)];
        let weights = vec![HARD_WEIGHT];
        let mut cfg = aware();
        cfg.hard_fd_lookup = true;
        let out = draw(&s, &model, &dcs, &weights, &cfg, 250, 6);
        assert_eq!(count_violating_pairs(&dcs[0], &out), 0);
    }

    #[test]
    fn soft_weights_permit_some_violations() {
        let s = schema();
        let truth = toy_instance(&s, 300, 7);
        let model = trained_model(&s, &truth, 10);
        let dcs =
            vec![parse_dc(&s, "fd", "!(t1.a == t2.a & t1.b != t2.b)", Hardness::Soft).unwrap()];
        // near-zero weight ≈ unconstrained; hard weight ⇒ zero violations
        let loose = draw(&s, &model, &dcs, &[0.001], &aware(), 200, 8);
        let strict = draw(&s, &model, &dcs, &[HARD_WEIGHT], &aware(), 200, 8);
        let loose_v = count_violating_pairs(&dcs[0], &loose);
        let strict_v = count_violating_pairs(&dcs[0], &strict);
        assert_eq!(strict_v, 0);
        assert!(
            loose_v > 0,
            "weight 0.001 should behave like no constraint here"
        );
    }

    #[test]
    fn first_attribute_marginal_tracks_model() {
        let s = schema();
        let truth = toy_instance(&s, 400, 9);
        let model = trained_model(&s, &truth, 30);
        let out = draw(&s, &model, &[], &[], &aware(), 2_000, 10);
        let got = normalize(&histogram(&s, &out, 0));
        for (g, w) in got.iter().zip(&model.first_dist) {
            assert!(
                (g - w).abs() < 0.06,
                "marginal drift: {got:?} vs {:?}",
                model.first_dist
            );
        }
    }

    #[test]
    fn mcmc_preserves_hard_constraints() {
        let s = schema();
        let truth = toy_instance(&s, 300, 11);
        let model = trained_model(&s, &truth, 10);
        let dcs = vec![fd(&s)];
        let weights = vec![HARD_WEIGHT];
        let mut cfg = aware();
        cfg.mcmc_ratio = 2.0; // 2n re-samples per column
        let out = draw(&s, &model, &dcs, &weights, &cfg, 150, 12);
        assert_eq!(out.n_rows(), 150);
        assert_eq!(count_violating_pairs(&dcs[0], &out), 0);
    }

    #[test]
    fn unary_dc_respected() {
        let s = schema();
        let truth = toy_instance(&s, 300, 13);
        let model = trained_model(&s, &truth, 30);
        // forbid x > 8 outright
        let dcs = vec![parse_dc(&s, "u", "!(t1.x > 8)", Hardness::Hard).unwrap()];
        let out = draw(&s, &model, &dcs, &[HARD_WEIGHT], &aware(), 300, 14);
        for i in 0..out.n_rows() {
            assert!(out.num(i, 2) <= 8.0, "unary DC violated at row {i}");
        }
    }

    #[test]
    fn top_k_candidates_selects_mass() {
        let dist = vec![0.05, 0.4, 0.05, 0.3, 0.2];
        let mut top = Vec::new();
        top_k_into(&dist, 3, &mut top);
        let idxs: Vec<usize> = top.iter().map(|&(i, _)| i).collect();
        assert_eq!(idxs, vec![1, 3, 4]);
        // small domains pass through untouched, in order — reusing the
        // dirty buffer must not leak previous contents
        let mut all = top;
        top_k_into(&dist, 10, &mut all);
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], (0, 0.05));
    }

    #[test]
    fn deterministic_given_seed() {
        let s = schema();
        let truth = toy_instance(&s, 200, 15);
        let model = trained_model(&s, &truth, 20);
        let dcs = vec![fd(&s)];
        let w = vec![HARD_WEIGHT];
        let a = draw(&s, &model, &dcs, &w, &aware(), 100, 16);
        let b = draw(&s, &model, &dcs, &w, &aware(), 100, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn accept_reject_produces_valid_instances() {
        let s = pair_schema();
        let truth = pair_instance(&s, 200, 1);
        let m = trained_model(&s, &truth, 30);
        let out = draw(&s, &m, &[], &[], &accept_reject_cfg(), 120, 2);
        assert_eq!(out.n_rows(), 120);
        for i in 0..out.n_rows() {
            for j in 0..2 {
                assert!(s.attr(j).validate(out.value(i, j)).is_ok());
            }
        }
    }

    #[test]
    fn accept_reject_reduces_but_may_not_eliminate_hard_violations() {
        // an under-trained model + accept–reject with a bounded retry
        // budget can leave violations — the paper's headline observation
        // about accept–reject sampling
        let s = pair_schema();
        let truth = pair_instance(&s, 300, 3);
        let m = trained_model(&s, &truth, 5);
        let dcs = vec![fd(&s)];
        let weights = vec![HARD_WEIGHT];
        // unconstrained draw for reference
        let mut blind_cfg = aware();
        blind_cfg.constraint_aware_sampling = false;
        let blind = draw(&s, &m, &dcs, &weights, &blind_cfg, 200, 4);
        let ar = draw(&s, &m, &dcs, &weights, &accept_reject_cfg(), 200, 4);
        let blind_pct = violation_percentage(&dcs[0], &blind);
        let ar_pct = violation_percentage(&dcs[0], &ar);
        assert!(
            ar_pct < blind_pct,
            "AR ({ar_pct}%) should improve on unconstrained sampling ({blind_pct}%)"
        );
    }

    #[test]
    fn accept_reject_cleans_a_well_trained_model() {
        let s = pair_schema();
        let truth = pair_instance(&s, 300, 5);
        let m = trained_model(&s, &truth, 100);
        let dcs = vec![fd(&s)];
        let ar = draw(&s, &m, &dcs, &[HARD_WEIGHT], &accept_reject_cfg(), 150, 6);
        assert_eq!(count_violating_pairs(&dcs[0], &ar), 0);
    }

    #[test]
    fn accept_reject_deterministic_given_seed() {
        let s = pair_schema();
        let truth = pair_instance(&s, 150, 7);
        let m = trained_model(&s, &truth, 20);
        let a = draw(&s, &m, &[], &[], &accept_reject_cfg(), 80, 8);
        let b = draw(&s, &m, &[], &[], &accept_reject_cfg(), 80, 8);
        assert_eq!(a, b);
    }

    /// FNV-1a over every cell of `inst`, row-major: categorical codes
    /// and numeric bit patterns, little-endian.
    pub(crate) fn digest(inst: &Instance) -> u64 {
        let mut bytes = Vec::new();
        for i in 0..inst.n_rows() {
            for j in 0..inst.n_cols() {
                match inst.value(i, j) {
                    Value::Cat(c) => bytes.extend_from_slice(&c.to_le_bytes()),
                    Value::Num(x) => bytes.extend_from_slice(&x.to_bits().to_le_bytes()),
                }
            }
        }
        kamino_data::wire::fnv1a64(&bytes)
    }

    /// FNV-1a fingerprint of the sampler's output for a pinned seed. If
    /// the engine's RNG stream or any cell decision shifts, this hash
    /// moves. (Comparing two runs would only prove determinism; the pin
    /// catches a behaviour change too.)
    #[test]
    fn sequential_output_is_pinned() {
        let s = schema();
        let truth = toy_instance(&s, 200, 31);
        let model = trained_model(&s, &truth, 20);
        let dcs = vec![fd(&s)];
        let w = vec![HARD_WEIGHT];
        let mut cfg = aware();
        cfg.mcmc_ratio = 10.0 / 60.0; // 10 re-samples per column
        let out = draw(&s, &model, &dcs, &w, &cfg, 60, 32);
        let h = digest(&out);
        assert_eq!(
            h, 0x02bb_d1e8_fced_961c,
            "sequential sampler output drifted: {h:#018x}"
        );
    }
}
