//! The end-to-end Kamino pipeline (Algorithm 1).

use std::time::Duration;

use kamino_constraints::{DenialConstraint, Hardness};
use kamino_data::{Instance, Schema};
use kamino_dp::Budget;
use kamino_obs::ObsHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::params::{search_params_with_obs, PrivacyParams, SearchShape};
use crate::sampler::synthesize;
use crate::sequence::{random_sequence, sequence_attrs};
use crate::train::{count_marginal_releases, count_sgd_models, train_model, TrainConfig};
use crate::weights::{learn_weights, WeightConfig, HARD_WEIGHT};

/// Configuration for one end-to-end Kamino run. Use
/// [`KaminoConfig::new`] and adjust fields; defaults match the paper's
/// setup at harness scale.
#[derive(Debug, Clone)]
pub struct KaminoConfig {
    /// The privacy budget (ε, δ); [`Budget::non_private`] for ε = ∞.
    pub budget: Budget,
    /// RNG seed — every source of randomness derives from it.
    pub seed: u64,
    /// Embedding dimension `d`.
    pub embed_dim: usize,
    /// Learning rate `η`.
    pub lr: f64,
    /// Candidate-set size `d` for continuous targets.
    pub d_candidates: usize,
    /// MCMC re-sampling amount as a fraction of `n` (`m = ratio·n`,
    /// Experiment 9's x-axis).
    pub mcmc_ratio: f64,
    /// Train sub-models in parallel with private embeddings (Exp. 10).
    pub parallel_training: bool,
    /// Constraint-aware sampling on/off (off = "RandSampling").
    pub constraint_aware_sampling: bool,
    /// Constraint-aware sequencing on/off (off = "RandSequence").
    pub constraint_aware_sequencing: bool,
    /// Hard-FD lookup fast path (Exp. 10).
    pub hard_fd_lookup: bool,
    /// Use accept–reject sampling instead of Algorithm 3 (Exp. 6).
    pub ar_sampling: bool,
    /// Has no effect: every fit and draw runs the serial scoring and
    /// DP-SGD kernels. Kept only because the benchmark package still sets
    /// it; it goes when that package stops naming it. Snapshots still
    /// encode it and [`KaminoConfig::stable_hash`] normalizes it, so
    /// `.kamino` bytes and cache keys do not depend on it.
    pub parallel_substrate: bool,
    /// Scales the DP-SGD iteration range of Algorithm 6 (quality knob for
    /// harness runs; always privacy-safe).
    pub train_scale: f64,
    /// Rows to synthesize (`None` = same as the input instance).
    pub output_n: Option<usize>,
    /// Domain-size threshold for the §4.3 noisy-marginal fallback.
    pub large_domain_threshold: usize,
    /// Has no effect: every draw runs the one sequential Algorithm 3
    /// sampler. Kept only because the benchmark package still sets it; it
    /// goes when that package stops naming it. Snapshots write a constant
    /// `1` in its slot and ignore what old files hold there, so `.kamino`
    /// bytes and cache keys do not depend on it.
    pub shards: usize,
    /// Observability handle: spans, metrics and the DP budget ledger.
    /// Disabled by default, and strictly off the determinism contract —
    /// never encoded into snapshots or [`KaminoConfig::stable_hash`], and
    /// enabling it changes no RNG stream or output byte.
    pub obs: ObsHandle,
}

impl KaminoConfig {
    /// Defaults for the given budget.
    pub fn new(budget: Budget) -> KaminoConfig {
        KaminoConfig {
            budget,
            seed: 0,
            embed_dim: 16,
            lr: 0.05,
            d_candidates: 10,
            mcmc_ratio: 0.0,
            parallel_training: false,
            constraint_aware_sampling: true,
            constraint_aware_sequencing: true,
            hard_fd_lookup: false,
            ar_sampling: false,
            parallel_substrate: true,
            train_scale: 1.0,
            output_n: None,
            large_domain_threshold: 256,
            shards: 1,
            obs: ObsHandle::disabled(),
        }
    }

    /// A stable 64-bit fingerprint of every knob that can change the
    /// fitted model or its deterministic sample stream: FNV-1a over the
    /// config's snapshot encoding (the fields
    /// [`crate::snapshot::encode_config`] persists), with
    /// `parallel_substrate` (which has no effect) normalized out first;
    /// the encoding already writes `shards` as a constant. Snapshot
    /// caches (the `kamino-repro` harness) key on this, so equal hashes
    /// mean a cached fit is interchangeable with a fresh one. Note the corpus
    /// itself is an input to the fit, not a config field — cache keys
    /// must add it (rows, generator seed) alongside this hash.
    pub fn stable_hash(&self) -> u64 {
        let mut normalized = self.clone();
        normalized.parallel_substrate = true;
        let mut w = kamino_data::wire::ByteWriter::new();
        crate::snapshot::encode_config(&normalized, &mut w);
        kamino_data::wire::fnv1a64(&w.into_bytes())
    }
}

/// Wall-clock time per pipeline phase — the series of Figure 7, extended
/// with the sample-side breakdown of Algorithm 3 (fill / constrained
/// MCMC). Every field is the duration of the
/// [`KaminoConfig::obs`] span named beside it (the sampling fields summed
/// across [`FittedKamino::sample`] calls), so with a disabled handle every
/// field is zero and no clock is read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// `fit.sequencing`: Algorithm 4 (+ Algorithm 6 parameter search).
    pub sequencing: Duration,
    /// `fit.training`: Algorithm 2 (model training).
    pub training: Duration,
    /// `fit.dc_weights`: violation matrix + Algorithm 5.
    pub dc_weights: Duration,
    /// `sample`: Algorithm 3 / accept–reject sampling, end to end.
    pub sampling: Duration,
    /// `sample.fill`: per-column fill passes (Algorithm 3 lines 4–11).
    pub sample_fill: Duration,
    /// `sample.mcmc`: constrained MCMC (Algorithm 3 line 12).
    pub sample_mcmc: Duration,
}

impl PhaseTimings {
    /// Total end-to-end time. The sample-side fields are a breakdown of
    /// `sampling`, not an addition to it.
    pub fn total(&self) -> Duration {
        self.sequencing + self.training + self.dc_weights + self.sampling
    }
}

/// Everything a Kamino run produces.
pub struct KaminoReport {
    /// The synthetic instance `D'`.
    pub instance: Instance,
    /// The schema sequence used.
    pub sequence: Vec<usize>,
    /// Final DC weights (aligned with the input DC list).
    pub weights: Vec<f64>,
    /// The privacy parameters Ψ selected by Algorithm 6.
    pub params: PrivacyParams,
    /// Per-phase wall-clock timings (Figure 7), read off the config's obs
    /// spans; all zero when [`KaminoConfig::obs`] is disabled.
    pub timings: PhaseTimings,
}

/// A trained synthesis session: everything Algorithm 1 produces *before*
/// sampling (lines 2–5), plus the RNG stream, so sampling can run many
/// times, in batches, without re-spending
/// the privacy budget. Synthesis from a trained model is post-processing:
/// it never touches the true instance, so every [`FittedKamino::sample`]
/// call is covered by the (ε, δ) spent at fit time.
///
/// Obtained from [`fit_kamino`]; the `kamino` facade wraps it in the
/// `Synthesizer` session API.
pub struct FittedKamino {
    /// The schema sequence used (Algorithm 4's output).
    pub sequence: Vec<usize>,
    /// Final DC weights (aligned with the DC list).
    pub weights: Vec<f64>,
    /// The privacy parameters Ψ selected by the planner-backed Algorithm 6.
    pub params: PrivacyParams,
    /// Span-derived fit timings plus the sampling phases summed over every
    /// [`FittedKamino::sample`] call; all zero while obs is disabled.
    pub timings: PhaseTimings,
    schema: Schema,
    dcs: Vec<DenialConstraint>,
    model: crate::model::DataModel,
    cfg: KaminoConfig,
    n_input: usize,
    rng: StdRng,
}

/// Runs Algorithm 1's lines 2–5: sequencing → parameter search → model
/// training → weight learning. The returned [`FittedKamino`] samples any
/// number of synthetic instances without further budget cost.
pub fn fit_kamino(
    schema: &Schema,
    instance: &Instance,
    dcs: &[DenialConstraint],
    cfg: &KaminoConfig,
) -> FittedKamino {
    let n = instance.n_rows();
    assert!(n > 0, "cannot synthesize from an empty instance");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4A31);
    let mut timings = PhaseTimings::default();
    let obs = &cfg.obs;
    let _fit_span = obs.span("fit");

    // Line 2: sequencing (Algorithm 4), line 3: parameter search
    // (Algorithm 6). Both are data-independent. Each phase's timing is
    // its span's duration — zero, with no clock read, when obs is off.
    let phase_span = obs.span("fit.sequencing");
    let sequence = if cfg.constraint_aware_sequencing {
        sequence_attrs(schema, dcs)
    } else {
        random_sequence(schema, &mut rng)
    };
    let weights_unknown = dcs.iter().any(|dc| dc.hardness == Hardness::Soft);
    let shape = SearchShape {
        n,
        n_sgd_models: count_sgd_models(schema, &sequence, cfg.large_domain_threshold),
        n_marginal_releases: count_marginal_releases(schema, &sequence, cfg.large_domain_threshold),
        first_attr_domain: schema.attr(sequence[0]).domain_size(),
        weights_unknown,
        train_scale: cfg.train_scale,
    };
    let plan_span = obs.span("fit.plan");
    let params = search_params_with_obs(cfg.budget, shape, obs);
    drop(plan_span);
    timings.sequencing = phase_span.finish();

    // Line 4: TrainModel (Algorithm 2).
    let phase_span = obs.span("fit.training");
    let train_cfg = TrainConfig {
        embed_dim: cfg.embed_dim,
        lr: cfg.lr,
        batch: params.b,
        iters: params.t,
        clip: params.clip,
        sigma_g: params.sigma_g,
        sigma_d: params.sigma_d,
        parallel: cfg.parallel_training,
        large_domain_threshold: cfg.large_domain_threshold,
        seed: cfg.seed,
        ..TrainConfig::default()
    };
    let model = train_model(schema, instance, &sequence, &train_cfg);
    timings.training = phase_span.finish();

    // Line 5: LearnWeight (Algorithm 5).
    let phase_span = obs.span("fit.dc_weights");
    let weights = if weights_unknown {
        let wcfg = WeightConfig {
            l_w: params.l_w,
            sigma_w: params.sigma_w,
            t_w: params.t_w,
            b_w: params.b_w,
            ..WeightConfig::default()
        };
        learn_weights(schema, instance, dcs, &sequence, &wcfg, &mut rng)
    } else {
        vec![HARD_WEIGHT; dcs.len()]
    };
    timings.dc_weights = phase_span.finish();

    FittedKamino {
        sequence,
        weights,
        params,
        timings,
        schema: schema.clone(),
        dcs: dcs.to_vec(),
        model,
        cfg: cfg.clone(),
        n_input: n,
        rng,
    }
}

impl FittedKamino {
    /// The ε the fit actually spent at the budget's δ.
    pub fn achieved_epsilon(&self) -> f64 {
        self.params.achieved_epsilon
    }

    /// The DC list the session samples under (snapshot support).
    pub fn dcs(&self) -> &[DenialConstraint] {
        &self.dcs
    }

    /// The trained data model `M` (snapshot support).
    pub fn model(&self) -> &crate::model::DataModel {
        &self.model
    }

    /// The pipeline configuration the session was fitted with (snapshot
    /// support).
    pub fn config(&self) -> &KaminoConfig {
        &self.cfg
    }

    /// The session RNG's cursor — the exact generator state the next
    /// [`FittedKamino::sample`] call will consume. Persisting it is what
    /// makes a reloaded session continue the deterministic sample stream
    /// where the saved one stopped.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Reassembles a session from persisted parts (snapshot support).
    /// `rng_state` positions the sample stream; everything else matches
    /// the fields [`fit_kamino`] produces.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        sequence: Vec<usize>,
        weights: Vec<f64>,
        params: PrivacyParams,
        timings: PhaseTimings,
        schema: Schema,
        dcs: Vec<DenialConstraint>,
        model: crate::model::DataModel,
        cfg: KaminoConfig,
        n_input: usize,
        rng_state: [u64; 4],
    ) -> FittedKamino {
        FittedKamino {
            sequence,
            weights,
            params,
            timings,
            schema,
            dcs,
            model,
            cfg,
            n_input,
            rng: StdRng::from_state(rng_state),
        }
    }

    /// Rewinds (or fast-forwards) the sample stream to a previously
    /// captured [`FittedKamino::rng_state`] cursor. The serving layer
    /// uses this to discard speculatively pre-drawn batches: restoring
    /// the state captured before a draw makes the session behave as if
    /// that draw never happened, keeping pooled and direct sample
    /// streams bit-identical.
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Routes the spans and metrics of subsequent
    /// [`FittedKamino::sample`] calls to `obs`. Snapshots never carry a
    /// handle, so a serving layer attaches its own to every model it
    /// loads from disk; the sample stream is unaffected either way.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.cfg.obs = obs;
    }

    /// The schema this session synthesizes for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows in the true instance the session was fitted on.
    pub fn n_input(&self) -> usize {
        self.n_input
    }

    /// Synthesizes `n` rows through [`synthesize`] under the session's
    /// config (Algorithm 3, RandSampling or the Exp. 6 accept–reject
    /// rule), advancing the session's RNG stream. Pure post-processing:
    /// spends no additional budget.
    pub fn sample(&mut self, n: usize) -> Instance {
        let mut span = self.cfg.obs.span("sample");
        if span.is_active() {
            span.arg("n", n.to_string());
        }
        let inst = synthesize(
            &self.schema,
            &self.model,
            &self.dcs,
            &self.weights,
            &self.cfg,
            n,
            &mut self.rng,
            &mut self.timings,
        );
        self.timings.sampling += span.finish();
        inst
    }
}

/// Runs Kamino end-to-end (Algorithm 1): sequencing → parameter search →
/// model training → weight learning → constraint-aware sampling.
pub fn run_kamino(
    schema: &Schema,
    instance: &Instance,
    dcs: &[DenialConstraint],
    cfg: &KaminoConfig,
) -> KaminoReport {
    let mut fitted = fit_kamino(schema, instance, dcs, cfg);

    // Line 6: Synthesize.
    let out_n = cfg.output_n.unwrap_or(fitted.n_input);
    let instance_out = fitted.sample(out_n);

    KaminoReport {
        instance: instance_out,
        sequence: fitted.sequence,
        weights: fitted.weights,
        params: fitted.params,
        timings: fitted.timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::tests::digest;
    use kamino_constraints::violation_percentage;
    use kamino_datasets::{adult_like, br2000_like, tax_like};

    fn fast_cfg(budget: Budget, seed: u64) -> KaminoConfig {
        let mut cfg = KaminoConfig::new(budget);
        cfg.train_scale = 0.02;
        cfg.embed_dim = 8;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn end_to_end_private_run_preserves_hard_dcs() {
        let d = adult_like(400, 1);
        let cfg = fast_cfg(Budget::new(1.0, 1e-6), 2);
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert_eq!(report.instance.n_rows(), 400);
        assert!(report.params.achieved_epsilon <= 1.0);
        for dc in &d.dcs {
            let pct = violation_percentage(dc, &report.instance);
            assert_eq!(pct, 0.0, "hard DC {} violated: {pct}%", dc.name);
        }
        // every weight is the hard weight
        assert!(report.weights.iter().all(|w| w.is_infinite()));
    }

    #[test]
    fn soft_dcs_learn_weights_end_to_end() {
        // Soft-DC tracking needs a model that actually learned the
        // concordance structure, so run non-privately at a workable n (the
        // private regime at realistic n is exercised by the bench harness).
        let d = br2000_like(500, 3);
        let mut cfg = fast_cfg(Budget::non_private(), 4);
        cfg.train_scale = 1.0;
        cfg.lr = 0.3;
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert_eq!(report.weights.len(), 3);
        assert!(
            report.weights.iter().all(|w| w.is_finite()),
            "soft weights must be finite"
        );
        // soft regime: violations allowed but far below the i.i.d. level
        for dc in &d.dcs {
            let pct = violation_percentage(dc, &report.instance);
            assert!(
                pct < 15.0,
                "soft DC {} at {pct}% — far outside the soft regime",
                dc.name
            );
        }
    }

    #[test]
    fn ablation_switches_are_honored() {
        let d = adult_like(250, 5);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 6);
        cfg.constraint_aware_sequencing = false;
        cfg.constraint_aware_sampling = false;
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        // RandBoth still produces a full instance
        assert_eq!(report.instance.n_rows(), 250);
        // the random sequence is still a permutation
        let mut seq = report.sequence.clone();
        seq.sort_unstable();
        assert_eq!(seq, (0..d.schema.len()).collect::<Vec<_>>());
    }

    #[test]
    fn output_n_controls_size() {
        let d = adult_like(200, 7);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 8);
        cfg.output_n = Some(90);
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert_eq!(report.instance.n_rows(), 90);
    }

    #[test]
    fn timings_are_populated() {
        let d = adult_like(200, 9);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 10);
        cfg.obs = ObsHandle::enabled();
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert!(report.timings.training > Duration::ZERO);
        assert!(report.timings.sampling > Duration::ZERO);
        assert!(report.timings.sample_fill > Duration::ZERO);
        assert!(report.timings.total() >= report.timings.training);

        // a disabled handle reads no clock: every field stays zero
        cfg.obs = ObsHandle::disabled();
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert_eq!(report.timings, PhaseTimings::default());
    }

    #[test]
    fn non_private_run_works() {
        let d = adult_like(200, 11);
        let cfg = fast_cfg(Budget::non_private(), 12);
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert!(report.params.non_private);
        for dc in &d.dcs {
            assert_eq!(violation_percentage(dc, &report.instance), 0.0);
        }
    }

    #[test]
    fn ar_sampling_path_runs() {
        let d = adult_like(200, 13);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 14);
        cfg.ar_sampling = true;
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert_eq!(report.instance.n_rows(), 200);
    }

    /// Pins `run_kamino`'s output for every sampling rule on three
    /// corpora: {Algorithm 3, MCMC 0.3 + hard-FD lookup, RandSampling} ×
    /// {accept–reject off, on}. Any change to a cell decision or to the
    /// RNG stream of any rule moves a digest.
    #[test]
    fn every_sampling_rule_output_is_pinned() {
        let corpora = [
            ("tax", tax_like(300, 5)),
            ("adult", adult_like(300, 6)),
            ("br2000", br2000_like(300, 7)),
        ];
        // (name, mcmc_ratio, hard_fd_lookup, constraint_aware_sampling)
        let rules = [
            ("default", 0.0, false, true),
            ("mcmc+fd", 0.3, true, true),
            ("rand", 0.0, false, false),
        ];
        let mut got = Vec::new();
        for (corpus, d) in &corpora {
            for (rule, mcmc_ratio, hard_fd_lookup, aware) in rules {
                for ar in [false, true] {
                    let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 19);
                    cfg.mcmc_ratio = mcmc_ratio;
                    cfg.hard_fd_lookup = hard_fd_lookup;
                    cfg.constraint_aware_sampling = aware;
                    cfg.ar_sampling = ar;
                    let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
                    got.push((corpus, rule, ar, digest(&report.instance)));
                }
            }
        }
        let want: [u64; 18] = [
            // tax: {default, mcmc+fd, rand} × {AR off, AR on}
            0xabd5_7f62_f05a_2e26,
            0xcf46_434a_503a_1cf8,
            0xf40e_04e2_7790_6a40,
            0xcf46_434a_503a_1cf8,
            0x3493_eae2_5181_7de0,
            0xcf46_434a_503a_1cf8,
            // adult: {default, mcmc+fd, rand} × {AR off, AR on}
            0x121c_567a_8dfd_7195,
            0x7c5d_5112_784e_72d4,
            0xec23_6ce4_fd7f_2d0b,
            0x7c5d_5112_784e_72d4,
            0xb1be_040e_238d_1f74,
            0x7c5d_5112_784e_72d4,
            // br2000: {default, mcmc+fd, rand} × {AR off, AR on}
            0x4d41_7c18_e881_8cf1,
            0xdacd_5c06_fb5c_5086,
            0xd61f_c3fd_217e_2678,
            0xdacd_5c06_fb5c_5086,
            0x4d41_7c18_e881_8cf1,
            0xdacd_5c06_fb5c_5086,
        ];
        let digests: Vec<u64> = got.iter().map(|g| g.3).collect();
        assert_eq!(digests, want, "sampled output drifted: {got:#x?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = adult_like(150, 15);
        let cfg = fast_cfg(Budget::new(1.0, 1e-6), 16);
        let a = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let b = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        assert_eq!(a.instance, b.instance);
    }

    #[test]
    fn stable_hash_tracks_model_affecting_knobs() {
        let a = fast_cfg(Budget::new(1.0, 1e-6), 2);
        let b = fast_cfg(Budget::new(1.0, 1e-6), 2);
        assert_eq!(a.stable_hash(), b.stable_hash(), "equal configs must agree");
        let mut c = fast_cfg(Budget::new(1.0, 1e-6), 3);
        assert_ne!(
            a.stable_hash(),
            c.stable_hash(),
            "seed must change the hash"
        );
        c.seed = 2;
        assert_eq!(a.stable_hash(), c.stable_hash());
        c.budget = Budget::new(0.5, 1e-6);
        assert_ne!(
            a.stable_hash(),
            c.stable_hash(),
            "budget must change the hash"
        );
        // the no-op knobs are normalized out: a cached fit is
        // interchangeable regardless of either
        c.budget = Budget::new(1.0, 1e-6);
        c.shards = 8;
        c.parallel_substrate = false;
        assert_eq!(
            a.stable_hash(),
            c.stable_hash(),
            "shards/substrate must not change the hash"
        );
    }

    #[test]
    fn soft_dc_violation_rates_tracked() {
        // Requirement R1: synthetic violation profile ≈ truth profile.
        // With the BR2000-like generator the truth rates are sub-percent;
        // check the synthetic rates stay in a comparable (small) regime.
        let d = br2000_like(500, 17);
        let mut cfg = fast_cfg(Budget::non_private(), 18);
        cfg.train_scale = 1.0;
        cfg.lr = 0.3;
        let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        for dc in &d.dcs {
            let truth = violation_percentage(dc, &d.instance);
            let synth = violation_percentage(dc, &report.instance);
            assert!(
                synth <= (truth + 2.0) * 5.0,
                "DC {}: synth {synth}% vs truth {truth}% — not in the same regime",
                dc.name
            );
        }
    }
}
