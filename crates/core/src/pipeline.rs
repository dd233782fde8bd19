//! The end-to-end Kamino pipeline (Algorithm 1).

use std::time::Duration;

use kamino_constraints::{DenialConstraint, Hardness};
use kamino_data::{Instance, Schema};
use kamino_dp::Budget;
use kamino_obs::ObsHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::params::{search_params_with_obs, PrivacyParams, SearchShape};
use crate::sampler::{synthesize, SamplingRule};
use crate::sequence::{random_sequence, sequence_attrs};
use crate::train::{count_marginal_releases, count_sgd_models, train_model_with_obs, TrainConfig};
use crate::weights::{learn_weights, WeightConfig, HARD_WEIGHT};

/// The revision of the fit procedure: bump when an unchanged config fits
/// to different bytes (a new noise sampler, a reordered reduction).
/// [`KaminoConfig::stable_hash`] sees only the config, so a snapshot cache
/// keyed on it alone would serve models a stale build fitted; the
/// `kamino-repro` cache names this revision beside the hash. It is kept
/// out of `stable_hash` itself, which also keys the serving WAL's
/// `plan_hash`.
///
/// Revision 1: DP-SGD noise draws Marsaglia polar pairs through
/// [`kamino_dp::add_gaussian_noise`].
///
/// Revision 2: DP-SGD defers the noise of embedding-table rows: a row
/// draws the sum of its owed steps' noise as one Gaussian when a batch
/// next reads it and after the last step (see [`kamino_nn::optim`]), so
/// private fits draw a different noise stream. Non-private fits are
/// unchanged.
///
/// Revision 3: DP-SGD adds every clipped per-example gradient of a step
/// straight into one sum per parameter block, in batch order, instead of
/// merging 16-example partial sums, so the floating-point sums of
/// batches over 16 examples round differently, private or not.
pub const FIT_REVISION: u32 = 3;

/// The largest [`KaminoConfig::mcmc_ratio`] a fit or a decoded snapshot
/// accepts. A draw of `n` rows runs `ratio·n` MCMC re-samples per column,
/// so an unbounded ratio lets a config, or a crafted snapshot, stall a
/// draw indefinitely. Experiment 9 sweeps ratios 0–3.
pub const MAX_MCMC_RATIO: f64 = 10.0;

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
    /// MCMC re-sampling amount as a fraction of `n` (`m = ratio·n`,
    /// Experiment 9's x-axis), in `[0, MAX_MCMC_RATIO]`.
    /// [`SamplingRule::AcceptReject`] ignores it.
    pub mcmc_ratio: f64,
    /// Train sub-models in parallel with private embeddings (Exp. 10).
    pub parallel_training: bool,
    /// How the sampler draws each cell (Exp. 5, 6 and 10b vary it).
    pub sampling: SamplingRule,
    /// Constraint-aware sequencing on/off (off = "RandSequence").
    pub constraint_aware_sequencing: bool,
    /// Has no effect: every fit and draw runs the serial scoring and
    /// DP-SGD kernels. Kept only because the benchmark package still sets
    /// it; it goes when that package stops naming it. Snapshots do not
    /// encode it, so `.kamino` bytes and [`KaminoConfig::stable_hash`] do
    /// not depend on it.
    pub parallel_substrate: bool,
    /// Scales the DP-SGD iteration range of Algorithm 6 (quality knob for
    /// harness runs; always privacy-safe).
    pub train_scale: f64,
    /// Domain-size threshold for the §4.3 noisy-marginal fallback.
    pub large_domain_threshold: usize,
    /// Has no effect: every draw runs the one sequential Algorithm 3
    /// sampler. Kept only because the benchmark package still sets it; it
    /// goes when that package stops naming it. Snapshots do not encode
    /// it, so `.kamino` bytes and [`KaminoConfig::stable_hash`] do not
    /// depend on it.
    pub shards: usize,
    /// Observability handle: spans, metrics and the DP budget ledger.
    /// Disabled by default; never encoded into snapshots or
    /// [`KaminoConfig::stable_hash`]. Enabling it changes no RNG stream,
    /// weight or sampled row — only the span-derived [`PhaseTimings`],
    /// which snapshots store.
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
            mcmc_ratio: 0.0,
            parallel_training: false,
            sampling: SamplingRule::Algorithm3 {
                hard_fd_lookup: false,
            },
            constraint_aware_sequencing: true,
            parallel_substrate: true,
            train_scale: 1.0,
            large_domain_threshold: 256,
            shards: 1,
            obs: ObsHandle::disabled(),
        }
    }

    /// A stable 64-bit fingerprint of every knob that can change the
    /// fitted model or its deterministic sample stream: FNV-1a over the
    /// config's snapshot encoding, which holds exactly those fields (the
    /// no-op `parallel_substrate` and `shards` are not in it). Snapshot
    /// caches (the `kamino-repro` harness) key on this, so equal hashes
    /// mean a cached fit is interchangeable with a fresh one. Note the corpus
    /// itself is an input to the fit, not a config field — cache keys
    /// must add it (rows, generator seed) alongside this hash.
    pub fn stable_hash(&self) -> u64 {
        let mut w = kamino_data::wire::ByteWriter::new();
        crate::snapshot::encode_config(self, &mut w);
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

/// A trained synthesis session: everything Algorithm 1 produces *before*
/// sampling (lines 2–5), plus the RNG stream, so sampling can run many
/// times, in batches, without re-spending
/// the privacy budget. Synthesis from a trained model is post-processing:
/// it never touches the true instance, so every [`FittedKamino::sample`]
/// call is covered by the (ε, δ) spent at fit time.
///
/// Obtained from [`fit_kamino`]; `kamino_serve::{save_fitted,
/// load_fitted}` persist and restore it.
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
///
/// # Examples
///
/// Fit once, then stream 250 rows as three draws (100 + 100 + 50):
///
/// ```
/// use kamino_core::{fit_kamino, KaminoConfig};
/// use kamino_datasets::adult_like;
/// use kamino_dp::Budget;
///
/// let data = adult_like(300, 42);
/// let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
/// cfg.train_scale = 0.05; // doc-test speed; use 1.0 for real runs
/// cfg.seed = 7;
/// let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
///
/// assert!(session.achieved_epsilon() <= 1.0);
/// let rows: usize = [100, 100, 50].iter().map(|&n| session.sample(n).n_rows()).sum();
/// assert_eq!(rows, 250);
/// ```
pub fn fit_kamino(
    schema: &Schema,
    instance: &Instance,
    dcs: &[DenialConstraint],
    cfg: &KaminoConfig,
) -> FittedKamino {
    let n = instance.n_rows();
    assert!(n > 0, "cannot synthesize from an empty instance");
    assert!(cfg.train_scale > 0.0, "train scale must be positive");
    assert!(
        (0.0..=MAX_MCMC_RATIO).contains(&cfg.mcmc_ratio),
        "mcmc ratio must be nonnegative and finite, and at most {MAX_MCMC_RATIO}; got {}",
        cfg.mcmc_ratio
    );
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
    let model = train_model_with_obs(schema, instance, &sequence, &train_cfg, obs);
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
    /// [`KaminoConfig::sampling`] rule, advancing the session's RNG
    /// stream. Pure post-processing: spends no additional budget.
    /// `sample(0)` returns an empty instance and leaves the stream where
    /// it was.
    ///
    /// # Examples
    ///
    /// Successive draws continue one stream, so two equal-seeded
    /// sessions replay each other draw for draw:
    ///
    /// ```
    /// use kamino_core::{fit_kamino, KaminoConfig};
    /// use kamino_datasets::adult_like;
    /// use kamino_dp::Budget;
    ///
    /// let data = adult_like(120, 3);
    /// let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    /// cfg.train_scale = 0.02; // doc-test speed; use 1.0 for real runs
    /// cfg.seed = 5;
    /// let mut a = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
    /// let mut b = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
    ///
    /// assert_eq!(a.sample(50), b.sample(50));
    /// assert_eq!(a.sample(30), b.sample(30));
    /// assert_eq!(a.sample(30).n_rows(), 30);
    /// ```
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
        let mut fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let out = fitted.sample(400);
        assert_eq!(out.n_rows(), 400);
        assert!(fitted.params.achieved_epsilon <= 1.0);
        for dc in &d.dcs {
            let pct = violation_percentage(dc, &out);
            assert_eq!(pct, 0.0, "hard DC {} violated: {pct}%", dc.name);
        }
        // every weight is the hard weight
        assert!(fitted.weights.iter().all(|w| w.is_infinite()));
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
        let mut fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let out = fitted.sample(500);
        assert_eq!(fitted.weights.len(), 3);
        assert!(
            fitted.weights.iter().all(|w| w.is_finite()),
            "soft weights must be finite"
        );
        // soft regime: violations allowed but far below the i.i.d. level
        for dc in &d.dcs {
            let pct = violation_percentage(dc, &out);
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
        cfg.sampling = SamplingRule::RandSampling;
        let mut fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        // RandBoth still produces a full instance
        assert_eq!(fitted.sample(250).n_rows(), 250);
        // the random sequence is still a permutation
        let mut seq = fitted.sequence.clone();
        seq.sort_unstable();
        assert_eq!(seq, (0..d.schema.len()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "train scale must be positive")]
    fn zero_train_scale_is_refused() {
        let d = adult_like(50, 7);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 8);
        cfg.train_scale = 0.0;
        fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
    }

    #[test]
    #[should_panic(expected = "mcmc ratio must be nonnegative")]
    fn negative_mcmc_ratio_is_refused() {
        let d = adult_like(50, 7);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 8);
        cfg.mcmc_ratio = -0.1;
        fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
    }

    #[test]
    #[should_panic(expected = "mcmc ratio must be nonnegative and finite")]
    fn infinite_mcmc_ratio_is_refused() {
        let d = adult_like(50, 7);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 8);
        cfg.mcmc_ratio = f64::INFINITY;
        fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
    }

    #[test]
    #[should_panic(expected = "at most 10; got 1000000000")]
    fn mcmc_ratio_above_the_maximum_is_refused() {
        let d = adult_like(50, 7);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 8);
        cfg.mcmc_ratio = 1e9;
        fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
    }

    #[test]
    fn an_empty_draw_leaves_the_stream_where_it_was() {
        let d = adult_like(120, 23);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 24);
        cfg.mcmc_ratio = 0.5; // round(0.5 · 0) = 0 re-samples
        let mut a = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let mut b = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let before = a.rng_state();
        let empty = a.sample(0);
        assert_eq!((empty.n_rows(), empty.n_cols()), (0, d.schema.len()));
        assert_eq!(a.rng_state(), before);
        assert_eq!(a.sample(40), b.sample(40));
    }

    #[test]
    fn timings_are_populated() {
        let d = adult_like(200, 9);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 10);
        cfg.obs = ObsHandle::enabled();
        let mut fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        fitted.sample(200);
        let t = fitted.timings;
        assert!(t.training > Duration::ZERO);
        assert!(t.sampling > Duration::ZERO);
        assert!(t.sample_fill > Duration::ZERO);
        assert!(t.total() >= t.training);

        // a disabled handle reads no clock: every field stays zero
        cfg.obs = ObsHandle::disabled();
        let mut fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        fitted.sample(200);
        assert_eq!(fitted.timings, PhaseTimings::default());
    }

    #[test]
    fn non_private_run_works() {
        let d = adult_like(200, 11);
        let cfg = fast_cfg(Budget::non_private(), 12);
        let mut fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let out = fitted.sample(200);
        assert!(fitted.params.non_private);
        for dc in &d.dcs {
            assert_eq!(violation_percentage(dc, &out), 0.0);
        }
    }

    #[test]
    fn ar_sampling_path_runs() {
        let d = adult_like(200, 13);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 14);
        cfg.sampling = SamplingRule::AcceptReject;
        let out = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(200);
        assert_eq!(out.n_rows(), 200);
    }

    /// Pins a fit-then-`sample(n_input)` draw for every sampling rule on three
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
        // (name, mcmc_ratio, rule); each row also runs as accept–reject
        // at the same ratio, which that rule ignores
        let rules = [
            (
                "default",
                0.0,
                SamplingRule::Algorithm3 {
                    hard_fd_lookup: false,
                },
            ),
            (
                "mcmc+fd",
                0.3,
                SamplingRule::Algorithm3 {
                    hard_fd_lookup: true,
                },
            ),
            ("rand", 0.0, SamplingRule::RandSampling),
        ];
        let mut got = Vec::new();
        for (corpus, d) in &corpora {
            for (rule, mcmc_ratio, sampling) in rules {
                for ar in [false, true] {
                    let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 19);
                    cfg.mcmc_ratio = mcmc_ratio;
                    cfg.sampling = if ar {
                        SamplingRule::AcceptReject
                    } else {
                        sampling
                    };
                    let out = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(300);
                    got.push((corpus, rule, ar, digest(&out)));
                }
            }
        }
        let want: [u64; 18] = [
            // tax: {default, mcmc+fd, rand} × {AR off, AR on}
            0x2acb_33da_446b_c65b,
            0x0b56_ed72_5af1_a161,
            0x961c_7089_e035_ec5e,
            0x0b56_ed72_5af1_a161,
            0x52ac_cfad_1abf_a35a,
            0x0b56_ed72_5af1_a161,
            // adult: {default, mcmc+fd, rand} × {AR off, AR on}
            0x852e_3684_196f_5427,
            0x34fb_9af6_372c_14a5,
            0x07eb_39c9_a0d3_e876,
            0x34fb_9af6_372c_14a5,
            0xd963_94d2_f342_d82e,
            0x34fb_9af6_372c_14a5,
            // br2000: {default, mcmc+fd, rand} × {AR off, AR on}
            0x765f_7562_60c5_d958,
            0x0039_acd0_c6af_7b4e,
            0x13ab_db42_8edc_dec5,
            0x0039_acd0_c6af_7b4e,
            0x765f_7562_60c5_d958,
            0x0039_acd0_c6af_7b4e,
        ];
        let digests: Vec<u64> = got.iter().map(|g| g.3).collect();
        assert_eq!(digests, want, "sampled output drifted: {got:#x?}");
    }

    /// Pins a fitted TPC-H model: FNV-1a over `encode_model` plus the DC
    /// weights. TPC-H has the largest context embedding tables
    /// (`c_custkey` has one row per customer, n/10 of them), so it is the
    /// fit where the row-sparse DP-SGD passes skip the most; any drift in
    /// training moves this hash. So does a change to the MODEL section's
    /// layout, which the snapshot format version (not [`FIT_REVISION`])
    /// versions. A fit change that moves the hash also bumps
    /// [`FIT_REVISION`], or warm snapshot caches keep serving the old fit.
    #[test]
    fn tpch_fit_is_pinned() {
        let d = kamino_datasets::tpch_like(600, 21);
        let mut cfg = fast_cfg(Budget::new(1.0, 1e-6), 22);
        // several DP-SGD steps per sub-model, not one
        cfg.train_scale = 0.1;
        let fitted = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
        let mut w = kamino_data::wire::ByteWriter::new();
        crate::snapshot::encode_model(fitted.model(), &mut w);
        w.put_f64s(&fitted.weights);
        let h = kamino_data::wire::fnv1a64(&w.into_bytes());
        assert_eq!(
            (FIT_REVISION, h),
            (3, 0x5f92_716d_483f_f2eb),
            "fitted TPC-H model drifted: {h:#018x} (re-pin with a FIT_REVISION bump if the \
             fit moved, or with a snapshot FORMAT_VERSION bump if the MODEL layout did)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = adult_like(150, 15);
        let cfg = fast_cfg(Budget::new(1.0, 1e-6), 16);
        let a = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(150);
        let b = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(150);
        assert_eq!(a, b);
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
        let out = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg).sample(500);
        for dc in &d.dcs {
            let truth = violation_percentage(dc, &d.instance);
            let synth = violation_percentage(dc, &out);
            assert!(
                synth <= (truth + 2.0) * 5.0,
                "DC {}: synth {synth}% vs truth {truth}% — not in the same regime",
                dc.name
            );
        }
    }
}
