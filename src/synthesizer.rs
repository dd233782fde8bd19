//! The `Synthesizer` session API: fit once, synthesize forever.
//!
//! [`run_kamino`](kamino_core::run_kamino) is a one-shot call: it spends
//! the privacy budget and hands back a single instance. A synthesis
//! *service* wants the opposite shape — pay the (ε, δ) cost once at fit
//! time, then serve row batches on demand. That is what [`Synthesizer`]
//! provides:
//!
//! ```
//! use kamino::synthesizer::Synthesizer;
//! use kamino::datasets::adult_like;
//!
//! let data = adult_like(300, 42);
//! let mut session = Synthesizer::builder()
//!     .epsilon(1.0)
//!     .delta(1e-6)
//!     .seed(7)
//!     .train_scale(0.05) // doc-test speed; use 1.0 for real runs
//!     .build()
//!     .fit(&data.schema, &data.instance, &data.dcs);
//!
//! assert!(session.achieved_epsilon() <= 1.0);
//! // stream 250 rows in batches of 100 (100 + 100 + 50)
//! let batches: Vec<_> = session.synthesize_batches(250, 100).collect();
//! assert_eq!(batches.len(), 3);
//! assert_eq!(batches.iter().map(|b| b.n_rows()).sum::<usize>(), 250);
//! ```
//!
//! The σ's behind the fit come from the
//! [`BudgetPlanner`](kamino_dp::BudgetPlanner), so the composed RDP cost
//! of Theorem 1's three mechanisms converts to at most the requested ε —
//! [`SynthesisSession::achieved_epsilon`] is that converted value, and
//! sampling (including every batch) is pure post-processing that spends
//! nothing further.
//!
//! Sessions are durable: [`SynthesisSession::save`] writes a versioned
//! `.kamino` snapshot (see `kamino::serve::snapshot`) and
//! [`Synthesizer::load`] brings it back — on this host or another —
//! resuming the deterministic sample stream bit-exactly where the saved
//! session stopped, with no additional privacy cost.

use std::path::Path;

use kamino_constraints::DenialConstraint;
use kamino_core::{fit_kamino, FittedKamino, KaminoConfig, PrivacyParams};
use kamino_data::{Instance, Schema};
use kamino_dp::Budget;
use kamino_serve::SnapshotError;

/// Builder for a [`Synthesizer`]. Obtained from [`Synthesizer::builder`];
/// every knob has a sensible default except the budget (which defaults to
/// (ε = 1, δ = 1e-6) — call [`SynthesizerBuilder::non_private`] for ε = ∞).
#[derive(Debug, Clone)]
pub struct SynthesizerBuilder {
    epsilon: f64,
    delta: f64,
    non_private: bool,
    cfg: KaminoConfig,
}

impl Default for SynthesizerBuilder {
    fn default() -> Self {
        SynthesizerBuilder {
            epsilon: 1.0,
            delta: 1e-6,
            non_private: false,
            cfg: KaminoConfig::new(Budget::new(1.0, 1e-6)),
        }
    }
}

impl SynthesizerBuilder {
    /// Total privacy budget ε (Theorem 1's composition fits inside it).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        self.epsilon = epsilon;
        self.non_private = epsilon.is_infinite();
        self
    }

    /// Privacy parameter δ (default `1e-6`).
    pub fn delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        self.delta = delta;
        self
    }

    /// Disables privacy noise entirely (the paper's ε = ∞ runs).
    pub fn non_private(mut self) -> Self {
        self.non_private = true;
        self
    }

    /// RNG seed — every source of randomness derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Fraction of the paper's DP-SGD iteration range to train for
    /// (quality knob; always privacy-safe).
    pub fn train_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "train scale must be positive");
        self.cfg.train_scale = scale;
        self
    }

    /// MCMC re-sampling amount as a fraction of each sampled batch.
    pub fn mcmc_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 0.0, "mcmc ratio must be nonnegative");
        self.cfg.mcmc_ratio = ratio;
        self
    }

    /// Enables the §7.3.6 hard-FD lookup fast path.
    pub fn hard_fd_lookup(mut self, on: bool) -> Self {
        self.cfg.hard_fd_lookup = on;
        self
    }

    /// Full access to the underlying [`KaminoConfig`] for knobs the
    /// builder does not surface.
    pub fn configure(mut self, f: impl FnOnce(&mut KaminoConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Finalizes the configuration.
    pub fn build(mut self) -> Synthesizer {
        self.cfg.budget = if self.non_private {
            Budget::non_private()
        } else {
            Budget::new(self.epsilon, self.delta)
        };
        Synthesizer { cfg: self.cfg }
    }
}

/// A configured synthesis engine. [`Synthesizer::fit`] spends the privacy
/// budget (trains the model privately) and returns a
/// [`SynthesisSession`] that samples without further cost.
///
/// # Examples
///
/// Build → fit → stream batches:
///
/// ```
/// use kamino::Synthesizer;
/// use kamino::datasets::adult_like;
///
/// let data = adult_like(120, 3);
/// let mut session = Synthesizer::builder()
///     .epsilon(1.0)
///     .seed(5)
///     .train_scale(0.02) // doc-test speed; use 1.0 for real runs
///     .build()
///     .fit(&data.schema, &data.instance, &data.dcs);
///
/// assert!(session.achieved_epsilon() <= 1.0);
/// let rows: usize = session
///     .synthesize_batches(130, 50) // 50 + 50 + 30
///     .map(|batch| batch.n_rows())
///     .sum();
/// assert_eq!(rows, 130);
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    cfg: KaminoConfig,
}

impl Synthesizer {
    /// Starts building a synthesizer.
    pub fn builder() -> SynthesizerBuilder {
        SynthesizerBuilder::default()
    }

    /// The resolved pipeline configuration.
    pub fn config(&self) -> &KaminoConfig {
        &self.cfg
    }

    /// Runs Algorithm 1's private phases (sequencing, parameter planning,
    /// model training, weight learning) against the true instance. This is
    /// the only call that touches private data; everything on the
    /// returned session is post-processing.
    pub fn fit(
        &self,
        schema: &Schema,
        instance: &Instance,
        dcs: &[DenialConstraint],
    ) -> SynthesisSession {
        SynthesisSession {
            fitted: fit_kamino(schema, instance, dcs, &self.cfg),
        }
    }

    /// Loads a session saved by [`SynthesisSession::save`]. The loaded
    /// session continues the deterministic sample stream exactly where
    /// the saved one stopped, at the ε it originally spent — loading
    /// costs no privacy budget.
    ///
    /// # Examples
    ///
    /// See [`SynthesisSession::save`] for the save half; loading resumes
    /// the stream bit-exactly:
    ///
    /// ```
    /// # use kamino::Synthesizer;
    /// # use kamino::datasets::adult_like;
    /// # let data = adult_like(100, 7);
    /// # let mut session = Synthesizer::builder()
    /// #     .epsilon(1.0).seed(9).train_scale(0.02).build()
    /// #     .fit(&data.schema, &data.instance, &data.dcs);
    /// let path = std::env::temp_dir()
    ///     .join(format!("kamino-doc-load-{}.kamino", std::process::id()));
    /// session.save(&path)?;
    /// let mut restored = Synthesizer::load(&path)?;
    /// // both sessions now produce the same next rows
    /// assert_eq!(session.synthesize(20), restored.synthesize(20));
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), kamino::serve::SnapshotError>(())
    /// ```
    pub fn load(path: impl AsRef<Path>) -> Result<SynthesisSession, SnapshotError> {
        Ok(SynthesisSession {
            fitted: kamino_serve::load_fitted(path.as_ref())?,
        })
    }
}

/// A fitted synthesis session: holds the trained model and an advancing
/// RNG stream. Sampling methods take `&mut self` because successive draws
/// continue that stream (two equal-seeded sessions replay identically).
pub struct SynthesisSession {
    fitted: FittedKamino,
}

impl SynthesisSession {
    /// The ε actually spent at the configured δ — by the planner's
    /// construction, at most the requested budget.
    pub fn achieved_epsilon(&self) -> f64 {
        self.fitted.achieved_epsilon()
    }

    /// The privacy parameters Ψ the planner selected.
    pub fn params(&self) -> &PrivacyParams {
        &self.fitted.params
    }

    /// The schema sequence used (Algorithm 4's output).
    pub fn sequence(&self) -> &[usize] {
        &self.fitted.sequence
    }

    /// Final DC weights, aligned with the DC list passed to `fit`.
    pub fn weights(&self) -> &[f64] {
        &self.fitted.weights
    }

    /// Synthesizes `n` rows in one go.
    pub fn synthesize(&mut self, n: usize) -> Instance {
        self.fitted.sample(n)
    }

    /// Saves the complete session — model tensors, schema, DC list and
    /// weights, privacy parameters, configuration and the RNG cursor —
    /// as a versioned `.kamino` snapshot. [`Synthesizer::load`] resumes
    /// the sample stream bit-exactly where this session stopped.
    ///
    /// # Examples
    ///
    /// ```
    /// # use kamino::Synthesizer;
    /// # use kamino::datasets::adult_like;
    /// # let data = adult_like(100, 11);
    /// # let mut session = Synthesizer::builder()
    /// #     .epsilon(1.0).seed(13).train_scale(0.02).build()
    /// #     .fit(&data.schema, &data.instance, &data.dcs);
    /// let path = std::env::temp_dir()
    ///     .join(format!("kamino-doc-save-{}.kamino", std::process::id()));
    /// session.save(&path)?;
    /// assert!(path.exists());
    /// // ε was spent at fit time; the snapshot can be queried forever
    /// let restored = Synthesizer::load(&path)?;
    /// assert_eq!(restored.achieved_epsilon(), session.achieved_epsilon());
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), kamino::serve::SnapshotError>(())
    /// ```
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        kamino_serve::save_fitted(&self.fitted, path.as_ref())
    }

    /// Streams `total` rows as instances of at most `batch_size` rows —
    /// the service shape: bounded memory per request, each batch
    /// synthesized on demand. Hard-DC
    /// guarantees hold within each batch; batches are mutually independent
    /// draws from the same trained model, so cross-batch pairs carry no
    /// guarantee (exactly like two separate `synthesize` calls).
    pub fn synthesize_batches(&mut self, total: usize, batch_size: usize) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        Batches {
            session: self,
            remaining: total,
            batch_size,
        }
    }
}

/// Iterator over synthesized row batches; see
/// [`SynthesisSession::synthesize_batches`].
pub struct Batches<'a> {
    session: &'a mut SynthesisSession,
    remaining: usize,
    batch_size: usize,
}

impl Iterator for Batches<'_> {
    type Item = Instance;

    fn next(&mut self) -> Option<Instance> {
        if self.remaining == 0 {
            return None;
        }
        let n = self.remaining.min(self.batch_size);
        self.remaining -= n;
        Some(self.session.synthesize(n))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let batches = self.remaining.div_ceil(self.batch_size);
        (batches, Some(batches))
    }
}

impl ExactSizeIterator for Batches<'_> {}
