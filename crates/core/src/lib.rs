//! Kamino: constraint-aware differentially private data synthesis.
//!
//! This crate implements the paper's primary contribution (Ge, Mohapatra,
//! He, Ilyas — VLDB 2021). Given a private database instance `D*`, its
//! schema/domain, a set of denial constraints Φ with hardness information,
//! and a privacy budget (ε, δ), Kamino produces a synthetic instance `D'`
//! that (R1) has approximately the same DC violation profile as `D*` and
//! (R2) is generated by an (ε, δ)-differentially-private process.
//!
//! The pipeline (Algorithm 1) is:
//! 1. [`sequence`] — constraint-aware attribute sequencing (Algorithm 4),
//!    a privacy-free heuristic placing FD determinants before dependents;
//! 2. [`params`] — privacy-parameter search (Algorithm 6) using the RDP
//!    accountant so the end-to-end cost fits the budget;
//! 3. [`train`] — private learning of the tuple distribution (Algorithm 2):
//!    a Gaussian-mechanism histogram for the first attribute and DP-SGD
//!    trained discriminative sub-models (embeddings + attention + head,
//!    §2.3) for each `Pr(t[A_j] | t[S_:j])`;
//! 4. [`weights`] — private learning of soft-DC weights from a noisy
//!    violation matrix (Algorithm 5, Lemma 1);
//! 5. [`sampler`] — constraint-aware sampling (Algorithm 3): candidate
//!    values are re-weighted by `exp(−Σ w_φ·|V(φ, ·)|)` using the
//!    incremental counters, with optional constrained-MCMC re-sampling and
//!    the hard-FD lookup fast path (§7.3.6), over 10 candidates per numeric
//!    cell (§4.2's `d`). [`KaminoConfig::sampling`] picks this rule, the
//!    Experiment 5 ablation or Experiment 6's accept–reject ([`SamplingRule`]).
//!
//! [`pipeline::fit_kamino`] wires lines 2–5 of Algorithm 1 together into
//! a [`FittedKamino`] session whose [`FittedKamino::sample`] draws line 6
//! as often as asked; the config exposes the ablation switches of
//! Experiment 5 (RandSequence / RandSampling / RandBoth) and the session
//! carries per-phase timings for Figure 7.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod params;
pub mod pipeline;
pub mod sampler;
pub mod sequence;
pub mod snapshot;
pub mod train;
pub mod weights;

pub use model::{DataModel, SubModel};
pub use params::{search_params, search_params_with_obs, PrivacyParams};
pub use pipeline::{
    fit_kamino, FittedKamino, KaminoConfig, PhaseTimings, FIT_REVISION, MAX_MCMC_RATIO,
};
pub use sampler::{synthesize, SamplingRule, FD_CYCLE_TOLERANCE_PCT};
pub use sequence::{active_dcs_by_position, sequence_attrs};
pub use train::{train_model, train_model_with_obs, TrainConfig};
pub use weights::{learn_weights, WeightConfig, HARD_WEIGHT};
