//! # Kamino: constraint-aware differentially private data synthesis
//!
//! A from-scratch Rust reproduction of *Kamino: Constraint-Aware
//! Differentially Private Data Synthesis* (Ge, Mohapatra, He, Ilyas —
//! VLDB 2021). Given a private database instance, its schema, a set of
//! denial constraints with hardness information, and a privacy budget
//! (ε, δ), Kamino produces a synthetic instance that preserves both the
//! data's statistical profile and its *structure* — the functional
//! dependencies and denial constraints that i.i.d. synthesizers break.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`data`] | schemas, typed columnar instances, quantizers, CSV, encoders |
//! | [`constraints`] | denial-constraint AST/parser, violation engine, incremental counters |
//! | [`dp`] | Gaussian/Laplace mechanisms, RDP accountant, calibration |
//! | [`nn`] | per-example-gradient neural substrate (DP-SGD) |
//! | [`core`] | the Kamino pipeline: sequencing, training, weights, sampling |
//! | [`baselines`] | PrivBayes, NIST-PGM, DP-VAE, PATE-GAN, independent |
//! | [`eval`] | nine classifiers, marginal TVD, DC metrics, repair |
//! | [`datasets`] | seeded generators for the paper's four corpora |
//! | [`serve`] | `.kamino` model snapshots + the pure-std HTTP synthesis server |
//! | [`obs`] | spans, metric registry, DP budget ledger, Prometheus/chrome-trace export |
//!
//! ## Quickstart
//!
//! ```
//! use kamino::datasets::adult_like;
//! use kamino::core::{fit_kamino, KaminoConfig};
//! use kamino::dp::Budget;
//! use kamino::constraints::violation_percentage;
//!
//! // "true" private data: census-like, with two hard denial constraints
//! let data = adult_like(300, 42);
//!
//! // synthesize under (ε = 1, δ = 1e-6)-differential privacy
//! let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
//! cfg.train_scale = 0.05; // doc-test speed; use 1.0 for real runs
//! cfg.seed = 7;
//! let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
//! let synthetic = session.sample(300);
//!
//! assert_eq!(synthetic.n_rows(), 300);
//! assert!(session.achieved_epsilon() <= 1.0);
//! // the hard constraints hold in the synthetic data
//! for dc in &data.dcs {
//!     assert_eq!(violation_percentage(dc, &synthetic), 0.0);
//! }
//! ```
//!
//! ## Sessions: fit once, sample many times
//!
//! [`fit_kamino`](core::fit_kamino) spends the budget: it runs the
//! private fit (Algorithm 1, lines 2–5) and returns the one session type,
//! [`FittedKamino`](core::FittedKamino); every
//! [`sample`](core::FittedKamino::sample) call is post-processing that
//! spends nothing further and continues one deterministic sample stream.
//! [`save_fitted`](serve::save_fitted) writes the session as a versioned
//! `.kamino` snapshot and [`load_fitted`](serve::load_fitted) restores it
//! at the ε it originally spent, resuming the stream bit-exactly:
//!
//! ```
//! use kamino::datasets::adult_like;
//! use kamino::prelude::*;
//!
//! let data = adult_like(100, 7);
//! let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
//! cfg.train_scale = 0.02; // doc-test speed; use 1.0 for real runs
//! cfg.seed = 9;
//! let mut session = fit_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
//! assert!(session.achieved_epsilon() <= 1.0);
//! let first = session.sample(30);
//! assert_eq!(first.n_rows(), 30);
//!
//! let path = std::env::temp_dir()
//!     .join(format!("kamino-doc-session-{}.kamino", std::process::id()));
//! save_fitted(&session, &path)?;
//! let mut restored = load_fitted(&path)?;
//! assert_eq!(restored.achieved_epsilon(), session.achieved_epsilon());
//! // both sessions now produce the same next rows
//! assert_eq!(session.sample(20), restored.sample(20));
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), kamino::serve::SnapshotError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use kamino_baselines as baselines;
pub use kamino_constraints as constraints;
pub use kamino_core as core;
pub use kamino_data as data;
pub use kamino_datasets as datasets;
pub use kamino_dp as dp;
pub use kamino_eval as eval;
pub use kamino_nn as nn;
pub use kamino_obs as obs;
pub use kamino_serve as serve;

/// Most-used items in one import.
pub mod prelude {
    pub use kamino_constraints::{parse_dc, violation_percentage, DenialConstraint, Hardness};
    pub use kamino_core::{fit_kamino, FittedKamino, KaminoConfig};
    pub use kamino_data::{Attribute, Instance, Schema, Value};
    pub use kamino_dp::{Budget, BudgetPlanner, RunShape};
    pub use kamino_serve::{load_fitted, save_fitted, ServeConfig, Server, SnapshotError};
}
