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
//! plus the top-level [`synthesizer`] module — the [`Synthesizer`] session
//! API: fit once under a planner-derived budget, then stream row batches
//! without further privacy cost. Sessions can be
//! saved to a `.kamino` snapshot and loaded later (or on another host) —
//! a loaded session resumes the exact deterministic sample stream.
//!
//! ## Quickstart
//!
//! ```
//! use kamino::datasets::adult_like;
//! use kamino::core::{run_kamino, KaminoConfig};
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
//! let report = run_kamino(&data.schema, &data.instance, &data.dcs, &cfg);
//!
//! assert_eq!(report.instance.n_rows(), 300);
//! assert!(report.params.achieved_epsilon <= 1.0);
//! // the hard constraints hold in the synthetic data
//! for dc in &data.dcs {
//!     assert_eq!(violation_percentage(dc, &report.instance), 0.0);
//! }
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

pub mod synthesizer;

pub use synthesizer::{SynthesisSession, Synthesizer, SynthesizerBuilder};

/// Most-used items in one import.
pub mod prelude {
    pub use crate::synthesizer::{SynthesisSession, Synthesizer};
    pub use kamino_constraints::{parse_dc, violation_percentage, DenialConstraint, Hardness};
    pub use kamino_core::{run_kamino, KaminoConfig, KaminoReport};
    pub use kamino_data::{Attribute, Instance, Schema, Value};
    pub use kamino_dp::{Budget, BudgetPlanner, RunShape};
    pub use kamino_serve::{ServeConfig, Server, SnapshotError};
}
