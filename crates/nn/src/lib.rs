//! Minimal neural substrate with per-example gradients.
//!
//! Rust's ML ecosystem is thin, and DP-SGD (Algorithm 2 of the paper) needs
//! *per-example* gradient clipping — which mainstream autodiff frameworks
//! make awkward anyway. Kamino's sub-models are small fixed architectures
//! (attribute embeddings → attention → categorical/Gaussian head, per §2.3),
//! so this crate hand-writes forward/backward for exactly the pieces
//! required and verifies every one against finite differences:
//!
//! * [`param`] — flat parameter blocks with paired gradient buffers,
//! * [`linalg`] — the handful of dense kernels everything shares,
//! * [`layers`] — linear layers, categorical embeddings, and the paper's
//!   continuous-value encoder `z = B·ω(A·x + c) + d`,
//! * [`attention`] — learned softmax attention over context-attribute
//!   embeddings producing the context vector,
//! * [`heads`] — softmax/cross-entropy head for categorical targets and a
//!   Gaussian (μ, log σ) regression head for numeric targets,
//! * [`mlp`] — small ReLU MLPs used by the DP-VAE / PATE-GAN baselines and
//!   the MLP classifier,
//! * [`loss`] — cross-entropy, MSE, BCE-with-logits, Gaussian NLL,
//! * [`optim`] — DP-SGD (per-example clip → sum → Gaussian noise →
//!   average, Algorithm 2 lines 13–16); plain SGD is the
//!   `noise = 0, clip = ∞` special case so private and non-private runs
//!   share one code path,
//! * [`scratch`] — a recycling buffer pool that the encoder, attention and
//!   categorical-head kernels take from their caller, so the per-example
//!   hot loops stay allocation-free.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attention;
pub mod heads;
pub mod init;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod scratch;
pub mod snapshot;

pub use attention::Attention;
pub use heads::{CategoricalHead, GaussianHead};
pub use layers::{ContinuousEncoder, Embedding, Linear};
pub use mlp::Mlp;
pub use optim::{DpSgd, PerExampleModel, StepReport};
pub use param::ParamBlock;
pub use scratch::Scratch;

// Public so downstream crates can gradient-check their composite models
// (kamino-core's sub-models run the same harness in their tests).
pub mod testutil;
