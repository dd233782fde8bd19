//! Durable model snapshots and a pure-std synthesis server.
//!
//! The Kamino pipeline pays its privacy budget and DP-SGD training cost
//! once, at fit time; everything after that is post-processing. This
//! crate gives that split a production shape:
//!
//! * [`snapshot`] — the versioned `.kamino` container (magic + section
//!   table + per-section CRC-32, fixed little-endian layout, no external
//!   dependencies) persisting a complete fitted session: schema,
//!   encoders, DC list with learned weights, model tensors, privacy
//!   parameters, configuration, and the session RNG cursor. A loaded
//!   session continues its deterministic sample stream exactly where the
//!   saved one stopped.
//! * [`server`] — an epoll event loop (via [`sys`], pure-std FFI kept in
//!   the vendored `epoll` crate) driving non-blocking HTTP/1.1
//!   connection state machines, with a worker pool for the CPU-bound
//!   jobs: fits, snapshot loads, sample batches and pool refills.
//!   [`json`] and [`http`] are its hand-rolled substrate; every
//!   `GET /metrics` series lives in the server's `kamino-obs` registry.
//! * [`registry`] — the model table: lazy snapshot loading, bounded
//!   residency with cursor-exact LRU eviction, pin-protected streams.
//! * [`pool`] — per-model pre-sampled batch rings that serve hot
//!   `/synthesize` traffic at memcpy speed without changing a single
//!   byte of the deterministic sample stream.
//!
//! The `kamino-serve` binary wires [`server::Server`] to `--listen`,
//! `--model-dir`, `--threads`, `--max-models` and `--pool-batches`
//! flags; the `kamino` facade re-exports this crate as `kamino::serve`
//! and adds `save`/`load` methods to its `Synthesizer` session API.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
mod event_loop;
pub mod http;
pub mod json;
pub mod pool;
pub mod registry;
pub mod server;
pub mod snapshot;
pub mod sys;

pub use json::Json;
pub use pool::{Format, PoolConfig, SamplePool};
pub use registry::Registry;
pub use server::{ServeConfig, Server};
pub use snapshot::{
    decode_fitted, encode_fitted, load_fitted, save_fitted, SnapshotError, FORMAT_VERSION,
};
