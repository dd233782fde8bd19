//! Experiment harnesses for the paper's evaluation section.
//!
//! * [`repro`] — the one §7 experiment runner behind `kamino-repro`:
//!   the dataset × ε × method matrix (Table 2, Figs 3, 4 and 6) plus the
//!   study cells for every other table and figure, snapshot-cached and
//!   byte-deterministic.
//!
//! The `micro_substrates` criterion bench stands alone. The served
//! `/synthesize` path is benchmarked by perfbench's `serve_tpch`
//! workload, and crash recovery is tested against the real server binary
//! by `kamino-serve`'s own `tests/crash_recovery.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod repro;
