//! Experiment harnesses for the paper's evaluation section and the
//! serving stack.
//!
//! * [`repro`] — the one §7 experiment runner behind `kamino-repro`:
//!   the dataset × ε × method matrix (Table 2, Figs 3, 4 and 6) plus the
//!   study cells for every other table and figure, snapshot-cached and
//!   byte-deterministic;
//! * [`chaos`] — the crash-recovery scenarios behind `kamino-chaos`.
//!
//! The `kamino-loadgen` binary and the `micro_substrates` criterion bench
//! stand alone.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod repro;
