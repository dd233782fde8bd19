//! Denial-constraint (DC) language and violation-counting engine.
//!
//! Denial constraints (§2.1 of the paper) are first-order formulas
//! `¬(P₁ ∧ … ∧ P_m)` over one tuple (unary DCs) or a pair of tuples (binary
//! DCs), where each predicate compares attribute values or constants with
//! `=, ≠, <, ≤, >, ≥`. They subsume functional dependencies (FDs) and
//! conditional FDs, and are the structure constraints Kamino preserves.
//!
//! This crate provides:
//! * the [`DenialConstraint`] AST and a text [`parser`]
//!   (`!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)`),
//! * a full-instance counting [`engine`] (violating pairs, per-tuple
//!   violation vectors for Algorithm 5's violation matrix, percentage
//!   metrics) that drives the incremental counters below, so each DC shape
//!   is counted by one index,
//! * [`incremental`] counters implementing `V(φ, t_i | D_:i)` — the quantity
//!   Algorithm 3 queries per candidate value — with a hash-index fast path
//!   for FDs and an exact scan fallback matching the paper's stated
//!   complexity,
//! * batch candidate scoring ([`score`]): the weighted penalty of whole
//!   candidate sets, read from the incremental counters,
//! * approximate-DC [`discovery`] used by Experiment 8 to scale `|Φ|`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod discovery;
pub mod engine;
pub mod incremental;
pub mod parser;
pub mod score;
pub mod snapshot;

pub use ast::{CmpOp, DenialConstraint, Fd, Hardness, Operand, Predicate, StrictOrder, TupleRef};
pub use engine::{
    count_unary_violations, count_violating_pairs, per_tuple_violations, violation_percentage,
};
pub use incremental::{CandidateRow, CellContext, DcCounter, DcScorer, ScanIndexRef};
pub use parser::parse_dc;
pub use score::ScoreSet;
