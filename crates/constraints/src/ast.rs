//! Denial-constraint AST.

use std::collections::BTreeSet;
use std::fmt;

use kamino_data::{Schema, Value};

/// Which quantified tuple an operand refers to: `t_i` (first) or `t_j`
/// (second). Unary DCs only use [`TupleRef::T1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleRef {
    /// The first quantified tuple (`t_i` / `t1`).
    T1,
    /// The second quantified tuple (`t_j` / `t2`).
    T2,
}

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on two values of the same kind.
    #[inline]
    pub fn eval(self, a: Value, b: Value) -> bool {
        self.holds(a.compare(b))
    }

    /// Whether the operator holds between two values that compare as
    /// `ord`.
    #[inline]
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Text form used by the parser and `Display`.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One side of a predicate: a tuple attribute or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// `t.A` — attribute `attr` (schema index) of tuple `tuple`.
    Attr {
        /// Which quantified tuple.
        tuple: TupleRef,
        /// Schema index of the attribute.
        attr: usize,
    },
    /// A constant value.
    Const(Value),
}

/// A single predicate `lhs op rhs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Predicate {
    /// Evaluates the predicate given accessors for the two tuples' values.
    /// `get(tuple, attr)` must return the value of `attr` on that tuple.
    #[inline]
    pub fn eval<F: Fn(TupleRef, usize) -> Value>(&self, get: &F) -> bool {
        let a = match self.lhs {
            Operand::Attr { tuple, attr } => get(tuple, attr),
            Operand::Const(v) => v,
        };
        let b = match self.rhs {
            Operand::Attr { tuple, attr } => get(tuple, attr),
            Operand::Const(v) => v,
        };
        self.op.eval(a, b)
    }

    fn references(&self, t: TupleRef) -> bool {
        matches!(self.lhs, Operand::Attr { tuple, .. } if tuple == t)
            || matches!(self.rhs, Operand::Attr { tuple, .. } if tuple == t)
    }
}

/// Whether a DC must hold exactly in the truth ("hard": weight → ∞) or may
/// be violated ("soft": weight learned by Algorithm 5 unless given).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hardness {
    /// No violations allowed; Kamino assigns an effectively infinite weight.
    Hard,
    /// Violations allowed; weight is learned or supplied.
    Soft,
}

/// A functional dependency `lhs → rhs` recognized from an FD-shaped DC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    /// Determinant attribute indices (the FD's left-hand side).
    pub lhs: Vec<usize>,
    /// Dependent attribute index (the FD's right-hand side).
    pub rhs: usize,
}

/// A strict-order DC shape `¬(eqs ∧ t1[A] opA t2[A] ∧ t1[B] opB t2[B])`
/// with `opA, opB ∈ {<, >}` — recognized by
/// [`DenialConstraint::as_strict_order`]. The order-DC fast paths in the
/// engine, the sampler's feasible-band clamp, and the Figure 1 repair all
/// key off this shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrictOrder {
    /// Cross-tuple equality attributes (the "same group" part).
    pub eq_attrs: Vec<usize>,
    /// First order predicate: (attribute, strict operator).
    pub a: (usize, CmpOp),
    /// Second order predicate.
    pub b: (usize, CmpOp),
}

/// A denial constraint `¬(P₁ ∧ … ∧ P_m)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenialConstraint {
    /// Display name (e.g. `phi_a1`).
    pub name: String,
    /// The conjunctive predicates being negated.
    pub predicates: Vec<Predicate>,
    /// Hardness declared by the data owner (part of Kamino's input).
    pub hardness: Hardness,
}

impl DenialConstraint {
    /// Builds a DC; `predicates` must be non-empty.
    pub fn new<S: Into<String>>(
        name: S,
        predicates: Vec<Predicate>,
        hardness: Hardness,
    ) -> DenialConstraint {
        assert!(
            !predicates.is_empty(),
            "a denial constraint needs at least one predicate"
        );
        DenialConstraint {
            name: name.into(),
            predicates,
            hardness,
        }
    }

    /// Whether any predicate references the second tuple — i.e. the DC is
    /// binary. Unary DCs only constrain single tuples.
    pub fn is_binary(&self) -> bool {
        self.predicates.iter().any(|p| p.references(TupleRef::T2))
    }

    /// The set `A_φ` of attribute indices participating in the DC.
    pub fn attrs(&self) -> BTreeSet<usize> {
        let mut set = BTreeSet::new();
        for p in &self.predicates {
            for op in [p.lhs, p.rhs] {
                if let Operand::Attr { attr, .. } = op {
                    set.insert(attr);
                }
            }
        }
        set
    }

    /// Evaluates whether a single tuple violates this unary DC (all
    /// predicates true). Panics if called on a binary DC.
    #[inline]
    pub fn violated_by_tuple<F: Fn(usize) -> Value>(&self, get: F) -> bool {
        self.predicates.iter().all(|p| {
            p.eval(&|t, a| {
                debug_assert!(t == TupleRef::T1, "unary evaluation of a binary DC");
                get(a)
            })
        })
    }

    /// Evaluates whether the ordered pair (`t1` = `get1`, `t2` = `get2`)
    /// makes all predicates true.
    #[inline]
    pub fn violated_by_ordered_pair<F1, F2>(&self, get1: &F1, get2: &F2) -> bool
    where
        F1: Fn(usize) -> Value,
        F2: Fn(usize) -> Value,
    {
        self.predicates.iter().all(|p| {
            p.eval(&|t, a| match t {
                TupleRef::T1 => get1(a),
                TupleRef::T2 => get2(a),
            })
        })
    }

    /// Whether the unordered pair violates the DC in either orientation.
    /// This is the pair-membership test behind `V(φ, D)` for binary DCs and
    /// the paper's Metric I (percentage of violating tuple *pairs*).
    #[inline]
    pub fn violated_by_pair<F1, F2>(&self, get1: &F1, get2: &F2) -> bool
    where
        F1: Fn(usize) -> Value,
        F2: Fn(usize) -> Value,
    {
        self.violated_by_ordered_pair(get1, get2) || self.violated_by_ordered_pair(get2, get1)
    }

    /// Recognizes the FD shape
    /// `¬(t1[X₁]=t2[X₁] ∧ … ∧ t1[X_m]=t2[X_m] ∧ t1[B]≠t2[B])`:
    /// every predicate compares the *same* attribute across the two tuples,
    /// all with `=` except exactly one with `≠`. Returns the FD `X → B`.
    ///
    /// Algorithm 4 (sequencing) consumes these, and the incremental engine
    /// uses a hash index for them.
    pub fn as_fd(&self) -> Option<Fd> {
        let mut lhs = Vec::new();
        let mut rhs = None;
        for p in &self.predicates {
            let (a1, a2) = match (p.lhs, p.rhs) {
                (
                    Operand::Attr {
                        tuple: ta,
                        attr: aa,
                    },
                    Operand::Attr {
                        tuple: tb,
                        attr: ab,
                    },
                ) if ta != tb => (aa, ab),
                _ => return None,
            };
            if a1 != a2 {
                return None;
            }
            match p.op {
                CmpOp::Eq => lhs.push(a1),
                CmpOp::Ne => {
                    if rhs.replace(a1).is_some() {
                        return None; // two ≠ predicates is not an FD
                    }
                }
                _ => return None,
            }
        }
        let rhs = rhs?;
        if lhs.is_empty() {
            return None;
        }
        Some(Fd { lhs, rhs })
    }

    /// Recognizes the strict-order shape (see [`StrictOrder`]): every
    /// predicate compares the same attribute across the two tuples, with
    /// any number of `=` predicates and exactly two strict (`<`/`>`)
    /// predicates over distinct attributes. Non-strict (`≤`/`≥`)
    /// predicates are excluded — both orientations of a pair can then hold
    /// at once, which breaks the fast paths built on this shape.
    pub fn as_strict_order(&self) -> Option<StrictOrder> {
        let mut eq_attrs = Vec::new();
        let mut orders = Vec::new();
        for p in &self.predicates {
            let (a1, a2) = match (p.lhs, p.rhs) {
                (
                    Operand::Attr {
                        tuple: TupleRef::T1,
                        attr: aa,
                    },
                    Operand::Attr {
                        tuple: TupleRef::T2,
                        attr: ab,
                    },
                ) => (aa, ab),
                _ => return None,
            };
            if a1 != a2 {
                return None;
            }
            match p.op {
                CmpOp::Eq => eq_attrs.push(a1),
                CmpOp::Lt | CmpOp::Gt => orders.push((a1, p.op)),
                _ => return None,
            }
        }
        if orders.len() != 2 || orders[0].0 == orders[1].0 {
            return None;
        }
        Some(StrictOrder {
            eq_attrs,
            a: orders[0],
            b: orders[1],
        })
    }

    /// Renders the DC with attribute names from `schema` in a form the
    /// [`crate::parser`] can read back.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DcDisplay<'a> {
        DcDisplay { dc: self, schema }
    }
}

/// `Display` adapter produced by [`DenialConstraint::display`].
pub struct DcDisplay<'a> {
    dc: &'a DenialConstraint,
    schema: &'a Schema,
}

impl fmt::Display for DcDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "!(")?;
        for (i, p) in self.dc.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            let show = |f: &mut fmt::Formatter<'_>, op: &Operand| -> fmt::Result {
                match *op {
                    Operand::Attr { tuple, attr } => {
                        let t = if tuple == TupleRef::T1 { "t1" } else { "t2" };
                        write!(f, "{t}.{}", self.schema.attr(attr).name)
                    }
                    Operand::Const(Value::Num(x)) => write!(f, "{x}"),
                    Operand::Const(Value::Cat(c)) => {
                        // Render with the label when the predicate's other
                        // side pins down the attribute; fall back to code.
                        write!(f, "'#{c}'")
                    }
                }
            };
            show(f, &p.lhs)?;
            write!(f, " {} ", p.op.symbol())?;
            show(f, &p.rhs)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("edu", 3).unwrap(),
            Attribute::integer("edu_num", 1.0, 16.0, 16).unwrap(),
            Attribute::numeric("gain", 0.0, 100.0, 10).unwrap(),
            Attribute::numeric("loss", 0.0, 100.0, 10).unwrap(),
        ])
        .unwrap()
    }

    fn attr(t: TupleRef, a: usize) -> Operand {
        Operand::Attr { tuple: t, attr: a }
    }

    /// `¬(t1.edu = t2.edu ∧ t1.edu_num ≠ t2.edu_num)` — the paper's φ₁.
    fn fd_dc() -> DenialConstraint {
        DenialConstraint::new(
            "phi1",
            vec![
                Predicate {
                    lhs: attr(TupleRef::T1, 0),
                    op: CmpOp::Eq,
                    rhs: attr(TupleRef::T2, 0),
                },
                Predicate {
                    lhs: attr(TupleRef::T1, 1),
                    op: CmpOp::Ne,
                    rhs: attr(TupleRef::T2, 1),
                },
            ],
            Hardness::Hard,
        )
    }

    /// `¬(t1.gain > t2.gain ∧ t1.loss < t2.loss)` — the paper's φ₂.
    fn order_dc() -> DenialConstraint {
        DenialConstraint::new(
            "phi2",
            vec![
                Predicate {
                    lhs: attr(TupleRef::T1, 2),
                    op: CmpOp::Gt,
                    rhs: attr(TupleRef::T2, 2),
                },
                Predicate {
                    lhs: attr(TupleRef::T1, 3),
                    op: CmpOp::Lt,
                    rhs: attr(TupleRef::T2, 3),
                },
            ],
            Hardness::Hard,
        )
    }

    /// `¬(t1.edu_num < 5 ∧ t1.gain > 90)` — a unary DC like the paper's φ₃.
    fn unary_dc() -> DenialConstraint {
        DenialConstraint::new(
            "phi3",
            vec![
                Predicate {
                    lhs: attr(TupleRef::T1, 1),
                    op: CmpOp::Lt,
                    rhs: Operand::Const(Value::Num(5.0)),
                },
                Predicate {
                    lhs: attr(TupleRef::T1, 2),
                    op: CmpOp::Gt,
                    rhs: Operand::Const(Value::Num(90.0)),
                },
            ],
            Hardness::Hard,
        )
    }

    #[test]
    fn cmp_op_eval_table() {
        let a = Value::Num(1.0);
        let b = Value::Num(2.0);
        assert!(CmpOp::Lt.eval(a, b));
        assert!(CmpOp::Le.eval(a, b));
        assert!(CmpOp::Le.eval(a, a));
        assert!(CmpOp::Ne.eval(a, b));
        assert!(CmpOp::Eq.eval(a, a));
        assert!(CmpOp::Gt.eval(b, a));
        assert!(CmpOp::Ge.eval(b, b));
        assert!(!CmpOp::Gt.eval(a, a));
    }

    #[test]
    fn arity_and_attrs() {
        assert!(fd_dc().is_binary());
        assert!(order_dc().is_binary());
        assert!(!unary_dc().is_binary());
        assert_eq!(fd_dc().attrs().into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            unary_dc().attrs().into_iter().collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn fd_recognition() {
        let fd = fd_dc().as_fd().expect("phi1 is an FD");
        assert_eq!(fd.lhs, vec![0]);
        assert_eq!(fd.rhs, 1);
        assert!(order_dc().as_fd().is_none());
        assert!(unary_dc().as_fd().is_none());
    }

    #[test]
    fn multi_lhs_fd_recognition() {
        // ¬(t1.a=t2.a ∧ t1.b=t2.b ∧ t1.c≠t2.c)  ⇒  {a,b} → c
        let dc = DenialConstraint::new(
            "fd2",
            vec![
                Predicate {
                    lhs: attr(TupleRef::T1, 0),
                    op: CmpOp::Eq,
                    rhs: attr(TupleRef::T2, 0),
                },
                Predicate {
                    lhs: attr(TupleRef::T1, 2),
                    op: CmpOp::Eq,
                    rhs: attr(TupleRef::T2, 2),
                },
                Predicate {
                    lhs: attr(TupleRef::T1, 1),
                    op: CmpOp::Ne,
                    rhs: attr(TupleRef::T2, 1),
                },
            ],
            Hardness::Hard,
        );
        let fd = dc.as_fd().unwrap();
        assert_eq!(fd.lhs, vec![0, 2]);
        assert_eq!(fd.rhs, 1);
    }

    #[test]
    fn unary_violation_semantics() {
        let dc = unary_dc();
        // edu_num=3 (<5) and gain=95 (>90): all predicates true ⇒ violation
        let vals = [
            Value::Cat(0),
            Value::Num(3.0),
            Value::Num(95.0),
            Value::Num(0.0),
        ];
        assert!(dc.violated_by_tuple(|a| vals[a]));
        // gain=50 breaks the conjunction
        let ok = [
            Value::Cat(0),
            Value::Num(3.0),
            Value::Num(50.0),
            Value::Num(0.0),
        ];
        assert!(!dc.violated_by_tuple(|a| ok[a]));
    }

    #[test]
    fn pair_violation_orientations() {
        let dc = order_dc();
        let r1 = [
            Value::Cat(0),
            Value::Num(0.0),
            Value::Num(10.0),
            Value::Num(1.0),
        ];
        let r2 = [
            Value::Cat(0),
            Value::Num(0.0),
            Value::Num(5.0),
            Value::Num(9.0),
        ];
        // r1.gain > r2.gain and r1.loss < r2.loss: (r1, r2) orientation violates
        assert!(dc.violated_by_ordered_pair(&|a| r1[a], &|a| r2[a]));
        assert!(!dc.violated_by_ordered_pair(&|a| r2[a], &|a| r1[a]));
        // the unordered pair violates either way it is presented
        assert!(dc.violated_by_pair(&|a| r1[a], &|a| r2[a]));
        assert!(dc.violated_by_pair(&|a| r2[a], &|a| r1[a]));
    }

    #[test]
    fn fd_pair_violation_is_symmetric() {
        let dc = fd_dc();
        let r1 = [
            Value::Cat(1),
            Value::Num(10.0),
            Value::Num(0.0),
            Value::Num(0.0),
        ];
        let r2 = [
            Value::Cat(1),
            Value::Num(12.0),
            Value::Num(0.0),
            Value::Num(0.0),
        ];
        assert!(dc.violated_by_pair(&|a| r1[a], &|a| r2[a]));
        let r3 = [
            Value::Cat(2),
            Value::Num(12.0),
            Value::Num(0.0),
            Value::Num(0.0),
        ];
        assert!(!dc.violated_by_pair(&|a| r1[a], &|a| r3[a]));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let s = schema();
        let text = order_dc().display(&s).to_string();
        assert_eq!(text, "!(t1.gain > t2.gain & t1.loss < t2.loss)");
        let parsed = crate::parser::parse_dc(&s, "phi2", &text, Hardness::Hard).unwrap();
        assert_eq!(parsed.predicates, order_dc().predicates);
    }

    #[test]
    #[should_panic(expected = "at least one predicate")]
    fn empty_dc_rejected() {
        DenialConstraint::new("empty", vec![], Hardness::Hard);
    }
}
