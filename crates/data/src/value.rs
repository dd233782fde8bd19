//! Cell values.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value: either a categorical code (an index into the
/// attribute's label list) or a numeric value.
///
/// Categorical values are stored as `u32` codes rather than strings so that
/// instances stay compact and comparisons in the constraint engine are
/// branch-cheap. The mapping between codes and human-readable labels lives in
/// [`crate::Attribute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Categorical code (index into the attribute's label list).
    Cat(u32),
    /// Numeric value (continuous or integer-valued).
    Num(f64),
}

impl Value {
    /// Returns the categorical code, panicking if this is a numeric value.
    ///
    /// Intended for hot paths where the schema guarantees the type; use
    /// [`Value::as_cat`] when the type is not statically known.
    #[inline]
    pub fn cat(self) -> u32 {
        match self {
            Value::Cat(c) => c,
            Value::Num(v) => panic!("expected categorical value, got numeric {v}"),
        }
    }

    /// Returns the numeric value, panicking if this is a categorical code.
    #[inline]
    pub fn num(self) -> f64 {
        match self {
            Value::Num(v) => v,
            Value::Cat(c) => panic!("expected numeric value, got categorical code {c}"),
        }
    }

    /// Returns the categorical code if this is a categorical value.
    #[inline]
    pub fn as_cat(self) -> Option<u32> {
        match self {
            Value::Cat(c) => Some(c),
            Value::Num(_) => None,
        }
    }

    /// Returns the numeric value if this is a numeric value.
    #[inline]
    pub fn as_num(self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(v),
            Value::Cat(_) => None,
        }
    }

    /// Total order used by the constraint engine's comparison predicates.
    ///
    /// Values of different kinds are never produced for the same attribute,
    /// so cross-kind comparisons are a logic error and panic; categorical
    /// codes compare by code. Numbers compare by value, so `-0.0` equals
    /// `0.0` — the same equality the engine's hash keys use. Everything
    /// else follows `f64::total_cmp`: no value lies strictly between the
    /// two zeros, so merging them keeps the order total, and NaN compares
    /// equal to itself and greater than every number.
    #[inline]
    pub fn compare(self, other: Value) -> Ordering {
        match (self, other) {
            (Value::Cat(a), Value::Cat(b)) => a.cmp(&b),
            (Value::Num(a), Value::Num(b)) if a == b => Ordering::Equal,
            (Value::Num(a), Value::Num(b)) => a.total_cmp(&b),
            (Value::Cat(_), Value::Num(_)) | (Value::Num(_), Value::Cat(_)) => {
                panic!("cannot compare categorical and numeric values")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Cat(c) => write!(f, "#{c}"),
            Value::Num(v) => write!(f, "{v}"),
        }
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Cat(c)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Cat(3).cat(), 3);
        assert_eq!(Value::Num(2.5).num(), 2.5);
        assert_eq!(Value::Cat(3).as_num(), None);
        assert_eq!(Value::Num(2.5).as_cat(), None);
        assert_eq!(Value::from(7u32), Value::Cat(7));
        assert_eq!(Value::from(1.5f64), Value::Num(1.5));
    }

    #[test]
    #[should_panic(expected = "expected categorical")]
    fn cat_on_num_panics() {
        Value::Num(1.0).cat();
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn num_on_cat_panics() {
        Value::Cat(1).num();
    }

    #[test]
    fn compare_orders_within_kind() {
        assert_eq!(Value::Cat(1).compare(Value::Cat(2)), Ordering::Less);
        assert_eq!(Value::Num(3.0).compare(Value::Num(3.0)), Ordering::Equal);
        assert_eq!(Value::Num(4.0).compare(Value::Num(-1.0)), Ordering::Greater);
    }

    #[test]
    #[should_panic(expected = "cannot compare")]
    fn compare_across_kinds_panics() {
        Value::Cat(0).compare(Value::Num(0.0));
    }

    #[test]
    fn signed_zeros_compare_equal() {
        let (pos, neg) = (Value::Num(0.0), Value::Num(-0.0));
        assert_eq!(pos.compare(neg), Ordering::Equal);
        assert_eq!(neg.compare(pos), Ordering::Equal);
        assert_eq!(neg.compare(Value::Num(-1e-300)), Ordering::Greater);
        assert_eq!(pos.compare(Value::Num(1e-300)), Ordering::Less);
    }

    #[test]
    fn nan_has_total_order() {
        let nan = Value::Num(f64::NAN);
        assert_eq!(nan.compare(nan), Ordering::Equal);
        assert_eq!(nan.compare(Value::Num(1.0)), Ordering::Greater);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Cat(2).to_string(), "#2");
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
    }
}
