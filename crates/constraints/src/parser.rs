//! Text parser for denial constraints.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! dc      := '!' '(' pred ( '&' pred )* ')'
//! pred    := operand op operand
//! operand := ('t1' | 't2') '.' attr-name
//!          | number
//!          | '\'' label '\''
//! op      := '==' | '=' | '!=' | '<=' | '>=' | '<' | '>'
//! ```
//!
//! `t1`/`t2` are the paper's `t_i`/`t_j`. A categorical constant `'label'`
//! is resolved against the domain of the attribute on the other side of the
//! predicate; a bare number is numeric. Examples:
//!
//! ```text
//! !(t1.edu == t2.edu & t1.edu_num != t2.edu_num)      -- FD edu → edu_num
//! !(t1.cap_gain > t2.cap_gain & t1.cap_loss < t2.cap_loss)
//! !(t1.age < 10 & t1.cap_gain > 1000000)              -- unary DC
//! !(t1.state == 'CA' & t1.rate > 9)                   -- conditional (CFD-like)
//! ```

use kamino_data::{DataError, Schema, Value};

use crate::ast::{CmpOp, DenialConstraint, Hardness, Operand, Predicate, TupleRef};

/// Parses the textual DC `text` against `schema`.
///
/// ```
/// use kamino_constraints::{parse_dc, Hardness};
/// use kamino_data::{Attribute, Schema};
///
/// let schema = Schema::new(vec![
///     Attribute::categorical_indexed("edu", 16).unwrap(),
///     Attribute::integer("edu_num", 1.0, 16.0, 16).unwrap(),
/// ]).unwrap();
/// let dc = parse_dc(
///     &schema,
///     "phi1",
///     "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
///     Hardness::Hard,
/// ).unwrap();
/// let fd = dc.as_fd().unwrap();
/// assert_eq!(schema.attr(fd.rhs).name, "edu_num");
/// ```
///
/// # Errors
/// Returns [`DataError::Parse`] on malformed syntax and when a predicate
/// compares incompatible kinds (e.g. a categorical attribute with `<`),
/// and [`DataError::UnknownAttribute`]/[`DataError::UnknownLabel`] when
/// names do not resolve.
pub fn parse_dc(
    schema: &Schema,
    name: &str,
    text: &str,
    hardness: Hardness,
) -> Result<DenialConstraint, DataError> {
    let body = text.trim();
    let body = body
        .strip_prefix('!')
        .ok_or_else(|| DataError::Parse(format!("`{name}`: expected leading `!`")))?
        .trim_start();
    let body = body
        .strip_prefix('(')
        .and_then(|b| b.strip_suffix(')'))
        .ok_or_else(|| DataError::Parse(format!("`{name}`: expected parenthesized body")))?;

    let mut predicates = Vec::new();
    for raw in split_top_level(body) {
        predicates.push(parse_predicate(schema, name, raw.trim())?);
    }
    if predicates.is_empty() {
        return Err(DataError::Parse(format!("`{name}`: no predicates")));
    }
    Ok(DenialConstraint::new(name, predicates, hardness))
}

/// Splits on `&` outside of quotes.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quote = false;
    for (i, c) in body.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            '&' if !in_quote => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

fn parse_predicate(schema: &Schema, name: &str, raw: &str) -> Result<Predicate, DataError> {
    // Find the operator outside quotes. Two-char operators first.
    let ops: [(&str, CmpOp); 7] = [
        ("==", CmpOp::Eq),
        ("!=", CmpOp::Ne),
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
        ("=", CmpOp::Eq),
    ];
    let mut in_quote = false;
    let bytes = raw.as_bytes();
    for i in 0..bytes.len() {
        if bytes[i] == b'\'' {
            in_quote = !in_quote;
            continue;
        }
        if in_quote {
            continue;
        }
        for (sym, op) in ops {
            if raw[i..].starts_with(sym) {
                let lhs_txt = raw[..i].trim();
                let rhs_txt = raw[i + sym.len()..].trim();
                if lhs_txt.is_empty() || rhs_txt.is_empty() {
                    return Err(DataError::Parse(format!(
                        "`{name}`: predicate `{raw}` is missing an operand"
                    )));
                }
                let (lhs, rhs) = resolve_operands(schema, name, lhs_txt, rhs_txt)?;
                let pred = Predicate { lhs, op, rhs };
                check_types(schema, &pred).map_err(|why| {
                    DataError::Parse(format!("`{name}`: predicate `{raw}` {why}"))
                })?;
                return Ok(pred);
            }
        }
    }
    Err(DataError::Parse(format!(
        "`{name}`: predicate `{raw}` has no comparison operator"
    )))
}

enum RawOperand<'a> {
    Attr(TupleRef, usize),
    NumConst(f64),
    LabelConst(&'a str),
}

fn parse_operand<'a>(
    schema: &Schema,
    name: &str,
    txt: &'a str,
) -> Result<RawOperand<'a>, DataError> {
    if let Some(rest) = txt.strip_prefix("t1.").or_else(|| txt.strip_prefix("ti.")) {
        return Ok(RawOperand::Attr(
            TupleRef::T1,
            schema.index_of(rest.trim())?,
        ));
    }
    if let Some(rest) = txt.strip_prefix("t2.").or_else(|| txt.strip_prefix("tj.")) {
        return Ok(RawOperand::Attr(
            TupleRef::T2,
            schema.index_of(rest.trim())?,
        ));
    }
    if let Some(inner) = txt.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
        return Ok(RawOperand::LabelConst(inner));
    }
    txt.parse::<f64>()
        .map(RawOperand::NumConst)
        .map_err(|_| DataError::Parse(format!("`{name}`: cannot parse operand `{txt}`")))
}

fn resolve_operands(
    schema: &Schema,
    name: &str,
    lhs_txt: &str,
    rhs_txt: &str,
) -> Result<(Operand, Operand), DataError> {
    let lhs = parse_operand(schema, name, lhs_txt)?;
    let rhs = parse_operand(schema, name, rhs_txt)?;
    // Resolve label constants against the attribute on the other side.
    let attr_of = |o: &RawOperand| match o {
        RawOperand::Attr(_, a) => Some(*a),
        _ => None,
    };
    let other_attr = |this: &RawOperand, that: &RawOperand| attr_of(that).or(attr_of(this));
    let finish = |o: RawOperand, other: Option<usize>| -> Result<Operand, DataError> {
        match o {
            RawOperand::Attr(t, a) => Ok(Operand::Attr { tuple: t, attr: a }),
            RawOperand::NumConst(x) => Ok(Operand::Const(Value::Num(x))),
            RawOperand::LabelConst(label) => {
                let a = other.ok_or_else(|| {
                    DataError::Parse(format!(
                        "`{name}`: label constant '{label}' needs an attribute operand"
                    ))
                })?;
                let attr = schema.attr(a);
                let code = attr.code(label).ok_or_else(|| DataError::UnknownLabel {
                    attr: attr.name.clone(),
                    label: label.to_string(),
                })?;
                Ok(Operand::Const(Value::Cat(code)))
            }
        }
    };
    let l_other = other_attr(&lhs, &rhs);
    let r_other = other_attr(&rhs, &lhs);
    Ok((finish(lhs, l_other)?, finish(rhs, r_other)?))
}

/// The type rules every predicate obeys, whether parsed or decoded from a
/// snapshot: both operands have one kind, categorical values compare only
/// by `==`/`!=`, and a categorical constant lies in the domain of the
/// attribute it is compared with. The error completes "predicate … ".
pub(crate) fn check_types(schema: &Schema, p: &Predicate) -> Result<(), String> {
    let is_cat = |o: Operand| match o {
        Operand::Attr { attr, .. } => schema.attr(attr).is_categorical(),
        Operand::Const(v) => matches!(v, Value::Cat(_)),
    };
    let categorical = is_cat(p.lhs);
    if categorical != is_cat(p.rhs) {
        return Err("compares categorical and numeric operands".into());
    }
    // Ordered comparison of categorical attributes is ill-defined.
    if categorical && !matches!(p.op, CmpOp::Eq | CmpOp::Ne) {
        return Err("orders categorical values; only ==/!= are allowed".into());
    }
    for (this, other) in [(p.lhs, p.rhs), (p.rhs, p.lhs)] {
        if let (Operand::Const(v @ Value::Cat(_)), Operand::Attr { attr, .. }) = (this, other) {
            let attr = schema.attr(attr);
            if attr.validate(v).is_err() {
                return Err(format!(
                    "compares `{}` with {v}, outside its domain",
                    attr.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kamino_data::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical("edu", vec!["HS".into(), "BS".into(), "MS".into()]).unwrap(),
            Attribute::integer("edu_num", 1.0, 16.0, 16).unwrap(),
            Attribute::numeric("cap_gain", 0.0, 1e6, 10).unwrap(),
            Attribute::numeric("cap_loss", 0.0, 1e5, 10).unwrap(),
            Attribute::integer("age", 0.0, 100.0, 20).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn parses_fd() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "phi1",
            "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
            Hardness::Hard,
        )
        .unwrap();
        assert!(dc.is_binary());
        let fd = dc.as_fd().unwrap();
        assert_eq!(fd.lhs, vec![0]);
        assert_eq!(fd.rhs, 1);
        assert_eq!(dc.hardness, Hardness::Hard);
    }

    #[test]
    fn parses_order_dc() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "phi2",
            "!(t1.cap_gain > t2.cap_gain & t1.cap_loss < t2.cap_loss)",
            Hardness::Soft,
        )
        .unwrap();
        assert!(dc.is_binary());
        assert!(dc.as_fd().is_none());
        assert_eq!(dc.predicates.len(), 2);
        assert_eq!(dc.hardness, Hardness::Soft);
    }

    #[test]
    fn parses_unary_with_constants() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "phi3",
            "!(t1.age < 10 & t1.cap_gain > 1000000)",
            Hardness::Hard,
        )
        .unwrap();
        assert!(!dc.is_binary());
        assert_eq!(dc.predicates[1].rhs, Operand::Const(Value::Num(1000000.0)));
    }

    #[test]
    fn parses_label_constant() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "cfd",
            "!(t1.edu == 'BS' & t1.edu_num < 10)",
            Hardness::Soft,
        )
        .unwrap();
        assert_eq!(dc.predicates[0].rhs, Operand::Const(Value::Cat(1)));
    }

    #[test]
    fn accepts_single_equals_and_ti_tj() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "p",
            "!(ti.edu = tj.edu & ti.edu_num != tj.edu_num)",
            Hardness::Hard,
        )
        .unwrap();
        assert!(dc.as_fd().is_some());
    }

    #[test]
    fn rejects_unknown_attribute() {
        let s = schema();
        let err = parse_dc(&s, "p", "!(t1.zzz == t2.zzz)", Hardness::Hard).unwrap_err();
        assert!(matches!(err, DataError::UnknownAttribute(_)));
    }

    #[test]
    fn rejects_unknown_label() {
        let s = schema();
        let err = parse_dc(&s, "p", "!(t1.edu == 'PhD')", Hardness::Hard).unwrap_err();
        assert!(matches!(err, DataError::UnknownLabel { .. }));
    }

    #[test]
    fn rejects_mixed_kind_comparison() {
        let s = schema();
        assert!(parse_dc(&s, "p", "!(t1.edu == t2.edu_num)", Hardness::Hard).is_err());
        assert!(parse_dc(&s, "p", "!(t1.edu == 3)", Hardness::Hard).is_err());
    }

    #[test]
    fn rejects_ordering_categoricals() {
        let s = schema();
        assert!(parse_dc(&s, "p", "!(t1.edu < t2.edu)", Hardness::Hard).is_err());
    }

    #[test]
    fn rejects_malformed_syntax() {
        let s = schema();
        assert!(parse_dc(&s, "p", "(t1.age < 10)", Hardness::Hard).is_err());
        assert!(parse_dc(&s, "p", "!t1.age < 10", Hardness::Hard).is_err());
        assert!(parse_dc(&s, "p", "!(t1.age 10)", Hardness::Hard).is_err());
        assert!(parse_dc(&s, "p", "!(t1.age <)", Hardness::Hard).is_err());
        assert!(parse_dc(&s, "p", "!()", Hardness::Hard).is_err());
    }

    #[test]
    fn whitespace_insensitive() {
        let s = schema();
        let a = parse_dc(&s, "p", "!(t1.age<10&t1.cap_gain>5)", Hardness::Hard).unwrap();
        let b = parse_dc(
            &s,
            "p",
            "!( t1.age < 10 & t1.cap_gain > 5 )",
            Hardness::Hard,
        )
        .unwrap();
        assert_eq!(a.predicates, b.predicates);
    }

    #[test]
    fn three_predicate_dc() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "p",
            "!(t1.edu == t2.edu & t1.age <= t2.age & t1.edu_num > t2.edu_num)",
            Hardness::Soft,
        )
        .unwrap();
        assert_eq!(dc.predicates.len(), 3);
        assert!(dc.as_fd().is_none());
    }
}
