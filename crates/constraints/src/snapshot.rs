//! Snapshot codec for denial constraints. A fitted model's DC list (with
//! hardness) is part of its sampling behaviour — Algorithm 3 re-weights
//! candidates by the very same constraints — so snapshots persist the
//! parsed AST rather than source text: attribute references are schema
//! *indices*, immune to name-grammar drift, and `decode_dc` re-validates
//! them against the schema section loaded alongside.

use kamino_data::snapshot::{decode_value, encode_value};
use kamino_data::wire::{ByteReader, ByteWriter, WireError};
use kamino_data::Schema;

use crate::ast::{CmpOp, DenialConstraint, Hardness, Operand, Predicate, TupleRef};
use crate::parser::check_types;

const OPERAND_ATTR: u8 = 0;
const OPERAND_CONST: u8 = 1;

fn encode_operand(op: Operand, w: &mut ByteWriter) {
    match op {
        Operand::Attr { tuple, attr } => {
            w.put_u8(OPERAND_ATTR);
            w.put_u8(match tuple {
                TupleRef::T1 => 0,
                TupleRef::T2 => 1,
            });
            w.put_usize(attr);
        }
        Operand::Const(v) => {
            w.put_u8(OPERAND_CONST);
            encode_value(v, w);
        }
    }
}

fn decode_operand(r: &mut ByteReader<'_>, n_attrs: usize) -> Result<Operand, WireError> {
    match r.u8()? {
        OPERAND_ATTR => {
            let tuple = match r.u8()? {
                0 => TupleRef::T1,
                1 => TupleRef::T2,
                t => return Err(WireError::Malformed(format!("unknown tuple ref {t}"))),
            };
            let attr = r.usize()?;
            if attr >= n_attrs {
                return Err(WireError::Malformed(format!(
                    "attribute index {attr} out of range for {n_attrs}-attribute schema"
                )));
            }
            Ok(Operand::Attr { tuple, attr })
        }
        OPERAND_CONST => Ok(Operand::Const(decode_value(r)?)),
        tag => Err(WireError::Malformed(format!("unknown operand tag {tag}"))),
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from_tag(tag: u8) -> Result<CmpOp, WireError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(WireError::Malformed(format!("unknown cmp op tag {t}"))),
    })
}

/// Encodes one denial constraint (name, hardness, predicate list).
pub fn encode_dc(dc: &DenialConstraint, w: &mut ByteWriter) {
    w.put_str(&dc.name);
    w.put_u8(match dc.hardness {
        Hardness::Hard => 0,
        Hardness::Soft => 1,
    });
    w.put_u32(dc.predicates.len() as u32);
    for p in &dc.predicates {
        encode_operand(p.lhs, w);
        w.put_u8(cmp_tag(p.op));
        encode_operand(p.rhs, w);
    }
}

/// Decodes a constraint written by [`encode_dc`], validating it against
/// `schema` as the parser does: attribute indices in range, and every
/// predicate passing the parser's type rules (no categorical–numeric
/// comparison, no ordered categorical comparison, categorical constants
/// inside their attribute's domain).
pub fn decode_dc(r: &mut ByteReader<'_>, schema: &Schema) -> Result<DenialConstraint, WireError> {
    let name = r.string()?;
    let hardness = match r.u8()? {
        0 => Hardness::Hard,
        1 => Hardness::Soft,
        t => return Err(WireError::Malformed(format!("unknown hardness tag {t}"))),
    };
    let n = r.len_prefix()?;
    if n == 0 {
        return Err(WireError::Malformed(format!(
            "DC `{name}` has no predicates"
        )));
    }
    let mut predicates = Vec::with_capacity(n.min(1 << 8));
    for i in 0..n {
        let lhs = decode_operand(r, schema.len())?;
        let op = cmp_from_tag(r.u8()?)?;
        let rhs = decode_operand(r, schema.len())?;
        let pred = Predicate { lhs, op, rhs };
        check_types(schema, &pred)
            .map_err(|why| WireError::Malformed(format!("DC `{name}`: predicate {i} {why}")))?;
        predicates.push(pred);
    }
    Ok(DenialConstraint::new(name, predicates, hardness))
}

/// Encodes a DC list.
pub fn encode_dcs(dcs: &[DenialConstraint], w: &mut ByteWriter) {
    w.put_u32(dcs.len() as u32);
    for dc in dcs {
        encode_dc(dc, w);
    }
}

/// Decodes a DC list written by [`encode_dcs`].
pub fn decode_dcs(
    r: &mut ByteReader<'_>,
    schema: &Schema,
) -> Result<Vec<DenialConstraint>, WireError> {
    let n = r.len_prefix()?;
    let mut out = Vec::with_capacity(n.min(1 << 8));
    for _ in 0..n {
        out.push(decode_dc(r, schema)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dc;
    use kamino_data::{Attribute, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("a", 3).unwrap(),
            Attribute::categorical_indexed("b", 4).unwrap(),
            Attribute::numeric("x", 0.0, 9.0, 10).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn parsed_dcs_roundtrip() {
        let s = schema();
        let dcs = vec![
            parse_dc(&s, "fd", "!(t1.a == t2.a & t1.b != t2.b)", Hardness::Hard).unwrap(),
            parse_dc(
                &s,
                "ord",
                "!(t1.a == t2.a & t1.x < t2.x & t1.b != t2.b)",
                Hardness::Soft,
            )
            .unwrap(),
            parse_dc(&s, "unary", "!(t1.x > 5)", Hardness::Soft).unwrap(),
        ];
        let mut w = ByteWriter::new();
        encode_dcs(&dcs, &mut w);
        let bytes = w.into_bytes();
        let got = decode_dcs(&mut ByteReader::new(&bytes), &s).unwrap();
        assert_eq!(got, dcs);
    }

    #[test]
    fn ill_typed_predicates_are_rejected() {
        let s = schema();
        let attr = |tuple, attr| Operand::Attr { tuple, attr };
        let t1 = |a| attr(TupleRef::T1, a);
        let t2 = |a| attr(TupleRef::T2, a);
        for (lhs, op, rhs) in [
            (t1(0), CmpOp::Lt, Operand::Const(Value::Num(2.5))),
            (t1(0), CmpOp::Eq, t2(2)),
            (t1(0), CmpOp::Lt, t2(0)),
            (t1(0), CmpOp::Eq, Operand::Const(Value::Cat(3))),
            (Operand::Const(Value::Cat(999)), CmpOp::Ne, t1(1)),
        ] {
            let dc = DenialConstraint::new("bad", vec![Predicate { lhs, op, rhs }], Hardness::Hard);
            let mut w = ByteWriter::new();
            encode_dcs(&[dc], &mut w);
            let bytes = w.into_bytes();
            assert!(
                matches!(
                    decode_dcs(&mut ByteReader::new(&bytes), &s),
                    Err(WireError::Malformed(_))
                ),
                "{lhs:?} {op:?} {rhs:?} decoded"
            );
        }
    }

    #[test]
    fn out_of_range_attr_rejected() {
        let s = schema();
        let dc = parse_dc(&s, "fd", "!(t1.a == t2.a & t1.b != t2.b)", Hardness::Hard).unwrap();
        let mut w = ByteWriter::new();
        encode_dcs(&[dc], &mut w);
        let bytes = w.into_bytes();
        // a one-attribute schema makes every index ≥ 1 invalid
        let tiny = Schema::new(vec![Attribute::categorical_indexed("only", 2).unwrap()]).unwrap();
        assert!(decode_dcs(&mut ByteReader::new(&bytes), &tiny).is_err());
    }
}
