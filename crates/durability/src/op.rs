//! The logged operations.
//!
//! One [`WalOp`] per knowledge-base mutation. The set mirrors exactly the
//! mutations `dump()` would have to reproduce: declarations (with their
//! optional key), stored facts, rules, constraints, and retractions.
//! Derived facts and caches are recomputed, never logged.

use crate::codec::{Dec, Enc};
use crate::error::{DurabilityError, Result};
use qdk_logic::{Atom, Constraint, Rule, Sym};
use qdk_storage::Tuple;

/// Op kind tags (stable on disk).
const OP_DECLARE: u8 = 0;
const OP_ADD_FACT: u8 = 1;
const OP_ADD_RULE: u8 = 2;
const OP_RETRACT: u8 = 3;
const OP_ADD_CONSTRAINT: u8 = 4;
const OP_BATCH: u8 = 5;

/// A single logged knowledge-base mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// `.decl name(attr, …)` with an optional key prefix length.
    Declare {
        /// Predicate name.
        name: String,
        /// Attribute names, in order.
        attrs: Vec<String>,
        /// Key prefix length, if a key was declared.
        key: Option<usize>,
    },
    /// A ground fact asserted into the EDB.
    AddFact {
        /// Predicate name.
        pred: String,
        /// The stored row.
        tuple: Tuple,
    },
    /// A rule added to the IDB.
    AddRule(Rule),
    /// A ground fact retracted from the EDB.
    Retract {
        /// Predicate name.
        pred: String,
        /// The row to remove.
        tuple: Tuple,
    },
    /// An integrity constraint added to the KB.
    AddConstraint(Constraint),
    /// An atomic batch of mutations committed as one transaction. The
    /// whole batch lives in a single WAL record, so the record-level CRC
    /// makes it all-or-nothing on disk: a torn tail is truncated as a
    /// whole and recovery never replays half a batch.
    Batch(Vec<WalOp>),
}

impl WalOp {
    /// Convenience constructor from a ground atom (fact assertion).
    pub fn add_fact(atom: &Atom) -> Option<WalOp> {
        Some(WalOp::AddFact {
            pred: atom.pred.as_str().to_string(),
            tuple: atom_tuple(atom)?,
        })
    }

    /// Convenience constructor from a ground atom (fact retraction).
    pub fn retract(atom: &Atom) -> Option<WalOp> {
        Some(WalOp::Retract {
            pred: atom.pred.as_str().to_string(),
            tuple: atom_tuple(atom)?,
        })
    }

    /// Encodes the op body into `enc` (tag byte first).
    pub fn encode(&self, enc: &mut Enc) {
        match self {
            WalOp::Declare { name, attrs, key } => {
                enc.byte(OP_DECLARE);
                enc.str(name);
                enc.varint(attrs.len() as u64);
                for a in attrs {
                    enc.str(a);
                }
                match key {
                    None => enc.byte(0),
                    Some(k) => {
                        enc.byte(1);
                        enc.varint(*k as u64);
                    }
                }
            }
            WalOp::AddFact { pred, tuple } => {
                enc.byte(OP_ADD_FACT);
                let pred = enc.str_id(pred);
                encode_named_tuple(enc, pred, tuple);
            }
            WalOp::AddRule(rule) => {
                enc.byte(OP_ADD_RULE);
                enc.rule(rule);
            }
            WalOp::Retract { pred, tuple } => {
                enc.byte(OP_RETRACT);
                let pred = enc.str_id(pred);
                encode_named_tuple(enc, pred, tuple);
            }
            WalOp::AddConstraint(c) => {
                enc.byte(OP_ADD_CONSTRAINT);
                enc.constraint(c);
            }
            WalOp::Batch(ops) => {
                enc.byte(OP_BATCH);
                enc.varint(ops.len() as u64);
                for op in ops {
                    op.encode(enc);
                }
            }
        }
    }

    /// Decodes one op from `dec`.
    pub fn decode(dec: &mut Dec<'_>) -> Result<WalOp> {
        Ok(match dec.byte()? {
            OP_DECLARE => {
                let name = dec.sym()?.as_str().to_string();
                let n = dec.checked_count()?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    attrs.push(dec.sym()?.as_str().to_string());
                }
                let key = match dec.byte()? {
                    0 => None,
                    1 => Some(dec.varint()? as usize),
                    tag => {
                        return Err(DurabilityError::Corrupt {
                            what: "encoding",
                            detail: format!("unknown key tag {tag}"),
                        })
                    }
                };
                WalOp::Declare { name, attrs, key }
            }
            OP_ADD_FACT => {
                let (pred, tuple) = decode_named_tuple(dec)?;
                WalOp::AddFact {
                    pred: pred.as_str().to_string(),
                    tuple,
                }
            }
            OP_ADD_RULE => WalOp::AddRule(dec.rule()?),
            OP_RETRACT => {
                let (pred, tuple) = decode_named_tuple(dec)?;
                WalOp::Retract {
                    pred: pred.as_str().to_string(),
                    tuple,
                }
            }
            OP_ADD_CONSTRAINT => WalOp::AddConstraint(dec.constraint()?),
            OP_BATCH => {
                let n = dec.checked_count()?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(WalOp::decode(dec)?);
                }
                WalOp::Batch(ops)
            }
            tag => {
                return Err(DurabilityError::Corrupt {
                    what: "encoding",
                    detail: format!("unknown op tag {tag}"),
                })
            }
        })
    }
}

/// Encodes `pred(tuple)` as a name id + value row, `pred` being the
/// name's table id ([`Enc::str_id`]).
pub(crate) fn encode_named_tuple(enc: &mut Enc, pred: u32, tuple: &Tuple) {
    enc.varint(u64::from(pred));
    enc.varint(tuple.arity() as u64);
    for v in tuple.values() {
        enc.value(v);
    }
}

/// Decodes a name id + value row.
pub(crate) fn decode_named_tuple(dec: &mut Dec<'_>) -> Result<(Sym, Tuple)> {
    let pred = dec.sym()?;
    let n = dec.checked_count()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(dec.value()?);
    }
    Ok((pred, Tuple::new(values)))
}

/// Projects a ground atom onto its stored row; `None` if any argument is a
/// variable (callers validate groundness before logging).
fn atom_tuple(atom: &Atom) -> Option<Tuple> {
    let mut values = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        match t {
            qdk_logic::Term::Const(c) => values.push(c.clone()),
            qdk_logic::Term::Var(_) => return None,
        }
    }
    Some(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_rule};

    fn roundtrip(op: &WalOp) -> WalOp {
        let mut enc = Enc::new();
        op.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes).unwrap();
        let back = WalOp::decode(&mut dec).unwrap();
        dec.expect_end().unwrap();
        back
    }

    #[test]
    fn all_ops_roundtrip() {
        let ops = [
            WalOp::Declare {
                name: "student".into(),
                attrs: vec!["name".into(), "course".into(), "grade".into()],
                key: Some(2),
            },
            WalOp::Declare {
                name: "prereq".into(),
                attrs: vec!["course".into(), "requires".into()],
                key: None,
            },
            WalOp::add_fact(&parse_atom("student(susan, databases, 3.7)").unwrap()).unwrap(),
            WalOp::AddRule(parse_rule("honor(X) :- student(X, Y, Z), Z > 3.5.").unwrap()),
            WalOp::retract(&parse_atom("student(susan, databases, 3.7)").unwrap()).unwrap(),
            WalOp::AddConstraint(Constraint::new(vec![
                parse_atom("foreign(X)").unwrap(),
                parse_atom("unmarried(X)").unwrap(),
            ])),
        ];
        for op in &ops {
            assert_eq!(&roundtrip(op), op);
        }
    }

    #[test]
    fn batches_roundtrip_as_one_record() {
        let batch = WalOp::Batch(vec![
            WalOp::Declare {
                name: "edge".into(),
                attrs: vec!["from".into(), "to".into()],
                key: None,
            },
            WalOp::add_fact(&parse_atom("edge(a, b)").unwrap()).unwrap(),
            WalOp::retract(&parse_atom("edge(a, b)").unwrap()).unwrap(),
            WalOp::AddRule(parse_rule("path(X, Y) :- edge(X, Y).").unwrap()),
        ]);
        assert_eq!(roundtrip(&batch), batch);
        // Empty batches are legal (a committed transaction that logged
        // nothing encodes to nothing at apply time).
        let empty = WalOp::Batch(Vec::new());
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn non_ground_atoms_refuse_projection() {
        assert_eq!(
            WalOp::add_fact(&parse_atom("student(X, db, 3.0)").unwrap()),
            None
        );
        assert_eq!(
            WalOp::retract(&parse_atom("student(X, db, 3.0)").unwrap()),
            None
        );
    }
}
