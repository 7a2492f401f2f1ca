//! Built-in comparison predicates.
//!
//! The paper's EDB includes the built-in predicates `=`, `≠`, `>`, `≥`,
//! `<`, `≤` (§2.2), whose extensions are "assumed to be known and treated
//! as if they are stored". This module evaluates them over [`Value`]s.
//! Ordering comparisons require both operands to be of comparable kinds
//! (numbers with numbers, symbols with symbols, …); evaluating an
//! incomparable pair is a type error surfaced to the caller rather than a
//! silent `false`.

use crate::error::{Result, StorageError};
use crate::Value;
use qdk_logic::{Atom, Bindings, Term};

/// True if `name` is a built-in comparison predicate.
pub fn is_builtin(name: &str) -> bool {
    qdk_logic::Atom::new(name, vec![]).is_builtin()
}

/// Evaluates `l op r`.
pub fn eval(op: &str, l: &Value, r: &Value) -> Result<bool> {
    match op {
        "=" => Ok(l == r),
        "!=" => Ok(l != r),
        "<" | "<=" | ">" | ">=" => {
            if !l.comparable(r) {
                return Err(StorageError::NotComparable {
                    left: l.clone(),
                    right: r.clone(),
                });
            }
            Ok(match op {
                "<" => l < r,
                "<=" => l <= r,
                ">" => l > r,
                ">=" => l >= r,
                _ => unreachable!(),
            })
        }
        other => Err(StorageError::UnknownBuiltin(other.to_string())),
    }
}

/// Evaluates a built-in atom under a substitution. Returns:
///
/// * `Ok(Some(true/false))` if both arguments are ground after applying the
///   substitution;
/// * `Ok(None)` if either argument is still a variable (the comparison is
///   not yet decidable — callers typically defer it);
/// * `Err` for arity/type errors.
pub fn eval_atom(atom: &Atom, subst: &Bindings) -> Result<Option<bool>> {
    if atom.args.len() != 2 {
        return Err(StorageError::ArityMismatch {
            predicate: atom.pred.to_string(),
            expected: 2,
            found: atom.args.len(),
        });
    }
    match (subst.resolve(&atom.args[0]), subst.resolve(&atom.args[1])) {
        (Term::Const(lc), Term::Const(rc)) => eval(atom.pred.as_str(), lc, rc).map(Some),
        _ => Ok(None),
    }
}

/// The negation of a comparison operator, e.g. `<` ↦ `>=`.
pub fn negate_op(op: &str) -> Option<&'static str> {
    Some(match op {
        "=" => "!=",
        "!=" => "=",
        "<" => ">=",
        "<=" => ">",
        ">" => "<=",
        ">=" => "<",
        _ => return None,
    })
}

/// The operator with its operands swapped, e.g. `X < Y` ⇔ `Y > X`.
pub fn flip_op(op: &str) -> Option<&'static str> {
    Some(match op {
        "=" => "=",
        "!=" => "!=",
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::Var;

    #[test]
    fn numeric_comparisons() {
        assert!(eval(">", &Value::Num(3.9), &Value::Num(3.7)).unwrap());
        assert!(!eval(">", &Value::Num(3.5), &Value::Num(3.7)).unwrap());
        assert!(eval(">=", &Value::Int(4), &Value::Num(4.0)).unwrap());
        assert!(eval("<=", &Value::Int(3), &Value::Num(3.7)).unwrap());
        assert!(eval("<", &Value::Num(3.3), &Value::Int(4)).unwrap());
    }

    #[test]
    fn equality_on_all_kinds() {
        assert!(eval("=", &Value::sym("a"), &Value::sym("a")).unwrap());
        assert!(eval("!=", &Value::sym("a"), &Value::Int(1)).unwrap());
        assert!(!eval("=", &Value::str("a"), &Value::sym("a")).unwrap());
    }

    #[test]
    fn ordering_symbols_is_lexicographic() {
        assert!(eval("<", &Value::sym("algebra"), &Value::sym("calculus")).unwrap());
    }

    #[test]
    fn incomparable_kinds_error() {
        let e = eval("<", &Value::sym("a"), &Value::Int(1)).unwrap_err();
        assert!(matches!(e, StorageError::NotComparable { .. }));
    }

    #[test]
    fn unknown_operator_errors() {
        assert!(matches!(
            eval("~", &Value::Int(1), &Value::Int(2)),
            Err(StorageError::UnknownBuiltin(_))
        ));
    }

    #[test]
    fn eval_atom_ground_and_deferred() {
        let a = Atom::new(">", vec![Term::var("Z"), Term::num(3.7)]);
        let empty = Bindings::new();
        assert_eq!(eval_atom(&a, &empty).unwrap(), None);
        let s: Bindings = [(Var::new("Z"), Term::num(3.9))].into_iter().collect();
        assert_eq!(eval_atom(&a, &s).unwrap(), Some(true));
        let s2: Bindings = [(Var::new("Z"), Term::num(3.5))].into_iter().collect();
        assert_eq!(eval_atom(&a, &s2).unwrap(), Some(false));
    }

    #[test]
    fn eval_atom_checks_arity() {
        let a = Atom::new(">", vec![Term::int(1)]);
        assert!(eval_atom(&a, &Bindings::new()).is_err());
    }

    #[test]
    fn negate_and_flip() {
        assert_eq!(negate_op("<"), Some(">="));
        assert_eq!(negate_op("="), Some("!="));
        assert_eq!(flip_op("<"), Some(">"));
        assert_eq!(flip_op("="), Some("="));
        assert_eq!(negate_op("p"), None);
        // negate ∘ negate = identity
        for op in ["=", "!=", "<", "<=", ">", ">="] {
            assert_eq!(negate_op(negate_op(op).unwrap()), Some(op));
            assert_eq!(flip_op(flip_op(op).unwrap()), Some(op));
        }
    }
}
