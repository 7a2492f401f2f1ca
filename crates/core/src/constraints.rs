//! Comparison-formula reasoning (§4).
//!
//! Built-in comparison formulas are never *identified* with hypothesis
//! formulas. Instead, after an answer is generated, every comparison β of
//! its body is checked against every comparison α of the hypothesis over
//! the same variables:
//!
//! * if α ⊨ β, then β is redundant and removed from the answer;
//! * if α ∧ β is unsatisfiable, the answer is discarded (and if *every*
//!   answer is discarded this way, the special "hypothesis contradicts the
//!   IDB" answer is issued).
//!
//! This module is the decision procedure for those two judgements over the
//! comparison fragment: atoms `t₁ op t₂` with `op ∈ {=, !=, <, <=, >, >=}`
//! and each `tᵢ` a variable or constant. The domain is treated as a dense
//! linear order (numbers; symbols/strings order lexicographically), which
//! makes the judgements exact for variable–constant and variable–variable
//! comparisons over identical variables.

use qdk_logic::{Atom, Literal, Term, Var};
use qdk_storage::Value;

/// A comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Op {
    /// Parses an operator symbol.
    pub fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "=" => Op::Eq,
            "!=" => Op::Ne,
            "<" => Op::Lt,
            "<=" => Op::Le,
            ">" => Op::Gt,
            ">=" => Op::Ge,
            _ => return None,
        })
    }

    /// The operator with operands swapped: `x op y ⇔ y op.flip() x`.
    pub fn flip(self) -> Op {
        match self {
            Op::Eq => Op::Eq,
            Op::Ne => Op::Ne,
            Op::Lt => Op::Gt,
            Op::Le => Op::Ge,
            Op::Gt => Op::Lt,
            Op::Ge => Op::Le,
        }
    }

    /// The operator's symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    /// Evaluates the operator on constants (`None` when an ordering is
    /// applied to incomparable kinds).
    pub fn eval(self, l: &Value, r: &Value) -> Option<bool> {
        match self {
            Op::Eq => Some(l == r),
            Op::Ne => Some(l != r),
            _ if !l.comparable(r) => None,
            Op::Lt => Some(l < r),
            Op::Le => Some(l <= r),
            Op::Gt => Some(l > r),
            Op::Ge => Some(l >= r),
        }
    }

    /// The relation set over {<, =, >} denoted by the operator, encoded as
    /// a bitmask (bit 0 = <, bit 1 = =, bit 2 = >). Used for
    /// variable–variable reasoning.
    fn relset(self) -> u8 {
        match self {
            Op::Lt => 0b001,
            Op::Eq => 0b010,
            Op::Gt => 0b100,
            Op::Le => 0b011,
            Op::Ge => 0b110,
            Op::Ne => 0b101,
        }
    }
}

/// A normalized comparison formula.
#[derive(Clone, Debug, PartialEq)]
pub enum Comparison {
    /// `var op value` (constant side normalized to the right).
    VarConst {
        /// The variable.
        var: Var,
        /// The operator (after normalization).
        op: Op,
        /// The constant bound.
        val: Value,
    },
    /// `left op right` over two distinct variables, with `left < right`
    /// lexicographically (normalized by flipping).
    VarVar {
        /// The smaller-named variable.
        left: Var,
        /// The operator (after normalization).
        op: Op,
        /// The larger-named variable.
        right: Var,
    },
    /// A ground comparison, already evaluated. `None` means the operands
    /// were incomparable kinds (an error surfaced by the caller).
    Ground(Option<bool>),
    /// `X op X` — the same variable on both sides; truth is fixed by the
    /// operator (`=`, `<=`, `>=` hold; `!=`, `<`, `>` do not).
    SameVar(bool),
}

impl Comparison {
    /// Normalizes a built-in atom into a [`Comparison`]. Returns `None` if
    /// the atom is not a binary built-in comparison.
    pub fn from_atom(atom: &Atom) -> Option<Comparison> {
        let op = Op::parse(atom.pred.as_str())?;
        if atom.args.len() != 2 {
            return None;
        }
        Some(match (&atom.args[0], &atom.args[1]) {
            (Term::Var(v), Term::Const(c)) => Comparison::VarConst {
                var: v.clone(),
                op,
                val: c.clone(),
            },
            (Term::Const(c), Term::Var(v)) => Comparison::VarConst {
                var: v.clone(),
                op: op.flip(),
                val: c.clone(),
            },
            (Term::Const(a), Term::Const(b)) => Comparison::Ground(op.eval(a, b)),
            (Term::Var(a), Term::Var(b)) => {
                if a == b {
                    Comparison::SameVar(matches!(op, Op::Eq | Op::Le | Op::Ge))
                } else if a <= b {
                    Comparison::VarVar {
                        left: a.clone(),
                        op,
                        right: b.clone(),
                    }
                } else {
                    Comparison::VarVar {
                        left: b.clone(),
                        op: op.flip(),
                        right: a.clone(),
                    }
                }
            }
        })
    }

    /// Renders the comparison back to an atom.
    pub fn to_atom(&self) -> Atom {
        match self {
            Comparison::VarConst { var, op, val } => Atom::new(
                op.symbol(),
                vec![Term::Var(var.clone()), Term::Const(val.clone())],
            ),
            Comparison::VarVar { left, op, right } => Atom::new(
                op.symbol(),
                vec![Term::Var(left.clone()), Term::Var(right.clone())],
            ),
            Comparison::Ground(b) => {
                let t = Term::int(0);
                // A canonical ground form: 0 = 0 or 0 != 0.
                match b {
                    Some(true) => Atom::new("=", vec![t.clone(), t]),
                    _ => Atom::new("!=", vec![t.clone(), t]),
                }
            }
            Comparison::SameVar(b) => {
                let v = Term::var("X");
                match b {
                    true => Atom::new("=", vec![v.clone(), v]),
                    false => Atom::new("!=", vec![v.clone(), v]),
                }
            }
        }
    }
}

/// Is `region(op1, a) ⊆ region(op2, b)` over a dense linear order?
/// Returns `false` when the bounds are incomparable kinds.
fn region_subset(op1: Op, a: &Value, op2: Op, b: &Value) -> bool {
    let lt = |x: &Value, y: &Value| Op::Lt.eval(x, y).unwrap_or(false);
    let le = |x: &Value, y: &Value| Op::Le.eval(x, y).unwrap_or(false);
    let eq = |x: &Value, y: &Value| x == y;
    match op2 {
        Op::Lt => match op1 {
            Op::Lt => le(a, b),
            Op::Le => lt(a, b),
            Op::Eq => lt(a, b),
            _ => false,
        },
        Op::Le => match op1 {
            Op::Lt | Op::Le | Op::Eq => le(a, b),
            _ => false,
        },
        Op::Gt => match op1 {
            Op::Gt => le(b, a),
            Op::Ge => lt(b, a),
            Op::Eq => lt(b, a),
            _ => false,
        },
        Op::Ge => match op1 {
            Op::Gt | Op::Ge | Op::Eq => le(b, a),
            _ => false,
        },
        Op::Eq => matches!(op1, Op::Eq) && eq(a, b),
        Op::Ne => match op1 {
            Op::Eq => !eq(a, b),
            Op::Ne => eq(a, b),
            Op::Lt => le(b, a),
            Op::Le => lt(b, a),
            Op::Gt => le(a, b),
            Op::Ge => lt(a, b),
        },
    }
}

/// Is `region(op1, a) ∩ region(op2, b) = ∅` over a dense linear order?
fn region_disjoint(op1: Op, a: &Value, op2: Op, b: &Value) -> bool {
    let lt = |x: &Value, y: &Value| Op::Lt.eval(x, y).unwrap_or(false);
    let le = |x: &Value, y: &Value| Op::Le.eval(x, y).unwrap_or(false);
    match (op1, op2) {
        (Op::Eq, Op::Eq) => a != b,
        (Op::Eq, Op::Ne) | (Op::Ne, Op::Eq) => a == b,
        (Op::Eq, o) => {
            !region_subset(Op::Eq, a, o, b) && {
                // A point is disjoint from a region iff it is not inside it.
                true
            }
        }
        (o, Op::Eq) => region_disjoint(Op::Eq, b, o, a),
        // Two lower-bounded or two upper-bounded regions always overlap.
        (Op::Gt | Op::Ge, Op::Gt | Op::Ge) => false,
        (Op::Lt | Op::Le, Op::Lt | Op::Le) => false,
        // Ne removes a single point: never disjoint from an interval.
        (Op::Ne, _) | (_, Op::Ne) => false,
        // Upper-bounded vs lower-bounded:
        (Op::Lt, Op::Gt) | (Op::Gt, Op::Lt) => {
            let (hi, lo) = if op1 == Op::Lt { (a, b) } else { (b, a) };
            le(hi, lo)
        }
        (Op::Lt, Op::Ge) | (Op::Ge, Op::Lt) => {
            let (hi, lo) = if op1 == Op::Lt { (a, b) } else { (b, a) };
            le(hi, lo)
        }
        (Op::Le, Op::Gt) | (Op::Gt, Op::Le) => {
            let (hi, lo) = if op1 == Op::Le { (a, b) } else { (b, a) };
            le(hi, lo)
        }
        (Op::Le, Op::Ge) | (Op::Ge, Op::Le) => {
            let (hi, lo) = if op1 == Op::Le { (a, b) } else { (b, a) };
            lt(hi, lo)
        }
    }
}

/// The positive comparison literals of a body, normalized.
pub fn comparisons<'l>(body: impl IntoIterator<Item = &'l Literal>) -> Vec<Comparison> {
    body.into_iter()
        .filter(|l| l.positive && l.is_builtin())
        .filter_map(|l| Comparison::from_atom(&l.atom))
        .collect()
}

/// Does α entail β (α ⊨ β)? Defined only for comparisons over identical
/// corresponding variables (§4); everything else returns `false`.
pub fn implies(alpha: &Comparison, beta: &Comparison) -> bool {
    match (alpha, beta) {
        (_, Comparison::Ground(Some(true))) | (_, Comparison::SameVar(true)) => true,
        (Comparison::Ground(Some(false)), _) | (Comparison::SameVar(false), _) => true,
        (
            Comparison::VarConst {
                var: v1,
                op: o1,
                val: c1,
            },
            Comparison::VarConst {
                var: v2,
                op: o2,
                val: c2,
            },
        ) => v1 == v2 && region_subset(*o1, c1, *o2, c2),
        (
            Comparison::VarVar {
                left: l1,
                op: o1,
                right: r1,
            },
            Comparison::VarVar {
                left: l2,
                op: o2,
                right: r2,
            },
        ) => l1 == l2 && r1 == r2 && (o1.relset() & !o2.relset()) == 0,
        _ => false,
    }
}

/// Is α ∧ β unsatisfiable? Defined only for comparisons over identical
/// corresponding variables; everything else returns `false` (satisfiable
/// as far as this procedure can tell).
pub fn contradicts(alpha: &Comparison, beta: &Comparison) -> bool {
    match (alpha, beta) {
        (Comparison::Ground(Some(false)), _)
        | (_, Comparison::Ground(Some(false)))
        | (Comparison::SameVar(false), _)
        | (_, Comparison::SameVar(false)) => true,
        (
            Comparison::VarConst {
                var: v1,
                op: o1,
                val: c1,
            },
            Comparison::VarConst {
                var: v2,
                op: o2,
                val: c2,
            },
        ) => v1 == v2 && region_disjoint(*o1, c1, *o2, c2),
        (
            Comparison::VarVar {
                left: l1,
                op: o1,
                right: r1,
            },
            Comparison::VarVar {
                left: l2,
                op: o2,
                right: r2,
            },
        ) => l1 == l2 && r1 == r2 && (o1.relset() & o2.relset()) == 0,
        _ => false,
    }
}

/// Checks a conjunction of comparisons for satisfiability.
///
/// Complete for: ground comparisons, per-variable constant bounds
/// (including `=` and finitely many `!=` exclusions over a dense order),
/// and pairwise variable–variable comparisons. Transitive variable chains
/// (`X < Y ∧ Y < Z ∧ Z < X`) are *not* detected; the procedure is sound
/// (never reports an unsatisfiable conjunction as unsatisfiable when it is
/// satisfiable — it errs toward "satisfiable"), which is the safe
/// direction for the hypothetical-possibility extension.
pub fn satisfiable(comps: &[Comparison]) -> bool {
    for c in comps {
        if matches!(
            c,
            Comparison::Ground(Some(false)) | Comparison::SameVar(false)
        ) {
            return false;
        }
    }
    for (i, a) in comps.iter().enumerate() {
        for b in &comps[i + 1..] {
            if contradicts(a, b) {
                return false;
            }
        }
    }
    // Per-variable interval check across more than two constraints:
    // contradictions among ≥3 constraints on one variable reduce to a
    // pairwise contradiction over a dense order *except* Eq-vs-bounds,
    // which pairwise already covers. Pairwise is therefore complete for
    // VarConst sets; nothing further needed.
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_atom;

    fn c(src: &str) -> Comparison {
        Comparison::from_atom(&parse_atom(src).unwrap()).unwrap()
    }

    #[test]
    fn normalization_flips_constant_left() {
        let a = c("(3.7 < Z)");
        assert_eq!(a, c("(Z > 3.7)"));
        let b = c("(Z >= 3.7)");
        assert!(matches!(b, Comparison::VarConst { op: Op::Ge, .. }));
    }

    #[test]
    fn normalization_orders_variables() {
        assert_eq!(c("(Y < X)"), c("(X > Y)"));
        assert_eq!(c("(X = Y)"), c("(Y = X)"));
    }

    #[test]
    fn ground_and_samevar() {
        assert_eq!(c("(3 < 4)"), Comparison::Ground(Some(true)));
        assert_eq!(c("(4 <= 3)"), Comparison::Ground(Some(false)));
        assert_eq!(c("(X = X)"), Comparison::SameVar(true));
        assert_eq!(c("(X < X)"), Comparison::SameVar(false));
        assert_eq!(c("(X >= X)"), Comparison::SameVar(true));
        // Incomparable kinds: Ground(None).
        assert_eq!(c("(a < 3)"), Comparison::Ground(None));
    }

    #[test]
    fn paper_example3_implication() {
        // Hypothesis (V > 3.7) implies body (V > 3.3): the body comparison
        // is dropped (Example 3's first theorem keeps U > 3.3 because U is
        // a different variable; when variables coincide it is removed).
        assert!(implies(&c("(V > 3.7)"), &c("(V > 3.3)")));
        assert!(!implies(&c("(V > 3.3)"), &c("(V > 3.7)")));
        // Different variables never relate.
        assert!(!implies(&c("(V > 3.7)"), &c("(U > 3.3)")));
    }

    #[test]
    fn varconst_implication_table() {
        assert!(implies(&c("(X > 4)"), &c("(X > 3)")));
        assert!(implies(&c("(X > 3)"), &c("(X >= 3)")));
        assert!(implies(&c("(X >= 4)"), &c("(X > 3)")));
        assert!(!implies(&c("(X >= 3)"), &c("(X > 3)")));
        assert!(implies(&c("(X = 4)"), &c("(X > 3)")));
        assert!(implies(&c("(X = 4)"), &c("(X != 3)")));
        assert!(implies(&c("(X < 2)"), &c("(X <= 2)")));
        assert!(implies(&c("(X < 2)"), &c("(X != 2)")));
        assert!(implies(&c("(X <= 2)"), &c("(X < 3)")));
        assert!(!implies(&c("(X <= 3)"), &c("(X < 3)")));
        assert!(implies(&c("(X != 3)"), &c("(X != 3)")));
        assert!(!implies(&c("(X != 3)"), &c("(X != 4)")));
        assert!(implies(&c("(X = 3)"), &c("(X = 3)")));
        assert!(!implies(&c("(X = 3)"), &c("(X = 4)")));
        // Equality bound edge cases.
        assert!(implies(&c("(X > 3)"), &c("(X >= 3)")));
        assert!(implies(&c("(X >= 3)"), &c("(X > 2)")));
    }

    #[test]
    fn varconst_contradiction_table() {
        assert!(contradicts(&c("(X > 3.7)"), &c("(X < 3.5)")));
        assert!(contradicts(&c("(X > 3)"), &c("(X <= 3)")));
        assert!(contradicts(&c("(X >= 3)"), &c("(X < 3)")));
        assert!(!contradicts(&c("(X >= 3)"), &c("(X <= 3)"))); // X = 3
        assert!(contradicts(&c("(X = 3)"), &c("(X = 4)")));
        assert!(contradicts(&c("(X = 3)"), &c("(X != 3)")));
        assert!(contradicts(&c("(X = 3)"), &c("(X > 3)")));
        assert!(!contradicts(&c("(X = 3)"), &c("(X >= 3)")));
        assert!(!contradicts(&c("(X != 3)"), &c("(X != 4)")));
        assert!(!contradicts(&c("(X > 2)"), &c("(X > 5)")));
        assert!(!contradicts(&c("(X < 2)"), &c("(X < 5)")));
        assert!(contradicts(&c("(X < 2)"), &c("(X > 5)")));
        // Symmetry.
        assert!(contradicts(&c("(X < 3.5)"), &c("(X > 3.7)")));
    }

    #[test]
    fn varvar_reasoning() {
        assert!(implies(&c("(X < Y)"), &c("(X <= Y)")));
        assert!(implies(&c("(X < Y)"), &c("(X != Y)")));
        assert!(implies(&c("(X = Y)"), &c("(X <= Y)")));
        assert!(implies(&c("(X = Y)"), &c("(X >= Y)")));
        assert!(!implies(&c("(X <= Y)"), &c("(X < Y)")));
        assert!(contradicts(&c("(X < Y)"), &c("(X > Y)")));
        assert!(contradicts(&c("(X < Y)"), &c("(X = Y)")));
        assert!(contradicts(&c("(X = Y)"), &c("(X != Y)")));
        assert!(!contradicts(&c("(X <= Y)"), &c("(X >= Y)")));
        // Flipped rendering is normalized before comparison.
        assert!(implies(&c("(Y > X)"), &c("(X <= Y)")));
    }

    #[test]
    fn symbol_comparisons_order_lexicographically() {
        assert!(implies(&c("(X > calculus)"), &c("(X > algebra)")));
        assert!(contradicts(&c("(X < algebra)"), &c("(X > calculus)")));
    }

    #[test]
    fn satisfiability_of_conjunctions() {
        assert!(satisfiable(&[c("(X > 3)"), c("(X < 5)")]));
        assert!(!satisfiable(&[c("(X > 3.7)"), c("(X < 3.5)")]));
        assert!(!satisfiable(&[c("(X > 3)"), c("(Y < 5)"), c("(X = 2)")]));
        assert!(satisfiable(&[c("(X != 3)"), c("(X != 4)"), c("(X > 0)")]));
        assert!(!satisfiable(&[c("(3 > 4)")]));
        assert!(satisfiable(&[]));
        // The documented incompleteness: cyclic var-var chains pass.
        assert!(satisfiable(&[c("(X < Y)"), c("(Y < Z)"), c("(Z < X)")]));
    }

    #[test]
    fn roundtrip_to_atom() {
        for src in ["(Z > 3.7)", "(X <= Y)", "(X != 4)"] {
            let comp = c(src);
            let back = Comparison::from_atom(&comp.to_atom()).unwrap();
            assert_eq!(comp, back, "{src}");
        }
    }
}
