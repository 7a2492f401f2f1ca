//! Constants, variables and terms.

use crate::symbol::Sym;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A constant value.
///
/// The paper's language is function-free first-order logic over a universe
/// of students, courses, grades and the like, together with built-in
/// comparison predicates over numbers. `Const` therefore covers symbols
/// (lower-case identifiers such as `databases` or `susan`), integers,
/// floating-point numbers (grade-point averages such as `3.7`), strings and
/// booleans.
#[derive(Clone, Debug)]
pub enum Const {
    /// A symbolic constant, e.g. `databases`.
    Sym(Sym),
    /// An integer, e.g. `4`.
    Int(i64),
    /// A floating-point number, e.g. `3.7`. Total order via `f64::total_cmp`.
    Num(f64),
    /// A quoted string, e.g. `"Fall 1989"`.
    Str(Sym),
    /// A boolean.
    Bool(bool),
}

impl Const {
    /// Creates a symbolic constant.
    pub fn sym(s: &str) -> Self {
        Const::Sym(Sym::new(s))
    }

    /// Creates a string constant.
    pub fn str(s: &str) -> Self {
        Const::Str(Sym::new(s))
    }

    /// Returns the numeric value if this constant is a number (integer or
    /// float), for comparison built-ins.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Const::Int(i) => Some(*i as f64),
            Const::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// True if the two constants are comparable with ordering built-ins
    /// (`<`, `<=`, `>`, `>=`): both numbers, or both symbols/strings.
    pub fn comparable(&self, other: &Const) -> bool {
        self.as_f64().is_some() && other.as_f64().is_some()
            || matches!(
                (self, other),
                (Const::Sym(_), Const::Sym(_))
                    | (Const::Str(_), Const::Str(_))
                    | (Const::Bool(_), Const::Bool(_))
            )
    }
}

impl PartialEq for Const {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Const {}

impl PartialOrd for Const {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Const {
    /// Total order: numbers (ints and floats interleaved by value) < symbols
    /// < strings < booleans. The cross-kind order is arbitrary but fixed; it
    /// exists so constants can key ordered collections.
    fn cmp(&self, other: &Self) -> Ordering {
        use Const::*;
        fn kind(c: &Const) -> u8 {
            match c {
                Int(_) | Num(_) => 0,
                Sym(_) => 1,
                Str(_) => 2,
                Bool(_) => 3,
            }
        }
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Num(a), Num(b)) => a.total_cmp(b),
            (Int(a), Num(b)) => (*a as f64).total_cmp(b),
            (Num(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Sym(a), Sym(b)) | (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => kind(self).cmp(&kind(other)),
        }
    }
}

impl Hash for Const {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Int and Num that compare equal must hash equal.
            Const::Int(i) => (*i as f64).to_bits().hash(state),
            Const::Num(n) => n.to_bits().hash(state),
            Const::Sym(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            Const::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Const::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Sym(s) => f.write_str(s.as_str()),
            Const::Int(i) => write!(f, "{i}"),
            Const::Num(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    write!(f, "{n:.1}")
                } else {
                    write!(f, "{n}")
                }
            }
            Const::Str(s) => write!(f, "{:?}", s.as_str()),
            Const::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Const {
    fn from(i: i64) -> Self {
        Const::Int(i)
    }
}

impl From<f64> for Const {
    fn from(n: f64) -> Self {
        Const::Num(n)
    }
}

impl From<bool> for Const {
    fn from(b: bool) -> Self {
        Const::Bool(b)
    }
}

impl From<&str> for Const {
    fn from(s: &str) -> Self {
        Const::sym(s)
    }
}

/// A variable.
///
/// Following the paper's convention, user variables begin with a capital
/// letter (`X`, `Gpa`). Fresh variables generated internally (by
/// [`crate::VarGen`]) use names beginning with `_`, which the parser never
/// produces, so freshness is guaranteed by construction.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Sym);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: &str) -> Self {
        Var(Sym::new(name))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        self.0.as_str()
    }

    /// True if this is an internally generated (fresh) variable.
    pub fn is_fresh(&self) -> bool {
        self.name().starts_with('_')
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.name())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A term: a variable or a constant (the language is function-free).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// A constant occurrence.
    Const(Const),
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: &str) -> Self {
        Term::Var(Var::new(name))
    }

    /// Creates a symbolic-constant term.
    pub fn sym(name: &str) -> Self {
        Term::Const(Const::sym(name))
    }

    /// Creates an integer term.
    pub fn int(i: i64) -> Self {
        Term::Const(Const::Int(i))
    }

    /// Creates a float term.
    pub fn num(n: f64) -> Self {
        Term::Const(Const::Num(n))
    }

    /// Returns the variable if this term is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// Returns the constant if this term is one.
    pub fn as_const(&self) -> Option<&Const> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }

    /// True if the term is ground (contains no variable).
    pub fn is_ground(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Const> for Term {
    fn from(c: Const) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_and_num_compare_and_hash_consistently() {
        let a = Const::Int(4);
        let b = Const::Num(4.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert!(Const::Num(3.7) > Const::Int(3));
        assert!(Const::Int(4) > Const::Num(3.7));
    }

    #[test]
    fn cross_kind_order_is_total_and_antisymmetric() {
        let samples = [
            Const::Int(1),
            Const::Num(2.5),
            Const::sym("a"),
            Const::str("a"),
            Const::Bool(false),
        ];
        for x in &samples {
            for y in &samples {
                match x.cmp(y) {
                    Ordering::Less => assert_eq!(y.cmp(x), Ordering::Greater),
                    Ordering::Greater => assert_eq!(y.cmp(x), Ordering::Less),
                    Ordering::Equal => assert_eq!(y.cmp(x), Ordering::Equal),
                }
            }
        }
    }

    #[test]
    fn comparability() {
        assert!(Const::Int(3).comparable(&Const::Num(3.7)));
        assert!(Const::sym("a").comparable(&Const::sym("b")));
        assert!(!Const::sym("a").comparable(&Const::Int(1)));
        assert!(!Const::str("a").comparable(&Const::sym("a")));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Const::Num(3.7).to_string(), "3.7");
        assert_eq!(Const::Num(4.0).to_string(), "4.0");
        assert_eq!(Const::Int(4).to_string(), "4");
        assert_eq!(Const::sym("databases").to_string(), "databases");
        assert_eq!(Const::str("a b").to_string(), "\"a b\"");
        assert_eq!(Term::var("Gpa").to_string(), "Gpa");
    }

    #[test]
    fn fresh_variable_detection() {
        assert!(Var::new("_7").is_fresh());
        assert!(!Var::new("X").is_fresh());
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("X");
        let c = Term::int(3);
        assert!(v.as_var().is_some());
        assert!(v.as_const().is_none());
        assert!(c.is_ground());
        assert!(!v.is_ground());
    }
}
