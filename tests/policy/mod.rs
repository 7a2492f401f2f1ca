//! The policy rule base several tests share: 600 layered, non-recursive
//! rules and a family of distinct describes over them.

use qdk::Session;
use std::fmt::Write;

pub const LEVELS: usize = 3;
pub const WIDTH: usize = 100;
const ALTS: usize = 2;
const ATTRS: usize = 40;

/// A layered, non-recursive policy rule base: `LEVELS × WIDTH` concepts
/// `pol<level>_<i>(X)`, each with `ALTS` alternative definitions over two
/// concepts of the next level down (attribute atoms at the bottom level)
/// plus one attribute comparison. 3 × 100 × 2 = 600 rules.
fn policy_script() -> String {
    let mut out = String::new();
    for a in 0..ATTRS {
        writeln!(out, "predicate attr{a}(Id, Val).").unwrap();
    }
    for level in 0..LEVELS {
        for i in 0..WIDTH {
            for alt in 0..ALTS {
                // Any fixed spread of sub-concepts will do.
                let pick = |k: usize, modulus: usize| (7 * i + 13 * alt + 31 * k + level) % modulus;
                write!(out, "pol{level}_{i}(X) :- ").unwrap();
                for k in 0..2 {
                    if level + 1 < LEVELS {
                        write!(out, "pol{}_{}(X), ", level + 1, pick(k, WIDTH)).unwrap();
                    } else {
                        write!(out, "attr{}(X, U{k}), ", pick(k, ATTRS)).unwrap();
                    }
                }
                writeln!(out, "attr{}(X, V), V > {}.", pick(2, ATTRS), 1 + pick(3, 8)).unwrap();
            }
        }
    }
    out
}

pub fn policy_session() -> Session {
    let mut s = Session::new();
    s.load(&policy_script()).unwrap();
    assert_eq!(s.knowledge_base().idb().len(), LEVELS * WIDTH * ALTS);
    s.enable_metrics();
    s
}

/// The `n`-th of a family of distinct describes spread over all levels.
pub fn nth_describe(n: usize) -> String {
    format!(
        "describe pol{}_{}(X) where attr{}(X, V) and V > {}.",
        n % LEVELS,
        (17 * n) % WIDTH,
        n % ATTRS,
        1 + n % 8
    )
}
