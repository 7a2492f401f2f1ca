//! The §6 `compare` statement.
//!
//! ```text
//! compare (describe p₁ where ψ₁) with (describe p₂ where ψ₂)
//! ```
//!
//! "The answer should elucidate the maximal shared concept (if it is
//! empty then the two concepts are unrelated; if it is equal to one of
//! the given concepts, then one concept subsumes the other)."
//!
//! Concepts are compared on their extensional expansions: each subject is
//! unfolded to DNF (hypothesis atoms conjoined), the second concept's head
//! variables are aligned with the first's positionally, and the
//! relationship is classified by semantic subsumption in both directions;
//! otherwise the maximal shared literal set of the best-matching pair of
//! conjuncts is reported, together with each side's residue — the
//! "difference between an honor student and a Dean's-List student".

use crate::config::DescribeOptions;
use crate::describe::Describe;
use crate::error::{DescribeError, Result};
use crate::expand::{expand_conjunction, Conjunct};
use crate::redundancy::{prepare_general, prepare_specific, subsumes_prepared};
use qdk_logic::fasthash::FxMixHashMap;
use qdk_logic::{Atom, Const, Literal, Rule, Subst, Term};
use std::fmt;
use std::hash::Hash;

/// The relationship between two compared concepts.
#[derive(Clone, Debug, PartialEq)]
pub enum Relationship {
    /// The concepts are equivalent.
    Equivalent,
    /// The first concept subsumes (is more general than) the second.
    FirstSubsumesSecond,
    /// The second concept subsumes the first.
    SecondSubsumesFirst,
    /// The concepts overlap: a nonempty maximal shared concept exists.
    Overlapping,
    /// No shared concept: the concepts are unrelated.
    Unrelated,
}

/// The answer to a `compare` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareAnswer {
    /// The classified relationship.
    pub relationship: Relationship,
    /// The maximal shared concept (literals common to the best pair of
    /// definitions), empty when unrelated.
    pub shared: Vec<Literal>,
    /// Literals only in the first concept's definition.
    pub only_first: Vec<Literal>,
    /// Literals only in the second concept's definition.
    pub only_second: Vec<Literal>,
}

impl fmt::Display for CompareAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.relationship {
            Relationship::Equivalent => writeln!(f, "the concepts are equivalent")?,
            Relationship::FirstSubsumesSecond => {
                writeln!(f, "the first concept subsumes the second")?
            }
            Relationship::SecondSubsumesFirst => {
                writeln!(f, "the second concept subsumes the first")?
            }
            Relationship::Overlapping => writeln!(f, "the concepts overlap")?,
            Relationship::Unrelated => return writeln!(f, "the concepts are unrelated"),
        }
        let render = |lits: &[Literal]| {
            lits.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ∧ ")
        };
        if !self.shared.is_empty() {
            writeln!(f, "shared concept: {}", render(&self.shared))?;
        }
        if !self.only_first.is_empty() {
            writeln!(f, "only the first requires: {}", render(&self.only_first))?;
        }
        if !self.only_second.is_empty() {
            writeln!(f, "only the second requires: {}", render(&self.only_second))?;
        }
        Ok(())
    }
}

/// Evaluates `compare (describe p₁ where ψ₁) with (describe p₂ where ψ₂)`.
pub fn compare(
    idb: &qdk_engine::Idb,
    first: &Describe,
    second: &Describe,
    opts: &DescribeOptions,
) -> Result<CompareAnswer> {
    first.validate(idb)?;
    second.validate(idb)?;
    if first.subject.arity() != second.subject.arity() {
        return Err(DescribeError::UnsupportedIdb(format!(
            "compared concepts must have equal arity: {} vs {}",
            first.subject, second.subject
        )));
    }

    // Align the second subject's variables with the first's positionally.
    let align: Subst = second
        .subject
        .args
        .iter()
        .zip(&first.subject.args)
        .filter_map(|(from, to)| match (from, to) {
            (Term::Var(v), t) => Some((v.clone(), t.clone())),
            _ => None,
        })
        .collect();

    // Each conjunct becomes the body of a rule with the shared head.
    let head = Atom::new("_cmp", first.subject.args.clone());
    let as_rule = |c: Conjunct| Rule::with_literals(head.clone(), c);
    let d1: Vec<Rule> = definitions(idb, first, opts)?
        .into_iter()
        .map(as_rule)
        .collect();
    let mut d2 = definitions(idb, second, opts)?;
    if !align.is_empty() {
        for l in d2.iter_mut().flatten() {
            *l = align.apply_literal(l);
        }
    }
    let d2: Vec<Rule> = d2.into_iter().map(as_rule).collect();

    // Subsumption of DNFs: D ≤ D' when every conjunct of D is subsumed by
    // some conjunct of D' (then D implies D', i.e. D' is more general).
    // Each conjunct is prepared once per role, not once per pair. The
    // order general conjuncts are tried in cannot change the outcome, so
    // the one at the specific conjunct's own position goes first: a
    // concept compared with itself, or with a variant of itself, pairs
    // its conjuncts position by position.
    let dnf_le = |specific: &[Rule], general: &[Rule]| {
        let general: Vec<_> = general.iter().map(prepare_general).collect();
        specific.iter().enumerate().all(|(j, cs)| {
            let cs = prepare_specific(cs, &[]);
            let (before, from) = general.split_at(j.min(general.len()));
            from.iter()
                .chain(before)
                .any(|cg| subsumes_prepared(cg, &cs))
        })
    };
    let first_ge_second = dnf_le(&d2, &d1); // first subsumes second
    let second_ge_first = dnf_le(&d1, &d2);

    let (shared, only_first, only_second) = best_pair(&bodies(&d1), &bodies(&d2));

    let relationship = match (first_ge_second, second_ge_first) {
        (true, true) => Relationship::Equivalent,
        (true, false) => Relationship::FirstSubsumesSecond,
        (false, true) => Relationship::SecondSubsumesFirst,
        (false, false) if shared.is_empty() => Relationship::Unrelated,
        _ => Relationship::Overlapping,
    };

    // Canonicalize the three literal lists jointly (one renaming scope) so
    // machine-generated variables don't leak into the report.
    let sizes = (shared.len(), only_first.len());
    let mut all = shared;
    all.extend(only_first);
    all.extend(only_second);
    let canonical = qdk_logic::pretty::canonicalize_rule(&Rule::with_literals(
        Atom::new("_cmp", first.subject.args.clone()),
        all,
    ));
    let mut body = canonical.body;
    let only_second = body.split_off(sizes.0 + sizes.1);
    let only_first = body.split_off(sizes.0);
    let shared = body;

    Ok(CompareAnswer {
        relationship,
        shared,
        only_first,
        only_second,
    })
}

fn bodies(rules: &[Rule]) -> Vec<&[Literal]> {
    rules.iter().map(|r| r.body.as_slice()).collect()
}

/// The concept of a describe statement: the subject's expansions with the
/// hypothesis atoms conjoined.
fn definitions(
    idb: &qdk_engine::Idb,
    d: &Describe,
    opts: &DescribeOptions,
) -> Result<Vec<Conjunct>> {
    let mut atoms = vec![d.subject.clone()];
    atoms.extend(d.hypothesis.iter().map(|l| l.atom.clone()));
    // Expand the subject (and any IDB hypothesis atoms) together so shared
    // variables stay shared. The subject is IDB-defined, so expansion
    // replaces it.
    expand_conjunction(idb, &atoms, opts)
}

/// What decides whether two literals can unify at all: sign, predicate
/// and arity.
type LiteralKey<'a> = (bool, &'a str, usize);

fn literal_key(l: &Literal) -> LiteralKey<'_> {
    (l.positive, l.atom.pred.as_str(), l.atom.arity())
}

/// A term as [`Numbering`] numbers it: a variable's number, or a
/// constant's with [`CONST`] set.
type Code = u32;

const CONST: Code = 1 << 31;

/// Numbers the literal keys, variables and constants of both sides
/// alike. A variable's number depends on its name only, so a name on
/// both sides is one variable, as it is to [`shared_concept`]'s
/// substitution.
#[derive(Default)]
struct Numbering<'a> {
    keys: FxMixHashMap<LiteralKey<'a>, u32>,
    vars: FxMixHashMap<&'a str, u32>,
    consts: FxMixHashMap<&'a Const, u32>,
}

/// `key`'s number in `map`, the next free one if it has none yet.
fn number<K: Hash + Eq>(map: &mut FxMixHashMap<K, u32>, key: K) -> u32 {
    let next = map.len() as u32;
    *map.entry(key).or_insert(next)
}

impl<'a> Numbering<'a> {
    fn key(&mut self, l: &'a Literal) -> u32 {
        number(&mut self.keys, literal_key(l))
    }

    /// Appends the codes of `l`'s arguments to `out`.
    fn args(&mut self, l: &'a Literal, out: &mut Vec<Code>) {
        for t in &l.atom.args {
            out.push(match t {
                Term::Var(v) => number(&mut self.vars, v.name()),
                Term::Const(k) => CONST | number(&mut self.consts, k),
            });
        }
    }
}

/// The second side's conjuncts, numbered once. Each conjunct's literals
/// are grouped by key, a key's literals in conjunct order: the order in
/// which [`shared_concept`] tries them.
struct SecondSide {
    /// Per conjunct, and one past the last: where its blocks start.
    block_start: Vec<u32>,
    /// Per conjunct, one block per key it has, sorted by key.
    blocks: Vec<Block>,
    /// Each block's arguments, literal after literal.
    args: Vec<Code>,
    literals: usize,
}

/// The literals of one key in one conjunct.
#[derive(Clone, Copy)]
struct Block {
    key: u32,
    /// The number of the block's first literal among all of the side's.
    first: u32,
    len: u32,
    arity: u32,
    /// Where the first literal's arguments start in [`SecondSide::args`].
    args: u32,
}

impl SecondSide {
    fn new<'a>(d2: &[&'a [Literal]], numbering: &mut Numbering<'a>) -> Self {
        let args = d2
            .iter()
            .flat_map(|c| c.iter())
            .map(|l| l.atom.arity())
            .sum();
        let mut side = SecondSide {
            block_start: vec![0],
            blocks: Vec::new(),
            args: Vec::with_capacity(args),
            literals: 0,
        };
        let mut order: Vec<(u32, usize)> = Vec::new();
        for c in d2 {
            order.clear();
            order.extend(c.iter().enumerate().map(|(i, l)| (numbering.key(l), i)));
            order.sort_unstable();
            let first_block = side.blocks.len();
            for &(key, i) in &order {
                let l = &c[i];
                match side.blocks[first_block..].last_mut() {
                    Some(block) if block.key == key => block.len += 1,
                    _ => side.blocks.push(Block {
                        key,
                        first: side.literals as u32,
                        len: 1,
                        arity: l.atom.arity() as u32,
                        args: side.args.len() as u32,
                    }),
                }
                numbering.args(l, &mut side.args);
                side.literals += 1;
            }
            side.block_start.push(side.blocks.len() as u32);
        }
        side
    }

    fn blocks(&self, c: usize) -> &[Block] {
        &self.blocks[self.block_start[c] as usize..self.block_start[c + 1] as usize]
    }
}

/// One first-side conjunct, numbered in its own order.
#[derive(Default)]
struct FirstConjunct {
    keys: Vec<u32>,
    /// Per literal, and one past the last: where its arguments start.
    arg_start: Vec<u32>,
    args: Vec<Code>,
}

impl FirstConjunct {
    fn number<'a>(&mut self, c: &'a [Literal], numbering: &mut Numbering<'a>) {
        self.keys.clear();
        self.arg_start.clear();
        self.args.clear();
        for l in c {
            self.keys.push(numbering.key(l));
            self.arg_start.push(self.args.len() as u32);
            numbering.args(l, &mut self.args);
        }
        self.arg_start.push(self.args.len() as u32);
    }

    fn args(&self, i: usize) -> &[Code] {
        &self.args[self.arg_start[i] as usize..self.arg_start[i + 1] as usize]
    }
}

/// [`shared_concept`]'s greedy match, counted instead of built: the
/// substitution is a union-find over numbered variables whose roots may
/// be bound to a constant, undone from a trail after each attempt.
/// Nothing is allocated per pair.
struct Matcher {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Per root: the constant it is bound to, or 0.
    bound: Vec<Code>,
    trail: Vec<Undo>,
    /// Per second-side literal: paired up in the current count.
    used: Vec<bool>,
    /// Per key: how many literals of the first-side conjunct have it.
    counts: Vec<u32>,
    /// Per key: the second-side conjunct last counted against, and the
    /// index of the key's block in it.
    block: Vec<(usize, usize)>,
}

/// One union-find change, as the trail records it.
enum Undo {
    /// A root was linked under another root.
    Link(u32),
    /// A root was bound to a constant.
    Bind(u32),
}

impl Matcher {
    fn new(side: &SecondSide) -> Self {
        Matcher {
            parent: Vec::new(),
            size: Vec::new(),
            bound: Vec::new(),
            trail: Vec::new(),
            used: vec![false; side.literals],
            counts: Vec::new(),
            block: Vec::new(),
        }
    }

    /// Makes room for every key and variable numbered so far, and counts
    /// the keys of `first`, the conjunct [`Matcher::overlap`] reads.
    fn set_first(&mut self, first: &FirstConjunct, numbering: &Numbering) {
        for v in self.parent.len() as u32..numbering.vars.len() as u32 {
            self.parent.push(v);
            self.size.push(1);
            self.bound.push(0);
        }
        self.counts.resize(numbering.keys.len(), 0);
        self.block.resize(numbering.keys.len(), (usize::MAX, 0));
        for &key in &first.keys {
            self.counts[key as usize] += 1;
        }
    }

    /// Undoes [`Matcher::set_first`]'s count.
    fn clear_first(&mut self, first: &FirstConjunct) {
        for &key in &first.keys {
            self.counts[key as usize] = 0;
        }
    }

    /// The size of the multiset intersection of the keys of the first-side
    /// conjunct and of `c2`: an upper bound on how many literals
    /// [`shared_concept`] can pair up, since it pairs each literal at most
    /// once and only with one of the same key.
    fn overlap(&self, side: &SecondSide, c2: usize) -> usize {
        side.blocks(c2)
            .iter()
            .map(|b| self.counts[b.key as usize].min(b.len) as usize)
            .sum()
    }

    /// A variable's root or, if the root is bound, its constant.
    fn resolve(&self, t: Code) -> Code {
        if t & CONST != 0 {
            return t;
        }
        let mut root = t;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        match self.bound[root as usize] {
            0 => root,
            constant => constant,
        }
    }

    fn unify(&mut self, a: Code, b: Code) -> bool {
        let (a, b) = (self.resolve(a), self.resolve(b));
        if a == b {
            return true;
        }
        match (a & CONST != 0, b & CONST != 0) {
            (true, true) => false,
            (false, true) | (true, false) => {
                let (root, constant) = if a & CONST == 0 { (a, b) } else { (b, a) };
                self.bound[root as usize] = constant;
                self.trail.push(Undo::Bind(root));
                true
            }
            (false, false) => {
                let (child, root) = if self.size[a as usize] < self.size[b as usize] {
                    (a, b)
                } else {
                    (b, a)
                };
                self.parent[child as usize] = root;
                self.size[root as usize] += self.size[child as usize];
                self.trail.push(Undo::Link(child));
                true
            }
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop() {
                Some(Undo::Link(child)) => {
                    let root = self.parent[child as usize];
                    self.size[root as usize] -= self.size[child as usize];
                    self.parent[child as usize] = child;
                }
                Some(Undo::Bind(root)) => self.bound[root as usize] = 0,
                None => {}
            }
        }
    }

    /// How many literals [`shared_concept`] pairs up between the
    /// first-side conjunct and conjunct `c2` — or any count no greater
    /// than `beat`, once the literals left cannot lift the count above
    /// it. Each first-side literal tries only the literals of `c2` with
    /// its key, in `c2`'s order.
    fn count(&mut self, first: &FirstConjunct, side: &SecondSide, c2: usize, beat: usize) -> usize {
        let blocks = side.blocks(c2);
        for (b, block) in blocks.iter().enumerate() {
            self.block[block.key as usize] = (c2, b);
        }
        let n = first.keys.len();
        let mut matched = 0;
        for i in 0..n {
            if matched + (n - i) <= beat {
                break;
            }
            let (stamp, b) = self.block[first.keys[i] as usize];
            if stamp != c2 {
                continue;
            }
            let block = blocks[b];
            let arity = block.arity as usize;
            for p in 0..block.len as usize {
                let j = block.first as usize + p;
                if self.used[j] {
                    continue;
                }
                let at = block.args as usize + p * arity;
                let theirs = &side.args[at..at + arity];
                let mark = self.trail.len();
                if first
                    .args(i)
                    .iter()
                    .zip(theirs)
                    .all(|(&x, &y)| self.unify(x, y))
                {
                    self.used[j] = true;
                    matched += 1;
                    break;
                }
                self.undo_to(mark);
            }
        }
        self.undo_to(0);
        for block in blocks {
            let first = block.first as usize;
            self.used[first..first + block.len as usize].fill(false);
        }
        matched
    }
}

/// The maximal shared concept over the best pair of conjuncts, with each
/// side's residue: the first pair (in `d1`-major order) whose shared
/// literal count is the maximum. Pairs are compared by count alone (a
/// pair whose key overlap cannot exceed the best count found so far is
/// not even counted); only the winning pair's literals are built. When no
/// pair shares anything the last pair's conjuncts are the residues.
fn best_pair<'a>(
    d1: &[&'a [Literal]],
    d2: &[&'a [Literal]],
) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
    let mut numbering = Numbering::default();
    let side = SecondSide::new(d2, &mut numbering);
    let mut first = FirstConjunct::default();
    let mut matcher = Matcher::new(&side);
    let mut best = None;
    let mut best_len = 0;
    for (i, c1) in d1.iter().enumerate() {
        if c1.len() <= best_len {
            continue;
        }
        first.number(c1, &mut numbering);
        matcher.set_first(&first, &numbering);
        for (j, c2) in d2.iter().enumerate() {
            if c2.len() <= best_len || matcher.overlap(&side, j) <= best_len {
                continue;
            }
            let found = matcher.count(&first, &side, j, best_len);
            if found > best_len {
                best_len = found;
                best = Some((i, j));
            }
        }
        matcher.clear_first(&first);
    }
    match best {
        Some((i, j)) => shared_concept(d1[i], d2[j]),
        None => match (d1.last(), d2.last()) {
            (Some(c1), Some(c2)) => (Vec::new(), c1.to_vec(), c2.to_vec()),
            _ => Default::default(),
        },
    }
}

/// The unpruned search [`best_pair`] must agree with: every pair matched,
/// the first to reach the maximum kept, the last pair kept when none
/// shares anything.
#[cfg(test)]
fn best_pair_exhaustive(
    d1: &[&[Literal]],
    d2: &[&[Literal]],
) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
    let mut best: (usize, Vec<Literal>, Vec<Literal>, Vec<Literal>) =
        (0, Vec::new(), Vec::new(), Vec::new());
    for c1 in d1 {
        for c2 in d2 {
            let (shared, r1, r2) = shared_concept(c1, c2);
            if shared.len() > best.0 || (best.0 == 0 && best.1.is_empty()) {
                best = (shared.len(), shared, r1, r2);
            }
        }
    }
    (best.1, best.2, best.3)
}

/// Greedy maximal common literal set between two conjuncts: repeatedly
/// unifies a literal of `c1` with one of `c2` under a threaded
/// substitution, then reports residues. The shared concept is the
/// unified (most general common) form.
fn shared_concept(c1: &[Literal], c2: &[Literal]) -> (Vec<Literal>, Vec<Literal>, Vec<Literal>) {
    let mut shared = Vec::new();
    let mut used2 = vec![false; c2.len()];
    let mut subst = Subst::new();
    let mut residue1 = Vec::new();
    for l1 in c1 {
        let mut matched = false;
        // `subst` only changes on a match, which ends the inner loop.
        let a1 = subst.apply_atom(&l1.atom);
        let k1 = literal_key(l1);
        for (j, l2) in c2.iter().enumerate() {
            // Literals that differ in sign, predicate or arity cannot unify.
            if used2[j] || k1 != literal_key(l2) {
                continue;
            }
            let a2 = subst.apply_atom(&l2.atom);
            if let Some(mgu) = qdk_logic::unify_atoms(&a1, &a2) {
                shared.push(Literal {
                    positive: l1.positive,
                    atom: mgu.apply_atom(&a1),
                });
                used2[j] = true;
                subst = subst.compose(&mgu);
                matched = true;
                break;
            }
        }
        if !matched {
            residue1.push(subst.apply_literal(l1));
        }
    }
    let residue2: Vec<Literal> = c2
        .iter()
        .zip(&used2)
        .filter(|(_, used)| !**used)
        .map(|(l, _)| subst.apply_literal(l))
        .collect();
    (shared, residue1, residue2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_engine::Idb;
    use qdk_logic::parser::{parse_atom, parse_program};

    fn idb() -> Idb {
        Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 deans_list(X) :- student(X, Y, Z), Z > 3.9.\n\
                 athlete(X) :- plays(X, S).\n\
                 top_math(X) :- student(X, math, Z), Z > 3.7.",
            )
            .unwrap()
            .rules,
        )
        .unwrap()
    }

    fn d(subject: &str) -> Describe {
        Describe::new(parse_atom(subject).unwrap(), vec![])
    }

    #[test]
    fn honor_subsumes_deans_list() {
        // The introduction's fourth query: the difference between an honor
        // student and a Dean's-List student. Dean's List requires a higher
        // GPA, so honor subsumes it.
        let a = compare(
            &idb(),
            &d("honor(X)"),
            &d("deans_list(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::FirstSubsumesSecond);
        // The shared concept is the student atom.
        assert!(a.shared.iter().any(|l| l.atom.pred == "student"));
        let shown = a.to_string();
        assert!(shown.contains("subsumes"), "{shown}");
    }

    #[test]
    fn subsumption_direction_flips() {
        let a = compare(
            &idb(),
            &d("deans_list(X)"),
            &d("honor(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::SecondSubsumesFirst);
    }

    #[test]
    fn concept_is_equivalent_to_itself() {
        let a = compare(
            &idb(),
            &d("honor(X)"),
            &d("honor(A)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::Equivalent);
    }

    #[test]
    fn unrelated_concepts() {
        let a = compare(
            &idb(),
            &d("honor(X)"),
            &d("athlete(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::Unrelated);
        assert!(a.shared.is_empty());
        assert!(a.to_string().contains("unrelated"));
    }

    #[test]
    fn overlapping_concepts_report_differences() {
        // honor vs top_math: same GPA bound, but top_math restricts the
        // major; honor subsumes it. Compare top_math against deans_list
        // instead: neither subsumes (major vs higher GPA) but they share
        // the student atom.
        let a = compare(
            &idb(),
            &d("top_math(X)"),
            &d("deans_list(X)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.relationship, Relationship::Overlapping);
        assert!(!a.shared.is_empty());
        assert!(!a.only_first.is_empty() || !a.only_second.is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let i = Idb::from_rules(
            parse_program("p(X) :- e(X).\nq(X, Y) :- e2(X, Y).")
                .unwrap()
                .rules,
        )
        .unwrap();
        assert!(compare(
            &i,
            &Describe::new(parse_atom("p(X)").unwrap(), vec![]),
            &Describe::new(parse_atom("q(X, Y)").unwrap(), vec![]),
            &DescribeOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn hypotheses_join_the_concepts() {
        // compare (honor where plays(X, S)) with (athlete where ...):
        // hypothesis atoms become part of the concept.
        let a = compare(
            &idb(),
            &Describe::new(
                parse_atom("athlete(X)").unwrap(),
                qdk_logic::parser::parse_body("student(X, M, G)").unwrap(),
            ),
            &Describe::new(parse_atom("honor(X)").unwrap(), vec![]),
            &DescribeOptions::default(),
        )
        .unwrap();
        // Now the concepts share the student atom.
        assert_ne!(a.relationship, Relationship::Unrelated);
    }

    use proptest::prelude::*;

    /// Literals over a small vocabulary, so conjuncts collide on sign,
    /// predicate and arity often enough for unification to matter. `4`
    /// and `4.0` are one constant; `_0` is a fresh name, shared by both
    /// sides as the two expansions' fresh names are.
    fn arb_literal() -> impl Strategy<Value = Literal> {
        let term = prop_oneof![
            prop_oneof![Just("X"), Just("Y"), Just("Z"), Just("U"), Just("_0")]
                .prop_map(|v| Term::Var(qdk_logic::Var::new(v))),
            prop_oneof![
                Just(Const::sym("a")),
                Just(Const::sym("b")),
                Just(Const::Int(4)),
                Just(Const::Num(4.0))
            ]
            .prop_map(Term::Const),
        ];
        (
            prop_oneof![Just("p"), Just("q"), Just("r"), Just("s")],
            proptest::collection::vec(term, 0..4),
            0u8..4,
        )
            .prop_map(|(pred, args, sign)| Literal {
                positive: sign != 0,
                atom: Atom::new(pred, args),
            })
    }

    fn slices(d: &[Conjunct]) -> Vec<&[Literal]> {
        d.iter().map(Vec::as_slice).collect()
    }

    fn arb_dnf() -> impl Strategy<Value = Vec<Conjunct>> {
        proptest::collection::vec(proptest::collection::vec(arb_literal(), 0..7), 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The pruned best-pair search is the exhaustive one: same shared
        /// concept, same residues, same tie-breaks.
        #[test]
        fn pruned_best_pair_matches_exhaustive(d1 in arb_dnf(), d2 in arb_dnf()) {
            let (d1, d2) = (slices(&d1), slices(&d2));
            prop_assert_eq!(best_pair(&d1, &d2), best_pair_exhaustive(&d1, &d2));
        }

        /// …including when the two sides share no predicate at all, where
        /// every pair is pruned and the last pair's conjuncts are reported.
        #[test]
        fn pruned_best_pair_matches_exhaustive_when_disjoint(d1 in arb_dnf(), d2 in arb_dnf()) {
            let d2: Vec<Conjunct> = d2
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|l| Literal {
                            positive: l.positive,
                            atom: Atom::new(format!("other_{}", l.atom.pred).as_str(), l.atom.args.clone()),
                        })
                        .collect()
                })
                .collect();
            let (d1, d2) = (slices(&d1), slices(&d2));
            let pruned = best_pair(&d1, &d2);
            prop_assert!(pruned.0.is_empty());
            prop_assert_eq!(pruned, best_pair_exhaustive(&d1, &d2));
        }
    }
}
