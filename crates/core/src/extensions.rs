//! The §6 extensions to the `describe` statement.
//!
//! The paper sketches four extensions; all are implemented here:
//!
//! 1. **`where necessary ψ`** — keep only answers whose derivation
//!    actually used *every* hypothesis formula (plain `describe` ignores
//!    hypothesis formulas unnecessary for the derivation);
//! 2. **negated hypotheses** — `describe can_ta(X, Y) where not honor(X)`
//!    asks whether the subject is derivable *without* the negated concept;
//!    answer `false` means the concept is necessary;
//! 3. **subjectless describes** — `describe where ψ` asks whether the
//!    hypothetical situation ψ is possible, i.e. whether some expansion of
//!    ψ to extensional vocabulary is consistent (comparisons satisfiable
//!    after merging key-equal atoms);
//! 4. **wildcard subjects** — `describe * where ψ` reports every IDB
//!    concept derivable *from* the hypothesis (subjects whose answers used
//!    it).

use crate::answer::DescribeAnswer;
use crate::config::DescribeOptions;
use crate::constraints;
use crate::describe::Describe;
use crate::error::{DescribeError, Result};
use crate::expand;
use crate::prepared::PreparedIdb;
use crate::transform::TransformedIdb;
use qdk_engine::Idb;
use qdk_logic::governor::Governor;
use qdk_logic::{
    rename_rule_apart, unify, unify_atoms, Atom, Bindings, Constraint, Literal, Rule, Sym, VarGen,
};
use std::collections::HashMap;

/// `describe p where necessary ψ`: answers whose derivations used every
/// hypothesis formula. A hypothesis comparison counts as used when it
/// simplified or contradicted a body comparison (§4's post-processing).
pub fn describe_necessary(
    idb: &Idb,
    query: &Describe,
    opts: &DescribeOptions,
) -> Result<DescribeAnswer> {
    PreparedIdb::for_call(idb, opts).describe_necessary(&[], query, opts)
}

/// `describe p where ψ₁ or ψ₂ or …` — §6's second research direction
/// (generalizing the qualifier to disjunctions).
///
/// A theorem `p ← φ` is derivable under `ψ₁ ∨ ψ₂` exactly when it is
/// derivable under *each* disjunct (`φ ∧ (ψ₁ ∨ ψ₂) → p` distributes).
/// The implementation therefore intersects the per-disjunct answers by
/// semantic subsumption: a theorem of one disjunct survives when every
/// other disjunct has a theorem at least as general (which then entails
/// it). One-level answers (plain definitions) hold under any hypothesis
/// and always survive.
pub fn describe_disjunctive(
    idb: &Idb,
    subject: &Atom,
    disjuncts: &[Vec<Literal>],
    opts: &DescribeOptions,
) -> Result<DescribeAnswer> {
    PreparedIdb::for_call(idb, opts).describe_disjunctive(&[], subject, disjuncts, opts)
}

/// The answer to a negated-hypothesis describe.
#[derive(Clone, Debug, PartialEq)]
pub struct NegationAnswer {
    /// True if the subject is derivable without the negated concept —
    /// i.e. the concept is *not* necessary.
    pub derivable_without: bool,
    /// The first untainted derivation found, unfolded to extensional
    /// vocabulary (the witness; `None` when `derivable_without` is false).
    pub witness: Option<expand::Conjunct>,
}

impl std::fmt::Display for NegationAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.derivable_without {
            writeln!(f, "true — derivable without the negated concept")
        } else {
            writeln!(f, "false — the negated concept is necessary")
        }
    }
}

/// `describe p where not h`: is `p` derivable without `h`?
///
/// A derivation is *tainted* when any formula in it unifies with `h`
/// (appearing even as an inner node counts: expanding the concept away
/// does not remove the dependence). The answer is `false` — the paper's
/// "honor status is necessary for teaching assistantship" — exactly when
/// every derivation is tainted. The search stops at the first untainted
/// derivation, which is the witness.
pub fn describe_without(
    idb: &Idb,
    subject: &Atom,
    negated: &Atom,
    opts: &DescribeOptions,
) -> Result<NegationAnswer> {
    if !idb.defines(subject.pred.as_str()) {
        return Err(DescribeError::SubjectNotIdb(subject.pred.to_string()));
    }
    // The subject itself unifying with h is immediately tainted.
    let witness = Avoiding::new(idb, negated, opts).first(subject)?;
    Ok(NegationAnswer {
        derivable_without: witness.is_some(),
        witness,
    })
}

/// [`describe_without`]'s test reference: every untainted derivation of
/// `subject`, as the DNF of its unfolding.
#[cfg(test)]
pub(crate) fn describe_without_dnf(
    idb: &Idb,
    subject: &Atom,
    negated: &Atom,
    opts: &DescribeOptions,
) -> Result<Vec<expand::Conjunct>> {
    Avoiding::new(idb, negated, opts).all(subject)
}

/// Depth-first unfolding that refuses to *create* any node unifying with
/// the taboo atom. Like [`expand::expand_conjunction`] it has no meaningful
/// partial result, so a tripped limit is an error.
struct Avoiding<'a> {
    idb: &'a Idb,
    taboo: &'a Atom,
    /// Predicates being unfolded on the current path (the cycle guard).
    path: Vec<Sym>,
    gen: VarGen,
    gov: Governor,
}

impl<'a> Avoiding<'a> {
    fn new(idb: &'a Idb, taboo: &'a Atom, opts: &DescribeOptions) -> Self {
        Avoiding {
            idb,
            taboo,
            path: Vec::new(),
            gen: VarGen::new(),
            gov: opts.governor(),
        }
    }

    /// Renames a rule of `atom`'s predicate apart and unifies its head
    /// with `atom`; `None` for a rule whose head does not unify.
    fn resolve(&mut self, atom: &Atom, rule: &Rule) -> Option<(Rule, Bindings)> {
        let renamed = rename_rule_apart(rule, &mut self.gen);
        let mut mgu = Bindings::new();
        unify_atoms(atom, &renamed.head, &mut mgu).then_some((renamed, mgu))
    }

    /// The taboo check, the leaf case and the cycle guard, shared by the
    /// search and its test reference: `Some(answer)` settles `atom`
    /// without unfolding it, `None` means unfold its rules.
    fn settle(&self, atom: &Atom) -> Option<Option<expand::Conjunct>> {
        if unify_atoms(atom, self.taboo, &mut Bindings::new()) {
            return Some(None);
        }
        if atom.is_builtin() || !self.idb.defines(atom.pred.as_str()) {
            return Some(Some(vec![Literal::pos(atom.clone())]));
        }
        // A minimal untainted derivation never unfolds the same predicate
        // twice along one path (dropping the loop yields a smaller
        // untainted derivation).
        self.path.contains(&atom.pred).then_some(None)
    }

    /// The first untainted derivation of `atom`, rules in order and body
    /// atoms left to right; `None` when every derivation is tainted. A
    /// body atom with no untainted derivation taints its rule, whether it
    /// is a concept all of whose derivations are tainted or a stored atom
    /// that is the taboo itself.
    fn first(&mut self, atom: &Atom) -> Result<Option<expand::Conjunct>> {
        self.gov.tick()?;
        if let Some(settled) = self.settle(atom) {
            return Ok(settled);
        }
        self.path.push(atom.pred.clone());
        let idb = self.idb;
        let mut found = None;
        'rules: for rule in idb.rules_for(atom.pred.as_str()) {
            let Some((renamed, mgu)) = self.resolve(atom, rule) else {
                continue;
            };
            let mut conjunct = Vec::new();
            for lit in &renamed.body {
                if !lit.positive {
                    conjunct.push(mgu.apply_literal(lit));
                    continue;
                }
                match self.first(&mgu.apply_atom(&lit.atom))? {
                    Some(sub) => conjunct.extend(sub),
                    None => continue 'rules,
                }
            }
            found = Some(conjunct);
            break;
        }
        self.path.pop();
        Ok(found)
    }

    /// Every untainted derivation of `atom`, as the DNF of its unfolding:
    /// the reference [`Self::first`] is tested against (its first
    /// disjunct is the witness).
    #[cfg(test)]
    fn all(&mut self, atom: &Atom) -> Result<Vec<expand::Conjunct>> {
        self.gov.tick()?;
        if let Some(settled) = self.settle(atom) {
            return Ok(settled.into_iter().collect());
        }
        self.path.push(atom.pred.clone());
        let idb = self.idb;
        let mut out = Vec::new();
        'rules: for rule in idb.rules_for(atom.pred.as_str()) {
            let Some((renamed, mgu)) = self.resolve(atom, rule) else {
                continue;
            };
            // The cross product of the body atoms' disjuncts.
            let mut combos: Vec<expand::Conjunct> = vec![Vec::new()];
            for lit in &renamed.body {
                let disjuncts = if lit.positive {
                    self.all(&mgu.apply_atom(&lit.atom))?
                } else {
                    vec![vec![mgu.apply_literal(lit)]]
                };
                if disjuncts.is_empty() {
                    continue 'rules;
                }
                combos = combos
                    .iter()
                    .flat_map(|c| {
                        disjuncts
                            .iter()
                            .map(move |d| [c.clone(), d.clone()].concat())
                    })
                    .collect();
                // A conjunct built is work too: the product can outgrow the
                // nodes visited.
                for _ in &combos {
                    self.gov.tick()?;
                }
            }
            out.extend(combos);
        }
        self.path.pop();
        Ok(out)
    }
}

/// The answer to a subjectless (hypothetical-possibility) describe.
#[derive(Clone, Debug, PartialEq)]
pub struct PossibilityAnswer {
    /// True when some expansion of the hypothesis is consistent.
    pub possible: bool,
    /// A consistent expansion, if any (the witness).
    pub witness: Option<expand::Conjunct>,
}

impl std::fmt::Display for PossibilityAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.possible {
            writeln!(f, "true — the hypothetical situation is possible")
        } else {
            writeln!(
                f,
                "false — the hypothetical situation contradicts the knowledge"
            )
        }
    }
}

/// `describe where ψ` (§6's third extension): is the hypothetical
/// situation possible?
///
/// Every IDB atom of ψ is expanded to extensional vocabulary; within each
/// expansion, atoms of the same predicate whose *key* argument prefixes
/// are unifiable are merged (the keys express functional dependencies —
/// e.g. a student has one GPA — without which no contradiction between
/// separately-mentioned atoms is detectable); the comparisons of the
/// merged conjunct are then checked for satisfiability, and against every
/// integrity constraint (a constraint whose body maps into the situation —
/// at the conceptual level or after expansion — forbids it; the
/// introduction's "Must all foreign students be married?" is exactly a
/// constraint hit).
pub fn describe_possible(
    idb: &Idb,
    hypothesis: &[Atom],
    keys: &HashMap<Sym, usize>,
    integrity: &[Constraint],
    opts: &DescribeOptions,
) -> Result<PossibilityAnswer> {
    let forbidden = |lits: &[Literal]| {
        integrity.iter().any(|c| {
            let body: Vec<Literal> = c.body.iter().cloned().map(Literal::pos).collect();
            qdk_logic::subsume::body_subsumes(&body, lits)
        })
    };
    // Constraints may be stated over IDB concepts: check the hypothesis
    // itself before expansion.
    let conceptual: Vec<Literal> = hypothesis.iter().cloned().map(Literal::pos).collect();
    if forbidden(&conceptual) {
        return Ok(PossibilityAnswer {
            possible: false,
            witness: None,
        });
    }
    let expansions = expand::expand_conjunction(idb, hypothesis, opts)?;
    for conj in &expansions {
        if let Some(merged) = merge_by_keys(conj, keys) {
            if forbidden(&merged) {
                continue;
            }
            if constraints::satisfiable(&constraints::comparisons(&merged)) {
                return Ok(PossibilityAnswer {
                    possible: true,
                    witness: Some(merged),
                });
            }
        }
    }
    Ok(PossibilityAnswer {
        possible: false,
        witness: None,
    })
}

/// Unifies same-predicate atoms whose key prefixes are unifiable. Returns
/// `None` when a required merge fails outright (conflicting constants in
/// non-key positions make the conjunct unsatisfiable already).
fn merge_by_keys(conj: &expand::Conjunct, keys: &HashMap<Sym, usize>) -> Option<expand::Conjunct> {
    let mut subst = Bindings::new();
    let atoms: Vec<&Atom> = conj
        .iter()
        .filter(|l| l.positive && !l.is_builtin())
        .map(|l| &l.atom)
        .collect();
    for (i, a) in atoms.iter().enumerate() {
        for b in &atoms[i + 1..] {
            if a.pred != b.pred {
                continue;
            }
            let Some(&klen) = keys.get(&a.pred) else {
                continue;
            };
            if a.args.len() < klen || b.args.len() < klen {
                continue;
            }
            // Keys must be syntactically unifiable to force a merge.
            let mark = subst.mark();
            let mut key_pairs = a.args[..klen].iter().zip(&b.args[..klen]);
            if key_pairs.all(|(x, y)| unify(x, y, &mut subst)) {
                // Same key ⇒ the whole tuples must unify.
                if !unify_atoms(a, b, &mut subst) {
                    return None;
                }
            } else {
                subst.undo_to(mark);
            }
        }
    }
    Some(conj.iter().map(|l| subst.apply_literal(l)).collect())
}

/// `describe * where ψ`: every IDB concept whose describe-answer used the
/// hypothesis, with those answers.
pub fn describe_wildcard(
    idb: &Idb,
    hypothesis: &[Literal],
    opts: &DescribeOptions,
) -> Result<Vec<(Sym, DescribeAnswer)>> {
    PreparedIdb::for_call(idb, opts).describe_wildcard(&[], hypothesis, opts)
}

/// The §6 statements that are built from plain describes, over a kept
/// preparation (the `&Idb` functions above prepare per call, with no
/// integrity constraints). Each runs the shared per-subject describe —
/// [`PreparedIdb::describe_with_constraints`], so theorems `integrity`
/// forbids are gone exactly as they are from a plain `describe` — and
/// then applies the statement's own filter.
impl PreparedIdb {
    /// [`describe_necessary`] over this preparation.
    pub fn describe_necessary(
        &self,
        integrity: &[Constraint],
        query: &Describe,
        opts: &DescribeOptions,
    ) -> Result<DescribeAnswer> {
        let mut answer = self.describe_with_constraints(integrity, query, opts)?;
        let all: Vec<usize> = (0..query.hypothesis.len()).collect();
        answer
            .theorems
            .retain(|t| all.iter().all(|i| t.used_hypothesis.contains(i)));
        Ok(answer)
    }

    /// [`describe_disjunctive`] over this preparation.
    pub fn describe_disjunctive(
        &self,
        integrity: &[Constraint],
        subject: &Atom,
        disjuncts: &[Vec<Literal>],
        opts: &DescribeOptions,
    ) -> Result<DescribeAnswer> {
        let describe = |hypothesis: Vec<Literal>| {
            let query = Describe::new(subject.clone(), hypothesis);
            self.describe_with_constraints(integrity, &query, opts)
        };
        if disjuncts.len() <= 1 {
            return describe(disjuncts.first().cloned().unwrap_or_default());
        }
        let mut per: Vec<DescribeAnswer> = Vec::with_capacity(disjuncts.len());
        for d in disjuncts {
            per.push(describe(d.clone())?);
        }
        // A contradiction with any disjunct does not contradict the
        // disjunction; the whole query contradicts only if every disjunct did.
        let all_contradict = per.iter().all(|a| a.hypothesis_contradicts_idb);
        let mut kept: Vec<crate::Theorem> = Vec::new();
        for (i, answer) in per.iter().enumerate() {
            'theorems: for t in &answer.theorems {
                if t.one_level {
                    // Definitions hold unconditionally.
                    if !kept
                        .iter()
                        .any(|k| crate::redundancy::semantic_subsumes(&k.rule, &t.rule, &[]))
                    {
                        kept.push(t.clone());
                    }
                    continue;
                }
                for (j, other) in per.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let entailed = other
                        .theorems
                        .iter()
                        .any(|o| crate::redundancy::semantic_subsumes(&o.rule, &t.rule, &[]));
                    if !entailed {
                        continue 'theorems;
                    }
                }
                if !kept
                    .iter()
                    .any(|k| crate::redundancy::semantic_subsumes(&k.rule, &t.rule, &[]))
                {
                    kept.push(t.clone());
                }
            }
        }
        // The disjunction's answer is only complete if every disjunct's was;
        // the first truncation diagnostic is carried through.
        let completeness = per.iter().find_map(|a| a.completeness.exhausted()).map_or(
            crate::Completeness::Complete,
            crate::Completeness::Truncated,
        );
        Ok(DescribeAnswer {
            hypothesis_contradicts_idb: all_contradict && kept.is_empty(),
            theorems: kept,
            completeness,
        })
    }

    /// [`describe_wildcard`] over this preparation: one describe per
    /// subject, all over the same prepared rules. A predicate name the
    /// rule base defines at several arities is asked once per arity. A
    /// subject `describe` is not defined on — its describe would fail with
    /// [`DescribeError::UnsupportedIdb`] because its rules reach a negated
    /// literal or a recursion the §5.2 transformation refuses — is
    /// skipped. A subject none of whose theorems can use the hypothesis is
    /// not described at all, unless a limit has already tripped: then its
    /// describe runs, and reports the truncation.
    pub fn describe_wildcard(
        &self,
        integrity: &[Constraint],
        hypothesis: &[Literal],
        opts: &DescribeOptions,
    ) -> Result<Vec<(Sym, DescribeAnswer)>> {
        let mut out = Vec::new();
        for (pred, arity) in self.subjects() {
            // Not a subject `describe` is defined on: its rules negate
            // (§3.2), or reach a recursion the transformation refused.
            let Ok((rules, _)) = self.rules_for_subject(pred.as_str()) else {
                continue;
            };
            // A subject atom with fresh distinct variables.
            let subject = Atom::new(
                pred.clone(),
                (0..arity)
                    .map(|i| qdk_logic::Term::var(&format!("S{i}")))
                    .collect(),
            );
            let query = Describe::new(subject, hypothesis.to_vec());
            if !may_use_hypothesis(rules, &query) && opts.governor().poll().is_ok() {
                continue;
            }
            let mut answer = self.describe_with_constraints(integrity, &query, opts)?;
            answer.theorems.retain(|t| !t.used_hypothesis.is_empty());
            // A subject whose enumeration was cut short stays in the
            // answer even with nothing to show, so the truncation is
            // reported rather than read as "does not follow".
            if !answer.theorems.is_empty() || answer.is_truncated() {
                out.push((pred, answer));
            }
        }
        Ok(out)
    }
}

/// False only when no theorem of `query`, enumerated over `rules`, can use
/// its hypothesis: no hypothesis atom is on the subject's predicate
/// (nothing to identify the root with), no rule of the subject reaches a
/// hypothesis predicate (nothing to identify below it), and no hypothesis
/// comparison mentions a subject variable (the only way one could imply a
/// comparison of a one-level theorem).
fn may_use_hypothesis(rules: &TransformedIdb, query: &Describe) -> bool {
    let subject = &query.subject;
    let vars = subject.vars();
    let mut preds = Vec::new();
    for l in query.hypothesis.iter().filter(|l| l.positive) {
        if !l.is_builtin() {
            preds.push(&l.atom.pred);
        } else if l.atom.vars().iter().any(|v| vars.contains(v)) {
            return true;
        }
    }
    if preds.contains(&&subject.pred) {
        return true;
    }
    let preds = rules.pred_set(preds);
    rules
        .rule_indexes_for(&subject.pred)
        .iter()
        .any(|&ri| rules.reaches(ri, &preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::describe;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    fn university_idb() -> Idb {
        Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).",
            )
            .unwrap()
            .rules,
        )
        .unwrap()
    }

    #[test]
    fn disjunctive_hypothesis_intersects() {
        // describe can_ta(X, Y) where honor(X) or teach(susan, Y):
        // the honor-identified theorems hold only under the first
        // disjunct, the teach-identified ones only under the second —
        // nothing except the definitions is valid under the disjunction.
        let idb = university_idb();
        let subject = parse_atom("can_ta(X, Y)").unwrap();
        let d1 = parse_body("honor(X)").unwrap();
        let d2 = parse_body("teach(susan, Y)").unwrap();
        let a = describe_disjunctive(
            &idb,
            &subject,
            &[d1.clone(), d2.clone()],
            &DescribeOptions::paper(),
        )
        .unwrap();
        // No hypothesis-using theorem survives the intersection here.
        assert!(
            a.theorems.iter().all(|t| !t.uses_hypothesis()),
            "{:?}",
            a.rendered()
        );

        // But a disjunction whose disjuncts both entail the same theorem
        // keeps it: honor(X) or (student(X, M, G) and G > 3.8) — both
        // make honor derivable, so can_ta's honor subtree discharges
        // under each.
        let d3 = parse_body("student(X, M, G), G > 3.8").unwrap();
        let b = describe_disjunctive(&idb, &subject, &[d1, d3], &DescribeOptions::paper()).unwrap();
        assert!(
            b.theorems.iter().any(|t| t.uses_hypothesis()),
            "{:?}",
            b.rendered()
        );
    }

    #[test]
    fn disjunctive_hypothesis_degenerate_cases() {
        let idb = university_idb();
        let subject = parse_atom("honor(X)").unwrap();
        // Zero disjuncts = plain describe.
        let a = describe_disjunctive(&idb, &subject, &[], &DescribeOptions::paper()).unwrap();
        assert_eq!(a.len(), 1);
        // One disjunct = ordinary hypothesis.
        let b = describe_disjunctive(
            &idb,
            &subject,
            &[parse_body("student(X, math, V), V > 3.8").unwrap()],
            &DescribeOptions::paper(),
        )
        .unwrap();
        assert_eq!(b.rendered(), vec!["honor(X)"]);
    }

    #[test]
    fn necessary_filters_unused_hypotheses() {
        // §6's example: describe honor(X) where necessary
        // complete(X, Y, Z, U) and (U > 3.3) — honor's derivation never
        // uses complete, so nothing survives.
        let idb = university_idb();
        let q = Describe::new(
            parse_atom("honor(X)").unwrap(),
            parse_body("complete(X, Y, Z, U), U > 3.3").unwrap(),
        );
        let plain = describe(&idb, &q, &DescribeOptions::default()).unwrap();
        assert!(!plain.is_empty()); // ordinary describe ignores ψ
        let strict = describe_necessary(&idb, &q, &DescribeOptions::default()).unwrap();
        assert!(strict.theorems.is_empty());
    }

    #[test]
    fn necessary_keeps_fully_used_hypotheses() {
        let idb = university_idb();
        let q = Describe::new(
            parse_atom("can_ta(X, Y)").unwrap(),
            parse_body("honor(X)").unwrap(),
        );
        let strict = describe_necessary(&idb, &q, &DescribeOptions::paper()).unwrap();
        assert_eq!(strict.len(), 2);
        assert!(strict
            .theorems
            .iter()
            .all(|t| t.used_hypothesis.contains(&0)));
    }

    #[test]
    fn honor_is_necessary_for_ta() {
        // §6's second extension: describe can_ta(X, Y) where not honor(X)
        // answers false — honor status is necessary.
        let idb = university_idb();
        let a = describe_without(
            &idb,
            &parse_atom("can_ta(X, Y)").unwrap(),
            &parse_atom("honor(W)").unwrap(),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert!(!a.derivable_without);
        assert!(a.to_string().contains("false"));
    }

    #[test]
    fn teach_is_not_necessary_for_ta() {
        // The 4.0 rule derives can_ta without teach: not necessary.
        let idb = university_idb();
        let a = describe_without(
            &idb,
            &parse_atom("can_ta(X, Y)").unwrap(),
            &parse_atom("teach(P, C)").unwrap(),
            &DescribeOptions::default(),
        )
        .unwrap();
        assert!(a.derivable_without);
        let witness: Vec<String> = a.witness.unwrap().iter().map(|l| l.to_string()).collect();
        assert!(
            witness.iter().all(|l| !l.starts_with("teach(")),
            "{witness:?}"
        );
    }

    #[test]
    fn possibility_low_gpa_ta_is_contradicted() {
        // §6's third extension: "are students with GPA under 3.5 allowed
        // to be teaching assistants?" — with student keyed on its first
        // attribute, can_ta's honor expansion forces GPA > 3.7,
        // contradicting Z < 3.5.
        let idb = university_idb();
        let keys: HashMap<Sym, usize> = [(Sym::new("student"), 1)].into_iter().collect();
        let hyp = vec![
            parse_atom("student(X, Y, Z)").unwrap(),
            parse_atom("(Z < 3.5)").unwrap(),
            parse_atom("can_ta(X, U)").unwrap(),
        ];
        let a = describe_possible(&idb, &hyp, &keys, &[], &DescribeOptions::default()).unwrap();
        assert!(!a.possible, "{a}");
    }

    #[test]
    fn possibility_high_gpa_ta_is_possible() {
        let idb = university_idb();
        let keys: HashMap<Sym, usize> = [(Sym::new("student"), 1)].into_iter().collect();
        let hyp = vec![
            parse_atom("student(X, Y, Z)").unwrap(),
            parse_atom("(Z > 3.9)").unwrap(),
            parse_atom("can_ta(X, U)").unwrap(),
        ];
        let a = describe_possible(&idb, &hyp, &keys, &[], &DescribeOptions::default()).unwrap();
        assert!(a.possible, "{a}");
        assert!(a.witness.is_some());
    }

    #[test]
    fn possibility_without_keys_finds_no_contradiction() {
        // Without the functional dependency, the two student atoms are
        // unrelated and no contradiction is detectable (documented
        // substitution for the paper's under-specified check).
        let idb = university_idb();
        let hyp = vec![
            parse_atom("student(X, Y, Z)").unwrap(),
            parse_atom("(Z < 3.5)").unwrap(),
            parse_atom("can_ta(X, U)").unwrap(),
        ];
        let a = describe_possible(
            &idb,
            &hyp,
            &HashMap::new(),
            &[],
            &DescribeOptions::default(),
        )
        .unwrap();
        assert!(a.possible);
    }

    #[test]
    fn wildcard_lists_derivable_concepts() {
        // §6's fourth extension: describe * where honor(X) — what follows
        // from honor status? can_ta does (both rules use it); honor
        // itself does (root identification).
        let idb = university_idb();
        let hyp = parse_body("honor(H)").unwrap();
        let out = describe_wildcard(&idb, &hyp, &DescribeOptions::paper()).unwrap();
        let preds: Vec<String> = out.iter().map(|(p, _)| p.to_string()).collect();
        assert!(preds.contains(&"can_ta".to_string()), "{preds:?}");
        let can_ta = &out.iter().find(|(p, _)| p.as_str() == "can_ta").unwrap().1;
        assert_eq!(can_ta.len(), 2);
    }

    #[test]
    fn wildcard_skips_only_subjects_the_hypothesis_cannot_reach() {
        // `late` negates a literal, so it is no subject `describe` is
        // defined on (§3.2) and is skipped. No rule of `flag` reaches
        // `honor`, so `flag` is not described — unless a
        // hypothesis comparison on the subject's own variable implies
        // `flag`'s comparison, which makes its one-level theorem use the
        // hypothesis.
        let idb = Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.
                 dean(X) :- honor(X), enroll(X, Y).
                 late(X) :- enroll(X, Y), not honor(Y).
                 flag(X) :- student(X, Y, Z), X > 3.",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let concepts = |hypothesis: &str| -> Vec<String> {
            let hyp = parse_body(hypothesis).unwrap();
            let out = describe_wildcard(&idb, &hyp, &DescribeOptions::paper()).unwrap();
            out.iter()
                .map(|(p, a)| format!("{p}: {a}").trim().to_string())
                .collect()
        };
        let reached = vec![
            "honor: honor(S0) ← (S0 = H)",
            "dean: dean(S0) ← enroll(H, X) ∧ (S0 = H)",
        ];
        assert_eq!(concepts("honor(H)"), reached);
        let mut implied = reached;
        implied.push("flag: flag(S0) ← student(S0, X, Y)");
        assert_eq!(concepts("honor(H), S0 > 5"), implied);
    }

    #[test]
    fn wildcard_asks_every_arity_of_an_overloaded_name() {
        // `flag` is defined at arity 1 and 2. The second definition used
        // to be invisible to `describe *` (the subject took its arity from
        // the first rule alone).
        let idb = Idb::from_rules(
            parse_program(
                "flag(X) :- honor(X).
                 flag(X, Y) :- honor(X), enroll(X, Y).
                 honor(X) :- student(X, Y, Z), Z > 3.7.",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let hyp = parse_body("honor(H)").unwrap();
        let out = describe_wildcard(&idb, &hyp, &DescribeOptions::paper()).unwrap();
        let subjects: Vec<String> = out
            .iter()
            .map(|(_, a)| a.theorems[0].rule.head.to_string())
            .collect();
        assert_eq!(subjects, vec!["flag(S0)", "flag(S0, S1)", "honor(S0)"]);
    }
}
