//! The `describe` statement (§3.2): validation, dispatch, and answer
//! assembly.

use crate::answer::{Completeness, Derivation, DerivationStep, DescribeAnswer, Theorem};
use crate::config::{DescribeOptions, FallbackPolicy};
use crate::constraints::{self, Comparison};
use crate::error::{DescribeError, Result};
use crate::prepared::PreparedIdb;
use crate::redundancy;
use crate::transform::TransformedIdb;
use crate::tree::{Chain, Enumerator, RawAnswer};
use qdk_engine::Idb;
use qdk_logic::{unify_atoms, Atom, Literal, Subst, Sym, Term, VarGen};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A parsed `describe` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Describe {
    /// The subject `p`: an atomic formula with an IDB predicate.
    pub subject: Atom,
    /// The qualifier (hypothesis) `ψ`: a positive formula.
    pub hypothesis: Vec<Literal>,
}

impl Describe {
    /// Creates a describe statement.
    pub fn new(subject: Atom, hypothesis: Vec<Literal>) -> Self {
        Describe {
            subject,
            hypothesis,
        }
    }

    /// Validates the statement against an IDB (§3.1–3.2's restrictions).
    pub fn validate(&self, idb: &Idb) -> Result<()> {
        self.check(idb.defines(self.subject.pred.as_str()))
    }

    /// The §3.1–3.2 restrictions, given whether the subject's predicate
    /// heads a rule of the IDB in question.
    pub(crate) fn check(&self, subject_defined: bool) -> Result<()> {
        if self.subject.is_builtin() || !subject_defined {
            return Err(DescribeError::SubjectNotIdb(self.subject.pred.to_string()));
        }
        for l in &self.hypothesis {
            if !l.positive && l.is_builtin() {
                // Negated comparisons: rewrite with the complement op
                // instead (the parser and callers do this); reject here.
                return Err(DescribeError::NegativeHypothesis(l.to_string()));
            }
            if l.atom.pred.as_str() == "="
                && l.atom.args.len() == 2
                && l.atom.args.iter().all(|t| matches!(t, Term::Var(_)))
            {
                return Err(DescribeError::EqualityInHypothesis(l.atom.to_string()));
            }
        }
        Ok(())
    }

    /// The hypothesis as plain atoms.
    pub fn hypothesis_atoms(&self) -> Vec<Atom> {
        self.hypothesis.iter().map(|l| l.atom.clone()).collect()
    }
}

impl fmt::Display for Describe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "describe {}", self.subject)?;
        if !self.hypothesis.is_empty() {
            let parts: Vec<String> = self.hypothesis.iter().map(ToString::to_string).collect();
            write!(f, " where {}", parts.join(" and "))?;
        }
        Ok(())
    }
}

/// Evaluates a `describe` statement, dispatching between Algorithm 1
/// (non-recursive subject) and Algorithm 2 (transformation + tags +
/// typing) per the dependency analysis of §4/§5.
///
/// Stateless: prepares the whole rule base for this one call. A caller
/// asking more than one question of the same rules prepares once and uses
/// [`PreparedIdb::describe`].
pub fn describe(idb: &Idb, query: &Describe, opts: &DescribeOptions) -> Result<DescribeAnswer> {
    PreparedIdb::for_call(idb, opts).describe(query, opts)
}

impl PreparedIdb {
    /// [`describe`] over this preparation. The preparation's
    /// [`TransformPolicy`](crate::TransformPolicy) governs;
    /// `opts.transform` is not consulted.
    pub fn describe(&self, query: &Describe, opts: &DescribeOptions) -> Result<DescribeAnswer> {
        query.check(self.defines(&query.subject.pred))?;
        let (rules, check_typing) = self.rules_for_subject(query.subject.pred.as_str())?;
        run(rules, query, check_typing, opts)
    }

    /// [`Self::describe`] applying every rule, whatever its reach: the
    /// reference the cone-pruned enumeration is tested against.
    #[cfg(test)]
    pub(crate) fn describe_unpruned(
        &self,
        query: &Describe,
        opts: &DescribeOptions,
    ) -> Result<DescribeAnswer> {
        query.check(self.defines(&query.subject.pred))?;
        let (rules, check_typing) = self.rules_for_subject(query.subject.pred.as_str())?;
        let enumerator = Enumerator::new(rules, &query.hypothesis, check_typing, opts).unpruned();
        run_enumerator(rules, query, opts, enumerator)
    }

    /// [`Self::describe`] that additionally respects integrity constraints
    /// (§2.1's second Horn-clause form): a theorem whose body — conjoined
    /// with the hypothesis — contains a forbidden combination (some
    /// constraint's body maps into it) is discarded, since no database
    /// satisfying the constraints can instantiate it. If the constraints
    /// discard every theorem, the special contradiction answer is raised.
    pub fn describe_with_constraints(
        &self,
        integrity: &[qdk_logic::Constraint],
        query: &Describe,
        opts: &DescribeOptions,
    ) -> Result<DescribeAnswer> {
        let mut answer = self.describe(query, opts)?;
        if integrity.is_empty() {
            return Ok(answer);
        }
        let forbidden = |theorem: &Theorem| {
            let mut lits: Vec<Literal> = theorem.rule.body.clone();
            lits.extend(query.hypothesis.iter().cloned());
            integrity.iter().any(|c| {
                let body: Vec<Literal> = c.body.iter().cloned().map(Literal::pos).collect();
                qdk_logic::subsume::body_subsumes(&body, &lits)
            })
        };
        let before = answer.theorems.len();
        answer.theorems.retain(|t| !forbidden(t));
        if answer.theorems.is_empty() && before > 0 {
            answer.hypothesis_contradicts_idb = true;
        }
        Ok(answer)
    }
}

/// Runs the enumeration over a prepared (possibly transformed) IDB and
/// assembles the final answer. Exposed for the algo1/algo2 entry points
/// and the benchmarks.
pub fn run(
    tidb: &TransformedIdb,
    query: &Describe,
    check_typing: bool,
    opts: &DescribeOptions,
) -> Result<DescribeAnswer> {
    let enumerator = Enumerator::new(tidb, &query.hypothesis, check_typing, opts);
    run_enumerator(tidb, query, opts, enumerator)
}

fn run_enumerator(
    tidb: &TransformedIdb,
    query: &Describe,
    opts: &DescribeOptions,
    mut enumerator: Enumerator<'_>,
) -> Result<DescribeAnswer> {
    let obs = opts.sink.clone();
    let (raw, productive) = {
        let _span = obs.span("enumerate", 0);
        enumerator.enumerate(&query.subject)
    };
    let truncation = enumerator.truncation();
    let hard_truncation = enumerator.hard_stop();
    if obs.enabled() {
        let stats = enumerator.stats();
        obs.counter("trees_expanded", stats.trees_expanded);
        obs.counter("leaves_identified", stats.leaves_identified);
        obs.counter("cuts", stats.cuts);
        if truncation.is_some() {
            obs.counter("governor_spend_at_truncation", enumerator.ops());
        }
    }

    let hyp_comps: Vec<(usize, Atom)> = query
        .hypothesis
        .iter()
        .enumerate()
        .filter(|(_, l)| l.positive && l.is_builtin())
        .map(|(i, l)| (i, l.atom.clone()))
        .collect();
    // §6 generalization: negative hypothesis literals forbid the concept —
    // a theorem whose derivation tree mentions a formula unifying with a
    // negated atom depends on that concept and is discarded.
    let negated: Vec<&Atom> = query
        .hypothesis
        .iter()
        .filter(|l| !l.positive)
        .map(|l| &l.atom)
        .collect();
    let tainted = |r: &RawAnswer| {
        negated.iter().any(|n| {
            std::iter::once(&query.subject)
                .chain(r.tree_atoms())
                .any(|a| unify_atoms(&r.subst.apply_atom(a), n).is_some())
        })
    };

    let mut theorems = Vec::new();
    let mut discarded_contradictory = 0usize;

    let assemble_span = obs.span("assemble", raw.len() as u64);
    for r in &raw {
        if tainted(r) {
            continue;
        }
        match assemble(&query.subject, r, &hyp_comps, opts) {
            Assembled::Theorem(t) => theorems.push(t),
            Assembled::Contradicts => discarded_contradictory += 1,
            Assembled::Vacuous => {}
        }
    }

    // One-level fallback (Figure 1 box 19 / the paper's printed
    // behaviour). A derivation that used the hypothesis counts as
    // productive even if comparison post-processing later discarded it —
    // a contradicted hypothesis must yield the special answer, not the
    // plain definitions.
    let any_productive = raw.iter().any(|r| !r.used.is_empty());
    let rule_indexes = tidb.rule_indexes_for(&query.subject.pred);
    let emit_fallback_for = |ri: &usize| match opts.fallback {
        FallbackPolicy::PerRule => !productive.contains(ri),
        FallbackPolicy::Global => !any_productive,
    };
    let mut gen = VarGen::new();
    for ri in rule_indexes.iter().filter(|ri| emit_fallback_for(ri)) {
        // One-level answers rename through the same compiled slot maps the
        // enumerator (and the retrieve executor) use.
        let renamed = tidb.compiled[*ri].rename_apart(&mut gen);
        let Some(mgu) = unify_atoms(&query.subject, &renamed.head) else {
            continue;
        };
        let leaves: Vec<Atom> = renamed.body.into_iter().map(|l| l.atom).collect();
        let raw = RawAnswer {
            subst: Arc::new(mgu),
            tree: Chain::default().extend(leaves.clone()),
            tree_from: 0,
            leaves,
            used: BTreeSet::new(),
            root_rule: Some(*ri),
            trace: Chain::default().push(DerivationStep::Definition {
                text: tidb.rule_text(*ri),
            }),
        };
        if tainted(&raw) {
            continue;
        }
        match assemble(&query.subject, &raw, &hyp_comps, opts) {
            Assembled::Theorem(mut t) => {
                t.one_level = true;
                theorems.push(t);
            }
            Assembled::Contradicts => discarded_contradictory += 1,
            Assembled::Vacuous => {}
        }
    }
    drop(assemble_span);

    // Redundancy elimination (§3.2). When the enumerator hard-stopped —
    // a hard limit (deadline, budget, facts, cancellation) tripped, or the
    // built-in recursion guard cut a divergent walk — the O(n²)
    // subsumption passes are skipped too: the evaluation is already over
    // its allowance (or its guard-length chain bodies make θ-subsumption
    // intractable), and a truncated answer makes no minimality promise.
    // A configured-depth-only truncation keeps the full post-processing:
    // the walk completed within its per-branch bound, and the paper's
    // depth-bounded demonstrations (Example 6 under Algorithm 1) rely on
    // the reduced form.
    if opts.remove_redundant && !hard_truncation {
        // This span is the θ-subsumption pass timing: dominance plus the
        // remove_redundant reduction below.
        let _span = obs.span("reduce", theorems.len() as u64);
        // Hypothesis-aware dominance (the Example 5 behaviour; cf. §6's
        // remark that identification "may reduce the generality of the
        // answer"): a theorem is dropped when a more-identified theorem
        // from the same root rule subsumes it once the hypothesis is
        // conjoined — the less-identified variant says nothing the
        // identified one plus the hypothesis does not.
        // Both subsumption sides are pure functions of one theorem, so
        // each is prepared once, and only when some pair passes the
        // hypothesis-set guard: an answer set whose theorems all used the
        // same hypothesis indexes (the common case) prepares nothing. The
        // augmented specific side is built only for a theorem that a
        // guard pair tests.
        let guard = |a: &Theorem, b: &Theorem| {
            a.root_rule == b.root_rule
                && a.used_hypothesis.len() > b.used_hypothesis.len()
                && a.used_hypothesis.is_superset(&b.used_hypothesis)
        };
        let pairs: Vec<(usize, usize)> = (0..theorems.len())
            .flat_map(|bi| (0..theorems.len()).map(move |ai| (ai, bi)))
            .filter(|&(ai, bi)| guard(&theorems[ai], &theorems[bi]))
            .collect();
        if !pairs.is_empty() {
            let mut augmented: Vec<Option<qdk_logic::Rule>> = vec![None; theorems.len()];
            for &(ai, _) in &pairs {
                augmented[ai].get_or_insert_with(|| {
                    let mut aug = theorems[ai].rule.clone();
                    aug.body.extend(query.hypothesis.iter().cloned());
                    aug
                });
            }
            let specifics: Vec<_> = augmented
                .iter()
                .map(|aug| aug.as_ref().map(|r| redundancy::prepare_specific(r, &[])))
                .collect();
            let generals: Vec<_> = theorems
                .iter()
                .map(|b| redundancy::prepare_general(&b.rule))
                .collect();
            let mut dominated = vec![false; theorems.len()];
            for (ai, bi) in pairs {
                if let Some(specific) = &specifics[ai] {
                    dominated[bi] =
                        dominated[bi] || redundancy::subsumes_prepared(&generals[bi], specific);
                }
            }
            // The prepared sides borrow the theorems.
            drop((generals, specifics));
            theorems = theorems
                .into_iter()
                .zip(dominated)
                .filter_map(|(t, dominated)| (!dominated).then_some(t))
                .collect();
        }

        let mut trans: Vec<Sym> = tidb.step_preds.values().cloned().collect();
        trans.extend(tidb.modified.iter().cloned());
        theorems = redundancy::remove_redundant(theorems, &trans);
    }

    Ok(DescribeAnswer {
        hypothesis_contradicts_idb: theorems.is_empty() && discarded_contradictory > 0,
        theorems,
        completeness: truncation.map_or(Completeness::Complete, Completeness::Truncated),
    })
}

/// Exhaustive-mode enumeration (no productivity cut, no fallback, no
/// dominance): every derivation within `opts.limits.max_depth` becomes a
/// candidate theorem. Used by the completeness audit.
pub fn run_exhaustive(
    tidb: &TransformedIdb,
    query: &Describe,
    check_typing: bool,
    opts: &DescribeOptions,
) -> Result<DescribeAnswer> {
    let mut enumerator = Enumerator::new(tidb, &query.hypothesis, check_typing, opts).exhaustive();
    let (raw, _) = enumerator.enumerate(&query.subject);
    let truncation = enumerator.truncation();
    let hyp_comps: Vec<(usize, Atom)> = query
        .hypothesis
        .iter()
        .enumerate()
        .filter(|(_, l)| l.positive && l.is_builtin())
        .map(|(i, l)| (i, l.atom.clone()))
        .collect();
    let mut theorems = Vec::new();
    for r in &raw {
        if let Assembled::Theorem(t) = assemble(&query.subject, r, &hyp_comps, opts) {
            theorems.push(t);
        }
    }
    Ok(DescribeAnswer {
        theorems,
        hypothesis_contradicts_idb: false,
        completeness: truncation.map_or(Completeness::Complete, Completeness::Truncated),
    })
}

enum Assembled {
    Theorem(Theorem),
    /// Discarded because a body comparison contradicts the hypothesis.
    Contradicts,
    /// Discarded for other vacuity (ground-false comparison).
    Vacuous,
}

/// Assembles a theorem from a raw derivation: normalizes fresh variables,
/// renders subject-variable bindings as body equalities, and applies the
/// §4 comparison post-processing.
fn assemble(
    subject: &Atom,
    raw: &RawAnswer,
    hyp_comps: &[(usize, Atom)],
    opts: &DescribeOptions,
) -> Assembled {
    // Invert bindings subject-var → fresh-var so heads stay in the user's
    // vocabulary.
    let subject_vars = subject.vars();
    let mut inversion = Subst::new();
    for v in &subject_vars {
        if let Term::Var(f) = raw.subst.apply_term(&Term::Var(v.clone())) {
            if f.is_fresh() && inversion.get(&f).is_none() {
                inversion.bind(f, Term::Var(v.clone()));
            }
        }
    }
    // Applying `raw.subst` and then `inversion` is applying their
    // composition (a variable binds to a variable or a constant), without
    // copying the branch's whole substitution.
    let resolve = |t: &Term| inversion.apply_term(&raw.subst.apply_term(t));
    let resolve_atom = |a: &Atom| Atom {
        pred: a.pred.clone(),
        args: a.args.iter().map(resolve).collect(),
    };

    // Body: the substituted leaves…
    let mut body: Vec<Literal> = Vec::with_capacity(raw.leaves.len() + subject_vars.len());
    for leaf in &raw.leaves {
        body.push(Literal::pos(resolve_atom(leaf)));
    }
    // …plus an equality for every subject variable the derivation bound
    // (Example 6's `prior(X, Y) ← (X = databases)`).
    for v in &subject_vars {
        let t = resolve(&Term::Var(v.clone()));
        if t != Term::Var(v.clone()) {
            body.push(Literal::pos(Atom::new("=", vec![Term::Var(v.clone()), t])));
        }
    }

    let mut used = raw.used.clone();

    // §4 comparison post-processing.
    if opts.simplify_comparisons {
        let hyp: Vec<(usize, Comparison)> = hyp_comps
            .iter()
            .filter_map(|(i, a)| Comparison::from_atom(&resolve_atom(a)).map(|c| (*i, c)))
            .collect();
        let mut kept: Vec<Literal> = Vec::with_capacity(body.len());
        for lit in body {
            if !lit.is_builtin() || !lit.positive {
                kept.push(lit);
                continue;
            }
            let Some(c) = Comparison::from_atom(&lit.atom) else {
                kept.push(lit);
                continue;
            };
            match c {
                Comparison::Ground(Some(true)) | Comparison::SameVar(true) => {}
                Comparison::Ground(Some(false))
                | Comparison::Ground(None)
                | Comparison::SameVar(false) => return Assembled::Vacuous,
                ref c => {
                    if let Some((i, _)) = hyp.iter().find(|(_, a)| constraints::contradicts(a, c)) {
                        used.insert(*i);
                        return Assembled::Contradicts;
                    }
                    if let Some((i, _)) = hyp.iter().find(|(_, a)| constraints::implies(a, c)) {
                        used.insert(*i);
                        // β dropped: implied by the hypothesis.
                    } else {
                        kept.push(lit);
                    }
                }
            }
        }
        body = kept;
    }

    // Duplicate conjuncts carry nothing; a theorem whose body contains its
    // own head is a tautology (`p ← p` says nothing) — both arise from
    // identifications that collapse variables (e.g. the symmetric-rule
    // hypothesis) and are dropped here.
    let mut deduped: Vec<Literal> = Vec::with_capacity(body.len());
    for lit in body {
        if !deduped.contains(&lit) {
            deduped.push(lit);
        }
    }
    if deduped.iter().any(|l| l.positive && l.atom == *subject) {
        return Assembled::Vacuous;
    }

    Assembled::Theorem(Theorem {
        rule: qdk_logic::Rule::with_literals(subject.clone(), deduped),
        used_hypothesis: used,
        root_rule: raw.root_rule,
        one_level: false,
        derivation: Derivation(raw.trace.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformPolicy;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    /// The paper's full example IDB (§2.2).
    fn university_idb() -> Idb {
        Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 prior(X, Y) :- prereq(X, Y).\n\
                 prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
                 can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).",
            )
            .unwrap()
            .rules,
        )
        .unwrap()
    }

    fn q(subject: &str, hyp: &str) -> Describe {
        Describe::new(
            parse_atom(subject).unwrap(),
            if hyp.is_empty() {
                vec![]
            } else {
                parse_body(hyp).unwrap()
            },
        )
    }

    #[test]
    fn example4_describe_honor() {
        // Paper Example 4: describe honor(X) — the definition itself.
        let idb = university_idb();
        let a = describe(&idb, &q("honor(X)", ""), &DescribeOptions::paper()).unwrap();
        assert_eq!(
            a.rendered(),
            vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]
        );
        assert!(a.theorems[0].one_level);
    }

    #[test]
    fn example3_describe_can_ta_for_math_students() {
        // Paper Example 3: describe can_ta(X, databases) where
        // student(X, math, V) and (V > 3.7).
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("can_ta(X, databases)", "student(X, math, V), V > 3.7"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        let rendered = a.rendered();
        assert_eq!(
            rendered,
            vec![
                "can_ta(X, databases) ← complete(X, databases, Y, 4.0)",
                "can_ta(X, databases) ← complete(X, databases, Y, Z) ∧ (Z > 3.3) ∧ taught(U, databases, Y, V) ∧ teach(U, databases)",
            ]
        );
        // Both theorems used the student hypothesis.
        assert!(a.theorems.iter().all(|t| t.used_hypothesis.contains(&0)));
    }

    #[test]
    fn example5_describe_can_ta_taught_by_susan() {
        // Paper Example 5: describe can_ta(X, Y) where honor(X) and
        // teach(susan, Y).
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("can_ta(X, Y)", "honor(X), teach(susan, Y)"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        assert_eq!(
            a.rendered(),
            vec![
                "can_ta(X, Y) ← complete(X, Y, Z, 4.0)",
                "can_ta(X, Y) ← complete(X, Y, Z, U) ∧ (U > 3.3) ∧ taught(susan, Y, Z, V)",
            ]
        );
    }

    #[test]
    fn example6_recursive_describe_with_modified_transformation() {
        // Paper Example 6 (§5.3): describe prior(X, Y) where
        // prior(databases, Y) — the preferred finite answer.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("prior(X, Y)", "prior(databases, Y)"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        assert_eq!(
            a.rendered(),
            vec![
                "prior(X, Y) ← (X = databases)",
                "prior(X, Y) ← prior(X, databases)",
            ]
        );
    }

    #[test]
    fn example6_with_artificial_transformation() {
        // Same query under the unmodified Imielinski transformation: the
        // second answer is phrased with the step predicate.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("prior(X, Y)", "prior(databases, Y)"),
            &DescribeOptions::paper().with_transform(TransformPolicy::AlwaysArtificial),
        )
        .unwrap();
        assert_eq!(
            a.rendered(),
            vec![
                "prior(X, Y) ← (X = databases)",
                "prior(X, Y) ← t_prior(databases, X)",
            ]
        );
    }

    #[test]
    fn example7_typing_restriction() {
        // Paper Example 7: describe prior(X, Y) where prior(X, databases).
        // Type-violating identifications are rejected: no prereq-loop
        // answers; the sound root identification remains.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("prior(X, Y)", "prior(X, databases)"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        for t in &a.theorems {
            for l in &t.rule.body {
                if l.atom.pred == "prereq" {
                    assert_ne!(l.atom.args[0], l.atom.args[1], "loop in {}", t.rule);
                }
            }
        }
        assert!(a.contains_rendered("prior(X, Y) ← (Y = databases)"));
    }

    #[test]
    fn example6_per_rule_fallback_adds_definition() {
        // Under the flowchart-faithful per-rule policy, the unproductive
        // exit rule contributes its one-level answer as well.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("prior(X, Y)", "prior(databases, Y)"),
            &DescribeOptions::default(),
        )
        .unwrap();
        let rendered = a.rendered();
        assert!(rendered.contains(&"prior(X, Y) ← prereq(X, Y)".to_string()));
        assert!(rendered.contains(&"prior(X, Y) ← prior(X, databases)".to_string()));
    }

    #[test]
    fn hypothesis_contradiction_yields_special_answer() {
        // describe honor(X) where student(X, math, V) and V < 3.5: the
        // definition's (Z > 3.7) with Z identified to V contradicts.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("honor(X)", "student(X, math, V), V < 3.5"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        assert!(a.hypothesis_contradicts_idb, "{a}");
        assert!(a.theorems.is_empty());
    }

    #[test]
    fn implied_comparison_is_dropped() {
        // describe honor(X) where student(X, math, V) and V > 3.8: the
        // body comparison (V > 3.7) is implied and dropped.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("honor(X)", "student(X, math, V), V > 3.8"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        // The body empties entirely: under this hypothesis, the subject
        // holds outright.
        assert_eq!(a.rendered(), vec!["honor(X)"]);
    }

    #[test]
    fn subject_must_be_idb() {
        let idb = university_idb();
        assert!(matches!(
            describe(
                &idb,
                &q("student(X, Y, Z)", ""),
                &DescribeOptions::default()
            ),
            Err(DescribeError::SubjectNotIdb(_))
        ));
        assert!(matches!(
            describe(&idb, &q("ghost(X)", ""), &DescribeOptions::default()),
            Err(DescribeError::SubjectNotIdb(_))
        ));
    }

    #[test]
    fn hypothesis_restrictions_enforced() {
        let idb = university_idb();
        // Negated comparisons are rejected (write the complement instead).
        let neg_cmp = Describe::new(
            parse_atom("honor(X)").unwrap(),
            vec![Literal::neg(parse_atom("(Z > 3.7)").unwrap())],
        );
        assert!(matches!(
            describe(&idb, &neg_cmp, &DescribeOptions::default()),
            Err(DescribeError::NegativeHypothesis(_))
        ));
        assert!(matches!(
            describe(&idb, &q("honor(X)", "X = Y"), &DescribeOptions::default()),
            Err(DescribeError::EqualityInHypothesis(_))
        ));
        // Var = const equalities are fine.
        assert!(describe(
            &idb,
            &q("honor(X)", "student(X, M, G), M = math"),
            &DescribeOptions::paper()
        )
        .is_ok());
    }

    #[test]
    fn mixed_negated_hypothesis_filters_dependent_theorems() {
        // §6 generalization: describe can_ta(X, Y) where teach(susan, Y)
        // and not honor(X) — rule 1 identifies teach but its tree also
        // mentions honor, which the negation forbids; rule 2's tree
        // mentions honor too. Nothing survives.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("can_ta(X, Y)", "teach(susan, Y), not honor(X)"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        assert!(a.theorems.is_empty(), "{:?}", a.rendered());
        // Forbidding something absent from the derivations changes nothing.
        let b = describe(
            &idb,
            &q("can_ta(X, Y)", "teach(susan, Y), not prior(C, D)"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        assert!(!b.theorems.is_empty());
    }

    #[test]
    fn constraints_discard_forbidden_theorems() {
        // married_ta requires foreign(X) ∧ unmarried(X) in one rule —
        // which the constraint forbids; the other rule survives.
        let idb = Idb::from_rules(
            qdk_logic::parser::parse_program(
                "candidate(X) :- foreign(X), unmarried(X), applied(X).\n\
                 candidate(X) :- domestic(X), applied(X).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let constraint = qdk_logic::parser::parse_program(":- foreign(X), unmarried(X).")
            .unwrap()
            .constraints;
        let query = q("candidate(X)", "");
        let unfiltered = describe(&idb, &query, &DescribeOptions::paper()).unwrap();
        assert_eq!(unfiltered.len(), 2);
        let opts = DescribeOptions::paper();
        let filtered = PreparedIdb::prepare(&idb, opts.transform)
            .describe_with_constraints(&constraint, &query, &opts)
            .unwrap();
        assert_eq!(
            filtered.rendered(),
            vec!["candidate(X) ← domestic(X) ∧ applied(X)"]
        );
        // All theorems forbidden ⇒ the special answer.
        let idb2 = Idb::from_rules(
            qdk_logic::parser::parse_program(
                "candidate(X) :- foreign(X), unmarried(X), applied(X).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        let all_gone = PreparedIdb::prepare(&idb2, opts.transform)
            .describe_with_constraints(&constraint, &query, &opts)
            .unwrap();
        assert!(all_gone.hypothesis_contradicts_idb);
    }

    #[test]
    fn theorems_carry_derivation_traces() {
        // Example 3's first theorem was derived by expanding honor and
        // identifying the student hypothesis — the trace says so.
        let idb = university_idb();
        let a = describe(
            &idb,
            &q("can_ta(X, databases)", "student(X, math, V), V > 3.7"),
            &DescribeOptions::paper(),
        )
        .unwrap();
        let t = a
            .theorems
            .iter()
            .find(|t| t.rule.body.iter().any(|l| l.atom.pred == "taught"))
            .expect("rule-1 theorem");
        let explain = t.explain();
        assert!(explain.contains("expanded by rule"), "{explain}");
        assert!(explain.contains("identified with hypothesis"), "{explain}");
        assert!(explain.contains("student"), "{explain}");
        // One-level answers carry their definition as the trace.
        let plain = describe(&idb, &q("honor(X)", ""), &DescribeOptions::paper()).unwrap();
        assert!(plain.theorems[0].explain().contains("definition:"));
    }

    #[test]
    fn display_of_statement() {
        let d = q("can_ta(X, databases)", "student(X, math, V), V > 3.7");
        assert_eq!(
            d.to_string(),
            "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)"
        );
    }
}
