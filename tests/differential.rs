//! Differential testing of the compiled query core.
//!
//! The compile-then-execute refactor replaced the per-recursion-step
//! scheduler with plans computed once per (rule, adornment). These tests
//! pin its semantics against an independent reference:
//!
//! * a tiny term-level naive evaluator (the pre-refactor semantics,
//!   reimplemented here with nothing but `unify_atoms` on one `Bindings`
//!   trail, undone after each fact it tries) must derive exactly the
//!   facts the three compiled strategies derive, on randomly generated
//!   safe programs and random EDBs;
//! * `Strategy::Auto` must return, on random programs with negation and
//!   random goal shapes, the rows of the engine's naive reference and of
//!   the strategy it resolved to;
//! * a retrieve answer is a set rendered in value order, so on random
//!   programs every statement renders the same bytes under every
//!   strategy, through `Session` and `SnapshotSession`, maintained or
//!   not, on a first call and on a repeated one (which the epoch's QSQ
//!   tables may answer) — and, pinned by a digest, in a build that
//!   perturbs hash order (`--cfg qdk_hash_seed`);
//! * `describe`'s derivation-tree enumeration renames rules through the
//!   compiled slot maps — standardizing apart via
//!   [`qdk::logic::CompiledRule::rename_apart`] must be indistinguishable
//!   from the term-level [`qdk::logic::rename_rule_apart`], and
//!   one-level theorems must mirror the textual rules they came from.

use proptest::prelude::*;
use qdk::core::{describe, Describe, DescribeOptions};
use qdk::engine::{
    naive, query, retrieve_compiled, retrieve_precomputed, EvalOptions, Idb, ProgramPlan,
};
use qdk::logic::parser::{parse_atom, parse_body, parse_rule};
use qdk::logic::{
    rename_rule_apart, unify_atoms, Atom, Bindings, CompiledRule, Interner, Literal, Rule, Term,
    VarGen,
};
use qdk::storage::Edb;
use qdk::{AutoChoice, KnowledgeBase, Request, Response, Retrieve, Session, Strategy};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Reference semantics: naive fixpoint with term-level unification.
// ---------------------------------------------------------------------

/// Pushes `head` under every extension of `subst` that grounds `goals`
/// against `facts`.
fn join(head: &Atom, goals: &[Atom], facts: &[Atom], subst: &mut Bindings, out: &mut Vec<Atom>) {
    let Some((goal, rest)) = goals.split_first() else {
        out.push(subst.apply_atom(head));
        return;
    };
    for fact in facts {
        let mark = subst.mark();
        if unify_atoms(goal, fact, subst) {
            join(head, rest, facts, subst, out);
            subst.undo_to(mark);
        }
    }
}

/// Naive bottom-up fixpoint over positive rules, returning every fact
/// (EDB and derived) as its rendered string.
fn reference_eval(edb_facts: &[Atom], rules: &[Rule]) -> BTreeSet<String> {
    let mut facts: Vec<Atom> = edb_facts.to_vec();
    let mut seen: BTreeSet<String> = facts.iter().map(ToString::to_string).collect();
    loop {
        let mut fresh = Vec::new();
        for rule in rules {
            let goals: Vec<Atom> = rule.body.iter().map(|l| l.atom.clone()).collect();
            let mut heads = Vec::new();
            join(&rule.head, &goals, &facts, &mut Bindings::new(), &mut heads);
            for head in heads {
                if seen.insert(head.to_string()) {
                    fresh.push(head);
                }
            }
        }
        if fresh.is_empty() {
            return seen;
        }
        facts.extend(fresh);
    }
}

// ---------------------------------------------------------------------
// Random safe programs.
// ---------------------------------------------------------------------

/// Predicate universe: fixed arities so every occurrence agrees with the
/// declaration. e* are extensional, p* intensional candidates.
const PREDS: [(&str, usize); 5] = [("e0", 2), ("e1", 1), ("p0", 2), ("p1", 1), ("p2", 2)];

fn term_for(spec: u8, pool: &[&str]) -> Term {
    if (spec as usize) < 5 && !pool.is_empty() {
        Term::var(pool[spec as usize % pool.len()])
    } else {
        Term::sym(&format!("c{}", spec % 5))
    }
}

/// Builds a safe rule from raw specs: body first, then a head whose
/// variable arguments are drawn only from variables the body binds.
fn build_rule(head_pred: u8, head_args: &[u8], body: &[(u8, Vec<u8>)]) -> Rule {
    let vars = ["V0", "V1", "V2", "V3", "V4"];
    let mut atoms = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    for (p, args) in body {
        let (name, arity) = PREDS[*p as usize % PREDS.len()];
        let args: Vec<Term> = args
            .iter()
            .take(arity)
            .map(|a| {
                let t = term_for(*a, &vars);
                if let Term::Var(v) = &t {
                    if !bound.contains(&v.name()) {
                        bound.push(vars[*a as usize % vars.len()]);
                    }
                }
                t
            })
            .collect();
        atoms.push(Atom::new(name, args));
    }
    let (head_name, head_arity) = PREDS[2 + (head_pred as usize % 3)];
    let head_args: Vec<Term> = head_args
        .iter()
        .take(head_arity)
        .map(|a| {
            if bound.is_empty() || *a >= 5 {
                Term::sym(&format!("c{}", a % 5))
            } else {
                Term::var(bound[*a as usize % bound.len()])
            }
        })
        .collect();
    Rule::new(Atom::new(head_name, head_args), atoms)
}

/// Declares every predicate the program mentions that no rule defines,
/// and loads the random facts.
fn build_edb(rules: &[Rule], e0: &[(u8, u8)], e1: &[u8]) -> Edb {
    let defined: BTreeSet<&str> = rules.iter().map(|r| r.head.pred.as_str()).collect();
    let mut edb = Edb::new();
    for (name, arity) in PREDS {
        if !defined.contains(name) {
            let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
            let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            edb.declare(name, &attrs).unwrap();
        }
    }
    for (a, b) in e0 {
        let _ = edb.insert_fact(&parse_atom(&format!("e0(c{}, c{})", a % 5, b % 5)).unwrap());
    }
    for a in e1 {
        let _ = edb.insert_fact(&parse_atom(&format!("e1(c{})", a % 5)).unwrap());
    }
    edb
}

/// Appends a negated literal over variables the body already binds, so the
/// rule stays safe: `not e1(V)`, `not e0(V, W)` or `not n0(V)`. `n0` is
/// defined from stored predicates alone ([`N0_RULE`]), so whatever the
/// positive rules do to each other the program stays stratified.
fn negate_something(rule: &mut Rule, spec: u8) {
    let mut vars = Vec::new();
    for lit in &rule.body {
        lit.atom.collect_vars(&mut vars);
    }
    vars.dedup();
    let Some(v) = vars.first().cloned() else {
        return;
    };
    let w = vars.last().cloned().unwrap_or_else(|| v.clone());
    let atom = match spec {
        1 => Atom::new("e1", vec![Term::Var(v)]),
        2 => Atom::new("e0", vec![Term::Var(v), Term::Var(w)]),
        3 => Atom::new("n0", vec![Term::Var(v)]),
        _ => return,
    };
    rule.body.push(Literal::neg(atom));
}

/// Negation below everything else: read by `not n0(V)` literals.
const N0_RULE: &str = "n0(X) :- e1(X), not e0(X, X).";

/// A retrieve over the random programs' vocabulary, one shape per `kind`:
/// bound and doubly bound subjects, repeated variables, stored-only
/// goals, a fresh `answer` subject, comparison-only qualifiers, negated
/// goals, ground (boolean) subjects.
fn goal_shape(kind: u8, pred: &str, arity: usize, c: &str, d: &str) -> Retrieve {
    let pair = arity == 2;
    let (subject, qualifier) = match kind % 10 {
        0 if pair => (format!("{pred}({c}, Y)"), String::new()),
        1 if pair => (format!("{pred}(X, {c})"), String::new()),
        2 if pair => (format!("{pred}(X, X)"), String::new()),
        3 if pair => (format!("{pred}({c}, {d})"), String::new()),
        4 => (format!("e0(X, {c})"), "e1(X)".to_string()),
        5 if pair => ("answer(X)".to_string(), format!("{pred}(X, {c}), e1(X)")),
        6 if pair => (format!("{pred}(X, Y)"), format!("X = {c}")),
        7 if pair => (format!("{pred}(X, Y)"), "not e1(X)".to_string()),
        8 if pair => (
            "answer(X)".to_string(),
            format!("e0(X, Y), not {pred}(Y, {c})"),
        ),
        9 if pair => (format!("{pred}(X, Y)"), format!("e0(Y, {c})")),
        _ if pair => (format!("{pred}(X, Y)"), String::new()),
        _ => (format!("{pred}({c})"), String::new()),
    };
    let qualifier = if qualifier.is_empty() {
        Vec::new()
    } else {
        parse_body(&qualifier).unwrap()
    };
    Retrieve::new(parse_atom(&subject).unwrap(), qualifier)
}

/// One random rule's specs: head predicate, head arguments, body
/// literals, and what to negate (see [`negate_something`]).
type RuleSpec = (u8, Vec<u8>, Vec<(u8, Vec<u8>)>, u8);

/// A random program with (stratified) negation: the specs' rules plus
/// [`N0_RULE`].
fn random_rules(specs: &[RuleSpec]) -> Vec<Rule> {
    let mut rules: Vec<Rule> = specs
        .iter()
        .map(|(h, ha, body, neg)| {
            let mut rule = build_rule(*h, ha, body);
            negate_something(&mut rule, *neg);
            rule
        })
        .collect();
    rules.push(parse_rule(N0_RULE).unwrap());
    rules
}

/// The script that loads what [`build_edb`] builds, plus the rules.
fn script(rules: &[Rule], e0: &[(u8, u8)], e1: &[u8]) -> String {
    let defined: BTreeSet<&str> = rules.iter().map(|r| r.head.pred.as_str()).collect();
    let mut out = String::new();
    for (name, arity) in PREDS {
        if !defined.contains(name) {
            let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
            out.push_str(&format!("predicate {name}({}).\n", attrs.join(", ")));
        }
    }
    for (a, b) in e0 {
        out.push_str(&format!("e0(c{}, c{}).\n", a % 5, b % 5));
    }
    for a in e1 {
        out.push_str(&format!("e1(c{}).\n", a % 5));
    }
    for rule in rules {
        out.push_str(&format!("{rule}\n"));
    }
    out
}

/// A response's rendered answer without its downgrade notes (a pinned
/// strategy that cannot host a query says so).
fn rendered_answer(resp: Response) -> String {
    resp.to_string()
        .lines()
        .filter(|l| !l.starts_with("-- note:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Every goal shape over every derived predicate of a random program,
/// asked on every path — `Session`, `SnapshotSession`, a maintained
/// session — under every strategy, twice over (the second pass may be
/// answered by the QSQ tables the first filled). Asserts that every path
/// renders every answer to the same bytes, and returns them.
fn answers_everywhere(rules: &[Rule], e0: &[(u8, u8)], e1: &[u8], consts: (u8, u8)) -> Vec<String> {
    let script = script(rules, e0, e1);
    let load = || {
        let mut kb = KnowledgeBase::new();
        kb.load(&script).unwrap();
        kb
    };
    let plain = Session::over(load());
    let mut writer = Session::over(load());
    let snapshot = writer.snapshot().unwrap();
    let maintained = {
        let mut kb = load();
        kb.materialize_maintained().unwrap();
        Session::over(kb)
    };
    let mut queries = Vec::new();
    for (pred, arity) in PREDS
        .iter()
        .skip(2)
        .filter(|(p, _)| load().idb().defines(p))
    {
        // Constants from a row the predicate really has, when it has one,
        // so the bound shapes are not all empty.
        let all = format!("retrieve {pred}({}).", ["X", "Y"][..*arity].join(", "));
        let first = plain.query(Request::statement(all)).unwrap();
        let row = first.as_data().unwrap().rows.first().cloned();
        let constant = |i: usize, fallback: u8| match &row {
            Some(t) => t.values()[i.min(t.arity() - 1)].to_string(),
            None => format!("c{fallback}"),
        };
        let (c, d) = (constant(0, consts.0), constant(1, consts.1));
        for kind in 0..10 {
            queries.push(format!("{}.", goal_shape(kind, pred, *arity, &c, &d)));
        }
    }
    let ask = |path: usize, q: &str, strategy: Strategy| {
        let request = Request::statement(q).strategy(strategy);
        let resp = match path {
            0 => plain.query(request),
            1 => snapshot.query(request),
            _ => maintained.query(request),
        };
        rendered_answer(resp.unwrap_or_else(|e| panic!("{q} under {strategy:?}: {e}")))
    };
    let expected: Vec<String> = queries
        .iter()
        .map(|q| ask(0, q, Strategy::SemiNaive))
        .collect();
    for pass in 0..2 {
        for strategy in Strategy::ALL {
            for (q, want) in queries.iter().zip(&expected) {
                for (path, name) in ["session", "snapshot", "maintained"].iter().enumerate() {
                    assert_eq!(
                        &ask(path, q, strategy),
                        want,
                        "{q} on the {name} path under {strategy:?}, pass {pass}, over {rules:?}"
                    );
                }
            }
        }
    }
    expected
}

/// The extension of `pred` according to a compiled strategy, rendered.
fn strategy_rows(
    edb: &Edb,
    idb: &Idb,
    pred: &str,
    arity: usize,
    strategy: Strategy,
) -> BTreeSet<String> {
    let vars: Vec<&str> = ["X", "Y", "Z"][..arity].to_vec();
    let subject = parse_atom(&format!("{pred}({})", vars.join(", "))).unwrap();
    let answer = query::retrieve(edb, idb, &Retrieve::new(subject, vec![]), strategy).unwrap();
    answer
        .rows
        .iter()
        .map(|row| {
            let vals: Vec<String> = row.values().iter().map(ToString::to_string).collect();
            format!("{pred}({})", vals.join(", "))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random safe programs + random EDBs: all three compiled strategies
    /// derive exactly the facts the substitution-based reference derives.
    #[test]
    fn compiled_strategies_match_reference_semantics(
        specs in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(0u8..10, 2..3),
                proptest::collection::vec(
                    (0u8..5, proptest::collection::vec(0u8..10, 2..3)),
                    1..3,
                ),
            ),
            1..5,
        ),
        e0 in proptest::collection::vec((0u8..5, 0u8..5), 0..10),
        e1 in proptest::collection::vec(0u8..5, 0..5),
    ) {
        let rules: Vec<Rule> = specs
            .iter()
            .map(|(h, ha, body)| build_rule(*h, ha, body))
            .collect();
        let idb = Idb::from_rules(rules.clone()).unwrap();
        let edb = build_edb(&rules, &e0, &e1);

        let edb_facts: Vec<Atom> = e0
            .iter()
            .filter(|_| !idb.defines("e0"))
            .map(|(a, b)| parse_atom(&format!("e0(c{}, c{})", a % 5, b % 5)).unwrap())
            .chain(
                e1.iter()
                    .filter(|_| !idb.defines("e1"))
                    .map(|a| parse_atom(&format!("e1(c{})", a % 5)).unwrap()),
            )
            .collect();
        let reference = reference_eval(&edb_facts, idb.rules());

        for (pred, arity) in PREDS.iter().skip(2) {
            if !idb.defines(pred) {
                continue;
            }
            let expected: BTreeSet<String> = reference
                .iter()
                .filter(|f| f.starts_with(&format!("{pred}(")))
                .cloned()
                .collect();
            for strategy in Strategy::ALL {
                let got = strategy_rows(&edb, &idb, pred, *arity, strategy);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{:?} disagrees with the reference on {} over {:?}",
                    strategy,
                    pred,
                    idb.rules()
                );
            }
        }
    }

    /// `Strategy::Auto` against the engine's naive reference and against
    /// the strategy it resolves to, on random programs with (stratified)
    /// negation, recursion in any direction among the `p*`, and one query
    /// of every goal shape per program. Rows equal the reference's under
    /// every strategy, and `Auto`'s equal its choice's, over one shared
    /// compiled plan: an answer is a set in value order.
    #[test]
    fn auto_matches_the_reference_and_its_own_choice(
        specs in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(0u8..10, 2..3),
                proptest::collection::vec(
                    (0u8..5, proptest::collection::vec(0u8..10, 2..3)),
                    1..3,
                ),
                // 1..=3 negates something; the rest leave the rule positive.
                0u8..10,
            ),
            1..5,
        ),
        e0 in proptest::collection::vec((0u8..5, 0u8..5), 0..10),
        e1 in proptest::collection::vec(0u8..5, 0..5),
        consts in (0u8..5, 0u8..5),
    ) {
        let rules = random_rules(&specs);
        let idb = Idb::from_rules(rules.clone()).unwrap();
        let edb = build_edb(&rules, &e0, &e1);
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let reference = naive::eval(&edb, &idb, &plan).unwrap();
        let run = |q: &Retrieve, strategy: Strategy| {
            retrieve_compiled(&edb, &idb, &plan, q, strategy, EvalOptions::default())
                .unwrap_or_else(|e| panic!("{q} under {strategy:?}: {e}\n{:?}", idb.rules()))
        };
        let rendered = |rows: &[qdk::storage::Tuple]| -> Vec<String> {
            rows.iter().map(ToString::to_string).collect()
        };

        for (pred, arity) in PREDS.iter().skip(2).filter(|(p, _)| idb.defines(p)) {
            // Constants from a fact the predicate really has, when it has
            // one, so the bound shapes are not all empty.
            let fact = reference.relation(pred).and_then(|rel| rel.iter().next());
            let constant = |i: usize, fallback: u8| match fact {
                Some(t) => t.values()[i.min(t.arity() - 1)].to_string(),
                None => format!("c{fallback}"),
            };
            let (c, d) = (constant(0, consts.0), constant(1, consts.1));
            for kind in 0..10 {
                let q = goal_shape(kind, pred, *arity, &c, &d);
                let expected =
                    rendered(&retrieve_precomputed(&edb, &idb, &reference, &q).unwrap().rows);
                for strategy in Strategy::ALL {
                    let got = rendered(&run(&q, strategy).rows);
                    prop_assert_eq!(
                        &got, &expected,
                        "{} under {:?} over {:?}", q, strategy, idb.rules()
                    );
                }
                let auto = run(&q, Strategy::Auto);
                let choice = auto.auto.expect("Auto records its choice");
                prop_assert!(choice != AutoChoice::Maintained);
                prop_assert!(auto.downgrades.is_empty(), "{} chose {}", q, choice);
                // With no evaluator (stored goals only) the path is
                // semi-naive's projection over an empty derived store.
                let pinned = choice.evaluator().unwrap_or(Strategy::SemiNaive);
                prop_assert_eq!(
                    rendered(&auto.rows),
                    rendered(&run(&q, pinned).rows),
                    "{} chose {} over {:?}", q, choice, idb.rules()
                );
            }
        }
    }

    /// Standardizing apart through the compiled slot maps is byte-for-byte
    /// the substitution-based renaming — `describe`'s theorems (whose
    /// rendering depends on fresh-name assignment order) cannot drift.
    #[test]
    fn compiled_rename_matches_substitution_rename(
        specs in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(0u8..10, 2..3),
                proptest::collection::vec(
                    (0u8..5, proptest::collection::vec(0u8..10, 2..3)),
                    1..4,
                ),
            ),
            1..6,
        ),
    ) {
        let mut interner = Interner::new();
        let mut gen_ref = VarGen::new();
        let mut gen_ir = VarGen::new();
        for (h, ha, body) in &specs {
            let rule = build_rule(*h, ha, body);
            let compiled = CompiledRule::compile(&rule, &mut interner);
            let reference = rename_rule_apart(&rule, &mut gen_ref);
            prop_assert_eq!(compiled.rename_apart(&mut gen_ir), reference);
        }
    }

    /// One-level `describe` theorems mirror the textual rules: on random
    /// non-recursive programs with an empty hypothesis, each subject rule
    /// yields one theorem whose body predicates are the rule's own.
    #[test]
    fn one_level_describe_theorems_mirror_rules(
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..10, 2..3),
                proptest::collection::vec(
                    (0u8..2, proptest::collection::vec(0u8..10, 2..3)),
                    1..3,
                ),
            ),
            1..4,
        ),
    ) {
        // Head fixed to p0; bodies restricted to EDB predicates, so the
        // program is trivially non-recursive and every derivation is
        // one-level.
        let rules: Vec<Rule> = specs
            .iter()
            .map(|(ha, body)| build_rule(0, ha, body))
            .collect();
        let idb = Idb::from_rules(rules.clone()).unwrap();
        let q = Describe::new(parse_atom("p0(X, Y)").unwrap(), vec![]);
        let mut opts = DescribeOptions::paper();
        opts.remove_redundant = false;
        let answer = describe::describe(&idb, &q, &opts).unwrap();
        prop_assert_eq!(answer.theorems.len(), rules.len());
        for theorem in &answer.theorems {
            let ri = theorem.root_rule.expect("one-level theorems carry their rule");
            // Theorem bodies drop exact-duplicate conjuncts; mirror that.
            let mut seen_atoms = BTreeSet::new();
            let mut expected: Vec<&str> = rules[ri]
                .body
                .iter()
                .filter(|l| seen_atoms.insert(l.atom.to_string()))
                .map(|l| l.atom.pred.as_str())
                .collect();
            let mut got: Vec<&str> = theorem
                .rule
                .body
                .iter()
                .filter(|l| l.atom.pred.as_str() != "=")
                .map(|l| l.atom.pred.as_str())
                .collect();
            expected.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expected, "theorem {} vs rule {}", theorem.rule, rules[ri]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Answers are sets rendered in value order: on random programs, every
    /// goal shape renders the same bytes under every strategy, through a
    /// session and a snapshot, maintained or not, cold and warm.
    #[test]
    fn every_path_renders_the_same_answer_bytes(
        specs in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(0u8..10, 2..3),
                proptest::collection::vec(
                    (0u8..5, proptest::collection::vec(0u8..10, 2..3)),
                    1..3,
                ),
                0u8..10,
            ),
            1..5,
        ),
        e0 in proptest::collection::vec((0u8..5, 0u8..5), 0..10),
        e1 in proptest::collection::vec(0u8..5, 0..5),
        consts in (0u8..5, 0u8..5),
    ) {
        answers_everywhere(&random_rules(&specs), &e0, &e1, consts);
    }
}

/// The answers of 24 fixed random programs on every path, digested (FNV-1a,
/// no hash order involved). Pinned, so a build that perturbs hash order
/// (`--cfg 'qdk_hash_seed="1"'`, `"2"`) is checked against the default
/// build's bytes; a change that moves an answer on purpose moves this.
#[test]
fn retrieve_answers_match_their_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(47);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..24 {
        let specs: Vec<RuleSpec> = (0..rng.gen_range(1..5))
            .map(|_| {
                let args = |rng: &mut StdRng| (0..2).map(|_| rng.gen_range(0..10)).collect();
                let head_args = args(&mut rng);
                let body = (0..rng.gen_range(1..3))
                    .map(|_| (rng.gen_range(0..5), args(&mut rng)))
                    .collect();
                (rng.gen_range(0..3), head_args, body, rng.gen_range(0..10))
            })
            .collect();
        let e0: Vec<(u8, u8)> = (0..rng.gen_range(0..10))
            .map(|_| (rng.gen_range(0..5), rng.gen_range(0..5)))
            .collect();
        let e1: Vec<u8> = (0..rng.gen_range(0..5))
            .map(|_| rng.gen_range(0..5))
            .collect();
        let consts = (rng.gen_range(0..5), rng.gen_range(0..5));
        for answer in answers_everywhere(&random_rules(&specs), &e0, &e1, consts) {
            for b in answer.bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!(format!("{digest:016x}"), "ea5eb148f64cd902");
}
