//! Cross-strategy agreement: semi-naive, top-down and QSQ evaluation
//! must return identical answers for every `retrieve` query —
//! on the paper's database and on randomized workloads — and so must
//! `Strategy::Auto`, the default, which picks one of them per query. The
//! second half pins what it picks: one test per row of its decision
//! table, the choice on a snapshot, the
//! index probes it spends against each fixed strategy, and that the
//! analysis it decides from is built once per rules generation. The last
//! part pins the QSQ tables: a bound recursive subject is answered once
//! per data epoch, a call that trips leaves its table alone, every change
//! starts empty tables, and snapshot readers share their epoch's.

use proptest::prelude::*;
use qdk::engine::{ProgramPlan, RulePlan};
use qdk::logic::Var;
use qdk::{
    datasets, AutoChoice, CancelToken, KnowledgeBase, Request, ResourceLimits, Response, Session,
    Strategy,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

fn request(subject: &str, qualifier: &str) -> Request {
    let request = Request::subject(subject);
    if qualifier.is_empty() {
        request
    } else {
        request.where_clause(qualifier)
    }
}

fn rows(session: &Session, subject: &str, qualifier: &str, strategy: Strategy) -> Vec<String> {
    let request = request(subject, qualifier).strategy(strategy);
    let a = session.retrieve(request).unwrap().into_data().unwrap();
    a.rows.iter().map(ToString::to_string).collect()
}

fn assert_agree(kb: &qdk::KnowledgeBase, subject: &str, qualifier: &str) {
    let session = Session::over(kb.clone());
    let semi = rows(&session, subject, qualifier, Strategy::SemiNaive);
    let top = rows(&session, subject, qualifier, Strategy::TopDown);
    let qsq = rows(&session, subject, qualifier, Strategy::Qsq);
    let auto = rows(&session, subject, qualifier, Strategy::Auto);
    assert_eq!(
        semi, top,
        "semi-naive vs top-down on {subject} / {qualifier}"
    );
    assert_eq!(semi, qsq, "semi-naive vs qsq on {subject} / {qualifier}");
    assert_eq!(semi, auto, "semi-naive vs auto on {subject} / {qualifier}");
}

#[test]
fn university_queries_agree() {
    let kb = datasets::university_extended();
    for (s, q) in [
        ("honor(X)", ""),
        ("honor(X)", "enroll(X, databases)"),
        ("can_ta(X, Y)", ""),
        ("can_ta(X, databases)", "student(X, math, V), V > 3.7"),
        ("prior(X, Y)", ""),
        ("prior(databases, Y)", ""),
        ("prior(X, programming)", ""),
        ("foreign(X)", ""),
        ("answer(X)", "enroll(X, databases), not honor(X)"),
    ] {
        assert_agree(&kb, s, q);
    }
}

#[test]
fn routing_queries_agree() {
    let kb = datasets::routing(false);
    for (s, q) in [
        ("reachable(X, Y)", ""),
        ("reachable(lax, Y)", ""),
        ("reachable(X, jfk)", ""),
        ("answer(X, Y)", "reachable(X, Y), flight(Y, Z)"),
    ] {
        assert_agree(&kb, s, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized graphs: transitive closure agrees across strategies,
    /// including constant-bound queries, and so do the join-heavy J1
    /// shapes — the unbound 3-cycle self-join and a bound 3-hop path —
    /// and the linear-recursion shapes the QSQ net factors or must not.
    #[test]
    fn random_graphs_agree(
        edges in proptest::collection::vec((0u8..7, 0u8..7), 1..16),
        probe in 0u8..7,
    ) {
        let mut kb = qdk::KnowledgeBase::new();
        kb.load(
            "predicate edge(A, B).\n\
             tc(X, Y) :- edge(X, Y).\n\
             tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
             triangle(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n\
             path3(X, W) :- edge(X, Y), edge(Y, Z), edge(Z, W).\n\
             lc(X, Y) :- edge(X, Y).\n\
             lc(X, Y) :- lc(X, Z), edge(Z, Y).\n\
             nc(X, Y) :- edge(X, Y).\n\
             nc(X, Y) :- nc(X, Z), nc(Z, Y).\n\
             ru(X, Y) :- edge(X, Y).\n\
             ru(X, Y) :- edge(X, Z), edge(Y, Z), ru(Z, Y).\n\
             tw(X, Y) :- edge(X, Y).\n\
             tw(X, Y) :- edge(X, Z), tw(Z, Y).\n\
             tw(X, Y) :- edge(Z, X), edge(Z, W), tw(W, Y).\n\
             kc(X, Y) :- edge(X, Y).\n\
             kc(X, Y) :- edge(X, n0), kc(n0, Y).",
        ).unwrap();
        for (a, b) in &edges {
            kb.run(&format!("edge(n{a}, n{b}).")).unwrap();
        }
        assert_agree(&kb, "tc(X, Y)", "");
        assert_agree(&kb, &format!("tc(n{probe}, Y)"), "");
        assert_agree(&kb, &format!("tc(X, n{probe})"), "");
        assert_agree(&kb, "answer(X)", &format!("tc(X, n{probe}), edge(n{probe}, X)"));
        assert_agree(&kb, "triangle(X, Y, Z)", "");
        assert_agree(&kb, &format!("path3(n{probe}, W)"), "");
        // Linear recursion the net factors or visits persistently, beside
        // shapes it must not factor: left-linear, non-linear, a free
        // variable reused in the body, two recursive rules, and a
        // constant inside the recursive occurrence. Each bound first and
        // bound second.
        for pred in ["lc", "nc", "ru", "tw", "kc"] {
            assert_agree(&kb, &format!("{pred}(n{probe}, Y)"), "");
            assert_agree(&kb, &format!("{pred}(X, n{probe})"), "");
        }
    }

    /// Randomized stratified-negation workloads agree too.
    #[test]
    fn random_negation_agrees(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
        probe in 0u8..6,
    ) {
        let mut kb = qdk::KnowledgeBase::new();
        kb.load(
            "predicate edge(A, B).\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        ).unwrap();
        for (a, b) in &edges {
            kb.run(&format!("edge(n{a}, n{b}).")).unwrap();
        }
        assert_agree(
            &kb,
            "answer(X, Y)",
            &format!("edge(X, Y), not reach(Y, n{probe})"),
        );
    }
}

// ---------------------------------------------------------------------
// `Strategy::Auto`: what it picks, and what that costs.
// ---------------------------------------------------------------------

/// Asks with the session default and a trace, and checks the three places
/// the choice is recorded agree: the response, the trace, and the one
/// `retrieve_auto_*` counter the query bumped.
fn ask(session: &Session, subject: &str, qualifier: &str) -> Response {
    let resp = session
        .retrieve(request(subject, qualifier).with_trace(true))
        .unwrap();
    let choice = resp.auto_choice().expect("the default strategy is Auto");
    let trace = resp.trace().unwrap();
    assert_eq!(trace.auto, Some(choice));
    let bumped: Vec<&str> = trace
        .counters
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| name.starts_with("retrieve_auto_"))
        .collect();
    assert_eq!(bumped, [choice.counter()], "{subject} / {qualifier}");
    resp
}

/// The evaluator spans a trace holds, in order.
fn evaluator_spans(resp: &Response) -> Vec<&'static str> {
    resp.trace()
        .unwrap()
        .spans
        .iter()
        .map(|s| s.name)
        .filter(|n| ["seminaive", "topdown", "qsq"].contains(n))
        .collect()
}

fn university() -> Session {
    Session::over(datasets::university_extended())
}

#[test]
fn auto_is_the_default_strategy() {
    assert_eq!(Strategy::default(), Strategy::Auto);
    assert_eq!(KnowledgeBase::new().strategy(), Strategy::Auto);
    assert_eq!(Session::new().knowledge_base().strategy(), Strategy::Auto);
}

#[test]
fn auto_rule1_live_maintained_store_serves_the_answer() {
    let mut s = university();
    s.batch(|kb| kb.materialize_maintained()).unwrap();
    // Bound and recursive: QSQ's shape, were there no store.
    let resp = ask(&s, "prior(databases, Y)", "");
    assert_eq!(resp.auto_choice(), Some(AutoChoice::Maintained));
    assert_eq!(resp.trace().unwrap().counter("maintained_serve"), Some(1));
    assert!(evaluator_spans(&resp).is_empty());
    assert_eq!(resp.as_data().unwrap().len(), 2);
    // A pinned goal-directed strategy still evaluates.
    let pinned = s
        .retrieve(
            Request::subject("prior(databases, Y)")
                .strategy(Strategy::Qsq)
                .with_trace(true),
        )
        .unwrap();
    assert_eq!(pinned.auto_choice(), None);
    assert_eq!(evaluator_spans(&pinned), ["qsq"]);
}

#[test]
fn auto_rule2_stored_goals_run_no_evaluator() {
    let s = university();
    for (subject, qualifier, rows) in [
        ("student(ann, M, G)", "", 1),
        ("enroll(X, databases)", "", 3),
        ("answer(X)", "enroll(X, databases), student(X, math, G)", 1),
        (
            "answer(X)",
            "enroll(X, databases), not enroll(X, calculus)",
            3,
        ),
    ] {
        let resp = ask(&s, subject, qualifier);
        assert_eq!(resp.auto_choice(), Some(AutoChoice::Edb), "{subject}");
        assert!(evaluator_spans(&resp).is_empty(), "{subject}");
        assert_eq!(resp.as_data().unwrap().len(), rows, "{subject}");
    }
}

#[test]
fn auto_rule3_unbound_goals_run_semi_naive() {
    let s = university();
    for (subject, qualifier) in [
        ("can_ta(X, Y)", ""),
        ("prior(X, Y)", ""),
        ("prior(X, X)", ""),
        // A constant in a comparison is not a constant in a goal.
        ("honor(X)", "X = ann"),
        ("answer(X)", "honor(X), enroll(X, Y)"),
    ] {
        let resp = ask(&s, subject, qualifier);
        assert_eq!(resp.auto_choice(), Some(AutoChoice::Unbound), "{subject}");
        assert_eq!(evaluator_spans(&resp), ["seminaive"], "{subject}");
    }
}

#[test]
fn auto_rule4_bound_non_recursive_goals_run_top_down() {
    let s = university();
    for (subject, qualifier) in [
        ("can_ta(X, databases)", ""),
        ("can_ta(ann, Y)", ""),
        ("honor(ann)", ""),
        ("honor(X)", "enroll(X, databases)"),
        (
            "answer(X)",
            "can_ta(X, databases), student(X, math, V), V > 3.7",
        ),
        ("answer(X)", "enroll(X, databases), not honor(X)"),
    ] {
        let resp = ask(&s, subject, qualifier);
        assert_eq!(
            resp.auto_choice(),
            Some(AutoChoice::NonRecursive),
            "{subject}"
        );
        assert_eq!(evaluator_spans(&resp), ["topdown"], "{subject}");
    }
}

#[test]
fn auto_rule5_bound_recursive_goals_run_qsq() {
    let s = university();
    for (subject, qualifier) in [
        ("prior(databases, Y)", ""),
        ("prior(X, programming)", ""),
        ("prior(databases, programming)", ""),
        ("answer(Y)", "prior(databases, Y), course(Y, 3)"),
    ] {
        let resp = ask(&s, subject, qualifier);
        assert_eq!(resp.auto_choice(), Some(AutoChoice::Recursive), "{subject}");
        assert_eq!(evaluator_spans(&resp), ["qsq"], "{subject}");
        assert!(resp.downgrades().is_empty(), "{subject}");
    }
}

/// Exact-counter guard on bound linear recursion under the net: on a
/// 128-edge chain, the descendants of the node below the top and the
/// ancestors of the bottom each cost at most three derived facts per
/// edge (the factored net derives 254 and the persistent one 128). A net
/// that keeps one answer row per reachable pair derives 8 382 for the
/// first, and one that demands `prior[bb]` per edge 638 for the second.
#[test]
fn bound_linear_recursion_derives_in_proportion_to_the_answer() {
    let mut script = String::from(
        "predicate prereq(C, P).\n\
         prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n",
    );
    for i in 0..128 {
        script.push_str(&format!("prereq(c{}, c{i}).\n", i + 1));
    }
    let mut kb = KnowledgeBase::new();
    kb.load(&script).unwrap();
    let s = Session::over(kb);
    for (subject, rows) in [("prior(c127, Y)", 127), ("prior(X, c0)", 128)] {
        let resp = s
            .retrieve(
                Request::subject(subject)
                    .strategy(Strategy::Qsq)
                    .with_trace(true),
            )
            .unwrap();
        assert_eq!(evaluator_spans(&resp), ["qsq"], "{subject}");
        assert!(resp.downgrades().is_empty(), "{subject}");
        assert_eq!(resp.as_data().unwrap().len(), rows, "{subject}");
        let derived = resp.trace().unwrap().counter("delta_facts").unwrap_or(0);
        assert!(
            derived <= 3 * 128,
            "{subject}: derived {derived} facts for {rows} answers"
        );
    }
}

/// Exact-work guard on the semi-naive round loop every bottom-up
/// fixpoint runs (semi-naive strata, QSQ nets, maintenance propagation).
/// On a 130-edge chain, per query: `rule_firings`, `delta_facts`,
/// `delta_tasks` and the number of `iteration` spans. Then the derived
/// facts one maintained edge insert adds. A change to which tasks a round fires, or in what order,
/// moves one of these.
#[test]
fn fixpoint_work_is_pinned() {
    let mut script = String::from(
        "predicate prereq(C, P).\n\
         prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n",
    );
    for i in 0..130 {
        script.push_str(&format!("prereq(c{}, c{i}).\n", i + 1));
    }
    let mut kb = KnowledgeBase::new();
    kb.load(&script).unwrap();
    let mut s = Session::over(kb);
    let work = |s: &Session, subject: &str, strategy: Strategy| {
        let resp = s
            .retrieve(
                Request::subject(subject)
                    .strategy(strategy)
                    .with_trace(true),
            )
            .unwrap();
        let trace = resp.trace().unwrap();
        let count = |name: &str| trace.counter(name).unwrap_or(0);
        let rounds = trace.spans.iter().filter(|sp| sp.name == "iteration");
        [
            count("rule_firings"),
            count("delta_facts"),
            count("delta_tasks"),
            rounds.count() as u64,
        ]
    };
    for (subject, strategy, expected) in [
        ("prior(X, Y)", Strategy::SemiNaive, [132, 8515, 130, 131]),
        ("prior(c130, Y)", Strategy::Qsq, [262, 260, 260, 131]),
        ("prior(X, c0)", Strategy::Qsq, [132, 130, 130, 131]),
    ] {
        assert_eq!(
            work(&s, subject, strategy),
            expected,
            "{subject} under {strategy:?}"
        );
    }
    // prior(c131, c) for the 131 nodes c0..c130 below the new edge.
    let applied = s
        .apply(qdk::Mutation::new().insert("prereq(c131, c130)"))
        .unwrap();
    assert_eq!(applied.maintenance.derived_added, 131);
}

/// A scan with two bound columns takes the same access path as any
/// other: it probes each bound column and walks the narrowest posting
/// list. On a six-edge graph the triangle rule's closing scan `edge(Z, X)`
/// runs once per two-edge path (10 of them) with both columns bound, so
/// the evaluation spends 6 probes on `edge(Y, Z)` (one per edge) plus
/// 2 × 10 on the closing scan, and indexes both columns of `edge`.
#[test]
fn a_scan_with_two_bound_columns_probes_each_column() {
    let mut kb = KnowledgeBase::new();
    kb.load(
        "predicate edge(From, To).
         tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).
         edge(a, b). edge(b, c). edge(c, a). edge(a, c). edge(c, d). edge(d, a).",
    )
    .unwrap();
    let explain = qdk::engine::ProgramPlan::compile(kb.idb()).explain();
    assert!(
        explain.contains("scan edge(Z, X)  probe on Z, X"),
        "{explain}"
    );
    let s = Session::over(kb);
    let resp = s
        .retrieve(
            Request::subject("tri(X, Y, Z)")
                .strategy(Strategy::SemiNaive)
                .with_trace(true),
        )
        .unwrap();
    assert_eq!(resp.as_data().unwrap().len(), 6);
    let trace = resp.trace().unwrap();
    assert_eq!(trace.counter("index_probes"), Some(26));
    let edge = s.knowledge_base().edb().relation("edge").unwrap();
    assert_eq!(edge.indexed_columns(), vec![0, 1]);
}

#[test]
fn auto_rule6_recursion_with_negation_runs_semi_naive_unannounced() {
    let mut kb = KnowledgeBase::new();
    kb.load(
        "predicate edge(From, To).
         predicate sink(N).
         reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), reach(Z, Y).
         safe(X, Y) :- reach(X, Y), not sink(Y).
         edge(a, b). edge(b, c). edge(c, d). sink(c).",
    )
    .unwrap();
    let s = Session::over(kb);
    for (subject, qualifier, rows) in [
        // Negation in a rule of the slice, and in the goals themselves.
        ("safe(a, Y)", "", 2),
        ("answer(Y)", "reach(a, Y), not sink(Y)", 2),
    ] {
        let resp = ask(&s, subject, qualifier);
        assert_eq!(
            resp.auto_choice(),
            Some(AutoChoice::RecursiveNegation),
            "{subject}"
        );
        assert_eq!(evaluator_spans(&resp), ["seminaive"], "{subject}");
        assert_eq!(resp.as_data().unwrap().len(), rows, "{subject}");
        // Pinning QSQ on this query degrades and says so; the default
        // never went near the net, so it has nothing to announce.
        assert!(resp.downgrades().is_empty(), "{subject}");
        assert!(!resp.to_string().contains("-- note"), "{resp}");
        assert_eq!(resp.trace().unwrap().counter("downgrade"), None);
    }
}

/// A predicate that is only ever *negated* still has to be evaluated
/// before the rule that negates it: the slice follows negated literals.
/// (Cut along positive edges alone, `honor` was never materialised below
/// `ordinary` and every student came back ordinary.)
#[test]
fn a_slice_includes_what_its_rules_negate() {
    let mut kb = KnowledgeBase::new();
    kb.load(
        "predicate student(S, M, G).
         predicate edge(A, B).
         honor(X) :- student(X, Y, Z), Z > 3.7.
         ordinary(X) :- student(X, Y, Z), not honor(X).
         reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), reach(Z, Y).
         apart(X, Y) :- student(X, M, G), student(Y, N, H), not reach(X, Y).
         student(ann, math, 3.9). student(bob, math, 3.5).
         edge(ann, bob).",
    )
    .unwrap();
    for (subject, expected) in [
        ("ordinary(X)", vec!["(bob)"]),
        ("ordinary(bob)", vec!["()"]),
        ("ordinary(ann)", vec![]),
        ("apart(ann, Y)", vec!["(ann)"]),
        ("apart(X, bob)", vec!["(bob)"]),
    ] {
        let session = Session::over(kb.clone());
        for strategy in Strategy::ALL {
            assert_eq!(
                rows(&session, subject, "", strategy),
                expected,
                "{subject} under {strategy:?}"
            );
        }
    }
}

/// The choice, the rows in order and the rendered answer are the same on
/// every ask, and on a snapshot reader after `publish`.
#[test]
fn auto_choice_and_answer_hold_on_every_ask_and_snapshot() {
    let mut s = university();
    let mut reader = s.snapshot().unwrap();
    s.run("prereq(programming, logic).").unwrap();
    s.publish().unwrap();
    assert!(reader.refresh());
    for (subject, qualifier) in [
        ("student(ann, M, G)", ""),
        ("prior(X, Y)", ""),
        ("can_ta(X, databases)", ""),
        ("answer(X)", "enroll(X, databases), not honor(X)"),
        ("prior(databases, Y)", ""),
        ("answer(X, Y)", "prior(X, logic), student(Y, math, G)"),
    ] {
        let outcome = |resp: Response| (resp.auto_choice(), resp.to_string());
        let reference = outcome(s.retrieve(request(subject, qualifier)).unwrap());
        assert!(reference.0.is_some());
        let live = s.retrieve(request(subject, qualifier)).unwrap();
        assert_eq!(outcome(live), reference, "{subject}");
        let snap = reader.retrieve(request(subject, qualifier)).unwrap();
        assert_eq!(outcome(snap), reference, "{subject} on the snapshot");
    }
}

/// A university in the shape of the benchmark's, generated here: students
/// with a major and a GPA, courses with a teacher, three past offerings
/// and prerequisites among the few courses before them, and per student a
/// handful of enrolments and completions.
fn generated_university(students: usize, courses: usize) -> Session {
    let mut rng = StdRng::seed_from_u64(17);
    let mut script = String::from(datasets::UNIVERSITY_SCHEMA);
    let majors = ["math", "physics", "cs"];
    let semesters = ["f86", "f87", "f88"];
    let professors = courses / 3;
    for s in 0..students {
        let gpa = rng.gen_range(300..400) as f64 / 100.0;
        let major = majors[rng.gen_range(0..majors.len())];
        script.push_str(&format!("student(s{s}, {major}, {gpa:.2}).\n"));
        for _ in 0..3 {
            script.push_str(&format!("enroll(s{s}, c{}).\n", rng.gen_range(0..courses)));
        }
        for (i, sem) in semesters.iter().enumerate() {
            // One completion per semester keeps `complete`'s key unique.
            let grade = [2.8, 3.5, 4.0][(s + i) % 3];
            let course = rng.gen_range(0..courses);
            script.push_str(&format!("complete(s{s}, c{course}, {sem}, {grade:.1}).\n"));
        }
    }
    for c in 0..courses {
        let teacher = rng.gen_range(0..professors);
        script.push_str(&format!("teach(p{teacher}, c{c}).\n"));
        for (i, sem) in semesters.iter().enumerate() {
            let by = if i == 0 {
                teacher
            } else {
                rng.gen_range(0..professors)
            };
            script.push_str(&format!("taught(p{by}, c{c}, {sem}, 3.{i}).\n"));
        }
        for p in c.saturating_sub(4)..c {
            if rng.gen_range(0..2) == 0 {
                script.push_str(&format!("prereq(c{c}, c{p}).\n"));
            }
        }
    }
    script.push_str(datasets::UNIVERSITY_RULES);
    let mut session = Session::new();
    session.load(&script).unwrap();
    session
}

/// Deterministic cost guard on the benchmark's seven read classes, in
/// the two counts the engine keeps exactly (they depend on the data and
/// the plans only, so this holds or fails the same way on every run):
///
/// * the default strategy probes the stored relations and writes derived
///   facts exactly as often as the strategy it resolved to does when
///   pinned — choosing reads no data and evaluates nothing twice;
/// * it never materialises more derived facts than semi-naive, the
///   default it replaced (top-down materialises none on these classes,
///   the net only what the constants demand).
///
/// Index probes are not compared across strategies: a scan with nothing
/// bound bumps no counter, so a strategy that reads `student` in full
/// looks cheaper by probes than one that probes it 30 times.
#[test]
fn auto_costs_what_its_choice_costs_and_materialises_no_more_than_semi_naive() {
    let s = generated_university(200, 30);
    // (index probes of stored relations, facts derived, response), on a
    // fresh session each time: one session answers a repeated bound
    // recursive subject from its QSQ table, and cold is what's compared.
    let cost = |subject: &str, qualifier: &str, strategy: Strategy| {
        let s = generated_university(200, 30);
        let edb = s.knowledge_base().edb();
        let before = edb.access_stats().0;
        let resp = s
            .retrieve(
                request(subject, qualifier)
                    .strategy(strategy)
                    .with_trace(true),
            )
            .unwrap();
        let probes = edb.access_stats().0 - before;
        let derived = resp.trace().unwrap().counter("delta_facts").unwrap_or(0);
        (probes, derived, resp)
    };
    // Someone who can assist in c7, so the by-student class has answers.
    let assistant = rows(&s, "can_ta(X, c7)", "", Strategy::SemiNaive)[0]
        .trim_matches(['(', ')'])
        .to_string();
    let by_student = format!("can_ta({assistant}, Y)");
    for (class, subject, qualifier) in [
        ("point", "student(s17, M, G)", ""),
        ("e1_join", "honor(X)", "enroll(X, c7)"),
        ("can_ta_course", "can_ta(X, c7)", ""),
        ("can_ta_student", by_student.as_str(), ""),
        // From and to the middle of the prerequisite graph. (From its top
        // everything is demanded, and the net pays its bookkeeping on top
        // of the whole closure.)
        ("prior_down", "prior(c15, Y)", ""),
        ("prior_up", "prior(X, c15)", ""),
        (
            "e2_answer",
            "answer(X)",
            "can_ta(X, c7), student(X, math, V), V > 3.7",
        ),
    ] {
        let (probes, derived, resp) = cost(subject, qualifier, Strategy::Auto);
        assert!(!resp.as_data().unwrap().is_empty(), "{class}: no answers");
        let (_, semi, _) = cost(subject, qualifier, Strategy::SemiNaive);
        assert!(
            derived <= semi,
            "{class}: auto derived {derived} facts, semi-naive {semi}"
        );
        if let Some(chosen) = resp.auto_choice().unwrap().evaluator() {
            let (pinned_probes, pinned_derived, _) = cost(subject, qualifier, chosen);
            assert_eq!(
                (probes, derived),
                (pinned_probes, pinned_derived),
                "{class}: auto against pinned {chosen:?}"
            );
        }
    }
}

/// The cost model divides a stored relation's cardinality by the distinct
/// values of each bound column. On a university of 1 000 students and 100
/// courses, `can_ta(sK, Y)`'s first rule, called with the student bound,
/// therefore scans the student's three `complete` rows first (3 000 rows
/// over about 1 000 students) and probes `teach` on each. The
/// ¼-per-bound-column guess priced that scan at 750 rows, more than all
/// 100 of `teach`, so it scanned every teacher and probed `complete` once
/// per teacher: 519 index probes under either strategy, against 13 now.
#[test]
fn can_ta_by_student_probes_the_students_completions_first() {
    let s = generated_university(1_000, 100);
    let kb = s.knowledge_base();
    let plan = ProgramPlan::compile_with_stats(kb.idb(), kb.edb().stats());
    let rule = plan
        .plans()
        .iter()
        .find(|p| p.rule_str.contains("teach("))
        .expect("can_ta's first rule");
    let mut bound = vec![false; rule.compiled.num_slots()];
    let x = rule.compiled.slot_of(&Var::new("X")).expect("the head's X");
    bound[x as usize] = true;
    let call = RulePlan::with_bound(
        rule.compiled.clone(),
        rule.rule_str.clone(),
        bound,
        plan.stats(),
    )
    .explain();
    let scan = |pred: &str| call.find(&format!("scan {pred}(")).expect(pred);
    assert!(scan("complete") < scan("teach"), "{call}");

    let student = rows(&s, "can_ta(X, c7)", "", Strategy::SemiNaive)[0]
        .trim_matches(['(', ')'])
        .to_string();
    let subject = format!("can_ta({student}, Y)");
    for strategy in [Strategy::TopDown, Strategy::Auto] {
        let before = kb.edb().access_stats().0;
        let answer = s
            .retrieve(Request::subject(&subject).strategy(strategy))
            .unwrap();
        assert!(!answer.as_data().unwrap().is_empty());
        let probes = kb.edb().access_stats().0 - before;
        assert_eq!(probes, 13, "{subject} under {strategy:?}");
    }
}

/// The analysis `Auto`, semi-naive and top-down read — dependency graph,
/// strata, slice properties — belongs to the compiled plan: built by the
/// first retrieve of a rules generation, never again until a rule
/// changes.
#[test]
fn rules_are_analysed_once_per_generation() {
    let mut s = university();
    s.enable_metrics();
    let builds = |s: &Session| {
        s.metrics_snapshot()
            .unwrap()
            .counter("plan_analysis_build")
            .unwrap_or(0)
    };
    assert_eq!(builds(&s), 0);
    s.retrieve(Request::subject("prior(databases, Y)")).unwrap();
    assert_eq!(builds(&s), 1);
    let subjects = ["prior(databases, Y)", "can_ta(X, databases)", "honor(X)"];
    for i in 0..50 {
        let strategy = Strategy::ALL[i % 4];
        s.retrieve(Request::subject(subjects[i % 3]).strategy(strategy))
            .unwrap();
    }
    // Facts come and go without touching it.
    s.run("prereq(programming, logic).").unwrap();
    s.retrieve(Request::subject("prior(databases, Y)")).unwrap();
    assert_eq!(builds(&s), 1);
    s.run("senior(X) :- prior(X, logic).").unwrap();
    for _ in 0..3 {
        s.retrieve(Request::subject("senior(X)")).unwrap();
    }
    assert_eq!(builds(&s), 2);
    // Maintenance reads the same analysis: a rule change on a maintained
    // session builds the next generation's once, and maintaining an
    // insert and a retract, then serving a retrieve, builds nothing.
    s.apply(qdk::Mutation::new().rule("junior(X) :- prior(logic, X)"))
        .unwrap();
    assert_eq!(builds(&s), 3);
    s.apply(qdk::Mutation::new().insert("prereq(logic, sets)"))
        .unwrap();
    s.apply(qdk::Mutation::new().retract("prereq(programming, logic)"))
        .unwrap();
    s.retrieve(Request::subject("junior(X)")).unwrap();
    assert_eq!(builds(&s), 3);
    assert!(s.knowledge_base().is_maintained());
}

/// A program with no stratification says so under every strategy, in the
/// words it always used — the analysis keeps the verdict, it does not
/// move where it is raised — and names the same predicate every time: the
/// head of the first rule whose negated literal closes a cycle, however
/// the process seeds its hash maps.
#[test]
fn unstratified_programs_fail_the_same_under_every_strategy() {
    for _ in 0..40 {
        let mut kb = KnowledgeBase::new();
        kb.load(
            "predicate edge(A, B).
             win(X) :- move(X, Y), not win(Y).
             move(X, Y) :- edge(X, Y), win(X).
             edge(a, b).",
        )
        .unwrap();
        let s = Session::over(kb);
        for subject in ["win(X)", "win(a)"] {
            for strategy in Strategy::ALL {
                let err = s
                    .retrieve(Request::subject(subject).strategy(strategy))
                    .expect_err("not stratified");
                assert_eq!(
                    err.to_string(),
                    "program is not stratified: win depends on itself through negation",
                    "{subject} under {strategy:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// QSQ tables: a bound recursive subject is answered once per data epoch.
// ---------------------------------------------------------------------

/// `prior` over a 130-edge prerequisite chain c130 → c129 → … → c0.
fn prior_chain() -> Session {
    let mut script = String::from(
        "predicate prereq(C, P).\n\
         prior(X, Y) :- prereq(X, Y).\n\
         prior(X, Y) :- prereq(X, Z), prior(Z, Y).\n",
    );
    for i in 0..130 {
        script.push_str(&format!("prereq(c{}, c{i}).\n", i + 1));
    }
    let mut s = Session::new();
    s.load(&script).unwrap();
    s
}

/// A traced QSQ retrieve of `subject`.
fn qsq(subject: &str) -> Request {
    Request::subject(subject)
        .strategy(Strategy::Qsq)
        .with_trace(true)
}

/// What a traced retrieve spent: rule firings, facts derived, index
/// probes, and whether the epoch's table answered it.
fn work(resp: &Response) -> [u64; 4] {
    let trace = resp.trace().unwrap();
    let count = |name: &str| trace.counter(name).unwrap_or(0);
    [
        count("rule_firings"),
        count("delta_facts"),
        count("index_probes"),
        count("qsq_table_hit"),
    ]
}

/// The gauged size of a session's QSQ tables: (rows, nets).
fn table_size(s: &mut Session) -> (u64, u64) {
    if s.metrics_hub().is_none() {
        s.enable_metrics();
    }
    let snap = s.metrics_snapshot().unwrap();
    let gauge = |name: &str| snap.gauge(name).unwrap();
    (gauge("qsq_table_rows"), gauge("qsq_table_nets"))
}

#[test]
fn a_repeated_bound_recursive_call_is_answered_from_the_epoch_table() {
    let mut s = prior_chain();
    assert_eq!(table_size(&mut s), (0, 0));
    // The factored net of `prior[bf]` (one table per seed) and the plain
    // net of `prior[fb]` (one table for every seed).
    for subject in ["prior(c100, Y)", "prior(X, c30)"] {
        let first = s.retrieve(qsq(subject)).unwrap();
        let again = s.retrieve(qsq(subject)).unwrap();
        assert_eq!(first.to_string(), again.to_string(), "{subject}");
        let [fired, derived, probes, hit] = work(&first);
        assert!(
            fired > 0 && derived > 0 && hit == 0,
            "{subject}: {:?}",
            work(&first)
        );
        let [fired, derived, again_probes, hit] = work(&again);
        assert_eq!((fired, derived, hit), (0, 0, 1), "{subject}");
        assert!(
            again_probes < probes,
            "{subject}: {again_probes} >= {probes}"
        );
    }
    let (rows, nets) = table_size(&mut s);
    assert_eq!(nets, 2);
    assert!(rows > 0);
    // A new seed of the plain net extends its table and answers as a cold
    // table would; the old seed still hits, and `Auto` reads the same table.
    let cold = prior_chain().retrieve(qsq("prior(X, c20)")).unwrap();
    let warm = s.retrieve(qsq("prior(X, c20)")).unwrap();
    assert_eq!(warm.to_string(), cold.to_string());
    assert_eq!(work(&warm)[3], 0);
    assert_eq!(
        table_size(&mut s).1,
        2,
        "one table for every seed of prior[fb]"
    );
    assert_eq!(work(&s.retrieve(qsq("prior(X, c30)")).unwrap())[3], 1);
    let auto = Request::subject("prior(c100, Y)").with_trace(true);
    assert_eq!(work(&s.retrieve(auto).unwrap()), [0, 0, 0, 1]);
}

#[test]
fn a_tripped_or_cancelled_call_leaves_the_table_as_it_was() {
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let tripping = |subject: &str| {
        [
            qsq(subject).limits(ResourceLimits::default().with_deadline(Duration::ZERO)),
            qsq(subject).cancel(cancelled.clone()),
            // Trips mid-fixpoint, after the fork has grown.
            qsq(subject).limits(ResourceLimits::default().with_work_budget(40)),
        ]
    };
    // A cold table, and a table an earlier seed warmed, for both nets.
    for (warmed_by, subject) in [
        (None, "prior(c100, Y)"),
        (None, "prior(X, c20)"),
        (Some("prior(c90, Y)"), "prior(c100, Y)"),
        (Some("prior(X, c30)"), "prior(X, c20)"),
    ] {
        let warm = |s: &Session| {
            if let Some(w) = warmed_by {
                s.retrieve(qsq(w)).unwrap();
            }
        };
        let reference = prior_chain();
        warm(&reference);
        let expected = reference.retrieve(qsq(subject)).unwrap();
        let s = prior_chain();
        warm(&s);
        for request in tripping(subject) {
            let err = s.retrieve(request).unwrap_err();
            assert!(
                matches!(
                    err,
                    qdk::LangError::Engine(qdk::engine::EngineError::Exhausted(_))
                ),
                "{subject}: {err}"
            );
        }
        let got = s.retrieve(qsq(subject)).unwrap();
        assert_eq!(got.to_string(), expected.to_string(), "{subject}");
        assert_eq!(work(&got), work(&expected), "{subject} after {warmed_by:?}");
    }
}

#[test]
fn every_fact_or_rule_change_starts_an_empty_table() {
    for change in [
        "prereq(c0, cz).",
        "retract prereq(c50, c49).",
        "prior(X, Y) :- prereq(Y, X).",
    ] {
        let mut s = prior_chain();
        let before = s.retrieve(qsq("prior(c100, Y)")).unwrap();
        assert_eq!(table_size(&mut s).1, 1);
        s.run(change).unwrap();
        assert_eq!(table_size(&mut s), (0, 0), "{change}");
        let after = s.retrieve(qsq("prior(c100, Y)")).unwrap();
        assert_eq!(work(&after)[3], 0, "{change}");
        assert_ne!(after.to_string(), before.to_string(), "{change}");
        let mut fresh = prior_chain();
        fresh.run(change).unwrap();
        let expected = fresh.retrieve(qsq("prior(c100, Y)")).unwrap();
        assert_eq!(after.to_string(), expected.to_string(), "{change}");
    }
}

#[test]
fn snapshot_clones_share_their_epochs_table() {
    let mut s = prior_chain();
    let a = s.snapshot().unwrap();
    let b = a.clone();
    assert_eq!(work(&a.retrieve(qsq("prior(c100, Y)")).unwrap())[3], 0);
    assert_eq!(work(&b.retrieve(qsq("prior(c100, Y)")).unwrap())[3], 1);
    // The writer that published the epoch shares it until it changes.
    assert_eq!(work(&s.retrieve(qsq("prior(c100, Y)")).unwrap())[3], 1);
    s.run("prereq(c0, cz).").unwrap();
    let next = s.snapshot().unwrap();
    let answer = next.retrieve(qsq("prior(c100, Y)")).unwrap();
    assert_eq!(work(&answer)[3], 0, "the next epoch starts empty");
    assert!(answer.as_data().unwrap().contains_row(&["cz"]));
    // The pinned epoch keeps its own.
    let old = b.retrieve(qsq("prior(c100, Y)")).unwrap();
    assert_eq!(work(&old)[3], 1);
    assert!(!old.as_data().unwrap().contains_row(&["cz"]));
}
