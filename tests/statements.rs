//! One matrix over every read statement kind. Since every read statement
//! goes through one `serve`, every kind owes the same four properties —
//! it is governed and cancellable, it yields a `QueryTrace`, it renders
//! the same bytes from every entry point, and
//! a statement that would change the knowledge base is never executed by
//! a read-only call — on a live `Session` and on a frozen
//! `SnapshotSession` alike.

use qdk::lang::ast::Statement;
use qdk::lang::parser::parse_statement;
use qdk::{
    datasets, Answer, CancelToken, DescribeOptions, Error, KnowledgeBase, Request, Resource,
    ResourceLimits, Response, Session, SnapshotSession, TransformPolicy,
};
use std::time::{Duration, Instant};

/// One read `Statement` variant: a text over `university_extended()`, a
/// text over Example 8's program (§5.1), and whether the latter has no
/// end of its own there — only a limit stops it.
struct Kind {
    name: &'static str,
    university: &'static str,
    example8: &'static str,
    diverges: bool,
}

const KINDS: [Kind; 10] = [
    Kind {
        name: "Retrieve",
        university: "retrieve can_ta(X, databases) where student(X, math, V) and V > 3.7.",
        example8: "retrieve p(X, Y).",
        diverges: false,
    },
    Kind {
        name: "Describe",
        university: "describe can_ta(X, Y) where honor(X) and teach(susan, Y).",
        example8: "describe p(X, Y) where r(a, Y).",
        diverges: true,
    },
    Kind {
        name: "Explain",
        university: "explain prior(X, Y) where prior(databases, Y).",
        example8: "explain p(X, Y) where r(a, Y).",
        diverges: true,
    },
    Kind {
        name: "DescribeNecessary",
        university: "describe can_ta(X, Y) where necessary honor(X).",
        example8: "describe p(X, Y) where necessary r(a, Y).",
        diverges: true,
    },
    Kind {
        name: "DescribeDisjunctive",
        university: "describe honor(X) where student(X, math, V) and V > 3.8 \
                     or student(X, M, W) and W > 3.9.",
        example8: "describe p(X, Y) where r(a, Y) or s(a, Y).",
        diverges: true,
    },
    Kind {
        name: "DescribeWithout",
        university: "describe can_ta(X, Y) where not honor(X).",
        example8: "describe p(X, Y) where not s(X, Y).",
        diverges: false,
    },
    Kind {
        name: "DescribePossible",
        university: "describe where foreign(X) and unmarried(X).",
        example8: "describe where p(X, Y) and r(Y, Z).",
        diverges: false,
    },
    Kind {
        name: "DescribeWildcard",
        university: "describe * where honor(X).",
        example8: "describe * where r(a, Y).",
        diverges: true,
    },
    Kind {
        name: "Compare",
        university: "compare (describe honor(X)) with (describe deans_list(X)).",
        example8: "compare (describe p(X, Y)) with (describe q(X, Y)).",
        diverges: false,
    },
    Kind {
        name: "Show",
        university: "show rules.",
        example8: "show rules.",
        diverges: false,
    },
];

/// The table names each variant once, under the variant's own name.
#[test]
fn the_table_covers_every_read_statement_variant() {
    for kind in &KINDS {
        for text in [kind.university, kind.example8] {
            let stmt = parse_statement(text).unwrap();
            assert!(stmt.is_read(), "{text}");
            let variant = format!("{stmt:?}");
            assert!(
                variant.starts_with(&format!("{}(", kind.name))
                    || variant.starts_with(&format!("{} {{", kind.name)),
                "{text} parsed as {variant}"
            );
        }
    }
    // Exhaustive on purpose: a new read variant fails to compile here
    // until it has a row above.
    let rows = |stmt: &Statement| match stmt {
        Statement::Retrieve(_)
        | Statement::Describe(_)
        | Statement::Explain(_)
        | Statement::DescribeNecessary(_)
        | Statement::DescribeDisjunctive { .. }
        | Statement::DescribeWithout { .. }
        | Statement::DescribePossible { .. }
        | Statement::DescribeWildcard { .. }
        | Statement::Compare { .. }
        | Statement::Show(_) => 1,
        Statement::Declare { .. }
        | Statement::Clause(_)
        | Statement::Constraint(_)
        | Statement::Retract(_) => 0,
    };
    let covered: usize = KINDS
        .iter()
        .map(|k| rows(&parse_statement(k.university).unwrap()))
        .sum();
    assert_eq!(covered, KINDS.len());
}

/// Asks `request` of the live session or of the snapshot.
type Ask<'a> = Box<dyn Fn(Request) -> qdk::Result<Response> + 'a>;

/// The two read handles over one knowledge base, each as an `Ask`.
fn handles(kb: KnowledgeBase) -> (Session, SnapshotSession) {
    let mut session = Session::over(kb);
    let snapshot = session.snapshot().unwrap();
    (session, snapshot)
}

fn asks<'a>(session: &'a Session, snapshot: &'a SnapshotSession) -> [(&'static str, Ask<'a>); 2] {
    [
        ("session", Box::new(|r| session.query(r))),
        ("snapshot", Box::new(|r| snapshot.query(r))),
    ]
}

/// Example 8's program, enumerated untransformed (Algorithm 1), which is
/// what makes its recursive subjects diverge.
fn example8() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new()
        .with_describe_options(DescribeOptions::paper().with_transform(TransformPolicy::None));
    kb.load(
        "predicate r(From, To).\n\
         predicate s(From, To).\n\
         p(X, Y) :- q(X, Z), r(Z, Y).\n\
         q(X, Y) :- q(X, Z), s(Z, Y).\n\
         q(X, Y) :- r(X, Y).\n\
         r(a, b). r(b, c). s(b, c). s(c, d).",
    )
    .unwrap();
    kb
}

/// The resource whose limit cut `result` short: from the answer's
/// completeness tag (of any subject, for a wildcard) or from an
/// `Exhausted` error. `None` for a complete answer, and for an `explain`,
/// whose answer is text.
fn cut_short(result: &qdk::Result<Response>) -> Option<Resource> {
    let tag = |k: &qdk::DescribeAnswer| k.completeness.exhausted().map(|e| e.resource);
    match result {
        Err(e) => Some(e.exhausted().unwrap_or_else(|| panic!("{e}")).resource),
        Ok(response) => match response.answer() {
            Answer::Knowledge(k) => tag(k),
            Answer::Wildcard(entries) => entries.iter().find_map(|(_, k)| tag(k)),
            _ => None,
        },
    }
}

#[test]
fn every_kind_is_governed_and_cancellable() {
    let (session, snapshot) = handles(example8());
    for (handle, ask) in asks(&session, &snapshot) {
        for kind in &KINDS {
            let what = format!("{} on the {handle}", kind.name);
            // A 50 ms deadline ends a statement with no end of its own,
            // promptly, and the answer or the error says so.
            let limits = ResourceLimits::default().with_deadline(Duration::from_millis(50));
            let started = Instant::now();
            let result = ask(Request::statement(kind.example8).limits(limits));
            assert!(started.elapsed() < Duration::from_secs(1), "{what}");
            if kind.name == "Explain" && kind.diverges {
                let text = result.unwrap().to_string();
                assert!(text.contains("truncat"), "{what}: {text}");
            } else if kind.diverges {
                let resource = cut_short(&result).unwrap_or_else(|| panic!("{what}: complete"));
                assert!(
                    matches!(resource, Resource::Deadline | Resource::Depth),
                    "{what}: {resource:?}"
                );
            } else {
                assert_eq!(result.as_ref().err(), None, "{what}");
            }

            // A token cancelled before the call stops every kind.
            let token = CancelToken::new();
            token.cancel();
            let result = ask(Request::statement(kind.example8).cancel(token));
            if kind.name == "Explain" {
                let text = result.unwrap().to_string();
                assert!(text.contains("cancelled"), "{what}: {text}");
            } else {
                assert_eq!(cut_short(&result), Some(Resource::Cancelled), "{what}");
            }
        }
    }
}

/// No rule reaches `professor`, so `describe *` describes no concept
/// under this hypothesis — yet a cancelled request is still reported as
/// cut short, not answered "nothing follows".
#[test]
fn a_cancelled_wildcard_no_concept_can_use_is_reported_cancelled() {
    let statement = "describe * where professor(X, cs, T).";
    let (session, snapshot) = handles(datasets::university_extended());
    for (handle, ask) in asks(&session, &snapshot) {
        assert_eq!(
            ask(Request::statement(statement)).unwrap().to_string(),
            "",
            "{handle}"
        );
        let token = CancelToken::new();
        token.cancel();
        let result = ask(Request::statement(statement).cancel(token));
        assert_eq!(cut_short(&result), Some(Resource::Cancelled), "{handle}");
    }
}

#[test]
fn every_kind_yields_a_trace() {
    let (session, snapshot) = handles(datasets::university_extended());
    for (handle, ask) in asks(&session, &snapshot) {
        for kind in &KINDS {
            let what = format!("{} on the {handle}", kind.name);
            let response = ask(Request::statement(kind.university).with_trace(true)).unwrap();
            let trace = response
                .trace()
                .unwrap_or_else(|| panic!("{what}: no trace"));
            // The statement the trace names is the statement asked.
            assert_eq!(
                parse_statement(&trace.statement).unwrap(),
                parse_statement(kind.university).unwrap(),
                "{what}"
            );
            // The stages tile the wall time: parse, then (for a live
            // retrieve) plan, then execute; together they leave out a
            // tenth of the wall at most — or, for a statement of a few
            // microseconds, the truncation of each stage to whole ones.
            let stages: Vec<&str> = trace.stages().map(|s| s.name).collect();
            let expected: &[&str] = match (kind.name, handle) {
                ("Retrieve", "session") => &["parse", "plan", "execute"],
                _ => &["parse", "execute"],
            };
            assert_eq!(stages, expected, "{what}");
            let wall = trace.wall_micros;
            let sum: u64 = trace.stages().map(|s| s.micros).sum();
            assert!(sum <= wall, "{what}: {trace}");
            assert!(wall - sum <= (wall / 10).max(100), "{what}: {trace}");
            // Without the flag there is no trace.
            let plain = ask(Request::statement(kind.university)).unwrap();
            assert!(plain.trace().is_none(), "{what}");
        }
    }
}

#[test]
fn every_kind_renders_the_same_bytes_everywhere() {
    let (mut session, snapshot) = handles(datasets::university_extended());
    for kind in &KINDS {
        let reference = session.run(kind.university).unwrap().to_string();
        assert!(!reference.is_empty(), "{}", kind.name);
        for (handle, ask) in asks(&session, &snapshot) {
            assert_eq!(
                ask(Request::statement(kind.university))
                    .unwrap()
                    .to_string(),
                reference,
                "{} on the {handle}",
                kind.name
            );
        }
    }
}

#[test]
fn a_statement_that_mutates_is_refused_unexecuted() {
    let (session, snapshot) = handles(datasets::university_extended());
    let before = session.knowledge_base().dump();
    for (handle, ask) in asks(&session, &snapshot) {
        for text in [
            "predicate lab(Name).",
            "student(zed, math, 4.0).",
            "star(X) :- student(X, M, G), G > 3.8.",
            ":- honor(X), foreign(X).",
            "retract student(ann, math, 3.9).",
        ] {
            let err = ask(Request::statement(text)).expect_err(text);
            assert!(matches!(err, Error::ReadOnly(_)), "{handle}: {err:?}");
            let named = parse_statement(text).unwrap().to_string();
            assert!(err.to_string().ends_with(&named), "{handle}: {err}");
        }
    }
    assert_eq!(session.knowledge_base().dump(), before);
    assert_eq!(snapshot.knowledge_base().dump(), before);
    // Parts without a keyword are not a statement either.
    let err = session.query(Request::subject("honor(X)")).unwrap_err();
    assert!(matches!(err, Error::Parse(_)), "{err:?}");
}
