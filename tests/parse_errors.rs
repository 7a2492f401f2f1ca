//! Parse-error goldens: for malformed scripts, statements, programs,
//! rules, atoms, bodies and terms, the exact message, line and column
//! every entry point reports. Lexical errors are reported before any
//! grammar error, wherever they occur in the input, and an error at the
//! end of the input points at the last token.

use qdk::lang::parser::{parse_script, parse_statement};
use qdk::logic::parser::{parse_atom, parse_body, parse_program, parse_rule, parse_term};
use qdk::logic::ParseError;
use qdk::LangError;

/// The parse error `entry` reports for `src`; panics if it parses.
fn run(entry: &str, src: &str) -> ParseError {
    let lang = |r: Result<(), LangError>| match r {
        Err(LangError::Parse(e)) => e,
        other => panic!("{entry} {src:?}: expected a parse error, got {other:?}"),
    };
    let logic = |r: Result<(), ParseError>| match r {
        Err(e) => e,
        Ok(()) => panic!("{entry} {src:?}: parsed"),
    };
    match entry {
        "script" => lang(parse_script(src).map(drop)),
        "statement" => lang(parse_statement(src).map(drop)),
        "program" => logic(parse_program(src).map(drop)),
        "rule" => logic(parse_rule(src).map(drop)),
        "atom" => logic(parse_atom(src).map(drop)),
        "body" => logic(parse_body(src).map(drop)),
        "term" => logic(parse_term(src).map(drop)),
        _ => unreachable!(),
    }
}

/// (entry point, input, message, line, column).
const GOLDENS: &[(&str, &str, &str, usize, usize)] = &[
    ("script", "p(a) q(b). @", "unexpected character '@'", 1, 12),
    ("script", "p(a", "expected ')', found end of input", 1, 3),
    ("statement", "p(a", "expected ')', found end of input", 1, 3),
    (
        "statement",
        "retrieve p(X) where",
        "expected atom, found None",
        1,
        15,
    ),
    (
        "script",
        "retrieve p(X) where",
        "expected atom, found None",
        1,
        15,
    ),
    (
        "statement",
        "retrieve p(X) where q(X) r(X).",
        "expected '.', found Ident(\"r\")",
        1,
        26,
    ),
    (
        "script",
        "p(X) :- q(X) r(X).",
        "expected '.', found Ident(\"r\")",
        1,
        14,
    ),
    (
        "script",
        "p(a).\nq(b) :-\n  r(X)",
        "expected '.', found end of input",
        3,
        6,
    ),
    ("program", "p(X)", "expected '.', found end of input", 1, 4),
    ("script", "p(\"abc", "unterminated string", 1, 7),
    ("script", "p(\"a\\q\").", "bad escape in string", 1, 7),
    ("script", "p(a) : q.", "expected '-' after ':'", 1, 7),
    ("body", "X ! Y", "expected '=' after '!'", 1, 4),
    (
        "rule",
        "p(_x).",
        "identifiers may not begin with '_': _x",
        1,
        3,
    ),
    (
        "script",
        "p(99999999999999999999).",
        "bad integer 99999999999999999999: number too large to fit in target type",
        1,
        23,
    ),
    (
        "script",
        "% comment\n\tp(a) q(b).",
        "expected '.', found Ident(\"q\")",
        2,
        7,
    ),
    (
        "statement",
        "describe * honor(X).",
        "expected 'where' after '*'",
        1,
        12,
    ),
    (
        "statement",
        "show stuff.",
        "expected 'predicates', 'rules' or 'constraints'",
        1,
        6,
    ),
    (
        "statement",
        "predicate p(A) key 2.",
        "key length 2 out of range for arity 1",
        1,
        21,
    ),
    (
        "statement",
        "predicate p A.",
        "expected '(' after predicate name",
        1,
        13,
    ),
    (
        "statement",
        "predicate p(A) key x.",
        "expected integer, found Some(Ident(\"x\"))",
        1,
        21,
    ),
    (
        "statement",
        "predicate p(A, 3).",
        "expected name, found Some(Int(3))",
        1,
        17,
    ),
    (
        "statement",
        "compare (describe p(X)) (describe q(X)).",
        "expected 'with'",
        1,
        25,
    ),
    ("statement", "compare describe p(X).", "expected '('", 1, 9),
    (
        "statement",
        "describe honor(X). extra",
        "trailing input after statement",
        1,
        20,
    ),
    (
        "statement",
        "describe where not honor(X).",
        "hypothesis must be positive, found: not honor(X)",
        1,
        1,
    ),
    (
        "statement",
        "X > 3 :- p(X).",
        "a comparison cannot be the head of a rule",
        1,
        7,
    ),
    (
        "statement",
        ":- p(X), not q(X).",
        "negative literal in integrity constraint",
        1,
        1,
    ),
    (
        "program",
        ":- p(X), not q(X).",
        "negative literal in integrity constraint",
        1,
        18,
    ),
    (
        "rule",
        ":- p(X).",
        "expected a rule, found constraint",
        1,
        1,
    ),
    ("rule", "p(a). q(b).", "trailing input after rule", 1, 7),
    (
        "rule",
        "X > 3 :- p(X).",
        "a comparison cannot be the head of a rule",
        1,
        7,
    ),
    ("script", "honor(X :- p.", "expected ')', found If", 1, 9),
    ("atom", "p(a) extra", "trailing input after atom", 1, 6),
    (
        "atom",
        "(X 3)",
        "expected comparison operator, found Some(Int(3))",
        1,
        5,
    ),
    ("atom", "(X > 3", "expected ')', found end of input", 1, 6),
    (
        "atom",
        "X 3",
        "expected comparison operator, found Some(Int(3))",
        1,
        3,
    ),
    ("atom", ", p", "expected atom, found Some(Comma)", 1, 1),
    ("term", "X Y", "trailing input after term", 1, 3),
    ("term", "", "expected term, found end of input", 1, 1),
    ("term", "(", "expected term, found LParen", 1, 1),
    ("body", "p(X),", "expected atom, found None", 1, 5),
    ("body", "p(X) q", "trailing input after formula", 1, 6),
    (
        "script",
        "describe honor(X) where p(X) or",
        "expected atom, found None",
        1,
        30,
    ),
    (
        "script",
        "p(a).\n\n   q(b) r",
        "expected '.', found Ident(\"r\")",
        3,
        9,
    ),
    ("script", "p(a). -", "unexpected character '-'", 1, 7),
    ("term", "-", "unexpected character '-'", 1, 1),
    (
        "script",
        "p(a) q(b).\nr(\"open",
        "unterminated string",
        2,
        8,
    ),
    (
        "statement",
        "retrieve p(X) where q(X) and",
        "expected atom, found None",
        1,
        26,
    ),
    (
        "script",
        "p(a). q(b) :- r(X), ~",
        "unexpected character '~'",
        1,
        21,
    ),
    ("program", "p(1.5.2).", "expected ')', found Period", 1, 6),
];

#[test]
fn every_entry_point_reports_the_golden_error() {
    let mut wrong = Vec::new();
    for &(entry, src, message, line, column) in GOLDENS {
        let e = run(entry, src);
        if (e.message.as_str(), e.line, e.column) != (message, line, column) {
            wrong.push(format!(
                "{entry} {src:?}: got {:?} at {}:{}, want {message:?} at {line}:{column}",
                e.message, e.line, e.column
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn an_unexpected_character_is_reported_whole() {
    for (src, column) in [("p(é).", 3), ("p(a) q(b). ∧", 12)] {
        let e = run("script", src);
        let ch = src[column - 1..].chars().next().unwrap();
        assert_eq!(e.message, format!("unexpected character {ch:?}"));
        assert_eq!((e.line, e.column), (1, column));
    }
}
