//! Statement parser for the unified language.
//!
//! Layered on the logic crate's clause parser. Statement grammar:
//!
//! ```text
//! statement  := declaration | clause | retrieve | describe | compare
//!             | "retract" atom "." | "show" kind "." | "explain" atom ("where" formula)? "."
//! declaration:= "predicate" ident "(" name ("," name)* ")" ("key" INT)? "."
//! retrieve   := "retrieve" atom ("where" formula)? "."
//! describe   := "describe" "*" "where" formula "."
//!             | "describe" "where" formula "."
//!             | "describe" atom ("where" ("necessary")? formula
//!                               | "where" "not" atom)? "."
//! compare    := "compare" "(" describe-core ")" "with" "(" describe-core ")" "."
//! formula    := literal (("and" | ",") literal)*
//! clause     := <as in qdk-logic>
//! ```
//!
//! The twin statements differ only in their initial keyword, exactly as
//! §3.2 requires.

use crate::ast::Statement;
use crate::error::{LangError, Result};
use qdk_core::Describe;
use qdk_engine::Retrieve;
use qdk_logic::parser::Parser;
use qdk_logic::{Atom, Literal, ParseError};

/// Parses a single statement (must consume all input).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut p = Parser::new(src)?;
    let s = statement(&mut p)?;
    if !p.at_end() {
        return Err(LangError::from(
            p.error_here("trailing input after statement"),
        ));
    }
    Ok(s)
}

/// Parses a whole script: a sequence of statements.
pub fn parse_script(src: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(statement(&mut p)?);
    }
    Ok(out)
}

fn statement(p: &mut Parser<'_>) -> Result<Statement> {
    if p.eat_keyword("predicate") {
        return declaration(p);
    }
    if p.eat_keyword("retrieve") {
        let subject = p.atom()?;
        let qualifier = if p.eat_keyword("where") {
            formula(p)?
        } else {
            Vec::new()
        };
        p.expect_period()?;
        return Ok(Statement::Retrieve(Retrieve::new(subject, qualifier)));
    }
    if p.eat_keyword("describe") {
        return describe_statement(p);
    }
    if p.eat_keyword("retract") {
        let atom = p.atom()?;
        p.expect_period()?;
        return Ok(Statement::Retract(atom));
    }
    if p.eat_keyword("show") {
        let kind = if p.eat_keyword("predicates") {
            crate::ast::ShowKind::Predicates
        } else if p.eat_keyword("rules") {
            crate::ast::ShowKind::Rules
        } else if p.eat_keyword("constraints") {
            crate::ast::ShowKind::Constraints
        } else {
            return Err(LangError::from(
                p.error_here("expected 'predicates', 'rules' or 'constraints'"),
            ));
        };
        p.expect_period()?;
        return Ok(Statement::Show(kind));
    }
    if p.eat_keyword("explain") {
        let subject = p.atom()?;
        let hypothesis = if p.eat_keyword("where") {
            formula(p)?
        } else {
            Vec::new()
        };
        p.expect_period()?;
        return Ok(Statement::Explain(Describe::new(subject, hypothesis)));
    }
    if p.eat_keyword("compare") {
        return compare_statement(p);
    }
    // Otherwise: a clause (fact, rule, or constraint).
    let program_src = clause_via_program(p)?;
    Ok(program_src)
}

fn declaration(p: &mut Parser<'_>) -> Result<Statement> {
    let name = p.identifier()?;
    if !p.eat_lparen() {
        return Err(LangError::from(
            p.error_here("expected '(' after predicate name"),
        ));
    }
    let mut attrs = vec![p.name()?];
    while p.eat_comma() {
        attrs.push(p.name()?);
    }
    if !p.eat_rparen() {
        return Err(LangError::from(p.error_here("expected ')'")));
    }
    let key = if p.eat_keyword("key") {
        let k = p.integer()?;
        if k < 0 || k as usize > attrs.len() {
            return Err(LangError::from(p.error_here(format!(
                "key length {k} out of range for arity {}",
                attrs.len()
            ))));
        }
        Some(k as usize)
    } else {
        None
    };
    p.expect_period()?;
    Ok(Statement::Declare { name, attrs, key })
}

fn describe_statement(p: &mut Parser<'_>) -> Result<Statement> {
    // describe * where ψ.
    if p.eat_star() {
        if !p.eat_keyword("where") {
            return Err(LangError::from(p.error_here("expected 'where' after '*'")));
        }
        let hypothesis = formula(p)?;
        p.expect_period()?;
        return Ok(Statement::DescribeWildcard { hypothesis });
    }
    // describe where ψ.  (subjectless)
    if p.eat_keyword("where") {
        let hypothesis = positive_formula(p)?;
        p.expect_period()?;
        return Ok(Statement::DescribePossible { hypothesis });
    }
    let subject = p.atom()?;
    if p.eat_keyword("where") {
        if p.eat_keyword("necessary") {
            let hypothesis = formula(p)?;
            p.expect_period()?;
            return Ok(Statement::DescribeNecessary(Describe::new(
                subject, hypothesis,
            )));
        }
        if p.eat_not() {
            let negated = p.atom()?;
            p.expect_period()?;
            return Ok(Statement::DescribeWithout { subject, negated });
        }
        let first = formula(p)?;
        if p.peek_keyword("or") {
            let mut disjuncts = vec![first];
            while p.eat_keyword("or") {
                disjuncts.push(formula(p)?);
            }
            p.expect_period()?;
            return Ok(Statement::DescribeDisjunctive { subject, disjuncts });
        }
        p.expect_period()?;
        return Ok(Statement::Describe(Describe::new(subject, first)));
    }
    p.expect_period()?;
    Ok(Statement::Describe(Describe::new(subject, Vec::new())))
}

fn compare_statement(p: &mut Parser<'_>) -> Result<Statement> {
    let first = parenthesized_describe(p)?;
    if !p.eat_keyword("with") {
        return Err(LangError::from(p.error_here("expected 'with'")));
    }
    let second = parenthesized_describe(p)?;
    p.expect_period()?;
    Ok(Statement::Compare { first, second })
}

fn parenthesized_describe(p: &mut Parser<'_>) -> Result<Describe> {
    if !p.eat_lparen() {
        return Err(LangError::from(p.error_here("expected '('")));
    }
    if !p.eat_keyword("describe") {
        return Err(LangError::from(p.error_here("expected 'describe'")));
    }
    let subject = p.atom()?;
    let hypothesis = if p.eat_keyword("where") {
        formula(p)?
    } else {
        Vec::new()
    };
    if !p.eat_rparen() {
        return Err(LangError::from(p.error_here("expected ')'")));
    }
    Ok(Describe::new(subject, hypothesis))
}

/// A formula: literals separated by `and` or `,`.
fn formula(p: &mut Parser<'_>) -> Result<Vec<Literal>> {
    let mut lits = vec![p.literal()?];
    loop {
        if p.eat_keyword("and") || p.eat_comma() {
            lits.push(p.literal()?);
        } else {
            return Ok(lits);
        }
    }
}

/// A positive formula (atoms only), for subjectless describes.
fn positive_formula(p: &mut Parser<'_>) -> Result<Vec<Atom>> {
    let lits = formula(p)?;
    lits.into_iter()
        .map(|l| {
            if l.positive {
                Ok(l.atom)
            } else {
                Err(ParseError {
                    message: format!("hypothesis must be positive, found: {l}"),
                    line: 1,
                    column: 1,
                }
                .into())
            }
        })
        .collect()
}

/// One clause parsed through the logic crate's program machinery.
fn clause_via_program(p: &mut Parser<'_>) -> Result<Statement> {
    // The logic parser exposes atom/body; reconstruct clause parsing here
    // to avoid consuming beyond the period.
    if p.eat_if() {
        let body = body_literals(p)?;
        p.expect_period()?;
        let atoms = body
            .into_iter()
            .map(|l| {
                if l.positive {
                    Ok(l.atom)
                } else {
                    Err(ParseError {
                        message: "negative literal in integrity constraint".to_string(),
                        line: 1,
                        column: 1,
                    })
                }
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        return Ok(Statement::Constraint(qdk_logic::Constraint::new(atoms)));
    }
    let head = p.atom()?;
    if head.is_builtin() {
        return Err(LangError::from(
            p.error_here("a comparison cannot be the head of a rule"),
        ));
    }
    let body = if p.eat_if() {
        body_literals(p)?
    } else {
        Vec::new()
    };
    p.expect_period()?;
    Ok(Statement::Clause(qdk_logic::Rule::with_literals(
        head, body,
    )))
}

fn body_literals(p: &mut Parser<'_>) -> Result<Vec<Literal>> {
    let mut lits = vec![p.literal()?];
    while p.eat_comma() || p.eat_keyword("and") {
        lits.push(p.literal()?);
    }
    Ok(lits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declaration_with_key() {
        let s = parse_statement("predicate student(Sname, Major, Gpa) key 1.").unwrap();
        assert_eq!(
            s,
            Statement::Declare {
                name: "student".into(),
                attrs: vec!["Sname".into(), "Major".into(), "Gpa".into()],
                key: Some(1),
            }
        );
        assert_eq!(s.to_string(), "predicate student(Sname, Major, Gpa) key 1.");
    }

    #[test]
    fn parses_declaration_without_key() {
        let s = parse_statement("predicate enroll(Sname, Ctitle).").unwrap();
        assert!(matches!(s, Statement::Declare { key: None, .. }));
    }

    #[test]
    fn rejects_out_of_range_key() {
        assert!(parse_statement("predicate p(A) key 2.").is_err());
    }

    #[test]
    fn parses_fact_and_rule() {
        assert!(matches!(
            parse_statement("student(ann, math, 3.9).").unwrap(),
            Statement::Clause(_)
        ));
        let s = parse_statement("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap();
        let Statement::Clause(r) = s else { panic!() };
        assert_eq!(r.body.len(), 2);
    }

    #[test]
    fn parses_retrieve_with_and_keyword() {
        // Paper Example 2's phrasing with "and".
        let s = parse_statement(
            "retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and (V > 3.7).",
        )
        .unwrap();
        let Statement::Retrieve(r) = s else { panic!() };
        assert_eq!(r.subject.pred, "answer");
        assert_eq!(r.qualifier.len(), 3);
    }

    #[test]
    fn retrieve_and_describe_differ_only_in_keyword() {
        // §3.2's twin-statement claim, literally.
        let r = parse_statement("retrieve honor(X) where enroll(X, databases).").unwrap();
        let d = parse_statement("describe honor(X) where enroll(X, databases).").unwrap();
        let Statement::Retrieve(r) = r else { panic!() };
        let Statement::Describe(d) = d else { panic!() };
        assert_eq!(r.subject, d.subject);
        assert_eq!(r.qualifier, d.hypothesis);
    }

    #[test]
    fn parses_describe_without_where() {
        let s = parse_statement("describe honor(X).").unwrap();
        let Statement::Describe(d) = s else { panic!() };
        assert!(d.hypothesis.is_empty());
    }

    #[test]
    fn parses_necessary() {
        let s = parse_statement(
            "describe honor(X) where necessary complete(X, Y, Z, U) and (U > 3.3).",
        )
        .unwrap();
        assert!(matches!(s, Statement::DescribeNecessary(_)));
    }

    #[test]
    fn parses_negated_hypothesis() {
        let s = parse_statement("describe can_ta(X, Y) where not honor(X).").unwrap();
        let Statement::DescribeWithout { subject, negated } = s else {
            panic!()
        };
        assert_eq!(subject.pred, "can_ta");
        assert_eq!(negated.pred, "honor");
    }

    #[test]
    fn parses_subjectless_describe() {
        // The paper's §6 example, verbatim modulo ASCII.
        let s = parse_statement("describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U).")
            .unwrap();
        let Statement::DescribePossible { hypothesis } = s else {
            panic!()
        };
        assert_eq!(hypothesis.len(), 3);
    }

    #[test]
    fn parses_wildcard_describe() {
        let s = parse_statement("describe * where honor(X).").unwrap();
        assert!(matches!(s, Statement::DescribeWildcard { .. }));
    }

    #[test]
    fn parses_compare() {
        let s =
            parse_statement("compare (describe honor(X)) with (describe deans_list(X)).").unwrap();
        let Statement::Compare { first, second } = s else {
            panic!()
        };
        assert_eq!(first.subject.pred, "honor");
        assert_eq!(second.subject.pred, "deans_list");
    }

    #[test]
    fn parses_compare_with_hypotheses() {
        let s = parse_statement(
            "compare (describe can_ta(X, Y) where honor(X)) with (describe can_ta(X, Y) where teach(susan, Y)).",
        )
        .unwrap();
        let Statement::Compare { first, .. } = s else {
            panic!()
        };
        assert_eq!(first.hypothesis.len(), 1);
    }

    #[test]
    fn parses_script() {
        let script = parse_script(
            "predicate student(Sname, Major, Gpa) key 1.\n\
             student(ann, math, 3.9).\n\
             honor(X) :- student(X, Y, Z), Z > 3.7.\n\
             retrieve honor(X).\n\
             describe honor(X).",
        )
        .unwrap();
        assert_eq!(script.len(), 5);
    }

    #[test]
    fn parses_constraint_statement() {
        let s = parse_statement(":- honor(X), suspended(X).").unwrap();
        assert!(matches!(s, Statement::Constraint(_)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("describe honor(X). extra").is_err());
    }

    #[test]
    fn negative_subjectless_hypothesis_rejected() {
        assert!(parse_statement("describe where not honor(X).").is_err());
    }
}
