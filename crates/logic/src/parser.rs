//! Text parser for the logic language.
//!
//! Grammar (datalog-style ASCII rendering of the paper's notation):
//!
//! ```text
//! program    := clause*
//! clause     := rule | constraint
//! rule       := atom ( ":-" body )? "."
//! constraint := ":-" body "."
//! body       := literal ( "," literal )*
//! literal    := "not" atom | atom
//! atom       := ident "(" term ("," term)* ")"
//!             | ident                       (zero-ary predicate)
//!             | "(" comparison ")" | comparison
//! comparison := term op term,  op ∈ { = != < <= > >= }
//! term       := VARIABLE | ident | NUMBER | STRING
//! ```
//!
//! Identifiers beginning with a capital letter are variables (the paper's
//! convention, §2.1); all other identifiers are symbolic constants or
//! predicate names. `_` is an anonymous variable (each occurrence fresh).
//! Comments run from `%` or `//` to end of line.

use crate::atom::Atom;
use crate::clause::{Constraint, Program, Rule};
use crate::error::{ParseError, Result};
use crate::fasthash::FxHashMap;
use crate::symbol::Sym;
use crate::term::{Const, Term, Var};
use crate::Literal;
use std::borrow::Cow;

/// A token. Names and unescaped strings borrow their text from the source.
#[derive(Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Variable(&'a str),
    Int(i64),
    Num(f64),
    Str(Cow<'a, str>),
    LParen,
    RParen,
    Comma,
    Period,
    If, // ":-"
    Op(&'static str),
    Not,
    Star,
}

struct Spanned<'a> {
    tok: Tok<'a>,
    line: usize,
    col: usize,
}

/// Yields the tokens of a source text one at a time.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes bytes while `keep` holds; returns the text consumed.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.line, self.col)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    self.take_while(|c| c != b'\n');
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    self.take_while(|c| c != b'\n');
                }
                _ => break,
            }
        }
    }

    /// Lexes the next token; `None` at the end of the input.
    fn next_token(&mut self) -> Result<Option<Spanned<'a>>> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            b'.' => {
                self.bump();
                Tok::Period
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'-') {
                    self.bump();
                    Tok::If
                } else {
                    return Err(self.error("expected '-' after ':'"));
                }
            }
            b'=' => {
                self.bump();
                Tok::Op("=")
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op("!=")
                } else {
                    return Err(self.error("expected '=' after '!'"));
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op("<=")
                } else {
                    Tok::Op("<")
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op(">=")
                } else {
                    Tok::Op(">")
                }
            }
            b'"' => {
                self.bump();
                Tok::Str(self.string()?)
            }
            c if c.is_ascii_digit()
                || c == b'-' && self.peek2().is_some_and(|d| d.is_ascii_digit()) =>
            {
                self.number()?
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let s = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                if s == "not" {
                    Tok::Not
                } else if s.starts_with(|ch: char| ch.is_ascii_uppercase()) || s == "_" {
                    Tok::Variable(s)
                } else if s.starts_with('_') {
                    return Err(ParseError::new(
                        format!("identifiers may not begin with '_': {s}"),
                        line,
                        col,
                    ));
                } else {
                    Tok::Ident(s)
                }
            }
            _ => {
                // Every token and comment ends on an ASCII byte, so `pos`
                // is on a character boundary here.
                let ch = self.src[self.pos..].chars().next().unwrap_or('\u{fffd}');
                return Err(self.error(format!("unexpected character {ch:?}")));
            }
        };
        Ok(Some(Spanned { tok, line, col }))
    }

    /// Lexes a quoted string's text after its opening quote: a slice of
    /// the source, copied only when it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        let plain = self.take_while(|c| c != b'"' && c != b'\\');
        let mut text = Cow::Borrowed(plain);
        loop {
            match self.bump() {
                Some(b'"') => return Ok(text),
                Some(b'\\') => {
                    let unescaped = match self.bump() {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        _ => return Err(self.error("bad escape in string")),
                    };
                    let owned = text.to_mut();
                    owned.push(unescaped);
                    owned.push_str(self.take_while(|c| c != b'"' && c != b'\\'));
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Lexes a number, with its leading `-` if any. A `.` is consumed as a
    /// decimal point only when followed by a digit, so the
    /// clause-terminating period after e.g. `4.0.` or `p(3).` lexes
    /// correctly.
    fn number(&mut self) -> Result<Tok<'a>> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        self.take_while(|c| c.is_ascii_digit());
        let is_float =
            self.peek() == Some(b'.') && self.peek2().is_some_and(|d| d.is_ascii_digit());
        if is_float {
            self.bump();
            self.take_while(|c| c.is_ascii_digit());
        }
        let s = &self.src[start..self.pos];
        if is_float {
            s.parse::<f64>()
                .map(Tok::Num)
                .map_err(|e| self.error(format!("bad float {s}: {e}")))
        } else {
            s.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.error(format!("bad integer {s}: {e}")))
        }
    }
}

/// The parser proper: the lexer, one token of lookahead, and the symbols
/// this parse has made so far.
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    next: Option<Tok<'a>>,
    /// Position of the lookahead token, or of the last token once the
    /// input is exhausted: where an error points.
    at: (usize, usize),
    anon: u64,
    /// One symbol per distinct name, so every occurrence of a name in this
    /// parse shares one allocation.
    syms: FxHashMap<&'a str, Sym>,
}

impl<'a> Parser<'a> {
    /// Creates a parser over the given source text. Lexes the whole input
    /// once, storing nothing, so a lexical error anywhere is reported
    /// before any grammar error.
    pub fn new(src: &'a str) -> Result<Self> {
        let mut check = Lexer::new(src);
        while check.next_token()?.is_some() {}
        let mut p = Parser {
            lexer: Lexer::new(src),
            next: None,
            at: (1, 1),
            anon: 0,
            syms: FxHashMap::default(),
        };
        p.advance();
        Ok(p)
    }

    /// Lexes the next token into the lookahead slot.
    fn advance(&mut self) {
        // The input lexed without error in `new`, so this cannot fail.
        self.next = match self.lexer.next_token().unwrap_or(None) {
            Some(Spanned { tok, line, col }) => {
                self.at = (line, col);
                Some(tok)
            }
            None => None,
        };
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.next.as_ref()
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.next.take()?;
        self.advance();
        Some(t)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.at.0, self.at.1)
    }

    /// The symbol for `name`, allocated on its first occurrence in this
    /// parse.
    fn sym(&mut self, name: &'a str) -> Sym {
        self.syms
            .entry(name)
            .or_insert_with(|| Sym::new(name))
            .clone()
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<()> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected {what}, found {t:?}"))),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    /// True if all tokens are consumed.
    pub fn at_end(&self) -> bool {
        self.next.is_none()
    }

    /// Consumes the next token if it is the identifier `kw`; returns
    /// whether it did. Used by statement-level parsers layered on top of
    /// this one (the query language's `where`, `and`, `necessary`, …).
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// True if the next token is the identifier `kw` (without consuming).
    pub fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if *s == kw)
    }

    /// Consumes a comma if next; returns whether it did.
    pub fn eat_comma(&mut self) -> bool {
        self.eat_tok(&Tok::Comma)
    }

    /// Consumes a `(` if next; returns whether it did.
    pub fn eat_lparen(&mut self) -> bool {
        self.eat_tok(&Tok::LParen)
    }

    /// Consumes a `)` if next; returns whether it did.
    pub fn eat_rparen(&mut self) -> bool {
        self.eat_tok(&Tok::RParen)
    }

    /// Consumes a `*` if next; returns whether it did.
    pub fn eat_star(&mut self) -> bool {
        self.eat_tok(&Tok::Star)
    }

    /// Consumes a `not` keyword if next; returns whether it did.
    pub fn eat_not(&mut self) -> bool {
        self.eat_tok(&Tok::Not)
    }

    /// Consumes a `:-` if next; returns whether it did.
    pub fn eat_if(&mut self) -> bool {
        self.eat_tok(&Tok::If)
    }

    /// Consumes the statement-terminating period.
    pub fn expect_period(&mut self) -> Result<()> {
        self.expect(&Tok::Period, "'.'")
    }

    /// Consumes an integer literal.
    pub fn integer(&mut self) -> Result<i64> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(i),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    /// Consumes an identifier and returns its text.
    pub fn identifier(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s.to_string()),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Consumes a name usable as an attribute: identifier or variable.
    pub fn name(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) | Some(Tok::Variable(s)) => Ok(s.to_string()),
            other => Err(self.error(format!("expected name, found {other:?}"))),
        }
    }

    /// Builds a parse error at the current position (for layered parsers).
    pub fn error_here(&self, msg: impl Into<String>) -> ParseError {
        self.error(msg)
    }

    fn eat_tok(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Parses a term.
    pub fn term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::Variable("_")) => {
                let name = format!("_anon{}", self.anon);
                self.anon += 1;
                Ok(Term::Var(Var::new(&name)))
            }
            Some(Tok::Variable(v)) => Ok(Term::Var(Var(self.sym(v)))),
            Some(Tok::Ident(s)) => Ok(Term::Const(Const::Sym(self.sym(s)))),
            Some(Tok::Int(i)) => Ok(Term::Const(Const::Int(i))),
            Some(Tok::Num(n)) => Ok(Term::Const(Const::Num(n))),
            Some(Tok::Str(Cow::Borrowed(s))) => Ok(Term::Const(Const::Str(self.sym(s)))),
            Some(Tok::Str(Cow::Owned(s))) => Ok(Term::Const(Const::Str(Sym::from(s)))),
            Some(t) => Err(self.error(format!("expected term, found {t:?}"))),
            None => Err(self.error("expected term, found end of input")),
        }
    }

    /// Parses the operator and right operand of an infix comparison whose
    /// left operand is `l`.
    fn comparison(&mut self, l: Term) -> Result<Atom> {
        let op = match self.bump() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other:?}")))
            }
        };
        let r = self.term()?;
        Ok(Atom::new(self.sym(op), vec![l, r]))
    }

    /// Parses an atom: an ordinary predicate application, a parenthesized
    /// or bare infix comparison, or a zero-ary predicate.
    pub fn atom(&mut self) -> Result<Atom> {
        match self.peek() {
            Some(Tok::LParen) => {
                // Parenthesized comparison: "(Z > 3.7)".
                self.bump();
                let l = self.term()?;
                let a = self.comparison(l)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(a)
            }
            Some(&Tok::Ident(p)) => {
                self.bump();
                let pred = self.sym(p);
                if self.eat_tok(&Tok::LParen) {
                    let mut args = vec![self.term()?];
                    while self.eat_tok(&Tok::Comma) {
                        args.push(self.term()?);
                    }
                    self.expect(&Tok::RParen, "')'")?;
                    Ok(Atom::new(pred, args))
                } else {
                    Ok(Atom::new(pred, vec![]))
                }
            }
            // Bare comparison starting with a non-ident term: "X > 3".
            Some(Tok::Variable(_) | Tok::Int(_) | Tok::Num(_) | Tok::Str(_)) => {
                let l = self.term()?;
                self.comparison(l)
            }
            other => Err(self.error(format!("expected atom, found {other:?}"))),
        }
    }

    /// Parses a body literal: `not atom` or an atom (including infix
    /// comparisons).
    pub fn literal(&mut self) -> Result<Literal> {
        if self.eat_tok(&Tok::Not) {
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    /// Parses a comma-separated body of literals.
    pub fn body(&mut self) -> Result<Vec<Literal>> {
        let mut lits = vec![self.literal()?];
        while self.eat_tok(&Tok::Comma) {
            lits.push(self.literal()?);
        }
        Ok(lits)
    }

    /// Parses one clause (rule or constraint), consuming the final period.
    fn clause(&mut self) -> Result<ClauseKind> {
        if self.eat_tok(&Tok::If) {
            let body = self.body()?;
            self.expect(&Tok::Period, "'.'")?;
            let atoms = body
                .into_iter()
                .map(|l| {
                    if l.positive {
                        Ok(l.atom)
                    } else {
                        Err(self.error("negative literal in integrity constraint"))
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            return Ok(ClauseKind::Constraint(Constraint::new(atoms)));
        }
        let head = self.atom()?;
        if head.is_builtin() {
            return Err(self.error("a comparison cannot be the head of a rule"));
        }
        let body = if self.eat_tok(&Tok::If) {
            self.body()?
        } else {
            Vec::new()
        };
        self.expect(&Tok::Period, "'.'")?;
        Ok(ClauseKind::Rule(Rule::with_literals(head, body)))
    }

    /// Parses a whole program.
    pub fn program(&mut self) -> Result<Program> {
        let mut p = Program::default();
        while !self.at_end() {
            match self.clause()? {
                ClauseKind::Rule(r) => p.rules.push(r),
                ClauseKind::Constraint(c) => p.constraints.push(c),
            }
        }
        Ok(p)
    }
}

enum ClauseKind {
    Rule(Rule),
    Constraint(Constraint),
}

/// Parses a program (facts, rules, constraints).
pub fn parse_program(src: &str) -> Result<Program> {
    Parser::new(src)?.program()
}

/// Parses a single rule or fact, requiring the trailing period.
pub fn parse_rule(src: &str) -> Result<Rule> {
    let mut p = Parser::new(src)?;
    let c = p.clause()?;
    if !p.at_end() {
        return Err(p.error("trailing input after rule"));
    }
    match c {
        ClauseKind::Rule(r) => Ok(r),
        ClauseKind::Constraint(_) => {
            Err(ParseError::new("expected a rule, found constraint", 1, 1))
        }
    }
}

/// Parses a single atom (no trailing period).
pub fn parse_atom(src: &str) -> Result<Atom> {
    let mut p = Parser::new(src)?;
    let a = p.atom()?;
    if !p.at_end() {
        return Err(p.error("trailing input after atom"));
    }
    Ok(a)
}

/// Parses a comma-separated conjunction of literals (no trailing period),
/// e.g. the qualifier of a query.
pub fn parse_body(src: &str) -> Result<Vec<Literal>> {
    let mut p = Parser::new(src)?;
    let b = p.body()?;
    if !p.at_end() {
        return Err(p.error("trailing input after formula"));
    }
    Ok(b)
}

/// Parses a single term (no trailing input).
pub fn parse_term(src: &str) -> Result<Term> {
    let mut p = Parser::new(src)?;
    let t = p.term()?;
    if !p.at_end() {
        return Err(p.error("trailing input after term"));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fact() {
        let r = parse_rule("prereq(databases, datastructures).").unwrap();
        assert!(r.is_fact());
        assert_eq!(r.to_string(), "prereq(databases, datastructures).");
    }

    #[test]
    fn parses_paper_honor_rule() {
        let r = parse_rule("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap();
        assert_eq!(r.head.pred, "honor");
        assert_eq!(r.body.len(), 2);
        assert!(r.body[1].is_builtin());
        assert_eq!(r.to_string(), "honor(X) :- student(X, Y, Z), (Z > 3.7).");
    }

    #[test]
    fn parses_parenthesized_comparison() {
        let r = parse_rule("honor(X) :- student(X, Y, Z), (Z >= 3.7).").unwrap();
        assert_eq!(r.body[1].atom.pred, ">=");
    }

    #[test]
    fn parses_recursive_prior_rules() {
        let p = parse_program(
            "prior(X, Y) :- prereq(X, Y).\n\
             prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].body_occurrences("prior"), 1);
    }

    #[test]
    fn parses_paper_can_ta_rules() {
        let p = parse_program(
            "can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n\
             can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4.0).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].body.len(), 5);
        assert_eq!(p.rules[1].body[1].atom.args[3], Term::num(4.0));
    }

    #[test]
    fn parses_constraint() {
        let ok = parse_program(":- honor(X), suspended(X).").unwrap();
        assert_eq!(ok.constraints.len(), 1);
        assert_eq!(ok.constraints[0].body.len(), 2);
        // Negative literals are rejected inside constraints (Horn form 2
        // of §2.1 is a negated conjunction of positive literals).
        assert!(parse_program(":- foreign(X), not married(X).").is_err());
    }

    #[test]
    fn parses_negative_literal_in_rule_body() {
        let r = parse_rule("p(X) :- q(X), not r(X).").unwrap();
        assert!(!r.body[1].positive);
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let r = parse_rule("p(X) :- q(X, _), r(_, X).").unwrap();
        let q_anon = r.body[0].atom.args[1].as_var().unwrap().clone();
        let r_anon = r.body[1].atom.args[0].as_var().unwrap().clone();
        assert_ne!(q_anon, r_anon);
        assert!(q_anon.is_fresh());
    }

    #[test]
    fn zero_ary_predicate() {
        let r = parse_rule("halted :- stopped.").unwrap();
        assert_eq!(r.head.arity(), 0);
        assert_eq!(r.body[0].atom.arity(), 0);
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "% paper example\n\
             honor(X) :- student(X, Y, Z), Z > 3.7. // definition\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn numbers_lex_correctly_before_period() {
        let r = parse_rule("gpa(ann, 4.0).").unwrap();
        assert_eq!(r.head.args[1], Term::num(4.0));
        let r2 = parse_rule("units(db, 4).").unwrap();
        assert_eq!(r2.head.args[1], Term::int(4));
        let r3 = parse_rule("temp(x, -3).").unwrap();
        assert_eq!(r3.head.args[1], Term::int(-3));
    }

    #[test]
    fn strings_with_escapes() {
        let t = parse_term(r#""fall \"89\"""#).unwrap();
        assert_eq!(t, Term::Const(Const::str("fall \"89\"")));
    }

    #[test]
    fn strings_keep_non_ascii_text() {
        assert_eq!(
            parse_term("\"naïve\"").unwrap(),
            Term::Const(Const::str("naïve"))
        );
        assert_eq!(
            parse_term(r#""ï\"é\n""#).unwrap(),
            Term::Const(Const::str("ï\"é\n"))
        );
    }

    #[test]
    fn each_distinct_name_is_allocated_once_per_parse() {
        let r = parse_rule("p(X, a) :- q(a, X), p(X, a).").unwrap();
        let (head, body) = (&r.head, &r.body[1].atom);
        assert!(head.pred.ptr_eq(&body.pred));
        for (h, b) in head.args.iter().zip(&body.args) {
            let (Term::Var(Var(h)) | Term::Const(Const::Sym(h))) = h else {
                panic!("{h:?}")
            };
            let (Term::Var(Var(b)) | Term::Const(Const::Sym(b))) = b else {
                panic!("{b:?}")
            };
            assert!(h.ptr_eq(b), "{h} is allocated twice");
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_rule("honor(X) :- student(X, Y, Z) Z > 3.7.").unwrap_err();
        assert!(e.line >= 1 && e.column > 1, "{e}");
        let e2 = parse_program("p(X)").unwrap_err();
        assert!(e2.message.contains("'.'"), "{e2}");
    }

    #[test]
    fn rejects_builtin_head() {
        assert!(parse_rule("X > 3 :- p(X).").is_err());
    }

    #[test]
    fn rejects_underscore_identifier() {
        assert!(parse_rule("p(_x).").is_err());
    }

    #[test]
    fn parse_body_for_where_clauses() {
        let b = parse_body("student(X, math, V), V > 3.7").unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[1].is_builtin());
    }

    #[test]
    fn display_roundtrip() {
        let srcs = [
            "honor(X) :- student(X, Y, Z), (Z > 3.7).",
            "prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            "prereq(databases, datastructures).",
            "p(X) :- q(X), not r(X).",
        ];
        for s in srcs {
            let r = parse_rule(s).unwrap();
            assert_eq!(r.to_string(), s);
            // Reparse is identity.
            assert_eq!(parse_rule(&r.to_string()).unwrap(), r);
        }
    }
}
