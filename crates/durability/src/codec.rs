//! Compact binary encoding for logged operations and checkpoint bodies.
//!
//! Strings (predicate names, symbolic constants, variable names, quoted
//! strings) are written once into a dense symbol table (ids in order of
//! first use) and referenced by id everywhere else. A WAL record
//! carries its own small table (records must be self-contained so the
//! tail can be replayed without any other state); a checkpoint carries
//! one table for the whole snapshot, which is what makes million-fact
//! snapshots compact: each fact is a handful of varint ids.
//!
//! Integers are LEB128 varints (signed values zigzag-encoded), floats are
//! `f64::to_bits` little-endian. Every decode is bounds-checked and
//! returns [`DurabilityError::Corrupt`] on malformed input — decoding
//! never panics, whatever the bytes.

use crate::error::{DurabilityError, Result};
use qdk_logic::{Atom, Constraint, FxHashMap, Literal, Rule, Sym, Term, Var};
use qdk_storage::Value;

/// Value kind tags (stable on disk — bump the format version to change).
const TAG_SYM: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_NUM: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Term kind tags.
const TAG_VAR: u8 = 0;
const TAG_CONST: u8 = 1;

fn corrupt(detail: impl Into<String>) -> DurabilityError {
    DurabilityError::Corrupt {
        what: "encoding",
        detail: detail.into(),
    }
}

/// Appends `v` to `out` as an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The encoder's string table: dense ids in order of first use.
///
/// A [`Sym`] is looked up by the address of its text first — values that
/// share one `Arc` cost one integer hash, however long the text — and by
/// its Fx-hashed text second. Each address entry holds a clone of its
/// `Sym`, so no address can be freed and reused by other text while the
/// table lives.
#[derive(Default)]
struct SymTable {
    by_addr: FxHashMap<usize, (u32, Sym)>,
    by_text: FxHashMap<Sym, u32>,
    texts: Vec<Sym>,
}

impl SymTable {
    fn sym(&mut self, s: &Sym) -> u32 {
        // An aligned address has zero low bits, and Fx's multiply keeps
        // them zero where the map picks its bucket: rotate them away (a
        // bijection, so distinct addresses stay distinct keys).
        let addr = (s.as_str().as_ptr() as usize).rotate_right(3);
        if let Some(&(id, _)) = self.by_addr.get(&addr) {
            return id;
        }
        let id = match self.by_text.get(s) {
            Some(&id) => id,
            None => self.push(s.clone()),
        };
        self.by_addr.insert(addr, (id, s.clone()));
        id
    }

    fn str(&mut self, s: &str) -> u32 {
        match self.by_text.get(s) {
            Some(&id) => id,
            None => self.push(Sym::new(s)),
        }
    }

    fn push(&mut self, s: Sym) -> u32 {
        let id = u32::try_from(self.texts.len()).unwrap_or(u32::MAX);
        self.by_text.insert(s.clone(), id);
        self.texts.push(s);
        id
    }
}

/// Encoder: a body buffer plus the symbol table it references. Call the
/// typed writers, then [`Enc::finish`] to assemble `[table][body]` (or
/// [`Enc::table_into`] and [`Enc::body`] to write the two without
/// joining them).
#[derive(Default)]
pub struct Enc {
    body: Vec<u8>,
    syms: SymTable,
}

impl Enc {
    /// Fresh encoder with an empty table.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Fresh encoder whose body buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            body: Vec::with_capacity(bytes),
            syms: SymTable::default(),
        }
    }

    /// Appends an unsigned LEB128 varint.
    pub fn varint(&mut self, v: u64) {
        put_varint(&mut self.body, v);
    }

    /// Appends a zigzag-encoded signed varint.
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends one raw byte.
    pub fn byte(&mut self, b: u8) {
        self.body.push(b);
    }

    /// Appends an `f64` as its 8 little-endian bit bytes.
    pub fn f64(&mut self, v: f64) {
        self.body.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a symbol as its dense table id.
    pub fn sym(&mut self, s: &Sym) {
        let id = self.syms.sym(s);
        self.varint(u64::from(id));
    }

    /// Appends a string slice as its dense table id.
    pub fn str(&mut self, s: &str) {
        let id = self.str_id(s);
        self.varint(u64::from(id));
    }

    /// The table id of `s`, interning it now if it is new, without
    /// appending anything: a caller that writes one name many times
    /// looks it up once and appends the id with [`Enc::varint`].
    pub fn str_id(&mut self, s: &str) -> u32 {
        self.syms.str(s)
    }

    /// Appends a stored value.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Sym(s) => {
                self.byte(TAG_SYM);
                self.sym(s);
            }
            Value::Int(i) => {
                self.byte(TAG_INT);
                self.zigzag(*i);
            }
            Value::Num(n) => {
                self.byte(TAG_NUM);
                self.f64(*n);
            }
            Value::Str(s) => {
                self.byte(TAG_STR);
                self.sym(s);
            }
            Value::Bool(b) => {
                self.byte(TAG_BOOL);
                self.byte(u8::from(*b));
            }
        }
    }

    /// Appends a term (variable names intern like any other symbol).
    pub fn term(&mut self, t: &Term) {
        match t {
            Term::Var(Var(name)) => {
                self.byte(TAG_VAR);
                self.sym(name);
            }
            Term::Const(c) => {
                self.byte(TAG_CONST);
                self.value(c);
            }
        }
    }

    /// Appends an atom: predicate id, arity, args.
    pub fn atom(&mut self, a: &Atom) {
        self.sym(&a.pred);
        self.varint(a.args.len() as u64);
        for t in &a.args {
            self.term(t);
        }
    }

    /// Appends a body literal (polarity byte + atom).
    pub fn literal(&mut self, l: &Literal) {
        self.byte(u8::from(l.positive));
        self.atom(&l.atom);
    }

    /// Appends a rule: head atom, body length, literals.
    pub fn rule(&mut self, r: &Rule) {
        self.atom(&r.head);
        self.varint(r.body.len() as u64);
        for l in &r.body {
            self.literal(l);
        }
    }

    /// Appends an integrity constraint (its forbidden conjunction).
    pub fn constraint(&mut self, c: &Constraint) {
        self.varint(c.body.len() as u64);
        for a in &c.body {
            self.atom(a);
        }
    }

    /// Appends the symbol table to `out`: `[varint count][strings…]`,
    /// each string `[varint byte len][utf8 bytes]`.
    pub fn table_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.syms.texts.len() as u64);
        for s in &self.syms.texts {
            let bytes = s.as_str().as_bytes();
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
    }

    /// The body written so far (everything but the table).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Assembles the final bytes: `[table][body]`.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.table_into(&mut out);
        out.extend_from_slice(&self.body);
        out
    }
}

/// Decoder over an encoded `[table][body]` slice. Construction reads the
/// symbol table; the typed readers then consume the body.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    syms: Vec<Sym>,
}

impl<'a> Dec<'a> {
    /// Reads the symbol table and positions the cursor at the body.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let mut d = Dec {
            buf,
            pos: 0,
            syms: Vec::new(),
        };
        let count = d.varint()?;
        // Each table entry needs at least one byte; a count beyond the
        // remaining bytes is corruption, not a reason to allocate.
        if count > (buf.len() - d.pos) as u64 {
            return Err(corrupt(format!("symbol table claims {count} entries")));
        }
        for _ in 0..count {
            let len = d.varint()? as usize;
            let bytes = d.take(len)?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| corrupt("symbol table entry is not utf-8"))?;
            d.syms.push(Sym::new(text));
        }
        Ok(d)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed (trailing garbage in a
    /// checksummed record means the encoder and decoder disagree).
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn zigzag(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads an `f64` from its 8 little-endian bit bytes.
    pub fn f64(&mut self) -> Result<f64> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Resolves a table id read from the body.
    pub fn sym(&mut self) -> Result<Sym> {
        let id = self.varint()? as usize;
        self.syms
            .get(id)
            .cloned()
            .ok_or_else(|| corrupt(format!("symbol id {id} out of table range")))
    }

    /// Reads a stored value.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.byte()? {
            TAG_SYM => Value::Sym(self.sym()?),
            TAG_INT => Value::Int(self.zigzag()?),
            TAG_NUM => Value::Num(self.f64()?),
            TAG_STR => Value::Str(self.sym()?),
            TAG_BOOL => Value::Bool(self.byte()? != 0),
            tag => return Err(corrupt(format!("unknown value tag {tag}"))),
        })
    }

    /// Reads a term.
    pub fn term(&mut self) -> Result<Term> {
        Ok(match self.byte()? {
            TAG_VAR => Term::Var(Var(self.sym()?)),
            TAG_CONST => Term::Const(self.value()?),
            tag => return Err(corrupt(format!("unknown term tag {tag}"))),
        })
    }

    /// Reads an atom.
    pub fn atom(&mut self) -> Result<Atom> {
        let pred = self.sym()?;
        let argc = self.checked_count()?;
        let mut args = Vec::with_capacity(argc);
        for _ in 0..argc {
            args.push(self.term()?);
        }
        Ok(Atom { pred, args })
    }

    /// Reads a body literal.
    pub fn literal(&mut self) -> Result<Literal> {
        let positive = self.byte()? != 0;
        let atom = self.atom()?;
        Ok(Literal { positive, atom })
    }

    /// Reads a rule.
    pub fn rule(&mut self) -> Result<Rule> {
        let head = self.atom()?;
        let n = self.checked_count()?;
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            body.push(self.literal()?);
        }
        Ok(Rule { head, body })
    }

    /// Reads an integrity constraint.
    pub fn constraint(&mut self) -> Result<Constraint> {
        let n = self.checked_count()?;
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            body.push(self.atom()?);
        }
        Ok(Constraint::new(body))
    }

    /// A collection count, validated against the remaining bytes (every
    /// element costs at least one byte) so corrupt input can't demand an
    /// absurd allocation.
    pub fn checked_count(&mut self) -> Result<usize> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(corrupt(format!("count {n} exceeds remaining input")));
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_rule};

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut e = Enc::new();
            e.varint(v);
            let bytes = e.finish();
            let mut d = Dec::new(&bytes).unwrap();
            assert_eq!(d.varint().unwrap(), v);
            d.expect_end().unwrap();
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut e = Enc::new();
            e.zigzag(v);
            let bytes = e.finish();
            assert_eq!(Dec::new(&bytes).unwrap().zigzag().unwrap(), v);
        }
    }

    #[test]
    fn value_roundtrip_all_kinds() {
        let values = [
            Value::sym("databases"),
            Value::Int(-42),
            Value::Num(3.7),
            Value::Num(f64::NEG_INFINITY),
            Value::str("Fall 1989"),
            Value::Bool(true),
        ];
        let mut e = Enc::new();
        for v in &values {
            e.value(v);
        }
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        for v in &values {
            assert_eq!(&d.value().unwrap(), v);
        }
        d.expect_end().unwrap();
    }

    #[test]
    fn rule_roundtrip_preserves_rendering() {
        let r = parse_rule("honor(X) :- student(X, Y, Z), Z > 3.7.").unwrap();
        let mut e = Enc::new();
        e.rule(&r);
        let bytes = e.finish();
        let decoded = Dec::new(&bytes).unwrap().rule().unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.to_string(), r.to_string());
    }

    #[test]
    fn repeated_symbols_share_one_table_entry() {
        let a = parse_atom("prereq(c1, c1)").unwrap();
        let mut once = Enc::new();
        once.atom(&a);
        let b = parse_atom("prereq(c1, c2)").unwrap();
        let mut twice = Enc::new();
        twice.atom(&b);
        // Same atom shape; the repeated constant must not cost a second
        // string, so the two encodings differ only by c2's table entry.
        assert!(once.finish().len() < twice.finish().len());
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        // Truncated table, bogus ids, bad tags, absurd counts.
        for bytes in [
            vec![5u8],                   // table claims 5 entries, no data
            vec![1, 10, b'a'],           // entry claims 10 bytes, has 1
            vec![0, 9],                  // value tag 9
            vec![0, 0, 200],             // sym id 200 with empty table
            vec![255, 255, 255, 255, 8], // huge table count
        ] {
            let r = Dec::new(&bytes).and_then(|mut d| d.value());
            assert!(r.is_err(), "{bytes:?} should fail to decode");
        }
    }

    #[test]
    fn constraint_roundtrip() {
        let c = Constraint::new(vec![
            parse_atom("foreign(X)").unwrap(),
            parse_atom("unmarried(X)").unwrap(),
        ]);
        let mut e = Enc::new();
        e.constraint(&c);
        let bytes = e.finish();
        assert_eq!(Dec::new(&bytes).unwrap().constraint().unwrap(), c);
    }
}
