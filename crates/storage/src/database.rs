//! The extensional database.

use crate::catalog::{Catalog, Schema};
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::{builtins, Value};
use qdk_logic::{Atom, Bindings, Sym, Term};

/// The extensional database: a catalog of declared predicates and their
/// stored fact relations (the sets `P` and `R` of §2.1 — stored predicates
/// plus built-ins, which are evaluated rather than stored).
#[derive(Clone, Debug, Default)]
pub struct Edb {
    catalog: Catalog,
    relations: std::collections::HashMap<Sym, Relation>,
}

/// The stored row of a ground atom, or [`StorageError::NotGround`].
fn ground_tuple(atom: &Atom) -> Result<Tuple> {
    atom.args
        .iter()
        .map(|t| t.as_const().cloned())
        .collect::<Option<Tuple>>()
        .ok_or_else(|| StorageError::NotGround(atom.to_string()))
}

impl Edb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Edb::default()
    }

    /// Declares an EDB predicate with named attributes.
    pub fn declare(&mut self, name: &str, attrs: &[&str]) -> Result<()> {
        if builtins::is_builtin(name) {
            return Err(StorageError::ReservedPredicate(name.to_string()));
        }
        let schema = Schema::new(name, attrs);
        let arity = schema.arity();
        self.catalog.declare(schema);
        self.relations
            .entry(Sym::new(name))
            .or_insert_with(|| Relation::new(name, arity));
        Ok(())
    }

    /// The catalog of declared predicates.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// True if `name` is a declared EDB predicate (not a built-in).
    pub fn is_edb_predicate(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Checks that `name` may be declared (not a reserved built-in)
    /// without declaring it — the pre-flight check the durability layer
    /// runs before logging a declaration.
    pub fn validate_declare(&self, name: &str) -> Result<()> {
        if builtins::is_builtin(name) {
            return Err(StorageError::ReservedPredicate(name.to_string()));
        }
        Ok(())
    }

    /// Checks every condition [`Self::insert_fact`] (and
    /// [`Self::remove_fact`]) would: the atom is ground, its predicate is
    /// declared, and the arity matches — without touching the database.
    /// The write-ahead discipline validates first, then logs, then
    /// applies, so a mutation that reaches the log can no longer fail.
    pub fn validate_fact(&self, atom: &Atom) -> Result<()> {
        if !atom.is_ground() {
            return Err(StorageError::NotGround(atom.to_string()));
        }
        let rel = self
            .relations
            .get(&atom.pred)
            .ok_or_else(|| StorageError::UnknownPredicate(atom.pred.to_string()))?;
        if atom.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                predicate: atom.pred.to_string(),
                expected: rel.arity(),
                found: atom.arity(),
            });
        }
        Ok(())
    }

    /// Inserts a ground fact. The predicate must be declared and the fact
    /// ground with matching arity. Returns `true` if the fact is new.
    pub fn insert_fact(&mut self, atom: &Atom) -> Result<bool> {
        let tuple = ground_tuple(atom)?;
        let rel = self
            .relations
            .get_mut(&atom.pred)
            .ok_or_else(|| StorageError::UnknownPredicate(atom.pred.to_string()))?;
        if atom.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                predicate: atom.pred.to_string(),
                expected: rel.arity(),
                found: atom.arity(),
            });
        }
        rel.insert(tuple)
    }

    /// Inserts a tuple directly into a declared relation.
    pub fn insert_tuple(&mut self, pred: &str, tuple: Tuple) -> Result<bool> {
        let rel = self
            .relations
            .get_mut(pred)
            .ok_or_else(|| StorageError::UnknownPredicate(pred.to_string()))?;
        if tuple.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                predicate: pred.to_string(),
                expected: rel.arity(),
                found: tuple.arity(),
            });
        }
        rel.insert(tuple)
    }

    /// Removes a ground fact; returns `true` if it was stored.
    pub fn remove_fact(&mut self, atom: &Atom) -> Result<bool> {
        let tuple = ground_tuple(atom)?;
        let rel = self
            .relations
            .get_mut(&atom.pred)
            .ok_or_else(|| StorageError::UnknownPredicate(atom.pred.to_string()))?;
        if atom.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                predicate: atom.pred.to_string(),
                expected: rel.arity(),
                found: atom.arity(),
            });
        }
        Ok(rel.remove(&tuple))
    }

    /// Removes a tuple directly from a declared relation (the replay twin
    /// of [`Self::insert_tuple`] — it goes through the exact same
    /// [`Relation::remove`] path as [`Self::remove_fact`], so indexes and
    /// meters stay consistent under WAL replay).
    pub fn remove_tuple(&mut self, pred: &str, tuple: &Tuple) -> Result<bool> {
        let rel = self
            .relations
            .get_mut(pred)
            .ok_or_else(|| StorageError::UnknownPredicate(pred.to_string()))?;
        if tuple.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                predicate: pred.to_string(),
                expected: rel.arity(),
                found: tuple.arity(),
            });
        }
        Ok(rel.remove(tuple))
    }

    /// The relation stored for a predicate.
    pub fn relation(&self, pred: &str) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// Total number of stored facts.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Aggregate access-path counters over all relations:
    /// `(index_probes, full_scans)`. The engine reports deltas of these
    /// as the `index_probes` / `full_scans` observability counters.
    pub fn access_stats(&self) -> (u64, u64) {
        self.relations.values().fold((0, 0), |(p, s), r| {
            (p + r.index_probes(), s + r.full_scans())
        })
    }

    /// Adopts the column indexes demand-built on `other` (typically the
    /// previously published snapshot of this database) into the matching
    /// relations here (see [`Relation::adopt_demand`]). Readers of the
    /// last epoch thereby seed the indexes of the next.
    pub fn adopt_index_demand(&mut self, other: &Edb) {
        for (name, rel) in &other.relations {
            if let Some(mine) = self.relations.get_mut(name) {
                mine.adopt_demand(rel);
            }
        }
    }

    /// Read-only introspection for the O(Δ) guarantees: how many storage
    /// pieces (tuple segments and index shards, see
    /// [`Relation::unshared_pieces`]) of this database are not shared with
    /// `other` — for a database and an earlier clone of it, what the
    /// writes in between copied. Relations `other` lacks count whole.
    pub fn unshared_pieces(&self, other: &Edb) -> usize {
        self.relations
            .iter()
            .map(|(name, rel)| {
                let empty;
                let theirs = match other.relations.get(name) {
                    Some(r) => r,
                    None => {
                        empty = Relation::new(name.clone(), rel.arity());
                        &empty
                    }
                };
                rel.unshared_pieces(theirs)
            })
            .sum()
    }

    /// A statistics snapshot of the stored relations for the engine's
    /// cost model: per relation one `len()` and one reference bump on its
    /// distinct-value estimate, cheap enough to retake for every query. A
    /// relation with no current estimate is measured first (see
    /// [`Relation::distinct`]).
    pub fn stats(&self) -> crate::catalog::CatalogStats {
        crate::catalog::CatalogStats::from_relations(self.relations.values())
    }

    /// Extends `subst` in all ways that make `atom` true against the stored
    /// facts, appending each extension to `out`.
    ///
    /// For a built-in atom this evaluates the comparison if ground (a
    /// still-variable comparison is an error here — callers order body
    /// literals so built-ins are evaluated last).
    pub fn match_atom(&self, atom: &Atom, subst: &Bindings, out: &mut Vec<Bindings>) -> Result<()> {
        if atom.is_builtin() {
            match builtins::eval_atom(atom, subst)? {
                Some(true) => out.push(subst.clone()),
                Some(false) => {}
                None => {
                    return Err(StorageError::NotGround(format!(
                        "comparison not decidable yet: {}",
                        subst.apply_atom(atom)
                    )))
                }
            }
            return Ok(());
        }
        let rel = self
            .relations
            .get(&atom.pred)
            .ok_or_else(|| StorageError::UnknownPredicate(atom.pred.to_string()))?;
        if atom.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                predicate: atom.pred.to_string(),
                expected: rel.arity(),
                found: atom.arity(),
            });
        }
        // Build the selection pattern from the bound positions.
        let resolved: Vec<Term> = atom.args.iter().map(|t| subst.apply_term(t)).collect();
        let pattern: Vec<Option<Value>> = resolved.iter().map(|t| t.as_const().cloned()).collect();
        let mut s = subst.clone();
        let mark = s.mark();
        'tuples: for tuple in rel.select(&pattern) {
            s.undo_to(mark);
            for (term, value) in resolved.iter().zip(tuple.values()) {
                match s.resolve(term) {
                    Term::Const(c) => {
                        if c != value {
                            continue 'tuples;
                        }
                    }
                    Term::Var(w) => {
                        let w = w.clone();
                        s.bind(w, Term::Const(value.clone()));
                    }
                }
            }
            out.push(s.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_atom;

    fn db() -> Edb {
        let mut edb = Edb::new();
        edb.declare("student", &["Sname", "Major", "Gpa"]).unwrap();
        edb.declare("enroll", &["Sname", "Ctitle"]).unwrap();
        for f in [
            "student(ann, math, 3.9)",
            "student(bob, physics, 3.5)",
            "student(cara, math, 3.8)",
            "enroll(ann, databases)",
            "enroll(bob, databases)",
        ] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        edb
    }

    #[test]
    fn declaration_and_insertion() {
        let edb = db();
        assert_eq!(edb.fact_count(), 5);
        assert_eq!(edb.relation("student").unwrap().len(), 3);
        assert!(edb.is_edb_predicate("student"));
        assert!(!edb.is_edb_predicate("honor"));
    }

    #[test]
    fn reserved_and_unknown_predicates() {
        let mut edb = Edb::new();
        assert!(matches!(
            edb.declare("=", &["A", "B"]),
            Err(StorageError::ReservedPredicate(_))
        ));
        assert!(matches!(
            edb.insert_fact(&parse_atom("ghost(a)").unwrap()),
            Err(StorageError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn non_ground_fact_rejected() {
        let mut edb = db();
        assert!(matches!(
            edb.insert_fact(&parse_atom("enroll(X, databases)").unwrap()),
            Err(StorageError::NotGround(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut edb = db();
        assert!(matches!(
            edb.insert_fact(&parse_atom("enroll(ann)").unwrap()),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn match_atom_unbound_variable() {
        let edb = db();
        let mut out = Vec::new();
        edb.match_atom(
            &parse_atom("enroll(X, databases)").unwrap(),
            &Bindings::new(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn match_atom_respects_existing_bindings() {
        let edb = db();
        let s: Bindings = [(qdk_logic::Var::new("X"), Term::sym("ann"))]
            .into_iter()
            .collect();
        let mut out = Vec::new();
        edb.match_atom(&parse_atom("enroll(X, C)").unwrap(), &s, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].apply_term(&Term::var("C")), Term::sym("databases"));
    }

    #[test]
    fn match_atom_repeated_variable() {
        let mut edb = Edb::new();
        edb.declare("pair", &["A", "B"]).unwrap();
        edb.insert_fact(&parse_atom("pair(a, a)").unwrap()).unwrap();
        edb.insert_fact(&parse_atom("pair(a, b)").unwrap()).unwrap();
        let mut out = Vec::new();
        edb.match_atom(
            &parse_atom("pair(X, X)").unwrap(),
            &Bindings::new(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].apply_term(&Term::var("X")), Term::sym("a"));
    }

    #[test]
    fn match_builtin_ground_and_undecidable() {
        let edb = db();
        let mut out = Vec::new();
        let s: Bindings = [(qdk_logic::Var::new("Z"), Term::num(3.9))]
            .into_iter()
            .collect();
        edb.match_atom(&parse_atom("(Z > 3.7)").unwrap(), &s, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        // False comparison adds nothing.
        let s2: Bindings = [(qdk_logic::Var::new("Z"), Term::num(3.0))]
            .into_iter()
            .collect();
        edb.match_atom(&parse_atom("(Z > 3.7)").unwrap(), &s2, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        // Undecidable comparison errors.
        assert!(edb
            .match_atom(
                &parse_atom("(Z > 3.7)").unwrap(),
                &Bindings::new(),
                &mut out
            )
            .is_err());
    }

    #[test]
    fn duplicate_fact_insert_returns_false() {
        let mut edb = db();
        assert!(!edb
            .insert_fact(&parse_atom("enroll(ann, databases)").unwrap())
            .unwrap());
    }
}
