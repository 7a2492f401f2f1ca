//! Predicate declarations.

use crate::relation::Relation;
use qdk_logic::Sym;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A predicate schema: its name and attribute names.
///
/// The paper writes schemas as `student(Sname, Major, Gpa)` (§2.2);
/// attribute names are used for display and documentation and to fix the
/// predicate's arity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Predicate name.
    pub name: Sym,
    /// Attribute names, one per argument position.
    pub attrs: Vec<Sym>,
}

impl Schema {
    /// Creates a schema from a name and attribute names.
    pub fn new(name: &str, attrs: &[&str]) -> Self {
        Schema {
            name: Sym::new(name),
            attrs: attrs.iter().map(|a| Sym::new(a)).collect(),
        }
    }

    /// The predicate's arity.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A statistics snapshot of the stored relations — each one's
/// cardinality and per-column distinct-value estimate — taken at
/// plan-compile time so the engine's cost model can order joins by
/// estimated selectivity without touching live relations during
/// execution.
///
/// Kept in a `BTreeMap` so iteration (and therefore anything derived from
/// it, like explain output) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    rels: BTreeMap<Sym, RelStats>,
    total: usize,
}

/// One relation's entry in a [`CatalogStats`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct RelStats {
    card: usize,
    /// Distinct values per column, shared with the relation that measured
    /// them; `None` when the snapshot was built from cardinalities alone.
    distinct: Option<Arc<[u32]>>,
}

impl CatalogStats {
    /// Builds a snapshot from `(predicate, cardinality)` pairs, with no
    /// distinct-value estimates.
    pub fn from_cards(cards: impl IntoIterator<Item = (Sym, usize)>) -> Self {
        CatalogStats::build(cards.into_iter().map(|(pred, card)| {
            (
                pred,
                RelStats {
                    card,
                    distinct: None,
                },
            )
        }))
    }

    /// Builds a snapshot of stored relations: each one's live row count
    /// and its [`Relation::distinct`] estimate (measured now if the
    /// relation holds none; otherwise a reference bump).
    pub fn from_relations<'a>(rels: impl IntoIterator<Item = &'a Relation>) -> Self {
        CatalogStats::build(rels.into_iter().map(|r| {
            (
                r.name().clone(),
                RelStats {
                    card: r.len(),
                    distinct: Some(r.distinct()),
                },
            )
        }))
    }

    fn build(rels: impl Iterator<Item = (Sym, RelStats)>) -> Self {
        let rels: BTreeMap<Sym, RelStats> = rels.collect();
        let total = rels.values().map(|r| r.card).sum();
        CatalogStats { rels, total }
    }

    /// The stored cardinality of a predicate, or `None` if it is not a
    /// stored (EDB) predicate.
    pub fn cardinality(&self, pred: &str) -> Option<usize> {
        self.rels.get(pred).map(|r| r.card)
    }

    /// The estimated number of distinct values in column `col` of a
    /// stored predicate, or `None` when the snapshot has no estimate for
    /// it (a derived predicate, a snapshot built by
    /// [`from_cards`](CatalogStats::from_cards), or a column out of range).
    pub fn distinct(&self, pred: &str, col: usize) -> Option<u32> {
        self.rels.get(pred)?.distinct.as_ref()?.get(col).copied()
    }

    /// Total stored facts across all relations (the cost model's default
    /// estimate for derived predicates, whose sizes are unknown before
    /// the fixpoint runs).
    pub fn total_facts(&self) -> usize {
        self.total
    }

    /// True if the snapshot covers no predicates.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }
}

/// The set of declared EDB predicates.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    schemas: BTreeMap<Sym, Schema>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds (or replaces) a schema. Returns the previous schema of the same
    /// name, if any.
    pub fn declare(&mut self, schema: Schema) -> Option<Schema> {
        self.schemas.insert(schema.name.clone(), schema)
    }

    /// Looks up a schema by predicate name.
    pub fn get(&self, name: &str) -> Option<&Schema> {
        self.schemas.get(name)
    }

    /// True if the predicate is declared.
    pub fn contains(&self, name: &str) -> bool {
        self.schemas.contains_key(name)
    }

    /// Iterates over schemas in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Schema> {
        self.schemas.values()
    }

    /// Number of declared predicates.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True if no predicates are declared.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut c = Catalog::new();
        c.declare(Schema::new("student", &["Sname", "Major", "Gpa"]));
        assert!(c.contains("student"));
        assert_eq!(c.get("student").unwrap().arity(), 3);
        assert!(!c.contains("professor"));
    }

    #[test]
    fn redeclare_returns_previous() {
        let mut c = Catalog::new();
        assert!(c.declare(Schema::new("p", &["A"])).is_none());
        let prev = c.declare(Schema::new("p", &["A", "B"])).unwrap();
        assert_eq!(prev.arity(), 1);
        assert_eq!(c.get("p").unwrap().arity(), 2);
    }

    #[test]
    fn display_matches_paper_style() {
        let s = Schema::new("student", &["Sname", "Major", "Gpa"]);
        assert_eq!(s.to_string(), "student(Sname, Major, Gpa)");
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = Catalog::new();
        c.declare(Schema::new("teach", &["Pname", "Ctitle"]));
        c.declare(Schema::new("course", &["Ctitle", "Units"]));
        let names: Vec<_> = c.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names, ["course", "teach"]);
        assert_eq!(c.len(), 2);
    }
}
