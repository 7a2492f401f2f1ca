//! Describe-answer caching with subsumption-driven invalidation.
//!
//! A `describe` answer depends only on the IDB rules and integrity
//! constraints — never on stored facts — so knowledge answers can survive
//! arbitrary fact churn untouched. What *does* invalidate them is a
//! change to the rule set, and even then only selectively: each cached
//! entry records the predicate closure its subject could reach when the
//! answer was computed, and a new rule evicts exactly the entries whose
//! closure contains the rule's head. One refinement comes from the
//! θ-subsumption machinery of [`crate::redundancy`]: a new rule that is
//! subsumed by an existing rule with the same head can contribute no new
//! theorems (redundancy elimination would discard anything it produced),
//! so entries survive it — the caller performs that check, since it owns
//! the IDB, and reports it through the `redundant` flag.
//!
//! Entries are bucketed by subject predicate, so invalidation scans one
//! bucket's closures instead of every cached answer. Answers are held
//! behind an `Arc`: a hit hands out a reference, not a copy.

use crate::answer::DescribeAnswer;
use qdk_logic::Sym;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

/// Soft cap on cached entries; the oldest entry in the fullest bucket is
/// dropped when reached (of equally full buckets, the one whose oldest
/// entry was inserted first). Knowledge answers are small (rules, not data),
/// so the cap exists only to bound a pathological workload.
const MAX_ENTRIES: usize = 256;

/// One cached describe answer.
#[derive(Clone, Debug)]
struct Entry {
    /// Full cache key: the rendered describe statement plus an options
    /// fingerprint (answers vary with fallback/transform policies).
    key: String,
    /// The predicates the subject could reach through the rule set when
    /// the answer was computed — the invalidation footprint.
    closure: Vec<Sym>,
    answer: Arc<DescribeAnswer>,
    /// Insertion sequence number: orders entries across buckets.
    seq: u64,
}

/// Cumulative cache counters, exposed so mutation reports can show how
/// many knowledge answers survived a change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached answer.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by rule or constraint changes.
    pub evicted: u64,
    /// Entries that survived a rule change because the new rule was
    /// subsumed by an existing one.
    pub survived: u64,
}

/// A cache of complete describe answers, bucketed by subject predicate
/// and invalidated through predicate closures (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct DescribeCache {
    buckets: HashMap<String, Vec<Entry>>,
    len: usize,
    /// The next entry's sequence number.
    next_seq: u64,
    stats: CacheStats,
}

impl DescribeCache {
    /// An empty cache.
    pub fn new() -> Self {
        DescribeCache::default()
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the answer cached under `key` for `subject_pred`, counting
    /// a hit or miss.
    pub fn get(&mut self, subject_pred: &str, key: &str) -> Option<Arc<DescribeAnswer>> {
        let found = self
            .buckets
            .get(subject_pred)
            .and_then(|b| b.iter().find(|e| e.key == key))
            .map(|e| Arc::clone(&e.answer));
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Caches `answer` under `key`, recording the subject's predicate
    /// `closure` for invalidation. Replaces an existing entry with the
    /// same key.
    pub fn insert(
        &mut self,
        subject_pred: &str,
        key: String,
        closure: Vec<Sym>,
        answer: impl Into<Arc<DescribeAnswer>>,
    ) {
        let answer = answer.into();
        if let Some(e) = self
            .buckets
            .get_mut(subject_pred)
            .and_then(|b| b.iter_mut().find(|e| e.key == key))
        {
            e.closure = closure;
            e.answer = answer;
            return;
        }
        if self.len >= MAX_ENTRIES {
            self.drop_oldest();
        }
        let bucket = self.buckets.entry(subject_pred.to_string()).or_default();
        bucket.push(Entry {
            key,
            closure,
            answer,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        self.len += 1;
    }

    /// Drops the oldest entry of the fullest bucket. Ties go by the age of
    /// each bucket's oldest entry, never by the map's iteration order, so
    /// what is evicted depends on the statements cached alone.
    fn drop_oldest(&mut self) {
        if let Some(bucket) = self
            .buckets
            .values_mut()
            .filter(|b| !b.is_empty())
            .max_by_key(|b| (b.len(), Reverse(b[0].seq)))
        {
            bucket.remove(0);
            self.len -= 1;
        }
    }

    /// Applies a rule addition whose head is `head`. When `redundant` is
    /// true (the caller proved the new rule θ-subsumed by an existing
    /// same-head rule) every entry survives; otherwise entries whose
    /// closure contains `head` are evicted. Returns
    /// `(survived, evicted)` counts over the affected entries.
    pub fn rule_added(&mut self, head: &str, redundant: bool) -> (usize, usize) {
        let mut survived = 0;
        let mut evicted = 0;
        for bucket in self.buckets.values_mut() {
            bucket.retain(|e| {
                if !e.closure.iter().any(|p| p.as_str() == head) {
                    return true;
                }
                if redundant {
                    survived += 1;
                    true
                } else {
                    evicted += 1;
                    false
                }
            });
        }
        self.len -= evicted;
        self.stats.survived += survived as u64;
        self.stats.evicted += evicted as u64;
        (survived, evicted)
    }

    /// Applies a constraint addition mentioning `preds`: evicts every
    /// entry whose closure intersects them (constraint reasoning prunes
    /// describe answers, so any reachable predicate can change the
    /// theorem set). Returns how many entries were evicted.
    pub fn constraint_added(&mut self, preds: &[Sym]) -> usize {
        let mut evicted = 0;
        for bucket in self.buckets.values_mut() {
            bucket.retain(|e| {
                if e.closure.iter().any(|p| preds.contains(p)) {
                    evicted += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.len -= evicted;
        self.stats.evicted += evicted as u64;
        evicted
    }

    /// Drops every entry (counters survive).
    pub fn clear(&mut self) {
        let dropped = self.len;
        self.buckets.clear();
        self.len = 0;
        self.stats.evicted += dropped as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> DescribeAnswer {
        DescribeAnswer::default()
    }

    fn syms(names: &[&str]) -> Vec<Sym> {
        names.iter().map(|n| Sym::new(n)).collect()
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = DescribeCache::new();
        assert!(c.get("p", "describe p|k1").is_none());
        c.insert("p", "describe p|k1".into(), syms(&["p", "q"]), answer());
        assert!(c.get("p", "describe p|k1").is_some());
        assert!(c.get("p", "describe p|k2").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn rule_on_closure_predicate_evicts() {
        let mut c = DescribeCache::new();
        c.insert("p", "k".into(), syms(&["p", "q"]), answer());
        c.insert("r", "k".into(), syms(&["r"]), answer());
        let (survived, evicted) = c.rule_added("q", false);
        assert_eq!((survived, evicted), (0, 1));
        assert!(c.get("p", "k").is_none());
        assert!(c.get("r", "k").is_some());
    }

    #[test]
    fn subsumed_rule_lets_entries_survive() {
        let mut c = DescribeCache::new();
        c.insert("p", "k".into(), syms(&["p", "q"]), answer());
        let (survived, evicted) = c.rule_added("q", true);
        assert_eq!((survived, evicted), (1, 0));
        assert!(c.get("p", "k").is_some());
    }

    #[test]
    fn constraint_evicts_intersecting_closures() {
        let mut c = DescribeCache::new();
        c.insert("p", "k".into(), syms(&["p", "q"]), answer());
        c.insert("r", "k".into(), syms(&["r"]), answer());
        assert_eq!(c.constraint_added(&syms(&["q"])), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_tie_evicts_the_bucket_whose_oldest_entry_is_oldest() {
        let mut c = DescribeCache::new();
        // Fill to the cap with two-entry buckets, oldest first.
        for i in 0..MAX_ENTRIES {
            c.insert(
                &format!("p{}", i / 2),
                format!("k{i}"),
                syms(&["p"]),
                answer(),
            );
        }
        c.insert("q", "k".into(), syms(&["q"]), answer());
        assert_eq!(c.len(), MAX_ENTRIES);
        assert!(c.get("p0", "k0").is_none(), "p0's oldest entry goes");
        assert!(c.get("p0", "k1").is_some());
        assert!(c.get("p1", "k2").is_some());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut c = DescribeCache::new();
        for i in 0..(MAX_ENTRIES + 10) {
            c.insert("p", format!("k{i}"), syms(&["p"]), answer());
        }
        assert!(c.len() <= MAX_ENTRIES);
    }
}
