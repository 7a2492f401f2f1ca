//! Segmented append-only tuple storage with structural sharing.
//!
//! A [`TupleStore`] keeps its rows in fixed-size segments, each behind an
//! `Arc`. Cloning a store (the heart of epoch snapshots — see
//! [`epoch`](crate::epoch)) clones only the segment *handles*; the rows
//! themselves are shared between the writer and every snapshot. After a
//! clone, the first append copies just the partially filled tail segment
//! (at most `SEG_LEN - 1` rows); all full segments stay shared forever,
//! so the cost of an epoch is proportional to the batch, not the store.
//!
//! Row ids are dense and insertion-ordered, exactly as when the store was
//! a plain `Vec<Tuple>`, so index buckets of ascending ids, delta windows,
//! and the determinism contract are unchanged.

use crate::tuple::Tuple;
use std::sync::Arc;

/// Log2 of the segment length: 512 rows per segment.
const SEG_BITS: usize = 9;
/// Rows per segment.
const SEG_LEN: usize = 1 << SEG_BITS;

/// An append-only, insertion-ordered tuple sequence stored in `Arc`-shared
/// segments. Supports O(1) access by dense row id and cheap cloning with
/// copy-on-write appends.
#[derive(Clone, Debug, Default)]
pub(crate) struct TupleStore {
    segs: Vec<Arc<Vec<Tuple>>>,
    len: usize,
}

impl TupleStore {
    /// Number of stored rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True if no rows are stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row at the next dense id. Copies the tail segment first
    /// if a snapshot still shares it.
    pub(crate) fn push(&mut self, t: Tuple) {
        if self.len.is_multiple_of(SEG_LEN) {
            self.segs.push(Arc::new(Vec::with_capacity(SEG_LEN)));
        }
        let tail = self
            .segs
            .last_mut()
            .expect("tuple store tail segment exists after push check");
        Arc::make_mut(tail).push(t);
        self.len += 1;
    }

    /// The row stored at id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= len()`.
    pub(crate) fn get(&self, id: u32) -> &Tuple {
        let i = id as usize;
        debug_assert!(i < self.len, "row id {i} out of range (len {})", self.len);
        &self.segs[i >> SEG_BITS][i & (SEG_LEN - 1)]
    }

    /// Iterates all rows in id order.
    pub(crate) fn iter(&self) -> TupleIter<'_> {
        TupleIter {
            outer: self.segs.iter(),
            inner: [].iter(),
        }
    }

    /// Iterates the rows with ids in `start..end` (callers clamp).
    pub(crate) fn iter_range(&self, start: usize, end: usize) -> impl Iterator<Item = &Tuple> {
        debug_assert!(start <= end && end <= self.len, "window out of range");
        (start..end).map(move |i| self.get(i as u32))
    }

    /// Drops every row.
    pub(crate) fn clear(&mut self) {
        self.segs.clear();
        self.len = 0;
    }
}

/// Iterator over a `TupleStore`'s rows in id order (also the iterator
/// type of `&Relation`).
#[derive(Clone, Debug)]
pub struct TupleIter<'a> {
    outer: std::slice::Iter<'a, Arc<Vec<Tuple>>>,
    inner: std::slice::Iter<'a, Tuple>,
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(t) = self.inner.next() {
                return Some(t);
            }
            match self.outer.next() {
                Some(seg) => self.inner = seg.iter(),
                None => return None,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest: usize = self.outer.clone().map(|s| s.len()).sum();
        let n = self.inner.len() + rest;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    #[test]
    fn push_get_iter_across_segment_boundaries() {
        let mut s = TupleStore::default();
        let n = SEG_LEN * 2 + 7;
        for i in 0..n {
            s.push(row(i as i64));
        }
        assert_eq!(s.len(), n);
        assert!(!s.is_empty());
        assert_eq!(s.get(0), &row(0));
        assert_eq!(s.get((SEG_LEN - 1) as u32), &row(SEG_LEN as i64 - 1));
        assert_eq!(s.get(SEG_LEN as u32), &row(SEG_LEN as i64));
        assert_eq!(s.get((n - 1) as u32), &row(n as i64 - 1));
        let all: Vec<i64> = s
            .iter()
            .map(|t| match t.get(0) {
                Some(Value::Int(i)) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect();
        assert_eq!(all, (0..n as i64).collect::<Vec<_>>());
        assert_eq!(s.iter().size_hint(), (n, Some(n)));
        let window: Vec<&Tuple> = s.iter_range(SEG_LEN - 2, SEG_LEN + 2).collect();
        assert_eq!(
            window,
            vec![
                &row(SEG_LEN as i64 - 2),
                &row(SEG_LEN as i64 - 1),
                &row(SEG_LEN as i64),
                &row(SEG_LEN as i64 + 1),
            ]
        );
    }

    #[test]
    fn clones_share_full_segments_and_copy_only_the_tail() {
        let mut s = TupleStore::default();
        for i in 0..(SEG_LEN + 3) {
            s.push(row(i as i64));
        }
        let snap = s.clone();
        // Appending to the original copies only the (shared) tail segment.
        s.push(row(-1));
        assert!(
            Arc::ptr_eq(&s.segs[0], &snap.segs[0]),
            "full segment shared"
        );
        assert!(
            !Arc::ptr_eq(&s.segs[1], &snap.segs[1]),
            "tail copied on write"
        );
        assert_eq!(snap.len(), SEG_LEN + 3);
        assert_eq!(s.len(), SEG_LEN + 4);
        assert_eq!(s.get((SEG_LEN + 3) as u32), &row(-1));
        // The snapshot never sees the append.
        assert_eq!(snap.iter().count(), SEG_LEN + 3);
    }

    #[test]
    fn clear_resets_and_reuse_works() {
        let mut s = TupleStore::default();
        s.push(row(1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        s.push(row(2));
        assert_eq!(s.get(0), &row(2));
    }
}
