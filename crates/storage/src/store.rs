//! Segmented tuple storage with stable row ids and structural sharing.
//!
//! A [`TupleStore`] hands out row ids in insertion order and never
//! reuses or renumbers one until it is [compacted](TupleStore::compacted).
//! Rows live in fixed-size segments of [`SEG_LEN`] slots, each behind an
//! `Arc` in a copy-on-write [`Pieces`] directory, so cloning a store (the
//! heart of epoch snapshots — see [`epoch`](crate::epoch)) bumps one
//! reference count, and a write after the clone copies only what it
//! lands in: the tail segment for an append, and for a removal the
//! 64-byte tombstone bitmap of the row's segment.
//!
//! Removal *tombstones* a row — it sets the row's tombstone bit and keeps
//! the slot — so the ids of every other row, and therefore every index
//! posting list and delta window over them, stay valid. Two counts follow:
//! [`len`](TupleStore::len) is the live rows, [`high_water`](TupleStore::high_water)
//! one past the largest id handed out; id windows (deltas) range over the
//! latter. Iteration skips tombstones, so the live rows come back in
//! insertion order — exactly the order a compacting store would give.

use crate::pieces::Pieces;
use crate::tuple::Tuple;
use qdk_logic::fasthash::mix;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Log2 of the segment length.
const SEG_BITS: usize = 9;
/// Rows per segment: a segment a write after a snapshot copies is a few
/// kilobytes of row handles, and its tombstone bits fit eight words.
pub(crate) const SEG_LEN: usize = 1 << SEG_BITS;
/// Words in a segment's tombstone bitmap.
const TOMB_WORDS: usize = SEG_LEN / 64;

/// The tombstone bits of one segment. Kept apart from the rows so a
/// removal after a snapshot copies these 64 bytes, not the segment.
#[derive(Clone, Debug, Default)]
struct Tombs {
    bits: [u64; TOMB_WORDS],
}

impl Tombs {
    fn has(&self, slot: usize) -> bool {
        self.bits[slot / 64] & (1 << (slot % 64)) != 0
    }
}

/// An insertion-ordered tuple sequence with stable ids and tombstones,
/// stored in `Arc`-shared segments (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct TupleStore {
    segs: Pieces<Vec<Tuple>>,
    /// Tombstone bitmaps, one per segment up to the last one holding a
    /// tombstone (a store nothing was removed from has none).
    tombs: Pieces<Tombs>,
    high_water: usize,
    live: usize,
}

impl TupleStore {
    /// Number of live rows.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// True if no row is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One past the largest row id handed out (live or tombstoned).
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of tombstoned rows.
    pub(crate) fn dead(&self) -> usize {
        self.high_water - self.live
    }

    /// Appends a row at the next id and returns it. Copies the tail
    /// segment first if a snapshot still shares it.
    pub(crate) fn push(&mut self, t: Tuple) -> u32 {
        let id = self.high_water;
        if id.is_multiple_of(SEG_LEN) {
            self.segs.push(Vec::with_capacity(SEG_LEN));
        }
        let last = self.segs.len() - 1;
        self.segs.make_mut(last).push(t);
        self.high_water += 1;
        self.live += 1;
        id as u32
    }

    /// The row stored at id `id` (callers pass ids of live rows: index
    /// postings never hold a tombstoned id).
    ///
    /// # Panics
    ///
    /// Panics if `id >= high_water()`.
    pub(crate) fn get(&self, id: u32) -> &Tuple {
        let i = id as usize;
        &self.segs.get(i >> SEG_BITS)[i & (SEG_LEN - 1)]
    }

    /// True if row `id` is tombstoned.
    fn is_dead(&self, id: usize) -> bool {
        self.tombs
            .as_slice()
            .get(id >> SEG_BITS)
            .is_some_and(|t| t.has(id & (SEG_LEN - 1)))
    }

    /// Tombstones the live row `id` (copying its segment's bitmap, not the
    /// segment, if a snapshot shares it).
    pub(crate) fn kill(&mut self, id: u32) {
        let i = id as usize;
        debug_assert!(!self.is_dead(i), "row {id} tombstoned twice");
        let seg = i >> SEG_BITS;
        while self.tombs.len() <= seg {
            self.tombs.push(Tombs::default());
        }
        let slot = i & (SEG_LEN - 1);
        self.tombs.make_mut(seg).bits[slot / 64] |= 1 << (slot % 64);
        self.live -= 1;
    }

    /// Iterates the live rows in id order.
    pub(crate) fn iter(&self) -> TupleIter<'_> {
        self.iter_range(0, self.high_water)
    }

    /// Iterates the live rows with ids in `start..end` (callers clamp).
    pub(crate) fn iter_range(&self, start: usize, end: usize) -> TupleIter<'_> {
        debug_assert!(
            start <= end && end <= self.high_water,
            "window out of range"
        );
        let mut it = TupleIter {
            rows: [].iter(),
            tombs: None,
            slot: 0,
            segs: self.segs.as_slice(),
            all_tombs: self.tombs.as_slice(),
            next_seg: 0,
            end,
            exact: self.dead() == 0,
        };
        if start < end {
            let seg = start >> SEG_BITS;
            it.enter(seg, start & (SEG_LEN - 1));
        } else {
            it.next_seg = it.segs.len();
        }
        it
    }

    /// The live ids in order.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.high_water)
            .filter(|&i| !self.is_dead(i))
            .map(|i| i as u32)
    }

    /// The ids of `r` live rows picked by a hash of the row id (every live
    /// row when `r >= len`), ascending: the `r` whose [`mix`]ed id is
    /// smallest. A hash ignores the rows' order, so a column whose values
    /// cycle through the ids is sampled like any other; an even stride
    /// sharing a factor with the cycle would see a fraction of its values.
    /// Walks the tombstone bits, not the rows.
    pub(crate) fn sampled_live(&self, r: usize) -> Vec<u32> {
        if r >= self.live {
            return self.live_ids().collect();
        }
        let mut kept: BinaryHeap<(u64, u32)> = BinaryHeap::with_capacity(r + 1);
        for id in self.live_ids() {
            kept.push((mix(u64::from(id)), id));
            if kept.len() > r {
                kept.pop();
            }
        }
        let mut ids: Vec<u32> = kept.into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// A dense copy holding the live rows in order, plus the map from old
    /// id to new (`u32::MAX` for tombstones). Monotone, so posting lists
    /// remapped through it stay ascending.
    pub(crate) fn compacted(&self) -> (TupleStore, Vec<u32>) {
        let mut remap = vec![u32::MAX; self.high_water];
        let mut fresh = TupleStore::default();
        for id in self.live_ids() {
            remap[id as usize] = fresh.push(self.get(id).clone());
        }
        (fresh, remap)
    }

    /// Drops every row and resets the ids.
    pub(crate) fn clear(&mut self) {
        *self = TupleStore::default();
    }

    /// How many segments and tombstone bitmaps are not the very pieces
    /// `other` holds at the same position.
    pub(crate) fn unshared_with(&self, other: &TupleStore) -> usize {
        self.segs.unshared_with(&other.segs) + self.tombs.unshared_with(&other.tombs)
    }
}

/// Iterator over a relation's live rows in id order (also the iterator
/// type of `&Relation`).
#[derive(Clone, Debug)]
pub struct TupleIter<'a> {
    /// The rows of the segment being walked, from `slot` up to the end of
    /// the window, and that segment's tombstones (`None`: it has none).
    rows: std::slice::Iter<'a, Tuple>,
    tombs: Option<&'a Tombs>,
    slot: usize,
    segs: &'a [Arc<Vec<Tuple>>],
    all_tombs: &'a [Arc<Tombs>],
    /// The segment after the one being walked.
    next_seg: usize,
    end: usize,
    /// No tombstone anywhere in the store: the id count is the row count.
    exact: bool,
}

impl<'a> TupleIter<'a> {
    /// Starts walking segment `seg` at `slot`.
    fn enter(&mut self, seg: usize, slot: usize) {
        let rows = &self.segs[seg];
        let hi = (self.end - (seg << SEG_BITS)).min(rows.len());
        self.rows = rows[slot..hi].iter();
        self.tombs = self.all_tombs.get(seg).map(|t| &**t);
        self.slot = slot;
        self.next_seg = seg + 1;
    }
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(t) = self.rows.next() {
                let slot = self.slot;
                self.slot += 1;
                if self.tombs.is_some_and(|d| d.has(slot)) {
                    continue;
                }
                return Some(t);
            }
            if self.next_seg >= self.segs.len() || self.next_seg << SEG_BITS >= self.end {
                return None;
            }
            self.enter(self.next_seg, 0);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let later = self.end.saturating_sub(self.next_seg << SEG_BITS);
        let ids = self.rows.len() + later;
        (if self.exact { ids } else { 0 }, Some(ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    fn ints(it: TupleIter<'_>) -> Vec<i64> {
        it.map(|t| match t.get(0) {
            Some(Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
    }

    #[test]
    fn push_get_iter_across_segment_boundaries() {
        let mut s = TupleStore::default();
        let n = SEG_LEN * 2 + 7;
        for i in 0..n {
            assert_eq!(s.push(row(i as i64)), i as u32);
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.high_water(), n);
        assert!(!s.is_empty());
        assert_eq!(s.get(0), &row(0));
        assert_eq!(s.get(SEG_LEN as u32), &row(SEG_LEN as i64));
        assert_eq!(s.get((n - 1) as u32), &row(n as i64 - 1));
        assert_eq!(ints(s.iter()), (0..n as i64).collect::<Vec<_>>());
        assert_eq!(
            ints(s.iter_range(SEG_LEN - 2, SEG_LEN + 2)),
            vec![
                SEG_LEN as i64 - 2,
                SEG_LEN as i64 - 1,
                SEG_LEN as i64,
                SEG_LEN as i64 + 1
            ]
        );
    }

    #[test]
    fn tombstones_keep_ids_and_skip_in_iteration() {
        let mut s = TupleStore::default();
        for i in 0..10 {
            s.push(row(i));
        }
        s.kill(3);
        s.kill(0);
        assert_eq!((s.len(), s.high_water(), s.dead()), (8, 10, 2));
        assert_eq!(ints(s.iter()), vec![1, 2, 4, 5, 6, 7, 8, 9]);
        assert_eq!(ints(s.iter_range(2, 5)), vec![2, 4]);
        // Surviving ids are untouched; a re-insert appends.
        assert_eq!(s.get(4), &row(4));
        assert_eq!(s.push(row(3)), 10);
        let (dense, remap) = s.compacted();
        assert_eq!(ints(dense.iter()), ints(s.iter()));
        assert_eq!((dense.len(), dense.high_water()), (9, 9));
        assert_eq!(remap[0], u32::MAX);
        assert_eq!(remap[4], 2);
        assert_eq!(remap[10], 8);
    }

    #[test]
    fn clones_share_segments_and_copy_only_the_touched_one() {
        let mut s = TupleStore::default();
        for i in 0..(SEG_LEN * 2 + 3) {
            s.push(row(i as i64));
        }
        let snap = s.clone();
        s.push(row(-1));
        assert_eq!(s.unshared_with(&snap), 1, "only the tail is copied");
        s.kill(1);
        assert_eq!(
            s.unshared_with(&snap),
            2,
            "a removal adds one tombstone bitmap, not a segment copy"
        );
        assert_eq!(snap.len(), SEG_LEN * 2 + 3);
        assert_eq!(snap.iter().count(), SEG_LEN * 2 + 3);
        assert_eq!(s.iter().count(), SEG_LEN * 2 + 3);
    }

    #[test]
    fn sampled_live_rows_are_live_distinct_and_ascending() {
        let mut s = TupleStore::default();
        for i in 0..(SEG_LEN * 3) {
            s.push(row(i as i64));
        }
        let picked = s.sampled_live(100);
        assert_eq!(picked.len(), 100);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        // Spread over the whole id range, not a prefix.
        assert!(picked.iter().any(|&id| id as usize >= SEG_LEN * 2));
        // Tombstone every other row of the first two segments: only live
        // rows are picked, and the pick is the same every time.
        for i in (0..SEG_LEN * 2).step_by(2) {
            s.kill(i as u32);
        }
        let picked = s.sampled_live(100);
        assert_eq!(picked.len(), 100);
        assert!(picked.iter().all(|&id| !s.is_dead(id as usize)));
        assert_eq!(s.sampled_live(100), picked);
        let live: Vec<u32> = s.live_ids().collect();
        assert_eq!(s.sampled_live(live.len()), live);
        assert_eq!(s.sampled_live(live.len() + 5), live);
    }

    #[test]
    fn clear_resets_and_reuse_works() {
        let mut s = TupleStore::default();
        s.push(row(1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.push(row(2)), 0);
        assert_eq!(s.get(0), &row(2));
    }
}
