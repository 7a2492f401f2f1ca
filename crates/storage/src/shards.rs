//! Hash maps split into `Arc`-shared shards.
//!
//! A [`HashShards`] is the map behind a relation's presence set and each
//! of its indexes. Entries are keyed by the full 64-bit hash the caller
//! computed once for the lookup; the same hash picks the shard (bits
//! 32.., clear of the bits the table itself uses) and then probes the
//! shard's table through an identity hasher, so no key is hashed twice.
//! Two different keys with one hash are rare but legal: the second waits
//! in its shard's `spill` list, and every lookup confirms its key with the
//! caller's predicate.
//!
//! The map starts as one shard and doubles its shard count whenever the
//! average shard would exceed [`SHARD_MAX`] entries, so a shard — the unit
//! a write after a snapshot copies — stays bounded however large the
//! relation grows, and a relation that stays small never pays for more
//! than one.

use crate::pieces::Pieces;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Average entries per shard before the map doubles its shard count.
///
/// A write after a snapshot copies one shard, so this bounds the cost of
/// that copy (about a hundred entries); the directory of shard handles it
/// also copies grows as `len / SHARD_MAX`, so too small a shard makes
/// large relations pay there instead. 128 measured fastest for the first
/// write after a clone against 256 and 64 (DESIGN.md §23).
pub(crate) const SHARD_MAX: usize = 128;

/// Hashes a `u64` key to itself: shard tables are keyed by hashes the
/// caller already computed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher; fold anything else anyway.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type Table<E> = HashMap<u64, E, BuildHasherDefault<Prehashed>>;

/// One shard: entries by hash, plus the rare entries whose hash collides
/// with a resident one (every `spill` hash is also a `table` key).
#[derive(Clone, Debug)]
pub(crate) struct Shard<E> {
    table: Table<E>,
    spill: Vec<(u64, E)>,
}

impl<E> Shard<E> {
    fn with_capacity(n: usize) -> Self {
        Shard {
            table: Table::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            spill: Vec::new(),
        }
    }

    fn find(&self, h: u64, is: impl Fn(&E) -> bool) -> Option<&E> {
        match self.table.get(&h) {
            Some(e) if is(e) => Some(e),
            Some(_) => self
                .spill
                .iter()
                .find(|(sh, e)| *sh == h && is(e))
                .map(|(_, e)| e),
            None => None,
        }
    }

    fn find_mut(&mut self, h: u64, is: impl Fn(&E) -> bool) -> Option<&mut E> {
        match self.table.get_mut(&h) {
            Some(e) if is(e) => Some(e),
            Some(_) => self
                .spill
                .iter_mut()
                .find(|(sh, e)| *sh == h && is(e))
                .map(|(_, e)| e),
            None => None,
        }
    }

    /// Inserts an entry the caller knows is not present.
    fn insert_new(&mut self, h: u64, e: E) {
        match self.table.entry(h) {
            Entry::Vacant(v) => {
                v.insert(e);
            }
            Entry::Occupied(_) => self.spill.push((h, e)),
        }
    }

    /// The entry `is` accepts under `h`, inserting `new()` if absent;
    /// `true` when it was inserted.
    fn upsert(
        &mut self,
        h: u64,
        is: impl Fn(&E) -> bool,
        new: impl FnOnce() -> E,
    ) -> (&mut E, bool) {
        match self.table.entry(h) {
            Entry::Vacant(v) => (v.insert(new()), true),
            Entry::Occupied(o) => {
                if is(o.get()) {
                    return (o.into_mut(), false);
                }
                match self.spill.iter().position(|(sh, e)| *sh == h && is(e)) {
                    Some(i) => (&mut self.spill[i].1, false),
                    None => {
                        let i = self.spill.len();
                        self.spill.push((h, new()));
                        (&mut self.spill[i].1, true)
                    }
                }
            }
        }
    }

    fn remove(&mut self, h: u64, is: impl Fn(&E) -> bool) -> Option<E> {
        match self.table.get(&h) {
            None => None,
            Some(e) if is(e) => {
                let removed = self.table.remove(&h);
                // Keep the invariant: a spilled entry moves up to its table slot.
                if let Some(i) = self.spill.iter().position(|(sh, _)| *sh == h) {
                    let (_, e) = self.spill.swap_remove(i);
                    self.table.insert(h, e);
                }
                removed
            }
            Some(_) => {
                let i = self.spill.iter().position(|(sh, e)| *sh == h && is(e))?;
                Some(self.spill.swap_remove(i).1)
            }
        }
    }

    fn entries_mut(&mut self) -> impl Iterator<Item = &mut E> {
        self.table
            .values_mut()
            .chain(self.spill.iter_mut().map(|(_, e)| e))
    }

    fn into_entries(self) -> impl Iterator<Item = (u64, E)> {
        self.table.into_iter().chain(self.spill)
    }
}

/// The shard a hash lives in among `n` (a power of two).
fn shard_of(h: u64, n: usize) -> usize {
    ((h >> 32) as usize) & (n - 1)
}

/// Doubles the shard count of `dir`: shard `i` of `n` splits into shards
/// `i` and `i + n` of `2n`, one shard at a time, so at most one old
/// shard's worth of entries is ever held twice. Entries keep their
/// hashes, so nothing is rehashed; shards no clone shares are moved, not
/// copied.
fn split<E: Clone>(dir: &mut Pieces<Shard<E>>) {
    let old = std::mem::take(dir).into_handles();
    let n = old.len();
    let mut low = Vec::with_capacity(2 * n);
    let mut high = Vec::with_capacity(n);
    for shard in old {
        let shard = std::sync::Arc::try_unwrap(shard).unwrap_or_else(|s| (*s).clone());
        let (mut a, mut b) = (
            Shard::with_capacity(SHARD_MAX / 2),
            Shard::with_capacity(SHARD_MAX / 2),
        );
        for (h, e) in shard.into_entries() {
            let half = if shard_of(h, 2 * n) < n {
                &mut a
            } else {
                &mut b
            };
            half.insert_new(h, e);
        }
        low.push(a);
        high.push(b);
    }
    low.append(&mut high);
    *dir = Pieces::from_vec(low);
}

/// A hash map of entries `E`, keyed by caller-computed hashes and split
/// into copy-on-write shards (see the module docs).
#[derive(Debug)]
pub(crate) struct HashShards<E> {
    dir: Pieces<Shard<E>>,
    len: usize,
}

impl<E> Default for HashShards<E> {
    fn default() -> Self {
        HashShards {
            dir: Pieces::Empty,
            len: 0,
        }
    }
}

impl<E> Clone for HashShards<E> {
    fn clone(&self) -> Self {
        HashShards {
            dir: self.dir.clone(),
            len: self.len,
        }
    }
}

impl<E> HashShards<E> {
    /// Number of entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// How many shards hold an entry, and how many shards there are.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let shards = self.dir.as_slice();
        let used = shards.iter().filter(|s| !s.table.is_empty()).count();
        (used, shards.len())
    }

    /// The entry `is` accepts under hash `h`.
    pub(crate) fn get(&self, h: u64, is: impl Fn(&E) -> bool) -> Option<&E> {
        let shards = self.dir.as_slice();
        if shards.is_empty() {
            return None;
        }
        shards[shard_of(h, shards.len())].find(h, is)
    }

    /// How many shards are not the very shard `other` holds in the same
    /// place (see [`Pieces::unshared_with`]).
    pub(crate) fn unshared_with(&self, other: &HashShards<E>) -> usize {
        self.dir.unshared_with(&other.dir)
    }
}

impl<E: Clone> HashShards<E> {
    /// The shard `h` lives in, made writable, for a write that may add
    /// one entry to a map of `len`: the first shard is created lazily, and
    /// the map splits first when that entry would overfill it.
    fn shard_for_insert(dir: &mut Pieces<Shard<E>>, len: usize, h: u64) -> &mut Shard<E> {
        let n = dir.len();
        if n == 0 {
            *dir = Pieces::from_vec(vec![Shard::with_capacity(0)]);
        } else if len >= n * SHARD_MAX {
            split(dir);
        }
        let n = dir.len();
        dir.make_mut(shard_of(h, n))
    }

    /// Inserts an entry the caller knows is absent.
    pub(crate) fn insert_new(&mut self, h: u64, e: E) {
        Self::shard_for_insert(&mut self.dir, self.len, h).insert_new(h, e);
        self.len += 1;
    }

    /// The entry `is` accepts under `h`, inserted as `new()` if absent;
    /// `true` when it was inserted.
    pub(crate) fn upsert(
        &mut self,
        h: u64,
        is: impl Fn(&E) -> bool,
        new: impl FnOnce() -> E,
    ) -> (&mut E, bool) {
        let HashShards { dir, len } = self;
        let (e, inserted) = Self::shard_for_insert(dir, *len, h).upsert(h, is, new);
        if inserted {
            *len += 1;
        }
        (e, inserted)
    }

    /// The entry `is` accepts under `h`, writable: its shard is copied
    /// first if a clone shares it, so callers ask only for entries they
    /// know are present.
    pub(crate) fn get_mut(&mut self, h: u64, is: impl Fn(&E) -> bool) -> Option<&mut E> {
        let n = self.dir.len();
        if n == 0 {
            return None;
        }
        self.dir.make_mut(shard_of(h, n)).find_mut(h, is)
    }

    /// Removes and returns the entry `is` accepts under `h` (copying its
    /// shard first if a clone shares it, like [`get_mut`](Self::get_mut)).
    pub(crate) fn remove(&mut self, h: u64, is: impl Fn(&E) -> bool) -> Option<E> {
        let n = self.dir.len();
        if n == 0 {
            return None;
        }
        let removed = self.dir.make_mut(shard_of(h, n)).remove(h, is);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Applies `f` to every entry (copying every shared shard).
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut E)) {
        self.dir.each_mut(|s| s.entries_mut().for_each(&mut f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(m: &mut HashShards<(u32, u32)>, h: u64, k: u32, v: u32) -> bool {
        let (e, inserted) = m.upsert(h, |e| e.0 == k, || (k, v));
        e.1 = v;
        inserted
    }

    #[test]
    fn colliding_hashes_keep_both_entries() {
        let mut m: HashShards<(u32, u32)> = HashShards::default();
        assert!(put(&mut m, 7, 1, 10));
        assert!(put(&mut m, 7, 2, 20));
        assert!(!put(&mut m, 7, 2, 21));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(7, |e| e.0 == 1), Some(&(1, 10)));
        assert_eq!(m.get(7, |e| e.0 == 2), Some(&(2, 21)));
        assert_eq!(m.get(7, |e| e.0 == 3), None);
        // Removing the table resident promotes the spilled entry.
        assert_eq!(m.remove(7, |e| e.0 == 1), Some((1, 10)));
        assert_eq!(m.get(7, |e| e.0 == 2), Some(&(2, 21)));
        assert_eq!(m.remove(7, |e| e.0 == 2), Some((2, 21)));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn growth_splits_shards_and_clones_share_them() {
        let mut m: HashShards<(u32, u32)> = HashShards::default();
        let hash = |k: u32| u64::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let n = (SHARD_MAX * 8) as u32;
        for k in 0..n {
            m.insert_new(hash(k), (k, k));
        }
        assert_eq!(m.len(), n as usize);
        assert!(m.dir.len() >= 8, "{} shards", m.dir.len());
        for k in 0..n {
            assert_eq!(m.get(hash(k), |e| e.0 == k), Some(&(k, k)));
        }
        let snap = m.clone();
        assert_eq!(m.unshared_with(&snap), 0);
        if let Some(e) = m.get_mut(hash(3), |e| e.0 == 3) {
            e.1 = 99;
        }
        assert_eq!(m.unshared_with(&snap), 1);
        assert_eq!(snap.get(hash(3), |e| e.0 == 3), Some(&(3, 3)));
        assert_eq!(m.remove(hash(3), |e| e.0 == 3), Some((3, 99)));
        assert_eq!(m.unshared_with(&snap), 1, "same shard, copied once");
        assert_eq!(m.len(), n as usize - 1);
    }
}
