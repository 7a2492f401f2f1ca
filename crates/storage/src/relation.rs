//! Indexed fact relations with stable row ids and structural sharing.
//!
//! Every piece of a [`Relation`] that queries read — the tuple segments,
//! the presence map, each per-column index, each composite index — is
//! split into `Arc`-shared pieces: 512-row segments (see
//! [`store`](crate::store)) and hash shards of at most a few hundred
//! entries (see [`shards`](crate::shards)), each index entry's posting
//! list behind an `Arc` of its own. Cloning a relation is a handful of
//! reference bumps, and the clone is a true snapshot: a write on either
//! side copies the segment, shards and posting lists it touches the first
//! time it touches them after the clone, and mutates in place from then
//! on. A relation that is never cloned (the common single-owner case) pays
//! nothing — its pieces stay unique and nothing is copied.
//!
//! Row ids are stable: an insert appends at the next id, and a removal
//! tombstones the row and drops its id from the posting lists it appears
//! in, so no other row is renumbered and no other posting list is
//! touched. Compaction — renumbering the survivors densely — happens only
//! once tombstones outnumber live rows, so its O(n) cost is amortized over
//! at least as many removals.
//!
//! This is the storage half of epoch snapshots (see [`epoch`](crate::epoch)):
//! a published epoch holds a cloned `Edb`, and the writer keeps batching
//! into its own copy without disturbing readers, at a cost proportional to
//! the batch.

use crate::error::{Result, StorageError};
use crate::pieces::Pieces;
use crate::shards::HashShards;
use crate::store::{TupleIter, TupleStore};
use crate::tuple::Tuple;
use crate::Value;
use qdk_logic::fasthash::FxHasher;
use qdk_logic::Sym;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Hashes a projected key column-by-column so owned (`&[Value]`) and
/// borrowed (`&[&Value]`) keys get one hash. The column count is fixed
/// per map, so no length prefix is needed. Computed once per lookup: the
/// same hash picks the shard and probes its table.
fn hash_key<'a>(vals: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// The hash of a single index key.
fn hash_one(v: &Value) -> u64 {
    hash_key(std::iter::once(v))
}

/// The ascending live row ids under one index key. A single id is stored
/// inline; longer lists sit behind an `Arc`, so copying an index shard
/// after a snapshot bumps one reference per list instead of copying it,
/// and only a list a write touches is copied.
#[derive(Clone, Debug)]
enum Posting {
    One(u32),
    Many(Arc<Vec<u32>>),
}

impl Posting {
    fn ids(&self) -> &[u32] {
        match self {
            Posting::One(id) => std::slice::from_ref(id),
            Posting::Many(ids) => ids,
        }
    }

    /// Appends `id`, which is larger than every id present (ids are
    /// handed out in increasing order), keeping the list ascending.
    fn push(&mut self, id: u32) {
        match self {
            Posting::One(first) => *self = Posting::Many(Arc::new(vec![*first, id])),
            Posting::Many(ids) => Arc::make_mut(ids).push(id),
        }
    }

    /// Drops `id`; `true` when the list is left empty.
    fn remove(&mut self, id: u32) -> bool {
        match self {
            Posting::One(only) => *only == id,
            Posting::Many(ids) => {
                let ids = Arc::make_mut(ids);
                if let Ok(i) = ids.binary_search(&id) {
                    ids.remove(i);
                }
                if let [last] = ids[..] {
                    *self = Posting::One(last);
                }
                false
            }
        }
    }

    /// Renumbers through a monotone compaction map (ascending order kept).
    fn remap(&mut self, remap: &[u32]) {
        match self {
            Posting::One(id) => *id = remap[*id as usize],
            Posting::Many(ids) => {
                for id in Arc::make_mut(ids).iter_mut() {
                    *id = remap[*id as usize];
                }
            }
        }
    }
}

/// Adds `id` to the posting list of the key `is` accepts under `h`,
/// creating the entry as `(key(), [id])` if absent.
fn post<K: Clone>(
    map: &mut HashShards<(K, Posting)>,
    h: u64,
    is: impl Fn(&K) -> bool,
    key: impl FnOnce() -> K,
    id: u32,
) {
    let (entry, inserted) = map.upsert(h, |(k, _)| is(k), || (key(), Posting::One(id)));
    if !inserted {
        entry.1.push(id);
    }
}

/// Drops `id` from the posting list of the key `is` accepts under `h`,
/// removing the entry once its list is empty.
fn unpost<K: Clone>(map: &mut HashShards<(K, Posting)>, h: u64, is: impl Fn(&K) -> bool, id: u32) {
    let emptied = map
        .get_mut(h, |(k, _)| is(k))
        .is_some_and(|(_, p)| p.remove(id));
    if emptied {
        map.remove(h, |(k, _)| is(k));
    }
}

/// A demand-built hash index over a fixed set of columns (ascending,
/// distinct), mapping each combination of values in those columns to the
/// ascending row ids that carry it.
///
/// Composite indexes answer multi-bound probes in one hash lookup instead
/// of probing one column and filtering the rest tuple-by-tuple. They are
/// owned by their [`Relation`] (which keeps them consistent through
/// [`insert`](Relation::insert) / [`remove`](Relation::remove) /
/// [`clear`](Relation::clear)) and handed to callers as **frozen `Arc`
/// snapshots**: the per-frame probe path takes no lock, and a held handle
/// is never mutated by later relation mutations — maintenance goes through
/// `Arc::make_mut`, which copies the index (its shard directory, not its
/// shards) out from under any outstanding handle first. Re-fetch via
/// [`composite`](Relation::composite) to observe new rows. Buckets are
/// keyed by the hash of the projected values and disambiguated by
/// equality, which lets [`probe`](CompositeIndex::probe) accept borrowed
/// values without cloning.
///
/// Row ids within a bucket are ascending (the build walks tuples in id
/// order and maintenance appends fresh ids), so windowed delta probes can
/// clip a bucket with a binary search and fact-id-ordered merges stay
/// byte-identical to single-column execution.
#[derive(Debug)]
pub struct CompositeIndex {
    cols: Vec<usize>,
    buckets: HashShards<(Box<[Value]>, Posting)>,
    probes: AtomicU64,
}

impl Clone for CompositeIndex {
    fn clone(&self) -> Self {
        CompositeIndex {
            cols: self.cols.clone(),
            buckets: self.buckets.clone(),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

impl CompositeIndex {
    fn empty(cols: Vec<usize>) -> Self {
        CompositeIndex {
            cols,
            buckets: HashShards::default(),
            probes: AtomicU64::new(0),
        }
    }

    fn build(cols: Vec<usize>, tuples: &TupleStore) -> Self {
        let mut ix = CompositeIndex::empty(cols);
        for id in tuples.live_ids() {
            ix.add(id, tuples.get(id));
        }
        ix
    }

    fn key_hash(&self, t: &Tuple) -> u64 {
        let vals = t.values();
        hash_key(self.cols.iter().map(|&c| &vals[c]))
    }

    /// Registers a freshly inserted tuple under its projected key. `id`
    /// must be larger than every id already present (append-only), which
    /// keeps bucket ids ascending.
    fn add(&mut self, id: u32, t: &Tuple) {
        let h = self.key_hash(t);
        let (vals, cols) = (t.values(), &self.cols);
        post(
            &mut self.buckets,
            h,
            |k| k.iter().zip(cols).all(|(kv, &c)| kv == &vals[c]),
            || cols.iter().map(|&c| vals[c].clone()).collect(),
            id,
        );
    }

    /// Drops a removed tuple's id from its bucket.
    fn remove(&mut self, id: u32, t: &Tuple) {
        let h = self.key_hash(t);
        let (vals, cols) = (t.values(), &self.cols);
        unpost(
            &mut self.buckets,
            h,
            |k| k.iter().zip(cols).all(|(kv, &c)| kv == &vals[c]),
            id,
        );
    }

    /// The (ascending, distinct) column positions this index covers.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Borrowed-key probe: the ascending row ids whose projection onto
    /// [`cols`](CompositeIndex::cols) equals `key` (one value per column,
    /// in column order). Returns an empty slice when absent.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `key.len()` differs from the column count.
    pub fn probe(&self, key: &[&Value]) -> &[u32] {
        debug_assert_eq!(key.len(), self.cols.len(), "composite key arity");
        self.probes.fetch_add(1, Ordering::Relaxed);
        let h = hash_key(key.iter().copied());
        self.buckets
            .get(h, |(k, _)| k.iter().zip(key).all(|(kv, &pv)| kv == pv))
            .map_or(&[], |(_, ids)| ids.ids())
    }

    /// How many probes this index has answered since it was built (or
    /// since the owning relation's last [`clear`](Relation::clear)).
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

/// A read view of the suffix of a relation inserted by the last fixpoint
/// iteration: row ids in `start..end`.
///
/// Semi-naive delta joins probe this view instead of re-selecting from the
/// full relation and filtering by fact-id range — index buckets hold
/// ascending ids, so the view clips a probe result with two binary
/// searches rather than a linear filter. Windows range over row *ids*
/// (see [`Relation::high_water`]); tombstoned ids inside one are skipped.
#[derive(Clone, Copy, Debug)]
pub struct DeltaView<'a> {
    rel: &'a Relation,
    start: u32,
    end: u32,
}

impl<'a> DeltaView<'a> {
    /// Number of row ids in the window (tombstoned ones included).
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The underlying relation.
    pub fn relation(&self) -> &'a Relation {
        self.rel
    }

    /// Clips an ascending id slice to the window.
    pub fn clip(&self, ids: &'a [u32]) -> &'a [u32] {
        let lo = ids.partition_point(|&id| id < self.start);
        let hi = ids.partition_point(|&id| id < self.end);
        &ids[lo..hi]
    }

    /// Iterates the window's live tuples in id order.
    pub fn iter(&self) -> TupleIter<'a> {
        self.rel
            .tuples
            .iter_range(self.start as usize, self.end as usize)
    }

    /// Single-column probe restricted to the window.
    pub fn probe(&self, col: usize, v: &Value) -> &'a [u32] {
        self.clip(self.rel.probe(col, v))
    }
}

/// A deduplicated, insertion-ordered set of tuples with a hash index on
/// every column.
///
/// Relations are the storage for one EDB predicate and also serve as the
/// working sets (totals and deltas) of bottom-up evaluation in the engine
/// crate. Selection by a partial binding pattern uses the most selective
/// available column index and verifies the remaining positions.
///
/// Every access-path decision is metered: [`probe`](Relation::probe) and
/// indexed selections bump [`index_probes`](Relation::index_probes), while
/// selections with no bound column bump [`full_scans`](Relation::full_scans).
/// The counters use relaxed atomics so the read paths stay `&self` (the
/// snapshot readers on their own threads share relations); they survive
/// [`remove`](Relation::remove)/re-insert and reset only with
/// [`clear`](Relation::clear).
///
/// # Row ids
///
/// Ids are handed out in insertion order and stay put: removal tombstones
/// a row instead of renumbering the rest. [`len`](Relation::len) counts
/// live rows; [`high_water`](Relation::high_water) is one past the largest
/// id handed out, the bound every id window ([`delta`](Relation::delta))
/// ranges over. Iteration yields the live rows in id order — the order a
/// dense, renumbering store would give.
///
/// # Snapshots
///
/// `Relation::clone` is O(arity): every piece is `Arc`-shared with the
/// clone. A write on either side copies only the pieces it touches, so a
/// clone behaves as an immutable snapshot while the original keeps
/// accepting writes. Probe/scan counters start from the current totals
/// but advance independently per clone.
#[derive(Debug)]
pub struct Relation {
    name: Sym,
    arity: usize,
    tuples: TupleStore,
    /// The row id of every live tuple, keyed by the tuple's hash; the
    /// tuple itself is compared through the store. Ids only, so copying a
    /// shard after a snapshot is a plain memory copy.
    present: HashShards<u32>,
    /// `indexes[c]`: each value in column `c` with the ids carrying it.
    indexes: Vec<HashShards<(Value, Posting)>>,
    /// Promoted composite indexes (at most one per column set): the
    /// lock-free lookup set shared with snapshots. Maintained in place by
    /// mutations (copy-on-write when a snapshot or caller handle still
    /// shares an entry).
    ready: Pieces<CompositeIndex>,
    /// Composite indexes demand-built under `&self` (see
    /// [`composite`](Relation::composite)) that have not yet been promoted
    /// into [`ready`](Relation::ready). The lock is taken once per plan
    /// firing on the build path only, never per frame; the next mutation
    /// or [`promote_pending`](Relation::promote_pending) drains it.
    pending: Mutex<Vec<Arc<CompositeIndex>>>,
    probes: AtomicU64,
    scans: AtomicU64,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            arity: self.arity,
            tuples: self.tuples.clone(),
            present: self.present.clone(),
            indexes: self.indexes.clone(),
            ready: self.ready.clone(),
            pending: Mutex::new(lock_pending(&self.pending).clone()),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
            scans: AtomicU64::new(self.scans.load(Ordering::Relaxed)),
        }
    }
}

/// Locks the pending composite-index list, recovering from poison (the
/// guarded operations don't panic mid-update, so a poisoned lock is still
/// consistent).
fn lock_pending(m: &Mutex<Vec<Arc<CompositeIndex>>>) -> MutexGuard<'_, Vec<Arc<CompositeIndex>>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Relation {
    /// Creates an empty relation. Nothing is allocated per column until
    /// the first insert.
    pub fn new(name: impl Into<Sym>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            tuples: TupleStore::default(),
            present: HashShards::default(),
            indexes: vec![HashShards::default(); arity],
            ready: Pieces::default(),
            pending: Mutex::new(Vec::new()),
            probes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
        }
    }

    /// How many index probes this relation has answered (via
    /// [`probe`](Relation::probe) or an indexed selection) since creation
    /// or the last [`clear`](Relation::clear).
    pub fn index_probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// How many full scans this relation has served (selections with no
    /// bound column) since creation or the last [`clear`](Relation::clear).
    pub fn full_scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// The relation's (predicate) name.
    pub fn name(&self) -> &Sym {
        &self.name
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored (live) tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// One past the largest row id handed out, tombstoned rows included:
    /// the id a fresh insert receives, and the upper bound of every id
    /// window ([`delta`](Relation::delta)). Equal to [`len`](Relation::len)
    /// until a removal, and again after compaction or
    /// [`clear`](Relation::clear).
    pub fn high_water(&self) -> usize {
        self.tuples.high_water()
    }

    /// Inserts a tuple; returns `Ok(true)` if it was not already present,
    /// or [`StorageError::ArityMismatch`] if the tuple's arity does not
    /// match the relation's (no panic — derived relations receive tuples
    /// from user programs, where a predicate defined at two arities is a
    /// reachable input, not a bug). The tuple gets the next row id.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.arity {
            return Err(StorageError::ArityMismatch {
                predicate: self.name.to_string(),
                expected: self.arity,
                found: t.arity(),
            });
        }
        let h = hash_key(t.values().iter());
        if self
            .present
            .get(h, |&id| *self.tuples.get(id) == t)
            .is_some()
        {
            return Ok(false);
        }
        self.promote_pending();
        let id = self.tuples.push(t.clone());
        for (c, v) in t.values().iter().enumerate() {
            post(
                &mut self.indexes[c],
                hash_one(v),
                |k| k == v,
                || v.clone(),
                id,
            );
        }
        self.ready.each_mut(|ix| ix.add(id, &t));
        self.present.insert_new(h, id);
        Ok(true)
    }

    /// Moves demand-built composite indexes from the pending list into the
    /// promoted (lock-free) set. Called by every mutation before it
    /// maintains the set, and by the epoch writer at publish so snapshots
    /// probe promoted indexes without ever touching the pending lock.
    pub fn promote_pending(&mut self) {
        let pending = std::mem::take(self.pending_mut());
        for ix in pending {
            if !self.ready.as_slice().iter().any(|r| r.cols() == ix.cols()) {
                self.ready
                    .push(Arc::try_unwrap(ix).unwrap_or_else(|ix| (*ix).clone()));
            }
        }
    }

    /// Ensures a promoted composite index over `cols` exists, building it
    /// if necessary; returns `false` (and builds nothing) for invalid
    /// column sets (see [`composite`](Relation::composite)). Used by the
    /// epoch writer to prebuild the indexes a compiled plan will probe, so
    /// snapshots never demand-build them per reader.
    pub fn ensure_composite(&mut self, cols: &[usize]) -> bool {
        if !self.valid_composite_cols(cols) {
            return false;
        }
        self.promote_pending();
        if !self.ready.as_slice().iter().any(|ix| ix.cols() == cols) {
            self.ready
                .push(CompositeIndex::build(cols.to_vec(), &self.tuples));
        }
        true
    }

    /// Adopts the composite-index *definitions* of another relation
    /// (typically the previously published snapshot of this one, whose
    /// readers demand-built indexes the writer never saw), building any
    /// that are missing here. Contents are rebuilt from this relation's
    /// tuples; probe counters are not carried over.
    pub fn adopt_demand(&mut self, other: &Relation) {
        let mut wanted: Vec<Vec<usize>> = other
            .ready
            .as_slice()
            .iter()
            .map(|ix| ix.cols().to_vec())
            .collect();
        wanted.extend(
            lock_pending(&other.pending)
                .iter()
                .map(|ix| ix.cols().to_vec()),
        );
        for cols in wanted {
            self.ensure_composite(&cols);
        }
    }

    /// Exclusive access to the pending list without locking (`&mut self`
    /// proves exclusivity); recovers from poison like [`lock_pending`].
    fn pending_mut(&mut self) -> &mut Vec<Arc<CompositeIndex>> {
        match self.pending.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }

    /// True if the tuple is stored.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.contains_slice(t.values())
    }

    /// True if a tuple with exactly these values is stored, without
    /// allocating a [`Tuple`] for the lookup. This is the fixpoint
    /// loops' dedup check: most candidate rows a naive iteration derives
    /// are already known, and this lets them be rejected straight from
    /// the executor's row buffer.
    pub fn contains_slice(&self, values: &[Value]) -> bool {
        self.present
            .get(hash_key(values.iter()), |&id| {
                self.tuples.get(id).values() == values
            })
            .is_some()
    }

    /// Iterates over all tuples in insertion order.
    pub fn iter(&self) -> TupleIter<'_> {
        self.tuples.iter()
    }

    /// The ids carrying `v` in column `col` (unmetered).
    fn ids(&self, col: usize, v: &Value) -> &[u32] {
        self.indexes
            .get(col)
            .and_then(|ix| ix.get(hash_one(v), |(k, _)| k == v))
            .map_or(&[], |(_, ids)| ids.ids())
    }

    /// Selects the tuples matching a partial binding pattern:
    /// `pattern[i] = Some(v)` requires column `i` to equal `v`; `None` is a
    /// wildcard. Uses the most selective bound-column index.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's length does not match the relation's arity.
    pub fn select<'a>(
        &'a self,
        pattern: &[Option<Value>],
    ) -> Box<dyn Iterator<Item = &'a Tuple> + 'a> {
        assert_eq!(pattern.len(), self.arity, "pattern arity mismatch");
        // Pick the bound column with the fewest candidate rows (first
        // minimum in column order).
        let mut best: Option<&'a [u32]> = None;
        for (c, p) in pattern.iter().enumerate() {
            if let Some(v) = p {
                let ids = self.ids(c, v);
                if best.is_none_or(|b| ids.len() < b.len()) {
                    best = Some(ids);
                }
            }
        }
        match best {
            None => {
                self.scans.fetch_add(1, Ordering::Relaxed);
                Box::new(self.tuples.iter())
            }
            Some(rows) => {
                self.probes.fetch_add(1, Ordering::Relaxed);
                let pattern = pattern.to_vec();
                Box::new(rows.iter().map(|&id| self.tuples.get(id)).filter(move |t| {
                    t.values()
                        .iter()
                        .zip(&pattern)
                        .all(|(tv, pv)| pv.as_ref().is_none_or(|p| p == tv))
                }))
            }
        }
    }

    /// Borrowed-key index probe: the row ids whose column `col` equals
    /// `v`, without cloning the probe value. Returns an empty slice when
    /// the value is absent (or the relation has no column `col`).
    ///
    /// Together with [`tuple_at`](Relation::tuple_at) this is the
    /// primitive the compiled plan executor scans with: the planner picks
    /// the probe column, probes once per frame, and verifies the remaining
    /// positions against the candidate rows.
    pub fn probe(&self, col: usize, v: &Value) -> &[u32] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.ids(col, v)
    }

    /// The tuple stored at row id `id` (as handed out by
    /// [`probe`](Relation::probe), which only ever yields live rows).
    pub fn tuple_at(&self, id: u32) -> &Tuple {
        self.tuples.get(id)
    }

    /// Slot-pattern selection over borrowed values: like
    /// [`select`](Relation::select) but the pattern borrows its probe
    /// values instead of owning clones. Picks the most selective bound
    /// column (first minimum in column order) and verifies the rest.
    pub fn select_ref<'a>(
        &'a self,
        pattern: &[Option<&'a Value>],
    ) -> Box<dyn Iterator<Item = &'a Tuple> + 'a> {
        debug_assert_eq!(pattern.len(), self.arity, "pattern arity mismatch");
        let best = pattern
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|v| (self.probe(c, v).len(), c, v)))
            .min_by_key(|(n, _, _)| *n);
        match best {
            None => {
                self.scans.fetch_add(1, Ordering::Relaxed);
                Box::new(self.tuples.iter())
            }
            Some((_, c, v)) => {
                let rows = self.probe(c, v);
                let pattern = pattern.to_vec();
                Box::new(rows.iter().map(|&id| self.tuple_at(id)).filter(move |t| {
                    t.values()
                        .iter()
                        .zip(&pattern)
                        .all(|(tv, pv)| pv.is_none_or(|p| p == tv))
                }))
            }
        }
    }

    /// Removes a tuple; returns `true` if it was present. Removal is a
    /// batch of one — see [`remove_batch`](Relation::remove_batch) for the
    /// cost model. Snapshots sharing the old pieces are unaffected.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.remove_batch(std::iter::once(t)) == 1
    }

    /// Removes a batch of tuples; returns how many were present.
    ///
    /// Each removed row is tombstoned in place: its presence entry goes,
    /// and its id leaves the one posting list per column (and per
    /// composite index) that held it. No other row is renumbered and no
    /// other list is touched, so retracting k facts from an n-row relation
    /// costs O(k · posting length), and after a snapshot it copies only the
    /// segments, shards and lists those k rows live in. Once tombstones
    /// outnumber live rows the relation compacts — renumbers the survivors
    /// densely, in order, through a monotone map — which costs O(n) but
    /// happens at most once per n/2 removals.
    pub fn remove_batch<'t>(&mut self, batch: impl IntoIterator<Item = &'t Tuple>) -> usize {
        // Resolve ids read-only first so a batch of absent tuples stays a
        // no-op (no copy-on-write of snapshot-shared pieces).
        let mut doomed: Vec<(u64, u32)> = batch
            .into_iter()
            .filter_map(|t| {
                let h = hash_key(t.values().iter());
                self.present
                    .get(h, |&id| self.tuples.get(id) == t)
                    .map(|&id| (h, id))
            })
            .collect();
        if doomed.is_empty() {
            return 0;
        }
        self.promote_pending();
        doomed.sort_unstable_by_key(|&(_, id)| id);
        doomed.dedup_by_key(|&mut (_, id)| id);
        for &(h, id) in &doomed {
            let t = self.tuples.get(id).clone();
            self.present.remove(h, |&pid| pid == id);
            for (c, v) in t.values().iter().enumerate() {
                unpost(&mut self.indexes[c], hash_one(v), |k| k == v, id);
            }
            self.ready.each_mut(|ix| ix.remove(id, &t));
            self.tuples.kill(id);
        }
        if self.tuples.dead() > self.tuples.len() {
            self.compact();
        }
        doomed.len()
    }

    /// Renumbers the live rows densely, in order, dropping every
    /// tombstone (see [`remove_batch`](Relation::remove_batch)).
    fn compact(&mut self) {
        let (tuples, remap) = self.tuples.compacted();
        self.tuples = tuples;
        self.present.for_each_mut(|id| *id = remap[*id as usize]);
        for index in &mut self.indexes {
            index.for_each_mut(|(_, ids)| ids.remap(&remap));
        }
        self.ready
            .each_mut(|ix| ix.buckets.for_each_mut(|(_, ids)| ids.remap(&remap)));
    }

    /// Removes all tuples and resets the probe/scan counters. Composite
    /// index *definitions* persist (they rebuild as new tuples arrive);
    /// their contents and probe counters reset with everything else.
    pub fn clear(&mut self) {
        self.promote_pending();
        self.tuples.clear();
        self.present = HashShards::default();
        self.indexes = vec![HashShards::default(); self.arity];
        self.ready = Pieces::from_vec(
            self.ready
                .as_slice()
                .iter()
                .map(|ix| CompositeIndex::empty(ix.cols().to_vec()))
                .collect(),
        );
        self.probes.store(0, Ordering::Relaxed);
        self.scans.store(0, Ordering::Relaxed);
    }

    /// True if `cols` is a valid composite column set: at least two
    /// positions, strictly ascending, all within the relation's arity.
    fn valid_composite_cols(&self, cols: &[usize]) -> bool {
        cols.len() >= 2
            && cols.windows(2).all(|w| w[0] < w[1])
            && cols.last().is_some_and(|&c| c < self.arity)
    }

    /// The composite index over `cols`, built on first demand and kept
    /// consistent by subsequent mutations. Returns `None` unless `cols`
    /// has at least two positions, strictly ascending, all within the
    /// relation's arity (callers sort their bound columns; a one-column
    /// request should use [`probe`](Relation::probe)).
    ///
    /// The returned `Arc` is a **frozen snapshot** of the index at call
    /// time: probing it takes no lock, and later inserts, removes, and
    /// clears never mutate it (maintenance copies the index out from under
    /// outstanding handles). Re-fetch after a mutation to observe new
    /// rows. Probes through a handle count toward
    /// [`composite_probes`](Relation::composite_probes) until the relation
    /// is mutated; a frozen (copied-out) handle's probes are its own.
    pub fn composite(&self, cols: &[usize]) -> Option<Arc<CompositeIndex>> {
        if !self.valid_composite_cols(cols) {
            return None;
        }
        // Promoted set first: lock-free, covers every index a snapshot or
        // plan prebuild produced.
        if let Some(ix) = self.ready.as_slice().iter().find(|ix| ix.cols() == cols) {
            return Some(Arc::clone(ix));
        }
        let mut guard = lock_pending(&self.pending);
        if let Some(ix) = guard.iter().find(|ix| ix.cols() == cols) {
            return Some(Arc::clone(ix));
        }
        let ix = Arc::new(CompositeIndex::build(cols.to_vec(), &self.tuples));
        guard.push(Arc::clone(&ix));
        Some(ix)
    }

    /// Borrowed-key multi-column probe: the row ids matching every
    /// `(column, value)` pair. One hash lookup against the matching
    /// composite index (demand-built on first use) instead of probing one
    /// column and filtering the rest.
    ///
    /// Degenerate patterns stay total: an empty pattern is a metered full
    /// scan returning every live id, a single pair delegates to
    /// [`probe`](Relation::probe), duplicate columns collapse (equal
    /// values) or return no rows (conflicting values), and an
    /// out-of-range column matches nothing.
    pub fn probe_cols(&self, pattern: &[(usize, &Value)]) -> Vec<u32> {
        let mut sorted = pattern.to_vec();
        sorted.sort_by_key(|&(c, _)| c);
        let mut dedup: Vec<(usize, &Value)> = Vec::with_capacity(sorted.len());
        for (c, v) in sorted {
            match dedup.last() {
                Some(&(pc, pv)) if pc == c => {
                    if pv != v {
                        return Vec::new();
                    }
                }
                _ => dedup.push((c, v)),
            }
        }
        match dedup.as_slice() {
            [] => {
                self.scans.fetch_add(1, Ordering::Relaxed);
                self.tuples.live_ids().collect()
            }
            [(c, v)] => self.probe(*c, v).to_vec(),
            _ => {
                if dedup.last().is_some_and(|&(c, _)| c >= self.arity) {
                    return Vec::new();
                }
                let cols: Vec<usize> = dedup.iter().map(|&(c, _)| c).collect();
                let key: Vec<&Value> = dedup.iter().map(|&(_, v)| v).collect();
                match self.composite(&cols) {
                    Some(ix) => ix.probe(&key).to_vec(),
                    None => Vec::new(),
                }
            }
        }
    }

    /// Total probes answered by this relation's composite indexes since
    /// creation or the last [`clear`](Relation::clear).
    pub fn composite_probes(&self) -> u64 {
        let promoted: u64 = self
            .ready
            .as_slice()
            .iter()
            .map(|ix| ix.probe_count())
            .sum();
        let pending: u64 = lock_pending(&self.pending)
            .iter()
            .map(|ix| ix.probe_count())
            .sum();
        promoted + pending
    }

    /// How many composite indexes have been demand-built on this relation.
    pub fn composite_count(&self) -> usize {
        self.ready.len() + lock_pending(&self.pending).len()
    }

    /// A [`DeltaView`] over row ids `start..end` (clamped to
    /// [`high_water`](Relation::high_water)), i.e. the tuples a fixpoint
    /// iteration appended.
    pub fn delta(&self, start: usize, end: usize) -> DeltaView<'_> {
        let n = self.high_water();
        let end = end.min(n) as u32;
        let start = (start.min(n) as u32).min(end);
        DeltaView {
            rel: self,
            start,
            end,
        }
    }

    /// Read-only introspection for the O(Δ) guarantees: how many storage
    /// pieces of this relation — tuple segments and the shards of the
    /// presence map, the column indexes and the promoted composite
    /// indexes — are not the very pieces `other` holds in the same place.
    /// For a relation and a clone of it that is exactly what the writes
    /// since the clone copied; indexes `other` lacks count whole.
    pub fn unshared_pieces(&self, other: &Relation) -> usize {
        let composites: usize = self
            .ready
            .as_slice()
            .iter()
            .map(|ix| {
                let theirs = other.ready.as_slice().iter().find(|o| o.cols == ix.cols);
                match theirs {
                    Some(o) => ix.buckets.unshared_with(&o.buckets),
                    None => ix.buckets.unshared_with(&HashShards::default()),
                }
            })
            .sum();
        let columns: usize = self
            .indexes
            .iter()
            .enumerate()
            .map(|(c, ix)| match other.indexes.get(c) {
                Some(o) => ix.unshared_with(o),
                None => ix.unshared_with(&HashShards::default()),
            })
            .sum();
        self.tuples.unshared_with(&other.tuples)
            + self.present.unshared_with(&other.present)
            + columns
            + composites
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = TupleIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut r = Relation::new("complete", 3);
        for t in [
            vec![Value::sym("ann"), Value::sym("databases"), Value::Num(4.0)],
            vec![Value::sym("bob"), Value::sym("databases"), Value::Num(3.5)],
            vec![Value::sym("ann"), Value::sym("calculus"), Value::Num(3.9)],
        ] {
            r.insert(Tuple::new(t)).unwrap();
        }
        r
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new("p", 1);
        assert!(r.insert(Tuple::new(vec![Value::Int(1)])).unwrap());
        assert!(!r.insert(Tuple::new(vec![Value::Int(1)])).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_arity_mismatch_is_an_error_not_a_panic() {
        let mut r = Relation::new("p", 2);
        let err = r.insert(Tuple::new(vec![Value::Int(1)])).unwrap_err();
        assert_eq!(
            err,
            StorageError::ArityMismatch {
                predicate: "p".to_string(),
                expected: 2,
                found: 1,
            }
        );
        // Nothing was stored and the relation remains usable.
        assert!(r.is_empty());
        assert!(r
            .insert(Tuple::new(vec![Value::Int(1), Value::Int(2)]))
            .unwrap());
    }

    #[test]
    fn select_unbound_returns_all() {
        let r = sample();
        assert_eq!(r.select(&[None, None, None]).count(), 3);
    }

    #[test]
    fn select_single_column() {
        let r = sample();
        let anns: Vec<_> = r.select(&[Some(Value::sym("ann")), None, None]).collect();
        assert_eq!(anns.len(), 2);
        assert!(anns.iter().all(|t| t.get(0) == Some(&Value::sym("ann"))));
    }

    #[test]
    fn select_multi_column_verifies_rest() {
        let r = sample();
        let hits: Vec<_> = r
            .select(&[Some(Value::sym("ann")), Some(Value::sym("databases")), None])
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get(2), Some(&Value::Num(4.0)));
    }

    #[test]
    fn select_absent_value_is_empty() {
        let r = sample();
        assert_eq!(r.select(&[Some(Value::sym("zoe")), None, None]).count(), 0);
    }

    #[test]
    fn select_numeric_equality_across_kinds() {
        let mut r = Relation::new("units", 1);
        r.insert(Tuple::new(vec![Value::Int(4)])).unwrap();
        // Num(4.0) equals Int(4) (and hashes identically).
        assert_eq!(r.select(&[Some(Value::Num(4.0))]).count(), 1);
    }

    #[test]
    fn probe_and_select_ref_agree_with_select() {
        let r = sample();
        let ann = Value::sym("ann");
        let db = Value::sym("databases");
        assert_eq!(r.probe(0, &ann).len(), 2);
        assert_eq!(r.probe(0, &Value::sym("zoe")).len(), 0);
        assert_eq!(r.probe(9, &ann).len(), 0);
        for id in r.probe(0, &ann) {
            assert_eq!(r.tuple_at(*id).get(0), Some(&ann));
        }
        let owned: Vec<_> = r
            .select(&[Some(ann.clone()), Some(db.clone()), None])
            .cloned()
            .collect();
        let borrowed: Vec<_> = r
            .select_ref(&[Some(&ann), Some(&db), None])
            .cloned()
            .collect();
        assert_eq!(owned, borrowed);
        assert_eq!(r.select_ref(&[None, None, None]).count(), 3);
    }

    #[test]
    fn insertion_order_is_preserved() {
        let r = sample();
        let firsts: Vec<_> = r.iter().map(|t| t.get(0).unwrap().clone()).collect();
        assert_eq!(
            firsts,
            vec![Value::sym("ann"), Value::sym("bob"), Value::sym("ann")]
        );
    }

    #[test]
    fn remove_tombstones_and_keeps_indexes_consistent() {
        let mut r = sample();
        let gone = Tuple::new(vec![
            Value::sym("ann"),
            Value::sym("databases"),
            Value::Num(4.0),
        ]);
        assert!(r.remove(&gone));
        assert!(!r.remove(&gone));
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&gone));
        // Index lookups stay consistent; the survivors keep their ids.
        assert_eq!(r.select(&[Some(Value::sym("ann")), None, None]).count(), 1);
        assert_eq!(
            r.select(&[None, Some(Value::sym("databases")), None])
                .count(),
            1
        );
        assert_eq!(r.probe(0, &Value::sym("ann")), &[2]);
        assert_eq!(r.high_water(), 3);
        assert_eq!(r.probe_cols(&[]), vec![1, 2]);
    }

    #[test]
    fn counters_track_probes_and_scans() {
        let r = sample();
        assert_eq!(r.index_probes(), 0);
        assert_eq!(r.full_scans(), 0);
        r.select(&[None, None, None]).count();
        assert_eq!(r.full_scans(), 1);
        assert_eq!(r.index_probes(), 0);
        r.select(&[Some(Value::sym("ann")), None, None]).count();
        assert_eq!(r.index_probes(), 1);
        r.probe(0, &Value::sym("ann"));
        assert_eq!(r.index_probes(), 2);
        // select_ref probes the index both to score bound columns and to
        // fetch the winner's rows.
        let ann = Value::sym("ann");
        r.select_ref(&[Some(&ann), None, None]).count();
        assert!(r.index_probes() >= 3);
        r.select_ref(&[None, None, None]).count();
        assert_eq!(r.full_scans(), 2);
    }

    #[test]
    fn counters_survive_remove_and_reinsert() {
        let mut r = sample();
        r.select(&[Some(Value::sym("ann")), None, None]).count();
        r.select(&[None, None, None]).count();
        let (p, s) = (r.index_probes(), r.full_scans());
        assert!(p > 0 && s > 0);
        let gone = Tuple::new(vec![
            Value::sym("ann"),
            Value::sym("databases"),
            Value::Num(4.0),
        ]);
        assert!(r.remove(&gone));
        assert_eq!((r.index_probes(), r.full_scans()), (p, s));
        r.insert(gone).unwrap();
        assert_eq!((r.index_probes(), r.full_scans()), (p, s));
        // Clones carry the current totals forward independently.
        let c = r.clone();
        c.probe(0, &Value::sym("bob"));
        assert_eq!(c.index_probes(), p + 1);
        assert_eq!(r.index_probes(), p);
    }

    #[test]
    fn clear_resets_counters() {
        let mut r = sample();
        r.select(&[Some(Value::sym("ann")), None, None]).count();
        r.select(&[None, None, None]).count();
        r.clear();
        assert_eq!(r.index_probes(), 0);
        assert_eq!(r.full_scans(), 0);
    }

    #[test]
    fn composite_probe_matches_scan() {
        let r = sample();
        let ann = Value::sym("ann");
        let db = Value::sym("databases");
        let ix = r.composite(&[0, 1]).unwrap();
        assert_eq!(ix.cols(), &[0, 1]);
        let ids = ix.probe(&[&ann, &db]);
        assert_eq!(ids, &[0]);
        // Ids come back ascending and point at the right tuples.
        let all_ann: Vec<u32> = r.probe_cols(&[(0, &ann)]);
        assert_eq!(all_ann, vec![0, 2]);
        assert_eq!(r.probe_cols(&[(1, &db), (0, &ann)]), vec![0]);
        assert!(ix.probe(&[&Value::sym("zoe"), &db]).is_empty());
        // Numeric cross-kind equality holds for composite keys too.
        let ix2 = r.composite(&[0, 2]).unwrap();
        assert_eq!(ix2.probe(&[&ann, &Value::Int(4)]), &[0]);
        // Same column set returns the same index, not a rebuild.
        assert_eq!(r.composite_count(), 2);
        r.composite(&[0, 1]).unwrap();
        assert_eq!(r.composite_count(), 2);
    }

    #[test]
    fn composite_rejects_invalid_column_sets() {
        let r = sample();
        assert!(r.composite(&[0]).is_none());
        assert!(r.composite(&[1, 0]).is_none());
        assert!(r.composite(&[0, 0]).is_none());
        assert!(r.composite(&[1, 3]).is_none());
        let mut r = r;
        assert!(!r.ensure_composite(&[1, 0]));
        assert!(!r.ensure_composite(&[2]));
    }

    #[test]
    fn probe_cols_degenerate_patterns() {
        let r = sample();
        let ann = Value::sym("ann");
        assert_eq!(r.probe_cols(&[]), vec![0, 1, 2]);
        assert_eq!(r.full_scans(), 1);
        assert_eq!(r.probe_cols(&[(0, &ann), (0, &ann)]), vec![0, 2]);
        assert!(r
            .probe_cols(&[(0, &ann), (0, &Value::sym("bob"))])
            .is_empty());
        assert!(r.probe_cols(&[(0, &ann), (7, &ann)]).is_empty());
    }

    #[test]
    fn composite_maintained_through_mutation() {
        let mut r = sample();
        let ann = Value::sym("ann");
        let db = Value::sym("databases");
        let ix = r.composite(&[0, 1]).unwrap();
        assert_eq!(ix.probe(&[&ann, &db]), &[0]);
        // Insert lands in the live index list (the old Arc is a frozen
        // snapshot; re-fetch sees the new row).
        r.insert(Tuple::new(vec![ann.clone(), db.clone(), Value::Num(2.0)]))
            .unwrap();
        let ix = r.composite(&[0, 1]).unwrap();
        assert_eq!(ix.probe(&[&ann, &db]), &[0, 3]);
        // Remove drops the id in place and carries the counter.
        let probes_before = r.composite_probes();
        assert!(r.remove(&Tuple::new(vec![ann.clone(), db.clone(), Value::Num(4.0),])));
        assert_eq!(r.composite_probes(), probes_before);
        let ix = r.composite(&[0, 1]).unwrap();
        assert_eq!(ix.probe(&[&ann, &db]), &[3]);
        // Clear keeps the definition, drops contents, resets counters.
        r.clear();
        assert_eq!(r.composite_count(), 1);
        assert_eq!(r.composite_probes(), 0);
        let ix = r.composite(&[0, 1]).unwrap();
        assert!(ix.probe(&[&ann, &db]).is_empty());
        r.insert(Tuple::new(vec![ann.clone(), db.clone(), Value::Num(3.0)]))
            .unwrap();
        let ix = r.composite(&[0, 1]).unwrap();
        assert_eq!(ix.probe(&[&ann, &db]), &[0]);
    }

    #[test]
    fn held_composite_handle_is_a_frozen_snapshot() {
        // Regression: `composite()` used to document a snapshot but hand
        // out a live handle that `Arc::make_mut` mutated in place when the
        // relation was the only other owner. Held handles must now be
        // immune to every later mutation.
        let mut r = sample();
        let ann = Value::sym("ann");
        let db = Value::sym("databases");
        let held = r.composite(&[0, 1]).unwrap();
        assert_eq!(held.probe(&[&ann, &db]), &[0]);

        // Insert: the held handle must not see the new row.
        r.insert(Tuple::new(vec![ann.clone(), db.clone(), Value::Num(1.5)]))
            .unwrap();
        assert_eq!(held.probe(&[&ann, &db]), &[0]);
        assert_eq!(r.composite(&[0, 1]).unwrap().probe(&[&ann, &db]), &[0, 3]);

        // Remove: the held handle keeps the removed row.
        assert!(r.remove(&Tuple::new(vec![ann.clone(), db.clone(), Value::Num(4.0)])));
        assert_eq!(held.probe(&[&ann, &db]), &[0]);
        assert_eq!(r.composite(&[0, 1]).unwrap().probe(&[&ann, &db]), &[3]);

        // Clear: the held handle still answers from its frozen contents.
        r.clear();
        assert_eq!(held.probe(&[&ann, &db]), &[0]);
        assert!(r.composite(&[0, 1]).unwrap().probe(&[&ann, &db]).is_empty());
    }

    #[test]
    fn cloned_relation_is_an_isolated_snapshot() {
        let mut r = sample();
        let ann = Value::sym("ann");
        let snap = r.clone();
        r.insert(Tuple::new(vec![
            ann.clone(),
            Value::sym("algebra"),
            Value::Num(3.0),
        ]))
        .unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.probe(0, &ann).len(), 2);
        assert_eq!(r.probe(0, &ann).len(), 3);
        // Removal on the original leaves the snapshot intact too.
        assert!(r.remove(&Tuple::new(vec![
            ann.clone(),
            Value::sym("databases"),
            Value::Num(4.0)
        ])));
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.select(&[Some(ann.clone()), None, None]).count(),
            2,
            "snapshot indexes unaffected by writer mutations"
        );
        // And mutations on the snapshot leave the original alone.
        let mut snap = snap;
        snap.clear();
        assert!(snap.is_empty());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn promote_and_adopt_demand_carry_composite_definitions() {
        let mut r = sample();
        // Demand-build on a read-only view lands in the pending set.
        assert!(r.composite(&[0, 1]).is_some());
        assert_eq!(r.composite_count(), 1);
        let snap = r.clone();
        // A reader of the snapshot demand-builds another index the writer
        // never saw.
        assert!(snap.composite(&[1, 2]).is_some());
        // The writer adopts both definitions and promotes them.
        r.adopt_demand(&snap);
        r.promote_pending();
        assert_eq!(r.composite_count(), 2);
        let ann = Value::sym("ann");
        let db = Value::sym("databases");
        assert_eq!(
            r.composite(&[1, 2])
                .unwrap()
                .probe(&[&db, &Value::Num(3.5)]),
            &[1]
        );
        assert_eq!(r.composite(&[0, 1]).unwrap().probe(&[&ann, &db]), &[0]);
    }

    #[test]
    fn delta_view_clips_probes_and_iterates_window() {
        let mut r = Relation::new("edge", 2);
        for i in 0..6 {
            r.insert(Tuple::new(vec![Value::sym("a"), Value::Int(i)]))
                .unwrap();
        }
        let d = r.delta(2, 5);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(
            d.iter()
                .map(|t| t.get(1).unwrap().clone())
                .collect::<Vec<_>>(),
            vec![Value::Int(2), Value::Int(3), Value::Int(4)]
        );
        assert_eq!(d.probe(0, &Value::sym("a")), &[2, 3, 4]);
        assert!(d.probe(0, &Value::sym("b")).is_empty());
        // Out-of-range windows clamp.
        assert_eq!(r.delta(4, 99).len(), 2);
        assert!(r.delta(9, 12).is_empty());
    }

    #[test]
    fn clear_empties_indexes() {
        let mut r = sample();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.select(&[Some(Value::sym("ann")), None, None]).count(), 0);
        // Reinsertion after clear works and reindexes.
        r.insert(Tuple::new(vec![
            Value::sym("cara"),
            Value::sym("databases"),
            Value::Num(3.8),
        ]))
        .unwrap();
        assert_eq!(r.select(&[Some(Value::sym("cara")), None, None]).count(), 1);
    }

    #[test]
    fn compaction_renumbers_in_order_once_tombstones_dominate() {
        let mut r = Relation::new("edge", 2);
        let row = |i: i64| Tuple::new(vec![Value::Int(i % 3), Value::Int(i)]);
        for i in 0..10 {
            r.insert(row(i)).unwrap();
        }
        assert!(r.ensure_composite(&[0, 1]));
        // Five removals leave as many tombstones as live rows: no compaction.
        assert_eq!(r.remove_batch(&[row(0), row(2), row(4), row(6), row(8)]), 5);
        assert_eq!((r.len(), r.high_water()), (5, 10));
        assert_eq!(r.probe(0, &Value::Int(1)), &[1, 7]);
        // One more tips it: survivors are renumbered densely, in order.
        assert!(r.remove(&row(5)));
        assert_eq!((r.len(), r.high_water()), (4, 4));
        let kept: Vec<Tuple> = r.iter().cloned().collect();
        assert_eq!(kept, vec![row(1), row(3), row(7), row(9)]);
        assert_eq!(r.probe(0, &Value::Int(1)), &[0, 2]);
        assert_eq!(r.probe(0, &Value::Int(0)), &[1, 3]);
        let ix = r.composite(&[0, 1]).unwrap();
        assert_eq!(ix.probe(&[&Value::Int(1), &Value::Int(7)]), &[2]);
        // Appends continue after the compacted range.
        r.insert(row(11)).unwrap();
        assert_eq!(r.probe(1, &Value::Int(11)), &[4]);
        // Emptying a relation compacts it to nothing.
        let all: Vec<Tuple> = r.iter().cloned().collect();
        r.remove_batch(&all);
        assert_eq!((r.len(), r.high_water()), (0, 0));
    }

    #[test]
    fn delta_windows_skip_tombstones() {
        let mut r = Relation::new("edge", 2);
        for i in 0..6 {
            r.insert(Tuple::new(vec![Value::sym("a"), Value::Int(i)]))
                .unwrap();
        }
        assert!(r.remove(&Tuple::new(vec![Value::sym("a"), Value::Int(3)])));
        let d = r.delta(2, 6);
        assert_eq!(d.len(), 4, "the window is ids, tombstones included");
        assert_eq!(d.iter().count(), 3);
        assert_eq!(d.probe(0, &Value::sym("a")), &[2, 4, 5]);
    }

    #[test]
    fn a_write_after_a_clone_copies_only_what_it_touches() {
        let mut r = Relation::new("enroll", 2);
        for i in 0..5_000 {
            r.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 40)]))
                .unwrap();
        }
        assert!(r.ensure_composite(&[0, 1]));
        let snap = r.clone();
        assert_eq!(r.unshared_pieces(&snap), 0);
        r.insert(Tuple::new(vec![Value::Int(-1), Value::Int(7)]))
            .unwrap();
        // Tail segment, one presence shard, one shard per column, one
        // composite shard.
        let after_insert = r.unshared_pieces(&snap);
        assert!(after_insert <= 5, "{after_insert} pieces copied");
        assert!(r.remove(&Tuple::new(vec![Value::Int(17), Value::Int(17)])));
        let after_remove = r.unshared_pieces(&snap);
        assert!(after_remove <= 10, "{after_remove} pieces copied");
        assert_eq!(snap.len(), 5_000);
        assert_eq!(snap.probe(1, &Value::Int(17)).len(), 125);
        assert_eq!(r.probe(1, &Value::Int(17)).len(), 124);
    }
}
