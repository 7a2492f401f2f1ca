//! Indexed fact relations with stable row ids and structural sharing.
//!
//! Every piece of a [`Relation`] that queries read — the tuple segments,
//! the presence map, each column index — is split into `Arc`-shared
//! pieces: 512-row segments (see [`store`](crate::store)) and hash shards
//! of at most a few hundred entries (see [`shards`](crate::shards)), each
//! index entry's posting list behind an `Arc` of its own. Cloning a relation is a handful of
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
//! There is one index kind: a hash index on a single column, built the
//! first time a probe asks for that column and maintained by every write
//! from then on. A selection with several bound columns walks the
//! narrowest of their posting lists and checks the other columns row by
//! row. Facts no query probes, and working sets that are only scanned, pay
//! for no index at all.
//!
//! This is the storage half of epoch snapshots (see [`epoch`](crate::epoch)):
//! a published epoch holds a cloned `Edb`, and the writer keeps batching
//! into its own copy without disturbing readers, at a cost proportional to
//! the batch.

use crate::error::{Result, StorageError};
use crate::shards::HashShards;
use crate::store::{TupleIter, TupleStore};
use crate::tuple::Tuple;
use crate::Value;
use qdk_logic::fasthash::{mix, FxHasher};
use qdk_logic::{FxMixHashMap, Sym};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Hashes a key value by value (a whole tuple for the presence map, one
/// value for a column index). The value count is fixed per map, so no
/// length prefix is needed. Computed once per lookup: the same hash picks
/// the shard (its high bits) and probes the shard's table (its low bits),
/// so it is finished with [`mix`]: Fx alone leaves both ranges zero for a
/// key of small numbers, which hash as `f64` bits.
fn hash_key<'a>(vals: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    mix(h.finish())
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
/// each column a probe has asked for.
///
/// Relations are the storage for one EDB predicate and also serve as the
/// working sets (totals and deltas) of bottom-up evaluation in the engine
/// crate. Selection by a partial binding pattern uses the most selective
/// bound column's index and verifies the remaining positions.
///
/// A column's index is built from the live rows, in id order, the first
/// time that column is probed, and every write maintains it from then on;
/// a column never probed costs nothing. Its posting lists are therefore
/// the ones an index kept since the first insert would hold, so answers,
/// their order and the probe counters do not depend on when it was built.
///
/// Each column also has an estimate of its number of distinct values
/// ([`distinct`](Relation::distinct)), which the engine's cost model
/// divides the cardinality by. It is measured on first demand, reading at
/// most 1 024 rows, and kept until the live row count has doubled or
/// halved.
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
    /// `columns[c]`: each value in column `c` with the ids carrying it,
    /// built on the first probe of `c` (see [`ids`](Relation::ids)).
    columns: Box<[OnceLock<ColumnIndex>]>,
    /// The per-column distinct-value estimate, measured on first demand
    /// (see [`distinct`](Relation::distinct)).
    distinct: OnceLock<Distinct>,
    probes: AtomicU64,
    scans: AtomicU64,
}

/// Rows a distinct-value measurement reads at most. At or below this many
/// live rows it reads them all and the count is exact.
const DISTINCT_SAMPLE: usize = 1024;

/// A per-column distinct-value estimate and the live row count it was
/// measured at.
#[derive(Clone, Debug)]
struct Distinct {
    at: usize,
    cols: Arc<[u32]>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            arity: self.arity,
            tuples: self.tuples.clone(),
            present: self.present.clone(),
            columns: self.columns.clone(),
            distinct: self.distinct.clone(),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
            scans: AtomicU64::new(self.scans.load(Ordering::Relaxed)),
        }
    }
}

/// One column's index: each value with the ascending ids carrying it.
type ColumnIndex = HashShards<(Value, Posting)>;

/// Adds `id` to the posting list of `v` in a column index, creating the
/// entry as `(v, [id])` if absent.
fn post_column(ix: &mut ColumnIndex, v: &Value, id: u32) {
    let (entry, inserted) = ix.upsert(
        hash_one(v),
        |(k, _)| k == v,
        || (v.clone(), Posting::One(id)),
    );
    if !inserted {
        entry.1.push(id);
    }
}

/// Drops `id` from the posting list of `v` in a column index, removing
/// the entry once its list is empty.
fn unpost_column(ix: &mut ColumnIndex, v: &Value, id: u32) {
    let h = hash_one(v);
    let emptied = ix
        .get_mut(h, |(k, _)| k == v)
        .is_some_and(|(_, p)| p.remove(id));
    if emptied {
        ix.remove(h, |(k, _)| k == v);
    }
}

/// Unbuilt column indexes, one per column.
fn unbuilt(arity: usize) -> Box<[OnceLock<ColumnIndex>]> {
    (0..arity).map(|_| OnceLock::new()).collect()
}

impl Relation {
    /// Creates an empty relation. No column index exists until a probe
    /// asks for one.
    pub fn new(name: impl Into<Sym>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            tuples: TupleStore::default(),
            present: HashShards::default(),
            columns: unbuilt(arity),
            distinct: OnceLock::new(),
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
        let id = self.tuples.push(t.clone());
        for (ix, v) in self.columns.iter_mut().zip(t.values()) {
            if let Some(ix) = ix.get_mut() {
                post_column(ix, v, id);
            }
        }
        self.present.insert_new(h, id);
        self.settle_distinct();
        Ok(true)
    }

    /// The estimated number of distinct values in each column, one entry
    /// per column.
    ///
    /// Measured on first demand from the live rows: all of them when there
    /// are at most 1 024, so the count is exact; otherwise 1 024 rows
    /// picked by a hash of their row id, with the GEE estimator
    /// `√(n/r)·f₁ + Σ_{j≥2} f_j` (Charikar et al., PODS 2000), where `n` is
    /// the live row count, `r` the sample size and `f_j` the number of
    /// values the sample holds exactly `j` times. The estimate is capped
    /// at `n`.
    ///
    /// The measurement is kept, and shared by clones, until a write leaves
    /// the live row count at twice or at most half the count it was
    /// measured at. Steady churn around a size therefore never measures
    /// again, and a relation grown from empty is measured once per
    /// doubling. Each measurement is a fresh `Arc`, so [`Arc::ptr_eq`] on
    /// two results tells whether one was re-measured.
    pub fn distinct(&self) -> Arc<[u32]> {
        let d = self.distinct.get_or_init(|| Distinct {
            at: self.len(),
            cols: self.measure_distinct().into(),
        });
        Arc::clone(&d.cols)
    }

    /// One measurement for [`distinct`](Relation::distinct).
    fn measure_distinct(&self) -> Vec<u32> {
        let n = self.len();
        let sample = self.tuples.sampled_live(DISTINCT_SAMPLE);
        let scale = if sample.is_empty() {
            1.0
        } else {
            (n as f64 / sample.len() as f64).sqrt()
        };
        let mut freq: FxMixHashMap<&Value, u32> = FxMixHashMap::default();
        (0..self.arity)
            .map(|c| {
                freq.clear();
                for &id in &sample {
                    *freq.entry(&self.tuples.get(id).values()[c]).or_default() += 1;
                }
                let once = freq.values().filter(|&&f| f == 1).count();
                let est = (scale * once as f64).round() as usize + (freq.len() - once);
                u32::try_from(est.min(n)).unwrap_or(u32::MAX)
            })
            .collect()
    }

    /// Drops the distinct-value estimate once the live row count has
    /// doubled or halved since it was measured (see
    /// [`distinct`](Relation::distinct)).
    fn settle_distinct(&mut self) {
        let n = self.len();
        if self
            .distinct
            .get()
            .is_some_and(|d| n >= 2 * d.at || 2 * n <= d.at)
        {
            self.distinct.take();
        }
    }

    /// Adopts the index demand of another relation (typically the
    /// previously published snapshot of this one, whose readers
    /// demand-built indexes the writer never saw): every column index
    /// built there and missing here is built here, from this relation's
    /// tuples. Probe counters are not carried over.
    pub fn adopt_demand(&mut self, other: &Relation) {
        for c in other.indexed_columns() {
            if c < self.arity {
                self.column(c);
            }
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

    /// The index of column `col`, built from the live rows in id order
    /// if no probe has asked for it yet. `col` must be below the arity.
    fn column(&self, col: usize) -> &ColumnIndex {
        self.columns[col].get_or_init(|| {
            let mut ix = ColumnIndex::default();
            for id in self.tuples.live_ids() {
                post_column(&mut ix, &self.tuples.get(id).values()[col], id);
            }
            ix
        })
    }

    /// The ids carrying `v` in column `col` (unmetered).
    fn ids(&self, col: usize, v: &Value) -> &[u32] {
        if col >= self.arity {
            return &[];
        }
        self.column(col)
            .get(hash_one(v), |(k, _)| k == v)
            .map_or(&[], |(_, ids)| ids.ids())
    }

    /// The columns whose index has been built, ascending (read-only
    /// introspection: a column is indexed once a probe asked for it).
    pub fn indexed_columns(&self) -> Vec<usize> {
        (0..self.arity)
            .filter(|&c| self.columns[c].get().is_some())
            .collect()
    }

    /// The shortest posting list among the bound `(column, value)` pairs
    /// (first minimum in pattern order), or `None` when nothing is bound.
    /// Unmetered: each selection counts itself once.
    fn narrowest<'a, 'v>(
        &'a self,
        bound: impl Iterator<Item = (usize, &'v Value)>,
    ) -> Option<&'a [u32]> {
        let mut best: Option<&'a [u32]> = None;
        for (c, v) in bound {
            let ids = self.ids(c, v);
            if best.is_none_or(|b| ids.len() < b.len()) {
                best = Some(ids);
            }
        }
        best
    }

    /// Selects the tuples matching a partial binding pattern:
    /// `pattern[i] = Some(v)` requires column `i` to equal `v`; `None` is a
    /// wildcard. Walks the narrowest bound column's posting list and checks
    /// the other bound columns row by row.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's length does not match the relation's arity.
    pub fn select<'a>(
        &'a self,
        pattern: &[Option<Value>],
    ) -> Box<dyn Iterator<Item = &'a Tuple> + 'a> {
        assert_eq!(pattern.len(), self.arity, "pattern arity mismatch");
        let bound = pattern
            .iter()
            .enumerate()
            .filter_map(|(c, p)| Some((c, p.as_ref()?)));
        match self.narrowest(bound) {
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
    /// primitive the compiled plan executor scans with: per frame it
    /// probes each bound column, walks the shortest list, and verifies the
    /// remaining positions against the candidate rows.
    pub fn probe(&self, col: usize, v: &Value) -> &[u32] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.ids(col, v)
    }

    /// The tuple stored at row id `id` (as handed out by
    /// [`probe`](Relation::probe), which only ever yields live rows).
    pub fn tuple_at(&self, id: u32) -> &Tuple {
        self.tuples.get(id)
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
    /// and its id leaves the one posting list per built column index that
    /// held it. No other row is renumbered and no
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
        doomed.sort_unstable_by_key(|&(_, id)| id);
        doomed.dedup_by_key(|&mut (_, id)| id);
        for &(h, id) in &doomed {
            let t = self.tuples.get(id).clone();
            self.present.remove(h, |&pid| pid == id);
            for (ix, v) in self.columns.iter_mut().zip(t.values()) {
                if let Some(ix) = ix.get_mut() {
                    unpost_column(ix, v, id);
                }
            }
            self.tuples.kill(id);
        }
        if self.tuples.dead() > self.tuples.len() {
            self.compact();
        }
        self.settle_distinct();
        doomed.len()
    }

    /// Renumbers the live rows densely, in order, dropping every
    /// tombstone (see [`remove_batch`](Relation::remove_batch)).
    fn compact(&mut self) {
        let (tuples, remap) = self.tuples.compacted();
        self.tuples = tuples;
        self.present.for_each_mut(|id| *id = remap[*id as usize]);
        for ix in self.columns.iter_mut().filter_map(OnceLock::get_mut) {
            ix.for_each_mut(|(_, ids)| ids.remap(&remap));
        }
    }

    /// Removes all tuples and resets the probe/scan counters. Every column
    /// index and the distinct-value estimate are dropped (the next probe
    /// of a column builds it afresh, the next ask measures again).
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.present = HashShards::default();
        self.columns = unbuilt(self.arity);
        self.distinct = OnceLock::new();
        self.probes.store(0, Ordering::Relaxed);
        self.scans.store(0, Ordering::Relaxed);
    }

    /// Borrowed-key multi-column probe: the ascending row ids matching
    /// every `(column, value)` pair. Walks the narrowest bound column's
    /// posting list and checks the other pairs row by row; one
    /// [`index_probes`](Relation::index_probes) per call.
    ///
    /// Degenerate patterns stay total: an empty pattern is a metered full
    /// scan returning every live id, duplicate columns collapse (equal
    /// values) or return no rows (conflicting values), and an
    /// out-of-range column matches nothing.
    pub fn probe_cols(&self, pattern: &[(usize, &Value)]) -> Vec<u32> {
        let Some(rows) = self.narrowest(pattern.iter().copied()) else {
            self.scans.fetch_add(1, Ordering::Relaxed);
            return self.tuples.live_ids().collect();
        };
        self.probes.fetch_add(1, Ordering::Relaxed);
        rows.iter()
            .copied()
            .filter(|&id| {
                let vals = self.tuples.get(id).values();
                pattern.iter().all(|&(c, v)| vals.get(c) == Some(v))
            })
            .collect()
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
    /// presence map and of the built column indexes — are not the very
    /// pieces `other` holds in the same place. For a relation and a clone
    /// of it that is exactly what the writes since the clone copied;
    /// indexes `other` lacks count whole, and column indexes this relation
    /// has not built count nothing.
    pub fn unshared_pieces(&self, other: &Relation) -> usize {
        let unbuilt = HashShards::default();
        let columns: usize = (0..self.arity)
            .filter_map(|c| {
                let theirs = other.columns.get(c).and_then(OnceLock::get);
                Some(
                    self.columns[c]
                        .get()?
                        .unshared_with(theirs.unwrap_or(&unbuilt)),
                )
            })
            .sum();
        self.tuples.unshared_with(&other.tuples)
            + self.present.unshared_with(&other.present)
            + columns
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

    #[test]
    fn consecutive_integer_keys_spread_over_the_shards() {
        let mut r = Relation::new("n", 2);
        for k in 0..10_000 {
            r.insert(Tuple::new(vec![Value::Int(k), Value::Int(k % 7)]))
                .unwrap();
        }
        assert_eq!(r.probe(0, &Value::Int(4_321)).len(), 1);
        let built = r.columns[0].get().unwrap();
        for (what, (used, shards)) in [
            ("presence", r.present.occupancy()),
            ("column", built.occupancy()),
        ] {
            assert!(shards >= 64, "{what}: {shards} shards");
            assert!(2 * used >= shards, "{what}: {used} of {shards} shards");
        }
    }

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
    fn probe_agrees_with_select() {
        let r = sample();
        let ann = Value::sym("ann");
        assert_eq!(r.probe(0, &ann).len(), 2);
        assert_eq!(r.probe(0, &Value::sym("zoe")).len(), 0);
        assert_eq!(r.probe(9, &ann).len(), 0);
        for id in r.probe(0, &ann) {
            assert_eq!(r.tuple_at(*id).get(0), Some(&ann));
        }
        let selected: Vec<_> = r.select(&[Some(ann.clone()), None, None]).collect();
        let probed: Vec<_> = r.probe(0, &ann).iter().map(|&id| r.tuple_at(id)).collect();
        assert_eq!(selected, probed);
    }

    #[test]
    fn a_column_is_indexed_from_its_first_probe_on() {
        let mut r = sample();
        assert!(r.indexed_columns().is_empty(), "inserts build no index");
        assert!(r.contains_slice(&[Value::sym("bob"), Value::sym("databases"), Value::Num(3.5)]));
        r.select(&[None, None, None]).count();
        assert!(
            r.indexed_columns().is_empty(),
            "membership and scans build none"
        );
        assert_eq!(r.probe(1, &Value::sym("databases")), &[0, 1]);
        assert_eq!(r.indexed_columns(), vec![1]);
        // Built late, then maintained by every write.
        r.insert(Tuple::new(vec![
            Value::sym("cara"),
            Value::sym("databases"),
            Value::Num(3.1),
        ]))
        .unwrap();
        assert!(r.remove(&Tuple::new(vec![
            Value::sym("ann"),
            Value::sym("databases"),
            Value::Num(4.0),
        ])));
        assert_eq!(r.probe(1, &Value::sym("databases")), &[1, 3]);
        // A column built later sees the same ids the first one holds.
        assert_eq!(r.probe(0, &Value::sym("cara")), &[3]);
        assert_eq!(r.indexed_columns(), vec![0, 1]);
        r.clear();
        assert!(r.indexed_columns().is_empty());
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
        // A membership test is a presence lookup, not an index probe.
        assert!(r.contains_slice(&[Value::sym("ann"), Value::sym("calculus"), Value::Num(3.9)]));
        assert_eq!((r.index_probes(), r.full_scans()), (2, 1));
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
    fn probe_cols_walks_the_narrowest_column_and_filters() {
        let r = sample();
        let ann = Value::sym("ann");
        let db = Value::sym("databases");
        assert_eq!(r.probe_cols(&[(0, &ann)]), vec![0, 2]);
        assert_eq!(r.probe_cols(&[(1, &db), (0, &ann)]), vec![0]);
        assert!(r
            .probe_cols(&[(0, &Value::sym("zoe")), (1, &db)])
            .is_empty());
        // Numeric cross-kind equality holds for the filtered columns too.
        assert_eq!(r.probe_cols(&[(0, &ann), (2, &Value::Int(4))]), vec![0]);
        // One metered probe per call, whatever the number of pairs.
        assert_eq!((r.index_probes(), r.full_scans()), (4, 0));
        assert_eq!(r.indexed_columns(), vec![0, 1, 2]);
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
    fn adopt_demand_builds_the_columns_a_clone_built() {
        let mut r = sample();
        r.probe(0, &Value::sym("ann"));
        let snap = r.clone();
        // A reader of the snapshot builds a column the writer never probed.
        snap.probe(2, &Value::Num(3.5));
        assert_eq!(r.indexed_columns(), vec![0]);
        r.adopt_demand(&snap);
        assert_eq!(r.indexed_columns(), vec![0, 2]);
        assert_eq!(r.index_probes(), 1, "adoption probes nothing");
        assert_eq!(r.probe(2, &Value::Num(3.5)), &[1]);
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
        assert_eq!(
            r.probe_cols(&[(0, &Value::Int(1)), (1, &Value::Int(7))]),
            vec![2]
        );
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
        r.probe(0, &Value::Int(0));
        r.probe(1, &Value::Int(0));
        let snap = r.clone();
        assert_eq!(r.unshared_pieces(&snap), 0);
        r.insert(Tuple::new(vec![Value::Int(-1), Value::Int(7)]))
            .unwrap();
        // Tail segment, one presence shard, one shard per column.
        let after_insert = r.unshared_pieces(&snap);
        assert!(after_insert <= 4, "{after_insert} pieces copied");
        assert!(r.remove(&Tuple::new(vec![Value::Int(17), Value::Int(17)])));
        let after_remove = r.unshared_pieces(&snap);
        assert!(after_remove <= 8, "{after_remove} pieces copied");
        assert_eq!(snap.len(), 5_000);
        assert_eq!(snap.probe(1, &Value::Int(17)).len(), 125);
        assert_eq!(r.probe(1, &Value::Int(17)).len(), 124);
    }
}
