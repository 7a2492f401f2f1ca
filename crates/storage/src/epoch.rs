//! Epoch-versioned publication: versioned snapshot cells.
//!
//! The concurrency model is single-writer / multi-reader snapshot
//! isolation. A writer batches mutations into its private copy-on-write
//! state (see [`Relation`](crate::Relation) — clones share structure, so
//! the private copy costs only what the batch touches) and *publishes* it
//! as the next **epoch**: an immutable `Arc`-shared value in an
//! [`EpochCell`]. Readers pin the current epoch's `Arc` once and query it
//! with **zero locks** — the cell is consulted again only when a reader
//! explicitly [`refresh`](EpochCell::refresh)es, and even that is a single
//! atomic load unless a new epoch was actually published.
//!
//! Two invariants fall out of the types:
//!
//! * a reader opened before a publish never observes it — the pinned `Arc`
//!   is immutable and the writer's copy-on-write mutations cannot reach it;
//! * answers per snapshot are deterministic — every reader of one epoch
//!   holds literally the same data.
//!
//! An `EpochCell` is generic over its payload; the language layer
//! publishes whole knowledge bases through it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a published epoch. Monotonically increasing, starting at
/// 1 for the initially published state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(pub u64);

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A versioned slot holding the currently published epoch of a value.
///
/// Writers replace the slot atomically with [`publish`](EpochCell::publish);
/// readers [`load`](EpochCell::load) a `(version, Arc)` pair once, then
/// query the `Arc` without ever touching the cell again. The version
/// counter lets [`refresh`](EpochCell::refresh) detect "nothing changed"
/// with one atomic load — the internal mutex is taken only to swap or copy
/// the `Arc` handle (a few instructions, never held across user code), so
/// the read *path* stays lock-free: all data a query touches is behind the
/// pinned `Arc`.
pub struct EpochCell<T> {
    version: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl<T> EpochCell<T> {
    /// Creates a cell with `value` published as epoch 1.
    pub fn new(value: T) -> Self {
        Self::from_arc(Arc::new(value))
    }

    /// Creates a cell publishing an already-shared value as epoch 1.
    pub fn from_arc(value: Arc<T>) -> Self {
        EpochCell {
            version: AtomicU64::new(1),
            slot: Mutex::new(value),
        }
    }

    /// The currently published epoch number (one atomic load).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Pins the currently published epoch: its number and its value.
    pub fn load(&self) -> (u64, Arc<T>) {
        let guard = self.lock();
        (self.version.load(Ordering::Acquire), Arc::clone(&guard))
    }

    /// Publishes `value` as the next epoch; returns its number.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_arc(Arc::new(value))
    }

    /// Publishes an already-shared value as the next epoch.
    pub fn publish_arc(&self, value: Arc<T>) -> u64 {
        let mut guard = self.lock();
        *guard = value;
        let next = self.version.load(Ordering::Relaxed) + 1;
        self.version.store(next, Ordering::Release);
        next
    }

    /// How many `Arc` handles to the *currently published* value are held
    /// outside the cell — the snapshot-pin count metrics gauges report.
    /// Readers still pinning older epochs are invisible here (their
    /// `Arc`s point at values the cell no longer holds).
    pub fn pinned(&self) -> u64 {
        let guard = self.lock();
        (Arc::strong_count(&guard) as u64).saturating_sub(1)
    }

    /// Re-pins `(version, cached)` to the latest epoch if one was
    /// published since; returns `true` if the pin moved. When nothing was
    /// published this is a single atomic load — the fast path for readers
    /// polling between queries.
    pub fn refresh(&self, version: &mut u64, cached: &mut Arc<T>) -> bool {
        if self.version.load(Ordering::Acquire) == *version {
            return false;
        }
        let (now, value) = self.load();
        let moved = now != *version;
        *version = now;
        *cached = value;
        moved
    }

    /// Locks the slot, recovering from poison (the guarded section is a
    /// handle swap that cannot panic mid-update).
    fn lock(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edb, Tuple, Value};

    fn edge(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Int(i + 1)])
    }

    #[test]
    fn cell_pins_refreshes_and_versions() {
        let cell = EpochCell::new(10usize);
        assert_eq!(cell.version(), 1);
        let (mut v, mut pinned) = cell.load();
        assert_eq!((v, *pinned), (1, 10));
        // Nothing published: refresh is a no-op.
        assert!(!cell.refresh(&mut v, &mut pinned));
        assert_eq!(cell.publish(20), 2);
        // The pin is unaffected until refreshed.
        assert_eq!(*pinned, 10);
        assert!(cell.refresh(&mut v, &mut pinned));
        assert_eq!((v, *pinned), (2, 20));
        assert!(!cell.refresh(&mut v, &mut pinned));
    }

    #[test]
    fn readers_never_observe_unpublished_writes() {
        let mut edb = Edb::new();
        edb.declare("edge", &["From", "To"]).unwrap();
        for i in 0..4 {
            edb.insert_tuple("edge", edge(i)).unwrap();
        }
        let cell = EpochCell::new(edb.clone());
        let (e1, snap) = cell.load();
        assert_eq!((e1, snap.fact_count()), (1, 4));
        // Batch into the next epoch: the pinned snapshot and fresh loads
        // of the cell both still see epoch 1.
        edb.insert_tuple("edge", edge(9)).unwrap();
        assert_eq!(snap.fact_count(), 4);
        assert_eq!(cell.load().1.fact_count(), 4);
        // Publish: new pins see epoch 2, the old pin still epoch 1.
        assert_eq!(cell.publish(edb.clone()), 2);
        assert_eq!(cell.load().1.fact_count(), 5);
        assert_eq!(snap.fact_count(), 4);
    }

    #[test]
    fn concurrent_readers_pin_distinct_epochs() {
        let cell = Arc::new(EpochCell::new(4usize));
        let (v0, snap0) = cell.load();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let (mut v, mut snap) = cell.load();
                    let mut counts = vec![*snap];
                    for _ in 0..50 {
                        cell.refresh(&mut v, &mut snap);
                        counts.push(*snap);
                    }
                    counts
                })
            })
            .collect();
        for i in 0..8 {
            cell.publish(5 + i);
        }
        for h in handles {
            let counts = h.join().unwrap();
            // Values only grow: epochs are observed in publish order.
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "monotonic reads");
        }
        // The pre-churn pin still answers from epoch 1.
        let mut v = v0;
        let mut snap = snap0;
        assert_eq!(*snap, 4);
        assert!(cell.refresh(&mut v, &mut snap));
        assert_eq!(*snap, 12);
    }
}
