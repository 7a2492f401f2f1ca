//! Minimal in-tree bounded parallel executor.
//!
//! The build environment has no registry access, so — like the `rand` and
//! `proptest` shims — this crate provides exactly the parallel-execution
//! surface the workspace needs, on `std::thread` alone: no work stealing,
//! no task queues, no unsafe code.
//!
//! The model is *permit-based structured fork/join*: a [`Pool`] holds a
//! fixed number of permits (worker slots). [`Pool::join_all`] runs a batch
//! of closures, spawning a scoped thread for each closure that can acquire
//! a permit and running the rest inline on the calling thread. Results come
//! back in submission order, so callers can merge deterministically. Because
//! a batch that finds no free permits simply runs inline, nested use (a
//! task that itself calls `join_all`) degrades gracefully to sequential
//! execution instead of exploding the thread count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of worker threads the platform can run concurrently, or 1 when
/// the platform will not say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A bounded pool of worker permits.
///
/// `Pool` does not own threads: threads are spawned per [`Pool::join_all`]
/// (scoped, so borrows of the caller's stack work) and bounded by the
/// permit count. A pool with `workers <= 1` never spawns — every batch
/// runs inline, byte-identical to a plain sequential loop.
#[derive(Clone, Debug)]
pub struct Pool {
    /// Extra threads allowed beyond the calling thread.
    permits: Arc<AtomicUsize>,
    workers: usize,
}

impl Pool {
    /// A pool allowing up to `workers` concurrent threads of execution
    /// (including the calling thread). `0` is treated as `1`.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Pool {
            permits: Arc::new(AtomicUsize::new(workers - 1)),
            workers,
        }
    }

    /// A pool sized to the platform's available parallelism.
    pub fn auto() -> Self {
        Pool::new(available_parallelism())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when the pool can never spawn (sequential path).
    pub fn is_sequential(&self) -> bool {
        self.workers <= 1
    }

    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs every closure in `tasks`, returning their results in
    /// submission order. Up to the pool's permit count of tasks run on
    /// spawned scoped threads; the remainder (always at least the final
    /// task) run inline on the calling thread. With one task or a
    /// sequential pool this is exactly a sequential loop — no threads, no
    /// allocation beyond the result vector.
    pub fn join_all<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if self.is_sequential() || tasks.len() <= 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }
        let n = tasks.len();
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(None);
        }
        std::thread::scope(|scope| {
            let mut inline: Vec<(usize, F)> = Vec::new();
            let mut handles = Vec::new();
            for (i, task) in tasks.into_iter().enumerate() {
                // Keep the last task inline so the calling thread always
                // contributes instead of idling in join().
                if i + 1 < n && self.try_acquire() {
                    let pool = self.clone();
                    handles.push((
                        i,
                        scope.spawn(move || {
                            let r = task();
                            pool.release();
                            r
                        }),
                    ));
                } else {
                    inline.push((i, task));
                }
            }
            for (i, task) in inline {
                slots[i] = Some(task());
            }
            for (i, h) in handles {
                match h.join() {
                    Ok(r) => slots[i] = Some(r),
                    // A panicking task poisons the whole batch: re-raise on
                    // the caller so the failure is not silently dropped.
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled by its task"))
            .collect()
    }

    /// Maps `f` over `items` with bounded parallelism, preserving order.
    pub fn parallel_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.join_all(items.into_iter().map(|item| move || f(item)).collect())
    }

    /// Splits `len` items into at most `workers` contiguous chunks of
    /// near-equal size, returned as `(start, end)` ranges. Empty when
    /// `len` is 0.
    pub fn chunk_ranges(&self, len: usize) -> Vec<(usize, usize)> {
        chunk_ranges(len, self.workers)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

/// Splits `len` items into at most `parts` contiguous `(start, end)`
/// ranges of near-equal size (first ranges get the remainder).
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_all_preserves_order() {
        let pool = Pool::new(4);
        let tasks: Vec<_> = (0..32).map(|i| move || i * 2).collect();
        let out = pool.join_all(tasks);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_pool_never_spawns() {
        let pool = Pool::new(1);
        assert!(pool.is_sequential());
        let main_id = std::thread::current().id();
        let tasks: Vec<_> = (0..8)
            .map(|_| move || std::thread::current().id() == main_id)
            .collect();
        assert!(pool.join_all(tasks).into_iter().all(|on_main| on_main));
    }

    #[test]
    fn zero_workers_is_one() {
        assert_eq!(Pool::new(0).workers(), 1);
    }

    #[test]
    fn nested_join_all_degrades_instead_of_exploding() {
        let pool = Pool::new(2);
        let inner = pool.clone();
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                let inner = inner.clone();
                move || {
                    let sub: Vec<_> = (0..4).map(|j| move || i * 10 + j).collect();
                    inner.join_all(sub).iter().sum::<i32>()
                }
            })
            .collect();
        let out = pool.join_all(tasks);
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn permits_are_restored_after_batches() {
        let pool = Pool::new(3);
        for _ in 0..5 {
            let _ = pool.join_all((0..7).map(|i| move || i).collect::<Vec<_>>());
        }
        assert_eq!(pool.permits.load(Ordering::Acquire), 2);
    }

    #[test]
    fn parallel_map_matches_sequential_map() {
        let pool = Pool::new(4);
        let items: Vec<i64> = (0..100).collect();
        let expected: Vec<i64> = items.iter().map(|x| x * x).collect();
        assert_eq!(pool.parallel_map(items, |x| x * x), expected);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 5, 8, 17] {
            for parts in [1usize, 2, 4, 9] {
                let ranges = chunk_ranges(len, parts);
                let mut covered = 0;
                let mut prev_end = 0;
                for (s, e) in &ranges {
                    assert_eq!(*s, prev_end);
                    assert!(e > s);
                    covered += e - s;
                    prev_end = *e;
                }
                assert_eq!(covered, len);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn results_from_threads_and_inline_agree() {
        let pool = Pool::new(8);
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Mix of fast and slow tasks to force interleaving.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i + 1
                }
            })
            .collect();
        assert_eq!(pool.join_all(tasks), (1..=64).collect::<Vec<_>>());
    }
}
