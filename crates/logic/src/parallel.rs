//! A retired knob, kept by name only.
//!
//! Evaluation is sequential: one statement runs on its calling thread, and
//! concurrency comes from `SnapshotSession` readers on their own threads.
//! [`Parallelism`] exists only so the frozen `benchmark/` instrument, which
//! still names it, compiles.

/// The one evaluation mode there is. Zero-sized: there is nothing to set.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Parallelism;

impl Parallelism {
    /// The sequential mode, whatever `n` is.
    pub fn workers(_n: usize) -> Self {
        Parallelism
    }

    /// The sequential mode.
    pub fn auto() -> Self {
        Parallelism
    }
}
