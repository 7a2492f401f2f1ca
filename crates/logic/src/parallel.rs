//! Parallelism configuration shared by both evaluation stacks.
//!
//! A worker count is a `retrieve` setting: its fixpoints partition each
//! round's delta chunks across workers. `describe`'s tree enumeration runs
//! on the calling thread, but `DescribeOptions` carries the count too,
//! since the knowledge base derives a retrieve's engine options from it.
//! The type lives here (next to the governor) so `EvalOptions` and
//! `DescribeOptions` speak the same vocabulary.

use std::fmt;

/// Worker count for a parallel evaluation.
///
/// The default ([`Parallelism::auto`]) resolves to the platform's available
/// cores, overridable with the `QDK_TEST_THREADS` environment variable (the
/// CI matrix pins the sequential path with `QDK_TEST_THREADS=1`).
/// [`Parallelism::SEQUENTIAL`] (`1`) is guaranteed to take the exact
/// sequential code path — no threads, no merge, byte-identical behaviour to
/// the pre-parallel engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// The exact sequential path: one worker, no threads spawned.
    pub const SEQUENTIAL: Parallelism = Parallelism(1);

    /// Exactly `n` workers (`0` is treated as `1`).
    pub fn workers(n: usize) -> Self {
        Parallelism(n.max(1))
    }

    /// Platform default: `QDK_TEST_THREADS` if set to a positive integer,
    /// otherwise the number of available cores. Resolved once per process
    /// and cached — the environment probe and the `available_parallelism`
    /// syscall cost microseconds, which dominates warm bound queries when
    /// paid on every `EvalOptions::default()`.
    pub fn auto() -> Self {
        static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        Parallelism(*AUTO.get_or_init(|| {
            if let Ok(v) = std::env::var("QDK_TEST_THREADS") {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n > 0 {
                        return n;
                    }
                }
            }
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }))
    }

    /// The resolved worker count (always ≥ 1).
    pub fn get(self) -> usize {
        self.0
    }

    /// True when evaluation must take the exact sequential path.
    pub fn is_sequential(self) -> bool {
        self.0 <= 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for Parallelism {
    fn from(n: usize) -> Self {
        Parallelism::workers(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(Parallelism::workers(0).get(), 1);
        assert!(Parallelism::workers(0).is_sequential());
    }

    #[test]
    fn explicit_counts_pass_through() {
        assert_eq!(Parallelism::workers(4).get(), 4);
        assert!(!Parallelism::workers(4).is_sequential());
        assert_eq!(Parallelism::from(8).get(), 8);
    }

    #[test]
    fn sequential_constant_is_one() {
        assert_eq!(Parallelism::SEQUENTIAL.get(), 1);
        assert!(Parallelism::SEQUENTIAL.is_sequential());
    }

    #[test]
    fn auto_is_positive() {
        assert!(Parallelism::auto().get() >= 1);
    }

    #[test]
    fn displays_as_count() {
        assert_eq!(Parallelism::workers(3).to_string(), "3");
    }
}
