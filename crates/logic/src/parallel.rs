//! Parallelism configuration shared by both evaluation stacks.
//!
//! A worker count is a `retrieve` setting: its fixpoints split each large
//! delta scan across workers. `describe`'s tree enumeration runs on the
//! calling thread, but `DescribeOptions` carries the count too, since the
//! knowledge base derives a retrieve's engine options from it. The type
//! lives here (next to the governor) so `EvalOptions` and
//! `DescribeOptions` speak the same vocabulary.

use std::fmt;

/// Worker count for a parallel evaluation.
///
/// Parallelism is opt-in: the default is [`Parallelism::SEQUENTIAL`]
/// (`1`), which is guaranteed to take the exact sequential code path — no
/// threads, no merge. More workers are used only when asked for, with
/// [`Parallelism::workers`] or [`Parallelism::auto`], and then only for
/// delta scans large enough to split; answers are byte-identical at every
/// worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// The exact sequential path: one worker, no threads spawned.
    pub const SEQUENTIAL: Parallelism = Parallelism(1);

    /// Exactly `n` workers (`0` is treated as `1`).
    pub fn workers(n: usize) -> Self {
        Parallelism(n.max(1))
    }

    /// One worker per available core. Resolved once per process and
    /// cached: the `available_parallelism` syscall costs microseconds,
    /// which would dominate warm bound queries if paid per call.
    pub fn auto() -> Self {
        static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        Parallelism(*AUTO.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }))
    }

    /// The resolved worker count (always ≥ 1).
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SEQUENTIAL
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
        assert_eq!(Parallelism::workers(0), Parallelism::SEQUENTIAL);
    }

    #[test]
    fn explicit_counts_pass_through() {
        assert_eq!(Parallelism::workers(4).get(), 4);
        assert_eq!(Parallelism::from(8).get(), 8);
    }

    #[test]
    fn sequential_constant_is_one() {
        assert_eq!(Parallelism::SEQUENTIAL.get(), 1);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(Parallelism::default(), Parallelism::SEQUENTIAL);
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
