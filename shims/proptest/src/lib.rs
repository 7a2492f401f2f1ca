//! Minimal in-tree stand-in for the `proptest` crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the subset of proptest's API that the repository's
//! property tests use: the [`strategy::Strategy`] trait with `prop_map` / `prop_filter`
//! / `boxed`, [`strategy::Just`], integer-range and tuple strategies,
//! [`collection::vec`], regex-lite string strategies, the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` / `prop_oneof!` macros, and
//! [`ProptestConfig`].
//!
//! Differences from real proptest: generation is a fixed deterministic seed
//! per test (derived from the test name), and failing cases are reported but
//! not shrunk. Both are acceptable for this repository's use — the tests are
//! soundness and never-panic properties over generated inputs.

#![forbid(unsafe_code)]

use std::fmt;

/// Failure raised by a property body (via `prop_assert!` and friends).
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic generation machinery.
pub mod test_runner {
    /// SplitMix64 generator driving all strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded generator.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Stable per-test seed derived from the test's name.
    pub fn rng_for(name: &str) -> TestRng {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::from_seed(h)
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe core (`gen`) plus `Sized`-gated combinators, so
    /// `Box<dyn Strategy<Value = T>>` works.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Generate one value.
        fn gen(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keep only values for which `f` returns true, retrying otherwise.
        fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                f,
            }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(pub Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen(&self, rng: &mut TestRng) -> T {
            self.0.gen(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn gen(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen(rng))
        }
    }

    /// Output of [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn gen(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.gen(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter gave up after 1000 rejections: {}", self.reason);
        }
    }

    /// Weighted choice between type-erased alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms; weights must not all be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return s.gen(rng);
                }
                pick -= w;
            }
            unreachable!("weighted pick exceeded total weight")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn gen(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.gen(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);

    /// Regex-lite string strategy: `&str` patterns support literal
    /// characters, `\n`/`\t`/`\\` escapes, character classes with ranges
    /// (e.g. `[a-z0-9_]`, `[ -~\n]`), and `{m}` / `{m,n}` quantifiers.
    impl Strategy for &str {
        type Value = String;
        fn gen(&self, rng: &mut TestRng) -> String {
            let items = parse_pattern(self);
            let mut out = String::new();
            for (alphabet, lo, hi) in &items {
                let n = if lo == hi {
                    *lo
                } else {
                    *lo + rng.below((hi - lo + 1) as u64) as usize
                };
                for _ in 0..n {
                    let i = rng.below(alphabet.len() as u64) as usize;
                    out.push(alphabet[i]);
                }
            }
            out
        }
    }

    /// One pattern item: candidate characters plus repetition bounds.
    type PatternItem = (Vec<char>, usize, usize);

    fn parse_pattern(pat: &str) -> Vec<PatternItem> {
        let chars: Vec<char> = pat.chars().collect();
        let mut items = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let alphabet = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unclosed class in pattern {pat:?}"))
                        + i;
                    let set = parse_class(&chars[i + 1..close], pat);
                    i = close + 1;
                    set
                }
                '\\' => {
                    let c = unescape(chars.get(i + 1).copied(), pat);
                    i += 2;
                    vec![c]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            let (lo, hi) = if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unclosed quantifier in pattern {pat:?}"))
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("quantifier lower bound"),
                        hi.trim().parse().expect("quantifier upper bound"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("quantifier count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(lo <= hi, "bad quantifier in pattern {pat:?}");
            items.push((alphabet, lo, hi));
        }
        items
    }

    fn parse_class(body: &[char], pat: &str) -> Vec<char> {
        let mut set = Vec::new();
        let mut j = 0;
        while j < body.len() {
            let c = if body[j] == '\\' {
                let c = unescape(body.get(j + 1).copied(), pat);
                j += 2;
                c
            } else {
                let c = body[j];
                j += 1;
                c
            };
            // A `-` with something on both sides forms a range.
            if body.get(j) == Some(&'-') && j + 1 < body.len() {
                let hi = if body[j + 1] == '\\' {
                    let h = unescape(body.get(j + 2).copied(), pat);
                    j += 3;
                    h
                } else {
                    let h = body[j + 1];
                    j += 2;
                    h
                };
                assert!(c <= hi, "inverted range in pattern {pat:?}");
                for code in (c as u32)..=(hi as u32) {
                    if let Some(ch) = char::from_u32(code) {
                        set.push(ch);
                    }
                }
            } else {
                set.push(c);
            }
        }
        assert!(!set.is_empty(), "empty class in pattern {pat:?}");
        set
    }

    fn unescape(c: Option<char>, pat: &str) -> char {
        match c {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some(other) => other,
            None => panic!("dangling escape in pattern {pat:?}"),
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and length in a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `Vec` strategy: each value has a length drawn from `len` and elements
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range in collection::vec");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.gen(rng)).collect()
        }
    }
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestCaseError};
}

/// Define property tests. Each inner `fn name(arg in strategy, ...)` runs its
/// body for `cases` generated inputs (see [`ProptestConfig`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[allow(unreachable_code)]
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::rng_for(stringify!($name));
            for __case in 0..__config.cases {
                $(
                    let $arg = $crate::strategy::Strategy::gen(&($strat), &mut __rng);
                )*
                let __runner = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                let __outcome = __runner();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
}

/// Assert a condition inside a property body, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)*)),
            ));
        }
    }};
}

/// Choose among strategies, optionally weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::rng_for;

    #[test]
    fn string_pattern_respects_shape() {
        let mut rng = rng_for("string_pattern_respects_shape");
        for _ in 0..200 {
            let s = "[a-z][a-z0-9_]{0,6}".gen(&mut rng);
            assert!(!s.is_empty() && s.len() <= 7, "bad len: {s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn byte_soup_pattern_covers_newline() {
        let mut rng = rng_for("byte_soup_pattern_covers_newline");
        let mut saw_newline = false;
        for _ in 0..300 {
            let s = "[ -~\\n]{0,120}".gen(&mut rng);
            assert!(s.len() <= 120);
            saw_newline |= s.contains('\n');
            assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
        assert!(saw_newline, "newline never generated");
    }

    #[test]
    fn oneof_weights_and_map_filter() {
        let mut rng = rng_for("oneof_weights_and_map_filter");
        let strat = prop_oneof![
            4 => (0i64..10).prop_map(|v| v * 2),
            1 => Just(1i64),
        ];
        let mut odd = 0;
        for _ in 0..500 {
            let v = strat.gen(&mut rng);
            if v == 1 {
                odd += 1;
            } else {
                assert!(v % 2 == 0 && (0..20).contains(&v));
            }
        }
        assert!(odd > 20 && odd < 250, "weighting off: {odd}");
        let filtered = (0u32..50).prop_filter("even only", |v| v % 2 == 0);
        for _ in 0..100 {
            assert_eq!(filtered.gen(&mut rng) % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, early return works, asserts work.
        #[test]
        fn macro_roundtrip(v in crate::collection::vec((0u8..6, 0u8..6), 1..14)) {
            prop_assert!(!v.is_empty(), "vec len {}", v.len());
            prop_assert_eq!(v.len(), v.len());
            if v.len() > 10 {
                return Ok(());
            }
            prop_assert!(v.iter().all(|(a, b)| *a < 6 && *b < 6));
        }
    }
}
