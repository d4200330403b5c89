//! In-tree shim for the `proptest` crate.
//!
//! Sample-based property testing: each `#[test]` inside [`proptest!`]
//! runs its body against `cases` inputs drawn from the argument
//! strategies, seeded deterministically from the test's module path and
//! case index, so failures reproduce across runs. Shrinking is not
//! implemented — a failing case panics with the sampled inputs'
//! assertion message directly.
//!
//! Implemented surface (what this workspace's property tests use):
//! ranges over primitive numbers, tuples, [`Just`], `&str` patterns
//! (arbitrary printable strings), `prop_map` / `prop_flat_map` /
//! `prop_filter_map`, [`prop_oneof!`] (weighted and unweighted),
//! `collection::{vec, btree_set}`, `option::of`, `bool::ANY`,
//! `any::<bool>()`, `ProptestConfig::with_cases`, and the
//! `prop_assert!` / `prop_assert_eq!` macros.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

/// The RNG driving every strategy sample.
pub type TestRng = rand::rngs::StdRng;

/// Per-test-case configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases each property runs against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` samples per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic RNG for one case of one property test.
pub fn rng_for_case(test_path: &str, case: u32) -> TestRng {
    use rand::SeedableRng;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in test_path.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::seed_from_u64(hash ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// A generator of test inputs.
///
/// Unlike upstream proptest there is no value tree: a strategy is a
/// plain sampler, and rejection (`prop_filter_map`) simply resamples.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Transforms values, resampling when the function returns `None`.
    fn prop_filter_map<T, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<T>,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, T, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<T>,
{
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        for _ in 0..4096 {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!(
            "proptest shim: filter `{}` rejected 4096 samples",
            self.whence
        );
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// `&str` patterns generate arbitrary printable strings. The only
/// pattern the workspace uses is `"\\PC*"` (any non-control text), so
/// the pattern itself is ignored beyond that intent: samples mix ASCII
/// printables with multi-byte characters and never contain controls.
impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        use rand::Rng;
        const POOL: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '{', '}', '[', ']', '-', '>', '@', '#', '=',
            '"', '\\', '.', ',', ';', ':', '_', '/', '*', 'é', 'π', '中', '😀',
        ];
        let len = rng.gen_range(0usize..64);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }
}

/// A weighted choice between boxed alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, Arc<dyn Strategy<Value = T>>)>,
    total: u32,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    pub fn weighted(arms: Vec<(u32, Arc<dyn Strategy<Value = T>>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

/// Erases a strategy's type for use as a [`Union`] arm.
pub fn arc_strategy<S>(strategy: S) -> Arc<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Arc::new(strategy)
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        use rand::Rng;
        let mut pick = rng.gen_range(0..self.total);
        for (weight, arm) in &self.arms {
            if pick < *weight {
                return arm.sample(rng);
            }
            pick -= weight;
        }
        unreachable!("weights sum to total");
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A size bound: an exact length or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange(std::ops::Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            use rand::Rng;
            if self.0.is_empty() {
                self.0.start
            } else {
                rng.gen_range(self.0.clone())
            }
        }
    }

    /// A strategy for `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy for `BTreeSet`s of `element` with a size in `size`.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.sample(rng);
            let mut set = std::collections::BTreeSet::new();
            // Duplicates shrink the set; bound the retries so a small
            // element domain cannot loop forever.
            for _ in 0..target.saturating_mul(64).max(64) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.sample(rng));
            }
            set
        }
    }
}

/// `Option` strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// `None` a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            use rand::Rng;
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// `bool` strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// A strategy yielding both booleans uniformly.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy (`prop::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = std::primitive::bool;

        fn sample(&self, rng: &mut TestRng) -> std::primitive::bool {
            use rand::Rng;
            rng.gen::<std::primitive::bool>()
        }
    }
}

/// Types with a canonical strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy for this type.
    type Strategy: Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

impl Arbitrary for std::primitive::bool {
    type Strategy = bool::Any;

    fn arbitrary() -> bool::Any {
        bool::Any
    }
}

/// The canonical strategy for `T` (`any::<bool>()`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// The `prop::` module alias used by `prop::bool::ANY` etc.
pub mod prop {
    pub use super::{bool, collection, option};
}

/// Everything property tests usually import.
pub mod prelude {
    pub use super::{any, prop, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests: `#[test]` functions whose arguments are
/// drawn from strategies (`arg in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            for __case in 0..__config.cases {
                let mut __rng = $crate::rng_for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let ($($pat,)+) = (
                    $( $crate::Strategy::sample(&($strat), &mut __rng), )+
                );
                // Upstream proptest runs bodies in a closure returning
                // `Result`, so tests may `return Ok(())` to skip a case.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), ::std::string::String> =
                    (move || {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!("property failed on case {__case}: {__msg}");
                }
            }
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            panic!("property assertion failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            panic!($($fmt)+);
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            panic!(
                "property assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            );
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            panic!($($fmt)+);
        }
    }};
}

/// Chooses between strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::weighted(::std::vec![
            $( (($weight) as u32, $crate::arc_strategy($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::weighted(::std::vec![
            $( (1u32, $crate::arc_strategy($strat)) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds_and_are_deterministic() {
        let mut rng_a = super::rng_for_case("t", 3);
        let mut rng_b = super::rng_for_case("t", 3);
        let strat = (0usize..5, 1.5f64..2.5);
        for _ in 0..200 {
            let (n, f) = Strategy::sample(&strat, &mut rng_a);
            assert!(n < 5 && (1.5..2.5).contains(&f));
            assert_eq!((n, f), Strategy::sample(&strat, &mut rng_b));
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = super::rng_for_case("c", 0);
        let dag = (2usize..9).prop_flat_map(|n| {
            let edges = super::collection::vec(
                (0..n, 0..n).prop_filter_map("fwd", |(a, b)| (a < b).then_some((a, b))),
                0..6,
            );
            (Just(n), edges)
        });
        for _ in 0..50 {
            let (n, edges) = Strategy::sample(&dag, &mut rng);
            assert!((2..9).contains(&n));
            for (a, b) in edges {
                assert!(a < b && b < n);
            }
        }
    }

    #[test]
    fn oneof_honours_weights() {
        let mut rng = super::rng_for_case("w", 1);
        let strat = prop_oneof![9 => Just(1u8), 1 => Just(2u8)];
        let picks: Vec<u8> = (0..300)
            .map(|_| Strategy::sample(&strat, &mut rng))
            .collect();
        let twos = picks.iter().filter(|&&p| p == 2).count();
        assert!(twos > 0 && twos < 90, "~10% expected, saw {twos}/300");
        let cloned = strat.clone();
        let _ = Strategy::sample(&cloned, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: patterns, trailing comma, tuple patterns.
        #[test]
        fn macro_end_to_end(
            (n, flag) in (1usize..4, prop::bool::ANY),
            text in "\\PC*",
            opt in super::option::of(0u8..3),
        ) {
            prop_assert!((1..4).contains(&n));
            prop_assert!(!text.chars().any(char::is_control));
            if let Some(x) = opt {
                prop_assert!(x < 3, "x = {x}");
            }
            prop_assert_eq!(flag, flag);
        }
    }
}
