//! Offline shim for `proptest` covering the surface this workspace uses:
//! the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`/`prop_assume!`,
//! range/tuple/[`Just`]/[`any`] strategies, [`collection::vec`], and the
//! `prop_map`/`prop_flat_map` combinators.
//!
//! Cases are generated from a deterministic seed derived from the test name,
//! so failures reproduce run-to-run. There is no shrinking: a failing case
//! panics with the case index, and the values involved are best reported via
//! the assertion's own format arguments.

use rand::rngs::StdRng;
use rand::Rng;

pub use rand::SeedableRng as ShimSeedableRng;

/// Runner configuration. Only `cases` is interpreted.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of passing cases required per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config requiring `cases` passing cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Outcome of a single generated case (used by the [`proptest!`] expansion).
pub enum CaseOutcome {
    /// The body ran to completion.
    Pass,
    /// A `prop_assume!` rejected the inputs; the case does not count.
    Reject,
}

/// A generator of values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f`.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut StdRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of its value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform strategy over the whole domain of `T`.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Builds the uniform strategy for `T`.
#[must_use]
pub fn any<T: rand::Standard>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen::<T>()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, f64, f32);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a strategy generating vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic per-test seed: FNV-1a over the test's name.
#[must_use]
pub fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Defines deterministic property tests.
///
/// Each `fn name(pat in strategy, ...) { body }` becomes a function that
/// generates inputs until the configured number of cases pass (rejections
/// via `prop_assume!` are retried up to a 10x budget). As in proptest, the
/// macro adds no `#[test]` of its own: the caller writes it, once.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = <$crate::__StdRng as $crate::ShimSeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                let mut passed: u32 = 0;
                let mut attempts: u32 = 0;
                while passed < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= config.cases.saturating_mul(10),
                        "too many prop_assume! rejections in {}",
                        stringify!($name),
                    );
                    $(let generated = $crate::Strategy::generate(&($strat), &mut rng);
                      let $pat = generated;)+
                    let outcome = (|| {
                        $body
                        $crate::CaseOutcome::Pass
                    })();
                    if let $crate::CaseOutcome::Pass = outcome {
                        passed += 1;
                    }
                }
            }
        )*
    };
}

#[doc(hidden)]
pub use rand::rngs::StdRng as __StdRng;

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Rejects the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return $crate::CaseOutcome::Reject;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair_strategy() -> impl Strategy<Value = (Vec<f64>, usize)> {
        (1usize..5, 2usize..6)
            .prop_flat_map(|(n, cols)| (collection::vec(-10.0f64..10.0, n * cols), Just(cols)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_any(x in 3usize..10, y in any::<u64>(), b in any::<bool>()) {
            prop_assert!((3..10).contains(&x));
            let _ = (y, b);
        }

        #[test]
        fn assume_rejects_and_retries(v in 0usize..8) {
            prop_assume!(v != 3);
            prop_assert!(v != 3, "assume failed to filter {}", v);
        }

        #[test]
        fn flat_map_ties_sizes((data, cols) in pair_strategy()) {
            prop_assert_eq!(data.len() % cols, 0);
        }

        #[test]
        fn vec_sizes_in_bounds(v in collection::vec(any::<u8>(), 2..=5)) {
            prop_assert!((2..=5).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::seed_for("a::b"), crate::seed_for("a::c"));
    }
}
