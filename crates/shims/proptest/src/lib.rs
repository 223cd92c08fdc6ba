//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the strategy combinators and macros this workspace's property tests use:
//! [`Strategy`] with `prop_map`/`prop_flat_map`, [`Just`], ranges, tuples,
//! [`collection::vec`], [`any`], `prop_oneof!`, and the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Unlike real proptest there is no shrinking and no persisted failure
//! seeds: each test runs [`NUM_CASES`] deterministic cases seeded from the
//! test's module path and name, so failures reproduce exactly across runs.
//! Two environment variables override that for a soak: `PROPTEST_CASES`
//! (the case count) and `PROPTEST_SEED` (the generator's seed for every
//! test, decimal or `0x` hex). A failing case prints its seed, its index
//! and a command that reruns it.

use std::ops::{Range, RangeInclusive};

/// Number of deterministic cases each `proptest!` test executes unless
/// `PROPTEST_CASES` says otherwise.
pub const NUM_CASES: u32 = 32;

/// Runs one `proptest!` test: `case` draws its inputs from one generator
/// and checks them, once per case. The seed is `PROPTEST_SEED` or else
/// `label`'s hash; the case count is `PROPTEST_CASES` or else
/// [`NUM_CASES`]. A failing case, returned or panicking, prints its seed,
/// its index and a command that reruns it in package `package`.
///
/// # Panics
///
/// On the first failing case, and on an override that does not parse.
#[doc(hidden)]
pub fn run_cases(
    label: &str,
    name: &str,
    package: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), String>,
) {
    let seed = env_override("PROPTEST_SEED").unwrap_or_else(|| test_runner::fnv1a(label));
    let cases = env_override("PROPTEST_CASES").map_or(u64::from(NUM_CASES), |n| n);
    let mut rng = TestRng::from_seed(seed);
    for i in 0..cases {
        let rerun = || {
            eprintln!(
                "proptest {label}: seed {seed:#x}, case {i} of {cases}; rerun with \
                 PROPTEST_SEED={seed:#x} PROPTEST_CASES={} cargo test -p {package} -- {name}",
                i + 1
            );
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng))) {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => {
                rerun();
                panic!("proptest case {i} failed: {msg}");
            }
            Err(panic) => {
                rerun();
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// The value of the environment variable `name` as a `u64` (decimal or
/// `0x` hex), or `None` when it is unset.
fn env_override(name: &str) -> Option<u64> {
    let value = std::env::var(name).ok()?;
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{name}={value:?} is not a decimal or 0x-hex u64")))
}

pub mod test_runner {
    //! Deterministic random source for strategy sampling.

    /// The FNV-1a hash of `label`: a test's default seed.
    pub(crate) fn fnv1a(label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// SplitMix64 generator seeded from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds deterministically from an arbitrary label (FNV-1a hash).
        pub fn deterministic(label: &str) -> Self {
            Self::from_seed(fnv1a(label))
        }

        /// Starts the generator at `seed`.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next uniform 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A recipe for producing values of one type from a random source.
///
/// Object-safe: `Box<dyn Strategy<Value = V>>` works (used by `prop_oneof!`).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Produces a dependent strategy from each value and samples it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<V, S: Strategy<Value = V> + ?Sized> Strategy for Box<S> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (the `prop_oneof!` backend).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union; panics when `options` is empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }

    /// Starts a union from one option (pins the value type for inference).
    pub fn of<S: Strategy<Value = V> + 'static>(option: S) -> Self {
        Union { options: vec![Box::new(option)] }
    }

    /// Adds another equally weighted option.
    #[must_use]
    pub fn or<S: Strategy<Value = V> + 'static>(mut self, option: S) -> Self {
        self.options.push(Box::new(option));
        self
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = u128::from(rng.next_u64()) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = u128::from(rng.next_u64()) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
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
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

/// Uniform sampling of a whole type (the `Standard` analogue).
pub trait Arbitrary: Sized {
    /// Draws one uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy form of [`Arbitrary`]; see [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns a strategy producing uniform values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Element-count bounds for [`vec()`] (`min..max` exclusive above).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max_exclusive: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max_exclusive: r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_exclusive: n + 1 }
        }
    }

    /// Strategy yielding vectors of `element` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{Any, Arbitrary, Just, Strategy, Union};
}

/// Runs each contained `#[test] fn name(pat in strategy, ...) { body }`
/// over [`NUM_CASES`] deterministically seeded cases (see [`run_cases`]).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(
                    concat!(module_path!(), "::", stringify!($name)),
                    stringify!($name),
                    env!("CARGO_PKG_NAME"),
                    |__rng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Uniformly picks one of the given strategies each case.
#[macro_export]
macro_rules! prop_oneof {
    ($first:expr $(, $rest:expr)* $(,)?) => {
        $crate::Union::of($first)$(.or($rest))*
    };
}

/// `assert!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{}` != `{}`: {:?} vs {:?}",
                stringify!($left), stringify!($right), __l, __r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(format!(
                "{}: {:?} vs {:?}", format!($($fmt)+), __l, __r,
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sizes_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("bounds");
        let strat = vec(3usize..9, 2..5);
        for _ in 0..200 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (3..9).contains(x)));
        }
    }

    #[test]
    fn union_draws_every_option() {
        let mut rng = crate::test_runner::TestRng::deterministic("union");
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[Strategy::generate(&strat, &mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    #[test]
    fn overrides_parse_decimal_and_hex() {
        let name = "PROPTEST_SHIM_OVERRIDE_UNDER_TEST";
        assert_eq!(crate::env_override(name), None);
        std::env::set_var(name, "42");
        assert_eq!(crate::env_override(name), Some(42));
        std::env::set_var(name, "0x2a");
        assert_eq!(crate::env_override(name), Some(42));
        std::env::remove_var(name);
    }

    proptest! {
        #[test]
        fn flat_map_dependent_sampling(pair in (1usize..5).prop_flat_map(|n| {
            vec(0..n, 1..4).prop_map(move |v| (n, v))
        })) {
            let (n, v) = pair;
            prop_assert!(v.iter().all(|x| *x < n), "value out of range of {n}");
            prop_assert_eq!(v.is_empty(), false);
        }
    }
}
