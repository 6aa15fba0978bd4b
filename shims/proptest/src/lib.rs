//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace uses: the [`proptest!`]
//! macro, strategies over numeric ranges, tuples, [`strategy::Just`],
//! `prop_map`, [`prop_oneof!`] unions and [`collection::vec`], plus the
//! `prop_assert*`/`prop_assume!` macros. Sampling is deterministic — each
//! test case draws from an RNG seeded by the test's module path, name and
//! case index — so failures reproduce exactly across runs. There is no
//! shrinking: the failing inputs are reported by the panic message of the
//! underlying `assert!`. See `shims/README.md`.

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for generating values of an associated type.
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map {
                strategy: self,
                func: f,
            }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        strategy: S,
        func: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.func)(self.strategy.sample(rng))
        }
    }

    /// Box a strategy for use in heterogeneous unions (`prop_oneof!`).
    pub fn boxed<S>(strategy: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(strategy)
    }

    /// Uniform choice between boxed strategies with a common value type.
    pub struct Union<T> {
        variants: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Build a union over `variants` (must be non-empty).
        pub fn new(variants: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!variants.is_empty(), "prop_oneof! needs >= 1 variant");
            Union { variants }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            let idx = rng.gen_range(0..self.variants.len());
            self.variants[idx].sample(rng)
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            (**self).sample(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($(($($S:ident . $idx:tt),+);)*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (S0.0);
        (S0.0, S1.1);
        (S0.0, S1.1, S2.2);
        (S0.0, S1.1, S2.2, S3.3);
        (S0.0, S1.1, S2.2, S3.3, S4.4);
        (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5);
        (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5, S6.6);
        (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5, S6.6, S7.7);
    }
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A range of collection sizes; built from `usize` (exact) or ranges.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Configuration and deterministic per-case RNG derivation.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG for one (test, case) pair: FNV-1a over the test
    /// name, mixed with the case index.
    pub fn rng_for(test_name: &str, case: u32) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config); $($rest)*);
    };
    (@impl ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[allow(
            clippy::redundant_closure_call,
            reason = "the expansion calls the user's closure immediately by design"
        )]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let strategy = ($($strategy,)+);
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::rng_for(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                let ($($arg,)+) = $crate::strategy::Strategy::sample(&strategy, &mut rng);
                (|| $body)();
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Assert inside a property; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice between strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 5u64..=9), f in -1.0f64..1.0) {
            prop_assert!(a < 10);
            prop_assert!((5..=9).contains(&b));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn mapped_and_oneof(v in (1usize..4).prop_map(|n| n * 2), c in prop_oneof![Just(1u8), Just(2)]) {
            prop_assert!(v == 2 || v == 4 || v == 6);
            prop_assert!(c == 1 || c == 2);
            prop_assume!(c == 1);
            prop_assert_eq!(c, 1);
        }

        #[test]
        fn vec_sizes(xs in crate::collection::vec(0u32..5, 2..6), ys in crate::collection::vec(0u32..5, 3)) {
            prop_assert!((2..6).contains(&xs.len()));
            prop_assert_eq!(ys.len(), 3);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = (0u64..1000, crate::collection::vec(-1.0f32..1.0, 0..8));
        let a = strat.sample(&mut crate::test_runner::rng_for("det", 3));
        let b = strat.sample(&mut crate::test_runner::rng_for("det", 3));
        assert_eq!(a, b);
    }
}
