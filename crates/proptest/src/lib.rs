//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no access to crates.io, so this workspace ships
//! a minimal, dependency-free implementation of the slice of proptest's API
//! that our property tests actually use: the [`proptest!`] /
//! [`prop_compose!`] macros, numeric-range and tuple strategies,
//! `any::<T>()`, `collection::vec`, `prop_map`, and the `prop_assert*`
//! macros. Generation is a deterministic splitmix64 stream seeded from the
//! test's fully-qualified name and case index, so failures are exactly
//! reproducible across runs and machines (there is no shrinking — a failing
//! case panics with its inputs via the normal assert message).

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The `use proptest::prelude::*;` surface.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, proptest,
    };

    /// Namespace alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Discards the current case when the assumption does not hold.
///
/// Expands to an early `return` from the per-case closure the
/// [`proptest!`] macro wraps each body in.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the same shape as the real macro for the patterns used in this
/// repository: an optional `#![proptest_config(...)]` header followed by
/// one or more `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case as u64,
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);
                    )+
                    // The closure gives `prop_assume!` an early-exit scope.
                    let mut case_body = move || $body;
                    case_body();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Defines a function returning a derived strategy, proptest-style.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])*
     $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)
        ($($arg:ident in $strat:expr),+ $(,)?)
        -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::Strategy::prop_map(
                ($($strat,)+),
                move |($($arg,)+)| $body,
            )
        }
    };
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time, `Some(inner)` otherwise
    /// (the real proptest defaults to a 75% `Some` probability too).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}
