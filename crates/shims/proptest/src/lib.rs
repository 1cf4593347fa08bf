//! Offline, API-compatible subset of `proptest`.
//!
//! The build environment has no crates.io access; this vendored shim
//! implements the surface the workspace's property tests use — the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], `Just`, `any`, `prop_oneof!`, and the
//! `proptest!` / `prop_assert*!` / `prop_assume!` macros.
//!
//! Differences from real proptest, deliberate for size:
//!
//! * **no shrinking** — a failing case reports its inputs via the assert
//!   message (tests here format the offending graph into the message);
//! * **`prop_assume!` skips the case** instead of re-drawing, so a test
//!   runs *up to* `cases` inputs;
//! * generation is deterministic per test name, so failures reproduce.

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of real proptest's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Rejection marker returned by `prop_assume!` failures.
#[derive(Debug)]
pub struct Rejected;

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body!{ $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body!{ $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($config:expr; $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    #[allow(clippy::redundant_closure_call)]
                    let __result = (|| -> ::core::result::Result<(), $crate::Rejected> {
                        let ($($pat,)+) = (
                            $($crate::strategy::Strategy::generate(&($strat), &mut __rng),)+
                        );
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    let _ = (__case, __result);
                }
            }
        )*
    };
}

/// Weighted or unweighted union of strategies over one value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $weight:expr => $strat:expr ),+ $(,)? ) => {
        $crate::strategy::union(vec![
            $( ( ($weight) as u32, $crate::strategy::Strategy::boxed($strat) ) ),+
        ])
    };
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::strategy::union(vec![
            $( ( 1u32, $crate::strategy::Strategy::boxed($strat) ) ),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::Rejected);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::Rejected);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Add(u64),
        Clear,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(n in 2usize..10, w in 1u64..8, x in any::<u8>()) {
            prop_assert!((2..10).contains(&n));
            prop_assert!((1..8).contains(&w));
            let _ = x;
        }

        #[test]
        fn flat_map_and_vec_sizes(v in (1usize..6).prop_flat_map(|n| crate::collection::vec(0u32..10, n))) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn tuple_and_map((n, doubled) in (1usize..50).prop_map(|n| (n, 2 * n))) {
            prop_assert_eq!(doubled, 2 * n);
        }

        #[test]
        fn oneof_produces_both_arms(ops in crate::collection::vec(
            prop_oneof![
                3 => (1u64..100).prop_map(Op::Add),
                1 => Just(Op::Clear),
            ],
            200,
        )) {
            prop_assert!(ops.iter().any(|o| matches!(o, Op::Add(_))));
            prop_assert!(ops.iter().any(|o| matches!(o, Op::Clear)));
        }

        #[test]
        fn assume_skips(n in 0usize..4) {
            prop_assume!(n != 0);
            prop_assert!(n > 0);
        }
    }

    #[test]
    fn deterministic_generation_per_name() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        let s = 0u64..1_000_000;
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
