//! In-workspace shim for `proptest` (no crates.io access — see
//! `shims/README.md`).
//!
//! Implements the slice of the proptest API the workspace's property tests
//! use: the [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros,
//! the [`Strategy`](strategy::Strategy) trait with `prop_map`, range and
//! tuple strategies, [`any`](strategy::any), `collection::vec`, and string
//! strategies from a small regex-like pattern subset (`[a-z]{1,6}`-style
//! classes and `\PC`).
//!
//! Departures from upstream: cases are drawn from a deterministic per-test
//! RNG (seeded from the test body's location), and there is **no shrinking**
//! — a failing case is reported as-is with its case index so it can be
//! replayed by rerunning the test.

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Deterministic splitmix64 generator used to drive all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift bounded sampling; bias is negligible for test sizes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The `proptest! { ... }` block: expands each contained `#[test] fn` into a
/// standard test that draws `cases` inputs from its strategies and runs the
/// body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_each! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_each! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_each {
    (($cfg:expr) $(
        $(#[$meta:meta])+
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                // Per-test deterministic seed: derived from the test name so
                // sibling tests explore different streams.
                let base = $crate::test_runner::seed_for(stringify!($name));
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::from_seed(
                        base ^ (case as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
                    );
                    let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                        $(let $p = $crate::strategy::Strategy::generate(&($s), &mut rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        panic!(
                            "proptest case {}/{} failed for `{}`:\n{}",
                            case + 1,
                            config.cases,
                            stringify!($name),
                            msg
                        );
                    }
                }
            }
        )*
    };
}

/// Assert inside a `proptest!` body; failure aborts the current case with a
/// message instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("prop_assert failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "prop_assert failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&($left), &($right)) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(format!(
                        "prop_assert_eq failed: {:?} != {:?}",
                        l, r
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&($left), &($right)) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(format!(
                        "prop_assert_eq failed: {:?} != {:?} — {}",
                        l, r,
                        format!($($fmt)+),
                    ));
                }
            }
        }
    };
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&($left), &($right)) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err(format!(
                        "prop_assert_ne failed: both sides are {:?}",
                        l
                    ));
                }
            }
        }
    };
}
