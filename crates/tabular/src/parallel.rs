//! The canonical worker-count clamp and the one fan-out every parallel
//! stage maps through.
//!
//! The house invariant — parallelism changes what a stage *costs*, never
//! what it *computes* — has a corollary about worker counts: asking for
//! more workers than the host has CPUs only adds contention (the 1-CPU
//! `parallelism = 2` regression tracked in ROADMAP), so every parallel
//! stage routes its requested parallelism through
//! [`effective_parallelism`]. Every compute-crate fan-out is a call to
//! [`map_ordered`], which clamps, falls back to a sequential map, and
//! returns results in input order, so no stage builds a pool of its own.
//! The `xlint` `unclamped-rayon` rule enforces this statically: a function
//! that constructs a pool or enters `par_iter` without consulting this
//! clamp fails the workspace lint.
//!
//! The module lives in `kgpip-tabular` — the bottom crate of the
//! workspace — so every compute crate can reach it without dependency
//! cycles.

use rayon::prelude::*;

/// Requested parallelism clamped to the CPUs the host actually has.
///
/// `0` (a directly-constructed config bypassing the builder's clamp) is
/// treated as sequential. Worker counts above the hardware width only add
/// contention; results never depend on the worker count, so clamping is
/// invisible except in cost.
pub fn effective_parallelism(requested: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    requested.clamp(1, available)
}

/// `items.iter().map(f).collect()`, computed on up to `parallelism`
/// workers.
///
/// The width is clamped through [`effective_parallelism`]. At width 1, or
/// with at most one item, the map runs sequentially on the caller;
/// otherwise it runs on a pool of that width, which a nested fan-out
/// inside `f` sees as its installed width. Results come back in input
/// order either way, so the output never depends on the width. A pool
/// that cannot be built runs the map sequentially.
pub fn map_ordered<T: Sync, U: Send>(
    parallelism: usize,
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let workers = effective_parallelism(parallelism);
    if workers > 1 && items.len() > 1 {
        if let Ok(pool) = rayon::ThreadPoolBuilder::new().num_threads(workers).build() {
            return pool.install(|| items.par_iter().map(&f).collect());
        }
    }
    items.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_clamped_to_sequential() {
        assert_eq!(effective_parallelism(0), 1);
    }

    #[test]
    fn one_is_identity() {
        assert_eq!(effective_parallelism(1), 1);
    }

    #[test]
    fn never_exceeds_the_host_width() {
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(effective_parallelism(usize::MAX), available);
        assert!(effective_parallelism(2) <= available.max(2));
    }

    /// A cheap, order-sensitive stand-in for per-item work.
    fn mix(x: u64) -> u64 {
        let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn map_ordered_equals_the_sequential_map(
            items in proptest::collection::vec(0u64..u64::MAX, 0..=64),
            width in 0usize..=4,
            inner_width in 0usize..=4,
        ) {
            let flat: Vec<u64> = items.iter().map(|&x| mix(x)).collect();
            prop_assert_eq!(map_ordered(width, &items, |&x| mix(x)), flat);

            // A fan-out nested inside a fan-out: each item maps a slice of
            // its own through the helper at a second width.
            let nested = |&x: &u64| -> Vec<u64> {
                let inner: Vec<u64> = (0..x % 9).map(|i| x.wrapping_add(i)).collect();
                map_ordered(inner_width, &inner, |&y| mix(y))
            };
            let sequential = |&x: &u64| -> Vec<u64> {
                (0..x % 9).map(|i| mix(x.wrapping_add(i))).collect()
            };
            let expected: Vec<Vec<u64>> = items.iter().map(sequential).collect();
            prop_assert_eq!(map_ordered(width, &items, nested), expected);
        }
    }
}
