//! Property-based tests for the tabular substrate.

use kgpip_tabular::{kfold, stratified_kfold, Column, ColumnStats, DataFrame, Dataset, Task};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// take() then take() composes like a single index composition.
    #[test]
    fn take_composes(
        values in proptest::collection::vec(-1e9f64..1e9, 3..40),
        picks in proptest::collection::vec(0usize..3, 1..10),
    ) {
        let col = Column::from_f64(values.clone());
        let first: Vec<usize> = (0..values.len()).rev().collect();
        let a = col.take(&first);
        let picks: Vec<usize> = picks.iter().map(|p| p % values.len()).collect();
        let b = a.take(&picks);
        let direct: Vec<usize> = picks.iter().map(|&p| first[p]).collect();
        let c = col.take(&direct);
        for i in 0..picks.len() {
            prop_assert_eq!(b.as_f64(i), c.as_f64(i));
        }
    }

    /// Every fold of kfold partitions the row set exactly.
    #[test]
    fn kfold_is_a_partition(n in 4usize..200, k in 2usize..6, seed in 0u64..50) {
        prop_assume!(k <= n);
        let folds = kfold(n, k, seed).unwrap();
        let mut seen = vec![0usize; n];
        for (train, val) in &folds {
            for &i in val {
                seen[i] += 1;
            }
            // Train and validation are disjoint and cover everything.
            let mut all: Vec<usize> = train.iter().chain(val.iter()).copied().collect();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), n);
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "each row validates exactly once");
    }

    /// Stratified folds keep every class's count within ±1 of ideal.
    #[test]
    fn stratified_kfold_balances_classes(
        class_sizes in proptest::collection::vec(4usize..30, 2..4),
        seed in 0u64..20,
    ) {
        let mut targets = Vec::new();
        for (c, &size) in class_sizes.iter().enumerate() {
            targets.extend(std::iter::repeat_n(c as f64, size));
        }
        let k = 3usize;
        let folds = stratified_kfold(&targets, k, seed).unwrap();
        for (_, val) in &folds {
            for (c, &size) in class_sizes.iter().enumerate() {
                let count = val.iter().filter(|&&i| targets[i] == c as f64).count();
                let ideal = size as f64 / k as f64;
                prop_assert!(
                    (count as f64 - ideal).abs() <= 1.0,
                    "class {c}: {count} in fold vs ideal {ideal}"
                );
            }
        }
    }

    /// Column statistics quantiles are sorted and bounded by min/max.
    #[test]
    fn stats_quantiles_are_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let stats = ColumnStats::compute(&Column::from_f64(values));
        for w in stats.quantiles.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert!(stats.min <= stats.quantiles[0]);
        prop_assert!(stats.quantiles[4] <= stats.max);
        prop_assert!(stats.std >= 0.0);
    }

    /// Dataset::take preserves the task and class labels.
    #[test]
    fn dataset_take_preserves_metadata(
        n in 4usize..50,
        picks in proptest::collection::vec(0usize..4, 1..8),
    ) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let f = DataFrame::from_columns(vec![("x".to_string(), Column::from_f64(x))]).unwrap();
        let ds = Dataset::new("p", f, y.clone(), Task::MultiClass(3)).unwrap();
        let picks: Vec<usize> = picks.iter().map(|p| p % n).collect();
        let sub = ds.take(&picks);
        prop_assert_eq!(sub.task, ds.task);
        prop_assert_eq!(sub.num_rows(), picks.len());
        for (j, &i) in picks.iter().enumerate() {
            prop_assert_eq!(sub.target[j], y[i]);
        }
    }
}
