//! Train/test and k-fold splitting with deterministic seeding.

use crate::dataset::Dataset;
use crate::error::TabularError;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Splits a dataset into `(train, test)` with `test_fraction` of rows in the
/// test part, after a seeded shuffle.
pub fn train_test_split(ds: &Dataset, test_fraction: f64, seed: u64) -> Result<(Dataset, Dataset)> {
    if !(0.0..1.0).contains(&test_fraction) || test_fraction <= 0.0 {
        return Err(TabularError::InvalidArgument(format!(
            "test_fraction must be in (0, 1), got {test_fraction}"
        )));
    }
    ensure_splittable(ds)?;
    let n = ds.num_rows();
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed));
    let test_n = ((n as f64 * test_fraction).round() as usize).clamp(1, n - 1);
    let (test_rows, train_rows) = rows.split_at(test_n);
    Ok((ds.take(train_rows), ds.take(test_rows)))
}

/// Checks that `ds` can be split at all: a split needs a row on each side.
/// At any valid fraction, [`train_test_split`] fails exactly when this does.
pub fn ensure_splittable(ds: &Dataset) -> Result<()> {
    if ds.num_rows() < 2 {
        return Err(TabularError::Empty("dataset with at least 2 rows"));
    }
    Ok(())
}

/// Produces `k` folds of `(train_rows, validation_rows)` index pairs over
/// `n` rows, after a seeded shuffle. Fold sizes differ by at most one.
pub fn kfold(n: usize, k: usize, seed: u64) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
    if k < 2 || k > n {
        return Err(TabularError::InvalidArgument(format!(
            "k must be in [2, n={n}], got {k}"
        )));
    }
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut folds = Vec::with_capacity(k);
    let base = n / k;
    let extra = n % k;
    let mut start = 0usize;
    for f in 0..k {
        let size = base + usize::from(f < extra);
        let val: Vec<usize> = rows[start..start + size].to_vec();
        let train: Vec<usize> = rows[..start]
            .iter()
            .chain(&rows[start + size..])
            .copied()
            .collect();
        folds.push((train, val));
        start += size;
    }
    Ok(folds)
}

/// Stratified k-fold for classification targets: each fold's class mix
/// approximates the global mix. `targets` are class indices.
pub fn stratified_kfold(
    targets: &[f64],
    k: usize,
    seed: u64,
) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
    let n = targets.len();
    if k < 2 || k > n {
        return Err(TabularError::InvalidArgument(format!(
            "k must be in [2, n={n}], got {k}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Group row indices by class, shuffle within class, deal round-robin.
    let mut by_class: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, &y) in targets.iter().enumerate() {
        by_class.entry(y.to_bits()).or_default().push(i);
    }
    let mut fold_of = vec![0usize; n];
    let mut next_fold = 0usize;
    for rows in by_class.values_mut() {
        rows.shuffle(&mut rng);
        for &row in rows.iter() {
            fold_of[row] = next_fold;
            next_fold = (next_fold + 1) % k;
        }
    }
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let val: Vec<usize> = (0..n).filter(|&i| fold_of[i] == f).collect();
        let train: Vec<usize> = (0..n).filter(|&i| fold_of[i] != f).collect();
        if val.is_empty() || train.is_empty() {
            return Err(TabularError::InvalidArgument(
                "stratified fold would be empty; reduce k".into(),
            ));
        }
        folds.push((train, val));
    }
    Ok(folds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dataset::Task;
    use crate::frame::DataFrame;

    fn toy(n: usize) -> Dataset {
        let f = DataFrame::from_columns(vec![(
            "x".to_string(),
            Column::from_f64((0..n).map(|i| i as f64).collect::<Vec<_>>()),
        )])
        .unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        Dataset::new("toy", f, y, Task::Binary).unwrap()
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let ds = toy(100);
        let (tr1, te1) = train_test_split(&ds, 0.3, 7).unwrap();
        let (tr2, te2) = train_test_split(&ds, 0.3, 7).unwrap();
        assert_eq!(tr1.num_rows(), 70);
        assert_eq!(te1.num_rows(), 30);
        assert_eq!(tr1.target, tr2.target);
        assert_eq!(te1.target, te2.target);
        let mut xs: Vec<f64> = tr1
            .features
            .column("x")
            .unwrap()
            .numeric_values()
            .into_iter()
            .chain(te1.features.column("x").unwrap().numeric_values())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(xs, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn split_different_seed_differs() {
        let ds = toy(100);
        let (_, te1) = train_test_split(&ds, 0.3, 1).unwrap();
        let (_, te2) = train_test_split(&ds, 0.3, 2).unwrap();
        assert_ne!(
            te1.features.column("x").unwrap().numeric_values(),
            te2.features.column("x").unwrap().numeric_values()
        );
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let ds = toy(10);
        assert!(train_test_split(&ds, 0.0, 0).is_err());
        assert!(train_test_split(&ds, 1.0, 0).is_err());
    }

    #[test]
    fn kfold_covers_every_row_exactly_once_in_validation() {
        let folds = kfold(23, 5, 3).unwrap();
        assert_eq!(folds.len(), 5);
        let mut all_val: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all_val.sort_unstable();
        assert_eq!(all_val, (0..23).collect::<Vec<_>>());
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            assert!(val.len() == 4 || val.len() == 5);
        }
    }

    #[test]
    fn kfold_rejects_bad_k() {
        assert!(kfold(10, 1, 0).is_err());
        assert!(kfold(10, 11, 0).is_err());
    }

    #[test]
    fn stratified_preserves_class_balance() {
        // 90 of class 0, 10 of class 1.
        let targets: Vec<f64> = (0..100).map(|i| f64::from(i < 10)).collect();
        let folds = stratified_kfold(&targets, 5, 11).unwrap();
        for (_, val) in &folds {
            let minority = val.iter().filter(|&&i| targets[i] == 1.0).count();
            assert_eq!(minority, 2, "each fold should carry 2 minority rows");
        }
    }

    #[test]
    fn stratified_validation_partition_is_exact() {
        let targets: Vec<f64> = (0..30).map(|i| (i % 3) as f64).collect();
        let folds = stratified_kfold(&targets, 3, 0).unwrap();
        let mut all: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }
}
