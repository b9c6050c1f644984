//! Property-based tests for learners, transformers and metrics.

use kgpip_learners::estimators::{build_estimator, EstimatorKind, Params};
use kgpip_learners::matrix::Matrix;
use kgpip_learners::pipeline::PipelineSpec;
use kgpip_learners::preprocess::{build_transformer, TransformerKind};
use kgpip_learners::{metrics, EncodedDataset, FeatureEncoder, Pipeline};
use kgpip_tabular::{Column, DataFrame, Dataset, Task};
use proptest::prelude::*;

fn matrix_strategy() -> impl Strategy<Value = Matrix> {
    (2usize..20, 1usize..6).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(-100.0f64..100.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(data, rows, cols).unwrap())
    })
}

/// A mixed frame with a target: a numeric column, a categorical column,
/// optionally a NaN-bearing numeric column, and labels drawn for `task`.
fn mixed_dataset_strategy() -> impl Strategy<Value = Dataset> {
    let tasks = [Task::Binary, Task::MultiClass(3), Task::Regression];
    (8usize..40, 0usize..tasks.len(), 0usize..2).prop_flat_map(move |(n, task, with_nan)| {
        let task = tasks[task];
        (
            proptest::collection::vec(-50.0f64..50.0, n),
            proptest::collection::vec(0usize..4, n),
            proptest::collection::vec(proptest::option::of(-5.0f64..5.0), n),
            proptest::collection::vec(0usize..3, n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
            .prop_map(move |(num, cats, gappy, labels, values)| {
                let cats: Vec<Option<&str>> = cats
                    .iter()
                    .map(|&c| Some(["a", "b", "c", "d"][c]))
                    .collect();
                let mut columns = vec![
                    ("num".to_string(), Column::from_f64(num)),
                    ("cat".to_string(), Column::categorical(cats)),
                ];
                if with_nan == 1 {
                    columns.push(("gappy".to_string(), Column::numeric(gappy)));
                }
                let classes = match task {
                    Task::MultiClass(k) => k,
                    _ => 2,
                };
                let target: Vec<f64> = match task {
                    Task::Regression => values,
                    _ => labels.iter().map(|&l| (l % classes) as f64).collect(),
                };
                let frame = DataFrame::from_columns(columns).unwrap();
                Dataset::new("drawn", frame, target, task).unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The encode-once trial path equals the raw-frame oracle: for drawn
    /// frames (numeric, categorical, NaN-bearing columns), chains of 0–3
    /// transformers (sometimes led by an imputer) and an estimator that
    /// supports the task, `fit_predict_encoded` on the encoded splits
    /// predicts `fit` + `predict`'s bits, or both fail with one message.
    #[test]
    fn encoded_fit_predict_equals_the_raw_path(
        ds in mixed_dataset_strategy(),
        chain in proptest::collection::vec(0usize..TransformerKind::ALL.len(), 0..=3),
        lead_with_imputer in 0usize..2,
        estimator_idx in 0usize..EstimatorKind::ALL.len(),
    ) {
        let mut transformers: Vec<TransformerKind> =
            chain.iter().map(|&i| TransformerKind::ALL[i]).collect();
        if lead_with_imputer == 1 {
            transformers.insert(0, TransformerKind::SimpleImputer);
            transformers.truncate(3);
        }
        let supported: Vec<EstimatorKind> = EstimatorKind::ALL
            .iter()
            .copied()
            .filter(|k| k.supports(ds.task))
            .collect();
        let spec = PipelineSpec {
            transformers: transformers.iter().map(|k| (*k, Params::new())).collect(),
            estimator: supported[estimator_idx % supported.len()],
            params: Params::new(),
        };
        let cut = ds.num_rows() * 2 / 3;
        let rows: Vec<usize> = (0..ds.num_rows()).collect();
        let (train, test) = (ds.take(&rows[..cut]), ds.take(&rows[cut..]));

        let raw = Pipeline::from_spec(spec.clone()).and_then(|mut p| {
            p.fit(&train)?;
            p.predict(&test)
        });
        let encoded_train = EncodedDataset::from_dataset(&train).unwrap();
        let encoded_test = EncodedDataset::with_encoder(encoded_train.encoder(), &test).unwrap();
        let encoded = Pipeline::from_spec(spec.clone())
            .and_then(|mut p| p.fit_predict_encoded(&encoded_train, &encoded_test));
        let bits = |pred: Vec<f64>| pred.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            raw.map(bits).map_err(|e| e.to_string()),
            encoded.map(bits).map_err(|e| e.to_string()),
            "{}",
            spec.describe()
        );
    }

    /// Every transformer preserves row count and produces finite output on
    /// finite input.
    #[test]
    fn transformers_preserve_rows_and_finiteness(
        x in matrix_strategy(),
        kind_idx in 0usize..TransformerKind::ALL.len(),
    ) {
        use kgpip_learners::encode::FeatureRole;
        let kind = TransformerKind::ALL[kind_idx];
        let mut t = build_transformer(kind, &Default::default()).unwrap();
        let roles = vec![FeatureRole::Numeric; x.cols()];
        let y: Vec<f64> = (0..x.rows()).map(|i| (i % 2) as f64).collect();
        let out_roles = t.fit(&x, &y, &roles).unwrap();
        let out = t.transform(&x).unwrap();
        prop_assert_eq!(out.rows(), x.rows(), "{}", kind.name());
        prop_assert_eq!(out.cols(), out_roles.len(), "{}", kind.name());
        prop_assert!(out.as_slice().iter().all(|v| v.is_finite()), "{}", kind.name());
    }

    /// Macro-F1 and accuracy stay in [0, 1] and agree on perfection.
    #[test]
    fn classification_metrics_are_bounded(
        truth in proptest::collection::vec(0usize..4, 1..60),
        preds in proptest::collection::vec(0usize..4, 60),
    ) {
        let t: Vec<f64> = truth.iter().map(|&v| v as f64).collect();
        let p: Vec<f64> = preds[..t.len()].iter().map(|&v| v as f64).collect();
        let f1 = metrics::macro_f1(&t, &p, 4);
        let acc = metrics::accuracy(&t, &p);
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!((0.0..=1.0).contains(&acc));
        // Perfect prediction is F1 = 1 only when all labels appear (absent
        // classes contribute 0 under macro averaging with explicit labels).
        let all_present = (0..4).all(|c| truth.contains(&c));
        if all_present {
            prop_assert!((metrics::macro_f1(&t, &t, 4) - 1.0).abs() < 1e-12);
        } else {
            prop_assert!(metrics::macro_f1(&t, &t, 4) <= 1.0);
        }
    }

    /// R² is 1 exactly on perfect predictions and never exceeds 1.
    #[test]
    fn r2_upper_bound(y in proptest::collection::vec(-1e3f64..1e3, 2..60)) {
        prop_assert!(metrics::r2(&y, &y) <= 1.0 + 1e-12);
        prop_assert!((metrics::r2(&y, &y) - 1.0).abs() < 1e-9 || y.iter().all(|v| *v == y[0]));
        let shifted: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
        prop_assert!(metrics::r2(&y, &shifted) <= 1.0);
    }

    /// Every classification-capable estimator predicts valid class indices
    /// and probability rows that sum to 1.
    #[test]
    fn classifiers_emit_valid_distributions(
        seed in 0u64..30,
        kind_idx in 0usize..EstimatorKind::ALL.len(),
    ) {
        let kind = EstimatorKind::ALL[kind_idx];
        prop_assume!(kind.supports(Task::MultiClass(3)));
        // Small deterministic 3-class problem.
        let rows: Vec<Vec<f64>> = (0..45)
            .map(|i| vec![(i % 15) as f64, ((i * 7 + seed as usize) % 9) as f64])
            .collect();
        let y: Vec<f64> = (0..45).map(|i| ((i / 15) % 3) as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut params = Params::new();
        params.insert("n_estimators".into(), 5.0);
        params.insert("max_iter".into(), 60.0);
        let mut est = build_estimator(kind, &params).unwrap();
        est.fit(&x, &y, Task::MultiClass(3)).unwrap();
        let preds = est.predict(&x).unwrap();
        prop_assert!(preds.iter().all(|p| (0.0..3.0).contains(p) && p.fract() == 0.0));
        let proba = est.predict_proba(&x).unwrap();
        prop_assert_eq!(proba.cols(), 3);
        for r in 0..proba.rows() {
            let s: f64 = proba.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-6, "{}: row sums to {s}", kind.name());
            prop_assert!(proba.row(r).iter().all(|p| (-1e-9..=1.0 + 1e-9).contains(p)));
        }
    }

    /// The feature encoder is deterministic and shape-stable under
    /// arbitrary mixed frames.
    #[test]
    fn encoder_is_shape_stable(
        nums in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 2..30),
        cats in proptest::collection::vec(0usize..5, 30),
    ) {
        let n = nums.len();
        let cat_values: Vec<Option<String>> =
            cats[..n].iter().map(|&c| Some(format!("c{c}"))).collect();
        let frame = DataFrame::from_columns(vec![
            ("n".to_string(), Column::numeric(nums)),
            ("c".to_string(), Column::categorical(cat_values)),
        ]).unwrap();
        let enc = FeatureEncoder::fit(&frame);
        let a = enc.transform(&frame).unwrap();
        let b = enc.transform(&frame).unwrap();
        prop_assert_eq!(a.rows(), n);
        prop_assert_eq!(a.cols(), enc.output_dims());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a), bits(&b));
    }

    /// Gradient-boosting regression predictions are finite for any target
    /// scale.
    #[test]
    fn gbt_is_scale_robust(scale in 1e-3f64..1e6, seed in 0u64..10) {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 10) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * scale + seed as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut params = Params::new();
        params.insert("n_estimators".into(), 10.0);
        let mut est = build_estimator(EstimatorKind::XgBoost, &params).unwrap();
        est.fit(&x, &y, Task::Regression).unwrap();
        let preds = est.predict(&x).unwrap();
        prop_assert!(preds.iter().all(|p| p.is_finite()));
        prop_assert!(metrics::r2(&y, &preds) > 0.5);
    }
}
