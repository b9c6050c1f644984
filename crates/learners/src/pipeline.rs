//! Executable ML pipelines: a preprocessor chain plus an estimator.
//!
//! This is the runnable form of a KGpip "pipeline skeleton" (paper §3.6:
//! "each skeleton is a set of pre-processors and an estimator"). Fitting a
//! pipeline on a [`Dataset`]:
//!
//! 1. encodes the feature frame ([`FeatureEncoder`]: numeric passthrough,
//!    ordinal categorical codes, hashed text),
//! 2. guarantees NaN-free input by prepending a mean imputer whenever the
//!    encoded matrix still contains missing values and the user chain does
//!    not start with an imputer (paper §3.6 step 4: "imputing missing
//!    values"),
//! 3. fits each transformer in order, threading feature roles through,
//! 4. fits the estimator on the transformed matrix.

use crate::cache::{ChainKey, ChainState, StepId, TransformCache};
use crate::encode::{EncodedDataset, FeatureEncoder, FeatureRole};
use crate::estimators::{build_estimator, Estimator, EstimatorKind, Params};
use crate::matrix::Matrix;
use crate::preprocess::{build_transformer, Transformer, TransformerKind};
use crate::{metrics, LearnError, Result};
use kgpip_tabular::{Dataset, Task};
use std::sync::Arc;

/// Declarative description of a pipeline: transformer steps then estimator,
/// each with hyperparameters. This is what HPO engines and the KGpip graph
/// generator produce.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Ordered preprocessor steps.
    pub transformers: Vec<(TransformerKind, Params)>,
    /// Final estimator.
    pub estimator: EstimatorKind,
    /// Estimator hyperparameters.
    pub params: Params,
}

impl PipelineSpec {
    /// A bare-estimator spec with default hyperparameters.
    pub fn bare(estimator: EstimatorKind) -> PipelineSpec {
        PipelineSpec {
            transformers: Vec::new(),
            estimator,
            params: Params::new(),
        }
    }

    /// Human-readable `transformer > ... > estimator` string.
    pub fn describe(&self) -> String {
        let mut parts: Vec<&'static str> =
            self.transformers.iter().map(|(k, _)| k.name()).collect();
        parts.push(self.estimator.name());
        parts.join(" > ")
    }
}

/// A fitted (or fittable) pipeline.
pub struct Pipeline {
    spec: PipelineSpec,
    encoder: Option<FeatureEncoder>,
    steps: Vec<Box<dyn Transformer>>,
    estimator: Box<dyn Estimator>,
    task: Option<Task>,
}

impl Pipeline {
    /// Instantiates a pipeline from a spec (estimator hyperparameters are
    /// validated here).
    pub fn from_spec(spec: PipelineSpec) -> Result<Pipeline> {
        let estimator = build_estimator(spec.estimator, &spec.params)?;
        Ok(Pipeline {
            spec,
            encoder: None,
            steps: Vec::new(),
            estimator,
            task: None,
        })
    }

    /// The spec this pipeline was built from.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Fits the full chain to a dataset.
    pub fn fit(&mut self, ds: &Dataset) -> Result<()> {
        if !self.spec.estimator.supports(ds.task) {
            return Err(LearnError::UnsupportedTask(self.spec.estimator.name()));
        }
        let encoder = FeatureEncoder::fit(&ds.features);
        let mut x = encoder.transform(&ds.features)?;
        let mut roles = encoder.roles().to_vec();
        self.encoder = Some(encoder);
        self.steps.clear();

        // Guarantee NaN-free input for estimators.
        let user_starts_with_imputer = self
            .spec
            .transformers
            .first()
            .is_some_and(|(k, _)| *k == TransformerKind::SimpleImputer);
        if x.has_nan() && !user_starts_with_imputer {
            let mut imputer = build_transformer(TransformerKind::SimpleImputer, &Params::new())?;
            roles = imputer.fit(&x, &ds.target, &roles)?;
            x = imputer.transform(&x)?;
            self.steps.push(imputer);
        }
        for (kind, params) in &self.spec.transformers {
            let mut step = build_transformer(*kind, params)?;
            roles = step.fit(&x, &ds.target, &roles)?;
            x = step.transform(&x)?;
            self.steps.push(step);
        }
        // A transformer chain can reintroduce nothing, but be defensive: the
        // estimator contract is NaN-free.
        if x.has_nan() {
            let mut imputer = build_transformer(TransformerKind::SimpleImputer, &Params::new())?;
            imputer.fit(&x, &ds.target, &roles)?;
            x = imputer.transform(&x)?;
            self.steps.push(imputer);
        }
        self.estimator.fit(&x, &ds.target, ds.task)?;
        self.task = Some(ds.task);
        Ok(())
    }

    /// Applies the fitted transformer chain to a feature frame.
    fn transform(&self, ds: &Dataset) -> Result<Matrix> {
        let encoder = self
            .encoder
            .as_ref()
            .ok_or(LearnError::NotFitted("pipeline"))?;
        let mut x = encoder.transform(&ds.features)?;
        for step in &self.steps {
            x = step.transform(&x)?;
        }
        // NaN can appear at predict time even if absent at fit time.
        if x.has_nan() {
            for r in 0..x.rows() {
                for c in 0..x.cols() {
                    if x.get(r, c).is_nan() {
                        x.set(r, c, 0.0);
                    }
                }
            }
        }
        Ok(x)
    }

    /// Predicts class indices / regression values for a dataset's features.
    pub fn predict(&self, ds: &Dataset) -> Result<Vec<f64>> {
        let x = self.transform(ds)?;
        self.estimator.predict(&x)
    }

    /// Predicts class probabilities (classification only).
    pub fn predict_proba(&self, ds: &Dataset) -> Result<Matrix> {
        let x = self.transform(ds)?;
        self.estimator.predict_proba(&x)
    }

    /// Fits on `train` and scores on `valid` with the paper's metrics:
    /// macro-F1 for classification, R² for regression.
    pub fn fit_score(&mut self, train: &Dataset, valid: &Dataset) -> Result<f64> {
        self.fit(train)?;
        let pred = self.predict(valid)?;
        Ok(score_predictions(valid, &pred))
    }

    /// The trial hot path: fits the chain + estimator on a pre-encoded
    /// training split and predicts a pre-encoded test split, optionally
    /// memoizing transformer-chain prefixes in `cache`.
    ///
    /// Produces bit-for-bit the predictions of [`fit`] + [`predict`] on the
    /// source datasets (both splits encoded with the *training* encoder,
    /// the same implicit-imputer rules, the same predict-time NaN fill) —
    /// it only skips re-encoding the raw frames and, on cache hits,
    /// re-fitting chain prefixes. The fitted transformer steps are *not*
    /// retained (a cache hit never materializes them), so the pipeline is
    /// not usable for later [`predict`] calls on raw frames; callers that
    /// need a deployable pipeline use [`fit`].
    ///
    /// [`fit`]: Pipeline::fit
    /// [`predict`]: Pipeline::predict
    pub fn fit_predict_encoded(
        &mut self,
        train: &EncodedDataset,
        test: &EncodedDataset,
        cache: Option<&TransformCache>,
    ) -> Result<Vec<f64>> {
        if !self.spec.estimator.supports(train.task()) {
            return Err(LearnError::UnsupportedTask(self.spec.estimator.name()));
        }
        // Bare-estimator fast path: with no transformer steps and a NaN-free
        // training matrix, the effective chain is provably empty (no
        // implicit imputer can trigger), so the encoded matrices feed the
        // estimator directly — no chain-key hashing, no cache probes, no
        // per-trial NaN rescans.
        let bare = self.spec.transformers.is_empty() && !train.has_nan();
        let (x_train, x_test) = if bare {
            (Arc::clone(train.x()), Arc::clone(test.x()))
        } else {
            run_chain(&self.spec.transformers, train, test, cache)?
        };
        self.estimator.fit(&x_train, train.target(), train.task())?;
        self.task = Some(train.task());
        let test_has_nan = if bare {
            test.has_nan()
        } else {
            x_test.has_nan()
        };
        if !test_has_nan {
            return self.estimator.predict(&x_test);
        }
        // Predict-time NaN fill, as in `transform`.
        let mut filled = (*x_test).clone();
        for r in 0..filled.rows() {
            for c in 0..filled.cols() {
                if filled.get(r, c).is_nan() {
                    filled.set(r, c, 0.0);
                }
            }
        }
        self.estimator.predict(&filled)
    }
}

/// Runs the *effective* transformer chain (implicit imputers included) on
/// pre-encoded train/test matrices, memoizing each chain prefix in `cache`
/// when given. Mirrors `Pipeline::fit` exactly: an imputer is prepended
/// when the training matrix has NaN and the user chain does not start with
/// one, and a defensive imputer is appended when NaN survives the chain.
fn run_chain(
    transformers: &[(TransformerKind, Params)],
    train: &EncodedDataset,
    test: &EncodedDataset,
    cache: Option<&TransformCache>,
) -> Result<(Arc<Matrix>, Arc<Matrix>)> {
    let mut x_train = Arc::clone(train.x());
    let mut x_test = Arc::clone(test.x());
    let mut roles: Arc<Vec<FeatureRole>> = Arc::clone(train.roles());
    let mut applied: Vec<StepId> = Vec::with_capacity(transformers.len() + 2);
    let default_params = Params::new();

    let mut apply = |kind: TransformerKind,
                     params: &Params,
                     x_train: &mut Arc<Matrix>,
                     x_test: &mut Arc<Matrix>,
                     roles: &mut Arc<Vec<FeatureRole>>|
     -> Result<()> {
        applied.push(StepId::new(kind, params));
        let key = cache.map(|_| ChainKey {
            train_fingerprint: train.fingerprint(),
            valid_fingerprint: test.fingerprint(),
            steps: applied.clone(),
        });
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            if let Some(state) = cache.get(key) {
                *x_train = state.x_train;
                *x_test = state.x_valid;
                *roles = state.roles;
                return Ok(());
            }
        }
        let mut step = build_transformer(kind, params)?;
        *roles = Arc::new(step.fit(x_train, train.target(), roles)?);
        *x_train = Arc::new(step.transform(x_train)?);
        *x_test = Arc::new(step.transform(x_test)?);
        if let (Some(cache), Some(key)) = (cache, key) {
            cache.insert(
                key,
                ChainState {
                    x_train: Arc::clone(x_train),
                    x_valid: Arc::clone(x_test),
                    roles: Arc::clone(roles),
                },
            );
        }
        Ok(())
    };

    let user_starts_with_imputer = transformers
        .first()
        .is_some_and(|(k, _)| *k == TransformerKind::SimpleImputer);
    // `x_train` is still the encoded matrix here, so the precomputed flag
    // answers the implicit-imputer question without a scan.
    if train.has_nan() && !user_starts_with_imputer {
        apply(
            TransformerKind::SimpleImputer,
            &default_params,
            &mut x_train,
            &mut x_test,
            &mut roles,
        )?;
    }
    for (kind, params) in transformers {
        apply(*kind, params, &mut x_train, &mut x_test, &mut roles)?;
    }
    if x_train.has_nan() {
        apply(
            TransformerKind::SimpleImputer,
            &default_params,
            &mut x_train,
            &mut x_test,
            &mut roles,
        )?;
    }
    Ok((x_train, x_test))
}

/// Scores predictions with the paper's metric for the dataset's task.
pub fn score_predictions(ds: &Dataset, pred: &[f64]) -> f64 {
    match ds.task {
        Task::Regression => metrics::r2(&ds.target, pred),
        task => metrics::macro_f1(&ds.target, pred, task.num_classes().max(2)),
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec.describe())
            .field("fitted", &self.task.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpip_tabular::{Column, DataFrame};

    fn toy_classification(n: usize) -> Dataset {
        // Class = x0 > 5, with a categorical helper and missing values.
        let x0: Vec<Option<f64>> = (0..n)
            .map(|i| {
                if i % 17 == 0 {
                    None
                } else {
                    Some((i % 10) as f64)
                }
            })
            .collect();
        let cat: Vec<Option<&str>> = (0..n)
            .map(|i| Some(if i % 10 > 5 { "high" } else { "low" }))
            .collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(i % 10 > 5)).collect();
        let features = DataFrame::from_columns(vec![
            ("x0".to_string(), Column::numeric(x0)),
            ("cat".to_string(), Column::categorical(cat)),
        ])
        .unwrap();
        Dataset::new("toy", features, y, Task::Binary).unwrap()
    }

    fn toy_regression(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| (i % 20) as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let features =
            DataFrame::from_columns(vec![("x".to_string(), Column::from_f64(x))]).unwrap();
        Dataset::new("toyreg", features, y, Task::Regression).unwrap()
    }

    #[test]
    fn bare_pipeline_handles_missing_values() {
        let ds = toy_classification(200);
        let mut p = Pipeline::from_spec(PipelineSpec::bare(EstimatorKind::DecisionTree)).unwrap();
        p.fit(&ds).unwrap();
        let pred = p.predict(&ds).unwrap();
        assert!(metrics::macro_f1(&ds.target, &pred, 2) > 0.9);
    }

    #[test]
    fn chained_transformers_run_in_order() {
        let ds = toy_classification(200);
        let spec = PipelineSpec {
            transformers: vec![
                (TransformerKind::SimpleImputer, Params::new()),
                (TransformerKind::OneHotEncoder, Params::new()),
                (TransformerKind::StandardScaler, Params::new()),
            ],
            estimator: EstimatorKind::LogisticRegression,
            params: Params::new(),
        };
        let mut p = Pipeline::from_spec(spec).unwrap();
        let score = p.fit_score(&ds, &ds).unwrap();
        assert!(score > 0.9, "score = {score}");
        assert_eq!(
            p.spec().describe(),
            "simple_imputer > one_hot_encoder > standard_scaler > logistic_regression"
        );
    }

    #[test]
    fn regression_pipeline_scores_r2() {
        let ds = toy_regression(100);
        let mut p = Pipeline::from_spec(PipelineSpec::bare(EstimatorKind::Ridge)).unwrap();
        let score = p.fit_score(&ds, &ds).unwrap();
        assert!(score > 0.999, "r2 = {score}");
    }

    #[test]
    fn unsupported_task_is_rejected_at_fit() {
        let ds = toy_regression(50);
        let mut p =
            Pipeline::from_spec(PipelineSpec::bare(EstimatorKind::LogisticRegression)).unwrap();
        assert!(matches!(p.fit(&ds), Err(LearnError::UnsupportedTask(_))));
    }

    #[test]
    fn predict_before_fit_errors() {
        let ds = toy_regression(50);
        let p = Pipeline::from_spec(PipelineSpec::bare(EstimatorKind::Ridge)).unwrap();
        assert!(matches!(p.predict(&ds), Err(LearnError::NotFitted(_))));
    }

    #[test]
    fn dimension_changing_transformers_compose() {
        let ds = toy_classification(150);
        let mut params = Params::new();
        params.insert("n_components".into(), 2.0);
        let spec = PipelineSpec {
            transformers: vec![
                (TransformerKind::PolynomialFeatures, Params::new()),
                (TransformerKind::Pca, params),
            ],
            estimator: EstimatorKind::Knn,
            params: Params::new(),
        };
        let mut p = Pipeline::from_spec(spec).unwrap();
        let score = p.fit_score(&ds, &ds).unwrap();
        assert!(score > 0.7, "score = {score}");
    }

    #[test]
    fn score_predictions_dispatches_on_task() {
        let cls = toy_classification(60);
        let reg = toy_regression(60);
        assert!((score_predictions(&cls, &cls.target) - 1.0).abs() < 1e-12);
        assert!((score_predictions(&reg, &reg.target) - 1.0).abs() < 1e-12);
    }
}
