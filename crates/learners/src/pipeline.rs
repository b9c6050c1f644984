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
//!
//! Steps 2–3 are one private function, `fit_chain`, shared by the raw-frame
//! [`Pipeline::fit`] and the pre-encoded [`Pipeline::fit_predict_encoded`],
//! and both predict through one `apply_steps`, so the two paths cannot
//! drift apart.

use crate::encode::{EncodedDataset, FeatureEncoder, FeatureRole};
use crate::estimators::{build_estimator, Estimator, EstimatorKind, Params};
use crate::matrix::Matrix;
use crate::preprocess::{build_transformer, Transformer, TransformerKind};
use crate::{metrics, LearnError, Result};
use kgpip_tabular::{Dataset, Task};
use std::borrow::Cow;

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

/// A fitted transformer chain, in application order.
type Steps = Vec<Box<dyn Transformer>>;

/// A fitted (or fittable) pipeline.
pub struct Pipeline {
    spec: PipelineSpec,
    encoder: Option<FeatureEncoder>,
    steps: Steps,
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
        let x = encoder.transform(&ds.features)?;
        let (steps, x) = fit_chain(
            &self.spec.transformers,
            &x,
            x.has_nan(),
            &ds.target,
            encoder.roles(),
        )?;
        self.encoder = Some(encoder);
        self.steps = steps;
        self.estimator.fit(&x, &ds.target, ds.task)?;
        self.task = Some(ds.task);
        Ok(())
    }

    /// Encodes a feature frame with the fitted encoder.
    fn encode(&self, ds: &Dataset) -> Result<Matrix> {
        self.encoder
            .as_ref()
            .ok_or(LearnError::NotFitted("pipeline"))?
            .transform(&ds.features)
    }

    /// Predicts class indices / regression values for a dataset's features.
    pub fn predict(&self, ds: &Dataset) -> Result<Vec<f64>> {
        let x = self.encode(ds)?;
        let x = apply_steps(&self.steps, &x)?;
        self.estimator.predict(&x)
    }

    /// Predicts class probabilities (classification only).
    pub fn predict_proba(&self, ds: &Dataset) -> Result<Matrix> {
        let x = self.encode(ds)?;
        let x = apply_steps(&self.steps, &x)?;
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
    /// training split and predicts a pre-encoded test split.
    ///
    /// Produces bit-for-bit the predictions of [`fit`] + [`predict`] on the
    /// source datasets (both splits encoded with the *training* encoder,
    /// the same effective chain, the same predict-time NaN fill) — it only
    /// skips re-encoding the raw frames. The fitted transformer steps are
    /// *not* retained, so the pipeline is not usable for later [`predict`]
    /// calls on raw frames; callers that need a deployable pipeline use
    /// [`fit`].
    ///
    /// [`fit`]: Pipeline::fit
    /// [`predict`]: Pipeline::predict
    pub fn fit_predict_encoded(
        &mut self,
        train: &EncodedDataset,
        test: &EncodedDataset,
    ) -> Result<Vec<f64>> {
        if !self.spec.estimator.supports(train.task()) {
            return Err(LearnError::UnsupportedTask(self.spec.estimator.name()));
        }
        // Bare-estimator fast path: with no transformer steps and a NaN-free
        // training matrix, the effective chain is provably empty (no
        // implicit imputer can trigger), so the encoded matrices feed the
        // estimator directly, and the precomputed NaN flag spares the test
        // matrix a rescan.
        let steps = if self.spec.transformers.is_empty() && !train.has_nan() {
            self.estimator
                .fit(train.x(), train.target(), train.task())?;
            Vec::new()
        } else {
            let (steps, x) = fit_chain(
                &self.spec.transformers,
                train.x(),
                train.has_nan(),
                train.target(),
                train.roles(),
            )?;
            self.estimator.fit(&x, train.target(), train.task())?;
            steps
        };
        self.task = Some(train.task());
        if steps.is_empty() && !test.has_nan() {
            return self.estimator.predict(test.x());
        }
        let x_test = apply_steps(&steps, test.x())?;
        self.estimator.predict(&x_test)
    }
}

/// Fits the *effective* transformer chain on an encoded training matrix
/// and returns the fitted steps with the transformed matrix. The effective
/// chain is:
///
/// 1. an implicit [`TransformerKind::SimpleImputer`] when the matrix has
///    NaN (`has_nan`, known to the caller) and the user chain does not
///    start with one;
/// 2. the user chain, in order;
/// 3. a defensive imputer when NaN survives the chain, since estimators
///    take NaN-free input.
fn fit_chain<'a>(
    transformers: &[(TransformerKind, Params)],
    x: &'a Matrix,
    has_nan: bool,
    target: &[f64],
    roles: &[FeatureRole],
) -> Result<(Steps, Cow<'a, Matrix>)> {
    let user_starts_with_imputer = transformers
        .first()
        .is_some_and(|(k, _)| *k == TransformerKind::SimpleImputer);
    let default_params = Params::new();
    let implicit = (has_nan && !user_starts_with_imputer)
        .then_some((TransformerKind::SimpleImputer, &default_params));
    let chain = implicit
        .into_iter()
        .chain(transformers.iter().map(|(kind, params)| (*kind, params)));
    let mut steps = Vec::with_capacity(transformers.len() + 2);
    let mut x = Cow::Borrowed(x);
    let mut roles = roles.to_vec();
    let mut fit_step =
        |kind: TransformerKind, params: &Params, x: &mut Cow<'a, Matrix>| -> Result<()> {
            let mut step = build_transformer(kind, params)?;
            roles = step.fit(x, target, &roles)?;
            *x = Cow::Owned(step.transform(x)?);
            steps.push(step);
            Ok(())
        };
    for (kind, params) in chain {
        fit_step(kind, params, &mut x)?;
    }
    if x.has_nan() {
        fit_step(TransformerKind::SimpleImputer, &default_params, &mut x)?;
    }
    Ok((steps, x))
}

/// Applies fitted steps in order, then fills any NaN left with 0: NaN can
/// appear at predict time even when the training matrix had none.
fn apply_steps<'a>(steps: &[Box<dyn Transformer>], x: &'a Matrix) -> Result<Cow<'a, Matrix>> {
    let mut x = Cow::Borrowed(x);
    for step in steps {
        x = Cow::Owned(step.transform(&x)?);
    }
    if x.has_nan() {
        let x = x.to_mut();
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
