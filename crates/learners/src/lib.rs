//! Classical machine-learning learners, preprocessors and metrics built
//! from scratch for the KGpip reproduction.
//!
//! The paper's mined pipelines are composed of estimators and transformers
//! from Scikit-learn, XGBoost and LightGBM (paper §3.4: "namely,
//! Scikit-learn, XGBoost, and LGBM ... the most popular libraries supported
//! by most AutoML systems"). None of those exist in Rust, so this crate
//! implements the learner families the paper's Figures 8–9 report —
//! gradient boosting, XGBoost-style second-order boosting, LightGBM-style
//! histogram boosting, random forests, extra trees, decision trees,
//! logistic/linear models, SVMs, k-NN, naive Bayes — plus the preprocessor
//! vocabulary (scalers, one-hot, imputation, variance filtering, PCA,
//! feature selection, text hashing) and the paper's evaluation metrics
//! (macro F1 for classification, R² for regression; paper §4.3).
//!
//! The public surface is deliberately uniform so the HPO engines can drive
//! any learner generically:
//!
//! * [`Matrix`] — dense row-major `f64` matrices,
//! * [`encode::FeatureEncoder`] — `DataFrame` → `Matrix` (ordinal codes for
//!   categoricals, hashing vectorizer for text, NaN for missing),
//! * [`Transformer`] / [`TransformerKind`] — fit/transform preprocessors,
//! * [`Estimator`] / [`EstimatorKind`] — fit/predict learners built from a
//!   flat numeric parameter map ([`Params`]),
//! * [`Pipeline`] — a preprocessor chain plus an estimator, the executable
//!   form of a KGpip "pipeline skeleton" (paper §3.6),
//! * [`metrics`] — macro-F1, accuracy, log-loss, R², MSE, MAE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod estimators;
pub mod matrix;
pub mod metrics;
pub mod pipeline;
pub mod preprocess;

pub use encode::{EncodedDataset, FeatureEncoder};
pub use estimators::{build_estimator, Estimator, EstimatorKind, Params};
pub use matrix::Matrix;
pub use pipeline::Pipeline;
pub use preprocess::{build_transformer, Transformer, TransformerKind};

/// Errors produced by learners and transformers.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// Input matrix/target shapes disagree or are empty.
    Shape(String),
    /// An estimator was asked to predict before being fitted.
    NotFitted(&'static str),
    /// A hyperparameter value is outside its legal domain.
    InvalidParam(String),
    /// The task type is unsupported by this estimator.
    UnsupportedTask(&'static str),
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::Shape(m) => write!(f, "shape error: {m}"),
            LearnError::NotFitted(name) => write!(f, "`{name}` used before fit"),
            LearnError::InvalidParam(m) => write!(f, "invalid hyperparameter: {m}"),
            LearnError::UnsupportedTask(name) => write!(f, "task unsupported by `{name}`"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LearnError>;
