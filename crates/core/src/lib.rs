//! KGpip — AutoML learner and transformer selection via graph generation
//! over mined pipelines.
//!
//! This crate is the system of the paper's Figure 1. It wires together the
//! substrates built in the sibling crates:
//!
//! **Offline (training) workflow**
//! 1. statically analyze a corpus of data-science scripts into code graphs
//!    (`kgpip-codegraph`, the GraphGen4Code substitute),
//! 2. filter each code graph to its ML-relevant subgraph and link it to
//!    its dataset node, assembling Graph4ML (§3.4),
//! 3. embed every training dataset by *content* (`kgpip-embeddings`) and
//!    index the embeddings for similarity search (§3.2),
//! 4. train the deep graph generator (`kgpip-graphgen`) on Graph4ML, with
//!    each pipeline conditioned on its dataset's content embedding (§3.5).
//!
//! **Online (prediction) workflow**
//! 1. embed the unseen dataset and retrieve its nearest seen dataset,
//! 2. conditionally generate the top-K pipeline graphs from the prefix
//!    `[dataset → read_csv]`, seeded with the neighbour's embedding,
//! 3. decode each graph into a pipeline *skeleton* (preprocessors + one
//!    estimator), validating it against the backend optimizer's JSON
//!    capability document (§3.6),
//! 4. give each skeleton `(T − t)/K` of the remaining time budget for
//!    hyperparameter optimization on the backend (FLAML-style or
//!    Auto-Sklearn-style engine from `kgpip-hpo`),
//! 5. return the best pipeline found, plus the full per-skeleton ranking
//!    (used by the paper's MRR and diversity analyses).
//!
//! ```no_run
//! use kgpip::prelude::*;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let scripts: Vec<kgpip_codegraph::corpus::ScriptRecord> = vec![];
//! # let tables: Vec<(String, DataFrame)> = vec![];
//! # let unseen: Dataset = todo!();
//! let config = KgpipConfig::default().with_k(5).with_seed(7).with_parallelism(4);
//! let model = Kgpip::train(&scripts, &tables, config)?;
//! let mut backend = Flaml::new(0);
//! let run = model.artifact().run(&unseen, &mut backend, TimeBudget::seconds(60.0))?;
//! println!("best: {} -> {:.3}", run.best().spec.describe(), run.best_score());
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod predict;
pub mod skeleton;
pub mod snapshot;
pub mod train;

pub use artifact::TrainedModel;
pub use predict::{KgpipRun, SkeletonResult};
pub use skeleton::{decode_skeleton, validate_against_capabilities};
pub use snapshot::Snapshot;
pub use train::{Kgpip, KgpipConfig, TrainingStats};

/// One-stop imports for driving KGpip end to end: the system types, the
/// HPO engines and their shared evaluation machinery, and the tabular
/// primitives every example needs.
pub mod prelude {
    pub use crate::{
        Kgpip, KgpipConfig, KgpipError, KgpipRun, SkeletonResult, Snapshot, TrainedModel,
        TrainingStats,
    };
    pub use kgpip_hpo::{
        Al, AutoSklearn, BudgetGate, Candidate, Evaluator, Flaml, HpoResult, Optimizer, Skeleton,
        TimeBudget, TrialOutcome,
    };
    pub use kgpip_learners::{EstimatorKind, TransformerKind};
    pub use kgpip_tabular::{train_test_split, Column, DataFrame, Dataset, Task};
}

/// Errors produced by the KGpip system.
#[derive(Debug)]
pub enum KgpipError {
    /// The training corpus yielded no usable pipelines after filtering.
    EmptyTrainingSet,
    /// The model's similarity catalog holds no training datasets, so
    /// nearest-neighbour retrieval cannot answer.
    EmptyCatalog,
    /// The request cannot yield a pipeline skeleton: `k == 0`, or a `k`
    /// so large that its sampling budget overflows.
    NoValidSkeleton,
    /// A script failed static analysis.
    Analysis(kgpip_codegraph::CodeGraphError),
    /// The backend optimizer failed on every predicted skeleton.
    AllSkeletonsFailed,
    /// An underlying HPO failure outside skeleton search.
    Hpo(kgpip_hpo::HpoError),
    /// A tabular-layer failure.
    Tabular(kgpip_tabular::TabularError),
    /// Saving or loading a trained model failed.
    Persistence(String),
    /// The trained artifact's internal tables disagree with each other
    /// (e.g. the similarity index names a dataset the embedding store
    /// does not hold) — a corrupted or hand-edited model file.
    InconsistentArtifact(String),
    /// An online registration named a dataset the catalog already holds;
    /// re-registering would shadow the original's embedding.
    DuplicateDataset(String),
}

impl std::fmt::Display for KgpipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KgpipError::EmptyTrainingSet => {
                write!(f, "no valid pipelines survived filtering; cannot train")
            }
            KgpipError::EmptyCatalog => {
                write!(
                    f,
                    "the similarity catalog is empty; no neighbour to retrieve"
                )
            }
            KgpipError::NoValidSkeleton => {
                write!(
                    f,
                    "the request cannot produce a pipeline skeleton (k = 0, or k too large to sample)"
                )
            }
            KgpipError::Analysis(e) => write!(f, "static analysis failed: {e}"),
            KgpipError::AllSkeletonsFailed => {
                write!(f, "every predicted skeleton failed hyperparameter search")
            }
            KgpipError::Hpo(e) => write!(f, "hpo failure: {e}"),
            KgpipError::Tabular(e) => write!(f, "tabular failure: {e}"),
            KgpipError::Persistence(m) => write!(f, "model persistence failure: {m}"),
            KgpipError::InconsistentArtifact(m) => {
                write!(f, "inconsistent trained artifact: {m}")
            }
            KgpipError::DuplicateDataset(name) => {
                write!(f, "dataset `{name}` is already in the similarity catalog")
            }
        }
    }
}

impl std::error::Error for KgpipError {}

impl From<kgpip_codegraph::CodeGraphError> for KgpipError {
    fn from(e: kgpip_codegraph::CodeGraphError) -> Self {
        KgpipError::Analysis(e)
    }
}

impl From<kgpip_hpo::HpoError> for KgpipError {
    fn from(e: kgpip_hpo::HpoError) -> Self {
        KgpipError::Hpo(e)
    }
}

impl From<kgpip_tabular::TabularError> for KgpipError {
    fn from(e: kgpip_tabular::TabularError) -> Self {
        KgpipError::Tabular(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KgpipError>;
