//! Tabular data substrate for the KGpip reproduction.
//!
//! The KGpip paper operates on tabular datasets drawn from OpenML, PMLB,
//! Kaggle and the Open AutoML Benchmark. Its preprocessing stage (paper
//! §3.6) "detects task type automatically based on the distribution of the
//! target column", "automatically infers accurate data types of columns",
//! vectorizes textual columns, and imputes missing values. No mature
//! dataframe library is assumed; this crate provides the minimal, fully
//! owned substrate those steps require:
//!
//! * [`Column`] — typed columns (numeric, categorical with a dictionary,
//!   free text) with missing-value support,
//! * [`DataFrame`] — an ordered collection of named columns,
//! * [`csv`] — a small RFC-4180-style reader/writer; [`csv::read_frame`]
//!   is the chunked reader collected into one frame,
//! * [`infer`] — column-type and task-type inference rules,
//! * [`split`] — train/test and (stratified) k-fold splitting,
//! * [`stats`] — column summary statistics shared by the dataset-embedding
//!   and meta-feature components: one fold over a column's row chunks,
//!   an in-memory column being its one-chunk case,
//! * [`parallel`] — the [`effective_parallelism`] worker-count clamp every
//!   rayon entry point in the workspace consults,
//! * [`chunk`] — [`ChunkedFrame`], the chunked columnar substrate with
//!   deterministic row sampling,
//! * [`stream`] — chunk-parallel CSV ingest, the one CSV reader, whose
//!   frames are identical at any chunk size × worker count,
//! * [`Dataset`] — a feature frame plus a supervised target.
//!
//! Everything is deterministic given an RNG seed; nothing performs I/O
//! besides the explicit CSV helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod column;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod frame;
pub mod infer;
pub mod parallel;
pub mod split;
pub mod stats;
pub mod stream;

pub use chunk::{concat_column, gather_sample, row_priority, sample_rows, ChunkedFrame};
pub use column::{Column, ColumnKind};
pub use dataset::{Dataset, Task};
pub use error::TabularError;
pub use frame::DataFrame;
pub use infer::infer_task;
pub use parallel::effective_parallelism;
pub use split::{ensure_splittable, kfold, stratified_kfold, train_test_split};
pub use stats::{fnv1a, ColumnStats};
pub use stream::{read_chunked, read_chunked_with_report, ChunkedReadOptions, IngestReport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TabularError>;
