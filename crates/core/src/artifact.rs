//! The immutable serving artifact: everything the online workflow reads.
//!
//! [`Kgpip::train`] produces two kinds of state. *Train-time* state — the
//! assembled Graph4ML and the run's [`TrainingStats`] — exists for corpus
//! analyses and ablations and is never consulted while answering a
//! prediction. *Serve-time* state — generator parameters, the similarity
//! index, the op vocabulary, the per-dataset content embeddings, and the
//! conditioning center — is everything the paper's online path ("embed →
//! nearest neighbour → conditional generation → HPO") touches. The
//! [`TrainedModel`] is exactly that serve-time slice, split out as an
//! immutable value: every read path takes `&TrainedModel`, so one
//! `Arc<TrainedModel>` can be shared across any number of serving threads
//! without locks, and `kgpip-serve` hot-swaps whole models atomically by
//! replacing the `Arc`.
//!
//! [`Kgpip::train`]: crate::Kgpip::train
//! [`TrainingStats`]: crate::TrainingStats

use crate::train::KgpipConfig;
use crate::{KgpipError, Result};
use kgpip_codegraph::OpVocab;
use kgpip_embeddings::{table_embedding, HnswConfig, VectorIndex};
use kgpip_graphgen::GraphGenerator;
use kgpip_tabular::DataFrame;
use std::collections::HashMap;
use std::sync::Arc;

/// Amplification applied to centred conditioning embeddings.
pub(crate) const CONDITION_GAIN: f64 = 8.0;

/// The immutable trained-model artifact: the serve-time slice of a KGpip
/// training run. All prediction entry points ([`nearest_dataset`],
/// [`predict_skeletons`], [`run_k`], …) are methods on `&TrainedModel`,
/// so the artifact can be wrapped in an [`Arc`] and shared freely.
///
/// [`nearest_dataset`]: TrainedModel::nearest_dataset
/// [`predict_skeletons`]: TrainedModel::predict_skeletons
/// [`run_k`]: TrainedModel::run_k
#[derive(Clone)]
pub struct TrainedModel {
    pub(crate) config: KgpipConfig,
    /// Mean of the training-dataset embeddings. Raw table embeddings share
    /// large common components (type indicators, size features), leaving
    /// the between-dataset signal microscopic; the generator is therefore
    /// conditioned on centred, amplified embeddings instead.
    pub(crate) embedding_center: Vec<f64>,
    pub(crate) vocab: OpVocab,
    pub(crate) generator: GraphGenerator,
    pub(crate) index: VectorIndex,
    pub(crate) embeddings: HashMap<String, Vec<f64>>,
}

impl TrainedModel {
    /// The system configuration the model was trained with (plus any
    /// deployment overrides applied via [`TrainedModel::set_parallelism`]).
    pub fn config(&self) -> &KgpipConfig {
        &self.config
    }

    /// The op vocabulary.
    pub fn vocab(&self) -> &OpVocab {
        &self.vocab
    }

    /// The trained graph generator (read-only; exposed so tooling and
    /// tests can inspect parameters, e.g. for bit-level snapshot
    /// verification).
    pub fn generator(&self) -> &GraphGenerator {
        &self.generator
    }

    /// Content embedding of a training dataset, if known.
    pub fn embedding_of(&self, dataset: &str) -> Option<&[f64]> {
        self.embeddings.get(dataset).map(Vec::as_slice)
    }

    /// The conditioning center (mean training-dataset embedding).
    pub fn embedding_center(&self) -> &[f64] {
        &self.embedding_center
    }

    /// Number of training datasets in the similarity catalog.
    pub fn catalog_len(&self) -> usize {
        self.index.len()
    }

    /// The similarity index (read-only; exposed so tooling can inspect
    /// the active tier and export mapped catalog files).
    pub fn index(&self) -> &VectorIndex {
        &self.index
    }

    /// Registers an unseen dataset in the similarity catalog online:
    /// embeds `frame` by content, extends the active index tier
    /// incrementally (`VectorIndex::register` — an HNSW graph takes an
    /// insert, the exact tier appends; no retrain), and
    /// stores the embedding for future conditional generation. Returns
    /// the stored embedding.
    ///
    /// The conditioning center is deliberately *not* recomputed: it is a
    /// training-time statistic, and shifting it would perturb generation
    /// for every existing dataset. Retraining refreshes it.
    ///
    /// Errors with [`KgpipError::DuplicateDataset`] when `name` is
    /// already cataloged. Note this mutates the model — serving stacks
    /// clone the current artifact, register, and hot-swap (see
    /// `kgpip-serve`'s `register_dataset`).
    pub fn register_dataset(&mut self, name: &str, frame: &DataFrame) -> Result<Vec<f64>> {
        if self.embeddings.contains_key(name) {
            return Err(KgpipError::DuplicateDataset(name.to_string()));
        }
        let embedding = table_embedding(frame);
        self.index.register(name, embedding.clone());
        self.embeddings.insert(name.to_string(), embedding.clone());
        Ok(embedding)
    }

    /// Builds (or rebuilds) an HNSW graph over the similarity catalog,
    /// promoting it to the active search tier regardless of catalog size
    /// — the manual override for deployments that register datasets
    /// online and want graph-tier lookups before the auto-tune threshold.
    pub fn build_hnsw_index(&mut self, config: HnswConfig) {
        self.index.build_hnsw(config);
    }

    /// Overrides the run-time parallelism — a deployment knob, not a
    /// training artifact (clamped to ≥ 1). Applies to skeleton search,
    /// trial evaluation, and the generator's top-K sampling alike. Takes
    /// `&mut self`, so apply it *before* wrapping the model in an `Arc`.
    /// `kgpip-serve` overrides it on every model it installs with its
    /// serve width (`ServeConfig::workers`), so a served model's own
    /// setting governs only `run`/`run_k` outside the server.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.config.parallelism = parallelism.max(1);
        self.config.generator.parallelism = self.config.parallelism;
        self.generator.set_parallelism(self.config.parallelism);
    }

    /// Builder-style [`TrainedModel::set_parallelism`].
    pub fn with_parallelism(mut self, parallelism: usize) -> TrainedModel {
        self.set_parallelism(parallelism);
        self
    }

    /// Wraps a clone of the model in an [`Arc`] for lock-free sharing
    /// across serving threads.
    pub fn share(&self) -> Arc<TrainedModel> {
        Arc::new(self.clone())
    }

    /// Centres and amplifies an embedding for the conditioning pathway.
    pub(crate) fn condition_vector(&self, e: &[f64]) -> Vec<f64> {
        e.iter()
            .zip(&self.embedding_center)
            .map(|(x, c)| (x - c) * CONDITION_GAIN)
            .collect()
    }
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("datasets", &self.index.len())
            .field("generator_params", &self.generator.num_parameters())
            .field("embed_dim", &self.embedding_center.len())
            .finish()
    }
}
