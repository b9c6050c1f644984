//! The offline KGpip workflow: corpus → code graphs → filtered Graph4ML →
//! dataset embeddings → trained graph generator.

use crate::artifact::TrainedModel;
use crate::{KgpipError, Result};
use kgpip_codegraph::corpus::ScriptRecord;
use kgpip_codegraph::{mine_script, source_fingerprint, Graph4Ml, MineOutcome, OpVocab};
use kgpip_embeddings::{table_embeddings, VectorIndex};
use kgpip_graphgen::model::TypedGraph;
use kgpip_graphgen::{effective_parallelism, GeneratorConfig, GraphGenerator, TrainExample};
use kgpip_tabular::DataFrame;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};

/// KGpip system configuration.
///
/// Build one fluently from the defaults:
///
/// ```
/// use kgpip::KgpipConfig;
///
/// let config = KgpipConfig::default()
///     .with_k(5)
///     .with_seed(7)
///     .with_parallelism(4);
/// assert_eq!(config.top_k, 5);
/// assert_eq!(config.parallelism, 4);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KgpipConfig {
    /// Number of pipeline graphs to predict per dataset (the paper's K;
    /// Figure 7 sweeps 3/5/7).
    pub top_k: usize,
    /// Sampling temperature for graph generation (>1 = more diverse
    /// pipelines across runs, §4.5.3).
    pub temperature: f64,
    /// Generator hyperparameters.
    pub generator: GeneratorConfig,
    /// Seed for prediction-time sampling.
    pub seed: u64,
    /// Worker threads for the `(T − t)/K` skeleton searches and their
    /// trial evaluation (1 = fully sequential, the historical behaviour).
    pub parallelism: usize,
    /// Disables trial caching (pre-encoded datasets + transformer-prefix
    /// memoization) in the HPO backends. Off (caching on) by default;
    /// caching changes trial cost, never trial values. Stored inverted so
    /// configs serialized before this field existed keep caching on.
    #[serde(default)]
    pub disable_trial_cache: bool,
}

impl Default for KgpipConfig {
    fn default() -> Self {
        KgpipConfig {
            top_k: 3,
            temperature: 1.2,
            generator: GeneratorConfig::default(),
            seed: 0,
            parallelism: 1,
            disable_trial_cache: false,
        }
    }
}

impl KgpipConfig {
    /// Sets the number of predicted skeletons per dataset (the paper's K).
    pub fn with_k(mut self, top_k: usize) -> KgpipConfig {
        self.top_k = top_k;
        self
    }

    /// Sets the generation sampling temperature.
    pub fn with_temperature(mut self, temperature: f64) -> KgpipConfig {
        self.temperature = temperature;
        self
    }

    /// Sets the generator hyperparameters.
    pub fn with_generator(mut self, generator: GeneratorConfig) -> KgpipConfig {
        self.generator = generator;
        self
    }

    /// Sets the prediction-time sampling seed.
    pub fn with_seed(mut self, seed: u64) -> KgpipConfig {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for skeleton search, trial
    /// evaluation, and the generator's training/sampling loops (clamped
    /// to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> KgpipConfig {
        self.parallelism = parallelism.max(1);
        self.generator.parallelism = self.parallelism;
        self
    }

    /// Enables or disables trial caching in the HPO backends (on by
    /// default).
    pub fn with_trial_cache(mut self, enabled: bool) -> KgpipConfig {
        self.disable_trial_cache = !enabled;
        self
    }
}

/// Statistics of one training run (reported by the Table-3 ablation).
#[derive(Debug, Clone)]
pub struct TrainingStats {
    /// Scripts in the input corpus.
    pub scripts: usize,
    /// Scripts that survived filtering with a valid pipeline (the paper's
    /// 11.7K → 2,046 selection).
    pub valid_pipelines: usize,
    /// Scripts that failed static analysis entirely (skipped, as the
    /// paper's mining pipeline skips unusable notebooks).
    pub unparsable: usize,
    /// Scripts skipped because they reference a dataset with no table in
    /// the training catalog (previously a silent `continue`).
    pub skipped_unknown_dataset: usize,
    /// Datasets with at least one valid pipeline.
    pub datasets: usize,
    /// Total nodes across the filtered training graphs.
    pub total_nodes: usize,
    /// Total edges across the filtered training graphs.
    pub total_edges: usize,
    /// Wall-clock seconds spent embedding the training tables.
    pub embedding_secs: f64,
    /// Wall-clock seconds spent mining scripts into the Graph4ML
    /// (fingerprinting, deduplication, static analysis, assembly).
    pub mining_secs: f64,
    /// Wall-clock seconds spent training the generator.
    pub training_secs: f64,
    /// Eligible scripts whose source repeats an earlier one in the
    /// corpus: analyzed once, with the outcome replayed here.
    pub duplicate_scripts: usize,
    /// Eligible scripts that went through static analysis (the distinct
    /// sources).
    pub analyzed_scripts: usize,
    /// Per-epoch generator losses.
    pub epoch_losses: Vec<f32>,
}

/// A trained KGpip training *run*: the immutable serving artifact (the
/// [`TrainedModel`]) plus train-time state — the assembled Graph4ML and
/// the run's [`TrainingStats`] — kept for corpus analyses and ablations.
///
/// The artifact is the only home of the online workflow and the only
/// thing that persists: call [`Kgpip::artifact`] (or
/// [`Kgpip::into_artifact`]) to predict, serve, or snapshot.
pub struct Kgpip {
    pub(crate) artifact: TrainedModel,
    pub(crate) graph4ml: Graph4Ml,
    pub(crate) stats: TrainingStats,
}

impl Kgpip {
    /// Trains KGpip from a script corpus and the content of the training
    /// datasets (`tables` maps dataset name → its table, used for content
    /// embeddings; scripts referencing unknown datasets are skipped).
    ///
    /// Mining and embedding run on `config.parallelism` workers; results
    /// are merged in input order, so the trained model is bit-for-bit
    /// identical at any worker count. Byte-identical scripts within the
    /// corpus are analyzed once.
    pub fn train(
        scripts: &[ScriptRecord],
        tables: &[(String, DataFrame)],
        config: KgpipConfig,
    ) -> Result<Kgpip> {
        // Directly-constructed configs can carry `parallelism: 0`,
        // bypassing the builder's clamp; treat that as sequential. The
        // clamp also caps at the CPUs actually available, so an
        // over-provisioned config on a small host takes the sequential
        // path instead of paying pool overhead.
        let workers = effective_parallelism(config.parallelism);
        let vocab = OpVocab::new();

        // Content embeddings + similarity index over training datasets,
        // computed in parallel and registered in catalog order.
        #[allow(clippy::disallowed_methods)]
        // xlint: allow(wall-clock-in-compute): stage timing feeds TrainingStats only, never a computed value
        let embedding_started = std::time::Instant::now();
        let vectors = table_embeddings(tables, workers);
        let mut embeddings: HashMap<String, Vec<f64>> = HashMap::new();
        let mut index = VectorIndex::new();
        for ((name, _), e) in tables.iter().zip(vectors) {
            index.add(name.clone(), e.clone());
            embeddings.insert(name.clone(), e);
        }
        // Large catalogs get an HNSW graph so the nearest-dataset lookup
        // in `predict` stays sublinear; small ones stay exact.
        index.auto_tune(config.seed);
        let embedding_secs = embedding_started.elapsed().as_secs_f64();

        // Static analysis + filtering → Graph4ML. Mining an individual
        // script is pure in its source, so the corpus is deduplicated by
        // source fingerprint in first-occurrence order and only the
        // distinct sources are analyzed — on a rayon pool when
        // `workers > 1`, merged back in submission order. Assembly then
        // walks the corpus in input order, so the Graph4ML, indices, and
        // stats are identical to the historical sequential loop.
        #[allow(clippy::disallowed_methods)]
        // xlint: allow(wall-clock-in-compute): stage timing feeds TrainingStats only, never a computed value
        let mining_started = std::time::Instant::now();
        let mut skipped_unknown_dataset = 0usize;
        let mut fingerprints: Vec<Option<u64>> = Vec::with_capacity(scripts.len());
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut to_mine: Vec<(u64, &str)> = Vec::new();
        let mut duplicate_scripts = 0usize;
        for record in scripts {
            if !embeddings.contains_key(&record.dataset) {
                skipped_unknown_dataset += 1;
                fingerprints.push(None);
                continue;
            }
            let fp = source_fingerprint(&record.source);
            fingerprints.push(Some(fp));
            if distinct.insert(fp) {
                to_mine.push((fp, record.source.as_str()));
            } else {
                // Intra-corpus duplicate: analyzed once, replayed here.
                duplicate_scripts += 1;
            }
        }
        // Mining is lenient: a notebook the analyzer cannot cleanly
        // handle is skipped with a warning count, exactly as the paper's
        // pipeline drops unusable scripts, rather than failing the whole
        // training run.
        let mined: Vec<MineOutcome> = if workers > 1 && to_mine.len() > 1 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .expect("thread pool construction");
            pool.install(|| {
                to_mine
                    .par_iter()
                    .map(|(_, src)| mine_script(src))
                    .collect()
            })
        } else {
            to_mine.iter().map(|(_, src)| mine_script(src)).collect()
        };
        let analyzed_scripts = to_mine.len();
        let outcomes: HashMap<u64, MineOutcome> =
            to_mine.iter().map(|(fp, _)| *fp).zip(mined).collect();
        let mut graph4ml = Graph4Ml::new();
        let mut valid_pipelines = 0usize;
        let mut unparsable = 0usize;
        for (record, fp) in scripts.iter().zip(&fingerprints) {
            let Some(fp) = fp else { continue };
            match &outcomes[fp] {
                MineOutcome::Unparsable => unparsable += 1,
                MineOutcome::NoSkeleton => {} // EDA-only or unsupported framework
                MineOutcome::Pipeline(filtered) => {
                    graph4ml.add_pipeline(&record.dataset, filtered);
                    valid_pipelines += 1;
                }
            }
        }
        let mining_secs = mining_started.elapsed().as_secs_f64();
        if graph4ml.pipelines().is_empty() {
            return Err(KgpipError::EmptyTrainingSet);
        }

        // Whitening for the conditioning pathway (see
        // `TrainedModel::embedding_center`). The mean is accumulated over
        // distinct datasets in catalog order: float addition is
        // order-sensitive and HashMap iteration order is not
        // deterministic, so summing `embeddings.values()` would leak
        // run-to-run noise into every conditioned embedding (enforced by
        // xlint's `nondeterministic-iteration` rule). The width probe
        // also goes through the catalog rather than map order.
        let dim = tables
            .first()
            .and_then(|(name, _)| embeddings.get(name))
            .map(Vec::len)
            .unwrap_or(0);
        let mut embedding_center = vec![0.0f64; dim];
        let mut seen: HashSet<&str> = HashSet::new();
        for (name, _) in tables {
            if seen.insert(name.as_str()) {
                for (c, x) in embedding_center.iter_mut().zip(&embeddings[name]) {
                    *c += x;
                }
            }
        }
        for c in &mut embedding_center {
            *c /= embeddings.len().max(1) as f64;
        }

        let condition = |e: &[f64]| -> Vec<f64> {
            e.iter()
                .zip(&embedding_center)
                .map(|(x, c)| (x - c) * crate::artifact::CONDITION_GAIN)
                .collect()
        };

        // Training examples: each pipeline conditioned on its dataset's
        // centred content embedding.
        let examples: Vec<TrainExample> = graph4ml
            .pipelines()
            .iter()
            .map(|(ds_idx, graph)| {
                let name = &graph4ml.datasets()[*ds_idx];
                TrainExample {
                    dataset_embedding: condition(&embeddings[name]),
                    graph: TypedGraph::encode(graph, &vocab),
                }
            })
            .collect();

        let mut generator = GraphGenerator::new(config.generator.clone());
        #[allow(clippy::disallowed_methods)]
        // xlint: allow(wall-clock-in-compute): generator training is timed for TrainingStats only
        let started = std::time::Instant::now();
        let epoch_losses = generator.train(&examples);
        let training_secs = started.elapsed().as_secs_f64();

        let stats = TrainingStats {
            scripts: scripts.len(),
            valid_pipelines,
            unparsable,
            skipped_unknown_dataset,
            datasets: graph4ml.datasets().len(),
            total_nodes: graph4ml.total_nodes(),
            total_edges: graph4ml.total_edges(),
            embedding_secs,
            mining_secs,
            training_secs,
            duplicate_scripts,
            analyzed_scripts,
            epoch_losses,
        };
        Ok(Kgpip {
            artifact: TrainedModel {
                config,
                embedding_center,
                vocab,
                generator,
                index,
                embeddings,
            },
            graph4ml,
            stats,
        })
    }

    /// The immutable serving artifact of this run, borrowed.
    pub fn artifact(&self) -> &TrainedModel {
        &self.artifact
    }

    /// Consumes the run and returns the serving artifact, dropping the
    /// train-time state (Graph4ML, stats).
    pub fn into_artifact(self) -> TrainedModel {
        self.artifact
    }

    /// Training statistics.
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// The assembled Graph4ML (for corpus analyses like Figure 9).
    pub fn graph4ml(&self) -> &Graph4Ml {
        &self.graph4ml
    }
}

impl std::fmt::Debug for Kgpip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kgpip")
            .field("datasets", &self.graph4ml.datasets().len())
            .field("pipelines", &self.graph4ml.pipelines().len())
            .field(
                "generator_params",
                &self.artifact.generator.num_parameters(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
    use kgpip_tabular::Column;

    fn tiny_table(offset: f64) -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "a".to_string(),
                Column::from_f64((0..20).map(|i| offset + i as f64).collect::<Vec<_>>()),
            ),
            (
                "target".to_string(),
                Column::from_f64((0..20).map(|i| (i % 2) as f64).collect::<Vec<_>>()),
            ),
        ])
        .unwrap()
    }

    fn tiny_setup() -> (Vec<ScriptRecord>, Vec<(String, DataFrame)>) {
        let profiles = vec![
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", false),
        ];
        let scripts = generate_corpus(
            &profiles,
            &CorpusConfig {
                scripts_per_dataset: 6,
                unsupported_fraction: 0.2,
                ..CorpusConfig::default()
            },
        );
        let tables = vec![
            ("alpha".to_string(), tiny_table(0.0)),
            ("beta".to_string(), tiny_table(100.0)),
        ];
        (scripts, tables)
    }

    fn fast_config() -> KgpipConfig {
        KgpipConfig {
            generator: GeneratorConfig {
                hidden: 8,
                prop_rounds: 1,
                epochs: 2,
                ..GeneratorConfig::default()
            },
            ..KgpipConfig::default()
        }
    }

    #[test]
    fn trains_end_to_end_on_synthetic_corpus() {
        let (scripts, tables) = tiny_setup();
        let model = Kgpip::train(&scripts, &tables, fast_config()).unwrap();
        let stats = model.stats();
        assert_eq!(stats.scripts, 12);
        assert!(stats.valid_pipelines >= 6, "most sklearn scripts survive");
        assert!(
            stats.valid_pipelines < 12,
            "torch/keras scripts are dropped"
        );
        assert_eq!(stats.datasets, 2);
        assert!(stats.total_nodes > 0);
        assert_eq!(stats.epoch_losses.len(), 2);
        assert!(model.artifact().embedding_of("alpha").is_some());
        assert!(model.artifact().embedding_of("nope").is_none());
    }

    #[test]
    fn empty_corpus_errors() {
        let tables = vec![("alpha".to_string(), tiny_table(0.0))];
        let err = Kgpip::train(&[], &tables, fast_config()).unwrap_err();
        assert!(matches!(err, KgpipError::EmptyTrainingSet));
    }

    #[test]
    fn scripts_for_unknown_datasets_are_skipped() {
        let (scripts, _) = tiny_setup();
        // Provide only one of the two tables.
        let tables = vec![("alpha".to_string(), tiny_table(0.0))];
        let model = Kgpip::train(&scripts, &tables, fast_config()).unwrap();
        assert_eq!(model.stats().datasets, 1);
    }

    #[test]
    fn artifact_extraction_preserves_the_model() {
        let (scripts, tables) = tiny_setup();
        let model = Kgpip::train(&scripts, &tables, fast_config()).unwrap();
        let borrowed_params = model.artifact().generator.num_parameters();
        assert_eq!(model.artifact().catalog_len(), 2);
        let artifact = model.into_artifact();
        assert_eq!(artifact.generator.num_parameters(), borrowed_params);
        assert!(artifact.embedding_of("alpha").is_some());
    }
}
