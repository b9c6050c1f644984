//! The online KGpip workflow: embed → nearest neighbour → conditional
//! generation → skeleton decoding → `(T − t)/K` hyperparameter search.
//!
//! Every entry point is a method on [`&TrainedModel`](TrainedModel) — the
//! immutable serving artifact — so one `Arc<TrainedModel>` serves any
//! number of threads. The pipeline is deliberately factored into
//! pure stages ([`TrainedModel::embed_table`] →
//! [`TrainedModel::predict_from_query_embedding`]) so a batching server
//! can interleave stages across requests and still produce bit-identical
//! answers to the direct [`TrainedModel::predict_skeletons`] call.

use crate::artifact::TrainedModel;
use crate::skeleton::{decode_skeleton, validate_against_capabilities};
use crate::{KgpipError, Result};
use kgpip_embeddings::{table_embedding, table_embedding_chunked};
use kgpip_graphgen::effective_parallelism;
use kgpip_graphgen::model::TypedGraph;
use kgpip_hpo::{HpoResult, Optimizer, Skeleton, TimeBudget};
use kgpip_learners::EstimatorKind;
use kgpip_tabular::{ChunkedFrame, DataFrame, Dataset, Task};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::time::Duration;

/// Row-sample bound for chunked table embeddings: tables at or below this
/// many rows embed from every row (bit-identical to [`TrainedModel::embed_table`]);
/// larger tables embed from a deterministic bottom-k row sample so the
/// embedding cost stops growing with the table.
pub const EMBED_SAMPLE_BOUND: usize = 100_000;

/// Seed of the deterministic embedding row sample. Fixed so the same table
/// always embeds identically regardless of who asks.
pub const EMBED_SAMPLE_SEED: u64 = 0x006b_6770_6970; // "kgpip"

/// The outcome of HPO on one predicted skeleton.
#[derive(Debug)]
pub struct SkeletonResult {
    /// The predicted skeleton, in generation-score order (rank 0 = the
    /// generator's most probable pipeline).
    pub skeleton: Skeleton,
    /// The generator's log-probability score for the source graph.
    pub generation_score: f64,
    /// HPO outcome (`None` when the backend failed on this skeleton).
    pub hpo: Option<HpoResult>,
}

/// A complete KGpip run on one dataset.
#[derive(Debug)]
pub struct KgpipRun {
    /// Name of the nearest seen dataset used to seed generation.
    pub neighbour: String,
    /// Time consumed by generation + validation (the paper's `t`).
    pub generation_time: Duration,
    /// Per-skeleton results in generation-rank order.
    pub results: Vec<SkeletonResult>,
    /// Index into `results` of the best pipeline by validation score.
    pub best_index: usize,
}

impl KgpipRun {
    /// The best HPO result. (`run_k` only constructs a `KgpipRun` when at
    /// least one skeleton search succeeded, so `best_index` always points
    /// at a populated result.)
    pub fn best(&self) -> &HpoResult {
        // xlint: allow(panic-in-serve-path): run_k only builds a KgpipRun after at least one skeleton search succeeded, and sets best_index to that entry
        let best = &self.results[self.best_index];
        // xlint: allow(panic-in-serve-path): the same invariant: the entry at best_index always holds a populated hpo result
        best.hpo.as_ref().expect("populated at best_index")
    }

    /// The best validation score.
    pub fn best_score(&self) -> f64 {
        self.best().valid_score
    }

    /// Reciprocal rank of the eventual best pipeline in the generator's
    /// ranking (§4.5.2: "we measure where in our ranked list of predicted
    /// pipelines the best pipeline turned out to be ... MRR is 0.71").
    pub fn reciprocal_rank(&self) -> f64 {
        1.0 / (self.best_index + 1) as f64
    }

    /// Estimator kinds in generation-rank order (for the §4.5.3 diversity
    /// analysis and Figure 8).
    pub fn predicted_estimators(&self) -> Vec<EstimatorKind> {
        self.results.iter().map(|r| r.skeleton.estimator).collect()
    }
}

impl TrainedModel {
    /// Embeds an unseen table by content — the first stage of the online
    /// workflow, exposed separately so a batching server can embed a
    /// whole wave of tables before any generation runs.
    pub fn embed_table(&self, frame: &DataFrame) -> Vec<f64> {
        table_embedding(frame)
    }

    /// Embeds a chunked table without materializing it: column statistics
    /// accumulate chunk-by-chunk and the string trigram scan visits a
    /// deterministic row sample bounded by [`EMBED_SAMPLE_BOUND`]. At or
    /// below the bound the result is bit-identical to
    /// [`TrainedModel::embed_table`] on the assembled frame; above it the
    /// embedding is invariant to the chunk size, so out-of-core ingest and
    /// in-memory ingest answer the same query.
    pub fn embed_table_chunked(&self, frame: &ChunkedFrame) -> Vec<f64> {
        table_embedding_chunked(frame, EMBED_SAMPLE_BOUND, EMBED_SAMPLE_SEED)
    }

    /// [`TrainedModel::predict_table`] for a chunked (streamed-in) table —
    /// the larger-than-RAM serving path: embed from chunk statistics and a
    /// bounded row sample, then run the usual nearest-neighbour →
    /// generation stages on the query embedding.
    pub fn predict_table_chunked(
        &self,
        frame: &ChunkedFrame,
        task: Task,
        k: usize,
        capabilities_json: &str,
        seed: u64,
    ) -> Result<(Vec<(Skeleton, f64)>, String)> {
        let query = self.embed_table_chunked(frame);
        self.predict_from_query_embedding(&query, task, k, capabilities_json, seed)
    }

    /// Finds the nearest training dataset `(name, similarity)` for an
    /// already-computed query embedding, through whichever similarity
    /// tier `Kgpip::train`'s auto-tuning selected for the catalog size:
    /// the exact scan below `VectorIndex::HNSW_AUTO_THRESHOLD` and the
    /// deterministic HNSW graph at or above it (`VectorIndex::search`
    /// dispatches). Snapshots written with the retired IVF tier load on
    /// the exact tier.
    ///
    /// Errors with [`KgpipError::EmptyCatalog`] when the model has no
    /// training datasets — a state a server must report, not panic on.
    pub fn nearest_by_embedding(&self, embedding: &[f64]) -> Result<(String, f64)> {
        self.index
            .search(embedding, 1)
            .into_iter()
            .next()
            .ok_or(KgpipError::EmptyCatalog)
    }

    /// Embeds an unseen dataset and finds its nearest training dataset
    /// (name, similarity) by content.
    pub fn nearest_dataset(&self, ds: &Dataset) -> Result<(String, f64)> {
        self.nearest_by_embedding(&self.embed_table(&ds.features))
    }

    /// Predicts up to `k` pipeline skeletons for an unseen dataset,
    /// without running HPO — the paper notes this step is near-instant
    /// ("if the user desires only to know what learners would work best
    /// for their dataset, KGpip can do that almost instantaneously").
    /// Returns `(skeletons with scores, nearest-neighbour name)`.
    pub fn predict_skeletons(
        &self,
        ds: &Dataset,
        k: usize,
        capabilities_json: &str,
        seed: u64,
    ) -> Result<(Vec<(Skeleton, f64)>, String)> {
        let query = self.embed_table(&ds.features);
        self.predict_from_query_embedding(&query, ds.task, k, capabilities_json, seed)
    }

    /// [`TrainedModel::predict_skeletons`] for a table without labels —
    /// the serving layer's entry point, where requests carry a bare table
    /// and a task kind.
    pub fn predict_table(
        &self,
        frame: &DataFrame,
        task: Task,
        k: usize,
        capabilities_json: &str,
        seed: u64,
    ) -> Result<(Vec<(Skeleton, f64)>, String)> {
        let query = self.embed_table(frame);
        self.predict_from_query_embedding(&query, task, k, capabilities_json, seed)
    }

    /// Second stage of the online workflow: nearest-neighbour lookup and
    /// conditional generation from an already-computed query embedding.
    /// `predict_skeletons` ≡ `embed_table` + this method, which is what
    /// lets `kgpip-serve` batch the embedding stage across requests while
    /// staying bit-identical to the direct call.
    pub fn predict_from_query_embedding(
        &self,
        query: &[f64],
        task: Task,
        k: usize,
        capabilities_json: &str,
        seed: u64,
    ) -> Result<(Vec<(Skeleton, f64)>, String)> {
        let (neighbour, _) = self.nearest_by_embedding(query)?;
        // Seed generation with the *neighbour's* stored content embedding
        // (§3.5: generation starts from "the closest seen dataset node —
        // more specifically, its content embedding"). The index and the
        // embedding store are built together by `Kgpip::train`, but a
        // hand-edited model file can desynchronize them — a state a
        // server must report, not panic on.
        let embedding = self
            .embeddings
            .get(&neighbour)
            .ok_or_else(|| {
                KgpipError::InconsistentArtifact(format!(
                    "similarity index returned dataset `{neighbour}` but the embedding store has no entry for it"
                ))
            })?
            .clone();
        let skeletons =
            self.predict_with_embedding(&embedding, task, k, capabilities_json, seed)?;
        Ok((skeletons, neighbour))
        // (predict_with_embedding centres the vector; passing the raw
        // stored embedding here keeps the two paths consistent.)
    }

    /// Like [`TrainedModel::predict_skeletons`] but with an explicit
    /// conditioning embedding — the hook for the content-vs-random
    /// conditioning ablation (DESIGN.md).
    ///
    /// Errors with [`KgpipError::NoValidSkeleton`] when `k == 0` or when
    /// `k` is so large that the sampling budget (`k · 3` candidates, each
    /// drawn from up to 4 attempts) overflows `usize` — the request shapes
    /// that cannot produce a pipeline (for any other `k` the
    /// corpus-dominant fallback guarantees a result).
    pub fn predict_with_embedding(
        &self,
        embedding: &[f64],
        task: Task,
        k: usize,
        capabilities_json: &str,
        seed: u64,
    ) -> Result<Vec<(Skeleton, f64)>> {
        // Oversample `k · 3` candidates (generated graphs can be invalid
        // or unsupported); the generator spends up to 4 attempts on each,
        // and an untrusted `k` must not overflow that budget.
        if k == 0 || k.checked_mul(3 * 4).is_none() {
            return Err(KgpipError::NoValidSkeleton);
        }
        let prefix = TypedGraph::conditioning_prefix(&self.vocab);
        let conditioned = self.condition_vector(embedding);
        let candidates = self.generator.generate_top_k(
            &conditioned,
            &prefix,
            k * 3,
            self.config.temperature,
            seed,
        );
        let mut out: Vec<(Skeleton, f64)> = Vec::new();
        for c in candidates {
            let graph = c.graph.decode(&self.vocab);
            let Some(skeleton) = decode_skeleton(&graph, task) else {
                continue;
            };
            if !validate_against_capabilities(&skeleton, capabilities_json) {
                continue;
            }
            if out.iter().any(|(s, _)| *s == skeleton) {
                continue;
            }
            out.push((skeleton, c.log_prob));
            if out.len() >= k {
                break;
            }
        }
        if out.is_empty() {
            // Fallback: the corpus' dominant learner with no transformers
            // (boosting, which supports both tasks). Deliberately not
            // gated on the capability document — a backend that cannot
            // run it will fail the skeleton search and report that,
            // which beats serving nothing.
            out.push((Skeleton::bare(EstimatorKind::XgBoost), f64::NEG_INFINITY));
        }
        Ok(out)
    }

    /// Runs the full KGpip workflow on one dataset: predict K skeletons,
    /// split the remaining budget `(T − t)/K`, run backend HPO per
    /// skeleton, return everything. Uses the configured `top_k`.
    pub fn run(
        &self,
        train: &Dataset,
        backend: &mut dyn Optimizer,
        budget: TimeBudget,
    ) -> Result<KgpipRun> {
        self.run_k(train, backend, budget, self.config.top_k)
    }

    /// [`TrainedModel::run`] with an explicit K (Figure 7 sweeps
    /// K ∈ {3, 5, 7}).
    ///
    /// With `config.parallelism == 1` skeletons are searched one after the
    /// other, each getting `(T − t)/K` of the *remaining* budget (unused
    /// share rolls forward). With `parallelism > 1` skeletons run on
    /// concurrent lanes, each with an upfront `(T − t)/K` sub-budget drawn
    /// from the same shared trial pool, so the global cap stays exact.
    ///
    /// Every backend searches on a holdout split of `train`, so a training
    /// set too small to split fails with that split's typed error before
    /// any skeleton is generated.
    pub fn run_k(
        &self,
        train: &Dataset,
        backend: &mut dyn Optimizer,
        budget: TimeBudget,
        k: usize,
    ) -> Result<KgpipRun> {
        kgpip_tabular::ensure_splittable(train)?;
        #[allow(clippy::disallowed_methods)]
        // xlint: allow(wall-clock-in-compute): measures the paper's generation time `t`, reported in KgpipRun; budget accounting lives in TimeBudget
        let started = std::time::Instant::now();
        backend.set_trial_cache(!self.config.disable_trial_cache);
        let capabilities = backend.capabilities();
        let (skeletons, neighbour) =
            self.predict_skeletons(train, k, &capabilities, self.config.seed)?;
        let generation_time = started.elapsed();

        let total = skeletons.len();
        // Clamp at the use site: directly-constructed configs can carry
        // `parallelism: 0`, bypassing the builder's `.max(1)` — and a
        // config asking for more workers than the host has CPUs must take
        // the sequential path rather than pay pool overhead for nothing
        // (the 1-CPU-container regression).
        let workers = effective_parallelism(self.config.parallelism);
        let results: Vec<SkeletonResult> = if workers <= 1 {
            let mut results = Vec::with_capacity(total);
            for (i, (skeleton, generation_score)) in skeletons.into_iter().enumerate() {
                // Sequential (T - t)/K split over both time and trials;
                // the divisor shrinks as skeletons complete, so unused
                // share rolls forward.
                let sub = budget.sub_budget_k(total - i);
                let hpo = backend.optimize_skeleton(train, &skeleton, &sub).ok();
                results.push(SkeletonResult {
                    skeleton,
                    generation_score,
                    hpo,
                });
            }
            results
        } else {
            self.run_skeletons_parallel(train, backend, &budget, skeletons, workers)
        };
        let best_index = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.hpo.as_ref().map(|h| (i, h.valid_score)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .ok_or(KgpipError::AllSkeletonsFailed)?;
        Ok(KgpipRun {
            neighbour,
            generation_time,
            results,
            best_index,
        })
    }

    /// Parallel lanes for the per-skeleton `(T − t)/K` searches: each
    /// skeleton gets a fresh engine clone (configuration only, no search
    /// state) and a sub-budget sharing the parent's trial pool. The
    /// effective parallelism is split across lanes, with the remainder
    /// given to each lane's own trial evaluation.
    fn run_skeletons_parallel(
        &self,
        train: &Dataset,
        backend: &dyn Optimizer,
        budget: &TimeBudget,
        skeletons: Vec<(Skeleton, f64)>,
        workers: usize,
    ) -> Vec<SkeletonResult> {
        let total = skeletons.len();
        // Re-clamp at the fan-out site: `workers` already passed through
        // the caller's clamp, but re-applying is idempotent and keeps
        // this function safe to call from new paths.
        let workers = effective_parallelism(workers);
        let lanes = workers.min(total).max(1);
        let per_engine = (workers / lanes).max(1);
        let engines: Vec<Mutex<Box<dyn Optimizer + Send>>> = (0..total)
            .map(|_| {
                let mut engine = backend.clone_boxed();
                engine.set_parallelism(per_engine);
                Mutex::new(engine)
            })
            .collect();
        let sub_budgets: Vec<TimeBudget> = (0..total).map(|_| budget.sub_budget_k(total)).collect();
        let work: Vec<(usize, Skeleton, f64)> = skeletons
            .into_iter()
            .enumerate()
            .map(|(i, (s, g))| (i, s, g))
            .collect();
        let run_lane = |(i, skeleton, generation_score): &(usize, Skeleton, f64)| {
            // xlint: allow(panic-in-serve-path): i < total by construction and both vectors are built with len total
            let (engine, sub) = (&engines[*i], &sub_budgets[*i]);
            let hpo = engine.lock().optimize_skeleton(train, skeleton, sub).ok();
            SkeletonResult {
                skeleton: skeleton.clone(),
                generation_score: *generation_score,
                hpo,
            }
        };
        match rayon::ThreadPoolBuilder::new().num_threads(lanes).build() {
            Ok(pool) => pool.install(|| work.par_iter().map(run_lane).collect()),
            // Pool construction only fails on thread-resource exhaustion;
            // the lanes are order-independent and each carries its own
            // upfront sub-budget, so running them sequentially returns
            // the same results rather than killing the serving thread.
            Err(_) => work.iter().map(run_lane).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{Kgpip, KgpipConfig};
    use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
    use kgpip_graphgen::GeneratorConfig;
    use kgpip_hpo::{AutoSklearn, Flaml};
    use kgpip_tabular::{Column, DataFrame, Task};

    fn table_like(offset: f64, n: usize) -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "f0".to_string(),
                Column::from_f64((0..n).map(|i| offset + (i % 10) as f64).collect::<Vec<_>>()),
            ),
            (
                "f1".to_string(),
                Column::from_f64((0..n).map(|i| offset + (i % 7) as f64).collect::<Vec<_>>()),
            ),
        ])
        .unwrap()
    }

    fn trained_model() -> TrainedModel {
        let profiles = vec![
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", false),
        ];
        let scripts = generate_corpus(
            &profiles,
            &CorpusConfig {
                scripts_per_dataset: 8,
                unsupported_fraction: 0.0,
                ..CorpusConfig::default()
            },
        );
        let tables = vec![
            ("alpha".to_string(), table_like(0.0, 30)),
            ("beta".to_string(), table_like(500.0, 30)),
        ];
        Kgpip::train(
            &scripts,
            &tables,
            KgpipConfig {
                generator: GeneratorConfig {
                    hidden: 12,
                    prop_rounds: 1,
                    epochs: 6,
                    ..GeneratorConfig::default()
                },
                ..KgpipConfig::default()
            },
        )
        .unwrap()
        .into_artifact()
    }

    fn unseen_dataset(n: usize) -> Dataset {
        let f = table_like(1.0, n);
        let y: Vec<f64> = (0..n).map(|i| f64::from(i % 10 > 4)).collect();
        Dataset::new("unseen", f, y, Task::Binary).unwrap()
    }

    #[test]
    fn predicts_valid_skeletons_quickly() {
        let model = trained_model();
        let ds = unseen_dataset(100);
        let backend = Flaml::new(0);
        use kgpip_hpo::Optimizer as _;
        let caps = backend.capabilities();
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let (skeletons, neighbour) = model.predict_skeletons(&ds, 3, &caps, 0).unwrap();
        assert!(!skeletons.is_empty());
        assert!(skeletons.len() <= 3);
        assert!(neighbour == "alpha" || neighbour == "beta");
        for (s, _) in &skeletons {
            assert!(s.estimator.supports(Task::Binary));
        }
        // "almost instantaneously" — generation without HPO is fast.
        assert!(started.elapsed().as_secs_f64() < 5.0);
    }

    #[test]
    fn staged_prediction_matches_the_direct_call() {
        let artifact = trained_model();
        let ds = unseen_dataset(80);
        let caps = {
            use kgpip_hpo::Optimizer as _;
            Flaml::new(0).capabilities()
        };
        let (direct, n1) = artifact.predict_skeletons(&ds, 3, &caps, 7).unwrap();
        // Staged path (embed, then generate) is bit-identical — the
        // contract the batching server relies on.
        let query = artifact.embed_table(&ds.features);
        let (staged, n2) = artifact
            .predict_from_query_embedding(&query, ds.task, 3, &caps, 7)
            .unwrap();
        assert_eq!(n1, n2);
        assert_eq!(direct.len(), staged.len());
        for ((s1, g1), (s2, g2)) in direct.iter().zip(&staged) {
            assert_eq!(s1, s2);
            assert_eq!(g1.to_bits(), g2.to_bits());
        }
    }

    #[test]
    fn chunked_prediction_matches_the_in_memory_path() {
        let artifact = trained_model();
        let frame = table_like(1.0, 80);
        let caps = {
            use kgpip_hpo::Optimizer as _;
            Flaml::new(0).capabilities()
        };
        let (dense, n1) = artifact
            .predict_table(&frame, Task::Binary, 3, &caps, 7)
            .unwrap();
        for chunk_rows in [1, 7, 100] {
            let chunked_frame = kgpip_tabular::ChunkedFrame::from_frame(&frame, chunk_rows);
            // 80 rows is far below EMBED_SAMPLE_BOUND: the chunked
            // embedding — and everything downstream — must be
            // bit-identical to the in-memory path.
            assert_eq!(
                artifact.embed_table(&frame),
                artifact.embed_table_chunked(&chunked_frame),
                "chunk_rows {chunk_rows}"
            );
            let (chunked, n2) = artifact
                .predict_table_chunked(&chunked_frame, Task::Binary, 3, &caps, 7)
                .unwrap();
            assert_eq!(n1, n2);
            assert_eq!(dense.len(), chunked.len());
            for ((s1, g1), (s2, g2)) in dense.iter().zip(&chunked) {
                assert_eq!(s1, s2);
                assert_eq!(g1.to_bits(), g2.to_bits());
            }
        }
    }

    /// Degenerate tables — a header-only and a one-row document — answer
    /// with the same typed outcome in memory and chunked, at chunk sizes
    /// 1, 7 and whole, without panicking.
    #[test]
    fn degenerate_tables_answer_alike_in_memory_and_chunked() {
        let artifact = trained_model();
        let caps = {
            use kgpip_hpo::Optimizer as _;
            Flaml::new(0).capabilities()
        };
        for doc in ["a,b\n", "n,c,t\n1.5,x,one two three four five\n"] {
            let frame = kgpip_tabular::csv::read_frame(doc).unwrap();
            let dense = artifact.predict_table(&frame, Task::Binary, 3, &caps, 7);
            for chunk_rows in [1, 7, usize::MAX] {
                let chunked_frame = kgpip_tabular::ChunkedFrame::from_frame(&frame, chunk_rows);
                let chunked =
                    artifact.predict_table_chunked(&chunked_frame, Task::Binary, 3, &caps, 7);
                match (&dense, &chunked) {
                    (Ok((s1, n1)), Ok((s2, n2))) => {
                        assert_eq!(n1, n2, "{doc:?} at chunk_rows {chunk_rows}");
                        assert_eq!(s1.len(), s2.len());
                        for ((a, g1), (b, g2)) in s1.iter().zip(s2) {
                            assert_eq!(a, b);
                            assert_eq!(g1.to_bits(), g2.to_bits());
                        }
                    }
                    (Err(e1), Err(e2)) => assert_eq!(e1.to_string(), e2.to_string()),
                    (d, c) => panic!("{doc:?} at chunk_rows {chunk_rows}: {d:?} vs {c:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        let model = trained_model();
        let ds = unseen_dataset(40);
        let err = model.predict_skeletons(&ds, 0, "{}", 0).unwrap_err();
        assert!(matches!(err, KgpipError::NoValidSkeleton));
    }

    #[test]
    fn overflowing_k_is_a_typed_error() {
        let model = trained_model();
        let ds = unseen_dataset(40);
        for k in [usize::MAX, usize::MAX / 12 + 1] {
            let err = model.predict_skeletons(&ds, k, "{}", 0).unwrap_err();
            assert!(matches!(err, KgpipError::NoValidSkeleton), "k = {k}");
        }
    }

    #[test]
    fn empty_catalog_is_a_typed_error() {
        let mut artifact = trained_model();
        artifact.index = kgpip_embeddings::VectorIndex::new();
        let ds = unseen_dataset(40);
        let err = artifact.nearest_dataset(&ds).unwrap_err();
        assert!(matches!(err, KgpipError::EmptyCatalog));
        let err = artifact.predict_skeletons(&ds, 3, "{}", 0).unwrap_err();
        assert!(matches!(err, KgpipError::EmptyCatalog));
    }

    #[test]
    fn full_run_returns_ranked_results() {
        let model = trained_model();
        let ds = unseen_dataset(150);
        let mut backend = Flaml::new(1);
        let run = model
            .run(&ds, &mut backend, TimeBudget::seconds(3.0))
            .unwrap();
        assert!(!run.results.is_empty());
        assert!(run.best_score() > 0.5, "score {}", run.best_score());
        assert!(run.reciprocal_rank() > 0.0 && run.reciprocal_rank() <= 1.0);
        assert!(!run.predicted_estimators().is_empty());
        // Generation scores are in descending rank order (fallbacks aside).
        for pair in run.results.windows(2) {
            assert!(pair[0].generation_score >= pair[1].generation_score);
        }
    }

    #[test]
    fn nearest_dataset_picks_the_similar_table() {
        let model = trained_model();
        // Unseen table built exactly like "alpha" (offset 0).
        let ds = unseen_dataset(60);
        let (name, sim) = model.nearest_dataset(&ds).unwrap();
        assert!(name == "alpha" || name == "beta");
        assert!(sim > 0.5);
    }

    #[test]
    fn spent_budget_searches_each_skeleton_once_at_any_width() {
        // t ≥ T: a zero budget is spent before generation ends. Both
        // engines still guarantee one trial per skeleton, so the run
        // answers — and answers the same at every width.
        let model = trained_model();
        let ds = unseen_dataset(60);
        let backends: [fn() -> Box<dyn Optimizer>; 2] =
            [|| Box::new(Flaml::new(0)), || Box::new(AutoSklearn::new(0))];
        for make in backends {
            let answers: Vec<_> = [1, 2]
                .into_iter()
                .map(|parallelism| {
                    let model = model.clone().with_parallelism(parallelism);
                    let mut backend = make();
                    let run = model
                        .run_k(&ds, backend.as_mut(), TimeBudget::seconds(0.0), 3)
                        .unwrap();
                    let searched: Vec<_> = run
                        .results
                        .iter()
                        .map(|r| {
                            let hpo = r.hpo.as_ref().expect("every skeleton gets its trial");
                            assert_eq!((hpo.trials, hpo.history.len()), (1, 1));
                            (
                                r.skeleton.clone(),
                                r.generation_score.to_bits(),
                                hpo.valid_score.to_bits(),
                            )
                        })
                        .collect();
                    (run.neighbour, run.best_index, searched)
                })
                .collect();
            assert!(!answers[0].2.is_empty());
            assert_eq!(answers[0], answers[1]);
        }
    }

    /// One `run_k` answer reduced to comparable bits: the neighbour, the
    /// best index, and per skeleton its generation score and searched
    /// score; or the error's text.
    fn run_outcome(run: Result<KgpipRun>) -> std::result::Result<String, String> {
        run.map(|run| {
            let searched: Vec<_> = run
                .results
                .iter()
                .map(|r| {
                    (
                        r.skeleton.clone(),
                        r.generation_score.to_bits(),
                        r.hpo.as_ref().map(|h| (h.trials, h.valid_score.to_bits())),
                    )
                })
                .collect();
            format!("{} {} {searched:?}", run.neighbour, run.best_index)
        })
        .map_err(|e| e.to_string())
    }

    /// Degenerate training sets — 0 and 1 rows, one label class, an
    /// all-NaN feature column, and a `k` beyond the two-dataset catalog —
    /// give both backends a typed `Result` without panicking, the same at
    /// parallelism 1 and 2. A training set too small for the searches'
    /// holdout split fails with the split's own error before generation;
    /// the others answer.
    #[test]
    fn degenerate_training_sets_answer_typed_and_alike_at_any_width() {
        let model = trained_model();
        let one_class = {
            let f = table_like(1.0, 60);
            Dataset::new("one-class", f, vec![1.0; 60], Task::Binary).unwrap()
        };
        let all_nan = {
            let mut ds = unseen_dataset(60);
            let gone = Column::numeric(vec![Some(f64::NAN); 60]);
            ds.features.push("gone", gone).unwrap();
            ds
        };
        let cases: Vec<(&str, Dataset, usize, bool)> = vec![
            ("0 rows", unseen_dataset(0), 3, false),
            ("1 row", unseen_dataset(1), 3, false),
            ("one label class", one_class, 3, true),
            ("an all-NaN feature column", all_nan, 3, true),
            ("k beyond the catalog", unseen_dataset(60), 10, true),
        ];
        let backends: [fn() -> Box<dyn Optimizer>; 2] =
            [|| Box::new(Flaml::new(0)), || Box::new(AutoSklearn::new(0))];
        for (what, ds, k, answers) in &cases {
            for (make, name) in backends.into_iter().zip(["flaml", "autosklearn"]) {
                let outcomes: Vec<_> = [1, 2]
                    .into_iter()
                    .map(|parallelism| {
                        let model = model.clone().with_parallelism(parallelism);
                        let mut backend = make();
                        let budget = TimeBudget::seconds(600.0).with_trial_cap(4);
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            model.run_k(ds, backend.as_mut(), budget, *k)
                        }));
                        run_outcome(run.unwrap_or_else(|_| {
                            panic!("{what} / {name} at parallelism {parallelism} panicked")
                        }))
                    })
                    .collect();
                assert_eq!(outcomes[0], outcomes[1], "{what} / {name}");
                if *answers {
                    assert!(outcomes[0].is_ok(), "{what} / {name}: {:?}", outcomes[0]);
                } else {
                    let too_small = KgpipError::Tabular(kgpip_tabular::TabularError::Empty(
                        "dataset with at least 2 rows",
                    ));
                    assert_eq!(outcomes[0], Err(too_small.to_string()), "{what} / {name}");
                }
            }
        }
    }
}
