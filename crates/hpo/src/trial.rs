//! Trial evaluation and the shared optimizer interface.
//!
//! The [`Evaluator`] is the parallel trial-evaluation engine shared by
//! every optimizer: it owns the holdout split, a thread-safe trial
//! history, and a [`BudgetGate`] that makes budget accounting exact under
//! concurrency. Optimizers *propose* batches of [`Candidate`]s and the
//! evaluator admits, evaluates (with `rayon` when `parallelism > 1`), and
//! records them — engines no longer hand-roll fit/score/budget
//! bookkeeping. With `parallelism == 1` the engine reproduces the
//! sequential evaluation order bit-for-bit, which keeps seeded runs
//! deterministic.
//!
//! A trial fits its pipeline once, predicts the holdout once, and scores
//! those predictions. An ensembling search keeps the holdout predictions
//! of its best [`KEPT_TRIALS`] trials as they are recorded, so ensemble
//! selection reads them instead of refitting anything after the budget
//! gate has closed.

use crate::budget::{BudgetGate, TimeBudget};
use crate::space::Skeleton;
use crate::Result;
use kgpip_learners::pipeline::{score_predictions, Pipeline, PipelineSpec};
use kgpip_learners::{EncodedDataset, Params, TransformCache};
use kgpip_tabular::{effective_parallelism, train_test_split, Dataset};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fraction of training rows held out for trial validation.
pub const HOLDOUT_FRACTION: f64 = 0.2;

/// How many trials' holdout predictions an ensembling search keeps: the
/// best by score, ties in history order. Ensemble selection draws its
/// pool from these, so memory stays at this many holdout vectors.
pub(crate) const KEPT_TRIALS: usize = 8;

/// Cap on distinct failure messages kept in a [`SearchReport`].
pub const MAX_REPORT_ERRORS: usize = 8;

/// The outcome of one pipeline-spec evaluation.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The evaluated spec.
    pub spec: PipelineSpec,
    /// Validation score (macro-F1 / R²); `None` when the fit failed.
    pub score: Option<f64>,
    /// The learner error when the fit failed (set iff `score` is `None`),
    /// so degenerate configs and cache bugs leave a trace.
    pub error: Option<String>,
    /// Wall-clock cost of the trial.
    pub cost: Duration,
}

/// Aggregate diagnostics of a search run: trial and failure counts, a
/// capped sample of distinct failure messages, and the transform-cache
/// hit/miss counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// Trials recorded in the history.
    pub trials: usize,
    /// Trials whose fit failed (`score == None`).
    pub failures: usize,
    /// Distinct failure messages, at most [`MAX_REPORT_ERRORS`].
    pub errors: Vec<String>,
    /// Transformer-prefix cache hits.
    pub cache_hits: u64,
    /// Transformer-prefix cache misses.
    pub cache_misses: u64,
    /// Trials that ran against the pre-encoded splits (the encode-once
    /// fast path). Skeleton-only searches with no transformers never
    /// consult the transform cache — this counter shows the caching that
    /// *did* happen there, instead of a misleading 0% hit rate.
    pub encoded_trials: u64,
}

impl SearchReport {
    /// Failure accounting from a trial history (cache counters stay 0; the
    /// [`Evaluator`] fills them in).
    pub fn from_history(history: &[TrialOutcome]) -> SearchReport {
        let mut report = SearchReport {
            trials: history.len(),
            ..SearchReport::default()
        };
        for outcome in history {
            if outcome.score.is_some() {
                continue;
            }
            report.failures += 1;
            if let Some(err) = &outcome.error {
                if report.errors.len() < MAX_REPORT_ERRORS && !report.errors.contains(err) {
                    report.errors.push(err.clone());
                }
            }
        }
        report
    }

    /// Total transform-cache lookups (hits + misses). Zero means the
    /// search never consulted the cache at all — a hit *rate* is
    /// meaningless then, not 0%.
    pub fn cache_lookups(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Transform-cache hit rate in `[0, 1]`; `None` when the cache was
    /// never looked up (e.g. skeleton-only searches with no transformer
    /// chains), so callers cannot mistake "unused" for "0% effective".
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_lookups();
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

/// The result of a full optimization run.
#[derive(Debug, Clone)]
pub struct HpoResult {
    /// Best pipeline spec found.
    pub spec: PipelineSpec,
    /// Its validation score.
    pub valid_score: f64,
    /// Number of completed trials.
    pub trials: usize,
    /// Full trial history (for diagnostics and the Fig-8 logs).
    pub history: Vec<TrialOutcome>,
    /// Optional ensemble members (Auto-Sklearn-style greedy selection);
    /// empty means deploy `spec` alone. Members may repeat (weighting).
    pub ensemble: Vec<PipelineSpec>,
    /// Failure and cache diagnostics for the run.
    pub report: SearchReport,
}

impl HpoResult {
    /// A single-spec result.
    pub fn single(spec: PipelineSpec, valid_score: f64, history: Vec<TrialOutcome>) -> HpoResult {
        HpoResult {
            spec,
            valid_score,
            trials: history.len(),
            report: SearchReport::from_history(&history),
            history,
            ensemble: Vec::new(),
        }
    }

    /// Refits the deployed model (ensemble if present, else the best
    /// single spec) on the full training set and scores it on a held-out
    /// test set with the paper's metric. Member refits run in parallel
    /// (rayon) but predictions are combined — and the first error
    /// surfaced — in member order, so the result does not depend on
    /// completion order.
    pub fn refit_score(&self, train: &Dataset, test: &Dataset) -> Result<f64> {
        let members: Vec<&PipelineSpec> = if self.ensemble.is_empty() {
            vec![&self.spec]
        } else {
            self.ensemble.iter().collect()
        };
        // Encode once and share a transform cache across member refits;
        // fall back to the raw-dataset path if encoding itself fails.
        let encoded = EncodedDataset::from_dataset(train).ok().and_then(|tr| {
            EncodedDataset::with_encoder(tr.encoder(), test)
                .ok()
                .map(|te| (tr, te))
        });
        let cache = TransformCache::default();
        let refit = |spec: &&PipelineSpec| -> std::result::Result<Vec<f64>, String> {
            let mut pipeline = Pipeline::from_spec((*spec).clone()).map_err(|e| e.to_string())?;
            match &encoded {
                Some((tr, te)) => pipeline
                    .fit_predict_encoded(tr, te, Some(&cache))
                    .map_err(|e| e.to_string()),
                None => pipeline
                    .fit(train)
                    .and_then(|()| pipeline.predict(test))
                    .map_err(|e| e.to_string()),
            }
        };
        // Member refits ride the global rayon pool, gated on the clamp so
        // a 1-CPU host takes the sequential path outright.
        let results: Vec<std::result::Result<Vec<f64>, String>> =
            if effective_parallelism(members.len()) > 1 {
                members.par_iter().map(refit).collect()
            } else {
                members.iter().map(refit).collect()
            };
        let mut all_preds: Vec<Vec<f64>> = Vec::with_capacity(results.len());
        for result in results {
            all_preds.push(result.map_err(crate::HpoError::Learner)?);
        }
        let combined = combine_predictions(&all_preds, train.task.is_classification());
        Ok(score_predictions(test, &combined))
    }
}

/// Combines member predictions: majority vote for classification, mean
/// for regression.
pub fn combine_predictions(preds: &[Vec<f64>], classification: bool) -> Vec<f64> {
    if preds.len() == 1 {
        return preds[0].clone();
    }
    let n = preds[0].len();
    (0..n)
        .map(|i| {
            if classification {
                let mut counts: std::collections::BTreeMap<u64, usize> = Default::default();
                for p in preds {
                    *counts.entry(p[i].to_bits()).or_insert(0) += 1;
                }
                counts
                    .into_iter()
                    .max_by_key(|(_, c)| *c)
                    .map(|(bits, _)| f64::from_bits(bits))
                    .unwrap_or(0.0)
            } else {
                preds.iter().map(|p| p[i]).sum::<f64>() / preds.len() as f64
            }
        })
        .collect()
}

/// The uniform optimizer interface shared by every engine.
pub trait Optimizer {
    /// Cold-start mode: full search over the engine's supported learners.
    fn optimize(&mut self, train: &Dataset, budget: &TimeBudget) -> Result<HpoResult>;

    /// Skeleton mode: hyperparameter search for a fixed skeleton — the
    /// entry point KGpip drives (§3.6).
    fn optimize_skeleton(
        &mut self,
        train: &Dataset,
        skeleton: &Skeleton,
        budget: &TimeBudget,
    ) -> Result<HpoResult>;

    /// The engine's §3.6 JSON capability document.
    fn capabilities(&self) -> String;

    /// Sets how many trials the engine's evaluator may run concurrently
    /// (1 = sequential, the default; engines without search may ignore
    /// it).
    fn set_parallelism(&mut self, _parallelism: usize) {}

    /// The engine's configured evaluation parallelism.
    fn parallelism(&self) -> usize {
        1
    }

    /// Enables or disables the trial caches (pre-encoded datasets +
    /// transformer-prefix memoization). On by default; caching changes
    /// trial cost, never trial values. Engines without an evaluator may
    /// ignore it.
    fn set_trial_cache(&mut self, _enabled: bool) {}

    /// An owned copy of this engine, for running skeletons on parallel
    /// lanes. Cloning copies configuration (seed, learner sets,
    /// parallelism), not search state — each lane starts fresh.
    fn clone_boxed(&self) -> Box<dyn Optimizer + Send>;
}

/// One proposed trial: a skeleton plus a hyperparameter configuration.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The pipeline skeleton to instantiate.
    pub skeleton: Skeleton,
    /// Hyperparameters for the skeleton's estimator.
    pub params: Params,
}

impl Candidate {
    /// Convenience constructor.
    pub fn new(skeleton: Skeleton, params: Params) -> Candidate {
        Candidate { skeleton, params }
    }
}

/// The shared trial-evaluation engine: a deterministic holdout split, a
/// thread-safe trial history, a [`BudgetGate`], and an evaluation worker
/// pool.
///
/// Optimizers call [`evaluate_batch`] with the candidates they want tried
/// this round. The evaluator admits candidates through the gate in
/// proposal order (stopping at the first rejection — budgets do not
/// un-expire), evaluates the admitted ones (concurrently when
/// `parallelism > 1`), and appends the outcomes to the history *in
/// proposal order* regardless of which finished first. Batch results are
/// therefore deterministic for a fixed seed at any parallelism; with
/// `parallelism == 1` the whole run is bit-for-bit identical to the
/// historical sequential engines.
///
/// [`evaluate_batch`]: Evaluator::evaluate_batch
pub struct Evaluator {
    train: Dataset,
    valid: Dataset,
    /// Train/holdout splits pre-encoded with the training split's encoder
    /// (`None` when encoding failed; trials then fall back to raw frames).
    encoded: Option<(Arc<EncodedDataset>, Arc<EncodedDataset>)>,
    /// Transformer-prefix memo shared by all trials of this evaluator.
    cache: Arc<TransformCache>,
    caching: bool,
    gate: BudgetGate,
    record: Mutex<Record>,
    parallelism: usize,
    /// Trials that took the pre-encoded fast path (see
    /// [`SearchReport::encoded_trials`]).
    encoded_trials: AtomicU64,
}

/// The trial history and, for an ensembling search, the holdout
/// predictions of its best trials — one lock, so both follow the same
/// recording order.
#[derive(Default)]
struct Record {
    history: Vec<TrialOutcome>,
    /// `(history index, holdout predictions)` of the best [`KEPT_TRIALS`]
    /// scored trials, best first and ties in history order — the order a
    /// stable descending sort of the whole history gives. `None` when the
    /// search keeps no predictions.
    kept: Option<Vec<(usize, Vec<f64>)>>,
}

impl Record {
    /// Appends a trial, keeping its predictions if it ranks among the
    /// best [`KEPT_TRIALS`] so far. A later trial ranks after every kept
    /// one with an equal score, and a trial once pushed out never returns.
    fn push(&mut self, outcome: TrialOutcome, predictions: Option<Vec<f64>>) {
        if let (Some(kept), Some(score), Some(predictions)) =
            (&mut self.kept, outcome.score, predictions)
        {
            let history = &self.history;
            let rank = kept
                .iter()
                .position(|(idx, _)| history[*idx].score.is_some_and(|s| s < score))
                .unwrap_or(kept.len());
            if rank < KEPT_TRIALS {
                kept.insert(rank, (history.len(), predictions));
                kept.truncate(KEPT_TRIALS);
            }
        }
        self.history.push(outcome);
    }
}

impl Evaluator {
    /// Builds an evaluator with a seeded holdout split, gated by the
    /// given budget. Starts sequential with trial caching on; see
    /// [`with_parallelism`] and [`with_cache`].
    ///
    /// [`with_parallelism`]: Evaluator::with_parallelism
    /// [`with_cache`]: Evaluator::with_cache
    pub fn new(train: &Dataset, seed: u64, budget: &TimeBudget) -> Result<Evaluator> {
        let (fit_part, valid) = train_test_split(train, HOLDOUT_FRACTION, seed)
            .map_err(|e| crate::HpoError::Learner(e.to_string()))?;
        let encoded = EncodedDataset::from_dataset(&fit_part).ok().and_then(|tr| {
            EncodedDataset::with_encoder(tr.encoder(), &valid)
                .ok()
                .map(|va| (Arc::new(tr), Arc::new(va)))
        });
        Ok(Evaluator {
            train: fit_part,
            valid,
            encoded,
            cache: Arc::new(TransformCache::default()),
            caching: true,
            gate: BudgetGate::new(budget),
            record: Mutex::new(Record::default()),
            parallelism: 1,
            encoded_trials: AtomicU64::new(0),
        })
    }

    /// Sets the number of concurrent trial evaluations (clamped to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> Evaluator {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Enables or disables trial caching. Disabled, every trial runs the
    /// original raw-frame `fit` + `predict` path — caching can only change
    /// what a trial *costs*, never what it scores (the cache-equivalence
    /// suite pins this down bit-for-bit).
    pub fn with_cache(mut self, enabled: bool) -> Evaluator {
        self.caching = enabled;
        self
    }

    /// Keeps the holdout predictions of the best [`KEPT_TRIALS`] trials
    /// recorded by [`evaluate_batch`], for ensemble selection to read back
    /// through [`take_kept_predictions`].
    ///
    /// [`evaluate_batch`]: Evaluator::evaluate_batch
    /// [`take_kept_predictions`]: Evaluator::take_kept_predictions
    pub(crate) fn keeping_predictions(mut self) -> Evaluator {
        self.record.get_mut().kept = Some(Vec::new());
        self
    }

    /// Whether trial caching is enabled.
    pub fn caching(&self) -> bool {
        self.caching
    }

    /// The configured evaluation parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The budget gate.
    pub fn gate(&self) -> &BudgetGate {
        &self.gate
    }

    /// Whether the underlying budget is exhausted (loop condition for
    /// optimizers; admission itself is the gate's job).
    pub fn budget_expired(&self) -> bool {
        self.gate.expired()
    }

    /// The validation part (used by ensemble selection).
    pub fn validation(&self) -> &Dataset {
        &self.valid
    }

    /// The fitting part.
    pub fn fit_part(&self) -> &Dataset {
        &self.train
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> usize {
        self.record.lock().history.len()
    }

    /// A snapshot of the trial history, in admission order.
    pub fn history(&self) -> Vec<TrialOutcome> {
        self.record.lock().history.clone()
    }

    /// Moves out the kept `(history index, holdout predictions)` pairs,
    /// best trial first (empty unless [`keeping_predictions`] was set).
    ///
    /// [`keeping_predictions`]: Evaluator::keeping_predictions
    pub(crate) fn take_kept_predictions(&self) -> Vec<(usize, Vec<f64>)> {
        self.record
            .lock()
            .kept
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Failure accounting over the recorded history plus the live
    /// transform-cache counters.
    pub fn report(&self) -> SearchReport {
        let mut report = SearchReport::from_history(&self.history());
        report.cache_hits = self.cache.hits();
        report.cache_misses = self.cache.misses();
        report.encoded_trials = self.encoded_trials.load(Ordering::Relaxed);
        report
    }

    /// Admits and evaluates a batch of candidates. Admission happens in
    /// proposal order and stops at the first gate rejection; admitted
    /// candidates are evaluated (in parallel when configured) and their
    /// outcomes recorded and returned in proposal order. An empty return
    /// means the budget is exhausted. The history and the kept predictions
    /// are updated together in proposal order, so their indices do not
    /// depend on which trial finished first.
    pub fn evaluate_batch(&self, batch: &[Candidate]) -> Vec<TrialOutcome> {
        let admitted: Vec<&Candidate> = batch.iter().take_while(|_| self.gate.admit()).collect();
        // Clamp to the CPUs actually present: on a 1-CPU host a
        // `parallelism = 2` config would pay pool construction and
        // contention for zero concurrency (outcomes are recorded in
        // proposal order either way, so only the cost changes).
        let workers = effective_parallelism(self.parallelism);
        let evaluate = |c: &&Candidate| self.run_trial(&c.skeleton, c.params.clone());
        let pool = (workers > 1 && admitted.len() > 1)
            .then(|| rayon::ThreadPoolBuilder::new().num_threads(workers).build())
            .and_then(|built| built.ok());
        let trials: Vec<(TrialOutcome, Option<Vec<f64>>)> = match pool {
            Some(pool) => pool.install(|| admitted.par_iter().map(evaluate).collect()),
            // Pool construction only fails on thread-resource exhaustion;
            // outcomes are recorded in proposal order either way, so the
            // sequential schedule returns the same results rather than
            // killing the search.
            None => admitted.iter().map(evaluate).collect(),
        };
        let mut record = self.record.lock();
        let outcomes = trials
            .into_iter()
            .map(|(outcome, predictions)| {
                record.push(outcome.clone(), predictions);
                outcome
            })
            .collect();
        #[cfg(test)]
        tests::observe_kept(record.kept.as_ref().map_or(0, Vec::len));
        outcomes
    }

    /// Evaluates one spec *without* touching the gate or the history —
    /// the pure scoring primitive (also used by benchmarks and replay
    /// paths that account for budgets themselves). Learner errors become
    /// `score: None` with the message in `error` rather than aborting the
    /// search (an optimizer must survive bad configurations).
    ///
    /// With caching on, the trial runs against the pre-encoded splits and
    /// the shared transform cache — bit-for-bit the score of the raw
    /// `fit` + `predict` path, minus the repeated encode/preprocess work.
    pub fn evaluate(&self, skeleton: &Skeleton, params: Params) -> TrialOutcome {
        self.run_trial(skeleton, params).0
    }

    /// One trial: fits the spec, predicts the holdout once and scores
    /// those predictions, which it returns alongside the outcome (`None`
    /// when the fit failed).
    fn run_trial(&self, skeleton: &Skeleton, params: Params) -> (TrialOutcome, Option<Vec<f64>>) {
        let spec = PipelineSpec {
            transformers: skeleton
                .transformers
                .iter()
                .map(|k| (*k, Params::new()))
                .collect(),
            estimator: skeleton.estimator,
            params,
        };
        #[allow(clippy::disallowed_methods)]
        // xlint: allow(wall-clock-in-compute): trial duration is a reported statistic on the HPO result; the search never branches on it
        let started = std::time::Instant::now();
        let fit = Pipeline::from_spec(spec.clone()).and_then(|mut p| {
            match (self.caching, &self.encoded) {
                (true, Some((tr, va))) => {
                    self.encoded_trials.fetch_add(1, Ordering::Relaxed);
                    p.fit_predict_encoded(tr, va, Some(&self.cache))
                }
                _ => p.fit(&self.train).and_then(|()| p.predict(&self.valid)),
            }
        });
        let (score, error, predictions) = match fit {
            Ok(pred) => (
                Some(score_predictions(&self.valid, &pred)),
                None,
                Some(pred),
            ),
            Err(e) => (None, Some(e.to_string()), None),
        };
        let outcome = TrialOutcome {
            spec,
            score,
            error,
            cost: started.elapsed(),
        };
        (outcome, predictions)
    }

    /// Builds the run result from the recorded history: the earliest
    /// best-scoring trial wins (strict improvement, matching the
    /// sequential engines). Errors with `BudgetExhausted` when no trial
    /// scored.
    pub fn result(&self) -> Result<HpoResult> {
        let history = self.history();
        let mut best: Option<(usize, f64)> = None;
        for (idx, outcome) in history.iter().enumerate() {
            if let Some(score) = outcome.score {
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((idx, score));
                }
            }
        }
        let Some((idx, score)) = best else {
            return Err(crate::HpoError::BudgetExhausted);
        };
        let mut result = HpoResult::single(history[idx].spec.clone(), score, history);
        result.report = self.report();
        Ok(result)
    }
}

#[cfg(test)]
impl Evaluator {
    /// Test oracle: the refit that ensemble selection ran before trials
    /// kept their predictions — fit `spec` again and predict the holdout
    /// on the same path its trial took.
    pub(crate) fn refit_predictions(&self, spec: &PipelineSpec) -> Option<Vec<f64>> {
        let mut p = Pipeline::from_spec(spec.clone()).ok()?;
        match (self.caching, &self.encoded) {
            (true, Some((tr, va))) => p.fit_predict_encoded(tr, va, Some(&self.cache)).ok(),
            _ => {
                p.fit(&self.train).ok()?;
                p.predict(&self.valid).ok()
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kgpip_learners::EstimatorKind;
    use kgpip_tabular::{Column, DataFrame, Task};
    use std::cell::Cell;

    thread_local! {
        /// The largest kept-prediction set an [`Evaluator::evaluate_batch`]
        /// on this thread has left behind.
        static MOST_KEPT: Cell<usize> = const { Cell::new(0) };
    }

    /// Called by `evaluate_batch` after recording a batch.
    pub(crate) fn observe_kept(kept: usize) {
        MOST_KEPT.with(|most| most.set(most.get().max(kept)));
    }

    /// The largest kept set any evaluator on this thread held while `run`
    /// searched (searches record their batches on the calling thread).
    pub(crate) fn most_kept_during(run: impl FnOnce()) -> usize {
        MOST_KEPT.with(|most| most.set(0));
        run();
        MOST_KEPT.with(Cell::get)
    }

    fn toy(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 4.5)).collect();
        let f = DataFrame::from_columns(vec![("x".to_string(), Column::from_f64(x))]).unwrap();
        Dataset::new("toy", f, y, Task::Binary).unwrap()
    }

    fn wide_budget() -> TimeBudget {
        TimeBudget::seconds(600.0).with_trial_cap(1_000)
    }

    #[test]
    fn evaluator_scores_good_and_bad_specs() {
        let ds = toy(200);
        let budget = wide_budget();
        let ev = Evaluator::new(&ds, 0, &budget).unwrap();
        let good = ev.evaluate(&Skeleton::bare(EstimatorKind::DecisionTree), Params::new());
        assert!(good.score.unwrap() > 0.9);
        // Regression-only learner on classification: survives as None.
        let bad = ev.evaluate(&Skeleton::bare(EstimatorKind::Ridge), Params::new());
        assert_eq!(bad.score, None);
        // Pure evaluate never touches the gate or history.
        assert_eq!(ev.trials(), 0);
        assert_eq!(budget.trials_used(), 0);
    }

    #[test]
    fn holdout_is_deterministic() {
        let ds = toy(100);
        let budget = wide_budget();
        let a = Evaluator::new(&ds, 7, &budget).unwrap();
        let b = Evaluator::new(&ds, 7, &budget).unwrap();
        assert_eq!(a.validation().target, b.validation().target);
        assert_eq!(a.fit_part().num_rows(), 80);
    }

    #[test]
    fn evaluate_batch_records_history_and_consumes_trials() {
        let ds = toy(200);
        let budget = TimeBudget::seconds(600.0).with_trial_cap(3);
        let ev = Evaluator::new(&ds, 0, &budget).unwrap();
        let batch: Vec<Candidate> = vec![
            Candidate::new(Skeleton::bare(EstimatorKind::DecisionTree), Params::new()),
            Candidate::new(Skeleton::bare(EstimatorKind::Knn), Params::new()),
            Candidate::new(Skeleton::bare(EstimatorKind::DecisionTree), Params::new()),
            Candidate::new(Skeleton::bare(EstimatorKind::Knn), Params::new()),
        ];
        // Cap is 3: the fourth candidate must be refused at the gate.
        let outcomes = ev.evaluate_batch(&batch);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(ev.trials(), 3);
        assert_eq!(budget.trials_used(), 3);
        // Exhausted: the next batch admits nothing.
        assert!(ev.evaluate_batch(&batch).is_empty());
        assert_eq!(ev.trials(), 3);
    }

    #[test]
    fn parallel_batch_preserves_proposal_order() {
        let ds = toy(200);
        let budget = wide_budget();
        let kinds = [
            EstimatorKind::DecisionTree,
            EstimatorKind::Knn,
            EstimatorKind::LogisticRegression,
            EstimatorKind::GradientBoosting,
        ];
        let batch: Vec<Candidate> = kinds
            .iter()
            .map(|k| Candidate::new(Skeleton::bare(*k), Params::new()))
            .collect();
        let seq = Evaluator::new(&ds, 0, &budget).unwrap();
        let par = Evaluator::new(&ds, 0, &budget).unwrap().with_parallelism(4);
        let a = seq.evaluate_batch(&batch);
        let b = par.evaluate_batch(&batch);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec.estimator, y.spec.estimator);
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn result_picks_earliest_best_or_errors_when_empty() {
        let ds = toy(200);
        let budget = wide_budget();
        let ev = Evaluator::new(&ds, 0, &budget).unwrap();
        assert!(matches!(ev.result(), Err(crate::HpoError::BudgetExhausted)));
        let batch = vec![
            Candidate::new(Skeleton::bare(EstimatorKind::DecisionTree), Params::new()),
            Candidate::new(Skeleton::bare(EstimatorKind::DecisionTree), Params::new()),
        ];
        ev.evaluate_batch(&batch);
        let result = ev.result().unwrap();
        assert_eq!(result.trials, 2);
        assert_eq!(result.history.len(), 2);
        // Equal scores: the earliest trial wins (strict improvement).
        assert_eq!(result.valid_score, result.history[0].score.unwrap());
    }

    #[test]
    fn refit_score_runs_end_to_end() {
        let ds = toy(200);
        let (train, test) = train_test_split(&ds, 0.3, 1).unwrap();
        let result =
            HpoResult::single(PipelineSpec::bare(EstimatorKind::DecisionTree), 1.0, vec![]);
        let score = result.refit_score(&train, &test).unwrap();
        assert!(score > 0.9);
    }

    #[test]
    fn ensemble_majority_vote_and_mean() {
        let votes = vec![
            vec![0.0, 1.0, 1.0],
            vec![0.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0],
        ];
        assert_eq!(combine_predictions(&votes, true), vec![0.0, 1.0, 0.0]);
        let values = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(combine_predictions(&values, false), vec![2.0, 3.0]);
    }

    #[test]
    fn ensemble_refit_runs() {
        let ds = toy(200);
        let (train, test) = train_test_split(&ds, 0.3, 1).unwrap();
        let result = HpoResult {
            spec: PipelineSpec::bare(EstimatorKind::DecisionTree),
            valid_score: 1.0,
            trials: 2,
            history: vec![],
            ensemble: vec![
                PipelineSpec::bare(EstimatorKind::DecisionTree),
                PipelineSpec::bare(EstimatorKind::Knn),
            ],
            report: SearchReport::default(),
        };
        let score = result.refit_score(&train, &test).unwrap();
        assert!(score > 0.8);
    }

    #[test]
    fn failed_trials_record_errors_and_report_counts() {
        let ds = toy(200);
        let budget = wide_budget();
        let ev = Evaluator::new(&ds, 0, &budget).unwrap();
        let batch = vec![
            Candidate::new(Skeleton::bare(EstimatorKind::DecisionTree), Params::new()),
            // Regression-only learner on a binary task: must fail visibly.
            Candidate::new(Skeleton::bare(EstimatorKind::Ridge), Params::new()),
            Candidate::new(Skeleton::bare(EstimatorKind::Ridge), Params::new()),
        ];
        let outcomes = ev.evaluate_batch(&batch);
        assert!(outcomes[0].error.is_none());
        let err = outcomes[1].error.as_ref().expect("failure recorded");
        assert!(err.contains("ridge"), "unexpected error: {err}");
        let report = ev.report();
        assert_eq!(report.trials, 3);
        assert_eq!(report.failures, 2);
        // The duplicate failure message is deduplicated.
        assert_eq!(report.errors.len(), 1);
    }

    #[test]
    fn report_surfaces_cache_counters() {
        let ds = toy(200);
        let budget = wide_budget();
        let ev = Evaluator::new(&ds, 0, &budget).unwrap();
        let skel = Skeleton {
            transformers: vec![kgpip_learners::TransformerKind::StandardScaler],
            estimator: EstimatorKind::DecisionTree,
        };
        ev.evaluate_batch(&[
            Candidate::new(skel.clone(), Params::new()),
            Candidate::new(skel, Params::new()),
        ]);
        let report = ev.report();
        // Same chain prefix twice: first trial misses, second hits.
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.encoded_trials, 2, "both trials took the fast path");
        let rate = report.cache_hit_rate().expect("cache was consulted");
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_keeps_the_top_trials_of_a_stable_descending_sort() {
        let scores: Vec<Option<f64>> = [
            0.5, 0.9, 0.7, 0.9, 0.1, 0.7, 0.8, 0.7, 0.3, 0.9, 0.7, 0.6, 0.95, 0.7,
        ]
        .iter()
        .map(|s| Some(*s))
        .chain([None, Some(0.7)])
        .collect();
        let mut record = Record {
            kept: Some(Vec::new()),
            ..Record::default()
        };
        for (i, score) in scores.iter().enumerate() {
            let outcome = TrialOutcome {
                spec: PipelineSpec::bare(EstimatorKind::Knn),
                score: *score,
                error: None,
                cost: Duration::ZERO,
            };
            record.push(outcome, score.map(|_| vec![i as f64]));
            assert!(record.kept.as_ref().unwrap().len() <= KEPT_TRIALS);
        }
        let mut ranked: Vec<(usize, f64)> = scores
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let expected: Vec<(usize, Vec<f64>)> = ranked
            .into_iter()
            .take(KEPT_TRIALS)
            .map(|(i, _)| (i, vec![i as f64]))
            .collect();
        assert_eq!(record.kept.unwrap(), expected);
    }

    #[test]
    fn unused_cache_reports_no_hit_rate() {
        let report = SearchReport::default();
        assert_eq!(report.cache_lookups(), 0);
        assert_eq!(
            report.cache_hit_rate(),
            None,
            "an unconsulted cache has no hit rate, not a 0% one"
        );
    }
}
