//! Auto-Sklearn-style Bayesian optimization.
//!
//! Reproduces the defining behaviours of Auto-Sklearn (Feurer et al. 2015;
//! the paper evaluates v0.14):
//!
//! * **meta-learning warm start**: a knowledge base of (meta-features →
//!   configurations that historically worked) is ranked by meta-feature
//!   distance to the new dataset and its top entries are evaluated first,
//! * **SMAC-style model-based search**: a random-forest surrogate predicts
//!   trial scores; candidates are chosen by expected improvement, with the
//!   forest's per-tree spread as the uncertainty estimate,
//! * **greedy ensemble selection** (Caruana-style) over the best trials,
//!   deployed as a majority-vote / mean ensemble. As in Auto-Sklearn, the
//!   selection reads holdout predictions the search stored while it ran:
//!   the [`Evaluator`] keeps those of the top 8 trials, so nothing is
//!   refit after the budget gate closes. Only the chosen members are fit
//!   again, in [`HpoResult::refit_score`].

use crate::budget::TimeBudget;
use crate::meta::{meta_distance, meta_features, META_DIM};
use crate::space::{self, Skeleton};
use crate::trial::{Candidate, Evaluator, HpoResult, Optimizer, TrialOutcome};
use crate::{HpoError, Result};
use kgpip_learners::estimators::tree::{Forest, TreeConfig};
use kgpip_learners::pipeline::{score_predictions, PipelineSpec};
use kgpip_learners::{Estimator, EstimatorKind, Matrix, Params};
use kgpip_tabular::{Dataset, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Maximum hyperparameter dimensions across all learners (for surrogate
/// input padding).
const MAX_CONFIG_DIMS: usize = 6;
/// Random candidates scored by the surrogate per SMAC iteration.
const SMAC_CANDIDATES: usize = 32;
/// Maximum ensemble members.
const MAX_ENSEMBLE: usize = 5;
/// Portfolio size of the meta-learning warm start: like Auto-Sklearn's
/// limited portfolio, only the top-ranked candidates are evaluated at
/// their default configurations before model-based search takes over.
const PORTFOLIO_SIZE: usize = 6;

/// The Auto-Sklearn-style optimizer.
#[derive(Clone)]
pub struct AutoSklearn {
    seed: u64,
    estimators: Vec<EstimatorKind>,
    /// Meta-knowledge base: (source-dataset meta-features, estimator that
    /// won there). Seeded with built-in priors; callers can extend it.
    knowledge: Vec<([f64; META_DIM], EstimatorKind)>,
    /// Whether to run ensemble selection after the search.
    pub ensembling: bool,
    /// Concurrent trials per round (1 = sequential).
    parallelism: usize,
}

impl AutoSklearn {
    /// Creates the engine with its built-in meta-knowledge base.
    pub fn new(seed: u64) -> AutoSklearn {
        AutoSklearn {
            seed,
            estimators: EstimatorKind::ALL.to_vec(),
            knowledge: builtin_knowledge(),
            ensembling: true,
            parallelism: 1,
        }
    }

    /// Builder-style parallelism knob (clamped to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> AutoSklearn {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Adds a meta-learning entry (observed: this estimator won on a
    /// dataset with these meta-features).
    pub fn add_knowledge(&mut self, features: [f64; META_DIM], winner: EstimatorKind) {
        self.knowledge.push((features, winner));
    }

    /// Warm-start order: estimators ranked by the meta-distance of their
    /// closest knowledge-base entry to the new dataset.
    fn warm_start_order(&self, ds: &Dataset) -> Vec<EstimatorKind> {
        let target = meta_features(ds);
        let mut ranked: Vec<(f64, EstimatorKind)> = self
            .estimators
            .iter()
            .filter(|k| k.supports(ds.task))
            .map(|&k| {
                let best = self
                    .knowledge
                    .iter()
                    .filter(|(_, w)| *w == k)
                    .map(|(f, _)| meta_distance(f, &target))
                    .fold(f64::INFINITY, f64::min);
                (best, k)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        ranked.into_iter().map(|(_, k)| k).collect()
    }

    /// Surrogate input: learner one-hot ++ padded normalized config.
    fn encode_trial(kind: EstimatorKind, params: &Params) -> Vec<f64> {
        let mut x = vec![0.0; EstimatorKind::ALL.len() + MAX_CONFIG_DIMS];
        let pos = EstimatorKind::ALL.iter().position(|k| *k == kind).unwrap();
        x[pos] = 1.0;
        for (i, v) in space::encode_config(kind, params).into_iter().enumerate() {
            if i < MAX_CONFIG_DIMS {
                x[EstimatorKind::ALL.len() + i] = v;
            }
        }
        x
    }

    /// Searches, then selects an ensemble from the kept predictions when
    /// ensembling is on.
    fn run(
        &self,
        train: &Dataset,
        skeleton_for: impl Fn(EstimatorKind) -> Skeleton,
        portfolio: &[EstimatorKind],
        learners: &[EstimatorKind],
        budget: &TimeBudget,
    ) -> Result<HpoResult> {
        if learners.is_empty() {
            return Err(HpoError::NoUsableLearner);
        }
        let evaluator = self.evaluator(train, budget)?;
        self.search(&evaluator, skeleton_for, portfolio, learners)?;
        let mut result = evaluator.result()?;
        if self.ensembling {
            let pool = kept_pool(&evaluator, &result.history);
            choose_members(&pool, evaluator.validation(), &mut result);
        }
        Ok(result)
    }

    /// The search's evaluator; an ensembling search keeps its top trials'
    /// holdout predictions.
    fn evaluator(&self, train: &Dataset, budget: &TimeBudget) -> Result<Evaluator> {
        let evaluator =
            Evaluator::new(train, self.seed, budget)?.with_parallelism(self.parallelism);
        Ok(if self.ensembling {
            evaluator.keeping_predictions()
        } else {
            evaluator
        })
    }

    /// The batched warm-start + SMAC search driving the shared
    /// [`Evaluator`]. The portfolio phase proposes default configurations
    /// in chunks of `parallelism`; the SMAC phase proposes the top-EI
    /// candidates of each surrogate round as one batch. With
    /// `parallelism == 1` both phases reproduce the historical
    /// one-trial-at-a-time loop bit-for-bit for a fixed seed (same rng
    /// draw order, same strict-improvement argmax).
    fn search(
        &self,
        evaluator: &Evaluator,
        skeleton_for: impl Fn(EstimatorKind) -> Skeleton,
        portfolio: &[EstimatorKind],
        learners: &[EstimatorKind],
    ) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0xa5c1));
        let round = self.parallelism.max(1);

        // --- Phase 1: meta-learning warm start (default configs of the
        // portfolio, in knowledge-base order). ---
        for chunk in portfolio.chunks(round) {
            let batch: Vec<Candidate> = chunk
                .iter()
                .map(|&kind| Candidate::new(skeleton_for(kind), space::default_config(kind)))
                .collect();
            if evaluator.evaluate_batch(&batch).len() < batch.len() {
                break; // gate refused: budget exhausted mid-portfolio
            }
        }

        // --- Phase 2: SMAC loop. ---
        while !evaluator.budget_expired() {
            // Fit the surrogate on completed trials.
            let history = evaluator.history();
            let observed: Vec<(&TrialOutcome, f64)> = history
                .iter()
                .filter_map(|t| t.score.map(|s| (t, s)))
                .collect();
            let proposals = round.min(SMAC_CANDIDATES);
            let batch: Vec<Candidate> = if observed.len() >= 4 {
                let xs: Vec<Vec<f64>> = observed
                    .iter()
                    .map(|(t, _)| Self::encode_trial(t.spec.estimator, &t.spec.params))
                    .collect();
                let ys: Vec<f64> = observed.iter().map(|(_, s)| *s).collect();
                let x = Matrix::from_rows(&xs).map_err(|e| HpoError::Learner(e.to_string()))?;
                let mut surrogate = Forest::new(
                    12,
                    TreeConfig {
                        max_depth: 6,
                        max_features: 0.7,
                        seed: self.seed,
                        ..TreeConfig::default()
                    },
                    true,
                    EstimatorKind::RandomForest,
                );
                surrogate
                    .fit(&x, &ys, Task::Regression)
                    .map_err(|e| HpoError::Learner(e.to_string()))?;
                let best_score = observed
                    .iter()
                    .map(|(_, s)| *s)
                    .fold(f64::NEG_INFINITY, f64::max);
                // Score random candidates by expected improvement and
                // propose the top `proposals` of them (stable sort: EI
                // ties keep draw order, so the top pick matches the
                // sequential strict-improvement argmax).
                let mut scored: Vec<(f64, EstimatorKind, Params)> =
                    Vec::with_capacity(SMAC_CANDIDATES);
                for _ in 0..SMAC_CANDIDATES {
                    let kind = learners[rand::Rng::gen_range(&mut rng, 0..learners.len())];
                    let params = space::sample_config(kind, &mut rng);
                    let enc = vec![Self::encode_trial(kind, &params)];
                    let xm =
                        Matrix::from_rows(&enc).map_err(|e| HpoError::Learner(e.to_string()))?;
                    let per_tree = surrogate
                        .predict_per_tree(&xm)
                        .map_err(|e| HpoError::Learner(e.to_string()))?;
                    let preds: Vec<f64> = per_tree.iter().map(|t| t[0]).collect();
                    let mu = preds.iter().sum::<f64>() / preds.len() as f64;
                    let var =
                        preds.iter().map(|p| (p - mu).powi(2)).sum::<f64>() / preds.len() as f64;
                    let ei = expected_improvement(mu, var.sqrt(), best_score);
                    scored.push((ei, kind, params));
                }
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
                scored
                    .into_iter()
                    .take(proposals)
                    .map(|(_, kind, params)| Candidate::new(skeleton_for(kind), params))
                    .collect()
            } else {
                // Too few observations for a surrogate: random proposals.
                (0..proposals)
                    .map(|_| {
                        let kind = learners[rand::Rng::gen_range(&mut rng, 0..learners.len())];
                        let params = space::sample_config(kind, &mut rng);
                        Candidate::new(skeleton_for(kind), params)
                    })
                    .collect()
            };
            if evaluator.evaluate_batch(&batch).is_empty() {
                break;
            }
        }
        Ok(())
    }
}

/// The ensemble-selection pool: the unique specs among the search's kept
/// top trials, best first, each with the holdout predictions its trial
/// was scored on.
fn kept_pool(evaluator: &Evaluator, history: &[TrialOutcome]) -> Vec<(PipelineSpec, Vec<f64>)> {
    let mut pool: Vec<(PipelineSpec, Vec<f64>)> = Vec::new();
    for (idx, preds) in evaluator.take_kept_predictions() {
        let spec = &history[idx].spec;
        if !pool.iter().any(|(s, _)| s == spec) {
            pool.push((spec.clone(), preds));
        }
    }
    pool
}

/// Caruana-style greedy forward selection over `pool`; adopts the
/// ensemble when it has at least two members and does not score below the
/// best single trial.
fn choose_members(pool: &[(PipelineSpec, Vec<f64>)], valid: &Dataset, result: &mut HpoResult) {
    if pool.len() < 2 {
        return;
    }
    let classification = valid.task.is_classification();
    let mut members: Vec<usize> = Vec::new();
    let mut best_score = f64::NEG_INFINITY;
    while members.len() < MAX_ENSEMBLE {
        let mut best_add: Option<(usize, f64)> = None;
        for cand in 0..pool.len() {
            let mut preds: Vec<Vec<f64>> = members.iter().map(|&m| pool[m].1.clone()).collect();
            preds.push(pool[cand].1.clone());
            let combined = crate::trial::combine_predictions(&preds, classification);
            let score = score_predictions(valid, &combined);
            if best_add.is_none_or(|(_, b)| score > b) {
                best_add = Some((cand, score));
            }
        }
        let Some((cand, score)) = best_add else { break };
        if score <= best_score {
            break;
        }
        best_score = score;
        members.push(cand);
    }
    if members.len() >= 2 && best_score >= result.valid_score {
        result.ensemble = members.into_iter().map(|m| pool[m].0.clone()).collect();
        result.valid_score = best_score;
    }
}

/// Expected improvement of a Gaussian `N(mu, sigma²)` over `best`.
fn expected_improvement(mu: f64, sigma: f64, best: f64) -> f64 {
    if sigma < 1e-12 {
        return (mu - best).max(0.0);
    }
    let z = (mu - best) / sigma;
    (mu - best) * norm_cdf(z) + sigma * norm_pdf(z)
}

fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun erf approximation (|error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

impl Optimizer for AutoSklearn {
    fn optimize(&mut self, train: &Dataset, budget: &TimeBudget) -> Result<HpoResult> {
        let learners = self.warm_start_order(train);
        let portfolio: Vec<EstimatorKind> = learners.iter().copied().take(PORTFOLIO_SIZE).collect();
        self.run(train, Skeleton::bare, &portfolio, &learners, budget)
    }

    fn optimize_skeleton(
        &mut self,
        train: &Dataset,
        skeleton: &Skeleton,
        budget: &TimeBudget,
    ) -> Result<HpoResult> {
        if !skeleton.estimator.supports(train.task) {
            return Err(HpoError::NoUsableLearner);
        }
        let learners = vec![skeleton.estimator];
        let skeleton = skeleton.clone();
        self.run(
            train,
            move |_| skeleton.clone(),
            &learners.clone(),
            &learners,
            budget,
        )
    }

    fn capabilities(&self) -> String {
        space::capabilities_json("auto-sklearn", &self.estimators)
    }

    fn set_parallelism(&mut self, parallelism: usize) {
        self.parallelism = parallelism.max(1);
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }

    fn clone_boxed(&self) -> Box<dyn Optimizer + Send> {
        Box::new(self.clone())
    }
}

/// Built-in meta-knowledge: coarse priors over which learner families win
/// in which regions of meta-feature space. Meta-feature layout (see
/// [`meta_features`]): [ln n, ln d, %num, %cat, %text, ln classes,
/// imbalance, missing, skew, cardinality].
fn builtin_knowledge() -> Vec<([f64; META_DIM], EstimatorKind)> {
    vec![
        // Mid-size numeric classification: boosting wins.
        (
            [0.6, 0.3, 1.0, 0.0, 0.0, 0.2, 0.1, 0.0, 0.2, 0.5],
            EstimatorKind::XgBoost,
        ),
        (
            [0.7, 0.4, 1.0, 0.0, 0.0, 0.2, 0.2, 0.0, 0.3, 0.6],
            EstimatorKind::Lgbm,
        ),
        (
            [0.5, 0.3, 0.9, 0.1, 0.0, 0.3, 0.1, 0.0, 0.2, 0.4],
            EstimatorKind::GradientBoosting,
        ),
        // Small clean numeric: forests.
        (
            [0.4, 0.2, 1.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.1, 0.3],
            EstimatorKind::RandomForest,
        ),
        // Wide (d >> n): linear models.
        (
            [0.4, 0.9, 1.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.1, 0.9],
            EstimatorKind::LogisticRegression,
        ),
        // Text-heavy: linear SVM.
        (
            [0.6, 0.1, 0.3, 0.1, 0.6, 0.2, 0.1, 0.0, 0.0, 0.9],
            EstimatorKind::LinearSvm,
        ),
        // Regression, numeric: boosting + ridge.
        (
            [0.6, 0.3, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.6],
            EstimatorKind::XgBoost,
        ),
        (
            [0.5, 0.2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.5],
            EstimatorKind::Ridge,
        ),
        // Tiny datasets: naive Bayes / knn are competitive.
        (
            [0.25, 0.15, 1.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.1, 0.3],
            EstimatorKind::GaussianNb,
        ),
        (
            [0.3, 0.15, 1.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.1, 0.3],
            EstimatorKind::Knn,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::tests::most_kept_during;
    use crate::trial::KEPT_TRIALS;
    use kgpip_learners::TransformerKind;
    use kgpip_tabular::{Column, DataFrame};

    fn blob_dataset(n: usize) -> Dataset {
        let rows: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let c = f64::from(i % 2 == 0);
                (
                    c * 4.0 + (i % 9) as f64 * 0.1,
                    c * 4.0 + (i % 7) as f64 * 0.1,
                )
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(i % 2 == 0)).collect();
        let f = DataFrame::from_columns(vec![
            (
                "a".to_string(),
                Column::from_f64(rows.iter().map(|r| r.0).collect::<Vec<_>>()),
            ),
            (
                "b".to_string(),
                Column::from_f64(rows.iter().map(|r| r.1).collect::<Vec<_>>()),
            ),
        ])
        .unwrap();
        Dataset::new("blobs", f, y, Task::Binary).unwrap()
    }

    #[test]
    fn optimizes_simple_classification() {
        let ds = blob_dataset(200);
        let mut engine = AutoSklearn::new(0);
        let result = engine.optimize(&ds, &TimeBudget::seconds(3.0)).unwrap();
        assert!(result.valid_score > 0.9, "score {}", result.valid_score);
    }

    #[test]
    fn warm_start_order_respects_knowledge() {
        let ds = blob_dataset(100);
        let mut engine = AutoSklearn::new(0);
        // Teach it that decision trees dominate datasets exactly like this.
        engine.add_knowledge(meta_features(&ds), EstimatorKind::DecisionTree);
        let order = engine.warm_start_order(&ds);
        assert_eq!(order[0], EstimatorKind::DecisionTree);
    }

    #[test]
    fn skeleton_mode_keeps_estimator_fixed() {
        let ds = blob_dataset(200);
        let mut engine = AutoSklearn::new(1);
        let skeleton = Skeleton {
            transformers: vec![TransformerKind::MinMaxScaler],
            estimator: EstimatorKind::Lgbm,
        };
        let result = engine
            .optimize_skeleton(&ds, &skeleton, &TimeBudget::seconds(2.0))
            .unwrap();
        for t in &result.history {
            assert_eq!(t.spec.estimator, EstimatorKind::Lgbm);
        }
        assert!(result.valid_score > 0.9);
    }

    #[test]
    fn ensemble_never_hurts_validation_score() {
        let ds = blob_dataset(250);
        let mut with = AutoSklearn::new(2);
        let mut without = AutoSklearn::new(2);
        without.ensembling = false;
        let r_with = with.optimize(&ds, &TimeBudget::seconds(2.0)).unwrap();
        let r_without = without.optimize(&ds, &TimeBudget::seconds(2.0)).unwrap();
        assert!(r_with.valid_score >= r_without.valid_score - 1e-9);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn expected_improvement_behaviour() {
        // Certain improvement.
        assert!((expected_improvement(1.0, 0.0, 0.5) - 0.5).abs() < 1e-12);
        // Certain non-improvement.
        assert_eq!(expected_improvement(0.2, 0.0, 0.5), 0.0);
        // Uncertainty adds value even below the incumbent.
        assert!(expected_improvement(0.4, 0.5, 0.5) > 0.0);
    }

    /// Three noisy features (one with missing values, so trials run the
    /// implicit-imputer chain) and a target they only partly explain, so
    /// learners and configurations disagree on the holdout.
    fn noisy_dataset(n: usize, task: Task) -> Dataset {
        let mut rng = StdRng::seed_from_u64(17);
        let mut draw = || rand::Rng::gen::<f64>(&mut rng);
        let rows: Vec<[f64; 4]> = (0..n).map(|_| [draw(), draw(), draw(), draw()]).collect();
        let z: Vec<f64> = rows
            .iter()
            .map(|r| r[0] + 0.6 * r[1] - 0.3 * r[2] + 0.5 * r[3])
            .collect();
        let y: Vec<f64> = z
            .iter()
            .map(|z| match task {
                Task::Binary => f64::from(*z > 0.65),
                Task::MultiClass(_) => (*z * 2.0).clamp(0.0, 2.0).floor(),
                Task::Regression => 3.0 * z,
            })
            .collect();
        let col = |i: usize| rows.iter().map(|r| r[i]).collect::<Vec<_>>();
        let gappy: Vec<Option<f64>> = rows
            .iter()
            .enumerate()
            .map(|(k, r)| (k % 13 != 0).then_some(r[2]))
            .collect();
        let f = DataFrame::from_columns(vec![
            ("a".to_string(), Column::from_f64(col(0))),
            ("b".to_string(), Column::from_f64(col(1))),
            ("c".to_string(), Column::numeric(gappy)),
        ])
        .unwrap();
        Dataset::new("noisy", f, y, task).unwrap()
    }

    /// The pool ensemble selection built before trials kept their
    /// predictions: rank the whole history best first (stable, so ties
    /// keep history order), take the top 8, drop repeated specs, and refit
    /// each one.
    fn refit_pool(
        evaluator: &Evaluator,
        history: &[TrialOutcome],
    ) -> Vec<(PipelineSpec, Vec<f64>)> {
        let mut ranked: Vec<(&TrialOutcome, f64)> = history
            .iter()
            .filter_map(|t| t.score.map(|s| (t, s)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut pool: Vec<(PipelineSpec, Vec<f64>)> = Vec::new();
        for (t, _) in ranked.into_iter().take(8) {
            if pool.iter().any(|(s, _)| *s == t.spec) {
                continue;
            }
            if let Some(preds) = evaluator.refit_predictions(&t.spec) {
                pool.push((t.spec.clone(), preds));
            }
        }
        pool
    }

    /// Selects an ensemble over a finished search both from the kept
    /// predictions and from the refit oracle, and checks that the pools,
    /// the members and the score agree bit for bit. Returns whether an
    /// ensemble was adopted.
    fn assert_matches_refit_oracle(evaluator: &Evaluator) -> bool {
        let base = evaluator.result().unwrap();
        let oracle_pool = refit_pool(evaluator, &base.history);
        let pool = kept_pool(evaluator, &base.history);
        let bits = |pool: &[(PipelineSpec, Vec<f64>)]| -> Vec<(PipelineSpec, Vec<u64>)> {
            pool.iter()
                .map(|(s, p)| (s.clone(), p.iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&pool), bits(&oracle_pool));
        let (mut kept, mut oracle) = (base.clone(), base);
        choose_members(&pool, evaluator.validation(), &mut kept);
        choose_members(&oracle_pool, evaluator.validation(), &mut oracle);
        assert_eq!(kept.ensemble, oracle.ensemble);
        assert_eq!(kept.valid_score.to_bits(), oracle.valid_score.to_bits());
        !kept.ensemble.is_empty()
    }

    #[test]
    fn kept_prediction_ensembles_equal_the_refit_oracle() {
        let mut adopted = 0;
        for task in [Task::Binary, Task::MultiClass(3), Task::Regression] {
            let ds = noisy_dataset(160, task);
            for parallelism in [1, 2] {
                let engine = AutoSklearn::new(5).with_parallelism(parallelism);
                let budget = TimeBudget::seconds(600.0).with_trial_cap(16);
                let learners = engine.warm_start_order(&ds);
                let portfolio: Vec<EstimatorKind> =
                    learners.iter().copied().take(PORTFOLIO_SIZE).collect();
                let evaluator = engine.evaluator(&ds, &budget).unwrap();
                engine
                    .search(&evaluator, Skeleton::bare, &portfolio, &learners)
                    .unwrap();
                adopted += usize::from(assert_matches_refit_oracle(&evaluator));
            }
        }
        assert!(
            adopted > 0,
            "no search adopted an ensemble: nothing was compared"
        );
    }

    #[test]
    fn a_rank_eight_tie_and_a_repeated_spec_resolve_as_the_refit_oracle_does() {
        let ds = noisy_dataset(160, Task::Binary);
        let with_depth = |kind: EstimatorKind, depth: f64| {
            let mut params = space::default_config(kind);
            params.insert("max_depth".into(), depth);
            Candidate::new(Skeleton::bare(kind), params)
        };
        let default =
            |kind: EstimatorKind| Candidate::new(Skeleton::bare(kind), space::default_config(kind));
        let batch = vec![
            default(EstimatorKind::Knn),
            default(EstimatorKind::GaussianNb),
            default(EstimatorKind::LinearSvm),
            with_depth(EstimatorKind::RandomForest, 1.0),
            with_depth(EstimatorKind::XgBoost, 1.0),
            with_depth(EstimatorKind::DecisionTree, 1.0),
            default(EstimatorKind::LinearSvm),
            default(EstimatorKind::LogisticRegression),
            with_depth(EstimatorKind::GradientBoosting, 1.0),
            with_depth(EstimatorKind::DecisionTree, 2.0),
            default(EstimatorKind::Ridge),
            with_depth(EstimatorKind::ExtraTrees, 1.0),
        ];
        for parallelism in [1, 2] {
            let engine = AutoSklearn::new(5).with_parallelism(parallelism);
            let budget = TimeBudget::seconds(600.0);
            let evaluator = engine.evaluator(&ds, &budget).unwrap();
            evaluator.evaluate_batch(&batch);
            let history = evaluator.history();
            let mut ranked: Vec<&TrialOutcome> =
                history.iter().filter(|t| t.score.is_some()).collect();
            ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
            assert_eq!(ranked[7].score, ranked[8].score, "a tie at rank 8");
            assert_ne!(ranked[7].spec, ranked[8].spec);
            assert!(
                ranked[..8]
                    .iter()
                    .filter(|t| t.spec == history[2].spec)
                    .count()
                    == 2,
                "a repeated spec inside the top 8"
            );
            assert_matches_refit_oracle(&evaluator);
        }
    }

    #[test]
    fn only_an_ensembling_auto_sklearn_search_keeps_predictions() {
        let ds = noisy_dataset(160, Task::Binary);
        let budget = || TimeBudget::seconds(600.0).with_trial_cap(12);
        for parallelism in [1, 2] {
            let kept = most_kept_during(|| {
                AutoSklearn::new(1)
                    .with_parallelism(parallelism)
                    .optimize(&ds, &budget())
                    .unwrap();
            });
            assert!((1..=KEPT_TRIALS).contains(&kept), "kept {kept}");
            let mut plain = AutoSklearn::new(1).with_parallelism(parallelism);
            plain.ensembling = false;
            assert_eq!(most_kept_during(|| drop(plain.optimize(&ds, &budget()))), 0);
            let flaml = most_kept_during(|| {
                crate::Flaml::new(1)
                    .with_parallelism(parallelism)
                    .optimize(&ds, &budget())
                    .unwrap();
            });
            assert_eq!(flaml, 0);
        }
        let al = most_kept_during(|| {
            crate::Al::new(1)
                .optimize(&blob_dataset(200), &budget())
                .unwrap();
        });
        assert_eq!(al, 0);
    }

    #[test]
    fn tiny_budget_still_returns() {
        let ds = blob_dataset(100);
        let mut engine = AutoSklearn::new(3);
        let result = engine.optimize(&ds, &TimeBudget::seconds(0.0)).unwrap();
        assert!(result.trials >= 1);
    }
}
