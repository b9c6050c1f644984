//! FLAML-style cost-frugal hyperparameter optimization.
//!
//! Reproduces the defining behaviours of FLAML (Wang et al. 2021, "a fast
//! and lightweight AutoML library ... designed with both accuracy and
//! computational cost in mind"):
//!
//! * every learner starts at its **low-cost configuration** (small
//!   ensembles, few iterations) so cheap anytime results appear first,
//! * within a learner, search moves by **randomized directional steps**
//!   with step-size adaptation (grow on improvement, shrink on failure) —
//!   FLAML's CFO search,
//! * across learners, trials are scheduled by **estimated cost of
//!   improvement**: a learner that is cheap to evaluate and has improved
//!   recently is tried before an expensive, stalled one.
//!
//! The paper integrates KGpip with FLAML precisely because FLAML "does not
//! yet have any meta-learning component for the cold start problem" — so
//! the cold-start mode here searches all supported learners with no
//! warm-start knowledge, exactly the baseline of Figure 5.

use crate::budget::TimeBudget;
use crate::space::{self, Skeleton};
use crate::trial::{Candidate, Evaluator, HpoResult, Optimizer, TrialOutcome};
use crate::{HpoError, Result};
use kgpip_learners::{EstimatorKind, Params};
use kgpip_tabular::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic per-trial cost proxy used by the scheduler. Measured
/// wall-clock cost would make thread priorities — and therefore the
/// entire search trajectory — irreproducible across runs, so scheduling
/// uses the learner's static relative cost scaled by the config's
/// work-controlling parameter (boosting rounds / solver iterations).
/// The measured wall time stays available in `TrialOutcome::cost` for
/// reporting.
fn scheduling_cost(estimator: EstimatorKind, params: &Params) -> f64 {
    let work = params
        .get("n_estimators")
        .or_else(|| params.get("max_iter"))
        .copied()
        .unwrap_or(1.0);
    estimator.relative_cost() * work.max(1.0) * 1e-3
}

/// One learner's search thread.
struct Thread {
    skeleton: Skeleton,
    incumbent: Params,
    best_score: f64,
    step: f64,
    /// Exponentially weighted average scheduling cost (deterministic
    /// units, see [`scheduling_cost`]).
    avg_cost: f64,
    /// Trials since the last improvement.
    stall: usize,
    trials: usize,
}

impl Thread {
    fn new(skeleton: Skeleton) -> Thread {
        let incumbent = space::low_cost_config(skeleton.estimator);
        Thread {
            skeleton,
            incumbent,
            best_score: f64::NEG_INFINITY,
            step: 0.2,
            avg_cost: 0.0,
            stall: 0,
            trials: 0,
        }
    }

    /// FLAML-style priority: estimated cost to achieve the next
    /// improvement. Lower is scheduled sooner. Untried threads use the
    /// learner's static relative cost so cheap learners lead.
    fn priority(&self) -> f64 {
        if self.trials == 0 {
            return self.skeleton.estimator.relative_cost() * 1e-3;
        }
        self.avg_cost * (1 << self.stall.min(16)) as f64
    }
}

/// The FLAML-style optimizer.
#[derive(Clone)]
pub struct Flaml {
    seed: u64,
    /// Learners this engine supports (its §3.6 capability set).
    estimators: Vec<EstimatorKind>,
    /// Concurrent trials per round (1 = sequential).
    parallelism: usize,
}

impl Flaml {
    /// Creates the engine with its full learner set.
    pub fn new(seed: u64) -> Flaml {
        Flaml {
            seed,
            estimators: EstimatorKind::ALL.to_vec(),
            parallelism: 1,
        }
    }

    /// Restricts the supported learner set (for ablations).
    pub fn with_estimators(seed: u64, estimators: Vec<EstimatorKind>) -> Flaml {
        Flaml {
            seed,
            estimators,
            parallelism: 1,
        }
    }

    /// Builder-style parallelism knob (clamped to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> Flaml {
        self.parallelism = parallelism.max(1);
        self
    }

    fn cold_start_threads(&self, train: &Dataset) -> Vec<Thread> {
        let mut threads: Vec<Thread> = self
            .estimators
            .iter()
            .filter(|k| k.supports(train.task))
            .map(|k| Thread::new(Skeleton::bare(*k)))
            .collect();
        // Cheap learners first (cost-frugal ordering).
        threads.sort_by(|a, b| {
            a.skeleton
                .estimator
                .relative_cost()
                .partial_cmp(&b.skeleton.estimator.relative_cost())
                .unwrap()
        });
        threads
    }

    /// The batched CFO search driving the shared [`Evaluator`]. Each
    /// round proposes `parallelism` candidates, spread over up to
    /// `parallelism` distinct threads scheduled cheapest-estimated-
    /// improvement first (slots cycle over the picked threads when
    /// fewer are runnable), and the evaluator admits/evaluates/records
    /// them. With `parallelism == 1` the rounds collapse to the
    /// historical one-trial loop (see [`optimize_sequential`]) and
    /// reproduce it bit-for-bit for a fixed seed.
    ///
    /// [`optimize_sequential`]: Flaml::optimize_sequential
    fn run(
        &self,
        train: &Dataset,
        mut threads: Vec<Thread>,
        budget: &TimeBudget,
    ) -> Result<HpoResult> {
        if threads.is_empty() {
            return Err(HpoError::NoUsableLearner);
        }
        let evaluator =
            Evaluator::new(train, self.seed, budget)?.with_parallelism(self.parallelism);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x1f1a_4d1f));

        loop {
            // Always complete at least one trial so a result exists even
            // under a degenerate budget (anytime behaviour); the gate
            // enforces the same guarantee at admission time.
            if evaluator.trials() > 0 && evaluator.budget_expired() {
                break;
            }
            // Pick distinct threads by repeated minimum extraction, so
            // the first pick matches the sequential scheduler's
            // tie-breaking exactly.
            let distinct = self.parallelism.min(threads.len());
            let mut picked: Vec<usize> = Vec::with_capacity(distinct);
            for _ in 0..distinct {
                let Some(t_idx) = threads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !picked.contains(i))
                    .min_by(|a, b| a.1.priority().partial_cmp(&b.1.priority()).unwrap())
                    .map(|(i, _)| i)
                else {
                    break;
                };
                picked.push(t_idx);
            }
            if picked.is_empty() {
                break;
            }
            // Fill all `parallelism` batch slots by cycling over the
            // picked threads: a search with fewer runnable threads than
            // workers (notably the single-thread skeleton mode driving
            // KGpip's (T−t)/K split) still proposes a full parallel
            // batch — extra slots draw additional neighbors.
            let mut proposed = vec![0usize; threads.len()];
            let batch: Vec<Candidate> = (0..self.parallelism)
                .map(|slot| {
                    let t_idx = picked[slot % picked.len()];
                    let thread = &threads[t_idx];
                    let params = if thread.trials == 0 && proposed[t_idx] == 0 {
                        thread.incumbent.clone()
                    } else {
                        space::neighbor(
                            thread.skeleton.estimator,
                            &thread.incumbent,
                            thread.step,
                            &mut rng,
                        )
                    };
                    proposed[t_idx] += 1;
                    Candidate::new(thread.skeleton.clone(), params)
                })
                .collect();
            let outcomes = evaluator.evaluate_batch(&batch);
            if outcomes.is_empty() {
                break;
            }
            for (slot, outcome) in outcomes.iter().enumerate() {
                let thread = &mut threads[picked[slot % picked.len()]];
                thread.trials += 1;
                let cost = scheduling_cost(thread.skeleton.estimator, &batch[slot].params);
                thread.avg_cost = if thread.avg_cost == 0.0 {
                    cost
                } else {
                    0.7 * thread.avg_cost + 0.3 * cost
                };
                match outcome.score {
                    Some(score) if score > thread.best_score => {
                        thread.best_score = score;
                        thread.incumbent = batch[slot].params.clone();
                        thread.step = (thread.step * 1.3).min(0.8);
                        thread.stall = 0;
                    }
                    _ => {
                        thread.step = (thread.step * 0.8).max(0.02);
                        thread.stall += 1;
                    }
                }
            }
            // A learner whose single-trial cost exceeds the remaining
            // budget is effectively done; its stall keeps growing so the
            // scheduler moves past it naturally.
        }
        evaluator.result()
    }

    /// The historical single-trial loop, kept verbatim as a reference
    /// implementation: it accounts for the budget by hand (pure
    /// `evaluate` + `consume_trial`) instead of going through the
    /// [`BudgetGate`]. The determinism suite asserts that `optimize` at
    /// `parallelism == 1` reproduces this history bit-for-bit.
    ///
    /// [`BudgetGate`]: crate::BudgetGate
    pub fn optimize_sequential(
        &mut self,
        train: &Dataset,
        budget: &TimeBudget,
    ) -> Result<HpoResult> {
        let mut threads = self.cold_start_threads(train);
        if threads.is_empty() {
            return Err(HpoError::NoUsableLearner);
        }
        let evaluator = Evaluator::new(train, self.seed, budget)?;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x1f1a_4d1f));
        let mut history: Vec<TrialOutcome> = Vec::new();
        let mut best: Option<(usize, f64)> = None; // (history index, score)

        loop {
            if !history.is_empty() && budget.expired() {
                break;
            }
            let Some(t_idx) = threads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.priority().partial_cmp(&b.1.priority()).unwrap())
                .map(|(i, _)| i)
            else {
                break;
            };
            let candidate = {
                let thread = &threads[t_idx];
                if thread.trials == 0 {
                    thread.incumbent.clone()
                } else {
                    space::neighbor(
                        thread.skeleton.estimator,
                        &thread.incumbent,
                        thread.step,
                        &mut rng,
                    )
                }
            };
            let outcome = evaluator.evaluate(&threads[t_idx].skeleton, candidate.clone());
            budget.consume_trial();
            let thread = &mut threads[t_idx];
            thread.trials += 1;
            let cost = scheduling_cost(thread.skeleton.estimator, &candidate);
            thread.avg_cost = if thread.avg_cost == 0.0 {
                cost
            } else {
                0.7 * thread.avg_cost + 0.3 * cost
            };
            match outcome.score {
                Some(score) if score > thread.best_score => {
                    thread.best_score = score;
                    thread.incumbent = candidate;
                    thread.step = (thread.step * 1.3).min(0.8);
                    thread.stall = 0;
                }
                _ => {
                    thread.step = (thread.step * 0.8).max(0.02);
                    thread.stall += 1;
                }
            }
            history.push(outcome);
            let idx = history.len() - 1;
            if let Some(score) = history[idx].score {
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((idx, score));
                }
            }
        }
        let Some((idx, score)) = best else {
            return Err(HpoError::BudgetExhausted);
        };
        let spec = history[idx].spec.clone();
        Ok(HpoResult::single(spec, score, history))
    }
}

impl Optimizer for Flaml {
    fn optimize(&mut self, train: &Dataset, budget: &TimeBudget) -> Result<HpoResult> {
        let threads = self.cold_start_threads(train);
        self.run(train, threads, budget)
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
        self.run(train, vec![Thread::new(skeleton.clone())], budget)
    }

    fn capabilities(&self) -> String {
        space::capabilities_json("flaml", &self.estimators)
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

#[cfg(test)]
mod tests {
    use super::*;
    use kgpip_learners::TransformerKind;
    use kgpip_tabular::{train_test_split, Column, DataFrame, Task};

    fn xor_dataset(n: usize) -> Dataset {
        let rows: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    f64::from(i % 2 == 0) + (i % 7) as f64 * 0.01,
                    f64::from((i / 2) % 2 == 0) + (i % 5) as f64 * 0.01,
                )
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|(a, b)| f64::from((*a > 0.5) != (*b > 0.5)))
            .collect();
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
        Dataset::new("xor", f, y, Task::Binary).unwrap()
    }

    #[test]
    fn cold_start_finds_a_nonlinear_learner_on_xor() {
        let ds = xor_dataset(240);
        let mut engine = Flaml::new(0);
        let result = engine.optimize(&ds, &TimeBudget::seconds(3.0)).unwrap();
        assert!(
            result.valid_score > 0.9,
            "score {} with {}",
            result.valid_score,
            result.spec.describe()
        );
        assert!(result.trials >= 3, "should complete several trials");
    }

    #[test]
    fn tiny_budget_still_returns_a_result() {
        let ds = xor_dataset(120);
        let mut engine = Flaml::new(0);
        let result = engine.optimize(&ds, &TimeBudget::seconds(0.0)).unwrap();
        assert!(result.trials >= 1);
        assert!(result.valid_score.is_finite());
    }

    #[test]
    fn skeleton_mode_respects_the_skeleton() {
        let ds = xor_dataset(200);
        let mut engine = Flaml::new(1);
        let skeleton = Skeleton {
            transformers: vec![TransformerKind::StandardScaler],
            estimator: EstimatorKind::XgBoost,
        };
        let result = engine
            .optimize_skeleton(&ds, &skeleton, &TimeBudget::seconds(2.0))
            .unwrap();
        assert_eq!(result.spec.estimator, EstimatorKind::XgBoost);
        assert_eq!(
            result.spec.transformers[0].0,
            TransformerKind::StandardScaler
        );
        assert!(result.valid_score > 0.9);
    }

    #[test]
    fn skeleton_mode_rejects_unsupported_task() {
        let ds = xor_dataset(60);
        let mut engine = Flaml::new(0);
        let skeleton = Skeleton::bare(EstimatorKind::Ridge);
        assert!(matches!(
            engine.optimize_skeleton(&ds, &skeleton, &TimeBudget::seconds(1.0)),
            Err(HpoError::NoUsableLearner)
        ));
    }

    #[test]
    fn first_trials_use_cheap_learners() {
        let ds = xor_dataset(150);
        let mut engine = Flaml::new(2);
        let result = engine.optimize(&ds, &TimeBudget::seconds(1.0)).unwrap();
        // The very first completed trial must come from a cheap family,
        // never from the expensive forests.
        let first = result.history[0].spec.estimator;
        assert!(
            first.relative_cost() <= EstimatorKind::DecisionTree.relative_cost(),
            "first learner {first} too expensive"
        );
    }

    #[test]
    fn refit_end_to_end_beats_chance() {
        let ds = xor_dataset(300);
        let (train, test) = train_test_split(&ds, 0.3, 5).unwrap();
        let mut engine = Flaml::new(3);
        let result = engine.optimize(&train, &TimeBudget::seconds(3.0)).unwrap();
        let score = result.refit_score(&train, &test).unwrap();
        assert!(score > 0.85, "test score {score}");
    }

    #[test]
    fn capability_document_is_parseable() {
        let engine = Flaml::new(0);
        let (est, _) = space::parse_capabilities(&engine.capabilities()).unwrap();
        assert_eq!(est.len(), EstimatorKind::ALL.len());
    }

    #[test]
    fn regression_support() {
        let x: Vec<f64> = (0..200).map(|i| (i % 20) as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let f = DataFrame::from_columns(vec![("x".to_string(), Column::from_f64(x))]).unwrap();
        let ds = Dataset::new("sq", f, y, Task::Regression).unwrap();
        let mut engine = Flaml::new(4);
        let result = engine.optimize(&ds, &TimeBudget::seconds(2.0)).unwrap();
        assert!(result.valid_score > 0.8, "r2 {}", result.valid_score);
    }
}
