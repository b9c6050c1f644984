//! Encoded-trial identity: every trial runs on the splits encoded once per
//! evaluator ([`Pipeline::fit_predict_encoded`]), and that path may only
//! change what a trial *costs*, never what it computes. The oracle is the
//! raw-frame path: recompute the search's holdout split, then replay each
//! history entry through `Pipeline::from_spec` → `fit` → `predict` →
//! `score_predictions`. Scores are compared through `f64::to_bits`, not a
//! tolerance, and a failed trial must carry the oracle's error string.

use kgpip_hpo::trial::{combine_predictions, HOLDOUT_FRACTION};
use kgpip_hpo::{
    AutoSklearn, Candidate, Evaluator, Flaml, HpoResult, Optimizer, Skeleton, TimeBudget,
    TrialOutcome,
};
use kgpip_learners::pipeline::{score_predictions, PipelineSpec};
use kgpip_learners::{EstimatorKind, Params, Pipeline, TransformerKind};
use kgpip_tabular::{train_test_split, Column, DataFrame, Dataset, Task};

/// Binary dataset with numeric, categorical, and NaN-bearing columns —
/// exercises the feature encoder, the implicit imputer prepend, and any
/// user transformer chain on top.
fn messy_dataset(n: usize) -> Dataset {
    let a: Vec<f64> = (0..n)
        .map(|i| {
            if i % 11 == 3 {
                f64::NAN
            } else {
                ((i * 13 % 29) as f64) / 29.0
            }
        })
        .collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
    let cat: Vec<Option<&str>> = (0..n)
        .map(|i| Some(["red", "green", "blue"][i % 3]))
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from((i * 13 % 29) as f64 / 29.0 + ((i * 7 % 23) as f64 - 11.0) * 0.05 > 0.4))
        .collect();
    let f = DataFrame::from_columns(vec![
        ("a".to_string(), Column::from_f64(a)),
        ("b".to_string(), Column::from_f64(b)),
        ("color".to_string(), Column::categorical(cat)),
    ])
    .unwrap();
    Dataset::new("messy", f, y, Task::Binary).unwrap()
}

/// Clean regression dataset (no NaN, numeric only).
fn regression_dataset(n: usize) -> Dataset {
    let x1: Vec<f64> = (0..n).map(|i| ((i * 17 % 31) as f64) / 31.0).collect();
    let x2: Vec<f64> = (0..n).map(|i| ((i * 5 % 19) as f64) / 19.0).collect();
    let y: Vec<f64> = x1
        .iter()
        .zip(&x2)
        .map(|(a, b)| 3.0 * a - 2.0 * b + (a * b))
        .collect();
    let f = DataFrame::from_columns(vec![
        ("x1".to_string(), Column::from_f64(x1)),
        ("x2".to_string(), Column::from_f64(x2)),
    ])
    .unwrap();
    Dataset::new("reg", f, y, Task::Regression).unwrap()
}

/// Trial-capped budget with slack wall clock so expiry is deterministic.
fn capped(trials: usize) -> TimeBudget {
    TimeBudget::seconds(3600.0).with_trial_cap(trials)
}

/// The raw-frame oracle for one spec: a fresh pipeline fitted on `fit`
/// and scored on `valid`, or the error it fails with.
fn raw_outcome(spec: &PipelineSpec, fit: &Dataset, valid: &Dataset) -> Result<f64, String> {
    Pipeline::from_spec(spec.clone())
        .and_then(|mut p| {
            p.fit(fit)?;
            p.predict(valid)
        })
        .map(|pred| score_predictions(valid, &pred))
        .map_err(|e| e.to_string())
}

/// Replays every trial of a search on `train` with holdout seed `seed`
/// through the raw-frame oracle, and returns how many trials failed.
fn assert_history_matches_the_raw_oracle(
    history: &[TrialOutcome],
    train: &Dataset,
    seed: u64,
    ctx: &str,
) -> usize {
    assert!(!history.is_empty(), "{ctx}: nothing was compared");
    let (fit, valid) = train_test_split(train, HOLDOUT_FRACTION, seed).unwrap();
    let mut failures = 0;
    for (i, trial) in history.iter().enumerate() {
        let recorded = match (trial.score, &trial.error) {
            (Some(score), None) => Ok(score.to_bits()),
            (None, Some(error)) => Err(error.clone()),
            other => panic!("{ctx}: trial {i} has score and error {other:?}"),
        };
        let oracle = raw_outcome(&trial.spec, &fit, &valid).map(f64::to_bits);
        assert_eq!(
            recorded,
            oracle,
            "{ctx}: trial {i} ({})",
            trial.spec.describe()
        );
        failures += usize::from(oracle.is_err());
    }
    failures
}

/// A whole search: every trial matches the oracle, the result deploys the
/// earliest best trial's spec, and the reported validation score is the
/// oracle's — the best trial's score alone, or, when the search adopted an
/// ensemble, the score of its members' raw-frame holdout predictions
/// combined. Returns whether an ensemble was adopted.
fn assert_search_matches_the_raw_oracle(
    result: &HpoResult,
    train: &Dataset,
    seed: u64,
    ctx: &str,
) -> bool {
    let failures = assert_history_matches_the_raw_oracle(&result.history, train, seed, ctx);
    assert_eq!(result.report.failures, failures, "{ctx}: failure count");
    let mut best: Option<&TrialOutcome> = None;
    for trial in &result.history {
        if trial.score > best.and_then(|b| b.score) {
            best = Some(trial);
        }
    }
    let best = best.unwrap_or_else(|| panic!("{ctx}: no trial scored"));
    assert_eq!(result.spec, best.spec, "{ctx}: deployed spec");
    let expected = if result.ensemble.is_empty() {
        best.score.unwrap()
    } else {
        let (fit, valid) = train_test_split(train, HOLDOUT_FRACTION, seed).unwrap();
        let preds: Vec<Vec<f64>> = result
            .ensemble
            .iter()
            .map(|spec| {
                let mut p = Pipeline::from_spec(spec.clone()).unwrap();
                p.fit(&fit).unwrap();
                p.predict(&valid).unwrap()
            })
            .collect();
        let combined = combine_predictions(&preds, train.task.is_classification());
        score_predictions(&valid, &combined)
    };
    assert_eq!(
        result.valid_score.to_bits(),
        expected.to_bits(),
        "{ctx}: validation score"
    );
    !result.ensemble.is_empty()
}

#[test]
fn flaml_skeleton_trials_equal_the_raw_oracle() {
    let ds = messy_dataset(160);
    // NaN in the data: the first chain gets an implicit imputer in front
    // of its scaler; the second leads with its own imputer, so none is
    // added.
    let chains = [
        Skeleton {
            transformers: vec![TransformerKind::StandardScaler],
            estimator: EstimatorKind::Lgbm,
        },
        Skeleton {
            transformers: vec![
                TransformerKind::SimpleImputer,
                TransformerKind::OneHotEncoder,
                TransformerKind::Pca,
            ],
            estimator: EstimatorKind::LogisticRegression,
        },
    ];
    for skeleton in &chains {
        let result = Flaml::new(11)
            .optimize_skeleton(&ds, skeleton, &capped(14))
            .unwrap();
        assert_search_matches_the_raw_oracle(&result, &ds, 11, "flaml skeleton");
    }
}

#[test]
fn flaml_cold_trials_equal_the_raw_oracle() {
    let ds = messy_dataset(140);
    let result = Flaml::new(3).optimize(&ds, &capped(12)).unwrap();
    assert_search_matches_the_raw_oracle(&result, &ds, 3, "flaml cold");
}

#[test]
fn flaml_regression_trials_equal_the_raw_oracle() {
    let ds = regression_dataset(150);
    let skeleton = Skeleton {
        transformers: vec![TransformerKind::MinMaxScaler],
        estimator: EstimatorKind::XgBoost,
    };
    let result = Flaml::new(5)
        .optimize_skeleton(&ds, &skeleton, &capped(10))
        .unwrap();
    assert_search_matches_the_raw_oracle(&result, &ds, 5, "flaml regression skeleton");
}

#[test]
fn autosklearn_trials_equal_the_raw_oracle() {
    let ds = messy_dataset(150);
    let result = AutoSklearn::new(7).optimize(&ds, &capped(10)).unwrap();
    let adopted = assert_search_matches_the_raw_oracle(&result, &ds, 7, "autosklearn cold");
    assert!(
        adopted,
        "no ensemble was adopted: its score was not compared"
    );
}

#[test]
fn evaluator_outcomes_match_the_manual_pipeline_path() {
    // The evaluator must score a candidate exactly as a hand-constructed
    // `Pipeline::fit_score` over the same split does.
    let ds = messy_dataset(160);
    let budget = capped(100);
    let eval = Evaluator::new(&ds, 9, &budget).unwrap();
    let chain = Skeleton {
        transformers: vec![TransformerKind::StandardScaler, TransformerKind::Pca],
        estimator: EstimatorKind::DecisionTree,
    };
    let bare = Skeleton::bare(EstimatorKind::Lgbm);
    for skeleton in [&chain, &bare, &chain] {
        let outcome = eval.evaluate(skeleton, Params::new());
        let mut manual = Pipeline::from_spec(PipelineSpec {
            transformers: skeleton
                .transformers
                .iter()
                .map(|t| (*t, Params::new()))
                .collect(),
            estimator: skeleton.estimator,
            params: Params::new(),
        })
        .unwrap();
        let expected = manual
            .fit_score(eval.fit_part(), eval.validation())
            .unwrap();
        assert_eq!(
            outcome.score.map(f64::to_bits),
            Some(expected.to_bits()),
            "{}",
            skeleton.estimator.name()
        );
        assert_eq!(outcome.error, None);
    }
}

#[test]
fn evaluator_batches_match_the_raw_oracle_including_error_strings() {
    let ds = messy_dataset(140);
    let budget = capped(100);
    let evaluator = Evaluator::new(&ds, 4, &budget).unwrap();
    let chain = Skeleton {
        transformers: vec![TransformerKind::RobustScaler],
        estimator: EstimatorKind::RandomForest,
    };
    let batch: Vec<Candidate> = vec![
        Candidate::new(chain.clone(), Params::new()),
        Candidate::new(Skeleton::bare(EstimatorKind::Lgbm), Params::new()),
        Candidate::new(chain, Params::new()),
        // Ridge on a binary task fails: the error string must be the
        // oracle's, not just the failure itself.
        Candidate::new(Skeleton::bare(EstimatorKind::Ridge), Params::new()),
    ];
    let outcomes = evaluator.evaluate_batch(&batch);
    let failures = assert_history_matches_the_raw_oracle(&outcomes, &ds, 4, "evaluator batch");
    assert_eq!(failures, 1);
    assert_eq!(evaluator.report().failures, 1);
    let error = outcomes[3].error.as_deref().unwrap_or_default();
    assert!(error.contains("ridge"), "unexpected error: {error}");
}

#[test]
fn ensemble_refit_matches_a_sequential_raw_refit() {
    let ds = messy_dataset(160);
    let test = messy_dataset(90);
    let members = vec![
        PipelineSpec::bare(EstimatorKind::DecisionTree),
        PipelineSpec {
            transformers: vec![(TransformerKind::StandardScaler, Params::new())],
            estimator: EstimatorKind::Lgbm,
            params: Params::new(),
        },
        PipelineSpec::bare(EstimatorKind::DecisionTree),
    ];
    let mut result = HpoResult::single(members[0].clone(), 0.0, Vec::new());
    result.ensemble = members.clone();

    // Hand-rolled reference: sequential raw-frame fit + predict per
    // member, then the same vote/mean combination.
    let preds: Vec<Vec<f64>> = members
        .iter()
        .map(|spec| {
            let mut p = Pipeline::from_spec(spec.clone()).unwrap();
            p.fit(&ds).unwrap();
            p.predict(&test).unwrap()
        })
        .collect();
    let combined = combine_predictions(&preds, true);
    let expected = score_predictions(&test, &combined);

    let actual = result.refit_score(&ds, &test).unwrap();
    assert_eq!(actual.to_bits(), expected.to_bits());
}

#[test]
fn single_spec_refit_matches_the_raw_pipeline_score() {
    let ds = regression_dataset(150);
    let test = regression_dataset(80);
    let spec = PipelineSpec {
        transformers: vec![(TransformerKind::StandardScaler, Params::new())],
        estimator: EstimatorKind::XgBoost,
        params: Params::new(),
    };
    let result = HpoResult::single(spec.clone(), 0.0, Vec::new());

    let mut p = Pipeline::from_spec(spec).unwrap();
    p.fit(&ds).unwrap();
    let pred = p.predict(&test).unwrap();
    let expected = score_predictions(&test, &pred);

    let actual = result.refit_score(&ds, &test).unwrap();
    assert_eq!(actual.to_bits(), expected.to_bits());
}
