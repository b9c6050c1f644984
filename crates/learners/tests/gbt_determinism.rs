//! Histogram-GBT width independence (mirrors
//! `crates/graphgen/tests/determinism.rs`).
//!
//! A fit grows its trees on the calling thread, so the rayon width a
//! caller installs (the HPO engines install one per trial batch) must not
//! reach the model: a fitted model — and every prediction — must be
//! bit-for-bit identical under a pool of any width and with no pool
//! installed at all, the default `run_k` uses at `parallelism = 1`.

use kgpip_learners::estimators::gbt::{GbtConfig, GradientBoosting};
use kgpip_learners::{build_estimator, Estimator, EstimatorKind, Matrix, Params};
use kgpip_tabular::Task;

/// A wide table: as many features as the `automl` benchmark's wide
/// datasets carry, so each tree node scans many feature histograms.
const FEATURES: usize = 24;

fn wide_matrix(n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..FEATURES)
                .map(|f| (((i * (2 * f + 3) + f * f) % 97) as f64) / 97.0)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

fn regression_target(x: &Matrix) -> Vec<f64> {
    (0..x.rows())
        .map(|r| {
            let row = x.row(r);
            10.0 * (std::f64::consts::PI * row[0] * row[1]).sin() + 5.0 * row[2] - 3.0 * row[17]
        })
        .collect()
}

fn lgbm_config(subsample: f64) -> GbtConfig {
    GbtConfig {
        n_estimators: 20,
        learning_rate: 0.2,
        max_depth: 16,
        subsample,
        lambda: 1.0,
        gamma: 0.0,
        min_child_weight: 1.0,
        second_order: true,
        histogram: true,
        max_bins: 32,
        max_leaves: 31,
        seed: 7,
        kind: EstimatorKind::Lgbm,
    }
}

/// Fits `cfg` on (x, y) under a rayon pool of `workers` threads and
/// returns the predictions' raw bits.
fn fit_predict_bits(
    cfg: &GbtConfig,
    x: &Matrix,
    y: &[f64],
    task: Task,
    workers: usize,
) -> Vec<u64> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("thread pool construction");
    pool.install(|| {
        let mut model = GradientBoosting::new(cfg.clone());
        model.fit(x, y, task).unwrap();
        model
            .predict(x)
            .unwrap()
            .into_iter()
            .map(f64::to_bits)
            .collect()
    })
}

#[test]
fn regression_fit_is_bit_identical_across_worker_counts() {
    let x = wide_matrix(300);
    let y = regression_target(&x);
    let cfg = lgbm_config(1.0);
    let baseline = fit_predict_bits(&cfg, &x, &y, Task::Regression, 1);
    for workers in [2, 4, 8] {
        let bits = fit_predict_bits(&cfg, &x, &y, Task::Regression, workers);
        assert_eq!(baseline, bits, "{workers} workers diverged from 1");
    }
}

#[test]
fn subsampled_binary_fit_is_bit_identical_across_worker_counts() {
    let x = wide_matrix(240);
    // Out-of-bag rows exercise the predict_row fallback in the score loop.
    let y: Vec<f64> = (0..x.rows())
        .map(|r| f64::from(x.get(r, 0) + x.get(r, 5) > 1.0))
        .collect();
    let cfg = lgbm_config(0.7);
    let baseline = fit_predict_bits(&cfg, &x, &y, Task::Binary, 1);
    for workers in [2, 4, 8] {
        let bits = fit_predict_bits(&cfg, &x, &y, Task::Binary, workers);
        assert_eq!(baseline, bits, "{workers} workers diverged from 1");
    }
}

#[test]
fn multiclass_histogram_fit_is_bit_identical_across_worker_counts() {
    let x = wide_matrix(270);
    let y: Vec<f64> = (0..x.rows())
        .map(|r| {
            let v = x.get(r, 3);
            if v < 0.33 {
                0.0
            } else if v < 0.66 {
                1.0
            } else {
                2.0
            }
        })
        .collect();
    let mut cfg = lgbm_config(1.0);
    cfg.n_estimators = 10;
    let baseline = fit_predict_bits(&cfg, &x, &y, Task::MultiClass(3), 1);
    for workers in [2, 4, 8] {
        let bits = fit_predict_bits(&cfg, &x, &y, Task::MultiClass(3), workers);
        assert_eq!(baseline, bits, "{workers} workers diverged from 1");
    }
}

#[test]
fn repeated_fits_are_bit_identical() {
    // Two fits of the same config on the same data must agree bit-for-bit.
    let x = wide_matrix(200);
    let y = regression_target(&x);
    let cfg = lgbm_config(1.0);
    let first = fit_predict_bits(&cfg, &x, &y, Task::Regression, 1);
    let second = fit_predict_bits(&cfg, &x, &y, Task::Regression, 1);
    assert_eq!(first, second);
}

/// Fits `kind` built from `params` on (x, y) and returns the predictions'
/// raw bits, under a pool of `workers` threads or, for `None`, with no
/// pool installed.
fn built_fit_bits(
    kind: EstimatorKind,
    params: &Params,
    x: &Matrix,
    y: &[f64],
    workers: Option<usize>,
) -> Vec<u64> {
    let fit = || {
        let mut model = build_estimator(kind, params).unwrap();
        model.fit(x, y, Task::Regression).unwrap();
        model
            .predict(x)
            .unwrap()
            .into_iter()
            .map(f64::to_bits)
            .collect()
    };
    match workers {
        None => fit(),
        Some(workers) => rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("thread pool construction")
            .install(fit),
    }
}

#[test]
fn uninstalled_fit_matches_a_width_one_pool_for_every_boosting_family() {
    let x = wide_matrix(300);
    let y = regression_target(&x);
    for kind in [
        EstimatorKind::Lgbm,
        EstimatorKind::XgBoost,
        EstimatorKind::GradientBoosting,
    ] {
        for exact in [0.0, 1.0] {
            let params: Params = [("n_estimators", 10.0), ("seed", 7.0), ("exact", exact)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            let installed = built_fit_bits(kind, &params, &x, &y, Some(1));
            let default = built_fit_bits(kind, &params, &x, &y, None);
            assert_eq!(
                installed, default,
                "{kind} exact={exact}: default width diverged from 1"
            );
        }
    }
}
