//! Throughput of the parallel trial-evaluation engine: completed trials
//! per second for sequential vs parallel evaluation at an equal trial
//! budget. The redesign's acceptance bar is ≥ 2× trials/sec at
//! parallelism ≥ 4 over the sequential path.
//!
//! Three arm families:
//!
//! * `flaml_skeleton_*` — single-skeleton search (the `(T−t)/K` unit of
//!   work KGpip parallelizes). Every trial fits the same learner, so the
//!   work per trial is homogeneous and the ratio measures evaluation
//!   throughput alone. These are the acceptance arms.
//! * `flaml_cold_*` — full cold-start search. The parallel scheduler
//!   intentionally explores several learner families per round, so the
//!   per-trial work mix differs from the sequential arm; these arms
//!   document overhead parity at parallelism 1, not speedup.
//! * `flaml_chain_*` — fixed skeleton with a transformer chain, so every
//!   trial fits a scaler before its learner (bare skeletons feed the
//!   encoded matrix to the learner directly).
//!
//! After the criterion arms, the harness runs one instrumented search per
//! skeleton and emits `BENCH_JSON` summary lines with trials/sec and the
//! number of trials that ran on the pre-encoded splits —
//! `scripts/bench.sh` collects these into `BENCH_hpo.json`.
//!
//! Run `cargo bench --bench hpo_parallel -- --bench` for timed results;
//! the smoke mode (plain `cargo bench`) only checks the harness runs.

// This bench times wall-clock throughput by design.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kgpip_benchdata::generate::{synthesize, SynthSpec};
use kgpip_hpo::space::Skeleton;
use kgpip_hpo::{Flaml, Optimizer, TimeBudget};
use kgpip_learners::{EstimatorKind, TransformerKind};
use std::hint::black_box;
use std::time::Instant;

/// Trials allowed per engine run — high enough that scheduling overhead
/// amortizes, low enough that a sample finishes quickly.
const TRIALS: usize = 24;

fn dataset(rows: usize) -> kgpip_tabular::Dataset {
    synthesize(
        &SynthSpec {
            name: "hpo_parallel_bench".to_string(),
            rows,
            num: 8,
            cat: 1,
            text: 0,
            classes: 2,
            ceiling: 0.9,
            missing: 0.0,
        },
        0,
    )
}

fn budget() -> TimeBudget {
    // Generous wall clock: the trial cap is the binding constraint, so
    // all arms complete identical trial counts and the comparison is
    // throughput only.
    TimeBudget::seconds(3600.0).with_trial_cap(TRIALS)
}

fn bench_parallel_hpo(c: &mut Criterion) {
    let mut group = c.benchmark_group("hpo_parallel");
    group.sample_size(10);
    let ds = dataset(400);

    // --- Acceptance arms: fixed-skeleton search, homogeneous trials ---
    let skeleton = Skeleton::bare(EstimatorKind::Lgbm);
    for parallelism in [1usize, 2, 4, 8] {
        group.bench_function(format!("flaml_skeleton_p{parallelism}_24_trials"), |b| {
            b.iter_batched(
                || Flaml::new(0).with_parallelism(parallelism),
                |mut engine| {
                    engine
                        .optimize_skeleton(black_box(&ds), &skeleton, &budget())
                        .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }

    // --- A transformer chain on every trial ---
    let chain = Skeleton {
        transformers: vec![TransformerKind::StandardScaler],
        estimator: EstimatorKind::Lgbm,
    };
    group.bench_function("flaml_chain_p1_24_trials", |b| {
        b.iter_batched(
            || Flaml::new(0),
            |mut engine| {
                engine
                    .optimize_skeleton(black_box(&ds), &chain, &budget())
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });

    // --- Overhead-parity arms: historical sequential loop vs the
    // engine at parallelism 1 (the determinism tests prove the trial
    // histories are identical; this shows the gate adds no cost). ---
    group.bench_function("flaml_cold_sequential_24_trials", |b| {
        b.iter_batched(
            || Flaml::new(0),
            |mut engine| {
                engine
                    .optimize_sequential(black_box(&ds), &budget())
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("flaml_cold_engine_p1_24_trials", |b| {
        b.iter_batched(
            || Flaml::new(0),
            |mut engine| engine.optimize(black_box(&ds), &budget()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // --- Machine-readable summary: trials/sec + encoded trials ---
    // One instrumented search per skeleton, reported in the same
    // `BENCH_JSON` stream the criterion arms use so `scripts/bench.sh`
    // folds everything into one BENCH_hpo.json.
    let configs: [(&str, &Skeleton); 2] = [
        ("hpo_summary_skeleton", &skeleton),
        ("hpo_summary_chain", &chain),
    ];
    for (id, sk) in configs {
        // One warm-up search, then best-of-3: a single 24-trial search
        // finishes in milliseconds, so a one-shot timing is dominated by
        // scheduler jitter — the best of three repeats is the stable
        // estimate of the hot path (the searches are deterministic, so
        // every repeat runs identical trials).
        let mut result = Flaml::new(0).optimize_skeleton(&ds, sk, &budget()).unwrap();
        let mut best_secs = f64::INFINITY;
        for _ in 0..3 {
            let mut engine = Flaml::new(0);
            let started = Instant::now();
            result = engine.optimize_skeleton(&ds, sk, &budget()).unwrap();
            let secs = started.elapsed().as_secs_f64();
            if secs < best_secs {
                best_secs = secs;
            }
        }
        let trials_per_sec = result.trials as f64 / best_secs.max(1e-9);
        println!(
            "BENCH_JSON {{\"id\":{id:?},\"trials\":{},\"trials_per_sec\":{trials_per_sec:.1},\
             \"encoded_trials\":{}}}",
            result.trials, result.report.encoded_trials,
        );
    }
}

criterion_group!(benches, bench_parallel_hpo);
criterion_main!(benches);
