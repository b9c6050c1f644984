//! Throughput of the chunked tabular engine, the one tabular path:
//!
//! * `ingest_*` — RFC-4180 CSV ingest. `ingest_read_frame` times
//!   `read_frame`, which is the chunked reader at its default options
//!   (8192-row chunks, one worker) collected into one frame; the other
//!   arms time the chunked reader at worker counts 1/2/4 and in
//!   bounded-memory mode. Every arm parses to the same frame; these arms
//!   measure cost only. On a 1-CPU host `effective_parallelism` clamps
//!   every arm to one worker, so a parallel arm there measures overhead.
//! * `gbt_fit_dense` — a histogram GBT fit on the dense encoded matrix,
//!   the one fit path every trial takes.
//! * `embed_*` — table embeddings. `embed_in_memory` times
//!   `table_embedding`, the one-chunk call of the pooling that
//!   `embed_chunked_sampled` runs over the chunks and a bounded row
//!   sample.
//!
//! After the criterion arms, the harness emits `BENCH_JSON` summary
//! lines (rows/sec plus the ingest residency report) that
//! `scripts/bench.sh` folds into `BENCH_tabular.json`.

// This bench times wall-clock throughput by design.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use kgpip_embeddings::{table_embedding, table_embedding_chunked};
use kgpip_learners::estimators::gbt::{GbtConfig, GradientBoosting};
use kgpip_learners::{Estimator, EstimatorKind, Matrix};
use kgpip_tabular::{csv::read_frame, read_chunked_with_report, ChunkedReadOptions, Task};
use std::hint::black_box;
use std::time::Instant;

/// Data rows in the synthetic CSV document.
const CSV_ROWS: usize = 40_000;

/// Rows per chunk for the streaming arms.
const CHUNK_ROWS: usize = 4096;

/// Row-sample bound for the sampled embedding arm.
const SAMPLE_BOUND: usize = 8192;

/// A deterministic mixed-type CSV document: numeric, categorical, and
/// text columns, sporadic missing cells, and quoted cells with embedded
/// commas so the quote path is exercised.
fn csv_text(rows: usize) -> String {
    let cities = ["paris", "lyon", "nice", "lille", "brest"];
    let mut text = String::with_capacity(rows * 48);
    text.push_str("id,value,score,city,flag,note\n");
    for i in 0..rows {
        let value = ((i * 37 % 1000) as f64) / 10.0;
        let score = ((i * 17 % 89) as f64) / 89.0;
        let city = cities[i % cities.len()];
        let flag = i % 3;
        if i % 97 == 0 {
            // Missing value and a quoted note with a comma.
            text.push_str(&format!("{i},,{score:.4},{city},{flag},\"alpha, beta\"\n"));
        } else {
            text.push_str(&format!(
                "{i},{value:.3},{score:.4},{city},{flag},plain note {}\n",
                i % 11
            ));
        }
    }
    text
}

/// The GBT fixture: a dense design matrix plus a smooth target.
fn gbt_fixture(rows: usize) -> (Matrix, Vec<f64>) {
    let features = 8;
    let grid: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            (0..features)
                .map(|f| (((i * (2 * f + 3) + f * f) % 97) as f64) / 97.0)
                .collect()
        })
        .collect();
    let x = Matrix::from_rows(&grid).expect("rectangular fixture");
    let y: Vec<f64> = (0..rows)
        .map(|r| {
            let row = x.row(r);
            10.0 * (std::f64::consts::PI * row[0] * row[1]).sin() + 5.0 * row[2]
        })
        .collect();
    (x, y)
}

fn gbt_config() -> GbtConfig {
    GbtConfig {
        n_estimators: 10,
        learning_rate: 0.2,
        max_depth: 16,
        subsample: 1.0,
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

fn opts(parallelism: usize, bounded: bool) -> ChunkedReadOptions {
    ChunkedReadOptions {
        chunk_rows: CHUNK_ROWS,
        parallelism,
        bounded_memory: bounded,
    }
}

fn bench_tabular_chunked(c: &mut Criterion) {
    let text = csv_text(CSV_ROWS);
    let mut group = c.benchmark_group("tabular_chunked");
    group.sample_size(10);

    group.bench_function("ingest_read_frame", |b| {
        b.iter(|| read_frame(black_box(&text)).unwrap())
    });
    for parallelism in [1usize, 2, 4] {
        group.bench_function(format!("ingest_chunked_p{parallelism}"), |b| {
            b.iter(|| {
                read_chunked_with_report(black_box(&text), &opts(parallelism, false)).unwrap()
            })
        });
    }
    group.bench_function("ingest_chunked_p4_bounded", |b| {
        b.iter(|| read_chunked_with_report(black_box(&text), &opts(4, true)).unwrap())
    });

    let (x, y) = gbt_fixture(20_000);
    group.bench_function("gbt_fit_dense", |b| {
        b.iter(|| {
            let mut m = GradientBoosting::new(gbt_config());
            m.fit(black_box(&x), black_box(&y), Task::Regression)
                .unwrap();
            m
        })
    });

    let frame = read_frame(&text).unwrap();
    let (chunked_frame, _) = read_chunked_with_report(&text, &opts(1, false)).unwrap();
    group.bench_function("embed_in_memory", |b| {
        b.iter(|| table_embedding(black_box(&frame)))
    });
    group.bench_function("embed_chunked_sampled", |b| {
        b.iter(|| table_embedding_chunked(black_box(&chunked_frame), SAMPLE_BOUND, 0))
    });
    group.finish();

    // --- Machine-readable summary: rows/sec per arm + residency ---
    let timed = |f: &dyn Fn()| -> f64 {
        // One warm-up then a best-of-3 timed window, matching the
        // summary style of the other suites (criterion has the full
        // distributions; these lines are the tracked scalars).
        f();
        (0..3)
            .map(|_| {
                let started = Instant::now();
                f();
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let read_frame_secs = timed(&|| {
        read_frame(&text).unwrap();
    });
    println!(
        "BENCH_JSON {{\"id\":\"tabular_ingest_read_frame\",\"rows\":{CSV_ROWS},\
         \"rows_per_sec\":{:.0}}}",
        CSV_ROWS as f64 / read_frame_secs.max(1e-9)
    );
    for parallelism in [1usize, 2, 4] {
        for bounded in [false, true] {
            let secs = timed(&|| {
                read_chunked_with_report(&text, &opts(parallelism, bounded)).unwrap();
            });
            let (_, report) = read_chunked_with_report(&text, &opts(parallelism, bounded)).unwrap();
            let suffix = if bounded { "_bounded" } else { "" };
            println!(
                "BENCH_JSON {{\"id\":\"tabular_ingest_chunked_p{parallelism}{suffix}\",\
                 \"rows\":{CSV_ROWS},\"rows_per_sec\":{:.0},\"workers\":{},\
                 \"chunks\":{},\"peak_resident_chunks\":{},\
                 \"speedup_vs_read_frame\":{:.3}}}",
                CSV_ROWS as f64 / secs.max(1e-9),
                report.workers,
                report.chunks,
                report.peak_resident_chunks,
                read_frame_secs / secs.max(1e-9),
            );
        }
    }
    let dense_secs = timed(&|| {
        let mut m = GradientBoosting::new(gbt_config());
        m.fit(&x, &y, Task::Regression).unwrap();
    });
    println!(
        "BENCH_JSON {{\"id\":\"tabular_gbt_fit_dense\",\"rows\":{},\"rows_per_sec\":{:.0}}}",
        x.rows(),
        x.rows() as f64 / dense_secs.max(1e-9)
    );
    let embed_dense_secs = timed(&|| {
        table_embedding(&frame);
    });
    let embed_chunked_secs = timed(&|| {
        table_embedding_chunked(&chunked_frame, SAMPLE_BOUND, 0);
    });
    println!(
        "BENCH_JSON {{\"id\":\"tabular_embed_in_memory\",\"rows\":{CSV_ROWS},\
         \"rows_per_sec\":{:.0}}}",
        CSV_ROWS as f64 / embed_dense_secs.max(1e-9)
    );
    println!(
        "BENCH_JSON {{\"id\":\"tabular_embed_chunked_sampled\",\"rows\":{CSV_ROWS},\
         \"rows_per_sec\":{:.0},\"sample_bound\":{SAMPLE_BOUND},\"speedup_vs_in_memory\":{:.3}}}",
        CSV_ROWS as f64 / embed_chunked_secs.max(1e-9),
        embed_dense_secs / embed_chunked_secs.max(1e-9),
    );
}

criterion_group!(benches, bench_tabular_chunked);
criterion_main!(benches);
