//! Throughput of the parallel corpus-mining front end of
//! `Kgpip::train` — the offline stage that mines the paper's 11.7K
//! scripts before the generator ever runs.
//!
//! Arms:
//!
//! * `mine_corpus_cold_p{1,N}` — full mining (fingerprint, in-run
//!   deduplication, static analysis of the distinct sources, assembly)
//!   at parallelism 1 vs the host's worker count.
//!
//! After the criterion arms, instrumented single passes emit
//! `BENCH_JSON` summary lines (scripts/sec at p1 vs pN) that
//! `scripts/bench.sh` collects into `BENCH_mining.json`.
//!
//! Run `cargo bench --bench corpus_mining -- --bench` for timed
//! results; the smoke mode (plain `cargo bench`) only checks the
//! harness runs.

// This bench times wall-clock throughput by design.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile, ScriptRecord};
use kgpip_codegraph::{mine_script, source_fingerprint, MineOutcome};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Worker count for the parallel arms.
const WORKERS: usize = 4;

fn corpus(n_datasets: usize, per_dataset: usize) -> Vec<ScriptRecord> {
    let profiles: Vec<DatasetProfile> = (0..n_datasets)
        .map(|i| DatasetProfile::new(format!("bench_ds_{i}"), false))
        .collect();
    generate_corpus(
        &profiles,
        &CorpusConfig {
            scripts_per_dataset: per_dataset,
            eda_noise: 6,
            unsupported_fraction: 0.1,
            helper_fraction: 0.2,
            seed: 1,
            ..CorpusConfig::default()
        },
    )
}

/// Mines a corpus the way `Kgpip::train` does: fingerprint in order,
/// analyze each distinct source once (in parallel when `workers > 1`),
/// replay the outcome for duplicates. Returns scripts kept.
fn mine_corpus(scripts: &[ScriptRecord], workers: usize) -> usize {
    let mut distinct: HashSet<u64> = HashSet::new();
    let mut to_mine: Vec<(u64, &str)> = Vec::new();
    let mut fingerprints: Vec<u64> = Vec::with_capacity(scripts.len());
    for record in scripts {
        let fp = source_fingerprint(&record.source);
        fingerprints.push(fp);
        if distinct.insert(fp) {
            to_mine.push((fp, record.source.as_str()));
        }
    }
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
    let outcomes: HashMap<u64, MineOutcome> =
        to_mine.iter().map(|(fp, _)| *fp).zip(mined).collect();
    fingerprints
        .iter()
        .filter(|fp| matches!(outcomes[fp], MineOutcome::Pipeline(_)))
        .count()
}

fn bench_corpus_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus_mining");
    group.sample_size(10);
    let scripts = corpus(4, 25);

    for workers in [1usize, WORKERS] {
        group.bench_function(format!("mine_corpus_cold_p{workers}"), |b| {
            b.iter(|| mine_corpus(black_box(&scripts), workers))
        });
    }
    group.finish();

    // --- Machine-readable summary: scripts/sec at p1 vs pN ---
    let time_pass = |workers: usize| -> f64 {
        let started = Instant::now();
        black_box(mine_corpus(&scripts, workers));
        started.elapsed().as_secs_f64()
    };
    let n = scripts.len() as f64;
    for (id, secs) in [
        ("mining_summary_cold_p1".to_string(), time_pass(1)),
        (
            format!("mining_summary_cold_p{WORKERS}"),
            time_pass(WORKERS),
        ),
    ] {
        println!(
            "BENCH_JSON {{\"id\":{id:?},\"scripts\":{},\"scripts_per_sec\":{:.1}}}",
            scripts.len(),
            n / secs.max(1e-9),
        );
    }
}

criterion_group!(benches, bench_corpus_mining);
criterion_main!(benches);
