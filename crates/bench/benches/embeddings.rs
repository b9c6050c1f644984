//! Benchmarks for the dataset-embedding substrate — the costs behind
//! §3.2 similarity search and Figure 10's t-SNE — plus the
//! million-table similarity-tier harness.
//!
//! The `similarity_tiers` pass builds a 100K-vector clustered catalog
//! (`KGPIP_BENCH_EMBED_N` overrides the size, up to 1M) and measures
//! every tier the index can run: exact-scan ground truth and the HNSW
//! graph — build time, incremental-insert throughput, queries/sec,
//! recall@10 against the exact scan, and resident bytes per tier.
//! After the criterion arms it emits `BENCH_JSON` summary lines which
//! `scripts/bench.sh` folds into `BENCH_embeddings.json`; the acceptance
//! bars live in the `tier_hnsw` line (`recall_at_10 ≥ 0.95`,
//! `speedup_vs_exact ≥ 10`).
//!
//! Run `cargo bench --bench embeddings -- --bench` for the full-size
//! pass; smoke mode (plain `cargo test`) shrinks the catalog so the
//! harness stays cheap while still exercising every tier.

// This bench times wall-clock throughput by design.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use kgpip_benchdata::generate::{synthesize, SynthSpec};
use kgpip_benchdata::{recall_at_k, synthetic_embeddings};
use kgpip_embeddings::tsne::{tsne, TsneConfig};
use kgpip_embeddings::{table_embedding, HnswConfig, VectorIndex};
use std::hint::black_box;
use std::time::Instant;

fn spec(name: &str, rows: usize) -> SynthSpec {
    SynthSpec {
        name: name.to_string(),
        rows,
        num: 8,
        cat: 2,
        text: 1,
        classes: 2,
        ceiling: 0.9,
        missing: 0.02,
    }
}

fn bench_embeddings(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_embeddings");
    group.sample_size(20);

    let ds = synthesize(&spec("embed_bench", 500), 0);
    group.bench_function("table_embedding_500x11", |b| {
        b.iter(|| table_embedding(black_box(&ds.features)))
    });

    // Similarity search over a 104-dataset index (the paper's training
    // corpus size).
    let mut index = VectorIndex::new();
    for i in 0..104 {
        let d = synthesize(&spec(&format!("idx_{i}"), 120), i as u64);
        index.add(format!("idx_{i}"), table_embedding(&d.features));
    }
    let query = table_embedding(&ds.features);
    group.bench_function("exact_top3_of_104", |b| {
        b.iter(|| index.top_k(black_box(&query), 3))
    });

    // Figure 10: t-SNE over 38 dataset embeddings.
    let points: Vec<Vec<f64>> = (0..38)
        .map(|i| {
            let d = synthesize(&spec(&format!("tsne_{i}"), 100), i as u64);
            table_embedding(&d.features)
        })
        .collect();
    group.bench_function("tsne_38_datasets", |b| {
        b.iter(|| {
            tsne(
                black_box(&points),
                &TsneConfig {
                    iterations: 200,
                    ..TsneConfig::default()
                },
            )
        })
    });
    group.finish();
}

/// Whether this process was invoked by `cargo bench` (which passes
/// `--bench`) rather than `cargo test` smoke mode.
fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Held-out probes scored against exact ground truth per tier.
const TIER_QUERIES: usize = 50;
/// Vectors registered one-by-one for the insert-throughput measurement.
const TIER_INSERTS: usize = 500;
const TIER_K: usize = 10;

struct TierNumbers {
    build_secs: f64,
    qps: f64,
    recall: f64,
    resident_bytes: usize,
}

/// Times `queries/sec` and mean recall@K of `index.search` against the
/// exact ground truth.
fn measure_tier(
    index: &VectorIndex,
    probes: &[Vec<f64>],
    truth: &[Vec<(String, f64)>],
    build_secs: f64,
) -> TierNumbers {
    let started = Instant::now();
    let results: Vec<Vec<(String, f64)>> = probes
        .iter()
        .map(|q| index.search(black_box(q), TIER_K))
        .collect();
    let secs = started.elapsed().as_secs_f64();
    let recall = results
        .iter()
        .zip(truth)
        .map(|(approx, exact)| recall_at_k(exact, approx, TIER_K))
        .sum::<f64>()
        / probes.len().max(1) as f64;
    TierNumbers {
        build_secs,
        qps: probes.len() as f64 / secs.max(1e-9),
        recall,
        resident_bytes: index.stats().resident_bytes(),
    }
}

fn bench_similarity_tiers(c: &mut Criterion) {
    // Full-size catalog only under `cargo bench -- --bench`; the smoke
    // pass (run by `cargo test`) keeps every tier exercised but cheap.
    let n: usize = if bench_mode() {
        std::env::var("KGPIP_BENCH_EMBED_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000)
    } else {
        1_000
    };
    let dim = 32;
    let clusters = 64;
    let all = synthetic_embeddings(n + TIER_QUERIES + TIER_INSERTS, dim, clusters, 0);
    let store = &all[..n];
    let probes = &all[n..n + TIER_QUERIES];
    let tail = &all[n + TIER_QUERIES..];

    let mut exact = VectorIndex::new();
    for (i, v) in store.iter().enumerate() {
        exact.add(format!("t{i}"), v.clone());
    }

    // Exact scan: ground truth for every other tier, and the QPS floor
    // the speedup column is measured against.
    let started = Instant::now();
    let truth: Vec<Vec<(String, f64)>> = probes.iter().map(|q| exact.top_k(q, TIER_K)).collect();
    let exact_qps = probes.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);

    // HNSW tier: build from scratch...
    let mut hnsw = exact.clone();
    let started = Instant::now();
    hnsw.build_hnsw(HnswConfig::default());
    let hnsw_numbers = measure_tier(&hnsw, probes, &truth, started.elapsed().as_secs_f64());

    // ...then extend it incrementally (register never rebuilds).
    let started = Instant::now();
    for (i, v) in tail.iter().enumerate() {
        hnsw.register(format!("r{i}"), v.clone());
    }
    let inserts_per_sec = tail.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);

    // Criterion arms: per-query latency on the built indexes.
    let mut group = c.benchmark_group("similarity_tiers");
    group.sample_size(10);
    let query = &probes[0];
    group.bench_function(format!("exact_top10_of_{n}"), |b| {
        b.iter(|| exact.top_k(black_box(query), TIER_K))
    });
    group.bench_function(format!("hnsw_top10_of_{n}"), |b| {
        b.iter(|| hnsw.search(black_box(query), TIER_K))
    });
    group.finish();

    // Machine-readable summary, one line per tier.
    println!(
        "BENCH_JSON {{\"id\":\"tier_exact\",\"n\":{n},\"dim\":{dim},\"build_secs\":0.0,\
         \"qps\":{exact_qps:.1},\"recall_at_10\":1.0,\"speedup_vs_exact\":1.0,\
         \"resident_bytes\":{}}}",
        exact.stats().resident_bytes()
    );
    println!(
        "BENCH_JSON {{\"id\":\"tier_hnsw\",\"n\":{n},\"dim\":{dim},\"build_secs\":{:.2},\
         \"qps\":{:.1},\"recall_at_10\":{:.4},\"speedup_vs_exact\":{:.1},\
         \"resident_bytes\":{}}}",
        hnsw_numbers.build_secs,
        hnsw_numbers.qps,
        hnsw_numbers.recall,
        hnsw_numbers.qps / exact_qps.max(1e-9),
        hnsw_numbers.resident_bytes,
    );
    println!(
        "BENCH_JSON {{\"id\":\"hnsw_incremental_insert\",\"n\":{n},\"dim\":{dim},\
         \"inserts\":{},\"inserts_per_sec\":{inserts_per_sec:.1}}}",
        tail.len()
    );
}

criterion_group!(benches, bench_embeddings, bench_similarity_tiers);
criterion_main!(benches);
