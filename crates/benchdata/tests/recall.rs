//! The gated recall suite: on a synthetic clustered catalog just past the
//! HNSW auto-tune threshold, the graph tier must retrieve nearly the same
//! top-10 as the exact scan. The full
//! 100K-catalog acceptance run (recall@10 ≥ 0.95 at ≥ 10× exact-scan
//! speed) lives in the release-mode criterion bench `embeddings` — this
//! debug-mode gate keeps the invariant cheap enough for every `check.sh`.

use kgpip_benchdata::{recall_at_k, synthetic_embeddings};
use kgpip_embeddings::{IndexTier, VectorIndex};

const K: usize = 10;
const QUERIES: usize = 40;

fn catalog(n: usize, dim: usize) -> (VectorIndex, Vec<Vec<f64>>) {
    let vectors = synthetic_embeddings(n + QUERIES, dim, 32, 9);
    let (store, queries) = vectors.split_at(n);
    let mut index = VectorIndex::new();
    for (i, v) in store.iter().enumerate() {
        index.add(format!("t{i}"), v.clone());
    }
    (index, queries.to_vec())
}

#[test]
fn hnsw_recall_at_10_beats_095_past_the_auto_threshold() {
    let n = VectorIndex::HNSW_AUTO_THRESHOLD + 400;
    let (mut index, queries) = catalog(n, 16);
    assert_eq!(index.auto_tune(0), IndexTier::Hnsw);
    let mut total = 0.0;
    for q in &queries {
        let exact = index.top_k(q, K);
        let approx = index.search(q, K);
        total += recall_at_k(&exact, &approx, K);
    }
    let recall = total / queries.len() as f64;
    assert!(
        recall >= 0.95,
        "HNSW recall@{K} over {QUERIES} queries on {n} vectors: {recall:.3}"
    );
}

/// Insert-then-query must answer bit-identically to a from-scratch build
/// on a realistic clustered catalog (the unit tests cover small cases;
/// this is the at-scale gate).
#[test]
fn incremental_growth_is_bit_identical_to_rebuild() {
    use kgpip_embeddings::HnswConfig;
    let vectors = synthetic_embeddings(800, 16, 8, 3);
    let mut grown = VectorIndex::new();
    for (i, v) in vectors.iter().take(600).enumerate() {
        grown.add(format!("t{i}"), v.clone());
    }
    grown.build_hnsw(HnswConfig::default());
    for (i, v) in vectors.iter().enumerate().skip(600) {
        grown.register(format!("t{i}"), v.clone());
    }
    let mut scratch = VectorIndex::new();
    for (i, v) in vectors.iter().enumerate() {
        scratch.add(format!("t{i}"), v.clone());
    }
    scratch.build_hnsw(HnswConfig::default());
    for q in vectors.iter().take(20) {
        let a = grown.search(q, K);
        let b = scratch.search(q, K);
        assert_eq!(a.len(), b.len());
        for ((na, sa), (nb, sb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}
