//! The HNSW determinism suite, gated by `scripts/check.sh`:
//!
//! * property: with `k ≥ catalog size`, HNSW equals the exact scan —
//!   names, order, and score bits — for arbitrary catalogs,
//! * insert-then-query ≡ build-from-scratch, serialized graphs included,
//! * queries are bit-identical at any parallelism (threads share one
//!   graph; reads must not depend on scheduling),
//! * a graph catalog survives a `KGVI` file round-trip through disk:
//!   same bytes on re-export, bit-identical answers.

use kgpip_embeddings::{Hnsw, HnswConfig, VectorIndex};
use proptest::prelude::*;
use std::sync::Arc;

fn vectors(n: usize, dim: usize, phase: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * dim + d) as f64 * 0.37 + phase).sin())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With the beam at least as wide as the catalog, the graph search
    /// must degenerate to the exact answer: same names, same order, same
    /// score bits.
    #[test]
    fn hnsw_equals_exact_when_k_covers_the_catalog(
        n in 1usize..40,
        dim in 2usize..8,
        phase in -3.0f64..3.0,
        seed in 0u64..4,
    ) {
        let vecs = vectors(n, dim, phase);
        let mut idx = VectorIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            idx.add(format!("v{i}"), v.clone());
        }
        let exact: Vec<(String, f64)> = idx.top_k(&vecs[0], n);
        idx.build_hnsw(HnswConfig { seed, ..HnswConfig::default() });
        let approx = idx.search(&vecs[0], n);
        prop_assert_eq!(exact.len(), approx.len());
        for ((na, sa), (nb, sb)) in exact.iter().zip(&approx) {
            prop_assert_eq!(na, nb);
            prop_assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }

    /// Splitting any catalog into a built prefix plus registered suffix
    /// yields the same graph bytes as building over the whole catalog.
    #[test]
    fn any_split_of_insertions_builds_the_same_graph(
        n in 2usize..60,
        split_frac in 0.0f64..1.0,
        seed in 0u64..4,
    ) {
        let split = ((n as f64 * split_frac) as usize).clamp(1, n);
        let vecs = vectors(n, 6, 0.5);
        let config = HnswConfig { seed, ..HnswConfig::default() };

        let mut grown = Hnsw::new(config);
        let mut store: Vec<Vec<f64>> = Vec::new();
        for v in vecs.iter().take(split) {
            store.push(v.clone());
            grown.insert(&store);
        }
        for v in vecs.iter().skip(split) {
            store.push(v.clone());
            grown.insert(&store);
        }

        let scratch = Hnsw::build(config, &vecs);
        prop_assert_eq!(grown.to_bytes(), scratch.to_bytes());
    }
}

/// Concurrent queries against one shared graph return exactly what a
/// sequential pass returns — scheduling must never reach the results.
#[test]
fn queries_are_bit_identical_at_any_parallelism() {
    let vecs = Arc::new(vectors(500, 12, 0.0));
    let mut idx = VectorIndex::new();
    for (i, v) in vecs.iter().enumerate() {
        idx.add(format!("v{i}"), v.clone());
    }
    idx.build_hnsw(HnswConfig::default());
    let idx = Arc::new(idx);

    let sequential: Vec<Vec<(String, f64)>> = (0..40).map(|q| idx.search(&vecs[q], 10)).collect();

    for threads in [2usize, 4, 8] {
        let mut handles = Vec::new();
        for t in 0..threads {
            let idx = Arc::clone(&idx);
            let vecs = Arc::clone(&vecs);
            handles.push(std::thread::spawn(move || {
                (0..40)
                    .filter(|q| q % threads == t)
                    .map(|q| (q, idx.search(&vecs[q], 10)))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (q, result) in handle.join().unwrap() {
                assert_eq!(result.len(), sequential[q].len());
                for ((na, sa), (nb, sb)) in result.iter().zip(&sequential[q]) {
                    assert_eq!(na, nb, "threads={threads} q={q}");
                    assert_eq!(sa.to_bits(), sb.to_bits(), "threads={threads} q={q}");
                }
            }
        }
    }
}

/// Index → KGVI file → decoded index: same bytes on re-export, same
/// answers to the bit.
#[test]
fn kgvi_roundtrip_is_bit_identical() {
    let vecs = vectors(300, 10, 1.0);
    let mut idx = VectorIndex::new();
    for (i, v) in vecs.iter().enumerate() {
        idx.add(format!("v{i}"), v.clone());
    }
    idx.build_hnsw(HnswConfig::default());

    let dir = std::env::temp_dir().join("kgpip-hnsw-suite");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.kgvi");
    idx.write_mapped(&path).unwrap();
    let decoded = VectorIndex::open_mapped(&path).unwrap();
    assert!(decoded.has_hnsw());

    // The file is deterministic: exporting either index again produces
    // the same bytes.
    let file = std::fs::read(&path).unwrap();
    assert_eq!(file, idx.to_mapped_bytes().unwrap());
    assert_eq!(file, decoded.to_mapped_bytes().unwrap());

    for (q, query) in vecs.iter().enumerate().take(30) {
        let owned = idx.search(query, 7);
        let via_map = decoded.search(query, 7);
        assert_eq!(owned.len(), via_map.len());
        for ((na, sa), (nb, sb)) in owned.iter().zip(&via_map) {
            assert_eq!(na, nb, "q={q}");
            assert_eq!(sa.to_bits(), sb.to_bits(), "q={q}");
        }
    }
    std::fs::remove_file(&path).ok();
}
