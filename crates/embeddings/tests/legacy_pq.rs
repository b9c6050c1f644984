//! Files written while product quantization (PQ) existed still open, on
//! their HNSW tier, and every index this build writes encodes exactly as
//! the last PQ-capable writer encoded it.
//!
//! The two fixtures are bytes that writer produced for one 48 × 8 catalog
//! with an HNSW graph and a PQ store: `legacy_pq.index` is its
//! `VectorIndex::to_bytes` (the model-snapshot index section) and
//! `legacy_pq.kgvi` its `to_mapped_bytes` (a `KGVI` file, PQ as tags 5
//! and 6). They were recorded at commit `2ec8610` by adding this program
//! as `crates/embeddings/examples/legacy_fixture.rs` and running
//! `cargo run --release -p kgpip-embeddings --example legacy_fixture --
//! crates/embeddings/tests/fixtures`:
//!
//! ```text
//! use kgpip_embeddings::{HnswConfig, PqConfig, VectorIndex};
//!
//! fn main() {
//!     let mut idx = VectorIndex::new();
//!     for i in 0..48 {
//!         let v: Vec<f64> = (0..8).map(|d| ((i * 8 + d) as f64 * 0.37).sin()).collect();
//!         idx.add(format!("legacy-{i}"), v);
//!     }
//!     idx.build_hnsw(HnswConfig::default());
//!     idx.quantize(PqConfig { m: 4, rerank: 48, seed: 0 }).unwrap();
//!     let dir = std::env::args().nth(1).unwrap();
//!     std::fs::write(format!("{dir}/legacy_pq.index"), idx.to_bytes()).unwrap();
//!     std::fs::write(format!("{dir}/legacy_pq.kgvi"), idx.to_mapped_bytes().unwrap()).unwrap();
//! }
//! ```
//!
//! The re-rank window (48 × k) covers the catalog, so the legacy file
//! answered every query exactly as its unquantized catalog did.

use kgpip_embeddings::{HnswConfig, IndexTier, VectorIndex};

const LEGACY_INDEX: &[u8] = include_bytes!("fixtures/legacy_pq.index");
const LEGACY_KGVI: &[u8] = include_bytes!("fixtures/legacy_pq.kgvi");

/// The fixtures' catalog, rebuilt by this build (exact tier).
fn catalog() -> VectorIndex {
    let mut idx = VectorIndex::new();
    for i in 0..48 {
        let v: Vec<f64> = (0..8).map(|d| ((i * 8 + d) as f64 * 0.37).sin()).collect();
        idx.add(format!("legacy-{i}"), v);
    }
    idx
}

/// `(tag, payload)` of every section of a `KGVI` file.
fn sections(kgvi: &[u8]) -> Vec<(u32, &[u8])> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos < kgvi.len() {
        let tag = u32::from_le_bytes(kgvi[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(kgvi[pos + 4..pos + 12].try_into().unwrap()) as usize;
        out.push((tag, &kgvi[pos + 12..pos + 12 + len]));
        pos += 12 + len;
    }
    out
}

/// The `KGVI` file holding only the sections `keep` admits.
fn filter_sections(kgvi: &[u8], keep: impl Fn(u32) -> bool) -> Vec<u8> {
    let mut out = kgvi[..8].to_vec();
    for (tag, payload) in sections(kgvi) {
        if keep(tag) {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
    }
    out
}

/// A dozen probes: six catalog vectors and six off-catalog directions.
fn probes(idx: &VectorIndex) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = (0..6)
        .map(|i| idx.vector(i * 7).unwrap().to_vec())
        .collect();
    out.extend((0..6).map(|p| (0..8).map(|d| ((p * 5 + d) as f64 * 1.3).cos()).collect()));
    out
}

fn assert_search_equals_top_k(idx: &VectorIndex, what: &str) {
    for (p, query) in probes(idx).iter().enumerate() {
        for k in [1, 5, 10] {
            let (a, b) = (idx.search(query, k), idx.top_k(query, k));
            assert_eq!(a.len(), b.len(), "{what} probe {p} k={k}");
            for ((na, sa), (nb, sb)) in a.iter().zip(&b) {
                assert_eq!(na, nb, "{what} probe {p} k={k}");
                assert_eq!(sa.to_bits(), sb.to_bits(), "{what} probe {p} k={k}");
            }
        }
    }
}

#[test]
fn legacy_index_section_opens_without_its_pq_block() {
    let decoded = VectorIndex::from_bytes(LEGACY_INDEX).unwrap();
    assert_eq!(decoded.tier(), IndexTier::Hnsw);
    assert_eq!(decoded.len(), 48);
    // Re-encoding writes the PQ slot as a constant 0: the fixture is
    // exactly that encoding with `[0]` replaced by `[1] · u64 len · len`.
    let bytes = decoded.to_bytes();
    let head = bytes.len() - 1;
    assert_eq!(bytes[head], 0, "PQ slot absent on write");
    assert_eq!(&LEGACY_INDEX[..head], &bytes[..head]);
    assert_eq!(LEGACY_INDEX[head], 1, "the fixture carries a PQ block");
    let len = u64::from_le_bytes(LEGACY_INDEX[head + 1..head + 9].try_into().unwrap());
    assert_eq!(LEGACY_INDEX.len(), head + 9 + len as usize);
    assert_search_equals_top_k(&decoded, "index section");
}

#[test]
fn legacy_kgvi_file_opens_without_tags_5_and_6() {
    let tags: Vec<u32> = sections(LEGACY_KGVI).iter().map(|s| s.0).collect();
    assert_eq!(tags, [1, 2, 3, 4, 5, 6]);
    let decoded = VectorIndex::from_mapped_bytes(LEGACY_KGVI).unwrap();
    assert_eq!(decoded.tier(), IndexTier::Hnsw);
    assert_eq!(
        decoded.to_mapped_bytes().unwrap(),
        filter_sections(LEGACY_KGVI, |tag| tag != 5 && tag != 6)
    );
    // Both legacy encodings hold the same catalog and graph.
    let from_section = VectorIndex::from_bytes(LEGACY_INDEX).unwrap();
    assert_eq!(decoded.to_bytes(), from_section.to_bytes());
    assert_search_equals_top_k(&decoded, "KGVI");
}

/// This build's writers reproduce the legacy writer's bytes for every
/// part they still write: the exact tier's catalog, and the HNSW graph
/// it builds over it.
#[test]
fn exact_and_hnsw_indexes_encode_as_the_legacy_writer_did() {
    let exact = catalog();
    let legacy = VectorIndex::from_bytes(LEGACY_INDEX).unwrap();
    let mut hnsw = exact.clone();
    hnsw.build_hnsw(HnswConfig::default());
    assert_eq!(hnsw.to_bytes(), legacy.to_bytes());
    assert_eq!(
        hnsw.to_mapped_bytes().unwrap(),
        filter_sections(LEGACY_KGVI, |tag| tag <= 4)
    );
    // The exact tier: the same catalog bytes and IVF slot, then absent
    // HNSW and PQ slots.
    let bytes = exact.to_bytes();
    let head = bytes.len() - 2;
    assert_eq!(&bytes[..head], &LEGACY_INDEX[..head]);
    assert_eq!(&bytes[head..], &[0, 0]);
    assert_eq!(
        exact.to_mapped_bytes().unwrap(),
        filter_sections(LEGACY_KGVI, |tag| tag <= 3)
    );
}
