//! Byte-fuzz suite for the index decoders, gated by `scripts/check.sh`.
//!
//! Starting from valid `to_bytes` (snapshot section) and
//! `to_mapped_bytes` (`KGVI` file) payloads of exact and HNSW indexes,
//! the two legacy fixtures that still carry a product-quantization block
//! (see `legacy_pq.rs`), and an HNSW payload with a forged `m`, each case
//! applies random byte flips, a truncation, or an inflated 8-byte length
//! prefix. Decoding must return `Ok` or `Err` — never panic — and an
//! index that does decode must answer a query and accept one `register`
//! without panicking.

use kgpip_embeddings::{HnswConfig, VectorIndex};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The two shapes an index this build writes can take: exact and HNSW.
fn catalogs() -> Vec<VectorIndex> {
    let mut exact = VectorIndex::new();
    for i in 0..24 {
        let v: Vec<f64> = (0..6).map(|d| ((i * 6 + d) as f64 * 0.47).sin()).collect();
        exact.add(format!("ds{i}"), v);
    }
    let mut hnsw = exact.clone();
    hnsw.build_hnsw(HnswConfig::default());
    vec![exact, hnsw]
}

/// The HNSW catalog's index section with its graph's `m` forged to
/// `u64::MAX`: it decodes, and must then survive a `register`.
fn forged_m() -> Vec<u8> {
    let [exact, hnsw] = <[VectorIndex; 2]>::try_from(catalogs()).unwrap();
    let mut bytes = hnsw.to_bytes();
    // Catalog entries, then the IVF slot, the HNSW tag and its u64
    // length; the graph payload opens with `m`.
    let at = exact.to_bytes().len() - 3 + 1 + 1 + 8;
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes
}

/// Number of payloads [`payload`] serves.
const PAYLOADS: usize = 7;

/// Both encodings of every catalog shape, the legacy PQ fixtures, and the
/// forged-`m` section, built once per test binary.
fn payload(which: usize) -> Vec<u8> {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let mut all: Vec<Vec<u8>> = catalogs()
            .iter()
            .flat_map(|idx| [idx.to_bytes(), idx.to_mapped_bytes().unwrap()])
            .collect();
        all.push(include_bytes!("fixtures/legacy_pq.index").to_vec());
        all.push(include_bytes!("fixtures/legacy_pq.kgvi").to_vec());
        all.push(forged_m());
        all
    })[which]
        .clone()
}

/// Decodes `bytes` with both decoders; any index that loads must answer
/// and must grow by one online registration.
fn decode_both(bytes: &[u8]) {
    let query = [0.3, -0.2, 0.9, 0.1, 0.0, 0.5];
    for mut decoded in [
        VectorIndex::from_bytes(bytes),
        VectorIndex::from_mapped_bytes(bytes),
    ]
    .into_iter()
    .flatten()
    {
        let hits = decoded.search(&query, 3);
        assert!(hits.len() <= 3);
        let before = decoded.len();
        decoded.register("probe", query.to_vec());
        assert_eq!(decoded.len(), before + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn byte_flips_never_panic(
        which in 0usize..PAYLOADS,
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
    ) {
        let mut bytes = payload(which);
        for (at, mask) in flips {
            let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
            bytes[i] ^= mask as u8;
        }
        decode_both(&bytes);
    }

    #[test]
    fn truncations_never_panic(which in 0usize..PAYLOADS, keep in 0.0f64..1.0) {
        let bytes = payload(which);
        let keep = (bytes.len() as f64 * keep) as usize;
        decode_both(&bytes[..keep]);
    }

    #[test]
    fn inflated_length_prefixes_never_panic(
        which in 0usize..PAYLOADS,
        at in 0.0f64..1.0,
        shift in 8u32..64,
    ) {
        let mut bytes = payload(which);
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 8);
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[i..i + 8]);
        let inflated = u64::from_le_bytes(word).wrapping_add(1u64 << shift);
        bytes[i..i + 8].copy_from_slice(&inflated.to_le_bytes());
        decode_both(&bytes);
    }
}

/// Every unmutated payload decodes — the fuzz cases start from valid
/// inputs — and the ones this build writes re-encode to the same bytes.
#[test]
fn unmutated_payloads_roundtrip() {
    for idx in catalogs() {
        let snapshot = idx.to_bytes();
        let kgvi = idx.to_mapped_bytes().unwrap();
        let a = VectorIndex::from_bytes(&snapshot).unwrap();
        let b = VectorIndex::from_mapped_bytes(&kgvi).unwrap();
        assert_eq!(a.to_bytes(), snapshot);
        assert_eq!(b.to_mapped_bytes().unwrap(), kgvi);
    }
    for which in 0..PAYLOADS {
        decode_both(&payload(which));
    }
    assert!(VectorIndex::from_bytes(&payload(4)).is_ok());
    assert!(VectorIndex::from_mapped_bytes(&payload(5)).is_ok());
    assert!(VectorIndex::from_bytes(&payload(6)).is_ok());
}
