//! Byte-fuzz suite for the trained-artifact decoders, gated by
//! `scripts/check.sh`.
//!
//! Starting from valid `snapshot_bytes()` of an exact-tier artifact and
//! an HNSW-tier one whose index section carries a legacy
//! product-quantization block (as files of earlier builds do), each case
//! applies random byte flips, a truncation, or an inflated 8-byte length
//! prefix; a JSON-era model document gets flips and truncations. `Snapshot::from_bytes` and `TrainedModel::open` must
//! return `Ok` or a typed `KgpipError::Persistence` — never panic — and
//! any model that decodes must answer a nearest-dataset query without
//! panicking.

use kgpip::{Kgpip, KgpipConfig, KgpipError, Snapshot, TrainedModel};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_embeddings::{HnswConfig, VectorIndex};
use kgpip_graphgen::GeneratorConfig;
use kgpip_tabular::{Column, DataFrame};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;

fn table(offset: f64) -> DataFrame {
    DataFrame::from_columns(vec![
        (
            "a".to_string(),
            Column::from_f64((0..20).map(|i| offset + (i % 9) as f64).collect::<Vec<_>>()),
        ),
        (
            "b".to_string(),
            Column::from_f64((0..20).map(|i| (i % 2) as f64).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

/// An index section written by the last build with product quantization
/// (see `crates/embeddings/tests/legacy_pq.rs`).
const LEGACY_INDEX: &[u8] = include_bytes!("../../embeddings/tests/fixtures/legacy_pq.index");

struct Fixtures {
    /// `snapshot_bytes()` of the exact-tier artifact, and the HNSW-tier
    /// artifact's with the legacy PQ block spliced into its index section.
    snapshots: [Vec<u8>; 2],
    /// `snapshot_bytes()` of the HNSW-tier artifact: what the spliced
    /// snapshot re-encodes to.
    tiered: Vec<u8>,
    /// A JSON-era model document of the exact-tier artifact.
    json_era: String,
    /// Query width: the artifacts' embedding dimension.
    dim: usize,
}

/// The artifacts every case mutates, built once per test binary.
fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let profiles = vec![
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", false),
        ];
        let scripts = generate_corpus(
            &profiles,
            &CorpusConfig {
                scripts_per_dataset: 4,
                ..CorpusConfig::default()
            },
        );
        let tables = vec![
            ("alpha".to_string(), table(0.0)),
            ("beta".to_string(), table(100.0)),
        ];
        let config = KgpipConfig::default().with_generator(GeneratorConfig {
            hidden: 4,
            prop_rounds: 1,
            epochs: 1,
            ..GeneratorConfig::default()
        });
        let run = Kgpip::train(&scripts, &tables, config).unwrap();
        let exact = run.artifact().clone();
        let mut tiered = exact.clone();
        for i in 0..12 {
            let name = format!("extra{i}");
            tiered
                .register_dataset(&name, &table(7.0 * i as f64 + 3.0))
                .unwrap();
        }
        tiered.build_hnsw_index(HnswConfig::default());
        let tiered = tiered.snapshot_bytes().unwrap();
        Fixtures {
            snapshots: [exact.snapshot_bytes().unwrap(), with_legacy_pq(&tiered)],
            tiered,
            json_era: json_era_document(&run),
            dim: exact.embedding_center().len(),
        }
    })
}

/// Rewrites a snapshot so its index section ends with the legacy
/// fixture's PQ block (`1 · u64 len · payload`) instead of the absent
/// slot `0`.
fn with_legacy_pq(snapshot: &[u8]) -> Vec<u8> {
    let slot = VectorIndex::from_bytes(LEGACY_INDEX)
        .unwrap()
        .to_bytes()
        .len()
        - 1;
    let pq_block = &LEGACY_INDEX[slot..];
    assert_eq!(pq_block[0], 1, "the fixture carries a PQ block");
    let mut out = snapshot[..8].to_vec();
    let mut pos = 8;
    while pos < snapshot.len() {
        let tag = u32::from_le_bytes(snapshot[pos..pos + 4].try_into().unwrap());
        let len = u64::from_le_bytes(snapshot[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let mut payload = snapshot[pos + 12..pos + 12 + len].to_vec();
        if tag == 5 {
            assert_eq!(payload.pop(), Some(0), "PQ slot absent");
            payload.extend_from_slice(pq_block);
        }
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        pos += 12 + len;
    }
    out
}

/// Renders a training run in the JSON-era document layout, train-time
/// `graph4ml` and `stats` keys included.
fn json_era_document(run: &Kgpip) -> String {
    let artifact = run.artifact();
    let index = artifact.index();
    let embeddings: HashMap<String, Vec<f64>> = (0..index.len())
        .map(|i| {
            let name = index.name(i);
            (
                name.to_string(),
                artifact.embedding_of(name).unwrap().to_vec(),
            )
        })
        .collect();
    format!(
        "{{\"config\":{},\"embedding_center\":{},\"vocab\":{},\"generator\":{},\
         \"index\":{},\"embeddings\":{},\"graph4ml\":{},\
         \"stats\":{{\"scripts\":{},\"epoch_losses\":[1.0]}}}}",
        serde_json::to_string(artifact.config()).unwrap(),
        serde_json::to_string(artifact.embedding_center()).unwrap(),
        serde_json::to_string(artifact.vocab()).unwrap(),
        serde_json::to_string(artifact.generator()).unwrap(),
        serde_json::to_string(index).unwrap(),
        serde_json::to_string(&embeddings).unwrap(),
        serde_json::to_string(run.graph4ml()).unwrap(),
        run.stats().scripts,
    )
}

/// A decoded model must answer a nearest-dataset query without panicking.
fn answers(model: &TrainedModel) {
    let query: Vec<f64> = (0..fixtures().dim)
        .map(|d| (d as f64 * 0.3).sin())
        .collect();
    let _ = model.nearest_by_embedding(&query);
}

/// Either decodes or fails with a typed persistence error.
fn typed(result: kgpip::Result<TrainedModel>) {
    match result {
        Ok(model) => answers(&model),
        Err(KgpipError::Persistence(_)) => {}
        Err(other) => panic!("untyped decode failure: {other:?}"),
    }
}

/// Decodes snapshot bytes in memory and through `TrainedModel::open`.
fn decode_snapshot(bytes: &[u8], file: &str) {
    typed(Snapshot::from_bytes(bytes).map(|s| s.model));
    open_bytes(bytes, file);
}

/// Writes `bytes` to a per-test scratch file and opens it.
fn open_bytes(bytes: &[u8], file: &str) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("kgpip_snapshot_fuzz_{}_{file}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let opened = TrainedModel::open(&path);
    std::fs::remove_file(&path).ok();
    typed(opened);
}

fn flip(bytes: &mut [u8], flips: Vec<(f64, u32)>) {
    for (at, mask) in flips {
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[i] ^= mask as u8;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn snapshot_byte_flips_never_panic(
        which in 0usize..2,
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
    ) {
        let mut bytes = fixtures().snapshots[which].clone();
        flip(&mut bytes, flips);
        decode_snapshot(&bytes, "flips");
    }

    #[test]
    fn snapshot_truncations_never_panic(which in 0usize..2, keep in 0.0f64..1.0) {
        let bytes = &fixtures().snapshots[which];
        let keep = (bytes.len() as f64 * keep) as usize;
        decode_snapshot(&bytes[..keep], "truncations");
    }

    #[test]
    fn snapshot_inflated_length_prefixes_never_panic(
        which in 0usize..2,
        at in 0.0f64..1.0,
        shift in 8u32..64,
    ) {
        let mut bytes = fixtures().snapshots[which].clone();
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 8);
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[i..i + 8]);
        let inflated = u64::from_le_bytes(word).wrapping_add(1u64 << shift);
        bytes[i..i + 8].copy_from_slice(&inflated.to_le_bytes());
        decode_snapshot(&bytes, "inflated");
    }

    #[test]
    fn json_era_byte_flips_never_panic(
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
    ) {
        let mut bytes = fixtures().json_era.clone().into_bytes();
        flip(&mut bytes, flips);
        open_bytes(&bytes, "json_flips");
    }

    #[test]
    fn json_era_truncations_never_panic(keep in 0.0f64..1.0) {
        let bytes = fixtures().json_era.as_bytes();
        let keep = (bytes.len() as f64 * keep) as usize;
        open_bytes(&bytes[..keep], "json_truncations");
    }
}

/// The fuzz cases start from valid inputs: every unmutated payload
/// decodes and re-encodes to the snapshot this build writes — the legacy
/// PQ block dropped.
#[test]
fn unmutated_payloads_decode() {
    let f = fixtures();
    for (bytes, written) in f.snapshots.iter().zip([&f.snapshots[0], &f.tiered]) {
        let model = Snapshot::from_bytes(bytes).unwrap().model;
        assert_eq!(&model.snapshot_bytes().unwrap(), written);
    }
    assert_ne!(f.snapshots[1], f.tiered);
    let path = std::env::temp_dir().join(format!(
        "kgpip_snapshot_fuzz_{}_unmutated.json",
        std::process::id()
    ));
    std::fs::write(&path, &f.json_era).unwrap();
    let opened = TrainedModel::open(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(opened.unwrap().snapshot_bytes().unwrap(), f.snapshots[0]);
}
