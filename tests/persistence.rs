//! Model persistence: KGPS snapshots are the only format anything writes,
//! but JSON-era model documents written by earlier builds must keep
//! opening — through [`TrainedModel::open`] and through `kgpip-cli
//! snapshot`, the migration route — with bit-identical predictions.

use kgpip::TrainedModel;
use kgpip_bench::runner::{build_model, ExperimentConfig};
use kgpip_benchdata::{benchmark, generate_dataset};
use kgpip_hpo::{Flaml, Optimizer};
use std::collections::HashMap;
use std::process::Command;

/// Renders `model` in the JSON-era document layout: the six artifact
/// fields plus the train-time `graph4ml` and `stats` keys that old files
/// carry and the loader skips.
fn json_era_document(model: &kgpip::Kgpip) -> String {
    let artifact = model.artifact();
    let index = artifact.index();
    let embeddings: HashMap<String, Vec<f64>> = (0..index.len())
        .map(|i| {
            let name = index.name(i);
            let vector = artifact.embedding_of(name).expect("cataloged").to_vec();
            (name.to_string(), vector)
        })
        .collect();
    let stats = model.stats();
    format!(
        "{{\"config\":{},\"embedding_center\":{},\"vocab\":{},\"generator\":{},\
         \"index\":{},\"embeddings\":{},\"graph4ml\":{},\"stats\":{{\"scripts\":{},\
         \"valid_pipelines\":{},\"unparsable\":{},\"datasets\":{},\"total_nodes\":{},\
         \"total_edges\":{},\"training_secs\":0.5,\"epoch_losses\":[1.0,0.5]}}}}",
        serde_json::to_string(artifact.config()).unwrap(),
        serde_json::to_string(artifact.embedding_center()).unwrap(),
        serde_json::to_string(artifact.vocab()).unwrap(),
        serde_json::to_string(artifact.generator()).unwrap(),
        serde_json::to_string(index).unwrap(),
        serde_json::to_string(&embeddings).unwrap(),
        serde_json::to_string(model.graph4ml()).unwrap(),
        stats.scripts,
        stats.valid_pipelines,
        stats.unparsable,
        stats.datasets,
        stats.total_nodes,
        stats.total_edges,
    )
}

/// A JSON-era model file must load into the `TrainedModel` artifact —
/// directly and after `kgpip-cli snapshot` converts it — with
/// *bit-identical* prediction behaviour.
#[test]
fn json_era_file_opens_as_trained_model_unchanged() {
    let cfg = ExperimentConfig::quick();
    let model = build_model(&cfg);
    let dir = std::env::temp_dir().join("kgpip_persistence_compat_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    std::fs::write(&path, json_era_document(&model)).unwrap();
    let converted = dir.join("model.kgps");
    let out = Command::new(env!("CARGO_BIN_EXE_kgpip-cli"))
        .args(["snapshot", "--model", path.to_str().unwrap()])
        .args(["--out", converted.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "kgpip-cli snapshot failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let expected = model.artifact();
    let caps = Flaml::new(0).capabilities();
    for artifact in [
        TrainedModel::open(&path).unwrap(),
        TrainedModel::open(&converted).unwrap(),
    ] {
        assert_eq!(artifact.catalog_len(), expected.catalog_len());
        assert!(artifact.catalog_len() > 0);
        for entry in benchmark().iter().take(3) {
            let ds = generate_dataset(entry, &cfg.scale, entry.id as u64);
            let (a, na) = expected.predict_skeletons(&ds, 3, &caps, 42).unwrap();
            let (b, nb) = artifact.predict_skeletons(&ds, 3, &caps, 42).unwrap();
            assert_eq!(na, nb, "{}", entry.name);
            assert_eq!(a.len(), b.len(), "{}", entry.name);
            for ((s1, g1), (s2, g2)) in a.iter().zip(&b) {
                assert_eq!(s1, s2, "{}", entry.name);
                assert_eq!(g1.to_bits(), g2.to_bits(), "{}", entry.name);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_rejects_garbage() {
    assert!(TrainedModel::open("/nonexistent/path/model.kgps").is_err());
    let dir = std::env::temp_dir().join("kgpip_persistence_garbage_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    std::fs::write(&path, "{not json").unwrap();
    assert!(TrainedModel::open(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
