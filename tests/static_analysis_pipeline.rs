//! Cross-crate integration: synthetic corpus → static analysis → filter →
//! Graph4ML → generator training — the paper's offline workflow end to
//! end, with the Table-3 filtering claims checked along the way.

use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_codegraph::{analyze, filter_graph, Graph4Ml, OpVocab, PipelineOp};
use kgpip_graphgen::model::TypedGraph;
use kgpip_graphgen::{GeneratorConfig, GraphGenerator, TrainExample};

fn corpus() -> Vec<kgpip_codegraph::corpus::ScriptRecord> {
    let profiles = vec![
        DatasetProfile {
            has_missing: true,
            has_categorical: true,
            ..DatasetProfile::new("alpha", false)
        },
        DatasetProfile::new("beta", true),
    ];
    generate_corpus(
        &profiles,
        &CorpusConfig {
            scripts_per_dataset: 25,
            unsupported_fraction: 0.3,
            ..CorpusConfig::default()
        },
    )
}

#[test]
fn corpus_to_graph4ml_preserves_dataset_associations() {
    let scripts = corpus();
    let mut g4ml = Graph4Ml::new();
    for record in &scripts {
        let filtered = filter_graph(&analyze(&record.source).unwrap());
        if filtered.skeleton().is_some() {
            g4ml.add_pipeline(&record.dataset, &filtered);
        }
    }
    assert_eq!(g4ml.datasets().len(), 2);
    assert!(!g4ml.pipelines_for("alpha").is_empty());
    assert!(!g4ml.pipelines_for("beta").is_empty());
    // Every stored pipeline carries the dataset anchor and decodes.
    for (_, p) in g4ml.pipelines() {
        assert_eq!(p.ops[0], PipelineOp::Dataset);
        assert!(p.skeleton().is_some());
    }
}

#[test]
fn filtering_reduces_realistic_notebooks_by_over_90_percent() {
    // Kaggle notebooks are EDA-heavy (the paper's 72-line example script
    // yields ~1600 nodes); crank the noise to a realistic level.
    let scripts = generate_corpus(
        &[
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", true),
        ],
        &CorpusConfig {
            scripts_per_dataset: 25,
            unsupported_fraction: 0.3,
            eda_noise: 16,
            ..CorpusConfig::default()
        },
    );
    let mut raw_nodes = 0usize;
    let mut raw_edges = 0usize;
    let mut filt_nodes = 0usize;
    let mut filt_edges = 0usize;
    let mut usable = 0usize;
    for record in &scripts {
        let raw = analyze(&record.source).unwrap();
        let filtered = filter_graph(&raw);
        raw_nodes += raw.num_nodes();
        // GraphGen4Code's closure edges are counted, not stored.
        raw_edges += raw.num_edges() + raw.transitive_dataflow_pairs();
        filt_nodes += filtered.num_nodes();
        filt_edges += filtered.num_edges();
        if filtered.skeleton().is_some() {
            usable += 1;
        }
    }
    let node_reduction = 1.0 - filt_nodes as f64 / raw_nodes as f64;
    let edge_reduction = 1.0 - filt_edges as f64 / raw_edges as f64;
    assert!(
        node_reduction > 0.9,
        "node reduction {node_reduction:.3} (paper: >= 0.966)"
    );
    assert!(edge_reduction > 0.95, "edge reduction {edge_reduction:.3}");
    // "a vast portion of the 11.7K programs" is unusable: with 30%
    // torch/keras scripts, usable count must be roughly the remainder.
    assert!(usable < scripts.len());
    assert!(usable as f64 > scripts.len() as f64 * 0.5);
}

#[test]
fn generator_learns_the_mined_corpus() {
    let scripts = corpus();
    let vocab = OpVocab::new();
    let examples: Vec<TrainExample> = scripts
        .iter()
        .filter_map(|record| {
            let filtered = filter_graph(&analyze(&record.source).ok()?);
            filtered.skeleton()?;
            let emb = if record.dataset == "alpha" {
                let mut e = vec![0.0; 48];
                e[0] = 1.0;
                e
            } else {
                let mut e = vec![0.0; 48];
                e[1] = 1.0;
                e
            };
            Some(TrainExample {
                dataset_embedding: emb,
                graph: TypedGraph::encode(&filtered.with_dataset_node(), &vocab),
            })
        })
        .collect();
    assert!(examples.len() > 20);
    let mut generator = GraphGenerator::new(GeneratorConfig {
        hidden: 16,
        prop_rounds: 1,
        epochs: 6,
        seed: 13,
        ..GeneratorConfig::default()
    });
    let losses = generator.train(&examples);
    assert!(
        losses.last().unwrap() < &(losses[0] * 0.8),
        "loss should drop: {losses:?}"
    );
    // Conditional generation produces decodable pipelines most of the time.
    // The sampling seed is pinned; it was re-pinned when `generate_top_k`
    // moved to one derived RNG stream per attempt (which changes the
    // candidate set drawn for any given seed, not its quality).
    let prefix = TypedGraph::conditioning_prefix(&vocab);
    let mut emb = vec![0.0; 48];
    emb[0] = 1.0;
    let graphs = generator.generate_top_k(&emb, &prefix, 5, 1.2, 27);
    let valid = graphs
        .iter()
        .filter(|g| g.graph.decode(&vocab).skeleton().is_some())
        .count();
    assert!(
        valid >= 2,
        "at least 2 of {} generated graphs valid",
        graphs.len()
    );
}
