//! Bit-for-bit determinism suite for the parallel generator engine.
//!
//! The contract (DESIGN.md "Tensor kernels & parallel training"): every
//! public entry point of [`GraphGenerator`] produces identical results at
//! any `parallelism` setting — identical epoch losses, identical trained
//! parameters, identical sampled graphs and log-probabilities. Worker
//! count is a throughput knob, never a semantics knob.

use kgpip_codegraph::{OpVocab, PipelineOp};
use kgpip_graphgen::model::TypedGraph;
use kgpip_graphgen::{GeneratorConfig, GraphGenerator, TrainExample};

/// A small two-dataset corpus with deterministic pipelines per dataset.
fn corpus(vocab: &OpVocab) -> Vec<TrainExample> {
    let ds = vocab.id(PipelineOp::Dataset);
    let read = vocab.id(PipelineOp::ReadCsv);
    let scaler = vocab.id(PipelineOp::Transformer(1));
    let xgb = vocab.id(PipelineOp::Estimator(11));
    let logreg = vocab.id(PipelineOp::Estimator(0));
    let mut emb_a = vec![0.0; 48];
    emb_a[0] = 1.0;
    let mut emb_b = vec![0.0; 48];
    emb_b[1] = 1.0;
    let mut out = Vec::new();
    for _ in 0..5 {
        out.push(TrainExample {
            dataset_embedding: emb_a.clone(),
            graph: TypedGraph {
                types: vec![ds, read, scaler, xgb],
                edges: vec![(0, 1), (1, 2), (2, 3)],
            },
        });
        out.push(TrainExample {
            dataset_embedding: emb_b.clone(),
            graph: TypedGraph {
                types: vec![ds, read, logreg],
                edges: vec![(0, 1), (1, 2)],
            },
        });
    }
    out
}

fn config(parallelism: usize) -> GeneratorConfig {
    GeneratorConfig {
        hidden: 12,
        prop_rounds: 1,
        epochs: 4,
        batch_size: 4,
        learning_rate: 0.02,
        seed: 11,
        parallelism,
        ..GeneratorConfig::default()
    }
}

/// Serializes a generator's state with the parallelism knob normalized,
/// so two generators that differ only in worker count compare equal.
fn state_fingerprint(generator: &mut GraphGenerator) -> String {
    generator.set_parallelism(1);
    serde_json::to_string(generator).expect("generator serializes")
}

/// 64-bit FNV-1a digest, so a fingerprint can be pinned as one constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// Outputs of `corpus` under `config(1)`, pinned. They hold across commits,
// not only across worker counts: a refactor that moves a trained weight, a
// loss bit or a sampled score fails here instead of passing silently.
// Re-record only with a change that is meant to alter what the generator
// computes.

/// `fnv1a(state_fingerprint(..))` of the generator trained on `corpus`.
const TRAINED_STATE_FNV: u64 = 0x91dc_66a8_86ae_9b33;
/// `f32::to_bits` of each epoch's mean loss.
const EPOCH_LOSS_BITS: [u32; 4] = [1068914870, 1065972442, 1060797723, 1056853605];
/// One ranked candidate: `(types, edges, log_prob.to_bits())`.
type Pinned<'a> = (&'a [usize], &'a [(usize, usize)], u64);
/// `generate_top_k(emb_a, prefix, 3, 1.2, 42)` on the trained generator,
/// in rank order.
const TOP_K: &[Pinned] = &[
    (&[0, 1], &[(0, 1)], 13831441484053642692),
    (&[0, 1, 13], &[(0, 1), (1, 2)], 13836776275530888072),
    (
        &[0, 1, 1, 13],
        &[(0, 1), (1, 2), (2, 3)],
        13840469643943963388,
    ),
];

#[test]
fn train_is_bitwise_identical_at_any_worker_count() {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut sequential = GraphGenerator::new(config(1));
    let losses_seq = sequential.train(&examples);
    let loss_bits: Vec<u32> = losses_seq.iter().map(|l| l.to_bits()).collect();
    let state_fnv = fnv1a(state_fingerprint(&mut sequential).as_bytes());
    assert_eq!(loss_bits, EPOCH_LOSS_BITS, "epoch losses moved");
    assert_eq!(state_fnv, TRAINED_STATE_FNV, "trained parameters moved");
    for workers in [2, 4] {
        let mut parallel = GraphGenerator::new(config(workers));
        let losses_par = parallel.train(&examples);
        assert_eq!(losses_seq.len(), losses_par.len());
        for (epoch, (a, b)) in losses_seq.iter().zip(&losses_par).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "epoch {epoch} loss diverged at parallelism {workers}: {a} vs {b}"
            );
        }
        assert_eq!(
            state_fingerprint(&mut sequential),
            state_fingerprint(&mut parallel),
            "trained parameters diverged at parallelism {workers}"
        );
    }
}

#[test]
fn evaluate_is_bitwise_identical_at_any_worker_count() {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut generator = GraphGenerator::new(config(1));
    generator.train(&examples);
    let sequential = generator.evaluate(&examples);
    for workers in [2, 3, 5] {
        generator.set_parallelism(workers);
        let parallel = generator.evaluate(&examples);
        assert_eq!(
            sequential.to_bits(),
            parallel.to_bits(),
            "evaluate diverged at parallelism {workers}"
        );
    }
}

#[test]
fn generate_top_k_is_identical_at_any_worker_count() {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut generator = GraphGenerator::new(config(1));
    generator.train(&examples);
    let prefix = TypedGraph::conditioning_prefix(&vocab);
    let mut emb = vec![0.0; 48];
    emb[0] = 1.0;
    let sequential = generator.generate_top_k(&emb, &prefix, 3, 1.2, 42);
    let pinned: Vec<Pinned> = sequential
        .iter()
        .map(|g| {
            (
                g.graph.types.as_slice(),
                g.graph.edges.as_slice(),
                g.log_prob.to_bits(),
            )
        })
        .collect();
    assert_eq!(pinned, TOP_K, "sampled graphs or scores moved");
    // k = 3 spends 12 attempts and k = 9 (the served oversampling) 36; the
    // widths 5 and 8 divide neither, so one fan-out ends on a partial
    // round of workers.
    for k in [3, 9] {
        generator.set_parallelism(1);
        let sequential = generator.generate_top_k(&emb, &prefix, k, 1.2, 42);
        for workers in [2, 3, 5, 8] {
            generator.set_parallelism(workers);
            let parallel = generator.generate_top_k(&emb, &prefix, k, 1.2, 42);
            assert_eq!(sequential.len(), parallel.len());
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    s.graph, p.graph,
                    "graph diverged at k {k}, parallelism {workers}"
                );
                assert_eq!(
                    s.log_prob.to_bits(),
                    p.log_prob.to_bits(),
                    "log-prob diverged at k {k}, parallelism {workers}"
                );
            }
        }
    }
}

/// A budget too large for one fan-out (k = 1100 spends 4400 attempts)
/// runs as consecutive fan-outs merged in attempt order, identical at any
/// worker count.
#[test]
fn budgets_beyond_one_fan_out_are_identical_at_any_worker_count() {
    let mut generator = GraphGenerator::new(GeneratorConfig {
        vocab_size: 3,
        embed_dim: 4,
        hidden: 6,
        prop_rounds: 1,
        max_nodes: 3,
        max_edges_per_node: 1,
        seed: 5,
        ..GeneratorConfig::default()
    });
    let prefix = TypedGraph {
        types: vec![0, 1],
        edges: vec![(0, 1)],
    };
    let emb = vec![0.3; 4];
    let sequential = generator.generate_top_k(&emb, &prefix, 1100, 1.0, 9);
    for workers in [2, 3] {
        generator.set_parallelism(workers);
        let parallel = generator.generate_top_k(&emb, &prefix, 1100, 1.0, 9);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.graph, p.graph, "graph diverged at parallelism {workers}");
            assert_eq!(
                s.log_prob.to_bits(),
                p.log_prob.to_bits(),
                "log-prob diverged at parallelism {workers}"
            );
        }
    }
}

/// The distinct-candidate target stops sampling at a wave boundary: the
/// early-exited result is a subset of the full-budget result, identical
/// at any worker count, and never larger than the full budget's output.
#[test]
fn distinct_target_early_exit_is_deterministic_and_bounded() {
    // Tiny untrained model over a 3-type vocabulary with at most one
    // generated node: at most 10 possible graphs, so every distinct graph
    // fits within k and truncation never hides the subset relation.
    let base = GeneratorConfig {
        vocab_size: 3,
        embed_dim: 4,
        hidden: 6,
        prop_rounds: 1,
        max_nodes: 3,
        max_edges_per_node: 1,
        seed: 5,
        ..GeneratorConfig::default()
    };
    let prefix = TypedGraph {
        types: vec![0, 1],
        edges: vec![(0, 1)],
    };
    let emb = vec![0.3; 4];
    let k = 16; // attempts = 64; far above the distinct-graph count
    let full = GraphGenerator::new(base.clone()).generate_top_k(&emb, &prefix, k, 1.0, 9);
    let capped = GraphGenerator::new(GeneratorConfig {
        distinct_target: Some(2),
        ..base.clone()
    })
    .generate_top_k(&emb, &prefix, k, 1.0, 9);
    assert!(capped.len() >= 2, "target of 2 distinct graphs was reached");
    assert!(capped.len() <= full.len());
    for g in &capped {
        assert!(
            full.iter().any(|f| f.graph == g.graph),
            "early-exited candidate missing from the full-budget run"
        );
    }
    // And the early exit is itself worker-count independent.
    let mut parallel = GraphGenerator::new(GeneratorConfig {
        distinct_target: Some(2),
        parallelism: 4,
        ..base
    });
    parallel.set_parallelism(4);
    let capped_par = parallel.generate_top_k(&emb, &prefix, k, 1.0, 9);
    assert_eq!(capped.len(), capped_par.len());
    for (a, b) in capped.iter().zip(&capped_par) {
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
    }
}
