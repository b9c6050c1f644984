//! Quickstart: train KGpip on a small mined corpus, then let it pick
//! pipelines for an unseen dataset and optimize them with the FLAML-style
//! backend.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kgpip::{Kgpip, KgpipConfig};
use kgpip_benchdata::{training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
use kgpip_graphgen::GeneratorConfig;
use kgpip_hpo::{Flaml, TimeBudget};
use kgpip_tabular::{Column, DataFrame, Dataset, Task};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A mined corpus: training tables (content) + notebooks (pipelines).
    //    In the paper this is 11.7K Kaggle scripts; here the benchdata
    //    crate synthesizes an equivalent.
    let scale = ScaleConfig::default();
    let setup = training_setup(2, &scale, 42);
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: 10,
            ..CorpusConfig::default()
        },
    );
    println!(
        "corpus: {} scripts over {} datasets",
        scripts.len(),
        setup.tables.len()
    );

    // 2. Offline phase: static analysis -> filter -> Graph4ML -> generator.
    let model = Kgpip::train(
        &scripts,
        &setup.tables,
        KgpipConfig::default()
            .with_k(3)
            .with_generator(GeneratorConfig {
                epochs: 8,
                ..GeneratorConfig::default()
            }),
    )?;
    let stats = model.stats();
    println!(
        "trained: {}/{} scripts usable, {} datasets, {} graph nodes, {:.1}s",
        stats.valid_pipelines,
        stats.scripts,
        stats.datasets,
        stats.total_nodes,
        stats.training_secs
    );

    // 3. An unseen dataset (binary classification with a nonlinear target).
    let n = 400;
    let x0: Vec<f64> = (0..n).map(|i| (i % 20) as f64).collect();
    let x1: Vec<f64> = (0..n).map(|i| ((i * 7) % 20) as f64).collect();
    let y: Vec<f64> = x0
        .iter()
        .zip(&x1)
        .map(|(a, b)| f64::from((a > &10.0) != (b > &10.0)))
        .collect();
    let features = DataFrame::from_columns(vec![
        ("x0".to_string(), Column::from_f64(x0)),
        ("x1".to_string(), Column::from_f64(x1)),
    ])?;
    let ds = Dataset::new("unseen", features, y, Task::Binary)?;

    // 4. Online phase: nearest dataset -> top-K graphs -> (T-t)/K HPO.
    let mut backend = Flaml::new(0);
    let run = model
        .artifact()
        .run(&ds, &mut backend, TimeBudget::seconds(5.0))?;
    println!("\nnearest training dataset: {}", run.neighbour);
    println!(
        "generation + validation took {:.3}s (the paper's t)",
        run.generation_time.as_secs_f64()
    );
    for (i, r) in run.results.iter().enumerate() {
        let score = r
            .hpo
            .as_ref()
            .map(|h| format!("{:.3}", h.valid_score))
            .unwrap_or_else(|| "failed".to_string());
        let marker = if i == run.best_index { " <= best" } else { "" };
        println!(
            "  rank {}: {:?} + {}  -> validation {}{}",
            i + 1,
            r.skeleton
                .transformers
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>(),
            r.skeleton.estimator.name(),
            score,
            marker
        );
    }
    println!(
        "\nbest pipeline: {} (macro-F1 {:.3} on validation)",
        run.best().spec.describe(),
        run.best_score()
    );
    Ok(())
}
