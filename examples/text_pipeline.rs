//! A text-classification scenario (the paper's
//! `spooky-author-identification` motif): the dataset is mostly free
//! text, which the AL baseline hard-fails on ("it failed on many of the
//! datasets during the fitting process") while KGpip's preprocessing
//! vectorizes it and proceeds — the Figure-6 contrast in miniature.
//!
//! ```sh
//! cargo run --release --example text_pipeline
//! ```

use kgpip::{Kgpip, KgpipConfig};
use kgpip_benchdata::{training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
use kgpip_hpo::{Al, Flaml, Optimizer, TimeBudget};
use kgpip_tabular::{train_test_split, Column, DataFrame, Dataset, Task};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three "authors" with distinct vocabularies.
    let vocab: [&[&str]; 3] = [
        &["midnight", "raven", "shadow", "dreary", "phantom", "sorrow"],
        &["whale", "voyage", "harbor", "captain", "compass", "tide"],
        &["garden", "meadow", "blossom", "spring", "lark", "morning"],
    ];
    let n = 450;
    let mut texts = Vec::with_capacity(n);
    let mut lengths = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let author = i % 3;
        let words = vocab[author];
        let len = 5 + (i * 7) % 6;
        let sentence: Vec<&str> = (0..len)
            .map(|w| words[(i * 3 + w * 5) % words.len()])
            .collect();
        let joined = sentence.join(" ");
        lengths.push(joined.len() as f64);
        texts.push(Some(joined));
        labels.push(author as f64);
    }
    let features = DataFrame::from_columns(vec![
        ("excerpt".to_string(), Column::text(texts)),
        ("length".to_string(), Column::from_f64(lengths)),
    ])?;
    let ds = Dataset::new("spooky-like", features, labels, Task::MultiClass(3))?;
    let (train, test) = train_test_split(&ds, 0.3, 3)?;
    println!(
        "dataset: {} rows, kinds {:?}, task {}",
        ds.num_rows(),
        ds.features.kind_counts(),
        ds.task
    );

    // AL: replay-based, no text path -> hard failure, as in the paper.
    let mut al = Al::new(0);
    match al.optimize(&train, &TimeBudget::seconds(2.0)) {
        Ok(r) => println!("AL unexpectedly succeeded: {:.3}", r.valid_score),
        Err(e) => println!("AL: {e}"),
    }

    // KGpip: text columns are hash-vectorized by the encoder; the
    // predicted skeletons run unchanged.
    let setup = training_setup(2, &ScaleConfig::default(), 9);
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: 10,
            ..CorpusConfig::default()
        },
    );
    let model = Kgpip::train(&scripts, &setup.tables, KgpipConfig::default().with_k(3))?;
    let mut backend = Flaml::new(0);
    let run = model
        .artifact()
        .run(&train, &mut backend, TimeBudget::seconds(5.0))?;
    let score = run.best().refit_score(&train, &test)?;
    println!(
        "KGpip+FLAML: {} -> test macro-F1 {:.3}",
        run.best().spec.describe(),
        score
    );
    assert!(score > 0.5, "text signal should be recoverable");
    Ok(())
}
