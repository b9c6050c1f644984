//! Set-up: train → `snapshot_bytes` → reopen, repeated and timed.
//!
//! The model has the shape of the experiment harness's configuration
//! (hidden 24, 2 propagation rounds, 3 training datasets per content
//! domain, so a 24-dataset catalog) with few enough epochs that one set-up
//! takes seconds. Generation cost per request depends on this shape, so the
//! shape is part of every workload.

use crate::measure::{ms, percentile, Tally};
use kgpip::{Kgpip, KgpipConfig, Snapshot, TrainedModel};
use kgpip_benchdata::{training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
use kgpip_graphgen::GeneratorConfig;
use std::time::Instant;

/// Set-ups per run; the reported times are their medians.
const REPEATS: usize = 3;
const PER_DOMAIN: usize = 3;
const SCRIPTS_PER_DATASET: usize = 8;
const EPOCHS: usize = 2;
const MODEL_SEED: u64 = 0;

pub struct Setup {
    /// The reopened artifact every workload runs against.
    pub model: TrainedModel,
    /// Median seconds of train → snapshot → reopen.
    pub setup_s: f64,
    pub mining_s: f64,
    pub train_embed_s: f64,
    pub graph_train_s: f64,
    pub snapshot_ms: f64,
    pub open_ms: f64,
    /// One operation per set-up: it fails when the reopened artifact does
    /// not re-serialize to the bytes it was opened from, or when a repeat
    /// trained a different model.
    pub tally: Tally,
}

impl Setup {
    pub fn build() -> Result<Setup, String> {
        let training = training_setup(PER_DOMAIN, &ScaleConfig::default(), MODEL_SEED);
        let scripts = generate_corpus(
            &training.profiles,
            &CorpusConfig {
                scripts_per_dataset: SCRIPTS_PER_DATASET,
                unsupported_fraction: 0.25,
                seed: MODEL_SEED,
                ..CorpusConfig::default()
            },
        );
        let config = KgpipConfig::default()
            .with_k(3)
            .with_seed(MODEL_SEED)
            .with_parallelism(1)
            .with_generator(GeneratorConfig {
                epochs: EPOCHS,
                hidden: 24,
                prop_rounds: 2,
                seed: MODEL_SEED,
                ..GeneratorConfig::default()
            });

        let mut rounds: Vec<[f64; 6]> = Vec::with_capacity(REPEATS);
        let mut tally = Tally::default();
        let mut first_bytes: Option<Vec<u8>> = None;
        let mut model = None;
        for _ in 0..REPEATS {
            let started = Instant::now();
            let run = Kgpip::train(&scripts, &training.tables, config.clone())
                .map_err(|e| format!("training failed: {e}"))?;
            let trained = started.elapsed();
            let bytes = run
                .artifact()
                .snapshot_bytes()
                .map_err(|e| format!("snapshot failed: {e}"))?;
            let snapshotted = started.elapsed();
            let reopened = Snapshot::from_bytes(&bytes)
                .map_err(|e| format!("reopening the snapshot failed: {e}"))?
                .model;
            let total = started.elapsed();

            let round_trips = reopened.snapshot_bytes().is_ok_and(|again| again == bytes);
            let repeats = first_bytes.as_ref().is_none_or(|first| *first == bytes);
            tally.record(round_trips && repeats);
            let stats = run.stats();
            rounds.push([
                total.as_secs_f64(),
                stats.mining_secs,
                stats.embedding_secs,
                stats.training_secs,
                ms(snapshotted - trained),
                ms(total - snapshotted),
            ]);
            first_bytes.get_or_insert(bytes);
            model = Some(reopened);
        }
        let median = |i: usize| percentile(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>(), 50.0);
        Ok(Setup {
            model: model.ok_or("no set-up ran")?,
            setup_s: median(0),
            mining_s: median(1),
            train_embed_s: median(2),
            graph_train_s: median(3),
            snapshot_ms: median(4),
            open_ms: median(5),
            tally,
        })
    }
}
