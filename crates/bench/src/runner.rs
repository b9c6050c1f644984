//! Shared experiment machinery: model building, per-dataset system runs,
//! and benchmark sweeps.

use kgpip::{Kgpip, KgpipConfig};
use kgpip_benchdata::{generate_dataset, training_setup, CatalogEntry, ScaleConfig, TaskKind};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
use kgpip_graphgen::GeneratorConfig;
use kgpip_hpo::{Al, AutoSklearn, Flaml, Optimizer, TimeBudget};
use kgpip_learners::EstimatorKind;
use kgpip_tabular::train_test_split;
use rayon::prelude::*;

/// Knobs shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// End-to-end budget per dataset per system, in seconds (the paper
    /// uses 1 h / 30 min; scaled down per DESIGN.md).
    pub budget_secs: f64,
    /// Trial cap per dataset per system. On the authors' testbed a 1-hour
    /// budget buys tens-to-hundreds of trials; our cheap synthetic trials
    /// would otherwise saturate every system (see `kgpip_hpo::budget`).
    pub trials_per_system: usize,
    /// Runs to average (the paper reports averages over 3 runs).
    pub runs: usize,
    /// Number of predicted pipeline graphs K (Figure 7 sweeps 3/5/7).
    pub top_k: usize,
    /// Dataset synthesis scaling.
    pub scale: ScaleConfig,
    /// Training datasets per content domain.
    pub per_domain: usize,
    /// Mined scripts per training dataset.
    pub scripts_per_dataset: usize,
    /// Graph-generator training epochs.
    pub generator_epochs: usize,
    /// Worker threads for KGpip's skeleton searches and trial evaluation
    /// (1 = the sequential engines of the original evaluation).
    pub parallelism: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            budget_secs: 5.0,
            trials_per_system: 40,
            runs: 1,
            top_k: 3,
            scale: ScaleConfig::default(),
            per_domain: 3,
            scripts_per_dataset: 12,
            generator_epochs: 20,
            parallelism: 1,
            seed: 0,
        }
    }
}

impl ExperimentConfig {
    /// A very small configuration for smoke tests.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            // Generous wall clock so debug builds and loaded CI machines
            // never hit it; the trial cap is what keeps smoke tests fast.
            budget_secs: 10.0,
            trials_per_system: 15,
            scale: ScaleConfig {
                max_rows: 150,
                max_cols: 8,
            },
            per_domain: 1,
            scripts_per_dataset: 6,
            generator_epochs: 3,
            ..ExperimentConfig::default()
        }
    }
}

/// Builds and trains the KGpip model for the configured corpus.
pub fn build_model(cfg: &ExperimentConfig) -> Kgpip {
    let setup = training_setup(cfg.per_domain, &cfg.scale, cfg.seed);
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: cfg.scripts_per_dataset,
            unsupported_fraction: 0.25,
            seed: cfg.seed,
            ..CorpusConfig::default()
        },
    );
    Kgpip::train(
        &scripts,
        &setup.tables,
        KgpipConfig::default()
            .with_k(cfg.top_k)
            .with_seed(cfg.seed)
            .with_parallelism(cfg.parallelism)
            .with_generator(GeneratorConfig {
                epochs: cfg.generator_epochs,
                hidden: 24,
                prop_rounds: 2,
                seed: cfg.seed,
                ..GeneratorConfig::default()
            }),
    )
    .expect("synthetic corpus always yields valid pipelines")
}

/// The five systems under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Standalone FLAML-style engine (cold start).
    Flaml,
    /// KGpip driving the FLAML-style engine.
    KgpipFlaml,
    /// Standalone Auto-Sklearn-style engine.
    AutoSklearn,
    /// KGpip driving the Auto-Sklearn-style engine.
    KgpipAutoSklearn,
    /// The AL replay baseline.
    Al,
}

impl SystemKind {
    /// The four systems of Figure 5 / Tables 2 and 5.
    pub const MAIN: [SystemKind; 4] = [
        SystemKind::Flaml,
        SystemKind::KgpipFlaml,
        SystemKind::AutoSklearn,
        SystemKind::KgpipAutoSklearn,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Flaml => "FLAML",
            SystemKind::KgpipFlaml => "KGpipFLAML",
            SystemKind::AutoSklearn => "AutoSklearn",
            SystemKind::KgpipAutoSklearn => "KGpipAutoSklearn",
            SystemKind::Al => "AL",
        }
    }

    /// Whether this system needs a trained KGpip model.
    pub fn needs_model(&self) -> bool {
        matches!(self, SystemKind::KgpipFlaml | SystemKind::KgpipAutoSklearn)
    }
}

/// Details of a KGpip run kept for the ablation analyses.
#[derive(Debug, Clone)]
pub struct KgpipRunSummary {
    /// 1-based rank of the winning skeleton in generation order (§4.5.2).
    pub best_rank: usize,
    /// Estimators of the predicted skeletons in generation order (Fig. 8,
    /// §4.5.3).
    pub estimators: Vec<EstimatorKind>,
    /// The winning skeleton's estimator.
    pub top_estimator: EstimatorKind,
    /// Nearest-neighbour training dataset used for conditioning.
    pub neighbour: String,
    /// Generation + validation time `t` in seconds.
    pub generation_secs: f64,
}

/// The outcome of one system run on one dataset.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    /// Catalog dataset name.
    pub dataset: String,
    /// Task kind.
    pub task: TaskKind,
    /// Test-set score (macro-F1 / R², clamped at 0 as in the paper's
    /// radar plot); `None` when the system failed outright (AL).
    pub score: Option<f64>,
    /// KGpip-specific details.
    pub kgpip: Option<KgpipRunSummary>,
}

/// Runs one system on one catalog dataset for one seeded run.
pub fn run_on_dataset(
    system: SystemKind,
    model: Option<&Kgpip>,
    entry: &CatalogEntry,
    cfg: &ExperimentConfig,
    run_idx: usize,
) -> DatasetRun {
    let data_seed = cfg.seed.wrapping_add(entry.id as u64 * 1000);
    let run_seed = cfg
        .seed
        .wrapping_add(run_idx as u64 * 7919 + entry.id as u64);
    let ds = generate_dataset(entry, &cfg.scale, data_seed);
    let (train, test) =
        train_test_split(&ds, 0.3, data_seed).expect("generated datasets have >= 60 rows");
    let budget = TimeBudget::seconds(cfg.budget_secs).with_trial_cap(cfg.trials_per_system);

    let mut kgpip_summary = None;
    let score = match system {
        SystemKind::Flaml => {
            let mut engine = Flaml::new(run_seed);
            engine
                .optimize(&train, &budget)
                .ok()
                .and_then(|r| r.refit_score(&train, &test).ok())
        }
        SystemKind::AutoSklearn => {
            let mut engine = AutoSklearn::new(run_seed);
            engine
                .optimize(&train, &budget)
                .ok()
                .and_then(|r| r.refit_score(&train, &test).ok())
        }
        SystemKind::Al => {
            let mut engine = Al::new(run_seed);
            engine
                .optimize(&train, &budget)
                .ok()
                .and_then(|r| r.refit_score(&train, &test).ok())
        }
        SystemKind::KgpipFlaml | SystemKind::KgpipAutoSklearn => {
            let model = model.expect("KGpip systems require a trained model");
            let outcome = if system == SystemKind::KgpipFlaml {
                let mut engine = Flaml::new(run_seed);
                model.artifact().run(&train, &mut engine, budget)
            } else {
                let mut engine = AutoSklearn::new(run_seed);
                model.artifact().run(&train, &mut engine, budget)
            };
            outcome.ok().and_then(|run| {
                kgpip_summary = Some(KgpipRunSummary {
                    best_rank: run.best_index + 1,
                    estimators: run.predicted_estimators(),
                    top_estimator: run.results[run.best_index].skeleton.estimator,
                    neighbour: run.neighbour.clone(),
                    generation_secs: run.generation_time.as_secs_f64(),
                });
                run.best().refit_score(&train, &test).ok()
            })
        }
    };
    DatasetRun {
        dataset: entry.name.to_string(),
        task: entry.task,
        // Negative R² clamps to 0, as in the paper's plots/averages.
        score: score.map(|s| s.max(0.0)),
        kgpip: kgpip_summary,
    }
}

/// Per-dataset aggregation over runs.
#[derive(Debug, Clone)]
pub struct DatasetResult {
    /// Dataset name.
    pub dataset: String,
    /// Task kind.
    pub task: TaskKind,
    /// One entry per run.
    pub runs: Vec<DatasetRun>,
}

impl DatasetResult {
    /// Mean score over successful runs (`None` when all runs failed).
    pub fn mean_score(&self) -> Option<f64> {
        let scores: Vec<f64> = self.runs.iter().filter_map(|r| r.score).collect();
        if scores.is_empty() {
            None
        } else {
            Some(scores.iter().sum::<f64>() / scores.len() as f64)
        }
    }
}

/// All results of one system over a benchmark subset.
#[derive(Debug, Clone)]
pub struct SystemResults {
    /// Which system.
    pub system: SystemKind,
    /// Per-dataset aggregates, in catalog order.
    pub datasets: Vec<DatasetResult>,
}

impl SystemResults {
    /// Mean scores per dataset (failed datasets become 0.0, matching the
    /// paper's treatment of AL failures in its averages over the AL
    /// subset).
    pub fn scores_or_zero(&self) -> Vec<f64> {
        self.datasets
            .iter()
            .map(|d| d.mean_score().unwrap_or(0.0))
            .collect()
    }

    /// Mean (and population sd) of scores over datasets of one task.
    pub fn task_summary(&self, task: TaskKind) -> (f64, f64) {
        let scores: Vec<f64> = self
            .datasets
            .iter()
            .filter(|d| d.task == task)
            .map(|d| d.mean_score().unwrap_or(0.0))
            .collect();
        (crate::stats::mean(&scores), crate::stats::std_dev(&scores))
    }
}

/// Runs a set of systems over a benchmark subset, parallelized over
/// datasets. The KGpip model is trained once and shared.
pub fn evaluate(
    cfg: &ExperimentConfig,
    systems: &[SystemKind],
    entries: &[&CatalogEntry],
) -> Vec<SystemResults> {
    let model = if systems.iter().any(SystemKind::needs_model) {
        Some(build_model(cfg))
    } else {
        None
    };
    systems
        .iter()
        .map(|&system| {
            let datasets: Vec<DatasetResult> = entries
                .par_iter()
                .map(|entry| {
                    let runs: Vec<DatasetRun> = (0..cfg.runs)
                        .map(|r| run_on_dataset(system, model.as_ref(), entry, cfg, r))
                        .collect();
                    DatasetResult {
                        dataset: entry.name.to_string(),
                        task: entry.task,
                        runs,
                    }
                })
                .collect();
            SystemResults { system, datasets }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpip_benchdata::benchmark;

    #[test]
    fn quick_run_of_all_main_systems_on_one_dataset() {
        let cfg = ExperimentConfig::quick();
        let entry = &benchmark()[9]; // breast_cancer_wisconsin: small, clean
        let model = build_model(&cfg);
        for system in SystemKind::MAIN {
            let run = run_on_dataset(system, Some(&model), entry, &cfg, 0);
            let score = run.score.expect("main systems always produce a score");
            assert!(
                score > 0.5,
                "{}: score {score} on an easy dataset",
                system.name()
            );
            assert_eq!(run.kgpip.is_some(), system.needs_model());
        }
    }

    #[test]
    fn al_can_fail_cleanly() {
        let cfg = ExperimentConfig::quick();
        // A text dataset AL must refuse.
        let entry = benchmark()
            .iter()
            .find(|e| e.name == "spooky-author-identification")
            .unwrap();
        let run = run_on_dataset(SystemKind::Al, None, entry, &cfg, 0);
        assert_eq!(run.score, None);
    }

    #[test]
    fn evaluate_produces_full_grid() {
        let cfg = ExperimentConfig::quick();
        let entries: Vec<&CatalogEntry> = benchmark().iter().take(2).collect();
        let results = evaluate(&cfg, &[SystemKind::Flaml], &entries);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].datasets.len(), 2);
        assert_eq!(results[0].scores_or_zero().len(), 2);
    }
}
