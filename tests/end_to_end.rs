//! Whole-system integration: trained KGpip against both HPO backends on
//! synthetic benchmark datasets, plus the AL failure pattern.

use kgpip_bench::runner::{build_model, run_on_dataset, ExperimentConfig, SystemKind};
use kgpip_benchdata::{benchmark, generate_dataset};
use kgpip_hpo::{Al, AutoSklearn, Flaml, Optimizer, TimeBudget};
use kgpip_tabular::train_test_split;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::quick()
}

#[test]
fn kgpip_runs_with_both_backends_on_every_task_kind() {
    let cfg = cfg();
    let model = build_model(&cfg);
    // One binary, one multi-class, one regression dataset.
    let picks = ["breast_cancer_wisconsin", "car_evaluation", "houses"];
    for name in picks {
        let entry = benchmark().iter().find(|e| e.name == name).unwrap();
        for system in [SystemKind::KgpipFlaml, SystemKind::KgpipAutoSklearn] {
            let run = run_on_dataset(system, Some(&model), entry, &cfg, 0);
            let score = run
                .score
                .unwrap_or_else(|| panic!("{}: {} failed", system.name(), name));
            assert!(
                (0.0..=1.0).contains(&score),
                "{name}/{}: score {score}",
                system.name()
            );
            let kg = run.kgpip.expect("kgpip systems report run details");
            assert!(kg.best_rank >= 1);
            assert!(!kg.estimators.is_empty());
            assert!(kg.generation_secs < 10.0, "generation must be near-instant");
        }
    }
}

#[test]
fn al_fails_on_text_and_many_class_datasets_but_works_on_clean_numeric() {
    let cfg = cfg();
    let mut failures = 0;
    let mut successes = 0;
    for entry in benchmark().iter().filter(|e| e.used_by_al) {
        let ds = generate_dataset(entry, &cfg.scale, 0);
        let (train, _) = train_test_split(&ds, 0.3, 0).unwrap();
        let mut al = Al::new(0);
        match al.optimize(&train, &TimeBudget::seconds(0.5)) {
            Ok(_) => successes += 1,
            Err(_) => failures += 1,
        }
    }
    // The paper's Figure 6 exists precisely because AL fails on a chunk of
    // its own benchmark while working on the rest.
    assert!(
        failures >= 3,
        "AL should fail on several datasets, got {failures}"
    );
    assert!(
        successes >= 5,
        "AL should work on several datasets, got {successes}"
    );
}

#[test]
fn budget_split_is_respected_end_to_end() {
    let cfg = cfg();
    let model = build_model(&cfg);
    let entry = benchmark().iter().find(|e| e.name == "phoneme").unwrap();
    let ds = generate_dataset(entry, &cfg.scale, 1);
    let (train, _) = train_test_split(&ds, 0.3, 1).unwrap();
    let total = 2.0f64;
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let mut backend = Flaml::new(0);
    let run = model
        .artifact()
        .run(&train, &mut backend, TimeBudget::seconds(total))
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    // (T - t)/K splitting plus per-trial overshoot: the run must finish
    // within a small multiple of the budget.
    assert!(
        elapsed < total * 3.0 + 2.0,
        "run took {elapsed:.1}s for a {total:.1}s budget"
    );
    assert!(run.results.len() <= model.artifact().config().top_k);
}

#[test]
fn capability_document_gates_skeletons() {
    let cfg = cfg();
    let model = build_model(&cfg);
    let entry = benchmark().iter().find(|e| e.name == "kc1").unwrap();
    let ds = generate_dataset(entry, &cfg.scale, 2);
    // A backend that only supports knn: every predicted skeleton must be
    // knn or the fallback.
    let narrow = Flaml::with_estimators(0, vec![kgpip_learners::EstimatorKind::Knn]);
    let caps = narrow.capabilities();
    let (skeletons, _) = model
        .artifact()
        .predict_skeletons(&ds, 3, &caps, 0)
        .unwrap();
    for (s, _) in &skeletons {
        assert!(
            s.estimator == kgpip_learners::EstimatorKind::Knn
                || s.estimator == kgpip_learners::EstimatorKind::XgBoost,
            "skeleton {} escaped the capability gate",
            s.estimator.name()
        );
    }
    // The full document admits everything the generator emits.
    let full = AutoSklearn::new(0).capabilities();
    let (skeletons, _) = model
        .artifact()
        .predict_skeletons(&ds, 3, &full, 0)
        .unwrap();
    assert!(!skeletons.is_empty());
}

#[test]
fn deterministic_reproduction_across_identical_configs() {
    let cfg = cfg();
    let model_a = build_model(&cfg);
    let model_b = build_model(&cfg);
    let entry = benchmark().iter().find(|e| e.name == "quake").unwrap();
    let ds = generate_dataset(entry, &cfg.scale, 3);
    let caps = Flaml::new(0).capabilities();
    let (sa, na) = model_a
        .artifact()
        .predict_skeletons(&ds, 3, &caps, 7)
        .unwrap();
    let (sb, nb) = model_b
        .artifact()
        .predict_skeletons(&ds, 3, &caps, 7)
        .unwrap();
    assert_eq!(na, nb, "nearest neighbour must be deterministic");
    let names = |v: &[(kgpip_hpo::Skeleton, f64)]| {
        v.iter()
            .map(|(s, _)| s.estimator.name())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&sa), names(&sb), "predictions must be deterministic");
}
