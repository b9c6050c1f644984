//! The serving invariant: answers from the batched, cached, concurrent
//! server are **bit-identical** to direct `TrainedModel::predict_skeletons`
//! calls — at any serve width (which also sets each request's generation
//! fan-out), any batch size, with caching on or off, and across model
//! hot-swaps and online registrations.

use kgpip::TrainedModel;
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_hpo::{Flaml, Optimizer, Skeleton};
use kgpip_serve::{ServeConfig, ServeError, ServeHandle, ServeRequest};
use kgpip_tabular::{Column, DataFrame, Task};

fn table_like(offset: f64, n: usize) -> DataFrame {
    DataFrame::from_columns(vec![
        (
            "f0".to_string(),
            Column::from_f64((0..n).map(|i| offset + (i % 10) as f64).collect::<Vec<_>>()),
        ),
        (
            "f1".to_string(),
            Column::from_f64((0..n).map(|i| offset + (i % 7) as f64).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

fn trained_artifact(seed: u64) -> TrainedModel {
    let profiles = vec![
        DatasetProfile::new("alpha", false),
        DatasetProfile::new("beta", false),
    ];
    let scripts = generate_corpus(
        &profiles,
        &CorpusConfig {
            scripts_per_dataset: 6,
            unsupported_fraction: 0.0,
            seed,
            ..CorpusConfig::default()
        },
    );
    let tables = vec![
        ("alpha".to_string(), table_like(0.0, 30)),
        ("beta".to_string(), table_like(500.0, 30)),
    ];
    let config = kgpip::KgpipConfig::default().with_generator(kgpip_graphgen::GeneratorConfig {
        hidden: 10,
        prop_rounds: 1,
        epochs: 3,
        seed,
        ..kgpip_graphgen::GeneratorConfig::default()
    });
    kgpip::Kgpip::train(&scripts, &tables, config)
        .unwrap()
        .into_artifact()
}

fn query_tables() -> Vec<DataFrame> {
    (0..10)
        .map(|i| table_like(i as f64 * 37.0, 20 + i))
        .collect()
}

fn assert_bit_identical(a: &[(Skeleton, f64)], b: &[(Skeleton, f64)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length");
    for (i, ((s1, g1), (s2, g2))) in a.iter().zip(b).enumerate() {
        assert_eq!(s1, s2, "{context}: skeleton {i}");
        assert_eq!(g1.to_bits(), g2.to_bits(), "{context}: score {i}");
    }
}

/// Served predictions equal direct ones at every (workers × max_batch)
/// combination, for a wave of simultaneously-submitted requests.
#[test]
fn serve_is_bit_identical_to_direct_predictions() {
    let model = trained_artifact(0);
    let caps = Flaml::new(0).capabilities();
    let tables = query_tables();
    let direct: Vec<_> = tables
        .iter()
        .map(|t| model.predict_table(t, Task::Binary, 3, &caps, 5).unwrap())
        .collect();

    for workers in [1usize, 2, 4] {
        for max_batch in [1usize, 8] {
            let server = ServeHandle::start(
                model.share(),
                ServeConfig::default()
                    .with_workers(workers)
                    .with_max_batch(max_batch)
                    .with_cache_capacity(64),
            );
            // Submit the whole wave first so workers actually coalesce.
            let pending: Vec<_> = tables
                .iter()
                .map(|t| {
                    server.submit(ServeRequest {
                        table: t.clone(),
                        task: Task::Binary,
                        k: 3,
                        seed: 5,
                    })
                })
                .collect();
            for (i, p) in pending.into_iter().enumerate() {
                let response = p.wait().unwrap();
                let context = format!("workers={workers} batch={max_batch} table={i}");
                assert_bit_identical(&response.skeletons, &direct[i].0, &context);
                assert_eq!(response.neighbour, direct[i].1, "{context}");
                assert_eq!(response.model_epoch, 0, "{context}");
                assert!(response.batch_size >= 1 && response.batch_size <= max_batch);
            }
            let stats = server.shutdown();
            assert_eq!(stats.served, tables.len() as u64);
            assert!(stats.batches >= 1);
            assert!(
                stats.batches <= stats.served,
                "batches never exceed requests"
            );
        }
    }
}

/// The serve width is the served model's parallelism: a model trained at
/// `parallelism = 1` and served at 1, 2 or 3 workers answers a burst
/// bit-identically to direct prediction at `parallelism = 1` — before and
/// after an online registration and a hot-swap, which both install
/// models at the serve width.
#[test]
fn serving_is_bit_identical_at_any_serve_width() {
    let model = trained_artifact(0);
    let swapped = trained_artifact(7);
    assert_eq!(model.config().parallelism, 1);
    assert_eq!(swapped.config().parallelism, 1);
    let novel = table_like(9000.0, 26);
    let mut grown = model.clone();
    grown.register_dataset("novel", &novel).unwrap();
    let caps = Flaml::new(0).capabilities();
    let mut tables = query_tables();
    tables.push(novel.clone());
    let direct = |m: &TrainedModel| -> Vec<_> {
        tables
            .iter()
            .map(|t| m.predict_table(t, Task::Binary, 3, &caps, 5).unwrap())
            .collect()
    };
    let expected = [direct(&model), direct(&grown), direct(&swapped)];

    for workers in [1usize, 2, 3] {
        let server = ServeHandle::start(
            model.share(),
            ServeConfig::default()
                .with_workers(workers)
                .with_max_batch(8),
        );
        let burst = |epoch: u64| {
            let pending: Vec<_> = tables
                .iter()
                .map(|t| {
                    server.submit(ServeRequest {
                        table: t.clone(),
                        task: Task::Binary,
                        k: 3,
                        seed: 5,
                    })
                })
                .collect();
            for (i, p) in pending.into_iter().enumerate() {
                let response = p.wait().unwrap();
                let want = &expected[epoch as usize][i];
                let context = format!("workers={workers} epoch={epoch} table={i}");
                assert_eq!(response.model_epoch, epoch, "{context}");
                assert_bit_identical(&response.skeletons, &want.0, &context);
                assert_eq!(response.neighbour, want.1, "{context}");
            }
        };
        burst(0);
        assert_eq!(server.register_dataset("novel", &novel).unwrap(), 1);
        burst(1);
        assert_eq!(server.swap_model(swapped.share()), 2);
        burst(2);
        server.shutdown();
    }
}

/// Repeating a request hits the result cache and replays the identical
/// answer; the counters account for every probe.
#[test]
fn result_cache_hits_replay_identical_answers() {
    let model = trained_artifact(1);
    let server = ServeHandle::start(
        model.share(),
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(8),
    );
    let request = ServeRequest {
        table: table_like(3.0, 25),
        task: Task::Binary,
        k: 3,
        seed: 9,
    };
    let first = server.predict(request.clone()).unwrap();
    assert!(!first.cached);
    let second = server.predict(request.clone()).unwrap();
    assert!(second.cached, "identical request must hit the cache");
    assert_bit_identical(&first.skeletons, &second.skeletons, "cache replay");
    assert_eq!(first.neighbour, second.neighbour);

    // A different seed is a different request.
    let third = server
        .predict(ServeRequest {
            seed: 10,
            ..request
        })
        .unwrap();
    assert!(!third.cached);

    let stats = server.shutdown();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.cache.hits, 1);
    assert!(stats.cache.misses >= 2);
    assert_eq!(stats.swaps, 0);
}

/// Hot-swapping under concurrent load: every response must be bit-
/// identical to the direct prediction of the model its epoch names —
/// never a blend of old and new.
#[test]
fn hot_swap_under_load_never_blends_models() {
    let model_a = trained_artifact(0);
    let model_b = trained_artifact(7);
    let caps = Flaml::new(0).capabilities();
    let tables = query_tables();
    let direct_a: Vec<_> = tables
        .iter()
        .map(|t| model_a.predict_table(t, Task::Binary, 3, &caps, 5).unwrap())
        .collect();
    let direct_b: Vec<_> = tables
        .iter()
        .map(|t| model_b.predict_table(t, Task::Binary, 3, &caps, 5).unwrap())
        .collect();

    let server = ServeHandle::start(
        model_a.share(),
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_cache_capacity(64),
    );
    let mut responses = Vec::new();
    for round in 0..6 {
        let pending: Vec<_> = tables
            .iter()
            .map(|t| {
                server.submit(ServeRequest {
                    table: t.clone(),
                    task: Task::Binary,
                    k: 3,
                    seed: 5,
                })
            })
            .collect();
        if round == 2 {
            let epoch = server.swap_model(model_b.share());
            assert_eq!(epoch, 1);
        }
        responses.push(
            pending
                .into_iter()
                .map(|p| p.wait().unwrap())
                .collect::<Vec<_>>(),
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.swaps, 1);

    let mut saw_old = false;
    let mut saw_new = false;
    for wave in &responses {
        for (i, response) in wave.iter().enumerate() {
            let (expected, label) = match response.model_epoch {
                0 => (&direct_a[i], "epoch0"),
                1 => (&direct_b[i], "epoch1"),
                other => panic!("unexpected epoch {other}"),
            };
            match response.model_epoch {
                0 => saw_old = true,
                _ => saw_new = true,
            }
            assert_bit_identical(
                &response.skeletons,
                &expected.0,
                &format!("{label} table={i}"),
            );
            assert_eq!(response.neighbour, expected.1);
        }
    }
    assert!(saw_old, "some waves ran before the swap");
    assert!(saw_new, "some waves ran after the swap");
    // Final waves must all be on the new model.
    assert!(responses.last().unwrap().iter().all(|r| r.model_epoch == 1));
}

/// Typed prediction failures travel back to the caller instead of
/// killing a worker.
#[test]
fn prediction_errors_are_typed_not_fatal() {
    let model = trained_artifact(0);
    let server = ServeHandle::start(model.share(), ServeConfig::default().with_workers(1));
    let err = server
        .predict(ServeRequest {
            table: table_like(1.0, 20),
            task: Task::Binary,
            k: 0,
            seed: 0,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Predict(kgpip::KgpipError::NoValidSkeleton)
    ));
    // The worker survived; a well-formed request still answers.
    let ok = server
        .predict(ServeRequest {
            table: table_like(1.0, 20),
            task: Task::Binary,
            k: 3,
            seed: 0,
        })
        .unwrap();
    assert!(!ok.skeletons.is_empty());
    server.shutdown();
}

/// An untrusted `k` whose sampling budget overflows is refused with the
/// typed error instead of panicking or pinning the worker (and the pool
/// helpers it fans out to); the next request is answered as usual.
#[test]
fn overflowing_k_is_a_typed_error_at_any_serve_width() {
    let model = trained_artifact(0);
    let caps = Flaml::new(0).capabilities();
    let table = table_like(1.0, 20);
    let direct = model
        .predict_table(&table, Task::Binary, 3, &caps, 0)
        .unwrap();
    for workers in [1usize, 2] {
        let server =
            ServeHandle::start(model.share(), ServeConfig::default().with_workers(workers));
        let err = server
            .predict(ServeRequest {
                table: table.clone(),
                task: Task::Binary,
                k: usize::MAX,
                seed: 0,
            })
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Predict(kgpip::KgpipError::NoValidSkeleton)),
            "workers={workers}: {err}"
        );
        let ok = server
            .predict(ServeRequest {
                table: table.clone(),
                task: Task::Binary,
                k: 3,
                seed: 0,
            })
            .unwrap();
        let context = format!("workers={workers} after overflowing k");
        assert_bit_identical(&ok.skeletons, &direct.0, &context);
        assert_eq!(ok.neighbour, direct.1, "{context}");
        server.shutdown();
    }
}

/// Online dataset registration grows the served catalog under a new
/// epoch: post-registration queries can retrieve the new dataset, the
/// cache never replays pre-registration answers for the grown model, and
/// duplicate names are refused without touching the slot.
#[test]
fn register_dataset_grows_the_served_catalog() {
    let model = trained_artifact(0);
    let server = ServeHandle::start(
        model.share(),
        ServeConfig::default()
            .with_workers(2)
            .with_cache_capacity(16),
    );
    // A table very unlike the training ones; before registration its
    // neighbour is whatever the trained catalog offers.
    let novel = table_like(9000.0, 26);
    let before = server
        .predict(ServeRequest {
            table: novel.clone(),
            task: Task::Binary,
            k: 2,
            seed: 3,
        })
        .unwrap();
    assert_eq!(before.model_epoch, 0);

    let epoch = server.register_dataset("novel", &novel).unwrap();
    assert_eq!(epoch, 1);
    let after = server
        .predict(ServeRequest {
            table: novel.clone(),
            task: Task::Binary,
            k: 2,
            seed: 3,
        })
        .unwrap();
    assert_eq!(after.model_epoch, 1);
    assert!(
        !after.cached,
        "epoch bump must keep pre-registration cache entries out"
    );
    assert_eq!(
        after.neighbour, "novel",
        "the registered dataset is its own nearest neighbour"
    );

    // Duplicate registration is a typed error and does not bump epochs.
    let err = server.register_dataset("novel", &novel).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Predict(kgpip::KgpipError::DuplicateDataset(_))
    ));
    assert_eq!(server.model_epoch(), 1);

    let stats = server.shutdown();
    assert_eq!(stats.registered, 1);
    assert_eq!(stats.swaps, 0, "registration is not a hot-swap");
}

/// Dropping the handle closes the queue but drains every request that
/// was already submitted — no request is silently lost.
#[test]
fn drop_drains_pending_requests() {
    let model = trained_artifact(0);
    let server = ServeHandle::start(
        model.share(),
        ServeConfig::default().with_workers(1).with_max_batch(2),
    );
    let pending: Vec<_> = (0..5)
        .map(|i| {
            server.submit(ServeRequest {
                table: table_like(i as f64, 20),
                task: Task::Binary,
                k: 2,
                seed: 0,
            })
        })
        .collect();
    drop(server);
    for p in pending {
        assert!(p.wait().is_ok(), "submitted requests are drained on drop");
    }
}
