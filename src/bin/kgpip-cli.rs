//! `kgpip-cli` — train, snapshot, and serve KGpip models from the command
//! line.
//!
//! ```text
//! kgpip-cli train   --scripts DIR --tables DIR --out model.kgps [--epochs N] [--seed S]
//! kgpip-cli snapshot --model model.json --out model.kgps
//! kgpip-cli predict --model model.kgps --data data.csv --target COL [--k 3]
//! kgpip-cli predict --model model.kgps --data big.csv --chunked
//!                   [--chunk-rows 8192] [--workers N]
//!                   [--task binary|multiclass:N|regression] [--k 3]
//! kgpip-cli run     --model model.kgps --data data.csv --target COL
//!                   [--budget-secs 30] [--trials 100] [--backend flaml|autosklearn]
//!                   [--k 3] [--parallelism N]
//! kgpip-cli serve   --model model.kgps [--workers 2] [--batch 8] [--k 3]
//!                   [--task binary|multiclass:N|regression] [--seed 0]
//! kgpip-cli demo    [--budget-secs 5] [--parallelism N]
//! kgpip-cli lint-corpus [--datasets 4] [--scripts-per-dataset 50] [--seed 0]
//!                   [--malformed-fraction 0.05] [--helper-fraction 0.25]
//! kgpip-cli xlint   [--json] [--config rules.json] [--root DIR]
//! kgpip-cli index build --out catalog.kgvi (--model model.kgps | --n 100000)
//!                   [--dim 32] [--clusters 64] [--seed 0] [--tier auto|exact|hnsw]
//! kgpip-cli index query --index catalog.kgvi [--k 10] [--queries 200]
//!                   [--seed 1] [--recall]
//! kgpip-cli index stats --index catalog.kgvi
//! ```
//!
//! Model files: `train` always writes the binary snapshot format
//! (KGPS), whatever `--out` is named. `--model` everywhere also accepts
//! the JSON-era model documents of earlier builds — the loader sniffs the
//! file magic — and `snapshot` converts either format to a snapshot.
//!
//! `serve` starts the batched prediction service and reads requests from
//! stdin, one CSV path per line; each line is answered with the top-K
//! pipeline skeletons for that table.
//!
//! `predict --chunked` is the larger-than-RAM path: the CSV is ingested
//! through the streaming chunked reader (`--chunk-rows` rows per chunk,
//! `--workers` parse workers, bounded resident buffers) and the table is
//! embedded from chunk statistics plus a bounded row sample — the
//! assembled `DataFrame` is never materialized. No `--target` is needed;
//! pass the task kind via `--task` (default `binary`). For tables at or
//! below the embedding sample bound the predictions are bit-identical to
//! the in-memory path on the same columns.
//!
//! `lint-corpus` generates a synthetic corpus, runs the recovering
//! analyzer + filter over every script, and verifies the graph-lint
//! invariants on every produced graph (raw, filtered, Graph4ML). It
//! prints recovered diagnostics and exits non-zero if any invariant is
//! violated.
//!
//! `xlint` runs the workspace's own static-analysis pass (`kgpip-xlint`)
//! over every crate's Rust sources, enforcing the determinism & serving
//! house rules. Exits non-zero when any unsuppressed diagnostic remains;
//! `--json` emits the full machine-readable report (findings plus every
//! justified suppression).
//!
//! `index` manages standalone `.kgvi` similarity-catalog files, which
//! decode into the same `VectorIndex` a trained model searches.
//! `build` exports a model's catalog (`--model`) or a seeded synthetic
//! one (`--n/--dim/--clusters`); `--tier auto` builds the HNSW graph
//! once the catalog crosses the auto-tune threshold. Both tiers search
//! the one full-precision vector block; files written by earlier builds
//! with product-quantization sections open on their HNSW or exact tier.
//! `query` measures queries/sec over seeded synthetic probes and, with
//! `--recall`, scores the graph tier's recall@K against the exact scan.
//! `stats` prints the catalog's shape, tier, and per-component resident
//! bytes.
//!
//! Layout expected by `train`:
//! * `--scripts DIR` — one subdirectory per dataset, each containing the
//!   mined `.py` notebooks for that dataset (`DIR/<dataset>/<name>.py`),
//! * `--tables DIR` — one `<dataset>.csv` per dataset for content
//!   embeddings.

use kgpip::{Kgpip, KgpipConfig, TrainedModel};
use kgpip_codegraph::corpus::ScriptRecord;
use kgpip_hpo::{AutoSklearn, Flaml, Optimizer, TimeBudget};
use kgpip_serve::{ServeConfig, ServeHandle, ServeRequest};
use kgpip_tabular::{csv, DataFrame, Dataset, Task};
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let result = match command {
        "train" => cmd_train(&flag),
        "snapshot" => cmd_snapshot(&flag),
        "predict" => cmd_predict(&args, &flag),
        "run" => cmd_run(&flag),
        "serve" => cmd_serve(&flag),
        "demo" => cmd_demo(&flag),
        "lint-corpus" => cmd_lint_corpus(&flag),
        "xlint" => cmd_xlint(&args, &flag),
        "index" => cmd_index(&args, &flag),
        _ => {
            eprintln!(
                "usage: kgpip-cli <train|snapshot|predict|run|serve|demo|lint-corpus|xlint|index> [flags]\n\
                 see the module docs (`kgpip-cli --help` output) for flags"
            );
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn require(flag: &impl Fn(&str) -> Option<String>, name: &str) -> Result<String, String> {
    flag(name).ok_or_else(|| format!("missing required flag {name} <value>"))
}

fn read_table(path: &Path) -> Result<DataFrame, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(csv::read_frame(&text)?)
}

fn cmd_train(flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    let scripts_dir = require(flag, "--scripts")?;
    let tables_dir = require(flag, "--tables")?;
    let out = require(flag, "--out")?;
    let epochs: usize = flag("--epochs").and_then(|v| v.parse().ok()).unwrap_or(15);
    let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(0);

    // Collect scripts grouped by dataset directory.
    let mut scripts = Vec::new();
    for entry in std::fs::read_dir(&scripts_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let dataset = entry.file_name().to_string_lossy().to_string();
        for file in std::fs::read_dir(entry.path())? {
            let file = file?;
            let path = file.path();
            if path.extension().and_then(|e| e.to_str()) == Some("py") {
                scripts.push(ScriptRecord {
                    dataset: dataset.clone(),
                    source: std::fs::read_to_string(&path)?,
                });
            }
        }
    }
    // Collect tables.
    let mut tables = Vec::new();
    for entry in std::fs::read_dir(&tables_dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("csv") {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            tables.push((name, read_table(&path)?));
        }
    }
    eprintln!(
        "training on {} scripts across {} tables...",
        scripts.len(),
        tables.len()
    );
    let config =
        KgpipConfig::default()
            .with_seed(seed)
            .with_generator(kgpip_graphgen::GeneratorConfig {
                epochs,
                seed,
                ..kgpip_graphgen::GeneratorConfig::default()
            });
    let model = Kgpip::train(&scripts, &tables, config)?;
    let stats = model.stats();
    eprintln!(
        "trained: {}/{} scripts usable, {} datasets, {:.1}s generator training",
        stats.valid_pipelines, stats.scripts, stats.datasets, stats.training_secs
    );
    model.artifact().snapshot(&out)?;
    eprintln!("model written to {out}");
    Ok(())
}

/// Converts a model file (JSON-era or snapshot) into the binary snapshot
/// format.
fn cmd_snapshot(flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    let model_path = require(flag, "--model")?;
    let out = require(flag, "--out")?;
    let model = TrainedModel::open(&model_path)?;
    model.snapshot(&out)?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "snapshot written to {out} ({} datasets, {bytes} bytes)",
        model.catalog_len()
    );
    Ok(())
}

fn load_dataset(
    flag: &impl Fn(&str) -> Option<String>,
) -> Result<Dataset, Box<dyn std::error::Error>> {
    let data = require(flag, "--data")?;
    let target = require(flag, "--target")?;
    let frame = read_table(Path::new(&data))?;
    Ok(Dataset::from_frame(
        Path::new(&data)
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_else(|| "dataset".into()),
        frame,
        &target,
    )?)
}

/// Parses the `--task` flag shared by `predict --chunked` and `serve`.
fn parse_task(spec: Option<&str>) -> Result<Task, String> {
    match spec {
        None | Some("binary") => Ok(Task::Binary),
        Some("regression") => Ok(Task::Regression),
        Some(spec) => match spec
            .strip_prefix("multiclass:")
            .and_then(|n| n.parse().ok())
        {
            Some(classes) => Ok(Task::MultiClass(classes)),
            None => Err(format!("unknown task {spec}")),
        },
    }
}

fn cmd_predict(args: &[String], flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    let model_path = require(flag, "--model")?;
    let k: usize = flag("--k").and_then(|v| v.parse().ok()).unwrap_or(3);
    let model = TrainedModel::open(&model_path)?;
    let caps = Flaml::new(0).capabilities();
    let (skeletons, neighbour) = if args.iter().any(|a| a == "--chunked") {
        // Larger-than-RAM path: chunked ingest with bounded resident parse
        // buffers, then embedding from chunk statistics — the assembled
        // frame never exists.
        let data = require(flag, "--data")?;
        let task = parse_task(flag("--task").as_deref())?;
        let opts = kgpip_tabular::ChunkedReadOptions {
            chunk_rows: flag("--chunk-rows")
                .and_then(|v| v.parse().ok())
                .unwrap_or(8192),
            parallelism: flag("--workers").and_then(|v| v.parse().ok()).unwrap_or(1),
            bounded_memory: true,
        };
        let text = std::fs::read_to_string(&data)?;
        let (frame, report) = kgpip_tabular::read_chunked_with_report(&text, &opts)?;
        drop(text);
        eprintln!(
            "chunked ingest: {} rows in {} chunk(s) of ≤ {} rows on {} worker(s), peak {} resident chunk(s)",
            report.rows, report.chunks, opts.chunk_rows, report.workers, report.peak_resident_chunks
        );
        model.predict_table_chunked(&frame, task, k, &caps, 0)?
    } else {
        let ds = load_dataset(flag)?;
        eprintln!(
            "dataset: {} rows, {} features, task {}",
            ds.num_rows(),
            ds.num_features(),
            ds.task
        );
        model.predict_skeletons(&ds, k, &caps, 0)?
    };
    println!("nearest seen dataset: {neighbour}");
    for (i, (s, score)) in skeletons.iter().enumerate() {
        println!(
            "{}. {} > {}   (generation score {score:.2})",
            i + 1,
            s.transformers
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(" > "),
            s.estimator.name()
        );
    }
    Ok(())
}

fn cmd_run(flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    let model_path = require(flag, "--model")?;
    let budget: f64 = flag("--budget-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(30.0);
    let backend_name = flag("--backend").unwrap_or_else(|| "flaml".into());
    let mut model = TrainedModel::open(&model_path)?;
    if let Some(parallelism) = flag("--parallelism").and_then(|v| v.parse().ok()) {
        model.set_parallelism(parallelism);
    }
    let ds = load_dataset(flag)?;
    let mut time_budget = TimeBudget::seconds(budget);
    if let Some(trials) = flag("--trials").and_then(|v| v.parse().ok()) {
        time_budget = time_budget.with_trial_cap(trials);
    }
    let k: usize = flag("--k").and_then(|v| v.parse().ok()).unwrap_or(3);
    let run = match backend_name.as_str() {
        "autosklearn" => {
            let mut backend = AutoSklearn::new(0);
            model.run_k(&ds, &mut backend, time_budget, k)?
        }
        _ => {
            let mut backend = Flaml::new(0);
            model.run_k(&ds, &mut backend, time_budget, k)?
        }
    };
    println!("nearest seen dataset: {}", run.neighbour);
    println!(
        "generation + validation: {:.2}s",
        run.generation_time.as_secs_f64()
    );
    for (i, r) in run.results.iter().enumerate() {
        let score = r
            .hpo
            .as_ref()
            .map(|h| format!("{:.3}", h.valid_score))
            .unwrap_or_else(|| "failed".into());
        println!(
            "  rank {}: {} -> validation {}{}",
            i + 1,
            r.hpo
                .as_ref()
                .map(|h| h.spec.describe())
                .unwrap_or_else(|| r.skeleton.estimator.name().to_string()),
            score,
            if i == run.best_index { "  <= best" } else { "" }
        );
    }
    println!(
        "\nbest pipeline: {}  (validation {:.3})",
        run.best().spec.describe(),
        run.best_score()
    );
    Ok(())
}

/// Starts the batched prediction service over a model file and answers
/// requests read from stdin (one CSV path per line) until EOF.
fn cmd_serve(flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    let model_path = require(flag, "--model")?;
    let workers: usize = flag("--workers").and_then(|v| v.parse().ok()).unwrap_or(2);
    let batch: usize = flag("--batch").and_then(|v| v.parse().ok()).unwrap_or(8);
    let k: usize = flag("--k").and_then(|v| v.parse().ok()).unwrap_or(3);
    let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let task = parse_task(flag("--task").as_deref())?;

    let model = TrainedModel::open(&model_path)?;
    eprintln!(
        "serving {model_path} ({} datasets) on {workers} worker(s), batch ≤ {batch}",
        model.catalog_len()
    );
    let server = ServeHandle::start(
        model.share(),
        ServeConfig::default()
            .with_workers(workers)
            .with_max_batch(batch),
    );
    eprintln!("enter one CSV path per line (EOF to stop):");
    for line in std::io::stdin().lines() {
        let line = line?;
        let path = line.trim();
        if path.is_empty() {
            continue;
        }
        let table = match read_table(Path::new(path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read table: {e}");
                continue;
            }
        };
        match server.predict(ServeRequest {
            table,
            task,
            k,
            seed,
        }) {
            Ok(response) => {
                println!(
                    "{path}: nearest {} ({}, batch of {})",
                    response.neighbour,
                    if response.cached {
                        "cached"
                    } else {
                        "computed"
                    },
                    response.batch_size
                );
                for (i, (s, score)) in response.skeletons.iter().enumerate() {
                    let mut stages: Vec<&str> = s.transformers.iter().map(|t| t.name()).collect();
                    stages.push(s.estimator.name());
                    println!(
                        "  {}. {}   (generation score {score:.2})",
                        i + 1,
                        stages.join(" > ")
                    );
                }
            }
            Err(e) => eprintln!("{path}: {e}"),
        }
    }
    let stats = server.shutdown();
    eprintln!(
        "served {} request(s) in {} batch(es); cache {}/{} hit(s)",
        stats.served,
        stats.batches,
        stats.cache.hits,
        stats.cache.hits + stats.cache.misses
    );
    Ok(())
}

/// Generates a synthetic corpus (including intentionally malformed and
/// helper-wrapped scripts), analyzes every script with the recovering
/// analyzer, and verifies the graph-lint invariants on every graph.
fn cmd_lint_corpus(flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
    use kgpip_codegraph::{
        analyze_with_diagnostics, filter_graph, lint_code_graph, lint_graph4ml,
        lint_pipeline_graph, lint_reduction, Graph4Ml, Severity,
    };

    let n_datasets: usize = flag("--datasets").and_then(|v| v.parse().ok()).unwrap_or(4);
    let scripts_per_dataset: usize = flag("--scripts-per-dataset")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let malformed_fraction: f64 = flag("--malformed-fraction")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let helper_fraction: f64 = flag("--helper-fraction")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);

    let profiles: Vec<DatasetProfile> = (0..n_datasets)
        .map(|i| {
            let mut p = DatasetProfile::new(format!("lintds_{i}"), i % 2 == 1);
            p.has_missing = i % 2 == 0;
            p.has_categorical = i % 3 == 0;
            p
        })
        .collect();
    let cfg = CorpusConfig {
        scripts_per_dataset,
        unsupported_fraction: 0.2,
        helper_fraction,
        malformed_fraction,
        seed,
        ..CorpusConfig::default()
    };
    let scripts = generate_corpus(&profiles, &cfg);

    let mut graph4ml = Graph4Ml::new();
    let mut violations = Vec::new();
    let mut n_error_diags = 0usize;
    let mut n_warning_diags = 0usize;
    let mut scripts_with_diags = 0usize;
    let mut shown = 0usize;
    for (i, record) in scripts.iter().enumerate() {
        let (raw, diags) = analyze_with_diagnostics(&record.source);
        if !diags.is_empty() {
            scripts_with_diags += 1;
        }
        for d in &diags {
            match d.severity {
                Severity::Error => n_error_diags += 1,
                Severity::Warning => n_warning_diags += 1,
            }
            if shown < 8 {
                println!("script #{i} ({}): {d}", record.dataset);
                shown += 1;
            }
        }
        let filtered = filter_graph(&raw);
        violations.extend(lint_code_graph(&raw));
        violations.extend(lint_pipeline_graph(&filtered));
        violations.extend(lint_reduction(&raw, &filtered));
        if filtered.skeleton().is_some() {
            graph4ml.add_pipeline(&record.dataset, &filtered);
        }
    }
    violations.extend(lint_graph4ml(&graph4ml));

    println!(
        "lint-corpus: {} scripts over {} datasets (seed {seed})",
        scripts.len(),
        profiles.len()
    );
    println!(
        "  recovered diagnostics: {n_error_diags} errors + {n_warning_diags} warnings across {scripts_with_diags} scripts"
    );
    println!(
        "  graph4ml: {} pipelines, {} nodes, {} edges",
        graph4ml.pipelines().len(),
        graph4ml.total_nodes(),
        graph4ml.total_edges()
    );
    if violations.is_empty() {
        println!("  invariant violations: 0");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("  violation: {v}");
        }
        Err(format!("{} graph invariant violation(s)", violations.len()).into())
    }
}

/// Runs the kgpip-xlint house rules over the workspace sources and exits
/// non-zero if any unsuppressed diagnostic remains.
fn cmd_xlint(args: &[String], flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    use kgpip_xlint::{lint_workspace, WorkspaceConfig};
    let config = match flag("--config") {
        Some(path) => WorkspaceConfig::from_json(&std::fs::read_to_string(&path)?)?,
        None => WorkspaceConfig::house(),
    };
    let root = flag("--root").unwrap_or_else(|| ".".to_string());
    let report = lint_workspace(Path::new(&root), &config)?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} unsuppressed xlint finding(s)", report.diagnostics.len()).into())
    }
}

/// Builds, queries, and inspects standalone `.kgvi` similarity-catalog
/// files (`kgpip_embeddings::VectorIndex::open_mapped`).
// The CLI prints build times and queries/sec for humans; wall-clock here
// never reaches a compute result.
#[allow(clippy::disallowed_methods)]
fn cmd_index(args: &[String], flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    use kgpip_benchdata::{recall_at_k, synthetic_embeddings};
    use kgpip_embeddings::{HnswConfig, VectorIndex};
    use std::time::Instant;

    match args.get(1).map(String::as_str) {
        Some("build") => {
            let out = require(flag, "--out")?;
            let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(0);
            let tier = flag("--tier").unwrap_or_else(|| "auto".into());
            let started = Instant::now();
            let mut index = if let Some(model_path) = flag("--model") {
                TrainedModel::open(&model_path)?.index().clone()
            } else {
                let n: usize = require(flag, "--n")?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?;
                let dim: usize = flag("--dim").and_then(|v| v.parse().ok()).unwrap_or(32);
                let clusters: usize = flag("--clusters")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(64);
                let mut idx = VectorIndex::new();
                for (i, v) in synthetic_embeddings(n, dim, clusters, seed)
                    .into_iter()
                    .enumerate()
                {
                    idx.add(format!("t{i}"), v);
                }
                idx
            };
            let want_hnsw = match tier.as_str() {
                "hnsw" => true,
                "exact" => false,
                "auto" => index.len() >= VectorIndex::HNSW_AUTO_THRESHOLD,
                other => return Err(format!("unknown tier `{other}` (auto|exact|hnsw)").into()),
            };
            if want_hnsw {
                index.build_hnsw(HnswConfig {
                    seed,
                    ..HnswConfig::default()
                });
            }
            index.write_mapped(&out)?;
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            eprintln!(
                "index written to {out}: {} vectors, tier {}, {bytes} bytes, {:.2}s",
                index.len(),
                if want_hnsw { "hnsw" } else { "exact" },
                started.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Some("query") => {
            let path = require(flag, "--index")?;
            let k: usize = flag("--k").and_then(|v| v.parse().ok()).unwrap_or(10);
            let queries: usize = flag("--queries")
                .and_then(|v| v.parse().ok())
                .unwrap_or(200);
            let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
            let index = VectorIndex::open_mapped(&path)?;
            if index.is_empty() {
                return Err("index holds no vectors".into());
            }
            // A distinct derived seed keeps probes off the catalog points
            // even when both were synthesized with the same base seed.
            let probes = synthetic_embeddings(queries, index.stats().dim, 32, seed ^ 0x9e37_79b9);
            let started = Instant::now();
            let mut retrieved = 0usize;
            for q in &probes {
                retrieved += index.search(q, k).len();
            }
            let elapsed = started.elapsed().as_secs_f64();
            println!(
                "{} probes x top-{k} over {} vectors (tier {}): {:.0} queries/sec ({retrieved} results)",
                probes.len(),
                index.len(),
                index.tier(),
                probes.len() as f64 / elapsed.max(1e-9),
            );
            if args.iter().any(|a| a == "--recall") {
                let mut total = 0.0;
                for q in &probes {
                    total += recall_at_k(&index.top_k(q, k), &index.search(q, k), k);
                }
                println!(
                    "recall@{k} vs exact scan: {:.3}",
                    total / probes.len() as f64
                );
            }
            Ok(())
        }
        Some("stats") => {
            let path = require(flag, "--index")?;
            let bytes = std::fs::metadata(&path)?.len();
            let index = VectorIndex::open_mapped(&path)?;
            let stats = index.stats();
            println!(
                "{path}: {} vectors x {} dims, {bytes} bytes on disk",
                stats.count, stats.dim
            );
            match index.hnsw() {
                Some(h) => println!(
                    "  tier: hnsw — {} layers, {} links, m={}, ef_construction={}, ef_search={}, seed={}",
                    h.num_layers(),
                    h.num_links(),
                    h.config().m,
                    h.config().ef_construction,
                    h.config().ef_search,
                    h.config().seed
                ),
                None => println!("  tier: exact (no graph section)"),
            }
            println!(
                "  resident: {} bytes total — vectors {}, hnsw {}",
                stats.resident_bytes(),
                stats.vector_bytes,
                stats.hnsw_bytes
            );
            Ok(())
        }
        _ => Err("usage: kgpip-cli index <build|query|stats> [flags]".into()),
    }
}

/// End-to-end demo on synthetic data; no files needed.
fn cmd_demo(flag: &impl Fn(&str) -> Option<String>) -> CliResult {
    use kgpip_benchdata::{training_setup, ScaleConfig};
    use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
    let budget: f64 = flag("--budget-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let setup = training_setup(2, &ScaleConfig::default(), 0);
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: 10,
            ..CorpusConfig::default()
        },
    );
    eprintln!("demo: training KGpip on a synthetic corpus...");
    let parallelism: usize = flag("--parallelism")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let model = Kgpip::train(
        &scripts,
        &setup.tables,
        KgpipConfig::default().with_parallelism(parallelism),
    )?;
    let entry = kgpip_benchdata::benchmark()
        .iter()
        .find(|e| e.name == "phoneme")
        .expect("catalog entry");
    let ds = kgpip_benchdata::generate_dataset(entry, &ScaleConfig::default(), 7);
    let mut backend = Flaml::new(0);
    let run = model.artifact().run(
        &ds,
        &mut backend,
        TimeBudget::seconds(budget).with_trial_cap(60),
    )?;
    println!(
        "demo best pipeline on `{}`: {} (validation {:.3}; nearest seen: {})",
        entry.name,
        run.best().spec.describe(),
        run.best_score(),
        run.neighbour
    );
    Ok(())
}
