//! The serving loop: a thread pool draining a shared request queue in
//! batches, answering against an atomically hot-swappable
//! [`Arc<TrainedModel>`].
//!
//! # Design
//!
//! * **Batching.** Requests enqueue onto one queue; each worker drains up
//!   to `max_batch` jobs at a time and pins one model snapshot for the
//!   whole batch. Within a batch the worker first probes the result cache
//!   for every job, then runs the embedding stage for all misses (the
//!   "embedding wave"), then the generation stage per miss. The stages
//!   are the same pure [`TrainedModel`] methods the direct
//!   `predict_skeletons` call composes, so batching changes *scheduling*,
//!   never *results*.
//! * **Hot swap.** The current model lives in an `RwLock<(Arc, epoch)>`
//!   slot. [`ServeHandle::swap_model`] replaces the `Arc` and bumps the
//!   epoch; in-flight batches keep the snapshot they pinned, and the
//!   epoch is part of every cache key, so entries computed by an old
//!   model are never replayed for a new one.
//! * **One CPU budget.** `ServeConfig::workers` is both the number of
//!   queue workers and the parallelism every installed model is set to,
//!   so a lone request's generation attempts fan out over the idle cores.
//!   The vendored pool lets each caller drain its own fan-out and hands
//!   out one attempt at a time, so under a burst, when the helpers are
//!   busy, each worker runs its own attempts and no request's work grows.
//! * **Panic isolation.** Each job's embedding and generation run under
//!   `catch_unwind`. A panic answers that job with
//!   [`ServeError::Internal`]; the rest of the batch is answered and the
//!   worker keeps looping, so the pool never shrinks.
//! * **Determinism.** The house invariant — concurrency and caches change
//!   cost, never answers — holds end to end: at any worker count and any
//!   batch size, `predict` returns bit-for-bit what
//!   [`TrainedModel::predict_skeletons`] returns directly (proven by
//!   `tests/serve_identity.rs`).

use crate::cache::{CacheStats, ResultCache, ResultKey};
use kgpip::{KgpipError, TrainedModel};
use kgpip_hpo::{Flaml, Optimizer, Skeleton};
use kgpip_tabular::{DataFrame, Task};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// Configuration of a serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the request queue — and the serving CPU
    /// budget. Every model the server installs is set to this
    /// parallelism, so one request's generation attempts fan out over up
    /// to `workers` threads of the persistent pool (clamped to the host's
    /// CPUs). Answers are bit-identical at any value.
    pub workers: usize,
    /// Most jobs a worker takes per batch (≥ 1). Larger batches amortize
    /// queue traffic and keep one model snapshot hot across requests.
    pub max_batch: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// The §3.6 capability document predictions are validated against.
    /// Defaults to the FLAML-style engine's document.
    pub capabilities_json: String,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            cache_capacity: 256,
            capabilities_json: Flaml::new(0).capabilities(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the batch-size cap (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the result-cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> ServeConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the capability document.
    pub fn with_capabilities(mut self, capabilities_json: impl Into<String>) -> ServeConfig {
        self.capabilities_json = capabilities_json.into();
        self
    }
}

/// One prediction request: a bare table plus the task to solve for.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The unseen table (features only; no labels are needed to predict
    /// skeletons).
    pub table: DataFrame,
    /// The supervised task the pipelines must support.
    pub task: Task,
    /// How many ranked skeletons to return (the paper's K).
    pub k: usize,
    /// Sampling seed for generation.
    pub seed: u64,
}

/// The answer to one [`ServeRequest`].
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Ranked `(skeleton, generation score)` pairs, best first.
    pub skeletons: Vec<(Skeleton, f64)>,
    /// The nearest seen dataset that seeded generation.
    pub neighbour: String,
    /// Whether this answer was replayed from the result cache.
    pub cached: bool,
    /// Size of the batch this request was processed in (1 = alone).
    pub batch_size: usize,
    /// Serving epoch of the model that answered.
    pub model_epoch: u64,
}

/// Failures surfaced to a serving client.
#[derive(Debug)]
pub enum ServeError {
    /// The server shut down before this request was answered.
    Shutdown,
    /// The prediction itself failed (empty catalog, `k == 0`, …).
    Predict(KgpipError),
    /// Computing this request's answer panicked. Only this request fails:
    /// the rest of its batch is answered and the worker keeps serving.
    /// Carries the panic message.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shutdown => write!(f, "server shut down before answering"),
            ServeError::Predict(e) => write!(f, "prediction failed: {e}"),
            ServeError::Internal(m) => write!(f, "prediction panicked: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Aggregate serving counters (all monotone; read at any time).
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    /// Requests answered (success or typed failure).
    pub served: u64,
    /// Batches processed.
    pub batches: u64,
    /// Model hot-swaps performed.
    pub swaps: u64,
    /// Datasets registered online via [`ServeHandle::register_dataset`].
    pub registered: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

struct Job {
    request: ServeRequest,
    reply: mpsc::Sender<Result<ServeResponse, ServeError>>,
}

struct Queue {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    /// The hot-swap slot: current model + its serving epoch.
    slot: RwLock<(Arc<TrainedModel>, u64)>,
    queue: Mutex<Queue>,
    available: Condvar,
    cache: ResultCache,
    capabilities: String,
    max_batch: usize,
    /// The serve width, installed as the parallelism of every served model.
    workers: usize,
    served: AtomicU64,
    batches: AtomicU64,
    swaps: AtomicU64,
    registered: AtomicU64,
}

/// A still-pending [`ServeHandle::submit`]; redeem with
/// [`Pending::wait`].
pub struct Pending {
    receiver: mpsc::Receiver<Result<ServeResponse, ServeError>>,
}

impl Pending {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.receiver.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// Handle to a running serving instance. Cloneless by design: drop (or
/// [`ServeHandle::shutdown`]) stops the workers after the queue drains.
pub struct ServeHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Starts a serving instance over the given artifact, set to serve at
    /// `config.workers` parallelism (the artifact's own `parallelism`
    /// keeps governing `run`/`run_k` and training, not serving).
    pub fn start(model: Arc<TrainedModel>, config: ServeConfig) -> ServeHandle {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            slot: RwLock::new((at_width(model, workers), 0)),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            cache: ResultCache::new(config.cache_capacity),
            capabilities: config.capabilities_json,
            max_batch: config.max_batch.max(1),
            workers,
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            registered: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kgpip-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // xlint: allow(panic-in-serve-path): runs once at startup, before any request is accepted; spawn failure means the host cannot run the service at all
                    .expect("spawn serve worker")
            })
            .collect();
        ServeHandle { shared, workers }
    }

    /// Enqueues a request and blocks for its response.
    pub fn predict(&self, request: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit(request).wait()
    }

    /// Enqueues a request without blocking; lets tests and pipelined
    /// clients pile up a wave of requests so workers actually batch them.
    pub fn submit(&self, request: ServeRequest) -> Pending {
        let (reply, receiver) = mpsc::channel();
        {
            let mut queue = recover(self.shared.queue.lock());
            if queue.open {
                queue.jobs.push_back(Job { request, reply });
            } else {
                let _ = reply.send(Err(ServeError::Shutdown));
            }
        }
        self.shared.available.notify_one();
        Pending { receiver }
    }

    /// Atomically replaces the served model. In-flight batches finish on
    /// the model they pinned; subsequent batches (and cache keys) use the
    /// new one, at the serve width. Returns the new serving epoch.
    pub fn swap_model(&self, model: Arc<TrainedModel>) -> u64 {
        let model = at_width(model, self.shared.workers);
        let mut slot = recover(self.shared.slot.write());
        slot.0 = model;
        slot.1 += 1;
        self.shared.swaps.fetch_add(1, Ordering::Relaxed);
        slot.1
    }

    /// Registers an unseen dataset in the served catalog online, without
    /// a full model hot-swap: clones the current artifact, registers the
    /// table (`TrainedModel::register_dataset` — the active similarity
    /// tier grows incrementally, no retrain), and installs the grown
    /// model (which keeps the serve width) under a new epoch. In-flight
    /// batches keep the snapshot they pinned; the epoch bump keys the
    /// cache so pre-registration answers are never replayed against the
    /// grown catalog.
    ///
    /// Errors with [`ServeError::Predict`] wrapping
    /// `KgpipError::DuplicateDataset` when the name is already cataloged
    /// (the slot is left untouched). Returns the new serving epoch.
    pub fn register_dataset(&self, name: &str, table: &DataFrame) -> Result<u64, ServeError> {
        let mut slot = recover(self.shared.slot.write());
        let mut grown = (*slot.0).clone();
        grown
            .register_dataset(name, table)
            .map_err(ServeError::Predict)?;
        slot.0 = Arc::new(grown);
        slot.1 += 1;
        self.shared.registered.fetch_add(1, Ordering::Relaxed);
        Ok(slot.1)
    }

    /// The current serving epoch (starts at 0, bumped per swap).
    pub fn model_epoch(&self) -> u64 {
        recover(self.shared.slot.read()).1
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.shared.served.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            swaps: self.shared.swaps.load(Ordering::Relaxed),
            registered: self.shared.registered.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        }
    }

    /// Stops accepting requests, drains the queue, joins the workers, and
    /// returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        {
            let mut queue = recover(self.shared.queue.lock());
            queue.open = false;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Recovers the guard from a poisoned serve lock instead of propagating
/// the panic. A request's own stages cannot poison a lock (their panics
/// are caught per job), and a panic anywhere else never leaves the
/// protected state torn — queue mutations are single
/// `VecDeque` calls and the model slot is an `(Arc, epoch)` pair swapped
/// whole — so continuing to serve the remaining traffic beats letting one
/// bad request take the whole service down.
fn recover<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Sets a model to serve at `workers` parallelism. `make_mut` clones only
/// when someone else still holds the `Arc`; a freshly `share()`d model is
/// updated in place.
fn at_width(mut model: Arc<TrainedModel>, workers: usize) -> Arc<TrainedModel> {
    Arc::make_mut(&mut model).set_parallelism(workers);
    model
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = recover(shared.queue.lock());
            loop {
                if !queue.jobs.is_empty() {
                    let n = queue.jobs.len().min(shared.max_batch);
                    break queue.jobs.drain(..n).collect();
                }
                if !queue.open {
                    return;
                }
                queue = recover(shared.available.wait(queue));
            }
        };
        process_batch(shared, batch);
    }
}

/// Answers one batch against a single pinned model snapshot: cache probe
/// per job, one embedding wave over the misses, then generation per miss.
fn process_batch(shared: &Shared, batch: Vec<Job>) {
    shared.batches.fetch_add(1, Ordering::Relaxed);
    let batch_size = batch.len();
    let (model, epoch) = {
        let slot = recover(shared.slot.read());
        (Arc::clone(&slot.0), slot.1)
    };

    // Stage 1: fingerprint + cache probe. Hits answer immediately.
    let mut misses: Vec<(Job, ResultKey)> = Vec::with_capacity(batch_size);
    for job in batch {
        let key = ResultKey {
            fingerprint: job.request.table.fingerprint(),
            task: job.request.task,
            k: job.request.k,
            seed: job.request.seed,
            epoch,
        };
        if let Some((skeletons, neighbour)) = shared.cache.get(&key) {
            respond(
                shared,
                job,
                Ok(ServeResponse {
                    skeletons,
                    neighbour,
                    cached: true,
                    batch_size,
                    model_epoch: epoch,
                }),
            );
        } else {
            misses.push((job, key));
        }
    }

    // Stage 2: the embedding wave — embed every miss's table before any
    // generation runs (each embedding is pure in its own table, so order
    // is irrelevant to results).
    let queries: Vec<Result<Vec<f64>, ServeError>> = misses
        .iter()
        .map(|(job, _)| {
            isolated(|| {
                #[cfg(test)]
                tests::inject_panic(job.request.seed, tests::PANIC_IN_EMBED);
                model.embed_table(&job.request.table)
            })
        })
        .collect();

    // Stage 3: generation per miss. Identical requests inside one batch
    // dedup against the entry their predecessor just inserted.
    for ((job, key), query) in misses.into_iter().zip(queries) {
        if let Some((skeletons, neighbour)) = shared.cache.get(&key) {
            respond(
                shared,
                job,
                Ok(ServeResponse {
                    skeletons,
                    neighbour,
                    cached: true,
                    batch_size,
                    model_epoch: epoch,
                }),
            );
            continue;
        }
        let outcome = query.and_then(|query| {
            isolated(|| {
                #[cfg(test)]
                tests::inject_panic(job.request.seed, tests::PANIC_IN_PREDICT);
                model.predict_from_query_embedding(
                    &query,
                    job.request.task,
                    job.request.k,
                    &shared.capabilities,
                    job.request.seed,
                )
            })
        });
        let response = match outcome {
            Ok(Ok((skeletons, neighbour))) => {
                shared
                    .cache
                    .insert(key, (skeletons.clone(), neighbour.clone()));
                Ok(ServeResponse {
                    skeletons,
                    neighbour,
                    cached: false,
                    batch_size,
                    model_epoch: epoch,
                })
            }
            Ok(Err(e)) => Err(ServeError::Predict(e)),
            Err(e) => Err(e),
        };
        respond(shared, job, response);
    }
}

/// Runs one request's stage, turning a panic into
/// [`ServeError::Internal`] for that request alone. The model is an
/// immutable snapshot that every stage reads through `&self`, so a panic
/// leaves nothing half-written for the batch-mates that follow.
fn isolated<T>(stage: impl FnOnce() -> T) -> Result<T, ServeError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(stage)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        ServeError::Internal(message)
    })
}

fn respond(shared: &Shared, job: Job, response: Result<ServeResponse, ServeError>) {
    shared.served.fetch_add(1, Ordering::Relaxed);
    // A dropped receiver just means the client stopped waiting.
    let _ = job.reply.send(response);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
    use kgpip_tabular::Column;

    /// Request seeds whose embedding or generation stage panics.
    pub(crate) const PANIC_IN_EMBED: u64 = 0x0bad_e3be;
    pub(crate) const PANIC_IN_PREDICT: u64 = 0x0bad_9e11;

    /// The injection point the two stages call: panics for its seed.
    pub(crate) fn inject_panic(seed: u64, at: u64) {
        if seed == at {
            panic!("injected panic for seed {seed:#x}");
        }
    }

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

    fn trained_artifact() -> TrainedModel {
        let profiles = vec![
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", false),
        ];
        let scripts = generate_corpus(
            &profiles,
            &CorpusConfig {
                scripts_per_dataset: 6,
                unsupported_fraction: 0.0,
                ..CorpusConfig::default()
            },
        );
        let tables = vec![
            ("alpha".to_string(), table_like(0.0, 30)),
            ("beta".to_string(), table_like(500.0, 30)),
        ];
        let config =
            kgpip::KgpipConfig::default().with_generator(kgpip_graphgen::GeneratorConfig {
                hidden: 10,
                prop_rounds: 1,
                epochs: 3,
                ..kgpip_graphgen::GeneratorConfig::default()
            });
        kgpip::Kgpip::train(&scripts, &tables, config)
            .unwrap()
            .into_artifact()
    }

    fn request(i: usize, seed: u64) -> ServeRequest {
        ServeRequest {
            table: table_like(i as f64 * 37.0, 20 + i),
            task: Task::Binary,
            k: 3,
            seed,
        }
    }

    /// Enqueues every request under one queue lock, so a single worker
    /// drains them as one batch.
    fn submit_as_one_batch(server: &ServeHandle, requests: Vec<ServeRequest>) -> Vec<Pending> {
        let pending = {
            let mut queue = recover(server.shared.queue.lock());
            requests
                .into_iter()
                .map(|request| {
                    let (reply, receiver) = mpsc::channel();
                    queue.jobs.push_back(Job { request, reply });
                    Pending { receiver }
                })
                .collect()
        };
        server.shared.available.notify_all();
        pending
    }

    /// A panic in one request's embedding or generation answers that
    /// request with `ServeError::Internal`; its batch-mates get the
    /// answers direct prediction gives, and afterwards every worker is
    /// alive and a burst is served in full.
    #[test]
    fn a_panicking_request_fails_alone_and_every_worker_keeps_serving() {
        let model = trained_artifact();
        let caps = Flaml::new(0).capabilities();
        let workers = 2;
        let server = ServeHandle::start(
            model.share(),
            ServeConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0),
        );
        let direct = |r: &ServeRequest| {
            model
                .predict_table(&r.table, r.task, r.k, &caps, r.seed)
                .unwrap()
        };
        let assert_answers = |r: &ServeRequest, response: ServeResponse| {
            let (skeletons, neighbour) = direct(r);
            assert_eq!(response.neighbour, neighbour);
            assert_eq!(response.skeletons.len(), skeletons.len());
            for ((a, ga), (b, gb)) in response.skeletons.iter().zip(&skeletons) {
                assert_eq!(a, b);
                assert_eq!(ga.to_bits(), gb.to_bits());
            }
        };

        let batch = vec![
            request(0, 5),
            request(1, PANIC_IN_PREDICT),
            request(2, 6),
            request(3, PANIC_IN_EMBED),
            request(4, 7),
        ];
        let pending = submit_as_one_batch(&server, batch.clone());
        for (r, p) in batch.iter().zip(pending) {
            let answer = p.wait();
            if r.seed == PANIC_IN_EMBED || r.seed == PANIC_IN_PREDICT {
                match answer {
                    Err(ServeError::Internal(m)) => assert!(m.contains("injected"), "{m}"),
                    other => panic!("seed {:#x}: {other:?}", r.seed),
                }
            } else {
                let response = answer.unwrap();
                assert_eq!(response.batch_size, batch.len());
                assert_answers(r, response);
            }
        }

        let burst: Vec<ServeRequest> = (0..4 * workers)
            .map(|i| request(i, 100 + i as u64))
            .collect();
        let pending: Vec<Pending> = burst.iter().map(|r| server.submit(r.clone())).collect();
        for (r, p) in burst.iter().zip(pending) {
            assert_answers(r, p.wait().unwrap());
        }
        assert_eq!(server.workers.len(), workers);
        assert!(server.workers.iter().all(|w| !w.is_finished()));
        assert_eq!(server.shutdown().served, (batch.len() + 4 * workers) as u64);
    }
}
