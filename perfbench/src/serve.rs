//! The `serve` workload: an open loop into a [`ServeHandle`] with one
//! worker per CPU and the default batch size and cache.
//!
//! One generator thread sends requests on a schedule fixed by the seed
//! while a writer thread interleaves `register_dataset` calls; each
//! registration clones the artifact and embeds under the slot's write lock,
//! and its epoch bump stops answers cached before it from being replayed.
//! Latency counts from each request's due time, so a stall is charged to
//! every request it delays. A closing burst submits a fixed set of requests
//! at once and measures capacity.
//!
//! Generation is most of a cache miss, so this workload loads embedding,
//! nearest-dataset search and generation, and the serve queue, batching,
//! result cache and write path — which do work nowhere else. hpo and
//! learners do none.

use crate::measure::{mean, ms, percentile, ratio, Cpu, Rng, Tally};
use crate::report::Report;
use crate::trace::Tracer;
use crate::E2e;
use kgpip::TrainedModel;
use kgpip_benchdata::{benchmark, generate_dataset, ScaleConfig};
use kgpip_hpo::{Flaml, Optimizer, Skeleton};
use kgpip_serve::{Pending, ServeConfig, ServeHandle, ServeRequest, ServeResponse};
use kgpip_tabular::{DataFrame, Task};
use std::collections::HashMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Mean open-loop arrival rate, requests per second: about a fifth of
/// what two workers compute, so the p90 reflects service time and the
/// occasional queue, not a saturated one.
pub const RATE_PER_S: f64 = 8.0;
/// Share of requests that repeat an earlier request exactly.
pub const REPEAT_SHARE: f64 = 0.25;
/// One `register_dataset` write per this many requests of the schedule.
pub const REGISTER_EVERY: usize = 40;
/// Requests submitted at once in the closing burst.
pub const BURST_REQUESTS: usize = 120;
/// Share of `--seconds` the open loop is scheduled over; the burst takes
/// about the rest.
const OPEN_SHARE: f64 = 0.8;
/// The paper's K.
const K: usize = 3;
/// Threads waiting on pending answers, so each completion is seen when it
/// happens rather than behind an earlier, slower request.
const WAITERS: usize = 32;
/// Every this-many-th computed answer is re-derived by a direct call.
const CHECK_EVERY: usize = 3;

const TABLE_STREAM: u64 = 1;
const SCHEDULE_STREAM: u64 = 2;
const CATALOG_STREAM: u64 = 5;

/// A request, by index into the distinct-table store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub table: usize,
    pub task: Task,
    pub seed: u64,
}

pub struct Register {
    pub due: Duration,
    pub name: String,
    pub table: DataFrame,
}

pub struct Inputs {
    pub tables: Vec<DataFrame>,
    pub open: Vec<Request>,
    /// Due offset of each open-loop request from the start of the loop.
    pub due: Vec<Duration>,
    pub registers: Vec<Register>,
    pub burst: Vec<Request>,
}

/// Due offsets of the open loop: gaps uniform in `[0.5, 1.5]` of the mean
/// gap, drawn from the seed alone, so the schedule never depends on how
/// fast the program runs. A shorter loop replays a prefix of a longer one.
pub fn schedule(seed: u64, n: usize) -> Vec<Duration> {
    let mut rng = Rng::new(seed, SCHEDULE_STREAM);
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            let due = Duration::from_secs_f64(at);
            at += (0.5 + rng.unit()) / RATE_PER_S;
            due
        })
        .collect()
}

/// Tables synthesized from the Table-4 catalog (≤ 600 × 20, every task),
/// taking the entries in seed-shuffled rounds: every seed draws nearly the
/// same mix of table shapes, and only contents and order differ.
struct Catalog {
    rng: Rng,
    order: Vec<usize>,
    taken: usize,
}

impl Catalog {
    fn new(rng: Rng) -> Catalog {
        let order: Vec<usize> = (0..benchmark().len()).collect();
        let taken = order.len();
        Catalog { rng, order, taken }
    }

    fn table(&mut self) -> (DataFrame, Task) {
        if self.taken == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.taken = 0;
        }
        let entry = &benchmark()[self.order[self.taken]];
        self.taken += 1;
        let ds = generate_dataset(entry, &ScaleConfig::default(), self.rng.next_u64());
        (ds.features, ds.task)
    }
}

/// Every input of an open loop scheduled over `open_secs`, generated
/// before any timing starts.
pub fn inputs(seed: u64, open_secs: f64) -> Inputs {
    let n_open = ((open_secs * RATE_PER_S).round() as usize).max(1);
    let due = schedule(seed, n_open);
    let mut rng = Rng::new(seed, TABLE_STREAM);
    let mut catalog = Catalog::new(Rng::new(seed, CATALOG_STREAM));
    let mut tables = Vec::new();
    let mut fresh = |rng: &mut Rng| {
        let (table, task) = catalog.table();
        tables.push(table);
        Request {
            table: tables.len() - 1,
            task,
            seed: rng.below(4) as u64,
        }
    };
    let mut open: Vec<Request> = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        let request = if !open.is_empty() && rng.unit() < REPEAT_SHARE {
            open[rng.below(open.len())]
        } else {
            fresh(&mut rng)
        };
        open.push(request);
    }
    // The burst measures computing capacity, so it repeats nothing.
    let burst = (0..BURST_REQUESTS).map(|_| fresh(&mut rng)).collect();
    let registers = (REGISTER_EVERY / 2..n_open)
        .step_by(REGISTER_EVERY)
        .enumerate()
        .map(|(j, i)| Register {
            due: due[i],
            name: format!("registered-{seed}-{j}"),
            table: catalog.table().0,
        })
        .collect();
    Inputs {
        tables,
        open,
        due,
        registers,
        burst,
    }
}

/// What one drive of the server returned.
pub struct Served {
    /// Per open-loop request, from its due time to its answer.
    pub latency_ms: Vec<f64>,
    /// Per open-loop request, how late the generator sent it.
    pub lag_ms: Vec<f64>,
    /// Open-loop answers, then burst answers.
    pub answers: Vec<Result<ServeResponse, String>>,
    pub register_ms: Vec<f64>,
    pub epochs: Vec<Result<u64, String>>,
    pub burst_s: f64,
    /// Process CPU time over the open loop.
    pub cpu: Cpu,
}

fn request(inputs: &Inputs, r: Request) -> ServeRequest {
    ServeRequest {
        table: inputs.tables[r.table].clone(),
        task: r.task,
        k: K,
        seed: r.seed,
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

type Slot = Option<(f64, Result<ServeResponse, String>)>;

/// Runs the open loop, then (if `burst`) the closing burst.
pub fn drive(model: &TrainedModel, inputs: &Inputs, burst: bool) -> Served {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = ServeHandle::start(model.share(), ServeConfig::default().with_workers(workers));
    let n = inputs.open.len();
    let slots: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| None).collect());
    let (tx, rx) = mpsc::channel::<(usize, Instant, Pending)>();
    let rx = Mutex::new(rx);
    let mut lag_ms = Vec::with_capacity(n);
    let cpu_before = Cpu::now();
    // A short lead lets the waiter and writer threads start before the
    // first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let registered = std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            scope.spawn(|| loop {
                let next = rx
                    .lock()
                    .expect("waiters never panic holding the queue")
                    .recv();
                let Ok((i, due, pending)) = next else { break };
                let answer = pending.wait().map_err(|e| e.to_string());
                let latency_ms = ms(due.elapsed());
                slots.lock().expect("waiters never panic holding the slots")[i] =
                    Some((latency_ms, answer));
            });
        }
        let writer = scope.spawn(|| {
            inputs
                .registers
                .iter()
                .map(|reg| {
                    sleep_until(start + reg.due);
                    let began = Instant::now();
                    let epoch = server
                        .register_dataset(&reg.name, &reg.table)
                        .map_err(|e| e.to_string());
                    (ms(began.elapsed()), epoch)
                })
                .collect::<Vec<_>>()
        });
        for (i, (r, offset)) in inputs.open.iter().zip(&inputs.due).enumerate() {
            let req = request(inputs, *r);
            let due = start + *offset;
            sleep_until(due);
            lag_ms.push(ms(due.elapsed()));
            // The waiters keep the receiver alive until the sender is
            // dropped below, so this send cannot fail.
            let _ = tx.send((i, due, server.submit(req)));
        }
        drop(tx);
        writer.join().expect("the writer thread does not panic")
    });
    let cpu = Cpu::now().since(cpu_before);
    let (latency_ms, mut answers): (Vec<f64>, Vec<_>) = slots
        .into_inner()
        .expect("every waiter has exited")
        .into_iter()
        .map(|slot| slot.unwrap_or((0.0, Err("never answered".to_string()))))
        .unzip();

    let mut burst_s = 0.0;
    if burst {
        let requests: Vec<ServeRequest> =
            inputs.burst.iter().map(|r| request(inputs, *r)).collect();
        let began = Instant::now();
        let pending: Vec<Pending> = requests.into_iter().map(|r| server.submit(r)).collect();
        answers.extend(
            pending
                .into_iter()
                .map(|p| p.wait().map_err(|e| e.to_string())),
        );
        burst_s = began.elapsed().as_secs_f64();
    }
    server.shutdown();
    let (register_ms, epochs) = registered.into_iter().unzip();
    Served {
        latency_ms,
        lag_ms,
        answers,
        register_ms,
        epochs,
        burst_s,
        cpu,
    }
}

/// The served model at every epoch: the set-up model plus the first `e`
/// registrations, replayed in order.
fn epoch_models(model: &TrainedModel, inputs: &Inputs) -> Vec<TrainedModel> {
    let mut models = vec![model.clone()];
    for reg in &inputs.registers {
        let mut next = models[models.len() - 1].clone();
        // Names carry the seed and a counter, so a registration cannot be
        // a duplicate; if one were, the server's epoch check below fails.
        let _ = next.register_dataset(&reg.name, &reg.table);
        models.push(next);
    }
    models
}

/// Bit-level equality of an answer with a reference prediction.
pub fn same_answer(a: &ServeResponse, skeletons: &[(Skeleton, f64)], neighbour: &str) -> bool {
    a.neighbour == neighbour
        && a.skeletons.len() == skeletons.len()
        && a.skeletons
            .iter()
            .zip(skeletons)
            .all(|((s, g), (t, h))| s == t && g.to_bits() == h.to_bits())
}

/// The output checks. Every answer is an operation, and fails when it is
/// an error, when it differs from the computed answer for the same request
/// and epoch (which every cached answer replays), or — for every
/// `CHECK_EVERY`-th computed answer — when it is not bit-identical to
/// `TrainedModel::predict_table` on the model of its epoch. Each
/// registration is an operation too, failing on a wrong epoch. Also returns
/// the mean similarity of the computed requests to their nearest dataset.
fn check(models: &[TrainedModel], inputs: &Inputs, served: &Served) -> (Tally, f64) {
    let caps = Flaml::new(0).capabilities();
    let mut tally = Tally::default();
    for (j, epoch) in served.epochs.iter().enumerate() {
        tally.record(epoch.as_ref().ok() == Some(&(j as u64 + 1)));
    }
    let requests: Vec<Request> = inputs.open.iter().chain(&inputs.burst).copied().collect();
    let key = |r: &Request, a: &ServeResponse| (r.table, r.seed, a.model_epoch);
    let mut originals: HashMap<(usize, u64, u64), &ServeResponse> = HashMap::new();
    for (r, answer) in requests.iter().zip(&served.answers) {
        if let Ok(a) = answer {
            if !a.cached {
                originals.entry(key(r, a)).or_insert(a);
            }
        }
    }
    let mut computed = 0usize;
    let mut similarity = Vec::new();
    for (r, answer) in requests.iter().zip(&served.answers) {
        let Ok(a) = answer else {
            tally.record(false);
            continue;
        };
        let mut ok = originals
            .get(&key(r, a))
            .is_some_and(|o| same_answer(a, &o.skeletons, &o.neighbour));
        if !a.cached {
            let Some(m) = models.get(a.model_epoch as usize) else {
                tally.record(false);
                continue;
            };
            let table = &inputs.tables[r.table];
            if let Ok((_, s)) = m.nearest_by_embedding(&m.embed_table(table)) {
                similarity.push(s);
            }
            computed += 1;
            if computed.is_multiple_of(CHECK_EVERY) {
                let direct = m.predict_table(table, r.task, K, &caps, r.seed);
                ok &= direct
                    .is_ok_and(|(skeletons, neighbour)| same_answer(a, &skeletons, &neighbour));
            }
        }
        tally.record(ok);
    }
    (tally, mean(&similarity))
}

/// The untraced run: open loop, burst, then the output checks.
pub fn measure(model: &TrainedModel, seed: u64, seconds: f64) -> E2e {
    let inputs = inputs(seed, seconds * OPEN_SHARE);
    let served = drive(model, &inputs, true);
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let (tally, similarity) = check(&epoch_models(model, &inputs), &inputs, &served);
    E2e {
        p50_ms: percentile(&served.latency_ms, 50.0),
        tail_ms: percentile(&served.latency_ms, 90.0),
        throughput_per_s: ratio(inputs.burst.len() as f64, served.burst_s),
        peak_rss_mb,
        answer_quality: similarity,
        tally,
    }
}

/// The traced replay: an open loop over `seconds`, then every computed
/// answer re-derived twice — untraced through `predict_table`, and traced
/// through the staged calls `embed_table` → `nearest_by_embedding` →
/// `predict_with_embedding` — on the model of its epoch.
pub fn trace(
    model: &TrainedModel,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let inputs = inputs(seed, seconds);
    let served = drive(model, &inputs, false);
    let models = epoch_models(model, &inputs);
    let (mut tally, _) = check(&models, &inputs, &served);
    let caps = Flaml::new(0).capabilities();
    let computed: Vec<(usize, &ServeResponse, &TrainedModel)> = served
        .answers
        .iter()
        .enumerate()
        .filter_map(|(i, a)| {
            let a = a.as_ref().ok().filter(|a| !a.cached)?;
            Some((i, a, models.get(a.model_epoch as usize)?))
        })
        .collect();

    let began = Instant::now();
    for &(i, _, m) in &computed {
        let r = inputs.open[i];
        std::hint::black_box(
            m.predict_table(&inputs.tables[r.table], r.task, K, &caps, r.seed)
                .ok(),
        );
    }
    let untraced_s = began.elapsed().as_secs_f64();

    tracer.workload = "serve";
    let mut staged_ms = Vec::with_capacity(computed.len());
    let mut queue_ms = Vec::with_capacity(computed.len());
    let mut fallbacks = 0usize;
    let began = Instant::now();
    for &(i, a, m) in &computed {
        let r = inputs.open[i];
        let first_span = tracer.spans.len();
        let query = tracer.span("embeddings.embed_table", i, || {
            m.embed_table(&inputs.tables[r.table])
        });
        let nearest = tracer.quick_span("embeddings.nearest", i, || m.nearest_by_embedding(&query));
        let answer = nearest.ok().and_then(|(neighbour, _)| {
            let embedding = m.embedding_of(&neighbour)?;
            let skeletons = tracer.span("graphgen.predict", i, || {
                m.predict_with_embedding(embedding, r.task, K, &caps, r.seed)
            });
            Some((skeletons.ok()?, neighbour))
        });
        let staged: f64 = tracer.spans[first_span..].iter().map(|s| s.dur_ms).sum();
        staged_ms.push(staged);
        queue_ms.push(served.latency_ms[i] - staged);
        if let Some((skeletons, _)) = &answer {
            // The corpus-dominant fallback is the one answer scored -inf.
            fallbacks += usize::from(
                skeletons
                    .first()
                    .is_some_and(|(_, g)| *g == f64::NEG_INFINITY),
            );
        }
        tally.record(
            answer.is_some_and(|(skeletons, neighbour)| same_answer(a, &skeletons, &neighbour)),
        );
    }
    let traced_s = began.elapsed().as_secs_f64();

    let answered: Vec<&ServeResponse> = served
        .answers
        .iter()
        .filter_map(|a| a.as_ref().ok())
        .collect();
    let cached = answered.iter().filter(|a| a.cached).count();
    let batch_sizes: Vec<f64> = answered.iter().map(|a| a.batch_size as f64).collect();
    let requests = inputs.open.len() as f64;
    report.metric(
        "graphgen.predict_ms",
        tracer.mean_ms("serve", "graphgen.predict"),
        "ms",
    );
    report.metric(
        "graphgen.fallback_share",
        ratio(fallbacks as f64, computed.len() as f64),
        "share",
    );
    report.metric(
        "embeddings.embed_table_ms",
        tracer.mean_ms("serve", "embeddings.embed_table"),
        "ms",
    );
    report.metric(
        "embeddings.nearest_us",
        tracer.mean_ms("serve", "embeddings.nearest") * 1e3,
        "us",
    );
    report.metric("serve.queue_ms", mean(&queue_ms), "ms");
    report.metric("serve.batch_size_mean", mean(&batch_sizes), "count");
    report.metric(
        "serve.cache_hit_rate",
        ratio(cached as f64, answered.len() as f64),
        "share",
    );
    report.metric("serve.register_ms", mean(&served.register_ms), "ms");
    report.metric("serve.generator_lag_ms", mean(&served.lag_ms), "ms");
    report.metric(
        "coverage.serve",
        ratio(staged_ms.iter().sum(), served.latency_ms.iter().sum()),
        "share",
    );
    report.metric(
        "trace_overhead.serve",
        ratio(traced_s, untraced_s) - 1.0,
        "share",
    );
    report.metric("proc.serve.user_cpu_s", served.cpu.user_s / requests, "s");
    tracer.cpu_metrics(report, "serve", &["graphgen.predict"], &[]);
    report.tally.merge(tally);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpip::prelude::EstimatorKind;

    #[test]
    fn the_schedule_is_fixed_by_the_seed_alone() {
        let first = schedule(7, 200);
        // Time passing between the calls must not move a single due time.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(first, schedule(7, 200));
        assert_eq!(
            first[..50],
            schedule(7, 50)[..],
            "a shorter loop replays a prefix"
        );
        assert_ne!(first, schedule(8, 200));
        let mean_gap = first[199].as_secs_f64() / 199.0;
        assert!(
            (mean_gap * RATE_PER_S - 1.0).abs() < 0.1,
            "mean gap {mean_gap}"
        );
    }

    fn digest(inputs: &Inputs) -> Vec<u64> {
        let mut out: Vec<u64> = inputs.tables.iter().map(DataFrame::fingerprint).collect();
        for r in inputs.open.iter().chain(&inputs.burst) {
            out.extend([
                r.table as u64,
                r.seed,
                u64::from(r.task.is_classification()),
            ]);
        }
        out.extend(inputs.due.iter().map(|d| d.as_nanos() as u64));
        out.extend(inputs.registers.iter().map(|r| r.table.fingerprint()));
        out
    }

    #[test]
    fn one_seed_gives_one_set_of_inputs() {
        let a = digest(&inputs(3, 0.5));
        assert_eq!(a, digest(&inputs(3, 0.5)));
        assert_ne!(a, digest(&inputs(4, 0.5)));
    }

    #[test]
    fn a_wrong_answer_is_counted_as_failed() {
        let skeletons = vec![(Skeleton::bare(EstimatorKind::XgBoost), -1.25)];
        let answer = ServeResponse {
            skeletons: skeletons.clone(),
            neighbour: "train_ds_0".to_string(),
            cached: false,
            batch_size: 1,
            model_epoch: 0,
        };
        let mut wrong = answer.clone();
        wrong.skeletons[0].1 = f64::from_bits(wrong.skeletons[0].1.to_bits() ^ 1);
        let mut tally = Tally::default();
        for a in [&answer, &wrong] {
            tally.record(same_answer(a, &skeletons, "train_ds_0"));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(tally.error_rate(), 0.5);
    }
}
