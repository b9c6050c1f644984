//! The `automl` workload: a closed loop of budgeted KGpip runs, one at a
//! time, as `kgpip-cli run` makes them. Each run takes a labelled CSV
//! document through `read_frame` → `Dataset::from_frame` → split →
//! `run_k` (K = 3) → `refit_score`.
//!
//! A trial cap that binds long before the wall clock keeps the work and
//! the scores deterministic, so every score must be bit-equal to the value
//! recorded in `golden/automl.txt`. The datasets pair narrow tables (below
//! the GBT parallel-scan threshold of 16 features) with wide categorical or
//! missing-value tables (above it, where every tree node fans out a
//! `par_iter`), and both backends run. hpo and learners do most of the
//! work here; generation is a few milliseconds of each run.

use crate::measure::{mean, ms, percentile, ratio, Cpu, Rng, Tally};
use crate::report::Report;
use crate::trace::Tracer;
use crate::E2e;
use kgpip::TrainedModel;
use kgpip_benchdata::{benchmark, generate_dataset, ScaleConfig};
use kgpip_hpo::{AutoSklearn, Flaml, Optimizer, SearchReport, TimeBudget};
use kgpip_tabular::csv::{read_frame, write_csv};
use kgpip_tabular::{train_test_split, Column, DataFrame, Dataset};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// `kropt` (6 columns, 8 classes) and `houses` (8, regression) are narrow;
/// `sick` (mostly categorical) and `housing-prices` (mixed, with missing
/// cells) are wide at 20 columns.
pub const DATASETS: [&str; 4] = ["kropt", "houses", "sick", "housing-prices"];
/// Trials per run, split `(T − t)/K` across the skeletons.
pub const TRIAL_CAP: usize = 12;
/// The wall-clock budget; the trial cap binds long before it.
const BUDGET_SECS: f64 = 120.0;
const K: usize = 3;
const DATA_SEED: u64 = 11;
/// Rows per table, at the catalog's 20-column scale cap.
const SCALE: ScaleConfig = ScaleConfig {
    max_rows: 300,
    max_cols: 20,
};
const SPLIT_SEED: u64 = 11;
const ORDER_STREAM: u64 = 3;

const GOLDEN: &str = include_str!("../golden/automl.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Flaml,
    AutoSklearn,
}

impl Backend {
    pub const ALL: [Backend; 2] = [Backend::Flaml, Backend::AutoSklearn];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Flaml => "flaml",
            Backend::AutoSklearn => "autosklearn",
        }
    }

    fn engine(self) -> Box<dyn Optimizer> {
        match self {
            Backend::Flaml => Box::new(Flaml::new(0)),
            Backend::AutoSklearn => Box::new(AutoSklearn::new(0)),
        }
    }
}

pub struct Op {
    pub dataset: &'static str,
    pub backend: Backend,
    pub csv: Arc<str>,
}

/// Every (dataset, backend) run, in an order drawn from the seed. The data
/// itself is fixed, so every seed does the same work and the recorded
/// scores apply to every run.
pub fn inputs(seed: u64) -> Vec<Op> {
    let mut ops: Vec<Op> = DATASETS
        .iter()
        .flat_map(|&dataset| {
            let csv: Arc<str> = Arc::from(labelled_csv(dataset));
            Backend::ALL.map(|backend| Op {
                dataset,
                backend,
                csv: Arc::clone(&csv),
            })
        })
        .collect();
    Rng::new(seed, ORDER_STREAM).shuffle(&mut ops);
    ops
}

fn labelled_csv(name: &str) -> String {
    let entry = benchmark()
        .iter()
        .find(|e| e.name == name)
        .expect("automl datasets are Table-4 entries");
    let ds = generate_dataset(entry, &SCALE, DATA_SEED);
    let mut frame: DataFrame = ds.features;
    let target = if ds.task.is_classification() {
        Column::categorical(ds.target.iter().map(|c| Some(format!("class_{c}"))))
    } else {
        Column::from_f64(ds.target.iter().copied())
    };
    frame
        .push("target", target)
        .expect("generated feature names never collide with `target`");
    write_csv(&frame)
}

fn budget() -> TimeBudget {
    TimeBudget::seconds(BUDGET_SECS).with_trial_cap(TRIAL_CAP)
}

fn split(op: &Op, frame: DataFrame) -> Result<(Dataset, Dataset), String> {
    let ds = Dataset::from_frame(op.dataset, frame, "target").map_err(|e| e.to_string())?;
    train_test_split(&ds, 0.3, SPLIT_SEED).map_err(|e| e.to_string())
}

/// The recorded holdout score of a (dataset, backend) run, as `f64` bits.
pub fn golden(dataset: &str, backend: Backend) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != dataset || fields.next()? != backend.name() {
            return None;
        }
        u64::from_str_radix(fields.next()?, 16).ok()
    })
}

/// A run's answer is right when its score is bit-equal to the recorded one.
pub fn score_ok(op: &Op, score: f64) -> bool {
    golden(op.dataset, op.backend) == Some(score.to_bits())
}

pub struct Outcome {
    pub score: f64,
    pub trials: usize,
    pub generation_ms: f64,
}

/// One run through the public one-call API.
fn run_op(model: &TrainedModel, op: &Op) -> Result<Outcome, String> {
    let frame = read_frame(&op.csv).map_err(|e| e.to_string())?;
    let (train, test) = split(op, frame)?;
    let mut engine = op.backend.engine();
    let run = model
        .run_k(&train, engine.as_mut(), budget(), K)
        .map_err(|e| e.to_string())?;
    let score = run
        .best()
        .refit_score(&train, &test)
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        score,
        trials: run
            .results
            .iter()
            .filter_map(|r| r.hpo.as_ref())
            .map(|h| h.trials)
            .sum(),
        generation_ms: ms(run.generation_time),
    })
}

/// One untraced pass over every op, recording each answer in `tally`;
/// returns each outcome with its milliseconds.
fn pass(model: &TrainedModel, ops: &[Op], tally: &mut Tally) -> Vec<(Option<Outcome>, f64)> {
    ops.iter()
        .map(|op| {
            let started = Instant::now();
            let outcome = run_op(model, op).ok();
            let took = ms(started.elapsed());
            tally.record(outcome.as_ref().is_some_and(|o| score_ok(op, o.score)));
            (outcome, took)
        })
        .collect()
}

/// The untraced run: whole passes over the ops until `seconds` have gone.
pub fn measure(model: &TrainedModel, seed: u64, seconds: f64) -> E2e {
    let ops = inputs(seed);
    let mut tally = Tally::default();
    let mut runs = Vec::new();
    let began = Instant::now();
    while runs.is_empty() || began.elapsed().as_secs_f64() < seconds {
        runs.extend(pass(model, &ops, &mut tally));
    }
    let wall_s = began.elapsed().as_secs_f64();
    let run_ms: Vec<f64> = runs.iter().map(|(_, took)| *took).collect();
    let outcomes = || runs.iter().filter_map(|(o, _)| o.as_ref());
    let trials: usize = outcomes().map(|o| o.trials).sum();
    // Every pass runs the same ops, so the first pass's scores are all of them.
    let scores: Vec<f64> = outcomes().take(ops.len()).map(|o| o.score).collect();
    E2e {
        p50_ms: percentile(&run_ms, 50.0),
        tail_ms: percentile(&run_ms, 90.0),
        throughput_per_s: ratio(trials as f64, wall_s),
        peak_rss_mb: crate::measure::peak_rss_mb(),
        answer_quality: mean(&scores),
        tally,
    }
}

/// One run through the staged public calls `run_k` makes on one lane:
/// generation, then `optimize_skeleton` per skeleton on a `(T − t)/K`
/// sub-budget, then the refit of the best search.
fn traced_op(
    model: &TrainedModel,
    op: &Op,
    i: usize,
    tracer: &mut Tracer,
) -> Result<(f64, Vec<SearchReport>), String> {
    let frame = tracer
        .span("tabular.read_frame", i, || read_frame(&op.csv))
        .map_err(|e| e.to_string())?;
    let (train, test) = tracer.span("tabular.dataset", i, || split(op, frame))?;
    let budget = budget();
    let mut engine = op.backend.engine();
    engine.set_trial_cache(!model.config().disable_trial_cache);
    let caps = engine.capabilities();
    let (skeletons, _) = tracer
        .span("core.generation", i, || {
            model.predict_skeletons(&train, K, &caps, model.config().seed)
        })
        .map_err(|e| e.to_string())?;
    let total = skeletons.len();
    let mut searches = Vec::with_capacity(total);
    for (rank, (skeleton, _)) in skeletons.iter().enumerate() {
        let sub = budget.sub_budget_k(total - rank);
        searches.push(
            tracer
                .span("hpo.search", i, || {
                    engine.optimize_skeleton(&train, skeleton, &sub)
                })
                .ok(),
        );
    }
    let best = searches
        .iter()
        .flatten()
        .enumerate()
        .map(|(j, h)| (j, h.valid_score))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(j, _)| j)
        .ok_or("every skeleton search failed")?;
    let searches: Vec<_> = searches.into_iter().flatten().collect();
    let score = tracer
        .span("learners.refit", i, || {
            searches[best].refit_score(&train, &test)
        })
        .map_err(|e| e.to_string())?;
    Ok((score, searches.into_iter().map(|h| h.report).collect()))
}

/// The traced replay: a warm-up pass fills the process-wide caches (GBT
/// bin edges), then an untraced and a traced pass over the same runs.
pub fn trace(model: &TrainedModel, seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let ops = inputs(seed);
    let mut tally = Tally::default();
    pass(model, &ops, &mut tally);
    let cpu_before = Cpu::now();
    let began = Instant::now();
    let outcomes = pass(model, &ops, &mut tally);
    let untraced_s = began.elapsed().as_secs_f64();
    let cpu = Cpu::now().since(cpu_before);

    tracer.workload = "automl";
    let mut searches: Vec<SearchReport> = Vec::new();
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let outcome = traced_op(model, op, i, tracer);
        tally.record(
            outcome
                .as_ref()
                .is_ok_and(|(score, _)| score_ok(op, *score)),
        );
        if let Ok((_, reports)) = outcome {
            searches.extend(reports);
        }
    }
    let traced_s = began.elapsed().as_secs_f64();

    let sum = |f: fn(&SearchReport) -> u64| searches.iter().map(f).sum::<u64>() as f64;
    let trials = sum(|r| r.trials as u64);
    let hits = sum(|r| r.cache_hits);
    let search_ms: f64 = tracer.mean_ms("automl", "hpo.search");
    let generation: Vec<f64> = outcomes
        .iter()
        .filter_map(|(o, _)| o.as_ref())
        .map(|o| o.generation_ms)
        .collect();
    let runs = ops.len() as f64;
    report.metric(
        "tabular.read_frame_ms",
        tracer.mean_ms("automl", "tabular.read_frame"),
        "ms",
    );
    report.metric("core.generation_t_ms", mean(&generation), "ms");
    report.metric("hpo.search_ms", search_ms, "ms");
    report.metric("hpo.trials", ratio(trials, runs), "count");
    report.metric(
        "hpo.trial_ms",
        ratio(search_ms * searches.len() as f64, trials),
        "ms",
    );
    report.metric(
        "hpo.failed_trial_share",
        ratio(sum(|r| r.failures as u64), trials),
        "share",
    );
    report.metric(
        "hpo.transform_cache_hit_rate",
        ratio(hits, hits + sum(|r| r.cache_misses)),
        "share",
    );
    report.metric(
        "learners.refit_ms",
        tracer.mean_ms("automl", "learners.refit"),
        "ms",
    );
    report.metric(
        "coverage.automl",
        ratio(tracer.total_ms("automl"), untraced_s * 1e3),
        "share",
    );
    report.metric(
        "trace_overhead.automl",
        ratio(traced_s, untraced_s) - 1.0,
        "share",
    );
    report.metric("proc.automl.user_cpu_s", cpu.user_s / runs, "s");
    report.metric("proc.automl.sys_cpu_s", cpu.sys_s / runs, "s");
    tracer.cpu_metrics(
        report,
        "automl",
        &["core.generation"],
        &["hpo.search", "learners.refit"],
    );
    report.tally.merge(tally);
}

/// The golden file for the current build: one line per (dataset, backend)
/// with the holdout score's bits. Re-record only when a change is meant to
/// alter what a run computes.
pub fn record_golden(model: &TrainedModel) -> String {
    let mut out = String::from("# dataset backend score-bits score\n");
    let mut ops = inputs(0);
    ops.sort_by_key(|op| (op.dataset, op.backend.name()));
    for op in &ops {
        match run_op(model, op) {
            Ok(o) => writeln!(
                out,
                "{} {} {:016x} {}",
                op.dataset,
                op.backend.name(),
                o.score.to_bits(),
                o.score
            ),
            Err(e) => writeln!(out, "# {} {} failed: {e}", op.dataset, op.backend.name()),
        }
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_order_of_one_set_of_runs() {
        let key = |ops: &[Op]| -> Vec<(String, &'static str, u64)> {
            ops.iter()
                .map(|op| {
                    (
                        op.dataset.to_string(),
                        op.backend.name(),
                        kgpip_tabular::fnv1a(op.csv.as_bytes()),
                    )
                })
                .collect()
        };
        let a = key(&inputs(1));
        assert_eq!(a, key(&inputs(1)));
        assert_ne!(a, key(&inputs(2)));
        assert_eq!(a.len(), DATASETS.len() * Backend::ALL.len());
    }

    #[test]
    fn a_score_off_by_one_bit_is_counted_as_failed() {
        let op = inputs(0).remove(0);
        let recorded =
            f64::from_bits(golden(op.dataset, op.backend).expect("every run has a recorded score"));
        let mut tally = Tally::default();
        tally.record(score_ok(&op, recorded));
        tally.record(score_ok(&op, f64::from_bits(recorded.to_bits() ^ 1)));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }
}
