//! Workload benchmark for KGpip.
//!
//! Drives the public API of the workspace crates from outside, in one
//! process, through three workloads — `serve`, `automl` and `ingest`; see
//! README.md beside this crate for why each exists and which layers it
//! loads. Every run first sets up the model (train → snapshot → reopen,
//! repeated), generates the workload's inputs from `--seed` before any
//! timing starts, measures for about `--seconds`, checks the answers, and
//! prints one JSON object as the last line of standard output:
//!
//! * `--trace 0`: the named workload's end-to-end metrics;
//! * `--trace 1`: a separate traced run that replays every workload's
//!   inputs through the staged public calls and reports the per-layer
//!   metrics, each workload's coverage and the tracing overhead.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 20 --trace 0
//! ```

// A benchmark reads the clock by design.
#![allow(clippy::disallowed_methods)]

mod automl;
mod ingest;
mod measure;
mod report;
mod serve;
mod setup;
mod trace;

use measure::Tally;
use report::Report;
use setup::Setup;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload serve|automl|ingest --seed <n> --seconds <n> --trace 0|1
       perfbench --record-golden   (prints golden/automl.txt for the current build)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serve,
    Automl,
    Ingest,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What an untraced run of one workload measured.
pub struct E2e {
    /// Median operation latency: a request from its due time, a run from
    /// CSV to refit score, a file from text to skeletons.
    pub p50_ms: f64,
    /// p90 latency. About 13 samples lie beyond it in a serve run; the
    /// closed loops have fewer, but their passes repeat one fixed mix.
    pub tail_ms: f64,
    /// Burst requests, trials, or rows completed per second.
    pub throughput_per_s: f64,
    pub peak_rss_mb: f64,
    /// Mean holdout score for `automl`; mean similarity of the query to
    /// the retrieved dataset for `serve` and `ingest`.
    pub answer_quality: f64,
    pub tally: Tally,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "serve" => Workload::Serve,
        "automl" => Workload::Automl,
        "ingest" => Workload::Ingest,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let setup = Setup::build()?;
    let mut report = Report::default();
    report.tally = setup.tally;
    if args.trace {
        trace::run(&setup, args.seed, args.seconds, &mut report);
        return Ok(report);
    }
    let e2e = match args.workload {
        Workload::Serve => serve::measure(&setup.model, args.seed, args.seconds),
        Workload::Automl => automl::measure(&setup.model, args.seed, args.seconds),
        Workload::Ingest => ingest::measure(&setup.model, args.seed, args.seconds),
    };
    report.tally.merge(e2e.tally);
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("p50_ms", e2e.p50_ms, "ms");
    report.metric("tail_ms", e2e.tail_ms, "ms");
    report.metric("throughput_per_s", e2e.throughput_per_s, "1/s");
    report.metric("peak_rss_mb", e2e.peak_rss_mb, "MiB");
    report.metric("answer_quality", e2e.answer_quality, "score");
    report.metric("ok_rate", 1.0 - report.tally.error_rate(), "share");
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record-golden") {
        return match Setup::build() {
            Ok(setup) => {
                print!("{}", automl::record_golden(&setup.model));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
