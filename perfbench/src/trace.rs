//! The traced run: spans around each call into a layer's public functions,
//! recorded from outside the program and kept in memory until the run
//! ends, when they are written out with the per-layer metrics.
//!
//! A traced run replays every workload's inputs through the staged public
//! calls, so each per-layer metric is measured on the workload where its
//! layer does the work (see README.md for the map). For each workload it
//! also reports *coverage* — summed layer time over the untraced time of
//! the same operations — and the tracing overhead, the traced replay's wall
//! time over the untraced one's, minus one.

use crate::measure::{mean, ms, ratio, Cpu};
use crate::report::Report;
use crate::setup::Setup;
use crate::{automl, ingest, serve};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Where traced runs write their spans, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

pub struct Span {
    pub workload: &'static str,
    pub layer: &'static str,
    /// The operation (request, run or file) the call served; spans of one
    /// operation share it.
    pub op: usize,
    pub start_ms: f64,
    pub dur_ms: f64,
    /// Process CPU time used during the call; `None` for calls too short
    /// to be worth two reads of `/proc/self/stat`.
    pub cpu: Option<Cpu>,
}

pub struct Tracer {
    origin: Instant,
    /// The workload new spans are attributed to.
    pub workload: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
        }
    }

    /// Times `f` as one call into `layer`, with the CPU time it used.
    pub fn span<R>(&mut self, layer: &'static str, op: usize, f: impl FnOnce() -> R) -> R {
        self.record(layer, op, true, f)
    }

    /// [`Tracer::span`] without CPU accounting, for calls of a few
    /// microseconds, where reading `/proc` would cost more than the call.
    pub fn quick_span<R>(&mut self, layer: &'static str, op: usize, f: impl FnOnce() -> R) -> R {
        self.record(layer, op, false, f)
    }

    fn record<R>(&mut self, layer: &'static str, op: usize, cpu: bool, f: impl FnOnce() -> R) -> R {
        let cpu_before = cpu.then(Cpu::now);
        let began = Instant::now();
        let out = f();
        let dur = began.elapsed();
        let cpu = cpu_before.map(|before| Cpu::now().since(before));
        self.spans.push(Span {
            workload: self.workload,
            layer,
            op,
            start_ms: ms(began - self.origin),
            dur_ms: ms(dur),
            cpu,
        });
        out
    }

    fn calls<'a>(
        &'a self,
        workload: &'a str,
        layer: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.workload == workload && s.layer == layer)
    }

    /// Mean milliseconds per call of `layer` on `workload`.
    pub fn mean_ms(&self, workload: &str, layer: &str) -> f64 {
        mean(
            &self
                .calls(workload, layer)
                .map(|s| s.dur_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// Summed milliseconds of every span recorded for `workload`.
    pub fn total_ms(&self, workload: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.workload == workload)
            .map(|s| s.dur_ms)
            .sum()
    }

    /// Reports CPU milliseconds per call of each layer: user time for
    /// `user`, user and kernel time for `user_and_sys`. `/proc` counts CPU
    /// time in 10 ms ticks, so only layers whose calls run for tens of
    /// milliseconds are listed, and kernel time only where threads are
    /// spawned per call.
    pub fn cpu_metrics(
        &self,
        report: &mut Report,
        workload: &str,
        user: &[&str],
        user_and_sys: &[&str],
    ) {
        for (layer, with_sys) in user
            .iter()
            .map(|l| (l, false))
            .chain(user_and_sys.iter().map(|l| (l, true)))
        {
            let cpus: Vec<Cpu> = self.calls(workload, layer).filter_map(|s| s.cpu).collect();
            let n = cpus.len() as f64;
            let user_s: f64 = cpus.iter().map(|c| c.user_s).sum();
            report.metric(
                format!("proc.{layer}.user_ms"),
                ratio(user_s * 1e3, n),
                "ms",
            );
            if with_sys {
                let sys_s: f64 = cpus.iter().map(|c| c.sys_s).sum();
                report.metric(format!("proc.{layer}.sys_ms"), ratio(sys_s * 1e3, n), "ms");
            }
        }
    }

    /// Writes the result line and every span as one JSON document.
    fn write(&self, path: &Path, report: &Report) -> std::io::Result<()> {
        let mut out = format!("{{\"result\": {},\n\"spans\": [\n", report.to_json());
        for (i, s) in self.spans.iter().enumerate() {
            let cpu = s.cpu.map_or_else(
                || "null".to_string(),
                |c| {
                    format!(
                        "{{\"user_ms\": {}, \"sys_ms\": {}}}",
                        c.user_s * 1e3,
                        c.sys_s * 1e3
                    )
                },
            );
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"workload\": \"{}\", \"layer\": \"{}\", \"op\": {}, \"start_ms\": {}, \"dur_ms\": {}, \"cpu\": {cpu}}}{sep}",
                s.workload, s.layer, s.op, s.start_ms, s.dur_ms
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The traced run: set-up layer times, then each workload's replay.
pub fn run(setup: &Setup, seed: u64, seconds: f64, report: &mut Report) {
    report.metric("codegraph.mining_s", setup.mining_s, "s");
    report.metric("embeddings.train_embed_s", setup.train_embed_s, "s");
    report.metric("graphgen.train_s", setup.graph_train_s, "s");
    report.metric("core.snapshot_ms", setup.snapshot_ms, "ms");
    report.metric("core.open_ms", setup.open_ms, "ms");
    let mut tracer = Tracer::new();
    serve::trace(&setup.model, seed, seconds / 3.0, &mut tracer, report);
    automl::trace(&setup.model, seed, &mut tracer, report);
    ingest::trace(&setup.model, seed, &mut tracer, report);
    let path = Path::new(OUT_DIR).join(format!("trace-seed{seed}.json"));
    match tracer.write(&path, report) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
