//! The `ingest` workload: a closed loop over large CSV documents, one at a
//! time, as `kgpip-cli predict --chunked` handles them: `read_chunked` in
//! bounded-memory mode, then the chunked embedding and the usual
//! nearest-dataset and generation stages. Files sit on both sides of
//! `EMBED_SAMPLE_BOUND`, so the exact and the sampled embedding paths are
//! both measured. The tabular and embedding layers dominate here and are
//! minor elsewhere; this is also the only path whose reason to exist is
//! bounded memory.

use crate::measure::{mean, ms, percentile, ratio, Cpu, Rng, Tally};
use crate::report::Report;
use crate::trace::Tracer;
use crate::E2e;
use kgpip::predict::EMBED_SAMPLE_BOUND;
use kgpip::TrainedModel;
use kgpip_hpo::{Flaml, Optimizer, Skeleton};
use kgpip_tabular::csv::read_frame;
use kgpip_tabular::{read_chunked_with_report, ChunkedReadOptions, IngestReport, Task};
use std::fmt::Write as _;
use std::time::Instant;

/// Rows per document: two at or below `EMBED_SAMPLE_BOUND`, two above.
pub const FILE_ROWS: [usize; 4] = [60_000, 100_000, 130_000, 180_000];
/// The CLI's default chunk size.
const CHUNK_ROWS: usize = 8192;
const K: usize = 3;
const FILE_STREAM: u64 = 4;

const CATEGORIES: [&str; 12] = [
    "north", "south", "east", "west", "centre", "coast", "hills", "plain", "delta", "lakes",
    "islands", "border",
];
const WORDS: [&str; 24] = [
    "late", "delivery", "damaged", "box", "refund", "asked", "great", "service", "slow", "courier",
    "missing", "item", "quick", "reply", "wrong", "size", "happy", "with", "price", "again",
    "order", "never", "arrived", "thanks",
];

pub struct File {
    pub rows: usize,
    pub task: Task,
    pub csv: String,
}

fn gaussian(rng: &mut Rng) -> f64 {
    (0..4).map(|_| rng.unit()).sum::<f64>() - 2.0
}

/// Location and scale of the numeric columns; fixed, so the seed varies
/// cell values and not the shape of the table.
const NUMERIC: [(f64, f64); 5] = [
    (0.0, 1.0),
    (50.0, 10.0),
    (-20.0, 4.0),
    (1000.0, 250.0),
    (3.0, 0.5),
];

/// A document with an id, five numeric columns (about 2% missing), two
/// categorical columns and one free-text column.
fn document(rng: &mut Rng, rows: usize) -> String {
    let mut out = String::with_capacity(rows * 100);
    out.push_str("id,f0,f1,f2,f3,f4,region,grade,note\n");
    for row in 0..rows {
        let _ = write!(out, "{row}");
        for (offset, scale) in NUMERIC {
            if rng.unit() < 0.02 {
                out.push(',');
            } else {
                let _ = write!(out, ",{:.3}", offset + scale * gaussian(rng));
            }
        }
        let _ = write!(
            out,
            ",{},{}",
            CATEGORIES[rng.below(CATEGORIES.len())],
            ["A", "B", "C", "D", "E"][rng.below(5)]
        );
        out.push(',');
        for w in 0..5 + rng.below(4) {
            if w > 0 {
                out.push(' ');
            }
            out.push_str(WORDS[rng.below(WORDS.len())]);
        }
        out.push('\n');
    }
    out
}

/// One document per size, with a task each, in an order drawn from the
/// seed.
pub fn inputs(seed: u64, sizes: &[usize]) -> Vec<File> {
    let mut rng = Rng::new(seed, FILE_STREAM);
    let mut files: Vec<File> = sizes
        .iter()
        .map(|&rows| File {
            rows,
            task: if rng.below(2) == 0 {
                Task::Binary
            } else {
                Task::Regression
            },
            csv: document(&mut rng, rows),
        })
        .collect();
    rng.shuffle(&mut files);
    files
}

fn options() -> ChunkedReadOptions {
    ChunkedReadOptions {
        chunk_rows: CHUNK_ROWS,
        parallelism: 1,
        bounded_memory: true,
    }
}

type Answer = (Vec<(Skeleton, f64)>, String);
/// Per document: its first answer and query embedding, once it has one.
type Firsts = Vec<Option<(Answer, Vec<f64>)>>;
/// Per operation: the document, whether the answer was right, milliseconds.
type Ops = Vec<(usize, bool, f64)>;

/// `predict_table_chunked` split at its one seam (embed, then predict
/// from the query embedding) so the checks can reuse the embedding.
fn ingest(model: &TrainedModel, file: &File, caps: &str) -> Result<(Answer, Vec<f64>), String> {
    let (frame, _) = read_chunked_with_report(&file.csv, &options()).map_err(|e| e.to_string())?;
    let query = model.embed_table_chunked(&frame);
    let answer = model
        .predict_from_query_embedding(&query, file.task, K, caps, 0)
        .map_err(|e| e.to_string())?;
    Ok((answer, query))
}

fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.1 == b.1
        && a.0.len() == b.0.len()
        && a.0
            .iter()
            .zip(&b.0)
            .all(|((s, g), (t, h))| s == t && g.to_bits() == h.to_bits())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-file checks made once, after timing: at or below the sample bound
/// the chunked embedding must equal `embed_table` on `read_frame` of the
/// same text. Also returns the similarity to the nearest dataset.
fn check_file(model: &TrainedModel, file: &File, query: &[f64]) -> (bool, Option<f64>) {
    let similarity = model.nearest_by_embedding(query).ok().map(|(_, s)| s);
    let exact = file.rows > EMBED_SAMPLE_BOUND
        || read_frame(&file.csv).is_ok_and(|frame| same_bits(&model.embed_table(&frame), query));
    (exact, similarity)
}

/// Passes over the files, each answer checked against the file's first.
fn passes(
    model: &TrainedModel,
    files: &[File],
    min_passes: usize,
    seconds: f64,
) -> (Ops, Firsts, f64) {
    let caps = Flaml::new(0).capabilities();
    let mut first: Firsts = files.iter().map(|_| None).collect();
    let mut ops = Vec::new();
    let began = Instant::now();
    let mut done = 0;
    while done < min_passes || began.elapsed().as_secs_f64() < seconds {
        for (f, file) in files.iter().enumerate() {
            let started = Instant::now();
            let outcome = ingest(model, file, &caps);
            let took = ms(started.elapsed());
            let ok = match (outcome, &first[f]) {
                (Ok((answer, _)), Some((reference, _))) => same_answer(&answer, reference),
                (Ok(fresh), None) => {
                    first[f] = Some(fresh);
                    true
                }
                (Err(_), _) => false,
            };
            ops.push((f, ok, took));
        }
        done += 1;
    }
    (ops, first, began.elapsed().as_secs_f64())
}

/// Records each op, failing every op on a file whose check failed.
fn tally_ops(
    model: &TrainedModel,
    files: &[File],
    ops: &[(usize, bool, f64)],
    first: &Firsts,
) -> (Tally, f64) {
    let mut file_ok = vec![false; files.len()];
    let mut similarity = Vec::new();
    for (f, file) in files.iter().enumerate() {
        if let Some((_, query)) = &first[f] {
            let (exact, sim) = check_file(model, file, query);
            file_ok[f] = exact;
            similarity.extend(sim);
        }
    }
    let mut tally = Tally::default();
    for &(f, ok, _) in ops {
        tally.record(ok && file_ok[f]);
    }
    (tally, mean(&similarity))
}

/// The untraced run: whole passes over the files until `seconds` have gone.
pub fn measure(model: &TrainedModel, seed: u64, seconds: f64) -> E2e {
    let files = inputs(seed, &FILE_ROWS);
    let (ops, first, wall_s) = passes(model, &files, 1, seconds);
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let rows: usize = ops.iter().map(|&(f, _, _)| files[f].rows).sum();
    let file_ms: Vec<f64> = ops.iter().map(|&(_, _, took)| took).collect();
    let (tally, similarity) = tally_ops(model, &files, &ops, &first);
    E2e {
        p50_ms: percentile(&file_ms, 50.0),
        tail_ms: percentile(&file_ms, 90.0),
        throughput_per_s: ratio(rows as f64, wall_s),
        peak_rss_mb,
        answer_quality: similarity,
        tally,
    }
}

/// The traced replay: a warm-up and an untraced pass, then a traced pass
/// through `read_chunked` → `embed_table_chunked` → `nearest_by_embedding`
/// → `predict_with_embedding`.
pub fn trace(model: &TrainedModel, seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let files = inputs(seed, &FILE_ROWS);
    let caps = Flaml::new(0).capabilities();
    let (warm_ops, first, _) = passes(model, &files, 1, 0.0);
    let cpu_before = Cpu::now();
    let (ops, _, untraced_s) = passes(model, &files, 1, 0.0);
    let cpu = Cpu::now().since(cpu_before);
    let all_ops: Vec<_> = warm_ops.into_iter().chain(ops).collect();
    let (mut tally, _) = tally_ops(model, &files, &all_ops, &first);

    tracer.workload = "ingest";
    let mut peak_chunks = 0usize;
    let began = Instant::now();
    for (f, file) in files.iter().enumerate() {
        let read = tracer.span("tabular.read_chunked", f, || {
            read_chunked_with_report(&file.csv, &options())
        });
        let answer = read.ok().and_then(|(frame, ingest): (_, IngestReport)| {
            peak_chunks = peak_chunks.max(ingest.peak_resident_chunks);
            let query = tracer.span("embeddings.embed_chunked", f, || {
                model.embed_table_chunked(&frame)
            });
            let (neighbour, _) = tracer
                .quick_span("embeddings.nearest", f, || {
                    model.nearest_by_embedding(&query)
                })
                .ok()?;
            let embedding = model.embedding_of(&neighbour)?;
            let skeletons = tracer.span("graphgen.predict", f, || {
                model.predict_with_embedding(embedding, file.task, K, &caps, 0)
            });
            Some((skeletons.ok()?, neighbour))
        });
        let reference = first[f].as_ref().map(|(a, _)| a);
        tally.record(
            answer
                .as_ref()
                .zip(reference)
                .is_some_and(|(a, r)| same_answer(a, r)),
        );
    }
    let traced_s = began.elapsed().as_secs_f64();

    let n = files.len() as f64;
    report.metric(
        "tabular.read_chunked_ms",
        tracer.mean_ms("ingest", "tabular.read_chunked"),
        "ms",
    );
    report.metric("tabular.peak_resident_chunks", peak_chunks as f64, "count");
    report.metric(
        "embeddings.embed_chunked_ms",
        tracer.mean_ms("ingest", "embeddings.embed_chunked"),
        "ms",
    );
    report.metric(
        "coverage.ingest",
        ratio(tracer.total_ms("ingest"), untraced_s * 1e3),
        "share",
    );
    report.metric(
        "trace_overhead.ingest",
        ratio(traced_s, untraced_s) - 1.0,
        "share",
    );
    report.metric("proc.ingest.user_cpu_s", cpu.user_s / n, "s");
    tracer.cpu_metrics(
        report,
        "ingest",
        &["tabular.read_chunked", "embeddings.embed_chunked"],
        &[],
    );
    report.tally.merge(tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_set_of_documents() {
        let docs = |seed| -> Vec<(usize, Task, String)> {
            inputs(seed, &[300, 500])
                .into_iter()
                .map(|f| (f.rows, f.task, f.csv))
                .collect()
        };
        let a = docs(5);
        assert_eq!(a, docs(5));
        assert_ne!(a, docs(6));
    }

    #[test]
    fn documents_parse_to_their_declared_shape() {
        for file in inputs(9, &[400]) {
            let frame = read_frame(&file.csv).unwrap();
            assert_eq!(frame.num_rows(), file.rows);
            assert_eq!(frame.kind_counts(), (6, 2, 1), "numeric, categorical, text");
        }
    }
}
