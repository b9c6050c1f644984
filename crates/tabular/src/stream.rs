//! Streaming chunked CSV ingest.
//!
//! [`read_chunked`] parses a CSV document into a [`ChunkedFrame`] in
//! fixed-size row chunks on a clamped rayon pool, bit-identical to
//! [`crate::csv::read_frame`] at any chunk size × worker count:
//!
//! 1. a sequential quote-aware scan locates record boundaries (cheap: no
//!    field is materialized) and surfaces every structural error at the
//!    same source line the in-memory reader reports;
//! 2. **pass 1** parses each chunk of records on the pool and reduces it
//!    to per-column accumulators — present count, the numeric/marker
//!    lattice flags, token sums, and the first-appearance distinct list;
//! 3. the accumulators meet in chunk order, which reproduces
//!    `infer_column`'s decisions exactly (the distinct lists merge into
//!    the global first-appearance dictionary);
//! 4. **pass 2** decodes each chunk into typed [`Column`]s under the
//!    decided kinds, all categorical chunks sharing one dictionary `Arc`;
//!    chunks merge in submission order.
//!
//! With [`ChunkedReadOptions::bounded_memory`] the reader trades one extra
//! parse for bounded buffering: chunks are processed in waves of at most
//! `2 × workers`, so no more than two chunks of parsed cells are resident
//! per worker at any time (pass 2 re-parses from the source). The default
//! mode parses once and keeps the borrowed cells between passes — cells
//! are slices into the input, so this costs pointers, not string copies.

use crate::chunk::ChunkedFrame;
use crate::column::Column;
use crate::csv::{header_names, parse_span, ragged_row_error, scan_records, RecordSpan};
use crate::infer::{is_missing_marker, is_text, parse_number};
use crate::parallel::effective_parallelism;
use crate::Result;
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::Arc;

/// One parsed record: borrowed cells, `None` = missing.
type Record<'a> = Vec<Option<Cow<'a, str>>>;

/// Options for [`read_chunked`].
#[derive(Debug, Clone)]
pub struct ChunkedReadOptions {
    /// Rows per chunk (clamped to at least 1).
    pub chunk_rows: usize,
    /// Requested worker count; clamped through [`effective_parallelism`].
    pub parallelism: usize,
    /// When set, parse in waves of `2 × workers` chunks and re-parse in
    /// pass 2, bounding resident parse buffers instead of keeping every
    /// chunk's cells alive between passes.
    pub bounded_memory: bool,
}

impl Default for ChunkedReadOptions {
    fn default() -> Self {
        ChunkedReadOptions {
            chunk_rows: 8192,
            parallelism: 1,
            bounded_memory: false,
        }
    }
}

/// What the ingest cost: the observability half of the house invariant
/// (the frame itself is identical on every path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Data rows parsed.
    pub rows: usize,
    /// Number of chunks.
    pub chunks: usize,
    /// Workers used after clamping.
    pub workers: usize,
    /// Peak number of chunks whose parsed cells were resident at once —
    /// the peak-RSS proxy. `<= 2 × workers` in bounded mode.
    pub peak_resident_chunks: usize,
}

/// Per-column accumulator a chunk reduces to in pass 1. Merging these in
/// chunk order reproduces `infer_column`'s decision inputs exactly.
struct ColAcc {
    present: usize,
    all_num_or_marker: bool,
    any_real: bool,
    token_sum: usize,
    /// Distinct present values in first-appearance order within the chunk.
    distinct: Vec<String>,
}

impl ColAcc {
    fn new() -> ColAcc {
        ColAcc {
            present: 0,
            all_num_or_marker: true,
            any_real: false,
            token_sum: 0,
            distinct: Vec::new(),
        }
    }
}

/// The decided kind of a column, carried into pass-2 decode.
enum KindDecision {
    Numeric,
    Text,
    Categorical {
        dictionary: Arc<Vec<String>>,
        lookup: HashMap<String, u32>,
    },
}

/// Parses one chunk of record spans and ragged-checks it. `base` is the
/// global index of the chunk's first data record (for error parity with
/// the in-memory reader).
fn parse_chunk<'a>(
    input: &'a str,
    spans: &[RecordSpan],
    base: usize,
    ncols: usize,
) -> Result<Vec<Record<'a>>> {
    let mut rows = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let row = parse_span(input, *span)?;
        if row.len() != ncols {
            return Err(ragged_row_error(base + i, ncols, row.len()));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Reduces a parsed chunk to per-column accumulators. With `details`
/// unset, only the cheap numeric-lattice flags are collected — the
/// token sums and distinct lists those flags gate are consumed solely
/// for non-numeric columns (`infer_column` early-returns on numeric
/// ones), so the resident-cells mode defers them to
/// [`accumulate_details`] once the numeric mask is known. Bounded mode
/// collects everything in one pass because the cells are dropped after
/// it.
fn accumulate(rows: &[Record<'_>], ncols: usize, details: bool) -> Vec<ColAcc> {
    let mut accs: Vec<ColAcc> = (0..ncols).map(|_| ColAcc::new()).collect();
    for c in 0..ncols {
        // Chunk-local membership; the set is never iterated.
        let mut seen: HashSet<&str> = HashSet::new();
        let acc = &mut accs[c];
        for row in rows {
            if let Some(s) = row[c].as_deref() {
                acc.present += 1;
                // Once one cell breaks the numeric lattice the column can
                // never be numeric (`decide` tests `all_num && any_real`),
                // so the remaining cells skip the parse probe entirely.
                if acc.all_num_or_marker {
                    if parse_number(s).is_some() {
                        acc.any_real = true;
                    } else if !is_missing_marker(s) {
                        acc.all_num_or_marker = false;
                    }
                }
                if details {
                    acc.token_sum += s.split_whitespace().count();
                    if seen.insert(s) {
                        acc.distinct.push(s.to_string());
                    }
                }
            }
        }
    }
    accs
}

/// The deferred half of pass 1: token sums and first-appearance distinct
/// lists for the given (non-numeric) columns only. Returns
/// `(column, token_sum, distinct)` triples to fold back into the chunk's
/// accumulators.
fn accumulate_details(rows: &[Record<'_>], cols: &[usize]) -> Vec<(usize, usize, Vec<String>)> {
    cols.iter()
        .map(|&c| {
            let mut seen: HashSet<&str> = HashSet::new();
            let mut token_sum = 0usize;
            let mut distinct: Vec<String> = Vec::new();
            for row in rows {
                if let Some(s) = row[c].as_deref() {
                    token_sum += s.split_whitespace().count();
                    if seen.insert(s) {
                        distinct.push(s.to_string());
                    }
                }
            }
            (c, token_sum, distinct)
        })
        .collect()
}

/// Merges chunk accumulators (in chunk order) and takes `infer_column`'s
/// decision per column, building the shared dictionary for categoricals.
fn decide(ncols: usize, chunk_accs: &[Vec<ColAcc>]) -> Vec<KindDecision> {
    (0..ncols)
        .map(|c| {
            let mut present = 0usize;
            let mut all_num = true;
            let mut any_real = false;
            let mut token_sum = 0usize;
            for accs in chunk_accs {
                let a = &accs[c];
                present += a.present;
                all_num &= a.all_num_or_marker;
                any_real |= a.any_real;
                token_sum += a.token_sum;
            }
            if present == 0 || (all_num && any_real) {
                return KindDecision::Numeric;
            }
            // Global first-appearance dictionary: chunk lists merged in
            // chunk order reproduce row-order first appearance.
            let mut dictionary: Vec<String> = Vec::new();
            let mut lookup: HashMap<String, u32> = HashMap::new();
            for accs in chunk_accs {
                for s in &accs[c].distinct {
                    if !lookup.contains_key(s.as_str()) {
                        lookup.insert(s.clone(), dictionary.len() as u32);
                        dictionary.push(s.clone());
                    }
                }
            }
            if is_text(dictionary.len(), present, token_sum) {
                KindDecision::Text
            } else {
                KindDecision::Categorical {
                    dictionary: Arc::new(dictionary),
                    lookup,
                }
            }
        })
        .collect()
}

/// Decodes a parsed chunk into typed columns under the decided kinds.
fn decode_chunk(rows: &[Record<'_>], decisions: &[KindDecision]) -> Vec<Column> {
    decisions
        .iter()
        .enumerate()
        .map(|(c, decision)| match decision {
            KindDecision::Numeric => {
                Column::numeric(rows.iter().map(|r| r[c].as_deref().and_then(parse_number)))
            }
            KindDecision::Text => {
                Column::text(rows.iter().map(|r| r[c].as_deref().map(str::to_string)))
            }
            KindDecision::Categorical { dictionary, lookup } => {
                let codes = rows
                    .iter()
                    .map(|r| r[c].as_deref().and_then(|s| lookup.get(s).copied()))
                    .collect();
                Column::Categorical {
                    codes,
                    dictionary: Arc::clone(dictionary),
                }
            }
        })
        .collect()
}

// xlint: allow(unclamped-rayon): the pool argument is built by read_chunked_with_report from effective_parallelism(); `None` means sequential
fn map_ordered<T, U, F>(pool: Option<&rayon::ThreadPool>, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    match pool {
        Some(p) => p.install(|| items.par_iter().map(&f).collect()),
        None => items.iter().map(f).collect(),
    }
}

/// Reads a CSV document into a [`ChunkedFrame`]; see the module docs for
/// the two-pass scheme. `to_frame()` of the result is bit-identical to
/// [`crate::csv::read_frame`] on the same input at any chunk size and
/// worker count.
pub fn read_chunked(input: &str, opts: &ChunkedReadOptions) -> Result<ChunkedFrame> {
    read_chunked_with_report(input, opts).map(|(frame, _)| frame)
}

/// [`read_chunked`] plus the cost report benches consume.
pub fn read_chunked_with_report(
    input: &str,
    opts: &ChunkedReadOptions,
) -> Result<(ChunkedFrame, IngestReport)> {
    let spans = scan_records(input)?;
    let mut span_iter = spans.iter();
    let header_span = span_iter
        .next()
        .ok_or(crate::error::TabularError::Empty("csv document"))?;
    let header = header_names(parse_span(input, *header_span)?);
    let ncols = header.len();
    let data_spans: &[RecordSpan] = &spans[1..];
    let rows = data_spans.len();
    let chunk_rows = opts.chunk_rows.max(1);
    let groups: Vec<&[RecordSpan]> = data_spans.chunks(chunk_rows).collect();
    let workers = effective_parallelism(opts.parallelism);
    let pool = if workers > 1 && groups.len() > 1 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .ok()
    } else {
        None
    };
    let wave_len = if opts.bounded_memory {
        (2 * workers).max(1)
    } else {
        groups.len().max(1)
    };

    let mut columns: Vec<Vec<Column>> = (0..ncols).map(|_| Vec::new()).collect();
    let mut chunk_sizes: Vec<usize> = Vec::with_capacity(groups.len());
    let mut peak_resident = 0usize;

    if opts.bounded_memory {
        // Pass 1 in waves: parse, accumulate, drop the cells.
        let mut chunk_accs: Vec<Vec<ColAcc>> = Vec::with_capacity(groups.len());
        let mut base = 0usize;
        for wave in groups.chunks(wave_len) {
            peak_resident = peak_resident.max(wave.len());
            let tasks: Vec<(usize, &[RecordSpan])> = wave
                .iter()
                .scan(base, |b, g| {
                    let t = (*b, *g);
                    *b += g.len();
                    Some(t)
                })
                .collect();
            base += wave.iter().map(|g| g.len()).sum::<usize>();
            let parsed = map_ordered(pool.as_ref(), &tasks, |&(b, g)| {
                parse_chunk(input, g, b, ncols).map(|rows| accumulate(&rows, ncols, true))
            });
            for accs in parsed {
                chunk_accs.push(accs?);
            }
        }
        let decisions = decide(ncols, &chunk_accs);
        // Pass 2 in waves: re-parse and decode.
        let mut base = 0usize;
        for wave in groups.chunks(wave_len) {
            let tasks: Vec<(usize, &[RecordSpan])> = wave
                .iter()
                .scan(base, |b, g| {
                    let t = (*b, *g);
                    *b += g.len();
                    Some(t)
                })
                .collect();
            base += wave.iter().map(|g| g.len()).sum::<usize>();
            let decoded = map_ordered(pool.as_ref(), &tasks, |&(b, g)| {
                parse_chunk(input, g, b, ncols).map(|rows| decode_chunk(&rows, &decisions))
            });
            for (wave_idx, chunk) in decoded.into_iter().enumerate() {
                let chunk = chunk?;
                chunk_sizes.push(wave[wave_idx].len());
                for (c, col) in chunk.into_iter().enumerate() {
                    columns[c].push(col);
                }
            }
        }
    } else {
        // Single parse: keep borrowed cells between the passes.
        peak_resident = groups.len();
        let tasks: Vec<(usize, &[RecordSpan])> = groups
            .iter()
            .scan(0usize, |b, g| {
                let t = (*b, *g);
                *b += g.len();
                Some(t)
            })
            .collect();
        let parsed = map_ordered(pool.as_ref(), &tasks, |&(b, g)| {
            parse_chunk(input, g, b, ncols)
        });
        let mut chunks: Vec<Vec<Record<'_>>> = Vec::with_capacity(parsed.len());
        for chunk in parsed {
            chunks.push(chunk?);
        }
        let mut chunk_accs: Vec<Vec<ColAcc>> = map_ordered(pool.as_ref(), &chunks, |rows| {
            accumulate(rows, ncols, false)
        });
        // Columns the merged flags already prove numeric never need token
        // or distinct inputs; back-fill details for the rest only (the
        // condition mirrors `decide`'s numeric branch exactly).
        let needs_details: Vec<usize> = (0..ncols)
            .filter(|&c| {
                let mut present = 0usize;
                let mut all_num = true;
                let mut any_real = false;
                for accs in &chunk_accs {
                    present += accs[c].present;
                    all_num &= accs[c].all_num_or_marker;
                    any_real |= accs[c].any_real;
                }
                !(present == 0 || (all_num && any_real))
            })
            .collect();
        if !needs_details.is_empty() {
            let details = map_ordered(pool.as_ref(), &chunks, |rows| {
                accumulate_details(rows, &needs_details)
            });
            for (accs, dets) in chunk_accs.iter_mut().zip(details) {
                for (c, token_sum, distinct) in dets {
                    accs[c].token_sum = token_sum;
                    accs[c].distinct = distinct;
                }
            }
        }
        let decisions = decide(ncols, &chunk_accs);
        let decoded = map_ordered(pool.as_ref(), &chunks, |rows| {
            decode_chunk(rows, &decisions)
        });
        for (g, chunk) in decoded.into_iter().enumerate() {
            chunk_sizes.push(groups[g].len());
            for (c, col) in chunk.into_iter().enumerate() {
                columns[c].push(col);
            }
        }
    }

    // Duplicate headers get the same positional suffixes read_frame applies.
    let mut names: Vec<String> = Vec::with_capacity(ncols);
    for (c, base_name) in header.into_iter().enumerate() {
        let mut name = base_name;
        while names.contains(&name) {
            name = format!("{name}.{c}");
        }
        names.push(name);
    }

    let frame = ChunkedFrame::from_parts(names, columns, chunk_sizes);
    let report = IngestReport {
        rows,
        chunks: groups.len(),
        workers,
        peak_resident_chunks: peak_resident,
    };
    Ok((frame, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_frame;

    const DOC: &str = "x,city,note,empty\n1.5,paris,\"alpha, beta\",\n2.5,lyon,short,\n\
                       NA,paris,\"he said \"\"hi\"\"\",\n4.5,nice,words words words words words,\n\
                       5.5,lyon,tail text,\n";

    #[test]
    fn chunked_matches_read_frame_at_every_chunk_size() {
        let expected = read_frame(DOC).unwrap();
        for chunk_rows in [1, 2, 3, 100] {
            for parallelism in [1, 2, 4] {
                for bounded in [false, true] {
                    let opts = ChunkedReadOptions {
                        chunk_rows,
                        parallelism,
                        bounded_memory: bounded,
                    };
                    let frame = read_chunked(DOC, &opts).unwrap().to_frame().unwrap();
                    assert_eq!(
                        frame.fingerprint(),
                        expected.fingerprint(),
                        "chunk_rows={chunk_rows} parallelism={parallelism} bounded={bounded}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_mode_caps_resident_chunks() {
        let opts = ChunkedReadOptions {
            chunk_rows: 1,
            parallelism: 1,
            bounded_memory: true,
        };
        let (_, report) = read_chunked_with_report(DOC, &opts).unwrap();
        assert_eq!(report.rows, 5);
        assert_eq!(report.chunks, 5);
        assert!(
            report.peak_resident_chunks <= 2 * report.workers,
            "bounded mode keeps at most two chunks resident per worker"
        );
    }

    #[test]
    fn errors_match_the_in_memory_reader() {
        for bad in ["a,b\n1\n", "a\n\"oops\n", "a\nx\"y\"\n"] {
            let seq = read_frame(bad).unwrap_err().to_string();
            let chk = read_chunked(bad, &ChunkedReadOptions::default())
                .unwrap_err()
                .to_string();
            assert_eq!(seq, chk, "input {bad:?}");
        }
        assert!(read_chunked("", &ChunkedReadOptions::default()).is_err());
    }

    #[test]
    fn duplicate_headers_suffix_like_read_frame() {
        let doc = "a,a.1,a\n1,2,3\n";
        let expected = read_frame(doc).unwrap();
        let frame = read_chunked(doc, &ChunkedReadOptions::default())
            .unwrap()
            .to_frame()
            .unwrap();
        assert_eq!(frame.names(), expected.names());
    }

    #[test]
    fn header_only_document_yields_empty_typed_frame() {
        let expected = read_frame("a,b\n").unwrap();
        let frame = read_chunked("a,b\n", &ChunkedReadOptions::default())
            .unwrap()
            .to_frame()
            .unwrap();
        assert_eq!(frame.fingerprint(), expected.fingerprint());
        assert_eq!(frame.num_rows(), 0);
    }
}
