//! Streaming chunked CSV ingest: the one CSV reader.
//!
//! [`read_chunked`] parses a CSV document into a [`ChunkedFrame`] in
//! fixed-size row chunks fanned out through
//! [`map_ordered`](crate::parallel::map_ordered); the frame is identical
//! at any chunk size × worker count. [`crate::csv::read_frame`] is this
//! reader at its default options, collected into one frame. Each cell is
//! parsed once, bar the backfill's re-parse in bounded mode; the scheme:
//!
//! 1. a sequential quote-aware byte scan locates record boundaries (cheap:
//!    no field is materialized) and surfaces every structural error with
//!    its source line;
//! 2. **pass 1** parses each chunk of records on the workers, reduces it to
//!    per-column accumulators (the present count and the numeric/marker
//!    lattice flags) and decodes each column under the kind the chunk
//!    shows: the parsed `f64`s while its cells stay in the lattice, else
//!    a chunk-local code per row into its first-appearance distinct list
//!    (cells borrowed from the input), with the token sum;
//! 3. **backfill**: once the flags of every chunk are merged, a column
//!    that turns out non-numeric (a later chunk broke the lattice, or no
//!    chunk holds a real number) gets codes from the chunks that kept
//!    numbers for it — from the resident cells, or by re-parsing just
//!    those chunks in bounded mode, the one re-parse left. Numeric
//!    columns, the common case, never build a distinct list at all;
//! 4. the accumulators meet in chunk order and decide each column's type
//!    by the rules in [`crate::infer`] (the distinct lists merge into the
//!    global first-appearance dictionary, built only for categorical
//!    columns);
//! 5. **convert**: each chunk's decode becomes typed [`Column`]s under the
//!    decided kinds — numbers move, categorical codes are remapped through
//!    the dictionary's lookup (chunks share one dictionary `Arc`), text
//!    codes expand to their strings; chunks merge in submission order.
//!
//! With [`ChunkedReadOptions::bounded_memory`] chunks are parsed in waves
//! of at most `2 × workers` and each wave's cells dropped once decoded, so
//! no more than two chunks of parsed cells are resident per worker at any
//! time. The default mode keeps the borrowed cells until the backfill —
//! cells are slices into the input, so this costs pointers, not string
//! copies.
//!
//! The row-major reader this one replaced survives as the test oracle
//! `csv::oracle::read_frame`; frames and errors match it at every chunk
//! size × worker count × memory mode.

use crate::chunk::ChunkedFrame;
use crate::column::Column;
use crate::csv::{
    header_names, parse_span, parse_span_into, ragged_row_error, scan_records, RecordSpan,
};
use crate::error::TabularError;
use crate::infer::{is_missing_marker, is_text, parse_number};
use crate::parallel::{effective_parallelism, map_ordered};
use crate::Result;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One parsed cell, borrowed from the input; `None` = missing. A chunk's
/// cells sit in one row-major buffer, one entry per column.
type Cell<'a> = Option<Cow<'a, str>>;

/// One chunk of data records: the global index of its first record (for
/// error lines) and its record spans.
type Task<'s> = (usize, &'s [RecordSpan]);

/// Options for [`read_chunked`].
#[derive(Debug, Clone)]
pub struct ChunkedReadOptions {
    /// Rows per chunk (clamped to at least 1).
    pub chunk_rows: usize,
    /// Requested worker count; clamped through [`effective_parallelism`].
    pub parallelism: usize,
    /// When set, parse in waves of `2 × workers` chunks and drop each
    /// wave's cells once decoded, bounding resident parse buffers (a
    /// backfilled chunk is parsed again) instead of keeping every chunk's
    /// cells alive until the backfill.
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

/// One column of one chunk decoded as labels: the inputs the type rules
/// read only for non-numeric columns, and the rows as codes.
struct Details<'a> {
    /// Whitespace tokens across the present cells.
    token_sum: usize,
    /// Distinct present values in first-appearance order within the chunk.
    distinct: Vec<Cow<'a, str>>,
    /// Per row, the index of its value in `distinct`; `None` = missing.
    codes: Vec<Option<u32>>,
}

/// Per-column accumulator a chunk reduces to in pass 1: the type-decision
/// inputs (merging these in chunk order yields the column's exactly) and
/// the chunk's decode of the column.
struct ColAcc<'a> {
    present: usize,
    any_real: bool,
    /// Every row's number, kept while the chunk's cells stay in the
    /// numeric lattice; `None` once one of them broke it.
    numbers: Option<Vec<Option<f64>>>,
    /// Collected in pass 1 when this chunk broke the numeric lattice (or
    /// holds no present cell); otherwise left for the backfill, which
    /// fills it only when the column's merged flags turn out non-numeric.
    details: Option<Details<'a>>,
}

/// The decided kind of a column, carried into the conversion.
enum KindDecision {
    Numeric,
    Text,
    Categorical {
        dictionary: Arc<Vec<String>>,
        lookup: HashMap<String, u32>,
    },
}

/// Parses one chunk of record spans into one cell buffer and ragged-checks
/// it. `base` is the global index of the chunk's first data record (for
/// the ragged-row error's line).
fn parse_chunk<'a>(
    input: &'a str,
    spans: &[RecordSpan],
    base: usize,
    ncols: usize,
) -> Result<Vec<Cell<'a>>> {
    let mut cells = Vec::with_capacity(spans.len() * ncols);
    for (i, span) in spans.iter().enumerate() {
        let found = parse_span_into(input, *span, &mut cells)?;
        if found != ncols {
            return Err(ragged_row_error(base + i, ncols, found));
        }
    }
    Ok(cells)
}

/// Column `c` of a chunk's cells, in row order.
fn column_cells<'r, 'a>(
    cells: &'r [Cell<'a>],
    ncols: usize,
    c: usize,
) -> impl Iterator<Item = &'r Cell<'a>> + 'r {
    cells.iter().skip(c).step_by(ncols.max(1))
}

/// Column `c` of a parsed chunk decoded as labels. The distinct cells are
/// copies of the borrowed `Cow`s, so they outlive the chunk's rows.
fn details<'a>(cells: &[Cell<'a>], ncols: usize, c: usize) -> Details<'a> {
    // Chunk-local codes; the map is never iterated. Sized for one value
    // per row, so a column of distinct labels never re-hashes them.
    let mut local: HashMap<&str, u32> = HashMap::with_capacity(cells.len() / ncols.max(1));
    let mut token_sum = 0usize;
    let mut distinct = Vec::new();
    let codes = column_cells(cells, ncols, c)
        .map(|cell| {
            let cell = cell.as_ref()?;
            token_sum += cell.split_whitespace().count();
            Some(*local.entry(cell).or_insert_with(|| {
                distinct.push(cell.clone());
                (distinct.len() - 1) as u32
            }))
        })
        .collect();
    Details {
        token_sum,
        distinct,
        codes,
    }
}

/// Reduces a parsed chunk to per-column accumulators, decoding each
/// column as numbers while its cells stay in the numeric lattice and as
/// labels ([`Details`]) once one of them breaks it.
fn accumulate<'a>(cells: &[Cell<'a>], ncols: usize) -> Vec<ColAcc<'a>> {
    let rows = cells.len() / ncols.max(1);
    (0..ncols)
        .map(|c| {
            let mut acc = ColAcc {
                present: 0,
                any_real: false,
                numbers: Some(Vec::with_capacity(rows)),
                details: None,
            };
            for cell in column_cells(cells, ncols, c) {
                acc.present += usize::from(cell.is_some());
                // Once one cell breaks the numeric lattice the column can
                // never be numeric (`decide` tests `all_num && any_real`),
                // so the remaining cells skip the parse probe entirely.
                let Some(numbers) = acc.numbers.as_mut() else {
                    continue;
                };
                let value = cell.as_deref().and_then(parse_number);
                if value.is_none() && cell.as_deref().is_some_and(|s| !is_missing_marker(s)) {
                    acc.numbers = None;
                    continue;
                }
                acc.any_real |= value.is_some();
                numbers.push(value);
            }
            if acc.numbers.is_none() || acc.present == 0 {
                acc.details = Some(details(cells, ncols, c));
            }
            acc
        })
        .collect()
}

/// Whether the merged flags of column `c` decide it numeric (an
/// all-missing column is numeric).
fn merged_numeric(chunk_accs: &[Vec<ColAcc<'_>>], c: usize) -> bool {
    let (mut present, mut all_num, mut any_real) = (0usize, true, false);
    for a in chunk_accs.iter().filter_map(|accs| accs.get(c)) {
        present += a.present;
        all_num &= a.numbers.is_some();
        any_real |= a.any_real;
    }
    present == 0 || (all_num && any_real)
}

/// Merges chunk accumulators (in chunk order) and decides each column's
/// type, building the shared dictionary for categoricals.
/// Every non-numeric column must have its details backfilled.
fn decide(ncols: usize, chunk_accs: &[Vec<ColAcc<'_>>]) -> Vec<KindDecision> {
    (0..ncols)
        .map(|c| {
            if merged_numeric(chunk_accs, c) {
                return KindDecision::Numeric;
            }
            let accs: Vec<&ColAcc<'_>> = chunk_accs.iter().filter_map(|a| a.get(c)).collect();
            let present: usize = accs.iter().map(|a| a.present).sum();
            let merged = || accs.iter().filter_map(|a| a.details.as_ref());
            let token_sum: usize = merged().map(|d| d.token_sum).sum();
            // With no distinct values the cardinality rule cannot fire, so
            // this is the token rule alone: prose needs no dedup.
            if is_text(0, present, token_sum) {
                return KindDecision::Text;
            }
            // Global first-appearance order: chunk lists merged in chunk
            // order reproduce row-order first appearance.
            let mut lookup: HashMap<String, u32> = HashMap::new();
            let mut dictionary: Vec<String> = Vec::new();
            for s in merged().flat_map(|d| d.distinct.iter()) {
                if !lookup.contains_key(s.as_ref()) {
                    lookup.insert(s.to_string(), dictionary.len() as u32);
                    dictionary.push(s.to_string());
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

/// Converts a chunk's pass-1 decode into typed columns under the decided
/// kinds. Every column decided numeric kept its numbers in every chunk,
/// and every other column has its details after the backfill.
fn convert(accs: Vec<ColAcc<'_>>, decisions: &[KindDecision]) -> Result<Vec<Column>> {
    accs.into_iter()
        .zip(decisions)
        .map(|(acc, decision)| {
            match decision {
                KindDecision::Numeric => acc.numbers.map(Column::numeric),
                KindDecision::Text => acc.details.map(|d| {
                    let label =
                        |code: &Option<u32>| Some(d.distinct.get((*code)? as usize)?.to_string());
                    Column::Text(d.codes.iter().map(label).collect())
                }),
                KindDecision::Categorical { dictionary, lookup } => acc.details.map(|d| {
                    let global: Vec<Option<u32>> = d
                        .distinct
                        .iter()
                        .map(|s| lookup.get(s.as_ref()).copied())
                        .collect();
                    Column::Categorical {
                        codes: d
                            .codes
                            .iter()
                            .map(|code| code.and_then(|k| global.get(k as usize).copied()?))
                            .collect(),
                        dictionary: Arc::clone(dictionary),
                    }
                }),
            }
            .ok_or_else(|| TabularError::InvalidArgument("undecoded chunk".to_string()))
        })
        .collect()
}

/// Reads a CSV document into a [`ChunkedFrame`]; see the module docs for
/// the scheme. `into_frame()` of the result is the same frame at any chunk
/// size and worker count.
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
        .ok_or(TabularError::Empty("csv document"))?;
    let header = header_names(parse_span(input, *header_span)?);
    let ncols = header.len();
    let data_spans: &[RecordSpan] = span_iter.as_slice();
    let rows = data_spans.len();
    let tasks: Vec<Task<'_>> = data_spans
        .chunks(opts.chunk_rows.max(1))
        .scan(0usize, |b, g| {
            let t = (*b, g);
            *b += g.len();
            Some(t)
        })
        .collect();
    let workers = effective_parallelism(opts.parallelism);
    let wave_len = if opts.bounded_memory {
        (2 * workers).max(1)
    } else {
        tasks.len().max(1)
    };

    // Pass 1 in waves: parse, decode and accumulate; the default mode
    // keeps the borrowed cells, bounded mode drops them with the wave.
    let mut chunk_accs: Vec<Vec<ColAcc<'_>>> = Vec::with_capacity(tasks.len());
    let mut resident: Vec<Vec<Cell<'_>>> = Vec::new();
    let mut peak_resident = 0usize;
    for wave in tasks.chunks(wave_len) {
        peak_resident = peak_resident.max(wave.len());
        let parsed = map_ordered(workers, wave, |&(b, g)| {
            parse_chunk(input, g, b, ncols).map(|cells| {
                let accs = accumulate(&cells, ncols);
                (accs, (!opts.bounded_memory).then_some(cells))
            })
        });
        for chunk in parsed {
            let (accs, cells) = chunk?;
            chunk_accs.push(accs);
            resident.extend(cells);
        }
    }

    // Backfill: details for the non-numeric columns, from the chunks
    // whose own cells left the lattice intact.
    let non_numeric: Vec<usize> = (0..ncols)
        .filter(|&c| !merged_numeric(&chunk_accs, c))
        .collect();
    let backfill: Vec<(usize, Task<'_>, Vec<usize>)> = chunk_accs
        .iter()
        .zip(&tasks)
        .enumerate()
        .filter_map(|(k, (accs, &task))| {
            let cols: Vec<usize> = non_numeric
                .iter()
                .copied()
                .filter(|&c| accs.get(c).is_some_and(|a| a.details.is_none()))
                .collect();
            (!cols.is_empty()).then_some((k, task, cols))
        })
        .collect();
    for wave in backfill.chunks(wave_len) {
        fn fill<'a>(cells: &[Cell<'a>], ncols: usize, cols: &[usize]) -> Vec<(usize, Details<'a>)> {
            cols.iter()
                .map(|&c| (c, details(cells, ncols, c)))
                .collect()
        }
        let filled = map_ordered(workers, wave, |&(k, (b, g), ref cols)| {
            match resident.get(k) {
                Some(cells) => Ok(fill(cells, ncols, cols)),
                None => parse_chunk(input, g, b, ncols).map(|cells| fill(&cells, ncols, cols)),
            }
        });
        for (&(k, _, _), dets) in wave.iter().zip(filled) {
            if let Some(accs) = chunk_accs.get_mut(k) {
                for (c, d) in dets? {
                    if let Some(acc) = accs.get_mut(c) {
                        acc.details = Some(d);
                    }
                }
            }
        }
    }
    drop(resident);
    let decisions = decide(ncols, &chunk_accs);

    // Convert each chunk's decode on the workers, the parse buffers freed
    // first. The fan-out maps by reference, so each chunk sits in a slot its
    // one conversion empties.
    let slots: Vec<Mutex<Vec<ColAcc<'_>>>> = chunk_accs.into_iter().map(Mutex::new).collect();
    let converted = map_ordered(workers, &slots, |slot| {
        let accs = std::mem::take(&mut *slot.lock().unwrap_or_else(PoisonError::into_inner));
        convert(accs, &decisions)
    });
    let mut columns: Vec<Vec<Column>> = (0..ncols).map(|_| Vec::new()).collect();
    for chunk in converted {
        for (col, chunks) in chunk?.into_iter().zip(columns.iter_mut()) {
            chunks.push(col);
        }
    }
    let chunk_sizes: Vec<usize> = tasks.iter().map(|(_, g)| g.len()).collect();

    // Duplicate headers get positional suffixes rather than failing; keep
    // extending until unique (a file may already contain `a.1`).
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
        chunks: tasks.len(),
        workers,
        peak_resident_chunks: peak_resident,
    };
    Ok((frame, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::oracle::read_frame as oracle;
    use proptest::prelude::*;

    const DOC: &str = "x,city,note,empty\n1.5,paris,\"alpha, beta\",\n2.5,lyon,short,\n\
                       NA,paris,\"he said \"\"hi\"\"\",\n4.5,nice,words words words words words,\n\
                       5.5,lyon,tail text,\n";

    /// Chunk sizes swept by the properties: single-row, small-prime,
    /// medium, and whole-file-in-one-chunk.
    const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 1_000_000];

    fn opts(chunk_rows: usize, parallelism: usize, bounded_memory: bool) -> ChunkedReadOptions {
        ChunkedReadOptions {
            chunk_rows,
            parallelism,
            bounded_memory,
        }
    }

    #[test]
    fn chunked_matches_the_oracle_at_every_chunk_size() {
        let expected = oracle(DOC).unwrap();
        for chunk_rows in [1, 2, 3, 100] {
            for parallelism in [1, 2, 4] {
                for bounded in [false, true] {
                    let frame = read_chunked(DOC, &opts(chunk_rows, parallelism, bounded))
                        .unwrap()
                        .into_frame()
                        .unwrap();
                    assert_eq!(
                        frame.fingerprint(),
                        expected.fingerprint(),
                        "chunk_rows={chunk_rows} parallelism={parallelism} bounded={bounded}"
                    );
                }
            }
        }
        assert_eq!(
            crate::csv::read_frame(DOC).unwrap().fingerprint(),
            expected.fingerprint()
        );
    }

    #[test]
    fn bounded_mode_caps_resident_chunks() {
        let (_, report) = read_chunked_with_report(DOC, &opts(1, 1, true)).unwrap();
        assert_eq!(report.rows, 5);
        assert_eq!(report.chunks, 5);
        assert!(
            report.peak_resident_chunks <= 2 * report.workers,
            "bounded mode keeps at most two chunks resident per worker"
        );
    }

    #[test]
    fn errors_match_the_oracle() {
        for bad in ["a,b\n1\n", "a\n\"oops\n", "a\nx\"y\"\n", ""] {
            let expected = oracle(bad).unwrap_err().to_string();
            let got = read_chunked(bad, &ChunkedReadOptions::default())
                .unwrap_err()
                .to_string();
            assert_eq!(expected, got, "input {bad:?}");
        }
    }

    #[test]
    fn duplicate_headers_suffix_like_the_oracle() {
        let doc = "a,a.1,a\n1,2,3\n";
        let frame = read_chunked(doc, &ChunkedReadOptions::default())
            .unwrap()
            .into_frame()
            .unwrap();
        assert_eq!(frame.names(), oracle(doc).unwrap().names());
    }

    #[test]
    fn header_only_document_matches_the_oracle() {
        let frame = read_chunked("a,b\n", &ChunkedReadOptions::default())
            .unwrap()
            .into_frame()
            .unwrap();
        assert_eq!(frame.fingerprint(), oracle("a,b\n").unwrap().fingerprint());
        assert_eq!(frame.num_rows(), 0);
    }

    /// RFC-4180-quotes a cell, doubling embedded quotes.
    fn quote(cell: &str) -> String {
        format!("\"{}\"", cell.replace('"', "\"\""))
    }

    /// Builds a CSV document from generated cells: `cols` named header
    /// fields, one line per row, present cells quoted (so commas and quotes
    /// inside them are data, not structure), missing cells empty.
    fn doc(cols: usize, rows: &[Vec<Option<String>>]) -> String {
        let mut text = (0..cols)
            .map(|j| format!("h{j}"))
            .collect::<Vec<_>>()
            .join(",");
        text.push('\n');
        for row in rows {
            let line = row
                .iter()
                .take(cols)
                .map(|c| c.as_deref().map(quote).unwrap_or_default())
                .collect::<Vec<_>>()
                .join(",");
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    /// Generated grid of optional printable-ASCII cells (width 4; `doc`
    /// truncates to the generated column count).
    fn cells() -> impl Strategy<Value = Vec<Vec<Option<String>>>> {
        proptest::collection::vec(
            proptest::collection::vec(proptest::option::of("[ -~]{0,10}"), 4),
            0..25,
        )
    }

    /// What the kind-switching property draws cells from: numbers (signed
    /// zeros and padded values included), missing markers (absent, `NA`,
    /// `?`, quoted-empty), and labels — short ones and prose, so a label
    /// column can land on either side of the text rule.
    const POOLS: [&[Option<&str>]; 3] = [
        &[
            Some("1"),
            Some("2.5"),
            Some("-3"),
            Some("0"),
            Some("-0"),
            Some(" 7 "),
        ],
        &[None, Some("NA"), Some("?"), Some("")],
        &[
            Some("red"),
            Some("blue"),
            Some("green b"),
            Some("a b c d e f g h"),
            Some("i j k l m n o p"),
            Some("NA q r s t u v w"),
        ],
    ];

    /// Rows whose column `c` draws from pool `kinds[c].0` before row
    /// `kinds[c].2` and from pool `kinds[c].1` from there on.
    fn switching_rows(
        kinds: &[(usize, usize, usize)],
        picks: &[Vec<usize>],
    ) -> Vec<Vec<Option<String>>> {
        picks
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.iter()
                    .zip(kinds)
                    .map(|(&pick, &(before, after, switch))| {
                        let pool = POOLS[if r < switch { before } else { after }];
                        pool[pick % pool.len()].map(str::to_string)
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Chunked ingest is bit-identical to the row-major oracle at
        /// every chunk size × parallelism × memory mode, and bounded mode
        /// honours its residency cap.
        #[test]
        fn chunked_ingest_matches_the_oracle(cols in 1usize..4, rows in cells()) {
            let text = doc(cols, &rows);
            let expected = oracle(&text).unwrap();
            for chunk_rows in CHUNK_SIZES {
                for parallelism in [1usize, 2, 4] {
                    for bounded_memory in [false, true] {
                        let (frame, report) = read_chunked_with_report(
                            &text,
                            &opts(chunk_rows, parallelism, bounded_memory),
                        )
                        .unwrap();
                        prop_assert_eq!(
                            frame.into_frame().unwrap().fingerprint(),
                            expected.fingerprint(),
                            "chunk_rows={} parallelism={} bounded={}",
                            chunk_rows, parallelism, bounded_memory
                        );
                        prop_assert_eq!(report.rows, rows.len());
                        if bounded_memory {
                            prop_assert!(
                                report.peak_resident_chunks <= 2 * report.workers,
                                "bounded mode kept {} chunks resident on {} workers",
                                report.peak_resident_chunks, report.workers
                            );
                        }
                    }
                }
            }
        }

        /// Columns whose kind switches part-way through the document —
        /// numbers, missing markers and labels in any order — read like
        /// the oracle at every chunk size × width × memory mode. This
        /// drives every conversion: chunks whose own decode agrees with
        /// the decided kind, chunks that kept numbers for a column a later
        /// chunk broke (backfilled), all-missing chunks of label columns,
        /// and all-marker columns.
        #[test]
        fn kind_switching_columns_match_the_oracle(
            cols in 1usize..=4,
            kinds in proptest::collection::vec((0usize..3, 0usize..3, 0usize..40), 4),
            picks in proptest::collection::vec(proptest::collection::vec(0usize..12, 4), 0..40),
        ) {
            let text = doc(cols, &switching_rows(&kinds, &picks));
            let expected = oracle(&text).unwrap().fingerprint();
            for chunk_rows in CHUNK_SIZES {
                for parallelism in [1usize, 2, 4] {
                    for bounded_memory in [false, true] {
                        let frame =
                            read_chunked(&text, &opts(chunk_rows, parallelism, bounded_memory))
                                .unwrap()
                                .into_frame()
                                .unwrap();
                        prop_assert_eq!(
                            frame.fingerprint(),
                            expected,
                            "chunk_rows={} parallelism={} bounded={}",
                            chunk_rows, parallelism, bounded_memory
                        );
                    }
                }
            }
        }

        /// A malformed document (one ragged row spliced into an otherwise
        /// valid one) fails the chunked reader with the oracle's message
        /// at every chunk size — streaming must not change what an error
        /// looks like.
        #[test]
        fn malformed_documents_error_like_the_oracle(rows in cells(), at in 0usize..26) {
            let cols = 3usize;
            let mut text = doc(cols, &rows);
            let line = at.min(rows.len()) + 1; // after the header
            let offset: usize = text
                .split_inclusive('\n')
                .take(line)
                .map(str::len)
                .sum();
            text.insert_str(offset, "lonely\n"); // 1 field where 3 are expected
            let expected = oracle(&text).unwrap_err().to_string();
            for chunk_rows in CHUNK_SIZES {
                for parallelism in [1usize, 2, 4] {
                    let got = read_chunked(&text, &opts(chunk_rows, parallelism, false))
                        .unwrap_err()
                        .to_string();
                    prop_assert_eq!(
                        &expected, &got,
                        "chunk_rows={} parallelism={}", chunk_rows, parallelism
                    );
                }
            }
        }
    }

    /// Pass 1 collects a chunk's distinct list and token sum only for the
    /// columns that chunk proves non-numeric; the rest are backfilled once
    /// the merged flags are known. Here `late` reads numeric for its first
    /// rows and turns categorical later, `marks` opens with missing
    /// markers only and turns to text, and `only_marks` never holds a real
    /// number. At every chunk size both memory modes must rebuild the
    /// dictionaries (first-appearance order included) and the
    /// text/categorical decision exactly as the oracle does. Without the
    /// backfill, `late` and `only_marks` lose their early labels, and
    /// `marks` loses the marker tokens that lift its mean above the prose
    /// threshold.
    #[test]
    fn late_non_numeric_columns_are_backfilled_like_the_oracle() {
        let text = "late,marks,only_marks\n\
                    1,NA,NA\n\
                    2,?,?\n\
                    3,n/a,null\n\
                    1,a b c d e f g h i,NA\n\
                    cat,j k l m n o p q r,nan\n\
                    dog,s t u v w x y z zz,?\n\
                    2,NA,NA\n";
        let expected = oracle(text).unwrap();
        assert_eq!(
            expected.column("late").unwrap().dictionary().unwrap(),
            &["1", "2", "3", "cat", "dog"]
        );
        assert_eq!(
            expected.column("marks").unwrap().kind(),
            crate::ColumnKind::Text
        );
        assert_eq!(
            expected.column("only_marks").unwrap().dictionary().unwrap(),
            &["NA", "?", "null", "nan"]
        );
        for chunk_rows in [1usize, 2, 3, 1_000_000] {
            for bounded_memory in [false, true] {
                let frame = read_chunked(text, &opts(chunk_rows, 1, bounded_memory))
                    .unwrap()
                    .into_frame()
                    .unwrap();
                assert_eq!(
                    frame.fingerprint(),
                    expected.fingerprint(),
                    "chunk_rows={chunk_rows} bounded={bounded_memory}"
                );
            }
        }
    }
}
