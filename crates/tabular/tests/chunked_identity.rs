//! Property tests for the chunked engine's house invariant: chunking
//! (and ingest parallelism, and bounded-memory mode) changes what the
//! pipeline *costs*, never what it *computes*.
//!
//! The generated CSV text is the ground truth — the streaming chunked
//! reader and the in-memory `read_frame` parse the same document, so
//! their frames must agree fingerprint-for-fingerprint (and their errors
//! message-for-message) at every chunk size × worker count.

use kgpip_tabular::csv::read_frame;
use kgpip_tabular::{
    read_chunked, read_chunked_with_report, ChunkedFrame, ChunkedReadOptions, Column, ColumnStats,
    DataFrame,
};
use proptest::prelude::*;

/// Chunk sizes swept by every property: single-row, small-prime,
/// medium, and whole-file-in-one-chunk.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 1_000_000];

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streamed chunked ingest is bit-identical to the in-memory reader
    /// at every chunk size × parallelism × memory mode, and bounded mode
    /// honours its residency cap.
    #[test]
    fn chunked_ingest_matches_the_in_memory_reader(
        cols in 1usize..4,
        rows in cells(),
    ) {
        let text = doc(cols, &rows);
        let expected = read_frame(&text).unwrap();
        for chunk_rows in CHUNK_SIZES {
            for parallelism in [1usize, 2, 4] {
                for bounded_memory in [false, true] {
                    let opts = ChunkedReadOptions { chunk_rows, parallelism, bounded_memory };
                    let (frame, report) = read_chunked_with_report(&text, &opts).unwrap();
                    prop_assert_eq!(
                        frame.to_frame().unwrap().fingerprint(),
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

    /// A malformed document (one ragged row spliced into an otherwise
    /// valid one) fails both readers with the same message at every
    /// chunk size — streaming must not change what an error looks like.
    #[test]
    fn malformed_documents_error_identically(
        rows in cells(),
        at in 0usize..26,
    ) {
        let cols = 3usize;
        let mut text = doc(cols, &rows);
        let line = at.min(rows.len()) + 1; // after the header
        let offset: usize = text
            .split_inclusive('\n')
            .take(line)
            .map(str::len)
            .sum();
        text.insert_str(offset, "lonely\n"); // 1 field where 3 are expected
        let expected = read_frame(&text).unwrap_err().to_string();
        for chunk_rows in CHUNK_SIZES {
            for parallelism in [1usize, 2, 4] {
                let opts = ChunkedReadOptions { chunk_rows, parallelism, bounded_memory: false };
                let got = read_chunked(&text, &opts).unwrap_err().to_string();
                prop_assert_eq!(
                    &expected, &got,
                    "chunk_rows={} parallelism={}", chunk_rows, parallelism
                );
            }
        }
    }

    /// With the sample bound at (or above) the row count, sampled chunk
    /// statistics replay the exact in-memory computation — same floating
    /// point operation sequence, same result — at every chunk size.
    #[test]
    fn sampled_stats_are_exact_under_full_coverage(
        values in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 1..60),
    ) {
        let col = Column::numeric(values.clone());
        let exact = ColumnStats::compute(&col);
        let frame = DataFrame::from_columns(vec![("v".to_string(), col)]).unwrap();
        for chunk_rows in CHUNK_SIZES {
            let cf = ChunkedFrame::from_frame(&frame, chunk_rows);
            let sample = cf.sample(values.len(), 0);
            let sampled = cf.column_stats_sampled(0, &sample);
            // Debug formatting compares NaN fields as equal too.
            prop_assert_eq!(format!("{exact:?}"), format!("{sampled:?}"), "chunk_rows={}", chunk_rows);
        }
    }

    /// Below the bound the row sample is keyed by global row index, so
    /// the sample — and the statistics computed from it — are invariant
    /// to how the rows are chunked.
    #[test]
    fn sampling_is_chunk_size_invariant(
        values in proptest::collection::vec(proptest::option::of(-1e3f64..1e3), 12..80),
        bound in 3usize..10,
        seed in 0u64..20,
    ) {
        let frame =
            DataFrame::from_columns(vec![("v".to_string(), Column::numeric(values))]).unwrap();
        let reference = ChunkedFrame::from_frame(&frame, 1);
        let ref_sample = reference.sample(bound, seed);
        prop_assert_eq!(ref_sample.len(), bound.min(frame.num_rows()));
        let ref_stats = reference.column_stats_sampled(0, &ref_sample);
        for chunk_rows in [7usize, 64, 1_000_000] {
            let cf = ChunkedFrame::from_frame(&frame, chunk_rows);
            let sample = cf.sample(bound, seed);
            prop_assert_eq!(&ref_sample, &sample, "chunk_rows={}", chunk_rows);
            prop_assert_eq!(
                format!("{ref_stats:?}"),
                format!("{:?}", cf.column_stats_sampled(0, &sample)),
                "chunk_rows={}", chunk_rows
            );
        }
    }
}

/// Pass 1 collects a chunk's distinct list and token sum only for the
/// columns that chunk proves non-numeric; the rest are backfilled once
/// the merged flags are known. Here `late` reads numeric for its first
/// rows and turns categorical later, `marks` opens with missing markers
/// only and turns to text, and `only_marks` never holds a real number.
/// At every chunk size both memory modes must rebuild the dictionaries
/// (first-appearance order included) and the text/categorical decision
/// exactly as `read_frame` does. Without the backfill, `late` and
/// `only_marks` lose their early labels, and `marks` loses the marker
/// tokens that lift its mean above the prose threshold.
#[test]
fn late_non_numeric_columns_are_backfilled() {
    let text = "late,marks,only_marks\n\
                1,NA,NA\n\
                2,?,?\n\
                3,n/a,null\n\
                1,a b c d e f g h i,NA\n\
                cat,j k l m n o p q r,nan\n\
                dog,s t u v w x y z zz,?\n\
                2,NA,NA\n";
    let expected = read_frame(text).unwrap();
    assert_eq!(
        expected.column("late").unwrap().dictionary().unwrap(),
        &["1", "2", "3", "cat", "dog"]
    );
    assert_eq!(
        expected.column("marks").unwrap().kind(),
        kgpip_tabular::ColumnKind::Text
    );
    assert_eq!(
        expected.column("only_marks").unwrap().dictionary().unwrap(),
        &["NA", "?", "null", "nan"]
    );
    for chunk_rows in [1usize, 2, 3, 1_000_000] {
        for bounded_memory in [false, true] {
            let opts = ChunkedReadOptions {
                chunk_rows,
                parallelism: 1,
                bounded_memory,
            };
            let frame = read_chunked(text, &opts).unwrap().to_frame().unwrap();
            assert_eq!(
                frame.fingerprint(),
                expected.fingerprint(),
                "chunk_rows={chunk_rows} bounded={bounded_memory}"
            );
        }
    }
}
