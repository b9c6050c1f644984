//! Chunked columnar frames: the tabular substrate every reader produces.
//!
//! A [`ChunkedFrame`] holds each column as a sequence of fixed-size row
//! chunks instead of one contiguous column. The column computations —
//! [`ColumnStats::of_chunks`](crate::ColumnStats::of_chunks), the distinct
//! count, table embeddings — are written once over a column's chunks
//! (`&[Column]`); an in-memory column is their one-chunk case.
//! [`ChunkedFrame::into_frame`] concatenates the chunks back into a
//! [`DataFrame`], moving a single chunk instead of copying it — chunking
//! changes what a stage *costs*, never what it *computes*.
//!
//! The deterministic sampling primitives live here because every chunked
//! consumer shares them:
//!
//! * [`sample_rows`] — a seeded bottom-k row sample keyed by the *global*
//!   row index, so the sampled set is identical at any chunk size and any
//!   worker count, and equals the full row set whenever the table fits
//!   under the bound (sampling degrades to the identity).
//! * [`gather_sample`] — the present views of the sampled rows of one
//!   column, visited chunk by chunk in row order.

use crate::column::{Column, ColumnKind};
use crate::frame::DataFrame;
use crate::Result;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A frame stored as per-column row chunks. Invariants: every column has
/// the same chunk layout (`chunk_sizes`), and categorical chunks of one
/// column share a single dictionary `Arc`.
#[derive(Debug, Clone)]
pub struct ChunkedFrame {
    names: Vec<String>,
    /// `columns[c][k]` is chunk `k` of column `c`.
    columns: Vec<Vec<Column>>,
    chunk_sizes: Vec<usize>,
    rows: usize,
}

impl ChunkedFrame {
    /// Assembles a frame from parts; used by the chunked reader.
    pub(crate) fn from_parts(
        names: Vec<String>,
        columns: Vec<Vec<Column>>,
        chunk_sizes: Vec<usize>,
    ) -> ChunkedFrame {
        let rows = chunk_sizes.iter().sum();
        ChunkedFrame {
            names,
            columns,
            chunk_sizes,
            rows,
        }
    }

    /// Splits an in-memory frame into chunks of `chunk_rows` rows. The
    /// categorical dictionaries are shared, not copied, so
    /// `from_frame(f, n).into_frame()` reproduces `f` bit-for-bit.
    pub fn from_frame(frame: &DataFrame, chunk_rows: usize) -> ChunkedFrame {
        let chunk_rows = chunk_rows.max(1);
        let rows = frame.num_rows();
        // A frame without rows keeps one empty chunk per column, so the
        // column kinds survive the round trip.
        let starts: Vec<usize> = if rows == 0 {
            vec![0]
        } else {
            (0..rows).step_by(chunk_rows).collect()
        };
        let chunk_sizes: Vec<usize> = starts.iter().map(|&s| chunk_rows.min(rows - s)).collect();
        let columns = frame
            .columns()
            .iter()
            .map(|col| {
                starts
                    .iter()
                    .zip(chunk_sizes.iter())
                    .map(|(&s, &len)| {
                        let idx: Vec<usize> = (s..s + len).collect();
                        col.take(&idx)
                    })
                    .collect()
            })
            .collect();
        ChunkedFrame {
            names: frame.names().to_vec(),
            columns,
            chunk_sizes,
            rows,
        }
    }

    /// Total rows across all chunks.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.names.len()
    }

    /// Rows per chunk, in chunk order.
    pub fn chunk_sizes(&self) -> &[usize] {
        &self.chunk_sizes
    }

    /// Column names in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The chunks of column `c`, in chunk order (none when `c` is out of
    /// range).
    pub fn column_chunks(&self, c: usize) -> &[Column] {
        self.columns.get(c).map_or(&[], Vec::as_slice)
    }

    /// Concatenates every column into an in-memory [`DataFrame`]. A column
    /// of a single chunk moves into the frame as it is; more chunks are
    /// joined by [`concat_column`].
    pub fn into_frame(self) -> Result<DataFrame> {
        let mut frame = DataFrame::new();
        for (name, chunks) in self.names.into_iter().zip(self.columns) {
            let column = match <[Column; 1]>::try_from(chunks) {
                Ok([only]) => only,
                Err(chunks) => concat_column(&chunks),
            };
            frame.push(name, column)?;
        }
        Ok(frame)
    }

    /// Seeded bottom-k sample of this frame's rows; see [`sample_rows`].
    pub fn sample(&self, bound: usize, seed: u64) -> Vec<usize> {
        sample_rows(self.rows, bound, seed)
    }
}

/// Concatenates column chunks into one column. Numeric and text chunks
/// append; categorical chunks sharing a dictionary (the invariant the
/// chunked reader and `from_frame` maintain) append codes under the shared
/// dictionary. Mixed or dictionary-mismatched chunks fall back to
/// re-encoding through string views — lossless, never panicking.
pub fn concat_column(chunks: &[Column]) -> Column {
    let uniform_kind = chunks
        .first()
        .map(|c| c.kind())
        .filter(|&k| chunks.iter().all(|c| c.kind() == k));
    match uniform_kind {
        None => Column::Numeric(Vec::new()),
        Some(ColumnKind::Numeric) => {
            let mut values = Vec::new();
            for c in chunks {
                if let Column::Numeric(v) = c {
                    values.extend_from_slice(v);
                }
            }
            Column::Numeric(values)
        }
        Some(ColumnKind::Text) => {
            let mut values = Vec::new();
            for c in chunks {
                if let Column::Text(v) = c {
                    values.extend(v.iter().cloned());
                }
            }
            Column::Text(values)
        }
        Some(ColumnKind::Categorical) => {
            let shared: Option<&Arc<Vec<String>>> = match chunks.first() {
                Some(Column::Categorical { dictionary, .. }) => {
                    let all_share = chunks.iter().all(|c| match c {
                        Column::Categorical { dictionary: d, .. } => {
                            Arc::ptr_eq(d, dictionary) || d == dictionary
                        }
                        _ => false,
                    });
                    if all_share {
                        Some(dictionary)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match shared {
                Some(dictionary) => {
                    let mut all_codes = Vec::new();
                    for c in chunks {
                        if let Column::Categorical { codes, .. } = c {
                            all_codes.extend_from_slice(codes);
                        }
                    }
                    Column::Categorical {
                        codes: all_codes,
                        dictionary: Arc::clone(dictionary),
                    }
                }
                None => {
                    let mut values: Vec<Option<String>> = Vec::new();
                    for c in chunks {
                        for i in 0..c.len() {
                            values.push(c.as_string(i));
                        }
                    }
                    Column::categorical(values)
                }
            }
        }
    }
}

/// SplitMix64 finalizer: the priority mix behind deterministic sampling.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sampling priority of global row `row` under `seed`. Depends only on
/// the pair, never on chunk boundaries or visit order — the foundation of
/// partition-invariant sampling.
pub fn row_priority(seed: u64, row: u64) -> u64 {
    mix64(seed ^ mix64(row.wrapping_add(0xa076_1d64_78bd_642f)))
}

/// Deterministic bottom-k row sample: the `bound` rows with the smallest
/// [`row_priority`], returned in ascending row order (ties broken by row
/// index). A streaming-friendly, mergeable stand-in for reservoir
/// sampling: any partition of the row range selects the same set. When
/// `rows <= bound` every row is selected — sampling degrades to the
/// identity, which is what the bit-identity proofs lean on.
pub fn sample_rows(rows: usize, bound: usize, seed: u64) -> Vec<usize> {
    if rows <= bound {
        return (0..rows).collect();
    }
    if bound == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(bound + 1);
    for r in 0..rows {
        let key = (row_priority(seed, r as u64), r);
        if heap.len() < bound {
            heap.push(key);
        } else if let Some(&top) = heap.peek() {
            if key < top {
                heap.pop();
                heap.push(key);
            }
        }
    }
    let mut out: Vec<usize> = heap.into_iter().map(|(_, r)| r).collect();
    out.sort_unstable();
    out
}

/// The present views `view(chunk, local_row)` of the `sample` rows
/// (ascending global row indices) of a column held as row `chunks`, in
/// row order. With every row in the sample this is the whole column's
/// views, as a scan of the concatenation would visit them.
pub fn gather_sample<'c, T>(
    chunks: &'c [Column],
    sample: &[usize],
    view: impl Fn(&'c Column, usize) -> Option<T>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(sample.len());
    let (mut rest, mut base) = (sample, 0usize);
    for chunk in chunks {
        let end = base + chunk.len();
        let (here, tail) = rest.split_at(rest.partition_point(|&r| r < end));
        out.extend(
            here.iter()
                .filter_map(|&r| view(chunk, r.checked_sub(base)?)),
        );
        (rest, base) = (tail, end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_frame;
    use crate::ColumnStats;

    fn sample_frame() -> DataFrame {
        read_frame(
            "x,city,note\n1.5,paris,alpha beta gamma delta epsilon\n2.5,lyon,short\n\
             3.5,paris,one two three four five six\n4.5,nice,words words words words words\n\
             5.5,lyon,tail text here with many tokens\n",
        )
        .unwrap()
    }

    #[test]
    fn from_frame_roundtrips_bit_identically() {
        let f = sample_frame();
        for chunk_rows in [1, 2, 3, 100] {
            let cf = ChunkedFrame::from_frame(&f, chunk_rows);
            assert_eq!(cf.num_rows(), f.num_rows());
            let back = cf.into_frame().unwrap();
            assert_eq!(back.fingerprint(), f.fingerprint());
        }
        let empty = f.take(&[]);
        let back = ChunkedFrame::from_frame(&empty, 3).into_frame().unwrap();
        assert_eq!(back.fingerprint(), empty.fingerprint(), "kinds of 0 rows");
    }

    #[test]
    fn sample_is_identity_under_bound_and_stable_over_it() {
        assert_eq!(sample_rows(5, 10, 42), vec![0, 1, 2, 3, 4]);
        let s1 = sample_rows(100, 10, 42);
        let s2 = sample_rows(100, 10, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 10);
        assert!(s1.windows(2).all(|w| w[0] < w[1]), "ascending row order");
        assert!(s1.iter().all(|&r| r < 100));
        let s3 = sample_rows(100, 10, 43);
        assert_ne!(s1, s3, "seed changes the sample");
    }

    #[test]
    fn chunked_stats_match_the_compute_oracle_at_any_chunk_size() {
        let f = sample_frame();
        for chunk_rows in [1, 2, 3, 100] {
            let cf = ChunkedFrame::from_frame(&f, chunk_rows);
            let all: Vec<usize> = (0..f.num_rows()).collect();
            for (c, column) in f.columns().iter().enumerate() {
                let exact = crate::stats::oracle::compute(column);
                let chunked = ColumnStats::of_chunks(cf.column_chunks(c), &all);
                assert_eq!(
                    format!("{chunked:?}"),
                    format!("{exact:?}"),
                    "column {c} at chunk_rows {chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn concat_handles_mismatched_dictionaries_gracefully() {
        let a = Column::categorical(vec![Some("x"), Some("y")]);
        let b = Column::categorical(vec![Some("y"), Some("z")]);
        let joined = concat_column(&[a, b]);
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.as_string(0).as_deref(), Some("x"));
        assert_eq!(joined.as_string(3).as_deref(), Some("z"));
        assert_eq!(joined.cardinality(), 3);
    }
}
