//! Chunked columnar frames: the out-of-core substrate.
//!
//! A [`ChunkedFrame`] holds each column as a sequence of fixed-size row
//! chunks instead of one contiguous column. Every consumer that can fold
//! over chunks (sampling, streamed statistics, table embeddings) avoids
//! materializing the full column; [`ChunkedFrame::to_frame`] concatenates
//! the chunks back into the exact [`DataFrame`] the in-memory reader would
//! have produced — chunking changes what a stage *costs*, never what it
//! *computes*.
//!
//! Two deterministic primitives live here because every chunked consumer
//! shares them:
//!
//! * [`sample_rows`] — a seeded bottom-k row sample keyed by the *global*
//!   row index, so the sampled set is identical at any chunk size and any
//!   worker count, and equals the full row set whenever the table fits
//!   under the bound (sampling degrades to the identity).
//! * [`ChunkedFrame::column_stats_sampled`] — per-column summary stats
//!   with moments accumulated chunk-by-chunk in row order. The fold
//!   replays the exact floating-point operation sequence of
//!   [`ColumnStats::compute`], so everything except the quantiles is
//!   bit-identical to the in-memory stats at any chunk size; quantiles
//!   come from the sample and are exact when the sample covers all rows.

use crate::column::{Column, ColumnKind};
use crate::frame::DataFrame;
use crate::stats::{mean_tokens, ColumnStats};
use crate::Result;
use std::collections::BinaryHeap;
use std::collections::HashSet;
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
    /// `from_frame(f, n).to_frame()` reproduces `f` bit-for-bit.
    pub fn from_frame(frame: &DataFrame, chunk_rows: usize) -> ChunkedFrame {
        let chunk_rows = chunk_rows.max(1);
        let rows = frame.num_rows();
        let mut chunk_sizes = Vec::new();
        let mut starts = Vec::new();
        let mut at = 0usize;
        while at < rows {
            let len = chunk_rows.min(rows - at);
            starts.push(at);
            chunk_sizes.push(len);
            at += len;
        }
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

    /// The chunks of column `c`, in chunk order.
    pub fn column_chunks(&self, c: usize) -> &[Column] {
        &self.columns[c]
    }

    /// Concatenates every column back into an in-memory [`DataFrame`] —
    /// bit-identical to the frame the in-memory reader produces.
    pub fn to_frame(&self) -> Result<DataFrame> {
        let mut frame = DataFrame::new();
        for (name, chunks) in self.names.iter().zip(self.columns.iter()) {
            frame.push(name.clone(), concat_column(chunks))?;
        }
        Ok(frame)
    }

    /// Seeded bottom-k sample of this frame's rows; see [`sample_rows`].
    pub fn sample(&self, bound: usize, seed: u64) -> Vec<usize> {
        sample_rows(self.rows, bound, seed)
    }

    /// Summary statistics of column `c` with moments accumulated
    /// chunk-by-chunk and quantiles taken from `sample` (ascending global
    /// row indices, e.g. from [`ChunkedFrame::sample`]). Bit-identical to
    /// `ColumnStats::compute` on the concatenated column in every field
    /// except `quantiles`, which are exact whenever the sample covers all
    /// rows.
    pub fn column_stats_sampled(&self, c: usize, sample: &[usize]) -> ColumnStats {
        column_stats_streamed(&self.columns[c], self.rows, sample)
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

/// Streamed [`ColumnStats`]: one accumulator folded row-by-row through the
/// chunks in chunk order. Because the fold visits rows in exactly the
/// order `ColumnStats::compute` iterates the concatenated column, every
/// floating-point operation sequence is identical — mean, std, min, max,
/// skewness and kurtosis match to the bit at any chunk size. Quantiles
/// need a sort, so they come from `sample` (ascending global row indices)
/// and are exact when the sample covers all rows.
fn column_stats_streamed(chunks: &[Column], rows: usize, sample: &[usize]) -> ColumnStats {
    let kind = chunks
        .first()
        .map(|c| c.kind())
        .unwrap_or(ColumnKind::Numeric);
    let mut missing = 0usize;
    for c in chunks {
        missing += c.missing_count();
    }
    let cardinality = streamed_cardinality(chunks);

    // Pass 1: count + sum, in row order (the same left fold as
    // `values.iter().sum()`).
    let mut n = 0usize;
    let mut sum = 0.0f64;
    let mut min = 0.0f64;
    let mut max = 0.0f64;
    for c in chunks {
        for i in 0..c.len() {
            if let Some(x) = c.as_f64(i) {
                if n == 0 {
                    min = x;
                    max = x;
                } else {
                    // Strict `<` keeps the first-seen among ties and `>=`
                    // the last-seen, matching the stable sort compute()
                    // reads its min/max from.
                    if x < min {
                        min = x;
                    }
                    if x >= max {
                        max = x;
                    }
                }
                n += 1;
                sum += x;
            }
        }
    }

    let (mean, std, skewness, kurtosis, quantiles) = if n == 0 {
        (0.0, 0.0, 0.0, 0.0, [0.0f64; 5])
    } else {
        let nf = n as f64;
        let mean = sum / nf;
        // Pass 2: central moments, each its own row-order fold — the
        // exact expression shapes of ColumnStats::compute.
        let mut var_sum = 0.0f64;
        for c in chunks {
            for i in 0..c.len() {
                if let Some(x) = c.as_f64(i) {
                    var_sum += (x - mean).powi(2);
                }
            }
        }
        let var = var_sum / nf;
        let std = var.sqrt();
        let (skew, kurt) = if std > 1e-12 {
            let mut m3_sum = 0.0f64;
            for c in chunks {
                for i in 0..c.len() {
                    if let Some(x) = c.as_f64(i) {
                        m3_sum += ((x - mean) / std).powi(3);
                    }
                }
            }
            let mut m4_sum = 0.0f64;
            for c in chunks {
                for i in 0..c.len() {
                    if let Some(x) = c.as_f64(i) {
                        m4_sum += ((x - mean) / std).powi(4);
                    }
                }
            }
            (m3_sum / nf, m4_sum / nf - 3.0)
        } else {
            (0.0, 0.0)
        };
        // Quantiles from the sampled rows, visited in ascending row order
        // so a full-coverage sample reproduces compute()'s sort input.
        let mut sampled: Vec<f64> = Vec::with_capacity(sample.len());
        let mut cursor = sample.iter().peekable();
        let mut base = 0usize;
        for c in chunks {
            let len = c.len();
            while let Some(&&r) = cursor.peek() {
                if r < base || r >= base + len {
                    break;
                }
                if let Some(x) = c.as_f64(r - base) {
                    sampled.push(x);
                }
                cursor.next();
            }
            base += len;
        }
        let quantiles = if sampled.is_empty() {
            [0.0f64; 5]
        } else {
            sampled.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let q = |p: f64| -> f64 {
                let idx = (p * (sampled.len() - 1) as f64).round() as usize;
                sampled[idx.min(sampled.len() - 1)]
            };
            [q(0.1), q(0.3), q(0.5), q(0.7), q(0.9)]
        };
        (mean, std, skew, kurt, quantiles)
    };

    let mean_tokens = if kind == ColumnKind::Text {
        mean_tokens(
            chunks
                .iter()
                .flat_map(|c| match c {
                    Column::Text(values) => values.as_slice(),
                    _ => &[],
                })
                .flatten(),
        )
    } else {
        0.0
    };

    ColumnStats {
        kind,
        len: rows,
        missing,
        cardinality,
        mean,
        std,
        min,
        max,
        skewness,
        kurtosis,
        quantiles,
        mean_tokens,
    }
}

/// Exact distinct-count across chunks, matching `Column::cardinality` on
/// the concatenation. The hash sets are used for membership only — the
/// count is order-free.
fn streamed_cardinality(chunks: &[Column]) -> usize {
    let kind = chunks.first().map(|c| c.kind());
    match kind {
        None => 0,
        Some(ColumnKind::Numeric) => {
            let mut seen: HashSet<u64> = HashSet::new();
            for c in chunks {
                if let Column::Numeric(v) = c {
                    for x in v.iter().flatten() {
                        seen.insert(x.to_bits());
                    }
                }
            }
            seen.len()
        }
        Some(ColumnKind::Categorical) => {
            let mut seen: HashSet<u32> = HashSet::new();
            for c in chunks {
                if let Column::Categorical { codes, .. } = c {
                    for code in codes.iter().flatten() {
                        seen.insert(*code);
                    }
                }
            }
            seen.len()
        }
        Some(ColumnKind::Text) => {
            let mut seen: HashSet<&str> = HashSet::new();
            for c in chunks {
                if let Column::Text(v) = c {
                    for s in v.iter().flatten() {
                        seen.insert(s.as_str());
                    }
                }
            }
            seen.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_frame;

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
            let back = cf.to_frame().unwrap();
            assert_eq!(back.fingerprint(), f.fingerprint());
        }
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
    fn streamed_stats_match_compute_at_any_chunk_size() {
        let f = sample_frame();
        for chunk_rows in [1, 2, 3, 100] {
            let cf = ChunkedFrame::from_frame(&f, chunk_rows);
            let all: Vec<usize> = (0..f.num_rows()).collect();
            for c in 0..f.num_columns() {
                let exact = ColumnStats::compute(&f.columns()[c]);
                let streamed = cf.column_stats_sampled(c, &all);
                assert_eq!(streamed, exact, "column {c} at chunk_rows {chunk_rows}");
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
