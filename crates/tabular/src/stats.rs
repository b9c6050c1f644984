//! Column summary statistics.
//!
//! These sketches serve two consumers in the reproduction:
//! * the content-based dataset embeddings of `kgpip-embeddings` (paper §3.2
//!   builds column embeddings from actual values), and
//! * the meta-features used by the Auto-Sklearn-style warm start and the AL
//!   baseline (paper §2 "Dataset embeddings" discusses meta-features such as
//!   the number of numerical attributes or skewness).
//!
//! There is one fold, [`ColumnStats::of_chunks`], over a column held as
//! row chunks: the moments, extremes and distinct count read every row in
//! row order, the quantiles read a row sample. An in-memory column is its
//! one-chunk case: [`ColumnStats::compute`] passes
//! `std::slice::from_ref(column)` with every row as the sample. The fold
//! gathers each column's present numeric views once from the typed slices.
//! When the quantile sort holds every present value, the distinct count is
//! read off it (runs of equal values, with `-0` and `+0` two values);
//! otherwise — a sampled column, text, a NaN — it is a sort and dedup of
//! its own. Its sums are
//! `Iterator::sum`, which starts at −0.0, so a column whose present values
//! are all `-0` has mean −0.0 however it is chunked.

use crate::chunk::gather_sample;
use crate::column::{Column, ColumnKind};
use std::cmp::Ordering;
use std::collections::HashSet;

/// 64-bit FNV-1a hash — the workspace's canonical cheap string hash
/// (feature hashing, n-gram buckets, deterministic synthetic seeds).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Summary statistics of a single column, computed over non-missing values.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Kind of the source column.
    pub kind: ColumnKind,
    /// Total rows including missing.
    pub len: usize,
    /// Missing-value count.
    pub missing: usize,
    /// Distinct non-missing values.
    pub cardinality: usize,
    /// Mean of the numeric view (0 when no numeric view exists).
    pub mean: f64,
    /// Standard deviation of the numeric view.
    pub std: f64,
    /// Minimum of the numeric view.
    pub min: f64,
    /// Maximum of the numeric view.
    pub max: f64,
    /// Skewness (third standardized moment) of the numeric view.
    pub skewness: f64,
    /// Excess kurtosis (fourth standardized moment − 3) of the numeric view.
    pub kurtosis: f64,
    /// Evenly spaced quantiles of the numeric view: p10..p90 in steps of 20.
    pub quantiles: [f64; 5],
    /// Mean whitespace-token count for text columns (0 otherwise).
    pub mean_tokens: f64,
}

impl ColumnStats {
    /// Computes statistics for a column: the one-chunk case of
    /// [`ColumnStats::of_chunks`], with every row as the sample.
    pub fn compute(column: &Column) -> ColumnStats {
        let rows: Vec<usize> = (0..column.len()).collect();
        ColumnStats::of_chunks(std::slice::from_ref(column), &rows)
    }

    /// Statistics of a column held as row chunks (`chunks` in row order).
    /// Every field but `quantiles` reads every row, so none depends on the
    /// chunk layout. The quantiles read the rows of `sample` (ascending
    /// global row indices, e.g. from [`crate::ChunkedFrame::sample`]); a
    /// sample as long as the column covers every row, and then they are
    /// exact.
    pub fn of_chunks(chunks: &[Column], sample: &[usize]) -> ColumnStats {
        let kind = chunks.first().map_or(ColumnKind::Numeric, Column::kind);
        let len: usize = chunks.iter().map(Column::len).sum();
        let mut values: Vec<f64> = Vec::new();
        for chunk in chunks {
            match chunk {
                Column::Numeric(v) => values.extend(v.iter().flatten()),
                Column::Categorical { codes, .. } => {
                    values.extend(codes.iter().flatten().map(|&code| f64::from(code)))
                }
                Column::Text(_) => {}
            }
        }

        // A distinct count read off the quantile sort, when that sort holds
        // every present value of one numeric view; else `distinct_count`.
        let mut sorted_cardinality: Option<usize> = None;
        let (mean, std, min, max, skewness, kurtosis, quantiles) = match values.first() {
            None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, [0.0; 5]),
            Some(&first) => {
                let n = values.len() as f64;
                let mean = values.iter().sum::<f64>() / n;
                let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                let std = var.sqrt();
                let (skew, kurt) = if std > 1e-12 {
                    let m3 = values
                        .iter()
                        .map(|x| ((x - mean) / std).powi(3))
                        .sum::<f64>()
                        / n;
                    let m4 = values
                        .iter()
                        .map(|x| ((x - mean) / std).powi(4))
                        .sum::<f64>()
                        / n;
                    (m3, m4 - 3.0)
                } else {
                    (0.0, 0.0)
                };
                // Strict `<` keeps the first-seen of equal minima and `>=`
                // the last-seen of equal maxima: the two ends of a stable
                // sort of every value.
                let (min, max) = values.iter().fold((first, first), |(lo, hi), &x| {
                    (if x < lo { x } else { lo }, if x >= hi { x } else { hi })
                });
                let full = sample.len() == len;
                let mut sorted = if full {
                    values
                } else {
                    gather_sample(chunks, sample, Column::as_f64)
                };
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
                if full && chunks.iter().all(|c| c.kind() == kind) {
                    sorted_cardinality = sorted_distinct_bits(&sorted);
                }
                let last = sorted.len().saturating_sub(1);
                let q = |p: f64| -> f64 {
                    let idx = (p * last as f64).round() as usize;
                    sorted.get(idx).copied().unwrap_or(0.0)
                };
                let quantiles = [q(0.1), q(0.3), q(0.5), q(0.7), q(0.9)];
                (mean, std, min, max, skew, kurt, quantiles)
            }
        };

        let mean_tokens = if kind == ColumnKind::Text {
            let (mut tokens, mut present) = (0usize, 0usize);
            for chunk in chunks {
                if let Column::Text(v) = chunk {
                    for s in v.iter().flatten() {
                        tokens += s.split_whitespace().count();
                        present += 1;
                    }
                }
            }
            if present > 0 {
                tokens as f64 / present as f64
            } else {
                0.0
            }
        } else {
            0.0
        };

        ColumnStats {
            kind,
            len,
            missing: chunks.iter().map(Column::missing_count).sum(),
            cardinality: sorted_cardinality.unwrap_or_else(|| distinct_count(chunks)),
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

    /// Fraction of missing values.
    pub fn missing_ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.missing as f64 / self.len as f64
        }
    }
}

/// Distinct bit patterns among `sorted`, a `partial_cmp` sort of every
/// present value: the runs of `==` values, plus one for a zero run that
/// holds both `-0` and `+0` (equal, but two bit patterns; a sorted slice
/// keeps all its zeros in one run). `None` when a NaN is present: it ties
/// with everything, so its runs are not bit classes.
fn sorted_distinct_bits(sorted: &[f64]) -> Option<usize> {
    if sorted.iter().any(|x| x.is_nan()) {
        return None;
    }
    let neighbours = sorted.iter().zip(sorted.iter().skip(1));
    let runs = usize::from(!sorted.is_empty()) + neighbours.filter(|(a, b)| a != b).count();
    let (mut negative_zero, mut positive_zero) = (false, false);
    for x in sorted.iter().filter(|x| **x == 0.0) {
        negative_zero |= x.is_sign_negative();
        positive_zero |= x.is_sign_positive();
    }
    Some(runs + usize::from(negative_zero && positive_zero))
}

/// Distinct present values of a column held as row chunks: numeric values
/// by bit pattern (`-0` and `0` differ) and categorical codes counted by
/// sort and dedup, text strings by hashing (a count reads no order).
/// Chunks of another kind than the first hold none of the first kind's
/// values and are skipped.
pub(crate) fn distinct_count(chunks: &[Column]) -> usize {
    fn count<T: Ord>(mut keys: Vec<T>) -> usize {
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
    match chunks.first().map(Column::kind) {
        None => 0,
        Some(ColumnKind::Numeric) => count(
            chunks
                .iter()
                .flat_map(|c| match c {
                    Column::Numeric(v) => v.as_slice(),
                    _ => &[],
                })
                .flatten()
                .map(|x| x.to_bits())
                .collect(),
        ),
        Some(ColumnKind::Categorical) => count(
            chunks
                .iter()
                .flat_map(|c| match c {
                    Column::Categorical { codes, .. } => codes.as_slice(),
                    _ => &[],
                })
                .flatten()
                .collect(),
        ),
        Some(ColumnKind::Text) => {
            // Sized for one value per row, so no string is hashed twice.
            let mut seen = HashSet::with_capacity(chunks.iter().map(Column::len).sum());
            for chunk in chunks {
                if let Column::Text(v) = chunk {
                    seen.extend(v.iter().filter_map(Option::as_deref));
                }
            }
            seen.len()
        }
    }
}

/// The in-memory fold [`ColumnStats::of_chunks`] replaced, verbatim, kept
/// as an independent oracle: a column's stats reading it through
/// `as_f64` one index at a time, a distinct count per kind, and moments
/// over the collected values. The one fold must match it to the bit
/// (compared by `Debug` or `to_bits`, never by `PartialEq`, which hides the
/// sign of zero) on every column, at every chunk size, under full
/// coverage.
#[cfg(test)]
pub(crate) mod oracle {
    use super::ColumnStats;
    use crate::column::Column;

    fn cardinality(column: &Column) -> usize {
        match column {
            Column::Numeric(v) => {
                let mut seen: Vec<u64> = v.iter().filter_map(|x| x.map(f64::to_bits)).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            }
            Column::Categorical { codes, .. } => {
                let mut seen: Vec<u32> = codes.iter().filter_map(|c| *c).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            }
            Column::Text(v) => {
                let mut seen: Vec<&str> = v.iter().filter_map(|s| s.as_deref()).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            }
        }
    }

    /// `ColumnStats::compute` as it was before the fold was shared.
    pub(crate) fn compute(column: &Column) -> ColumnStats {
        let len = column.len();
        let missing = column.missing_count();
        let cardinality = cardinality(column);
        let values: Vec<f64> = (0..len).filter_map(|i| column.as_f64(i)).collect();

        let (mean, std, min, max, skewness, kurtosis, quantiles) = if values.is_empty() {
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, [0.0; 5])
        } else {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let std = var.sqrt();
            let (skew, kurt) = if std > 1e-12 {
                let m3 = values
                    .iter()
                    .map(|x| ((x - mean) / std).powi(3))
                    .sum::<f64>()
                    / n;
                let m4 = values
                    .iter()
                    .map(|x| ((x - mean) / std).powi(4))
                    .sum::<f64>()
                    / n;
                (m3, m4 - 3.0)
            } else {
                (0.0, 0.0)
            };
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let q = |p: f64| -> f64 {
                let idx = (p * (sorted.len() - 1) as f64).round() as usize;
                sorted[idx.min(sorted.len() - 1)]
            };
            let quantiles = [q(0.1), q(0.3), q(0.5), q(0.7), q(0.9)];
            (
                mean,
                std,
                sorted[0],
                sorted[sorted.len() - 1],
                skew,
                kurt,
                quantiles,
            )
        };

        let mean_tokens = match column {
            Column::Text(values) => {
                let (mut token_sum, mut count) = (0usize, 0usize);
                for s in values.iter().flatten() {
                    token_sum += s.split_whitespace().count();
                    count += 1;
                }
                if count > 0 {
                    token_sum as f64 / count as f64
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };

        ColumnStats {
            kind: column.kind(),
            len,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn fnv1a_known_values() {
        // Reference vector for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn numeric_moments() {
        let c = Column::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = ColumnStats::compute(&c);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!(s.skewness.abs() < 1e-12, "symmetric data has zero skew");
        assert_eq!(s.quantiles[2], 3.0);
    }

    #[test]
    fn skewness_sign_follows_tail() {
        let right_tail = Column::from_f64(vec![1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(ColumnStats::compute(&right_tail).skewness > 0.5);
        let left_tail = Column::from_f64(vec![10.0, 10.0, 10.0, 10.0, 1.0]);
        assert!(ColumnStats::compute(&left_tail).skewness < -0.5);
    }

    #[test]
    fn constant_column_has_no_skew_or_kurtosis() {
        let c = Column::from_f64(vec![7.0; 10]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.kurtosis, 0.0);
    }

    #[test]
    fn missing_ratio_and_cardinality() {
        let c = Column::numeric(vec![Some(1.0), None, Some(1.0), Some(2.0)]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.missing, 1);
        assert!((s.missing_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(s.cardinality, 2);
    }

    #[test]
    fn text_stats() {
        let c = Column::text(vec![Some("one two three"), Some("four five")]);
        let s = ColumnStats::compute(&c);
        assert!((s.mean_tokens - 2.5).abs() < 1e-12);
        assert_eq!(s.mean, 0.0, "text has no numeric view");
    }

    #[test]
    fn categorical_numeric_view_uses_codes() {
        let c = Column::categorical(vec![Some("a"), Some("b"), Some("b")]);
        let s = ColumnStats::compute(&c);
        // Codes 0, 1, 1 -> mean 2/3.
        assert!((s.mean - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mean_tokens, 0.0, "only text columns report token stats");
    }

    #[test]
    fn empty_column() {
        let c = Column::numeric(Vec::<Option<f64>>::new());
        let s = ColumnStats::compute(&c);
        assert_eq!(s.len, 0);
        assert_eq!(s.missing_ratio(), 0.0);
    }

    /// `Debug` of stats: every float to the bit, sign of zero included
    /// (`PartialEq` would equate `-0.0` and `0.0`).
    fn bits(stats: &ColumnStats) -> String {
        format!("{stats:?}")
    }

    /// Every column of `frame` at chunk sizes 1, 7 and whole, with every
    /// row as the sample, against the oracle; and `compute`, the
    /// one-chunk case.
    fn assert_matches_oracle(frame: &crate::DataFrame, what: &str) {
        let all: Vec<usize> = (0..frame.num_rows()).collect();
        for (c, column) in frame.columns().iter().enumerate() {
            let expected = bits(&oracle::compute(column));
            assert_eq!(
                bits(&ColumnStats::compute(column)),
                expected,
                "{what}: column {c}"
            );
            for chunk_rows in [1, 7, usize::MAX] {
                let cf = crate::ChunkedFrame::from_frame(frame, chunk_rows);
                assert_eq!(
                    bits(&ColumnStats::of_chunks(cf.column_chunks(c), &all)),
                    expected,
                    "{what}: column {c} at chunk_rows {chunk_rows}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// With the sample covering every row, the fold reproduces the
        /// oracle's statistics — same floating-point operation sequence,
        /// same bits — at every chunk size.
        #[test]
        fn chunked_stats_match_the_oracle_under_full_coverage(
            values in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 1..60),
        ) {
            assert_chunked_stats_match_the_oracle(values)?;
        }

        /// The same on columns dense in ties: repeated values, `-0` next
        /// to `+0` (equal, yet two distinct values), and columns whose
        /// present values are all equal.
        #[test]
        fn chunked_stats_match_the_oracle_on_ties_and_signed_zeros(
            values in proptest::collection::vec(
                proptest::option::of(tie_prone()),
                1..60,
            ),
            constant in tie_prone(),
            constant_len in 1usize..40,
        ) {
            assert_chunked_stats_match_the_oracle(values)?;
            assert_chunked_stats_match_the_oracle(vec![Some(constant); constant_len])?;
        }
    }

    /// Values drawn mostly from a few ties: `+0`, `-0`, 1.5 and −3, else
    /// anywhere in ±1e6.
    fn tie_prone() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::strategy::Strategy;
        (0u8..6, -1e6f64..1e6).prop_map(|(pick, x)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => 1.5,
            3 => -3.0,
            _ => x,
        })
    }

    /// With the sample covering every row, `of_chunks` at chunk sizes 1,
    /// 7, 64 and whole matches the oracle to the bit.
    fn assert_chunked_stats_match_the_oracle(values: Vec<Option<f64>>) -> Result<(), String> {
        let col = Column::numeric(values.clone());
        let exact = bits(&oracle::compute(&col));
        let frame = crate::DataFrame::from_columns(vec![("v".to_string(), col)]).unwrap();
        for chunk_rows in [1, 7, 64, 1_000_000] {
            let cf = crate::ChunkedFrame::from_frame(&frame, chunk_rows);
            let sample = cf.sample(values.len(), 0);
            let chunked = bits(&ColumnStats::of_chunks(cf.column_chunks(0), &sample));
            proptest::prop_assert_eq!(&exact, &chunked, "chunk_rows={}", chunk_rows);
        }
        Ok(())
    }

    /// A NaN ties with every value under `partial_cmp`, so the sorted runs
    /// are not bit classes: a column holding one (built from the variant,
    /// since `Column::numeric` maps NaN to missing) keeps the bit-pattern
    /// count.
    #[test]
    fn a_nan_column_counts_distinct_bit_patterns() {
        let col = Column::Numeric(
            [1.0, f64::NAN, 1.0, 2.0, f64::NAN, -0.0, 0.0]
                .into_iter()
                .map(Some)
                .collect(),
        );
        assert_eq!(sorted_distinct_bits(&[1.0, f64::NAN]), None);
        assert_eq!(ColumnStats::compute(&col).cardinality, 5);
        assert_eq!(
            ColumnStats::compute(&col).cardinality,
            distinct_count(&[col])
        );
    }

    /// `Iterator::sum` starts at −0.0, so a column whose present values
    /// are all `-0` has mean −0.0 — in the oracle and in the fold at every
    /// chunk size (a fold starting at +0.0 would report +0.0).
    #[test]
    fn an_all_negative_zero_column_keeps_its_sign_like_the_oracle() {
        let frame = crate::csv::read_frame("x\n-0\n-0.0\n\n").unwrap();
        let stats = oracle::compute(frame.column_at(0));
        assert_eq!(stats.mean.to_bits(), (-0.0f64).to_bits());
        assert_eq!(stats.cardinality, 1);
        assert_matches_oracle(&frame, "all -0");
    }

    /// The degenerate inputs: read through `read_frame` (which must match
    /// the row-major oracle), every column's statistics must match the
    /// oracle fold to the bit.
    #[test]
    fn degenerate_inputs_match_the_oracle() {
        for (what, doc) in [
            ("header-only", "a,b\n"),
            ("one-row", "n,c,t\n1.5,x,one two three four five\n"),
            ("all-missing column", "m,v\n,1\nNA,2\n,3\n"),
            ("constant column", "k,v\n7,1\n7,2\n7,3\n"),
            ("all -0 column", "x\n-0\n-0.0\n\n"),
            (
                "one-value text column",
                "t,v\nthe quick brown fox jumps,1\nthe quick brown fox jumps,2\n",
            ),
        ] {
            let frame = crate::csv::read_frame(doc).unwrap();
            let expected = crate::csv::oracle::read_frame(doc).unwrap();
            assert_eq!(frame.fingerprint(), expected.fingerprint(), "{what}");
            assert_matches_oracle(&frame, what);
        }
    }
}
