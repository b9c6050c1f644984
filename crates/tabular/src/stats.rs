//! Column summary statistics.
//!
//! These sketches serve two consumers in the reproduction:
//! * the content-based dataset embeddings of `kgpip-embeddings` (paper §3.2
//!   builds column embeddings from actual values), and
//! * the meta-features used by the Auto-Sklearn-style warm start and the AL
//!   baseline (paper §2 "Dataset embeddings" discusses meta-features such as
//!   the number of numerical attributes or skewness).

use crate::column::{Column, ColumnKind};

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
    /// Computes statistics for a column.
    pub fn compute(column: &Column) -> ColumnStats {
        let len = column.len();
        let missing = column.missing_count();
        let cardinality = column.cardinality();
        let values = column.numeric_values();

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
            Column::Text(values) => mean_tokens(values.iter().flatten()),
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

    /// Fraction of missing values.
    pub fn missing_ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.missing as f64 / self.len as f64
        }
    }
}

/// Mean whitespace-token count over the present cells of a text column
/// (0 when there are none) — an exact integer fold, so any cell order
/// gives the same result.
pub(crate) fn mean_tokens<'s>(cells: impl Iterator<Item = &'s String>) -> f64 {
    let (mut token_sum, mut count) = (0usize, 0usize);
    for s in cells {
        token_sum += s.split_whitespace().count();
        count += 1;
    }
    if count > 0 {
        token_sum as f64 / count as f64
    } else {
        0.0
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
}
