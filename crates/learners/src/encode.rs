//! `DataFrame` → `Matrix` feature encoding.
//!
//! Mirrors KGpip's preprocessing contract (paper §3.6): numeric columns pass
//! through, categorical columns become ordinal codes (one-hot expansion is a
//! separate [`crate::preprocess`] transformer so HPO can toggle it), textual
//! columns are "vectorized using word embeddings" — substituted here by a
//! feature-hashing bag-of-words projection, which is the same contract
//! (fixed-size dense vector per text cell computed from content). Missing
//! values encode as NaN and are handled by the imputer transformer.

use crate::matrix::Matrix;
use crate::{LearnError, Result};
use kgpip_tabular::{fnv1a, Column, ColumnKind, DataFrame, Dataset, Task};
use std::sync::Arc;

/// Number of hashed dimensions each text column expands to.
pub const TEXT_HASH_DIMS: usize = 16;

/// Role of an output matrix column, used by downstream transformers (e.g.
/// one-hot applies only to categorical-coded columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureRole {
    /// Raw numeric feature.
    Numeric,
    /// Ordinal code of a categorical feature, with the source cardinality.
    CategoricalCode {
        /// Dictionary size of the source column.
        cardinality: usize,
    },
    /// One dimension of a hashed text projection.
    TextHash,
}

/// A fitted encoder mapping frames with a fixed schema into matrices.
#[derive(Debug, Clone)]
pub struct FeatureEncoder {
    schema: Vec<(String, ColumnKind)>,
    roles: Vec<FeatureRole>,
}

impl FeatureEncoder {
    /// Fits an encoder to a frame's schema.
    pub fn fit(frame: &DataFrame) -> FeatureEncoder {
        let mut schema = Vec::new();
        let mut roles = Vec::new();
        for (name, col) in frame.names().iter().zip(frame.columns()) {
            schema.push((name.clone(), col.kind()));
            match col.kind() {
                ColumnKind::Numeric => roles.push(FeatureRole::Numeric),
                ColumnKind::Categorical => roles.push(FeatureRole::CategoricalCode {
                    cardinality: col.dictionary().map_or(0, <[String]>::len),
                }),
                ColumnKind::Text => {
                    roles.extend(std::iter::repeat_n(FeatureRole::TextHash, TEXT_HASH_DIMS))
                }
            }
        }
        FeatureEncoder { schema, roles }
    }

    /// Roles of the output matrix columns, in order.
    pub fn roles(&self) -> &[FeatureRole] {
        &self.roles
    }

    /// Number of output matrix columns.
    pub fn output_dims(&self) -> usize {
        self.roles.len()
    }

    /// Encodes a frame with the fitted schema into a matrix.
    pub fn transform(&self, frame: &DataFrame) -> Result<Matrix> {
        if frame.num_columns() != self.schema.len() {
            return Err(LearnError::Shape(format!(
                "frame has {} columns, encoder expects {}",
                frame.num_columns(),
                self.schema.len()
            )));
        }
        let n = frame.num_rows();
        let d = self.output_dims();
        let mut out = Matrix::zeros(n, d);
        let mut c_out = 0usize;
        for (ci, (name, kind)) in self.schema.iter().enumerate() {
            let col = frame.column_at(ci);
            if col.kind() != *kind {
                return Err(LearnError::Shape(format!(
                    "column `{name}` changed kind: fitted {kind}, got {}",
                    col.kind()
                )));
            }
            match kind {
                ColumnKind::Numeric | ColumnKind::Categorical => {
                    for r in 0..n {
                        out.set(r, c_out, col.as_f64(r).unwrap_or(f64::NAN));
                    }
                    c_out += 1;
                }
                ColumnKind::Text => {
                    for r in 0..n {
                        let dims = hash_text(col, r);
                        for (k, v) in dims.iter().enumerate() {
                            out.set(r, c_out + k, *v);
                        }
                    }
                    c_out += TEXT_HASH_DIMS;
                }
            }
        }
        Ok(out)
    }
}

/// A dataset pre-encoded into matrix form: the unit a search's trials
/// share. Built once per evaluator (or refit), it lets every trial skip `FeatureEncoder::fit`/`transform` on the raw frame
/// and start at the transformer chain instead.
///
/// Encoding is *schema-driven* ([`FeatureEncoder`] records column kinds,
/// not values; categorical codes come from each column's own shared
/// dictionary), so encoding a holdout split with the training split's
/// encoder is bit-for-bit identical to the raw path that fits a fresh
/// encoder on the training split and transforms both — the invariant the
/// encoded-trial identity suite in `kgpip-hpo` pins down.
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    encoder: Arc<FeatureEncoder>,
    x: Matrix,
    target: Vec<f64>,
    task: Task,
    has_nan: bool,
}

impl EncodedDataset {
    /// Encodes a dataset with an encoder fitted to its own schema (the
    /// training-split form).
    pub fn from_dataset(ds: &Dataset) -> Result<EncodedDataset> {
        let encoder = Arc::new(FeatureEncoder::fit(&ds.features));
        Self::build(encoder, ds)
    }

    /// Encodes a dataset with an *existing* encoder — the holdout/test
    /// form, so both splits share the training split's schema exactly as
    /// `Pipeline::fit` + `predict` would.
    pub fn with_encoder(encoder: &Arc<FeatureEncoder>, ds: &Dataset) -> Result<EncodedDataset> {
        Self::build(Arc::clone(encoder), ds)
    }

    fn build(encoder: Arc<FeatureEncoder>, ds: &Dataset) -> Result<EncodedDataset> {
        let x = encoder.transform(&ds.features)?;
        let has_nan = x.has_nan();
        Ok(EncodedDataset {
            encoder,
            x,
            target: ds.target.clone(),
            task: ds.task,
            has_nan,
        })
    }

    /// The encoder that produced this matrix.
    pub fn encoder(&self) -> &Arc<FeatureEncoder> {
        &self.encoder
    }

    /// The encoded feature matrix.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Roles of the matrix columns.
    pub fn roles(&self) -> &[FeatureRole] {
        self.encoder.roles()
    }

    /// The target vector.
    pub fn target(&self) -> &[f64] {
        &self.target
    }

    /// The dataset's task.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Whether the encoded matrix contains NaN (missing values), computed
    /// once at encode time. The trial hot path consults this instead of
    /// rescanning the matrix per trial: for bare-estimator specs on
    /// NaN-free data it lets the transformer chain be skipped outright.
    pub fn has_nan(&self) -> bool {
        self.has_nan
    }
}

/// Hashes a text cell into `TEXT_HASH_DIMS` signed token counts, normalized
/// by token count. Missing text encodes as all-zero (an empty document).
fn hash_text(col: &Column, row: usize) -> [f64; TEXT_HASH_DIMS] {
    let mut dims = [0.0f64; TEXT_HASH_DIMS];
    let Some(text) = col.as_string(row) else {
        return dims;
    };
    let mut count = 0usize;
    for token in text.split_whitespace() {
        let h = fnv1a(token.as_bytes());
        let bucket = (h % TEXT_HASH_DIMS as u64) as usize;
        // Sign hashing reduces collision bias (as in sklearn's
        // HashingVectorizer with alternate_sign=True).
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        dims[bucket] += sign;
        count += 1;
    }
    if count > 0 {
        let norm = (count as f64).sqrt();
        for d in &mut dims {
            *d /= norm;
        }
    }
    dims
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpip_tabular::Column;

    fn mixed_frame() -> DataFrame {
        DataFrame::from_columns(vec![
            ("n".to_string(), Column::numeric(vec![Some(1.0), None])),
            (
                "c".to_string(),
                Column::categorical(vec![Some("a"), Some("b")]),
            ),
            (
                "t".to_string(),
                Column::text(vec![Some("hello world"), None]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn output_layout() {
        let f = mixed_frame();
        let enc = FeatureEncoder::fit(&f);
        assert_eq!(enc.output_dims(), 2 + TEXT_HASH_DIMS);
        assert_eq!(enc.roles()[0], FeatureRole::Numeric);
        assert_eq!(
            enc.roles()[1],
            FeatureRole::CategoricalCode { cardinality: 2 }
        );
        assert_eq!(enc.roles()[2], FeatureRole::TextHash);
    }

    #[test]
    fn transform_encodes_missing_as_nan() {
        let f = mixed_frame();
        let enc = FeatureEncoder::fit(&f);
        let m = enc.transform(&f).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert!(m.get(1, 0).is_nan());
        assert_eq!(m.get(0, 1), 0.0); // code for "a"
        assert_eq!(m.get(1, 1), 1.0); // code for "b"
    }

    #[test]
    fn text_hash_is_deterministic_and_zero_for_missing() {
        let f = mixed_frame();
        let enc = FeatureEncoder::fit(&f);
        let m1 = enc.transform(&f).unwrap();
        let m2 = enc.transform(&f).unwrap();
        // Bitwise comparison: NaN cells (missing numerics) must also match.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m1), bits(&m2));
        // Missing text row: all hash dims zero.
        assert!((0..TEXT_HASH_DIMS).all(|k| m1.get(1, 2 + k) == 0.0));
        // Present text row: at least one nonzero dim.
        assert!((0..TEXT_HASH_DIMS).any(|k| m1.get(0, 2 + k) != 0.0));
    }

    #[test]
    fn transform_rejects_schema_drift() {
        let f = mixed_frame();
        let enc = FeatureEncoder::fit(&f);
        let other =
            DataFrame::from_columns(vec![("n".to_string(), Column::from_f64(vec![1.0]))]).unwrap();
        assert!(enc.transform(&other).is_err());
    }

    #[test]
    fn different_texts_hash_differently() {
        let f = DataFrame::from_columns(vec![(
            "t".to_string(),
            Column::text(vec![Some("alpha beta gamma"), Some("delta epsilon zeta")]),
        )])
        .unwrap();
        let enc = FeatureEncoder::fit(&f);
        let m = enc.transform(&f).unwrap();
        assert_ne!(m.row(0), m.row(1));
    }
}
