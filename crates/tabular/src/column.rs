//! Typed columns with missing-value support.
//!
//! KGpip distinguishes numerical, categorical and textual features (paper
//! Table 4 reports `#Num`, `#Cat`, `#Text` per dataset), so the column model
//! mirrors exactly those three kinds. Categorical columns store codes into a
//! dictionary so that cardinality and value lookups are O(1) and cloning a
//! column does not duplicate string payloads per row.

use std::collections::HashMap;
use std::sync::Arc;

/// The kind of data a [`Column`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Continuous or integer-valued numeric data.
    Numeric,
    /// Low-cardinality discrete data backed by a dictionary.
    Categorical,
    /// Free-form text (high cardinality, whitespace-separated tokens).
    Text,
}

impl std::fmt::Display for ColumnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnKind::Numeric => write!(f, "numeric"),
            ColumnKind::Categorical => write!(f, "categorical"),
            ColumnKind::Text => write!(f, "text"),
        }
    }
}

/// A single typed column. `None` entries represent missing values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Numeric data; `None` is a missing value, NaN is normalized to `None`
    /// by [`Column::numeric`].
    Numeric(Vec<Option<f64>>),
    /// Dictionary-encoded categorical data. `codes[i]` indexes into
    /// `dictionary`; `None` is a missing value.
    Categorical {
        /// Per-row dictionary codes.
        codes: Vec<Option<u32>>,
        /// Distinct category labels; index = code. Shared so clones are cheap.
        dictionary: Arc<Vec<String>>,
    },
    /// Free-form text; `None` is a missing value.
    Text(Vec<Option<String>>),
}

impl Column {
    /// Builds a numeric column, normalizing NaN values to missing.
    pub fn numeric<I: IntoIterator<Item = Option<f64>>>(values: I) -> Self {
        Column::Numeric(
            values
                .into_iter()
                .map(|v| v.filter(|x| x.is_finite()))
                .collect(),
        )
    }

    /// Builds a numeric column from plain values (no missing entries).
    pub fn from_f64<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Column::numeric(values.into_iter().map(Some))
    }

    /// Builds a categorical column from string labels, deriving the
    /// dictionary from the order of first appearance.
    pub fn categorical<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = Option<S>>,
        S: AsRef<str>,
    {
        let mut dictionary: Vec<String> = Vec::new();
        let mut lookup: HashMap<String, u32> = HashMap::new();
        let codes = values
            .into_iter()
            .map(|v| {
                v.map(|s| {
                    let s = s.as_ref();
                    *lookup.entry(s.to_string()).or_insert_with(|| {
                        dictionary.push(s.to_string());
                        (dictionary.len() - 1) as u32
                    })
                })
            })
            .collect();
        Column::Categorical {
            codes,
            dictionary: Arc::new(dictionary),
        }
    }

    /// Builds a text column.
    pub fn text<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = Option<S>>,
        S: Into<String>,
    {
        Column::Text(values.into_iter().map(|v| v.map(Into::into)).collect())
    }

    /// Number of rows (including missing entries).
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
            Column::Text(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kind of this column.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Numeric(_) => ColumnKind::Numeric,
            Column::Categorical { .. } => ColumnKind::Categorical,
            Column::Text(_) => ColumnKind::Text,
        }
    }

    /// Number of missing entries.
    pub fn missing_count(&self) -> usize {
        match self {
            Column::Numeric(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Categorical { codes, .. } => codes.iter().filter(|x| x.is_none()).count(),
            Column::Text(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Numeric view of row `i`: the value itself for numeric columns, the
    /// dictionary code for categorical columns, `None` for text columns and
    /// missing entries. This is the raw view learners' encoders start from.
    pub fn as_f64(&self, i: usize) -> Option<f64> {
        match self {
            Column::Numeric(v) => v.get(i).copied().flatten(),
            Column::Categorical { codes, .. } => codes.get(i).copied().flatten().map(|c| c as f64),
            Column::Text(_) => None,
        }
    }

    /// String view of row `i`; numeric values render with `{}`.
    pub fn as_string(&self, i: usize) -> Option<String> {
        match self {
            Column::Numeric(v) => v.get(i).copied().flatten().map(|x| format!("{x}")),
            Column::Categorical { codes, dictionary } => codes
                .get(i)
                .copied()
                .flatten()
                .map(|c| dictionary[c as usize].clone()),
            Column::Text(v) => v.get(i).cloned().flatten(),
        }
    }

    /// Distinct non-missing value count: numeric values by bit pattern,
    /// categorical codes in use, distinct text strings. The one-chunk case
    /// of the chunked distinct count the column statistics use.
    pub fn cardinality(&self) -> usize {
        crate::stats::distinct_count(std::slice::from_ref(self))
    }

    /// The dictionary of a categorical column, if any.
    pub fn dictionary(&self) -> Option<&[String]> {
        match self {
            Column::Categorical { dictionary, .. } => Some(dictionary.as_slice()),
            _ => None,
        }
    }

    /// Selects the given rows into a new column (rows may repeat).
    pub fn take(&self, rows: &[usize]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(rows.iter().map(|&i| v[i]).collect()),
            Column::Categorical { codes, dictionary } => Column::Categorical {
                codes: rows.iter().map(|&i| codes[i]).collect(),
                dictionary: Arc::clone(dictionary),
            },
            Column::Text(v) => Column::Text(rows.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Iterator over non-missing numeric views (numeric values or
    /// categorical codes).
    pub fn numeric_values(&self) -> Vec<f64> {
        (0..self.len()).filter_map(|i| self.as_f64(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_normalizes_nan_to_missing() {
        let c = Column::numeric(vec![Some(1.0), Some(f64::NAN), None, Some(f64::INFINITY)]);
        assert_eq!(c.missing_count(), 3);
        assert_eq!(c.as_f64(0), Some(1.0));
        assert_eq!(c.as_f64(1), None);
    }

    #[test]
    fn categorical_dictionary_orders_by_first_appearance() {
        let c = Column::categorical(vec![Some("b"), Some("a"), Some("b"), None]);
        assert_eq!(c.dictionary().unwrap(), &["b".to_string(), "a".to_string()]);
        assert_eq!(c.as_f64(0), Some(0.0));
        assert_eq!(c.as_f64(1), Some(1.0));
        assert_eq!(c.as_f64(3), None);
        assert_eq!(c.cardinality(), 2);
        assert_eq!(c.missing_count(), 1);
    }

    #[test]
    fn text_column_has_no_numeric_view() {
        let c = Column::text(vec![Some("hello world"), None]);
        assert_eq!(c.kind(), ColumnKind::Text);
        assert_eq!(c.as_f64(0), None);
        assert_eq!(c.as_string(0).as_deref(), Some("hello world"));
        assert_eq!(c.cardinality(), 1);
    }

    #[test]
    fn take_preserves_dictionary_and_repeats_rows() {
        let c = Column::categorical(vec![Some("x"), Some("y"), Some("z")]);
        let t = c.take(&[2, 2, 0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.as_string(0).as_deref(), Some("z"));
        assert_eq!(t.as_string(1).as_deref(), Some("z"));
        assert_eq!(t.as_string(2).as_deref(), Some("x"));
        // Dictionary is shared, not rebuilt.
        assert_eq!(t.dictionary().unwrap().len(), 3);
    }

    #[test]
    fn cardinality_on_numeric_dedups_bit_patterns() {
        let c = Column::from_f64(vec![1.0, 1.0, 2.0, -0.0, 0.0]);
        // -0.0 and 0.0 have different bit patterns; both present.
        assert_eq!(c.cardinality(), 4);
    }

    #[test]
    fn string_view_of_numeric() {
        let c = Column::from_f64(vec![2.5]);
        assert_eq!(c.as_string(0).as_deref(), Some("2.5"));
    }
}
