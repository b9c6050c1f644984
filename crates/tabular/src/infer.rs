//! Column-type and task-type inference.
//!
//! Paper §3.6: KGpip "applies different pre-processing techniques", among
//! them "1) detecting task type (i.e. regression or classification)
//! automatically based on the distribution of the target column 2)
//! automatically inferring accurate data types of columns". This module
//! holds the rules of both inferences.
//!
//! Column types are decided by the chunked CSV reader
//! ([`crate::stream`]) from per-chunk counts, mirroring pandas-style
//! readers plus KGpip's categorical/text split:
//! 1. if every non-missing cell parses as a number or is a missing marker,
//!    and at least one real number exists → numeric (an all-missing column
//!    is numeric too, the cheapest to impute);
//! 2. else if the column "reads like prose" (mean whitespace-token count
//!    > 4) or has high cardinality ([`is_text`]) → text;
//! 3. else → categorical, its dictionary in first-appearance order.

use crate::column::Column;
use crate::dataset::Task;

/// Fraction of distinct values below which a string column is treated as
/// categorical rather than free text.
const CATEGORICAL_DISTINCT_RATIO: f64 = 0.5;
/// Absolute distinct-count cap for categorical treatment regardless of size.
const CATEGORICAL_MAX_DISTINCT: usize = 128;
/// Mean token count above which a string column is treated as text even if
/// its cardinality is low.
const TEXT_MEAN_TOKENS: f64 = 4.0;

/// The text-vs-categorical rule for a non-numeric column with `distinct`
/// distinct values over `present` (> 0) non-missing cells holding
/// `token_sum` whitespace tokens in total: text when it reads like prose
/// or has high cardinality, categorical otherwise.
pub(crate) fn is_text(distinct: usize, present: usize, token_sum: usize) -> bool {
    let distinct_ratio = distinct as f64 / present as f64;
    let mean_tokens = token_sum as f64 / present as f64;
    mean_tokens > TEXT_MEAN_TOKENS
        || (distinct > CATEGORICAL_MAX_DISTINCT && distinct_ratio > CATEGORICAL_DISTINCT_RATIO)
}

/// True for cells that conventionally denote a missing value: blank, or
/// (case-insensitively, surrounding whitespace ignored) `NA`, `N/A`,
/// `null`, `nan` or `?`.
pub fn is_missing_marker(s: &str) -> bool {
    let t = s.trim();
    t.is_empty()
        || ["na", "n/a", "null", "nan", "?"]
            .iter()
            .any(|m| t.eq_ignore_ascii_case(m))
}

/// Parses a cell as a number, accepting surrounding whitespace and treating
/// common missing markers (`NA`, `N/A`, `null`, `nan`, `?`) as missing:
/// each of them fails to parse or parses to NaN, which is not finite.
pub fn parse_number(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|x| x.is_finite())
}

/// Maximum distinct target values for a numeric column to still be treated
/// as classification.
const CLASSIFICATION_MAX_CLASSES: usize = 50;

/// Infers the supervised task type from a target column, following the
/// paper's "distribution of the target column" rule:
///
/// * categorical or text targets → classification;
/// * numeric targets that are all integers with few distinct values →
///   classification (class labels stored as numbers, common in OpenML);
/// * otherwise → regression.
pub fn infer_task(target: &Column) -> Task {
    match target {
        Column::Categorical { .. } | Column::Text(_) => {
            let classes = target.cardinality().max(1);
            Task::classification(classes)
        }
        Column::Numeric(values) => {
            let present: Vec<f64> = values.iter().copied().flatten().collect();
            if present.is_empty() {
                return Task::Regression;
            }
            let all_integral = present.iter().all(|x| x.fract() == 0.0);
            let distinct = target.cardinality();
            let few = distinct <= CLASSIFICATION_MAX_CLASSES
                && (distinct as f64) < (present.len() as f64).sqrt().max(3.0);
            if all_integral && few && distinct >= 2 {
                Task::classification(distinct)
            } else {
                Task::Regression
            }
        }
    }
}

/// The row-major column typing the chunked reader replaced, verbatim,
/// kept as an independent oracle for it (see `csv::oracle`).
#[cfg(test)]
pub(crate) mod oracle {
    use super::{is_missing_marker, is_text, parse_number};
    use crate::column::Column;

    /// Infers a typed [`Column`] from raw string cells (`None` = missing)
    /// by the rules in the module docs.
    pub(crate) fn infer_column(values: &[Option<&str>]) -> Column {
        let present: Vec<&str> = values.iter().filter_map(|v| *v).collect();
        if present.is_empty() {
            // All-missing: default to numeric, the cheapest to impute.
            return Column::numeric(values.iter().map(|_| None));
        }
        // A column is numeric when every non-missing cell is either a
        // parseable number or a recognized missing marker, and at least one
        // real number exists (markers parse to missing, not to a value).
        let all_numeric = present
            .iter()
            .all(|s| parse_number(s).is_some() || is_missing_marker(s))
            && present.iter().any(|s| parse_number(s).is_some());
        if all_numeric {
            return Column::numeric(values.iter().map(|v| v.and_then(parse_number)));
        }
        let mut distinct: Vec<&str> = present.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let token_sum = present.iter().map(|s| s.split_whitespace().count()).sum();
        if is_text(distinct.len(), present.len(), token_sum) {
            Column::text(values.iter().map(|v| v.map(str::to_string)))
        } else {
            Column::categorical(values.iter().copied())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::infer_column;
    use super::*;
    use crate::column::ColumnKind;
    use proptest::prelude::*;

    /// Types one column of cells (`None` = missing) through `read_frame`,
    /// as a one-column document with every present cell quoted, and
    /// checks that the oracle types it the same.
    fn infer(cells: &[Option<&str>]) -> Column {
        let mut doc = String::from("c\n");
        for cell in cells {
            if let Some(s) = cell {
                doc.push_str(&format!("\"{}\"", s.replace('"', "\"\"")));
            }
            doc.push('\n');
        }
        let column = crate::csv::read_frame(&doc).unwrap().column_at(0).clone();
        assert_eq!(column, infer_column(cells), "{doc:?}");
        column
    }

    #[test]
    fn numeric_inference_with_missing_markers() {
        let c = infer(&[Some("1.5"), Some("NA"), Some("-2"), None, Some("?")]);
        assert_eq!(c.kind(), ColumnKind::Numeric);
        assert_eq!(c.missing_count(), 3);
        assert_eq!(c.as_f64(2), Some(-2.0));
    }

    #[test]
    fn categorical_inference_for_low_cardinality_strings() {
        let cells: Vec<Option<&str>> = (0..100)
            .map(|i| Some(if i % 3 == 0 { "red" } else { "blue" }))
            .collect();
        assert_eq!(infer(&cells).kind(), ColumnKind::Categorical);
    }

    #[test]
    fn text_inference_for_prose() {
        let cells: Vec<Option<&str>> = vec![
            Some("this is a long movie review with many words"),
            Some("another long piece of user generated text content"),
        ];
        assert_eq!(infer(&cells).kind(), ColumnKind::Text);
    }

    #[test]
    fn text_inference_for_high_cardinality_short_strings() {
        let owned: Vec<String> = (0..500).map(|i| format!("id_{i}")).collect();
        let cells: Vec<Option<&str>> = owned.iter().map(|s| Some(s.as_str())).collect();
        assert_eq!(infer(&cells).kind(), ColumnKind::Text);
    }

    #[test]
    fn all_missing_column_is_numeric() {
        let c = infer(&[None, None]);
        assert_eq!(c.kind(), ColumnKind::Numeric);
        assert_eq!(c.missing_count(), 2);
    }

    #[test]
    fn task_inference_categorical_target() {
        let t = Column::categorical(vec![Some("yes"), Some("no"), Some("yes")]);
        assert_eq!(infer_task(&t), Task::classification(2));
    }

    #[test]
    fn task_inference_integer_labels() {
        let vals: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        let t = Column::from_f64(vals);
        assert_eq!(infer_task(&t), Task::classification(3));
    }

    #[test]
    fn task_inference_continuous_target() {
        let vals: Vec<f64> = (0..300).map(|i| i as f64 * 0.37).collect();
        let t = Column::from_f64(vals);
        assert_eq!(infer_task(&t), Task::Regression);
    }

    #[test]
    fn task_inference_many_distinct_integers_is_regression() {
        // e.g. house prices in whole dollars: integral but clearly continuous.
        let vals: Vec<f64> = (0..300).map(|i| (100_000 + i * 137) as f64).collect();
        let t = Column::from_f64(vals);
        assert_eq!(infer_task(&t), Task::Regression);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Type inference must be total over arbitrary cell content.
        #[test]
        fn oracle_infer_column_never_panics(cells in proptest::collection::vec(
            proptest::option::of("[ -~]{0,24}"), 0..50
        )) {
            let refs: Vec<Option<&str>> = cells.iter().map(|c| c.as_deref()).collect();
            let col = infer_column(&refs);
            prop_assert_eq!(col.len(), cells.len());
            // Missing count can only grow (markers become missing).
            let explicit_missing = cells.iter().filter(|c| c.is_none()).count();
            prop_assert!(col.missing_count() >= explicit_missing);
        }
    }

    /// Markers in several cases, the float parser's own specials, and
    /// numbers, for the marker-first property.
    const CELLS: [&str; 16] = [
        "NA", "na", "N/A", "null", "NULL", "nan", "NaN", "?", "inf", "-inf", "Infinity", "+nan",
        "", "-2.5", "1e3", "1e999",
    ];

    proptest! {
        /// Without a marker check of its own, `parse_number` reads every
        /// cell as the marker-first parse it replaced does: markers, float
        /// specials, numbers and random near misses, in any padding.
        #[test]
        fn oracle_parse_number_matches_the_marker_first_parse(
            pick in 0usize..CELLS.len() + 1,
            noise in "[0-9naNAulLfiIty?/.eE+-]{0,6}",
            pad in "[ \t]{0,2}",
        ) {
            let body = CELLS.get(pick).copied().unwrap_or(&noise);
            let s = format!("{pad}{body}{pad}");
            let marker_first = if is_missing_marker(&s) {
                None
            } else {
                s.trim().parse::<f64>().ok().filter(|x| x.is_finite())
            };
            prop_assert_eq!(parse_number(&s).map(f64::to_bits), marker_first.map(f64::to_bits));
        }
    }

    #[test]
    fn parse_number_rejects_infinite() {
        assert_eq!(parse_number("inf"), None);
        assert_eq!(parse_number(" 3.25 "), Some(3.25));
    }
}
