//! Column-level content embeddings.
//!
//! Layout of the `EMBED_DIM`-dimensional vector:
//!
//! * `[0, 12)`  — numeric distribution sketch: log-magnitude of the mean
//!   and spread (value ranges are content), higher moments, standardized
//!   quantiles, missing/cardinality ratios. Captures both the *scale* and
//!   the *shape* of a numeric column.
//! * `[12, 44)` — signed hashed character trigrams over string values
//!   (categorical labels and text), L2-normalized. Captures content
//!   similarity of label vocabularies, as the deep distribution embeddings
//!   of Mueller & Smola (2019) do for KGLac.
//! * `[44, 48)` — column-kind indicator plus token-shape features.

use kgpip_tabular::{fnv1a, gather_sample, Column, ColumnKind, ColumnStats};

/// Dimensionality of column (and pooled table) embeddings.
pub const EMBED_DIM: usize = 48;

const NGRAM_OFFSET: usize = 12;
const NGRAM_DIMS: usize = 32;
const KIND_OFFSET: usize = 44;

/// Embeds a single column from its content: the one-chunk case of the
/// chunked column embedding, with every row as the sample.
pub fn column_embedding(column: &Column) -> [f64; EMBED_DIM] {
    let rows: Vec<usize> = (0..column.len()).collect();
    chunks_embedding(std::slice::from_ref(column), &rows)
}

/// Embeds a column held as row chunks: the statistics of
/// [`ColumnStats::of_chunks`] and the trigram sketch over the string
/// views of the `sample` rows (ascending global row indices), in row
/// order. A sample of every row embeds the whole column.
pub(crate) fn chunks_embedding(chunks: &[Column], sample: &[usize]) -> [f64; EMBED_DIM] {
    let kind = chunks.first().map_or(ColumnKind::Numeric, Column::kind);
    let stats = ColumnStats::of_chunks(chunks, sample);
    // The numeric sketch never reads strings.
    let strings = if kind == ColumnKind::Numeric {
        Vec::new()
    } else {
        gather_sample(chunks, sample, str_view)
    };
    column_embedding_parts(kind, &stats, strings)
}

/// The string view of row `r` of a categorical or text column, borrowed
/// (the dictionary label or the cell); `None` for missing cells and for
/// numeric columns, whose strings the embedding never reads.
pub(crate) fn str_view(column: &Column, r: usize) -> Option<&str> {
    match column {
        Column::Numeric(_) => None,
        Column::Categorical { codes, dictionary } => codes
            .get(r)
            .copied()
            .flatten()
            .and_then(|code| dictionary.get(code as usize))
            .map(String::as_str),
        Column::Text(values) => values.get(r).and_then(Option::as_deref),
    }
}

/// Embeds a column from precomputed summary statistics plus a row-order
/// iterator over its present string views: the numeric sketch reads only
/// `stats`, the trigram sketch folds over `strings` in the order given
/// (numeric columns never read them). Feeding it `ColumnStats::compute`
/// and the full row-order string sequence reproduces [`column_embedding`]
/// to the bit.
pub fn column_embedding_parts<I>(
    kind: ColumnKind,
    stats: &ColumnStats,
    strings: I,
) -> [f64; EMBED_DIM]
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut v = [0.0f64; EMBED_DIM];

    // --- numeric distribution sketch ---
    if kind == ColumnKind::Numeric {
        let scale = stats.std.max(1e-9);
        // Magnitude features: value ranges are content (a revenue column
        // and an age column genuinely live at different scales); without
        // them, all-numeric tables collapse to near-identical embeddings.
        v[0] = squash((1.0 + stats.mean.abs()).ln() / 6.0) * stats.mean.signum();
        v[1] = squash((1.0 + stats.std).ln() / 6.0);
        v[2] = squash(stats.skewness / 3.0);
        v[3] = squash(stats.kurtosis / 10.0);
        for (i, q) in stats.quantiles.iter().enumerate() {
            // Standardized quantiles: shape of the CDF.
            v[4 + i] = squash((q - stats.mean) / (3.0 * scale));
        }
        v[9] = stats.missing_ratio();
        v[10] = (stats.cardinality as f64 / stats.len.max(1) as f64).min(1.0);
        v[11] = squash((stats.len as f64).ln() / 15.0);
    }

    // --- hashed character trigrams over string values ---
    if kind != ColumnKind::Numeric {
        let mut count = 0usize;
        // One lowercase buffer reused across values. ASCII lowercases
        // byte by byte, which is what `to_lowercase` does to ASCII.
        let mut lowered = String::new();
        for s in strings {
            let s = s.as_ref();
            lowered.clear();
            if s.is_ascii() {
                lowered.push_str(s);
                lowered.make_ascii_lowercase();
            } else {
                lowered.push_str(&s.to_lowercase());
            }
            let bytes = lowered.as_bytes();
            if bytes.len() < 3 {
                let h = fnv1a(bytes);
                bump(&mut v, h);
                count += 1;
                continue;
            }
            for w in bytes.windows(3) {
                bump(&mut v, fnv1a(w));
                count += 1;
            }
        }
        if count > 0 {
            let norm = v[NGRAM_OFFSET..NGRAM_OFFSET + NGRAM_DIMS]
                .iter()
                .map(|x| x * x)
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            for x in &mut v[NGRAM_OFFSET..NGRAM_OFFSET + NGRAM_DIMS] {
                *x /= norm;
            }
        }
    }

    // --- kind indicator + token shape ---
    match kind {
        ColumnKind::Numeric => v[KIND_OFFSET] = 1.0,
        ColumnKind::Categorical => v[KIND_OFFSET + 1] = 1.0,
        ColumnKind::Text => v[KIND_OFFSET + 2] = 1.0,
    }
    v[KIND_OFFSET + 3] = squash(stats.mean_tokens / 10.0);
    v
}

fn bump(v: &mut [f64; EMBED_DIM], h: u64) {
    let bucket = NGRAM_OFFSET + (h % NGRAM_DIMS as u64) as usize;
    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    v[bucket] += sign;
}

fn squash(x: f64) -> f64 {
    x.tanh()
}

/// Cosine similarity of two embedding vectors.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric(values: Vec<f64>) -> Column {
        Column::from_f64(values)
    }

    #[test]
    fn embedding_is_finite_and_deterministic() {
        let c = Column::categorical(vec![Some("red"), Some("green"), Some("blue")]);
        let a = column_embedding(&c);
        let b = column_embedding(&c);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn shape_and_scale_both_shape_the_embedding() {
        // Same shape and nearly the same scale: uniform [0,100] vs [0,110].
        let a = numeric((0..200).map(|i| i as f64 / 2.0).collect());
        let b = numeric((0..200).map(|i| i as f64 * 0.55).collect());
        // Same rough magnitude but a heavy right tail.
        let c = numeric((0..200).map(|i| (i as f64 / 30.0).exp()).collect());
        // Same shape but a very different magnitude.
        let d = numeric((0..200).map(|i| i as f64 * 500.0).collect());
        let (ea, eb, ec, ed) = (
            column_embedding(&a),
            column_embedding(&b),
            column_embedding(&c),
            column_embedding(&d),
        );
        assert!(
            cosine(&ea, &eb) > cosine(&ea, &ec),
            "same shape+scale {} should beat different shape {}",
            cosine(&ea, &eb),
            cosine(&ea, &ec)
        );
        assert!(
            cosine(&ea, &eb) > cosine(&ea, &ed),
            "same scale {} should beat distant scale {}",
            cosine(&ea, &eb),
            cosine(&ea, &ed)
        );
    }

    #[test]
    fn shared_vocabulary_embeds_close() {
        let colors1 = Column::categorical(vec![Some("red"), Some("blue"), Some("green")]);
        let colors2 = Column::categorical(vec![Some("blue"), Some("red"), Some("red")]);
        let cities = Column::categorical(vec![Some("paris"), Some("tokyo"), Some("lima")]);
        let e1 = column_embedding(&colors1);
        let e2 = column_embedding(&colors2);
        let e3 = column_embedding(&cities);
        assert!(cosine(&e1, &e2) > cosine(&e1, &e3));
    }

    #[test]
    fn kind_indicator_separates_types() {
        let num = column_embedding(&numeric(vec![1.0, 2.0]));
        let cat = column_embedding(&Column::categorical(vec![Some("a")]));
        let text = column_embedding(&Column::text(vec![Some("hello world this is text")]));
        assert_eq!(num[KIND_OFFSET], 1.0);
        assert_eq!(cat[KIND_OFFSET + 1], 1.0);
        assert_eq!(text[KIND_OFFSET + 2], 1.0);
    }

    #[test]
    fn missing_ratio_is_encoded() {
        let dense = numeric(vec![1.0; 10]);
        let sparse = Column::numeric((0..10).map(|i| if i < 5 { Some(1.0) } else { None }));
        assert_eq!(column_embedding(&dense)[9], 0.0);
        assert!((column_embedding(&sparse)[9] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }
}
