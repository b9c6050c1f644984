//! Table-level embeddings via column pooling.
//!
//! One pooling loop serves both entry points. Each column is embedded
//! from its row chunks and a row sample; [`table_embedding`] is the
//! one-chunk case (every column a one-element slice, every row the
//! sample), and [`table_embedding_chunked`] passes a chunked frame's
//! chunks and its seeded sample.

use crate::column::{chunks_embedding, EMBED_DIM};
use kgpip_tabular::{map_ordered, ChunkedFrame, Column, DataFrame};

/// Embeds a table by mean-pooling its column embeddings and L2-normalizing
/// the result (paper §3.2: "Table embeddings are computed by pooling over
/// their individual column embeddings").
pub fn table_embedding(frame: &DataFrame) -> Vec<f64> {
    let rows: Vec<usize> = (0..frame.num_rows()).collect();
    pool(frame.columns().iter().map(std::slice::from_ref), &rows)
}

/// Embeds a chunked table without materializing any column: the moments
/// fold over every row chunk by chunk, while the trigram sketch and the
/// quantiles read a deterministic seeded sample of at most `sample_bound`
/// rows. Whenever the table fits under the bound the sample is the full
/// row set and the result is bit-for-bit identical to [`table_embedding`]
/// on the concatenated frame; above the bound, memory stays proportional
/// to the sample instead of the table, and the result is still invariant
/// to chunk size and worker count because the sample is keyed by global
/// row index.
pub fn table_embedding_chunked(frame: &ChunkedFrame, sample_bound: usize, seed: u64) -> Vec<f64> {
    let sample = frame.sample(sample_bound, seed);
    pool(
        (0..frame.num_columns()).map(|c| frame.column_chunks(c)),
        &sample,
    )
}

/// Mean-pools the embeddings of `columns` (each a column's row chunks)
/// over `sample` and L2-normalizes the result; no columns pool to zero.
fn pool<'c>(columns: impl ExactSizeIterator<Item = &'c [Column]>, sample: &[usize]) -> Vec<f64> {
    let mut pooled = vec![0.0f64; EMBED_DIM];
    if columns.len() == 0 {
        return pooled;
    }
    let n = columns.len() as f64;
    for chunks in columns {
        let e = chunks_embedding(chunks, sample);
        for (p, x) in pooled.iter_mut().zip(e.iter()) {
            *p += x;
        }
    }
    for p in &mut pooled {
        *p /= n;
    }
    let norm = pooled.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for p in &mut pooled {
            *p /= norm;
        }
    }
    pooled
}

/// Embeds every table of a named catalog, in input order, on up to
/// `parallelism` workers through [`map_ordered`]. Each embedding depends
/// only on its own table, so the output is bit-for-bit identical at any
/// worker count.
pub fn table_embeddings(tables: &[(String, DataFrame)], parallelism: usize) -> Vec<Vec<f64>> {
    map_ordered(parallelism, tables, |(_, frame)| table_embedding(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{column_embedding_parts, cosine, str_view};
    use kgpip_tabular::{Column, ColumnStats};

    /// The pooling [`table_embedding`] did before both entry points shared
    /// one loop, verbatim, kept as an independent oracle: each column
    /// embedded whole (`ColumnStats::compute` plus every string view in
    /// row order), summed, averaged and L2-normalized.
    fn oracle_table_embedding(frame: &DataFrame) -> Vec<f64> {
        let column_embedding = |column: &Column| {
            let stats = ColumnStats::compute(column);
            let strings = (0..column.len()).filter_map(|r| str_view(column, r));
            column_embedding_parts(column.kind(), &stats, strings)
        };
        let mut pooled = vec![0.0f64; EMBED_DIM];
        if frame.num_columns() == 0 {
            return pooled;
        }
        for col in frame.columns() {
            let e = column_embedding(col);
            for (p, x) in pooled.iter_mut().zip(e.iter()) {
                *p += x;
            }
        }
        let n = frame.num_columns() as f64;
        for p in &mut pooled {
            *p /= n;
        }
        let norm = pooled.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for p in &mut pooled {
                *p /= norm;
            }
        }
        pooled
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `table_embedding` and `table_embedding_chunked` at chunk sizes 1, 7
    /// and whole (the bound covering every row) must all equal the oracle
    /// to the bit.
    fn assert_matches_oracle(frame: &DataFrame, what: &str) {
        let expected = bits(&oracle_table_embedding(frame));
        assert_eq!(bits(&table_embedding(frame)), expected, "{what}");
        for chunk_rows in [1, 7, usize::MAX] {
            let cf = ChunkedFrame::from_frame(frame, chunk_rows);
            assert_eq!(
                bits(&table_embedding_chunked(&cf, frame.num_rows(), 7)),
                expected,
                "{what} at chunk_rows {chunk_rows}"
            );
        }
    }

    fn sales_table(seed: u64) -> DataFrame {
        let offset = seed as f64;
        DataFrame::from_columns(vec![
            (
                "revenue".to_string(),
                Column::from_f64(
                    (0..50)
                        .map(|i| offset + i as f64 * 10.0)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "region".to_string(),
                Column::categorical(
                    (0..50)
                        .map(|i| Some(["north", "south", "east", "west"][i % 4]))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
        .unwrap()
    }

    fn review_table() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "review".to_string(),
                Column::text(
                    (0..50)
                        .map(|i| {
                            Some(format!(
                                "this product review number {i} is quite long and wordy"
                            ))
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "stars".to_string(),
                Column::from_f64((0..50).map(|i| (i % 5) as f64).collect::<Vec<_>>()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn embedding_is_unit_norm() {
        let e = table_embedding(&sales_table(0));
        let norm: f64 = e.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_domain_tables_are_closer_than_cross_domain() {
        let a = table_embedding(&sales_table(1));
        let b = table_embedding(&sales_table(500));
        let c = table_embedding(&review_table());
        assert!(
            cosine(&a, &b) > cosine(&a, &c),
            "sales~sales {} vs sales~reviews {}",
            cosine(&a, &b),
            cosine(&a, &c)
        );
    }

    #[test]
    fn embeddings_match_the_oracle_under_the_bound() {
        for f in [sales_table(3), review_table()] {
            let expected = bits(&oracle_table_embedding(&f));
            assert_eq!(bits(&table_embedding(&f)), expected);
            for chunk_rows in [1, 3, 7, 100] {
                let cf = ChunkedFrame::from_frame(&f, chunk_rows);
                let chunked = table_embedding_chunked(&cf, 1_000, 7);
                assert_eq!(bits(&chunked), expected, "chunk_rows {chunk_rows}");
            }
        }
    }

    /// The degenerate inputs, read through `read_frame`: a header-only
    /// and a one-row document, an all-missing, a constant, an all-`-0`
    /// and a one-value text column.
    #[test]
    fn degenerate_inputs_embed_like_the_oracle() {
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
            let frame = kgpip_tabular::csv::read_frame(doc).unwrap();
            assert_matches_oracle(&frame, what);
        }
    }

    #[test]
    fn sampled_embedding_is_chunk_size_invariant_above_the_bound() {
        let f = sales_table(3);
        let reference = table_embedding_chunked(&ChunkedFrame::from_frame(&f, 1), 10, 42);
        assert!(reference.iter().all(|x| x.is_finite()));
        assert!(reference.iter().any(|x| *x != 0.0));
        for chunk_rows in [3, 7, 100] {
            let cf = ChunkedFrame::from_frame(&f, chunk_rows);
            assert_eq!(
                table_embedding_chunked(&cf, 10, 42),
                reference,
                "chunk_rows {chunk_rows}"
            );
        }
    }

    #[test]
    fn empty_table_embeds_to_zero_like_the_oracle() {
        let e = table_embedding(&DataFrame::new());
        assert!(e.iter().all(|x| *x == 0.0));
        assert_eq!(e.len(), EMBED_DIM);
        assert_matches_oracle(&DataFrame::new(), "no columns");
    }
}
