//! Table-level embeddings via column pooling.

use crate::column::{column_embedding, column_embedding_parts, str_view, EMBED_DIM};
use kgpip_tabular::{effective_parallelism, ChunkedFrame, Column, ColumnKind, DataFrame};
use rayon::prelude::*;

/// Embeds a table by mean-pooling its column embeddings and L2-normalizing
/// the result (paper §3.2: "Table embeddings are computed by pooling over
/// their individual column embeddings").
pub fn table_embedding(frame: &DataFrame) -> Vec<f64> {
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

/// Embeds a chunked table without materializing any column: per-column
/// moments are accumulated chunk-by-chunk (exact, bit-identical to the
/// in-memory stats), while the trigram sketch and the quantiles fold over
/// a deterministic seeded sample of at most `sample_bound` rows. Whenever
/// the table fits under the bound the sample is the full row set and the
/// result is bit-for-bit identical to [`table_embedding`] on the
/// concatenated frame; above the bound, memory stays proportional to the
/// sample instead of the table, and the result is still invariant to chunk
/// size and worker count because the sample is keyed by global row index.
pub fn table_embedding_chunked(frame: &ChunkedFrame, sample_bound: usize, seed: u64) -> Vec<f64> {
    let mut pooled = vec![0.0f64; EMBED_DIM];
    if frame.num_columns() == 0 {
        return pooled;
    }
    let sample = frame.sample(sample_bound, seed);
    for c in 0..frame.num_columns() {
        let chunks = frame.column_chunks(c);
        let kind = chunks
            .first()
            .map(Column::kind)
            .unwrap_or(ColumnKind::Numeric);
        let stats = frame.column_stats_sampled(c, &sample);
        let strings = if kind == ColumnKind::Numeric {
            Vec::new()
        } else {
            sampled_strings(chunks, &sample)
        };
        let e = column_embedding_parts(kind, &stats, strings);
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

/// Collects the present string views of the sampled rows, borrowed from
/// the chunks, visiting the ascending sample with a single cursor — the
/// same row order `column_embedding` scans, restricted to the sample.
fn sampled_strings<'c>(chunks: &'c [Column], sample: &[usize]) -> Vec<&'c str> {
    let mut out = Vec::new();
    let mut cursor = sample.iter().peekable();
    let mut base = 0usize;
    for c in chunks {
        let len = c.len();
        while let Some(&&r) = cursor.peek() {
            if r < base || r >= base + len {
                break;
            }
            if let Some(s) = str_view(c, r - base) {
                out.push(s);
            }
            cursor.next();
        }
        base += len;
    }
    out
}

/// Embeds every table of a named catalog, in input order. With
/// `parallelism > 1` the per-table embeddings are computed on a rayon
/// worker pool of that many threads; results are merged back in input
/// order, so the output is bit-for-bit identical at any worker count
/// (each embedding depends only on its own table). The worker count is
/// clamped to the CPUs actually available, so over-provisioned configs
/// (e.g. `parallelism = 2` on a 1-CPU host) take the sequential path
/// instead of paying pool-construction and contention overhead.
pub fn table_embeddings(tables: &[(String, DataFrame)], parallelism: usize) -> Vec<Vec<f64>> {
    let parallelism = effective_parallelism(parallelism);
    if parallelism > 1 && tables.len() > 1 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(parallelism)
            .build()
            .expect("thread pool construction");
        pool.install(|| {
            tables
                .par_iter()
                .map(|(_, frame)| table_embedding(frame))
                .collect()
        })
    } else {
        tables
            .iter()
            .map(|(_, frame)| table_embedding(frame))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::cosine;
    use kgpip_tabular::Column;

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
    fn chunked_embedding_matches_in_memory_under_the_bound() {
        for f in [sales_table(3), review_table()] {
            let full = table_embedding(&f);
            for chunk_rows in [1, 3, 7, 100] {
                let cf = ChunkedFrame::from_frame(&f, chunk_rows);
                let chunked = table_embedding_chunked(&cf, 1_000, 7);
                assert_eq!(chunked, full, "chunk_rows {chunk_rows}");
            }
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
    fn empty_table_embeds_to_zero() {
        let e = table_embedding(&DataFrame::new());
        assert!(e.iter().all(|x| *x == 0.0));
        assert_eq!(e.len(), EMBED_DIM);
    }
}
