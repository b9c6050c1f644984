//! Property tests for the chunked engine's house invariant: chunking
//! changes what the pipeline *costs*, never what it *computes*.
//!
//! The comparisons against the row-major reader and the in-memory
//! statistics fold live with those oracles, in the crate's unit tests
//! (`cargo test -p kgpip-tabular --lib oracle`). What stays here needs
//! only the public API: a row sample above the bound, and the statistics
//! drawn from it, do not depend on how the rows are chunked.

use kgpip_tabular::{ChunkedFrame, Column, ColumnStats, DataFrame};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Below the bound the row sample is keyed by global row index, so
    /// the sample — and the statistics computed from it — are invariant
    /// to how the rows are chunked.
    #[test]
    fn sampling_is_chunk_size_invariant(
        values in proptest::collection::vec(proptest::option::of(-1e3f64..1e3), 12..80),
        bound in 3usize..10,
        seed in 0u64..20,
    ) {
        let frame =
            DataFrame::from_columns(vec![("v".to_string(), Column::numeric(values))]).unwrap();
        let reference = ChunkedFrame::from_frame(&frame, 1);
        let ref_sample = reference.sample(bound, seed);
        prop_assert_eq!(ref_sample.len(), bound.min(frame.num_rows()));
        let ref_stats = ColumnStats::of_chunks(reference.column_chunks(0), &ref_sample);
        for chunk_rows in [7usize, 64, 1_000_000] {
            let cf = ChunkedFrame::from_frame(&frame, chunk_rows);
            let sample = cf.sample(bound, seed);
            prop_assert_eq!(&ref_sample, &sample, "chunk_rows={}", chunk_rows);
            prop_assert_eq!(
                format!("{ref_stats:?}"),
                format!("{:?}", ColumnStats::of_chunks(cf.column_chunks(0), &sample)),
                "chunk_rows={}", chunk_rows
            );
        }
    }
}
