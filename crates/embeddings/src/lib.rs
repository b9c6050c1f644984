//! Content-based dataset embeddings, similarity search, and t-SNE.
//!
//! Paper §3.2: KGpip "generate[s] fixed-size, dense columnar embeddings for
//! input datasets ... The content similarity is calculated using dense
//! vector representations (embeddings) of column values. Table embeddings
//! are computed by pooling over their individual column embeddings ... We
//! then use efficient libraries [FAISS] for similarity search of dense
//! vectors to retrieve the most similar dataset."
//!
//! This crate provides the whole chain:
//! * [`column_embedding`] — a fixed-size dense vector per column computed
//!   from actual values (distribution sketches for numerics, hashed
//!   character n-grams for strings) — the KGLac substitute,
//! * [`table_embedding`] — mean-pooled, L2-normalized table vectors; one
//!   pooling loop over column chunks and a row sample, of which the
//!   in-memory [`table_embedding`] is the one-chunk, every-row case and
//!   [`table_embedding_chunked`] the streamed one,
//! * [`index::VectorIndex`] — tiered top-k cosine search (exact scan or
//!   deterministic HNSW graph, both over one full-precision vector
//!   block) — the FAISS substitute,
//! * [`hnsw`] — the deterministic HNSW graph layer itself,
//! * [`mapped`] — the standalone `KGVI` catalog file, which decodes into
//!   an ordinary [`index::VectorIndex`],
//! * [`tsne`] — exact t-SNE for the Figure-10 qualitative analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod hnsw;
pub mod index;
pub mod mapped;
pub mod table;
pub mod tsne;

pub use column::{column_embedding, column_embedding_parts, EMBED_DIM};
pub use hnsw::{Hnsw, HnswConfig};
pub use index::{IndexStats, IndexTier, VectorIndex};
pub use table::{table_embedding, table_embedding_chunked, table_embeddings};
pub use tsne::tsne;
