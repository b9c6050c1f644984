//! Vector similarity index — the FAISS substitute.
//!
//! Two tiers, auto-selected by catalog size ([`VectorIndex::auto_tune`]):
//! exact cosine top-k for small catalogs, and a deterministic HNSW graph
//! ([`crate::hnsw`], FAISS's `IndexHNSWFlat`) for the 100K–1M-vector
//! catalogs where a per-query linear scan stops being cheap. Product
//! quantization ([`crate::pq`]) is a storage option under either tier.
//! [`VectorIndex::search`] is the one routine that dispatches on tier;
//! [`VectorIndex::register`] grows the catalog online without rebuilding
//! whichever tier is active.

use crate::column::cosine;
use crate::hnsw::{Hnsw, HnswConfig, SliceSource};
use crate::pq::{AdcSource, Pq, PqConfig};

/// Which search structure a [`VectorIndex`] currently answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexTier {
    /// Linear scan — trivially correct, fastest below a few thousand.
    Exact,
    /// Hierarchical navigable small-world graph.
    Hnsw,
}

impl std::fmt::Display for IndexTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexTier::Exact => write!(f, "exact"),
            IndexTier::Hnsw => write!(f, "hnsw"),
        }
    }
}

/// Resident byte accounting for a vector index, per storage component —
/// so the PQ memory win is a tracked number, not a claim. Reported by
/// `kgpip-cli index stats` and the embeddings bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// The active search tier.
    pub tier: IndexTier,
    /// True when a product-quantized store backs the tier's scans.
    pub quantized: bool,
    /// Catalog size.
    pub count: usize,
    /// Embedding dimensionality (of the first vector; 0 when empty).
    pub dim: usize,
    /// Bytes of the full-precision `f64` vector block.
    pub vector_bytes: usize,
    /// Bytes of the HNSW adjacency (serialized size — the graph stores
    /// no vectors).
    pub hnsw_bytes: usize,
    /// Bytes of the PQ state (code matrix + codebooks) — the block a
    /// quantized scan actually reads.
    pub pq_bytes: usize,
}

impl IndexStats {
    /// Total resident bytes across all components.
    pub fn resident_bytes(&self) -> usize {
        self.vector_bytes + self.hnsw_bytes + self.pq_bytes
    }

    /// Bytes the active tier's candidate scan touches per full pass: the
    /// code matrix when quantized, the `f64` block otherwise.
    pub fn scan_bytes(&self) -> usize {
        if self.quantized {
            self.pq_bytes
        } else {
            self.vector_bytes
        }
    }
}

/// A named-vector index with exact and HNSW-approximate top-k search.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct VectorIndex {
    pub(crate) names: Vec<String>,
    pub(crate) vectors: Vec<Vec<f64>>,
    /// HNSW state: the layered proximity graph (adjacency only; vectors
    /// stay in `vectors`). Absent in pre-HNSW serialized indexes.
    #[serde(default)]
    pub(crate) hnsw: Option<Hnsw>,
    /// Product-quantization state: per-subspace codebooks plus the `u8`
    /// code matrix. A storage/scoring layer under the tiers, not a tier —
    /// when present, the tier's candidate scan reads codes and the top
    /// `rerank × k` candidates are re-ranked with exact cosine. Absent in
    /// pre-PQ serialized indexes.
    #[serde(default)]
    pub(crate) pq: Option<Pq>,
    /// Requested worker count for PQ codebook training and encoding
    /// (clamped through `effective_parallelism`; 0 means sequential).
    /// Ephemeral build-time state — any value produces bit-identical
    /// results, so round-tripping it is harmless.
    #[serde(default)]
    pub(crate) parallelism: usize,
}

impl VectorIndex {
    /// Catalog size at which [`VectorIndex::auto_tune`] switches the
    /// nearest-dataset lookup from the exact scan to the HNSW graph.
    /// Below this, an exact scan is both fast and trivially correct.
    pub const HNSW_AUTO_THRESHOLD: usize = 4096;

    /// Catalog size at which [`VectorIndex::auto_tune`] additionally
    /// quantizes the vector store ([`PqConfig::default`]): below this the
    /// full-`f64` block fits comfortably in cache and PQ's codebook
    /// training isn't worth the build time; at and above it the compact
    /// code matrix keeps beam scans cache-resident.
    pub const PQ_AUTO_THRESHOLD: usize = 100_000;

    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named vector at build time. Invalidates any built HNSW
    /// graph or quantized store — callers retune once after bulk adds.
    /// For online growth that *extends* the current tier instead, use
    /// [`VectorIndex::register`].
    pub fn add(&mut self, name: impl Into<String>, vector: Vec<f64>) {
        self.names.push(name.into());
        self.vectors.push(vector);
        self.hnsw = None;
        self.pq = None;
    }

    /// Sets the requested worker count for PQ codebook training and
    /// encoding (clamped through `effective_parallelism`; 0 or 1 means
    /// sequential). Parallelism changes build *cost* only — results are
    /// bit-identical at any setting.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers;
    }

    /// The requested build worker count (0 means sequential).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Registers a named vector online, extending whichever tier is
    /// active instead of invalidating it: HNSW gets an incremental
    /// [`Hnsw::insert`] (bit-identical to a from-scratch rebuild with the
    /// same order) and the exact tier just appends. A quantized store
    /// encodes the new vector against the frozen codebooks — no retrain.
    pub fn register(&mut self, name: impl Into<String>, vector: Vec<f64>) {
        self.names.push(name.into());
        self.vectors.push(vector);
        if let Some(mut hnsw) = self.hnsw.take() {
            hnsw.insert(&SliceSource(&self.vectors));
            self.hnsw = Some(hnsw);
        }
        if let (Some(pq), Some(v)) = (&mut self.pq, self.vectors.last()) {
            pq.append(v);
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when the index stores nothing.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Name of the i-th stored vector.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// The i-th stored vector, when in range.
    pub fn vector(&self, i: usize) -> Option<&[f64]> {
        self.vectors.get(i).map(Vec::as_slice)
    }

    /// Exact top-k by cosine similarity: `(name, similarity)` descending.
    /// Ties order by insertion id via `(score, id)` `total_cmp`, so equal
    /// scores (and NaN-scored entries) rank identically across rebuilds.
    /// This is the exact tier and the reference every other search path
    /// is tested against.
    pub fn top_k(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        let scored = self
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i, cosine(query, v)))
            .collect();
        self.named(best_k(scored, k))
    }

    /// True when an HNSW graph is currently built.
    pub fn has_hnsw(&self) -> bool {
        self.hnsw.is_some()
    }

    /// The search structure [`VectorIndex::search`] currently dispatches
    /// to: HNSW when built, else the exact scan.
    pub fn tier(&self) -> IndexTier {
        if self.hnsw.is_some() {
            IndexTier::Hnsw
        } else {
            IndexTier::Exact
        }
    }

    /// The HNSW graph, when built — for stats reporting and mapped-file
    /// export.
    pub fn hnsw(&self) -> Option<&Hnsw> {
        self.hnsw.as_ref()
    }

    /// Builds (or rebuilds) the HNSW graph over the current catalog by
    /// inserting vectors in id order; it becomes the active tier.
    pub fn build_hnsw(&mut self, config: HnswConfig) {
        self.hnsw = Some(Hnsw::build(config, &SliceSource(&self.vectors)));
    }

    /// Selects and builds the search tier for the current catalog size:
    /// below [`VectorIndex::HNSW_AUTO_THRESHOLD`] the index stays exact,
    /// at or above it a default-parameter HNSW graph seeded with `seed`
    /// is built. Returns the chosen tier; a graph the policy does not
    /// pick is dropped so [`VectorIndex::tier`] always reflects it.
    ///
    /// Orthogonally, catalogs of [`VectorIndex::PQ_AUTO_THRESHOLD`] or
    /// more vectors also get a product-quantized vector store
    /// ([`PqConfig::default`] geometry, this `seed`) so the tier's scans
    /// read compact codes; smaller catalogs drop any quantization.
    pub fn auto_tune(&mut self, seed: u64) -> IndexTier {
        let n = self.vectors.len();
        if n >= Self::HNSW_AUTO_THRESHOLD {
            self.build_hnsw(HnswConfig {
                seed,
                ..HnswConfig::default()
            });
        } else {
            self.hnsw = None;
        }
        self.pq = None;
        if n >= Self::PQ_AUTO_THRESHOLD {
            // Mixed-dimension catalogs cannot quantize (the flat codebook
            // layout needs one geometry); they keep full vectors.
            let _ = self.quantize(PqConfig {
                seed,
                ..PqConfig::default()
            });
        }
        self.tier()
    }

    /// Quantizes the vector store: trains per-subspace codebooks over the
    /// current catalog and encodes every vector into the `u8` code
    /// matrix. The active tier is unchanged — its scans switch to ADC
    /// over codes with an exact re-rank ([`VectorIndex::search`]).
    /// Full-precision vectors are retained for the re-rank, graph
    /// maintenance, and mapped export.
    pub fn quantize(&mut self, config: PqConfig) -> Result<(), String> {
        self.pq = Some(Pq::fit(&self.vectors, &config, self.parallelism)?);
        Ok(())
    }

    /// Drops any product-quantized store; scans return to full precision.
    pub fn dequantize(&mut self) {
        self.pq = None;
    }

    /// True when a product-quantized store is active.
    pub fn is_quantized(&self) -> bool {
        self.pq.is_some()
    }

    /// The product-quantized store, when trained — for stats reporting
    /// and mapped-file export.
    pub fn pq(&self) -> Option<&Pq> {
        self.pq.as_ref()
    }

    /// Resident byte accounting per storage component.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            tier: self.tier(),
            quantized: self.pq.is_some(),
            count: self.vectors.len(),
            dim: self.vectors.first().map_or(0, Vec::len),
            vector_bytes: self.vectors.iter().map(|v| v.len() * 8).sum(),
            hnsw_bytes: self.hnsw.as_ref().map_or(0, |h| h.to_bytes().len()),
            pq_bytes: self.pq.as_ref().map_or(0, Pq::resident_bytes),
        }
    }

    /// Top-k through the active tier — the serve-path entry point and the
    /// only routine that dispatches on tier. Results are `(name,
    /// similarity)` in `(score desc, id asc)` order for every tier.
    ///
    /// Unquantized, the HNSW tier walks the graph over full-precision
    /// vectors and the exact tier is [`VectorIndex::top_k`]. Quantized,
    /// the tier's candidate scan (HNSW beam or full scan) scores PQ codes
    /// through one per-query ADC table, then the top `rerank × k`
    /// candidates are re-scored with exact [`cosine`] over the retained
    /// full-precision vectors — compression changes what a query costs,
    /// never what it returns. Whenever the rerank window covers the
    /// candidate pool the answer is bit-identical to the unquantized
    /// index, and the reported similarities are always exact.
    ///
    /// [`cosine`]: crate::column::cosine
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        let Some(pq) = &self.pq else {
            return match &self.hnsw {
                Some(hnsw) => self.named(hnsw.search(query, k, &SliceSource(&self.vectors))),
                None => self.top_k(query, k),
            };
        };
        let table = pq.adc_table(query);
        let fetch = k.saturating_mul(pq.rerank());
        let candidates = match &self.hnsw {
            // The beam descends over codes: `AdcSource::similarity` reads
            // the prebuilt table, never the f64 block. The graph itself
            // was built over full-precision vectors, so it is the same
            // graph an unquantized index searches.
            Some(hnsw) => hnsw.search(query, fetch, &AdcSource { pq, table: &table }),
            None => {
                let scored = (0..self.vectors.len())
                    .map(|i| (i, pq.score(&table, i)))
                    .collect();
                best_k(scored, fetch)
            }
        };
        let reranked = candidates
            .into_iter()
            .map(|(i, _)| (i, self.vectors.get(i).map_or(0.0, |v| cosine(query, v))))
            .collect();
        self.named(best_k(reranked, k))
    }

    /// Resolves `(id, score)` hits to `(name, score)`.
    fn named(&self, hits: Vec<(usize, f64)>) -> Vec<(String, f64)> {
        hits.into_iter()
            .filter_map(|(i, s)| self.names.get(i).map(|n| (n.clone(), s)))
            .collect()
    }

    /// Serializes the index (names, vectors, and any HNSW graph and PQ
    /// store) to a self-contained little-endian binary payload — the
    /// section format used inside KGpip model snapshots. Round-trips
    /// bit-for-bit through [`VectorIndex::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_u64(&mut out, self.names.len() as u64);
        for (name, vector) in self.names.iter().zip(&self.vectors) {
            write_str(&mut out, name);
            write_f64s(&mut out, vector);
        }
        // The slot of the retired IVF tier, always absent, so the bytes of
        // every index this build can produce match older writers'.
        out.push(0);
        match &self.hnsw {
            None => out.push(0),
            Some(hnsw) => {
                out.push(1);
                let payload = hnsw.to_bytes();
                write_u64(&mut out, payload.len() as u64);
                out.extend_from_slice(&payload);
            }
        }
        match &self.pq {
            None => out.push(0),
            Some(pq) => {
                out.push(1);
                let payload = pq.to_bytes();
                write_u64(&mut out, payload.len() as u64);
                out.extend_from_slice(&payload);
            }
        }
        out
    }

    /// Restores an index from [`VectorIndex::to_bytes`] output. Strict:
    /// trailing bytes, truncation, or malformed UTF-8 all fail rather
    /// than producing a partially-loaded index. Tolerances for older
    /// writers: payloads written before the HNSW tier existed end right
    /// after the IVF slot (those load with `hnsw = None`), payloads
    /// written before product quantization end right after the HNSW
    /// block (those load with `pq = None`), and a present IVF block from
    /// the retired IVF tier is bounds-checked and dropped — so old
    /// snapshots keep opening, answering through the exact scan.
    pub fn from_bytes(bytes: &[u8]) -> Result<VectorIndex, String> {
        let mut r = Reader::new(bytes);
        let n = r.u64()? as usize;
        // Each entry encodes at least two 8-byte length prefixes.
        let cap = n.min(r.remaining() / 16);
        let mut names = Vec::with_capacity(cap);
        let mut vectors = Vec::with_capacity(cap);
        for _ in 0..n {
            names.push(r.str()?);
            vectors.push(r.f64s()?);
        }
        match r.u8()? {
            0 => {}
            1 => {
                // `nlist` centroids then `nlist` member lists, each a u64
                // count of 8-byte words, then `nprobe`.
                let nlist = r.u64()?;
                for _ in 0..nlist.saturating_mul(2) {
                    r.skip_words()?;
                }
                r.u64()?;
            }
            tag => return Err(format!("unknown IVF tag {tag}")),
        }
        let hnsw = if r.at_end() {
            None
        } else {
            match r.u8()? {
                0 => None,
                1 => {
                    let len = r.u64()? as usize;
                    let graph = Hnsw::from_bytes(r.take(len)?)?;
                    if graph.len() != names.len() {
                        return Err(format!(
                            "HNSW graph indexes {} nodes but catalog holds {}",
                            graph.len(),
                            names.len()
                        ));
                    }
                    Some(graph)
                }
                tag => return Err(format!("unknown HNSW tag {tag}")),
            }
        };
        let pq = if r.at_end() {
            None
        } else {
            match r.u8()? {
                0 => None,
                1 => {
                    let len = r.u64()? as usize;
                    let pq = Pq::from_bytes(r.take(len)?)?;
                    if pq.len() != names.len() {
                        return Err(format!(
                            "PQ code matrix holds {} rows but catalog holds {}",
                            pq.len(),
                            names.len()
                        ));
                    }
                    Some(pq)
                }
                tag => return Err(format!("unknown PQ tag {tag}")),
            }
        };
        r.expect_end("index")?;
        Ok(VectorIndex {
            names,
            vectors,
            hnsw,
            pq,
            parallelism: 0,
        })
    }
}

/// Sorts `(id, score)` pairs into the house order — score descending
/// under `total_cmp`, ties to the lower id — and keeps the first `k`.
fn best_k(mut scored: Vec<(usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

pub(crate) fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn write_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    write_u64(out, xs.len() as u64);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor shared by the binary decoders in
/// this crate ([`VectorIndex::from_bytes`], `Hnsw::from_bytes`, the PQ
/// decoders, and the `KGVI` decoder). Decoders size every reservation by
/// [`Reader::remaining`], never by a length prefix alone, so a corrupt
/// prefix cannot allocate more than the payload could hold.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Fails with a `what`-labelled error unless the payload is fully
    /// consumed — the strict "no trailing bytes" check every decoder
    /// finishes with.
    pub(crate) fn expect_end(&self, what: &str) -> Result<(), String> {
        if self.at_end() {
            Ok(())
        } else {
            Err(format!(
                "trailing bytes after {what} payload ({} of {} consumed)",
                self.pos,
                self.bytes.len()
            ))
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = self.bytes.get(self.pos..end).unwrap_or(&[]);
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        let bytes = self.take(4)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(buf))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let bytes = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let len = self.u64()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| e.to_string())
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let len = self.u64()? as usize;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 8));
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Skips a u64 count followed by that many 8-byte words.
    pub(crate) fn skip_words(&mut self) -> Result<(), String> {
        let len = self.u64()? as usize;
        self.take(len.saturating_mul(8)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dir: usize, dim: usize) -> Vec<f64> {
        let mut v = vec![0.0; dim];
        v[dir] = 1.0;
        v
    }

    fn assert_bitwise_eq(a: &[(String, f64)], b: &[(String, f64)]) {
        assert_eq!(a.len(), b.len());
        for ((na, sa), (nb, sb)) in a.iter().zip(b) {
            assert_eq!(na, nb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "scores must match bitwise");
        }
    }

    #[test]
    fn exact_top_k_orders_by_similarity() {
        let mut idx = VectorIndex::new();
        idx.add("x", unit(0, 4));
        idx.add("y", unit(1, 4));
        idx.add("xy", vec![0.7, 0.7, 0.0, 0.0]);
        let hits = idx.top_k(&unit(0, 4), 2);
        assert_eq!(hits[0].0, "x");
        assert!((hits[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(hits[1].0, "xy");
    }

    #[test]
    fn top_k_caps_at_len() {
        let mut idx = VectorIndex::new();
        idx.add("only", unit(0, 2));
        assert_eq!(idx.top_k(&unit(0, 2), 10).len(), 1);
        assert!(VectorIndex::new().top_k(&unit(0, 2), 3).is_empty());
    }

    #[test]
    fn auto_tune_respects_threshold() {
        let mut idx = VectorIndex::new();
        for i in 0..VectorIndex::HNSW_AUTO_THRESHOLD - 1 {
            let v: Vec<f64> = (0..4).map(|d| ((i * 4 + d) as f64 * 0.37).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        assert_eq!(
            idx.auto_tune(0),
            IndexTier::Exact,
            "below threshold stays exact"
        );
        assert!(!idx.has_hnsw());
        idx.add("last", unit(0, 4));
        assert_eq!(
            idx.auto_tune(0),
            IndexTier::Hnsw,
            "at threshold builds the graph"
        );
        assert_eq!(idx.tier(), IndexTier::Hnsw);
        assert!(!idx.is_quantized(), "PQ waits for its own threshold");
    }

    #[test]
    fn search_dispatches_to_built_hnsw() {
        let mut idx = VectorIndex::new();
        for i in 0..60 {
            let mut v = vec![0.05 * (i % 7) as f64; 8];
            v[i % 8] = 1.0;
            idx.add(format!("v{i}"), v);
        }
        assert_eq!(idx.tier(), IndexTier::Exact);
        idx.build_hnsw(HnswConfig::default());
        assert_eq!(idx.tier(), IndexTier::Hnsw);
        let q = unit(3, 8);
        assert_bitwise_eq(&idx.top_k(&q, 5), &idx.search(&q, 5));
    }

    #[test]
    fn register_into_hnsw_matches_scratch_build() {
        let n = 50;
        let vecs: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..6).map(|d| ((i * 6 + d) as f64 * 0.61).sin()).collect())
            .collect();
        let mut grown = VectorIndex::new();
        for (i, v) in vecs.iter().take(n - 5).enumerate() {
            grown.add(format!("v{i}"), v.clone());
        }
        grown.build_hnsw(HnswConfig::default());
        for (i, v) in vecs.iter().enumerate().skip(n - 5) {
            grown.register(format!("v{i}"), v.clone());
        }
        let mut scratch = VectorIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            scratch.add(format!("v{i}"), v.clone());
        }
        scratch.build_hnsw(HnswConfig::default());
        let (Some(a), Some(b)) = (grown.hnsw(), scratch.hnsw()) else {
            panic!("both indexes must hold a graph");
        };
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "incremental insertion must equal a from-scratch build bit-for-bit"
        );
    }

    #[test]
    fn equal_scores_break_ties_by_insertion_id() {
        let mut idx = VectorIndex::new();
        for i in 0..6 {
            idx.add(format!("dup{i}"), unit(0, 4));
        }
        idx.add("other", unit(1, 4));
        let names: Vec<String> = idx
            .top_k(&unit(0, 4), 4)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["dup0", "dup1", "dup2", "dup3"]);
        // NaN scores must rank deterministically instead of panicking the
        // comparator (the pre-total_cmp sort unwrapped partial_cmp).
        let nan_hits = idx.top_k(&[f64::NAN; 4], 3);
        assert_eq!(nan_hits.len(), 3);
    }

    #[test]
    fn byte_roundtrip_preserves_index_bitwise() {
        let mut idx = VectorIndex::new();
        for i in 0..40 {
            let mut v = vec![0.125 * i as f64; 8];
            v[i % 8] = 1.0 + i as f64 * 0.001;
            idx.add(format!("v{i}"), v);
        }
        let restored = VectorIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(restored.names, idx.names);
        for (a, b) in idx.vectors.iter().zip(&restored.vectors) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(restored.tier(), IndexTier::Exact);
        let q = unit(3, 8);
        assert_bitwise_eq(&idx.search(&q, 5), &restored.search(&q, 5));
    }

    /// Snapshots written while the IVF tier existed may carry a trained
    /// IVF block. It is bounds-checked and dropped: the index loads on the
    /// exact tier, re-serializes without it, and answers like `top_k`.
    #[test]
    fn legacy_ivf_block_loads_as_exact() {
        let mut idx = VectorIndex::new();
        for i in 0..12 {
            let v: Vec<f64> = (0..4).map(|d| ((i * 4 + d) as f64 * 0.53).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        let bytes = idx.to_bytes();
        assert_eq!(
            &bytes[bytes.len() - 3..],
            &[0, 0, 0],
            "IVF, HNSW, PQ absent"
        );
        let mut legacy = bytes[..bytes.len() - 3].to_vec();
        legacy.push(1);
        write_u64(&mut legacy, 2);
        write_f64s(&mut legacy, &[1.0, 0.0, 0.0, 0.0]);
        write_f64s(&mut legacy, &[0.0, 1.0, 0.0, 0.0]);
        for members in [(0..12).step_by(2), (1..12).step_by(2)] {
            write_u64(&mut legacy, 6);
            for m in members {
                write_u64(&mut legacy, m);
            }
        }
        write_u64(&mut legacy, 1);
        // A v1 snapshot ends right after the IVF block; later writers
        // append the HNSW and PQ tags.
        let v1 = VectorIndex::from_bytes(&legacy).unwrap();
        legacy.extend_from_slice(&[0, 0]);
        let restored = VectorIndex::from_bytes(&legacy).unwrap();
        for loaded in [&v1, &restored] {
            assert_eq!(loaded.tier(), IndexTier::Exact);
            assert_eq!(loaded.to_bytes(), bytes, "the IVF block is dropped");
            for q in 0..4 {
                let query = unit(q, 4);
                assert_bitwise_eq(&loaded.search(&query, 5), &loaded.top_k(&query, 5));
            }
        }
        // The dropped block is still bounds-checked.
        assert!(VectorIndex::from_bytes(&legacy[..legacy.len() - 3]).is_err());
        let mut inflated = legacy.clone();
        let at = bytes.len() - 3 + 1 + 8;
        inflated[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(VectorIndex::from_bytes(&inflated).is_err());
    }

    #[test]
    fn from_bytes_rejects_malformed_payloads() {
        let mut idx = VectorIndex::new();
        idx.add("a", unit(0, 4));
        let bytes = idx.to_bytes();
        // Dropping all three trailing tag bytes (IVF, HNSW, PQ) truncates
        // mid-structure: the mandatory IVF tag itself is gone.
        assert!(VectorIndex::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(VectorIndex::from_bytes(&trailing).is_err());
        assert!(VectorIndex::from_bytes(&[0xff; 4]).is_err());
        let empty = VectorIndex::new();
        let restored = VectorIndex::from_bytes(&empty.to_bytes()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn pre_hnsw_payloads_load_without_a_graph() {
        let mut idx = VectorIndex::new();
        idx.add("a", unit(0, 4));
        let bytes = idx.to_bytes();
        // A payload ending right after the IVF block is the pre-HNSW
        // snapshot format; it must load with no graph, not error.
        let legacy = VectorIndex::from_bytes(&bytes[..bytes.len() - 2]).unwrap();
        assert!(!legacy.has_hnsw());
        assert!(!legacy.is_quantized());
        assert_eq!(legacy.len(), 1);
        // A payload ending right after the HNSW block is the pre-PQ
        // format; it must load unquantized.
        let pre_pq = VectorIndex::from_bytes(&bytes[..bytes.len() - 1]).unwrap();
        assert!(!pre_pq.is_quantized());
        assert_eq!(pre_pq.len(), 1);
    }

    #[test]
    fn quantized_search_with_covering_rerank_matches_exact_bitwise() {
        let mut idx = VectorIndex::new();
        for i in 0..90 {
            let v: Vec<f64> = (0..8).map(|d| ((i * 8 + d) as f64 * 0.43).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        // rerank × k covers the whole catalog, so the exact re-rank sees
        // every id the exact scan sees — bit-identity is guaranteed, not
        // merely empirical.
        idx.quantize(PqConfig {
            m: 4,
            rerank: 30,
            seed: 1,
        })
        .unwrap();
        let q: Vec<f64> = (0..8).map(|d| (d as f64 * 0.9).cos()).collect();
        assert_bitwise_eq(&idx.top_k(&q, 5), &idx.search(&q, 5));
    }

    #[test]
    fn quantized_byte_roundtrip_is_bitwise() {
        let mut idx = VectorIndex::new();
        for i in 0..60 {
            let v: Vec<f64> = (0..6).map(|d| ((i * 6 + d) as f64 * 0.29).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        idx.build_hnsw(HnswConfig::default());
        idx.quantize(PqConfig::default()).unwrap();
        let restored = VectorIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert!(restored.is_quantized());
        assert_eq!(restored.to_bytes(), idx.to_bytes());
        let q = unit(2, 6);
        let a = idx.search(&q, 5);
        let b = restored.search(&q, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn byte_roundtrip_preserves_hnsw_graph() {
        let mut idx = VectorIndex::new();
        for i in 0..30 {
            let mut v = vec![0.01 * i as f64; 6];
            v[i % 6] = 1.0;
            idx.add(format!("v{i}"), v);
        }
        idx.build_hnsw(HnswConfig::default());
        let restored = VectorIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert!(restored.has_hnsw());
        assert_eq!(restored.to_bytes(), idx.to_bytes());
        let q = unit(2, 6);
        assert_eq!(idx.search(&q, 5), restored.search(&q, 5));
    }

    #[test]
    fn adding_invalidates_the_graph() {
        let mut idx = VectorIndex::new();
        idx.add("a", unit(0, 4));
        idx.build_hnsw(HnswConfig::default());
        idx.add("b", unit(1, 4));
        // Falls back to exact search and still sees the new vector.
        assert_eq!(idx.tier(), IndexTier::Exact);
        let hits = idx.search(&unit(1, 4), 1);
        assert_eq!(hits[0].0, "b");
    }
}
