//! Vector similarity index — the FAISS substitute.
//!
//! Two tiers, auto-selected by catalog size ([`VectorIndex::auto_tune`]):
//! exact cosine top-k for small catalogs, and a deterministic HNSW graph
//! ([`crate::hnsw`], FAISS's `IndexHNSWFlat`) for the 100K–1M-vector
//! catalogs where a per-query linear scan stops being cheap. Both tiers
//! read the one full-precision vector block. [`VectorIndex::search`] is
//! the one routine that dispatches on tier; [`VectorIndex::register`]
//! grows the catalog online without rebuilding whichever tier is active.

use crate::column::cosine;
use crate::hnsw::{Hnsw, HnswConfig};

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

/// Resident byte accounting for a vector index, per storage component.
/// Reported by `kgpip-cli index stats` and the embeddings bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// The active search tier.
    pub tier: IndexTier,
    /// Catalog size.
    pub count: usize,
    /// Embedding dimensionality (of the first vector; 0 when empty).
    pub dim: usize,
    /// Bytes of the full-precision `f64` vector block.
    pub vector_bytes: usize,
    /// Bytes of the HNSW adjacency (serialized size — the graph stores
    /// no vectors).
    pub hnsw_bytes: usize,
}

impl IndexStats {
    /// Total resident bytes across all components.
    pub fn resident_bytes(&self) -> usize {
        self.vector_bytes + self.hnsw_bytes
    }
}

/// A named-vector index with exact and HNSW-approximate top-k search.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct VectorIndex {
    pub(crate) names: Vec<String>,
    pub(crate) vectors: Vec<Vec<f64>>,
    /// HNSW state: the layered proximity graph (adjacency only; vectors
    /// stay in `vectors`). Absent in pre-HNSW serialized indexes.
    pub(crate) hnsw: Option<Hnsw>,
}

/// Decodes the JSON-era document layout through the same agreement check
/// as the binary decoders ([`VectorIndex::from_bytes`]). Fields are looked
/// up by name, so the keys of retired state (`ivf`, `pq`, `parallelism`)
/// are skipped, and a document written before the HNSW tier has no `hnsw`
/// key.
impl serde::Deserialize for VectorIndex {
    fn from_value(v: &serde::Value) -> Result<VectorIndex, serde::DeError> {
        let hnsw = match v.field_opt("hnsw")? {
            Some(graph) => serde::Deserialize::from_value(graph)?,
            None => None,
        };
        VectorIndex::from_parts(
            serde::Deserialize::from_value(v.field("names")?)?,
            serde::Deserialize::from_value(v.field("vectors")?)?,
            hnsw,
        )
        .map_err(serde::DeError)
    }
}

impl VectorIndex {
    /// Catalog size at which [`VectorIndex::auto_tune`] switches the
    /// nearest-dataset lookup from the exact scan to the HNSW graph.
    /// Below this, an exact scan is both fast and trivially correct.
    pub const HNSW_AUTO_THRESHOLD: usize = 4096;

    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named vector at build time. Invalidates any built HNSW
    /// graph — callers retune once after bulk adds. For online growth
    /// that *extends* the current tier instead, use
    /// [`VectorIndex::register`].
    pub fn add(&mut self, name: impl Into<String>, vector: Vec<f64>) {
        self.names.push(name.into());
        self.vectors.push(vector);
        self.hnsw = None;
    }

    /// Registers a named vector online, extending whichever tier is
    /// active instead of invalidating it: HNSW gets an incremental
    /// [`Hnsw::insert`] (bit-identical to a from-scratch rebuild with the
    /// same order) and the exact tier just appends.
    pub fn register(&mut self, name: impl Into<String>, vector: Vec<f64>) {
        self.names.push(name.into());
        self.vectors.push(vector);
        if let Some(hnsw) = &mut self.hnsw {
            hnsw.insert(&self.vectors);
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
        self.hnsw = Some(Hnsw::build(config, &self.vectors));
    }

    /// Selects and builds the search tier for the current catalog size:
    /// below [`VectorIndex::HNSW_AUTO_THRESHOLD`] the index stays exact,
    /// at or above it a default-parameter HNSW graph seeded with `seed`
    /// is built. Returns the chosen tier; a graph the policy does not
    /// pick is dropped so [`VectorIndex::tier`] always reflects it.
    pub fn auto_tune(&mut self, seed: u64) -> IndexTier {
        if self.vectors.len() >= Self::HNSW_AUTO_THRESHOLD {
            self.build_hnsw(HnswConfig {
                seed,
                ..HnswConfig::default()
            });
        } else {
            self.hnsw = None;
        }
        self.tier()
    }

    /// Resident byte accounting per storage component.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            tier: self.tier(),
            count: self.vectors.len(),
            dim: self.vectors.first().map_or(0, Vec::len),
            vector_bytes: self.vectors.iter().map(|v| v.len() * 8).sum(),
            hnsw_bytes: self.hnsw.as_ref().map_or(0, |h| h.to_bytes().len()),
        }
    }

    /// Top-k through the active tier — the serve-path entry point and the
    /// only routine that dispatches on tier. Results are `(name,
    /// similarity)` in `(score desc, id asc)` order for every tier: the
    /// HNSW tier walks the graph over the full-precision vectors, and the
    /// exact tier is [`VectorIndex::top_k`].
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        match &self.hnsw {
            Some(hnsw) => self.named(hnsw.search(query, k, &self.vectors)),
            None => self.top_k(query, k),
        }
    }

    /// Resolves `(id, score)` hits to `(name, score)`.
    fn named(&self, hits: Vec<(usize, f64)>) -> Vec<(String, f64)> {
        hits.into_iter()
            .filter_map(|(i, s)| self.names.get(i).map(|n| (n.clone(), s)))
            .collect()
    }

    /// Serializes the index (names, vectors, and any HNSW graph) to a
    /// self-contained little-endian binary payload — the section format
    /// used inside KGpip model snapshots. Round-trips bit-for-bit through
    /// [`VectorIndex::from_bytes`].
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
        // The slot of retired product quantization, likewise always absent.
        out.push(0);
        out
    }

    /// Restores an index from [`VectorIndex::to_bytes`] output. Strict:
    /// trailing bytes, truncation, or malformed UTF-8 all fail rather
    /// than producing a partially-loaded index. Tolerances for older
    /// writers: payloads written before the HNSW tier existed end right
    /// after the IVF slot (those load with `hnsw = None`), payloads
    /// written before product quantization end right after the HNSW
    /// block, and a present block from the retired IVF tier or the
    /// retired product-quantized store is bounds-checked and dropped — so
    /// old snapshots keep opening, answering through their HNSW or exact
    /// tier.
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
                    Some(Hnsw::from_bytes(r.take(len)?)?)
                }
                tag => return Err(format!("unknown HNSW tag {tag}")),
            }
        };
        if !r.at_end() {
            match r.u8()? {
                0 => {}
                1 => {
                    // A length-prefixed product-quantization block.
                    let len = r.u64()? as usize;
                    r.take(len)?;
                }
                tag => return Err(format!("unknown PQ tag {tag}")),
            }
        }
        r.expect_end("index")?;
        VectorIndex::from_parts(names, vectors, hnsw)
    }

    /// Assembles a decoded index after checking that its parts agree: one
    /// name per vector, and a graph (when present) indexing exactly the
    /// catalog. Every decoder (binary, `KGVI`, JSON-era) builds through
    /// here, so a decoded index is as sound as one built in memory.
    pub(crate) fn from_parts(
        names: Vec<String>,
        vectors: Vec<Vec<f64>>,
        hnsw: Option<Hnsw>,
    ) -> Result<VectorIndex, String> {
        if names.len() != vectors.len() {
            return Err(format!(
                "index lists {} names for {} vectors",
                names.len(),
                vectors.len()
            ));
        }
        if let Some(graph) = &hnsw {
            if graph.len() != vectors.len() {
                return Err(format!(
                    "HNSW graph indexes {} nodes but catalog holds {}",
                    graph.len(),
                    vectors.len()
                ));
            }
        }
        Ok(VectorIndex {
            names,
            vectors,
            hnsw,
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
/// this crate ([`VectorIndex::from_bytes`], `Hnsw::from_bytes`, and the
/// `KGVI` decoder). Decoders size every reservation by
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
        assert_eq!(legacy.len(), 1);
        // A payload ending right after the HNSW block is the pre-PQ
        // format; it must load too.
        let pre_pq = VectorIndex::from_bytes(&bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(pre_pq.len(), 1);
        assert_eq!(pre_pq.to_bytes(), bytes);
    }

    /// Payloads written while product quantization existed may carry a
    /// PQ block after the HNSW slot. It is bounds-checked and dropped;
    /// any tag other than absent (0) or present (1) is still an error.
    #[test]
    fn legacy_pq_block_is_skipped_with_a_bounds_check() {
        let mut idx = VectorIndex::new();
        for i in 0..10 {
            let v: Vec<f64> = (0..4).map(|d| ((i * 4 + d) as f64 * 0.29).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        idx.build_hnsw(HnswConfig::default());
        let bytes = idx.to_bytes();
        assert_eq!(bytes.last(), Some(&0), "PQ slot absent");
        let mut legacy = bytes[..bytes.len() - 1].to_vec();
        legacy.push(1);
        write_u64(&mut legacy, 5);
        legacy.extend_from_slice(b"codes");
        let restored = VectorIndex::from_bytes(&legacy).unwrap();
        assert_eq!(restored.to_bytes(), bytes, "the PQ block is dropped");
        let q = unit(1, 4);
        assert_bitwise_eq(&restored.search(&q, 4), &idx.search(&q, 4));
        assert!(VectorIndex::from_bytes(&legacy[..legacy.len() - 1]).is_err());
        let mut inflated = legacy.clone();
        let at = bytes.len();
        inflated[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(VectorIndex::from_bytes(&inflated).is_err());
        let mut bad_tag = bytes.clone();
        if let Some(last) = bad_tag.last_mut() {
            *last = 2;
        }
        assert!(VectorIndex::from_bytes(&bad_tag).is_err());
    }

    /// The JSON-era decoder holds names, vectors and graph to the same
    /// agreement as the binary one, and ignores retired keys.
    #[test]
    fn json_era_index_is_checked_and_skips_retired_keys() {
        let mut idx = VectorIndex::new();
        for i in 0..6 {
            idx.add(format!("v{i}"), unit(i % 3, 3));
        }
        idx.build_hnsw(HnswConfig::default());
        let serde::Value::Obj(mut fields) = serde::Serialize::to_value(&idx) else {
            panic!("an index serializes to an object");
        };
        fields.push(("pq".into(), serde::Value::Null));
        fields.push(("parallelism".into(), serde::Value::Num(serde::Number::U(0))));
        let decode = |fields: &[(String, serde::Value)]| {
            <VectorIndex as serde::Deserialize>::from_value(&serde::Value::Obj(fields.to_vec()))
        };
        let restored = decode(&fields).unwrap();
        assert_eq!(restored.to_bytes(), idx.to_bytes());
        let mut extra_name = fields.clone();
        if let Some((_, serde::Value::Arr(names))) =
            extra_name.iter_mut().find(|(k, _)| k == "names")
        {
            names.push(serde::Value::Str("ghost".into()));
        }
        assert!(decode(&extra_name).is_err(), "7 names for 6 vectors");
        let mut small = VectorIndex::new();
        small.add("a", unit(0, 3));
        small.build_hnsw(HnswConfig::default());
        let mut foreign_graph = fields.clone();
        if let (Some(slot), serde::Value::Obj(small_fields)) = (
            foreign_graph.iter_mut().find(|(k, _)| k == "hnsw"),
            serde::Serialize::to_value(&small),
        ) {
            if let Some((_, graph)) = small_fields.into_iter().find(|(k, _)| k == "hnsw") {
                slot.1 = graph;
            }
        }
        assert!(decode(&foreign_graph).is_err(), "1-node graph, 6 vectors");
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
