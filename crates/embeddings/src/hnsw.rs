//! Deterministic HNSW: the graph-based approximate-nearest-neighbor tier
//! for catalogs beyond the exact scan's reach.
//!
//! A Hierarchical Navigable Small World graph (Malkov & Yashunin, 2016)
//! answers top-k cosine queries in roughly logarithmic time: each vector
//! is a node in a layered proximity graph, queries greedily descend from
//! a sparse top layer to the dense bottom layer, and a best-first beam
//! (`ef`) over layer 0 collects the candidates. This is FAISS's
//! `IndexHNSWFlat` counterpart, sized for the 100K–1M-table catalogs the
//! platform roadmap targets — where the exact scan pays one cosine per
//! catalog entry per query.
//!
//! # Determinism rules
//!
//! Stock HNSW draws levels from an RNG and breaks score ties by heap
//! arrival order, so two builds of the same data can answer differently.
//! This implementation is **bit-identical for a given `(seed, insertion
//! order)`**:
//!
//! * level assignment hashes `(seed, node id)` through SplitMix64 — no
//!   shared RNG stream, so levels are a pure function of identity,
//! * every ordered structure (candidate heap, beam, neighbor lists,
//!   final ranking) orders by `(score via total_cmp, node id)` — ties
//!   cannot reorder across builds,
//! * incremental insertion *is* the build procedure: `build` = insert 0..n
//!   in order, so registering a dataset online then querying is
//!   bit-identical to rebuilding from scratch with the same order.
//!
//! The graph stores adjacency only; vectors stay in the owning
//! [`VectorIndex`], whose full-precision block every operation borrows.
//!
//! [`VectorIndex`]: crate::VectorIndex

use crate::column::cosine;
use crate::index::{write_u64, Reader};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Hard cap on assigned levels; `P(level ≥ 32)` is ~`2^-110` at `m = 16`,
/// so the cap exists only to bound the serialized format.
const MAX_LEVEL: usize = 31;

/// Tuning parameters of an HNSW graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HnswConfig {
    /// Links created per node per layer (layer 0 keeps up to `2m`).
    pub m: usize,
    /// Beam width while inserting (higher = better graph, slower build).
    pub ef_construction: usize,
    /// Default beam width while querying (raised to `k` when `k` is
    /// larger).
    pub ef_search: usize,
    /// Seed for the level-assignment hash.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> HnswConfig {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0,
        }
    }
}

/// Cosine similarity between stored vector `i` and an external query.
/// Out-of-range `i` returns `0.0` (never panics: this runs on the serving
/// path).
fn similarity(vectors: &[Vec<f64>], i: usize, query: &[f64]) -> f64 {
    vectors.get(i).map_or(0.0, |v| cosine(query, v))
}

/// Cosine similarity between two stored vectors (used by neighbor
/// selection and pruning). Out-of-range indices return `0.0`.
fn pair_similarity(vectors: &[Vec<f64>], i: usize, j: usize) -> f64 {
    match (vectors.get(i), vectors.get(j)) {
        (Some(a), Some(b)) => cosine(b, a),
        _ => 0.0,
    }
}

/// One node's adjacency: `levels[l]` holds the neighbor ids at layer `l`,
/// for `l` in `0..=node_level`.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
struct HnswNode {
    levels: Vec<Vec<u32>>,
}

/// A deterministic HNSW graph over an external vector store. See the
/// module docs for the determinism rules; see [`Hnsw::insert`] for the
/// id/insertion-order contract.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Hnsw {
    config: HnswConfig,
    /// Entry point: the id of a node on the highest populated layer
    /// (`None` while empty).
    entry: Option<u32>,
    nodes: Vec<HnswNode>,
}

/// `(score, id)` with the house total order: higher score first, then
/// lower id — `total_cmp` so NaN cannot poison a heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f64,
    id: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Scored) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Scored) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Stamp-based visited set, reused across layers of one operation so an
/// insert does not re-allocate per layer.
struct Visited {
    stamps: Vec<u32>,
    generation: u32,
}

impl Visited {
    fn new(n: usize) -> Visited {
        Visited {
            stamps: vec![0; n],
            generation: 0,
        }
    }

    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `i`; returns true when it was already visited this
    /// generation. Out-of-range ids read as visited, so a truncated store
    /// can never be probed.
    fn check_and_mark(&mut self, i: u32) -> bool {
        match self.stamps.get_mut(i as usize) {
            Some(stamp) if *stamp == self.generation => true,
            Some(stamp) => {
                *stamp = self.generation;
                false
            }
            None => true,
        }
    }
}

impl Hnsw {
    /// Creates an empty graph.
    pub fn new(config: HnswConfig) -> Hnsw {
        Hnsw {
            config: HnswConfig {
                m: config.m.max(2),
                ef_construction: config.ef_construction.max(config.m.max(2)),
                ef_search: config.ef_search.max(1),
                seed: config.seed,
            },
            entry: None,
            nodes: Vec::new(),
        }
    }

    /// Builds a graph over `vectors` by inserting `0..vectors.len()` in
    /// order — the canonical build is literally repeated insertion, which
    /// is what makes online registration bit-identical to a rebuild.
    pub fn build(config: HnswConfig, vectors: &[Vec<f64>]) -> Hnsw {
        let mut hnsw = Hnsw::new(config);
        for _ in 0..vectors.len() {
            hnsw.insert(vectors);
        }
        hnsw
    }

    /// The tuning parameters.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of populated layers (0 while empty).
    pub fn num_layers(&self) -> usize {
        self.entry
            .and_then(|e| self.nodes.get(e as usize))
            .map_or(0, |n| n.levels.len())
    }

    /// Total directed links across all layers (a size/health statistic).
    pub fn num_links(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.levels.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Inserts the next node. The new node's id is the current
    /// [`Hnsw::len`], and `vectors` must already hold its vector at that
    /// index (callers push the vector first, then insert). Returns the
    /// assigned id.
    pub fn insert(&mut self, vectors: &[Vec<f64>]) -> usize {
        let id = self.nodes.len();
        let level = assigned_level(self.config.seed, id as u64, self.config.m);
        self.nodes.push(HnswNode {
            levels: vec![Vec::new(); level + 1],
        });
        let Some(entry) = self.entry else {
            self.entry = Some(id as u32);
            return id;
        };
        let entry_level = self.node_level(entry);
        let sim = |x: usize| pair_similarity(vectors, x, id);

        // Greedy descent through the layers above the new node's level.
        let mut cur = entry;
        for l in (level + 1..=entry_level).rev() {
            cur = self.greedy_closest(cur, l, &sim);
        }

        // Beam search + neighbor selection on each shared layer.
        let mut visited = Visited::new(self.nodes.len());
        let mut eps = vec![cur];
        for l in (0..=level.min(entry_level)).rev() {
            let candidates =
                self.search_layer(&eps, l, self.config.ef_construction, &sim, &mut visited);
            let selected = self.select_neighbors(&candidates, self.config.m, vectors);
            if let Some(node) = self.nodes.get_mut(id) {
                if let Some(list) = node.levels.get_mut(l) {
                    *list = selected.clone();
                }
            }
            let allowed = self.allowed_links(l);
            for n in selected {
                self.link(n, id as u32, l, allowed, vectors);
            }
            eps = candidates.iter().map(|c| c.id).collect();
        }
        if level > entry_level {
            self.entry = Some(id as u32);
        }
        id
    }

    /// Approximate top-k by cosine similarity: `(id, score)` pairs in
    /// `(score desc, id asc)` order. `ef` is raised to `max(ef_search,
    /// k)`; scores are exact [`cosine`] against `vectors`.
    pub fn search(&self, query: &[f64], k: usize, vectors: &[Vec<f64>]) -> Vec<(usize, f64)> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let sim = |x: usize| similarity(vectors, x, query);
        let mut cur = entry;
        for l in (1..=self.node_level(entry)).rev() {
            cur = self.greedy_closest(cur, l, &sim);
        }
        let ef = self.config.ef_search.max(k);
        let mut visited = Visited::new(self.nodes.len());
        let mut best = self.search_layer(&[cur], 0, ef, &sim, &mut visited);
        best.truncate(k);
        best.into_iter().map(|s| (s.id as usize, s.score)).collect()
    }

    /// The level of node `n` (0 when unknown — never panics).
    fn node_level(&self, n: u32) -> usize {
        self.nodes
            .get(n as usize)
            .map_or(0, |node| node.levels.len().saturating_sub(1))
    }

    /// Neighbor list of node `n` at `level` (empty when out of range).
    fn neighbors(&self, n: u32, level: usize) -> &[u32] {
        self.nodes
            .get(n as usize)
            .and_then(|node| node.levels.get(level))
            .map_or(&[], Vec::as_slice)
    }

    /// Max links a node may keep at `level` (the standard `2m` on the
    /// dense bottom layer). Saturating: a decoded graph's `m` is untrusted.
    fn allowed_links(&self, level: usize) -> usize {
        if level == 0 {
            self.config.m.saturating_mul(2)
        } else {
            self.config.m
        }
    }

    /// Greedy hill-climb on one layer: follow the first strictly-better
    /// neighbor sweep until no neighbor improves. Neighbor lists are in
    /// deterministic order, so the walk is too.
    fn greedy_closest(&self, start: u32, level: usize, sim: &impl Fn(usize) -> f64) -> u32 {
        let mut cur = start;
        let mut cur_score = sim(cur as usize);
        loop {
            let mut improved = false;
            for &n in self.neighbors(cur, level) {
                let score = sim(n as usize);
                if score > cur_score {
                    cur = n;
                    cur_score = score;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Best-first beam search on one layer: returns up to `ef` results in
    /// `(score desc, id asc)` order. Deterministic: both heaps order by
    /// [`Scored`]'s total order.
    fn search_layer(
        &self,
        entries: &[u32],
        level: usize,
        ef: usize,
        sim: &impl Fn(usize) -> f64,
        visited: &mut Visited,
    ) -> Vec<Scored> {
        visited.next_generation();
        let ef = ef.max(1);
        // `candidates` pops the best unexpanded node; `best` keeps the ef
        // strongest results with the weakest on top (via Reverse).
        let mut candidates: BinaryHeap<Scored> = BinaryHeap::new();
        let mut best: BinaryHeap<std::cmp::Reverse<Scored>> = BinaryHeap::new();
        for &e in entries {
            if visited.check_and_mark(e) {
                continue;
            }
            let s = Scored {
                score: sim(e as usize),
                id: e,
            };
            candidates.push(s);
            best.push(std::cmp::Reverse(s));
            if best.len() > ef {
                best.pop();
            }
        }
        while let Some(cand) = candidates.pop() {
            if best.len() >= ef {
                if let Some(std::cmp::Reverse(worst)) = best.peek() {
                    if cand < *worst {
                        break;
                    }
                }
            }
            for &n in self.neighbors(cand.id, level) {
                if visited.check_and_mark(n) {
                    continue;
                }
                let s = Scored {
                    score: sim(n as usize),
                    id: n,
                };
                let admit = match best.peek() {
                    Some(std::cmp::Reverse(worst)) => best.len() < ef || s > *worst,
                    None => true,
                };
                if admit {
                    candidates.push(s);
                    best.push(std::cmp::Reverse(s));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out: Vec<Scored> = best.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }

    /// The Malkov relative-neighborhood heuristic with kept-pruned
    /// fill-up: walk candidates best-first, keep one when it is closer to
    /// the query than to every already-kept neighbor (diversity beats
    /// raw proximity on clustered data), then fill remaining slots from
    /// the rejects in order. Input must be `(score desc, id asc)` sorted;
    /// output order is the selection order, which is deterministic.
    fn select_neighbors(&self, candidates: &[Scored], m: usize, vectors: &[Vec<f64>]) -> Vec<u32> {
        // Never more than the candidates: a decoded graph's `m` is
        // untrusted and must not size the reservation.
        let mut selected: Vec<Scored> = Vec::with_capacity(m.min(candidates.len()));
        let mut rejected: Vec<u32> = Vec::new();
        for &c in candidates {
            if selected.len() >= m {
                break;
            }
            let diverse = selected
                .iter()
                .all(|s| c.score > pair_similarity(vectors, c.id as usize, s.id as usize));
            if diverse {
                selected.push(c);
            } else {
                rejected.push(c.id);
            }
        }
        let mut out: Vec<u32> = selected.into_iter().map(|s| s.id).collect();
        for id in rejected {
            if out.len() >= m {
                break;
            }
            out.push(id);
        }
        out
    }

    /// Adds `from → to` at `level`, re-selecting `from`'s list with the
    /// same heuristic when it overflows `allowed`.
    fn link(&mut self, from: u32, to: u32, level: usize, allowed: usize, vectors: &[Vec<f64>]) {
        let Some(list) = self
            .nodes
            .get_mut(from as usize)
            .and_then(|node| node.levels.get_mut(level))
        else {
            return;
        };
        if list.contains(&to) {
            return;
        }
        list.push(to);
        if list.len() <= allowed {
            return;
        }
        let current = std::mem::take(list);
        let mut scored: Vec<Scored> = current
            .into_iter()
            .map(|x| Scored {
                score: pair_similarity(vectors, x as usize, from as usize),
                id: x,
            })
            .collect();
        scored.sort_by(|a, b| b.cmp(a));
        let kept = self.select_neighbors(&scored, allowed, vectors);
        if let Some(list) = self
            .nodes
            .get_mut(from as usize)
            .and_then(|node| node.levels.get_mut(level))
        {
            *list = kept;
        }
    }

    /// Serializes the graph (config, entry point, adjacency) to the
    /// little-endian payload embedded in [`VectorIndex::to_bytes`] and in
    /// mapped catalog files. Round-trips bit-for-bit through
    /// [`Hnsw::from_bytes`].
    ///
    /// [`VectorIndex::to_bytes`]: crate::VectorIndex::to_bytes
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_u64(&mut out, self.config.m as u64);
        write_u64(&mut out, self.config.ef_construction as u64);
        write_u64(&mut out, self.config.ef_search as u64);
        write_u64(&mut out, self.config.seed);
        match self.entry {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                write_u64(&mut out, e as u64);
            }
        }
        write_u64(&mut out, self.nodes.len() as u64);
        for node in &self.nodes {
            write_u64(&mut out, node.levels.len() as u64);
            for level in &node.levels {
                write_u64(&mut out, level.len() as u64);
                for &n in level {
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
        }
        out
    }

    /// Restores a graph from [`Hnsw::to_bytes`] output. Strict: truncated
    /// or trailing bytes fail; ids and the entry point are bounds-checked
    /// against the node count so a corrupt file cannot produce a graph
    /// that probes out of range.
    pub fn from_bytes(bytes: &[u8]) -> Result<Hnsw, String> {
        let mut r = Reader::new(bytes);
        let config = HnswConfig {
            m: r.u64()? as usize,
            ef_construction: r.u64()? as usize,
            ef_search: r.u64()? as usize,
            seed: r.u64()?,
        };
        let entry = match r.u8()? {
            0 => None,
            1 => Some(r.u64()? as u32),
            tag => return Err(format!("unknown HNSW entry tag {tag}")),
        };
        let n = r.u64()? as usize;
        // Reservations are capped by the bytes left: a node encodes at
        // least its 8-byte level count, a level its 8-byte length, a link
        // 4 bytes.
        let mut nodes = Vec::with_capacity(n.min(r.remaining() / 8));
        for _ in 0..n {
            let num_levels = r.u64()? as usize;
            let mut levels = Vec::with_capacity(num_levels.min(r.remaining() / 8));
            for _ in 0..num_levels {
                let len = r.u64()? as usize;
                let mut list = Vec::with_capacity(len.min(r.remaining() / 4));
                for _ in 0..len {
                    let id = r.u32()?;
                    if id as usize >= n {
                        return Err(format!("HNSW link {id} out of range (n = {n})"));
                    }
                    list.push(id);
                }
                levels.push(list);
            }
            nodes.push(HnswNode { levels });
        }
        r.expect_end("HNSW")?;
        if let Some(e) = entry {
            if e as usize >= n {
                return Err(format!("HNSW entry point {e} out of range (n = {n})"));
            }
        }
        Ok(Hnsw {
            config,
            entry,
            nodes,
        })
    }
}

/// Deterministic level assignment: hash `(seed, id)` through SplitMix64,
/// map to `(0, 1]`, and apply the standard exponential level rule
/// `⌊−ln(u) · 1/ln(m)⌋`. A pure function of identity — no RNG stream to
/// share or replay.
fn assigned_level(seed: u64, id: u64, m: usize) -> usize {
    let mut x = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // SplitMix64 finalizer.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // 53 uniform bits → u in (0, 1].
    let u = ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let ml = 1.0 / (m.max(2) as f64).ln();
    ((-u.ln()) * ml).floor().min(MAX_LEVEL as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        let x = assigned_level(7, (i * dim + d) as u64, 2) as f64;
                        (i as f64 * 0.37 + d as f64 * 1.13 + x).sin()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_and_singleton() {
        let vecs = vectors(1, 4);
        let mut h = Hnsw::new(HnswConfig::default());
        assert!(h.is_empty());
        assert!(h.search(&vecs[0], 3, &vecs).is_empty());
        h.insert(&vecs);
        assert_eq!(h.len(), 1);
        let hits = h.search(&vecs[0], 3, &vecs);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn finds_exact_neighbors_on_small_catalog() {
        let vecs = vectors(60, 8);
        let h = Hnsw::build(HnswConfig::default(), &vecs);
        for (q, query) in vecs.iter().enumerate().take(10) {
            let hits = h.search(query, 1, &vecs);
            assert_eq!(hits[0].0, q, "self-query must find itself");
            assert!((hits[0].1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let vecs = vectors(200, 6);
        let a = Hnsw::build(HnswConfig::default(), &vecs);
        let b = Hnsw::build(HnswConfig::default(), &vecs);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = Hnsw::build(
            HnswConfig {
                seed: 5,
                ..HnswConfig::default()
            },
            &vecs,
        );
        assert_ne!(a.to_bytes(), c.to_bytes(), "seed changes the graph");
    }

    #[test]
    fn byte_roundtrip_is_bitwise() {
        let vecs = vectors(120, 5);
        let h = Hnsw::build(HnswConfig::default(), &vecs);
        let restored = Hnsw::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(restored.to_bytes(), h.to_bytes());
        let q = &vecs[17];
        assert_eq!(h.search(q, 5, &vecs), restored.search(q, 5, &vecs));
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        let vecs = vectors(10, 3);
        let h = Hnsw::build(HnswConfig::default(), &vecs);
        let bytes = h.to_bytes();
        assert!(Hnsw::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert!(Hnsw::from_bytes(&trailing).is_err());
        assert!(Hnsw::from_bytes(&[0u8; 3]).is_err());
    }

    #[test]
    fn levels_are_identity_pure_and_bounded() {
        for id in 0..10_000u64 {
            let a = assigned_level(3, id, 16);
            assert_eq!(a, assigned_level(3, id, 16));
            assert!(a <= MAX_LEVEL);
        }
        // The exponential rule produces mostly level-0 nodes.
        let zero = (0..10_000u64)
            .filter(|&id| assigned_level(3, id, 16) == 0)
            .count();
        assert!(zero > 9_000, "{zero} of 10000 at level 0");
    }
}
