//! Standalone catalog files (`KGVI`) for `kgpip-cli index` and tooling.
//!
//! A `.kgvi` file is a tagged-section encoding of one [`VectorIndex`]:
//! [`VectorIndex::to_mapped_bytes`] writes it and
//! [`VectorIndex::from_mapped_bytes`] decodes it back into an ordinary
//! owned index, which answers through the same [`VectorIndex::search`]
//! as every other index. The vector block is one flat, position-
//! independent section, so the layout could back a real memory mapping
//! without a format change.
//!
//! # Layout
//!
//! Little-endian, KGPS-style framing (`crates/core/src/snapshot.rs`):
//!
//! ```text
//! magic "KGVI" · u32 version
//! repeated sections: u32 tag · u64 payload_len · payload
//!   tag 1 header:  u64 count · u32 dim
//!   tag 2 vectors: count × dim f64, catalog order
//!   tag 3 names:   u64 count · (count+1) × u64 offsets · UTF-8 blob
//!   tag 4 hnsw:    Hnsw::to_bytes payload (optional section)
//!   tag 5, 6:      retired; written by earlier builds, skipped (the
//!                  product-quantization codebooks and code matrix)
//! ```
//!
//! Unknown tags are skipped, mirroring the snapshot reader's
//! forward-compatibility rule. Every section is validated against the
//! header before the index is assembled, so a decoded index is as sound
//! as one built in memory.

use crate::hnsw::Hnsw;
use crate::index::{write_u32, write_u64, Reader, VectorIndex};
use std::path::Path;

/// File magic, the mapped-catalog sibling of the `KGPS` snapshot magic.
pub const MAGIC: &[u8; 4] = b"KGVI";

/// Mapped-catalog format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_HEADER: u32 = 1;
const TAG_VECTORS: u32 = 2;
const TAG_NAMES: u32 = 3;
const TAG_HNSW: u32 = 4;

fn section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    write_u32(out, tag);
    write_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

impl VectorIndex {
    /// Serializes the catalog (plus any built HNSW graph) to the `KGVI`
    /// mapped format. Deterministic: the same index always produces the
    /// same bytes. Fails when vectors have mixed dimensionality, which the
    /// flat layout cannot represent.
    pub fn to_mapped_bytes(&self) -> Result<Vec<u8>, String> {
        let dim = self.vectors.first().map_or(0, Vec::len);
        if self.vectors.iter().any(|v| v.len() != dim) {
            return Err("catalog vectors have mixed dimensions; cannot map".into());
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, FORMAT_VERSION);
        let mut header = Vec::new();
        write_u64(&mut header, self.vectors.len() as u64);
        write_u32(&mut header, dim as u32);
        section(&mut out, TAG_HEADER, &header);
        let mut vecs = Vec::with_capacity(self.vectors.len() * dim * 8);
        for v in &self.vectors {
            for x in v {
                vecs.extend_from_slice(&x.to_le_bytes());
            }
        }
        section(&mut out, TAG_VECTORS, &vecs);
        let mut names = Vec::new();
        write_u64(&mut names, self.names.len() as u64);
        let mut off = 0u64;
        for n in &self.names {
            write_u64(&mut names, off);
            off += n.len() as u64;
        }
        write_u64(&mut names, off);
        for n in &self.names {
            names.extend_from_slice(n.as_bytes());
        }
        section(&mut out, TAG_NAMES, &names);
        if let Some(hnsw) = self.hnsw() {
            section(&mut out, TAG_HNSW, &hnsw.to_bytes());
        }
        Ok(out)
    }

    /// Writes the `KGVI` mapped catalog to `path`; read it back with
    /// [`VectorIndex::open_mapped`].
    pub fn write_mapped(&self, path: impl AsRef<Path>) -> Result<(), String> {
        std::fs::write(path.as_ref(), self.to_mapped_bytes()?)
            .map_err(|e| format!("write {}: {e}", path.as_ref().display()))
    }

    /// Reads a `KGVI` file and decodes it with
    /// [`VectorIndex::from_mapped_bytes`].
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<VectorIndex, String> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
        VectorIndex::from_mapped_bytes(&bytes)
    }

    /// Decodes a `KGVI` payload into an owned index holding the same
    /// catalog and graph that [`VectorIndex::to_mapped_bytes`] wrote:
    /// re-encoding reproduces the payload (less any unknown sections) and
    /// `search` answers bit-identically. Strict: a bad magic or version, a
    /// missing section, or sections that disagree with the header all
    /// fail.
    pub fn from_mapped_bytes(bytes: &[u8]) -> Result<VectorIndex, String> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err("not a KGVI mapped catalog (bad magic)".into());
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported KGVI version {version} (reader supports {FORMAT_VERSION})"
            ));
        }
        let mut header: Option<(usize, usize)> = None;
        let mut vector_block: Option<&[u8]> = None;
        let mut name_block: Option<&[u8]> = None;
        let mut hnsw: Option<Hnsw> = None;
        while !r.at_end() {
            let tag = r.u32()?;
            let len = r.u64()? as usize;
            let payload = r.take(len)?;
            match tag {
                TAG_HEADER => {
                    let mut h = Reader::new(payload);
                    let count = h.u64()? as usize;
                    let dim = h.u32()? as usize;
                    h.expect_end("KGVI header")?;
                    header = Some((count, dim));
                }
                TAG_VECTORS => vector_block = Some(payload),
                TAG_NAMES => name_block = Some(payload),
                TAG_HNSW => hnsw = Some(Hnsw::from_bytes(payload)?),
                // Unknown sections — a newer writer's, or the retired PQ
                // tags 5 and 6 of an older one — are skipped.
                _ => {}
            }
        }
        let (count, dim) = header.ok_or("KGVI missing header section")?;
        let vector_block = vector_block.ok_or("KGVI missing vectors section")?;
        let names = decode_names(name_block.ok_or("KGVI missing names section")?, count)?;
        let expected = count
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or("KGVI vector section size overflows")?;
        if vector_block.len() != expected {
            return Err(format!(
                "KGVI vectors section holds {} bytes, header implies {expected}",
                vector_block.len()
            ));
        }
        // `count` is now bounded by the name offset table actually read.
        let mut v = Reader::new(vector_block);
        let mut vectors = Vec::with_capacity(count);
        for _ in 0..count {
            vectors.push((0..dim).map(|_| v.f64()).collect::<Result<Vec<f64>, _>>()?);
        }
        VectorIndex::from_parts(names, vectors, hnsw)
    }
}

/// Decodes the names section — `u64 count · (count+1) offsets · blob` —
/// requiring monotone offsets that start at 0, end at the blob's end, and
/// slice it into valid UTF-8.
fn decode_names(block: &[u8], count: usize) -> Result<Vec<String>, String> {
    let mut r = Reader::new(block);
    let name_count = r.u64()? as usize;
    if name_count != count {
        return Err(format!(
            "KGVI names section lists {name_count} names for {count} vectors"
        ));
    }
    let table_len = count
        .checked_add(1)
        .and_then(|c| c.checked_mul(8))
        .ok_or("KGVI name offset table size overflows")?;
    let mut table = Reader::new(r.take(table_len)?);
    let blob = r.take(r.remaining())?;
    let mut names = Vec::with_capacity(count);
    let mut prev = table.u64()?;
    if prev != 0 {
        return Err("KGVI name offsets must start at 0".into());
    }
    for i in 0..count {
        let off = table.u64()?;
        let name = blob
            .get(prev as usize..off as usize)
            .ok_or_else(|| format!("KGVI name offset {i} out of order or out of range"))?;
        let name =
            std::str::from_utf8(name).map_err(|_| format!("KGVI name {i} is not valid UTF-8"))?;
        names.push(name.to_string());
        prev = off;
    }
    if prev != blob.len() as u64 {
        return Err("KGVI name offsets do not cover the blob".into());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::HnswConfig;

    fn catalog(n: usize, dim: usize) -> VectorIndex {
        let mut idx = VectorIndex::new();
        for i in 0..n {
            let v: Vec<f64> = (0..dim)
                .map(|d| ((i * dim + d) as f64 * 0.41).sin())
                .collect();
            idx.add(format!("table-{i}"), v);
        }
        idx
    }

    /// Rebuilds a `KGVI` payload keeping only the sections `keep` admits.
    fn filter_sections(full: &[u8], keep: impl Fn(u32) -> bool) -> Vec<u8> {
        let mut r = Reader::new(full);
        r.take(8).unwrap(); // magic + version
        let mut out = full[..8].to_vec();
        while !r.at_end() {
            let tag = r.u32().unwrap();
            let len = r.u64().unwrap() as usize;
            let payload = r.take(len).unwrap();
            if keep(tag) {
                section(&mut out, tag, payload);
            }
        }
        out
    }

    /// Exact and HNSW catalogs survive `to_mapped_bytes →
    /// from_mapped_bytes` with identical names, vector bits, tier, and
    /// re-encoded bytes, and answer `search` bit-identically.
    #[test]
    fn kgvi_roundtrip_is_byte_and_answer_identical() {
        for graph in [false, true] {
            let mut idx = catalog(120, 8);
            if graph {
                idx.build_hnsw(HnswConfig::default());
            }
            let bytes = idx.to_mapped_bytes().unwrap();
            let decoded = VectorIndex::from_mapped_bytes(&bytes).unwrap();
            let what = format!("graph={graph}");
            assert_eq!(decoded.to_mapped_bytes().unwrap(), bytes, "{what}");
            assert_eq!(decoded.to_bytes(), idx.to_bytes(), "{what}");
            assert_eq!(decoded.stats(), idx.stats(), "{what}");
            for q in 0..12 {
                let query = idx.vector(q).unwrap().to_vec();
                let (a, b) = (idx.search(&query, 5), decoded.search(&query, 5));
                assert_eq!(a.len(), b.len());
                for ((na, sa), (nb, sb)) in a.iter().zip(&b) {
                    assert_eq!(na, nb, "{what} query {q}");
                    assert_eq!(sa.to_bits(), sb.to_bits(), "{what} query {q}");
                }
            }
        }
    }

    #[test]
    fn mapped_bytes_are_deterministic() {
        let mut idx = catalog(30, 4);
        idx.build_hnsw(HnswConfig::default());
        assert_eq!(
            idx.to_mapped_bytes().unwrap(),
            idx.to_mapped_bytes().unwrap()
        );
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let bytes = VectorIndex::new().to_mapped_bytes().unwrap();
        let decoded = VectorIndex::from_mapped_bytes(&bytes).unwrap();
        assert!(decoded.is_empty());
        assert!(decoded.search(&[1.0, 0.0], 3).is_empty());
    }

    #[test]
    fn decode_rejects_malformed_files() {
        let idx = catalog(5, 3);
        let bytes = idx.to_mapped_bytes().unwrap();
        assert!(VectorIndex::from_mapped_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(VectorIndex::from_mapped_bytes(b"NOPE").is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(VectorIndex::from_mapped_bytes(&bad_version).is_err());
        let no_names = filter_sections(&bytes, |tag| tag != TAG_NAMES);
        assert!(VectorIndex::from_mapped_bytes(&no_names).is_err());
        let mut ragged = VectorIndex::new();
        ragged.add("a", vec![1.0, 0.0]);
        ragged.add("b", vec![1.0]);
        assert!(ragged.to_mapped_bytes().is_err());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let idx = catalog(4, 2);
        let mut bytes = idx.to_mapped_bytes().unwrap();
        // Append an unknown tag-99 section; the reader must ignore it.
        section(&mut bytes, 99, b"future data");
        let decoded = VectorIndex::from_mapped_bytes(&bytes).unwrap();
        assert_eq!(decoded.len(), 4);
    }

    #[test]
    fn file_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join("kgpip-mapped-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.kgvi");
        let mut idx = catalog(20, 4);
        idx.build_hnsw(HnswConfig::default());
        idx.write_mapped(&path).unwrap();
        let decoded = VectorIndex::open_mapped(&path).unwrap();
        let query = idx.vector(3).unwrap().to_vec();
        assert_eq!(idx.search(&query, 3), decoded.search(&query, 3));
        std::fs::remove_file(&path).ok();
    }
}
