//! The versioned binary snapshot format for [`TrainedModel`] artifacts.
//!
//! KGPS is the only format this build writes. The JSON-era model documents
//! of earlier builds re-parsed every parameter scalar through a text
//! representation — fine for reproduction runs, wrong for a serving fleet
//! that reloads models behind traffic; [`TrainedModel::open`] still reads
//! them, so `kgpip-cli snapshot` can convert them. The snapshot format is
//! a flat, little-endian, single-pass layout:
//!
//! ```text
//! magic  b"KGPS"                      (4 bytes)
//! u32    format version               (currently 3)
//! then length-prefixed sections until end of input:
//!   u32 tag, u64 payload length, payload bytes
//!     tag 1  system config            (KgpipConfig, JSON — tiny)
//!     tag 2  conditioning center      (u64 dim + f64 each)
//!     tag 3  op vocabulary            (u64 count + length-prefixed names)
//!     tag 4  generator                (JSON GeneratorConfig + raw f32
//!                                      parameter tensors in registration
//!                                      order)
//!     tag 5  similarity index         (VectorIndex::to_bytes payload)
//!     tag 6  per-dataset embeddings   (u64 count + name + f64 vector)
//! ```
//!
//! Versioning rules: readers accept exactly the versions they know;
//! *unknown section tags* within a known version are skipped (room for
//! additive sections without a version bump), while any layout change to
//! an existing section requires bumping [`Snapshot::FORMAT_VERSION`]. The
//! vocabulary section exists purely as a guard — type ids in the generator
//! parameters are meaningless if the op vocabulary ever drifts, so loading
//! fails loudly instead of decoding garbage pipelines.
//!
//! Version history: v2 extended the tag-5 index payload with an optional
//! trailing HNSW graph block; v3 appended an optional product-quantized
//! store (codebooks + code matrix) after it. v3's PQ tail is now always
//! absent on write and skipped on read. `VectorIndex::from_bytes`
//! tolerates each tail's absence, so this build still reads v1 and v2
//! snapshots; it always writes v3.
//!
//! Every count in the format is untrusted: reservations are capped by the
//! bytes left in the section divided by the element's minimum encoded
//! size, so a forged length prefix costs an error, never an allocation.

use crate::artifact::TrainedModel;
use crate::train::KgpipConfig;
use crate::{KgpipError, Result};
use kgpip_codegraph::OpVocab;
use kgpip_embeddings::VectorIndex;
use kgpip_graphgen::{GeneratorConfig, GraphGenerator};
use kgpip_nn::Tensor;
use std::collections::HashMap;

const TAG_CONFIG: u32 = 1;
const TAG_CENTER: u32 = 2;
const TAG_VOCAB: u32 = 3;
const TAG_GENERATOR: u32 = 4;
const TAG_INDEX: u32 = 5;
const TAG_EMBEDDINGS: u32 = 6;

/// A parsed model snapshot: the format version it was written with plus
/// the decoded artifact.
#[derive(Debug)]
pub struct Snapshot {
    /// Format version of the source bytes.
    pub version: u32,
    /// The decoded model.
    pub model: TrainedModel,
}

impl Snapshot {
    /// File magic identifying a KGpip binary snapshot.
    pub const MAGIC: [u8; 4] = *b"KGPS";
    /// The snapshot format version this build writes.
    pub const FORMAT_VERSION: u32 = 3;
    /// The oldest snapshot format version this build still reads (v1
    /// lacks the HNSW tail in the index section and v2 lacks the retired
    /// PQ tail after it; the index decoder tolerates both absences).
    pub const MIN_READ_VERSION: u32 = 1;

    /// Parses a snapshot from bytes produced by
    /// [`TrainedModel::snapshot_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != Self::MAGIC {
            return Err(persist("not a KGpip snapshot (bad magic)"));
        }
        let version = r.u32()?;
        if !(Self::MIN_READ_VERSION..=Self::FORMAT_VERSION).contains(&version) {
            return Err(persist(format!(
                "unsupported snapshot format version {version} (this build reads {}..={})",
                Self::MIN_READ_VERSION,
                Self::FORMAT_VERSION
            )));
        }

        let mut config: Option<KgpipConfig> = None;
        let mut center: Option<Vec<f64>> = None;
        let mut vocab_names: Option<Vec<String>> = None;
        let mut generator: Option<GraphGenerator> = None;
        let mut index: Option<VectorIndex> = None;
        let mut embeddings: Option<HashMap<String, Vec<f64>>> = None;
        while !r.at_end() {
            let tag = r.u32()?;
            let len = r.u64()? as usize;
            let payload = r.take(len)?;
            let mut s = Reader::new(payload);
            match tag {
                TAG_CONFIG => {
                    let json = std::str::from_utf8(payload).map_err(persist)?;
                    config = Some(serde_json::from_str(json).map_err(persist)?);
                }
                TAG_CENTER => {
                    center = Some(s.f64s()?);
                    s.expect_end("conditioning center")?;
                }
                TAG_VOCAB => {
                    let n = s.u64()? as usize;
                    // Each name carries at least its 8-byte length prefix.
                    let mut names = Vec::with_capacity(n.min(s.remaining() / 8));
                    for _ in 0..n {
                        names.push(s.str()?);
                    }
                    s.expect_end("vocabulary")?;
                    vocab_names = Some(names);
                }
                TAG_GENERATOR => {
                    let cfg_len = s.u64()? as usize;
                    let cfg_json = std::str::from_utf8(s.take(cfg_len)?).map_err(persist)?;
                    let cfg: GeneratorConfig = serde_json::from_str(cfg_json).map_err(persist)?;
                    let count = s.u64()? as usize;
                    // Each tensor carries at least a name prefix and its
                    // two u32 dimensions.
                    let mut params = Vec::with_capacity(count.min(s.remaining() / 16));
                    for _ in 0..count {
                        let _name = s.str()?;
                        let rows = s.u32()? as usize;
                        let cols = s.u32()? as usize;
                        let len = rows.saturating_mul(cols);
                        let mut data = Vec::with_capacity(len.min(s.remaining() / 4));
                        for _ in 0..len {
                            data.push(f32::from_le_bytes(s.array()?));
                        }
                        params.push(Tensor::from_vec(data, rows, cols).map_err(persist)?);
                    }
                    s.expect_end("generator")?;
                    generator = Some(GraphGenerator::from_params(cfg, params).map_err(persist)?);
                }
                TAG_INDEX => {
                    index = Some(VectorIndex::from_bytes(payload).map_err(persist)?);
                }
                TAG_EMBEDDINGS => {
                    let n = s.u64()? as usize;
                    // Each entry carries at least two 8-byte length prefixes.
                    let mut map = HashMap::with_capacity(n.min(s.remaining() / 16));
                    for _ in 0..n {
                        let name = s.str()?;
                        let vector = s.f64s()?;
                        map.insert(name, vector);
                    }
                    s.expect_end("embeddings")?;
                    embeddings = Some(map);
                }
                // Unknown additive section from a newer writer of the same
                // format version: skip.
                _ => {}
            }
        }

        let vocab = OpVocab::new();
        let stored =
            vocab_names.ok_or_else(|| persist("snapshot is missing the vocabulary section"))?;
        let current: Vec<&str> = vocab.ops().iter().map(|op| op.name()).collect();
        if stored != current {
            return Err(persist(format!(
                "snapshot vocabulary ({} ops) does not match this build ({} ops); \
                 the model cannot be decoded safely",
                stored.len(),
                current.len()
            )));
        }
        let config = config.ok_or_else(|| persist("snapshot is missing the config section"))?;
        check_temperature(&config)?;
        let model = TrainedModel {
            config,
            embedding_center: center
                .ok_or_else(|| persist("snapshot is missing the conditioning-center section"))?,
            vocab,
            generator: generator
                .ok_or_else(|| persist("snapshot is missing the generator section"))?,
            index: index.ok_or_else(|| persist("snapshot is missing the index section"))?,
            embeddings: embeddings
                .ok_or_else(|| persist("snapshot is missing the embeddings section"))?,
        };
        Ok(Snapshot { version, model })
    }

    /// Reads a snapshot file written by [`TrainedModel::snapshot`].
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<Snapshot> {
        let bytes = std::fs::read(path).map_err(persist)?;
        Snapshot::from_bytes(&bytes)
    }
}

impl TrainedModel {
    /// Serializes the artifact into the binary snapshot format.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&Snapshot::MAGIC);
        out.extend_from_slice(&Snapshot::FORMAT_VERSION.to_le_bytes());

        let config_json = serde_json::to_string(&self.config).map_err(persist)?;
        section(&mut out, TAG_CONFIG, config_json.as_bytes());

        let mut center = Vec::new();
        write_f64s(&mut center, &self.embedding_center);
        section(&mut out, TAG_CENTER, &center);

        let mut vocab = Vec::new();
        write_u64(&mut vocab, self.vocab.ops().len() as u64);
        for op in self.vocab.ops() {
            write_str(&mut vocab, op.name());
        }
        section(&mut out, TAG_VOCAB, &vocab);

        let mut generator = Vec::new();
        let cfg_json = serde_json::to_string(self.generator.config()).map_err(persist)?;
        write_u64(&mut generator, cfg_json.len() as u64);
        generator.extend_from_slice(cfg_json.as_bytes());
        let params: Vec<_> = self.generator.params().collect();
        write_u64(&mut generator, params.len() as u64);
        for (name, tensor) in params {
            write_str(&mut generator, name);
            generator.extend_from_slice(&(tensor.rows() as u32).to_le_bytes());
            generator.extend_from_slice(&(tensor.cols() as u32).to_le_bytes());
            for x in tensor.as_slice() {
                generator.extend_from_slice(&x.to_le_bytes());
            }
        }
        section(&mut out, TAG_GENERATOR, &generator);

        section(&mut out, TAG_INDEX, &self.index.to_bytes());

        // Embeddings are written in catalog (index) order so identical
        // models produce identical snapshot bytes.
        let mut embeddings = Vec::new();
        write_u64(&mut embeddings, self.embeddings.len() as u64);
        let mut written = 0usize;
        for i in 0..self.index.len() {
            let name = self.index.name(i);
            if let Some(vector) = self.embeddings.get(name) {
                write_str(&mut embeddings, name);
                write_f64s(&mut embeddings, vector);
                written += 1;
            }
        }
        debug_assert_eq!(written, self.embeddings.len(), "catalog covers embeddings");
        section(&mut out, TAG_EMBEDDINGS, &embeddings);

        Ok(out)
    }

    /// Writes the artifact to a snapshot file (see [`Snapshot`] for the
    /// format).
    pub fn snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.snapshot_bytes()?).map_err(persist)
    }

    /// Opens a model artifact from disk, accepting either a binary
    /// snapshot (sniffed by magic) or a JSON-era model document written
    /// by earlier builds — the single loader deployments should use.
    ///
    /// A JSON-era document passes the checks the KGPS reader applies: its
    /// index decodes through the same name/vector/graph agreement check
    /// as `VectorIndex::from_bytes`, and its generator is rebuilt from
    /// the config and the parameter tensors by
    /// [`GraphGenerator::from_params`], never trusted field by field.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<TrainedModel> {
        let bytes = std::fs::read(path).map_err(persist)?;
        if bytes.get(..4).is_some_and(|magic| magic == Snapshot::MAGIC) {
            return Ok(Snapshot::from_bytes(&bytes)?.model);
        }
        let json = std::str::from_utf8(&bytes)
            .map_err(|_| persist("file is neither a KGPS snapshot nor UTF-8 JSON"))?;
        let doc: JsonEraModel = serde_json::from_str(json).map_err(persist)?;
        check_temperature(&doc.config)?;
        Ok(TrainedModel {
            config: doc.config,
            embedding_center: doc.embedding_center,
            vocab: doc.vocab,
            generator: doc.generator.rebuild()?,
            index: doc.index,
            embeddings: doc.embeddings,
        })
    }
}

/// The artifact fields of a JSON-era model document. Fields are looked up
/// by name, so the document's train-time `graph4ml` and `stats` keys are
/// skipped.
#[derive(serde::Deserialize)]
struct JsonEraModel {
    config: KgpipConfig,
    embedding_center: Vec<f64>,
    vocab: OpVocab,
    generator: JsonEraGenerator,
    index: VectorIndex,
    embeddings: HashMap<String, Vec<f64>>,
}

/// The keys of a JSON-era generator the decoder reads. Its parameter
/// handles and gradients are not read: [`JsonEraGenerator::rebuild`]
/// re-derives them from the config.
#[derive(serde::Deserialize)]
struct JsonEraGenerator {
    config: GeneratorConfig,
    store: JsonEraParams,
}

/// Parameter values and names in registration order.
#[derive(serde::Deserialize)]
struct JsonEraParams {
    values: Vec<JsonEraTensor>,
    names: Vec<String>,
}

/// A row-major tensor as JSON-era documents carry it.
#[derive(serde::Deserialize)]
struct JsonEraTensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl JsonEraGenerator {
    /// Rebuilds the generator the way the KGPS reader does — shape-checked
    /// tensors through [`GraphGenerator::from_params`] — and requires the
    /// stored names to be the ones the config registers.
    fn rebuild(self) -> Result<GraphGenerator> {
        let params = self
            .store
            .values
            .into_iter()
            .map(|t| Tensor::from_vec(t.data, t.rows, t.cols).map_err(persist))
            .collect::<Result<Vec<_>>>()?;
        let generator = GraphGenerator::from_params(self.config, params).map_err(persist)?;
        if !generator
            .params()
            .map(|(name, _)| name)
            .eq(self.store.names.iter().map(String::as_str))
        {
            return Err(persist(format!(
                "generator lists {} parameter names that differ from the {} its config registers",
                self.store.names.len(),
                generator.params().count()
            )));
        }
        Ok(generator)
    }
}

/// Rejects a sampling temperature generation cannot use. At `0` the
/// softmax divides `0/0` for the top class, every draw picks STOP, and the
/// model would open cleanly yet serve only the fallback skeleton.
fn check_temperature(config: &KgpipConfig) -> Result<()> {
    let t = config.temperature;
    if t.is_finite() && t > 0.0 {
        Ok(())
    } else {
        Err(persist(format!(
            "sampling temperature {t} is not a finite positive number"
        )))
    }
}

fn persist(e: impl ToString) -> KgpipError {
    KgpipError::Persistence(e.to_string())
}

fn section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    write_u64(out, xs.len() as u64);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| persist(format!("snapshot truncated at byte {}", self.pos)))?;
        // xlint: allow(panic-in-serve-path): end was bounds-checked against bytes.len() on the line above
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into an array, with the same truncation
    /// error as [`Reader::take`] — the panic-free alternative to
    /// `take(N)?.try_into().unwrap()` on the serve/load path.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u64()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(persist)
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        let len = self.u64()? as usize;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 8));
        for _ in 0..len {
            out.push(f64::from_le_bytes(self.array()?));
        }
        Ok(out)
    }

    fn expect_end(&self, what: &str) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(persist(format!(
                "trailing bytes in {what} section ({} of {})",
                self.pos,
                self.bytes.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::Kgpip;
    use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
    use kgpip_codegraph::Graph4Ml;
    use kgpip_hpo::{Flaml, Optimizer};
    use kgpip_tabular::{Column, DataFrame, Dataset, Task};

    /// The JSON-era model document as earlier builds wrote it: the six
    /// artifact fields plus the train-time Graph4ML and stats.
    #[derive(serde::Serialize)]
    struct JsonEraWire {
        config: KgpipConfig,
        embedding_center: Vec<f64>,
        vocab: OpVocab,
        generator: GraphGenerator,
        index: Raw,
        embeddings: HashMap<String, Vec<f64>>,
        graph4ml: Graph4Ml,
        stats: JsonEraStats,
    }

    /// A JSON tree written as is.
    struct Raw(serde::Value);

    impl serde::Serialize for Raw {
        fn to_value(&self) -> serde::Value {
            self.0.clone()
        }
    }

    /// The stats block of the JSON-era layout.
    #[derive(serde::Serialize)]
    struct JsonEraStats {
        scripts: usize,
        valid_pipelines: usize,
        unparsable: usize,
        datasets: usize,
        total_nodes: usize,
        total_edges: usize,
        training_secs: f64,
        epoch_losses: Vec<f32>,
    }

    fn table(offset: f64, n: usize) -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "f0".to_string(),
                Column::from_f64((0..n).map(|i| offset + (i % 10) as f64).collect::<Vec<_>>()),
            ),
            (
                "f1".to_string(),
                Column::from_f64((0..n).map(|i| offset + (i % 7) as f64).collect::<Vec<_>>()),
            ),
        ])
        .unwrap()
    }

    fn trained() -> Kgpip {
        let profiles = vec![
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", false),
        ];
        let scripts = generate_corpus(
            &profiles,
            &CorpusConfig {
                scripts_per_dataset: 6,
                ..CorpusConfig::default()
            },
        );
        let tables = vec![
            ("alpha".to_string(), table(0.0, 30)),
            ("beta".to_string(), table(500.0, 30)),
        ];
        let config = KgpipConfig::default().with_generator(GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            epochs: 2,
            ..GeneratorConfig::default()
        });
        Kgpip::train(&scripts, &tables, config).unwrap()
    }

    fn json_era_wire(run: &Kgpip) -> JsonEraWire {
        let model = run.artifact();
        let stats = run.stats();
        // Earlier builds' index also carried product-quantization state
        // and a build worker count; this build no longer writes either.
        let serde::Value::Obj(mut index) = serde::Serialize::to_value(&model.index) else {
            panic!("an index serializes to an object");
        };
        index.push(("pq".into(), serde::Value::Null));
        index.push(("parallelism".into(), serde::Value::Num(serde::Number::U(0))));
        JsonEraWire {
            config: model.config.clone(),
            embedding_center: model.embedding_center.clone(),
            vocab: model.vocab.clone(),
            generator: model.generator.clone(),
            index: Raw(serde::Value::Obj(index)),
            embeddings: model.embeddings.clone(),
            graph4ml: run.graph4ml().clone(),
            stats: JsonEraStats {
                scripts: stats.scripts,
                valid_pipelines: stats.valid_pipelines,
                unparsable: stats.unparsable,
                datasets: stats.datasets,
                total_nodes: stats.total_nodes,
                total_edges: stats.total_edges,
                training_secs: stats.training_secs,
                epoch_losses: stats.epoch_losses.clone(),
            },
        }
    }

    /// Writes `wire` as a JSON-era document and opens it.
    fn open_json_era(wire: &JsonEraWire, tag: &str) -> Result<TrainedModel> {
        let path =
            std::env::temp_dir().join(format!("kgpip_json_era_{tag}_{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(wire).unwrap()).unwrap();
        let opened = TrainedModel::open(&path);
        std::fs::remove_file(&path).ok();
        opened
    }

    #[test]
    fn json_era_document_opens_with_identical_predictions() {
        let run = trained();
        let model = run.artifact();
        let opened = open_json_era(&json_era_wire(&run), "ok").unwrap();

        let caps = Flaml::new(0).capabilities();
        for offset in [1.0, 250.0, 499.0] {
            let features = table(offset, 40);
            let y: Vec<f64> = (0..40).map(|i| f64::from(i % 10 > 4)).collect();
            let ds = Dataset::new("unseen", features, y, Task::Binary).unwrap();
            let (a, na) = model.predict_skeletons(&ds, 3, &caps, 7).unwrap();
            let (b, nb) = opened.predict_skeletons(&ds, 3, &caps, 7).unwrap();
            assert_eq!(na, nb);
            assert_eq!(a.len(), b.len());
            for ((s1, g1), (s2, g2)) in a.iter().zip(&b) {
                assert_eq!(s1, s2);
                assert_eq!(g1.to_bits(), g2.to_bits());
            }
        }
        // The decoded artifact re-encodes to the original's snapshot.
        assert_eq!(
            opened.snapshot_bytes().unwrap(),
            model.snapshot_bytes().unwrap()
        );
    }

    /// A temperature sampling cannot use is a persistence error in both
    /// formats, not a model that opens and serves only the fallback.
    #[test]
    fn unusable_temperature_is_rejected_by_both_decoders() {
        let run = trained();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut model = run.artifact().clone();
            model.config.temperature = bad;
            let bytes = model.snapshot_bytes().unwrap();
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes),
                    Err(KgpipError::Persistence(_))
                ),
                "KGPS snapshot with temperature {bad} must not open"
            );
            // JSON has no NaN or infinity; the JSON-era document can only
            // carry a finite bad temperature.
            if bad.is_finite() {
                let mut wire = json_era_wire(&run);
                wire.config.temperature = bad;
                assert!(
                    matches!(
                        open_json_era(&wire, "bad_temperature"),
                        Err(KgpipError::Persistence(_))
                    ),
                    "JSON-era document with temperature {bad} must not open"
                );
            }
        }
        let bytes = run.artifact().snapshot_bytes().unwrap();
        assert!(Snapshot::from_bytes(&bytes).is_ok());
    }

    /// Pushes `extra` onto the array at `path` inside `doc`'s JSON tree.
    fn push_at(run: &Kgpip, path: &[&str], extra: serde::Value) -> serde::Value {
        let mut doc = serde::Serialize::to_value(&json_era_wire(run));
        let mut at = &mut doc;
        for key in path {
            let serde::Value::Obj(fields) = at else {
                panic!("`{key}` is not inside an object");
            };
            at = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let serde::Value::Arr(items) = at else {
            panic!("{path:?} is not an array");
        };
        items.push(extra);
        doc
    }

    /// Writes a JSON tree as a JSON-era document and opens it.
    fn open_json_value(doc: &serde::Value, tag: &str) -> Result<TrainedModel> {
        let path =
            std::env::temp_dir().join(format!("kgpip_json_era_{tag}_{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&Raw(doc.clone())).unwrap()).unwrap();
        let opened = TrainedModel::open(&path);
        std::fs::remove_file(&path).ok();
        opened
    }

    /// An index naming more datasets than it holds vectors would answer
    /// nearest-dataset lookups with a name that has no vector, and
    /// re-encode to a snapshot nothing can read.
    #[test]
    fn json_era_index_with_an_extra_name_is_a_persistence_error() {
        let run = trained();
        let doc = push_at(&run, &["index", "names"], serde::Value::Str("ghost".into()));
        assert!(matches!(
            open_json_value(&doc, "extra_index_name"),
            Err(KgpipError::Persistence(_))
        ));
    }

    /// A generator whose parameter names disagree with its config would
    /// open and then panic when re-encoded.
    #[test]
    fn json_era_generator_with_an_extra_param_name_is_a_persistence_error() {
        let run = trained();
        let doc = push_at(
            &run,
            &["generator", "store", "names"],
            serde::Value::Str("ghost".into()),
        );
        assert!(matches!(
            open_json_value(&doc, "extra_param_name"),
            Err(KgpipError::Persistence(_))
        ));
        // A parameter tensor the config does not register is refused too.
        let extra = serde::Serialize::to_value(&Tensor::zeros(1, 1));
        let doc = push_at(&run, &["generator", "store", "values"], extra);
        assert!(matches!(
            open_json_value(&doc, "extra_param_value"),
            Err(KgpipError::Persistence(_))
        ));
    }
}
