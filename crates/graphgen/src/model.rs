//! The graph generator model: typed-graph GNN with decision heads.
//!
//! The model is deliberately generic over the node-type vocabulary (a
//! `vocab_size` and dense type ids) so that the same machinery trains on
//! both KGpip's filtered pipeline vocabulary and — for the Table 3 ablation
//! — on raw code-graph label vocabularies.

use crate::sequence::{decisions_for, Decision};
use kgpip_codegraph::{OpVocab, PipelineGraph, PipelineOp};
use kgpip_nn::{Adam, GruCell, Linear, Mlp, ParamId, ParamStore, Tape, Tensor, TensorRef};
use kgpip_tabular::{effective_parallelism, map_ordered};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Decorrelates derived RNG streams (the 64-bit golden-ratio constant of
/// splitmix64): attempt `i` of `generate_top_k` samples from
/// `seed ⊕ (i · GOLDEN)`, so the candidate set is a pure function of the
/// seed and attempt index, independent of worker count.
const RNG_STREAM_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Attempts per sampling wave in [`GraphGenerator::generate_top_k`].
/// Waves exist only for the `distinct_target` early-exit check: without a
/// target every attempt runs as one fan-out, with no barrier between
/// waves. The wave size is a fixed constant (not tied to `parallelism`)
/// so the early exit fires after the same attempt prefix at any worker
/// count.
const SAMPLE_WAVE: usize = 8;

/// Most attempts [`GraphGenerator::generate_top_k`] runs in one fan-out
/// when there is no `distinct_target`. A fan-out holds every attempt's
/// result until it ends, so this bounds the memory a huge (untrusted) `k`
/// can claim; every budget up to it (any `k ≤ 1024`) is one fan-out.
const MAX_FAN_OUT: usize = 4096;

/// Most graph states one generation call keeps in its memo. A k = 3
/// request visits about 370 distinct states; past the cap a state is
/// still computed, just not kept, so an untrusted `k` cannot grow the
/// memo (each entry holds at most `max_nodes + 1` rows of `hidden`
/// floats).
const MEMO_CAP: usize = 1024;

/// One training example's contribution: scalar loss plus its parameter
/// gradients, exactly as returned by `Tape::backward`.
type ExampleGrad = (f32, Vec<(ParamId, Tensor)>);

/// A graph over dense type ids — the generator's native representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TypedGraph {
    /// Node type ids (`types[0]` is the dataset anchor).
    pub types: Vec<usize>,
    /// Directed edges `(from, to)` with `from < to`.
    pub edges: Vec<(usize, usize)>,
}

impl TypedGraph {
    /// Encodes a pipeline graph through the op vocabulary.
    pub fn encode(graph: &PipelineGraph, vocab: &OpVocab) -> TypedGraph {
        TypedGraph {
            types: graph.ops.iter().map(|op| vocab.id(*op)).collect(),
            edges: graph.edges.clone(),
        }
    }

    /// Decodes back into a pipeline graph.
    pub fn decode(&self, vocab: &OpVocab) -> PipelineGraph {
        PipelineGraph {
            ops: self.types.iter().map(|&t| vocab.op(t)).collect(),
            edges: self.edges.clone(),
        }
    }

    /// The standard conditional-generation prefix (paper §3.5): a dataset
    /// node connected to a `read_csv` node.
    pub fn conditioning_prefix(vocab: &OpVocab) -> TypedGraph {
        TypedGraph {
            types: vec![vocab.id(PipelineOp::Dataset), vocab.id(PipelineOp::ReadCsv)],
            edges: vec![(0, 1)],
        }
    }
}

/// Generator hyperparameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GeneratorConfig {
    /// Node-type vocabulary size (decision head emits `vocab_size + 1`
    /// logits; the extra class is STOP).
    pub vocab_size: usize,
    /// Dataset content-embedding input dimension.
    pub embed_dim: usize,
    /// Hidden state width.
    pub hidden: usize,
    /// Message-passing rounds per state computation (paper §3.5: "node
    /// embeddings that are learned throughout the training via graph
    /// propagation rounds").
    pub prop_rounds: usize,
    /// Training epochs (the paper's Table 3 ablation uses 15).
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Hard cap on generated nodes (including the prefix).
    pub max_nodes: usize,
    /// Hard cap on incoming edges per generated node.
    pub max_edges_per_node: usize,
    /// Parameter-init and training-shuffle seed.
    pub seed: u64,
    /// Worker threads for training batches, evaluation, and top-K
    /// sampling (1 = sequential). Results are bit-for-bit identical at
    /// any setting; see the determinism contract in DESIGN.md.
    #[serde(default = "default_parallelism")]
    pub parallelism: usize,
    /// Optional early exit for [`GraphGenerator::generate_top_k`]: stop
    /// sampling at the first wave boundary where this many distinct
    /// graphs have been collected. `None` spends the full attempt budget
    /// as one fan-out.
    #[serde(default)]
    pub distinct_target: Option<usize>,
}

fn default_parallelism() -> usize {
    1
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            vocab_size: OpVocab::new().len(),
            embed_dim: 48,
            hidden: 32,
            prop_rounds: 2,
            epochs: 15,
            batch_size: 8,
            learning_rate: 0.01,
            max_nodes: 12,
            max_edges_per_node: 3,
            seed: 0,
            parallelism: 1,
            distinct_target: None,
        }
    }
}

/// One training example: a dataset's content embedding plus one filtered
/// pipeline graph mined for it.
#[derive(Debug, Clone)]
pub struct TrainExample {
    /// Content embedding of the associated dataset (length = `embed_dim`).
    pub dataset_embedding: Vec<f64>,
    /// The pipeline graph in typed form (node 0 = dataset anchor).
    pub graph: TypedGraph,
}

/// A generated graph with its sampling score.
#[derive(Debug, Clone)]
pub struct GeneratedGraph {
    /// The generated typed graph (includes the conditioning prefix).
    pub graph: TypedGraph,
    /// Sum of log-probabilities of all sampled decisions — the "score
    /// (probability) of each graph" of §3.5.
    pub log_prob: f64,
}

/// The deep graph generator.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct GraphGenerator {
    config: GeneratorConfig,
    store: ParamStore,
    type_emb: ParamId,
    ds_proj: Linear,
    msg_fwd: Mlp,
    msg_bwd: Mlp,
    gru: GruCell,
    graph_proj: Linear,
    head_addnode: Mlp,
    head_addedge: Mlp,
    head_pick: Mlp,
}

impl GraphGenerator {
    /// Creates a generator with freshly initialized parameters.
    pub fn new(config: GeneratorConfig) -> GraphGenerator {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let type_emb = store.xavier("type_emb", config.vocab_size, h, &mut rng);
        let ds_proj = Linear::new(&mut store, "ds_proj", config.embed_dim, h, &mut rng);
        let msg_fwd = Mlp::new(&mut store, "msg_fwd", 2 * h, h, h, &mut rng);
        let msg_bwd = Mlp::new(&mut store, "msg_bwd", 2 * h, h, h, &mut rng);
        let gru = GruCell::new(&mut store, "gru", h, h, &mut rng);
        let graph_proj = Linear::new(&mut store, "graph_proj", h, h, &mut rng);
        let head_addnode = Mlp::new(
            &mut store,
            "addnode",
            2 * h,
            h,
            config.vocab_size + 1,
            &mut rng,
        );
        let head_addedge = Mlp::new(&mut store, "addedge", 3 * h, h, 1, &mut rng);
        let head_pick = Mlp::new(&mut store, "pick", 2 * h, h, 1, &mut rng);
        GraphGenerator {
            config,
            store,
            type_emb,
            ds_proj,
            msg_fwd,
            msg_bwd,
            gru,
            graph_proj,
            head_addnode,
            head_addedge,
            head_pick,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Total trainable scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Overrides the worker count used by [`GraphGenerator::train`],
    /// [`GraphGenerator::evaluate`], and
    /// [`GraphGenerator::generate_top_k`]. Values below 1 clamp to 1.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.config.parallelism = workers.max(1);
    }

    /// Maps `idxs` through `f` in one contiguous chunk per worker (one
    /// tape each) and flattens the results in index order, so the output
    /// is identical at any worker count. The chunk length comes from the
    /// clamped width: at width 1 the whole slice is one chunk.
    fn map_chunks<U: Send>(&self, idxs: &[usize], f: impl Fn(&[usize]) -> Vec<U> + Sync) -> Vec<U> {
        let workers = effective_parallelism(self.config.parallelism);
        let chunks: Vec<&[usize]> = idxs.chunks(idxs.len().div_ceil(workers).max(1)).collect();
        map_ordered(workers, &chunks, |c| f(c))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Parameter tensors with their names, in registration order — the
    /// stable layout contract of the binary model snapshot. Registration
    /// order is fixed by [`GraphGenerator::new`], so index `i` here always
    /// denotes the same logical parameter for a given config.
    pub fn params(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.store
            .iter_ids()
            .map(|(id, name)| (name, self.store.value(id)))
    }

    /// Rebuilds a generator from its configuration and a parameter
    /// snapshot (tensors in registration order, as produced by
    /// [`GraphGenerator::params`]). Fails if the tensor count or any shape
    /// disagrees with what the config registers — the guard that a
    /// snapshot written by an incompatible config cannot silently load.
    pub fn from_params(
        config: GeneratorConfig,
        params: Vec<Tensor>,
    ) -> Result<GraphGenerator, String> {
        let mut generator = GraphGenerator::new(config);
        if params.len() != generator.store.len() {
            return Err(format!(
                "parameter snapshot holds {} tensors, config registers {}",
                params.len(),
                generator.store.len()
            ));
        }
        for (i, tensor) in params.into_iter().enumerate() {
            generator
                .store
                .load_tensor_at(i, tensor)
                .map_err(|e| e.to_string())?;
        }
        Ok(generator)
    }

    /// Computes node states for a partial graph: initial embeddings (type
    /// table rows; the dataset anchor uses the projected content
    /// embedding) refined by `prop_rounds` of bidirectional message
    /// passing with GRU updates.
    fn node_states(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let ds_base = self.ds_proj.forward(tape, ds_input)?;
        self.propagate(tape, graph, ds_base)
    }

    /// The propagation half of [`GraphGenerator::node_states`], from the
    /// already projected dataset embedding `ds_base`.
    fn propagate(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_base: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let n = graph.types.len();
        let hdim = self.config.hidden;
        let h0 = if n == 1 {
            ds_base
        } else {
            let table = tape.param(self.type_emb);
            let rest = tape.gather_rows(table, &graph.types[1..])?;
            tape.concat_rows(ds_base, rest)?
        };
        let mut h = tape.tanh(h0);
        for _ in 0..self.config.prop_rounds {
            let agg = if graph.edges.is_empty() {
                tape.zeros(n, hdim)
            } else {
                let src: Vec<usize> = graph.edges.iter().map(|(u, _)| *u).collect();
                let dst: Vec<usize> = graph.edges.iter().map(|(_, v)| *v).collect();
                let hs = tape.gather_rows(h, &src)?;
                let hd = tape.gather_rows(h, &dst)?;
                let fwd_in = tape.concat_cols(hs, hd)?;
                let m_f = self.msg_fwd.forward(tape, fwd_in)?;
                let agg_f = tape.scatter_sum_rows(m_f, &dst, n)?;
                let bwd_in = tape.concat_cols(hd, hs)?;
                let m_b = self.msg_bwd.forward(tape, bwd_in)?;
                let agg_b = tape.scatter_sum_rows(m_b, &src, n)?;
                tape.add(agg_f, agg_b)?
            };
            h = self.gru.forward(tape, h, agg)?;
        }
        Ok(h)
    }

    /// Graph-level readout: projected sum of node states.
    fn graph_state(&self, tape: &mut Tape, h: TensorRef) -> kgpip_nn::Result<TensorRef> {
        let s = tape.sum_rows(h);
        let p = self.graph_proj.forward(tape, s)?;
        Ok(tape.tanh(p))
    }

    /// Everything the decision heads read about one graph state, computed
    /// once from the projected dataset embedding `ds`: node states `h`
    /// and the readout `hg`.
    fn shared_state(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds: TensorRef,
    ) -> kgpip_nn::Result<SharedState> {
        let h = self.propagate(tape, graph, ds)?;
        let hg = self.graph_state(tape, h)?;
        Ok(SharedState { h, hg, ds })
    }

    /// The state after pushing a node of type `ty` onto a graph whose node
    /// states are `prev_h`, computing only the new node's row. The new node
    /// has no edge yet, so no message reaches or leaves it: the old rows
    /// of the full pass equal `prev_h` bit for bit, and the new row is
    /// `tanh(type_emb[ty])` through `prop_rounds` GRU steps on an all-zero
    /// aggregate — the `+0.0` rows the full pass gives an isolated node.
    /// The readout re-sums every row in order, so `h` and `hg` equal
    /// [`GraphGenerator::shared_state`] of the grown graph.
    fn added_node_state(
        &self,
        tape: &mut Tape,
        prev_h: &Tensor,
        ty: usize,
        ds: TensorRef,
    ) -> kgpip_nn::Result<SharedState> {
        let old = tape.input_from(prev_h);
        let table = tape.param(self.type_emb);
        let x = tape.gather_rows(table, &[ty])?;
        let mut row = tape.tanh(x);
        let agg = tape.zeros(1, self.config.hidden);
        for _ in 0..self.config.prop_rounds {
            row = self.gru.forward(tape, row, agg)?;
        }
        let h = tape.concat_rows(old, row)?;
        let hg = self.graph_state(tape, h)?;
        Ok(SharedState { h, hg, ds })
    }

    /// Add-node head: 1×(vocab + 1) logits, the last class being STOP.
    fn addnode_head(
        &self,
        tape: &mut Tape,
        hg: TensorRef,
        ds: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        // Condition the decision directly on the dataset embedding (the
        // conditional-generation modification of §3.5): without this the
        // dataset signal must survive propagation + sum pooling, and in
        // practice the head collapses to the corpus-global mode.
        let joint = tape.concat_cols(hg, ds)?;
        self.head_addnode.forward(tape, joint)
    }

    /// Add-edge head: a 1×1 logit from the readout, the newest node's
    /// state `ht` and the dataset embedding.
    fn addedge_head(
        &self,
        tape: &mut Tape,
        hg: TensorRef,
        ht: TensorRef,
        ds: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let pair = tape.concat_cols(hg, ht)?;
        let joint = tape.concat_cols(pair, ds)?;
        self.head_addedge.forward(tape, joint)
    }

    /// Pick-source head: 1×(n−1) logits over candidate source nodes for
    /// an edge into the newest node.
    fn pick_head(
        &self,
        tape: &mut Tape,
        h: TensorRef,
        newest: usize,
    ) -> kgpip_nn::Result<TensorRef> {
        let candidates: Vec<usize> = (0..newest).collect();
        let hu = tape.gather_rows(h, &candidates)?;
        let ht = tape.gather_rows(h, &vec![newest; newest])?;
        let joint = tape.concat_cols(hu, ht)?;
        let scores = self.head_pick.forward(tape, joint)?;
        tape.reshape(scores, 1, newest)
    }

    // The teacher-forced decisions below each recompute the node states of
    // their partial graph. Their tape-op order fixes the order in which
    // `backward` accumulates gradients, so it is part of the training
    // numerics: change it only with a change meant to move trained weights.

    fn addnode_logits(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let h = self.node_states(tape, graph, ds_input)?;
        let hg = self.graph_state(tape, h)?;
        let ds = self.ds_proj.forward(tape, ds_input)?;
        self.addnode_head(tape, hg, ds)
    }

    fn addedge_logit(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let h = self.node_states(tape, graph, ds_input)?;
        let hg = self.graph_state(tape, h)?;
        let newest = graph.types.len() - 1;
        let ht = tape.gather_rows(h, &[newest])?;
        let ds = self.ds_proj.forward(tape, ds_input)?;
        self.addedge_head(tape, hg, ht, ds)
    }

    fn pick_logits(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let h = self.node_states(tape, graph, ds_input)?;
        self.pick_head(tape, h, graph.types.len() - 1)
    }

    fn ds_tensor(&self, embedding: &[f64]) -> Tensor {
        let mut data: Vec<f32> = embedding.iter().map(|x| *x as f32).collect();
        data.resize(self.config.embed_dim, 0.0);
        Tensor::from_vec(data, 1, self.config.embed_dim).expect("resized to embed_dim")
    }

    /// Teacher-forced loss of one example; returns the scalar loss ref.
    fn example_loss(&self, tape: &mut Tape, example: &TrainExample) -> kgpip_nn::Result<TensorRef> {
        let ds_input = tape.input(self.ds_tensor(&example.dataset_embedding));
        let decisions = decisions_for(&example.graph.types, &example.graph.edges);
        let mut partial = TypedGraph {
            types: vec![example.graph.types[0]],
            edges: Vec::new(),
        };
        let mut losses: Vec<TensorRef> = Vec::new();
        for decision in decisions {
            match decision {
                Decision::AddNode(ty) => {
                    let logits = self.addnode_logits(tape, &partial, ds_input)?;
                    losses.push(tape.softmax_ce(logits, &[ty])?);
                    partial.types.push(ty);
                }
                Decision::Stop => {
                    let logits = self.addnode_logits(tape, &partial, ds_input)?;
                    losses.push(tape.softmax_ce(logits, &[self.config.vocab_size])?);
                }
                Decision::AddEdge(yes) => {
                    let logit = self.addedge_logit(tape, &partial, ds_input)?;
                    losses.push(tape.sigmoid_bce(logit, &[f32::from(yes)])?);
                }
                Decision::PickNode(u) => {
                    let logits = self.pick_logits(tape, &partial, ds_input)?;
                    losses.push(tape.softmax_ce(logits, &[u])?);
                    let newest = partial.types.len() - 1;
                    partial.edges.push((u, newest));
                }
            }
        }
        let mut total = losses[0];
        for l in &losses[1..] {
            total = tape.add(total, *l)?;
        }
        Ok(tape.scale(total, 1.0 / losses.len() as f32))
    }

    /// Teacher-forced loss and parameter gradients for each example index
    /// in `idxs`, computed on one reusable tape. Each example's result is
    /// a pure function of the parameters and the example — independent of
    /// how indices are chunked across workers.
    fn forward_chunk(&self, idxs: &[usize], examples: &[TrainExample]) -> Vec<ExampleGrad> {
        let mut tape = Tape::new(&self.store);
        idxs.iter()
            .map(|&i| {
                tape.reset();
                let loss = self
                    .example_loss(&mut tape, &examples[i])
                    .expect("training graph shapes are internally consistent");
                let value = tape.value(loss).get(0, 0);
                (value, tape.backward(loss).expect("loss is scalar"))
            })
            .collect()
    }

    /// Trains with Adam over shuffled mini-batches; returns the mean loss
    /// per epoch. With `config.parallelism` > 1 the per-example forward
    /// and backward passes of each batch run on that many workers; the
    /// gradient reduction always happens afterwards in batch-index order,
    /// so losses and parameters are bit-for-bit identical at any worker
    /// count (proven by `tests/determinism.rs`).
    pub fn train(&mut self, examples: &[TrainExample]) -> Vec<f32> {
        assert!(!examples.is_empty(), "training set must be non-empty");
        let mut adam = Adam::new(self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _epoch in 0..self.config.epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            for batch in order.chunks(self.config.batch_size.max(1)) {
                self.store.zero_grads();
                let per_example = self.map_chunks(batch, |c| self.forward_chunk(c, examples));
                let scale = 1.0 / batch.len() as f32;
                for (value, grads) in per_example {
                    epoch_loss += value;
                    for (id, g) in grads {
                        self.store.accumulate_grad_scaled(id, &g, scale);
                    }
                }
                self.store.clip_grads(5.0);
                adam.step(&mut self.store);
            }
            epoch_losses.push(epoch_loss / examples.len() as f32);
        }
        epoch_losses
    }

    /// Mean teacher-forced loss over a set of examples (no training).
    /// Parallelizes over `config.parallelism` workers; per-example losses
    /// are summed in example order, so the result is identical at any
    /// worker count.
    pub fn evaluate(&self, examples: &[TrainExample]) -> f32 {
        let idxs: Vec<usize> = (0..examples.len()).collect();
        let per_example = self.map_chunks(&idxs, |c| self.eval_chunk(c, examples));
        per_example.iter().sum::<f32>() / examples.len().max(1) as f32
    }

    /// Loss of each example index in `idxs` on one reusable tape.
    fn eval_chunk(&self, idxs: &[usize], examples: &[TrainExample]) -> Vec<f32> {
        let mut tape = Tape::new(&self.store);
        idxs.iter()
            .map(|&i| {
                tape.reset();
                let loss = self
                    .example_loss(&mut tape, &examples[i])
                    .expect("evaluation graph shapes are internally consistent");
                tape.value(loss).get(0, 0)
            })
            .collect()
    }

    /// Generates one graph conditionally from a prefix subgraph and a
    /// dataset content embedding. `temperature` > 1 flattens the decision
    /// distributions (more exploration); 1.0 samples the model faithfully.
    pub fn generate(
        &self,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        temperature: f64,
        rng: &mut StdRng,
    ) -> GeneratedGraph {
        let call = self.generation(dataset_embedding);
        let mut tape = Tape::new(&self.store);
        self.generate_with_tape(&mut tape, &call, prefix, temperature, rng)
    }

    /// The per-call context of one generation request: the projected
    /// dataset embedding, the same for every graph state, and an empty
    /// state memo.
    fn generation(&self, dataset_embedding: &[f64]) -> Generation {
        let mut tape = Tape::new(&self.store);
        let input = tape.input(self.ds_tensor(dataset_embedding));
        let ds = self
            .ds_proj
            .forward(&mut tape, input)
            .expect("ds_proj takes a 1×embed_dim row");
        Generation {
            ds: tape.value(ds).clone(),
            memo: Mutex::default(),
        }
    }

    /// The autoregressive sampling loop, one forward pass per graph
    /// state. `tape` is reset and the shared state `(h, hg, ds)`
    /// re-established only when a decision needs it after a node or an
    /// edge was pushed; every add-node, add-edge and pick-source decision
    /// on that graph reads it, so a declined add-edge and the add-node
    /// after it share one pass, as do an accepted add-edge and its pick.
    ///
    /// A state is first probed in the call's memo (`call`), shared by every
    /// attempt of one [`GraphGenerator::generate_top_k`]; a hit copies the
    /// stored `h` and `hg` onto the tape. A miss right after an add-node
    /// runs [`GraphGenerator::added_node_state`], which computes only the
    /// new node's row from the pre-push `h`; any other miss runs the full
    /// propagation. Either way the state is then offered to the memo.
    /// Resets reuse the tape's buffer pool, so a run allocates little
    /// beyond the states it stores.
    ///
    /// Each head value is bit-identical to its teacher-forced counterpart
    /// on the same partial graph (same kernels, same inputs; the one-row
    /// pass computes the same rows with the same row-local kernels), so
    /// graphs, scores and RNG draws match a loop that recomputes the
    /// state per decision — the `#[cfg(test)]` reference
    /// `generate_reference`.
    fn generate_with_tape<'s>(
        &'s self,
        tape: &mut Tape<'s>,
        call: &Generation,
        prefix: &TypedGraph,
        temperature: f64,
        rng: &mut StdRng,
    ) -> GeneratedGraph {
        const SHAPES: &str = "generation shapes are internally consistent";
        let mut graph = prefix.clone();
        let mut log_prob = 0.0f64;
        let stop_class = self.config.vocab_size;
        // Puts the state of `graph` on the reset tape: from the memo, from
        // the pre-push node states `parent` when the last push was a node,
        // or from a full pass.
        let fresh = |tape: &mut Tape<'s>, graph: &TypedGraph, parent: Option<Arc<StateValues>>| {
            tape.reset();
            let ds = tape.input_from(&call.ds);
            if let Some(hit) = call.probe(graph) {
                let h = tape.input_from(&hit.h);
                let hg = tape.input_from(&hit.hg);
                return (SharedState { h, hg, ds }, hit);
            }
            let st = match (parent, graph.types.last()) {
                (Some(prev), Some(&ty)) => self.added_node_state(tape, &prev.h, ty, ds),
                _ => self.shared_state(tape, graph, ds),
            }
            .expect(SHAPES);
            let values = Arc::new(StateValues {
                h: tape.value(st.h).clone(),
                hg: tape.value(st.hg).clone(),
            });
            call.fill(graph, &values);
            (st, values)
        };
        // The state of `graph`; `None` once a push has made it stale.
        let mut shared: Option<(SharedState, Arc<StateValues>)> = None;
        // The pre-push node states while the last push was a node.
        let mut parent: Option<Arc<StateValues>> = None;
        while graph.types.len() < self.config.max_nodes {
            // Decide the next node type (or stop).
            let st = shared
                .get_or_insert_with(|| fresh(tape, &graph, parent.take()))
                .0;
            let logits = self.addnode_head(tape, st.hg, st.ds).expect(SHAPES);
            let (choice, lp) = sample_softmax(tape.value(logits).row(0), temperature, &mut [], rng);
            log_prob += lp;
            if choice == stop_class {
                break;
            }
            graph.types.push(choice);
            parent = shared.take().map(|(_, values)| values);
            let newest = graph.types.len() - 1;
            // Edge loop for the new node.
            let mut edges_added = 0usize;
            while edges_added < self.config.max_edges_per_node {
                let st = shared
                    .get_or_insert_with(|| fresh(tape, &graph, parent.take()))
                    .0;
                let ht = tape.gather_rows(st.h, &[newest]).expect(SHAPES);
                let logit = self.addedge_head(tape, st.hg, ht, st.ds).expect(SHAPES);
                let p = sigmoid(tape.value(logit).get(0, 0) as f64 / temperature);
                let add = rng.gen::<f64>() < p;
                log_prob += if add {
                    p.max(1e-12).ln()
                } else {
                    (1.0 - p).max(1e-12).ln()
                };
                if !add {
                    break;
                }
                // Pick the source node, masking already-present edges.
                let mut masked: Vec<usize> = graph
                    .edges
                    .iter()
                    .filter(|(_, v)| *v == newest)
                    .map(|(u, _)| *u)
                    .collect();
                let logits = self.pick_head(tape, st.h, newest).expect(SHAPES);
                let (source, lp) =
                    sample_softmax(tape.value(logits).row(0), temperature, &mut masked, rng);
                log_prob += lp;
                graph.edges.push((source, newest));
                shared = None;
                edges_added += 1;
                if graph.edges.iter().filter(|(_, v)| *v == newest).count() >= newest {
                    break; // connected to every earlier node already
                }
            }
        }
        GeneratedGraph { graph, log_prob }
    }

    /// Generates `k` graphs (deduplicated by structure, ranked by score) —
    /// the top-K predicted pipelines of §3.6.
    ///
    /// # Sampling budget and determinism
    ///
    /// The budget is `attempts = (k·4).max(8)` sampled candidates
    /// (saturating, so a huge `k` can never wrap to a small budget).
    /// Attempt `i` draws from its own RNG stream seeded with
    /// `seed ⊕ (i · GOLDEN)`, so each attempt's graph is a pure function
    /// of `(seed, i)` — never of worker count or of which attempts ran
    /// before it. Attempts run over `config.parallelism` workers and are
    /// merged in attempt order. Without a `config.distinct_target` the
    /// whole budget runs as one fan-out (split at [`MAX_FAN_OUT`]
    /// attempts, which bounds memory); with `Some(t)` attempts run in
    /// fixed waves of [`SAMPLE_WAVE`] and sampling stops at the first
    /// wave boundary with `t` distinct graphs collected. Both the
    /// candidate set and the early-exit point are therefore bit-for-bit
    /// identical at any worker count (proven by `tests/determinism.rs`).
    ///
    /// # Shared work
    ///
    /// Many attempts pass through the same partial graphs (every one
    /// starts from `prefix`, most add the same first node). One memo per
    /// call, shared by every attempt and wave across the workers, keeps
    /// each distinct state's `h` and `hg` (up to `MEMO_CAP` states), so
    /// each is computed about once. A state is a pure function of the
    /// weights, the dataset embedding and the graph, so which attempt
    /// fills an entry cannot change any value.
    pub fn generate_top_k(
        &self,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        k: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<GeneratedGraph> {
        let attempts = k.saturating_mul(4).max(8);
        let wave_len = match self.config.distinct_target {
            Some(_) => SAMPLE_WAVE,
            None => attempts.min(MAX_FAN_OUT),
        };
        let call = self.generation(dataset_embedding);
        let run_attempt = |attempt: u64| -> GeneratedGraph {
            let mut rng = StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(RNG_STREAM_GOLDEN));
            let mut tape = Tape::new(&self.store);
            self.generate_with_tape(&mut tape, &call, prefix, temperature, &mut rng)
        };
        let mut out: Vec<GeneratedGraph> = Vec::new();
        let mut next = 0usize;
        while next < attempts {
            let wave: Vec<u64> = (next..next.saturating_add(wave_len).min(attempts))
                .map(|i| i as u64)
                .collect();
            next += wave.len();
            let sampled = map_ordered(self.config.parallelism, &wave, |&i| run_attempt(i));
            for g in sampled {
                if !out.iter().any(|o| o.graph == g.graph) {
                    out.push(g);
                }
            }
            if self.config.distinct_target.is_some_and(|t| out.len() >= t) {
                break;
            }
        }
        out.sort_by(|a, b| b.log_prob.partial_cmp(&a.log_prob).unwrap());
        out.truncate(k);
        out
    }
}

/// The values the decision heads read about one graph state, off the
/// tape: node states `h` (n×hidden) and the readout `hg` (1×hidden).
struct StateValues {
    h: Tensor,
    hg: Tensor,
}

/// The context one generation call shares across its attempts.
struct Generation {
    /// `ds_proj` of the dataset embedding, 1×hidden.
    ds: Tensor,
    /// Graph state by partial graph, up to [`MEMO_CAP`] entries. Only
    /// probed and filled, never iterated, and never locked across a pass.
    memo: Mutex<HashMap<TypedGraph, Arc<StateValues>>>,
}

impl Generation {
    fn probe(&self, graph: &TypedGraph) -> Option<Arc<StateValues>> {
        lock(&self.memo).get(graph).cloned()
    }

    /// Keeps `values` as the state of `graph` unless the memo is full or
    /// holds it already (another worker's equal bits).
    fn fill(&self, graph: &TypedGraph, values: &Arc<StateValues>) {
        let mut memo = lock(&self.memo);
        if memo.len() < MEMO_CAP && !memo.contains_key(graph) {
            memo.insert(graph.clone(), Arc::clone(values));
        }
    }
}

/// Recovers the guard of a poisoned memo lock: a worker that panicked
/// while holding it was only probing or inserting whole entries, so the
/// map is never torn.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tape refs to the state every decision head reads for one graph: node
/// states, graph readout and projected dataset embedding.
#[derive(Clone, Copy)]
struct SharedState {
    h: TensorRef,
    hg: TensorRef,
    ds: TensorRef,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Temperature softmax sample over logits with class masking. Returns
/// `(choice, log probability of the choice at temperature 1)`.
fn sample_softmax(
    logits: &[f32],
    temperature: f64,
    masked: &mut [usize],
    rng: &mut StdRng,
) -> (usize, f64) {
    let n = logits.len();
    masked.sort_unstable();
    let allowed: Vec<usize> = (0..n)
        .filter(|i| masked.binary_search(i).is_err())
        .collect();
    debug_assert!(!allowed.is_empty());
    let max = allowed
        .iter()
        .map(|&i| logits[i] as f64)
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = allowed
        .iter()
        .map(|&i| ((logits[i] as f64 - max) / temperature).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen::<f64>() * total;
    let mut pick = allowed.len() - 1;
    for (j, w) in weights.iter().enumerate() {
        draw -= w;
        if draw <= 0.0 {
            pick = j;
            break;
        }
    }
    let choice = allowed[pick];
    // Report the temperature-1 log-prob for comparable scores across
    // temperatures.
    let lse: f64 = {
        let s: f64 = allowed
            .iter()
            .map(|&i| (logits[i] as f64 - max).exp())
            .sum();
        max + s.ln()
    };
    (choice, logits[choice] as f64 - lse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    impl GraphGenerator {
        /// The decision loop as it was before generation shared one forward
        /// pass per graph state: every decision resets the tape and scores
        /// through the teacher-forced functions, recomputing the node
        /// states. Kept only as the identity oracle for
        /// [`GraphGenerator::generate_with_tape`].
        fn generate_reference(
            &self,
            ds_tensor: &Tensor,
            prefix: &TypedGraph,
            temperature: f64,
            rng: &mut StdRng,
        ) -> GeneratedGraph {
            let mut tape = Tape::new(&self.store);
            let tape = &mut tape;
            let mut graph = prefix.clone();
            let mut log_prob = 0.0f64;
            let stop_class = self.config.vocab_size;
            while graph.types.len() < self.config.max_nodes {
                let (choice, lp) = {
                    tape.reset();
                    let ds = tape.input_from(ds_tensor);
                    let logits = self.addnode_logits(tape, &graph, ds).unwrap();
                    sample_softmax(tape.value(logits).row(0), temperature, &mut [], rng)
                };
                log_prob += lp;
                if choice == stop_class {
                    break;
                }
                graph.types.push(choice);
                let newest = graph.types.len() - 1;
                let mut edges_added = 0usize;
                while edges_added < self.config.max_edges_per_node {
                    let (add, lp) = {
                        tape.reset();
                        let ds = tape.input_from(ds_tensor);
                        let logit = self.addedge_logit(tape, &graph, ds).unwrap();
                        let p = sigmoid(tape.value(logit).get(0, 0) as f64 / temperature);
                        let add = rng.gen::<f64>() < p;
                        (
                            add,
                            if add {
                                p.max(1e-12).ln()
                            } else {
                                (1.0 - p).max(1e-12).ln()
                            },
                        )
                    };
                    log_prob += lp;
                    if !add {
                        break;
                    }
                    let mut masked: Vec<usize> = graph
                        .edges
                        .iter()
                        .filter(|(_, v)| *v == newest)
                        .map(|(u, _)| *u)
                        .collect();
                    let (source, lp) = {
                        tape.reset();
                        let ds = tape.input_from(ds_tensor);
                        let logits = self.pick_logits(tape, &graph, ds).unwrap();
                        sample_softmax(tape.value(logits).row(0), temperature, &mut masked, rng)
                    };
                    log_prob += lp;
                    graph.edges.push((source, newest));
                    edges_added += 1;
                    if graph.edges.iter().filter(|(_, v)| *v == newest).count() >= newest {
                        break;
                    }
                }
            }
            GeneratedGraph { graph, log_prob }
        }
    }

    /// Generators trained on [`corpus`], one per propagation-round count,
    /// trained once per test process.
    fn trained_generator(prop_rounds: usize) -> &'static GraphGenerator {
        static TRAINED: OnceLock<Vec<GraphGenerator>> = OnceLock::new();
        let trained = TRAINED.get_or_init(|| {
            let examples = corpus(&OpVocab::new());
            [1, 2]
                .into_iter()
                .map(|rounds| {
                    let mut generator = GraphGenerator::new(GeneratorConfig {
                        prop_rounds: rounds,
                        epochs: 8,
                        ..small_config()
                    });
                    generator.train(&examples);
                    generator
                })
                .collect()
        });
        &trained[prop_rounds - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass loop is bit-identical to the per-decision reference:
        /// same graph, same `log_prob` bits, same next RNG draw, for three
        /// consecutive generations sharing one tape, one RNG stream and one
        /// state memo (so the later ones replay states the first stored).
        #[test]
        fn one_pass_generation_matches_reference_loop(
            trained in proptest::bool::ANY,
            temperature in 0.5f64..2.0,
            max_nodes in 3usize..=12,
            max_edges_per_node in 1usize..=3,
            prop_rounds in 1usize..=2,
            init_seed in 0u64..1000,
            rng_seed in 0u64..u64::MAX,
            embedding in proptest::collection::vec(-1.0f64..1.0, 48),
        ) {
            let mut generator = if trained {
                trained_generator(prop_rounds).clone()
            } else {
                GraphGenerator::new(GeneratorConfig {
                    prop_rounds,
                    seed: init_seed,
                    ..small_config()
                })
            };
            generator.config.max_nodes = max_nodes;
            generator.config.max_edges_per_node = max_edges_per_node;
            let prefix = TypedGraph::conditioning_prefix(&OpVocab::new());
            let ds = generator.ds_tensor(&embedding);
            let call = generator.generation(&embedding);
            let mut tape = Tape::new(&generator.store);
            let mut rng_fast = StdRng::seed_from_u64(rng_seed);
            let mut rng_ref = StdRng::seed_from_u64(rng_seed);
            for _ in 0..3 {
                let fast =
                    generator.generate_with_tape(&mut tape, &call, &prefix, temperature, &mut rng_fast);
                let reference = generator.generate_reference(&ds, &prefix, temperature, &mut rng_ref);
                prop_assert_eq!(&fast.graph, &reference.graph);
                prop_assert_eq!(fast.log_prob.to_bits(), reference.log_prob.to_bits());
            }
            prop_assert_eq!(rng_fast.gen::<u64>(), rng_ref.gen::<u64>());
        }
    }

    /// `generate_top_k` as a plain loop over the per-decision reference:
    /// attempt `i` on its own RNG stream, merged in attempt order, with the
    /// `distinct_target` exit checked after every `SAMPLE_WAVE` attempts.
    fn top_k_reference(
        generator: &GraphGenerator,
        embedding: &[f64],
        prefix: &TypedGraph,
        k: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<GeneratedGraph> {
        let ds = generator.ds_tensor(embedding);
        let mut out: Vec<GeneratedGraph> = Vec::new();
        for i in 0..k.saturating_mul(4).max(8) {
            let wave_done = i > 0 && i % SAMPLE_WAVE == 0;
            if wave_done
                && generator
                    .config
                    .distinct_target
                    .is_some_and(|t| out.len() >= t)
            {
                break;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(RNG_STREAM_GOLDEN));
            let g = generator.generate_reference(&ds, prefix, temperature, &mut rng);
            if !out.iter().any(|o| o.graph == g.graph) {
                out.push(g);
            }
        }
        out.sort_by(|a, b| b.log_prob.partial_cmp(&a.log_prob).unwrap());
        out.truncate(k);
        out
    }

    /// A random graph over `vocab` types with node 0 as the anchor and
    /// forward edges only, as generation builds them.
    fn random_graph(types: &[usize], edge_seeds: &[(usize, usize)]) -> TypedGraph {
        let n = types.len();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in edge_seeds {
            let (u, v) = (a % n, b % n);
            let edge = (u.min(v), u.max(v));
            if edge.0 != edge.1 && !edges.contains(&edge) {
                edges.push(edge);
            }
        }
        TypedGraph {
            types: types.to_vec(),
            edges,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The memoized top-K, at widths 1 and 2 and with or without a
        /// `distinct_target`, returns exactly what the per-decision
        /// reference returns run once per attempt on the same RNG
        /// streams: same graphs, same `log_prob` bits, same order.
        #[test]
        fn memo_top_k_matches_reference_per_attempt(
            trained in proptest::bool::ANY,
            k in 1usize..=4,
            distinct_target in proptest::option::of(0usize..=6),
            temperature in 0.5f64..2.0,
            prop_rounds in 1usize..=2,
            seed in 0u64..u64::MAX,
            embedding in proptest::collection::vec(-1.0f64..1.0, 48),
        ) {
            let mut generator = if trained {
                trained_generator(prop_rounds).clone()
            } else {
                GraphGenerator::new(GeneratorConfig { prop_rounds, ..small_config() })
            };
            generator.config.distinct_target = distinct_target;
            let prefix = TypedGraph::conditioning_prefix(&OpVocab::new());
            let reference = top_k_reference(&generator, &embedding, &prefix, k, temperature, seed);
            for width in [1, 2] {
                generator.set_parallelism(width);
                let memo = generator.generate_top_k(&embedding, &prefix, k, temperature, seed);
                prop_assert_eq!(memo.len(), reference.len(), "width {}", width);
                for (m, r) in memo.iter().zip(&reference) {
                    prop_assert_eq!(&m.graph, &r.graph, "width {}", width);
                    prop_assert_eq!(m.log_prob.to_bits(), r.log_prob.to_bits(), "width {}", width);
                }
            }
        }

        /// The one-row state after an add-node equals the full
        /// propagation of the grown graph, `h` and `hg` to the bit, on
        /// random graphs (with and without edges, down to the lone anchor).
        #[test]
        fn memo_one_row_add_node_state_matches_full_pass(
            trained in proptest::bool::ANY,
            prop_rounds in 1usize..=2,
            types in proptest::collection::vec(0usize..OpVocab::new().len(), 1..10),
            edge_seeds in proptest::collection::vec((0usize..10, 0usize..10), 0..14),
            added in 0usize..OpVocab::new().len(),
            embedding in proptest::collection::vec(-1.0f64..1.0, 48),
        ) {
            let generator = if trained {
                trained_generator(prop_rounds).clone()
            } else {
                GraphGenerator::new(GeneratorConfig { prop_rounds, ..small_config() })
            };
            let graph = random_graph(&types, &edge_seeds);
            let mut grown = graph.clone();
            grown.types.push(added);
            let call = generator.generation(&embedding);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let mut tape = Tape::new(&generator.store);
            let ds = tape.input_from(&call.ds);
            let prev = generator.shared_state(&mut tape, &graph, ds).unwrap();
            let prev_h = tape.value(prev.h).clone();
            tape.reset();
            let ds = tape.input_from(&call.ds);
            let full = generator.shared_state(&mut tape, &grown, ds).unwrap();
            let (full_h, full_hg) = (tape.value(full.h).clone(), tape.value(full.hg).clone());
            tape.reset();
            let ds = tape.input_from(&call.ds);
            let one_row = generator.added_node_state(&mut tape, &prev_h, added, ds).unwrap();
            prop_assert_eq!(tape.value(one_row.h).rows(), grown.types.len());
            prop_assert_eq!(bits(tape.value(one_row.h)), bits(&full_h));
            prop_assert_eq!(bits(tape.value(one_row.hg)), bits(&full_hg));
        }
    }

    /// The memo stops growing at `MEMO_CAP`; a state past the cap is
    /// computed and returned but not kept, and a kept entry is never
    /// replaced.
    #[test]
    fn memo_is_capped() {
        let generator = GraphGenerator::new(small_config());
        let call = generator.generation(&[0.0; 48]);
        let values = |x: f32| {
            Arc::new(StateValues {
                h: Tensor::full(1, 1, x),
                hg: Tensor::full(1, 1, x),
            })
        };
        let graph = |i: usize| TypedGraph {
            types: vec![i],
            edges: Vec::new(),
        };
        for i in 0..MEMO_CAP + 5 {
            call.fill(&graph(i), &values(1.0));
        }
        call.fill(&graph(0), &values(2.0));
        assert_eq!(lock(&call.memo).len(), MEMO_CAP);
        assert!(call.probe(&graph(MEMO_CAP)).is_none());
        assert_eq!(call.probe(&graph(0)).unwrap().h.get(0, 0), 1.0);
    }

    /// A tiny deterministic corpus: dataset A always uses
    /// [read_csv -> standard_scaler -> xgboost], dataset B always uses
    /// [read_csv -> logistic_regression].
    fn corpus(vocab: &OpVocab) -> Vec<TrainExample> {
        let ds = vocab.id(PipelineOp::Dataset);
        let read = vocab.id(PipelineOp::ReadCsv);
        let scaler = vocab.id(PipelineOp::Transformer(1));
        let xgb = vocab.id(PipelineOp::Estimator(11));
        let logreg = vocab.id(PipelineOp::Estimator(0));
        let mut emb_a = vec![0.0; 48];
        emb_a[0] = 1.0;
        let mut emb_b = vec![0.0; 48];
        emb_b[1] = 1.0;
        let mut out = Vec::new();
        for _ in 0..6 {
            out.push(TrainExample {
                dataset_embedding: emb_a.clone(),
                graph: TypedGraph {
                    types: vec![ds, read, scaler, xgb],
                    edges: vec![(0, 1), (1, 2), (2, 3)],
                },
            });
            out.push(TrainExample {
                dataset_embedding: emb_b.clone(),
                graph: TypedGraph {
                    types: vec![ds, read, logreg],
                    edges: vec![(0, 1), (1, 2)],
                },
            });
        }
        out
    }

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            hidden: 16,
            prop_rounds: 1,
            epochs: 25,
            batch_size: 4,
            learning_rate: 0.02,
            seed: 3,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut generator = GraphGenerator::new(small_config());
        let losses = generator.train(&examples);
        assert!(losses.len() == 25);
        assert!(
            losses[losses.len() - 1] < losses[0] * 0.5,
            "loss {} -> {}",
            losses[0],
            losses[losses.len() - 1]
        );
    }

    #[test]
    fn trained_generator_reproduces_conditioned_pipelines() {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut generator = GraphGenerator::new(small_config());
        generator.train(&examples);
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        // Dataset A should mostly produce pipelines ending in xgboost.
        let mut emb_a = vec![0.0; 48];
        emb_a[0] = 1.0;
        let graphs = generator.generate_top_k(&emb_a, &prefix, 3, 1.0, 7);
        assert!(!graphs.is_empty());
        let xgb = vocab.id(PipelineOp::Estimator(11));
        assert!(
            graphs[0].graph.types.contains(&xgb),
            "top graph for dataset A should contain xgboost: {:?}",
            graphs[0]
                .graph
                .types
                .iter()
                .map(|&t| vocab.op(t).name())
                .collect::<Vec<_>>()
        );
        // Scores are finite and sorted descending.
        for pair in graphs.windows(2) {
            assert!(pair[0].log_prob >= pair[1].log_prob);
        }
        assert!(graphs.iter().all(|g| g.log_prob.is_finite()));
    }

    #[test]
    fn generation_respects_caps_and_prefix() {
        let vocab = OpVocab::new();
        let generator = GraphGenerator::new(GeneratorConfig {
            max_nodes: 5,
            max_edges_per_node: 2,
            hidden: 8,
            prop_rounds: 1,
            ..GeneratorConfig::default()
        });
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let g = generator.generate(&vec![0.1; 48], &prefix, 1.0, &mut rng);
            assert!(g.graph.types.len() <= 5);
            assert_eq!(g.graph.types[0], vocab.id(PipelineOp::Dataset));
            assert_eq!(g.graph.types[1], vocab.id(PipelineOp::ReadCsv));
            assert!(g.graph.edges.contains(&(0, 1)));
            // No duplicate edges.
            let mut edges = g.graph.edges.clone();
            edges.sort_unstable();
            let before = edges.len();
            edges.dedup();
            assert_eq!(edges.len(), before);
            // Per-node incoming cap.
            for t in 0..g.graph.types.len() {
                let incoming = g.graph.edges.iter().filter(|(_, v)| *v == t).count();
                assert!(incoming <= 2 || t == 1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let vocab = OpVocab::new();
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            ..GeneratorConfig::default()
        });
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        let a = generator.generate_top_k(&vec![0.5; 48], &prefix, 3, 1.0, 42);
        let b = generator.generate_top_k(&vec![0.5; 48], &prefix, 3, 1.0, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph);
        }
    }

    #[test]
    fn typed_graph_encode_decode_roundtrip() {
        let vocab = OpVocab::new();
        let g = PipelineGraph {
            ops: vec![
                PipelineOp::Dataset,
                PipelineOp::ReadCsv,
                PipelineOp::Transformer(3),
                PipelineOp::Estimator(12),
            ],
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        let typed = TypedGraph::encode(&g, &vocab);
        assert_eq!(typed.decode(&vocab), g);
    }

    #[test]
    fn evaluate_matches_training_direction() {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut generator = GraphGenerator::new(small_config());
        let before = generator.evaluate(&examples);
        generator.train(&examples);
        let after = generator.evaluate(&examples);
        assert!(after < before, "eval loss {before} -> {after}");
    }

    #[test]
    fn sample_softmax_masks_and_normalizes() {
        let mut rng = StdRng::seed_from_u64(1);
        // Class 1 has overwhelming logit but is masked.
        let (choice, lp) = sample_softmax(&[0.0, 100.0, 0.1], 1.0, &mut [1], &mut rng);
        assert_ne!(choice, 1);
        assert!(lp <= 0.0);
    }
}
