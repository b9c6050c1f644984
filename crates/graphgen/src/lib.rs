//! Deep generative model of graphs (Li et al. 2018) with KGpip's
//! conditional-generation modification.
//!
//! Paper §3.5: "Our neural graph generator produces graphs in a node-by-
//! node fashion ... (1) decide whether to add a new node of a certain type,
//! if yes, (2) decide whether to add an edge to the newly added node, if
//! yes (3) decide the existing node to which the edge to be added ... The
//! graph generator utilizes node embeddings that are learned throughout the
//! training via graph propagation rounds ... We built on the work proposed
//! by Li et al. (2018), modifying it to support the same conditional graph
//! generation process after training. That is, the graph generation starts
//! with a subgraph instead of from scratch. During testing, KGpip starts
//! from a subgraph including a dataset node connected to a node for a
//! read_csv call ... It also generates multiple competing ML pipeline
//! graphs for an unseen dataset with a score (probability) of each graph."
//!
//! Components:
//! * [`sequence`] — the teacher-forcing decision sequence of a training
//!   graph (add-node / add-edge / pick-node),
//! * [`model::GraphGenerator`] — the GNN itself: typed node embeddings
//!   (the dataset node's embedding is projected from the dataset's
//!   *content* embedding), message-passing propagation with GRU state
//!   updates, and MLP decision heads; trained with Adam, sampled with
//!   temperature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod sequence;

pub use model::{GeneratedGraph, GeneratorConfig, GraphGenerator, TrainExample};
pub use sequence::{decisions_for, Decision};
