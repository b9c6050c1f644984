//! Static analysis of ML pipeline scripts into code graphs — the
//! GraphGen4Code substitute — plus the §3.4 graph filter, the Graph4ML
//! assembly, and a synthetic notebook-corpus generator.
//!
//! The KGpip paper (§3.3) uses GraphGen4Code to statically analyze Python
//! programs into graphs capturing "interprocedural data flow and control
//! flow ... what happens to data that is read from a Pandas dataframe, how
//! it gets manipulated and transformed, and what transformers or estimators
//! get called on the dataframe", at a scale of "roughly 1600 nodes and 3700
//! edges for a Kaggle ML pipeline script of 72 lines". This crate rebuilds
//! that pipeline end to end for a Python subset sufficient for data-science
//! notebooks:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — tokenizer and recursive-descent
//!   parser for assignments, imports, calls, attribute chains, subscripts,
//!   `for`/`if` blocks,
//! * [`analysis`] — import-resolving dataflow + control-flow analysis
//!   producing a [`graph::CodeGraph`] with the same noise profile as
//!   GraphGen4Code (location, parameter, constant and documentation nodes;
//!   transitive dataflow closure edges),
//! * [`filter`] — the paper's §3.4 filter: keep only nodes from the target
//!   ML libraries reachable by dataflow from `read_csv`, producing compact
//!   [`filter::PipelineGraph`]s (≥96% node/edge reduction on realistic
//!   scripts, Table 3),
//! * [`graph4ml`] — links filtered pipelines of the same dataset through a
//!   shared dataset node (Figure 4),
//! * [`vocab`] — the canonical pipeline-op vocabulary shared with the graph
//!   generator,
//! * [`corpus`] — a synthetic Kaggle-notebook generator standing in for the
//!   paper's 11.7K mined scripts (see DESIGN.md, substitution table),
//! * [`span`] / [`diag`] — byte-span source locations and the
//!   span-carrying diagnostics the recovering lexer/parser/analyzer emit,
//! * [`lint`] — invariant verification for every graph representation
//!   (run under `debug_assert!` inside `analyze`/`filter_graph`, and by
//!   the `lint-corpus` CLI subcommand).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod corpus;
pub mod diag;
pub mod filter;
pub mod graph;
pub mod graph4ml;
pub mod lexer;
pub mod lint;
pub mod mining;
pub mod parser;
pub mod span;
pub mod vocab;

pub use analysis::{analyze, analyze_with_diagnostics};
pub use diag::{Diagnostic, DiagnosticSink, Pass, Severity};
pub use filter::{filter_graph, PipelineGraph};
pub use graph::{CodeGraph, EdgeKind, Label, LabelInterner, NodeId, NodeKind};
pub use graph4ml::Graph4Ml;
pub use lint::{lint_code_graph, lint_graph4ml, lint_pipeline_graph, lint_reduction, Violation};
pub use mining::{mine_script, source_fingerprint, MineOutcome};
pub use parser::parse_with_diagnostics;
pub use span::Span;
pub use vocab::{OpVocab, PipelineOp};

/// Errors produced while parsing or analyzing scripts.
#[derive(Debug, Clone, PartialEq)]
pub enum CodeGraphError {
    /// Tokenization failure.
    Lex {
        /// 1-based source line.
        line: usize,
        /// Failure description.
        message: String,
    },
    /// Parse failure.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Failure description.
        message: String,
    },
}

impl std::fmt::Display for CodeGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeGraphError::Lex { line, message } => write!(f, "lex error, line {line}: {message}"),
            CodeGraphError::Parse { line, message } => {
                write!(f, "parse error, line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CodeGraphError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CodeGraphError>;
