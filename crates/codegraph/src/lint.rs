//! Graph-lint: invariant verification for every graph representation the
//! analyzer produces.
//!
//! Each `lint_*` function returns the list of violated invariants (empty =
//! clean). Structural invariants (index bounds, acyclicity, anchoring)
//! have [`Severity::Error`]; semantic sanity checks that legitimate inputs
//! *can* break (e.g. a script fitting two estimators) are
//! [`Severity::Warning`]. `analyze` and `filter_graph` run the
//! error-severity checks under `debug_assert!`, and the `lint-corpus` CLI
//! subcommand runs the full set over a generated corpus.

use crate::diag::{Diagnostic, Pass, Severity};
use crate::filter::PipelineGraph;
use crate::graph::{CodeGraph, EdgeKind, NodeKind};
use crate::graph4ml::Graph4Ml;
use crate::span::Span;
use crate::vocab::PipelineOp;

/// One violated graph invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short stable rule identifier (e.g. `edge-bounds`).
    pub rule: &'static str,
    /// Error for structural invariants, warning for semantic sanity
    /// checks.
    pub severity: Severity,
    /// Human-readable description of what is wrong.
    pub message: String,
}

impl Violation {
    fn error(rule: &'static str, message: String) -> Violation {
        Violation {
            rule,
            severity: Severity::Error,
            message,
        }
    }

    fn warning(rule: &'static str, message: String) -> Violation {
        Violation {
            rule,
            severity: Severity::Warning,
            message,
        }
    }

    /// Renders the violation as a [`Pass::Lint`] diagnostic (violations
    /// concern whole graphs, so the span is synthetic).
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic {
            span: Span::synthetic(),
            severity: self.severity,
            pass: Pass::Lint,
            message: format!("{}: {}", self.rule, self.message),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)
    }
}

/// True when any violation has error severity (the `debug_assert` gate).
pub fn has_errors(violations: &[Violation]) -> bool {
    violations.iter().any(|v| v.severity == Severity::Error)
}

/// Lints a raw [`CodeGraph`]:
///
/// - `edge-bounds` — every edge endpoint is a valid node index;
/// - `dataflow-acyclic` — `DataFlow` + `ConstantArg` edges form a DAG
///   (value flow cannot loop);
/// - `noise-leaf` — location/parameter/documentation bookkeeping nodes
///   never have outgoing edges.
pub fn lint_code_graph(graph: &CodeGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = graph.num_nodes();
    for (i, e) in graph.edges.iter().enumerate() {
        if e.from >= n || e.to >= n {
            out.push(Violation::error(
                "edge-bounds",
                format!(
                    "edge #{i} ({} -> {}) out of bounds for {n} nodes",
                    e.from, e.to
                ),
            ));
        }
    }
    if has_errors(&out) {
        return out; // later checks index by node id
    }
    let flow: Vec<(usize, usize)> = graph
        .edges
        .iter()
        .filter(|e| matches!(e.kind, EdgeKind::DataFlow | EdgeKind::ConstantArg))
        .map(|e| (e.from, e.to))
        .collect();
    if let Some(node) = find_cycle(n, &flow) {
        out.push(Violation::error(
            "dataflow-acyclic",
            format!("dataflow through node {node} is cyclic"),
        ));
    }
    for e in &graph.edges {
        let kind = graph.nodes[e.from].kind;
        if matches!(
            kind,
            NodeKind::Location | NodeKind::Parameter | NodeKind::Documentation
        ) {
            out.push(Violation::error(
                "noise-leaf",
                format!("{kind:?} node {} has an outgoing edge to {}", e.from, e.to),
            ));
        }
    }
    out
}

/// Lints a filtered [`PipelineGraph`]:
///
/// - `edge-bounds`, `self-loop`, `duplicate-edge`, `pipeline-acyclic` —
///   structural edge sanity;
/// - `dataset-anchor` — a `Dataset` op may only sit at index 0, must have
///   no incoming edges, must be unique, and (in graphs with more than one
///   node) must feed at least one successor;
/// - `single-estimator` (warning) — a pipeline fitting more than one
///   estimator is suspicious but not structurally broken.
pub fn lint_pipeline_graph(graph: &PipelineGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = graph.num_nodes();
    for (i, &(f, t)) in graph.edges.iter().enumerate() {
        if f >= n || t >= n {
            out.push(Violation::error(
                "edge-bounds",
                format!("edge #{i} ({f} -> {t}) out of bounds for {n} nodes"),
            ));
        } else if f == t {
            out.push(Violation::error(
                "self-loop",
                format!("node {f} loops to itself"),
            ));
        }
    }
    if has_errors(&out) {
        return out;
    }
    let mut sorted = graph.edges.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            out.push(Violation::error(
                "duplicate-edge",
                format!("edge ({} -> {}) appears more than once", w[0].0, w[0].1),
            ));
        }
    }
    if let Some(node) = find_cycle(n, &graph.edges) {
        out.push(Violation::error(
            "pipeline-acyclic",
            format!("pipeline dataflow through node {node} is cyclic"),
        ));
    }
    for (i, op) in graph.ops.iter().enumerate() {
        if *op == PipelineOp::Dataset && i != 0 {
            out.push(Violation::error(
                "dataset-anchor",
                format!("dataset node at index {i}, expected 0"),
            ));
        }
    }
    if graph.ops.first() == Some(&PipelineOp::Dataset) {
        if graph.edges.iter().any(|&(_, t)| t == 0) {
            out.push(Violation::error(
                "dataset-anchor",
                "dataset node has incoming edges".to_string(),
            ));
        }
        if n > 1 && !graph.edges.iter().any(|&(f, _)| f == 0) {
            out.push(Violation::error(
                "dataset-anchor",
                "dataset node is disconnected from its pipeline".to_string(),
            ));
        }
    }
    let estimators = graph.ops.iter().filter(|op| op.is_estimator()).count();
    if estimators > 1 {
        out.push(Violation::warning(
            "single-estimator",
            format!("pipeline fits {estimators} estimators"),
        ));
    }
    out
}

/// Lints an assembled [`Graph4Ml`]: every pipeline's dataset index must be
/// registered, every pipeline must carry its dataset anchor at index 0,
/// and every pipeline must individually pass [`lint_pipeline_graph`].
pub fn lint_graph4ml(graph: &Graph4Ml) -> Vec<Violation> {
    let mut out = Vec::new();
    let datasets = graph.datasets().len();
    for (i, (ds, pg)) in graph.pipelines().iter().enumerate() {
        if *ds >= datasets {
            out.push(Violation::error(
                "dataset-index",
                format!("pipeline #{i} references dataset {ds}, only {datasets} registered"),
            ));
        }
        if pg.ops.first() != Some(&PipelineOp::Dataset) {
            out.push(Violation::error(
                "dataset-anchor",
                format!("pipeline #{i} is missing its dataset anchor node"),
            ));
        }
        out.extend(lint_pipeline_graph(pg));
    }
    out
}

/// Checks filter-reduction sanity: the filtered pipeline can never hold
/// more operator nodes than the raw graph had call nodes, nor more edges
/// than the raw graph with its counted closure pairs (§3.4 reports a ≥96%
/// reduction; growth would mean the filter invented structure).
pub fn lint_reduction(raw: &CodeGraph, filtered: &PipelineGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let calls = raw.nodes_of_kind(NodeKind::Call).len();
    let kept = filtered
        .ops
        .iter()
        .filter(|op| **op != PipelineOp::Dataset)
        .count();
    if kept > calls {
        out.push(Violation::error(
            "reduction",
            format!("filtered graph keeps {kept} ops but the raw graph has only {calls} calls"),
        ));
    }
    let raw_edges = raw.num_edges() + raw.transitive_dataflow_pairs();
    if filtered.num_edges() > raw_edges {
        out.push(Violation::error(
            "reduction",
            format!(
                "filtered graph has {} edges, raw graph only {raw_edges}",
                filtered.num_edges()
            ),
        ));
    }
    out
}

/// Returns a node participating in a cycle, if any, via iterative
/// three-color DFS over the given edges.
fn find_cycle(n: usize, edges: &[(usize, usize)]) -> Option<usize> {
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(f, t) in edges {
        if f < n && t < n {
            succ[f].push(t);
        }
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Stack of (node, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(frame) = stack.last_mut() {
            let at = frame.0;
            if frame.1 < succ[at].len() {
                let to = succ[at][frame.1];
                frame.1 += 1;
                match color[to] {
                    0 => {
                        color[to] = 1;
                        stack.push((to, 0));
                    }
                    1 => return Some(to),
                    _ => {}
                }
            } else {
                color[at] = 2;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::filter::filter_graph;
    use crate::graph::CodeGraph;

    const FIG2: &str = "\
import pandas as pd
from sklearn.model_selection import train_test_split
from sklearn import svm
df = pd.read_csv('example.csv')
df_train, df_test = train_test_split(df)
X = df_train['X']
model = svm.SVC()
model.fit(X, df_train['Y'])
";

    #[test]
    fn analyzed_and_filtered_figure2_graphs_are_clean() {
        let raw = analyze(FIG2).unwrap();
        assert_eq!(lint_code_graph(&raw), vec![]);
        let filtered = filter_graph(&raw);
        assert_eq!(lint_pipeline_graph(&filtered), vec![]);
        assert_eq!(lint_reduction(&raw, &filtered), vec![]);
        assert_eq!(lint_pipeline_graph(&filtered.with_dataset_node()), vec![]);
    }

    #[test]
    fn out_of_bounds_edges_are_flagged() {
        let mut g = CodeGraph::new();
        g.add_node(NodeKind::Call, "a", Span::at_line(1));
        g.edges.push(crate::graph::Edge {
            from: 0,
            to: 7,
            kind: EdgeKind::DataFlow,
        });
        let v = lint_code_graph(&g);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "edge-bounds");
        assert_eq!(v[0].severity, Severity::Error);
    }

    #[test]
    fn dataflow_cycles_are_flagged() {
        let mut g = CodeGraph::new();
        let a = g.add_node(NodeKind::Call, "a", Span::at_line(1));
        let b = g.add_node(NodeKind::Call, "b", Span::at_line(2));
        g.add_edge(a, b, EdgeKind::DataFlow);
        g.add_edge(b, a, EdgeKind::DataFlow);
        assert!(lint_code_graph(&g)
            .iter()
            .any(|v| v.rule == "dataflow-acyclic"));
        // Control-flow cycles are legal (loops), so the same shape over
        // ControlFlow edges lints clean.
        let mut g2 = CodeGraph::new();
        let a = g2.add_node(NodeKind::Call, "a", Span::at_line(1));
        let b = g2.add_node(NodeKind::Call, "b", Span::at_line(2));
        g2.add_edge(a, b, EdgeKind::ControlFlow);
        g2.add_edge(b, a, EdgeKind::ControlFlow);
        assert_eq!(lint_code_graph(&g2), vec![]);
    }

    #[test]
    fn noise_nodes_with_out_edges_are_flagged() {
        let mut g = CodeGraph::new();
        let call = g.add_node(NodeKind::Call, "a", Span::at_line(1));
        let loc = g.add_node(NodeKind::Location, "loc:1", Span::at_line(1));
        g.add_edge(loc, call, EdgeKind::Location);
        assert!(lint_code_graph(&g).iter().any(|v| v.rule == "noise-leaf"));
    }

    #[test]
    fn pipeline_structural_rules() {
        let ok = PipelineGraph {
            ops: vec![PipelineOp::ReadCsv, PipelineOp::Fit],
            edges: vec![(0, 1)],
        };
        assert_eq!(lint_pipeline_graph(&ok), vec![]);

        let self_loop = PipelineGraph {
            ops: vec![PipelineOp::ReadCsv],
            edges: vec![(0, 0)],
        };
        assert!(lint_pipeline_graph(&self_loop)
            .iter()
            .any(|v| v.rule == "self-loop"));

        let dup = PipelineGraph {
            ops: vec![PipelineOp::ReadCsv, PipelineOp::Fit],
            edges: vec![(0, 1), (0, 1)],
        };
        assert!(lint_pipeline_graph(&dup)
            .iter()
            .any(|v| v.rule == "duplicate-edge"));

        let cyc = PipelineGraph {
            ops: vec![PipelineOp::ReadCsv, PipelineOp::Fit],
            edges: vec![(0, 1), (1, 0)],
        };
        assert!(lint_pipeline_graph(&cyc)
            .iter()
            .any(|v| v.rule == "pipeline-acyclic"));
    }

    #[test]
    fn dataset_anchor_rules() {
        let misplaced = PipelineGraph {
            ops: vec![PipelineOp::ReadCsv, PipelineOp::Dataset],
            edges: vec![(0, 1)],
        };
        assert!(lint_pipeline_graph(&misplaced)
            .iter()
            .any(|v| v.rule == "dataset-anchor"));

        let disconnected = PipelineGraph {
            ops: vec![PipelineOp::Dataset, PipelineOp::ReadCsv],
            edges: vec![],
        };
        assert!(lint_pipeline_graph(&disconnected)
            .iter()
            .any(|v| v.message.contains("disconnected")));

        let fed_into = PipelineGraph {
            ops: vec![PipelineOp::Dataset, PipelineOp::ReadCsv],
            edges: vec![(0, 1), (1, 0)],
        };
        assert!(lint_pipeline_graph(&fed_into)
            .iter()
            .any(|v| v.message.contains("incoming")));
    }

    #[test]
    fn multiple_estimators_warn_but_do_not_error() {
        let two = PipelineGraph {
            ops: vec![
                PipelineOp::ReadCsv,
                PipelineOp::Estimator(0),
                PipelineOp::Estimator(1),
            ],
            edges: vec![(0, 1), (0, 2)],
        };
        let v = lint_pipeline_graph(&two);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "single-estimator");
        assert_eq!(v[0].severity, Severity::Warning);
        assert!(!has_errors(&v));
    }

    #[test]
    fn graph4ml_lints_each_pipeline() {
        let mut g4 = Graph4Ml::new();
        let raw = analyze(FIG2).unwrap();
        g4.add_pipeline("example", &filter_graph(&raw));
        assert_eq!(lint_graph4ml(&g4), vec![]);
    }

    #[test]
    fn reduction_growth_is_flagged() {
        let raw = CodeGraph::new(); // zero calls
        let filtered = PipelineGraph {
            ops: vec![PipelineOp::ReadCsv],
            edges: vec![],
        };
        assert!(lint_reduction(&raw, &filtered)
            .iter()
            .any(|v| v.rule == "reduction"));
    }

    #[test]
    fn violations_render_as_diagnostics() {
        let v = Violation::error("edge-bounds", "edge #0 out of bounds".into());
        let d = v.to_diagnostic();
        assert_eq!(d.pass, Pass::Lint);
        assert!(d.span.is_synthetic());
        assert!(d.message.starts_with("edge-bounds:"));
    }
}
