//! The code-graph model produced by static analysis.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// Identifier of a node inside a [`CodeGraph`].
pub type NodeId = usize;

/// An interned node label: a shared, immutable string.
///
/// Raw code graphs repeat the same handful of strings thousands of times
/// (`pandas.read_csv`, `loc:12`, `doc:...`); storing each occurrence as an
/// owned `String` made node construction and graph clones allocation-bound.
/// A `Label` is an `Arc<str>` — cloning is a reference-count bump, and the
/// analyzer's [`LabelInterner`] hands out one allocation per *distinct*
/// string. Serialization is a plain JSON string, byte-identical to the
/// pre-interning `String` representation, so persisted graphs from either
/// era load interchangeably.
#[derive(Debug, Clone, Eq)]
pub struct Label(Arc<str>);

impl Label {
    /// Creates a fresh (un-pooled) label.
    pub fn new(s: &str) -> Label {
        Label(Arc::from(s))
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        // Pointer equality first: interned duplicates share the allocation.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Label {
        Label(Arc::from(s))
    }
}

impl From<&Label> for String {
    fn from(l: &Label) -> String {
        l.as_str().to_string()
    }
}

impl Serialize for Label {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Label {
    fn from_value(v: &serde::Value) -> Result<Label, serde::DeError> {
        match v {
            serde::Value::Str(s) => Ok(Label::new(s)),
            other => Err(serde::DeError(format!(
                "expected string label, found {}",
                other.kind_name()
            ))),
        }
    }
}

/// A pool of interned [`Label`]s: one allocation per distinct string.
///
/// The analyzer keeps one interner per script; every `add_node` label goes
/// through it, so the thousands of repeated noise labels a raw graph
/// carries collapse to reference-count bumps on a few dozen allocations.
#[derive(Debug, Default)]
pub struct LabelInterner {
    pool: HashSet<Arc<str>>,
}

impl LabelInterner {
    /// Creates an empty pool.
    pub fn new() -> LabelInterner {
        LabelInterner::default()
    }

    /// Returns the pooled label for `s`, allocating on first sight.
    pub fn intern(&mut self, s: &str) -> Label {
        if let Some(existing) = self.pool.get(s) {
            return Label(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        self.pool.insert(arc.clone());
        Label(arc)
    }

    /// Interns an owned string without re-copying on first sight.
    pub fn intern_owned(&mut self, s: String) -> Label {
        if let Some(existing) = self.pool.get(s.as_str()) {
            return Label(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        self.pool.insert(arc.clone());
        Label(arc)
    }

    /// Number of distinct strings pooled.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

/// The kind of a code-graph node. The kinds mirror GraphGen4Code's node
/// vocabulary as described in paper §3.3: call nodes, constants, plus the
/// "numerous other nodes, such as nodes for locations in code files" that
/// the §3.4 filter later removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An API/function invocation; the label is the resolved dotted path
    /// (e.g. `sklearn.svm.SVC` or `pandas.read_csv`).
    Call,
    /// A literal constant argument.
    Constant,
    /// A source-location node (file/line bookkeeping) — filter noise.
    Location,
    /// A formal-parameter node attached to a call — filter noise.
    Parameter,
    /// A documentation node attached to a call — filter noise.
    Documentation,
    /// A dataset anchor node added by Graph4ML assembly (§3.4/Figure 4).
    Dataset,
}

/// The kind of a code-graph edge. Control flow is rendered gray and data
/// flow black in the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Value flows from producer to consumer.
    DataFlow,
    /// Execution order between consecutive calls.
    ControlFlow,
    /// Call → parameter-node linkage — filter noise.
    Parameter,
    /// Call → location-node linkage — filter noise.
    Location,
    /// Call → documentation-node linkage — filter noise.
    Documentation,
    /// Constant argument feeding a call.
    ConstantArg,
}

/// A node of a code graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's kind.
    pub kind: NodeKind,
    /// Human-readable label: dotted API path for calls, rendered literal
    /// for constants, bookkeeping text for noise nodes. Interned — clones
    /// share one allocation per distinct string.
    pub label: Label,
    /// Source location of the statement that produced this node
    /// ([`Span::synthetic`] for nodes with no source origin, e.g. the
    /// Graph4ML dataset anchor).
    pub span: Span,
}

/// An edge of a code graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// A static-analysis graph of one script (GraphGen4Code substitute).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CodeGraph {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// All edges.
    pub edges: Vec<Edge>,
}

impl CodeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id. Callers with many repeated labels
    /// should pass pre-interned [`Label`]s (see [`LabelInterner`]); plain
    /// `&str`/`String` labels allocate individually.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<Label>, span: Span) -> NodeId {
        self.nodes.push(Node {
            kind,
            label: label.into(),
            span,
        });
        self.nodes.len() - 1
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        debug_assert!(from < self.nodes.len() && to < self.nodes.len());
        self.edges.push(Edge { from, to, kind });
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of GraphGen4Code-style transitive dataflow pairs: node
    /// pairs `(a, b)` where `b` is reachable from `a` through 2 or more
    /// [`EdgeKind::DataFlow`]/[`EdgeKind::ConstantArg`] hops and through
    /// no single one. GraphGen4Code stores one `flowsTo`-style closure
    /// edge per such pair — the bulk of its raw-graph edge volume (Table
    /// 3). They are counted here rather than stored, because their number
    /// grows with the square of a dataflow chain's length and nothing
    /// downstream follows them. One BFS per node, sharing one `seen`
    /// buffer; edges whose endpoints are out of bounds are ignored.
    pub fn transitive_dataflow_pairs(&self) -> usize {
        let n = self.nodes.len();
        let mut succ: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for e in &self.edges {
            if matches!(e.kind, EdgeKind::DataFlow | EdgeKind::ConstantArg) && e.to < n {
                if let Some(out) = succ.get_mut(e.from) {
                    out.push(e.to);
                }
            }
        }
        // `seen[v] == start + 1` marks `v` as reached from `start`.
        let mut seen = vec![0usize; n];
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut next: Vec<NodeId> = Vec::new();
        let mut pairs = 0usize;
        for (start, direct) in succ.iter().enumerate() {
            let mark = start + 1;
            seen[start] = mark;
            frontier.clear();
            for &to in direct {
                if seen[to] != mark {
                    seen[to] = mark;
                    frontier.push(to);
                }
            }
            // Everything first reached beyond the direct successors is a
            // pair.
            while !frontier.is_empty() {
                for &at in &frontier {
                    for &to in &succ[at] {
                        if seen[to] != mark {
                            seen[to] = mark;
                            pairs += 1;
                            next.push(to);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                next.clear();
            }
        }
        pairs
    }

    /// Ids of nodes of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == kind)
            .map(|(i, _)| i)
            .collect()
    }

    /// Out-neighbours reachable via edges of the given kinds.
    pub fn successors(&self, from: NodeId, kinds: &[EdgeKind]) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.from == from && kinds.contains(&e.kind))
            .map(|e| e.to)
            .collect()
    }

    /// All nodes reachable from `start` via edges of the given kinds
    /// (including `start`). Returns an empty set when `start` is out of
    /// bounds.
    pub fn reachable(&self, start: NodeId, kinds: &[EdgeKind]) -> Vec<NodeId> {
        if start >= self.nodes.len() {
            return Vec::new();
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut out = Vec::new();
        while let Some(at) = stack.pop() {
            out.push(at);
            for next in self.successors(at, kinds) {
                if next < seen.len() && !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = CodeGraph::new();
        let a = g.add_node(NodeKind::Call, "pandas.read_csv", Span::at_line(1));
        let b = g.add_node(NodeKind::Call, "sklearn.svm.SVC", Span::at_line(2));
        let c = g.add_node(NodeKind::Location, "file:2", Span::at_line(2));
        g.add_edge(a, b, EdgeKind::DataFlow);
        g.add_edge(b, c, EdgeKind::Location);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.nodes_of_kind(NodeKind::Call), vec![a, b]);
        assert_eq!(g.successors(a, &[EdgeKind::DataFlow]), vec![b]);
        assert!(g.successors(a, &[EdgeKind::Location]).is_empty());
    }

    #[test]
    fn reachability_respects_edge_kinds() {
        let mut g = CodeGraph::new();
        let a = g.add_node(NodeKind::Call, "a", Span::at_line(1));
        let b = g.add_node(NodeKind::Call, "b", Span::at_line(2));
        let c = g.add_node(NodeKind::Call, "c", Span::at_line(3));
        g.add_edge(a, b, EdgeKind::DataFlow);
        g.add_edge(b, c, EdgeKind::ControlFlow);
        assert_eq!(g.reachable(a, &[EdgeKind::DataFlow]), vec![a, b]);
        assert_eq!(
            g.reachable(a, &[EdgeKind::DataFlow, EdgeKind::ControlFlow]),
            vec![a, b, c]
        );
    }

    #[test]
    fn reachability_handles_cycles() {
        let mut g = CodeGraph::new();
        let a = g.add_node(NodeKind::Call, "a", Span::at_line(1));
        let b = g.add_node(NodeKind::Call, "b", Span::at_line(2));
        g.add_edge(a, b, EdgeKind::DataFlow);
        g.add_edge(b, a, EdgeKind::DataFlow);
        assert_eq!(g.reachable(a, &[EdgeKind::DataFlow]), vec![a, b]);
    }

    #[test]
    fn serde_roundtrip() {
        let mut g = CodeGraph::new();
        let a = g.add_node(NodeKind::Call, "pandas.read_csv", Span::at_line(1));
        let b = g.add_node(NodeKind::Constant, "'x.csv'", Span::at_line(1));
        g.add_edge(b, a, EdgeKind::ConstantArg);
        let json = serde_json::to_string(&g).unwrap();
        let back: CodeGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn interner_shares_allocations() {
        let mut pool = LabelInterner::new();
        let a = pool.intern("pandas.read_csv");
        let b = pool.intern("pandas.read_csv");
        let c = pool.intern_owned("loc:1".to_string());
        assert!(Arc::ptr_eq(&a.0, &b.0), "duplicates share one allocation");
        assert_eq!(pool.len(), 2);
        assert_eq!(a, "pandas.read_csv");
        assert_eq!(c, "loc:1");
        assert_ne!(a, c);
    }

    #[test]
    fn labels_serialize_as_plain_strings() {
        // The interned representation must stay byte-compatible with the
        // pre-interning `String` field: a label is a bare JSON string.
        let label = Label::new("sklearn.svm.SVC");
        assert_eq!(
            serde_json::to_string(&label).unwrap(),
            "\"sklearn.svm.SVC\""
        );
        let back: Label = serde_json::from_str("\"sklearn.svm.SVC\"").unwrap();
        assert_eq!(back, label);
    }
}
