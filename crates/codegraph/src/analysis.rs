//! Import-resolving dataflow + control-flow analysis of parsed scripts.
//!
//! Reproduces GraphGen4Code's behaviour as described in paper §3.3: the
//! analysis tracks "what happens to data that is read from a Pandas
//! dataframe, how it gets manipulated and transformed, and what
//! transformers or estimators get called on the dataframe", making "explicit
//! what APIs and functions are invoked on objects without the need to model
//! the used libraries themselves". Each call becomes a node labeled with
//! its *resolved* dotted API path (import aliases and receiver types are
//! chased); dataflow edges connect producers to consumers, control-flow
//! edges chain consecutive calls, and the same classes of noise nodes that
//! GraphGen4Code emits (locations, parameters, documentation, constants,
//! transitive-dataflow closure) are attached so that the §3.4 filter has
//! realistic work to do.
//!
//! # Interprocedural pass
//!
//! User-defined `def` helpers are summarized at their definition
//! (parameter list + body) and *instantiated at each call site*: the
//! arguments are evaluated in the caller's scope, bound to the parameters,
//! and the body is walked in that environment — so a script that wraps its
//! preprocessing in a helper produces the same graph skeleton as its
//! inlined equivalent. No `Call` node is created for user-defined calls.
//! Recursive or deeply nested helper calls (depth > [`MAX_CALL_DEPTH`]),
//! and helper calls sitting more than [`MAX_DEPTH`] expressions deep (so
//! inlined bodies cannot stack one parse tree's depth on another's), fall
//! back to an opaque call node plus an analysis warning.

use crate::ast::{Expr, Module, Stmt};
use crate::diag::{Diagnostic, DiagnosticSink, Pass};
use crate::graph::{CodeGraph, EdgeKind, LabelInterner, NodeId, NodeKind};
use crate::parser::{parse, parse_with_diagnostics, MAX_DEPTH};
use crate::span::Span;
use crate::Result;
use std::collections::HashMap;

/// Maximum user-function inlining depth before a call is treated as
/// opaque (guards against recursion and pathological nesting).
pub const MAX_CALL_DEPTH: usize = 8;

/// Parses and analyzes a script into its code graph (strict: the first
/// lex/parse error aborts).
pub fn analyze(source: &str) -> Result<CodeGraph> {
    let module = parse(source)?;
    Ok(analyze_module(&module))
}

/// Recovering analysis: always produces a graph, however malformed the
/// input. Malformed statements are skipped by the parser and reported as
/// diagnostics alongside any analysis warnings.
pub fn analyze_with_diagnostics(source: &str) -> (CodeGraph, Vec<Diagnostic>) {
    let (module, mut diags) = parse_with_diagnostics(source);
    let (graph, analysis_diags) = analyze_module_with_diagnostics(&module);
    diags.extend(analysis_diags);
    (graph, diags)
}

/// Analyzes an already-parsed module, dropping analysis warnings.
pub fn analyze_module(module: &Module) -> CodeGraph {
    analyze_module_with_diagnostics(module).0
}

/// Analyzes an already-parsed module, returning the graph plus any
/// analysis-pass diagnostics (e.g. `return` outside a function, inlining
/// depth exceeded).
pub fn analyze_module_with_diagnostics(module: &Module) -> (CodeGraph, Vec<Diagnostic>) {
    let mut a = Analyzer {
        graph: CodeGraph::new(),
        interner: LabelInterner::new(),
        imports: HashMap::new(),
        env: HashMap::new(),
        types: HashMap::new(),
        functions: HashMap::new(),
        last_call: None,
        call_stack: Vec::new(),
        expr_depth: 0,
        returning: None,
        sink: DiagnosticSink::new(),
    };
    a.walk_block(&module.body);
    a.add_transitive_closure();
    debug_assert!(
        crate::lint::lint_code_graph(&a.graph).is_empty(),
        "analysis produced a graph violating codegraph invariants: {:?}",
        crate::lint::lint_code_graph(&a.graph)
    );
    (a.graph, a.sink.into_diagnostics())
}

/// A user-defined function summary: parameters plus body, instantiated at
/// each call site.
#[derive(Clone)]
struct FuncSummary {
    params: Vec<String>,
    body: Vec<Stmt>,
}

struct Analyzer {
    graph: CodeGraph,
    /// Label pool: one allocation per distinct node-label string. Raw
    /// graphs repeat the same labels (API paths, `loc:`/`doc:`/`param:`
    /// bookkeeping) hundreds of times; interning makes each repeat a
    /// refcount bump instead of a fresh `String`.
    interner: LabelInterner,
    /// Alias → dotted module/object path (`pd` → `pandas`,
    /// `SVC` → `sklearn.svm.SVC`).
    imports: HashMap<String, String>,
    /// Variable → node that produced its current value.
    env: HashMap<String, NodeId>,
    /// Variable → API type of its value (`model` → `sklearn.svm.SVC`,
    /// `df` → `pandas.DataFrame`).
    types: HashMap<String, String>,
    /// User-defined `def` summaries by name.
    functions: HashMap<String, FuncSummary>,
    last_call: Option<NodeId>,
    /// Names of user functions currently being instantiated (recursion
    /// guard; its length is the inlining depth).
    call_stack: Vec<String>,
    /// Expressions currently being visited, helper bodies included.
    expr_depth: usize,
    /// Set when a `return` executes inside a function body: the producer
    /// node and API type of the returned value. Stops the block walk.
    returning: Option<(Option<NodeId>, Option<String>)>,
    sink: DiagnosticSink,
}

impl Analyzer {
    fn walk_block(&mut self, body: &[Stmt]) {
        for stmt in body {
            if self.returning.is_some() {
                break;
            }
            self.walk_stmt(stmt);
        }
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Import { module, alias, .. } => {
                self.imports
                    .insert(alias.clone(), module_root(module, alias));
            }
            Stmt::FromImport { module, names, .. } => {
                for (name, alias) in names {
                    self.imports
                        .insert(alias.clone(), format!("{module}.{name}"));
                }
            }
            Stmt::FuncDef {
                name, params, body, ..
            } => {
                // Summarized, not walked: the body is analyzed in the
                // caller's environment at each call site.
                self.functions.insert(
                    name.clone(),
                    FuncSummary {
                        params: params.clone(),
                        body: body.clone(),
                    },
                );
            }
            Stmt::Return { value, span } => {
                let result = match value {
                    Some(v) => self.visit_expr(v, *span),
                    None => (None, None),
                };
                if self.call_stack.is_empty() {
                    self.sink
                        .warning(Pass::Analysis, *span, "`return` outside a function");
                } else {
                    self.returning = Some(result);
                }
            }
            Stmt::Assign {
                targets,
                value,
                span,
            } => {
                let (producer, api_type) = self.visit_expr(value, *span);
                for t in targets {
                    match producer {
                        Some(p) => {
                            self.env.insert(t.clone(), p);
                        }
                        None => {
                            self.env.remove(t);
                        }
                    }
                    match &api_type {
                        Some(ty) => {
                            self.types.insert(t.clone(), ty.clone());
                        }
                        None => {
                            self.types.remove(t);
                        }
                    }
                }
            }
            Stmt::Expr { value, span } => {
                self.visit_expr(value, *span);
            }
            Stmt::For {
                var,
                iter,
                body,
                span,
            } => {
                let (producer, _) = self.visit_expr(iter, *span);
                if let Some(p) = producer {
                    self.env.insert(var.clone(), p);
                }
                self.walk_block(body);
            }
            Stmt::If {
                cond,
                body,
                orelse,
                span,
            } => {
                self.visit_expr(cond, *span);
                self.walk_block(body);
                self.walk_block(orelse);
            }
        }
    }

    /// Visits an expression, creating graph nodes for calls and constants.
    /// Returns the node producing the expression's value (if any) and the
    /// resolved API type of that value (if known).
    fn visit_expr(&mut self, expr: &Expr, span: Span) -> (Option<NodeId>, Option<String>) {
        self.expr_depth += 1;
        let out = match expr {
            Expr::Name(n) => (self.env.get(n).copied(), self.types.get(n).cloned()),
            Expr::Str(_) | Expr::Num(_) | Expr::Keyword(_) => (None, None),
            Expr::Subscript { base, .. } => {
                // Value flows through the container: `df['x']` carries df's
                // producer (and dataframe type).
                let (p, t) = self.visit_expr(base, span);
                (p, t)
            }
            Expr::Attribute { base, .. } => {
                let (p, _) = self.visit_expr(base, span);
                (p, None)
            }
            Expr::Sequence(items) => {
                let mut producer = None;
                for item in items {
                    let (p, _) = self.visit_expr(item, span);
                    if producer.is_none() {
                        producer = p;
                    }
                }
                (producer, None)
            }
            Expr::BinOp { left, right, .. } => {
                let (pl, tl) = self.visit_expr(left, span);
                let (pr, tr) = self.visit_expr(right, span);
                (pl.or(pr), tl.or(tr))
            }
            Expr::Call { func, args, kwargs } => self.visit_call(func, args, kwargs, span),
        };
        self.expr_depth -= 1;
        out
    }

    fn visit_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> (Option<NodeId>, Option<String>) {
        // Interprocedural pass: a call to a user-defined helper is
        // instantiated in place (no Call node), unless the inlining guard
        // trips, in which case it degrades to an opaque call below.
        if let Expr::Name(fname) = func {
            if self.functions.contains_key(fname) {
                if self.call_stack.len() >= MAX_CALL_DEPTH
                    || self.expr_depth > MAX_DEPTH
                    || self.call_stack.iter().any(|n| n == fname)
                {
                    self.sink.warning(
                        Pass::Analysis,
                        span,
                        format!("call to `{fname}` exceeds inlining depth; treated as opaque"),
                    );
                } else {
                    return self.apply_function(fname.clone(), args, kwargs, span);
                }
            }
        }

        // Resolve the callee to a dotted API path plus the receiver's
        // producing node for method calls.
        let (path, receiver) = self.resolve_callee(func, span);
        let call_label = self.interner.intern(&path);
        let call = self.graph.add_node(NodeKind::Call, call_label, span);

        // Control flow chains consecutive calls (gray edges in Figure 3).
        if let Some(prev) = self.last_call {
            self.graph.add_edge(prev, call, EdgeKind::ControlFlow);
        }
        self.last_call = Some(call);

        // Receiver dataflow: `model.fit(...)` consumes `model`.
        if let Some(r) = receiver {
            self.graph.add_edge(r, call, EdgeKind::DataFlow);
        }
        // Argument dataflow and constant nodes.
        for arg in args {
            self.flow_arg(arg, call, span);
        }
        for (name, value) in kwargs {
            self.flow_arg(value, call, span);
            // GraphGen4Code-style parameter bookkeeping node.
            let label = self.interner.intern_owned(format!("param:{name}"));
            let p = self.graph.add_node(NodeKind::Parameter, label, span);
            self.graph.add_edge(call, p, EdgeKind::Parameter);
        }
        // Location and documentation noise attached to every call.
        let label = self.interner.intern_owned(format!("loc:{}", span.line));
        let loc = self.graph.add_node(NodeKind::Location, label, span);
        self.graph.add_edge(call, loc, EdgeKind::Location);
        let label = self.interner.intern_owned(format!("doc:{path}"));
        let doc = self.graph.add_node(NodeKind::Documentation, label, span);
        self.graph.add_edge(call, doc, EdgeKind::Documentation);

        // The API type of the call's value, for downstream method
        // resolution: constructors type their object as the constructor
        // path; dataframe producers type as pandas.DataFrame.
        let value_type = if path == "pandas.read_csv"
            || path == "sklearn.model_selection.train_test_split"
            || path.starts_with("pandas.DataFrame")
        {
            Some("pandas.DataFrame".to_string())
        } else if path
            .rsplit('.')
            .next()
            .is_some_and(|last| last.chars().next().is_some_and(char::is_uppercase))
        {
            Some(path)
        } else {
            None
        };
        (Some(call), value_type)
    }

    /// Instantiates a user-defined function at a call site: evaluates the
    /// arguments in the caller's scope, binds them to the parameters, walks
    /// the body, and yields the returned value's producer/type. The
    /// caller's variable bindings are restored afterwards (function-local
    /// scope), but graph nodes created by the body remain — exactly as if
    /// the body had been inlined.
    fn apply_function(
        &mut self,
        name: String,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> (Option<NodeId>, Option<String>) {
        let Some(summary) = self.functions.get(&name).cloned() else {
            return (None, None);
        };
        // Evaluate arguments in the caller's environment. A produced value
        // is the graph node computing it (if any) plus its inferred type.
        type Produced = (Option<NodeId>, Option<String>);
        let positional: Vec<Produced> = args.iter().map(|a| self.visit_expr(a, span)).collect();
        let keyword: Vec<(String, Produced)> = kwargs
            .iter()
            .map(|(k, v)| (k.clone(), self.visit_expr(v, span)))
            .collect();

        let saved_env = self.env.clone();
        let saved_types = self.types.clone();
        self.call_stack.push(name);

        for (i, param) in summary.params.iter().enumerate() {
            let bound = positional.get(i).cloned().or_else(|| {
                keyword
                    .iter()
                    .find(|(k, _)| k == param)
                    .map(|(_, v)| v.clone())
            });
            match bound {
                Some((Some(p), t)) => {
                    self.env.insert(param.clone(), p);
                    match t {
                        Some(t) => {
                            self.types.insert(param.clone(), t);
                        }
                        None => {
                            self.types.remove(param);
                        }
                    }
                }
                Some((None, t)) => {
                    self.env.remove(param);
                    match t {
                        Some(t) => {
                            self.types.insert(param.clone(), t);
                        }
                        None => {
                            self.types.remove(param);
                        }
                    }
                }
                None => {
                    self.env.remove(param);
                    self.types.remove(param);
                }
            }
        }

        self.walk_block(&summary.body);
        let result = self.returning.take().unwrap_or((None, None));

        self.call_stack.pop();
        self.env = saved_env;
        self.types = saved_types;
        result
    }

    fn flow_arg(&mut self, arg: &Expr, call: NodeId, span: Span) {
        match arg {
            Expr::Str(s) => {
                let label = self.interner.intern_owned(format!("'{s}'"));
                let c = self.graph.add_node(NodeKind::Constant, label, span);
                self.graph.add_edge(c, call, EdgeKind::ConstantArg);
            }
            Expr::Num(v) => {
                let label = self.interner.intern_owned(format!("{v}"));
                let c = self.graph.add_node(NodeKind::Constant, label, span);
                self.graph.add_edge(c, call, EdgeKind::ConstantArg);
            }
            Expr::Keyword(k) => {
                let label = self.interner.intern(k);
                let c = self.graph.add_node(NodeKind::Constant, label, span);
                self.graph.add_edge(c, call, EdgeKind::ConstantArg);
            }
            other => {
                let (p, _) = self.visit_expr(other, span);
                if let Some(p) = p {
                    self.graph.add_edge(p, call, EdgeKind::DataFlow);
                }
            }
        }
    }

    /// Resolves a callee expression to `(dotted API path, receiver node)`.
    fn resolve_callee(&mut self, func: &Expr, span: Span) -> (String, Option<NodeId>) {
        if let Some(dotted) = func.dotted_name() {
            let mut parts = dotted.splitn(2, '.');
            let head = parts.next().unwrap_or_default().to_string();
            let rest = parts.next();
            // 1. Import alias: `pd.read_csv` → `pandas.read_csv`;
            //    `SVC()` → `sklearn.svm.SVC`.
            if let Some(full) = self.imports.get(&head) {
                return (
                    match rest {
                        Some(r) => format!("{full}.{r}"),
                        None => full.clone(),
                    },
                    None,
                );
            }
            // 2. Method call on a typed variable: `model.fit` →
            //    `sklearn.svm.SVC.fit`, receiver dataflow from `model`.
            if let Some(ty) = self.types.get(&head).cloned() {
                let receiver = self.env.get(&head).copied();
                return (
                    match rest {
                        Some(r) => format!("{ty}.{r}"),
                        None => ty,
                    },
                    receiver,
                );
            }
            // 3. Method call on an untyped variable that still has a
            //    producer: treat as an opaque object method.
            if let Some(&producer) = self.env.get(&head) {
                return (
                    match rest {
                        Some(r) => format!("object.{r}"),
                        None => "object".to_string(),
                    },
                    Some(producer),
                );
            }
            // 4. Unresolvable: keep the literal dotted path.
            return (dotted, None);
        }
        // Callee is itself a complex expression (e.g. chained call):
        // analyze it and call through an opaque label.
        let (p, _) = self.visit_expr(func, span);
        ("object.call".to_string(), p)
    }

    /// Adds GraphGen4Code-style transitive dataflow closure edges: for each
    /// node, an edge to every node reachable through 2+ dataflow hops. This
    /// is what makes raw code graphs an order of magnitude denser than the
    /// filtered graphs (Table 3: 252,486 edges over 29,139 nodes).
    fn add_transitive_closure(&mut self) {
        let direct: Vec<(NodeId, NodeId)> = self
            .graph
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::DataFlow || e.kind == EdgeKind::ConstantArg)
            .map(|e| (e.from, e.to))
            .collect();
        let n = self.graph.num_nodes();
        let mut succ: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (f, t) in &direct {
            succ[*f].push(*t);
        }
        let mut new_edges = Vec::new();
        for start in 0..n {
            // BFS from each node; nodes at depth >= 2 get closure edges.
            let mut seen = vec![false; n];
            seen[start] = true;
            let mut frontier: Vec<NodeId> = succ[start].clone();
            for f in &frontier {
                seen[*f] = true;
            }
            let mut depth = 1usize;
            while !frontier.is_empty() {
                depth += 1;
                let mut next = Vec::new();
                for &at in &frontier {
                    for &to in &succ[at] {
                        if !seen[to] {
                            seen[to] = true;
                            if depth >= 2 {
                                new_edges.push((start, to));
                            }
                            next.push(to);
                        }
                    }
                }
                frontier = next;
            }
        }
        for (f, t) in new_edges {
            self.graph.add_edge(f, t, EdgeKind::TransitiveDataFlow);
        }
    }
}

fn module_root(module: &str, alias: &str) -> String {
    // `import sklearn.svm` binds `sklearn` to `sklearn`; `import pandas as
    // pd` binds `pd` to `pandas`; `import xgboost` binds itself.
    if alias == module.split('.').next().unwrap_or(module) {
        alias.to_string()
    } else {
        module.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    /// The paper's Figure 2 snippet.
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

    fn labels(g: &CodeGraph, kind: NodeKind) -> Vec<String> {
        g.nodes_of_kind(kind)
            .into_iter()
            .map(|i| g.nodes[i].label.to_string())
            .collect()
    }

    #[test]
    fn figure2_produces_the_figure3_call_chain() {
        let g = analyze(FIG2).unwrap();
        let calls = labels(&g, NodeKind::Call);
        assert_eq!(
            calls,
            vec![
                "pandas.read_csv",
                "sklearn.model_selection.train_test_split",
                "sklearn.svm.SVC",
                "sklearn.svm.SVC.fit",
            ]
        );
    }

    #[test]
    fn figure2_dataflow_mirrors_figure3() {
        let g = analyze(FIG2).unwrap();
        let call_ids = g.nodes_of_kind(NodeKind::Call);
        let by_label = |l: &str| {
            call_ids
                .iter()
                .copied()
                .find(|&i| g.nodes[i].label == l)
                .unwrap()
        };
        let read = by_label("pandas.read_csv");
        let split = by_label("sklearn.model_selection.train_test_split");
        let svc = by_label("sklearn.svm.SVC");
        let fit = by_label("sklearn.svm.SVC.fit");
        let has_flow = |f, t| {
            g.edges
                .iter()
                .any(|e| e.from == f && e.to == t && e.kind == EdgeKind::DataFlow)
        };
        assert!(has_flow(read, split), "df flows into train_test_split");
        assert!(has_flow(split, fit), "df_train['X'] flows into fit");
        assert!(has_flow(svc, fit), "model receiver flows into fit");
        // Control flow chains all four calls.
        let cf: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::ControlFlow)
            .collect();
        assert_eq!(cf.len(), 3);
    }

    #[test]
    fn call_nodes_carry_source_spans() {
        let g = analyze(FIG2).unwrap();
        let call_ids = g.nodes_of_kind(NodeKind::Call);
        let read = call_ids
            .iter()
            .copied()
            .find(|&i| g.nodes[i].label == "pandas.read_csv")
            .unwrap();
        let span = g.nodes[read].span;
        assert_eq!(span.line, 4);
        assert_eq!(span.slice(FIG2), Some("df = pd.read_csv('example.csv')"));
    }

    #[test]
    fn noise_nodes_are_attached_to_every_call() {
        let g = analyze(FIG2).unwrap();
        let calls = g.nodes_of_kind(NodeKind::Call).len();
        assert_eq!(g.nodes_of_kind(NodeKind::Location).len(), calls);
        assert_eq!(g.nodes_of_kind(NodeKind::Documentation).len(), calls);
        assert_eq!(labels(&g, NodeKind::Constant), vec!["'example.csv'"]);
    }

    #[test]
    fn kwargs_create_parameter_nodes_and_constants() {
        let g = analyze(
            "from sklearn.ensemble import RandomForestClassifier\nm = RandomForestClassifier(n_estimators=100)\n",
        )
        .unwrap();
        assert_eq!(labels(&g, NodeKind::Parameter), vec!["param:n_estimators"]);
        assert_eq!(labels(&g, NodeKind::Constant), vec!["100"]);
    }

    #[test]
    fn transitive_closure_adds_reachability_edges() {
        // read -> split -> fit: closure should add read -> fit.
        let g = analyze(FIG2).unwrap();
        let trans = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::TransitiveDataFlow)
            .count();
        assert!(trans >= 1, "expected closure edges, got {trans}");
    }

    #[test]
    fn unsupported_framework_calls_are_labeled_but_not_canonical() {
        let g = analyze("import torch\nnet = torch.nn.Linear(10, 2)\n").unwrap();
        let calls = labels(&g, NodeKind::Call);
        assert_eq!(calls, vec!["torch.nn.Linear"]);
    }

    #[test]
    fn untyped_object_methods_resolve_opaquely() {
        let g = analyze("x = helper()\nx.run(1)\n").unwrap();
        let calls = labels(&g, NodeKind::Call);
        // helper is unresolvable (no import), x.run resolves through the
        // producer as an opaque object method... except helper() returns a
        // typed value only for constructors; `helper` is lowercase.
        assert_eq!(calls[0], "helper");
        assert_eq!(calls[1], "object.run");
    }

    #[test]
    fn dataframe_methods_type_through() {
        let g = analyze(
            "import pandas as pd\ndf = pd.read_csv('a.csv')\ndf2 = df.dropna()\ndf2.describe()\n",
        )
        .unwrap();
        let calls = labels(&g, NodeKind::Call);
        assert_eq!(
            calls,
            vec![
                "pandas.read_csv",
                "pandas.DataFrame.dropna",
                "pandas.DataFrame.describe"
            ]
        );
    }

    #[test]
    fn loops_and_conditionals_are_analyzed_linearly() {
        let src = "\
import pandas as pd
df = pd.read_csv('a.csv')
for c in df:
    df[c] = df[c] + 1
if True:
    df.describe()
";
        let g = analyze(src).unwrap();
        let calls = labels(&g, NodeKind::Call);
        assert!(calls.contains(&"pandas.DataFrame.describe".to_string()));
    }

    #[test]
    fn helper_function_is_instantiated_at_the_call_site() {
        let helper = "\
import pandas as pd
from sklearn.preprocessing import StandardScaler
def prepare(data):
    prep = StandardScaler()
    out = prep.fit_transform(data)
    return out
df = pd.read_csv('a.csv')
x = prepare(df)
";
        let inlined = "\
import pandas as pd
from sklearn.preprocessing import StandardScaler
df = pd.read_csv('a.csv')
prep = StandardScaler()
out = prep.fit_transform(df)
x = out
";
        let gh = analyze(helper).unwrap();
        let gi = analyze(inlined).unwrap();
        assert_eq!(labels(&gh, NodeKind::Call), labels(&gi, NodeKind::Call));
        assert_eq!(
            labels(&gh, NodeKind::Call),
            vec![
                "pandas.read_csv",
                "sklearn.preprocessing.StandardScaler",
                "sklearn.preprocessing.StandardScaler.fit_transform",
            ]
        );
        // The argument's producer flows into the helper's body calls.
        let call_ids = gh.nodes_of_kind(NodeKind::Call);
        let read = call_ids[0];
        let fit_transform = call_ids[2];
        assert!(gh
            .edges
            .iter()
            .any(|e| e.from == read && e.to == fit_transform && e.kind == EdgeKind::DataFlow));
    }

    #[test]
    fn helper_return_type_propagates_to_the_caller() {
        let src = "\
import pandas as pd
def load():
    df = pd.read_csv('a.csv')
    return df
data = load()
data.describe()
";
        let g = analyze(src).unwrap();
        let calls = labels(&g, NodeKind::Call);
        assert_eq!(
            calls,
            vec!["pandas.read_csv", "pandas.DataFrame.describe"],
            "the returned dataframe type resolves the method call"
        );
    }

    #[test]
    fn helper_locals_do_not_leak_into_the_caller() {
        let src = "\
import pandas as pd
def load():
    secret = pd.read_csv('a.csv')
    return secret
data = load()
secret.describe()
";
        let g = analyze(src).unwrap();
        let calls = labels(&g, NodeKind::Call);
        // `secret` is function-local, so the trailing call is unresolved.
        assert_eq!(calls, vec!["pandas.read_csv", "secret.describe"]);
    }

    #[test]
    fn recursive_helpers_degrade_to_opaque_calls() {
        let src = "def f(x):\n    y = f(x)\n    return y\nz = f(1)\n";
        let (g, diags) = analyze_with_diagnostics(src);
        assert_eq!(labels(&g, NodeKind::Call), vec!["f"]);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("inlining depth")));
    }

    #[test]
    fn helpers_called_deep_in_an_expression_degrade_to_opaque_calls() {
        // Each helper calls the next inside nearly MAX_DEPTH nested calls:
        // inlining them all would stack those nestings on one stack.
        let depth = MAX_DEPTH - 2;
        let mut src = String::new();
        for i in 0..MAX_CALL_DEPTH {
            let (open, close) = ("g(".repeat(depth), ")".repeat(depth));
            src.push_str(&format!(
                "def h{i}(x):\n    return {open}h{}(x){close}\n",
                i + 1
            ));
        }
        src.push_str("y = h0(df)\n");
        let (_, diags) = analyze_with_diagnostics(&src);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("inlining depth")));
    }

    #[test]
    fn return_outside_function_warns() {
        let (g, diags) = analyze_with_diagnostics("x = 1\nreturn x\n");
        assert_eq!(g.nodes_of_kind(NodeKind::Call).len(), 0);
        assert!(diags.iter().any(|d| d.severity == Severity::Warning
            && d.message.contains("outside a function")
            && d.span.line == 2));
    }

    #[test]
    fn recovering_analysis_survives_malformed_statements() {
        let src = "import pandas as pd\ndf = pd.read_csv('a.csv')\nx = = 3\ndf.describe()\n";
        let (g, diags) = analyze_with_diagnostics(src);
        let calls = labels(&g, NodeKind::Call);
        assert_eq!(calls, vec!["pandas.read_csv", "pandas.DataFrame.describe"]);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            1
        );
    }

    #[test]
    fn graph_scale_matches_graphgen4code_profile() {
        // A realistic ~30-line script should produce hundreds of nodes and
        // an edge count dominated by noise + closure, as in paper §3.3.
        let mut src = String::from(
            "import pandas as pd\nfrom sklearn.preprocessing import StandardScaler\nfrom sklearn.ensemble import RandomForestClassifier\ndf = pd.read_csv('data.csv')\n",
        );
        for i in 0..20 {
            src.push_str(&format!("df_{i} = df.fillna({i})\n"));
            src.push_str(&format!("df = df_{i}.dropna()\n"));
        }
        src.push_str("s = StandardScaler()\nx = s.fit_transform(df)\nm = RandomForestClassifier(n_estimators=50, max_depth=4)\nm.fit(x, df)\n");
        let g = analyze(&src).unwrap();
        assert!(g.num_nodes() > 100, "nodes = {}", g.num_nodes());
        assert!(
            g.num_edges() > 5 * g.num_nodes(),
            "edges = {} for {} nodes",
            g.num_edges(),
            g.num_nodes()
        );
    }
}
