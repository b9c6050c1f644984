//! Recursive-descent parser for the analyzed Python subset.
//!
//! The parser is panic-free and error-recovering: [`parse_with_diagnostics`]
//! always produces a [`Module`], turning each malformed statement into a
//! [`Diagnostic`] and resynchronizing at the next statement boundary
//! (the next newline at the current block depth). [`parse`] is the strict
//! wrapper that fails on the first error-severity diagnostic. Nesting
//! deeper than [`MAX_DEPTH`] is one such malformed statement, so crafted
//! input cannot overflow the stack.

use crate::ast::{Expr, Module, Stmt};
use crate::diag::{Diagnostic, DiagnosticSink, Pass, Severity};
use crate::lexer::{lex, lex_error, Spanned, Token};
use crate::span::Span;
use crate::{CodeGraphError, Result};

/// Internal result type: statement/expression parsers fail with a
/// span-carrying diagnostic, which the block driver records and recovers
/// from.
type PResult<T> = std::result::Result<T, Diagnostic>;

static EOF_TOKEN: Token = Token::Eof;

/// Deepest nesting a statement may have, bounding two things at once: the
/// parser's own recursion (brackets, calls, subscripts, unary minus and
/// indented blocks) and the height of an expression tree (each operator or
/// trailer of a chain nests the expression to its left). The parser, the
/// analyzer and dropping a tree each recurse once per level. CPython stops
/// at 100 levels of indentation too.
pub const MAX_DEPTH: usize = 100;

/// An expression and the height of its tree (a leaf is 1).
type Tree = (Expr, usize);

/// Parses a script into a [`Module`] plus the diagnostics recovered
/// along the way (lexical problems first, then parse problems). The
/// module contains every statement that parsed cleanly; malformed
/// statements are dropped after emitting a diagnostic.
pub fn parse_with_diagnostics(source: &str) -> (Module, Vec<Diagnostic>) {
    let (tokens, lex_sink) = lex(source);
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
        sink: DiagnosticSink::new(),
    };
    let body = p.parse_block_body(true);
    let mut sink = lex_sink;
    sink.absorb(p.sink);
    (Module { body }, sink.into_diagnostics())
}

/// Strict parsing: like [`parse_with_diagnostics`], but the first
/// error-severity diagnostic aborts with a [`CodeGraphError`].
pub fn parse(source: &str) -> Result<Module> {
    let (module, diags) = parse_with_diagnostics(source);
    if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
        return Err(match d.pass {
            Pass::Lex => lex_error(d),
            _ => CodeGraphError::Parse {
                line: d.span.line,
                message: d.message.clone(),
            },
        });
    }
    Ok(module)
}

struct Parser {
    tokens: Vec<Spanned>,
    at: usize,
    /// Current recursion depth (see [`MAX_DEPTH`]).
    depth: usize,
    sink: DiagnosticSink,
}

impl Parser {
    fn peek(&self) -> &Token {
        self.tokens
            .get(self.at)
            .map(|s| &s.token)
            .unwrap_or(&EOF_TOKEN)
    }

    /// Token after the current one (for two-token lookahead).
    fn peek2(&self) -> &Token {
        self.tokens
            .get(self.at + 1)
            .map(|s| &s.token)
            .unwrap_or(&EOF_TOKEN)
    }

    fn span(&self) -> Span {
        self.tokens.get(self.at).map(|s| s.span).unwrap_or_default()
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        match self.at.checked_sub(1) {
            Some(i) => self.tokens.get(i).map(|s| s.span).unwrap_or_default(),
            None => Span::synthetic(),
        }
    }

    /// Full span of a statement that started at `start` and has consumed
    /// tokens up to (not including) the current position.
    fn stmt_span(&self, start: Span) -> Span {
        start.merge(self.prev_span())
    }

    fn bump(&mut self) -> Token {
        let t = self
            .tokens
            .get(self.at)
            .map(|s| s.token.clone())
            .unwrap_or(Token::Eof);
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(Diagnostic {
            span: self.span(),
            severity: Severity::Error,
            pass: Pass::Parse,
            message: message.into(),
        })
    }

    fn too_deep<T>(&self) -> PResult<T> {
        self.err(format!("nesting exceeds {MAX_DEPTH} levels"))
    }

    /// Runs `f` one recursion level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= MAX_DEPTH {
            return self.too_deep();
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Height of a node over children at most `child` high, failing past
    /// [`MAX_DEPTH`].
    fn node_height(&self, child: usize) -> PResult<usize> {
        if child >= MAX_DEPTH {
            return self.too_deep();
        }
        Ok(child + 1)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Token::Op(o) if o == op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &str) -> PResult<()> {
        if self.eat_op(op) {
            Ok(())
        } else {
            self.err(format!("expected `{op}`, found {:?}", self.peek()))
        }
    }

    fn expect_name(&mut self) -> PResult<String> {
        match self.bump() {
            Token::Name(n) => Ok(n),
            other => self.err(format!("expected name, found {other:?}")),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Token::Newline) {
            self.bump();
        }
    }

    /// Skips to the next statement boundary after a parse error: consumes
    /// tokens until a newline at the current block depth. An indented
    /// block that follows the malformed statement is its body and is
    /// skipped whole, as are blocks opened mid-error; the statement after
    /// such a block starts the next boundary. Stops before a `Dedent` that
    /// would close the enclosing block, and at `Eof`.
    fn resynchronize(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Token::Eof => return,
                Token::Newline => {
                    self.bump();
                    if depth == 0 {
                        self.skip_newlines();
                        if !matches!(self.peek(), Token::Indent) {
                            return;
                        }
                    }
                }
                Token::Indent => {
                    depth += 1;
                    self.bump();
                }
                Token::Dedent => {
                    if depth == 0 {
                        return; // let the enclosing block close itself
                    }
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return; // the skipped block has closed
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Whether the last consumed token ended a line.
    fn at_line_start(&self) -> bool {
        self.at
            .checked_sub(1)
            .and_then(|i| self.tokens.get(i))
            .is_some_and(|s| matches!(s.token, Token::Newline))
    }

    /// Parses statements until Dedent (nested) or Eof (top level),
    /// recovering from malformed statements via [`Self::resynchronize`],
    /// or in place when the error already sits at a line start.
    fn parse_block_body(&mut self, top_level: bool) -> Vec<Stmt> {
        let mut body = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                Token::Eof => return body,
                Token::Dedent => {
                    self.bump();
                    if top_level {
                        // A balanced lexer never leaves a stray top-level
                        // dedent; tolerate one anyway and keep parsing.
                        continue;
                    }
                    return body;
                }
                _ => {
                    let start = self.at;
                    match self.parse_stmt() {
                        Ok(stmt) => body.push(stmt),
                        Err(diag) => {
                            self.sink.push(diag);
                            // A statement that failed after moving on to the
                            // start of a later line (a block header with no
                            // indented body) ends there: that line is the
                            // next statement, not part of the malformed one.
                            if self.at == start || !self.at_line_start() {
                                self.resynchronize();
                            }
                        }
                    }
                }
            }
        }
    }

    fn parse_indented_block(&mut self) -> PResult<Vec<Stmt>> {
        self.nested(|p| {
            p.expect_op(":")?;
            if !matches!(p.peek(), Token::Newline) {
                // Single-line suite: `if x: y = 1`.
                let stmt = p.parse_simple_stmt()?;
                return Ok(vec![stmt]);
            }
            p.skip_newlines();
            match p.peek() {
                Token::Indent => {
                    p.bump();
                    Ok(p.parse_block_body(false))
                }
                _ => p.err("expected indented block"),
            }
        })
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        match self.peek().clone() {
            Token::Name(kw) if kw == "import" => {
                self.bump();
                let mut module = self.expect_name()?;
                while self.eat_op(".") {
                    module = format!("{module}.{}", self.expect_name()?);
                }
                let alias = if matches!(self.peek(), Token::Name(n) if n == "as") {
                    self.bump();
                    self.expect_name()?
                } else {
                    // `import a.b` binds `a`; `import a` binds `a`.
                    module.split('.').next().unwrap_or(&module).to_string()
                };
                Ok(Stmt::Import {
                    module,
                    alias,
                    span: self.stmt_span(start),
                })
            }
            Token::Name(kw) if kw == "from" => {
                self.bump();
                let mut module = self.expect_name()?;
                while self.eat_op(".") {
                    module = format!("{module}.{}", self.expect_name()?);
                }
                match self.bump() {
                    Token::Name(n) if n == "import" => {}
                    other => return self.err(format!("expected `import`, found {other:?}")),
                }
                let mut names = Vec::new();
                loop {
                    let name = self.expect_name()?;
                    let alias = if matches!(self.peek(), Token::Name(n) if n == "as") {
                        self.bump();
                        self.expect_name()?
                    } else {
                        name.clone()
                    };
                    names.push((name, alias));
                    if !self.eat_op(",") {
                        break;
                    }
                }
                Ok(Stmt::FromImport {
                    module,
                    names,
                    span: self.stmt_span(start),
                })
            }
            Token::Name(kw) if kw == "def" => {
                self.bump();
                let name = self.expect_name()?;
                self.expect_op("(")?;
                let mut params = Vec::new();
                if !self.eat_op(")") {
                    loop {
                        let param = self.expect_name()?;
                        if self.eat_op("=") {
                            // Default value: parsed for resilience, not
                            // modelled by the dataflow analysis.
                            let _ = self.parse_expr()?;
                        }
                        params.push(param);
                        if !self.eat_op(",") {
                            break;
                        }
                        if matches!(self.peek(), Token::Op(o) if o == ")") {
                            break; // trailing comma
                        }
                    }
                    self.expect_op(")")?;
                }
                let header = self.stmt_span(start);
                let body = self.parse_indented_block()?;
                Ok(Stmt::FuncDef {
                    name,
                    params,
                    body,
                    span: header,
                })
            }
            Token::Name(kw) if kw == "return" => {
                self.bump();
                let value = if matches!(self.peek(), Token::Newline | Token::Eof | Token::Dedent) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                Ok(Stmt::Return {
                    value,
                    span: self.stmt_span(start),
                })
            }
            Token::Name(kw) if kw == "for" => {
                self.bump();
                let var = self.expect_name()?;
                match self.bump() {
                    Token::Name(n) if n == "in" => {}
                    other => return self.err(format!("expected `in`, found {other:?}")),
                }
                let iter = self.parse_expr()?;
                let header = self.stmt_span(start);
                let body = self.parse_indented_block()?;
                Ok(Stmt::For {
                    var,
                    iter,
                    body,
                    span: header,
                })
            }
            Token::Name(kw) if kw == "if" => {
                self.bump();
                let cond = self.parse_expr()?;
                let header = self.stmt_span(start);
                let body = self.parse_indented_block()?;
                self.skip_newlines();
                let orelse = if matches!(self.peek(), Token::Name(n) if n == "else") {
                    self.bump();
                    self.parse_indented_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    body,
                    orelse,
                    span: header,
                })
            }
            _ => self.parse_simple_stmt(),
        }
    }

    /// Assignment or expression statement.
    fn parse_simple_stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        let first = self.parse_expr()?;
        // Tuple target: `a, b = ...`
        let mut targets_exprs = vec![first];
        while self.eat_op(",") {
            targets_exprs.push(self.parse_expr()?);
        }
        if self.eat_op("=") {
            let mut targets = Vec::with_capacity(targets_exprs.len());
            for t in &targets_exprs {
                match t {
                    Expr::Name(n) => targets.push(n.clone()),
                    // Attribute/subscript targets (df['x'] = ...) bind the base
                    // variable for dataflow purposes.
                    Expr::Subscript { base, .. } | Expr::Attribute { base, .. } => {
                        match base.dotted_name() {
                            Some(n) => targets.push(n.split('.').next().unwrap_or(&n).to_string()),
                            None => return self.err("unsupported assignment target"),
                        }
                    }
                    _ => return self.err("unsupported assignment target"),
                }
            }
            let mut values = vec![self.parse_expr()?];
            while self.eat_op(",") {
                values.push(self.parse_expr()?);
            }
            let value = if values.len() == 1 {
                values.pop().unwrap_or(Expr::Sequence(Vec::new()))
            } else {
                Expr::Sequence(values)
            };
            return Ok(Stmt::Assign {
                targets,
                value,
                span: self.stmt_span(start),
            });
        }
        let mut it = targets_exprs.into_iter();
        match (it.next(), it.next()) {
            (Some(value), None) => Ok(Stmt::Expr {
                value,
                span: self.stmt_span(start),
            }),
            _ => self.err("bare tuple expression statement"),
        }
    }

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_tree().map(|(e, _)| e)
    }

    /// Binary-operator expression (all operators at one precedence level —
    /// dataflow analysis does not care about arithmetic precedence).
    fn parse_tree(&mut self) -> PResult<Tree> {
        let (mut left, mut height) = self.parse_postfix()?;
        loop {
            let op = match self.peek() {
                Token::Op(o)
                    if matches!(
                        o.as_str(),
                        "+" | "-"
                            | "*"
                            | "/"
                            | "%"
                            | "**"
                            | "//"
                            | "=="
                            | "!="
                            | "<"
                            | ">"
                            | "<="
                            | ">="
                            | "&"
                            | "|"
                    ) =>
                {
                    o.clone()
                }
                Token::Name(n) if n == "in" || n == "and" || n == "or" || n == "not" => n.clone(),
                _ => break,
            };
            self.bump();
            let (right, right_height) = self.parse_postfix()?;
            height = self.node_height(height.max(right_height))?;
            left = Expr::BinOp {
                left: Box::new(left),
                right: Box::new(right),
                op,
            };
        }
        Ok((left, height))
    }

    /// Primary expression with `.attr`, `(...)`, `[...]` trailers.
    fn parse_postfix(&mut self) -> PResult<Tree> {
        let (mut e, mut height) = self.parse_primary()?;
        loop {
            if self.eat_op(".") {
                let attr = self.expect_name()?;
                height = self.node_height(height)?;
                e = Expr::Attribute {
                    base: Box::new(e),
                    attr,
                };
            } else if matches!(self.peek(), Token::Op(o) if o == "(") {
                self.bump();
                let (args, kwargs, args_height) = self.nested(Self::parse_args)?;
                height = self.node_height(height.max(args_height))?;
                e = Expr::Call {
                    func: Box::new(e),
                    args,
                    kwargs,
                };
            } else if matches!(self.peek(), Token::Op(o) if o == "[") {
                self.bump();
                let (index, index_height) = self.nested(|p| {
                    let index = p.parse_tree()?;
                    // Slices like a[1:3] — consume the rest loosely.
                    if p.eat_op(":") && !matches!(p.peek(), Token::Op(o) if o == "]") {
                        let _ = p.parse_tree()?;
                    }
                    p.expect_op("]")?;
                    Ok(index)
                })?;
                height = self.node_height(height.max(index_height))?;
                e = Expr::Subscript {
                    base: Box::new(e),
                    index: Box::new(index),
                };
            } else {
                break;
            }
        }
        Ok((e, height))
    }

    /// Call arguments after the `(`, plus the height of the tallest.
    #[allow(clippy::type_complexity)] // (positional args, keyword args, height)
    fn parse_args(&mut self) -> PResult<(Vec<Expr>, Vec<(String, Expr)>, usize)> {
        let mut args = Vec::new();
        let mut kwargs = Vec::new();
        let mut height = 0;
        if self.eat_op(")") {
            return Ok((args, kwargs, height));
        }
        loop {
            // kwarg: NAME '=' expr (lookahead two tokens).
            if let Token::Name(n) = self.peek().clone() {
                if matches!(self.peek2(), Token::Op(o) if o == "=") {
                    self.bump();
                    self.bump();
                    let (value, h) = self.parse_tree()?;
                    height = height.max(h);
                    kwargs.push((n, value));
                    if self.eat_op(",") {
                        continue;
                    }
                    self.expect_op(")")?;
                    break;
                }
            }
            let (arg, h) = self.parse_tree()?;
            height = height.max(h);
            args.push(arg);
            if self.eat_op(",") {
                continue;
            }
            self.expect_op(")")?;
            break;
        }
        Ok((args, kwargs, height))
    }

    fn parse_primary(&mut self) -> PResult<Tree> {
        match self.bump() {
            Token::Name(n) if n == "True" || n == "False" || n == "None" => {
                Ok((Expr::Keyword(n), 1))
            }
            Token::Name(n) => Ok((Expr::Name(n), 1)),
            Token::Num(v) => Ok((Expr::Num(v), 1)),
            Token::Str(s) => Ok((Expr::Str(s), 1)),
            Token::Op(o) if o == "(" => self.nested(|p| {
                if p.eat_op(")") {
                    return Ok((Expr::Sequence(vec![]), 1));
                }
                let mut items = vec![p.parse_tree()?];
                while p.eat_op(",") {
                    if matches!(p.peek(), Token::Op(o) if o == ")") {
                        break;
                    }
                    items.push(p.parse_tree()?);
                }
                p.expect_op(")")?;
                if items.len() == 1 {
                    Ok(items.pop().unwrap_or((Expr::Sequence(Vec::new()), 1)))
                } else {
                    p.sequence(items)
                }
            }),
            Token::Op(o) if o == "[" => self.nested(|p| {
                let mut items = Vec::new();
                if !p.eat_op("]") {
                    items.push(p.parse_tree()?);
                    while p.eat_op(",") {
                        if matches!(p.peek(), Token::Op(o) if o == "]") {
                            break;
                        }
                        items.push(p.parse_tree()?);
                    }
                    p.expect_op("]")?;
                }
                p.sequence(items)
            }),
            Token::Op(o) if o == "-" => {
                // Unary minus on a number.
                match self.nested(Self::parse_primary)? {
                    (Expr::Num(v), height) => Ok((Expr::Num(-v), height)),
                    (other, height) => Ok((
                        Expr::BinOp {
                            left: Box::new(Expr::Num(0.0)),
                            right: Box::new(other),
                            op: "-".into(),
                        },
                        self.node_height(height)?,
                    )),
                }
            }
            other => self.err(format!("unexpected token {other:?}")),
        }
    }

    /// A list or tuple display over `items`.
    fn sequence(&self, items: Vec<Tree>) -> PResult<Tree> {
        let tallest = items.iter().map(|&(_, h)| h).max().unwrap_or(0);
        let height = self.node_height(tallest)?;
        Ok((
            Expr::Sequence(items.into_iter().map(|(e, _)| e).collect()),
            height,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_figure_2_snippet() {
        let src = "\
df = pd.read_csv('example.csv')
df_train, df_test = train_test_split(df)
X = df_train['X']
model = svm.SVC()
model.fit(X, df_train['Y'])
";
        let m = parse(src).unwrap();
        assert_eq!(m.body.len(), 5);
        match &m.body[1] {
            Stmt::Assign { targets, .. } => {
                assert_eq!(targets, &["df_train".to_string(), "df_test".to_string()])
            }
            other => panic!("expected tuple assign, got {other:?}"),
        }
        match &m.body[4] {
            Stmt::Expr {
                value: Expr::Call { func, args, .. },
                ..
            } => {
                assert_eq!(func.dotted_name().as_deref(), Some("model.fit"));
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected call stmt, got {other:?}"),
        }
    }

    #[test]
    fn statement_spans_locate_source_text() {
        let src = "df = pd.read_csv('example.csv')\nmodel = svm.SVC()\n";
        let m = parse(src).unwrap();
        let s0 = m.body[0].span();
        assert_eq!((s0.line, s0.col), (1, 1));
        assert_eq!(s0.slice(src), Some("df = pd.read_csv('example.csv')"));
        let s1 = m.body[1].span();
        assert_eq!((s1.line, s1.col), (2, 1));
        assert_eq!(s1.slice(src), Some("model = svm.SVC()"));
    }

    #[test]
    fn imports_and_aliases() {
        let m = parse(
            "import pandas as pd\nimport xgboost\nfrom sklearn.svm import SVC, LinearSVC as LSVC\n",
        )
        .unwrap();
        match &m.body[0] {
            Stmt::Import { module, alias, .. } => {
                assert_eq!(module, "pandas");
                assert_eq!(alias, "pd");
            }
            other => panic!("{other:?}"),
        }
        match &m.body[1] {
            Stmt::Import { module, alias, .. } => {
                assert_eq!(module, "xgboost");
                assert_eq!(alias, "xgboost");
            }
            other => panic!("{other:?}"),
        }
        match &m.body[2] {
            Stmt::FromImport { module, names, .. } => {
                assert_eq!(module, "sklearn.svm");
                assert_eq!(
                    names,
                    &[
                        ("SVC".to_string(), "SVC".to_string()),
                        ("LinearSVC".to_string(), "LSVC".to_string())
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dotted_import_binds_root() {
        let m = parse("import sklearn.svm\n").unwrap();
        match &m.body[0] {
            Stmt::Import { module, alias, .. } => {
                assert_eq!(module, "sklearn.svm");
                assert_eq!(alias, "sklearn");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kwargs_and_numbers() {
        let m = parse("m = RandomForestClassifier(n_estimators=100, max_depth=5.5)\n").unwrap();
        match &m.body[0] {
            Stmt::Assign {
                value: Expr::Call { kwargs, .. },
                ..
            } => {
                assert_eq!(kwargs[0].0, "n_estimators");
                assert_eq!(kwargs[0].1, Expr::Num(100.0));
                assert_eq!(kwargs[1].1, Expr::Num(5.5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_and_if_blocks() {
        let src = "\
for c in cols:
    df[c] = df[c] + 1
if ok:
    x = 1
else:
    x = 2
";
        let m = parse(src).unwrap();
        assert_eq!(m.body.len(), 2);
        match &m.body[0] {
            Stmt::For { var, body, .. } => {
                assert_eq!(var, "c");
                assert_eq!(body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        match &m.body[1] {
            Stmt::If { body, orelse, .. } => {
                assert_eq!(body.len(), 1);
                assert_eq!(orelse.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn def_and_return_statements() {
        let src = "\
def prepare(data, k=5):
    out = scale(data)
    return out
x = prepare(df)
";
        let m = parse(src).unwrap();
        assert_eq!(m.body.len(), 2);
        match &m.body[0] {
            Stmt::FuncDef {
                name, params, body, ..
            } => {
                assert_eq!(name, "prepare");
                assert_eq!(params, &["data".to_string(), "k".to_string()]);
                assert_eq!(body.len(), 2);
                assert!(matches!(body[1], Stmt::Return { value: Some(_), .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_return_has_no_value() {
        let m = parse("def f():\n    return\n").unwrap();
        match &m.body[0] {
            Stmt::FuncDef { body, .. } => {
                assert!(matches!(body[0], Stmt::Return { value: None, .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subscript_assignment_targets_base() {
        let m = parse("df['col'] = scaler.fit_transform(df)\n").unwrap();
        match &m.body[0] {
            Stmt::Assign { targets, .. } => assert_eq!(targets, &["df".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiline_call_via_parens() {
        let m = parse("m = XGBClassifier(\n    n_estimators=10,\n    max_depth=3)\n").unwrap();
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn list_and_tuple_literals() {
        let m = parse("x = [1, 2, 3]\ny = (a, b)\n").unwrap();
        match &m.body[0] {
            Stmt::Assign {
                value: Expr::Sequence(items),
                ..
            } => assert_eq!(items.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_literal() {
        let m = parse("x = -2.5\n").unwrap();
        match &m.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(*value, Expr::Num(-2.5)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_error_carries_line() {
        let err = parse("x = 1\ny = =\n").unwrap_err();
        assert!(matches!(err, CodeGraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn recovery_keeps_statements_around_a_malformed_one() {
        let src = "a = 1\nb = = 2\nc = 3\n";
        let (m, diags) = parse_with_diagnostics(src);
        assert_eq!(m.body.len(), 2, "a and c survive");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].span.line, 2);
        assert!(
            matches!(m.body[1], Stmt::Assign { ref targets, .. } if targets == &["c".to_string()])
        );
    }

    #[test]
    fn recovery_skips_malformed_block_headers_with_their_bodies() {
        let src = "a = 1\nfor in xs:\n    b = 2\nc = 3\n";
        let (m, diags) = parse_with_diagnostics(src);
        assert!(!diags.is_empty());
        // `a` and `c` parse; the broken for-loop (and its body) is skipped.
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn recovery_skips_a_nested_malformed_header_with_its_body_only() {
        let src = "if ok:\n    for in xs:\n        b = 2\n    c = 3\nd = 4\n";
        let (m, diags) = parse_with_diagnostics(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(m.body.len(), 2, "the if and d = 4 at top level: {m:?}");
        match &m.body[0] {
            Stmt::If { body, .. } => {
                assert_eq!(body.len(), 1, "c = 3 stays in the if block: {body:?}");
                assert!(
                    matches!(&body[0], Stmt::Assign { targets, .. } if targets == &["c".to_string()])
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(
            matches!(&m.body[1], Stmt::Assign { targets, .. } if targets == &["d".to_string()])
        );
    }

    #[test]
    fn recovery_inside_a_block_preserves_the_block() {
        let src = "if ok:\n    x = 1\n    y = = 2\n    z = 3\nw = 4\n";
        let (m, diags) = parse_with_diagnostics(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(m.body.len(), 2);
        match &m.body[0] {
            Stmt::If { body, .. } => assert_eq!(body.len(), 2, "x and z survive in the block"),
            other => panic!("{other:?}"),
        }
    }

    /// The names the statements of `body` assign, `if` for an if.
    fn stmt_names(body: &[Stmt]) -> Vec<String> {
        body.iter()
            .map(|stmt| match stmt {
                Stmt::Assign { targets, .. } => targets.join(","),
                Stmt::If { .. } => "if".to_string(),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn recovery_after_a_bodyless_header_resumes_at_the_next_line() {
        let (m, diags) = parse_with_diagnostics("for x in xs:\nb = 2\nc = 3\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].message, "expected indented block");
        assert_eq!((diags[0].span.line, diags[0].span.col), (2, 1));
        assert_eq!(stmt_names(&m.body), ["b", "c"], "b = 2 survives");
    }

    #[test]
    fn recovery_after_a_nested_bodyless_header_keeps_the_block() {
        let src = "if ok:\n    for x in xs:\n    b = 2\n    c = 3\nd = 4\n";
        let (m, diags) = parse_with_diagnostics(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(stmt_names(&m.body), ["if", "d"]);
        match &m.body[0] {
            Stmt::If { body, .. } => assert_eq!(stmt_names(body), ["b", "c"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slice_subscript() {
        let m = parse("x = data[1:5]\n").unwrap();
        assert_eq!(m.body.len(), 1);
    }
}
