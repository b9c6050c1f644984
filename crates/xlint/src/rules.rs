//! The six house rules, implemented as token-stream heuristics.
//!
//! Each rule walks the comment-stripped token stream of one file (with
//! `#[cfg(test)]` regions masked out — tests may time, randomize, and
//! unwrap freely) and emits [`LintDiagnostic`]s. The heuristics are
//! deliberately simple and slightly over-eager: a false positive costs
//! one justified `xlint: allow` comment, which doubles as documentation
//! of *why* the site is sound; a false negative costs a nondeterminism
//! bug that survives to production.

use crate::config::CrateRules;
use crate::diag::{LintDiagnostic, Rule};
use crate::lexer::{Token, TokenKind};
use kgpip_codegraph::Span;

/// Methods that iterate a hash container in arbitrary order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "par_iter",
];

/// Idents that, appearing in the same statement as a hash iteration,
/// make its order irrelevant: the items are re-sorted, rehomed into an
/// ordered container, or folded through an order-insensitive predicate.
/// `sum`/`min_by_key`/`max_by_key` are deliberately absent — float
/// summation is order-sensitive and min/max need unique keys to be
/// well-defined, so those sites must be fixed or individually justified.
const NEUTRALIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "count",
    "any",
    "all",
];

/// Idents that put a function into rayon territory.
const RAYON_TRIGGERS: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_bridge",
    "par_extend",
    "ThreadPoolBuilder",
];

/// Panicking macros (flagged when followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// A function found by brace-matching: its name and its body as a token
/// index range (exclusive of the braces).
#[derive(Debug, Clone)]
struct Function {
    name: String,
    name_span: Span,
    body: std::ops::Range<usize>,
}

/// Pre-computed per-file state shared by every rule: the comment-stripped
/// token stream, a test-region mask, and the function map.
pub struct FileContext {
    code: Vec<Token>,
    in_test: Vec<bool>,
    functions: Vec<Function>,
}

impl FileContext {
    /// Builds the context from a full lexed token stream (comments
    /// included — they are stripped here, after the suppression scanner
    /// has had its chance at them).
    pub fn new(tokens: &[Token]) -> FileContext {
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        let in_test = mask_test_regions(&code);
        let functions = find_functions(&code, &in_test);
        FileContext {
            code,
            in_test,
            functions,
        }
    }

    /// True when the token at `i` sits inside a `#[cfg(test)]` item.
    fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i)
    }
}

/// Runs the configured rules over one file. `crate_file` is the path
/// relative to the crate dir (for `panic_files` scoping); `file` is the
/// workspace-relative path stamped onto diagnostics.
pub fn run_rules(
    file: &str,
    crate_file: &str,
    ctx: &FileContext,
    rules: &CrateRules,
    pool_sanctioned: &[String],
) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    for rule in rules.parsed_rules() {
        match rule {
            Rule::NondeterministicIteration => nondeterministic_iteration(file, ctx, &mut out),
            Rule::UnclampedRayon => unclamped_rayon(file, ctx, pool_sanctioned, &mut out),
            Rule::WallClockInCompute => wall_clock(file, ctx, &mut out),
            Rule::UnseededRng => unseeded_rng(file, ctx, &mut out),
            Rule::PanicInServePath => {
                if rules.panic_file_in_scope(crate_file) {
                    panic_in_serve_path(file, ctx, &mut out);
                }
            }
            Rule::MissingCrateGuards => {
                if crate_file == "src/lib.rs" {
                    missing_crate_guards(file, ctx, &mut out);
                }
            }
            Rule::BadSuppression | Rule::UnusedSuppression => {}
        }
    }
    out
}

/// Matches `pattern` against the code tokens starting at `i`. Pattern
/// items that are a single non-identifier character match puncts; all
/// other items match identifiers.
fn seq_matches(code: &[Token], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, p)| {
        let Some(t) = code.get(i + k) else {
            return false;
        };
        let mut chars = p.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if !c.is_ascii_alphanumeric() && c != '_' => t.is_punct(c),
            _ => t.is_ident(p),
        }
    })
}

/// Marks every token belonging to a `#[cfg(test)]`-gated item.
fn mask_test_regions(code: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if seq_matches(code, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            let mut j = i + 7;
            // Skip any further attributes on the same item.
            while seq_matches(code, j, &["#", "["]) {
                let mut depth = 0i32;
                while let Some(t) = code.get(j) {
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // The item body: everything to the matching `}` of its first
            // top-level brace (or the terminating `;` for brace-less
            // items such as `#[cfg(test)] use …;`).
            let mut depth = 0i32;
            while let Some(t) = code.get(j) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            for m in &mut mask[i..(j + 1).min(code.len())] {
                *m = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Finds every `fn name … { body }`, brace-matching past generics,
/// argument lists, and return types. Functions inside test regions are
/// not recorded (no rule wants them).
fn find_functions(code: &[Token], in_test: &[bool]) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < code.len() {
        if code[i].is_ident("fn")
            && code[i + 1].kind == TokenKind::Ident
            && !in_test.get(i).copied().unwrap_or(false)
        {
            let name = code[i + 1].text.clone();
            let name_span = code[i + 1].span;
            // Find the body `{` at paren/bracket depth 0 (a `;` first
            // means a body-less trait method).
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut open = None;
            while let Some(t) = code.get(j) {
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('{') {
                    open = Some(j);
                    break;
                } else if depth == 0 && t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = open {
                let mut j = open;
                let mut braces = 0i32;
                while let Some(t) = code.get(j) {
                    if t.is_punct('{') {
                        braces += 1;
                    } else if t.is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                out.push(Function {
                    name,
                    name_span,
                    body: (open + 1)..j.min(code.len()),
                });
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// nondeterministic-iteration: hash containers iterate in arbitrary
/// order, so feeding their iteration into arithmetic, ordering, or
/// serialization breaks the bit-identity invariant.
fn nondeterministic_iteration(file: &str, ctx: &FileContext, out: &mut Vec<LintDiagnostic>) {
    let code = &ctx.code;
    // Pass 1: names bound or typed as HashMap/HashSet.
    let mut tracked: Vec<String> = Vec::new();
    let mut track = |name: &str| {
        if !tracked.iter().any(|t| t == name) {
            tracked.push(name.to_string());
        }
    };
    for i in 0..code.len() {
        if ctx.is_test(i) {
            continue;
        }
        // `name : [&] [mut] HashMap` — struct fields, fn params, lets
        // with type ascription.
        if code[i].kind == TokenKind::Ident && seq_matches(code, i + 1, &[":"]) {
            let mut j = i + 2;
            while code
                .get(j)
                .map(|t| t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime)
                .unwrap_or(false)
            {
                j += 1;
            }
            if code
                .get(j)
                .map(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
                .unwrap_or(false)
            {
                track(&code[i].text);
            }
        }
        // `let [mut] name = HashMap::…` / `HashSet::…`.
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if code.get(j).map(|t| t.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            if code
                .get(j)
                .map(|t| t.kind == TokenKind::Ident)
                .unwrap_or(false)
                && seq_matches(code, j + 1, &["="])
                && code
                    .get(j + 2)
                    .map(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
                    .unwrap_or(false)
            {
                track(&code[j].text);
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    // Pass 2: iteration sites on tracked names.
    for i in 0..code.len() {
        if ctx.is_test(i) || code[i].kind != TokenKind::Ident {
            continue;
        }
        if !tracked.iter().any(|t| *t == code[i].text) {
            continue;
        }
        // `tracked . method (` with an iterating method.
        let method_site = seq_matches(code, i + 1, &["."])
            && ctx
                .tok(i + 2)
                .map(|t| ITER_METHODS.contains(&t.text.as_str()))
                .unwrap_or(false);
        // `for pat in &tracked {` / `for pat in tracked {`.
        let prev = i.checked_sub(1).and_then(|p| ctx.tok(p));
        let prev2 = i.checked_sub(2).and_then(|p| ctx.tok(p));
        let for_site = ctx.tok(i + 1).map(|t| t.is_punct('{')).unwrap_or(false)
            && (prev.map(|t| t.is_ident("in")).unwrap_or(false)
                || (prev.map(|t| t.is_punct('&')).unwrap_or(false)
                    && prev2.map(|t| t.is_ident("in")).unwrap_or(false)));
        if !(method_site || for_site) {
            continue;
        }
        if statement_neutralized(ctx, i) {
            continue;
        }
        let what = if method_site {
            format!("`{}.{}()`", code[i].text, code[i + 2].text)
        } else {
            format!("`for … in &{}`", code[i].text)
        };
        out.push(LintDiagnostic::error(
            file,
            code[i].span,
            Rule::NondeterministicIteration,
            format!(
                "{what} iterates a hash container in arbitrary order; sort the items, \
                 iterate the catalog order instead, or justify with an allow"
            ),
        ));
    }
}

/// True when the statement around token `i` re-sorts, rehomes, or
/// order-insensitively folds the iterated items.
fn statement_neutralized(ctx: &FileContext, i: usize) -> bool {
    let code = &ctx.code;
    // Backward to the statement start (`;`, `{`, or `}`), bounded.
    let mut lo = i;
    for _ in 0..200 {
        let Some(p) = lo.checked_sub(1) else { break };
        let t = &code[p];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        lo = p;
    }
    // Forward to the statement end: `;` at brace depth 0, or the `}`
    // closing the enclosing block.
    let mut hi = i;
    let mut depth = 0i32;
    for _ in 0..200 {
        let Some(t) = code.get(hi + 1) else { break };
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if t.is_punct(';') && depth == 0 {
            break;
        }
        hi += 1;
    }
    code[lo..=hi]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && NEUTRALIZERS.contains(&t.text.as_str()))
}

/// unclamped-rayon: any function that builds pools or fans work out with
/// rayon must consult the canonical worker-count clamp, so worker counts
/// never exceed the host and config plumbing stays in one place.
fn unclamped_rayon(
    file: &str,
    ctx: &FileContext,
    pool_sanctioned: &[String],
    out: &mut Vec<LintDiagnostic>,
) {
    for f in &ctx.functions {
        let body = &ctx.code[f.body.clone()];
        let trigger = body
            .iter()
            .find(|t| t.kind == TokenKind::Ident && RAYON_TRIGGERS.contains(&t.text.as_str()));
        let Some(trigger) = trigger else { continue };
        let clamped = body
            .iter()
            .any(|t| pool_sanctioned.iter().any(|s| t.is_ident(s)));
        if !clamped {
            out.push(LintDiagnostic::error(
                file,
                f.name_span,
                Rule::UnclampedRayon,
                format!(
                    "fn `{}` uses rayon (`{}`) without consulting a sanctioned worker-count \
                     clamp ({}); route the count through effective_parallelism() or justify \
                     with an allow",
                    f.name,
                    trigger.text,
                    pool_sanctioned.join("/"),
                ),
            ));
        }
    }
}

/// wall-clock-in-compute: compute stages may *measure* time for stats,
/// never *consume* it — and the measuring sites are few enough to audit
/// one by one with justified allows.
fn wall_clock(file: &str, ctx: &FileContext, out: &mut Vec<LintDiagnostic>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.is_test(i) {
            continue;
        }
        if seq_matches(code, i, &["Instant", ":", ":", "now"]) {
            out.push(LintDiagnostic::error(
                file,
                code[i].span,
                Rule::WallClockInCompute,
                "`Instant::now()` in a compute crate: wall-clock reads must be confined to \
                 audited stats/bench sites — justify with an allow or move the timing out",
            ));
        } else if code[i].is_ident("SystemTime") {
            out.push(LintDiagnostic::error(
                file,
                code[i].span,
                Rule::WallClockInCompute,
                "`SystemTime` in a compute crate: computed values must not depend on the \
                 clock — justify with an allow or derive the value deterministically",
            ));
        }
    }
}

/// unseeded-rng: every random draw must flow from an explicit u64 seed,
/// or reruns stop being reproducible.
fn unseeded_rng(file: &str, ctx: &FileContext, out: &mut Vec<LintDiagnostic>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.is_test(i) || code[i].kind != TokenKind::Ident {
            continue;
        }
        let ambient = match code[i].text.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" => true,
            "random" => seq_matches(code, i.saturating_sub(3), &["rand", ":", ":"]) && i >= 3,
            _ => false,
        };
        if ambient {
            out.push(LintDiagnostic::error(
                file,
                code[i].span,
                Rule::UnseededRng,
                format!(
                    "`{}` draws ambient entropy: all randomness must flow from an explicit \
                     u64 seed (see kgpip-nn::rng)",
                    code[i].text
                ),
            ));
        }
    }
}

/// panic-in-serve-path: the serving path returns typed `KgpipError`s; a
/// panic in a worker thread poisons shared state and kills throughput.
fn panic_in_serve_path(file: &str, ctx: &FileContext, out: &mut Vec<LintDiagnostic>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.is_test(i) {
            continue;
        }
        let t = &code[i];
        if t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && seq_matches(code, i + 1, &["("])
        {
            out.push(LintDiagnostic::error(
                file,
                t.span,
                Rule::PanicInServePath,
                format!(
                    "`.{}()` in the serving path: propagate a typed KgpipError instead of \
                     panicking (or justify with an allow if the invariant is locally provable)",
                    t.text
                ),
            ));
        } else if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && seq_matches(code, i + 1, &["!"])
        {
            out.push(LintDiagnostic::error(
                file,
                t.span,
                Rule::PanicInServePath,
                format!(
                    "`{}!` in the serving path: return a typed KgpipError instead",
                    t.text
                ),
            ));
        } else if t.is_punct('[') {
            // Indexing: `expr[…]` where expr ends in an ident, `)`, or
            // `]`. Excludes attributes (`#[`), macro brackets (`vec![`),
            // array literals (prev is `=`/`(`/`,`), and types (prev `:`).
            let indexing = i
                .checked_sub(1)
                .and_then(|p| ctx.tok(p))
                .map(|p| {
                    p.kind == TokenKind::Ident && !p.is_ident("mut")
                        || p.is_punct(')')
                        || p.is_punct(']')
                })
                .unwrap_or(false);
            if indexing {
                out.push(LintDiagnostic::error(
                    file,
                    t.span,
                    Rule::PanicInServePath,
                    "slice/map indexing in the serving path can panic: use .get() and return \
                     a typed KgpipError (or justify with an allow if bounds are locally checked)",
                ));
            }
        }
    }
}

/// missing-crate-guards: every library crate opts into the workspace
/// safety floor at the top of its `lib.rs`.
fn missing_crate_guards(file: &str, ctx: &FileContext, out: &mut Vec<LintDiagnostic>) {
    let code = &ctx.code;
    let has = |ident: &str, arg: &str| {
        (0..code.len()).any(|i| seq_matches(code, i, &["#", "!", "[", ident, "(", arg, ")", "]"]))
    };
    if !has("forbid", "unsafe_code") {
        out.push(LintDiagnostic::error(
            file,
            Span::at_line(1),
            Rule::MissingCrateGuards,
            "lib.rs is missing `#![forbid(unsafe_code)]`: every library crate carries the \
             workspace safety floor",
        ));
    }
    if !has("warn", "missing_docs") {
        out.push(LintDiagnostic::error(
            file,
            Span::at_line(1),
            Rule::MissingCrateGuards,
            "lib.rs is missing `#![warn(missing_docs)]`: every public item in a library \
             crate is documented",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, rules: &[&str]) -> Vec<LintDiagnostic> {
        let tokens = lex(src);
        let ctx = FileContext::new(&tokens);
        let cr = CrateRules {
            path: "crates/fake".to_string(),
            rules: rules.iter().map(|s| s.to_string()).collect(),
            panic_files: Vec::new(),
        };
        run_rules(
            "crates/fake/src/lib.rs",
            "src/lib.rs",
            &ctx,
            &cr,
            &["effective_parallelism".to_string()],
        )
    }

    #[test]
    fn hash_iteration_into_sum_fires() {
        let src = "fn f(m: &HashMap<String, f64>) -> f64 { m.values().sum() }";
        let diags = run(src, &["nondeterministic-iteration"]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("m.values()"));
    }

    #[test]
    fn sorted_collection_is_neutralized() {
        let src = "fn f(m: &HashMap<String, f64>) -> Vec<String> {\n\
                   let mut keys: Vec<_> = m.keys().cloned().collect();\n\
                   keys.sort_unstable();\n keys }";
        // The sort is in the *next* statement, so the collect statement
        // itself must carry the neutralizer to pass:
        let diags = run(src, &["nondeterministic-iteration"]);
        assert_eq!(
            diags.len(),
            1,
            "sort in a later statement does not neutralize"
        );
        let src2 = "fn f(m: &HashMap<String, f64>) -> BTreeMap<String, f64> {\n\
                    m.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<_, _>>() }";
        assert!(run(src2, &["nondeterministic-iteration"]).is_empty());
    }

    #[test]
    fn for_loop_over_hash_fires() {
        let src = "fn f(s: HashSet<u32>) { for x in &s { push(x); } }";
        assert_eq!(run(src, &["nondeterministic-iteration"]).len(), 1);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n}";
        assert!(run(src, &["nondeterministic-iteration"]).is_empty());
    }

    #[test]
    fn unclamped_rayon_fires_and_clamp_silences() {
        let bad = "fn fan_out(xs: &[u32]) -> Vec<u32> { xs.par_iter().map(|x| x + 1).collect() }";
        let diags = run(bad, &["unclamped-rayon"]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("fan_out"));
        let good = "fn fan_out(xs: &[u32], p: usize) -> Vec<u32> {\n\
                    let p = effective_parallelism(p);\n\
                    xs.par_iter().map(|x| x + 1).collect() }";
        assert!(run(good, &["unclamped-rayon"]).is_empty());
    }

    #[test]
    fn wall_clock_and_rng_fire() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        assert_eq!(run(src, &["wall-clock-in-compute"]).len(), 1);
        assert_eq!(run(src, &["unseeded-rng"]).len(), 1);
    }

    #[test]
    fn panic_rule_catches_unwrap_macro_and_indexing() {
        let src = "fn f(v: &[u32], m: &M) -> u32 { let a = v[0]; let b = m.get().unwrap(); panic!(\"no\"); }";
        let tokens = lex(src);
        let ctx = FileContext::new(&tokens);
        let cr = CrateRules {
            path: "crates/fake".to_string(),
            rules: vec!["panic-in-serve-path".to_string()],
            panic_files: Vec::new(),
        };
        let diags = run_rules("f.rs", "src/f.rs", &ctx, &cr, &[]);
        assert_eq!(diags.len(), 3, "{diags:?}");
    }

    #[test]
    fn panic_rule_ignores_attrs_macros_and_array_literals() {
        let src = "#[derive(Debug)]\nfn f() { let v = vec![1, 2]; let a = [0u8; 4]; g(&v); }";
        let tokens = lex(src);
        let ctx = FileContext::new(&tokens);
        let cr = CrateRules {
            path: "c".to_string(),
            rules: vec!["panic-in-serve-path".to_string()],
            panic_files: Vec::new(),
        };
        assert!(run_rules("f.rs", "src/f.rs", &ctx, &cr, &[]).is_empty());
    }

    #[test]
    fn panic_scope_respects_panic_files() {
        let src = "fn f(v: &[u32]) -> u32 { v[0] }";
        let tokens = lex(src);
        let ctx = FileContext::new(&tokens);
        let cr = CrateRules {
            path: "c".to_string(),
            rules: vec!["panic-in-serve-path".to_string()],
            panic_files: vec!["src/serve.rs".to_string()],
        };
        assert!(run_rules("f.rs", "src/other.rs", &ctx, &cr, &[]).is_empty());
        assert_eq!(run_rules("f.rs", "src/serve.rs", &ctx, &cr, &[]).len(), 1);
    }

    #[test]
    fn crate_guards_checked_on_lib_rs_only() {
        let bare = "pub fn f() {}";
        let diags = run(bare, &["missing-crate-guards"]);
        assert_eq!(diags.len(), 2);
        let guarded = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(run(guarded, &["missing-crate-guards"]).is_empty());
        // Not lib.rs → not checked.
        let tokens = lex(bare);
        let ctx = FileContext::new(&tokens);
        let cr = CrateRules {
            path: "c".to_string(),
            rules: vec!["missing-crate-guards".to_string()],
            panic_files: Vec::new(),
        };
        assert!(run_rules("c/src/m.rs", "src/m.rs", &ctx, &cr, &[]).is_empty());
    }

    #[test]
    fn string_literals_never_fire() {
        let src = r#"fn f() -> &'static str { "thread_rng Instant::now HashMap.values()" }"#;
        assert!(run(
            src,
            &[
                "unseeded-rng",
                "wall-clock-in-compute",
                "nondeterministic-iteration"
            ]
        )
        .is_empty());
    }
}
