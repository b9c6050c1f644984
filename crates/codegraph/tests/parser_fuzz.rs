//! Mutation fuzz for the mini-Python front end, gated by `scripts/check.sh`.
//!
//! Seeds are `generate_corpus` scripts: plain sklearn notebooks,
//! helper-wrapped ones, deep-learning ones the filter rejects, and ones with
//! a malformed statement. Each case mutates one seed by byte flips, by a
//! truncation, or by inflating its length: one line repeated many times, or
//! one line nested many levels deep in brackets, calls or indented blocks
//! (past the parser's `MAX_DEPTH`). The mutated bytes are read back through
//! `from_utf8_lossy`. Then:
//!
//! * `parse_with_diagnostics` and `analyze_with_diagnostics` return — no
//!   panic, no stack overflow;
//! * `parse` and `analyze` return `Ok` or a typed `CodeGraphError`, and
//!   fail exactly when recovery reported an error-severity diagnostic;
//! * every recovered graph passes the graph lints, and so does the
//!   Graph4ML it contributes to.
//!
//! A structural property rides along: recovery drops a malformed block
//! header together with its indented body, and the statement after that
//! body stays in the block that encloses the header.

use kgpip_codegraph::ast::Stmt;
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_codegraph::lint::has_errors;
use kgpip_codegraph::parser::{parse, MAX_DEPTH};
use kgpip_codegraph::{
    analyze, analyze_with_diagnostics, filter_graph, lint_code_graph, lint_graph4ml,
    lint_pipeline_graph, lint_reduction, parse_with_diagnostics, Graph4Ml, Severity,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A fixed-seed corpus covering every script family the generator writes.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let profiles: Vec<DatasetProfile> = (0..4)
            .map(|i| {
                let mut p = DatasetProfile::new(format!("fuzzds_{i}"), i % 2 == 1);
                p.has_missing = i % 2 == 0;
                p.has_categorical = i < 2;
                p.has_text = i == 3;
                p
            })
            .collect();
        let cfg = CorpusConfig {
            scripts_per_dataset: 8,
            unsupported_fraction: 0.2,
            helper_fraction: 0.3,
            malformed_fraction: 0.2,
            seed: 11,
            ..CorpusConfig::default()
        };
        generate_corpus(&profiles, &cfg)
            .into_iter()
            .map(|r| r.source)
            .collect()
    })
}

/// The seed script at position `at` ∈ [0, 1).
fn seed(at: f64) -> &'static str {
    let seeds = seeds();
    &seeds[scaled(at, seeds.len() - 1)]
}

/// Position `at` ∈ [0, 1) scaled onto `0..=len`.
fn scaled(at: f64, len: usize) -> usize {
    ((len as f64 * at) as usize).min(len)
}

/// Runs the whole front end on `bytes` and checks every contract.
fn front_end_holds(bytes: &[u8]) -> Result<(), String> {
    let src = String::from_utf8_lossy(bytes);
    let (_module, parse_diags) = parse_with_diagnostics(&src);
    let parse_failed = parse_diags.iter().any(|d| d.severity == Severity::Error);
    let strict = parse(&src);
    if strict.is_err() != parse_failed {
        return Err(format!(
            "{src:?}: strict parse {strict:?} disagrees with recovery {parse_diags:?}"
        ));
    }
    let analyzed = analyze(&src);
    if analyzed.is_err() != parse_failed {
        return Err(format!(
            "{src:?}: strict analyze disagrees with strict parse"
        ));
    }

    let (graph, _diags) = analyze_with_diagnostics(&src);
    let raw = lint_code_graph(&graph);
    if !raw.is_empty() {
        return Err(format!("{src:?}: code graph lint {raw:?}"));
    }
    let filtered = filter_graph(&graph);
    let pipeline = lint_pipeline_graph(&filtered);
    if has_errors(&pipeline) {
        return Err(format!("{src:?}: pipeline lint {pipeline:?}"));
    }
    let reduction = lint_reduction(&graph, &filtered);
    if !reduction.is_empty() {
        return Err(format!("{src:?}: reduction lint {reduction:?}"));
    }
    if filtered.skeleton().is_some() {
        let mut g4 = Graph4Ml::new();
        g4.add_pipeline("fuzz", &filtered);
        let g4_lint = lint_graph4ml(&g4);
        if has_errors(&g4_lint) {
            return Err(format!("{src:?}: graph4ml lint {g4_lint:?}"));
        }
    }
    Ok(())
}

/// `script` with its line at `at` replaced by `with(line)`.
fn replace_line(script: &str, at: f64, with: impl FnOnce(&str) -> String) -> String {
    let mut lines: Vec<String> = script.lines().map(str::to_string).collect();
    let i = scaled(at, lines.len() - 1);
    lines[i] = with(&lines[i]);
    lines.join("\n") + "\n"
}

/// `line` nested `kinds.len()` levels deep: each kind wraps the right-hand
/// side (or the whole line) in a parenthesis, a list, a call or an indented
/// `if` block.
fn nest(line: &str, kinds: &[u8]) -> String {
    let (lhs, rhs) = match line.split_once(" = ") {
        Some((lhs, rhs)) => (format!("{lhs} = "), rhs.to_string()),
        None => (String::new(), line.trim_start().to_string()),
    };
    let mut open = String::new();
    let mut close = String::new();
    let mut blocks = 0usize;
    for kind in kinds {
        let (o, c) = match kind % 4 {
            0 => ("(", ")"),
            1 => ("[", "]"),
            2 => ("f(", ")"),
            _ => {
                blocks += 1;
                continue;
            }
        };
        open.push_str(o);
        close.insert_str(0, c);
    }
    let mut out = String::new();
    for level in 0..blocks {
        out.push_str(&"    ".repeat(level));
        out.push_str("if ok:\n");
    }
    out.push_str(&"    ".repeat(blocks));
    out.push_str(&format!("{lhs}{open}{rhs}{close}"));
    out
}

/// Block headers the parser rejects.
const MALFORMED_HEADERS: &[&str] = &[
    "for in xs:",
    "for x xs:",
    "for x in xs y:",
    "if :",
    "if x y:",
    "def (a):",
    "def f(a b):",
];

/// `before = 0`, a malformed header with a body, then `after = 1`, all
/// nested `depth` levels deep in `if ok:` blocks, then `tail = 2` at top
/// level. Body lines are kind 0 `b = 2`, kind 1 a nested block, kind 2 a
/// malformed statement.
fn malformed_header_script(depth: usize, header: &str, body: &[u8]) -> String {
    let pad = |level: usize| "    ".repeat(level);
    let mut out = String::new();
    for level in 0..depth {
        out += &format!("{}if ok:\n", pad(level));
    }
    out += &format!("{}before = 0\n{}{header}\n", pad(depth), pad(depth));
    for kind in body {
        out += &match kind % 3 {
            0 => format!("{}b = 2\n", pad(depth + 1)),
            1 => format!("{}if ok:\n{}e = 5\n", pad(depth + 1), pad(depth + 2)),
            _ => format!("{}y = = 1\n", pad(depth + 1)),
        };
    }
    out + &format!("{}after = 1\ntail = 2\n", pad(depth))
}

/// Well-formed block headers that [`bodyless_header_script`] leaves
/// without an indented body.
const BODYLESS_HEADERS: &[&str] = &["for x in xs:", "if x:", "def f(a):"];

/// `before = 0`, a well-formed header with no indented body, then body
/// lines of the kinds of [`malformed_header_script`] at the header's own
/// depth, then `after = 1`, all nested `depth` levels deep in `if ok:`
/// blocks, then `tail = 2` at top level.
fn bodyless_header_script(depth: usize, header: &str, body: &[u8]) -> String {
    let pad = |level: usize| "    ".repeat(level);
    let mut out = String::new();
    for level in 0..depth {
        out += &format!("{}if ok:\n", pad(level));
    }
    out += &format!("{}before = 0\n{}{header}\n", pad(depth), pad(depth));
    for kind in body {
        out += &match kind % 3 {
            0 => format!("{}b = 2\n", pad(depth)),
            1 => format!("{}if ok:\n{}e = 5\n", pad(depth), pad(depth + 1)),
            _ => format!("{}y = = 1\n", pad(depth)),
        };
    }
    out + &format!("{}after = 1\ntail = 2\n", pad(depth))
}

/// Whether `stmt` assigns exactly `name`.
fn assigns(stmt: &Stmt, name: &str) -> bool {
    matches!(stmt, Stmt::Assign { targets, .. } if targets.len() == 1 && targets[0] == name)
}

/// Checks that the header and its body are dropped with an error, and
/// that `before` and `after` alone make up the header's block, nested
/// `depth` levels deep, with `tail` after it at top level.
fn after_stays_in_its_block(src: &str, depth: usize) -> Result<(), String> {
    let (module, diags) = parse_with_diagnostics(src);
    if !diags.iter().any(|d| d.severity == Severity::Error) {
        return Err(format!("{src:?}: no error reported"));
    }
    let Some((tail, mut block)) = module.body.split_last() else {
        return Err(format!("{src:?}: empty module"));
    };
    if !assigns(tail, "tail") {
        return Err(format!("{src:?}: top level ends in {tail:?}"));
    }
    for _ in 0..depth {
        match block {
            [Stmt::If { body, .. }] => block = body,
            other => return Err(format!("{src:?}: expected one if, found {other:?}")),
        }
    }
    match block {
        [before, after] if assigns(before, "before") && assigns(after, "after") => Ok(()),
        other => Err(format!("{src:?}: header block {other:?}")),
    }
}

/// Checks that the bodyless header is reported and dropped, and that its
/// would-be body lines stay statements of the header's block: `before`,
/// each `b = 2` and `if ok:` of `body` in order (the malformed lines are
/// dropped), then `after`, nested `depth` levels deep, with `tail` after
/// it at top level.
fn body_lines_stay_in_the_block(src: &str, depth: usize, body: &[u8]) -> Result<(), String> {
    let (module, diags) = parse_with_diagnostics(src);
    if !diags.iter().any(|d| d.message == "expected indented block") {
        return Err(format!("{src:?}: bodyless header not reported: {diags:?}"));
    }
    let Some((tail, mut block)) = module.body.split_last() else {
        return Err(format!("{src:?}: empty module"));
    };
    if !assigns(tail, "tail") {
        return Err(format!("{src:?}: top level ends in {tail:?}"));
    }
    for _ in 0..depth {
        match block {
            [Stmt::If { body, .. }] => block = body,
            other => return Err(format!("{src:?}: expected one if, found {other:?}")),
        }
    }
    let kept: Vec<u8> = body.iter().map(|k| k % 3).filter(|&k| k != 2).collect();
    let (Some((first, rest)), Some(last)) = (block.split_first(), block.last()) else {
        return Err(format!("{src:?}: empty header block"));
    };
    let middle = rest.get(..rest.len().saturating_sub(1)).unwrap_or_default();
    let shape_holds = assigns(first, "before")
        && assigns(last, "after")
        && block.len() == kept.len() + 2
        && middle.iter().zip(&kept).all(|(stmt, kind)| match kind {
            0 => assigns(stmt, "b"),
            _ => matches!(stmt, Stmt::If { .. }),
        });
    if shape_holds {
        Ok(())
    } else {
        Err(format!("{src:?}: header block {block:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn byte_flips_never_panic(
        which in 0.0f64..1.0,
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..8),
    ) {
        let mut bytes = seed(which).as_bytes().to_vec();
        for (at, mask) in flips {
            let i = scaled(at, bytes.len() - 1);
            bytes[i] ^= mask as u8;
        }
        front_end_holds(&bytes)?;
    }

    #[test]
    fn truncations_never_panic(which in 0.0f64..1.0, keep in 0.0f64..1.0) {
        let bytes = seed(which).as_bytes();
        front_end_holds(&bytes[..scaled(keep, bytes.len())])?;
    }

    #[test]
    fn repeated_lines_never_panic(which in 0.0f64..1.0, at in 0.0f64..1.0, copies in 2usize..300) {
        let script = replace_line(seed(which), at, |line| vec![line; copies].join("\n"));
        front_end_holds(script.as_bytes())?;
    }

    #[test]
    fn a_statement_after_a_malformed_header_stays_in_its_block(
        depth in 0usize..4,
        header in 0..MALFORMED_HEADERS.len(),
        body in proptest::collection::vec(0u8..3, 1..5),
    ) {
        let script = malformed_header_script(depth, MALFORMED_HEADERS[header], &body);
        after_stays_in_its_block(&script, depth)?;
        front_end_holds(script.as_bytes())?;
        let header = BODYLESS_HEADERS[header % BODYLESS_HEADERS.len()];
        let script = bodyless_header_script(depth, header, &body);
        body_lines_stay_in_the_block(&script, depth, &body)?;
        front_end_holds(script.as_bytes())?;
    }

    #[test]
    fn deep_nesting_never_panics(
        which in 0.0f64..1.0,
        at in 0.0f64..1.0,
        kinds in proptest::collection::vec(0u8..4, 1..(3 * MAX_DEPTH)),
    ) {
        let script = replace_line(seed(which), at, |line| nest(line, &kinds));
        front_end_holds(script.as_bytes())?;
    }
}

/// Nesting one level past `MAX_DEPTH` is a typed parse error on the
/// nested statement; the statements around it still parse.
#[test]
fn nesting_past_the_bound_is_a_recovered_parse_error() {
    for kinds in [[0u8], [1], [2], [3]] {
        let deep = nest("x = a", &kinds.repeat(MAX_DEPTH + 1));
        let src = format!("a = 1\n{deep}\nb = 2\n");
        let (module, diags) = parse_with_diagnostics(&src);
        assert!(
            diags.iter().any(|d| d.message.contains("nesting exceeds")),
            "kind {kinds:?}: {diags:?}"
        );
        assert!(module.body.len() >= 2, "kind {kinds:?}: a and b survive");
        assert!(parse(&src).is_err());

        let shallow = nest("x = a", &kinds.repeat(MAX_DEPTH - 2));
        assert!(
            parse(&format!("a = 1\n{shallow}\nb = 2\n")).is_ok(),
            "kind {kinds:?}"
        );
    }
}
