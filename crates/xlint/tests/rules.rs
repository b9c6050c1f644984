//! Fixture-driven rule tests: every rule has a violating fixture it must
//! flag and a clean fixture it must pass, and the suppression grammar is
//! exercised end to end (honored, malformed, stale).

use kgpip_xlint::{lint_source, CrateRules, FileOutcome, Rule};

const POOL_SANCTIONED: &[&str] = &["effective_parallelism"];

fn run(rule: &str, crate_file: &str, source: &str) -> FileOutcome {
    let rules = CrateRules {
        path: "crates/fixture".to_string(),
        rules: vec![rule.to_string()],
        panic_files: Vec::new(),
    };
    let sanctioned: Vec<String> = POOL_SANCTIONED.iter().map(|s| s.to_string()).collect();
    lint_source("fixture.rs", crate_file, source, &rules, &sanctioned)
}

fn fired(outcome: &FileOutcome, rule: Rule) -> usize {
    outcome
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .count()
}

#[test]
fn nondeterministic_iteration_fires_and_clears() {
    let bad = run(
        "nondeterministic-iteration",
        "src/x.rs",
        include_str!("fixtures/nondeterministic_iteration_violating.rs"),
    );
    assert!(
        fired(&bad, Rule::NondeterministicIteration) >= 2,
        "expected the iter() and retain() sites to fire: {:?}",
        bad.diagnostics
    );
    let clean = run(
        "nondeterministic-iteration",
        "src/x.rs",
        include_str!("fixtures/nondeterministic_iteration_clean.rs"),
    );
    assert!(
        clean.diagnostics.is_empty(),
        "catalog-order / neutralized uses must pass: {:?}",
        clean.diagnostics
    );
}

#[test]
fn unclamped_rayon_fires_and_clears() {
    let bad = run(
        "unclamped-rayon",
        "src/x.rs",
        include_str!("fixtures/unclamped_rayon_violating.rs"),
    );
    assert_eq!(
        fired(&bad, Rule::UnclampedRayon),
        2,
        "both unclamped functions must fire: {:?}",
        bad.diagnostics
    );
    let clean = run(
        "unclamped-rayon",
        "src/x.rs",
        include_str!("fixtures/unclamped_rayon_clean.rs"),
    );
    assert!(
        clean.diagnostics.is_empty(),
        "effective_parallelism in the body sanctions the pool: {:?}",
        clean.diagnostics
    );
}

#[test]
fn wall_clock_fires_and_clears() {
    let bad = run(
        "wall-clock-in-compute",
        "src/x.rs",
        include_str!("fixtures/wall_clock_violating.rs"),
    );
    assert!(
        fired(&bad, Rule::WallClockInCompute) >= 2,
        "Instant::now and SystemTime must both fire: {:?}",
        bad.diagnostics
    );
    let clean = run(
        "wall-clock-in-compute",
        "src/x.rs",
        include_str!("fixtures/wall_clock_clean.rs"),
    );
    assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
}

#[test]
fn unseeded_rng_fires_and_clears() {
    let bad = run(
        "unseeded-rng",
        "src/x.rs",
        include_str!("fixtures/unseeded_rng_violating.rs"),
    );
    assert!(
        fired(&bad, Rule::UnseededRng) >= 2,
        "thread_rng and from_entropy must both fire: {:?}",
        bad.diagnostics
    );
    let clean = run(
        "unseeded-rng",
        "src/x.rs",
        include_str!("fixtures/unseeded_rng_clean.rs"),
    );
    assert!(
        clean.diagnostics.is_empty(),
        "seed_from_u64 is the sanctioned entry point: {:?}",
        clean.diagnostics
    );
}

#[test]
fn panic_in_serve_path_fires_and_clears() {
    let bad = run(
        "panic-in-serve-path",
        "src/x.rs",
        include_str!("fixtures/panic_in_serve_path_violating.rs"),
    );
    assert!(
        fired(&bad, Rule::PanicInServePath) >= 4,
        "unwrap, indexing, expect, and panic! must all fire: {:?}",
        bad.diagnostics
    );
    let clean = run(
        "panic-in-serve-path",
        "src/x.rs",
        include_str!("fixtures/panic_in_serve_path_clean.rs"),
    );
    assert!(
        clean.diagnostics.is_empty(),
        "typed-error serving code must pass: {:?}",
        clean.diagnostics
    );
}

#[test]
fn panic_rule_respects_file_scoping() {
    let rules = CrateRules {
        path: "crates/fixture".to_string(),
        rules: vec!["panic-in-serve-path".to_string()],
        panic_files: vec!["src/serve.rs".to_string()],
    };
    let source = include_str!("fixtures/panic_in_serve_path_violating.rs");
    let in_scope = lint_source("fixture.rs", "src/serve.rs", source, &rules, &[]);
    assert!(!in_scope.diagnostics.is_empty());
    let out_of_scope = lint_source("fixture.rs", "src/train.rs", source, &rules, &[]);
    assert!(
        out_of_scope.diagnostics.is_empty(),
        "panic_files must scope the rule: {:?}",
        out_of_scope.diagnostics
    );
}

#[test]
fn missing_crate_guards_fires_on_lib_rs_only() {
    let bad_src = include_str!("fixtures/missing_crate_guards_violating.rs");
    let bad = run("missing-crate-guards", "src/lib.rs", bad_src);
    assert_eq!(
        fired(&bad, Rule::MissingCrateGuards),
        2,
        "both missing attributes must be reported: {:?}",
        bad.diagnostics
    );
    // The same source under a non-root path is out of scope.
    let elsewhere = run("missing-crate-guards", "src/util.rs", bad_src);
    assert!(elsewhere.diagnostics.is_empty());
    let clean = run(
        "missing-crate-guards",
        "src/lib.rs",
        include_str!("fixtures/missing_crate_guards_clean.rs"),
    );
    assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
}

#[test]
fn justified_suppression_is_honored_and_audited() {
    let outcome = run(
        "wall-clock-in-compute",
        "src/x.rs",
        include_str!("fixtures/suppression_justified.rs"),
    );
    assert!(
        outcome.diagnostics.is_empty(),
        "the justified allow must silence the finding: {:?}",
        outcome.diagnostics
    );
    assert_eq!(outcome.suppressed.len(), 1);
    assert!(outcome.suppressed[0]
        .justification
        .contains("reported statistic"));
}

#[test]
fn suppression_without_justification_is_rejected() {
    let outcome = run(
        "wall-clock-in-compute",
        "src/x.rs",
        include_str!("fixtures/suppression_missing_justification.rs"),
    );
    assert!(
        fired(&outcome, Rule::BadSuppression) >= 1,
        "a bare allow must be flagged as bad-suppression: {:?}",
        outcome.diagnostics
    );
    assert!(
        fired(&outcome, Rule::WallClockInCompute) >= 1,
        "the malformed allow must NOT silence the finding: {:?}",
        outcome.diagnostics
    );
    assert!(outcome.suppressed.is_empty());
}

#[test]
fn stale_suppression_is_reported() {
    let outcome = run(
        "wall-clock-in-compute",
        "src/x.rs",
        include_str!("fixtures/suppression_unused.rs"),
    );
    assert_eq!(
        fired(&outcome, Rule::UnusedSuppression),
        1,
        "an allow matching nothing must be flagged: {:?}",
        outcome.diagnostics
    );
}
