//! Mining one script, and the fingerprint that deduplicates a corpus.
//!
//! Mining a script — `analyze_with_diagnostics` → `filter_graph` →
//! skeleton check — is a pure function of the script *source*: the
//! dataset association is resolved before analysis ever runs, so two
//! byte-identical sources always mine to the same [`MineOutcome`] (the
//! filtered [`PipelineGraph`] or the skip reason). `Kgpip::train`
//! exploits that within one corpus: scripts are keyed by
//! [`source_fingerprint`], each distinct source is mined once, and its
//! outcome is replayed for every later duplicate.

use crate::analysis::analyze_with_diagnostics;
use crate::diag::Severity;
use crate::filter::{filter_graph, PipelineGraph};

/// FNV-1a fingerprint of a script source — the deduplication key. Mining
/// depends on nothing but the source bytes, so the fingerprint is the
/// complete identity of a mining computation.
pub fn source_fingerprint(source: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in source.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The complete result of mining one script: either a filtered pipeline
/// graph with a valid skeleton, or the reason the script was skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum MineOutcome {
    /// The script mined to a filtered pipeline graph with a valid
    /// skeleton — it contributes to the Graph4ML.
    Pipeline(PipelineGraph),
    /// The script analyzed cleanly but filtered to a graph without an
    /// estimator (EDA-only or unsupported-framework notebook).
    NoSkeleton,
    /// Static analysis reported error-severity diagnostics; the script
    /// is dropped, as the paper's pipeline drops unusable notebooks.
    Unparsable,
}

/// Mines one script source: recovering static analysis, the §3.4
/// filter, and the skeleton validity check. Pure in the source, and the
/// single code path `Kgpip::train` mines through.
pub fn mine_script(source: &str) -> MineOutcome {
    let (code_graph, diagnostics) = analyze_with_diagnostics(source);
    if diagnostics.iter().any(|d| d.severity == Severity::Error) {
        return MineOutcome::Unparsable;
    }
    let filtered = filter_graph(&code_graph);
    if filtered.skeleton().is_none() {
        return MineOutcome::NoSkeleton;
    }
    MineOutcome::Pipeline(filtered)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: &str = "\
import pandas as pd
from sklearn.svm import SVC
df = pd.read_csv('a.csv')
m = SVC()
m.fit(df, df)
";

    #[test]
    fn mine_script_matches_the_inline_pipeline() {
        match mine_script(VALID) {
            MineOutcome::Pipeline(g) => {
                assert!(g.skeleton().is_some());
            }
            other => panic!("expected a pipeline, got {other:?}"),
        }
        assert_eq!(
            mine_script("import torch\nnet = torch.nn.Linear(4, 2)\n"),
            MineOutcome::NoSkeleton
        );
    }

    #[test]
    fn distinct_sources_have_distinct_fingerprints() {
        assert_ne!(source_fingerprint(VALID), source_fingerprint("x = 1\n"));
        assert_eq!(source_fingerprint(VALID), source_fingerprint(VALID));
    }
}
