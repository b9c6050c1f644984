//! Per-crate rule configuration.
//!
//! The house configuration ([`WorkspaceConfig::house`]) is compiled in so
//! `kgpip-cli xlint` needs no external file, but a JSON override can be
//! loaded with `--config` (the format is this module's serde shape) —
//! useful for experiments and for the fixture tests.

use crate::diag::Rule;
use serde::{Deserialize, Serialize};

/// The rule set applied to one crate (one `src/` tree).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrateRules {
    /// Workspace-relative directory whose `src/` is scanned (`"."` means
    /// the root package's own `src/`).
    pub path: String,
    /// Kebab-case names of the rules enforced in this crate.
    pub rules: Vec<String>,
    /// For `panic-in-serve-path`: restrict the rule to these files
    /// (paths relative to the crate dir). Empty means the whole crate is
    /// in scope.
    #[serde(default)]
    pub panic_files: Vec<String>,
}

impl CrateRules {
    /// The parsed rule set, ignoring names that fail to parse (configs
    /// are validated separately via [`WorkspaceConfig::unknown_rules`]).
    pub fn parsed_rules(&self) -> Vec<Rule> {
        self.rules
            .iter()
            .filter_map(|n| Rule::from_name(n))
            .collect()
    }

    /// True when `file` (crate-relative) is in scope for
    /// `panic-in-serve-path`.
    pub fn panic_file_in_scope(&self, file: &str) -> bool {
        self.panic_files.is_empty() || self.panic_files.iter().any(|f| f == file)
    }
}

/// The full workspace lint configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkspaceConfig {
    /// Identifiers whose presence in a function body marks its pool usage
    /// as clamped (`effective_parallelism`, `worker_pool`). A function
    /// using rayon without mentioning any of these trips
    /// `unclamped-rayon`.
    pub pool_sanctioned: Vec<String>,
    /// One entry per scanned crate, in scan order.
    pub crates: Vec<CrateRules>,
}

/// Rules enforced in every compute crate: anything between the data frame
/// and the trained artifact must be bit-identical at any worker count,
/// free of wall-clock reads, and free of ambient randomness.
const COMPUTE: &[&str] = &[
    "nondeterministic-iteration",
    "unclamped-rayon",
    "wall-clock-in-compute",
    "unseeded-rng",
    "missing-crate-guards",
];

impl WorkspaceConfig {
    /// The compiled-in house configuration for this workspace.
    pub fn house() -> WorkspaceConfig {
        let compute = |path: &str| CrateRules {
            path: path.to_string(),
            rules: COMPUTE.iter().map(|s| s.to_string()).collect(),
            panic_files: Vec::new(),
        };
        // kgpip-tabular: compute rules plus the serve-path panic rule on
        // the CSV decoder and the chunked reader, which read untrusted
        // documents (a malformed file must surface as a typed
        // `TabularError`, never a panic), and on the chunk sampling and
        // the statistics fold every served request embeds through.
        let mut tabular = compute("crates/tabular");
        tabular.rules.push("panic-in-serve-path".to_string());
        tabular.panic_files = vec![
            "src/csv.rs".to_string(),
            "src/stream.rs".to_string(),
            "src/chunk.rs".to_string(),
            "src/stats.rs".to_string(),
        ];
        let mut crates = vec![
            tabular,
            compute("crates/learners"),
            compute("crates/nn"),
            compute("crates/codegraph"),
            compute("crates/graphgen"),
            compute("crates/hpo"),
            compute("crates/benchdata"),
            compute("crates/xlint"),
        ];
        // kgpip-embeddings: compute rules plus the serve-path panic rule
        // on the similarity tier a serving process runs — the HNSW graph
        // —, on the `KGVI` catalog decoder, and on the table pooling every
        // served request embeds through. A malformed index file, a query
        // or a table of any shape must surface as a Result or an answer,
        // never a panic in a worker.
        let mut embeddings = compute("crates/embeddings");
        embeddings.rules.push("panic-in-serve-path".to_string());
        embeddings.panic_files = vec![
            "src/hnsw.rs".to_string(),
            "src/mapped.rs".to_string(),
            "src/table.rs".to_string(),
        ];
        crates.push(embeddings);
        // kgpip-core: compute rules plus the serve-path panic rule on the
        // artifact read/predict path (training may still assert).
        let mut core = compute("crates/core");
        core.rules.push("panic-in-serve-path".to_string());
        core.panic_files = vec![
            "src/artifact.rs".to_string(),
            "src/predict.rs".to_string(),
            "src/snapshot.rs".to_string(),
        ];
        crates.push(core);
        // kgpip-serve: every file is a serving path.
        let mut serve = compute("crates/serve");
        serve.rules.push("panic-in-serve-path".to_string());
        crates.push(serve);
        // kgpip-bench measures wall-clock by design and iterates its own
        // reporting maps; it still must not use ambient randomness.
        crates.push(CrateRules {
            path: "crates/bench".to_string(),
            rules: vec![
                "unseeded-rng".to_string(),
                "missing-crate-guards".to_string(),
            ],
            panic_files: Vec::new(),
        });
        // The root facade + CLI: no wall-clock rule (the CLI prints
        // timings for humans) but determinism rules still apply.
        crates.push(CrateRules {
            path: ".".to_string(),
            rules: vec![
                "nondeterministic-iteration".to_string(),
                "unclamped-rayon".to_string(),
                "unseeded-rng".to_string(),
                "missing-crate-guards".to_string(),
            ],
            panic_files: Vec::new(),
        });
        WorkspaceConfig {
            pool_sanctioned: vec![
                "effective_parallelism".to_string(),
                "worker_pool".to_string(),
            ],
            crates,
        }
    }

    /// Parses a JSON config override.
    pub fn from_json(json: &str) -> Result<WorkspaceConfig, String> {
        serde_json::from_str(json).map_err(|e| format!("bad xlint config: {e}"))
    }

    /// Rule names appearing in the config that xlint does not know —
    /// non-empty means the config is rejected before any file is scanned.
    pub fn unknown_rules(&self) -> Vec<String> {
        let mut unknown = Vec::new();
        for c in &self.crates {
            for name in &c.rules {
                if Rule::from_name(name).is_none() && !unknown.contains(name) {
                    unknown.push(name.clone());
                }
            }
        }
        unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn house_config_is_valid() {
        let cfg = WorkspaceConfig::house();
        assert!(cfg.unknown_rules().is_empty());
        assert!(cfg.crates.len() >= 12, "every workspace crate is covered");
        let serve = cfg
            .crates
            .iter()
            .find(|c| c.path == "crates/serve")
            .unwrap();
        assert!(serve.parsed_rules().contains(&Rule::PanicInServePath));
        assert!(serve.panic_file_in_scope("src/anything.rs"));
        let core = cfg.crates.iter().find(|c| c.path == "crates/core").unwrap();
        assert!(core.panic_file_in_scope("src/predict.rs"));
        assert!(!core.panic_file_in_scope("src/train.rs"));
        // The chunked engine (stream.rs/chunk.rs) rides the tabular
        // crate's full compute rule set: its rayon pool must be clamped
        // and its accumulator merges must iterate deterministically.
        let tabular = cfg
            .crates
            .iter()
            .find(|c| c.path == "crates/tabular")
            .unwrap();
        assert!(tabular.parsed_rules().contains(&Rule::UnclampedRayon));
        assert!(tabular
            .parsed_rules()
            .contains(&Rule::NondeterministicIteration));
        // The CSV decoder and the chunked reader read untrusted bytes, and
        // every served request embeds through the chunk sampling and the
        // statistics fold: typed errors only.
        assert!(tabular.parsed_rules().contains(&Rule::PanicInServePath));
        for file in [
            "src/csv.rs",
            "src/stream.rs",
            "src/chunk.rs",
            "src/stats.rs",
        ] {
            assert!(tabular.panic_file_in_scope(file), "{file}");
        }
        assert!(!tabular.panic_file_in_scope("src/split.rs"));
        let embeddings = cfg
            .crates
            .iter()
            .find(|c| c.path == "crates/embeddings")
            .unwrap();
        assert!(embeddings.parsed_rules().contains(&Rule::PanicInServePath));
        assert!(embeddings.panic_file_in_scope("src/hnsw.rs"));
        assert!(embeddings.panic_file_in_scope("src/mapped.rs"));
        assert!(embeddings.panic_file_in_scope("src/table.rs"));
        assert!(!embeddings.panic_file_in_scope("src/tsne.rs"));
    }

    #[test]
    fn json_round_trip() {
        let cfg = WorkspaceConfig::house();
        let json = serde_json::to_string(&cfg).unwrap();
        let back = WorkspaceConfig::from_json(&json).unwrap();
        assert_eq!(back.crates.len(), cfg.crates.len());
        assert_eq!(back.pool_sanctioned, cfg.pool_sanctioned);
    }

    #[test]
    fn unknown_rules_are_reported() {
        let mut cfg = WorkspaceConfig::house();
        cfg.crates[0].rules.push("made-up-rule".to_string());
        assert_eq!(cfg.unknown_rules(), vec!["made-up-rule".to_string()]);
    }
}
