//! Prediction-quality analyses: Figure 7 (K sweep), Figure 8 (learner
//! positions), Figure 10 (embedding t-SNE), the §4.5.2 MRR, and the
//! §4.5.3 diversity study.

use super::{select_entries, Sweep};
use crate::runner::{build_model, evaluate, ExperimentConfig, SystemKind};
use crate::stats;
use kgpip::Kgpip;
use kgpip_benchdata::generate::{domain_of, synthesize, SynthSpec, NUM_DOMAINS};
use kgpip_benchdata::{generate_dataset, CatalogEntry};
use kgpip_embeddings::table_embedding;
use kgpip_embeddings::tsne::{tsne, TsneConfig};
use kgpip_hpo::{AutoSklearn, Flaml, Optimizer, TimeBudget};
use kgpip_learners::EstimatorKind;
use kgpip_tabular::train_test_split;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Runs one KGpip variant with an explicit K on one dataset; returns the
/// test score.
fn run_kgpip_k(
    model: &Kgpip,
    entry: &CatalogEntry,
    cfg: &ExperimentConfig,
    k: usize,
    flaml_backend: bool,
    run_idx: usize,
) -> Option<f64> {
    let data_seed = cfg.seed.wrapping_add(entry.id as u64 * 1000);
    let run_seed = cfg
        .seed
        .wrapping_add(run_idx as u64 * 7919 + entry.id as u64);
    let ds = generate_dataset(entry, &cfg.scale, data_seed);
    let (train, test) = train_test_split(&ds, 0.3, data_seed).ok()?;
    let budget = TimeBudget::seconds(cfg.budget_secs).with_trial_cap(cfg.trials_per_system);
    let run = if flaml_backend {
        let mut backend = Flaml::new(run_seed);
        model
            .artifact()
            .run_k(&train, &mut backend, budget, k)
            .ok()?
    } else {
        let mut backend = AutoSklearn::new(run_seed);
        model
            .artifact()
            .run_k(&train, &mut backend, budget, k)
            .ok()?
    };
    run.best()
        .refit_score(&train, &test)
        .ok()
        .map(|s| s.max(0.0))
}

/// Figure 7: performance of both KGpip variants as K varies over
/// {3, 5, 7}, with paired t-tests against the cold baselines.
pub fn fig7(cfg: &ExperimentConfig, limit: Option<usize>) -> String {
    let entries = select_entries(limit);
    let model = build_model(cfg);
    // Cold baselines once.
    let baselines = evaluate(cfg, &[SystemKind::Flaml, SystemKind::AutoSklearn], &entries);
    let flaml_scores = baselines[0].scores_or_zero();
    let ask_scores = baselines[1].scores_or_zero();

    let mut out = String::from("Figure 7. KGpip performance vs number of predicted graphs K.\n");
    let _ = writeln!(
        out,
        "Baselines: FLAML mean {:.3}, AutoSklearn mean {:.3}",
        stats::mean(&flaml_scores),
        stats::mean(&ask_scores)
    );
    for k in [3usize, 5, 7] {
        for (label, flaml_backend, base) in [
            ("KGpipFLAML", true, &flaml_scores),
            ("KGpipAutoSklearn", false, &ask_scores),
        ] {
            let scores: Vec<f64> = entries
                .par_iter()
                .map(|e| run_kgpip_k(&model, e, cfg, k, flaml_backend, 0).unwrap_or(0.0))
                .collect();
            let (_, p) = stats::paired_t_test(&scores, base);
            let _ = writeln!(
                out,
                "  K = {k}: {label:17} mean {:.3} (baseline {:.3}), paired-t p = {p:.4}",
                stats::mean(&scores),
                stats::mean(base)
            );
        }
    }
    out.push_str(
        "Paper reference: t-test vs FLAML = 0.06 (K=3), 0.03 (K=5), 0.01 (K=7); \
         vs Auto-Sklearn similar-or-better but insignificant.\n",
    );
    out
}

/// Figure 8: learners selected at the first position, at all positions,
/// and in the winning (top) pipeline — from the main sweep's KGpip runs.
pub fn fig8(sweep: &Sweep) -> String {
    let mut first: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut all: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut top: BTreeMap<&'static str, usize> = BTreeMap::new();
    for sys in &sweep.systems {
        if !sys.system.needs_model() {
            continue;
        }
        for d in &sys.datasets {
            for run in &d.runs {
                let Some(kg) = &run.kgpip else { continue };
                if let Some(first_est) = kg.estimators.first() {
                    *first.entry(first_est.name()).or_insert(0) += 1;
                }
                for e in &kg.estimators {
                    *all.entry(e.name()).or_insert(0) += 1;
                }
                *top.entry(kg.top_estimator.name()).or_insert(0) += 1;
            }
        }
    }
    let fmt = |title: &str, map: &BTreeMap<&'static str, usize>| {
        let mut pairs: Vec<(&&str, &usize)> = map.iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(a.1));
        let mut s = format!("  {title}:\n");
        for (name, count) in pairs {
            let _ = writeln!(s, "    {name:20} {count}");
        }
        s
    };
    let mut out = String::from("Figure 8. Learners selected by KGpip.\n");
    out.push_str(&fmt("First position", &first));
    out.push_str(&fmt("All positions", &all));
    out.push_str(&fmt("Top (winning) pipeline", &top));
    // Shape check: boosting families dominate the first position.
    let boost_first: usize = ["xgboost", "gradient_boost", "lgbm"]
        .iter()
        .map(|n| first.get(n).copied().unwrap_or(0))
        .sum();
    let total_first: usize = first.values().sum();
    let _ = writeln!(
        out,
        "Shape check: boosting first-position share {:.0}% (paper: \"dominated by xgboost and gradient_boost\").",
        100.0 * boost_first as f64 / total_first.max(1) as f64
    );
    out
}

/// §4.5.2: mean reciprocal rank of the winning pipeline in the generator's
/// ranked list (paper: 0.71).
pub fn mrr_report(sweep: &Sweep) -> String {
    let mut ranks = Vec::new();
    for sys in &sweep.systems {
        if !sys.system.needs_model() {
            continue;
        }
        for d in &sys.datasets {
            for run in &d.runs {
                if let Some(kg) = &run.kgpip {
                    ranks.push(kg.best_rank);
                }
            }
        }
    }
    let value = stats::mrr(&ranks);
    format!(
        "MRR of the best pipeline's rank across {} KGpip runs: {value:.3} (paper: 0.71)\n",
        ranks.len()
    )
}

/// §4.5.3: diversity of predicted pipelines across runs on the *same*
/// dataset (paper: cross-run correlations 0.60–0.64, i.e. diverse but not
/// random).
pub fn diversity(cfg: &ExperimentConfig, limit: Option<usize>) -> String {
    let entries = select_entries(limit.or(Some(6)));
    let model = build_model(cfg);
    let caps = Flaml::new(0).capabilities();
    let mut correlations = Vec::new();
    for entry in &entries {
        let data_seed = cfg.seed.wrapping_add(entry.id as u64 * 1000);
        let ds = generate_dataset(entry, &cfg.scale, data_seed);
        // Three prediction runs with different sampling seeds.
        let lists: Vec<Vec<f64>> = (0..3)
            .map(|run| {
                let (sk, _) = model
                    .artifact()
                    .predict_skeletons(&ds, 5, &caps, cfg.seed + 100 + run)
                    .expect("trained catalog is non-empty and k > 0");
                sk.iter()
                    .map(|(s, _)| {
                        EstimatorKind::ALL
                            .iter()
                            .position(|k| *k == s.estimator)
                            .unwrap() as f64
                    })
                    .collect()
            })
            .collect();
        for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let n = lists[i].len().min(lists[j].len());
            if n >= 3 {
                correlations.push(stats::spearman(&lists[i][..n], &lists[j][..n]));
            }
        }
    }
    let mut out = String::from("§4.5.3 Diversity in predicted pipelines across runs.\n");
    if correlations.is_empty() {
        out.push_str("  (not enough predictions for correlations)\n");
        return out;
    }
    let lo = correlations.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = correlations
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(
        out,
        "  {} cross-run correlations, mean {:.2}, range {:.2}..{:.2} (paper: 0.60–0.64)",
        correlations.len(),
        stats::mean(&correlations),
        lo,
        hi
    );
    out.push_str(
        "  Shape check: correlations are neither ~1 (deterministic) nor ~0 (random) — \
         the generator explores while staying dataset-aware.\n",
    );
    out
}

/// Figure 10: t-SNE of dataset embeddings for 38 domain-tagged tables;
/// same-domain tables must cluster.
pub fn fig10(seed: u64) -> String {
    // 38 Kaggle-style datasets spread over the domains.
    let mut specs = Vec::new();
    let mut domains = Vec::new();
    let mut i = 0usize;
    while specs.len() < 38 {
        let name = format!("kaggle_{i}");
        let domain = domain_of(&name);
        specs.push(SynthSpec {
            name,
            rows: 150,
            num: 4 + domain % 3,
            cat: usize::from(domain.is_multiple_of(2)),
            text: usize::from(domain % 4 == 3),
            classes: 2,
            ceiling: 0.9,
            missing: 0.0,
        });
        domains.push(domain);
        i += 1;
    }
    let embeddings: Vec<Vec<f64>> = specs
        .iter()
        .enumerate()
        .map(|(j, spec)| {
            let ds = synthesize(spec, seed.wrapping_add(j as u64));
            table_embedding(&ds.features)
        })
        .collect();
    let layout = tsne(&embeddings, &TsneConfig::default());

    let mut out = String::from(
        "Figure 10. t-SNE of dataset embeddings (38 synthetic Kaggle-domain tables).\n",
    );
    out.push_str("  name         domain   x        y\n");
    for ((spec, &domain), (x, y)) in specs.iter().zip(&domains).zip(&layout) {
        let _ = writeln!(out, "  {:12} {:6}   {x:8.2} {y:8.2}", spec.name, domain);
    }
    // Quantify clustering: within- vs between-domain distance ratio.
    let dist = |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
    let mut within = Vec::new();
    let mut between = Vec::new();
    for a in 0..layout.len() {
        for b in a + 1..layout.len() {
            if domains[a] == domains[b] {
                within.push(dist(layout[a], layout[b]));
            } else {
                between.push(dist(layout[a], layout[b]));
            }
        }
    }
    let ratio = stats::mean(&between) / stats::mean(&within).max(1e-9);
    let _ = writeln!(
        out,
        "  Cluster separation (mean between-domain / within-domain distance): {ratio:.2} \
         (> 1 means same-domain tables cluster, as in the paper's figure). {NUM_DOMAINS} domains."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_clusters_by_domain() {
        let report = fig10(0);
        // Parse the separation ratio back out of the report.
        let line = report
            .lines()
            .find(|l| l.contains("Cluster separation"))
            .unwrap();
        let ratio: f64 = line
            .split("distance): ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio > 1.2, "domains should separate, ratio = {ratio}");
    }

    #[test]
    fn diversity_runs_on_quick_config() {
        let cfg = ExperimentConfig::quick();
        let report = diversity(&cfg, Some(2));
        assert!(report.contains("Diversity"));
    }
}
