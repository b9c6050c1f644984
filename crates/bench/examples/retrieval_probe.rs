//! Diagnostic: for every benchmark dataset, does the nearest-neighbour
//! training table share the dataset's content domain? And does the top-1
//! predicted estimator match the domain's winning family?
//!
//! These two rates decompose KGpip's end-to-end advantage into its two
//! mechanisms (content-based retrieval, §3.2; conditional generation,
//! §3.5). Run with `cargo run --release -p kgpip-bench --example
//! retrieval_probe`; only mismatching datasets are listed.
use kgpip_bench::runner::{build_model, ExperimentConfig};
use kgpip_benchdata::generate::{domain_of, shape_of, DataShape};
use kgpip_benchdata::{benchmark, generate_dataset};
use kgpip_hpo::{Flaml, Optimizer};

fn main() {
    let cfg = ExperimentConfig::default();
    let model = build_model(&cfg);
    let caps = Flaml::new(0).capabilities();
    let mut domain_hits = 0;
    let mut family_hits = 0;
    let mut n = 0;
    for entry in benchmark() {
        let ds = generate_dataset(
            entry,
            &cfg.scale,
            cfg.seed.wrapping_add(entry.id as u64 * 1000),
        );
        let (name, sim) = model.artifact().nearest_dataset(&ds).unwrap();
        let want = domain_of(entry.name);
        let got = domain_of(&name);
        let (skeletons, _) = model
            .artifact()
            .predict_skeletons(&ds, 3, &caps, cfg.seed)
            .expect("trained catalog is non-empty and k > 0");
        let shape = shape_of(want);
        let fam: &[&str] = match shape {
            DataShape::Boost => &["xgboost", "gradient_boost", "lgbm", "random_forest"],
            DataShape::Linear => &[
                "logistic_regression",
                "ridge",
                "lasso",
                "linear_svm",
                "linear_regression",
            ],
            DataShape::Neighbor => &["knn", "random_forest", "extra_trees"],
        };
        let top = skeletons
            .first()
            .map(|(s, _)| s.estimator.name())
            .unwrap_or("-");
        let fam_ok = fam.contains(&top);
        if got == want {
            domain_hits += 1;
        }
        if fam_ok {
            family_hits += 1;
        }
        n += 1;
        if got != want || !fam_ok {
            println!(
                "{:38} dom {want}->{got} sim {sim:.2} shape {shape:?} top1 {top} {}",
                entry.name,
                if fam_ok { "famOK" } else { "famMISS" }
            );
        }
    }
    println!("\ndomain retrieval: {domain_hits}/{n}; family match: {family_hits}/{n}");
}
