//! Does the trained generator condition on embeddings at all? Predict with
//! each TRAINING dataset's own embedding and report the top estimators —
//! if these do not vary by domain, the generator has collapsed to the
//! corpus-global mode and the §3.5 conditioning is broken. Run with
//! `cargo run --release -p kgpip-bench --example condition_probe`.
use kgpip_bench::runner::{build_model, ExperimentConfig};
use kgpip_benchdata::generate::{domain_of, shape_of};
use kgpip_hpo::{Flaml, Optimizer};
use kgpip_tabular::Task;

fn main() {
    let cfg = ExperimentConfig::default();
    let model = build_model(&cfg);
    println!("training losses: {:?}", &model.stats().epoch_losses);
    let caps = Flaml::new(0).capabilities();
    let names: Vec<String> = model.graph4ml().datasets().to_vec();
    for name in names {
        let emb = model.artifact().embedding_of(&name).unwrap().to_vec();
        let sk = model
            .artifact()
            .predict_with_embedding(&emb, Task::Binary, 3, &caps, 9)
            .expect("k > 0");
        let tops: Vec<&str> = sk.iter().map(|(s, _)| s.estimator.name()).collect();
        println!(
            "{name:14} dom {} {:?} -> {:?}",
            domain_of(&name),
            shape_of(domain_of(&name)),
            tops
        );
    }
}
