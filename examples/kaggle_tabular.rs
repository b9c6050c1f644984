//! A Kaggle-style mixed-type scenario (the titanic motif from the paper's
//! benchmark): numeric + categorical + missing values, loaded from CSV
//! text exactly as a `pandas.read_csv` pipeline would.
//!
//! Compares cold FLAML against KGpip + FLAML under the same small budget —
//! the Figure-5 comparison in miniature.
//!
//! ```sh
//! cargo run --release --example kaggle_tabular
//! ```

use kgpip::{Kgpip, KgpipConfig};
use kgpip_benchdata::{training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
use kgpip_hpo::{Flaml, Optimizer, TimeBudget};
use kgpip_tabular::{csv, train_test_split, Dataset};

/// Builds a titanic-like CSV in memory: pclass, sex, age (with holes),
/// fare, embarked, survived.
fn titanic_csv(rows: usize) -> String {
    let mut out = String::from("pclass,sex,age,fare,embarked,survived\n");
    for i in 0..rows {
        let pclass = 1 + i % 3;
        let sex = if (i * 7) % 10 < 4 { "female" } else { "male" };
        let age = if i % 9 == 0 {
            String::new() // missing
        } else {
            format!("{}", 18 + (i * 13) % 50)
        };
        let fare = 10.0 + ((i * 31) % 200) as f64 + (4 - pclass) as f64 * 40.0;
        let embarked = ["S", "C", "Q"][(i * 3) % 3];
        // Survival: women and first class mostly survive, with noise.
        let base = f64::from(sex == "female") * 0.6 + f64::from(pclass == 1) * 0.3;
        let survived = usize::from(base + ((i * 17) % 100) as f64 / 400.0 > 0.5);
        out.push_str(&format!(
            "{pclass},{sex},{age},{fare:.2},{embarked},{survived}\n"
        ));
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Read the "downloaded csv" with automatic type and task inference.
    let frame = csv::read_frame(&titanic_csv(600))?;
    let ds = Dataset::from_frame("titanic-like", frame, "survived")?;
    println!(
        "loaded: {} rows, {} features ({:?} kinds), task {}, {} missing cells",
        ds.num_rows(),
        ds.num_features(),
        ds.features.kind_counts(),
        ds.task,
        ds.features.missing_cells()
    );
    let (train, test) = train_test_split(&ds, 0.3, 7)?;

    // Cold FLAML.
    let budget_secs = 4.0;
    let mut cold = Flaml::new(0);
    let cold_result = cold.optimize(&train, &TimeBudget::seconds(budget_secs))?;
    let cold_score = cold_result.refit_score(&train, &test)?;
    println!(
        "\ncold FLAML:   {} -> test macro-F1 {:.3} ({} trials)",
        cold_result.spec.describe(),
        cold_score,
        cold_result.trials
    );

    // KGpip + FLAML with the same budget (training time excluded, as the
    // paper's offline phase is amortized over all datasets).
    let setup = training_setup(2, &ScaleConfig::default(), 1);
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: 10,
            ..CorpusConfig::default()
        },
    );
    // Parallelism 4: skeleton searches and their trials run concurrently
    // through the shared evaluation engine under the same global budget.
    let config = KgpipConfig::default().with_k(3).with_parallelism(4);
    let model = Kgpip::train(&scripts, &setup.tables, config)?;
    let mut backend = Flaml::new(0);
    let run = model
        .artifact()
        .run(&train, &mut backend, TimeBudget::seconds(budget_secs))?;
    let kg_score = run.best().refit_score(&train, &test)?;
    println!(
        "KGpip+FLAML:  {} -> test macro-F1 {:.3} (neighbour: {})",
        run.best().spec.describe(),
        kg_score,
        run.neighbour
    );
    println!(
        "\npredicted skeletons, in generator rank order: {:?}",
        run.results
            .iter()
            .map(|r| r.skeleton.estimator.name())
            .collect::<Vec<_>>()
    );
    Ok(())
}
