//! The static-analysis path on its own: take a data-science notebook
//! (the paper's Figure 2 snippet, expanded), build its code graph
//! (Figure 3), filter it (Figure 4), and extract the pipeline skeleton —
//! no ML training involved.
//!
//! ```sh
//! cargo run --example corpus_mining
//! ```

use kgpip_codegraph::{analyze, filter_graph, NodeKind};

const NOTEBOOK: &str = r#"
import pandas as pd
import matplotlib.pyplot as plt
from sklearn.model_selection import train_test_split
from sklearn.preprocessing import StandardScaler
from sklearn import svm

df = pd.read_csv('example.csv')

# exploratory analysis the filter must discard
df.describe()
df.head()
plt.hist(df['X'])
plt.show()
df.corr()

df = df.fillna(0)
df_train, df_test = train_test_split(df)
X = df_train['X']

scaler = StandardScaler()
X2 = scaler.fit_transform(X)

model = svm.SVC(C=1.5)
model.fit(X2, df_train['Y'])
preds = model.predict(df_test)
print(preds)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Static analysis (the GraphGen4Code substitute).
    let graph = analyze(NOTEBOOK)?;
    // GraphGen4Code stores a closure edge per transitive dataflow pair;
    // the analysis counts them instead.
    let pairs = graph.transitive_dataflow_pairs();
    let raw_edges = graph.num_edges() + pairs;
    println!(
        "code graph: {} nodes, {raw_edges} edges ({pairs} of them transitive dataflow pairs, counted)",
        graph.num_nodes()
    );
    println!("resolved call nodes:");
    for id in graph.nodes_of_kind(NodeKind::Call) {
        println!(
            "  line {:2}: {}",
            graph.nodes[id].span.line, graph.nodes[id].label
        );
    }

    // 2. The §3.4 filter.
    let filtered = filter_graph(&graph);
    let node_reduction = 100.0 * (1.0 - filtered.num_nodes() as f64 / graph.num_nodes() as f64);
    let edge_reduction = 100.0 * (1.0 - filtered.num_edges() as f64 / raw_edges as f64);
    println!(
        "\nfiltered graph: {} nodes, {} edges ({node_reduction:.1}% / {edge_reduction:.1}% reduction; paper reports >= 96%)",
        filtered.num_nodes(),
        filtered.num_edges()
    );
    println!(
        "filtered ops: {:?}",
        filtered.ops.iter().map(|o| o.name()).collect::<Vec<_>>()
    );
    println!("filtered edges: {:?}", filtered.edges);

    // 3. Skeleton extraction (§3.6).
    let (transformers, estimator) = filtered
        .skeleton()
        .expect("this notebook contains a valid pipeline");
    println!("\npipeline skeleton: {transformers:?} + {estimator}");

    // 4. The Graph4ML view: dataset node attached (Figure 4).
    let with_ds = filtered.with_dataset_node();
    println!(
        "with dataset node: {} nodes, first op = {}",
        with_ds.num_nodes(),
        with_ds.ops[0].name()
    );
    Ok(())
}
