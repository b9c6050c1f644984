//! Gradient-boosted trees: one engine, three mined-learner families.
//!
//! * `gradient_boost` — first-order boosting with exact depth-wise trees
//!   (sklearn `GradientBoosting*` style),
//! * `xgboost` — second-order boosting with L2 leaf regularization
//!   (`lambda`), split penalty (`gamma`), `min_child_weight`, exact splits,
//! * `lgbm` — second-order boosting over quantile-binned histograms with
//!   leaf-wise (best-gain-first) growth up to `max_leaves`.
//!
//! All three share the classic additive-model loop: maintain raw scores F,
//! compute per-row gradients g (and hessians h for second-order modes) of
//! the task loss, fit a regression tree to (g, h), and add `learning_rate ×
//! tree` to F. Losses: squared error (regression), logistic (binary),
//! softmax (multi-class, one tree per class per round).
//!
//! The histogram engine is the trial hot path: bin edges are quantile-fit
//! once per fit, per-node histograms accumulate feature by feature in row
//! order, sibling nodes reuse the parent histogram by subtraction, and
//! in-bag rows take their leaf value from the builder's assignments instead
//! of re-traversing the tree. A fit runs on the calling thread: the HPO
//! engines already fan whole trials and skeleton lanes out over the cores,
//! and a per-node fan-out over features cost more in hand-offs than the few
//! microseconds of arithmetic it split. Fitted models therefore ignore any
//! installed rayon width (`tests/gbt_determinism.rs`). The exact-split path
//! stays available behind the `exact` hyperparameter.

use super::{argmax_rows, check_fit_inputs, Estimator, EstimatorKind};
use crate::matrix::Matrix;
use crate::{LearnError, Result};
use kgpip_tabular::Task;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters of the boosting engine.
#[derive(Debug, Clone)]
pub struct GbtConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum depth per tree (ignored constraint in leaf-wise mode unless
    /// exceeded).
    pub max_depth: usize,
    /// Row subsampling fraction per tree, (0, 1].
    pub subsample: f64,
    /// L2 regularization on leaf weights (XGBoost's λ).
    pub lambda: f64,
    /// Minimum gain required to split (XGBoost's γ).
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Use true hessians (second-order) or h = 1 (first-order).
    pub second_order: bool,
    /// Use histogram-binned splits + leaf-wise growth (LightGBM style).
    pub histogram: bool,
    /// Number of quantile bins in histogram mode.
    pub max_bins: usize,
    /// Maximum leaves per tree in leaf-wise mode (0 = unlimited).
    pub max_leaves: usize,
    /// RNG seed for row subsampling.
    pub seed: u64,
    /// Which mined-learner family this configuration represents.
    pub kind: EstimatorKind,
}

#[derive(Debug, Clone)]
enum GNode {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf(f64),
}

#[derive(Debug, Clone)]
struct GradTree {
    nodes: Vec<GNode>,
}

impl GradTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                GNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    }
                }
                GNode::Leaf(v) => return *v,
            }
        }
    }

    fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, GNode::Leaf(_)))
            .count()
    }
}

/// XGBoost-style structure gain of splitting (G, H) into (GL, HL), (GR, HR).
#[inline]
fn split_gain(gl: f64, hl: f64, gr: f64, hr: f64, lambda: f64) -> f64 {
    let term = |g: f64, h: f64| g * g / (h + lambda);
    0.5 * (term(gl, hl) + term(gr, hr) - term(gl + gr, hl + hr))
}

#[inline]
fn leaf_weight(g: f64, h: f64, lambda: f64) -> f64 {
    -g / (h + lambda)
}

// ---------------------------------------------------------------------------
// Exact depth-wise builder
// ---------------------------------------------------------------------------

fn build_exact(x: &Matrix, g: &[f64], h: &[f64], rows: Vec<usize>, cfg: &GbtConfig) -> GradTree {
    let mut nodes = Vec::new();
    build_exact_node(x, g, h, rows, 0, cfg, &mut nodes);
    GradTree { nodes }
}

fn build_exact_node(
    x: &Matrix,
    g: &[f64],
    h: &[f64],
    rows: Vec<usize>,
    depth: usize,
    cfg: &GbtConfig,
    nodes: &mut Vec<GNode>,
) -> usize {
    let g_sum: f64 = rows.iter().map(|&r| g[r]).sum();
    let h_sum: f64 = rows.iter().map(|&r| h[r]).sum();
    let leaf = |nodes: &mut Vec<GNode>| {
        nodes.push(GNode::Leaf(leaf_weight(g_sum, h_sum, cfg.lambda)));
        nodes.len() - 1
    };
    if depth >= cfg.max_depth || rows.len() < 2 {
        return leaf(nodes);
    }
    let mut best: Option<(f64, usize, f64)> = None; // gain, feature, threshold
    for f in 0..x.cols() {
        let mut order = rows.clone();
        order.sort_by(|&a, &b| x.get(a, f).partial_cmp(&x.get(b, f)).unwrap());
        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in 0..order.len() - 1 {
            let r = order[w];
            gl += g[r];
            hl += h[r];
            let v = x.get(r, f);
            let next = x.get(order[w + 1], f);
            if v == next {
                continue;
            }
            let hr = h_sum - hl;
            if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                continue;
            }
            let gain = split_gain(gl, hl, g_sum - gl, hr, cfg.lambda);
            if gain > cfg.gamma && best.is_none_or(|(bg, _, _)| gain > bg) {
                best = Some((gain, f, v + (next - v) * 0.5));
            }
        }
    }
    let Some((_, feature, threshold)) = best else {
        return leaf(nodes);
    };
    let (lrows, rrows): (Vec<usize>, Vec<usize>) =
        rows.iter().partition(|&&r| x.get(r, feature) <= threshold);
    if lrows.is_empty() || rrows.is_empty() {
        return leaf(nodes);
    }
    let at = nodes.len();
    nodes.push(GNode::Leaf(0.0));
    let left = build_exact_node(x, g, h, lrows, depth + 1, cfg, nodes);
    let right = build_exact_node(x, g, h, rrows, depth + 1, cfg, nodes);
    nodes[at] = GNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    at
}

// ---------------------------------------------------------------------------
// Histogram leaf-wise builder
// ---------------------------------------------------------------------------

/// Quantile bin edges of one feature from its (unsorted) values: sort,
/// dedup, then up to `max_bins` upper-inclusive edges.
fn quantile_edges(mut vals: Vec<f64>, max_bins: usize) -> Vec<f64> {
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    vals.dedup();
    if vals.len() <= max_bins {
        vals
    } else {
        (1..=max_bins)
            .map(|b| {
                let idx = b * (vals.len() - 1) / max_bins;
                vals[idx]
            })
            .collect()
    }
}

/// Bin index of `v` against strictly increasing upper-inclusive `edges`:
/// the first edge ≥ v, clamped to the last bin.
#[inline]
fn bin_value(v: f64, edges: &[f64]) -> u16 {
    match edges.binary_search_by(|e| e.partial_cmp(&v).unwrap()) {
        Ok(i) => i as u16,
        Err(i) => (i.min(edges.len() - 1)) as u16,
    }
}

/// Global quantile binning of the training matrix: per feature, up to
/// `max_bins` bin edges and every row's bin index.
fn quantile_bins(x: &Matrix, max_bins: usize) -> BinnedMatrix {
    let mut binned = Vec::with_capacity(x.cols());
    let mut edges_all = Vec::with_capacity(x.cols());
    for f in 0..x.cols() {
        let edges = quantile_edges(x.col(f), max_bins);
        let bins: Vec<u16> = x.col(f).iter().map(|&v| bin_value(v, &edges)).collect();
        binned.push(bins);
        edges_all.push(edges);
    }
    BinnedMatrix {
        bins: binned,
        edges: edges_all,
    }
}

/// A matrix pre-binned for histogram split finding: per-feature bin indices
/// plus the (strictly increasing) upper-inclusive bin edges.
struct BinnedMatrix {
    bins: Vec<Vec<u16>>,
    edges: Vec<Vec<f64>>,
}

/// Per-node histogram: `hist[feature][bin] = (Σg, Σh)` over the node's rows.
type Hist = Vec<Vec<(f64, f64)>>;

/// Builds a node's histogram, one feature at a time; within a feature,
/// rows accumulate in row order.
fn node_hist(bm: &BinnedMatrix, g: &[f64], h: &[f64], rows: &[usize]) -> Hist {
    bm.bins
        .iter()
        .zip(&bm.edges)
        .map(|(bins, edges)| {
            let mut hist = vec![(0.0f64, 0.0f64); edges.len()];
            for &r in rows {
                let cell = &mut hist[bins[r] as usize];
                cell.0 += g[r];
                cell.1 += h[r];
            }
            hist
        })
        .collect()
}

/// Sibling histogram by subtraction: `parent − child`, elementwise.
fn subtract_hist(parent: &Hist, child: &Hist) -> Hist {
    parent
        .iter()
        .zip(child)
        .map(|(p, c)| {
            p.iter()
                .zip(c)
                .map(|(&(pg, ph), &(cg, ch))| (pg - cg, ph - ch))
                .collect()
        })
        .collect()
}

/// Best `(gain, feature, bin)` split of a node given its histogram.
/// Deterministic total order: strictly higher gain wins; ties keep the
/// lowest feature, then the lowest bin: each feature scans its bins in
/// order, and the per-feature bests fold in feature order.
fn best_split_from_hist(
    hist: &Hist,
    g_sum: f64,
    h_sum: f64,
    cfg: &GbtConfig,
) -> Option<(f64, usize, usize)> {
    let scan = |f: usize| -> Option<(f64, usize, usize)> {
        let bins = &hist[f];
        let mut best: Option<(f64, usize, usize)> = None;
        let mut gl = 0.0;
        let mut hl = 0.0;
        for (b, &(bg, bh)) in bins.iter().enumerate().take(bins.len().saturating_sub(1)) {
            gl += bg;
            hl += bh;
            let hr = h_sum - hl;
            if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                continue;
            }
            let gain = split_gain(gl, hl, g_sum - gl, hr, cfg.lambda);
            if gain > cfg.gamma && best.is_none_or(|(prev, _, _)| gain > prev) {
                best = Some((gain, f, b));
            }
        }
        best
    };
    (0..hist.len())
        .filter_map(scan)
        .fold(None, |acc, cand| match acc {
            Some((best_gain, _, _)) if cand.0 <= best_gain => acc,
            _ => Some(cand),
        })
}

/// A frontier leaf that has a viable split waiting to be applied.
struct HistNode {
    node: usize,
    depth: usize,
    rows: Vec<usize>,
    hist: Hist,
    /// `(gain, feature, bin)` of this node's best split.
    split: (f64, usize, usize),
}

/// Leaf-wise (best-gain-first) histogram tree builder. Returns the tree
/// plus the in-bag leaf assignments — `(leaf node index, rows routed
/// there)` for every training row in `rows` — so the boosting loop can
/// update scores without re-traversing the tree. Assignment-by-bin equals
/// assignment-by-threshold: bin edges are upper-inclusive, so
/// `bin(x) ≤ b ⇔ x ≤ edges[b]`, exactly the routing `predict_row` applies.
fn build_hist(
    bm: &BinnedMatrix,
    g: &[f64],
    h: &[f64],
    rows: Vec<usize>,
    cfg: &GbtConfig,
) -> (GradTree, Vec<(usize, Vec<usize>)>) {
    let max_leaves = if cfg.max_leaves == 0 {
        usize::MAX
    } else {
        cfg.max_leaves
    };
    let mut nodes: Vec<GNode> = Vec::new();
    let mut frontier: Vec<HistNode> = Vec::new();
    let mut done: Vec<(usize, Vec<usize>)> = Vec::new();

    // Scans a fresh leaf: either it joins the frontier (has a viable split)
    // or it is final.
    let enqueue = |node: usize,
                   depth: usize,
                   rows: Vec<usize>,
                   g_sum: f64,
                   h_sum: f64,
                   hist: Hist,
                   frontier: &mut Vec<HistNode>,
                   done: &mut Vec<(usize, Vec<usize>)>| {
        match best_split_from_hist(&hist, g_sum, h_sum, cfg) {
            Some(split) => frontier.push(HistNode {
                node,
                depth,
                rows,
                hist,
                split,
            }),
            None => done.push((node, rows)),
        }
    };

    let g_sum: f64 = rows.iter().map(|&r| g[r]).sum();
    let h_sum: f64 = rows.iter().map(|&r| h[r]).sum();
    nodes.push(GNode::Leaf(leaf_weight(g_sum, h_sum, cfg.lambda)));
    if cfg.max_depth == 0 || rows.len() < 2 {
        done.push((0, rows));
    } else {
        let hist = node_hist(bm, g, h, &rows);
        enqueue(0, 0, rows, g_sum, h_sum, hist, &mut frontier, &mut done);
    }

    let mut leaves = 1usize;
    while leaves < max_leaves && !frontier.is_empty() {
        // Highest gain wins; on exact ties the earliest frontier entry.
        let mut best_i = 0usize;
        for i in 1..frontier.len() {
            if frontier[i].split.0 > frontier[best_i].split.0 {
                best_i = i;
            }
        }
        let cand = frontier.swap_remove(best_i);
        let (_, feature, bin) = cand.split;
        let (lrows, rrows): (Vec<usize>, Vec<usize>) = cand
            .rows
            .iter()
            .partition(|&&r| (bm.bins[feature][r] as usize) <= bin);
        if lrows.is_empty() || rrows.is_empty() {
            done.push((cand.node, cand.rows));
            continue;
        }
        // Leaf weights from direct row-order sums (not histogram bins), so
        // leaf values do not depend on the binning granularity's summation
        // order.
        let lg: f64 = lrows.iter().map(|&r| g[r]).sum();
        let lh: f64 = lrows.iter().map(|&r| h[r]).sum();
        let rg: f64 = rrows.iter().map(|&r| g[r]).sum();
        let rh: f64 = rrows.iter().map(|&r| h[r]).sum();
        let left = nodes.len();
        nodes.push(GNode::Leaf(leaf_weight(lg, lh, cfg.lambda)));
        let right = nodes.len();
        nodes.push(GNode::Leaf(leaf_weight(rg, rh, cfg.lambda)));
        nodes[cand.node] = GNode::Split {
            feature,
            threshold: bm.edges[feature][bin],
            left,
            right,
        };
        leaves += 1;

        let child_depth = cand.depth + 1;
        let l_splittable = child_depth < cfg.max_depth && lrows.len() >= 2;
        let r_splittable = child_depth < cfg.max_depth && rrows.len() >= 2;
        match (l_splittable, r_splittable) {
            (false, false) => {
                done.push((left, lrows));
                done.push((right, rrows));
            }
            (true, false) => {
                let lhist = node_hist(bm, g, h, &lrows);
                enqueue(
                    left,
                    child_depth,
                    lrows,
                    lg,
                    lh,
                    lhist,
                    &mut frontier,
                    &mut done,
                );
                done.push((right, rrows));
            }
            (false, true) => {
                done.push((left, lrows));
                let rhist = node_hist(bm, g, h, &rrows);
                enqueue(
                    right,
                    child_depth,
                    rrows,
                    rg,
                    rh,
                    rhist,
                    &mut frontier,
                    &mut done,
                );
            }
            (true, true) => {
                // Histogram subtraction: accumulate the smaller child
                // directly, derive the larger as parent − smaller.
                let (lhist, rhist) = if lrows.len() <= rrows.len() {
                    let lhist = node_hist(bm, g, h, &lrows);
                    let rhist = subtract_hist(&cand.hist, &lhist);
                    (lhist, rhist)
                } else {
                    let rhist = node_hist(bm, g, h, &rrows);
                    let lhist = subtract_hist(&cand.hist, &rhist);
                    (lhist, rhist)
                };
                enqueue(
                    left,
                    child_depth,
                    lrows,
                    lg,
                    lh,
                    lhist,
                    &mut frontier,
                    &mut done,
                );
                enqueue(
                    right,
                    child_depth,
                    rrows,
                    rg,
                    rh,
                    rhist,
                    &mut frontier,
                    &mut done,
                );
            }
        }
    }
    // Leaves still on the frontier when the cap hits stay leaves.
    for n in frontier {
        done.push((n.node, n.rows));
    }
    (GradTree { nodes }, done)
}

// ---------------------------------------------------------------------------
// Boosting loop
// ---------------------------------------------------------------------------

/// The gradient-boosting estimator.
#[derive(Debug)]
pub struct GradientBoosting {
    config: GbtConfig,
    /// `trees[round][class]` — one tree per class head per round.
    trees: Vec<Vec<GradTree>>,
    base_score: Vec<f64>,
    task: Option<Task>,
}

impl GradientBoosting {
    /// Creates an unfitted booster.
    pub fn new(config: GbtConfig) -> Self {
        GradientBoosting {
            config,
            trees: Vec::new(),
            base_score: Vec::new(),
            task: None,
        }
    }

    /// Total number of fitted trees across all rounds and heads.
    pub fn num_trees(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// Mean leaf count per tree (proxy for tree complexity in tests).
    pub fn mean_leaves(&self) -> f64 {
        let total: usize = self
            .trees
            .iter()
            .flat_map(|round| round.iter().map(GradTree::num_leaves))
            .sum();
        total as f64 / self.num_trees().max(1) as f64
    }

    /// Raw additive scores, one column per head.
    fn raw_scores(&self, x: &Matrix) -> Matrix {
        let heads = self.base_score.len();
        let mut out = Matrix::zeros(x.rows(), heads);
        for r in 0..x.rows() {
            for (c, b) in self.base_score.iter().enumerate() {
                out.set(r, c, *b);
            }
        }
        for round in &self.trees {
            for (c, tree) in round.iter().enumerate() {
                for r in 0..x.rows() {
                    let v = out.get(r, c) + self.config.learning_rate * tree.predict_row(x.row(r));
                    out.set(r, c, v);
                }
            }
        }
        out
    }

    /// The additive-boosting loop; `binned` is `Some` exactly when the
    /// configuration is in histogram mode.
    fn boost(&mut self, x: &Matrix, binned: Option<BinnedMatrix>, y: &[f64], task: Task) {
        let n = x.rows();
        let heads = match task {
            Task::Regression | Task::Binary => 1,
            Task::MultiClass(k) => k,
        };
        // Base score.
        self.base_score = match task {
            Task::Regression => vec![y.iter().sum::<f64>() / n as f64],
            Task::Binary => {
                let p = (y.iter().sum::<f64>() / n as f64).clamp(1e-6, 1.0 - 1e-6);
                vec![(p / (1.0 - p)).ln()]
            }
            Task::MultiClass(k) => vec![0.0; k],
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Current raw scores, flat `[row * heads + head]`.
        let mut f_scores: Vec<f64> = Vec::with_capacity(n * heads);
        for _ in 0..n {
            f_scores.extend_from_slice(&self.base_score);
        }
        self.trees = Vec::with_capacity(self.config.n_estimators);
        for _round in 0..self.config.n_estimators {
            // Subsample rows once per round.
            let rows: Vec<usize> = if self.config.subsample < 1.0 {
                (0..n)
                    .filter(|_| rng.gen::<f64>() < self.config.subsample)
                    .collect()
            } else {
                (0..n).collect()
            };
            if rows.len() < 2 {
                continue;
            }
            let in_bag = rows.len() == n;
            let mut round_trees = Vec::with_capacity(heads);
            // Gradients for all heads computed from the *same* scores, flat
            // `[head * n + row]` so each head's slice is contiguous.
            let (g_all, h_all) = gradients(&f_scores, heads, y, task, self.config.second_order);
            for head in 0..heads {
                let g = &g_all[head * n..(head + 1) * n];
                let h = &h_all[head * n..(head + 1) * n];
                let tree = match &binned {
                    Some(bm) => {
                        let (tree, assignments) = build_hist(bm, g, h, rows.clone(), &self.config);
                        // In-bag rows take their leaf value straight from
                        // the assignment (identical to routing the row:
                        // bin(x) ≤ b ⇔ x ≤ edges[b]); out-of-bag rows are
                        // routed through the tree as before.
                        for (node, leaf_rows) in &assignments {
                            let GNode::Leaf(value) = tree.nodes[*node] else {
                                continue;
                            };
                            for &r in leaf_rows {
                                f_scores[r * heads + head] += self.config.learning_rate * value;
                            }
                        }
                        if !in_bag {
                            let mut bagged = vec![false; n];
                            for &r in &rows {
                                bagged[r] = true;
                            }
                            for (r, b) in bagged.iter().enumerate() {
                                if !b {
                                    f_scores[r * heads + head] +=
                                        self.config.learning_rate * tree.predict_row(x.row(r));
                                }
                            }
                        }
                        tree
                    }
                    None => {
                        let tree = build_exact(x, g, h, rows.clone(), &self.config);
                        for r in 0..n {
                            f_scores[r * heads + head] +=
                                self.config.learning_rate * tree.predict_row(x.row(r));
                        }
                        tree
                    }
                };
                round_trees.push(tree);
            }
            self.trees.push(round_trees);
        }
        self.task = Some(task);
    }
}

impl Estimator for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64], task: Task) -> Result<()> {
        check_fit_inputs("gbt", x, y)?;
        let binned = self
            .config
            .histogram
            .then(|| quantile_bins(x, self.config.max_bins.max(2)));
        self.boost(x, binned, y, task);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let task = self.task.ok_or(LearnError::NotFitted("gbt"))?;
        match task {
            Task::Regression => Ok(self.raw_scores(x).col(0)),
            _ => Ok(argmax_rows(&self.predict_proba(x)?)),
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let task = self.task.ok_or(LearnError::NotFitted("gbt"))?;
        match task {
            Task::Regression => Err(LearnError::UnsupportedTask("gbt (regression proba)")),
            Task::Binary => {
                let raw = self.raw_scores(x);
                let mut out = Matrix::zeros(x.rows(), 2);
                for r in 0..x.rows() {
                    let p = 1.0 / (1.0 + (-raw.get(r, 0)).exp());
                    out.set(r, 0, 1.0 - p);
                    out.set(r, 1, p);
                }
                Ok(out)
            }
            Task::MultiClass(_) => {
                let mut raw = self.raw_scores(x);
                super::softmax_rows(&mut raw);
                Ok(raw)
            }
        }
    }

    fn kind(&self) -> EstimatorKind {
        self.config.kind
    }
}

/// Per-row, per-head gradients and hessians of the task loss at the current
/// scores (`f_scores` flat `[row * heads + head]`). Returned flat as
/// `[head * n + row]` so each head's slice is contiguous for the tree
/// builders. With `second_order == false`, hessians are 1.
fn gradients(
    f_scores: &[f64],
    heads: usize,
    y: &[f64],
    task: Task,
    second_order: bool,
) -> (Vec<f64>, Vec<f64>) {
    let n = y.len();
    let mut g = vec![0.0f64; n * heads];
    let mut h = vec![0.0f64; n * heads];
    let hess = |p: f64| {
        if second_order {
            (p * (1.0 - p)).max(1e-6)
        } else {
            1.0
        }
    };
    for (r, &t) in y.iter().enumerate() {
        let fs = &f_scores[r * heads..(r + 1) * heads];
        match task {
            Task::Regression => {
                g[r] = fs[0] - t;
                h[r] = 1.0;
            }
            Task::Binary => {
                let p = 1.0 / (1.0 + (-fs[0]).exp());
                g[r] = p - t;
                h[r] = hess(p);
            }
            Task::MultiClass(k) => {
                let max = fs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = fs.iter().map(|v| (v - max).exp()).collect();
                let sum: f64 = exps.iter().sum();
                for c in 0..k {
                    let p = exps[c] / sum;
                    g[c * n + r] = p - f64::from(c == t as usize);
                    h[c * n + r] = hess(p);
                }
            }
        }
    }
    (g, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: EstimatorKind) -> GbtConfig {
        GbtConfig {
            n_estimators: 30,
            learning_rate: 0.2,
            max_depth: 3,
            subsample: 1.0,
            lambda: if kind == EstimatorKind::GradientBoosting {
                0.0
            } else {
                1.0
            },
            gamma: 0.0,
            min_child_weight: 1.0,
            second_order: kind != EstimatorKind::GradientBoosting,
            histogram: kind == EstimatorKind::Lgbm,
            max_bins: 16,
            max_leaves: if kind == EstimatorKind::Lgbm { 15 } else { 0 },
            seed: 1,
            kind,
        }
    }

    fn friedman_like(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    ((i * 7) % 100) as f64 / 100.0,
                    ((i * 13) % 100) as f64 / 100.0,
                    ((i * 29) % 100) as f64 / 100.0,
                ]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| 10.0 * (std::f64::consts::PI * r[0] * r[1]).sin() + 5.0 * r[2])
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn xor(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    f64::from(i % 2 == 0) + (i % 9) as f64 * 0.01,
                    f64::from((i / 2) % 2 == 0) + (i % 11) as f64 * 0.01,
                ]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| f64::from((r[0] > 0.5) != (r[1] > 0.5)))
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn all_three_families_fit_nonlinear_regression() {
        let (x, y) = friedman_like(300);
        for kind in [
            EstimatorKind::GradientBoosting,
            EstimatorKind::XgBoost,
            EstimatorKind::Lgbm,
        ] {
            let mut m = GradientBoosting::new(cfg(kind));
            m.fit(&x, &y, Task::Regression).unwrap();
            let r2 = crate::metrics::r2(&y, &m.predict(&x).unwrap());
            assert!(r2 > 0.9, "{kind}: r2 = {r2}");
        }
    }

    #[test]
    fn all_three_families_fit_xor_classification() {
        let (x, y) = xor(200);
        for kind in [
            EstimatorKind::GradientBoosting,
            EstimatorKind::XgBoost,
            EstimatorKind::Lgbm,
        ] {
            let mut m = GradientBoosting::new(cfg(kind));
            m.fit(&x, &y, Task::Binary).unwrap();
            let acc = crate::metrics::accuracy(&y, &m.predict(&x).unwrap());
            assert!(acc > 0.97, "{kind}: acc = {acc}");
        }
    }

    #[test]
    fn multiclass_softmax_boosting() {
        let rows: Vec<Vec<f64>> = (0..240).map(|i| vec![(i % 30) as f64]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0] < 10.0 {
                    0.0
                } else if r[0] < 20.0 {
                    1.0
                } else {
                    2.0
                }
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = GradientBoosting::new(cfg(EstimatorKind::XgBoost));
        m.fit(&x, &y, Task::MultiClass(3)).unwrap();
        assert!(crate::metrics::accuracy(&y, &m.predict(&x).unwrap()) > 0.97);
        // One tree per class per round.
        assert_eq!(m.num_trees(), 30 * 3);
        let proba = m.predict_proba(&x).unwrap();
        for r in 0..proba.rows() {
            assert!((proba.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lambda_regularizes_leaf_weights() {
        let (x, y) = friedman_like(150);
        let weak = {
            let mut c = cfg(EstimatorKind::XgBoost);
            c.n_estimators = 1;
            c.learning_rate = 1.0;
            let mut m = GradientBoosting::new(c);
            m.fit(&x, &y, Task::Regression).unwrap();
            m
        };
        let strong = {
            let mut c = cfg(EstimatorKind::XgBoost);
            c.n_estimators = 1;
            c.learning_rate = 1.0;
            c.lambda = 1000.0;
            let mut m = GradientBoosting::new(c);
            m.fit(&x, &y, Task::Regression).unwrap();
            m
        };
        // Heavy lambda shrinks predictions toward the base score.
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let dev = |m: &GradientBoosting| {
            m.predict(&x)
                .unwrap()
                .iter()
                .map(|p| (p - base).abs())
                .sum::<f64>()
        };
        assert!(dev(&strong) < dev(&weak) * 0.5);
    }

    #[test]
    fn gamma_prunes_splits() {
        let (x, y) = xor(100);
        let free = {
            let mut c = cfg(EstimatorKind::XgBoost);
            c.n_estimators = 5;
            let mut m = GradientBoosting::new(c);
            m.fit(&x, &y, Task::Binary).unwrap();
            m.mean_leaves()
        };
        let pruned = {
            let mut c = cfg(EstimatorKind::XgBoost);
            c.n_estimators = 5;
            c.gamma = 1e6;
            let mut m = GradientBoosting::new(c);
            m.fit(&x, &y, Task::Binary).unwrap();
            m.mean_leaves()
        };
        assert!(pruned < free, "gamma={pruned} vs free={free}");
        assert!((pruned - 1.0).abs() < 1e-9, "huge gamma keeps only roots");
    }

    #[test]
    fn max_leaves_caps_lgbm_trees() {
        let (x, y) = friedman_like(300);
        let mut c = cfg(EstimatorKind::Lgbm);
        c.max_leaves = 4;
        c.max_depth = 32;
        let mut m = GradientBoosting::new(c);
        m.fit(&x, &y, Task::Regression).unwrap();
        for round in &m.trees {
            for t in round {
                assert!(t.num_leaves() <= 4);
            }
        }
    }

    #[test]
    fn subsample_is_deterministic_per_seed() {
        let (x, y) = xor(150);
        let mut c = cfg(EstimatorKind::XgBoost);
        c.subsample = 0.7;
        let mut a = GradientBoosting::new(c.clone());
        let mut b = GradientBoosting::new(c);
        a.fit(&x, &y, Task::Binary).unwrap();
        b.fit(&x, &y, Task::Binary).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn in_bag_assignments_match_tree_routing() {
        let (x, y) = friedman_like(120);
        let c = cfg(EstimatorKind::Lgbm);
        let bm = quantile_bins(&x, c.max_bins);
        // First-round gradients at raw score 0: g = −y, h = 1.
        let g: Vec<f64> = y.iter().map(|v| -v).collect();
        let h = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..x.rows()).collect();
        let (tree, assignments) = build_hist(&bm, &g, &h, rows, &c);
        let mut covered = vec![false; x.rows()];
        for (node, leaf_rows) in &assignments {
            let GNode::Leaf(value) = tree.nodes[*node] else {
                panic!("assignment points at a split node");
            };
            for &r in leaf_rows {
                assert!(!covered[r], "row {r} assigned twice");
                covered[r] = true;
                assert_eq!(
                    value.to_bits(),
                    tree.predict_row(x.row(r)).to_bits(),
                    "row {r}: assignment disagrees with tree routing"
                );
            }
        }
        assert!(covered.iter().all(|&c| c), "every in-bag row assigned");
    }

    #[test]
    fn quantile_bins_are_monotone_and_bounded() {
        let x = Matrix::from_rows(
            &(0..100)
                .map(|i| vec![(i as f64).powf(1.5)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let bm = quantile_bins(&x, 8);
        assert!(bm.edges[0].len() <= 8);
        // Bin index is monotone in the value.
        for w in bm.bins[0].windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((*bm.bins[0].iter().max().unwrap() as usize) < bm.edges[0].len());
    }

    #[test]
    fn histogram_and_exact_agree_roughly() {
        let (x, y) = friedman_like(200);
        let mut exact = GradientBoosting::new(cfg(EstimatorKind::XgBoost));
        exact.fit(&x, &y, Task::Regression).unwrap();
        let mut hist = GradientBoosting::new(cfg(EstimatorKind::Lgbm));
        hist.fit(&x, &y, Task::Regression).unwrap();
        let r2_exact = crate::metrics::r2(&y, &exact.predict(&x).unwrap());
        let r2_hist = crate::metrics::r2(&y, &hist.predict(&x).unwrap());
        assert!((r2_exact - r2_hist).abs() < 0.1, "{r2_exact} vs {r2_hist}");
    }
}
