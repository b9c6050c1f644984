//! Eager reverse-mode autodiff tape.
//!
//! Operations execute immediately (values are available right away, which
//! the graph generator needs to make sampling decisions mid-forward) while
//! recording themselves on the tape; [`Tape::backward`] then walks the
//! recorded ops in reverse and returns per-parameter gradients.
//!
//! # Allocation reuse
//!
//! Parameter leaves are not copied: [`Tape::param`] records a borrow of
//! the tensor inside the [`ParamStore`] the tape reads from, so a weight
//! used dozens of times per pass costs no copy at all. Every intermediate
//! tensor is backed by a buffer drawn from the tape's internal
//! [`BufferPool`]. [`Tape::reset`] clears the recorded program and
//! recycles all intermediate buffers back into the pool, so a caller
//! running many forward passes in a row (the autoregressive generation
//! loop, the per-example training loop) reuses the same heap blocks
//! instead of re-allocating hundreds of tensors per step. Neither affects
//! numerics: a leaf's value and gradient do not depend on whether it was
//! copied, and a recycled buffer is always zero-filled or fully
//! overwritten before it becomes visible, so a reset tape is bit-for-bit
//! equivalent to a freshly constructed one.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use crate::{NnError, Result};
use std::collections::BTreeMap;
use std::ops::Deref;

/// A recycling pool of `f32` backing buffers for tape intermediates.
///
/// Buffers are bucketed by capacity in a [`BTreeMap`], so handing one out
/// is a best-fit lookup in O(log #sizes) — a forward pass allocates
/// hundreds of intermediates, and a linear free-list scan would make the
/// pool slower than the allocator it replaces. The pool only ever grows
/// to the footprint of the largest forward pass it has served.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// capacity → idle buffers of exactly that capacity.
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    idle: usize,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Number of idle buffers currently held.
    pub fn idle_buffers(&self) -> usize {
        self.idle
    }

    /// An empty (length 0) buffer with capacity at least `cap`: the
    /// smallest pooled buffer that fits, or a fresh allocation when none
    /// does. Callers fill it completely.
    fn take_empty(&mut self, cap: usize) -> Vec<f32> {
        let fit = self.free.range_mut(cap..).next().map(|(c, _)| *c);
        match fit {
            Some(c) => {
                let bucket = self.free.get_mut(&c).expect("bucket exists");
                let mut b = bucket.pop().expect("buckets are never left empty");
                if bucket.is_empty() {
                    self.free.remove(&c);
                }
                self.idle -= 1;
                b.clear();
                b
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// A zero-filled buffer of exactly `len` elements.
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut b = self.take_empty(len);
        b.resize(len, 0.0);
        b
    }

    /// Returns a buffer to the pool.
    fn give(&mut self, b: Vec<f32>) {
        if b.capacity() > 0 {
            self.free.entry(b.capacity()).or_default().push(b);
            self.idle += 1;
        }
    }
}

/// Handle to an intermediate value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorRef(usize);

enum Op {
    /// Parameter or constant input; `Some(id)` receives gradients.
    Leaf(Option<ParamId>),
    Matmul(usize, usize),
    Add(usize, usize),
    /// `a + bias` with `bias` a 1×c row broadcast over a's rows.
    AddBias(usize, usize),
    Mul(usize, usize),
    Scale(usize, f32),
    Tanh(usize),
    Sigmoid(usize),
    Relu(usize),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    /// Shape change with identical row-major data (free; gradient passes
    /// through reshaped).
    Reshape(usize),
    SumRows(usize),
    MeanRows(usize),
    GatherRows(usize, Vec<usize>),
    /// Scatter-add rows of the input into an output with `out_rows` rows.
    ScatterSumRows(usize, Vec<usize>),
    /// Mean softmax cross-entropy; stores the softmax probabilities.
    SoftmaxCe {
        logits: usize,
        targets: Vec<usize>,
        probs: Tensor,
    },
    /// Mean sigmoid binary cross-entropy over an n×1 logit column.
    SigmoidBce {
        logits: usize,
        targets: Vec<f32>,
        probs: Tensor,
    },
}

/// A recorded value: an intermediate the tape owns (in a pooled buffer),
/// or a parameter leaf borrowed from the store.
enum Value<'a> {
    Owned(Tensor),
    Param(&'a Tensor),
}

impl Deref for Value<'_> {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Param(t) => t,
        }
    }
}

/// The autodiff tape. Create one per forward pass, or keep one around and
/// [`Tape::reset`] it between passes to reuse allocations.
pub struct Tape<'a> {
    store: &'a ParamStore,
    values: Vec<Value<'a>>,
    ops: Vec<Op>,
    pool: BufferPool,
}

impl<'a> Tape<'a> {
    /// Creates an empty tape reading parameters from `store`.
    pub fn new(store: &'a ParamStore) -> Tape<'a> {
        Tape::with_pool(store, BufferPool::new())
    }

    /// Creates an empty tape that draws intermediate buffers from `pool`
    /// (recovered later with [`Tape::into_pool`]).
    pub fn with_pool(store: &'a ParamStore, pool: BufferPool) -> Tape<'a> {
        Tape {
            store,
            values: Vec::new(),
            ops: Vec::new(),
            pool,
        }
    }

    /// Clears the recorded program, recycling every intermediate buffer
    /// into the pool. All outstanding [`TensorRef`]s are invalidated; the
    /// next forward pass reuses the recycled allocations.
    pub fn reset(&mut self) {
        for v in self.values.drain(..) {
            if let Value::Owned(t) = v {
                self.pool.give(t.into_vec());
            }
        }
        for op in self.ops.drain(..) {
            match op {
                Op::SoftmaxCe { probs, .. } | Op::SigmoidBce { probs, .. } => {
                    self.pool.give(probs.into_vec());
                }
                _ => {}
            }
        }
    }

    /// Consumes the tape, recycling all buffers, and returns its pool for
    /// reuse by a later tape (e.g. across training batches).
    pub fn into_pool(mut self) -> BufferPool {
        self.reset();
        self.pool
    }

    fn push(&mut self, value: Tensor, op: Op) -> TensorRef {
        self.record(Value::Owned(value), op)
    }

    fn record(&mut self, value: Value<'a>, op: Op) -> TensorRef {
        self.values.push(value);
        self.ops.push(op);
        TensorRef(self.values.len() - 1)
    }

    /// A zero-filled pooled tensor.
    fn alloc_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(self.pool.take_zeroed(rows * cols), rows, cols)
            .expect("pooled buffer sized to shape")
    }

    /// A pooled copy of an existing tensor's contents.
    fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        let mut buf = self.pool.take_empty(src.len());
        buf.extend_from_slice(src.as_slice());
        Tensor::from_vec(buf, src.rows(), src.cols()).expect("pooled buffer sized to shape")
    }

    /// A pooled copy of tape value `a` (split-borrow friendly variant of
    /// [`Tape::alloc_copy`] for on-tape sources).
    fn alloc_copy_idx(&mut self, a: usize) -> Tensor {
        let src = &self.values[a];
        let (rows, cols, len) = (src.rows(), src.cols(), src.len());
        let mut buf = self.pool.take_empty(len);
        buf.extend_from_slice(self.values[a].as_slice());
        Tensor::from_vec(buf, rows, cols).expect("pooled buffer sized to shape")
    }

    /// The computed value behind a ref.
    pub fn value(&self, r: TensorRef) -> &Tensor {
        &self.values[r.0]
    }

    /// Registers a parameter as a tape leaf. The leaf borrows the tensor
    /// in the store; nothing is copied.
    pub fn param(&mut self, id: ParamId) -> TensorRef {
        let store = self.store;
        self.record(Value::Param(store.value(id)), Op::Leaf(Some(id)))
    }

    /// Registers a constant input (no gradient). The tensor is adopted as
    /// is; prefer [`Tape::input_from`] when the source outlives the tape.
    pub fn input(&mut self, t: Tensor) -> TensorRef {
        self.push(t, Op::Leaf(None))
    }

    /// Registers a constant input by copying `t` into a pooled buffer —
    /// the allocation-free variant of [`Tape::input`] for values fed into
    /// every pass of a reset loop.
    pub fn input_from(&mut self, t: &Tensor) -> TensorRef {
        let v = self.alloc_copy(t);
        self.push(v, Op::Leaf(None))
    }

    /// Registers a zero-filled constant input (no gradient) in a pooled
    /// buffer.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> TensorRef {
        let v = self.alloc_zeroed(rows, cols);
        self.push(v, Op::Leaf(None))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: TensorRef, b: TensorRef) -> Result<TensorRef> {
        let (ar, bc) = (self.values[a.0].rows(), self.values[b.0].cols());
        let mut out = self.alloc_zeroed(ar, bc);
        self.values[a.0].matmul_into(&self.values[b.0], &mut out)?;
        Ok(self.push(out, Op::Matmul(a.0, b.0)))
    }

    /// Elementwise sum of same-shape tensors.
    pub fn add(&mut self, a: TensorRef, b: TensorRef) -> Result<TensorRef> {
        let mut v = self.alloc_copy_idx(a.0);
        v.add_assign(&self.values[b.0])?;
        Ok(self.push(v, Op::Add(a.0, b.0)))
    }

    /// Adds a 1×c bias row to every row of `a`.
    pub fn add_bias(&mut self, a: TensorRef, bias: TensorRef) -> Result<TensorRef> {
        {
            let at = &self.values[a.0];
            let bt = &self.values[bias.0];
            if bt.rows() != 1 || bt.cols() != at.cols() {
                return Err(NnError::Shape(format!(
                    "add_bias: bias {}x{} for value {}x{}",
                    bt.rows(),
                    bt.cols(),
                    at.rows(),
                    at.cols()
                )));
            }
        }
        let mut v = self.alloc_copy_idx(a.0);
        let bt = &self.values[bias.0];
        for r in 0..v.rows() {
            for (o, b) in v.row_mut(r).iter_mut().zip(bt.row(0)) {
                *o += b;
            }
        }
        Ok(self.push(v, Op::AddBias(a.0, bias.0)))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: TensorRef, b: TensorRef) -> Result<TensorRef> {
        {
            let at = &self.values[a.0];
            let bt = &self.values[b.0];
            if at.rows() != bt.rows() || at.cols() != bt.cols() {
                return Err(NnError::Shape("mul: shape mismatch".into()));
            }
        }
        let at = &self.values[a.0];
        let mut buf = self.pool.take_empty(at.len());
        buf.extend(
            at.as_slice()
                .iter()
                .zip(self.values[b.0].as_slice())
                .map(|(x, y)| x * y),
        );
        let v = Tensor::from_vec(buf, at.rows(), at.cols())?;
        Ok(self.push(v, Op::Mul(a.0, b.0)))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: TensorRef, s: f32) -> TensorRef {
        let mut v = self.alloc_copy_idx(a.0);
        v.scale_assign(s);
        self.push(v, Op::Scale(a.0, s))
    }

    /// A pooled tensor holding `f` applied elementwise to `a`'s value.
    fn alloc_map(&mut self, a: usize, f: impl Fn(f32) -> f32) -> Tensor {
        let at = &self.values[a];
        let mut buf = self.pool.take_empty(at.len());
        buf.extend(at.as_slice().iter().map(|v| f(*v)));
        Tensor::from_vec(buf, at.rows(), at.cols()).expect("same shape")
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: TensorRef) -> TensorRef {
        let v = self.alloc_map(a.0, f32::tanh);
        self.push(v, Op::Tanh(a.0))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: TensorRef) -> TensorRef {
        let v = self.alloc_map(a.0, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: TensorRef) -> TensorRef {
        let v = self.alloc_map(a.0, |x| x.max(0.0));
        self.push(v, Op::Relu(a.0))
    }

    /// Concatenates two matrices with equal row counts along columns.
    pub fn concat_cols(&mut self, a: TensorRef, b: TensorRef) -> Result<TensorRef> {
        {
            let at = &self.values[a.0];
            let bt = &self.values[b.0];
            if at.rows() != bt.rows() {
                return Err(NnError::Shape("concat_cols: row mismatch".into()));
            }
        }
        let at = &self.values[a.0];
        let bt = &self.values[b.0];
        let mut buf = self.pool.take_empty(at.len() + bt.len());
        for r in 0..at.rows() {
            buf.extend_from_slice(at.row(r));
            buf.extend_from_slice(bt.row(r));
        }
        let v = Tensor::from_vec(buf, at.rows(), at.cols() + bt.cols())?;
        Ok(self.push(v, Op::ConcatCols(a.0, b.0)))
    }

    /// Stacks two matrices with equal column counts along rows.
    pub fn concat_rows(&mut self, a: TensorRef, b: TensorRef) -> Result<TensorRef> {
        {
            let at = &self.values[a.0];
            let bt = &self.values[b.0];
            if at.cols() != bt.cols() {
                return Err(NnError::Shape("concat_rows: column mismatch".into()));
            }
        }
        let at = &self.values[a.0];
        let bt = &self.values[b.0];
        let mut buf = self.pool.take_empty(at.len() + bt.len());
        buf.extend_from_slice(at.as_slice());
        buf.extend_from_slice(bt.as_slice());
        let v = Tensor::from_vec(buf, at.rows() + bt.rows(), at.cols())?;
        Ok(self.push(v, Op::ConcatRows(a.0, b.0)))
    }

    /// Reinterprets a tensor with a new shape of equal element count.
    pub fn reshape(&mut self, a: TensorRef, rows: usize, cols: usize) -> Result<TensorRef> {
        if self.values[a.0].len() != rows * cols {
            return Err(NnError::Shape(format!(
                "reshape: {} elements into {rows}x{cols}",
                self.values[a.0].len()
            )));
        }
        let len = self.values[a.0].len();
        let mut buf = self.pool.take_empty(len);
        buf.extend_from_slice(self.values[a.0].as_slice());
        let v = Tensor::from_vec(buf, rows, cols)?;
        Ok(self.push(v, Op::Reshape(a.0)))
    }

    /// Sums all rows into a 1×c vector.
    pub fn sum_rows(&mut self, a: TensorRef) -> TensorRef {
        let mut v = self.alloc_zeroed(1, self.values[a.0].cols());
        let at = &self.values[a.0];
        for r in 0..at.rows() {
            for (o, x) in v.row_mut(0).iter_mut().zip(at.row(r)) {
                *o += x;
            }
        }
        self.push(v, Op::SumRows(a.0))
    }

    /// Averages all rows into a 1×c vector.
    pub fn mean_rows(&mut self, a: TensorRef) -> TensorRef {
        let mut v = self.alloc_zeroed(1, self.values[a.0].cols());
        let at = &self.values[a.0];
        let n = at.rows().max(1) as f32;
        for r in 0..at.rows() {
            for (o, x) in v.row_mut(0).iter_mut().zip(at.row(r)) {
                *o += x / n;
            }
        }
        self.push(v, Op::MeanRows(a.0))
    }

    /// Selects rows by index (embedding lookup; indices may repeat).
    pub fn gather_rows(&mut self, a: TensorRef, idx: &[usize]) -> Result<TensorRef> {
        let mut v = self.alloc_zeroed(idx.len(), self.values[a.0].cols());
        self.values[a.0].gather_rows_into(idx, &mut v)?;
        Ok(self.push(v, Op::GatherRows(a.0, idx.to_vec())))
    }

    /// Scatter-adds row `e` of the input into output row `idx[e]`
    /// (message aggregation). The output has `out_rows` rows.
    pub fn scatter_sum_rows(
        &mut self,
        a: TensorRef,
        idx: &[usize],
        out_rows: usize,
    ) -> Result<TensorRef> {
        if idx.len() != self.values[a.0].rows() {
            return Err(NnError::Shape(format!(
                "scatter_sum_rows: {} indices for {} rows",
                idx.len(),
                self.values[a.0].rows()
            )));
        }
        let mut v = self.alloc_zeroed(out_rows, self.values[a.0].cols());
        self.values[a.0].scatter_sum_rows_into(idx, &mut v)?;
        Ok(self.push(v, Op::ScatterSumRows(a.0, idx.to_vec())))
    }

    /// Mean softmax cross-entropy of n×k logits against n class targets;
    /// returns a 1×1 loss.
    #[allow(clippy::needless_range_loop)] // targets/rows indexed in lockstep
    pub fn softmax_ce(&mut self, logits: TensorRef, targets: &[usize]) -> Result<TensorRef> {
        if targets.len() != self.values[logits.0].rows() {
            return Err(NnError::Shape(format!(
                "softmax_ce: {} targets for {} rows",
                targets.len(),
                self.values[logits.0].rows()
            )));
        }
        let mut probs =
            self.alloc_zeroed(self.values[logits.0].rows(), self.values[logits.0].cols());
        let lt = &self.values[logits.0];
        let k = lt.cols();
        let mut loss = 0.0f32;
        for r in 0..lt.rows() {
            let t = targets[r];
            if t >= k {
                return Err(NnError::Index(format!("softmax_ce: class {t} of {k}")));
            }
            let row = lt.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (c, v) in row.iter().enumerate() {
                let e = (v - max).exp();
                probs.set(r, c, e);
                sum += e;
            }
            for c in 0..k {
                probs.set(r, c, probs.get(r, c) / sum);
            }
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= lt.rows().max(1) as f32;
        let mut v = self.alloc_zeroed(1, 1);
        v.set(0, 0, loss);
        Ok(self.push(
            v,
            Op::SoftmaxCe {
                logits: logits.0,
                targets: targets.to_vec(),
                probs,
            },
        ))
    }

    /// Mean sigmoid binary cross-entropy of n×1 logits against 0/1 targets;
    /// returns a 1×1 loss.
    #[allow(clippy::needless_range_loop)] // targets/rows indexed in lockstep
    pub fn sigmoid_bce(&mut self, logits: TensorRef, targets: &[f32]) -> Result<TensorRef> {
        {
            let lt = &self.values[logits.0];
            if lt.cols() != 1 || targets.len() != lt.rows() {
                return Err(NnError::Shape(format!(
                    "sigmoid_bce: logits {}x{}, {} targets",
                    lt.rows(),
                    lt.cols(),
                    targets.len()
                )));
            }
        }
        let mut probs = self.alloc_zeroed(self.values[logits.0].rows(), 1);
        let lt = &self.values[logits.0];
        let mut loss = 0.0f32;
        for r in 0..lt.rows() {
            let p = 1.0 / (1.0 + (-lt.get(r, 0)).exp());
            probs.set(r, 0, p);
            let t = targets[r];
            loss -= t * p.max(1e-12).ln() + (1.0 - t) * (1.0 - p).max(1e-12).ln();
        }
        loss /= lt.rows().max(1) as f32;
        let mut v = self.alloc_zeroed(1, 1);
        v.set(0, 0, loss);
        Ok(self.push(
            v,
            Op::SigmoidBce {
                logits: logits.0,
                targets: targets.to_vec(),
                probs,
            },
        ))
    }

    /// Runs backward from a scalar loss, returning `(param, gradient)`
    /// pairs for every parameter leaf reached.
    ///
    /// The matmul gradients use the transpose-aware kernels
    /// [`Tensor::matmul_bt`] / [`Tensor::matmul_at`], so no transposed
    /// copies of the operands are materialized.
    #[allow(clippy::needless_range_loop)] // targets/rows indexed in lockstep
    pub fn backward(&self, loss: TensorRef) -> Result<Vec<(ParamId, Tensor)>> {
        let lt = &self.values[loss.0];
        if lt.rows() != 1 || lt.cols() != 1 {
            return Err(NnError::Shape("backward: loss must be 1x1".into()));
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.values.len()];
        grads[loss.0] = Some(Tensor::full(1, 1, 1.0));

        let mut out = Vec::new();
        for i in (0..self.ops.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.ops[i] {
                Op::Leaf(Some(id)) => out.push((*id, g)),
                Op::Leaf(None) => {}
                Op::Matmul(a, b) => {
                    // dL/dA = g · Bᵀ and dL/dB = Aᵀ · g, both via the
                    // transpose-free kernels (bit-for-bit equal to the
                    // transpose-copy formulation).
                    let ga = g.matmul_bt(&self.values[*b])?;
                    let gb = self.values[*a].matmul_at(&g)?;
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::AddBias(a, bias) => {
                    let mut gb = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, x) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    accumulate(&mut grads, *bias, gb);
                    accumulate(&mut grads, *a, g);
                }
                Op::Mul(a, b) => {
                    let ga = elementwise(&g, &self.values[*b]);
                    let gb = elementwise(&g, &self.values[*a]);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Scale(a, s) => {
                    let mut ga = g;
                    ga.scale_assign(*s);
                    accumulate(&mut grads, *a, ga);
                }
                Op::Tanh(a) => {
                    let y = &self.values[i];
                    let data: Vec<f32> = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(gv, yv)| gv * (1.0 - yv * yv))
                        .collect();
                    accumulate(&mut grads, *a, Tensor::from_vec(data, g.rows(), g.cols())?);
                }
                Op::Sigmoid(a) => {
                    let y = &self.values[i];
                    let data: Vec<f32> = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(gv, yv)| gv * yv * (1.0 - yv))
                        .collect();
                    accumulate(&mut grads, *a, Tensor::from_vec(data, g.rows(), g.cols())?);
                }
                Op::Relu(a) => {
                    let x = &self.values[*a];
                    let data: Vec<f32> = g
                        .as_slice()
                        .iter()
                        .zip(x.as_slice())
                        .map(|(gv, xv)| if *xv > 0.0 { *gv } else { 0.0 })
                        .collect();
                    accumulate(&mut grads, *a, Tensor::from_vec(data, g.rows(), g.cols())?);
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.values[*a].cols();
                    let mut ga = Tensor::zeros(g.rows(), ac);
                    let mut gb = Tensor::zeros(g.rows(), g.cols() - ac);
                    for r in 0..g.rows() {
                        ga.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                        gb.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                    }
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::ConcatRows(a, b) => {
                    let ar = self.values[*a].rows();
                    let cols = g.cols();
                    let mut ga = Tensor::zeros(ar, cols);
                    let mut gb = Tensor::zeros(g.rows() - ar, cols);
                    for r in 0..ar {
                        ga.row_mut(r).copy_from_slice(g.row(r));
                    }
                    for r in ar..g.rows() {
                        gb.row_mut(r - ar).copy_from_slice(g.row(r));
                    }
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Reshape(a) => {
                    let src = &self.values[*a];
                    let ga = Tensor::from_vec(g.as_slice().to_vec(), src.rows(), src.cols())?;
                    accumulate(&mut grads, *a, ga);
                }
                Op::SumRows(a) => {
                    let rows = self.values[*a].rows();
                    let mut ga = Tensor::zeros(rows, g.cols());
                    for r in 0..rows {
                        ga.row_mut(r).copy_from_slice(g.row(0));
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::MeanRows(a) => {
                    let rows = self.values[*a].rows();
                    let s = 1.0 / rows.max(1) as f32;
                    let mut ga = Tensor::zeros(rows, g.cols());
                    for r in 0..rows {
                        for (o, x) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                            *o = x * s;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::GatherRows(a, idx) => {
                    let mut ga = Tensor::zeros(self.values[*a].rows(), g.cols());
                    for (r, &i) in idx.iter().enumerate() {
                        for (o, x) in ga.row_mut(i).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::ScatterSumRows(a, idx) => {
                    let mut ga = Tensor::zeros(idx.len(), g.cols());
                    for (e, &i) in idx.iter().enumerate() {
                        ga.row_mut(e).copy_from_slice(g.row(i));
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::SoftmaxCe {
                    logits,
                    targets,
                    probs,
                } => {
                    let upstream = g.get(0, 0);
                    let n = targets.len().max(1) as f32;
                    let mut gl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        gl.set(r, t, gl.get(r, t) - 1.0);
                    }
                    gl.scale_assign(upstream / n);
                    accumulate(&mut grads, *logits, gl);
                }
                Op::SigmoidBce {
                    logits,
                    targets,
                    probs,
                } => {
                    let upstream = g.get(0, 0);
                    let n = targets.len().max(1) as f32;
                    let mut gl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        gl.set(r, 0, gl.get(r, 0) - t);
                    }
                    gl.scale_assign(upstream / n);
                    accumulate(&mut grads, *logits, gl);
                }
            }
        }
        Ok(out)
    }
}

fn accumulate(grads: &mut [Option<Tensor>], at: usize, delta: Tensor) {
    match &mut grads[at] {
        Some(g) => g.add_assign(&delta).expect("gradient shapes match"),
        slot => *slot = Some(delta),
    }
}

fn elementwise(a: &Tensor, b: &Tensor) -> Tensor {
    let data: Vec<f32> = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .collect();
    Tensor::from_vec(data, a.rows(), a.cols()).expect("same shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check: perturb each scalar of each parameter and
    /// compare the loss delta to the analytic gradient.
    fn check_gradients<F>(store: &mut ParamStore, forward: F)
    where
        F: Fn(&mut Tape) -> TensorRef,
    {
        let analytic: Vec<(ParamId, Tensor)> = {
            let mut tape = Tape::new(store);
            let loss = forward(&mut tape);
            tape.backward(loss).unwrap()
        };
        let eps = 1e-3f32;
        for (id, grad) in &analytic {
            let (rows, cols) = {
                let v = store.value(*id);
                (v.rows(), v.cols())
            };
            for r in 0..rows {
                for c in 0..cols {
                    let orig = store.value(*id).get(r, c);
                    store.value_mut(*id).set(r, c, orig + eps);
                    let up = {
                        let mut tape = Tape::new(store);
                        let l = forward(&mut tape);
                        tape.value(l).get(0, 0)
                    };
                    store.value_mut(*id).set(r, c, orig - eps);
                    let down = {
                        let mut tape = Tape::new(store);
                        let l = forward(&mut tape);
                        tape.value(l).get(0, 0)
                    };
                    store.value_mut(*id).set(r, c, orig);
                    let numeric = (up - down) / (2.0 * eps);
                    let a = grad.get(r, c);
                    assert!(
                        (numeric - a).abs() < 2e-2 * (1.0 + a.abs()),
                        "param grad mismatch at ({r},{c}): numeric {numeric} vs analytic {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradcheck_linear_softmax() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.xavier("w", 3, 4, &mut rng);
        let b = store.xavier("b", 1, 4, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], 2, 3).unwrap();
        check_gradients(&mut store, |tape| {
            let wp = tape.param(w);
            let bp = tape.param(b);
            let xi = tape.input(x.clone());
            let z = tape.matmul(xi, wp).unwrap();
            let z = tape.add_bias(z, bp).unwrap();
            tape.softmax_ce(z, &[1, 3]).unwrap()
        });
    }

    #[test]
    fn gradcheck_tanh_sigmoid_relu_mul() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let a = store.xavier("a", 2, 3, &mut rng);
        let b = store.xavier("b", 2, 3, &mut rng);
        check_gradients(&mut store, |tape| {
            let ap = tape.param(a);
            let bp = tape.param(b);
            let t = tape.tanh(ap);
            let s = tape.sigmoid(bp);
            let m = tape.mul(t, s).unwrap();
            let r = tape.relu(m);
            let sum = tape.sum_rows(r);
            let sum2 = tape.mean_rows(sum);
            // Reduce 1×3 to 1×1 via a fixed projection input.
            let proj = tape.input(Tensor::from_vec(vec![1.0, -2.0, 0.5], 3, 1).unwrap());
            tape.matmul(sum2, proj).unwrap()
        });
    }

    #[test]
    fn gradcheck_gather_scatter_concat() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let emb = store.xavier("emb", 4, 3, &mut rng);
        let w = store.xavier("w", 6, 1, &mut rng);
        check_gradients(&mut store, |tape| {
            let e = tape.param(emb);
            let src = tape.gather_rows(e, &[0, 2, 2]).unwrap();
            let dst = tape.gather_rows(e, &[1, 3, 0]).unwrap();
            let cat = tape.concat_cols(src, dst).unwrap();
            let agg = tape.scatter_sum_rows(cat, &[0, 1, 1], 2).unwrap();
            let wp = tape.param(w);
            let z = tape.matmul(agg, wp).unwrap();
            tape.sigmoid_bce(z, &[1.0, 0.0]).unwrap()
        });
    }

    #[test]
    fn gradcheck_concat_rows() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let a = store.xavier("a", 1, 3, &mut rng);
        let b = store.xavier("b", 2, 3, &mut rng);
        check_gradients(&mut store, |tape| {
            let ap = tape.param(a);
            let bp = tape.param(b);
            let cat = tape.concat_rows(ap, bp).unwrap();
            let pooled = tape.mean_rows(cat);
            let proj = tape.input(Tensor::from_vec(vec![1.0, -1.0, 2.0], 3, 1).unwrap());
            tape.matmul(pooled, proj).unwrap()
        });
    }

    #[test]
    fn gradcheck_reshape() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let a = store.xavier("a", 3, 1, &mut rng);
        check_gradients(&mut store, |tape| {
            let ap = tape.param(a);
            let row = tape.reshape(ap, 1, 3).unwrap();
            tape.softmax_ce(row, &[2]).unwrap()
        });
    }

    #[test]
    fn reshape_validates_element_count() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.input(Tensor::zeros(2, 3));
        assert!(tape.reshape(a, 3, 2).is_ok());
        assert!(tape.reshape(a, 2, 2).is_err());
    }

    #[test]
    fn gradcheck_scale_add() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let a = store.xavier("a", 1, 1, &mut rng);
        let b = store.xavier("b", 1, 1, &mut rng);
        check_gradients(&mut store, |tape| {
            let ap = tape.param(a);
            let bp = tape.param(b);
            let s = tape.scale(ap, 3.0);
            tape.add(s, bp).unwrap()
        });
    }

    #[test]
    fn softmax_ce_value_matches_hand_computation() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let logits = tape.input(Tensor::from_vec(vec![0.0, 0.0], 1, 2).unwrap());
        let loss = tape.softmax_ce(logits, &[0]).unwrap();
        // Uniform over 2 classes -> loss = ln 2.
        assert!((tape.value(loss).get(0, 0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn shape_errors_are_reported() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.input(Tensor::zeros(2, 3));
        let b = tape.input(Tensor::zeros(2, 3));
        assert!(tape.matmul(a, b).is_err());
        let bad_bias = tape.input(Tensor::zeros(2, 3));
        assert!(tape.add_bias(a, bad_bias).is_err());
        assert!(tape.gather_rows(a, &[5]).is_err());
        assert!(tape.scatter_sum_rows(a, &[0], 3).is_err());
        assert!(tape.softmax_ce(a, &[0]).is_err());
        let non_scalar = tape.input(Tensor::zeros(2, 2));
        assert!(tape.backward(non_scalar).is_err());
    }

    #[test]
    fn backward_ignores_constant_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.xavier("w", 2, 1, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::from_vec(vec![1.0, 2.0], 1, 2).unwrap());
        let wp = tape.param(w);
        let z = tape.matmul(x, wp).unwrap();
        let loss = tape.sigmoid_bce(z, &[1.0]).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
    }

    /// A reset tape produces bit-for-bit identical results to a fresh one,
    /// and actually reuses buffers across passes.
    #[test]
    fn reset_reuses_buffers_without_changing_numerics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let w = store.xavier("w", 3, 3, &mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1], 1, 3).unwrap();
        let run = |tape: &mut Tape| -> (f32, Vec<(ParamId, Tensor)>) {
            let xi = tape.input_from(&x);
            let wp = tape.param(w);
            let z = tape.matmul(xi, wp).unwrap();
            let h = tape.tanh(z);
            let l = tape.softmax_ce(h, &[2]).unwrap();
            (tape.value(l).get(0, 0), tape.backward(l).unwrap())
        };
        let (fresh_loss, fresh_grads) = run(&mut Tape::new(&store));
        let mut tape = Tape::new(&store);
        for _ in 0..5 {
            tape.reset();
            let (loss, grads) = run(&mut tape);
            assert_eq!(loss.to_bits(), fresh_loss.to_bits());
            assert_eq!(grads, fresh_grads);
        }
        let pool = tape.into_pool();
        assert!(pool.idle_buffers() > 0, "reset recycled buffers");
    }

    /// Pools survive moving between tapes via `with_pool`/`into_pool`.
    #[test]
    fn pool_roundtrips_between_tapes() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.input(Tensor::full(4, 4, 2.0));
        let _ = tape.tanh(a);
        let pool = tape.into_pool();
        let recycled = pool.idle_buffers();
        assert!(recycled >= 1);
        let mut tape2 = Tape::with_pool(&store, pool);
        let b = tape2.input(Tensor::full(4, 4, 0.5));
        let t = tape2.sigmoid(b);
        assert!(tape2.value(t).get(0, 0) > 0.0);
    }
}
