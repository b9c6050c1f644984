//! Property-based tests for the autodiff substrate: gradient checks on
//! randomly-shaped composite graphs, and the row-locality of the layers
//! that lets generation compute one new node's row instead of a full pass.

use kgpip_nn::{GruCell, Linear, Mlp, ParamStore, Tape, Tensor, TensorRef};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random two-layer graphs with mixed activations pass a finite-
    /// difference gradient check on every parameter.
    #[test]
    fn random_composites_gradcheck(
        seed in 0u64..500,
        rows in 1usize..4,
        inner in 1usize..5,
        act in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w1 = store.xavier("w1", 3, inner, &mut rng);
        let w2 = store.xavier("w2", inner, 2, &mut rng);
        let x_data: Vec<f32> = (0..rows * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let x = Tensor::from_vec(x_data, rows, 3).unwrap();
        let targets: Vec<usize> = (0..rows).map(|i| i % 2).collect();

        let forward = |store: &ParamStore| -> (f32, Vec<(kgpip_nn::ParamId, Tensor)>) {
            let mut tape = Tape::new(store);
            let xi = tape.input(x.clone());
            let w1p = tape.param(w1);
            let h = tape.matmul(xi, w1p).unwrap();
            let h = match act {
                0 => tape.tanh(h),
                1 => tape.sigmoid(h),
                _ => tape.relu(h),
            };
            let w2p = tape.param(w2);
            let logits = tape.matmul(h, w2p).unwrap();
            let loss = tape.softmax_ce(logits, &targets).unwrap();
            (tape.value(loss).get(0, 0), tape.backward(loss).unwrap())
        };
        let (_, grads) = forward(&store);
        let eps = 1e-3f32;
        for (id, grad) in &grads {
            for r in 0..grad.rows() {
                for c in 0..grad.cols() {
                    let orig = store.value(*id).get(r, c);
                    store.value_mut(*id).set(r, c, orig + eps);
                    let (up, _) = forward(&store);
                    store.value_mut(*id).set(r, c, orig - eps);
                    let (down, _) = forward(&store);
                    store.value_mut(*id).set(r, c, orig);
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grad.get(r, c);
                    // ReLU kinks make exact agreement impossible; tolerate
                    // a loose band proportional to magnitude.
                    prop_assert!(
                        (numeric - analytic).abs() < 5e-2 * (1.0 + analytic.abs()),
                        "seed {seed} act {act}: ({r},{c}) numeric {numeric} vs {analytic}"
                    );
                }
            }
        }
    }

    /// Matmul distributes over add on the tape exactly as in plain algebra.
    #[test]
    fn tape_matches_plain_algebra(
        a_data in proptest::collection::vec(-2.0f32..2.0, 6),
        b_data in proptest::collection::vec(-2.0f32..2.0, 6),
        v_data in proptest::collection::vec(-2.0f32..2.0, 3),
    ) {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = Tensor::from_vec(a_data, 2, 3).unwrap();
        let b = Tensor::from_vec(b_data, 2, 3).unwrap();
        let v = Tensor::from_vec(v_data, 3, 1).unwrap();
        let ai = tape.input(a.clone());
        let bi = tape.input(b.clone());
        let vi = tape.input(v.clone());
        // (a + b)·v on tape
        let sum = tape.add(ai, bi).unwrap();
        let tape_result = tape.matmul(sum, vi).unwrap();
        // a·v + b·v off tape
        let mut direct = a.matmul(&v).unwrap();
        direct.add_assign(&b.matmul(&v).unwrap()).unwrap();
        for r in 0..2 {
            prop_assert!((tape.value(tape_result).get(r, 0) - direct.get(r, 0)).abs() < 1e-4);
        }
    }

    /// The blocked matmul and the transpose-aware variants are bit-for-bit
    /// equal to the naive transpose-then-multiply reference on random
    /// shapes: `matmul_at(a, b) = aᵀ·b` and `matmul_bt(a, b) = a·bᵀ`.
    #[test]
    fn transpose_aware_kernels_match_reference(
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..9,
        seed in 0u64..1000,
    ) {
        let gen = |rows: usize, cols: usize, salt: u64| -> Tensor {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i as f64 + salt as f64 * 0.61803) * 0.733).sin() as f32)
                .collect();
            Tensor::from_vec(data, rows, cols).unwrap()
        };
        // matmul_at: (k×m)ᵀ · (k×n)
        let a = gen(k, m, seed);
        let b = gen(k, n, seed + 1);
        let fused = a.matmul_at(&b).unwrap();
        let reference = a.transpose().matmul(&b).unwrap();
        prop_assert_eq!(fused.rows(), m);
        for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul_at diverged");
        }
        // matmul_bt: (m×k) · (n×k)ᵀ
        let a = gen(m, k, seed + 2);
        let b = gen(n, k, seed + 3);
        let fused = a.matmul_bt(&b).unwrap();
        let reference = a.matmul(&b.transpose()).unwrap();
        prop_assert_eq!(fused.cols(), n);
        for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul_bt diverged");
        }
    }

    /// A tape reused via `reset()` computes bit-identical losses and
    /// gradients to a freshly allocated tape, for random shapes.
    #[test]
    fn reset_tape_is_bitwise_equal_to_fresh(
        rows in 1usize..5,
        inner in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w1 = store.xavier("w1", 3, inner, &mut rng);
        let w2 = store.xavier("w2", inner, 2, &mut rng);
        let x_data: Vec<f32> = (0..rows * 3).map(|i| (i as f32 * 0.41).cos()).collect();
        let x = Tensor::from_vec(x_data, rows, 3).unwrap();
        let targets: Vec<usize> = (0..rows).map(|i| i % 2).collect();
        let run = |tape: &mut Tape| -> (f32, Vec<(kgpip_nn::ParamId, Tensor)>) {
            let xi = tape.input_from(&x);
            let w1p = tape.param(w1);
            let h = tape.matmul(xi, w1p).unwrap();
            let h = tape.tanh(h);
            let w2p = tape.param(w2);
            let logits = tape.matmul(h, w2p).unwrap();
            let loss = tape.softmax_ce(logits, &targets).unwrap();
            (tape.value(loss).get(0, 0), tape.backward(loss).unwrap())
        };
        let (fresh_loss, fresh_grads) = run(&mut Tape::new(&store));
        let mut reused = Tape::new(&store);
        for _ in 0..3 {
            reused.reset();
            let (loss, grads) = run(&mut reused);
            prop_assert_eq!(loss.to_bits(), fresh_loss.to_bits());
            prop_assert_eq!(&grads, &fresh_grads);
        }
    }

    /// Gradient clipping caps the global norm without changing direction.
    #[test]
    fn clip_preserves_direction(
        g1 in proptest::collection::vec(-10.0f32..10.0, 4),
        max_norm in 0.1f32..5.0,
    ) {
        prop_assume!(g1.iter().any(|v| v.abs() > 1e-3));
        let mut store = ParamStore::new();
        let id = store.zeros("p", 2, 2);
        store.accumulate_grad(id, &Tensor::from_vec(g1.clone(), 2, 2).unwrap());
        let before = store.grad(id).clone();
        store.clip_grads(max_norm);
        let after = store.grad(id);
        prop_assert!(store.grad_norm() <= max_norm + 1e-4);
        // Direction preserved: after = s * before for a single scalar s.
        let s = if before.as_slice()[0].abs() > 1e-6 {
            after.as_slice()[0] / before.as_slice()[0]
        } else {
            1.0
        };
        for (x, y) in before.as_slice().iter().zip(after.as_slice()) {
            prop_assert!((y - s * x).abs() < 1e-4);
        }
    }

    /// `Linear`, `Mlp` and `GruCell::forward` are row-local: run on a
    /// subset of the rows (down to one row), they compute the same rows
    /// of the full call bit for bit, including all-zero rows, whose
    /// matmul terms the kernel skips.
    #[test]
    fn row_subset_layers_match_the_full_call(
        seed in 0u64..1000,
        rows in 1usize..9,
        in_dim in 1usize..7,
        hidden in 1usize..7,
        zero_rows in proptest::collection::vec(0u8..10, 8),
        picks in proptest::collection::vec(0usize..8, 1..5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let linear = Linear::new(&mut store, "lin", in_dim, hidden, &mut rng);
        let mlp = Mlp::new(&mut store, "mlp", in_dim, hidden, 3, &mut rng);
        let gru = GruCell::new(&mut store, "gru", in_dim, hidden, &mut rng);
        let matrix = |cols: usize, salt: f64| -> Tensor {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| {
                    if zero_rows[i / cols] < 3 {
                        0.0
                    } else {
                        ((i as f64 + salt) * 0.7391 + seed as f64).sin() as f32
                    }
                })
                .collect();
            Tensor::from_vec(data, rows, cols).unwrap()
        };
        let x = matrix(in_dim, 0.0);
        let h = matrix(hidden, 0.5);
        let subset: Vec<usize> = picks.iter().map(|p| p % rows).collect();
        let layers = |tape: &mut Tape, x: TensorRef, h: TensorRef| -> [TensorRef; 3] {
            [
                linear.forward(tape, x).unwrap(),
                mlp.forward(tape, x).unwrap(),
                gru.forward(tape, h, x).unwrap(),
            ]
        };
        let mut full_tape = Tape::new(&store);
        let (xf, hf) = (full_tape.input_from(&x), full_tape.input_from(&h));
        let full = layers(&mut full_tape, xf, hf);
        let mut sub_tape = Tape::new(&store);
        let (xs, hs) = (sub_tape.input_from(&x), sub_tape.input_from(&h));
        let xs = sub_tape.gather_rows(xs, &subset).unwrap();
        let hs = sub_tape.gather_rows(hs, &subset).unwrap();
        let sub = layers(&mut sub_tape, xs, hs);
        for (layer, (f, s)) in full.iter().zip(&sub).enumerate() {
            let (f, s) = (full_tape.value(*f), sub_tape.value(*s));
            prop_assert_eq!(s.rows(), subset.len());
            for (i, &r) in subset.iter().enumerate() {
                let fb: Vec<u32> = f.row(r).iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u32> = s.row(i).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(fb, sb, "layer {} row {}", layer, r);
            }
        }
    }

    /// `sum_rows` of `[h; row]` (`concat_rows`) is the in-order sum of
    /// every row from `+0.0`, the readout of a grown graph.
    #[test]
    fn row_subset_sum_of_appended_row_is_the_in_order_sum(
        rows in 1usize..9,
        cols in 1usize..7,
        data in proptest::collection::vec(-2.0f32..2.0, 9 * 6),
        zero_row in proptest::bool::ANY,
    ) {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let h = Tensor::from_vec(data[..rows * cols].to_vec(), rows, cols).unwrap();
        let row_data: Vec<f32> = if zero_row {
            vec![0.0; cols]
        } else {
            data[rows * cols..(rows + 1) * cols].to_vec()
        };
        let row = Tensor::from_vec(row_data.clone(), 1, cols).unwrap();
        let (hi, ri) = (tape.input_from(&h), tape.input_from(&row));
        let grown = tape.concat_rows(hi, ri).unwrap();
        let sum = tape.sum_rows(grown);
        let mut expected = vec![0.0f32; cols];
        for r in 0..rows {
            for (e, v) in expected.iter_mut().zip(h.row(r)) {
                *e += v;
            }
        }
        for (e, v) in expected.iter_mut().zip(&row_data) {
            *e += v;
        }
        let got: Vec<u32> = tape.value(sum).row(0).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
