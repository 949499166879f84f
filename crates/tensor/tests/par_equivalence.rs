//! Equivalence suite for the parallel execution layer: every tiled /
//! thread-parallel kernel must match its serial reference across random
//! shapes, thread counts (1, 2, 4) and degenerate cases (empty
//! matrices, single rows, nnz = 0 CSRs).
//!
//! The kernels are designed to be *bitwise* identical to the serial
//! reference (each output row is produced by one worker in the serial
//! accumulation order), so the 1e-5 tolerance here is slack on top of
//! an exact contract — the dedicated tests at the bottom pin the exact
//! version down.

mod reference;

use gnmr_tensor::kernels::{
    self,
    Mode::{Acc, Assign},
    Threads::{self, Auto, Exact},
};
use gnmr_tensor::{par, Csr, Matrix};
use proptest::prelude::*;
use reference::{lane_dot_ref, matmul_nt_on, matmul_on, matmul_tn_on, spmm_on, spmm_t_on, written};

const THREADS: [usize; 3] = [1, 2, 4];
const TOL: f32 = 1e-5;

/// The garbage destinations every `Mode::Assign` assertion runs
/// against: the finite `dirty` one, and the same shape filled with NaN
/// — a kernel that reads `dst` under `Assign`, even only to multiply it
/// by zero, turns the NaN one into NaN output.
fn garbage(dirty: &Matrix) -> [Matrix; 2] {
    [dirty.clone(), Matrix::filled(dirty.rows(), dirty.cols(), f32::NAN)]
}

/// A deterministic non-zero destination of the given shape.
fn dirty(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) as f32 * 0.37).sin())
}

/// RAII guard lifting the oversubscription guard for one test body: an
/// explicit `set_threads` override makes `Threads::Exact(t)` run the genuine
/// parallel/stealing code paths even on a single-core machine (where
/// implicit config would inline them serially). Dropped on any exit —
/// including proptest's early assert-returns — so the global never
/// leaks. Other tests dispatching concurrently while the override is
/// up merely switch code paths; their bytes are invariant, which is
/// the contract this suite pins.
struct ThreadOverride;

impl ThreadOverride {
    fn lift_caps() -> Self {
        par::set_threads(Some(4));
        ThreadOverride
    }
}

impl Drop for ThreadOverride {
    fn drop(&mut self) {
        par::set_threads(None);
    }
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |d| Matrix::from_vec(rows, cols, d))
}

/// `(a, b)` with compatible inner dimensions for `a * b`, including
/// zero-sized shapes.
fn matmul_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

/// `(a, b)` with equal row counts for `a^T * b`.
fn tn_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(m, n)))
}

/// `(a, b)` with equal column counts for `a * b^T`.
fn nt_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k)))
}

/// A CSR (possibly with zero stored entries) and a conformable dense
/// matrix for `spmm`, plus one for `spmm_t`.
fn sparse_inputs() -> impl Strategy<Value = (Csr, Matrix, Matrix)> {
    (1usize..12, 1usize..12, 0usize..8).prop_flat_map(|(rows, cols, d)| {
        let entry = (0..rows as u32, 0..cols as u32, -3.0f32..3.0).prop_map(|(r, c, v)| (r, c, v));
        (proptest::collection::vec(entry, 0..40), matrix(cols, d), matrix(rows, d)).prop_map(
            move |(entries, x, xt)| (Csr::from_triplets(rows, cols, &entries), x, xt),
        )
    })
}

/// Power-law (Taobao/Yelp-style) inputs: one hub row owns ~90% of the
/// stored entries, one hub column concentrates the rest, and with only
/// a handful of light entries over up to 14 rows, long empty-row runs
/// arise by construction. These shapes trip the kernel cost model into
/// its nnz-weighted work-stealing plans, so the stealing paths (not
/// just static partitioning) are what the bitwise assertions guard.
fn skewed_sparse_inputs() -> impl Strategy<Value = (Csr, Matrix, Matrix)> {
    (3usize..14, 3usize..14, 0usize..8).prop_flat_map(|(rows, cols, d)| {
        (0..rows as u32, 0..cols as u32).prop_flat_map(move |(hub_row, hub_col)| {
            let hub = (Just(hub_row), 0..cols as u32, -3.0f32..3.0)
                .prop_map(|(r, c, v)| (r, c, v));
            let col_hub = (0..rows as u32, Just(hub_col), -3.0f32..3.0)
                .prop_map(|(r, c, v)| (r, c, v));
            let light = (0..rows as u32, 0..cols as u32, -3.0f32..3.0)
                .prop_map(|(r, c, v)| (r, c, v));
            (
                proptest::collection::vec(hub, 27..45),
                proptest::collection::vec(col_hub, 6..12),
                proptest::collection::vec(light, 0..5),
                matrix(cols, d),
                matrix(rows, d),
            )
                .prop_map(move |(mut entries, col_entries, light, x, xt)| {
                    entries.extend(col_entries);
                    entries.extend(light);
                    (Csr::from_triplets(rows, cols, &entries), x, xt)
                })
        })
    })
}

proptest! {
    #[test]
    fn matmul_matches_serial((a, b) in matmul_inputs()) {
        let reference = reference::matmul_serial(&a, &b);
        for &t in &THREADS {
            let got = matmul_on(&a, &b, t);
            prop_assert_eq!(got.shape(), reference.shape());
            prop_assert!(got.max_abs_diff(&reference) <= TOL, "threads={}", t);
        }
    }

    #[test]
    fn matmul_tn_matches_serial((a, b) in tn_inputs()) {
        let reference = reference::matmul_tn_serial(&a, &b);
        for &t in &THREADS {
            let got = matmul_tn_on(&a, &b, t);
            prop_assert_eq!(got.shape(), reference.shape());
            prop_assert!(got.max_abs_diff(&reference) <= TOL, "threads={}", t);
        }
    }

    #[test]
    fn matmul_nt_matches_serial((a, b) in nt_inputs()) {
        let reference = reference::matmul_nt_serial(&a, &b);
        for &t in &THREADS {
            let got = matmul_nt_on(&a, &b, t);
            prop_assert_eq!(got.shape(), reference.shape());
            prop_assert!(got.max_abs_diff(&reference) <= TOL, "threads={}", t);
        }
    }

    #[test]
    fn spmm_and_spmm_t_match_serial((csr, x, xt) in sparse_inputs()) {
        let reference = reference::spmm_serial(&csr, &x);
        let reference_t = reference::spmm_t_serial(&csr, &xt);
        for &t in &THREADS {
            let got = spmm_on(&csr, &x, t);
            prop_assert_eq!(got.shape(), reference.shape());
            prop_assert!(got.max_abs_diff(&reference) <= TOL, "spmm threads={}", t);
            let got_t = spmm_t_on(&csr, &xt, t);
            prop_assert_eq!(got_t.shape(), reference_t.shape());
            prop_assert!(got_t.max_abs_diff(&reference_t) <= TOL, "spmm_t threads={}", t);
        }
    }

    #[test]
    fn spmm_agrees_with_dense_matmul((csr, x, _xt) in sparse_inputs()) {
        // Cross-check the whole sparse path against the dense one.
        let dense = csr.to_dense().matmul(&x);
        for &t in &THREADS {
            prop_assert!(spmm_on(&csr, &x, t).max_abs_diff(&dense) <= 1e-4);
        }
    }

    #[test]
    fn skewed_spmm_and_spmm_t_are_bitwise_serial((csr, x, xt) in skewed_sparse_inputs()) {
        // Skewed shapes take the nnz-weighted stealing plan; the
        // contract there is exact, not approximate.
        let _caps = ThreadOverride::lift_caps();
        let reference = reference::spmm_serial(&csr, &x);
        let reference_t = reference::spmm_t_serial(&csr, &xt);
        for &t in &THREADS {
            let got = spmm_on(&csr, &x, t);
            prop_assert_eq!(got.data(), reference.data(), "spmm threads={}", t);
            let got_t = spmm_t_on(&csr, &xt, t);
            prop_assert_eq!(got_t.data(), reference_t.data(), "spmm_t threads={}", t);
        }
    }

    #[test]
    fn skewed_normalization_matches_serial((csr, _x, _xt) in skewed_sparse_inputs()) {
        let _caps = ThreadOverride::lift_caps();
        let row_ref = csr.row_normalized_with(Exact(1));
        let sym_ref = csr.sym_normalized_with(Exact(1));
        for &t in &THREADS[1..] {
            prop_assert_eq!(&csr.row_normalized_with(Exact(t)), &row_ref, "row threads={}", t);
            prop_assert_eq!(&csr.sym_normalized_with(Exact(t)), &sym_ref, "sym threads={}", t);
        }
    }

    #[test]
    fn skewed_scatter_add_matches_serial(
        (rows, src) in (2usize..10, 0usize..6).prop_flat_map(|(r, c)| (Just(r), matrix(40, c))),
        hot in 0usize..10,
        seed in 0u32..1000,
    ) {
        // ~90% of the updates land on one hot destination row (an
        // embedding-table hub), the rest scatter — the skew that flips
        // the scatter-add kernel onto its weighted stealing plan.
        let _caps = ThreadOverride::lift_caps();
        let hot = (hot % rows) as u32;
        let indices: Vec<u32> = (0..src.rows() as u32)
            .map(|i| if (i + seed) % 10 < 9 { hot } else { (i * 7 + seed) % rows as u32 })
            .collect();
        let mut reference = Matrix::zeros(rows, src.cols());
        kernels::scatter_add_rows(&mut reference, &indices, &src, Acc, Exact(1));
        for &t in &THREADS[1..] {
            let mut dst = Matrix::zeros(rows, src.cols());
            kernels::scatter_add_rows(&mut dst, &indices, &src, Acc, Exact(t));
            prop_assert_eq!(dst.data(), reference.data(), "threads={}", t);
        }
    }

    #[test]
    fn scatter_add_matches_serial(
        (rows, src) in (1usize..10, 0usize..6).prop_flat_map(|(r, c)| (Just(r), matrix(8, c))),
        seed in 0u32..1000,
    ) {
        // Deterministic pseudo-indices into `rows` destination rows.
        let indices: Vec<u32> =
            (0..src.rows() as u32).map(|i| (i * 7 + seed) % rows as u32).collect();
        let mut reference = Matrix::zeros(rows, src.cols());
        for (o, &idx) in indices.iter().enumerate() {
            for (d, s) in reference.row_mut(idx as usize).iter_mut().zip(src.row(o)) {
                *d += s;
            }
        }
        for &t in &THREADS {
            let mut dst = Matrix::zeros(rows, src.cols());
            kernels::scatter_add_rows(&mut dst, &indices, &src, Acc, Exact(t));
            prop_assert!(dst.max_abs_diff(&reference) <= TOL, "threads={}", t);
            // Streaming Assign zero-fills first: a garbage destination
            // yields the same bytes as the zeroed accumulate.
            for mut dirty in garbage(&dirty(rows, src.cols())) {
                kernels::scatter_add_rows(&mut dirty, &indices, &src, Assign, Exact(t));
                prop_assert_eq!(dirty.data(), dst.data(), "assign threads={}", t);
            }
        }
    }
}

// ----- in-place kernels (arena path) -----------------------------------
//
// Every fused kernel in `Mode::Acc` must be bitwise-equal to its
// allocate-then-combine reference (materialize the contribution, then
// `+=` it element-wise — spelled out as plain loops below so the
// reference never shares code with the kernel under test), for ANY
// destination contents, and in `Mode::Assign` must overwrite a garbage
// destination (finite and NaN) with exactly the contribution. The
// streaming kernels (`matmul_tn`, `spmm`, `spmm_t`) hold the `Acc`
// contract for the zeroed checkouts the tape feeds them, where the
// reference degenerates to the product itself, and their `Assign` must
// ignore whatever the destination held.

/// `(dst, src)` with matching shapes for the elementwise fused kernels.
fn elementwise_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..10, 0usize..10).prop_flat_map(|(r, c)| (matrix(r, c), matrix(r, c)))
}

/// `(a, b, dst)` for `dst = a * b` (dst is `m x n`).
fn matmul_dst_inputs() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0usize..10, 0usize..10, 0usize..10)
        .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n), matrix(m, n)))
}

/// `(a, b, dst)` for `dst += a * b^T` (dst is `m x p`).
fn nt_acc_inputs() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0usize..10, 0usize..10, 0usize..10)
        .prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k), matrix(m, p)))
}

proptest! {
    #[test]
    fn axpy_matches_allocate_then_combine(
        (dst0, src) in elementwise_inputs(),
        s in -3.0f32..3.0,
    ) {
        // Reference: tmp = src * s (materialized), then dst += tmp.
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(src.data()) {
            let tmp = x * s;
            *e += tmp;
        }
        for &t in &THREADS {
            let mut dst = dst0.clone();
            kernels::axpy(&mut dst, &src, s, Acc, Exact(t));
            prop_assert_eq!(dst.data(), expected.data(), "threads={}", t);
        }
    }

    #[test]
    fn scale_kernels_match_reference(
        (dst0, src) in elementwise_inputs(),
        s in -3.0f32..3.0,
    ) {
        let scaled = src.scale(s);
        for &t in &THREADS {
            // axpy's assign form overwrites a garbage buffer with s * src.
            for mut dirty in garbage(&dst0) {
                kernels::axpy(&mut dirty, &src, s, Assign, Exact(t));
                prop_assert_eq!(dirty.data(), scaled.data(), "axpy assign threads={}", t);
            }
            // scale == materializing self * s.
            let mut dst = dst0.clone();
            let expected = dst0.scale(s);
            kernels::scale(&mut dst, s, Exact(t));
            prop_assert_eq!(dst.data(), expected.data(), "scale threads={}", t);
        }
    }

    #[test]
    fn zip_map_family_matches_reference((dst0, src) in elementwise_inputs()) {
        let f = |a: f32, b: f32| if b > 0.0 { a } else { a * 0.25 };
        // Assign == materialized zip_map over (dst0, src).
        let expected_assign = dst0.zip_map(&src, f);
        // Acc == materialize f(dst0, src) then dst0 += it.
        let mut expected_acc = dst0.clone();
        for ((e, &a), &b) in expected_acc.data_mut().iter_mut().zip(dst0.data()).zip(src.data()) {
            let tmp = f(a, b);
            *e += tmp;
        }
        for &t in &THREADS {
            for mut dirty in garbage(&src) {
                kernels::zip_map(&mut dirty, &dst0, &src, f, Assign, Exact(t));
                prop_assert_eq!(dirty.data(), expected_assign.data(), "assign threads={}", t);
            }

            let mut acc = dst0.clone();
            kernels::zip_map(&mut acc, &dst0, &src, f, Acc, Exact(t));
            prop_assert_eq!(acc.data(), expected_acc.data(), "acc threads={}", t);
        }
    }

    #[test]
    fn add_matches_allocate_then_combine((dst0, src) in elementwise_inputs()) {
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(src.data()) {
            *e += x;
        }
        for &t in &THREADS {
            let mut acc = dst0.clone();
            kernels::add(&mut acc, &src, Acc, Exact(t));
            prop_assert_eq!(acc.data(), expected.data(), "acc threads={}", t);
            for mut dirty in garbage(&dst0) {
                kernels::add(&mut dirty, &src, Assign, Exact(t));
                prop_assert_eq!(dirty.data(), src.data(), "assign threads={}", t);
            }
        }
    }

    #[test]
    fn matmul_nt_fused_match_allocate_then_combine((a, b, dst0) in nt_acc_inputs()) {
        let product = reference::matmul_nt_serial(&a, &b);
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        for &t in &THREADS {
            let mut dst = dst0.clone();
            kernels::matmul_nt(&mut dst, &a, &b, Acc, Exact(t));
            prop_assert_eq!(dst.data(), expected.data(), "acc threads={}", t);
            // The assign form overwrites a garbage buffer with the product.
            for mut dirty in garbage(&dst0) {
                kernels::matmul_nt(&mut dirty, &a, &b, Assign, Exact(t));
                prop_assert_eq!(dirty.data(), product.data(), "assign threads={}", t);
            }
        }
    }

    #[test]
    fn mul_col_broadcast_fused_match_allocate_then_combine(
        (dst0, src) in elementwise_inputs(),
        col_seed in -3.0f32..3.0,
    ) {
        let col = Matrix::from_fn(src.rows(), 1, |r, _| ((r as f32) * 0.37 + col_seed).sin());
        let product = src.mul_col_broadcast(&col);
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        for mut dirty in garbage(&dst0) {
            kernels::mul_col_broadcast(&mut dirty, &src, &col, Assign);
            prop_assert_eq!(dirty.data(), product.data());
        }
        let mut acc = dst0.clone();
        kernels::mul_col_broadcast(&mut acc, &src, &col, Acc);
        prop_assert_eq!(acc.data(), expected.data());
    }

    #[test]
    fn row_dot_fused_match_allocate_then_combine((a, b) in elementwise_inputs()) {
        // Per-row dots in the canonical lane order (the reference never
        // shares code with the kernel under test).
        let product = Matrix::from_fn(a.rows(), 1, |r, _| lane_dot_ref(a.row(r), b.row(r)));
        let dst0 = Matrix::from_fn(a.rows(), 1, |r, _| (r as f32 * 0.61 - 1.3).cos());
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        for mut dirty in garbage(&dst0) {
            kernels::row_dot(&mut dirty, &a, &b, Assign);
            prop_assert_eq!(dirty.data(), product.data());
        }
        let mut acc = dst0.clone();
        kernels::row_dot(&mut acc, &a, &b, Acc);
        prop_assert_eq!(acc.data(), expected.data());
    }

    #[test]
    fn softmax_backward_fused_match_allocate_then_combine((g, y) in elementwise_inputs()) {
        // Allocate-then-combine reference: row totals `Σ g ⊙ y` replayed
        // in the canonical lane order, product assembled per element.
        let mut product = Matrix::zeros(y.rows(), y.cols());
        for r in 0..y.rows() {
            let t = lane_dot_ref(g.row(r), y.row(r));
            for c in 0..y.cols() {
                product.set(r, c, y.get(r, c) * (g.get(r, c) - t));
            }
        }
        let dst0 = g.scale(0.5);
        let mut expected = dst0.clone();
        for (e, &x) in expected.data_mut().iter_mut().zip(product.data()) {
            *e += x;
        }
        for mut dirty in garbage(&dst0) {
            kernels::softmax_rows_backward(&mut dirty, &g, &y, Assign);
            prop_assert_eq!(dirty.data(), product.data());
        }
        let mut acc = dst0.clone();
        kernels::softmax_rows_backward(&mut acc, &g, &y, Acc);
        prop_assert_eq!(acc.data(), expected.data());
    }

    #[test]
    fn matmul_tn_acc_zeroed_is_bitwise_product((a, b) in tn_inputs()) {
        // Streaming accumulator: on the tape's zeroed checkouts it must
        // reproduce the product exactly; its assign form must ignore a
        // garbage destination.
        let product = reference::matmul_tn_serial(&a, &b);
        for &t in &THREADS {
            let mut dst = Matrix::zeros(a.cols(), b.cols());
            kernels::matmul_tn(&mut dst, &a, &b, Acc, Exact(t));
            prop_assert_eq!(dst.data(), product.data(), "acc threads={}", t);
            for mut dirty in garbage(&dirty(a.cols(), b.cols())) {
                kernels::matmul_tn(&mut dirty, &a, &b, Assign, Exact(t));
                prop_assert_eq!(dirty.data(), product.data(), "assign threads={}", t);
            }
        }
    }

    #[test]
    fn spmm_acc_zeroed_is_bitwise_product((csr, x, xt) in sparse_inputs()) {
        assert_sparse_modes(&csr, &x, &xt)?;
    }

    #[test]
    fn skewed_spmm_acc_zeroed_is_bitwise_product((csr, x, xt) in skewed_sparse_inputs()) {
        // Same contract through the nnz-weighted stealing plans.
        assert_sparse_modes(&csr, &x, &xt)?;
    }
}

/// The streaming-mode contract for `spmm` / `spmm_t` at every thread
/// count: `Acc` into a zeroed destination and `Assign` over a garbage
/// one (finite and NaN) both reproduce the serial product exactly.
fn assert_sparse_modes(csr: &Csr, x: &Matrix, xt: &Matrix) -> Result<(), TestCaseError> {
    let product = reference::spmm_serial(csr, x);
    let product_t = reference::spmm_t_serial(csr, xt);
    for &t in &THREADS {
        let mut dst = Matrix::zeros(csr.rows(), x.cols());
        kernels::spmm(&mut dst, csr, x, Acc, Exact(t));
        prop_assert_eq!(dst.data(), product.data(), "spmm acc threads={}", t);
        let mut dst_t = Matrix::zeros(csr.cols(), xt.cols());
        kernels::spmm_t(&mut dst_t, csr, xt, Acc, Exact(t));
        prop_assert_eq!(dst_t.data(), product_t.data(), "spmm_t acc threads={}", t);
        for mut dirty in garbage(&dirty(csr.rows(), x.cols())) {
            kernels::spmm(&mut dirty, csr, x, Assign, Exact(t));
            prop_assert_eq!(dirty.data(), product.data(), "spmm assign threads={}", t);
        }
        for mut dirty in garbage(&dirty(csr.cols(), xt.cols())) {
            kernels::spmm_t(&mut dirty, csr, xt, Assign, Exact(t));
            prop_assert_eq!(dirty.data(), product_t.data(), "spmm_t assign threads={}", t);
        }
    }
    Ok(())
}

// ----- canonical lane order (LANES = 8 dot reductions) ----------------
//
// The dot-reduction kernels — `matmul_nt`, `row_dots`, `row_dot`, and
// the softmax-backward row totals — accumulate in the fixed-lane order
// spelled out by `lane_dot_ref` (tests/reference/mod.rs):
// machine-independent by construction, and the same on every code
// path. These proptests pin every route bitwise against that scalar
// spec across adversarial shapes: k % 8 ∈ {1..7} (every remainder
// length, on both sides of one full lane block), single rows/columns,
// empty matrices, and below-`min_work` sizes (`Threads::Auto`
// dispatches those serially, so both dispatch outcomes are covered).

/// `(a, b)` with equal column counts for the dot-reduction kernels;
/// k ranges past one full lane block so every remainder length shows
/// up both with and without a preceding full block.
fn nt_lane_inputs() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..5, 0usize..20, 0usize..6).prop_flat_map(|(m, k, p)| (matrix(m, k), matrix(p, k)))
}

/// A catalog matrix and a conformable query vector for `row_dots`.
fn row_dots_inputs() -> impl Strategy<Value = (Matrix, Vec<f32>)> {
    (0usize..5, 0usize..20)
        .prop_flat_map(|(m, k)| (matrix(m, k), proptest::collection::vec(-5.0f32..5.0, k)))
}

proptest! {
    #[test]
    fn matmul_nt_matches_lane_order_reference((a, b) in nt_lane_inputs()) {
        let expected =
            Matrix::from_fn(a.rows(), b.rows(), |i, j| lane_dot_ref(a.row(i), b.row(j)));
        let auto = written(Matrix::zeros(a.rows(), b.rows()), |d| kernels::matmul_nt(d, &a, &b, Assign, Auto));
        prop_assert_eq!(auto.data(), expected.data());
        for &t in &THREADS {
            let got = matmul_nt_on(&a, &b, t);
            prop_assert_eq!(got.data(), expected.data(), "threads={}", t);
        }
    }

    #[test]
    fn row_dots_matches_lane_order_reference((base, query) in row_dots_inputs()) {
        let expected: Vec<f32> =
            (0..base.rows()).map(|r| lane_dot_ref(base.row(r), &query)).collect();
        for threads in [Auto, Exact(1), Exact(2), Exact(4)] {
            let mut got = vec![f32::NAN; base.rows()];
            kernels::row_dots(&mut got, &base, &query, threads);
            prop_assert_eq!(&got, &expected, "threads={:?}", threads);
        }
    }

    #[test]
    fn matmul_into_packed_matches_serial((a, b, dst0) in matmul_dst_inputs()) {
        // `Mode::Assign` overwrites a garbage destination with the product;
        // under the thread override the parallel calls run the
        // panel-packed tiled kernel, which must stay bitwise-serial
        // (packing is a layout change, never an order change) even on
        // pack-adversarial shapes: all-tail column counts (n < 8),
        // row counts off the 4-row block, k across the lane remainder.
        let _caps = ThreadOverride::lift_caps();
        let reference = reference::matmul_serial(&a, &b);
        for &t in &THREADS {
            for mut dst in garbage(&dst0) {
                kernels::matmul(&mut dst, &a, &b, Assign, Exact(t));
                prop_assert_eq!(dst.data(), reference.data(), "threads={}", t);
            }
        }
        let mut dst = dst0;
        kernels::matmul(&mut dst, &a, &b, Assign, Auto);
        prop_assert_eq!(dst.data(), reference.data(), "auto policy");
    }
}

#[test]
fn matmul_packed_tiling_boundaries_are_bitwise_serial() {
    // Shapes straddling the pack tile sizes (TILE_K = 64 k-tiles, a
    // ragged 519 % 8 = 7 column tail, 9 rows = two 4-row microkernel
    // blocks plus a remainder row): the panel-packed path must stay
    // bitwise-serial across every seam, at one thread (large-shape
    // tiled route) and through the pool.
    let _caps = ThreadOverride::lift_caps();
    let a = Matrix::from_fn(9, 130, |r, c| ((r * 31 + c * 7) as f32 * 0.013).sin());
    let b = Matrix::from_fn(130, 519, |r, c| ((r * 3 + c * 11) as f32 * 0.007).cos());
    let reference = reference::matmul_serial(&a, &b);
    for t in 1..=4 {
        assert_eq!(matmul_on(&a, &b, t).data(), reference.data(), "threads={t}");
        for mut dst in garbage(&Matrix::from_fn(9, 519, |r, c| (r as f32 - c as f32) * 0.1)) {
            kernels::matmul(&mut dst, &a, &b, Assign, Exact(t));
            assert_eq!(dst.data(), reference.data(), "assign threads={t}");
        }
    }
}

/// The fused kernels through the *real* pool machinery (explicit
/// `set_threads` override lifts the single-core oversubscription guard,
/// as in the hub tests above): bytes must not depend on which worker
/// ran which chunk.
#[test]
fn fused_kernels_bitwise_across_pool_threads() {
    let _guard = ThreadOverride::lift_caps();
    let a = Matrix::from_fn(37, 23, |r, c| ((r * 31 + c * 7) as f32 * 0.13).sin());
    let b = Matrix::from_fn(37, 23, |r, c| ((r * 17 + c * 3) as f32 * 0.29).cos());
    let mut expected_axpy = a.clone();
    expected_axpy.add_scaled_assign(&b, 0.75);
    let expected_tn = reference::matmul_tn_serial(&a, &b);
    for t in [2, 3, 4] {
        let mut dst = a.clone();
        kernels::axpy(&mut dst, &b, 0.75, Acc, Exact(t));
        assert_eq!(dst.data(), expected_axpy.data(), "axpy threads={t}");
        let mut tn = Matrix::zeros(a.cols(), b.cols());
        kernels::matmul_tn(&mut tn, &a, &b, Acc, Exact(t));
        assert_eq!(tn.data(), expected_tn.data(), "matmul_tn acc threads={t}");
    }
}

// ----- degenerate cases, pinned exactly -------------------------------

#[test]
fn empty_matrices_all_kernels() {
    let a00 = Matrix::zeros(0, 0);
    for &t in &THREADS {
        assert_eq!(matmul_on(&a00, &a00, t).shape(), (0, 0));
        assert_eq!(matmul_on(&Matrix::zeros(0, 4), &Matrix::zeros(4, 3), t).shape(), (0, 3));
        assert_eq!(matmul_on(&Matrix::zeros(3, 0), &Matrix::zeros(0, 2), t).shape(), (3, 2));
        assert_eq!(matmul_tn_on(&Matrix::zeros(0, 4), &Matrix::zeros(0, 2), t).shape(), (4, 2));
        assert_eq!(matmul_nt_on(&Matrix::zeros(2, 0), &Matrix::zeros(5, 0), t).shape(), (2, 5));
    }
}

#[test]
fn single_row_inputs() {
    let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
    let b = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let reference = reference::matmul_serial(&a, &b);
    for &t in &THREADS {
        // More threads than rows must clamp, not panic.
        assert_eq!(matmul_on(&a, &b, t).data(), reference.data());
    }
}

#[test]
fn nnz_zero_csr() {
    let e = Csr::empty(5, 7);
    let x = Matrix::ones(7, 3);
    let xt = Matrix::ones(5, 3);
    for &t in &THREADS {
        let y = spmm_on(&e, &x, t);
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(y.sum(), 0.0);
        let yt = spmm_t_on(&e, &xt, t);
        assert_eq!(yt.shape(), (7, 3));
        assert_eq!(yt.sum(), 0.0);
    }
}

#[test]
fn parallel_results_are_bitwise_identical() {
    // The determinism contract is stronger than a tolerance: any thread
    // count must give byte-for-byte the serial result.
    let a = Matrix::from_fn(37, 53, |r, c| ((r * 13 + c * 31) as f32 * 0.017).sin());
    let b = Matrix::from_fn(53, 29, |r, c| ((r * 7 + c * 11) as f32 * 0.029).cos());
    let reference = reference::matmul_serial(&a, &b);
    for t in 1..=8 {
        assert_eq!(matmul_on(&a, &b, t).data(), reference.data(), "threads={t}");
    }
    let csr = Csr::from_triplets(
        40,
        31,
        &(0..200)
            .map(|i| ((i * 17 % 40) as u32, (i * 23 % 31) as u32, (i as f32 * 0.1).sin()))
            .collect::<Vec<_>>(),
    );
    let x = Matrix::from_fn(31, 6, |r, c| (r as f32 - c as f32) * 0.3);
    let reference = reference::spmm_serial(&csr, &x);
    for t in 1..=8 {
        assert_eq!(spmm_on(&csr, &x, t).data(), reference.data(), "threads={t}");
    }
}

#[test]
fn skewed_hub_is_bitwise_identical_across_thread_counts() {
    // A deterministic power-law shape big enough to cut real stealing
    // plans: row 7 owns ~90% of 5000 entries, columns drawn
    // log-uniformly so column degrees are skewed too.
    let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(5000);
    for i in 0..5000u32 {
        let r = if i % 10 < 9 { 7 } else { (i * 131) % 400 };
        let c = (((i as f32 * 0.7211).sin().abs() * 6.0).exp() as u32).min(299);
        triplets.push((r, c, ((i as f32) * 0.013).sin()));
    }
    let csr = Csr::from_triplets(400, 300, &triplets);
    let x = Matrix::from_fn(300, 16, |r, c| ((r * 3 + c) as f32 * 0.01).cos());
    let xt = Matrix::from_fn(400, 16, |r, c| ((r + 5 * c) as f32 * 0.01).sin());
    let reference = reference::spmm_serial(&csr, &x);
    let reference_t = reference::spmm_t_serial(&csr, &xt);
    // An explicit set_threads override lifts the oversubscription
    // guard, so the stealing/CSC-streaming code paths run for real
    // here even on a single-core machine. (Other tests in this binary
    // may dispatch concurrently while the override is up; that only
    // flips which code path they take, never their bytes — which is
    // the contract this whole suite pins.)
    par::set_threads(Some(8));
    let result = std::panic::catch_unwind(|| {
        for t in 1..=8 {
            assert_eq!(spmm_on(&csr, &x, t).data(), reference.data(), "spmm threads={t}");
            assert_eq!(spmm_t_on(&csr, &xt, t).data(), reference_t.data(), "spmm_t threads={t}");
        }
    });
    par::set_threads(None);
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    // The O(nnz) CSC-based transpose must match the triplet-sort path
    // byte for byte (entries are unique and sorted either way).
    let via_triplets = Csr::from_triplets(
        300,
        400,
        &csr.iter().map(|(r, c, v)| (c, r, v)).collect::<Vec<_>>(),
    );
    assert_eq!(csr.transpose(), via_triplets);
}

/// `spmm_t` runs over a transpose cached on the `Csr`. Copies made
/// after the cache is built — a plain clone, and the normalized copies
/// that clone and then rescale their values — must build their own
/// transpose, never inherit the source's: a derived `Clone` would hand
/// the normalized copies a transpose of the *unnormalized* values.
#[test]
fn transpose_cache_never_leaks_into_copies() {
    let triplets: Vec<(u32, u32, f32)> =
        (0..240u32).map(|i| ((i * 7) % 50, (i * 13) % 37, ((i as f32) * 0.37).sin() + 1.5)).collect();
    let csr = Csr::from_triplets(50, 37, &triplets);
    let xt = Matrix::from_fn(50, 11, |r, c| ((r * 5 + c) as f32 * 0.03).cos());
    // Builds and caches `csr`'s transpose.
    assert_eq!(spmm_t_on(&csr, &xt, 1).data(), reference::spmm_t_serial(&csr, &xt).data());
    let _caps = ThreadOverride::lift_caps();
    let copies = [("clone", csr.clone()), ("row_normalized", csr.row_normalized()), ("sym_normalized", csr.sym_normalized())];
    for (name, copy) in copies {
        let want = reference::spmm_t_serial(&copy, &xt);
        for t in THREADS {
            assert_eq!(spmm_t_on(&copy, &xt, t).data(), want.data(), "{name} threads={t}");
        }
    }
}

// ----- the thread policy ----------------------------------------------
//
// `Threads::Auto` picks the thread count from the shared config
// (serial below `min_work`); the contract is that it changes only the
// route, never the bytes: identical to `Threads::Exact` for any config,
// in both modes. `set_min_work(Some(1))` forces `Auto` down the genuine
// parallel routes even on test-sized shapes; this test is the single
// owner of that global (a second concurrent owner could observe the
// other's override — the bytes would still match, but the `min_work`
// value assertions would race).

/// RAII guard forcing every `Threads::Auto` call onto the parallel
/// route; restores the default threshold on any exit.
struct MinWorkOverride;

impl MinWorkOverride {
    fn force_parallel() -> Self {
        kernels::set_min_work(Some(1));
        MinWorkOverride
    }
}

impl Drop for MinWorkOverride {
    fn drop(&mut self) {
        kernels::set_min_work(None);
    }
}

#[test]
fn auto_wrappers_match_explicit_thread_counts() {
    // The threshold override round-trips (floor-clamped at 1) before
    // the byte checks rely on it.
    let default = kernels::min_work();
    assert!(default > 1, "default PAR_MIN_WORK should be a real threshold");
    kernels::set_min_work(Some(5));
    assert_eq!(kernels::min_work(), 5);
    assert_eq!(Auto.resolve(4), 1, "Auto stays serial below min_work");
    assert_eq!(Exact(3).resolve(4), 3, "Exact is taken verbatim");
    kernels::set_min_work(Some(0));
    assert_eq!(kernels::min_work(), 1, "Some(0) clamps to the floor");
    kernels::set_min_work(None);
    assert_eq!(kernels::min_work(), default);

    let _caps = ThreadOverride::lift_caps();
    let _work = MinWorkOverride::force_parallel();

    // Dense products, both modes, against a garbage destination (the
    // streaming ops' Acc folds into it identically on either route).
    let a = Matrix::from_fn(13, 11, |r, c| ((r * 19 + c * 5) as f32 * 0.11).sin());
    let b = Matrix::from_fn(11, 9, |r, c| ((r * 3 + c * 13) as f32 * 0.23).cos());
    let same_rows = Matrix::from_fn(13, 9, |r, c| ((r + 4 * c) as f32 * 0.07).sin());
    let same_cols = Matrix::from_fn(7, 11, |r, c| ((2 * r + c) as f32 * 0.19).cos());
    type DenseKernel = fn(&mut Matrix, &Matrix, &Matrix, kernels::Mode, Threads);
    let dense: [(&str, DenseKernel, &Matrix, Matrix); 3] = [
        ("matmul", kernels::matmul, &b, dirty(13, 9)),
        ("matmul_tn", kernels::matmul_tn, &same_rows, dirty(11, 9)),
        ("matmul_nt", kernels::matmul_nt, &same_cols, dirty(13, 7)),
    ];
    for (name, kernel, rhs, dst0) in dense {
        for mode in [Assign, Acc] {
            let got = written(dst0.clone(), |d| kernel(d, &a, rhs, mode, Auto));
            let want = written(dst0.clone(), |d| kernel(d, &a, rhs, mode, Exact(1)));
            assert_eq!(got.data(), want.data(), "{name} {mode:?}");
        }
    }
    assert_eq!(
        written(Matrix::zeros(11, 9), |d| kernels::matmul_tn(d, &a, &same_rows, Acc, Auto)).data(),
        reference::matmul_tn_serial(&a, &same_rows).data()
    );
    assert_eq!(
        written(Matrix::zeros(13, 7), |d| kernels::matmul_nt(d, &a, &same_cols, Assign, Auto)).data(),
        reference::matmul_nt_serial(&a, &same_cols).data()
    );

    // Sparse products.
    let csr = Csr::from_triplets(
        12,
        10,
        &(0..60)
            .map(|i| ((i * 7 % 12) as u32, (i * 11 % 10) as u32, (i as f32 * 0.21).sin()))
            .collect::<Vec<_>>(),
    );
    let x = Matrix::from_fn(10, 5, |r, c| ((r + 2 * c) as f32 * 0.09).cos());
    let xt = Matrix::from_fn(12, 5, |r, c| ((3 * r + c) as f32 * 0.09).sin());
    assert_eq!(csr.spmm(&x).data(), reference::spmm_serial(&csr, &x).data(), "spmm");
    assert_eq!(csr.spmm_t(&xt).data(), reference::spmm_t_serial(&csr, &xt).data(), "spmm_t");
    for mode in [Assign, Acc] {
        let got = written(dirty(12, 5), |d| kernels::spmm(d, &csr, &x, mode, Auto));
        let want = written(dirty(12, 5), |d| kernels::spmm(d, &csr, &x, mode, Exact(1)));
        assert_eq!(got.data(), want.data(), "spmm {mode:?}");
        let got = written(dirty(10, 5), |d| kernels::spmm_t(d, &csr, &xt, mode, Auto));
        let want = written(dirty(10, 5), |d| kernels::spmm_t(d, &csr, &xt, mode, Exact(1)));
        assert_eq!(got.data(), want.data(), "spmm_t {mode:?}");
    }

    // Elementwise kernels.
    let base = Matrix::from_fn(9, 8, |r, c| ((r * 11 + c * 2) as f32 * 0.27).sin());
    let src = Matrix::from_fn(9, 8, |r, c| ((r + 7 * c) as f32 * 0.33).cos());
    let f = |p: f32, q: f32| if q > 0.0 { p } else { p * 0.25 };
    for t in 1..=3usize {
        for mode in [Assign, Acc] {
            let got = written(base.clone(), |d| kernels::add(d, &src, mode, Auto));
            let want = written(base.clone(), |d| kernels::add(d, &src, mode, Exact(t)));
            assert_eq!(got.data(), want.data(), "add {mode:?} threads={t}");
            let got = written(base.clone(), |d| kernels::axpy(d, &src, 0.6, mode, Auto));
            let want = written(base.clone(), |d| kernels::axpy(d, &src, 0.6, mode, Exact(t)));
            assert_eq!(got.data(), want.data(), "axpy {mode:?} threads={t}");
            let got = written(base.clone(), |d| kernels::zip_map(d, &base, &src, f, mode, Auto));
            let want = written(base.clone(), |d| kernels::zip_map(d, &base, &src, f, mode, Exact(t)));
            assert_eq!(got.data(), want.data(), "zip_map {mode:?} threads={t}");
        }
        let got = written(base.clone(), |d| kernels::scale(d, 2.3, Auto));
        let want = written(base.clone(), |d| kernels::scale(d, 2.3, Exact(t)));
        assert_eq!(got.data(), want.data(), "scale threads={t}");
    }

    // Scatter-add and row dots.
    let indices: Vec<u32> = (0..base.rows() as u32).map(|i| (i * 5 + 2) % 4).collect();
    for mode in [Assign, Acc] {
        let got = written(dirty(4, base.cols()), |d| kernels::scatter_add_rows(d, &indices, &base, mode, Auto));
        let want = written(dirty(4, base.cols()), |d| kernels::scatter_add_rows(d, &indices, &base, mode, Exact(1)));
        assert_eq!(got.data(), want.data(), "scatter_add_rows {mode:?}");
    }

    let query: Vec<f32> = (0..base.cols()).map(|i| (i as f32 * 0.41).sin()).collect();
    let serial: Vec<f32> =
        (0..base.rows()).map(|r| lane_dot_ref(base.row(r), &query)).collect();
    for threads in [Auto, Exact(1), Exact(2), Exact(3)] {
        let mut got = vec![f32::NAN; base.rows()];
        kernels::row_dots(&mut got, &base, &query, threads);
        assert_eq!(got, serial, "row_dots {threads:?}");
    }
}

#[test]
fn transpose_kernels_match_materialized_transpose() {
    let src = Matrix::from_fn(7, 12, |r, c| ((r * 13 + c * 3) as f32 * 0.19).sin());
    let transposed = Matrix::from_fn(12, 7, |r, c| src.get(c, r));
    let dst0 = Matrix::from_fn(12, 7, |r, c| ((r + 5 * c) as f32 * 0.23).cos());
    // Assign overwrites a garbage buffer completely.
    for mut dirty in garbage(&dst0) {
        kernels::transpose(&mut dirty, &src, Assign);
        assert_eq!(dirty.data(), transposed.data());
    }
    // Acc == materialize src^T, then add it.
    let mut expected = dst0.clone();
    for (e, &x) in expected.data_mut().iter_mut().zip(transposed.data()) {
        *e += x;
    }
    let mut acc = dst0;
    kernels::transpose(&mut acc, &src, Acc);
    assert_eq!(acc.data(), expected.data());
}

// ----- canonical dot & top-k partial selection ------------------------
//
// The serving-path kernels: `dot` and `row_dots_into` must replay the
// exact lane order (spec: `lane_dot_ref`), and the bounded partial
// selection (`top_k_select_excluding`, with and without exclusions) must be
// exact-match — same indices, same order — against a full sort under
// the deterministic `(score desc, index asc)` total order, on both of
// its internal algorithms (bounded heap for small k, quickselect once
// k is a sizable fraction of the candidates).

/// Full-sort reference for the selection kernels: the historical
/// argsort path — rank every non-excluded candidate, truncate to k.
/// Deliberately shares no code with the kernels.
fn top_k_ref(scores: &[f32], k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .filter(|(i, _)| exclude.binary_search(i).is_err())
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Tie-heavy scores plus a sorted exclusion subset: values drawn from a
/// handful of levels so equal scores (the tie-break path) are the
/// common case, not the edge case.
fn selection_inputs() -> impl Strategy<Value = (Vec<f32>, Vec<u32>)> {
    (0usize..220).prop_flat_map(|n| {
        let scores = proptest::collection::vec((-3i8..4).prop_map(|v| v as f32 * 0.5), n);
        let excluded = proptest::collection::vec(0u8..2, n).prop_map(|mask| {
            mask.iter().enumerate().filter(|(_, &x)| x == 1).map(|(i, _)| i as u32).collect::<Vec<u32>>()
        });
        (scores, excluded)
    })
}

proptest! {
    #[test]
    fn top_k_selection_matches_full_sort((scores, exclude) in selection_inputs()) {
        let n = scores.len();
        let mut scratch = kernels::TopKScratch::new();
        // k sweep covers {0, 1, small (heap path), n/2 and n
        // (quickselect / copy-all paths), > n}.
        for k in [0, 1, 3, n / 8, n / 2, n.saturating_sub(1), n, n + 7] {
            let expected = top_k_ref(&scores, k, &exclude);
            let got = kernels::top_k_select_excluding(&scores, k, &exclude, &mut scratch);
            prop_assert_eq!(got, &expected[..], "excluding, k={}", k);
            let expected_all = top_k_ref(&scores, k, &[]);
            let got_all = kernels::top_k_select_excluding(&scores, k, &[], &mut scratch);
            prop_assert_eq!(got_all, &expected_all[..], "no exclusion, k={}", k);
        }
    }

    #[test]
    fn dot_and_row_dots_into_replay_lane_order((base, query) in row_dots_inputs()) {
        for r in 0..base.rows() {
            let expected = lane_dot_ref(base.row(r), &query);
            prop_assert_eq!(kernels::dot(base.row(r), &query).to_bits(), expected.to_bits());
        }
        // `row_dots_into` fills a dirty caller buffer with exactly the
        // bytes the parallel `row_dots` writes.
        let mut dst = vec![f32::NAN; base.rows()];
        kernels::row_dots_into(&mut dst, &base, &query);
        let mut reference = vec![0.0; base.rows()];
        kernels::row_dots(&mut reference, &base, &query, Auto);
        prop_assert_eq!(
            dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// Rows of one scoring tile of `top_k_dots` (its private `SCORE_TILE`).
const SCORE_TILE: usize = 1024;

/// `(item, score bits)` pairs, so NaN entries compare by their bytes.
fn pair_bits(v: &[(u32, f32)]) -> Vec<(u32, u32)> {
    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Inputs for the tiled top-k-of-dots op: a catalog whose size lands
/// well inside one tile, around the first tile edge, or around the
/// second; tie-heavy quantized values (so the index tie-break decides
/// often), with an inexact query step so the lane order shows in the
/// bytes; query rows; a batch of row ids (repeats allowed); and one
/// ascending exclusion list per query row, duplicates and
/// out-of-catalog ids included.
fn top_k_dots_inputs() -> impl Strategy<Value = (Matrix, Matrix, Vec<u32>, Vec<Vec<u32>>)> {
    ((0usize..3, 0usize..40), 1usize..20, 1usize..4).prop_flat_map(|((band, off), d, q)| {
        let n = [off, SCORE_TILE - 20 + off, 2 * SCORE_TILE - 20 + off][band];
        let levels = |len, step: f32| proptest::collection::vec((-3i8..4).prop_map(move |v| v as f32 * step), len);
        let exclusion = proptest::collection::vec(0..n as u32 + 1, 0usize..12).prop_map(|mut e| {
            e.sort_unstable();
            e
        });
        (
            levels(n * d, 0.5).prop_map(move |v| Matrix::from_vec(n, d, v)),
            levels(q * d, 0.37).prop_map(move |v| Matrix::from_vec(q, d, v)),
            proptest::collection::vec(0..q as u32, 0usize..6),
            proptest::collection::vec(exclusion, q),
        )
    })
}

proptest! {
    #[test]
    fn top_k_dots_matches_lane_dots_and_full_sort((items, queries, rows, excl) in top_k_dots_inputs()) {
        let _caps = ThreadOverride::lift_caps();
        for k in [0, 1, 3, 10, items.rows() + 2] {
            // Spec: every score is `lane_dot_ref`, the row is the
            // full-sort prefix, padded with the sentinel.
            let expected: Vec<(u32, f32)> = rows
                .iter()
                .flat_map(|&r| {
                    let query = queries.row(r as usize);
                    let scores: Vec<f32> = (0..items.rows()).map(|i| lane_dot_ref(items.row(i), query)).collect();
                    let mut top = top_k_ref(&scores, k, &excl[r as usize]);
                    top.resize(k, (u32::MAX, f32::NEG_INFINITY));
                    top
                })
                .collect();
            for t in THREADS {
                // NaN-filled: the op must write every slot.
                let mut got = vec![(7u32, f32::NAN); rows.len() * k];
                kernels::top_k_dots(&mut got, &items, &queries, &rows, k, |r| &excl[r as usize], Exact(t));
                prop_assert_eq!(pair_bits(&got), pair_bits(&expected), "k={}, threads={}", k, t);
            }
        }
    }
}

#[test]
fn selection_pins_deterministic_tie_break_and_scratch_reuse() {
    // All-equal scores: the winner set is decided purely by the
    // (score desc, index asc) tie-break on every path.
    let flat = vec![1.5f32; 100];
    let mut scratch = kernels::TopKScratch::new();
    let heap_path: Vec<u32> = kernels::top_k_select_excluding(&flat, 4, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(heap_path, vec![0, 1, 2, 3]);
    let qsel_path: Vec<u32> = kernels::top_k_select_excluding(&flat, 60, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(qsel_path, (0..60).collect::<Vec<u32>>());
    // One scratch serves differently-sized calls back to back; the
    // exclusion merge-walk tolerates duplicate entries.
    let scores = [0.5, 2.0, 2.0, -1.0, 2.0, 0.0];
    let got = kernels::top_k_select_excluding(&scores, 3, &[1, 1, 4], &mut scratch);
    assert_eq!(got, &[(2, 2.0), (0, 0.5), (5, 0.0)]);
    // NaN scores are ordered by total_cmp (positive NaN above +inf),
    // not silently shuffled like the old partial_cmp comparator.
    let with_nan = [1.0, f32::NAN, f32::INFINITY, 2.0];
    let order: Vec<u32> = kernels::top_k_select_excluding(&with_nan, 4, &[], &mut scratch).iter().map(|&(i, _)| i).collect();
    assert_eq!(order, vec![1, 2, 3, 0]);

    // Streamed (`top_k_dots`, tile by tile) versus whole-slice
    // (`top_k_select_excluding`) selection over two tiles plus a ragged
    // tail of 3. Identical item rows tie every score, so only the index
    // tie-break orders them: for heap-sized and quickselect-sized k,
    // with exclusions (duplicated) straddling the tile edge.
    let n = 2 * SCORE_TILE + 3;
    let flat_items = Matrix::filled(n, 3, 0.5);
    let query = Matrix::from_vec(1, 3, vec![1.0, -2.0, 4.0]);
    let mut flat_scores = vec![0.0; n];
    kernels::row_dots_into(&mut flat_scores, &flat_items, query.row(0));
    // Rising scores: every later tile displaces the heap filled from the
    // first, and the winners sit in the ragged tail.
    let rising_items = Matrix::from_fn(n, 3, |r, _| r as f32 / 64.0);
    let mut rising_scores = vec![0.0; n];
    kernels::row_dots_into(&mut rising_scores, &rising_items, query.row(0));
    let tile_edge = SCORE_TILE as u32;
    let cases: [(usize, Vec<u32>); 5] = [
        (4, vec![]),
        (4, vec![0, 1, 1, 2]),
        (300, vec![tile_edge - 1, tile_edge, tile_edge]),
        (n, vec![n as u32 - 1]),
        (n + 2, vec![]),
    ];
    for (items, scores) in [(&flat_items, &flat_scores), (&rising_items, &rising_scores)] {
        for (k, exclude) in &cases {
            let whole = kernels::top_k_select_excluding(scores, *k, exclude, &mut scratch).to_vec();
            let mut streamed = vec![(0u32, f32::NAN); *k];
            kernels::top_k_dots(&mut streamed, items, &query, &[0], *k, |_| exclude, Exact(1));
            assert_eq!(pair_bits(&streamed[..whole.len()]), pair_bits(&whole), "k={k}");
            assert!(streamed[whole.len()..].iter().all(|&(i, s)| i == u32::MAX && s == f32::NEG_INFINITY));
        }
    }
    let tail_first = kernels::top_k_select_excluding(&rising_scores, 2, &[], &mut scratch);
    assert_eq!(tail_first.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![n as u32 - 1, n as u32 - 2]);
}

#[test]
fn auto_dispatch_is_thread_count_invariant() {
    // 64*64*80 = 327,680 multiply-adds: above PAR_MIN_WORK, so the
    // public Matrix::matmul takes the parallel path when the global
    // config allows it. Results must not depend on that choice.
    let a = Matrix::from_fn(64, 64, |r, c| ((r + 2 * c) as f32 * 0.01).sin());
    let b = Matrix::from_fn(64, 80, |r, c| ((3 * r + c) as f32 * 0.01).cos());
    par::set_threads(Some(4));
    let wide = a.matmul(&b);
    par::set_threads(Some(1));
    let narrow = a.matmul(&b);
    par::set_threads(None);
    assert_eq!(wide.data(), narrow.data());
}
