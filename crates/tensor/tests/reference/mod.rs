//! Serial reference loops for the kernel layer: the executable specs
//! the bitwise-equivalence suites pin every kernel route against, and
//! the `serial` cells of the kernel bench. Deliberately shares no code
//! with `gnmr_tensor::kernels` — each is the plainest loop with the
//! per-element accumulation order the kernels promise.
//!
//! Below them, the allocating forms of the kernel routes under test
//! (`*_on`: a fresh destination assigned on exactly `t` threads).
//!
//! Included as a module by `par_equivalence.rs`, `pool_lifecycle.rs`
//! and `crates/bench/benches/kernels.rs` (via `#[path]`), so there is
//! exactly one copy.

#![allow(dead_code)]

use gnmr_tensor::kernels::{self, Mode::Assign, Threads::Exact};
use gnmr_tensor::{Csr, Matrix};

/// Plain scalar replay of the canonical `kernels::LANES = 8` reduction
/// order: lane `l` accumulates the elements at indices ≡ `l` (mod 8) —
/// the remainder of a non-multiple-of-8 length starts at an index
/// ≡ 0 (mod 8), so an element's position within the remainder *is* its
/// lane — and the eight partials collapse through the fixed pairwise
/// tree `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. The spec every
/// dot-reduction entry point is compared against.
pub fn lane_dot_ref(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; kernels::LANES];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        acc[i % kernels::LANES] += a * b;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// `a * b` by the plain i-k-j loop: one add per `k`, ascending, into
/// each output element.
pub fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul_serial: inner dimensions differ");
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for (kk, &av) in a.row(i).iter().enumerate() {
            for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(kk)) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `a^T * b` without the transpose: one add per row `i` of `a`,
/// ascending, into each output element.
pub fn matmul_tn_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn_serial: row counts differ");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.rows() {
        for (c, &av) in a.row(i).iter().enumerate() {
            for (o, &bv) in out.row_mut(c).iter_mut().zip(b.row(i)) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `a * b^T`: every output element one [`lane_dot_ref`].
pub fn matmul_nt_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_serial: column counts differ");
    Matrix::from_fn(a.rows(), b.rows(), |i, j| lane_dot_ref(a.row(i), b.row(j)))
}

/// `csr * dense`: one add per stored entry, in ascending entry order,
/// into each output element.
pub fn spmm_serial(csr: &Csr, dense: &Matrix) -> Matrix {
    assert_eq!(csr.cols(), dense.rows(), "spmm_serial: inner dimensions differ");
    let mut out = Matrix::zeros(csr.rows(), dense.cols());
    for r in 0..csr.rows() {
        let (cols, vals) = csr.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            for (o, &x) in out.row_mut(r).iter_mut().zip(dense.row(c as usize)) {
                *o += x * v;
            }
        }
    }
    out
}

/// `csr^T * dense`: the row-order scatter — one add per stored entry,
/// in ascending CSR row order, into each output element.
pub fn spmm_t_serial(csr: &Csr, dense: &Matrix) -> Matrix {
    assert_eq!(csr.rows(), dense.rows(), "spmm_t_serial: row counts differ");
    let mut out = Matrix::zeros(csr.cols(), dense.cols());
    for r in 0..csr.rows() {
        let (cols, vals) = csr.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            for (o, &x) in out.row_mut(c as usize).iter_mut().zip(dense.row(r)) {
                *o += x * v;
            }
        }
    }
    out
}

// ----- kernel routes on an exact thread count -------------------------

/// `dst` after `f` wrote into it: how the suites turn an in-place
/// kernel call into a comparable result.
pub fn written(mut dst: Matrix, f: impl FnOnce(&mut Matrix)) -> Matrix {
    f(&mut dst);
    dst
}

/// `a * b` on exactly `t` threads, assigned into a fresh destination.
pub fn matmul_on(a: &Matrix, b: &Matrix, t: usize) -> Matrix {
    written(Matrix::zeros(a.rows(), b.cols()), |d| kernels::matmul(d, a, b, Assign, Exact(t)))
}

/// `a^T * b` on exactly `t` threads.
pub fn matmul_tn_on(a: &Matrix, b: &Matrix, t: usize) -> Matrix {
    written(Matrix::zeros(a.cols(), b.cols()), |d| kernels::matmul_tn(d, a, b, Assign, Exact(t)))
}

/// `a * b^T` on exactly `t` threads.
pub fn matmul_nt_on(a: &Matrix, b: &Matrix, t: usize) -> Matrix {
    written(Matrix::zeros(a.rows(), b.rows()), |d| kernels::matmul_nt(d, a, b, Assign, Exact(t)))
}

/// `csr * x` on exactly `t` threads.
pub fn spmm_on(csr: &Csr, x: &Matrix, t: usize) -> Matrix {
    written(Matrix::zeros(csr.rows(), x.cols()), |d| kernels::spmm(d, csr, x, Assign, Exact(t)))
}

/// `csr^T * x` on exactly `t` threads.
pub fn spmm_t_on(csr: &Csr, x: &Matrix, t: usize) -> Matrix {
    written(Matrix::zeros(csr.cols(), x.cols()), |d| kernels::spmm_t(d, csr, x, Assign, Exact(t)))
}
