//! Numeric utilities shared across models: stable softmax, activations,
//! and ranking helpers.

use crate::dense::Matrix;
use crate::kernels;

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// ReLU.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with the given negative slope.
#[inline]
pub fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// In-place numerically stable softmax over each row.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Softmax over each row, returning a new matrix.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// Softmax of a slice, returning a vector.
pub fn softmax_slice(xs: &[f32]) -> Vec<f32> {
    let max = xs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum > 0.0 {
        exps.iter().map(|e| e / sum).collect()
    } else {
        vec![1.0 / xs.len().max(1) as f32; xs.len()]
    }
}

/// Indices that would sort `xs` in descending order; ties broken by
/// ascending index. Comparison is `total_cmp`, so NaNs are *ordered*
/// (positive NaN above +inf) instead of silently scrambling the sort
/// the way the historical `partial_cmp().unwrap_or(Equal)` comparator
/// did. For NaN-free input the order is identical to the old stable
/// sort (which also left ties in ascending-index order).
pub fn argsort_desc(xs: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_unstable_by(|&a, &b| xs[b].total_cmp(&xs[a]).then_with(|| a.cmp(&b)));
    idx
}

/// Indices of the `k` largest values, in descending order of value
/// (ties: ascending index). Delegates to the bounded partial selection
/// in [`kernels::top_k_select_excluding`] — O(n + k log k) instead of the
/// historical full `argsort_desc` + truncate — and returns the exact
/// prefix that full sort would.
pub fn top_k(xs: &[f32], k: usize) -> Vec<usize> {
    let mut scratch = kernels::TopKScratch::new();
    kernels::top_k_select_excluding(xs, k, &[], &mut scratch).iter().map(|&(i, _)| i as usize).collect()
}

/// The 0-based rank `position` of element `target` when `xs` is sorted
/// descending; ties broken pessimistically (equal scores rank ahead of the
/// target), matching the common leave-one-out evaluation convention.
pub fn rank_of(xs: &[f32], target: usize) -> usize {
    let t = xs[target];
    let mut rank = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if i == target {
            continue;
        }
        if x > t || (x == t && i < target) {
            rank += 1;
        }
    }
    rank
}

/// Sample mean of a slice (0 for empty input).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Sample standard deviation (n-1 denominator; 0 for fewer than 2 samples).
pub fn std_dev(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / (xs.len() - 1) as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0).is_finite());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_handles_large_values() {
        let m = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        let s = softmax_rows(&m);
        assert!(s.is_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argsort_and_topk() {
        let xs = [0.1, 0.9, 0.5, 0.9];
        let order = argsort_desc(&xs);
        assert_eq!(order[..2], [1, 3]); // stable tie-break
        assert_eq!(order[2], 2);
        assert_eq!(top_k(&xs, 2), vec![1, 3]);
    }

    #[test]
    fn topk_matches_full_argsort_prefix() {
        // The historical implementation — full sort, then truncate —
        // kept as the reference the partial selection must match
        // exactly (same indices, same order) at every k.
        let xs: Vec<f32> = (0..97).map(|i| ((i * 37 % 19) as f32 * 0.25) - 2.0).collect();
        let reference = argsort_desc(&xs);
        for k in [0, 1, 2, 7, 48, 96, 97, 120] {
            let mut expect = reference.clone();
            expect.truncate(k);
            assert_eq!(top_k(&xs, k), expect, "k={k}");
        }
    }

    #[test]
    fn argsort_orders_nan_totally() {
        // total_cmp: positive NaN sorts above +inf, so it leads the
        // descending order instead of scrambling the comparator.
        let xs = [1.0, f32::NAN, 2.0, f32::INFINITY];
        assert_eq!(argsort_desc(&xs), vec![1, 3, 2, 0]);
        assert_eq!(top_k(&xs, 2), vec![1, 3]);
    }

    #[test]
    fn rank_of_positions() {
        let xs = [0.2, 0.8, 0.5];
        assert_eq!(rank_of(&xs, 1), 0);
        assert_eq!(rank_of(&xs, 2), 1);
        assert_eq!(rank_of(&xs, 0), 2);
        // Pessimistic ties: an equal score before the target outranks it.
        let ties = [0.5, 0.5];
        assert_eq!(rank_of(&ties, 1), 1);
        assert_eq!(rank_of(&ties, 0), 0);
    }

    #[test]
    fn moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((std_dev(&xs) - 1.2909944).abs() < 1e-5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }
}
