//! Batched serving tests: the throughput path must be bitwise-equal to
//! the per-user latency path (and to `Gnmr::recommend`) at every thread
//! count, honor exclusions, and pad deterministically.

use gnmr_serve::{ExcludeLists, ServeIndex};
use gnmr_tensor::kernels::{self, Threads::Exact};
use gnmr_tensor::{init, par, rng, Matrix};
use proptest::prelude::*;

/// RAII guard lifting the oversubscription guard so explicit thread
/// counts dispatch for real on the 1-CPU container (same idiom as the
/// tensor equivalence suite).
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

fn synthetic_index(n_users: usize, n_items: usize, dim: usize) -> ServeIndex {
    let mut r = rng::seeded(0xbeef);
    let u = init::uniform(n_users, dim, -1.0, 1.0, &mut r);
    let v = init::uniform(n_items, dim, -1.0, 1.0, &mut r);
    ServeIndex::new(u, v)
}

fn exclusions(n_users: usize, n_items: usize, per_user: usize) -> ExcludeLists {
    let rows: Vec<Vec<u32>> = (0..n_users as u64)
        .map(|u| {
            (0..per_user as u64)
                .map(|j| ((u.wrapping_mul(48_271).wrapping_add(j.wrapping_mul(16_807))) % n_items as u64) as u32)
                .collect()
        })
        .collect();
    ExcludeLists::from_rows(&rows)
}

#[test]
fn batch_matches_single_user_path_at_every_thread_count() {
    let _caps = ThreadOverride::lift_caps();
    let index = synthetic_index(37, 211, 12);
    let excludes = exclusions(37, 211, 9);
    let users: Vec<u32> = (0..37).collect();
    let k = 10;

    // Per-user latency-path reference.
    let reference: Vec<Vec<(u32, f32)>> =
        users.iter().map(|&u| index.recommend(u, k, excludes.row(u as usize))).collect();

    for threads in [1, 2, 4] {
        let mut out = vec![(0u32, 0.0f32); users.len() * k];
        index.recommend_batch_into_with(&users, k, &excludes, &mut out, Exact(threads));
        for (i, want) in reference.iter().enumerate() {
            let row = &out[i * k..(i + 1) * k];
            assert_eq!(row.len(), want.len(), "user {i}: full rows expected here");
            for (got, expect) in row.iter().zip(want) {
                assert_eq!(got.0, expect.0, "threads {threads}, user {i}: item order");
                assert_eq!(
                    got.1.to_bits(),
                    expect.1.to_bits(),
                    "threads {threads}, user {i}: score bytes"
                );
            }
        }
    }

    // The allocating convenience wrapper agrees too.
    let lists = index.recommend_batch(&users, k, &excludes);
    assert_eq!(lists, reference);
}

#[test]
fn excluded_items_never_appear() {
    let index = synthetic_index(8, 64, 8);
    let excludes = exclusions(8, 64, 20);
    let users: Vec<u32> = (0..8).collect();
    for (u, row) in index.recommend_batch(&users, 15, &excludes).iter().enumerate() {
        for &(item, _) in row {
            assert!(
                excludes.row(u).binary_search(&item).is_err(),
                "user {u}: excluded item {item} served"
            );
        }
    }
}

#[test]
fn short_rows_are_sentinel_padded_and_stripped() {
    // k exceeds the catalog: the flat buffer pads with the sentinel,
    // the convenience wrapper strips it.
    let index = synthetic_index(3, 5, 8);
    let excludes = ExcludeLists::empty(3);
    let users = [0u32, 2];
    let k = 9;
    let mut out = vec![(7u32, 7.0f32); users.len() * k];
    index.recommend_batch_into_with(&users, k, &excludes, &mut out, Exact(1));
    for row in out.chunks(k) {
        for &(item, score) in &row[..5] {
            assert!(item < 5, "real entries first");
            assert!(score.is_finite());
        }
        for &(item, score) in &row[5..] {
            assert_eq!(item, u32::MAX, "sentinel item");
            assert_eq!(score, f32::NEG_INFINITY, "sentinel score");
        }
    }
    for row in index.recommend_batch(&users, k, &excludes) {
        assert_eq!(row.len(), 5, "padding stripped");
    }
    // k = 0: empty rows, nothing touched.
    let mut empty_out: Vec<(u32, f32)> = Vec::new();
    index.recommend_batch_into_with(&users, 0, &excludes, &mut empty_out, Exact(2));
    assert_eq!(index.recommend_batch(&users, 0, &excludes), vec![Vec::new(), Vec::new()]);
}

#[test]
fn score_uses_the_canonical_lane_dot() {
    let index = synthetic_index(4, 6, 19);
    let mut r = rng::seeded(0xbeef);
    let u = init::uniform(4, 19, -1.0, 1.0, &mut r);
    let v = init::uniform(6, 19, -1.0, 1.0, &mut r);
    for user in 0..4u32 {
        for item in 0..6u32 {
            assert_eq!(
                index.score(user, item).to_bits(),
                kernels::dot(u.row(user as usize), v.row(item as usize)).to_bits()
            );
        }
    }
}

#[test]
#[should_panic(expected = "representation width mismatch")]
fn width_mismatch_panics() {
    let _ = ServeIndex::new(Matrix::zeros(2, 4), Matrix::zeros(3, 5));
}

proptest! {
    #[test]
    fn batch_equals_per_user_on_random_shapes(
        (n_users, n_items, dim, k) in (1usize..12, 1usize..80, 1usize..20, 0usize..14)
    ) {
        let index = synthetic_index(n_users, n_items, dim);
        let excludes = exclusions(n_users, n_items, 4);
        let users: Vec<u32> = (0..n_users as u32).collect();
        let got = index.recommend_batch(&users, k, &excludes);
        for (u, row) in got.iter().enumerate() {
            let want = index.recommend(u as u32, k, excludes.row(u));
            prop_assert_eq!(row, &want, "user {}", u);
        }
    }
}
