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

/// Asserts every user's flat batch row equals the latency path's list
/// bit for bit, sentinel padding included.
fn assert_rows_match(index: &ServeIndex, users: &[u32], k: usize, excludes: &ExcludeLists, out: &[(u32, f32)], what: &str) {
    for (i, &u) in users.iter().enumerate() {
        let want = index.recommend(u, k, excludes.row(u as usize));
        let row = &out[i * k..(i + 1) * k];
        let pad = (u32::MAX, f32::NEG_INFINITY);
        for (j, got) in row.iter().enumerate() {
            let expect = want.get(j).copied().unwrap_or(pad);
            assert_eq!(got.0, expect.0, "{what}, user {u}, slot {j}: item");
            assert_eq!(got.1.to_bits(), expect.1.to_bits(), "{what}, user {u}, slot {j}: score bytes");
        }
    }
}

#[test]
fn batch_matches_single_user_path_across_item_tiles() {
    // The batched path scores the catalog in tiles of 1024 items packed
    // four to a panel, with the last `n mod 4` rows scored one by one.
    // Two full tiles plus a ragged tail of 3 crosses every boundary.
    let _caps = ThreadOverride::lift_caps();
    let tile = 1024;
    let n_items = 2 * tile + 3;
    let n_users = 6;
    // Exclusions on tile and panel edges, the ragged tail, duplicates,
    // and one user with none.
    let edges = vec![0, 3, 4, tile - 1, tile - 1, tile, 2 * tile - 1, 2 * tile, 2 * tile + 2, 2 * tile + 2];
    let rows: Vec<Vec<u32>> = (0..n_users)
        .map(|u| if u == 5 { Vec::new() } else { edges.iter().map(|&e| ((e + u / 2) % n_items) as u32).collect() })
        .collect();
    let excludes = ExcludeLists::from_rows(&rows);
    let users: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 3, 0];
    for dim in [1, 7, 8, 48, 50] {
        let mut r = rng::seeded(0x7117 + dim as u64);
        let u = init::uniform(n_users, dim, -1.0, 1.0, &mut r);
        let mut v = init::uniform(n_items, dim, -1.0, 1.0, &mut r);
        // Non-finite rows: one NaN row (ranked first), one +inf and one
        // -inf item, and a row holding both infinities (a NaN score),
        // placed inside a panel, on a tile edge and in the tail.
        v.row_mut(17).fill(f32::NAN);
        v.row_mut(tile)[0] = f32::INFINITY;
        v.row_mut(tile + 5)[dim - 1] = f32::NEG_INFINITY;
        v.row_mut(2 * tile + 1)[0] = f32::INFINITY;
        v.row_mut(2 * tile + 1)[dim - 1] = f32::NEG_INFINITY;
        let index = ServeIndex::new(u, v);
        for k in [0, 1, 10, n_items + 5] {
            for threads in [1, 2, 4] {
                let mut out = vec![(0u32, f32::NAN); users.len() * k];
                index.recommend_batch_into_with(&users, k, &excludes, &mut out, Exact(threads));
                assert_rows_match(&index, &users, k, &excludes, &out, &format!("dim {dim}, k {k}, threads {threads}"));
            }
        }
    }
}

#[test]
#[should_panic(expected = "user id 9 out of range (n_users = 4)")]
fn batch_rejects_unknown_user_before_dispatch() {
    let _caps = ThreadOverride::lift_caps();
    let index = synthetic_index(4, 3000, 8);
    let mut out = vec![(0u32, 0.0f32); 3 * 5];
    index.recommend_batch_into_with(&[0, 9, 1], 5, &ExcludeLists::empty(4), &mut out, Exact(2));
}

#[test]
#[should_panic(expected = "representation width mismatch")]
fn width_mismatch_panics() {
    let _ = ServeIndex::new(Matrix::zeros(2, 4), Matrix::zeros(3, 5));
}

proptest! {
    #[test]
    fn batch_equals_per_user_on_random_shapes(
        (n_users, n_items, dim, k) in (1usize..12, 1usize..80, 1usize..52, 0usize..14)
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
