//! Serving-path benchmarks: batched top-k throughput (users/sec) at
//! catalog sizes 10^5–10^7, a same-run per-user baseline beside each
//! cell, plus the **exact allocation count** of a steady-state batch
//! request.
//!
//! It builds a synthetic frozen [`ServeIndex`] (seeded uniform
//! representations — serving cost depends only on shapes, not on how
//! the embeddings were trained) and drives the batched scoring path
//! `recommend_batch_into_with`: each worker walks the catalog in packed
//! item tiles, scores all of its users against each tile, and feeds
//! each user's streaming top-k heap in the caller's output slice
//! (`kernels::top_k_dots`). The `serve_batch_per_user` cells time the
//! composition that path replaced, on the same pool partition and in
//! the same run: each worker scores one user at a time into a
//! thread-local catalog buffer (`row_dots_into`) and selects from it
//! (`top_k_select_excluding`), streaming the item matrix once per user.
//! Batch sizes shrink as catalogs grow so a measurement iteration stays
//! near constant work.
//!
//! The `serve_alloc` row is the inference-side arena discipline made
//! checkable: after one warmup request (which mints the per-thread
//! tile and selection scratch), a batch request must perform
//! **zero** heap allocations. Counts come from the counting global
//! allocator and are exact integers, so the CI `--regression-gate`
//! compares them directly — no timing noise on a shared runner.
//!
//! Run with `cargo bench -p gnmr-bench --bench serve`. `-- --quick-smoke`
//! short-runs the smallest catalog and leaves the archive untouched;
//! `-- --regression-gate` re-measures the steady-state allocation count
//! against the committed `serve_alloc` row in `results/bench_serve.json`
//! (see `gnmr_bench::harness`).

use std::cell::RefCell;
use std::hint::black_box;

use gnmr::prelude::*;
use gnmr::tensor::kernels::{self, Threads, TopKScratch};
use gnmr::tensor::{init, par, rng};
use gnmr_bench::alloc;
use gnmr_bench::harness::{self, Mode, Row};

/// Representation width (sum over propagation orders; 16 matches the
/// default config's `dim` at one order and keeps the 10^7 catalog at
/// 640 MB of f32s).
const DIM: usize = 16;

/// Users known to the index; batches stride through this pool.
const N_USERS: usize = 2048;

/// Top-k size per request.
const K: usize = 10;

/// Excluded (already-seen) items per user — exercises the sorted-merge
/// exclusion walk at a realistic interaction-history size.
const EXCLUDES_PER_USER: usize = 32;

/// Thread counts measured per catalog. On a 1-CPU machine the 2-thread
/// cell measures dispatch + partitioning overhead, as in the kernels
/// family; read it beside the archive's `machine` row.
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// `(catalog, batch)` cells: batch sizes shrink with catalog so one
/// iteration stays near-constant work (~2.5e7 user·item pairs).
const CELLS: [(usize, usize); 3] = [(100_000, 256), (1_000_000, 64), (10_000_000, 8)];

struct Workload {
    index: ServeIndex,
    excludes: ExcludeLists,
    users: Vec<u32>,
    out: Vec<(u32, f32)>,
}

fn workload(catalog: usize, batch: usize) -> Workload {
    let mut r = rng::seeded(0x5e7e + catalog as u64);
    let user_repr = init::uniform(N_USERS, DIM, -1.0, 1.0, &mut r);
    let item_repr = init::uniform(catalog, DIM, -1.0, 1.0, &mut r);
    let index = ServeIndex::new(user_repr, item_repr);
    // Deterministic pseudo-random interaction histories (duplicates are
    // fine — the exclusion walk tolerates them).
    let rows: Vec<Vec<u32>> = (0..N_USERS as u64)
        .map(|u| {
            (0..EXCLUDES_PER_USER as u64)
                .map(|j| ((u.wrapping_mul(2_654_435_761).wrapping_add(j.wrapping_mul(40_503))) % catalog as u64) as u32)
                .collect()
        })
        .collect();
    let excludes = ExcludeLists::from_rows(&rows);
    let users: Vec<u32> = (0..batch).map(|i| ((i * 977) % N_USERS) as u32).collect();
    let out = vec![(0u32, 0.0f32); batch * K];
    Workload { index, excludes, users, out }
}

/// One batch request at `threads`.
fn request(w: &mut Workload, threads: usize) {
    w.index.recommend_batch_into_with(&w.users, K, &w.excludes, &mut w.out, Threads::Exact(threads));
}

thread_local! {
    /// Per-worker catalog score buffer and selection scratch of the
    /// per-user baseline.
    static PER_USER_SCRATCH: RefCell<(Vec<f32>, TopKScratch)> =
        const { RefCell::new((Vec::new(), TopKScratch::new())) };
}

/// One batch request through the per-user composition at `threads`:
/// the user batch partitioned across the pool as in [`request`], each
/// user scored against the whole catalog, then selected. Rows are
/// always full here (`K` is far below any catalog), so no padding.
fn request_per_user(w: &mut Workload, threads: usize) {
    let (user_repr, item_repr) = (w.index.user_repr(), w.index.item_repr());
    let (users, excludes) = (&w.users, &w.excludes);
    par::for_each_row_chunk(&mut w.out, users.len(), threads, |range, chunk| {
        PER_USER_SCRATCH.with(|cell| {
            let (scores, topk) = &mut *cell.borrow_mut();
            scores.resize(item_repr.rows(), 0.0);
            for (row, &user) in chunk.chunks_mut(K).zip(&users[range]) {
                kernels::row_dots_into(scores, item_repr, user_repr.row(user as usize));
                let sel = kernels::top_k_select_excluding(scores, K, excludes.row(user as usize), topk);
                row.copy_from_slice(sel);
            }
        });
    });
}

/// Both compositions must serve the same bytes, or the baseline would
/// time a different answer.
fn assert_same_rows(w: &mut Workload) {
    request(w, 1);
    let tiled = w.out.clone();
    request_per_user(w, 1);
    let same = tiled.iter().zip(&w.out).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    assert!(same, "per-user baseline and tiled batch disagree");
}

/// Allocation count of one batch request after per-thread scratch
/// warmup, at 1 thread (the profile the committed baseline records).
/// Must be 0: the tile pack buffer, tile scores and per-user stream
/// states are minted by the warmup call and reused forever after.
fn steady_batch_allocs(w: &mut Workload) -> u64 {
    request(w, 1);
    let before = alloc::allocations();
    request(w, 1);
    alloc::allocations() - before
}

/// `--regression-gate`: re-measures the steady-state allocation count
/// of a warm batch request and fails (exit 1) if it exceeds the
/// committed `serve_alloc` row in `results/bench_serve.json`. Counts
/// are exact (the committed baseline is 0), so any regression is a real
/// allocation reintroduced into the serving hot path — a dropped
/// scratch reuse, an accidental per-request Vec, a selection path that
/// forgot its buffer.
fn regression_gate() -> ! {
    let baseline = harness::baseline("bench_serve.json").int("serve_alloc", None, "allocs_per_batch");
    // Pin one thread so the measured profile is exactly the serial one
    // the baseline recorded, regardless of the runner's GNMR_THREADS.
    par::set_threads(Some(1));
    let (catalog, batch) = CELLS[0];
    let fresh = steady_batch_allocs(&mut workload(catalog, batch));
    let what = format!("warm batch allocations (catalog {catalog}, batch {batch}, k {K}, 1 thread)");
    harness::gate_exit("serve allocation gate", harness::check_count(&what, fresh.into(), baseline));
}

fn main() {
    let mode = Mode::from_args();
    if mode == Mode::Gate {
        regression_gate();
    }
    harness::banner("serve", mode);

    // Smoke runs only the smallest catalog: the larger indexes take
    // seconds just to construct, and the smoke's job is to exercise the
    // dispatch/scratch/selection machinery, not to produce numbers.
    let cells: &[(usize, usize)] = if mode == Mode::Smoke { &CELLS[..1] } else { &CELLS };

    let mut rows = Vec::new();
    let mut alloc_row = Row::new();
    for &(catalog, batch) in cells {
        let mut w = workload(catalog, batch);
        let shape = |op: &str| {
            Row::new().str("op", op).num("catalog", catalog).num("dim", DIM).num("batch", batch).num("k", K)
        };
        if catalog == CELLS[0].0 {
            let allocs = steady_batch_allocs(&mut w);
            alloc_row = shape("serve_alloc").num("threads", 1).num("allocs_per_batch", allocs);
        }
        assert_same_rows(&mut w);
        // Cells 2t and 2t + 1: tiled batch and per-user baseline at
        // THREAD_COUNTS[t], interleaved so both see the same machine.
        let ns = harness::time_interleaved(mode, 2 * THREAD_COUNTS.len(), |i| {
            let threads = THREAD_COUNTS[i / 2];
            if i % 2 == 0 {
                request(&mut w, threads);
            } else {
                request_per_user(&mut w, threads);
            }
            black_box(&w.out);
        });
        for (i, ns) in ns.into_iter().enumerate() {
            let op = if i % 2 == 0 { "serve_batch" } else { "serve_batch_per_user" };
            let ns_per_user = ns / batch as u128;
            rows.push(
                shape(op)
                    .num("threads", THREAD_COUNTS[i / 2])
                    .num("ns_per_user", ns_per_user)
                    .num("users_per_sec", 1_000_000_000 / ns_per_user.max(1)),
            );
        }
    }
    let allocs = alloc_row.int("allocs_per_batch").unwrap_or_default();
    rows.push(alloc_row);

    harness::print_table(&rows);
    if allocs == 0 {
        println!("\nsteady-state serving is allocation-free ✓");
    } else {
        println!("\nWARNING: steady-state serving performs {allocs} allocations per batch");
    }
    harness::write_archive(mode, "bench_serve.json", rows);
}
