//! Serving-path benchmarks: batched top-k throughput (users/sec) at
//! catalog sizes 10^5–10^7, plus the **exact allocation count** of a
//! steady-state batch request.
//!
//! Like the kernels and train_step families this is a custom harness.
//! It builds a synthetic frozen [`ServeIndex`] (seeded uniform
//! representations — serving cost depends only on shapes, not on how
//! the embeddings were trained) and drives the batched scoring path
//! `recommend_batch_into_with`: each worker sweeps whole catalogs into
//! its thread-local scratch and writes finished top-k rows into the
//! caller's output slice. Batch sizes shrink as catalogs grow so a
//! measurement iteration stays near constant work.
//!
//! The `serve_alloc` row is the inference-side arena discipline made
//! checkable: after one warmup request (which mints the per-thread
//! score buffer and selection heap), a batch request must perform
//! **zero** heap allocations. Counts come from the counting global
//! allocator and are exact integers, so the CI `--regression-gate`
//! compares them directly — no timing noise on a shared 1-CPU runner.
//!
//! Run with `cargo bench -p gnmr-bench --bench serve`. `-- --quick-smoke`
//! short-runs the smallest catalog and leaves the archive untouched;
//! `-- --regression-gate` re-measures the steady-state allocation count
//! against the committed `serve_alloc` row in `results/bench_serve.json`.

use std::hint::black_box;
use std::time::Instant;

use gnmr::prelude::*;
use gnmr::tensor::kernels::Threads;
use gnmr::tensor::{init, par, rng};
use gnmr_bench::{alloc, output::results_dir};

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

/// Thread counts measured per catalog (the container has 1 CPU; the
/// 2-thread cell measures dispatch + partitioning overhead, as in the
/// kernels family).
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// Target wall-clock per measurement cell, split across rounds.
const TARGET_MS: u128 = 300;

/// Target wall-clock per cell under `--quick-smoke`.
const SMOKE_MS: u128 = 5;

/// Interleaved measurement rounds; minimum block taken, same estimator
/// as the other bench families (noise on a shared container is
/// additive, so the minimum is the closest estimate of true cost).
const ROUNDS: u128 = 3;

/// `(catalog, batch)` cells: batch sizes shrink with catalog so one
/// iteration stays near-constant work (~2.5e7 user·item pairs).
const CELLS: [(usize, usize); 3] = [(100_000, 256), (1_000_000, 64), (10_000_000, 8)];

struct Record {
    catalog: usize,
    batch: usize,
    threads: usize,
    ns_per_user: u128,
    users_per_sec: u128,
}

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

/// Measures one `(catalog, threads)` cell: at least `block_ms`
/// wall-clock and 2 iterations, returning ns per batch iteration.
fn measure(w: &mut Workload, threads: usize, block_ms: u128) -> u128 {
    let start = Instant::now();
    let mut iters = 0u128;
    while start.elapsed().as_millis() < block_ms || iters < 2 {
        w.index.recommend_batch_into_with(&w.users, K, &w.excludes, &mut w.out, Threads::Exact(threads));
        black_box(&w.out);
        iters += 1;
    }
    start.elapsed().as_nanos() / iters
}

/// Allocation count of one batch request after per-thread scratch
/// warmup, at 1 thread (the profile the committed baseline records).
/// Must be 0: the catalog score buffer and the selection heap are both
/// minted by the warmup call and reused forever after.
fn steady_batch_allocs(w: &mut Workload) -> u64 {
    w.index.recommend_batch_into_with(&w.users, K, &w.excludes, &mut w.out, Threads::Exact(1));
    let before = alloc::allocations();
    w.index.recommend_batch_into_with(&w.users, K, &w.excludes, &mut w.out, Threads::Exact(1));
    alloc::allocations() - before
}

fn to_json(records: &[Record], alloc_cell: (usize, usize, u64)) -> String {
    let mut lines: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"op\": \"serve_batch\", \"catalog\": {}, \"dim\": {DIM}, \"batch\": {}, \
                 \"k\": {K}, \"threads\": {}, \"ns_per_user\": {}, \"users_per_sec\": {}}}",
                r.catalog, r.batch, r.threads, r.ns_per_user, r.users_per_sec
            )
        })
        .collect();
    let (catalog, batch, allocs) = alloc_cell;
    lines.push(format!(
        "  {{\"op\": \"serve_alloc\", \"catalog\": {catalog}, \"dim\": {DIM}, \"batch\": {batch}, \
         \"k\": {K}, \"threads\": 1, \"allocs_per_batch\": {allocs}}}"
    ));
    format!("[\n{}\n]", lines.join(",\n"))
}

/// Extracts the archived `allocs_per_batch` from the `serve_alloc` row.
fn parse_allocs(content: &str) -> Option<u64> {
    let line = content.lines().find(|l| l.contains("\"op\": \"serve_alloc\""))?;
    let key = "\"allocs_per_batch\": ";
    let rest = &line[line.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// `--regression-gate`: re-measures the steady-state allocation count
/// of a warm batch request and fails (exit 1) if it exceeds the
/// committed `serve_alloc` row in `results/bench_serve.json`. Counts
/// are exact (the committed baseline is 0), so any regression is a real
/// allocation reintroduced into the serving hot path — a dropped
/// scratch reuse, an accidental per-request Vec, a selection path that
/// forgot its buffer.
fn regression_gate() -> ! {
    let path = results_dir().join("bench_serve.json");
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve allocation gate: cannot read baseline {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let Some(baseline) = parse_allocs(&content) else {
        eprintln!("serve allocation gate: serve_alloc row missing from {}", path.display());
        std::process::exit(1);
    };
    // Pin one thread so the measured profile is exactly the serial one
    // the baseline recorded, regardless of the runner's GNMR_THREADS.
    par::set_threads(Some(1));
    let (catalog, batch) = CELLS[0];
    let mut w = workload(catalog, batch);
    let fresh = steady_batch_allocs(&mut w);
    println!(
        "serve allocation gate: baseline {baseline} allocs/batch, fresh {fresh} allocs/batch \
         (catalog {catalog}, batch {batch}, k {K}, 1 thread)"
    );
    if fresh > baseline {
        eprintln!(
            "serve allocation gate FAILED: a warm batch request now performs {fresh} heap \
             allocations (baseline {baseline})"
        );
        std::process::exit(1);
    }
    println!("serve allocation gate passed");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--regression-gate") {
        regression_gate();
    }
    let smoke = std::env::args().any(|a| a == "--quick-smoke");
    let block_ms = if smoke { SMOKE_MS } else { TARGET_MS };

    println!(
        "serve benches — machine parallelism: {}{}",
        par::hardware_threads(),
        if smoke { " (quick smoke — smallest catalog only)" } else { "" }
    );

    // Smoke runs only the smallest catalog: the larger indexes take
    // seconds just to construct, and the smoke's job is to exercise the
    // dispatch/scratch/selection machinery, not to produce numbers.
    let cells: &[(usize, usize)] = if smoke { &CELLS[..1] } else { &CELLS };

    let mut records = Vec::new();
    let mut alloc_cell = (0usize, 0usize, 0u64);
    let round_ms = (block_ms / ROUNDS).max(1);
    for &(catalog, batch) in cells {
        let mut w = workload(catalog, batch);
        if catalog == CELLS[0].0 {
            alloc_cell = (catalog, batch, steady_batch_allocs(&mut w));
        }
        let mut best = [u128::MAX; THREAD_COUNTS.len()];
        for _ in 0..ROUNDS {
            for (ti, &t) in THREAD_COUNTS.iter().enumerate() {
                best[ti] = best[ti].min(measure(&mut w, t, round_ms));
            }
        }
        for (ti, &t) in THREAD_COUNTS.iter().enumerate() {
            let ns_per_user = best[ti] / batch as u128;
            records.push(Record {
                catalog,
                batch,
                threads: t,
                ns_per_user,
                users_per_sec: 1_000_000_000 / ns_per_user.max(1),
            });
        }
    }

    println!("\n{:<12} {:>8} {:>8} {:>14} {:>14}", "catalog", "batch", "threads", "ns/user", "users/sec");
    for r in &records {
        println!(
            "{:<12} {:>8} {:>8} {:>14} {:>14}",
            r.catalog, r.batch, r.threads, r.ns_per_user, r.users_per_sec
        );
    }
    let (ac, ab, allocs) = alloc_cell;
    println!("\nsteady-state batch request (catalog {ac}, batch {ab}, 1 thread): {allocs} allocs");
    if allocs == 0 {
        println!("steady-state serving is allocation-free ✓");
    } else {
        println!("WARNING: steady-state serving performs {allocs} allocations per batch");
    }

    if smoke {
        println!("[quick smoke — results/bench_serve.json left untouched]");
        return;
    }
    let path = results_dir().join("bench_serve.json");
    match std::fs::write(&path, to_json(&records, alloc_cell)) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}
