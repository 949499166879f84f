//! Training-step benchmarks: wall-clock **and exact allocation counts**
//! for the tape backward + optimizer path, before/after the buffer
//! arena.
//!
//! Like the kernel bench this is a custom harness. It drives the real
//! GNMR training step (full-graph forward, hinge loss, arena-backed
//! backward, fused Adam) on a small fixed dataset and batch, in two
//! variants:
//!
//! * `fresh_arena` — a new arena and gradient map every step. Every
//!   backward buffer is a fresh heap allocation, reproducing the
//!   pre-arena allocate-per-op behavior (the **before** row).
//! * `steady_arena` — one arena and gradient map across all steps, the
//!   way `Gnmr::fit` holds them. After the first warm-up step the
//!   backward + optimizer region must perform **zero** heap
//!   allocations (the **after** row).
//!
//! Allocation counts come from the counting global allocator installed
//! by `gnmr_bench::alloc`, taken as a before/after delta around the
//!   `grads_into` → `clip` → `opt.step` region. Counts are exact
//! integers, so `results/bench_train_step.json` rows are comparable
//! across machines — which is why the CI allocation gate
//! (`--regression-gate`) checks *counts*, not timings, and stays
//! stable on a shared 1-CPU container.
//!
//! Run with `cargo bench -p gnmr-bench --bench train_step`.
//! `-- --quick-smoke` short-runs every cell and leaves the archive
//! untouched; `-- --regression-gate` re-measures the steady-state
//! allocation count and fails if it exceeds the committed baseline.

use std::hint::black_box;
use std::time::Instant;

use gnmr::autograd::{Adam, Arena, Ctx, Grads};
use gnmr::core::hinge_loss;
use gnmr::graph::{BatchSampler, TrainBatch};
use gnmr::prelude::*;
use gnmr::tensor::kernels::{self, Mode::Assign, Threads::Exact};
use gnmr::tensor::{init, par, rng, Matrix};
use gnmr_bench::{alloc, output::results_dir};

/// Target wall-clock per measurement cell.
const TARGET_MS: u128 = 300;

/// Target wall-clock per cell under `--quick-smoke`.
const SMOKE_MS: u128 = 5;

/// Steps run before measuring the steady-state variant (warms the
/// arena, the gradient map, and Adam's moment buffers).
const WARMUP_STEPS: usize = 3;

/// Interleaved measurement rounds per variant, same estimator as the
/// kernels bench: noise on a shared container is strictly additive, so
/// the minimum block is the closest estimate of the true step cost,
/// and interleaving means a load spike inflates every variant instead
/// of whichever one was mid-measurement.
const ROUNDS: u128 = 3;

struct Record {
    variant: &'static str,
    ns_per_iter: u128,
    allocs_backward_opt: u64,
}

/// The fixed training workload: a tiny MovieLens-like model plus one
/// pre-sampled batch, so every measured step does identical work.
struct Workload {
    model: Gnmr,
    batch: TrainBatch,
    opt: Adam,
}

fn workload() -> Workload {
    let data = gnmr::data::presets::tiny_movielens(3);
    let cfg = GnmrConfig { pretrain: false, seed: 7, ..GnmrConfig::default() };
    let model = Gnmr::new(&data.graph, cfg);
    let sampler = BatchSampler::new(&data.graph);
    let tcfg = TrainConfig::fast_test();
    let mut rng = gnmr::tensor::rng::substream(7, 0x7212);
    let batch = sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut rng);
    assert!(!batch.is_empty(), "train_step bench: empty batch");
    let opt = Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay);
    Workload { model, batch, opt }
}

/// One full training step (the `Gnmr::fit` inner loop: its forward and
/// its loss head, [`hinge_loss`]), returning the allocation delta of
/// the backward + optimizer region.
fn train_step(w: &mut Workload, arena: &Arena, grads: &mut Grads) -> u64 {
    let mut ctx = Ctx::new(w.model.params());
    let (user_orders, item_orders) = w.model.forward(&mut ctx);
    let loss = hinge_loss(&mut ctx.g, &user_orders, &item_orders, w.batch.clone());

    let before = alloc::allocations();
    ctx.grads_into(loss, arena, grads);
    drop(ctx);
    grads.clip_global_norm(5.0);
    w.opt.step(w.model.params_mut(), grads);
    alloc::allocations() - before
}

/// Measures a variant: at least `block_ms` wall-clock and 5 iterations,
/// returning (ns/iter, allocs of the backward+opt region on the *last*
/// iteration — steady by then for the shared-arena variant).
fn measure(w: &mut Workload, block_ms: u128, mut step: impl FnMut(&mut Workload) -> u64) -> (u128, u64) {
    let start = Instant::now();
    let mut iters = 0u128;
    let mut last_allocs = 0u64;
    while start.elapsed().as_millis() < block_ms || iters < 5 {
        last_allocs = step(w);
        iters += 1;
    }
    (start.elapsed().as_nanos() / iters.max(1), last_allocs)
}

/// Runs the steady-arena workload to a settled state and returns the
/// allocation count of one steady step. Shared by the bench rows and
/// the regression gate.
fn steady_state_allocs(w: &mut Workload, arena: &Arena, grads: &mut Grads) -> u64 {
    let mut allocs = 0;
    for _ in 0..WARMUP_STEPS {
        allocs = train_step(w, arena, grads);
    }
    allocs
}

/// The packed-matmul probe: `matmul` on one thread, on a shape above the
/// work threshold runs the B-panel-packed tiled kernel, whose pack
/// scratch is a once-per-thread thread-local. 256x96 * 96x128 clears
/// `PAR_MIN_WORK` at one thread and packs 16 full 8-wide strips.
fn pack_workload() -> (Matrix, Matrix, Matrix) {
    let a = init::uniform(256, 96, -1.0, 1.0, &mut rng::seeded(31));
    let b = init::uniform(96, 128, -1.0, 1.0, &mut rng::seeded(32));
    let dst = Matrix::zeros(256, 128);
    (a, b, dst)
}

/// Allocation count of one packed-path matmul after the pack scratch
/// has been minted (the steady state `Gnmr::fit` sees). Must be 0.
fn steady_pack_allocs(dst: &mut Matrix, a: &Matrix, b: &Matrix) -> u64 {
    kernels::matmul(dst, a, b, Assign, Exact(1)); // mints the per-thread pack scratch
    let before = alloc::allocations();
    kernels::matmul(dst, a, b, Assign, Exact(1));
    alloc::allocations() - before
}

fn to_json(records: &[Record]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"op\": \"train_step\", \"variant\": \"{}\", \"threads\": 1, \
                 \"ns_per_iter\": {}, \"allocs_backward_opt\": {}}}",
                r.variant, r.ns_per_iter, r.allocs_backward_opt
            )
        })
        .collect();
    format!("[\n{}\n]", lines.join(",\n"))
}

/// Extracts the archived `allocs_backward_opt` for a variant row.
fn parse_allocs(content: &str, variant: &str) -> Option<u64> {
    let tag = format!("\"variant\": \"{variant}\"");
    let line = content.lines().find(|l| l.contains(&tag))?;
    let key = "\"allocs_backward_opt\": ";
    let rest = &line[line.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// `--regression-gate`: re-measures the steady-state allocation count
/// of the backward + optimizer region and fails (exit 1) if it exceeds
/// the committed `steady_arena` row in
/// `results/bench_train_step.json`. Counts are exact (the committed
/// baseline is 0), so this gate is immune to timing noise and machine
/// class — any regression is a real allocation someone reintroduced
/// into the hot path.
fn regression_gate() -> ! {
    let path = results_dir().join("bench_train_step.json");
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("allocation gate: cannot read baseline {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let Some(baseline) = parse_allocs(&content, "steady_arena") else {
        eprintln!("allocation gate: steady_arena row missing from {}", path.display());
        std::process::exit(1);
    };
    // Pin one thread: an explicit override keeps kernel dispatch inline
    // so the measurement is exactly the serial allocation profile the
    // baseline recorded, regardless of the runner's GNMR_THREADS.
    par::set_threads(Some(1));
    let mut w = workload();
    let arena = Arena::new();
    let mut grads = Grads::default();
    let fresh = steady_state_allocs(&mut w, &arena, &mut grads);
    println!(
        "steady-state allocation gate: baseline {baseline} allocs/step, fresh {fresh} allocs/step \
         (backward + optimizer region, 1 thread)"
    );
    if fresh > baseline {
        eprintln!(
            "allocation gate FAILED: steady-state backward + optimizer now performs {fresh} heap \
             allocations per step (baseline {baseline})"
        );
        std::process::exit(1);
    }
    // The packed tiled matmul path is part of the checked region too:
    // its pack scratch is minted once per thread, so the steady state
    // must match the committed row (0) exactly.
    let Some(pack_baseline) = parse_allocs(&content, "steady_matmul_pack") else {
        eprintln!("allocation gate: steady_matmul_pack row missing from {}", path.display());
        std::process::exit(1);
    };
    let (pa, pb, mut pdst) = pack_workload();
    let pack_fresh = steady_pack_allocs(&mut pdst, &pa, &pb);
    println!(
        "packed-matmul allocation gate: baseline {pack_baseline} allocs/call, fresh {pack_fresh} allocs/call"
    );
    if pack_fresh > pack_baseline {
        eprintln!(
            "allocation gate FAILED: the packed matmul path now performs {pack_fresh} heap \
             allocations per warm call (baseline {pack_baseline})"
        );
        std::process::exit(1);
    }
    println!("allocation gate passed");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--regression-gate") {
        regression_gate();
    }
    let smoke = std::env::args().any(|a| a == "--quick-smoke");
    let block_ms = if smoke { SMOKE_MS } else { TARGET_MS };

    // One thread for determinism of the allocation profile; the tiny
    // model's kernels sit below the parallel work threshold anyway, and
    // dispatch-overhead comparisons belong to the kernels bench.
    par::set_threads(Some(1));
    println!(
        "train_step benches — machine parallelism: {} (measuring at 1 thread){}",
        par::hardware_threads(),
        if smoke { " (quick smoke)" } else { "" }
    );

    let mut records = Vec::new();
    let round_ms = (block_ms / ROUNDS).max(1);

    // Before variant: a cold arena every step reproduces the historical
    // allocate-per-op backward (every gradient buffer minted fresh).
    // After variant: the fit-shaped steady state — one arena, one
    // gradient map, buffers recycled forever. Both are measured in
    // interleaved rounds (see [`ROUNDS`]), plus the packed-matmul probe.
    let mut w_fresh = workload();
    let mut w_steady = workload();
    let arena = Arena::new();
    let mut grads = Grads::default();
    let warm = steady_state_allocs(&mut w_steady, &arena, &mut grads);
    let (pa, pb, mut pdst) = pack_workload();
    let pack_allocs = steady_pack_allocs(&mut pdst, &pa, &pb);

    let mut best = [u128::MAX; 3];
    let mut fresh_allocs = 0;
    let mut steady_allocs = 0;
    for _ in 0..ROUNDS {
        let (ns, allocs) = measure(&mut w_fresh, round_ms, |w| {
            let arena = Arena::new();
            let mut grads = Grads::default();
            black_box(train_step(w, &arena, &mut grads))
        });
        best[0] = best[0].min(ns);
        fresh_allocs = allocs;
        let (ns, allocs) =
            measure(&mut w_steady, round_ms, |w| black_box(train_step(w, &arena, &mut grads)));
        best[1] = best[1].min(ns);
        steady_allocs = allocs;
        let start = Instant::now();
        let mut iters = 0u128;
        while start.elapsed().as_millis() < round_ms || iters < 5 {
            kernels::matmul(&mut pdst, &pa, &pb, Assign, Exact(1));
            black_box(&pdst);
            iters += 1;
        }
        best[2] = best[2].min(start.elapsed().as_nanos() / iters.max(1));
    }
    records.push(Record { variant: "fresh_arena", ns_per_iter: best[0], allocs_backward_opt: fresh_allocs });
    records.push(Record { variant: "steady_arena", ns_per_iter: best[1], allocs_backward_opt: steady_allocs });
    assert_eq!(warm, steady_allocs, "steady state drifted between warm-up and measurement");
    records.push(Record {
        variant: "steady_matmul_pack",
        ns_per_iter: best[2],
        allocs_backward_opt: pack_allocs,
    });

    println!("\n{:<18} {:>14} {:>22}", "variant", "ns/step", "allocs (bwd+opt)/step");
    for r in &records {
        println!("{:<18} {:>14} {:>22}", r.variant, r.ns_per_iter, r.allocs_backward_opt);
    }
    let steady = records
        .iter()
        .find(|r| r.variant == "steady_arena")
        .expect("steady_arena record")
        .allocs_backward_opt;
    if steady == 0 && pack_allocs == 0 {
        println!("\nsteady-state backward + optimizer (and packed matmul) is allocation-free ✓");
    } else {
        println!(
            "\nWARNING: steady-state allocations — backward+opt {steady}, packed matmul {pack_allocs}"
        );
    }

    if smoke {
        println!("[quick smoke — results/bench_train_step.json left untouched]");
        return;
    }
    let path = results_dir().join("bench_train_step.json");
    match std::fs::write(&path, to_json(&records)) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}
