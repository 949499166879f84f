//! Training-step benchmarks: wall-clock **and exact allocation counts**
//! for the tape backward + optimizer path, before/after the buffer
//! arena.
//!
//! It drives the real GNMR training step (full-graph forward, hinge
//! loss, arena-backed backward, fused Adam) on a small fixed dataset and
//! batch, in two variants:
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
//! `Trainer::backward` + `Trainer::update` window. Counts are exact
//! integers, so `results/bench_train_step.json` rows are comparable
//! across machines — which is why the CI allocation gate
//! (`--regression-gate`) checks *counts*, not timings, and stays
//! stable on a shared 1-CPU container.
//!
//! Run with `cargo bench -p gnmr-bench --bench train_step`.
//! `-- --quick-smoke` short-runs every cell and leaves the archive
//! untouched; `-- --regression-gate` re-measures the steady-state
//! allocation count and fails if it exceeds the committed baseline
//! (see `gnmr_bench::harness`).

use std::hint::black_box;

use gnmr::autograd::{Adam, Arena, Ctx, Trainer};
use gnmr::core::hinge_loss;
use gnmr::graph::{BatchSampler, TrainBatch};
use gnmr::prelude::*;
use gnmr::tensor::kernels::{self, Mode::Assign, Threads::Exact};
use gnmr::tensor::{init, par, rng, Matrix};
use gnmr_bench::alloc;
use gnmr_bench::harness::{self, Mode, Row};

/// Steps run before measuring the steady-state variant (warms the
/// arena, the gradient map, and Adam's moment buffers).
const WARMUP_STEPS: usize = 3;

/// The fixed training workload: a tiny MovieLens-like model plus one
/// pre-sampled batch, so every measured step does identical work, and
/// the trainer `Gnmr::fit` would build for it.
struct Workload {
    model: Gnmr,
    batch: TrainBatch,
    trainer: Trainer,
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
    let trainer = Trainer::new(Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay), tcfg.grad_clip);
    Workload { model, batch, trainer }
}

/// One full training step (the `Gnmr::fit` inner loop: its forward, its
/// loss head [`hinge_loss`], and the trainer step), returning the
/// allocation delta of the backward + optimizer window.
fn train_step(w: &mut Workload, arena: &Arena) -> u64 {
    let mut ctx = Ctx::new(w.model.params());
    let (user_orders, item_orders) = w.model.forward(&mut ctx);
    let loss = hinge_loss(&mut ctx.g, &user_orders, &item_orders, w.batch.clone());

    let before = alloc::allocations();
    w.trainer.backward(ctx, loss, arena);
    w.trainer.update(w.model.params_mut());
    alloc::allocations() - before
}

/// The `fresh_arena` step: a cold arena and a cold gradient map, as in
/// the allocate-per-op backward from before the arena existed. Only the
/// optimizer's state carries over between steps.
fn fresh_step(w: &mut Workload) -> u64 {
    let opt = std::mem::replace(&mut w.trainer.opt, Adam::new(0.0));
    w.trainer = Trainer::new(opt, TrainConfig::fast_test().grad_clip);
    train_step(w, &Arena::new())
}

/// Runs the steady-arena workload to a settled state and returns the
/// allocation count of one steady step. Shared by the bench rows and
/// the regression gate.
fn steady_state_allocs(w: &mut Workload, arena: &Arena) -> u64 {
    let mut allocs = 0;
    for _ in 0..WARMUP_STEPS {
        allocs = train_step(w, arena);
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

/// `--regression-gate`: re-measures the steady-state allocation count
/// of the backward + optimizer region and of a warm packed matmul, and
/// fails (exit 1) if either exceeds its committed row (`steady_arena`,
/// `steady_matmul_pack`) in `results/bench_train_step.json`. Counts are
/// exact (the committed baselines are 0), so this gate is immune to
/// timing noise and machine class — any regression is a real
/// allocation someone reintroduced into the hot path.
fn regression_gate() -> ! {
    let base = harness::baseline("bench_train_step.json");
    let steady_base = base.int("train_step", Some("steady_arena"), "allocs_backward_opt");
    let pack_base = base.int("train_step", Some("steady_matmul_pack"), "allocs_backward_opt");
    // Pin one thread: an explicit override keeps kernel dispatch inline
    // so the measurement is exactly the serial allocation profile the
    // baseline recorded, regardless of the runner's GNMR_THREADS.
    par::set_threads(Some(1));
    let steady = steady_state_allocs(&mut workload(), &Arena::new());
    let (pa, pb, mut pdst) = pack_workload();
    let pack = steady_pack_allocs(&mut pdst, &pa, &pb);
    let steady_what = "steady-state backward + optimizer allocs/step (1 thread)";
    let passed = harness::check_count(steady_what, steady.into(), steady_base)
        & harness::check_count("packed-matmul allocs/warm call", pack.into(), pack_base);
    harness::gate_exit("allocation gate", passed);
}

fn main() {
    let mode = Mode::from_args();
    if mode == Mode::Gate {
        regression_gate();
    }
    // One thread for determinism of the allocation profile; the tiny
    // model's kernels sit below the parallel work threshold anyway, and
    // dispatch-overhead comparisons belong to the kernels bench.
    par::set_threads(Some(1));
    harness::banner("train_step", mode);

    // Before variant: a cold arena every step reproduces the historical
    // allocate-per-op backward (every gradient buffer minted fresh).
    // After variant: the fit-shaped steady state — one arena, one
    // gradient map, buffers recycled forever. Both are measured
    // interleaved, plus the packed-matmul probe; each step's closure
    // keeps the allocation count of its variant's last iteration.
    let mut w_fresh = workload();
    let mut w_steady = workload();
    let arena = Arena::new();
    let warm = steady_state_allocs(&mut w_steady, &arena);
    let (pa, pb, mut pdst) = pack_workload();
    let pack_allocs = steady_pack_allocs(&mut pdst, &pa, &pb);

    let mut allocs = [0u64, 0, pack_allocs];
    let ns = harness::time_interleaved(mode, 3, |i| match i {
        0 => allocs[0] = black_box(fresh_step(&mut w_fresh)),
        1 => allocs[1] = black_box(train_step(&mut w_steady, &arena)),
        _ => {
            kernels::matmul(&mut pdst, &pa, &pb, Assign, Exact(1));
            black_box(&pdst);
        }
    });
    assert_eq!(warm, allocs[1], "steady state drifted between warm-up and measurement");
    let rows: Vec<Row> = ["fresh_arena", "steady_arena", "steady_matmul_pack"]
        .into_iter()
        .zip(ns.into_iter().zip(allocs))
        .map(|(variant, (ns, allocs))| {
            Row::new()
                .str("op", "train_step")
                .str("variant", variant)
                .num("threads", 1)
                .num("ns_per_iter", ns)
                .num("allocs_backward_opt", allocs)
        })
        .collect();

    harness::print_table(&rows);
    let (steady, pack) = (allocs[1], allocs[2]);
    if steady == 0 && pack == 0 {
        println!("\nsteady-state backward + optimizer (and packed matmul) is allocation-free ✓");
    } else {
        println!("\nWARNING: steady-state allocations — backward+opt {steady}, packed matmul {pack}");
    }
    harness::write_archive(mode, "bench_train_step.json", rows);
}
