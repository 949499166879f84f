//! Kernel-layer benchmarks: serial reference vs. tiled vs. parallel at
//! multiple thread counts, with a machine-readable summary.
//!
//! A custom harness: it times each (op, variant, threads) cell directly
//! and writes `results/bench_kernels.json` — one record per cell with
//! `{op, shape, variant, threads, ns_per_iter, speedup_vs_serial}` — so
//! future PRs have a perf trajectory to compare against.
//!
//! Run with `cargo bench -p gnmr-bench --bench kernels`. Thread counts
//! above the machine's available parallelism cannot speed anything up
//! (the harness prints the machine's parallelism so readings from
//! constrained CI containers are interpretable).
//!
//! `-- --quick-smoke` runs every cell for a few milliseconds instead of
//! [`TARGET_MS`] and skips the JSON archive: a CI-friendly regression
//! smoke test that exercises every kernel through the persistent pool
//! (including the sub-millisecond `dispatch` cells) without perturbing
//! the recorded perf trajectory.
//!
//! The `serial` cells time the plain reference loops the equivalence
//! suites pin every kernel against (`crates/tensor/tests/reference`).

use std::hint::black_box;
use std::time::Instant;

#[path = "../../tensor/tests/reference/mod.rs"]
mod reference;

use gnmr::autograd::{adam_step, AdamStep};
use gnmr::tensor::kernels::{self, Mode::Acc, Threads::Exact};
use gnmr::tensor::{init, par, rng, Csr, Matrix};
use gnmr_bench::output::results_dir;
use rand::Rng;

/// Thread counts every parallel variant is measured at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Target wall-clock per measurement cell.
const TARGET_MS: u128 = 300;

/// Target wall-clock per cell under `--quick-smoke`.
const SMOKE_MS: u128 = 5;

/// Effective per-cell budget (set once in `main`).
static TARGET: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(TARGET_MS as u64);

struct Record {
    op: &'static str,
    shape: String,
    variant: String,
    threads: usize,
    ns_per_iter: u128,
    speedup_vs_serial: f64,
}

/// Number of interleaved measurement rounds per op (see [`time_ns`]).
const ROUNDS: u128 = 3;

/// Times one measurement block of `f`: at least `block_ms` wall-clock
/// and 5 iterations, returning ns/iter. Callers take the **minimum**
/// over [`ROUNDS`] interleaved blocks per variant: on a shared
/// container the noise is strictly additive (preemption, migrated
/// caches), so the fastest block is the closest estimate of the
/// kernel's true cost.
fn time_block(f: &mut impl FnMut(), block_ms: u128) -> u128 {
    let start = Instant::now();
    let mut iters = 0u128;
    while start.elapsed().as_millis() < block_ms || iters < 5 {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() / iters.max(1)
}

/// Measures one op: the serial reference and the kernel on
/// `Threads::Exact` at each thread count, **interleaved** — every
/// variant gets one measurement block per round, and each variant's
/// minimum across rounds is recorded. Interleaving matters on a noisy shared
/// container: a load spike then inflates every variant of the op
/// equally instead of whichever single cell was being timed, so the
/// speedup ratios stay meaningful even when absolute ns drift between
/// runs. `one_thread_label` names the threads==1 cell honestly —
/// "tiled" only where a distinct tiled code path exists (dense
/// matmul); elsewhere the one-thread cell re-runs the serial loop
/// inline and is labeled "serial_1t".
fn push_cells(
    records: &mut Vec<Record>,
    op: &'static str,
    shape: String,
    one_thread_label: &'static str,
    mut serial: impl FnMut(),
    mut parallel: impl FnMut(usize),
) {
    let target = TARGET.load(std::sync::atomic::Ordering::Relaxed) as u128;
    let block_ms = (target / ROUNDS).max(1);
    serial();
    for &t in &THREAD_COUNTS {
        parallel(t);
    }
    let mut best = vec![u128::MAX; 1 + THREAD_COUNTS.len()];
    for _ in 0..ROUNDS {
        best[0] = best[0].min(time_block(&mut serial, block_ms));
        for (slot, &t) in THREAD_COUNTS.iter().enumerate() {
            best[1 + slot] = best[1 + slot].min(time_block(&mut || parallel(t), block_ms));
        }
    }
    let serial_ns = best[0];
    records.push(Record {
        op,
        shape: shape.clone(),
        variant: "serial".into(),
        threads: 1,
        ns_per_iter: serial_ns,
        speedup_vs_serial: 1.0,
    });
    for (slot, &threads) in THREAD_COUNTS.iter().enumerate() {
        let ns = best[1 + slot];
        records.push(Record {
            op,
            shape: shape.clone(),
            variant: if threads == 1 { one_thread_label.into() } else { format!("parallel{threads}") },
            threads,
            ns_per_iter: ns,
            speedup_vs_serial: serial_ns as f64 / ns.max(1) as f64,
        });
    }
}

/// Measures a single-variant op (no thread policy — the optimizer
/// kernels take no thread count): one "serial" row, same min-of-rounds
/// discipline as [`push_cells`].
fn push_serial_cell(records: &mut Vec<Record>, op: &'static str, shape: String, mut f: impl FnMut()) {
    let target = TARGET.load(std::sync::atomic::Ordering::Relaxed) as u128;
    let block_ms = (target / ROUNDS).max(1);
    f();
    let mut best = u128::MAX;
    for _ in 0..ROUNDS {
        best = best.min(time_block(&mut f, block_ms));
    }
    records.push(Record {
        op,
        shape,
        variant: "serial".into(),
        threads: 1,
        ns_per_iter: best,
        speedup_vs_serial: 1.0,
    });
}

fn random_csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
    let mut r = rng::seeded(seed);
    let triplets: Vec<(u32, u32, f32)> = (0..nnz)
        .map(|_| (r.gen_range(0..rows as u32), r.gen_range(0..cols as u32), r.gen_range(-1.0..1.0)))
        .collect();
    Csr::from_triplets(rows, cols, &triplets)
}

/// A power-law CSR in the shape the cost model exists for: one hub row
/// owns ~90% of the stored entries (distinct columns via a coprime
/// stride, so duplicate-summing cannot dilute the hub), and the light
/// rows draw their columns log-uniformly so column degrees are
/// Zipf-like too (hub items on a Taobao-style graph). Static row
/// partitioning serializes on the hub; the weighted stealing plan is
/// what these bench rows measure.
fn skewed_csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
    let mut r = rng::seeded(seed);
    let hub = r.gen_range(0..rows as u32);
    let hub_n = nnz * 9 / 10;
    assert!(cols > hub_n, "hub row cannot hold {hub_n} distinct columns in {cols}");
    let stride = 7919usize; // prime, coprime with the column counts used below
    let mut triplets: Vec<(u32, u32, f32)> = (0..hub_n)
        .map(|i| (hub, ((i * stride) % cols) as u32, r.gen_range(-1.0..1.0)))
        .collect();
    for _ in hub_n..nnz {
        let row = r.gen_range(0..rows as u32);
        // exp(u * ln(cols)) is log-uniform on [1, cols): density ~ 1/c.
        let u: f32 = r.gen_range(0.0..1.0);
        let col = (((cols as f32).ln() * u).exp() as u32).saturating_sub(1).min(cols as u32 - 1);
        triplets.push((row, col, r.gen_range(-1.0..1.0)));
    }
    Csr::from_triplets(rows, cols, &triplets)
}

/// Historical baseline rows to carry over from the existing archive
/// when rewriting it: `scoped_spawn*` cells were measured on the
/// pre-pool substrate and can never be re-measured, so a fresh bench
/// run must not silently delete the very rows README.md tells future
/// PRs to compare dispatch overhead against.
fn preserved_baseline_lines(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("\"variant\": \"scoped_spawn"))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        })
        .unwrap_or_default()
}

fn to_json(records: &[Record], preserved: &[String]) -> String {
    let mut lines: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"op\": \"{}\", \"shape\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \
                 \"ns_per_iter\": {}, \"speedup_vs_serial\": {:.3}}}",
                r.op, r.shape, r.variant, r.threads, r.ns_per_iter, r.speedup_vs_serial
            )
        })
        .collect();
    lines.extend(preserved.iter().map(|l| format!("  {l}")));
    format!("[\n{}\n]", lines.join(",\n"))
}

/// Extracts the `ns_per_iter` number from one archived JSON row.
fn parse_ns(line: &str) -> Option<u128> {
    let key = "\"ns_per_iter\": ";
    let rest = &line[line.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// `--regression-gate`: re-measures the `dispatch` cells (the
/// sub-millisecond kernel that isolates per-call pool handoff cost)
/// and fails with exit code 1 if dispatch overhead at 2 threads —
/// `ns(parallel2) - ns(tiled)`, both cells running the identical
/// tiled kernel so the difference is purely scheduler bookkeeping —
/// regressed more than 25% against the committed rows in
/// `results/bench_kernels.json`, plus a 10µs absolute floor (see the
/// budget computation below) so machine-class differences and jitter
/// on shared CI runners cannot trip the gate. The archive is left
/// untouched. Run by CI under `GNMR_THREADS=2`.
fn regression_gate() -> ! {
    let path = results_dir().join("bench_kernels.json");
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("regression gate: cannot read baseline {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let cell = |variant: &str| -> Option<u128> {
        let tag = format!("\"variant\": \"{variant}\"");
        content
            .lines()
            .find(|l| l.contains("\"op\": \"dispatch\"") && l.contains(&tag))
            .and_then(parse_ns)
    };
    // The dispatch op's one-thread cell is archived as "tiled" (same
    // code path as parallel2 minus the dispatch), so the difference is
    // purely scheduler bookkeeping.
    let (Some(base_serial), Some(base_par2)) = (cell("tiled"), cell("parallel2")) else {
        eprintln!("regression gate: baseline dispatch rows missing from {}", path.display());
        std::process::exit(1);
    };
    let (dm, dk, dn) = (72usize, 32, 32);
    let da = init::uniform(dm, dk, -1.0, 1.0, &mut rng::seeded(7));
    let db = init::uniform(dk, dn, -1.0, 1.0, &mut rng::seeded(8));
    // Interleaved min-of-rounds, same rationale as push_cells: a load
    // spike on a shared runner must inflate both cells, not whichever
    // one happened to be mid-measurement — this gate blocks CI.
    let target = TARGET.load(std::sync::atomic::Ordering::Relaxed) as u128;
    let block_ms = (target / ROUNDS).max(1);
    let mut one = || {
        black_box(reference::matmul_on(&da, &db, 1));
    };
    let mut two = || {
        black_box(reference::matmul_on(&da, &db, 2));
    };
    one();
    two();
    let (mut serial_ns, mut par2_ns) = (u128::MAX, u128::MAX);
    for _ in 0..ROUNDS {
        serial_ns = serial_ns.min(time_block(&mut one, block_ms));
        par2_ns = par2_ns.min(time_block(&mut two, block_ms));
    }
    let base_overhead = base_par2.saturating_sub(base_serial);
    let fresh_overhead = par2_ns.saturating_sub(serial_ns);
    // The committed baseline may come from a different machine class
    // than the runner: on a 1-CPU container the oversubscription guard
    // wakes no worker at all (overhead is a few hundred ns of
    // bookkeeping), while a real multi-core runner pays a genuine
    // condvar wake + cross-core handoff of a few microseconds per
    // call. The 10µs absolute floor absorbs that machine-class gap and
    // run-to-run jitter while still catching the regression class this
    // gate exists for — reintroduced per-call thread spawns were
    // +18µs/+46µs (see the archived scoped_spawn rows).
    let budget = base_overhead + base_overhead / 4 + 10_000;
    println!(
        "dispatch overhead gate: baseline {base_overhead}ns (serial {base_serial}, parallel2 {base_par2}), \
         fresh {fresh_overhead}ns (serial {serial_ns}, parallel2 {par2_ns}), budget {budget}ns"
    );
    if fresh_overhead > budget {
        eprintln!(
            "regression gate FAILED: dispatch overhead at 2 threads grew past 125% of baseline (+10us floor)"
        );
        std::process::exit(1);
    }
    println!("regression gate passed");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--regression-gate") {
        regression_gate();
    }
    let smoke = std::env::args().any(|a| a == "--quick-smoke");
    if smoke {
        TARGET.store(SMOKE_MS as u64, std::sync::atomic::Ordering::Relaxed);
    }
    let hw = par::hardware_threads();
    println!("kernel benches — machine parallelism: {hw}{}", if smoke { " (quick smoke)" } else { "" });
    if hw < 4 {
        println!("note: fewer than 4 hardware threads; parallel cells cannot beat serial here");
    }

    let mut records: Vec<Record> = Vec::new();

    // Per-call dispatch overhead: a matmul barely above PAR_MIN_WORK, so
    // the arithmetic is sub-millisecond and the fixed cost of handing
    // chunks to workers dominates the parallel cells. This is the number
    // the persistent pool exists to shrink — compare it against the
    // scoped_spawn* rows archived before the pool landed.
    let (dm, dk, dn) = (72usize, 32, 32);
    let da = init::uniform(dm, dk, -1.0, 1.0, &mut rng::seeded(7));
    let db = init::uniform(dk, dn, -1.0, 1.0, &mut rng::seeded(8));
    push_cells(
        &mut records,
        "dispatch",
        format!("{dm}x{dk}x{dn}"),
        // 72x32x32 = 73,728 multiply-adds sits just above PAR_MIN_WORK,
        // so the one-thread cell runs the tiled microkernel,
        // not the plain serial reference — label it honestly.
        "tiled",
        || {
            black_box(reference::matmul_serial(&da, &db));
        },
        |t| {
            black_box(reference::matmul_on(&da, &db, t));
        },
    );

    // Dense matmul at the model's message-passing scale.
    let (m, k, n) = (512usize, 128, 128);
    let a = init::uniform(m, k, -1.0, 1.0, &mut rng::seeded(1));
    let b = init::uniform(k, n, -1.0, 1.0, &mut rng::seeded(2));
    push_cells(
        &mut records,
        "matmul",
        format!("{m}x{k}x{n}"),
        "tiled",
        || {
            black_box(reference::matmul_serial(&a, &b));
        },
        |t| {
            black_box(reference::matmul_on(&a, &b, t));
        },
    );

    // A^T * B as used by the matmul backward pass.
    let at = init::uniform(1024, 96, -1.0, 1.0, &mut rng::seeded(3));
    let bt = init::uniform(1024, 96, -1.0, 1.0, &mut rng::seeded(4));
    push_cells(
        &mut records,
        "matmul_tn",
        "1024x96^T*1024x96".into(),
        "serial_1t",
        || {
            black_box(reference::matmul_tn_serial(&at, &bt));
        },
        |t| {
            black_box(reference::matmul_tn_on(&at, &bt, t));
        },
    );

    // SpMM over a graph-sized CSR (message passing forward).
    let csr = random_csr(4000, 4000, 80_000, 5);
    let dense = init::uniform(4000, 64, -1.0, 1.0, &mut rng::seeded(6));
    push_cells(
        &mut records,
        "spmm",
        format!("{}nnz*4000x64", csr.nnz()),
        "serial_1t",
        || {
            black_box(reference::spmm_serial(&csr, &dense));
        },
        |t| {
            black_box(reference::spmm_on(&csr, &dense, t));
        },
    );

    // Transposed SpMM (message passing backward).
    push_cells(
        &mut records,
        "spmm_t",
        format!("{}nnz^T*4000x64", csr.nnz()),
        "serial_1t",
        || {
            black_box(reference::spmm_t_serial(&csr, &dense));
        },
        |t| {
            black_box(reference::spmm_t_on(&csr, &dense, t));
        },
    );

    // The same two ops on a power-law graph (one hub row with ~90% of
    // the nnz, Zipf-ish columns): the shape where static row chunks
    // serialize on the hub and the cost model switches to nnz-weighted
    // work-stealing plans. The transposed kernel additionally streams
    // the cached column-major index here instead of binary-searching
    // every row per chunk, so its parallel cells should no longer
    // trail serial even at 2 threads.
    let skew = skewed_csr(8000, 40_000, 40_000, 9);
    skew.prewarm_spmm_t(); // the index is per-matrix and amortized in training; keep it out of the cells
    let skew_x = init::uniform(40_000, 64, -1.0, 1.0, &mut rng::seeded(10));
    let skew_xt = init::uniform(8000, 64, -1.0, 1.0, &mut rng::seeded(11));
    push_cells(
        &mut records,
        "spmm_skew",
        format!("{}nnz(hub90)*40000x64", skew.nnz()),
        "serial_1t",
        || {
            black_box(reference::spmm_serial(&skew, &skew_x));
        },
        |t| {
            black_box(reference::spmm_on(&skew, &skew_x, t));
        },
    );
    push_cells(
        &mut records,
        "spmm_t_skew",
        format!("{}nnz(hub90)^T*8000x64", skew.nnz()),
        "serial_1t",
        || {
            black_box(reference::spmm_t_serial(&skew, &skew_xt));
        },
        |t| {
            black_box(reference::spmm_t_on(&skew, &skew_xt, t));
        },
    );

    // Element-wise / optimizer / serving rows: the fixed-lane rewrite
    // targets these flat loops directly, so their trajectory is
    // archived alongside the matmul family. 1024x512 is a parameter
    // block at embedding-table scale; 20000x64 is a catalog scoring
    // pass on the serving path.
    let (er, ec) = (1024usize, 512);
    let esrc = init::uniform(er, ec, -1.0, 1.0, &mut rng::seeded(12));
    let mut axpy_sdst = init::uniform(er, ec, -1.0, 1.0, &mut rng::seeded(13));
    let mut axpy_pdst = axpy_sdst.clone();
    push_cells(
        &mut records,
        "axpy",
        format!("{er}x{ec}"),
        "serial_1t",
        // The scale is tiny so thousands of timed iterations cannot
        // drift the in-place destination toward inf and skew late
        // rounds.
        || {
            kernels::axpy(&mut axpy_sdst, &esrc, 1e-6, Acc, Exact(1));
            black_box(&axpy_sdst);
        },
        |t| {
            kernels::axpy(&mut axpy_pdst, &esrc, 1e-6, Acc, Exact(t));
            black_box(&axpy_pdst);
        },
    );

    // The fused Adam update (4 streams in, 3 in-place) at parameter-
    // block scale. No thread count — the optimizer is serial by
    // design — so this is a single-variant row. A vanishing lr keeps
    // the weights near their starting point across the loop.
    let adam_g = init::uniform(er, ec, -1.0, 1.0, &mut rng::seeded(16));
    let mut adam_w = init::uniform(er, ec, -1.0, 1.0, &mut rng::seeded(17));
    let mut adam_m = Matrix::zeros(er, ec);
    let mut adam_v = Matrix::zeros(er, ec);
    let adam_p = AdamStep {
        lr: 1e-7,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        weight_decay: 0.0,
        bc1: 1.0,
        bc2: 1.0,
    };
    push_serial_cell(&mut records, "adam_step", format!("{er}x{ec}"), || {
        adam_step(&mut adam_w, &adam_g, &mut adam_m, &mut adam_v, &adam_p);
        black_box(&adam_w);
    });

    // Serving-path catalog scoring: one query against every item row.
    let catalog = init::uniform(20_000, 64, -1.0, 1.0, &mut rng::seeded(18));
    let query: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.37).sin()).collect();
    let mut serial_scores = vec![0.0f32; catalog.rows()];
    let mut par_scores = vec![0.0f32; catalog.rows()];
    push_cells(
        &mut records,
        "row_dots",
        "20000x64".into(),
        "serial_1t",
        || {
            kernels::row_dots(&mut serial_scores, &catalog, &query, Exact(1));
            black_box(&serial_scores);
        },
        |t| {
            kernels::row_dots(&mut par_scores, &catalog, &query, Exact(t));
            black_box(&par_scores);
        },
    );

    println!("\n{:<10} {:<22} {:<10} {:>8} {:>14} {:>9}", "op", "shape", "variant", "threads", "ns/iter", "speedup");
    for r in &records {
        println!(
            "{:<10} {:<22} {:<10} {:>8} {:>14} {:>8.2}x",
            r.op, r.shape, r.variant, r.threads, r.ns_per_iter, r.speedup_vs_serial
        );
    }

    if smoke {
        println!("\n[quick smoke — results/bench_kernels.json left untouched]");
        return;
    }
    let path = results_dir().join("bench_kernels.json");
    let preserved = preserved_baseline_lines(&path);
    match std::fs::write(&path, to_json(&records, &preserved)) {
        Ok(()) => println!("\n[saved {} ({} baseline rows preserved)]", path.display(), preserved.len()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}
