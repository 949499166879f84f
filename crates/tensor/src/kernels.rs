//! The kernel layer: tiled, thread-parallel implementations of the
//! workspace's hot linear-algebra loops. Parallel dispatch runs on the
//! persistent worker pool in [`crate::par`], so even sub-millisecond
//! kernels pay only a few microseconds of handoff rather than per-call
//! thread spawns.
//!
//! [`Matrix`](crate::Matrix) and [`Csr`](crate::Csr) delegate their
//! public ops here, so this module is the single landing zone for future
//! SIMD / backend work. Each op has **one entry point**, writing into a
//! caller-provided destination; the allocating forms are the `Matrix` /
//! `Csr` methods. Two arguments replace what used to be name suffixes:
//!
//! * a [`Mode`] — [`Mode::Assign`] overwrites the destination,
//!   [`Mode::Acc`] accumulates into it (BLAS-β style). Which of the two
//!   accumulate semantics an op uses (*fused* or *streaming*) is part of
//!   its contract; see [`Mode`];
//! * a [`Threads`] policy — [`Threads::Auto`] resolves the thread count
//!   from [`crate::par`] and stays serial below [`min_work`] (default
//!   [`PAR_MIN_WORK`]); [`Threads::Exact`] pins it (the equivalence
//!   suites and benches). Ops too small to ever amortize dispatch
//!   (`transpose`, `mul_col_broadcast`, `row_dot`,
//!   `softmax_rows_backward`) are serial and take no policy.
//!
//! The plain serial reference loops every kernel is pinned against live
//! with the equivalence suite (`crates/tensor/tests/reference/mod.rs`)
//! and share no code with this module.
//!
//! # Cost-model dispatch
//!
//! Sparse kernels (`spmm`, `spmm_t`, scatter-add, CSR normalization /
//! construction) no longer assume rows are equally expensive. Each
//! parallel call plans its chunks from the actual entry counts
//! ([`span_plan`]): uniform work keeps the historical static row
//! partition, while a skewed distribution (one hub user owning most of
//! a behavior's interactions — the normal case on power-law graphs)
//! switches to nnz-balanced chunks executed under the work-stealing
//! schedule ([`par::Schedule::Stealing`]). The plan decides who
//! computes which rows and when — never what the bytes are. `spmm_t`
//! is `spmm` over the matrix's cached transpose, so its plan balances
//! column degrees with the same code.
//!
//! # Determinism and the canonical lane order
//!
//! Every parallel kernel partitions *output rows* across workers and
//! accumulates into each output element in exactly the order of its
//! serial reference, so results are bitwise identical to that
//! reference at every thread count and under either schedule.
//!
//! Since the fixed-lane SIMD rewrite, the reference order itself is
//! the **canonical lane order** (see [`LANES`]): reduction-style
//! kernels (`matmul_nt`, `row_dot*`, `row_dots`, `top_k_dots`, the
//! softmax-backward row totals) accumulate into a fixed block of
//! `LANES` partial sums —
//! lane `l` owns the terms whose index is congruent to `l` modulo
//! `LANES` — and collapse it with a fixed pairwise tree. Streaming
//! kernels (`matmul`, `matmul_tn`, `spmm`, the elementwise family, the
//! optimizer steps) keep one accumulator per output element advancing
//! in ascending inner order, so their bytes never depended on the lane
//! width at all. Both schemes are defined purely by loop structure —
//! no hardware feature detection, no FMA contraction (rustc never
//! contracts `a * b + c` on its own) — so the bytes are identical
//! across machines as well as across thread counts.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::dense::Matrix;
use crate::par::{self, Schedule};
use crate::sparse::Csr;

/// Work threshold (in multiply-add units) below which kernels stay on
/// the serial path: handing chunks to the persistent pool costs a few
/// microseconds per call (condvar wake + completion wait — far below
/// the old per-call thread spawn, but not free), so only kernels with
/// enough arithmetic to amortize it go parallel.
pub const PAR_MIN_WORK: usize = 64 * 1024;

/// Override for the parallel work threshold; 0 means "use
/// [`PAR_MIN_WORK`]".
static MIN_WORK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the parallel work threshold
/// [`Threads::Auto`] compares against. `Some(1)` (the floor —
/// `Some(0)` is clamped to it) forces every kernel through the
/// parallel/stealing routes regardless of size, which is how the
/// equivalence and gradcheck suites exercise those routes on
/// test-sized shapes; real tuning would raise or lower the threshold a
/// few binary orders of magnitude around the default.
pub fn set_min_work(threshold: Option<usize>) {
    MIN_WORK_OVERRIDE.store(threshold.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The active parallel work threshold ([`PAR_MIN_WORK`] unless
/// overridden via [`set_min_work`]).
pub fn min_work() -> usize {
    let o = MIN_WORK_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 { o } else { PAR_MIN_WORK }
}

// ----- output mode and thread policy ----------------------------------

/// How a kernel writes its result into the destination: BLAS-β = 0
/// ([`Mode::Assign`]) or β = 1 ([`Mode::Acc`]). `Assign` never reads the
/// destination, so dirty arena checkouts are fine.
///
/// Every op uses one of two accumulate semantics, named in its doc:
///
/// * **fused** ops (`matmul_nt`, `zip_map`, `row_dot`,
///   `mul_col_broadcast`, `softmax_rows_backward`, `transpose`, `axpy`,
///   `add`) fold one fully formed value into each element, so `Acc` is
///   bitwise-equal to materializing the result and `add`ing it, for
///   **any** destination contents;
/// * **streaming** ops (`matmul`, `matmul_tn`, `spmm`, `spmm_t`,
///   `scatter_add_rows`) advance partial sums inside the destination, so
///   `Acc` equals the product only when the destination starts zeroed,
///   and their `Assign` is zero-fill-then-stream. For the exact
///   materialize-then-add float sequence on a non-zero target,
///   accumulate into a zeroed scratch and `add` it (the tape's
///   `apply_sum`).
///
/// Kernels match the mode once per call, outside their row loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Overwrite the destination with the result.
    Assign,
    /// Accumulate the result into the destination.
    Acc,
}

/// How many threads a kernel call runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Threads {
    /// Serial below [`min_work`] units of work, otherwise the shared
    /// [`par::num_threads`] config. What production callers use.
    Auto,
    /// Exactly this many threads (still subject to the pool's
    /// oversubscription guard). What the equivalence suites and benches
    /// use to pin a route.
    Exact(usize),
}

impl Threads {
    /// The thread count for a call doing `work` units of work (the
    /// kernel's multiply-adds, elements or stored entries).
    #[inline]
    pub fn resolve(self, work: usize) -> usize {
        match self {
            Threads::Auto if work < min_work() => 1,
            Threads::Auto => par::num_threads(),
            Threads::Exact(n) => n,
        }
    }
}

/// The per-element write of every fused row kernel: store (`ACC =
/// false`) or add (`ACC = true`). A const parameter, so the mode is
/// resolved at compile time and never branches per element.
#[inline(always)]
fn put<const ACC: bool>(o: &mut f32, v: f32) {
    if ACC {
        *o += v;
    } else {
        *o = v;
    }
}

/// Asserts a destination has the result's shape.
fn assert_dst(dst: &Matrix, (rows, cols): (usize, usize), op: &str) {
    assert_eq!(dst.shape(), (rows, cols), "{op}: dst is {}x{}, result is {rows}x{cols}", dst.rows(), dst.cols());
}

// ----- cost-model chunk planning --------------------------------------

/// How many chunks per thread the stealing schedule cuts. Finer chunks
/// smooth skew better but each costs one deque pop; 4 per thread keeps
/// the worst static-vs-stealing overhead within noise on uniform work
/// while letting three threads absorb a hub chunk's neighbors.
const STEAL_CHUNKS_PER_THREAD: usize = 4;

/// Heaviest-static-chunk-to-ideal ratio above which span-weighted
/// stealing replaces static row partitioning. At 1.25 a uniform random
/// CSR (whose chunk weights concentrate tightly around the mean) stays
/// on the cheap static path, while any power-law row distribution
/// trips the weighted plan.
const SKEW_RATIO: f64 = 1.25;

/// Plans parallel chunks for a span-weighted workload (`spans` is a
/// CSR `indptr`-style table: row `r` weighs `spans[r+1] - spans[r]`).
///
/// Uniform work gets the historical static row partition (cheapest to
/// plan, zero stealing overhead). If balancing rows would hand one
/// chunk more than [`SKEW_RATIO`] times the ideal weight, the plan
/// switches to entry-balanced chunks, cut [`STEAL_CHUNKS_PER_THREAD`]×
/// finer than the thread count, under the stealing schedule. Either
/// way every row belongs to exactly one chunk, so the plan never
/// affects the bytes produced — only who computes them when.
pub(crate) fn span_plan(spans: &[usize], threads: usize) -> (Vec<Range<usize>>, Schedule) {
    let rows = spans.len().saturating_sub(1);
    let static_ranges = par::partition(rows, threads);
    if static_ranges.len() <= 1 {
        return (static_ranges, Schedule::Static);
    }
    let total = spans[rows] - spans[0];
    if total == 0 {
        return (static_ranges, Schedule::Static);
    }
    let ideal = total as f64 / static_ranges.len() as f64;
    let heaviest =
        static_ranges.iter().map(|r| spans[r.end] - spans[r.start]).max().unwrap_or(0) as f64;
    if heaviest <= ideal * SKEW_RATIO {
        return (static_ranges, Schedule::Static);
    }
    // Chunk granularity scales with the parallelism the machine can
    // actually deliver: fine chunks only pay off when they can land on
    // distinct cores, while on an oversubscribed box (threads beyond
    // hardware) each extra chunk boundary is one more context switch
    // for zero concurrency. hw == 1 therefore degenerates to one
    // weighted chunk per thread — still nnz-balanced, still stealable.
    let granularity = STEAL_CHUNKS_PER_THREAD.min(par::hardware_threads());
    let chunks = threads.saturating_mul(granularity);
    (par::partition_weighted(spans, chunks), Schedule::Stealing)
}

/// Column-block width of the tiled dense matmul: one output block row
/// (`TILE_J` f32s) stays resident while a `TILE_K x TILE_J` panel of the
/// right-hand side stays cache-hot. Wide enough that the common model
/// widths (16–256 columns) take a single block — the i-k-j loop is
/// already streaming-friendly there and splitting would only re-read
/// the left-hand rows.
const TILE_J: usize = 512;

/// Inner-dimension block depth of the tiled dense matmul
/// (`TILE_K * TILE_J` f32s of the right-hand side per panel: 128 KiB).
const TILE_K: usize = 64;

// ----- fixed-lane accumulation ----------------------------------------

/// Width of the fixed-lane accumulator blocks every vectorized kernel
/// is written around. Reduction-style kernels accumulate `LANES`
/// partial sums — lane `l` owns the terms whose index is congruent to
/// `l` modulo `LANES`, including the `chunks_exact` remainder, whose
/// element at offset `l` lands in lane `l` — and collapse them with
/// the fixed pairwise tree in [`lane_sum`]. The width is a source
/// constant, not a probed vector width, so the accumulation order (and
/// therefore every output byte) is identical on every machine; 8 lanes
/// give LLVM room to autovectorize at both 4-wide (SSE2 baseline) and
/// 8-wide (AVX2) without changing the defined order.
pub const LANES: usize = 8;

/// The canonical reduction tree over one lane block:
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. Part of the bitwise
/// contract — see [`LANES`].
#[inline(always)]
fn lane_sum(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Canonical-lane-order dot product of two equal-length slices. Every
/// dot-reduction kernel in the workspace routes through this exact
/// sequence (or replays it per column, see [`dot_lanes_x4`]).
#[inline(always)]
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (xb, yb) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += xb[l] * yb[l];
        }
    }
    for (l, (&xv, &yv)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        acc[l] += xv * yv;
    }
    lane_sum(acc)
}

/// Four simultaneous [`dot_lanes`] against a shared left operand: the
/// register-blocked body of the `matmul_nt` microkernel. Each column's
/// lane block sees exactly the per-column [`dot_lanes`] sequence, so
/// the unrolled and single-column paths produce identical bytes.
#[inline(always)]
fn dot_lanes_x4(x: &[f32], y0: &[f32], y1: &[f32], y2: &[f32], y3: &[f32]) -> [f32; 4] {
    let mut a0 = [0.0f32; LANES];
    let mut a1 = [0.0f32; LANES];
    let mut a2 = [0.0f32; LANES];
    let mut a3 = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut c0 = y0.chunks_exact(LANES);
    let mut c1 = y1.chunks_exact(LANES);
    let mut c2 = y2.chunks_exact(LANES);
    let mut c3 = y3.chunks_exact(LANES);
    for ((((xb, b0), b1), b2), b3) in
        (&mut xc).zip(&mut c0).zip(&mut c1).zip(&mut c2).zip(&mut c3)
    {
        for l in 0..LANES {
            a0[l] += xb[l] * b0[l];
            a1[l] += xb[l] * b1[l];
            a2[l] += xb[l] * b2[l];
            a3[l] += xb[l] * b3[l];
        }
    }
    let (r0, r1, r2, r3) = (c0.remainder(), c1.remainder(), c2.remainder(), c3.remainder());
    for (l, &xv) in xc.remainder().iter().enumerate() {
        a0[l] += xv * r0[l];
        a1[l] += xv * r1[l];
        a2[l] += xv * r2[l];
        a3[l] += xv * r3[l];
    }
    [lane_sum(a0), lane_sum(a1), lane_sum(a2), lane_sum(a3)]
}

/// Lane-blocked `dst += src * s`. Streaming (one accumulator per
/// element, ascending index), so bytes match the plain scalar loop.
#[inline(always)]
fn axpy_lanes(dst: &mut [f32], src: &[f32], s: f32) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (db, sb) in (&mut dc).zip(&mut sc) {
        for l in 0..LANES {
            db[l] += sb[l] * s;
        }
    }
    for (o, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += x * s;
    }
}

/// Lane-blocked `dst += src`.
#[inline(always)]
fn add_lanes(dst: &mut [f32], src: &[f32]) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (db, sb) in (&mut dc).zip(&mut sc) {
        for l in 0..LANES {
            db[l] += sb[l];
        }
    }
    for (o, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += x;
    }
}

/// Lane-blocked `dst *= s`.
#[inline(always)]
fn scale_lanes(dst: &mut [f32], s: f32) {
    let mut dc = dst.chunks_exact_mut(LANES);
    for db in &mut dc {
        for o in db {
            *o *= s;
        }
    }
    for o in dc.into_remainder() {
        *o *= s;
    }
}

/// Lane-blocked `dst = src * s` (overwrites; dirty targets are fine).
#[inline(always)]
fn scale_store_lanes(dst: &mut [f32], src: &[f32], s: f32) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (db, sb) in (&mut dc).zip(&mut sc) {
        for l in 0..LANES {
            db[l] = sb[l] * s;
        }
    }
    for (o, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o = x * s;
    }
}

// ----- B-panel packing ------------------------------------------------

std::thread_local! {
    /// Per-thread reusable B-panel pack buffer for the tiled matmul.
    /// Minted lazily, grows monotonically to the largest panel a thread
    /// ever packs (`TILE_K * TILE_J` f32s = 128 KiB at most), and is
    /// reused for every subsequent call — the steady-state training
    /// step packs with zero heap traffic, which the train-step bench
    /// gate checks explicitly.
    static PACK_BUF: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's pack scratch, grown to at least `len`
/// floats. Growth is a once-per-thread event (see [`PACK_BUF`]);
/// steady-state calls are allocation-free.
fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Packs `strips` full [`LANES`]-wide column strips of the
/// `krange x (strips * LANES)` panel of `b` (row stride `n`, columns
/// starting at `j0`) into `pack`, strip-major and k-major within each
/// strip: strip `s` occupies `pack[s * kt * LANES..][kk * LANES + l]`
/// for `kk` in `0..kt`. The microkernel then streams each strip as one
/// contiguous run, reused across every 4-row block of the chunk.
/// Packing is a pure layout change — it never touches accumulation
/// order.
fn pack_b_panel(pack: &mut [f32], b: &[f32], n: usize, krange: Range<usize>, j0: usize, strips: usize) {
    let kt = krange.end - krange.start;
    for s in 0..strips {
        let js = j0 + s * LANES;
        let strip = &mut pack[s * kt * LANES..(s + 1) * kt * LANES];
        for (idx, row) in strip.chunks_exact_mut(LANES).enumerate() {
            let kk = krange.start + idx;
            row.copy_from_slice(&b[kk * n + js..kk * n + js + LANES]);
        }
    }
}

// ----- dense matmul ---------------------------------------------------

/// Row-partitioned dispatch for the dense kernels, with the same
/// oversubscription guard the sparse kernels inherit from their
/// `span_plan` route: dense rows are uniform, so the only planning
/// question is whether the requested threads will actually run
/// concurrently. Below two effective threads the row kernel runs
/// inline over the full range — no chunk planning, no pool handoff —
/// which is what turned the 1-CPU `matmul_tn` parallel cells from
/// "pay dispatch for nothing" into the serial path.
#[inline]
fn dense_rows_dispatch<F>(out: &mut [f32], rows: usize, threads: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    let threads = par::effective_parallelism(threads);
    if threads <= 1 {
        f(0..rows, out);
        return;
    }
    par::for_each_row_chunk(out, rows, threads, f);
}

fn assert_matmul(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Dispatch of [`matmul`]: serial i-k-j below the work threshold,
/// packed-tiled otherwise, row-partitioned across the pool when more
/// than one effective thread will run.
fn matmul_dispatch(ad: &[f32], k: usize, bd: &[f32], n: usize, m: usize, threads: usize, out: &mut [f32]) {
    let threads = par::effective_parallelism(threads);
    if threads <= 1 {
        if m * k * n < PAR_MIN_WORK {
            matmul_rows_serial(ad, k, bd, n, 0..m, out);
        } else {
            matmul_rows_tiled(ad, k, bd, n, 0..m, out);
        }
        return;
    }
    par::for_each_row_chunk(out, m, threads, |rows, chunk| {
        matmul_rows_tiled(ad, k, bd, n, rows, chunk);
    });
}

/// `dst (=|+=) a * b`, *streaming* (see [`Mode`]): packed-tiled when
/// parallel or large, the plain i-k-j loop for small shapes, bitwise
/// identical either way. The steady-state entry point for the packed
/// tiled path: the per-thread pack scratch is minted once and reused
/// (see [`PACK_BUF`]), so the call allocates nothing.
pub fn matmul(dst: &mut Matrix, a: &Matrix, b: &Matrix, mode: Mode, threads: Threads) {
    assert_matmul(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_dst(dst, (m, n), "matmul");
    if mode == Mode::Assign {
        dst.data_mut().fill(0.0);
    }
    matmul_dispatch(a.data(), k, b.data(), n, m, threads.resolve(m * k * n), dst.data_mut());
}

/// Computes output rows `rows` of `a (m x k) * b (k x n)` into the
/// row-aligned chunk `out` (`rows.len() x n`).
fn matmul_rows_serial(a: &[f32], k: usize, b: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[local * n..(local + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Row-block height of the register-blocked matmul microkernel: four
/// output rows advance together through a k-block, so each loaded
/// right-hand-side panel row is reused four times from registers
/// instead of re-read per output row.
const MICRO_MR: usize = 4;

/// Cache-blocked, panel-packed variant of [`matmul_rows_serial`]:
/// identical accumulation order per output element (k-blocks advance
/// in k order, one add per k step into that element's accumulator —
/// held in a register tile loaded from / stored back to the output
/// row), so results are bitwise equal to the serial reference.
///
/// Per (k-tile, j-tile) the full [`LANES`]-wide column strips of `b`
/// are packed k-major into a per-thread scratch ([`pack_b_panel`]) and
/// streamed contiguously by the 4x8 register microkernel, reused
/// across every 4-row block of the chunk. Leftover rows run a 1x8
/// microkernel over the same panel; leftover columns (tile width not a
/// multiple of [`LANES`]) fall back to the plain streaming loop
/// straight from `b`, which accumulates in the same order.
fn matmul_rows_tiled(a: &[f32], k: usize, b: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    let nrows = rows.len();
    if nrows == 0 || n == 0 || k == 0 {
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + TILE_K).min(k);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + TILE_J).min(n);
            let strips = (j1 - j0) / LANES;
            let jt = j0 + strips * LANES;
            let kt = k1 - k0;
            with_pack_buf(strips * kt * LANES, |pack| {
                pack_b_panel(pack, b, n, k0..k1, j0, strips);
                let mut local = 0usize;
                while local + MICRO_MR <= nrows {
                    let i = rows.start + local;
                    // Four disjoint output-row slices of the block's columns.
                    let (r0, rest) = out[local * n..].split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    for s in 0..strips {
                        let js = j0 + s * LANES;
                        let panel = &pack[s * kt * LANES..(s + 1) * kt * LANES];
                        matmul_micro_4x8(
                            a,
                            k,
                            i,
                            k0..k1,
                            panel,
                            &mut r0[js..js + LANES],
                            &mut r1[js..js + LANES],
                            &mut r2[js..js + LANES],
                            &mut r3[js..js + LANES],
                        );
                    }
                    if jt < j1 {
                        for kk in k0..k1 {
                            let a0 = a[i * k + kk];
                            let a1 = a[(i + 1) * k + kk];
                            let a2 = a[(i + 2) * k + kk];
                            let a3 = a[(i + 3) * k + kk];
                            let brow = &b[kk * n + jt..kk * n + j1];
                            for ((((&bv, o0), o1), o2), o3) in brow
                                .iter()
                                .zip(&mut r0[jt..j1])
                                .zip(&mut r1[jt..j1])
                                .zip(&mut r2[jt..j1])
                                .zip(&mut r3[jt..j1])
                            {
                                *o0 += a0 * bv;
                                *o1 += a1 * bv;
                                *o2 += a2 * bv;
                                *o3 += a3 * bv;
                            }
                        }
                    }
                    local += MICRO_MR;
                }
                for local in local..nrows {
                    let i = rows.start + local;
                    for s in 0..strips {
                        let js = j0 + s * LANES;
                        let panel = &pack[s * kt * LANES..(s + 1) * kt * LANES];
                        matmul_micro_1x8(a, k, i, k0..k1, panel, &mut out[local * n + js..local * n + js + LANES]);
                    }
                    if jt < j1 {
                        let arow = &a[i * k + k0..i * k + k1];
                        let orow = &mut out[local * n + jt..local * n + j1];
                        for (kk, &av) in arow.iter().enumerate() {
                            let brow = &b[(k0 + kk) * n + jt..(k0 + kk) * n + j1];
                            for (o, &bv) in orow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                }
            });
            j0 = j1;
        }
        k0 = k1;
    }
}

/// 4x8 register-tile microkernel of the packed matmul: loads the 4x8
/// output tile into lane accumulators, streams one packed k-major `b`
/// strip (contiguous — see [`pack_b_panel`]) against four `a` rows in
/// ascending `k`, and stores the tile back. Per output element this is
/// exactly the serial i-k-j accumulation sequence for the k-tile, so
/// k-tiles compose to the serial reference bytes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_micro_4x8(
    a: &[f32],
    k: usize,
    i: usize,
    krange: Range<usize>,
    panel: &[f32],
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let mut c0 = [0.0f32; LANES];
    let mut c1 = [0.0f32; LANES];
    let mut c2 = [0.0f32; LANES];
    let mut c3 = [0.0f32; LANES];
    c0.copy_from_slice(o0);
    c1.copy_from_slice(o1);
    c2.copy_from_slice(o2);
    c3.copy_from_slice(o3);
    let ar0 = &a[i * k + krange.start..i * k + krange.end];
    let ar1 = &a[(i + 1) * k + krange.start..(i + 1) * k + krange.end];
    let ar2 = &a[(i + 2) * k + krange.start..(i + 2) * k + krange.end];
    let ar3 = &a[(i + 3) * k + krange.start..(i + 3) * k + krange.end];
    for ((((brow, &a0), &a1), &a2), &a3) in
        panel.chunks_exact(LANES).zip(ar0).zip(ar1).zip(ar2).zip(ar3)
    {
        for l in 0..LANES {
            c0[l] += a0 * brow[l];
            c1[l] += a1 * brow[l];
            c2[l] += a2 * brow[l];
            c3[l] += a3 * brow[l];
        }
    }
    o0.copy_from_slice(&c0);
    o1.copy_from_slice(&c1);
    o2.copy_from_slice(&c2);
    o3.copy_from_slice(&c3);
}

/// Single-row twin of [`matmul_micro_4x8`] for the row remainder of a
/// chunk. Same per-element order, same panel.
#[inline(always)]
fn matmul_micro_1x8(a: &[f32], k: usize, i: usize, krange: Range<usize>, panel: &[f32], o0: &mut [f32]) {
    let mut c0 = [0.0f32; LANES];
    c0.copy_from_slice(o0);
    let ar0 = &a[i * k + krange.start..i * k + krange.end];
    for (brow, &a0) in panel.chunks_exact(LANES).zip(ar0) {
        for l in 0..LANES {
            c0[l] += a0 * brow[l];
        }
    }
    o0.copy_from_slice(&c0);
}

// ----- dense matmul, transposed variants ------------------------------

fn assert_matmul_tn(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row counts differ ({}x{} vs {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// `dst (=|+=) a^T * b` without materializing the transpose,
/// *streaming* (see [`Mode`]): one add per `i` step into each output
/// element. Output rows — columns of `a` — are partitioned across
/// workers.
pub fn matmul_tn(dst: &mut Matrix, a: &Matrix, b: &Matrix, mode: Mode, threads: Threads) {
    assert_matmul_tn(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_dst(dst, (k, n), "matmul_tn");
    if mode == Mode::Assign {
        dst.data_mut().fill(0.0);
    }
    let (ad, bd) = (a.data(), b.data());
    dense_rows_dispatch(dst.data_mut(), k, threads.resolve(m * k * n), |krows, chunk| {
        matmul_tn_rows(ad, m, k, bd, n, krows, chunk);
    });
}

/// Computes output rows `krows` (columns of `a`) of `a^T (k x m) *
/// b (m x n)` into the chunk `out`. Per output element the accumulation
/// runs over `i` in increasing order, matching the serial reference.
fn matmul_tn_rows(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    krows: Range<usize>,
    out: &mut [f32],
) {
    // Accumulation runs over `i` in ascending order per output element
    // (matching the old streaming reference bytes exactly), but the
    // element now lives in a 4x8 register tile for the whole `i` sweep
    // — loaded from the output once, stored once — instead of
    // re-streaming the output rows through memory per `i`. The four
    // tile rows are adjacent columns of `a`; the eight tile columns
    // are one lane block of `b`'s row.
    let kn = krows.len();
    if kn == 0 || n == 0 {
        return;
    }
    let strips = n / LANES;
    let jt = strips * LANES;
    let mut local = 0usize;
    while local + MICRO_MR <= kn {
        let c = krows.start + local;
        let (r0, rest) = out[local * n..].split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        for s in 0..strips {
            let js = s * LANES;
            let mut c0 = [0.0f32; LANES];
            let mut c1 = [0.0f32; LANES];
            let mut c2 = [0.0f32; LANES];
            let mut c3 = [0.0f32; LANES];
            c0.copy_from_slice(&r0[js..js + LANES]);
            c1.copy_from_slice(&r1[js..js + LANES]);
            c2.copy_from_slice(&r2[js..js + LANES]);
            c3.copy_from_slice(&r3[js..js + LANES]);
            for i in 0..m {
                let arow = &a[i * k + c..i * k + c + MICRO_MR];
                let brow = &b[i * n + js..i * n + js + LANES];
                for l in 0..LANES {
                    c0[l] += arow[0] * brow[l];
                    c1[l] += arow[1] * brow[l];
                    c2[l] += arow[2] * brow[l];
                    c3[l] += arow[3] * brow[l];
                }
            }
            r0[js..js + LANES].copy_from_slice(&c0);
            r1[js..js + LANES].copy_from_slice(&c1);
            r2[js..js + LANES].copy_from_slice(&c2);
            r3[js..js + LANES].copy_from_slice(&c3);
        }
        if jt < n {
            // Column remainder: the old streaming loop, same per-element
            // `i`-ascending order.
            for i in 0..m {
                let arow = &a[i * k + c..i * k + c + MICRO_MR];
                let brow = &b[i * n + jt..(i + 1) * n];
                for ((((&bv, o0), o1), o2), o3) in brow
                    .iter()
                    .zip(&mut r0[jt..])
                    .zip(&mut r1[jt..])
                    .zip(&mut r2[jt..])
                    .zip(&mut r3[jt..])
                {
                    *o0 += arow[0] * bv;
                    *o1 += arow[1] * bv;
                    *o2 += arow[2] * bv;
                    *o3 += arow[3] * bv;
                }
            }
        }
        local += MICRO_MR;
    }
    for local in local..kn {
        let c = krows.start + local;
        let orow = &mut out[local * n..(local + 1) * n];
        for s in 0..strips {
            let js = s * LANES;
            let mut c0 = [0.0f32; LANES];
            c0.copy_from_slice(&orow[js..js + LANES]);
            for i in 0..m {
                let av = a[i * k + c];
                let brow = &b[i * n + js..i * n + js + LANES];
                for l in 0..LANES {
                    c0[l] += av * brow[l];
                }
            }
            orow[js..js + LANES].copy_from_slice(&c0);
        }
        if jt < n {
            for i in 0..m {
                let av = a[i * k + c];
                let brow = &b[i * n + jt..(i + 1) * n];
                for (o, &bv) in orow[jt..].iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

fn assert_matmul_nt(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: column counts differ ({}x{} vs {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// `dst (=|+=) a * b^T` without materializing the transpose, *fused*
/// (see [`Mode`]): each output element's dot product is completed in a
/// register in the canonical lane order, then stored or folded into
/// `dst` with a single add.
pub fn matmul_nt(dst: &mut Matrix, a: &Matrix, b: &Matrix, mode: Mode, threads: Threads) {
    assert_matmul_nt(a, b);
    let (m, k, p) = (a.rows(), a.cols(), b.rows());
    assert_dst(dst, (m, p), "matmul_nt");
    let threads = threads.resolve(m * k * p);
    let (ad, bd) = (a.data(), b.data());
    match mode {
        Mode::Assign => dense_rows_dispatch(dst.data_mut(), m, threads, |rows, chunk| {
            matmul_nt_rows::<false>(ad, k, bd, p, rows, chunk);
        }),
        Mode::Acc => dense_rows_dispatch(dst.data_mut(), m, threads, |rows, chunk| {
            matmul_nt_rows::<true>(ad, k, bd, p, rows, chunk);
        }),
    }
}

/// Each output element is an independent [`dot_lanes`] dot product in
/// the canonical lane order, stored or added per `ACC` (see [`put`]);
/// the 4×-unrolled body ([`dot_lanes_x4`]) computes four adjacent
/// output columns per pass so `arow` is re-read from registers/L1
/// instead of streamed once per column. Per-element lane sequences are
/// unchanged between the unrolled and remainder paths, so they produce
/// identical bytes.
fn matmul_nt_rows<const ACC: bool>(a: &[f32], k: usize, b: &[f32], p: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[local * p..(local + 1) * p];
        let mut j = 0usize;
        while j + MICRO_MR <= p {
            let d = dot_lanes_x4(
                arow,
                &b[j * k..(j + 1) * k],
                &b[(j + 1) * k..(j + 2) * k],
                &b[(j + 2) * k..(j + 3) * k],
                &b[(j + 3) * k..(j + 4) * k],
            );
            put::<ACC>(&mut orow[j], d[0]);
            put::<ACC>(&mut orow[j + 1], d[1]);
            put::<ACC>(&mut orow[j + 2], d[2]);
            put::<ACC>(&mut orow[j + 3], d[3]);
            j += MICRO_MR;
        }
        for j in j..p {
            put::<ACC>(&mut orow[j], dot_lanes(arow, &b[j * k..(j + 1) * k]));
        }
    }
}

// ----- sparse matmul --------------------------------------------------

fn assert_spmm(csr: &Csr, dense: &Matrix) {
    assert_eq!(
        csr.cols(),
        dense.rows(),
        "spmm: inner dimensions differ ({}x{} * {}x{})",
        csr.rows(),
        csr.cols(),
        dense.rows(),
        dense.cols()
    );
}

/// Sparse x dense product `dst (=|+=) csr * dense`, *streaming* (see
/// [`Mode`]): per-entry partial sums stream into `dst`. Output rows are
/// partitioned; each CSR row is consumed by exactly one worker.
///
/// The chunk plan comes from the cost model: uniform-degree matrices
/// get static row chunks, skewed ones get nnz-balanced chunks under
/// the work-stealing schedule — same bytes either way, because each
/// output row is still produced by exactly one thread in the serial
/// accumulation order.
pub fn spmm(dst: &mut Matrix, csr: &Csr, dense: &Matrix, mode: Mode, threads: Threads) {
    assert_spmm(csr, dense);
    let d = dense.cols();
    assert_dst(dst, (csr.rows(), d), "spmm");
    if mode == Mode::Assign {
        dst.data_mut().fill(0.0);
    }
    let threads = threads.resolve(csr.nnz() * d);
    let dd = dense.data();
    if threads <= 1 || csr.rows() == 0 {
        spmm_rows(csr, dd, d, 0..csr.rows(), dst.data_mut());
        return;
    }
    let (ranges, schedule) = span_plan(csr.indptr(), threads);
    par::for_each_row_chunk_ranges(dst.data_mut(), csr.rows(), &ranges, threads, schedule, |rows, chunk| {
        spmm_rows(csr, dd, d, rows, chunk);
    });
}

fn spmm_rows(csr: &Csr, dense: &[f32], d: usize, rows: Range<usize>, out: &mut [f32]) {
    // One lane-blocked axpy per entry: each output element still
    // receives exactly one add per entry, in ascending entry order, so
    // bytes are unchanged by the lane restructuring. (Unrolling across
    // entries would reassociate the per-element sums — deliberately
    // not done.)
    for (local, r) in rows.enumerate() {
        let (cols, vals) = csr.row(r);
        let orow = &mut out[local * d..(local + 1) * d];
        for (&c, &v) in cols.iter().zip(vals) {
            let drow = &dense[c as usize * d..(c as usize + 1) * d];
            axpy_lanes(orow, drow, v);
        }
    }
}

fn assert_spmm_t(csr: &Csr, dense: &Matrix) {
    assert_eq!(
        csr.rows(),
        dense.rows(),
        "spmm_t: row counts differ ({}x{} vs {}x{})",
        csr.rows(),
        csr.cols(),
        dense.rows(),
        dense.cols()
    );
}

/// Transposed sparse x dense product `dst (=|+=) csr^T * dense`,
/// *streaming* (see [`Mode`]): [`spmm`] over the matrix's transpose,
/// which the `Csr` builds on the first call and caches, so later calls
/// allocate nothing. Transposed row `c` holds CSR column `c`'s entries
/// in ascending CSR row — the serial scatter's accumulation order — so
/// results stay bitwise identical to the serial reference at every
/// thread count, and the cost model balances chunks by column degree.
pub fn spmm_t(dst: &mut Matrix, csr: &Csr, dense: &Matrix, mode: Mode, threads: Threads) {
    assert_spmm_t(csr, dense);
    assert_dst(dst, (csr.cols(), dense.cols()), "spmm_t");
    spmm(dst, csr.transposed(), dense, mode, threads);
}

// ----- elementwise / gradient accumulation ----------------------------
//
// The arena-backed backward pass accumulates gradients in place through
// these kernels. All but the streaming `scatter_add_rows` are *fused*
// (see [`Mode`]): they hand each output element exactly one fully formed
// value, stored by `Assign` or folded in with a single add by `Acc`, so
// results are bitwise identical to the allocating two-step sequence at
// every thread count and for any destination contents. Elementwise work
// is embarrassingly parallel: chunks partition the flat buffer and any
// partition yields the same bytes.

fn assert_same_shape(dst: &Matrix, src: &Matrix, op: &str) {
    assert_eq!(
        dst.shape(),
        src.shape(),
        "{op}: shape mismatch {}x{} vs {}x{}",
        dst.rows(),
        dst.cols(),
        src.rows(),
        src.cols()
    );
}

/// `dst (=|+=) src`, *fused*: `Assign` copies, `Acc` is the autodiff
/// tape's gradient-accumulation primitive.
pub fn add(dst: &mut Matrix, src: &Matrix, mode: Mode, threads: Threads) {
    assert_same_shape(dst, src, "add");
    let n = dst.len();
    let threads = threads.resolve(n);
    let sd = src.data();
    match mode {
        Mode::Assign => par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
            chunk.copy_from_slice(&sd[range]);
        }),
        Mode::Acc => par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
            add_lanes(chunk, &sd[range]);
        }),
    }
}

/// `dst (=|+=) s * src` (`Acc` is axpy), *fused*.
pub fn axpy(dst: &mut Matrix, src: &Matrix, s: f32, mode: Mode, threads: Threads) {
    assert_same_shape(dst, src, "axpy");
    let n = dst.len();
    let threads = threads.resolve(n);
    let sd = src.data();
    match mode {
        Mode::Assign => par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
            scale_store_lanes(chunk, &sd[range], s);
        }),
        Mode::Acc => par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
            axpy_lanes(chunk, &sd[range], s);
        }),
    }
}

/// In-place `dst *= s` (an update of `dst` itself, so it has no mode).
pub fn scale(dst: &mut Matrix, s: f32, threads: Threads) {
    let n = dst.len();
    par::for_each_row_chunk(dst.data_mut(), n, threads.resolve(n), |_, chunk| {
        scale_lanes(chunk, s);
    });
}

/// `dst[i] (=|+=) f(a[i], b[i])`, *fused*. `f` must be pure — chunks
/// may evaluate it in any order.
pub fn zip_map<F>(dst: &mut Matrix, a: &Matrix, b: &Matrix, f: F, mode: Mode, threads: Threads)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_same_shape(dst, a, "zip_map");
    assert_same_shape(a, b, "zip_map");
    let threads = threads.resolve(dst.len());
    match mode {
        Mode::Assign => zip_map_chunks::<false, F>(dst, a.data(), b.data(), &f, threads),
        Mode::Acc => zip_map_chunks::<true, F>(dst, a.data(), b.data(), &f, threads),
    }
}

/// The chunked body of [`zip_map`], storing or adding per `ACC`.
fn zip_map_chunks<const ACC: bool, F>(dst: &mut Matrix, ad: &[f32], bd: &[f32], f: &F, threads: usize)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    let n = dst.len();
    par::for_each_row_chunk(dst.data_mut(), n, threads, |range, chunk| {
        // gnmr-analyze: allow(hot-alloc) -- Range<usize>::clone is a stack copy of two words, no heap traffic
        for ((o, &x), &y) in chunk.iter_mut().zip(&ad[range.clone()]).zip(&bd[range]) {
            put::<ACC>(o, f(x, y));
        }
    });
}

/// `dst (=|+=) src^T`, *fused*: the transpose backward contribution.
pub fn transpose(dst: &mut Matrix, src: &Matrix, mode: Mode) {
    assert_dst(dst, (src.cols(), src.rows()), "transpose");
    match mode {
        Mode::Assign => transpose_rows::<false>(dst, src),
        Mode::Acc => transpose_rows::<true>(dst, src),
    }
}

/// The loop of [`transpose`], storing or adding per `ACC`.
fn transpose_rows<const ACC: bool>(dst: &mut Matrix, src: &Matrix) {
    let (r, c) = (src.rows(), src.cols());
    let sd = src.data();
    let dd = dst.data_mut();
    for i in 0..r {
        for j in 0..c {
            put::<ACC>(&mut dd[j * r + i], sd[i * c + j]);
        }
    }
}

fn assert_mul_col(dst: &Matrix, src: &Matrix, col: &Matrix, op: &str) {
    assert_eq!(dst.shape(), src.shape(), "{op}: dst/src shape mismatch");
    assert_eq!(col.shape(), (src.rows(), 1), "{op}: col must be {}x1", src.rows());
}

/// `dst[r, c] (=|+=) src[r, c] * col[r]`, *fused*: the in-place form of
/// `src.mul_col_broadcast(col)`. Serial: the tape's broadcast backward
/// rows are too small to amortize dispatch.
pub fn mul_col_broadcast(dst: &mut Matrix, src: &Matrix, col: &Matrix, mode: Mode) {
    assert_mul_col(dst, src, col, "mul_col_broadcast");
    match mode {
        Mode::Assign => {
            for r in 0..src.rows() {
                scale_store_lanes(dst.row_mut(r), src.row(r), col.get(r, 0));
            }
        }
        Mode::Acc => {
            for r in 0..src.rows() {
                axpy_lanes(dst.row_mut(r), src.row(r), col.get(r, 0));
            }
        }
    }
}

fn assert_row_dot(dst: &Matrix, a: &Matrix, b: &Matrix, op: &str) {
    assert_eq!(a.shape(), b.shape(), "{op}: operand shape mismatch");
    assert_eq!(dst.shape(), (a.rows(), 1), "{op}: dst must be {}x1", a.rows());
}

/// `dst[r, 0] (=|+=) sum_c a[r, c] * b[r, c]`, *fused*: each row a
/// [`dot_lanes`] dot in the canonical lane order (which
/// `Matrix::row_dot` itself delegates to).
pub fn row_dot(dst: &mut Matrix, a: &Matrix, b: &Matrix, mode: Mode) {
    assert_row_dot(dst, a, b, "row_dot");
    match mode {
        Mode::Assign => row_dot_rows::<false>(dst, a, b),
        Mode::Acc => row_dot_rows::<true>(dst, a, b),
    }
}

/// The loop of [`row_dot`], storing or adding per `ACC`.
fn row_dot_rows<const ACC: bool>(dst: &mut Matrix, a: &Matrix, b: &Matrix) {
    for r in 0..a.rows() {
        put::<ACC>(&mut dst.data_mut()[r], dot_lanes(a.row(r), b.row(r)));
    }
}

fn assert_softmax_backward(dst: &Matrix, g: &Matrix, y: &Matrix, op: &str) {
    assert_eq!(g.shape(), y.shape(), "{op}: grad/output shape mismatch");
    assert_eq!(dst.shape(), y.shape(), "{op}: dst shape mismatch");
}

/// Row-softmax backward, *fused*: `dst (=|+=) y * (g - rowsum(g * y))`.
/// The row total is a [`dot_lanes`] accumulation of `g[c] * y[c]` in
/// the canonical lane order — since the lane rewrite, this (not a
/// scalar `g.hadamard(y).row_sums()` sweep) is the reference sequence
/// the equivalence suite replays.
pub fn softmax_rows_backward(dst: &mut Matrix, g: &Matrix, y: &Matrix, mode: Mode) {
    assert_softmax_backward(dst, g, y, "softmax_rows_backward");
    match mode {
        Mode::Assign => softmax_backward_rows::<false>(dst, g, y),
        Mode::Acc => softmax_backward_rows::<true>(dst, g, y),
    }
}

/// The loop of [`softmax_rows_backward`], storing or adding per `ACC`.
fn softmax_backward_rows<const ACC: bool>(dst: &mut Matrix, g: &Matrix, y: &Matrix) {
    for r in 0..y.rows() {
        let (yrow, grow) = (y.row(r), g.row(r));
        let t = dot_lanes(grow, yrow);
        let drow = dst.row_mut(r);
        for c in 0..yrow.len() {
            put::<ACC>(&mut drow[c], yrow[c] * (grow[c] - t));
        }
    }
}

/// Scatter-add, *streaming* (see [`Mode`]): `dst.row(indices[o]) +=
/// src.row(o)` for every `o` — the backward pass of `gather_rows`.
/// `Assign` zero-fills `dst` first.
///
/// The parallel path first buckets the source positions by destination
/// row with a stable counting sort (O(indices + rows), once per call),
/// so each worker touches only the updates landing in its own row
/// range — the old kernel re-scanned the whole index list per chunk,
/// which scaled with the thread count. Chunks are update-count
/// balanced and stealing-scheduled when the index distribution is
/// skewed (one hot embedding row drawing most updates). Duplicate
/// indices accumulate in their original order (the counting sort is
/// stable), so results are bitwise identical to the serial loop.
///
/// # Panics
/// If shapes disagree or any index is out of bounds.
pub fn scatter_add_rows(dst: &mut Matrix, indices: &[u32], src: &Matrix, mode: Mode, threads: Threads) {
    assert_eq!(src.rows(), indices.len(), "scatter_add_rows: index count mismatch");
    assert_eq!(src.cols(), dst.cols(), "scatter_add_rows: column count mismatch");
    let rows = dst.rows();
    for &idx in indices {
        assert!((idx as usize) < rows, "scatter_add_rows: index {idx} out of bounds for {rows} rows");
    }
    if mode == Mode::Assign {
        dst.data_mut().fill(0.0);
    }
    let d = dst.cols();
    let threads = threads.resolve(indices.len() * d);
    let sd = src.data();
    if threads <= 1 || rows == 0 || indices.is_empty() {
        // Serial reference: straight scatter in source order. Per
        // destination row this is ascending source order — the same
        // order the bucketed parallel path replays.
        let dd = dst.data_mut();
        for (o, &idx) in indices.iter().enumerate() {
            let orow = &mut dd[idx as usize * d..(idx as usize + 1) * d];
            add_lanes(orow, &sd[o * d..(o + 1) * d]);
        }
        return;
    }
    // Bucket source positions by destination row, preserving source
    // order within each bucket (stable counting sort).
    let mut spans = vec![0usize; rows + 1];
    for &idx in indices {
        spans[idx as usize + 1] += 1;
    }
    for r in 0..rows {
        spans[r + 1] += spans[r];
    }
    let mut order = vec![0u32; indices.len()];
    let mut cursor = spans.clone();
    for (o, &idx) in indices.iter().enumerate() {
        order[cursor[idx as usize]] = o as u32;
        cursor[idx as usize] += 1;
    }
    let (ranges, schedule) = span_plan(&spans, threads);
    par::for_each_row_chunk_ranges(dst.data_mut(), rows, &ranges, threads, schedule, |range, chunk| {
        for r in range.clone() {
            let orow = &mut chunk[(r - range.start) * d..][..d];
            for &o in &order[spans[r]..spans[r + 1]] {
                add_lanes(orow, &sd[o as usize * d..(o as usize + 1) * d]);
            }
        }
    });
}

/// `dst[r] = <mat.row(r), vec>` for every row — the full-catalog
/// scoring primitive, each row a [`dot_lanes`] dot in the canonical
/// lane order. Always assigns: a score sweep has no accumulate form.
pub fn row_dots(dst: &mut [f32], mat: &Matrix, vec: &[f32], threads: Threads) {
    assert_eq!(mat.cols(), vec.len(), "row_dots: vector length {} != {} cols", vec.len(), mat.cols());
    assert_eq!(dst.len(), mat.rows(), "row_dots: dst length {} != {} rows", dst.len(), mat.rows());
    let d = mat.cols();
    let md = mat.data();
    par::for_each_row_chunk(dst, mat.rows(), threads.resolve(mat.len()), |range, chunk| {
        for (o, r) in chunk.iter_mut().zip(range) {
            *o = dot_lanes(&md[r * d..(r + 1) * d], vec);
        }
    });
}

/// Canonical fixed-lane dot product of two equal-length slices — the
/// single-pair scoring primitive. Exposed so every scoring surface
/// (`Gnmr::score_pair`, the full-catalog [`row_dots`], the batched
/// [`top_k_dots`]) reduces in the exact same lane order and therefore
/// agrees bitwise on every (user, item) pair.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch {} vs {}", x.len(), y.len());
    dot_lanes(x, y)
}

/// Serial [`row_dots`]: one query against the whole catalog on the
/// calling thread, allocation-free, for callers that already run inside
/// pool workers or time one user at a time. Many queries at once go
/// through [`top_k_dots`], which streams the catalog once per chunk
/// instead of once per query.
pub fn row_dots_into(dst: &mut [f32], mat: &Matrix, vec: &[f32]) {
    row_dots(dst, mat, vec, Threads::Exact(1));
}

// ----- top-k partial selection ----------------------------------------
//
// The serving path's ranking primitive: the `k` best-scoring indices in
// the deterministic total order (score descending, index ascending on
// ties), WITHOUT sorting the full catalog. The order is total (ties are
// broken by the unique index), so the top-k sequence is unique and
// every algorithm below produces exactly the prefix a full
// `(score desc, index asc)` sort would:
//
// * one **streaming bounded heap** ([`TopKStream`]): a worst-at-root
//   heap fed candidates in ascending index order, any number of slices
//   at a time. It walks the gaps between exclusions (so the exclusion
//   cursor costs nothing per candidate) and admits a candidate only if
//   its [`sel_key`] beats the root's — one integer compare per
//   candidate, almost all failing fast, plus O(log k) maintenance per
//   admission. Because candidates arrive in ascending index, a score
//   tie with the root never displaces it, so the strict compare is
//   exactly the `(score desc, index asc)` order. It is the only heap
//   path: [`top_k_select_excluding`] feeds it one whole score slice,
//   and [`top_k_dots`] feeds it one item tile at a time, keeping each
//   user's heap in its output row and its cursor in per-thread scratch;
// * deterministic quickselect (median-of-three pivots, no entropy,
//   introsort-style depth bound collapsing to `sort_unstable_by`) once
//   `k` is a sizable fraction of the candidates, where per-candidate
//   heap maintenance would thrash. Only `top_k_select_excluding` takes
//   it; the tiled op never holds the whole score slice.
//
// Scores are ordered as `f32::total_cmp` orders them, so NaNs are
// *ordered* (positive NaN above +inf, negative NaN below -inf) instead
// of poisoning the comparison the way the historical
// `partial_cmp().unwrap_or(Equal)` full sort did.

/// `k`-to-candidate ratio at which selection switches from the bounded
/// heap to quickselect: heap while `k * QUICKSELECT_RATIO < n`. At that
/// point roughly 1/8 of candidates displace the heap root, so expected
/// maintenance (`n/8 · log k`) starts rivaling quickselect's copy +
/// partition passes.
const QUICKSELECT_RATIO: usize = 8;

/// Reusable scratch for [`top_k_select_excluding`]. Mint one per
/// scoring thread and steady-state selection performs zero heap
/// allocations: the buffer grows to `max(k, candidates)` entries once
/// and is reused thereafter.
pub struct TopKScratch {
    buf: Vec<(u32, f32)>,
}

impl TopKScratch {
    /// An empty scratch; the first selection call sizes it. `const` so
    /// thread-local scratch slots can be statically initialized.
    pub const fn new() -> Self {
        TopKScratch { buf: Vec::new() }
    }
}

impl Default for TopKScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The integer key `f32::total_cmp` orders by: the bit pattern with the
/// magnitude bits flipped for negative values, compared as `i32`. So
/// `sel_key(a) > sel_key(b)` exactly when `a.total_cmp(&b)` is
/// `Greater`.
#[inline(always)]
fn sel_key(s: f32) -> i32 {
    let bits = s.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// Whether candidate `a` ranks strictly before `b` in the deterministic
/// serving order: score descending, index ascending on score ties
/// (`total_cmp`, so NaN scores are ordered rather than incomparable).
#[inline(always)]
fn sel_before(a: (u32, f32), b: (u32, f32)) -> bool {
    match b.1.total_cmp(&a.1) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.0 < b.0,
    }
}

/// [`sel_before`] as a comparator for the final in-order sort.
#[inline(always)]
fn sel_cmp(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Restores the worst-at-root invariant below slot `i`: every child
/// ranks strictly before ([`sel_before`]) its parent, so the root is
/// the worst-ranked element kept — the admission cutoff.
#[inline]
fn sift_down_worst(heap: &mut [(u32, f32)], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        // The worse-ranked child is the swap candidate.
        let c = if r < heap.len() && sel_before(heap[l], heap[r]) { r } else { l };
        if sel_before(heap[i], heap[c]) {
            heap.swap(i, c);
            i = c;
        } else {
            return;
        }
    }
}

/// Floyd heap construction over the first `k` candidates.
fn build_worst_heap(heap: &mut [(u32, f32)]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down_worst(heap, i);
    }
}

/// Calls `f` on each maximal run of `range` that the ascending
/// `exclude` list (duplicates allowed) does not hit, in ascending
/// order. `cursor` indexes `exclude` and persists across calls over
/// consecutive ranges, so a full catalog walk costs O(n + e) with no
/// per-candidate exclusion test.
#[inline]
fn for_each_gap(exclude: &[u32], cursor: &mut usize, range: Range<usize>, mut f: impl FnMut(Range<usize>)) {
    let mut i = range.start;
    while i < range.end {
        while *cursor < exclude.len() && (exclude[*cursor] as usize) < i {
            *cursor += 1;
        }
        let stop = match exclude.get(*cursor) {
            Some(&e) if (e as usize) < range.end => e as usize,
            _ => range.end,
        };
        if i < stop {
            f(i..stop);
        }
        i = stop + 1;
    }
}

/// One query's streaming bounded top-k: how many heap slots are filled
/// and where its exclusion cursor stands. The heap itself is a
/// caller-provided `k`-slot slice, so the state is two words and many
/// queries can stream side by side.
#[derive(Clone, Copy, Default)]
struct TopKStream {
    fill: usize,
    cursor: usize,
}

impl TopKStream {
    /// Offers candidates `base..base + scores.len()` (whose scores these
    /// are) to the `heap.len()`-bounded heap (`k >= 1`), skipping
    /// `exclude`. Successive calls must cover ascending, non-overlapping
    /// ranges.
    #[inline]
    fn feed(&mut self, heap: &mut [(u32, f32)], exclude: &[u32], base: usize, scores: &[f32]) {
        let mut cursor = self.cursor;
        for_each_gap(exclude, &mut cursor, base..base + scores.len(), |gap| {
            self.admit(heap, gap.start, &scores[gap.start - base..gap.end - base]);
        });
        self.cursor = cursor;
    }

    /// Admits the run of candidates `first..first + run.len()`: the
    /// first `k` unconditionally (then heapified), the rest only if they
    /// beat the root's key.
    #[inline]
    fn admit(&mut self, heap: &mut [(u32, f32)], first: usize, run: &[f32]) {
        let k = heap.len();
        let mut i = 0;
        while self.fill < k {
            let Some(&s) = run.get(i) else { return };
            heap[self.fill] = ((first + i) as u32, s);
            self.fill += 1;
            i += 1;
            if self.fill == k {
                build_worst_heap(heap);
            }
        }
        let mut cutoff = sel_key(heap[0].1);
        for (j, &s) in run.iter().enumerate().skip(i) {
            if sel_key(s) > cutoff {
                heap[0] = ((first + j) as u32, s);
                sift_down_worst(heap, 0);
                cutoff = sel_key(heap[0].1);
            }
        }
    }

    /// Sorts the kept candidates into serving order and returns how many
    /// there are (`< heap.len()` when fewer were offered).
    fn finish(&self, heap: &mut [(u32, f32)]) -> usize {
        heap[..self.fill].sort_unstable_by(sel_cmp);
        self.fill
    }
}

/// Deterministic median-of-three pivot index for [`quickselect_topk`].
#[inline]
fn median_of_three(v: &[(u32, f32)], lo: usize, hi: usize) -> usize {
    let mid = lo + (hi - lo) / 2;
    let (a, b, c) = (v[lo], v[mid], v[hi - 1]);
    if sel_before(a, b) {
        if sel_before(b, c) {
            mid
        } else if sel_before(a, c) {
            hi - 1
        } else {
            lo
        }
    } else if sel_before(a, c) {
        lo
    } else if sel_before(b, c) {
        hi - 1
    } else {
        mid
    }
}

/// Partitions `v` so its first `k` slots hold the `k` best-ranked
/// candidates (in arbitrary order). Median-of-three pivots keep the
/// choice deterministic without entropy; an introsort-style depth bound
/// collapses pathological pivot runs to a guaranteed-`O(n log n)`
/// unstable sort. All keys are distinct under [`sel_before`] (the index
/// breaks every score tie), so no equal-key partition pathology exists.
fn quickselect_topk(v: &mut [(u32, f32)], k: usize) {
    let mut lo = 0usize;
    let mut hi = v.len();
    debug_assert!(k < hi);
    let mut depth = 2 * (usize::BITS - v.len().leading_zeros()) as usize;
    while hi - lo > 1 {
        if depth == 0 {
            v[lo..hi].sort_unstable_by(sel_cmp);
            return;
        }
        depth -= 1;
        let p = median_of_three(v, lo, hi);
        v.swap(p, hi - 1);
        let pivot = v[hi - 1];
        let mut store = lo;
        for i in lo..hi - 1 {
            if sel_before(v[i], pivot) {
                v.swap(i, store);
                store += 1;
            }
        }
        v.swap(store, hi - 1);
        // v[lo..store] rank before the pivot (now at `store`), the rest
        // after it.
        if k < store {
            hi = store;
        } else if k <= store + 1 {
            // The first k slots are exactly the k best.
            return;
        } else {
            lo = store + 1;
        }
    }
}

/// Core selection: fills `buf` with the top-`k` non-excluded candidates
/// in the deterministic `(score desc, index asc)` order. `exclude` must
/// be ascending (duplicates allowed).
fn select_into_buf(scores: &[f32], k: usize, exclude: &[u32], buf: &mut Vec<(u32, f32)>) {
    buf.clear();
    if k == 0 || scores.is_empty() {
        return;
    }
    let n = scores.len();
    if k.saturating_mul(QUICKSELECT_RATIO) < n {
        buf.resize(k, (0, 0.0));
        let mut stream = TopKStream::default();
        stream.feed(buf, exclude, 0, scores);
        let kept = stream.finish(buf);
        buf.truncate(kept);
        return;
    }
    // k is a sizable fraction of the candidates: gather them all and
    // partial-select in place.
    for_each_gap(exclude, &mut 0, 0..n, |gap| buf.extend(gap.map(|i| (i as u32, scores[i]))));
    if buf.len() > k {
        quickselect_topk(buf, k);
        buf.truncate(k);
    }
    buf.sort_unstable_by(sel_cmp);
}

/// Asserts an exclusion list is ascending — the merge-walk's contract.
fn assert_ascending(exclude: &[u32], op: &str) {
    assert!(exclude.windows(2).all(|w| w[0] <= w[1]), "{op}: exclusion list must be sorted ascending");
}

/// Top-`k` indices and scores of `scores`, skipping the ascending
/// exclusion list (seen items, training interactions; pass `&[]` for
/// none), in the deterministic `(score desc, index asc)` order, via
/// bounded partial selection — O(n + k log k) instead of the
/// full-catalog argsort. Returns fewer than `k` entries when the
/// catalog is smaller; the result is exactly the prefix a full
/// `(score desc, index asc)` sort of the non-excluded candidates would
/// produce.
pub fn top_k_select_excluding<'s>(
    scores: &[f32],
    k: usize,
    exclude: &[u32],
    scratch: &'s mut TopKScratch,
) -> &'s [(u32, f32)] {
    assert!(
        scores.len() <= u32::MAX as usize,
        "top_k_select_excluding: catalog of {} rows exceeds u32 index space",
        scores.len()
    );
    assert_ascending(exclude, "top_k_select_excluding");
    select_into_buf(scores, k, exclude, &mut scratch.buf);
    &scratch.buf
}

// ----- blocked top-k of dots ------------------------------------------
//
// Batched inner-product search: many queries (users) against one item
// matrix, each keeping its top-k. Scoring one query at a time streams
// the whole item matrix per query and runs `dot_lanes` across rows as
// a gather loop. Here each chunk of queries instead walks the items in
// tiles of `SCORE_TILE` rows, packs each tile once into `PANEL`-item
// panels, and scores every query of the chunk against the packed tile
// with a register-blocked microkernel; the tile's scores go straight
// into each query's streaming heap. Same bytes as `row_dots` +
// `top_k_select_excluding`: every score is bitwise `dot_lanes` (see
// `dot_panel`) and the selected sequence is unique.

/// Item rows per tile of [`top_k_dots`]: the packed tile is
/// `SCORE_TILE * dim` floats (192 KiB at 48 wide), sized to stay in L2
/// while every query of a chunk scores it. 512–2048 measured within 10%
/// of each other at 10^5 × 48. A multiple of [`PANEL`], so only the
/// last tile can have a ragged tail.
const SCORE_TILE: usize = 1024;

/// Items per packed panel of the scoring microkernel: `LANES` partial
/// sums × `PANEL` items fill 8 SSE2 registers. An 8-item panel spills.
const PANEL: usize = 4;

std::thread_local! {
    /// Per-thread scratch of [`top_k_dots`]: one tile of scores and one
    /// [`TopKStream`] per query of the chunk. Grows to the largest
    /// chunk a thread serves (the mint) and is reused by every later
    /// call; the packed tile itself lives in [`PACK_BUF`].
    static DOTS_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<TopKStream>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` on this thread's tile-score buffer (`SCORE_TILE` floats)
/// and `queries` zeroed stream states. Growth is a once-per-thread
/// event; steady-state calls are allocation-free.
fn with_dots_scratch<R>(queries: usize, f: impl FnOnce(&mut [f32], &mut [TopKStream]) -> R) -> R {
    DOTS_SCRATCH.with(|cell| {
        let mut cell = cell.borrow_mut();
        let (scores, streams) = &mut *cell;
        if scores.len() < SCORE_TILE {
            scores.resize(SCORE_TILE, 0.0);
        }
        if streams.len() < queries {
            streams.resize(queries, TopKStream::default());
        }
        let streams = &mut streams[..queries];
        streams.fill(TopKStream::default());
        f(scores, streams)
    })
}

/// Packs `items` (whole `PANEL`-row groups of a row-major `d`-wide
/// matrix) into panels: group `g` occupies `pack[g * PANEL * d..]` with
/// `panel[c * PANEL + j] = item_j[c]`, so the microkernel reads one
/// contiguous `PANEL`-vector per column. A pure layout change.
fn pack_item_panels(pack: &mut [f32], items: &[f32], d: usize) {
    for g in 0..items.len() / (PANEL * d).max(1) {
        let panel = &mut pack[g * PANEL * d..(g + 1) * PANEL * d];
        for j in 0..PANEL {
            let item = &items[(g * PANEL + j) * d..(g * PANEL + j + 1) * d];
            for (c, &v) in item.iter().enumerate() {
                panel[c * PANEL + j] = v;
            }
        }
    }
}

/// `PANEL` simultaneous [`dot_lanes`] of one packed panel against the
/// query `x`: `acc[l][j]` takes column `c`'s term for item `j` at lane
/// `l = c mod LANES`, in ascending `c`, with the same `item * query`
/// operand order, and each item's lanes collapse through [`lane_sum`].
/// So every result is bitwise `dot_lanes(item_j, x)`.
#[inline(always)]
fn dot_panel(x: &[f32], panel: &[f32]) -> [f32; PANEL] {
    debug_assert_eq!(panel.len(), x.len() * PANEL);
    let mut acc = [[0.0f32; PANEL]; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut pc = panel.chunks_exact(LANES * PANEL);
    for (xb, pb) in (&mut xc).zip(&mut pc) {
        for l in 0..LANES {
            for j in 0..PANEL {
                acc[l][j] += pb[l * PANEL + j] * xb[l];
            }
        }
    }
    let pr = pc.remainder();
    for (l, &xv) in xc.remainder().iter().enumerate() {
        for j in 0..PANEL {
            acc[l][j] += pr[l * PANEL + j] * xv;
        }
    }
    std::array::from_fn(|j| lane_sum(std::array::from_fn(|l| acc[l][j])))
}

/// One pool chunk of [`top_k_dots`]: `queries[rows[i]]`'s top-`k` row
/// into `out[i * k..(i + 1) * k]`, walking the items tile by tile.
#[allow(clippy::too_many_arguments)]
fn top_k_dots_chunk<'e>(
    out: &mut [(u32, f32)],
    items: &Matrix,
    queries: &Matrix,
    rows: &[u32],
    k: usize,
    exclude: &impl Fn(u32) -> &'e [u32],
    pack: &mut [f32],
    scores: &mut [f32],
    streams: &mut [TopKStream],
) {
    let (n, d) = (items.rows(), items.cols());
    let id = items.data();
    for t0 in (0..n).step_by(SCORE_TILE) {
        let t1 = (t0 + SCORE_TILE).min(n);
        let packed = (t1 - t0) / PANEL * PANEL;
        pack_item_panels(pack, &id[t0 * d..(t0 + packed) * d], d);
        let scores = &mut scores[..t1 - t0];
        for ((heap, stream), &r) in out.chunks_exact_mut(k).zip(streams.iter_mut()).zip(rows) {
            let x = queries.row(r as usize);
            for (g, s4) in scores[..packed].chunks_exact_mut(PANEL).enumerate() {
                s4.copy_from_slice(&dot_panel(x, &pack[g * PANEL * d..(g + 1) * PANEL * d]));
            }
            for (s, item) in scores[packed..].iter_mut().zip(t0 + packed..t1) {
                *s = dot_lanes(items.row(item), x);
            }
            stream.feed(heap, exclude(r), t0, scores);
        }
    }
    for (heap, stream) in out.chunks_exact_mut(k).zip(streams.iter()) {
        let kept = stream.finish(heap);
        heap[kept..].fill((u32::MAX, f32::NEG_INFINITY));
    }
}

/// Batched top-`k` inner-product search: for each `rows[i]`, the top-`k`
/// items of `<items.row(j), queries.row(rows[i])>` skipping the
/// ascending list `exclude(rows[i])`, written to
/// `dst[i * k..(i + 1) * k]` in the `(score desc, index asc)` order.
/// Rows with fewer than `k` candidates are padded with the sentinel
/// `(u32::MAX, f32::NEG_INFINITY)`; `u32::MAX` is never a real item.
///
/// Always assigns (every slot is written, `dst` is never read). Each
/// row is bitwise what [`row_dots`] + [`top_k_select_excluding`] (plus
/// the padding) would give. The batch is partitioned across the pool;
/// each chunk walks the items in packed tiles (see the section comment),
/// so the item matrix is streamed once per chunk, not once per query.
/// Once a thread has served a chunk at least as many queries long and
/// as wide, later calls perform no heap allocation.
pub fn top_k_dots<'e>(
    dst: &mut [(u32, f32)],
    items: &Matrix,
    queries: &Matrix,
    rows: &[u32],
    k: usize,
    exclude: impl Fn(u32) -> &'e [u32] + Sync,
    threads: Threads,
) {
    assert_eq!(items.cols(), queries.cols(), "top_k_dots: width mismatch ({} vs {})", items.cols(), queries.cols());
    assert_eq!(dst.len(), rows.len() * k, "top_k_dots: dst length {} != {} rows x k {}", dst.len(), rows.len(), k);
    assert!(items.rows() < u32::MAX as usize, "top_k_dots: {} items exceed the u32 index space", items.rows());
    for &r in rows {
        assert!((r as usize) < queries.rows(), "top_k_dots: query row {r} out of range ({} rows)", queries.rows());
        assert_ascending(exclude(r), "top_k_dots");
    }
    if rows.is_empty() || k == 0 {
        return;
    }
    let d = items.cols();
    let tile = SCORE_TILE.min(items.rows()) * d;
    let threads = threads.resolve(rows.len() * items.len());
    par::for_each_row_chunk(dst, rows.len(), threads, |range, chunk| {
        with_pack_buf(tile, |pack| {
            with_dots_scratch(range.len(), |scores, streams| {
                top_k_dots_chunk(chunk, items, queries, &rows[range], k, &exclude, pack, scores, streams);
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 7) as f32 * 0.13 + seed).sin())
    }

    /// A fresh zeroed `rows x cols` destination after `f` wrote into it.
    fn run(rows: usize, cols: usize, f: impl FnOnce(&mut Matrix)) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        f(&mut out);
        out
    }

    /// The plain i-k-j row kernel over every row: the small-shape path
    /// the tiled and parallel routes must reproduce bitwise.
    fn matmul_rows_reference(a: &Matrix, b: &Matrix) -> Matrix {
        run(a.rows(), b.cols(), |o| matmul_rows_serial(a.data(), a.cols(), b.data(), b.cols(), 0..a.rows(), o.data_mut()))
    }

    #[test]
    fn matmul_variants_agree_bitwise() {
        let a = mat(9, 17, 0.1);
        let b = mat(17, 23, 0.7);
        let reference = matmul_rows_reference(&a, &b);
        for threads in [1, 2, 3, 4] {
            let got = run(9, 23, |o| matmul(o, &a, &b, Mode::Acc, Threads::Exact(threads)));
            assert_eq!(got.data(), reference.data(), "threads={threads}");
        }
    }

    #[test]
    fn tiled_path_covers_multiple_blocks() {
        // Shapes straddling the tile sizes so the blocked loops execute
        // partial edge tiles.
        let a = mat(5, TILE_K + 3, 0.2);
        let b = mat(TILE_K + 3, TILE_J + 5, 0.4);
        let reference = matmul_rows_reference(&a, &b);
        let got = run(5, TILE_J + 5, |o| matmul(o, &a, &b, Mode::Acc, Threads::Exact(2)));
        assert_eq!(got.data(), reference.data());
    }

    #[test]
    fn matmul_into_overwrites_dirty_dst() {
        let a = mat(7, 9, 0.2);
        let b = mat(9, 11, 0.5);
        let reference = matmul_rows_reference(&a, &b);
        for threads in [1, 3] {
            let mut dst = Matrix::ones(7, 11);
            matmul(&mut dst, &a, &b, Mode::Assign, Threads::Exact(threads));
            assert_eq!(dst.data(), reference.data(), "threads={threads}");
        }
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = mat(8, 6, 0.3);
        let b = mat(8, 5, 0.9);
        let tn = run(6, 5, |o| matmul_tn(o, &a, &b, Mode::Assign, Threads::Exact(3)));
        assert!(tn.approx_eq(&a.transpose().matmul(&b), 1e-5));
        let c = mat(10, 6, 0.5);
        let nt = run(8, 10, |o| matmul_nt(o, &a, &c, Mode::Assign, Threads::Exact(3)));
        assert!(nt.approx_eq(&a.matmul(&c.transpose()), 1e-5));
    }

    #[test]
    fn spmm_partition_is_exact() {
        let csr = Csr::from_triplets(
            6,
            5,
            &[(0, 1, 1.0), (0, 4, -2.0), (2, 0, 3.0), (2, 1, 0.5), (5, 4, 1.5), (5, 0, -1.0)],
        );
        let x = mat(5, 7, 0.6);
        let reference = run(6, 7, |o| spmm_rows(&csr, x.data(), 7, 0..6, o.data_mut()));
        for threads in [1, 2, 4] {
            let got = run(6, 7, |o| spmm(o, &csr, &x, Mode::Acc, Threads::Exact(threads)));
            assert_eq!(got.data(), reference.data());
        }
        let xt = mat(6, 7, 0.8);
        // The serial scatter: CSR rows ascending, one axpy per entry.
        let reference_t = run(5, 7, |o| {
            for r in 0..csr.rows() {
                let (cols, vals) = csr.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    axpy_lanes(o.row_mut(c as usize), xt.row(r), v);
                }
            }
        });
        for threads in [1, 2, 4] {
            let got = run(5, 7, |o| spmm_t(o, &csr, &xt, Mode::Acc, Threads::Exact(threads)));
            assert_eq!(got.data(), reference_t.data());
        }
    }

    #[test]
    fn scatter_add_duplicates_accumulate() {
        let mut dst = Matrix::zeros(4, 2);
        let src = mat(3, 2, 0.0);
        scatter_add_rows(&mut dst, &[1, 1, 3], &src, Mode::Acc, Threads::Exact(4));
        let mut expected = Matrix::zeros(4, 2);
        for (o, &idx) in [1u32, 1, 3].iter().enumerate() {
            for c in 0..2 {
                expected[(idx as usize, c)] += src.get(o, c);
            }
        }
        assert!(dst.approx_eq(&expected, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scatter_add_rejects_bad_index() {
        let mut dst = Matrix::zeros(2, 2);
        let src = Matrix::ones(1, 2);
        scatter_add_rows(&mut dst, &[5], &src, Mode::Acc, Threads::Auto);
    }

    #[test]
    fn row_dots_matches_manual() {
        let m = mat(12, 5, 0.4);
        let v: Vec<f32> = (0..5).map(|i| i as f32 * 0.2 - 0.3).collect();
        let mut got = vec![0.0; 12];
        row_dots(&mut got, &m, &v, Threads::Exact(3));
        for (r, &g) in got.iter().enumerate() {
            let expect: f32 = m.row(r).iter().zip(&v).map(|(a, b)| a * b).sum();
            assert!((g - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn sel_key_orders_like_total_cmp() {
        let vals = [
            f32::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            2.0,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffff_ffff),
        ];
        for a in vals {
            for b in vals {
                assert_eq!(sel_key(a).cmp(&sel_key(b)), a.total_cmp(&b), "{a:?} ({:#x}) vs {b:?}", a.to_bits());
            }
        }
    }

    #[test]
    fn empty_shapes_are_fine() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(run(0, 4, |o| matmul(o, &a, &b, Mode::Assign, Threads::Exact(4))).shape(), (0, 4));
        let c = Matrix::zeros(3, 0);
        assert_eq!(run(4, 0, |o| matmul(o, &b.transpose(), &c, Mode::Assign, Threads::Exact(4))).shape(), (4, 0));
        let e = Csr::empty(0, 0);
        assert_eq!(run(0, 2, |o| spmm(o, &e, &Matrix::zeros(0, 2), Mode::Assign, Threads::Exact(4))).shape(), (0, 2));
        assert_eq!(run(0, 2, |o| spmm_t(o, &e, &Matrix::zeros(0, 2), Mode::Assign, Threads::Exact(4))).shape(), (0, 2));
    }
}
