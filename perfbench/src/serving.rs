//! The serving catalog shared by `batch_topk` and `online_reload`, its
//! set-up, the full-sort reference, and the `batch_topk` workload.
//!
//! The catalog is synthetic: serving cost depends only on shapes, so
//! 10^5 items (the paper's Taobao item set has 99,037) by 48 columns
//! (the default model's representation width `dim * (layers + 1)`)
//! stands in for a trained model of that size.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gnmr_serve::{ExcludeLists, ModelSnapshot, ServeHandle, ServeIndex};
use gnmr_tensor::fio::FaultPlan;
use gnmr_tensor::{init, kernels, rng, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::trace::{median, quantile, Tracer};
use crate::{count_allocs, Args, Report};

pub const N_ITEMS: usize = 100_000;
const WIDTH: usize = 48;
pub const N_USERS: usize = 2048;
/// Items excluded per user (already seen), sorted.
const EXCLUDED: usize = 32;
pub const K: usize = 10;
const BATCH: usize = 256;
const _: () = assert!(N_USERS.is_multiple_of(BATCH), "batches tile the user order");
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rows of the batch output checked against the full-sort reference.
const CHECKED_ROWS: usize = 48;

/// One snapshot generation's representations.
fn representations(seed: u64, generation: u64) -> (Matrix, Matrix) {
    let mut r = rng::substream(seed, 0x5E47 + generation);
    let users = init::normal(N_USERS, WIDTH, 0.0, 1.0, &mut r);
    let items = init::normal(N_ITEMS, WIDTH, 0.0, 1.0, &mut r);
    (users, items)
}

fn exclusions(seed: u64) -> ExcludeLists {
    let mut r = rng::substream(seed, 0xE8C1);
    let rows: Vec<Vec<u32>> = (0..N_USERS)
        .map(|_| {
            let mut row: Vec<u32> = Vec::with_capacity(EXCLUDED);
            while row.len() < EXCLUDED {
                let item = r.gen_range(0..N_ITEMS as u32);
                if !row.contains(&item) {
                    row.push(item);
                }
            }
            row
        })
        .collect();
    ExcludeLists::from_rows(&rows)
}

/// A ready serving stack plus what building it cost.
pub struct Served {
    pub handle: ServeHandle,
    pub excludes: ExcludeLists,
    /// Snapshot paths, one per generation, in generation order.
    pub paths: Vec<PathBuf>,
    pub setup_s: f64,
    pub generate_s: f64,
    pub snapshot_load_ms: f64,
    pub index_build_ms: f64,
    /// Bytes of one snapshot file.
    pub snapshot_bytes: f64,
}

/// Generates `generations` catalogs, writes each as a snapshot, loads
/// generation 0 back and serves it; repeated [`SETUPS`] times, reporting
/// the median of each part.
pub fn setup(seed: u64, generations: u64, work: &Path) -> Result<Served, String> {
    let mut last = None;
    let (mut total, mut gen, mut load, mut build) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let reprs: Vec<(Matrix, Matrix)> = (0..generations).map(|g| representations(seed, g)).collect();
        let excludes = exclusions(seed);
        gen.push(t.elapsed().as_secs_f64());
        let mut paths = Vec::new();
        for (g, (u, v)) in reprs.into_iter().enumerate() {
            let path = work.join(format!("gen{g}.snap"));
            ModelSnapshot::new(Vec::new(), u, v).save(&path).map_err(|e| format!("snapshot save: {e}"))?;
            paths.push(path);
        }
        let t1 = Instant::now();
        let snap = ModelSnapshot::load_with(&paths[0], &mut FaultPlan::none())
            .map_err(|e| format!("snapshot load: {e}"))?;
        load.push(t1.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let index = ServeIndex::from_snapshot(&snap);
        build.push(t1.elapsed().as_secs_f64() * 1e3);
        let handle = ServeHandle::new(index);
        total.push(t.elapsed().as_secs_f64());
        last = Some((handle, excludes, paths));
    }
    let (handle, excludes, paths) = last.expect("SETUPS >= 1");
    let snapshot_bytes =
        std::fs::metadata(&paths[0]).map_err(|e| format!("snapshot size: {e}"))?.len() as f64;
    Ok(Served {
        handle,
        excludes,
        paths,
        setup_s: median(&total),
        generate_s: median(&gen),
        snapshot_load_ms: median(&load),
        index_build_ms: median(&build),
        snapshot_bytes,
    })
}

/// Top-`K` by a full sort of every non-excluded item scored with
/// [`ServeIndex::score`], in the `(score desc, item asc)` order.
pub fn reference(index: &ServeIndex, user: u32, exclude: &[u32]) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = (0..index.n_items() as u32)
        .filter(|i| exclude.binary_search(i).is_err())
        .map(|i| (i, index.score(user, i)))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(K);
    all
}

/// A served `(user, top-K row)` kept for checking.
pub type Sample = (u32, Vec<(u32, f32)>);

pub fn same_list(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The fixed user order: every user once per pass, shuffled by the seed.
fn user_order(seed: u64) -> Vec<u32> {
    let mut users: Vec<u32> = (0..N_USERS as u32).collect();
    users.shuffle(&mut rng::substream(seed, 0xBA7C));
    users
}

/// What a stretch of batches measured: the time of each batch, the
/// sampled `(user, row)` outputs, and (traced) allocations per batch.
struct Batches {
    batch_s: Vec<f64>,
    samples: Vec<Sample>,
    allocs: Vec<f64>,
}

/// Runs batches for `seconds`, walking the user order round-robin.
fn batches(served: &Served, users: &[u32], seconds: f64, seed: u64, mut tr: Option<&mut Tracer>) -> Batches {
    let mut pick = rng::substream(seed, 0xC4EC);
    let mut out = vec![(0u32, 0.0f32); BATCH * K];
    let mut b = Batches { batch_s: Vec::new(), samples: Vec::new(), allocs: Vec::new() };
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        let at = (n as usize * BATCH) % users.len();
        let batch = &users[at..at + BATCH];
        let t = Instant::now();
        match tr.as_deref_mut() {
            None => served.handle.index().recommend_batch_into(batch, K, &served.excludes, &mut out),
            Some(tr) => {
                let root = tr.begin("bench.batch", None, n);
                let s = tr.begin("serve.handle_index", Some(root), n);
                let index = served.handle.index();
                tr.end(s);
                let s = tr.begin("serve.batch", Some(root), n);
                let ((), a) =
                    count_allocs(|| index.recommend_batch_into(batch, K, &served.excludes, &mut out));
                tr.end(s);
                tr.end(root);
                b.allocs.push(a as f64);
            }
        }
        b.batch_s.push(t.elapsed().as_secs_f64());
        if b.samples.len() < CHECKED_ROWS {
            let row = pick.gen_range(0..BATCH);
            b.samples.push((batch[row], out[row * K..(row + 1) * K].to_vec()));
        }
        n += 1;
    }
    b
}

impl Batches {
    /// Users served per second of batch time, over the whole stretch.
    fn users_per_s(&self) -> f64 {
        (self.batch_s.len() * BATCH) as f64 / self.batch_s.iter().sum::<f64>()
    }

    fn median_ms(&self) -> f64 {
        median(&self.batch_s) * 1e3
    }
}

pub fn run_batch(
    args: &Args,
    work: &Path,
    rep: &mut Report,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let served = setup(args.seed, 1, work)?;
    let users = user_order(args.seed);
    // Warm every pool worker's scratch at this catalog size.
    let mut warm = vec![(0u32, 0.0f32); BATCH * K];
    served.handle.index().recommend_batch_into(&users[..BATCH], K, &served.excludes, &mut warm);

    let untraced = batches(&served, &users, args.seconds, args.seed, None);
    rep.phase("batches", untraced.batch_s.len() as u64, 0);
    check_rows(
        rep,
        &served.handle.index(),
        &served.excludes,
        &untraced.samples,
        "batch_rows_match_reference",
    );

    let Some(tr) = tracer else {
        rep.metric("setup_s", served.setup_s, "s");
        rep.metric("throughput_per_s", untraced.users_per_s(), "1/s");
        rep.metric("op_ms", untraced.median_ms(), "ms");
        return Ok(());
    };

    let traced = batches(&served, &users, args.seconds, args.seed ^ 1, Some(&mut *tr));
    rep.phase("traced_batches", traced.batch_s.len() as u64, 0);
    check_rows(rep, &served.handle.index(), &served.excludes, &traced.samples, "traced_rows_match_reference");

    let snap = ModelSnapshot::load(&served.paths[0]).map_err(|e| format!("snapshot load: {e}"))?;
    let probe = KernelProbe { users: &users[..BATCH], excludes: &served.excludes };
    probe.run(rep, tr, &snap, &served.handle.index());
    let coverage = tr.coverage();
    rep.check(
        "trace_coverage",
        coverage >= 0.95,
        format!("per-layer self time covers {:.2}%", coverage * 100.0),
    );

    let batch_ms = tr.durations_ms("serve.batch");
    rep.metric("data.generate_s", served.generate_s, "s");
    rep.metric("serve.snapshot_load_ms", served.snapshot_load_ms, "ms");
    rep.metric("serve.index_build_ms", served.index_build_ms, "ms");
    rep.metric("serve.handle_index_us", quantile(&tr.durations_ms("serve.handle_index"), 0.99) * 1e3, "us");
    rep.metric("serve.recommend_us_per_user", median(&batch_ms) * 1e3 / BATCH as f64, "us");
    rep.metric("serve.allocs_per_user", median(&traced.allocs) / BATCH as f64, "count");
    rep.metric("tensor.fio_write_bytes", served.snapshot_bytes, "B");
    kernel_metrics(rep, tr);
    rep.metric("trace.coverage", coverage, "ratio");
    rep.metric("trace.overhead_pct", (traced.median_ms() / untraced.median_ms() - 1.0) * 100.0, "%");
    rep.info("serve.batch_ms", median(&batch_ms), "ms");
    rep.info("serve.batch_allocs", median(&traced.allocs), "count");
    Ok(())
}

/// The serving kernels, called one user at a time on the calling thread
/// on a workload's own inputs: what one user's top-`K` costs in
/// `row_dots_into` against `top_k_select_excluding`.
pub struct KernelProbe<'a> {
    pub users: &'a [u32],
    pub excludes: &'a ExcludeLists,
}

impl KernelProbe<'_> {
    /// Runs the probe as one root span and checks its first rows against
    /// the full-sort reference on `index`, which serves `snap`.
    pub fn run(&self, rep: &mut Report, tr: &mut Tracer, snap: &ModelSnapshot, index: &ServeIndex) {
        let (urepr, irepr) = (snap.user_repr(), snap.item_repr());
        let mut scores = vec![0.0f32; irepr.rows()];
        let mut scratch = kernels::TopKScratch::new();
        let root = tr.begin("bench.kernels", None, 0);
        let mut ok = true;
        for (i, &user) in self.users.iter().enumerate() {
            let exclude = self.excludes.row(user as usize);
            let s = tr.begin("tensor.row_dots", Some(root), i as u64);
            kernels::row_dots_into(&mut scores, irepr, urepr.row(user as usize));
            tr.end(s);
            let s = tr.begin("tensor.topk", Some(root), i as u64);
            let sel = kernels::top_k_select_excluding(&scores, K, exclude, &mut scratch);
            tr.end(s);
            if i < 4 {
                ok &= same_list(sel, &reference(index, user, exclude));
            }
        }
        tr.end(root);
        rep.phase("kernel_probe", self.users.len() as u64, u64::from(!ok));
        rep.check("kernel_rows_match_reference", ok, "row_dots_into + top_k_select_excluding");
    }
}

/// The per-user kernel times of the probe's spans.
pub fn kernel_metrics(rep: &mut Report, tr: &Tracer) {
    rep.metric("tensor.row_dots_us_per_user", median(&tr.durations_ms("tensor.row_dots")) * 1e3, "us");
    rep.metric("tensor.topk_us_per_user", median(&tr.durations_ms("tensor.topk")) * 1e3, "us");
}

/// Checks sampled served rows against the full-sort reference on `index`.
pub fn check_rows(
    rep: &mut Report,
    index: &ServeIndex,
    excludes: &ExcludeLists,
    samples: &[Sample],
    name: &str,
) {
    let bad = samples
        .iter()
        .filter(|(user, row)| !same_list(row, &reference(index, *user, excludes.row(*user as usize))))
        .count();
    rep.check(name, bad == 0, format!("{} of {} sampled rows differ", bad, samples.len()));
}
