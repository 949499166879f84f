//! `train`: a full `Gnmr::fit_checkpointed` on `taobao_small` with the
//! default configuration, a checkpoint every epoch, then HR/NDCG@10.
//!
//! The traced run replays the same step loop from this file (same
//! sampler substream, steps per epoch, clip and lr decay as `fit`) with a
//! span around each call into a layer, and must land on parameters
//! bitwise equal to the untraced fit's. It then hands the fitted model to
//! serving (snapshot, load, index, top-10 for every test user), the step
//! that follows training, so the serving and kernel metrics every
//! workload reports are measured on this workload's own model.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gnmr_autograd::{Adam, Arena, Ctx, Grads};
use gnmr_core::{Checkpointing, Gnmr, GnmrConfig, TrainCheckpoint, TrainConfig, TrainReport};
use gnmr_data::{presets, Dataset};
use gnmr_eval::evaluate_auto;
use gnmr_graph::BatchSampler;
use gnmr_serve::{ExcludeLists, ModelSnapshot, ServeHandle, ServeIndex};
use gnmr_tensor::fio::FaultPlan;
use gnmr_tensor::rng::StateRng;
use gnmr_tensor::Matrix;

use crate::serving::{check_rows, kernel_metrics, KernelProbe, Sample, K};
use crate::trace::{median, quantile, Tracer};
use crate::{count_allocs, Args, Report};

/// Set-ups per run; `setup_s` is their median. More than the serving
/// workloads' five: one set-up here is short and spreads more between
/// runs.
const SETUPS: usize = 9;

/// The trainer's sampler substream label (`Gnmr::fit`).
const SAMPLER_STREAM: u64 = 0x7212;
/// HR@10 of a random ranking of 1 positive among 99 negatives.
const CHANCE_HR_AT_10: f64 = 0.1;
/// Users per serving batch when the fitted model is served.
const SERVE_BATCH: usize = 256;

struct Setup {
    data: Dataset,
    model: Gnmr,
    generate_s: f64,
    model_new_s: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let data = presets::taobao_small(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = Gnmr::new(&data.graph, GnmrConfig::default());
    let model_new_s = t.elapsed().as_secs_f64();
    Setup { data, model, generate_s, model_new_s }
}

fn bitwise_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn params_bitwise_equal(a: &Gnmr, b: &Gnmr) -> bool {
    let (pa, pb) = (a.params(), b.params());
    pa.len() == pb.len()
        && pa.iter().zip(pb.iter()).all(|((na, ma), (nb, mb))| na == nb && bitwise_equal(ma, mb))
}

pub fn run(args: &Args, work: &Path, rep: &mut Report, tracer: Option<&mut Tracer>) -> Result<(), String> {
    let tcfg = TrainConfig::default();
    let mut setups: Vec<Setup> = (0..SETUPS).map(|_| setup(args.seed)).collect();
    let setup_s = median(&setups.iter().map(|s| s.generate_s + s.model_new_s).collect::<Vec<_>>());
    let generate_s = median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>());
    let model_new_s = median(&setups.iter().map(|s| s.model_new_s).collect::<Vec<_>>());
    // Construction is deterministic, so every set-up holds the same
    // initial model; the last one is kept for the traced replay.
    let replay = setups.pop().expect("SETUPS >= 2");
    let Setup { data, mut model, .. } = setups.pop().expect("SETUPS >= 2");
    drop(setups);

    let ckpt = work.join("train.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let mut ck = Checkpointing::every(&ckpt, 1);
    let t = Instant::now();
    let fit = model.fit_checkpointed(&data.graph, &tcfg, &mut ck);
    let fit_s = t.elapsed().as_secs_f64();
    let fit = match fit {
        Ok(r) => {
            rep.phase("fit", 1, 0);
            r
        }
        Err(e) => {
            rep.phase("fit", 1, 1);
            return Err(format!("fit_checkpointed: {e}"));
        }
    };
    let triples = (fit.steps * tcfg.batch_users * tcfg.samples_per_user) as f64;

    let eval = evaluate_auto(&model, &data.test, &[10]);
    rep.phase("evaluate", 1, 0);
    let first = fit.epoch_losses.first().copied().unwrap_or(f32::NAN);
    let last = fit.final_loss();
    rep.check("loss_decreases", last.is_finite() && last < first, format!("epoch loss {first} -> {last}"));
    let on_disk = TrainCheckpoint::load(&ckpt).map_err(|e| format!("checkpoint load: {e}"))?;
    rep.check(
        "checkpoint_is_final_state",
        on_disk.epochs_done as usize == tcfg.epochs
            && on_disk.params.len() == model.params().len()
            && on_disk
                .params
                .iter()
                .all(|(name, m)| model.params().contains(name) && bitwise_equal(m, model.params().get(name))),
        format!("last checkpoint holds epoch {} and the fitted parameters", on_disk.epochs_done),
    );
    rep.check(
        "epochs_complete",
        fit.epoch_losses.len() == tcfg.epochs && model.is_ready(),
        format!("{} of {} epochs", fit.epoch_losses.len(), tcfg.epochs),
    );
    rep.check(
        "hr_beats_chance",
        eval.hr_at(10) > 2.0 * CHANCE_HR_AT_10,
        format!("HR@10 {:.4} against {CHANCE_HR_AT_10} for a random ranking", eval.hr_at(10)),
    );

    let Some(tr) = tracer else {
        rep.metric("setup_s", setup_s, "s");
        rep.metric("throughput_per_s", triples / fit_s, "1/s");
        rep.metric("op_ms", fit_s * 1e3 / fit.steps as f64, "ms");
        rep.info("hr_at_10", eval.hr_at(10), "ratio");
        rep.info("ndcg_at_10", eval.ndcg_at(10), "ratio");
        return Ok(());
    };

    let mut traced = replay.model;
    let _ = std::fs::remove_file(&ckpt);
    let stats = traced_fit(&mut traced, &data, &tcfg, &ckpt, tr).map_err(|e| format!("traced fit: {e}"))?;
    rep.phase("traced_fit", 1, 0);
    rep.check(
        "traced_equals_fit",
        params_bitwise_equal(&model, &traced),
        "traced step loop ends on the fit's parameters, bit for bit",
    );
    let served = publish(&traced, &data, &work.join("fitted.snap"), rep, tr)?;
    let coverage = tr.coverage();
    rep.check(
        "trace_coverage",
        coverage >= 0.95,
        format!("per-layer self time covers {:.2}% of the traced work", coverage * 100.0),
    );

    rep.metric("data.generate_s", generate_s, "s");
    rep.metric("serve.snapshot_load_ms", median(&tr.durations_ms("serve.snapshot_load")), "ms");
    rep.metric("serve.index_build_ms", median(&tr.durations_ms("serve.index_build")), "ms");
    rep.metric("serve.handle_index_us", quantile(&tr.durations_ms("serve.handle_index"), 0.99) * 1e3, "us");
    rep.metric("serve.recommend_us_per_user", median(&served.us_per_user), "us");
    rep.metric("serve.allocs_per_user", median(&served.allocs_per_user), "count");
    rep.metric("tensor.fio_write_bytes", stats.checkpoint_bytes, "B");
    kernel_metrics(rep, tr);
    rep.metric("trace.coverage", coverage, "ratio");
    rep.metric("trace.overhead_pct", (stats.wall_s - fit_s) / fit_s * 100.0, "%");

    rep.info("core.model_new_s", model_new_s, "s");
    rep.info("core.forward_ms", median(&tr.durations_ms("core.forward")), "ms");
    rep.info("core.forward_nodes", stats.forward_nodes, "count");
    rep.info("core.forward_allocs", median(&stats.forward_allocs), "count");
    rep.info("core.checkpoint_ms", median(&tr.durations_ms("core.checkpoint")), "ms");
    rep.info("core.refresh_ms", median(&tr.durations_ms("core.refresh")), "ms");
    rep.info("graph.sample_ms", median(&tr.durations_ms("graph.sample")), "ms");
    rep.info("autograd.loss_head_ms", median(&tr.durations_ms("autograd.loss_head")), "ms");
    rep.info("autograd.backward_ms", median(&tr.durations_ms("autograd.backward")), "ms");
    rep.info("autograd.backward_allocs", median(&stats.backward_allocs), "count");
    rep.info("autograd.optim_ms", median(&tr.durations_ms("autograd.optim")), "ms");
    rep.info("serve.snapshot_bytes", served.snapshot_bytes, "B");
    Ok(())
}

/// What serving the fitted model measured.
struct Published {
    /// Batch time per user, one entry per batch.
    us_per_user: Vec<f64>,
    /// Allocations per user, one entry per batch.
    allocs_per_user: Vec<f64>,
    snapshot_bytes: f64,
}

/// Hands the fitted model to serving as a deployment would: snapshot it
/// to disk, load and index the snapshot, then serve top-`K` to every test
/// user in batches, excluding the items each already bought; then repeats
/// the first batch's users through the serving kernels.
fn publish(
    model: &Gnmr,
    data: &Dataset,
    path: &Path,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<Published, String> {
    let target = data.graph.target_user_item();
    let rows: Vec<Vec<u32>> = (0..model.n_users()).map(|u| target.row(u).0.to_vec()).collect();
    let excludes = ExcludeLists::from_rows(&rows);
    let users: Vec<u32> = data.test.iter().map(|t| t.user).collect();

    let root = tr.begin("bench.publish", None, 0);
    let s = tr.begin("serve.snapshot_capture", Some(root), 0);
    let snap = ModelSnapshot::from_model(model).map_err(|e| format!("snapshot: {e}"))?;
    tr.end(s);
    let s = tr.begin("tensor.fio_write", Some(root), 0);
    snap.save(path).map_err(|e| format!("snapshot save: {e}"))?;
    tr.end(s);
    let s = tr.begin("serve.snapshot_load", Some(root), 0);
    let loaded =
        ModelSnapshot::load_with(path, &mut FaultPlan::none()).map_err(|e| format!("snapshot load: {e}"))?;
    tr.end(s);
    let s = tr.begin("serve.index_build", Some(root), 0);
    let handle = ServeHandle::new(ServeIndex::from_snapshot(&loaded));
    tr.end(s);
    tr.end(root);
    rep.phase("publish", 1, 0);

    let mut out = vec![(0u32, 0.0f32); SERVE_BATCH * K];
    let mut samples: Vec<Sample> = Vec::new();
    let mut published = Published {
        us_per_user: Vec::new(),
        allocs_per_user: Vec::new(),
        snapshot_bytes: std::fs::metadata(path).map_err(|e| format!("snapshot size: {e}"))?.len() as f64,
    };
    for (n, batch) in users.chunks(SERVE_BATCH).enumerate() {
        let (n, len) = (n as u64, batch.len());
        let root = tr.begin("bench.batch", None, n);
        let s = tr.begin("serve.handle_index", Some(root), n);
        let index = handle.index();
        tr.end(s);
        let s = tr.begin("serve.batch", Some(root), n);
        let t = Instant::now();
        let ((), allocs) =
            count_allocs(|| index.recommend_batch_into(batch, K, &excludes, &mut out[..len * K]));
        published.us_per_user.push(t.elapsed().as_secs_f64() * 1e6 / len as f64);
        tr.end(s);
        tr.end(root);
        published.allocs_per_user.push(allocs as f64 / len as f64);
        samples.push((batch[0], out[..K].to_vec()));
        samples.push((batch[len - 1], out[(len - 1) * K..len * K].to_vec()));
    }
    rep.phase("serve_fitted", users.len() as u64, 0);
    let index = handle.index();
    check_rows(rep, &index, &excludes, &samples, "fitted_rows_match_reference");
    let probe = KernelProbe { users: &users[..users.len().min(SERVE_BATCH)], excludes: &excludes };
    probe.run(rep, tr, &loaded, &index);
    Ok(published)
}

struct TracedStats {
    forward_nodes: f64,
    forward_allocs: Vec<f64>,
    backward_allocs: Vec<f64>,
    checkpoint_bytes: f64,
    wall_s: f64,
}

/// `Gnmr::fit_checkpointed` (checkpoint every epoch) replayed step by
/// step through the public API, with a span around each layer call.
/// Forward allocation counts include binding the parameters into the
/// step's `Ctx`.
fn traced_fit(
    model: &mut Gnmr,
    data: &Dataset,
    tcfg: &TrainConfig,
    ckpt: &Path,
    tr: &mut Tracer,
) -> std::io::Result<TracedStats> {
    let sampler = BatchSampler::new(&data.graph);
    let mut opt = Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay);
    let mut rng = StateRng::substream(tcfg.seed, SAMPLER_STREAM);
    let steps_per_epoch = sampler.eligible_users().len().div_ceil(tcfg.batch_users.max(1)).max(1);
    let arena = Arena::new();
    let mut grads = Grads::default();
    let mut report = TrainReport::default();
    let mut stats = TracedStats {
        forward_nodes: 0.0,
        forward_allocs: Vec::with_capacity(tcfg.epochs * steps_per_epoch),
        backward_allocs: Vec::with_capacity(tcfg.epochs * steps_per_epoch),
        checkpoint_bytes: 0.0,
        wall_s: 0.0,
    };

    let t = Instant::now();
    let root = tr.begin("bench.fit", None, 0);
    for epoch in 0..tcfg.epochs {
        let mut epoch_loss = 0.0;
        let mut counted = 0usize;
        for _ in 0..steps_per_epoch {
            let step = report.steps as u64;
            let s = tr.begin("graph.sample", Some(root), step);
            let batch = sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut rng);
            tr.end(s);
            if batch.is_empty() {
                continue;
            }

            let s = tr.begin("core.forward", Some(root), step);
            let ((mut ctx, user_orders, item_orders), allocs) = count_allocs(|| {
                let mut ctx = Ctx::new(model.params());
                let (u, i) = model.forward(&mut ctx);
                (ctx, u, i)
            });
            tr.end(s);
            stats.forward_allocs.push(allocs as f64);
            stats.forward_nodes = ctx.g.len() as f64;

            let s = tr.begin("autograd.loss_head", Some(root), step);
            let user_all = ctx.g.concat_cols(&user_orders);
            let item_all = ctx.g.concat_cols(&item_orders);
            let u = ctx.g.gather_rows(user_all, Arc::new(batch.users));
            let p = ctx.g.gather_rows(item_all, Arc::new(batch.pos_items));
            let n = ctx.g.gather_rows(item_all, Arc::new(batch.neg_items));
            let pos_scores = ctx.g.row_dot(u, p);
            let neg_scores = ctx.g.row_dot(u, n);
            let diff = ctx.g.sub(neg_scores, pos_scores);
            let margin = ctx.g.add_scalar(diff, 1.0);
            let hinge = ctx.g.relu(margin);
            let loss = ctx.g.mean(hinge);
            epoch_loss += ctx.g.value(loss).scalar_value();
            counted += 1;
            tr.end(s);

            let s = tr.begin("autograd.backward", Some(root), step);
            let ((), allocs) = count_allocs(|| {
                ctx.grads_into(loss, &arena, &mut grads);
                drop(ctx);
            });
            tr.end(s);
            stats.backward_allocs.push(allocs as f64);

            let s = tr.begin("autograd.optim", Some(root), step);
            if tcfg.grad_clip > 0.0 {
                grads.clip_global_norm(tcfg.grad_clip);
            }
            opt.step(model.params_mut(), &grads);
            tr.end(s);
            report.steps += 1;
        }
        opt.decay_lr();
        report.epoch_losses.push(if counted > 0 { epoch_loss / counted as f32 } else { f32::NAN });

        let s = tr.begin("core.checkpoint", Some(root), epoch as u64);
        let c = TrainCheckpoint::capture(model.params(), &opt, &rng, epoch + 1, &report);
        let w = tr.begin("tensor.fio_write", Some(s), epoch as u64);
        c.save_with(ckpt, &mut FaultPlan::none())?;
        tr.end(w);
        tr.end(s);
    }
    grads.recycle(&arena);
    let s = tr.begin("core.refresh", Some(root), 0);
    model.refresh_representations();
    tr.end(s);
    tr.end(root);
    stats.wall_s = t.elapsed().as_secs_f64();
    stats.checkpoint_bytes = std::fs::metadata(ckpt)?.len() as f64;
    Ok(stats)
}
