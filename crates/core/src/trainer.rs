//! Training loop (paper Algorithm 1 and Eq. 7).
//!
//! Each step performs a full-graph forward pass, samples seed users with
//! `S` positive and `S` negative items each, scores the pairs by
//! multi-order matching, and minimizes the pairwise hinge loss
//! `max(0, 1 - Pr_{i,pos} + Pr_{i,neg})` plus Frobenius regularization
//! (as Adam weight decay) with per-epoch learning-rate decay 0.96.

use std::io;
use std::sync::Arc;

use gnmr_autograd::{pairwise_hinge, Adam, Ctx, Graph, Trainer, Var};
use gnmr_graph::{BatchSampler, MultiBehaviorGraph, TrainBatch};
use gnmr_tensor::rng::StateRng;
use gnmr_tensor::wire;

use crate::checkpoint::{Checkpointing, TrainCheckpoint};
use crate::config::TrainConfig;
use crate::model::Gnmr;

/// Summary of one training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean hinge loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Total optimization steps taken.
    pub steps: usize,
}

impl TrainReport {
    /// The final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// The training loss head (paper Eq. 7): gathers the batch's user,
/// positive-item and negative-item rows of the concatenated multi-order
/// representations, scores both pairs by `row_dot`, and returns the
/// mean pairwise hinge ([`pairwise_hinge`]) as a 1x1 tape node.
/// [`Gnmr::fit`] and the train-step bench both build their step's loss
/// through this one function, so they record the same tape.
pub fn hinge_loss(g: &mut Graph, user_orders: &[Var], item_orders: &[Var], batch: TrainBatch) -> Var {
    let user_all = g.concat_cols(user_orders);
    let item_all = g.concat_cols(item_orders);
    let u = g.gather_rows(user_all, Arc::new(batch.users));
    let p = g.gather_rows(item_all, Arc::new(batch.pos_items));
    let n = g.gather_rows(item_all, Arc::new(batch.neg_items));
    let pos_scores = g.row_dot(u, p);
    let neg_scores = g.row_dot(u, n);
    pairwise_hinge(g, pos_scores, neg_scores)
}

impl Gnmr {
    /// Trains the model on `graph` (which must be the graph the model was
    /// constructed over) and caches representations for scoring.
    ///
    /// # Panics
    /// If the graph dimensions do not match the model.
    pub fn fit(&mut self, graph: &MultiBehaviorGraph, tcfg: &TrainConfig) -> TrainReport {
        assert_eq!(graph.n_behaviors(), self.n_behaviors(), "fit: behavior count mismatch");
        self.fit_with_labels(graph, tcfg)
    }

    /// Like [`Gnmr::fit`], but allows the *label* graph (where positives
    /// and negatives are sampled) to differ in behavior set from the
    /// propagation graph the model was built on. Used by the Table IV
    /// "w/o like" ablation, where the target channel is removed from
    /// message passing but training labels still come from it.
    pub fn fit_with_labels(&mut self, labels: &MultiBehaviorGraph, tcfg: &TrainConfig) -> TrainReport {
        match self.fit_inner(labels, tcfg, None) {
            Ok(report) => report,
            // Without a checkpointing policy the loop performs no I/O,
            // so no error path exists.
            Err(e) => unreachable!("fit without checkpointing performed I/O: {e}"),
        }
    }

    /// [`Gnmr::fit`] with crash safety: atomically writes a
    /// [`TrainCheckpoint`] to `ck.path` every `ck.every` completed
    /// epochs, and when the file already exists resumes from it
    /// instead of starting over. A resumed run is
    /// **bitwise identical** to the uninterrupted run — parameters,
    /// representations, recommendations, eval output — because the
    /// checkpoint freezes every evolving input (params, Adam moments
    /// and decayed lr as exact bits, sampler RNG state, epoch counter)
    /// and everything else is pure configuration or bitwise-neutral
    /// (`tests/determinism.rs` pins this at thread counts 1/2/4).
    ///
    /// Errors surface checkpoint I/O failures (including injected
    /// faults from `ck.plan`) and resume-validation failures
    /// ([`io::ErrorKind::InvalidData`] when the checkpoint does not
    /// match this model's parameters or the training config). A run
    /// whose parameters stop being finite fails with
    /// [`io::ErrorKind::InvalidData`] naming the epoch at its next
    /// checkpoint instead of writing it. On a mid-training error the
    /// model is left partially trained without refreshed
    /// representations; the on-disk checkpoint is still whole (old or
    /// new generation, never a blend) and never holds a non-finite
    /// parameter.
    ///
    /// # Panics
    /// If the graph dimensions do not match the model.
    pub fn fit_checkpointed(
        &mut self,
        graph: &MultiBehaviorGraph,
        tcfg: &TrainConfig,
        ck: &mut Checkpointing,
    ) -> io::Result<TrainReport> {
        assert_eq!(graph.n_behaviors(), self.n_behaviors(), "fit: behavior count mismatch");
        self.fit_inner(graph, tcfg, Some(ck))
    }

    /// The shared training loop; `ck` is the only source of I/O (and
    /// therefore of errors).
    fn fit_inner(
        &mut self,
        labels: &MultiBehaviorGraph,
        tcfg: &TrainConfig,
        mut ck: Option<&mut Checkpointing>,
    ) -> io::Result<TrainReport> {
        let graph = labels;
        assert_eq!(graph.n_users(), self.n_users(), "fit: user count mismatch");
        assert_eq!(graph.n_items(), self.n_items(), "fit: item count mismatch");

        let sampler = BatchSampler::new(graph);
        // The checkpointable SplitMix64 — stream-identical to the old
        // `rng::substream` SmallRng, so training bytes are unchanged.
        let mut sample_rng = StateRng::substream(tcfg.seed, 0x7212);
        let steps_per_epoch = sampler
            .eligible_users()
            .len()
            .div_ceil(tcfg.batch_users.max(1))
            .max(1);

        // One trainer (so one gradient map) and one buffer arena (held
        // on the model) serve every step of every epoch: after the first
        // step warms the arena, the backward + optimizer path of the
        // steady state performs zero heap allocations (the `train_step`
        // bench's allocation gate pins this). Bytes are identical to the
        // old allocate-per-op path, so training results are unchanged.
        // (Warm arena state is also why resume needs no arena bytes:
        // warm-vs-fresh is pinned bitwise-neutral.)
        let mut trainer = Trainer::new(Adam::new(tcfg.lr).with_weight_decay(tcfg.weight_decay), tcfg.grad_clip);
        let mut report = TrainReport::default();
        let mut start_epoch = 0usize;
        if let Some(ck) = ck.as_deref_mut() {
            if ck.path.exists() {
                let c = TrainCheckpoint::load_with(&ck.path, &mut ck.plan)?;
                self.restore_checkpoint(&c, tcfg, &mut trainer.opt, &mut sample_rng, &mut report)?;
                start_epoch = c.epochs_done as usize;
            }
        }
        for epoch in start_epoch..tcfg.epochs {
            for _ in 0..steps_per_epoch {
                let batch = sampler.sample(tcfg.batch_users, tcfg.samples_per_user, &mut sample_rng);
                if batch.is_empty() {
                    continue;
                }
                let mut ctx = Ctx::new(&self.store);
                let (user_orders, item_orders) = self.forward(&mut ctx);
                let loss = hinge_loss(&mut ctx.g, &user_orders, &item_orders, batch);
                trainer.backward(ctx, loss, &self.arena);
                trainer.update(&mut self.store);
                report.steps += 1;
            }
            report.epoch_losses.push(trainer.end_epoch());
            if let Some(ck) = ck.as_deref_mut() {
                // Epoch boundaries are the only coherent cut points:
                // the RNG sits between epochs, the lr decay has been
                // applied, and the loss history is whole.
                if (epoch + 1) % ck.every == 0 {
                    // A diverged run must not replace the last good
                    // generation on disk with NaN/inf parameters.
                    if !self.store.all_finite() {
                        return Err(wire::bad(format!(
                            "fit: parameters are not finite after epoch {}; checkpoint not written",
                            epoch + 1
                        )));
                    }
                    let c = TrainCheckpoint::capture(&self.store, &trainer.opt, &sample_rng, epoch + 1, &report);
                    c.save_with(&ck.path, &mut ck.plan)?;
                }
            }
        }
        // Hand the last step's gradient buffers back so a future fit on
        // this model starts with a fully warm arena.
        trainer.recycle(&self.arena);

        debug_assert!(self.store.all_finite(), "parameters diverged");
        self.refresh_representations();
        Ok(report)
    }

    /// Validates a loaded checkpoint against this model and the run
    /// config, then installs it into the training state. Mismatches —
    /// a checkpoint from a different model or config — are
    /// [`io::ErrorKind::InvalidData`], never a panic: a stale file on
    /// disk is data, not a programmer error.
    fn restore_checkpoint(
        &mut self,
        c: &TrainCheckpoint,
        tcfg: &TrainConfig,
        opt: &mut Adam,
        sample_rng: &mut StateRng,
        report: &mut TrainReport,
    ) -> io::Result<()> {
        if c.epochs_done as usize > tcfg.epochs {
            return Err(wire::bad(format!(
                "checkpoint: {} completed epochs exceeds the configured {}",
                c.epochs_done, tcfg.epochs
            )));
        }
        if c.params.len() != self.store.len() {
            return Err(wire::bad(format!(
                "checkpoint: {} parameters, model has {} — wrong model or config",
                c.params.len(),
                self.store.len()
            )));
        }
        for (name, m) in &c.params {
            if !self.store.contains(name) {
                return Err(wire::bad(format!("checkpoint: parameter {name:?} not in this model")));
            }
            let w = self.store.get(name);
            if w.shape() != m.shape() {
                return Err(wire::bad(format!(
                    "checkpoint: parameter {name:?} has shape {:?}, model expects {:?}",
                    m.shape(),
                    w.shape()
                )));
            }
        }
        for (name, m, _) in &c.opt.moments {
            if !self.store.contains(name) || self.store.get(name).shape() != m.shape() {
                return Err(wire::bad(format!(
                    "checkpoint: moment {name:?} does not match a model parameter"
                )));
            }
        }
        for (name, m) in &c.params {
            *self.store.get_mut(name) = m.clone();
        }
        opt.restore_state(c.opt.clone());
        *sample_rng = StateRng::from_state(c.rng_state);
        report.steps = c.steps as usize;
        report.epoch_losses = c.epoch_losses.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GnmrConfig, GnmrVariant};
    use gnmr_data::presets;
    use gnmr_eval::{evaluate, PopularityRecommender, RandomRecommender};

    fn quick_cfg(variant: GnmrVariant) -> GnmrConfig {
        GnmrConfig {
            dim: 8,
            memory_dims: 4,
            heads: 2,
            layers: 2,
            fusion_hidden: 8,
            variant,
            pretrain: false,
            seed: 5,
            ..GnmrConfig::default()
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let d = presets::tiny_movielens(3);
        let mut model = Gnmr::new(&d.graph, quick_cfg(GnmrVariant::full()));
        let report = model.fit(&d.graph, &TrainConfig { epochs: 10, ..TrainConfig::fast_test() });
        assert_eq!(report.epoch_losses.len(), 10);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first * 0.9, "loss did not drop: {first} -> {last}");
        assert!(model.is_ready());
    }

    #[test]
    fn trained_model_beats_random_and_popularity() {
        let d = presets::tiny_movielens(3);
        let mut model = Gnmr::new(&d.graph, quick_cfg(GnmrVariant::full()));
        model.fit(&d.graph, &TrainConfig { epochs: 40, ..TrainConfig::fast_test() });
        let ns = [10];
        let gnmr = evaluate(&model, &d.test, &ns);
        let random = evaluate(&RandomRecommender::new(1), &d.test, &ns);
        let pop = evaluate(&PopularityRecommender::fit(&d.graph), &d.test, &ns);
        assert!(
            gnmr.hr_at(10) > random.hr_at(10) + 0.1,
            "GNMR {:.3} vs random {:.3}",
            gnmr.hr_at(10),
            random.hr_at(10)
        );
        // Popularity is an unusually strong floor at tiny scale (Zipf
        // exposure + uniform negatives); require GNMR to be at least
        // competitive with it. The harness-scale comparison lives in the
        // repro_table2 experiment.
        assert!(
            gnmr.hr_at(10) > pop.hr_at(10) - 0.05,
            "GNMR {:.3} far below popularity {:.3}",
            gnmr.hr_at(10),
            pop.hr_at(10)
        );
    }

    #[test]
    fn ablated_variants_still_train() {
        let d = presets::tiny_movielens(3);
        for variant in [
            GnmrVariant::without_type_embedding(),
            GnmrVariant::without_message_aggregation(),
        ] {
            let mut model = Gnmr::new(&d.graph, quick_cfg(variant));
            let report = model.fit(&d.graph, &TrainConfig::fast_test());
            assert!(report.final_loss().is_finite(), "{} diverged", variant.label());
            assert!(model.is_ready());
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = presets::tiny_movielens(3);
        let run = || {
            let mut m = Gnmr::new(&d.graph, quick_cfg(GnmrVariant::full()));
            m.fit(&d.graph, &TrainConfig { epochs: 3, ..TrainConfig::fast_test() });
            m.score_pair(0, 0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn fit_on_wrong_graph_panics() {
        let d1 = presets::tiny_movielens(3);
        let d2 = presets::tiny_taobao(3);
        let mut model = Gnmr::new(&d1.graph, quick_cfg(GnmrVariant::full()));
        model.fit(&d2.graph, &TrainConfig::fast_test());
    }
}
