//! Shared training configuration and helpers for the baselines.

use std::sync::Arc;

use gnmr_autograd::{pairwise_hinge, Adam, Arena, Ctx, Trainer, Var};
use gnmr_graph::{BatchSampler, MultiBehaviorGraph};
use gnmr_tensor::rng;

/// Unified training hyperparameters for the baselines (mirrors the
/// paper's setup: Adam, embedding dimension 16, pairwise ranking loss on
/// the target behavior unless a model's defining trait is a different
/// objective).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BaselineConfig {
    /// Embedding / hidden dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Seed users per step.
    pub batch_users: usize,
    /// Positive/negative pairs per user per step.
    pub samples_per_user: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Coupled L2 weight decay.
    pub weight_decay: f32,
    /// Initialization and sampling seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 25,
            batch_users: 256,
            samples_per_user: 4,
            lr: 0.01,
            weight_decay: 1e-5,
            seed: 11,
        }
    }
}

impl BaselineConfig {
    /// Fast settings for unit tests.
    pub fn fast_test() -> Self {
        Self { epochs: 12, batch_users: 64, samples_per_user: 3, lr: 0.02, ..Self::default() }
    }
}

/// The baselines' shared [`Trainer`]: Adam at `cfg`'s lr and weight
/// decay, gradients clipped to global norm 5.
pub(crate) fn trainer(cfg: &BaselineConfig) -> Trainer {
    Trainer::new(Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay), 5.0)
}

/// Runs a standard pairwise-hinge training loop: each step the `step_fn`
/// receives `(ctx, users, pos_items, neg_items)` and must return the
/// `(pos_scores, neg_scores)` column vectors; this helper applies the
/// hinge loss and one [`Trainer`] step. Returns per-epoch mean losses.
pub fn train_pairwise<F>(
    graph: &MultiBehaviorGraph,
    store: &mut gnmr_autograd::ParamStore,
    cfg: &BaselineConfig,
    mut step_fn: F,
) -> Vec<f32>
where
    F: FnMut(&mut Ctx<'_>, Arc<Vec<u32>>, Arc<Vec<u32>>, Arc<Vec<u32>>) -> (Var, Var),
{
    let sampler = BatchSampler::new(graph);
    let arena = Arena::new();
    let mut trainer = trainer(cfg);
    let mut sample_rng = rng::substream(cfg.seed, 0xBA5E);
    let steps_per_epoch = sampler
        .eligible_users()
        .len()
        .div_ceil(cfg.batch_users.max(1))
        .max(1);
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for _ in 0..steps_per_epoch {
            let batch = sampler.sample(cfg.batch_users, cfg.samples_per_user, &mut sample_rng);
            if batch.is_empty() {
                continue;
            }
            let users = Arc::new(batch.users);
            let pos = Arc::new(batch.pos_items);
            let neg = Arc::new(batch.neg_items);
            let mut ctx = Ctx::new(store);
            let (pos_scores, neg_scores) = step_fn(&mut ctx, users, pos, neg);
            let loss = pairwise_hinge(&mut ctx.g, pos_scores, neg_scores);
            trainer.backward(ctx, loss, &arena);
            trainer.update(store);
        }
        losses.push(trainer.end_epoch());
    }
    losses
}

/// Materializes selected CSR rows as a dense matrix (used by the
/// profile-based baselines DMF / AutoRec / CDAE).
pub fn dense_rows(csr: &gnmr_tensor::Csr, rows: &[u32]) -> gnmr_tensor::Matrix {
    let mut out = gnmr_tensor::Matrix::zeros(rows.len(), csr.cols());
    for (r, &entity) in rows.iter().enumerate() {
        let (cols, vals) = csr.row(entity as usize);
        let orow = out.row_mut(r);
        for (&c, &v) in cols.iter().zip(vals) {
            orow[c as usize] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_autograd::ParamStore;
    use gnmr_data::presets;
    use gnmr_tensor::init;

    #[test]
    fn dense_rows_materializes_profiles() {
        let csr = gnmr_tensor::Csr::from_triplets(3, 4, &[(0, 1, 1.0), (2, 3, 1.0), (2, 0, 1.0)]);
        let d = dense_rows(&csr, &[2, 0]);
        assert_eq!(d.shape(), (2, 4));
        assert_eq!(d.row(0), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(d.row(1), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pairwise_loop_trains_a_trivial_embedding_model() {
        let d = presets::tiny_movielens(3);
        let mut store = ParamStore::new();
        let mut rng = gnmr_tensor::rng::seeded(1);
        store.insert("u", init::normal(d.graph.n_users(), 8, 0.0, 0.1, &mut rng));
        store.insert("v", init::normal(d.graph.n_items(), 8, 0.0, 0.1, &mut rng));
        let losses = train_pairwise(
            &d.graph,
            &mut store,
            &BaselineConfig { epochs: 10, ..BaselineConfig::fast_test() },
            |ctx, users, pos, neg| {
                let u = ctx.param("u");
                let v = ctx.param("v");
                let ue = ctx.g.gather_rows(u, users);
                let pe = ctx.g.gather_rows(v, pos);
                let ne = ctx.g.gather_rows(v, neg);
                let p = ctx.g.row_dot(ue, pe);
                let n = ctx.g.row_dot(ue, ne);
                (p, n)
            },
        );
        assert_eq!(losses.len(), 10);
        assert!(losses[9] < losses[0], "no learning: {losses:?}");
        assert!(store.all_finite());
    }
}
