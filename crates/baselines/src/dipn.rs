//! DIPN (Guo et al., KDD 2019): deep intent prediction network —
//! attention over a GRU run across the user's time-ordered multi-behavior
//! interaction sequence.
//!
//! Reduction: the original predicts real-time purchasing intent from
//! rich page features, which the workspace's datasets do not carry;
//! here the sequence elements are `item embedding + behavior-type
//! embedding` over the user's last `T` training events, the GRU's states
//! are attention-pooled into a user intent vector, and the score is its
//! dot product with a separate output item embedding.

use std::sync::Arc;

use gnmr_autograd::{pairwise_hinge, Arena, Ctx, GruCell, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::{BatchSampler, InteractionLog, MultiBehaviorGraph};
use gnmr_tensor::{init, rng, Matrix};

use crate::common::{self, BaselineConfig};

/// Sequence length used by the GRU.
const SEQ_LEN: usize = 12;

/// A trained DIPN model.
pub struct Dipn {
    user_intent: Matrix,
    item_out: Matrix,
    item_bias: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

/// Per-user fixed-length `(item, behavior)` sequences, most recent last;
/// users with fewer than `SEQ_LEN` events repeat their earliest event
/// (left padding with real signal).
fn build_sequences(log: &InteractionLog, n_users: usize) -> Vec<Vec<(u32, u8)>> {
    (0..n_users as u32)
        .map(|u| {
            let timeline = log.user_timeline(u);
            let mut seq: Vec<(u32, u8)> = timeline.iter().map(|e| (e.item, e.behavior)).collect();
            if seq.is_empty() {
                seq.push((0, 0));
            }
            if seq.len() > SEQ_LEN {
                seq = seq[seq.len() - SEQ_LEN..].to_vec();
            }
            while seq.len() < SEQ_LEN {
                seq.insert(0, seq[0]);
            }
            seq
        })
        .collect()
}

struct DipnNet {
    gru: GruCell,
    dim: usize,
}

impl DipnNet {
    /// Runs the GRU + attention pooling for a batch of users, returning
    /// the `(batch, dim)` intent representations.
    fn intent(&self, ctx: &mut Ctx<'_>, sequences: &[Vec<(u32, u8)>], users: &[u32]) -> Var {
        let item_emb = ctx.param("item_in");
        let beh_emb = ctx.param("beh_in");
        let att_w = ctx.param("att.w");
        let att_v = ctx.param("att.v");

        let mut h = ctx.constant(Matrix::zeros(users.len(), self.dim));
        let mut states = Vec::with_capacity(SEQ_LEN);
        // `t` walks time steps of every user's sequence in lockstep, so a
        // plain index loop is clearer than zipping SEQ_LEN iterators.
        #[allow(clippy::needless_range_loop)]
        for t in 0..SEQ_LEN {
            let items: Vec<u32> = users.iter().map(|&u| sequences[u as usize][t].0).collect();
            let behaviors: Vec<u32> =
                users.iter().map(|&u| sequences[u as usize][t].1 as u32).collect();
            let ie = ctx.g.gather_rows(item_emb, Arc::new(items));
            let be = ctx.g.gather_rows(beh_emb, Arc::new(behaviors));
            let x = ctx.g.add(ie, be);
            h = self.gru.step(ctx, x, h);
            states.push(h);
        }
        // Attention pooling over time steps.
        let mut scores = Vec::with_capacity(SEQ_LEN);
        for &s in &states {
            let proj = ctx.g.matmul(s, att_w);
            let act = ctx.g.tanh(proj);
            scores.push(ctx.g.matmul(act, att_v)); // (batch, 1)
        }
        let score_mat = ctx.g.concat_cols(&scores); // (batch, T)
        let weights = ctx.g.softmax_rows(score_mat);
        let mut pooled: Option<Var> = None;
        for (t, &s) in states.iter().enumerate() {
            let w = ctx.g.slice_cols(weights, t, t + 1);
            let term = ctx.g.mul_col_broadcast(s, w);
            pooled = Some(match pooled {
                Some(p) => ctx.g.add(p, term),
                None => term,
            });
        }
        pooled.expect("SEQ_LEN >= 1")
    }
}

impl Dipn {
    /// Trains DIPN on the training log's behavior sequences.
    pub fn fit(graph: &MultiBehaviorGraph, log: &InteractionLog, cfg: &BaselineConfig) -> Self {
        assert_eq!(graph.n_users(), log.n_users() as usize, "graph/log user mismatch");
        let sequences = build_sequences(log, graph.n_users());

        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0xD19A);
        store.insert("item_in", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("beh_in", init::normal(graph.n_behaviors(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("item_out", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("item_bias", Matrix::zeros(graph.n_items(), 1));
        store.insert("att.w", init::xavier_uniform(cfg.dim, cfg.dim, &mut init_rng));
        store.insert("att.v", init::xavier_uniform(cfg.dim, 1, &mut init_rng));
        let gru = GruCell::new(&mut store, &mut init_rng, "gru", cfg.dim, cfg.dim);
        let net = DipnNet { gru, dim: cfg.dim };

        let sampler = BatchSampler::new(graph);
        let arena = Arena::new();
        let mut trainer = common::trainer(cfg);
        let mut sample_rng = rng::substream(cfg.seed, 0xD19B);
        let steps = sampler
            .eligible_users()
            .len()
            .div_ceil(cfg.batch_users.max(1))
            .max(1);
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            for _ in 0..steps {
                let batch = sampler.sample(cfg.batch_users, cfg.samples_per_user, &mut sample_rng);
                if batch.is_empty() {
                    continue;
                }
                let mut ctx = Ctx::new(&store);
                let intent = net.intent(&mut ctx, &sequences, &batch.users);
                let item_out = ctx.param("item_out");
                let bias = ctx.param("item_bias");
                let score = |ctx: &mut Ctx<'_>, items: Vec<u32>| {
                    let items = Arc::new(items);
                    let ie = ctx.g.gather_rows(item_out, items.clone());
                    let be = ctx.g.gather_rows(bias, items);
                    let dot = ctx.g.row_dot(intent, ie);
                    ctx.g.add(dot, be)
                };
                let p = score(&mut ctx, batch.pos_items);
                let n = score(&mut ctx, batch.neg_items);
                let loss = pairwise_hinge(&mut ctx.g, p, n);
                trainer.backward(ctx, loss, &arena);
                trainer.update(&mut store);
            }
            losses.push(trainer.end_epoch());
        }

        // Materialize intent vectors for all users.
        let all: Vec<u32> = (0..graph.n_users() as u32).collect();
        let mut user_intent = Matrix::zeros(graph.n_users(), cfg.dim);
        for chunk in all.chunks(256) {
            let mut ctx = Ctx::new(&store);
            let intent = net.intent(&mut ctx, &sequences, chunk);
            let v = ctx.g.value(intent);
            for (row, &u) in chunk.iter().enumerate() {
                user_intent.row_mut(u as usize).copy_from_slice(v.row(row));
            }
        }
        Self {
            user_intent,
            item_out: store.get("item_out").clone(),
            item_bias: store.get("item_bias").clone(),
            losses,
        }
    }
}

impl Recommender for Dipn {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let u = self.user_intent.row(user as usize);
        items
            .iter()
            .map(|&i| {
                let dot: f32 = u.iter().zip(self.item_out.row(i as usize)).map(|(a, b)| a * b).sum();
                dot + self.item_bias.get(i as usize, 0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_data::presets;
    use gnmr_eval::{evaluate, RandomRecommender};

    #[test]
    fn sequences_are_fixed_length_and_time_ordered() {
        let d = presets::tiny_taobao(3);
        let seqs = build_sequences(&d.train_log, d.graph.n_users());
        assert_eq!(seqs.len(), d.graph.n_users());
        for s in &seqs {
            assert_eq!(s.len(), SEQ_LEN);
        }
    }

    #[test]
    fn trains_and_beats_random() {
        let d = presets::tiny_movielens(3);
        let m = Dipn::fit(&d.graph, &d.train_log, &BaselineConfig { epochs: 12, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap().is_finite());
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10), "DIPN {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn intent_vectors_differ_across_users() {
        let d = presets::tiny_movielens(3);
        let m = Dipn::fit(&d.graph, &d.train_log, &BaselineConfig { epochs: 2, ..BaselineConfig::fast_test() });
        assert!(m.user_intent.row(0) != m.user_intent.row(1));
        assert!(m.user_intent.is_finite());
    }
}
