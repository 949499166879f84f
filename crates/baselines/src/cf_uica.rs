//! CF-UIcA (Du et al., AAAI 2018): user-item co-autoregressive
//! collaborative filtering.
//!
//! Implicit-feedback reduction, because the original models explicit
//! rating distributions and this workspace observes only interactions:
//! the score of `(u, i)` combines a user-side conditional (hidden state
//! from the user's item set, matched against the item) and an item-side
//! conditional (hidden state from the item's user set, matched against
//! the user):
//! `s(u,i) = <h_u, V_i> + <g_i, U_u> + b_i`.

use std::sync::Arc;

use gnmr_autograd::{Ctx, ParamStore, Var};
use gnmr_eval::Recommender;
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{init, rng, Matrix};

use crate::common::{train_pairwise, BaselineConfig};

/// A trained CF-UIcA model.
pub struct CfUica {
    user_hidden: Matrix,
    item_hidden: Matrix,
    item_match: Matrix,
    user_match: Matrix,
    item_bias: Matrix,
    /// Per-epoch training losses.
    pub losses: Vec<f32>,
}

impl CfUica {
    /// Trains CF-UIcA on the target behavior.
    pub fn fit(graph: &MultiBehaviorGraph, cfg: &BaselineConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init_rng = rng::substream(cfg.seed, 0xC0CA);
        store.insert("w_item", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("v_item", init::normal(graph.n_items(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("w_user", init::normal(graph.n_users(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("u_user", init::normal(graph.n_users(), cfg.dim, 0.0, 0.1, &mut init_rng));
        store.insert("b_item", Matrix::zeros(graph.n_items(), 1));
        store.insert("c_u", Matrix::zeros(1, cfg.dim));
        store.insert("c_i", Matrix::zeros(1, cfg.dim));

        let ui = Arc::new(graph.target_user_item().row_normalized());
        let iu = Arc::new(graph.item_user(graph.target()).row_normalized());

        let hiddens = |ctx: &mut Ctx<'_>| -> (Var, Var) {
            let w_item = ctx.param("w_item");
            let w_user = ctx.param("w_user");
            let c_u = ctx.param("c_u");
            let c_i = ctx.param("c_i");
            let hu_pre = ctx.g.spmm(Arc::clone(&ui), w_item);
            let hu_shift = ctx.g.add_row_broadcast(hu_pre, c_u);
            let h_user = ctx.g.tanh(hu_shift);
            let gi_pre = ctx.g.spmm(Arc::clone(&iu), w_user);
            let gi_shift = ctx.g.add_row_broadcast(gi_pre, c_i);
            let g_item = ctx.g.tanh(gi_shift);
            (h_user, g_item)
        };

        let losses = train_pairwise(graph, &mut store, cfg, |ctx, users, pos, neg| {
            let (h_user, g_item) = hiddens(ctx);
            let v_item = ctx.param("v_item");
            let u_user = ctx.param("u_user");
            let b = ctx.param("b_item");
            let hu = ctx.g.gather_rows(h_user, users.clone());
            let uu = ctx.g.gather_rows(u_user, users);
            let score = |ctx: &mut Ctx<'_>, items: Arc<Vec<u32>>| {
                let vi = ctx.g.gather_rows(v_item, items.clone());
                let gi = ctx.g.gather_rows(g_item, items.clone());
                let bi = ctx.g.gather_rows(b, items);
                let user_side = ctx.g.row_dot(hu, vi);
                let item_side = ctx.g.row_dot(gi, uu);
                let both = ctx.g.add(user_side, item_side);
                ctx.g.add(both, bi)
            };
            let p = score(ctx, pos);
            let n = score(ctx, neg);
            (p, n)
        });

        let (user_hidden, item_hidden) = {
            let mut ctx = Ctx::new(&store);
            let (h, g) = hiddens(&mut ctx);
            (ctx.g.value(h).clone(), ctx.g.value(g).clone())
        };
        Self {
            user_hidden,
            item_hidden,
            item_match: store.get("v_item").clone(),
            user_match: store.get("u_user").clone(),
            item_bias: store.get("b_item").clone(),
            losses,
        }
    }
}

impl Recommender for CfUica {
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let h = self.user_hidden.row(user as usize);
        let uu = self.user_match.row(user as usize);
        items
            .iter()
            .map(|&i| {
                let user_side: f32 =
                    h.iter().zip(self.item_match.row(i as usize)).map(|(a, b)| a * b).sum();
                let item_side: f32 =
                    self.item_hidden.row(i as usize).iter().zip(uu).map(|(a, b)| a * b).sum();
                user_side + item_side + self.item_bias.get(i as usize, 0)
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
    fn trains_and_beats_random() {
        let d = presets::tiny_movielens(3);
        let m = CfUica::fit(&d.graph, &BaselineConfig { epochs: 20, ..BaselineConfig::fast_test() });
        assert!(m.losses.last().unwrap() < &m.losses[0]);
        let r = evaluate(&m, &d.test, &[10]);
        let rnd = evaluate(&RandomRecommender::new(1), &d.test, &[10]);
        assert!(r.hr_at(10) > rnd.hr_at(10), "CF-UIcA {:.3} vs random {:.3}", r.hr_at(10), rnd.hr_at(10));
    }

    #[test]
    fn both_sides_contribute() {
        let d = presets::tiny_movielens(3);
        let m = CfUica::fit(&d.graph, &BaselineConfig { epochs: 5, ..BaselineConfig::fast_test() });
        // Neither hidden side should be identically zero.
        assert!(m.user_hidden.max_abs() > 1e-4);
        assert!(m.item_hidden.max_abs() > 1e-4);
    }
}
