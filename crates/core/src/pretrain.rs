//! Autoencoder-based embedding pre-training (paper Section III-A).
//!
//! The paper initializes the order-0 embeddings `H^0` with an
//! AutoRec-style autoencoder over the multi-behavior interaction tensor.
//! We train a one-hidden-layer autoencoder on each side's multi-behavior
//! interaction profile (the per-behavior adjacency rows summed over
//! behaviors, so every behavior contributes signal) and keep the encoder
//! output as the initial embedding.

use gnmr_autograd::{Activation, Adam, Arena, Ctx, Linear, ParamStore, Trainer};
use gnmr_graph::MultiBehaviorGraph;
use gnmr_tensor::{rng, Csr, Matrix};
use rand::seq::SliceRandom;

/// Builds the dense multi-behavior profile rows for a set of entities.
///
/// `adjacencies` are the per-behavior CSRs with the profiled entity as the
/// row dimension; row `e` of the output is `sum_k A_k[e, :]`, scaled by
/// `1 / K` so values stay in `[0, 1]`.
fn profile_rows(adjacencies: &[&Csr], rows: &[u32], width: usize) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), width);
    let k = adjacencies.len().max(1) as f32;
    for (r, &entity) in rows.iter().enumerate() {
        let orow = out.row_mut(r);
        for adj in adjacencies {
            let (cols, vals) = adj.row(entity as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                orow[c as usize] += v / k;
            }
        }
    }
    out
}

/// Trains a one-hidden-layer autoencoder over entity profiles and returns
/// the encoded embeddings (`n_entities x dim`).
fn autoencode(
    adjacencies: &[&Csr],
    n_entities: usize,
    profile_width: usize,
    dim: usize,
    epochs: usize,
    seed: u64,
) -> Matrix {
    let mut store = ParamStore::new();
    let mut init_rng = rng::substream(seed, 0xAE);
    let enc = Linear::new(&mut store, &mut init_rng, "enc", profile_width, dim);
    let dec = Linear::new(&mut store, &mut init_rng, "dec", dim, profile_width);
    // Pre-training runs at a constant lr with unclipped gradients, so
    // the trainer's epoch boundary (lr decay) is never taken.
    let mut trainer = Trainer::new(Adam::new(5e-3), 0.0);

    let mut order: Vec<u32> = (0..n_entities as u32).collect();
    let mut shuffle_rng = rng::substream(seed, 0xAF);
    let batch = 128.min(n_entities.max(1));
    // Same allocation discipline as the main trainer: one arena and one
    // trainer across all pre-training epochs, so the steady-state
    // autoencoder step's backward + optimizer path allocates nothing.
    let arena = Arena::new();
    for _ in 0..epochs {
        order.shuffle(&mut shuffle_rng);
        for chunk in order.chunks(batch) {
            let x = profile_rows(adjacencies, chunk, profile_width);
            let mut ctx = Ctx::new(&store);
            let xv = ctx.constant(x);
            let hidden_pre = enc.apply(&mut ctx, xv);
            let hidden = Activation::Tanh.apply(&mut ctx, hidden_pre);
            let recon = dec.apply(&mut ctx, hidden);
            let diff = ctx.g.sub(recon, xv);
            let sq = ctx.g.sqr(diff);
            let loss = ctx.g.mean(sq);
            trainer.backward(ctx, loss, &arena);
            trainer.update(&mut store);
        }
    }

    // Encode all entities.
    let mut embeddings = Matrix::zeros(n_entities, dim);
    let all: Vec<u32> = (0..n_entities as u32).collect();
    for chunk in all.chunks(512) {
        let x = profile_rows(adjacencies, chunk, profile_width);
        let mut ctx = Ctx::new(&store);
        let xv = ctx.constant(x);
        let hidden_pre = enc.apply(&mut ctx, xv);
        let hidden = Activation::Tanh.apply(&mut ctx, hidden_pre);
        let h = ctx.g.value(hidden);
        for (r, &entity) in chunk.iter().enumerate() {
            embeddings.row_mut(entity as usize).copy_from_slice(h.row(r));
        }
    }
    // Scale down so pre-trained H^0 starts at a comparable magnitude to
    // random init (~0.1).
    let norm = embeddings.frobenius_norm() / ((n_entities * dim) as f32).sqrt();
    if norm > 0.0 {
        embeddings.scale_assign(0.1 / norm.max(1e-6));
    }
    embeddings
}

/// Pre-trains user and item order-0 embeddings from the multi-behavior
/// graph. Deterministic given the seed.
pub fn pretrain_embeddings(
    graph: &MultiBehaviorGraph,
    dim: usize,
    epochs: usize,
    seed: u64,
) -> (Matrix, Matrix) {
    let user_adj: Vec<&Csr> = (0..graph.n_behaviors()).map(|k| graph.user_item(k).as_ref()).collect();
    let item_adj: Vec<&Csr> = (0..graph.n_behaviors()).map(|k| graph.item_user(k).as_ref()).collect();
    let users = autoencode(&user_adj, graph.n_users(), graph.n_items(), dim, epochs, seed);
    let items = autoencode(&item_adj, graph.n_items(), graph.n_users(), dim, epochs, seed ^ 0x9E37);
    (users, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnmr_data::presets;

    #[test]
    fn profiles_are_normalized_multi_hot() {
        let d = presets::tiny_movielens(3);
        let g = &d.graph;
        let adj: Vec<&Csr> = (0..g.n_behaviors()).map(|k| g.user_item(k).as_ref()).collect();
        let rows = profile_rows(&adj, &[0, 1, 2], g.n_items());
        assert_eq!(rows.shape(), (3, g.n_items()));
        assert!(rows.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // A user's profile mass equals their total degree / K.
        let expected: f32 = (0..g.n_behaviors()).map(|k| g.user_degree(0, k) as f32).sum::<f32>()
            / g.n_behaviors() as f32;
        assert!((rows.row_sums().get(0, 0) - expected).abs() < 1e-4);
    }

    #[test]
    fn pretrained_embeddings_have_shape_and_scale() {
        let d = presets::tiny_movielens(3);
        let (u, v) = pretrain_embeddings(&d.graph, 8, 2, 5);
        assert_eq!(u.shape(), (d.graph.n_users(), 8));
        assert_eq!(v.shape(), (d.graph.n_items(), 8));
        assert!(u.is_finite() && v.is_finite());
        let rms = u.frobenius_norm() / ((u.len()) as f32).sqrt();
        assert!((0.01..1.0).contains(&rms), "rms {rms}");
    }

    #[test]
    fn pretraining_is_deterministic() {
        let d = presets::tiny_movielens(3);
        let (u1, _) = pretrain_embeddings(&d.graph, 8, 2, 5);
        let (u2, _) = pretrain_embeddings(&d.graph, 8, 2, 5);
        assert!(u1.approx_eq(&u2, 0.0));
    }

    #[test]
    fn identical_profiles_get_identical_embeddings() {
        // The encoder is a deterministic function of the interaction
        // profile, so users with identical profiles must coincide exactly,
        // while users with disjoint profiles must differ.
        use gnmr_graph::{Interaction, InteractionLog, MultiBehaviorGraph};
        let mut events = Vec::new();
        for u in 0..10u32 {
            for i in 0..8u32 {
                events.push(Interaction { user: u, item: i, behavior: 0, ts: 0 });
            }
        }
        for u in 10..20u32 {
            for i in 40..48u32 {
                events.push(Interaction { user: u, item: i, behavior: 0, ts: 0 });
            }
        }
        let log = InteractionLog::new(20, 60, vec!["like".into()], events).unwrap();
        let g = MultiBehaviorGraph::from_log(&log, "like");
        let (u, _) = pretrain_embeddings(&g, 8, 3, 5);
        for a in 1..10 {
            assert_eq!(u.row(0), u.row(a), "same-profile users differ at {a}");
        }
        for a in 11..20 {
            assert_eq!(u.row(10), u.row(a));
        }
        let cross: f32 = u
            .row(0)
            .iter()
            .zip(u.row(10))
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(cross > 1e-4, "disjoint-profile users coincide");
    }
}
