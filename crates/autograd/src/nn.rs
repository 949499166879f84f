//! Small neural-network building blocks shared by GNMR and the baselines.
//!
//! Each block registers its parameters in a [`ParamStore`] under a unique
//! name prefix at construction time and binds them through a [`Ctx`] when
//! applied, so the same block definition is reused across training steps.

use gnmr_tensor::{init, Matrix};
use rand::Rng;

use crate::params::{Ctx, ParamStore};
use crate::tape::{Graph, Var};

/// The pairwise hinge loss of the paper's Eq. 7,
/// `mean(max(0, 1 - pos + neg))`, over matching `(n, 1)` columns of
/// positive and negative scores, as a 1x1 tape node. GNMR and every
/// pairwise-trained baseline score their batches through this one head.
pub fn pairwise_hinge(g: &mut Graph, pos: Var, neg: Var) -> Var {
    let diff = g.sub(neg, pos);
    let margin = g.add_scalar(diff, 1.0);
    let hinge = g.relu(margin);
    g.mean(hinge)
}

/// Activation functions used between layers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.2 (the NGCF default).
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, ctx: &mut Ctx<'_>, x: Var) -> Var {
        match self {
            Activation::None => x,
            Activation::Relu => ctx.g.relu(x),
            Activation::LeakyRelu => ctx.g.leaky_relu(x, 0.2),
            Activation::Sigmoid => ctx.g.sigmoid(x),
            Activation::Tanh => ctx.g.tanh(x),
        }
    }
}

/// A dense layer `y = x W + b` with parameters `{name}.w` and `{name}.b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: String,
    b: String,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized dense layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = format!("{name}.w");
        let b = format!("{name}.b");
        store.insert(&w, init::xavier_uniform(in_dim, out_dim, rng));
        store.insert(&b, Matrix::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `(n, in_dim)` input.
    pub fn apply(&self, ctx: &mut Ctx<'_>, x: Var) -> Var {
        let w = ctx.param(&self.w);
        let b = ctx.param(&self.b);
        let xw = ctx.g.matmul(x, w);
        ctx.g.add_row_broadcast(xw, b)
    }
}

/// A multi-layer perceptron with a shared hidden activation and an output
/// activation.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden: Activation,
    output: Activation,
}

impl Mlp {
    /// Registers an MLP mapping `dims[0] -> dims[1] -> ... -> dims.last()`.
    ///
    /// # Panics
    /// If fewer than two dims are given.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dims: &[usize],
        hidden: Activation,
        output: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least in/out dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.l{i}"), w[0], w[1]))
            .collect();
        Self { layers, hidden, output }
    }

    /// Applies the MLP.
    pub fn apply(&self, ctx: &mut Ctx<'_>, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.apply(ctx, x);
            let act = if i == last { self.output } else { self.hidden };
            x = act.apply(ctx, x);
        }
        x
    }

    /// Number of dense layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// A gated recurrent unit cell (used by the DIPN baseline).
#[derive(Clone, Debug)]
pub struct GruCell {
    wz: String,
    uz: String,
    bz: String,
    wr: String,
    ur: String,
    br: String,
    wh: String,
    uh: String,
    bh: String,
    hidden: usize,
}

impl GruCell {
    /// Registers a GRU cell mapping `(x: in_dim, h: hidden) -> hidden`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let mut reg = |suffix: &str, r: usize, c: usize| -> String {
            let full = format!("{name}.{suffix}");
            store.insert(&full, init::xavier_uniform(r, c, rng));
            full
        };
        let wz = reg("wz", in_dim, hidden);
        let uz = reg("uz", hidden, hidden);
        let wr = reg("wr", in_dim, hidden);
        let ur = reg("ur", hidden, hidden);
        let wh = reg("wh", in_dim, hidden);
        let uh = reg("uh", hidden, hidden);
        let bz = format!("{name}.bz");
        store.insert(&bz, Matrix::zeros(1, hidden));
        let br = format!("{name}.br");
        store.insert(&br, Matrix::zeros(1, hidden));
        let bh = format!("{name}.bh");
        store.insert(&bh, Matrix::zeros(1, hidden));
        Self { wz, uz, bz, wr, ur, br, wh, uh, bh, hidden }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// One recurrence step: `(x: (n, in), h: (n, hidden)) -> (n, hidden)`.
    pub fn step(&self, ctx: &mut Ctx<'_>, x: Var, h: Var) -> Var {
        let gate = |ctx: &mut Ctx<'_>, w: &str, u: &str, b: &str, x: Var, h: Var| -> Var {
            let wv = ctx.param(w);
            let uv = ctx.param(u);
            let bv = ctx.param(b);
            let xw = ctx.g.matmul(x, wv);
            let hu = ctx.g.matmul(h, uv);
            let s = ctx.g.add(xw, hu);
            ctx.g.add_row_broadcast(s, bv)
        };
        let z_pre = gate(ctx, &self.wz, &self.uz, &self.bz, x, h);
        let z = ctx.g.sigmoid(z_pre);
        let r_pre = gate(ctx, &self.wr, &self.ur, &self.br, x, h);
        let r = ctx.g.sigmoid(r_pre);
        let rh = ctx.g.mul(r, h);
        let cand_pre = gate(ctx, &self.wh, &self.uh, &self.bh, x, rh);
        let cand = ctx.g.tanh(cand_pre);
        let zc = ctx.g.mul(z, cand);
        let one_minus_z = ctx.g.one_minus(z);
        let keep = ctx.g.mul(one_minus_z, h);
        ctx.g.add(keep, zc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::max_grad_error;
    use gnmr_tensor::rng::seeded;

    #[test]
    fn linear_shapes_and_forward() {
        let mut store = ParamStore::new();
        let mut rng = seeded(1);
        let lin = Linear::new(&mut store, &mut rng, "fc", 4, 3);
        assert_eq!(lin.in_dim(), 4);
        assert_eq!(lin.out_dim(), 3);
        assert!(store.contains("fc.w"));
        assert!(store.contains("fc.b"));

        let mut ctx = Ctx::new(&store);
        let x = ctx.constant(Matrix::ones(5, 4));
        let y = lin.apply(&mut ctx, x);
        assert_eq!(ctx.g.shape(y), (5, 3));
    }

    #[test]
    fn mlp_depth_and_forward() {
        let mut store = ParamStore::new();
        let mut rng = seeded(2);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[6, 8, 4, 2], Activation::Relu, Activation::Sigmoid);
        assert_eq!(mlp.depth(), 3);
        let mut ctx = Ctx::new(&store);
        let x = ctx.constant(Matrix::ones(3, 6));
        let y = mlp.apply(&mut ctx, x);
        assert_eq!(ctx.g.shape(y), (3, 2));
        // Sigmoid output stays in (0, 1).
        assert!(ctx.g.value(y).data().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn mlp_gradients_check_out() {
        let mut store = ParamStore::new();
        let mut rng = seeded(3);
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[3, 4, 1], Activation::Tanh, Activation::None);
        store.insert("x", init::uniform(2, 3, -1.0, 1.0, &mut rng));
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let x = ctx.param("x");
            let y = mlp.apply(ctx, x);
            let sq = ctx.g.sqr(y);
            ctx.g.mean(sq)
        });
        assert!(err < 5e-3, "err {err}");
    }

    #[test]
    fn gru_step_shapes_and_range() {
        let mut store = ParamStore::new();
        let mut rng = seeded(4);
        let gru = GruCell::new(&mut store, &mut rng, "gru", 5, 7);
        assert_eq!(gru.hidden_dim(), 7);
        let mut ctx = Ctx::new(&store);
        let x = ctx.constant(init::uniform(3, 5, -1.0, 1.0, &mut rng));
        let mut h = ctx.constant(Matrix::zeros(3, 7));
        for _ in 0..4 {
            h = gru.step(&mut ctx, x, h);
        }
        assert_eq!(ctx.g.shape(h), (3, 7));
        // GRU state is a convex combination of tanh values: stays in (-1, 1).
        assert!(ctx.g.value(h).data().iter().all(|&v| v > -1.0 && v < 1.0));
    }

    #[test]
    fn gru_gradients_check_out() {
        let mut store = ParamStore::new();
        let mut rng = seeded(5);
        let gru = GruCell::new(&mut store, &mut rng, "g", 2, 3);
        store.insert("x0", init::uniform(2, 2, -1.0, 1.0, &mut rng));
        store.insert("x1", init::uniform(2, 2, -1.0, 1.0, &mut rng));
        let err = max_grad_error(&store, 5e-3, |ctx| {
            let x0 = ctx.param("x0");
            let x1 = ctx.param("x1");
            let h0 = ctx.constant(Matrix::zeros(2, 3));
            let h1 = gru.step(ctx, x0, h0);
            let h2 = gru.step(ctx, x1, h1);
            let sq = ctx.g.sqr(h2);
            ctx.g.mean(sq)
        });
        assert!(err < 5e-3, "err {err}");
    }

    use gnmr_tensor::init;
}
