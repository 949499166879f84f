//! Reverse-mode automatic differentiation for the GNMR reproduction.
//!
//! A define-by-run tape ([`Graph`]) over [`gnmr_tensor::Matrix`] values,
//! with named parameter storage ([`ParamStore`]), per-step parameter
//! binding ([`Ctx`]), the [`Adam`] optimizer, the one training step
//! every model runs ([`Trainer`]; its docs carry a worked example),
//! finite-difference gradient checking, and small NN building blocks.
//!
//! # Example
//!
//! One forward pass over a bound parameter and its gradient; a training
//! loop hands the same tape to [`Trainer::backward`] instead.
//!
//! ```
//! use gnmr_autograd::{Ctx, ParamStore};
//! use gnmr_tensor::Matrix;
//!
//! let mut store = ParamStore::new();
//! store.insert("w", Matrix::from_vec(1, 2, vec![3.0, -2.0]));
//! let mut ctx = Ctx::new(&store);
//! let w = ctx.param("w");
//! let sq = ctx.g.sqr(w);
//! let loss = ctx.g.sum(sq);
//! assert_eq!(ctx.g.value(loss).scalar_value(), 13.0);
//! let grads = ctx.grads(loss);
//! // d/dw sum(w^2) = 2w
//! assert_eq!(grads.get("w").unwrap(), &Matrix::from_vec(1, 2, vec![6.0, -4.0]));
//! ```

pub mod gradcheck;
pub mod nn;
pub mod optim;
pub mod params;
pub mod tape;

pub use gradcheck::max_grad_error;
pub use gnmr_tensor::Arena;
pub use nn::{pairwise_hinge, Activation, GruCell, Linear, Mlp};
pub use optim::{adam_step, Adam, AdamState, AdamStep, Trainer};
pub use params::{Ctx, Grads, ParamStore};
pub use tape::{Graph, Var};
