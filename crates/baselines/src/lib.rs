//! The twelve baseline recommenders of the paper's Table II, implemented
//! from their original papers on the shared substrate and trained/
//! evaluated with the same protocol as GNMR.
//!
//! | Module | Model(s) | Family |
//! |---|---|---|
//! | [`bias_mf`] | BiasMF | matrix factorization with biases |
//! | [`dmf`] | DMF | two-tower MLP over interaction profiles |
//! | [`ncf`] | NCF-G / NCF-M / NCF-N | neural collaborative filtering |
//! | [`autorec`] | AutoRec | autoencoder CF |
//! | [`cdae`] | CDAE | denoising autoencoder with user factor |
//! | [`nade`] | NADE | neural autoregressive CF (set-conditional) |
//! | [`cf_uica`] | CF-UIcA | user-item co-autoregressive CF |
//! | [`ngcf`] | NGCF | graph neural collaborative filtering |
//! | [`nmtr`] | NMTR | multi-task cascaded multi-behavior model |
//! | [`dipn`] | DIPN | attention + GRU over behavior sequences |
//!
//! NADE, CF-UIcA and DIPN were designed for explicit ratings or rich
//! page features; each module header states how it is reduced to the
//! implicit multi-behavior feedback this workspace trains on.

pub mod autorec;
pub mod bias_mf;
pub mod cdae;
pub mod cf_uica;
pub mod common;
pub mod dipn;
pub mod dmf;
pub mod item_knn;
pub mod nade;
pub mod ncf;
pub mod ngcf;
pub mod nmtr;





pub use autorec::AutoRec;
pub use bias_mf::BiasMf;
pub use cdae::Cdae;
pub use cf_uica::CfUica;
pub use common::BaselineConfig;
pub use dipn::Dipn;
pub use dmf::Dmf;
pub use item_knn::ItemKnn;
pub use nade::Nade;
pub use ncf::{Ncf, NcfVariant};
pub use ngcf::Ngcf;
pub use nmtr::Nmtr;






