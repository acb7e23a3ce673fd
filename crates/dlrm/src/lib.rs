//! # centaur-dlrm
//!
//! A from-scratch, dependency-light functional implementation of the
//! DLRM-style personalized recommendation model used throughout the Centaur
//! paper (Hwang et al., ISCA 2020): sparse embedding tables with
//! `SparseLengthsSum`-style gather/reduce, bottom and top multi-layer
//! perceptrons, dot-product feature interaction and a final sigmoid.
//!
//! This crate is the *reference semantics* for every system model in the
//! workspace: the CPU-only baseline, the CPU-GPU baseline and the Centaur
//! accelerator all either call into it directly (functional path) or are
//! validated against it (timing path).
//!
//! ## Quick example
//!
//! ```
//! use centaur_dlrm::config::ModelConfig;
//! use centaur_dlrm::model::DlrmModel;
//! use centaur_dlrm::tensor::Matrix;
//!
//! # fn main() -> Result<(), centaur_dlrm::DlrmError> {
//! // A small model: 4 embedding tables of 1000 rows, 32-dim embeddings.
//! let config = ModelConfig::builder()
//!     .num_tables(4)
//!     .rows_per_table(1_000)
//!     .embedding_dim(32)
//!     .dense_features(13)
//!     .bottom_mlp(&[64, 32])
//!     .top_mlp(&[64, 1])
//!     .lookups_per_table(8)
//!     .build()?;
//! let model = DlrmModel::random(&config, 42)?;
//!
//! // One request: dense features + per-table sparse indices.
//! let dense = Matrix::from_fn(1, 13, |_, j| j as f32 * 0.1);
//! let indices: Vec<Vec<u32>> = (0..4).map(|t| vec![t, t + 1, t + 7]).collect();
//! let probability = model.forward_batch(&dense, &[indices])?;
//! assert!(probability[0] >= 0.0 && probability[0] <= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod embedding;
pub mod error;
mod fill;
pub mod interaction;
pub mod kernel;
pub mod mlp;
pub mod model;
pub mod request;
mod row_store;
pub mod tensor;
pub mod trace;

pub use config::{ModelConfig, ModelConfigBuilder, PaperModel};
pub use embedding::{EmbeddingBag, EmbeddingTable};
pub use error::DlrmError;
pub use interaction::FeatureInteraction;
pub use kernel::{
    global_backend, global_sparse_backend, prepack_events, FusedAct, KernelBackend,
    PrepackedWeights, SparseBackend, Workspace,
};
pub use mlp::{Activation, DenseLayer, Mlp};
pub use model::{check_batch_inputs, BatchWorkspace, DlrmModel};
pub use request::{InferenceRequest, RejectReason, RejectedRequest};
pub use tensor::Matrix;
pub use trace::{EmbeddingAccess, GatherTrace, InferenceTrace};

/// Number of bytes in a single embedding element (`f32`).
pub const EMBEDDING_ELEM_BYTES: usize = 4;

/// The default embedding dimension used by the paper (32-wide vectors,
/// i.e. 128-byte embedding rows).
pub const DEFAULT_EMBEDDING_DIM: usize = 32;
