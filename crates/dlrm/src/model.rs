//! The assembled DLRM model: bottom MLP, embedding bag, feature interaction,
//! top MLP and sigmoid (Figure 1 of the paper).

use crate::config::ModelConfig;
use crate::embedding::EmbeddingBag;
use crate::error::DlrmError;
use crate::interaction::FeatureInteraction;
use crate::kernel::{self, grow, KernelBackend, Workspace};
use crate::mlp::{Activation, Mlp};
use crate::tensor::Matrix;

/// A complete DLRM-style recommendation model with instantiated parameters.
///
/// The forward pass follows the paper's Figure 1 exactly:
///
/// 1. dense features → **bottom MLP** → a dense feature vector,
/// 2. sparse indices → **embedding gathers + reductions** (one reduced
///    vector per table),
/// 3. bottom output + reduced embeddings → **dot-product feature
///    interaction**,
/// 4. interaction output → **top MLP** → **sigmoid** → event probability.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmModel {
    config: ModelConfig,
    bottom_mlp: Mlp,
    embeddings: EmbeddingBag,
    interaction: FeatureInteraction,
    top_mlp: Mlp,
}

/// Reusable scratch for the zero-allocation forward path
/// ([`DlrmModel::forward_batch_into`]): the MLP ping/pong workspace plus the
/// interaction input/output buffers, sized `batch ×` so the whole batch
/// flows through one GEMM per MLP layer.
///
/// Hold one per serving thread; after the first (warm-up) call at a given
/// batch size every buffer has reached its high-water mark and steady-state
/// inference allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    /// MLP scratch (ping/pong layer buffers), sized to
    /// `batch × widest layer`.
    mlp: Workspace,
    /// Batch-major interaction input: `[batch, num_features * dim]`.
    features: Vec<f32>,
    /// Batch-major interaction output: `[batch, interact_width]`.
    interact: Vec<f32>,
}

impl BatchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Total bytes currently held across all scratch buffers.
    pub fn capacity_bytes(&self) -> usize {
        self.mlp.capacity_bytes()
            + (self.features.capacity() + self.interact.capacity()) * std::mem::size_of::<f32>()
    }
}

/// Validates that a batched request's dense rows and per-sample sparse index
/// lists agree — the one batch check shared by
/// [`DlrmModel::forward_batch_into`] and the accelerator runtime's
/// `infer_batch_into`.
///
/// # Errors
///
/// Returns [`DlrmError::BatchMismatch`] when the two batch sizes differ.
pub fn check_batch_inputs(
    dense: &Matrix,
    batch_indices: &[Vec<Vec<u32>>],
) -> Result<(), DlrmError> {
    if dense.rows() != batch_indices.len() {
        return Err(DlrmError::BatchMismatch {
            what: "dense rows vs sparse samples",
            left: dense.rows(),
            right: batch_indices.len(),
        });
    }
    Ok(())
}

impl DlrmModel {
    /// Builds a model with random parameters for `config`, seeded
    /// deterministically.
    ///
    /// Prefer a scaled-down `rows_per_table` (see
    /// [`ModelConfig::with_rows_per_table`]) when you only need functional
    /// results: the Table-I configurations allocate 128 MB–3.2 GB of
    /// embeddings at full size.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn random(config: &ModelConfig, seed: u64) -> Result<Self, DlrmError> {
        config.validate()?;
        let bottom_mlp = Mlp::random(&config.bottom_mlp_dims(), Activation::Relu, seed)?;
        let top_mlp = Mlp::random(
            &config.top_mlp_dims(),
            Activation::Identity,
            seed.wrapping_add(0xB0B),
        )?;
        let rows = usize::try_from(config.rows_per_table)
            .expect("validate() bounds rows_per_table by u32::MAX");
        // Table `t` is seeded with `seed + 0xE3B + t`.
        let embeddings = EmbeddingBag::random(
            config.num_tables,
            rows,
            config.embedding_dim,
            seed.wrapping_add(0xE3B),
        );
        let interaction = config.feature_interaction();
        Ok(DlrmModel {
            config: config.clone(),
            bottom_mlp,
            embeddings,
            interaction,
            top_mlp,
        })
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The bottom MLP.
    pub fn bottom_mlp(&self) -> &Mlp {
        &self.bottom_mlp
    }

    /// The top MLP.
    pub fn top_mlp(&self) -> &Mlp {
        &self.top_mlp
    }

    /// The embedding tables.
    pub fn embeddings(&self) -> &EmbeddingBag {
        &self.embeddings
    }

    /// The feature-interaction operator.
    pub fn interaction(&self) -> &FeatureInteraction {
        &self.interaction
    }

    /// Runs a batched forward pass on the production backend: one
    /// dense-feature row and one per-table index list per sample. Returns
    /// one probability per sample.
    ///
    /// Allocates a fresh [`BatchWorkspace`] plus the output vector; callers
    /// on the steady-state serving path should hold their own workspace and
    /// use [`DlrmModel::forward_batch_into`], which allocates nothing after
    /// warm-up.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::BatchMismatch`] when the dense batch and sparse
    /// batch disagree, plus any stage error.
    pub fn forward_batch(
        &self,
        dense: &Matrix,
        batch_indices: &[Vec<Vec<u32>>],
    ) -> Result<Vec<f32>, DlrmError> {
        let mut ws = BatchWorkspace::new();
        let mut out = vec![0.0; batch_indices.len()];
        self.forward_batch_into(
            kernel::global_backend(),
            dense,
            batch_indices,
            &mut out,
            &mut ws,
        )?;
        Ok(out)
    }

    /// The zero-allocation hot path: one batch end to end with every
    /// intermediate written into `ws` and one probability per sample written
    /// into `out`. A sample is a batch of one.
    ///
    /// It is the batch body's two pieces around the bag's gather:
    /// [`DlrmModel::stage_features`] sizes the batch-major
    /// `[batch, num_features * dim]` feature rows, the embedding bag reduces
    /// every sample's bags straight into rows `1..=num_tables` of each
    /// sample's block (column `dim` on), and
    /// [`DlrmModel::forward_staged_into`] runs bottom MLP → interaction →
    /// top MLP → sigmoid on them. The accelerator runtime runs the same two
    /// pieces around its EB-Streamer.
    ///
    /// A batch of N equals N batches of one, bitwise: the kernels
    /// accumulate each output row in the same order regardless of `m`.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::BatchMismatch`] when the dense rows, sparse
    /// samples and `out` length disagree, plus shape and index errors from
    /// the individual stages.
    pub fn forward_batch_into(
        &self,
        backend: KernelBackend,
        dense: &Matrix,
        batch_indices: &[Vec<Vec<u32>>],
        out: &mut [f32],
        ws: &mut BatchWorkspace,
    ) -> Result<(), DlrmError> {
        check_batch_inputs(dense, batch_indices)?;
        let batch = batch_indices.len();
        if out.len() != batch {
            return Err(DlrmError::BatchMismatch {
                what: "output slots vs samples",
                left: out.len(),
                right: batch,
            });
        }
        let dense_width = self.config.dense_features;
        if dense.cols() != dense_width {
            return Err(DlrmError::ShapeMismatch {
                op: "dense features",
                lhs: (batch, dense_width),
                rhs: dense.shape(),
            });
        }
        let dim = self.config.embedding_dim;
        let stride = self.interaction.num_features() * dim;
        let features = self.stage_features(batch, ws);
        self.embeddings
            .reduce_batch_into(batch_indices, features, stride, dim)?;
        self.forward_staged_into(backend, dense.as_slice(), dense_width, ws, out)
    }

    /// Piece one of the batch body: sizes `ws` for `batch` samples and
    /// returns the batch-major `[batch, num_features * dim]` feature rows.
    /// The caller reduces every sample's embeddings into columns
    /// `dim..num_features * dim` of its row; column block 0 is the bottom
    /// MLP's, which [`DlrmModel::forward_staged_into`] fills.
    pub fn stage_features<'w>(&self, batch: usize, ws: &'w mut BatchWorkspace) -> &'w mut [f32] {
        let stride = self.interaction.num_features() * self.config.embedding_dim;
        grow(&mut ws.features, batch * stride);
        grow(&mut ws.interact, batch * self.interaction.output_dim());
        &mut ws.features[..batch * stride]
    }

    /// Piece two of the batch body, over feature rows staged by
    /// [`DlrmModel::stage_features`] for `out.len()` samples whose reduced
    /// embeddings are in place:
    ///
    /// 1. bottom MLP over the whole dense batch (`[batch, dense_cols]`) —
    ///    one GEMM per layer with `m = batch`, its output scattered into
    ///    feature row 0 of every sample;
    /// 2. one batched feature-interaction pass producing the
    ///    `[batch, interact_width]` top-MLP input;
    /// 3. top MLP with `m = batch`, then one vectorized sigmoid sweep over
    ///    the batch of logits into `out`.
    ///
    /// # Errors
    ///
    /// Returns the bottom MLP's [`DlrmError::BatchMismatch`] or
    /// [`DlrmError::ShapeMismatch`] when `dense_rows` is not
    /// `[batch, dense_cols]` or `dense_cols` is not its input width.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was not staged for at least `out.len()` samples.
    pub fn forward_staged_into(
        &self,
        backend: KernelBackend,
        dense_rows: &[f32],
        dense_cols: usize,
        ws: &mut BatchWorkspace,
        out: &mut [f32],
    ) -> Result<(), DlrmError> {
        let batch = out.len();
        let dim = self.config.embedding_dim;
        let interact_width = self.interaction.output_dim();
        let stride = self.interaction.num_features() * dim;
        let BatchWorkspace {
            mlp,
            features,
            interact,
        } = ws;
        let features = &mut features[..batch * stride];
        let interact = &mut interact[..batch * interact_width];

        // 1. Bottom MLP over the whole batch: one GEMM per layer with
        //    m = batch, scattered into feature row 0 of every sample.
        let (bottom, cols) = self
            .bottom_mlp
            .forward_batch_ws(backend, dense_rows, batch, dense_cols, mlp)?;
        if cols != dim {
            return Err(DlrmError::ShapeMismatch {
                op: "bottom MLP output",
                lhs: (batch, dim),
                rhs: (batch, cols),
            });
        }
        for (src, dst) in bottom
            .chunks_exact(dim)
            .zip(features.chunks_exact_mut(stride))
        {
            dst[..dim].copy_from_slice(src);
        }

        // 2. Batched dot-product feature interaction.
        self.interaction
            .interact_batch_into(features, batch, interact);

        // 3. Top MLP with m = batch, then one vectorized sigmoid sweep.
        let (top, top_cols) =
            self.top_mlp
                .forward_batch_ws(backend, interact, batch, interact_width, mlp)?;
        if top_cols == 1 {
            crate::tensor::sigmoid_into(&top[..batch], out);
        } else {
            // A top MLP wider than one unit: take logit 0 per sample.
            for (o, row) in out.iter_mut().zip(top.chunks_exact(top_cols)) {
                *o = crate::tensor::sigmoid_scalar(row[0]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperModel;

    fn tiny_config() -> ModelConfig {
        ModelConfig::builder()
            .name("tiny")
            .num_tables(3)
            .rows_per_table(64)
            .embedding_dim(8)
            .lookups_per_table(4)
            .dense_features(5)
            .bottom_mlp(&[16, 8])
            .top_mlp(&[16, 8])
            .build()
            .unwrap()
    }

    fn tiny_indices(config: &ModelConfig) -> Vec<Vec<u32>> {
        (0..config.num_tables)
            .map(|t| {
                (0..config.lookups_per_table as u32)
                    .map(|i| (t as u32 * 7 + i) % 64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn random_tables_keep_their_per_table_seeds_bitwise() {
        // The model's tables come from the bag's shared constructor; table
        // `t` must still be the one `seed + 0xE3B + t` generates on its own.
        let config = tiny_config();
        let model = DlrmModel::random(&config, 41).unwrap();
        let bits = |table: &crate::EmbeddingTable| -> Vec<u32> {
            table.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        for t in 0..config.num_tables {
            let alone = crate::EmbeddingTable::random(64, 8, 41 + 0xE3B + t as u64);
            assert_eq!(bits(model.embeddings().table(t)), bits(&alone), "table {t}");
        }
    }

    #[test]
    fn forward_produces_probability() {
        let config = tiny_config();
        let model = DlrmModel::random(&config, 1).unwrap();
        let dense = Matrix::from_fn(1, 5, |_, c| c as f32 * 0.2 - 0.4);
        let p = model
            .forward_batch(&dense, &[tiny_indices(&config)])
            .unwrap();
        assert_eq!(p.len(), 1);
        assert!((0.0..=1.0).contains(&p[0]));
    }

    #[test]
    fn forward_is_deterministic() {
        let config = tiny_config();
        let model = DlrmModel::random(&config, 3).unwrap();
        let dense = Matrix::filled(1, 5, 0.3);
        let idx = [tiny_indices(&config)];
        assert_eq!(
            model.forward_batch(&dense, &idx).unwrap(),
            model.forward_batch(&dense, &idx).unwrap()
        );
    }

    #[test]
    fn batch_matches_single() {
        let config = tiny_config();
        let model = DlrmModel::random(&config, 4).unwrap();
        let dense = Matrix::from_fn(3, 5, |r, c| (r as f32 - c as f32) * 0.1);
        let batch: Vec<Vec<Vec<u32>>> = (0..3)
            .map(|s| {
                (0..config.num_tables)
                    .map(|t| vec![(s * 3 + t) as u32, (s + t * 5) as u32 % 64])
                    .collect()
            })
            .collect();
        let batched = model.forward_batch(&dense, &batch).unwrap();
        for (i, sample) in batch.iter().enumerate() {
            let single = model
                .forward_batch(
                    &Matrix::from_vec(1, 5, dense.row(i).to_vec()).unwrap(),
                    std::slice::from_ref(sample),
                )
                .unwrap();
            // A sample is a batch of one through the same kernels: bitwise.
            assert_eq!(batched[i], single[0]);
        }
    }

    #[test]
    fn batch_mismatch_detected() {
        let config = tiny_config();
        let model = DlrmModel::random(&config, 5).unwrap();
        let dense = Matrix::zeros(2, 5);
        let batch = vec![tiny_indices(&config)];
        assert!(matches!(
            model.forward_batch(&dense, &batch),
            Err(DlrmError::BatchMismatch { .. })
        ));
    }

    #[test]
    fn dense_shape_checked() {
        let config = tiny_config();
        let model = DlrmModel::random(&config, 6).unwrap();
        let wrong = Matrix::zeros(1, 4);
        assert!(model
            .forward_batch(&wrong, &[tiny_indices(&config)])
            .is_err());
    }

    #[test]
    fn paper_model_scaled_down_runs() {
        let config = PaperModel::Dlrm1.config().with_rows_per_table(128);
        let model = DlrmModel::random(&config, 9).unwrap();
        let dense = Matrix::filled(1, 13, 0.05);
        let indices: Vec<Vec<u32>> = (0..config.num_tables)
            .map(|t| {
                (0..config.lookups_per_table as u32)
                    .map(|i| (t as u32 + i * 11) % 128)
                    .collect()
            })
            .collect();
        let p = model.forward_batch(&dense, &[indices]).unwrap();
        assert!((0.0..=1.0).contains(&p[0]));
    }

    #[test]
    fn probability_changes_with_indices() {
        let config = tiny_config();
        let model = DlrmModel::random(&config, 10).unwrap();
        let dense = Matrix::filled(1, 5, 0.1);
        let a = model
            .forward_batch(&dense, &[tiny_indices(&config)])
            .unwrap();
        let other: Vec<Vec<u32>> = (0..3).map(|t| vec![60 - t as u32]).collect();
        let b = model.forward_batch(&dense, &[other]).unwrap();
        assert_ne!(a, b);
    }
}
