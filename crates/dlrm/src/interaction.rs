//! Dot-product feature interaction, the batched-GEMM step between the
//! sparse frontend and the top MLP (Figure 3, step 3 in the paper).
//!
//! DLRM concatenates the bottom-MLP output with the reduced embedding of
//! every table into a `[num_features, dim]` matrix `R`, computes `R * R^T`,
//! and keeps the strictly-lower-triangular entries (every distinct pair's
//! dot product). Those pairwise terms are then concatenated with the
//! bottom-MLP output to form the top-MLP input.

use crate::error::DlrmError;
use crate::kernel::dot;

/// Dot-product feature interaction operator.
///
/// The operator is stateless; it exists as a type so the accelerator models
/// can hold a configured instance (feature count, embedding dimension) and
/// reason about its GEMM cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureInteraction {
    num_features: usize,
    dim: usize,
}

impl FeatureInteraction {
    /// Creates an interaction stage for `num_features` vectors of width
    /// `dim` (typically `num_tables + 1`: one reduced embedding per table
    /// plus the bottom-MLP output).
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] when either argument is zero.
    pub fn new(num_features: usize, dim: usize) -> Result<Self, DlrmError> {
        if num_features == 0 || dim == 0 {
            return Err(DlrmError::InvalidConfig(format!(
                "feature interaction needs non-zero features and dim, got {num_features}x{dim}"
            )));
        }
        Ok(FeatureInteraction { num_features, dim })
    }

    /// Number of interacting feature vectors.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Width of each feature vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of pairwise interaction terms produced
    /// (`num_features choose 2`).
    pub fn num_pairs(&self) -> usize {
        self.num_features * (self.num_features - 1) / 2
    }

    /// Width of the top-MLP input produced by
    /// [`FeatureInteraction::interact_batch_into`]: the bottom-MLP output
    /// width plus one scalar per pair.
    pub fn output_dim(&self) -> usize {
        self.dim + self.num_pairs()
    }

    /// FLOPs of the `R * R^T` batched GEMM for one sample.
    pub fn flops(&self) -> u64 {
        2 * (self.num_features * self.num_features * self.dim) as u64
    }

    /// One sample of [`FeatureInteraction::interact_batch_into`].
    fn interact_sample(&self, features: &[f32], out: &mut [f32]) {
        let dim = self.dim;
        out[..dim].copy_from_slice(&features[..dim]);
        let mut k = dim;
        for i in 1..self.num_features {
            let row_i = &features[i * dim..(i + 1) * dim];
            for j in 0..i {
                out[k] = dot(row_i, &features[j * dim..(j + 1) * dim]);
                k += 1;
            }
        }
    }

    /// The pairwise dot products of every sample, batch-major, over raw
    /// row-major buffers: `features` is the `[batch, num_features * dim]`
    /// matrix (each row one sample's `[num_features, dim]` stacked feature
    /// vectors, bottom-MLP output first) and `out` receives the
    /// `[batch, output_dim()]` top-MLP input in one pass over both buffers.
    /// A sample's output row is its feature row 0 followed by the
    /// strictly-lower-triangular entries of `features * features^T`.
    ///
    /// # Panics
    ///
    /// Panics if either slice length disagrees with
    /// `batch ×` the configured shape (shape validation is the caller's job
    /// on this hot path).
    pub fn interact_batch_into(&self, features: &[f32], batch: usize, out: &mut [f32]) {
        let in_width = self.num_features * self.dim;
        assert_eq!(features.len(), batch * in_width);
        assert_eq!(out.len(), batch * self.output_dim());
        for (feature_row, out_row) in features
            .chunks_exact(in_width)
            .zip(out.chunks_exact_mut(self.output_dim()))
        {
            self.interact_sample(feature_row, out_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    /// One `[num_features, dim]` sample through the batch pass.
    fn interact(fi: &FeatureInteraction, features: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, fi.output_dim());
        fi.interact_batch_into(features.as_slice(), 1, out.as_mut_slice());
        out
    }

    #[test]
    fn rejects_degenerate_config() {
        assert!(FeatureInteraction::new(0, 4).is_err());
        assert!(FeatureInteraction::new(4, 0).is_err());
    }

    #[test]
    fn pair_and_output_counts() {
        let fi = FeatureInteraction::new(6, 32).unwrap();
        assert_eq!(fi.num_pairs(), 15);
        assert_eq!(fi.output_dim(), 32 + 15);
        assert_eq!(fi.num_features(), 6);
        assert_eq!(fi.dim(), 32);
    }

    #[test]
    fn interact_known_values() {
        // Three 2-dim features: f0=[1,0], f1=[0,1], f2=[2,2]
        let features = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0]).unwrap();
        let fi = FeatureInteraction::new(3, 2).unwrap();
        let out = interact(&fi, &features);
        // output = [f0 (2 values), f1·f0, f2·f0, f2·f1] = [1,0, 0, 2, 2]
        assert_eq!(out.as_slice(), &[1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn interact_matches_gram_lower_triangle() {
        let fi = FeatureInteraction::new(4, 8).unwrap();
        let features = Matrix::from_fn(4, 8, |r, c| ((r * 13 + c * 7) % 5) as f32 - 2.0);
        let out = interact(&fi, &features);
        let transposed = Matrix::from_fn(8, 4, |r, c| features.get(c, r));
        let gram = features.matmul(&transposed).unwrap();
        let mut k = 8; // skip the copied bottom-MLP output
        for i in 1..4 {
            for j in 0..i {
                assert!((out.get(0, k) - gram.get(i, j)).abs() < 1e-5);
                k += 1;
            }
        }
        assert_eq!(k, out.cols());
    }

    #[test]
    fn shape_mismatch_errors() {
        // A feature or output buffer of the wrong shape is refused with a
        // panic, not read past.
        let fi = FeatureInteraction::new(3, 4).unwrap();
        let rejects = |features: usize, out: usize| {
            let (features, mut out) = (vec![0.0; features], vec![0.0; out]);
            std::panic::catch_unwind(move || fi.interact_batch_into(&features, 1, &mut out))
                .is_err()
        };
        assert!(!rejects(12, fi.output_dim()));
        assert!(rejects(16, fi.output_dim()));
        assert!(rejects(12, fi.output_dim() + 1));
    }

    #[test]
    fn single_feature_has_no_pairs() {
        let fi = FeatureInteraction::new(1, 4).unwrap();
        assert_eq!(fi.num_pairs(), 0);
        let features = Matrix::filled(1, 4, 1.0);
        let out = interact(&fi, &features);
        assert_eq!(out.as_slice(), features.row(0));
    }

    #[test]
    fn flops_positive() {
        let fi = FeatureInteraction::new(6, 32).unwrap();
        assert_eq!(fi.flops(), 2 * 6 * 6 * 32);
    }
}
