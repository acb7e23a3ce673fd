//! The feature-interaction unit: four PEs dedicated to the batched GEMM
//! that computes all pairwise dot products between the reduced embeddings
//! and the bottom-MLP output (Figures 9 and 11).

use crate::dense::pe::{PeConfig, ProcessingEngine};
use centaur_dlrm::{DlrmError, FeatureInteraction};
use serde::{Deserialize, Serialize};

/// The feature-interaction unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureInteractionUnit {
    num_pes: usize,
    pe: ProcessingEngine,
    interactions_executed: u64,
}

impl FeatureInteractionUnit {
    /// Creates a unit with `num_pes` processing engines.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is zero.
    pub fn new(num_pes: usize, pe_config: PeConfig) -> Self {
        assert!(
            num_pes > 0,
            "feature interaction unit needs at least one PE"
        );
        FeatureInteractionUnit {
            num_pes,
            pe: ProcessingEngine::new(pe_config),
            interactions_executed: 0,
        }
    }

    /// The paper's configuration: four 32×32-tile PEs.
    pub fn harpv2() -> Self {
        FeatureInteractionUnit::new(4, PeConfig::harpv2())
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Interactions executed so far.
    pub fn interactions_executed(&self) -> u64 {
        self.interactions_executed
    }

    /// Functionally computes the interaction output for a batch: `features`
    /// is the `[batch, num_features * dim]` matrix (row 0 of each sample the
    /// bottom-MLP output) and `out` receives the `[batch, dim + pairs]`
    /// top-MLP input in one pass — identical to the reference
    /// [`FeatureInteraction::interact_batch_into`]. Counts one executed
    /// interaction per sample (each sample occupies a PE).
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::InvalidConfig`] for degenerate shapes.
    pub fn interact_batch_into(
        &mut self,
        features: &[f32],
        batch: usize,
        num_features: usize,
        dim: usize,
        out: &mut [f32],
    ) -> Result<(), DlrmError> {
        let reference = FeatureInteraction::new(num_features, dim)?;
        reference.interact_batch_into(features, batch, out);
        self.interactions_executed += batch as u64;
        Ok(())
    }

    /// PE cycles for the `R · Rᵀ` batched GEMM of one sample with
    /// `num_features` vectors of width `dim` (partial tiles cost fewer
    /// cycles, down to the pipeline-fill minimum).
    pub fn interaction_cycles(&self, num_features: usize, dim: usize) -> f64 {
        let t = self.pe.config().tile_dim;
        let mut cycles = 0.0;
        for fi in (0..num_features).step_by(t) {
            let ft = (num_features - fi).min(t);
            for fj in (0..num_features).step_by(t) {
                let gt = (num_features - fj).min(t);
                for ki in (0..dim).step_by(t) {
                    let kt = (dim - ki).min(t);
                    cycles += self.pe.config().gemm_cycles(ft, gt, kt);
                }
            }
        }
        cycles
    }

    /// Time in nanoseconds for one sample's interaction GEMM on a single PE.
    pub fn interaction_time_ns(&self, num_features: usize, dim: usize) -> f64 {
        self.pe
            .config()
            .cycles_to_ns(self.interaction_cycles(num_features, dim))
    }

    /// Time for a whole batch of interactions, in nanoseconds. Independent
    /// samples are distributed across the unit's PEs.
    pub fn batch_time_ns(&self, num_features: usize, dim: usize, batch: usize) -> f64 {
        let per_sample = self.interaction_cycles(num_features, dim);
        let waves = batch.max(1).div_ceil(self.num_pes) as f64;
        self.pe.config().cycles_to_ns(waves * per_sample)
    }
}

impl Default for FeatureInteractionUnit {
    fn default() -> Self {
        FeatureInteractionUnit::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::tensor::Matrix;

    #[test]
    fn functional_interaction_matches_reference() {
        let mut unit = FeatureInteractionUnit::harpv2();
        let features = Matrix::from_fn(6, 32, |r, c| ((r * 17 + c) % 9) as f32 - 4.0);
        let mut ours = vec![0.0f32; 32 + 15];
        unit.interact_batch_into(features.as_slice(), 1, 6, 32, &mut ours)
            .unwrap();
        let reference = FeatureInteraction::new(6, 32)
            .unwrap()
            .interact(&features)
            .unwrap();
        assert_eq!(ours, reference.as_slice());
        assert_eq!(unit.interactions_executed(), 1);
    }

    #[test]
    fn timing_grows_with_feature_count() {
        let unit = FeatureInteractionUnit::harpv2();
        let few = unit.interaction_time_ns(6, 32);
        let many = unit.interaction_time_ns(51, 32);
        assert!(many > few);
        assert!(few > 0.0);
    }

    #[test]
    fn batch_time_scales_with_batch_waves() {
        let unit = FeatureInteractionUnit::harpv2();
        let one = unit.batch_time_ns(6, 32, 1);
        // Up to 4 samples run concurrently on the 4 PEs.
        assert_eq!(unit.batch_time_ns(6, 32, 4), one);
        let eight = unit.batch_time_ns(6, 32, 8);
        assert!((eight - 2.0 * one).abs() < 1e-9);
        assert_eq!(unit.batch_time_ns(6, 32, 0), one);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        FeatureInteractionUnit::new(0, PeConfig::harpv2());
    }
}
