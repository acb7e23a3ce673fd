//! The feature-interaction unit: four PEs dedicated to the batched GEMM
//! that computes all pairwise dot products between the reduced embeddings
//! and the bottom-MLP output (Figures 9 and 11).

use crate::dense::pe::{PeConfig, ProcessingEngine};
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

    /// Records one batched interaction pass over `batch` samples: each
    /// sample occupies a PE. The dense complex runs the model's own
    /// interaction operator and counts it here.
    pub fn record_interactions(&mut self, batch: u64) {
        self.interactions_executed += batch;
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

    #[test]
    fn record_interactions_counts_one_per_sample() {
        let mut unit = FeatureInteractionUnit::harpv2();
        unit.record_interactions(1);
        unit.record_interactions(6);
        assert_eq!(unit.interactions_executed(), 7);
    }

    #[test]
    fn timing_grows_with_feature_count() {
        let unit = FeatureInteractionUnit::harpv2();
        let few = unit.batch_time_ns(6, 32, 1);
        let many = unit.batch_time_ns(51, 32, 1);
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
