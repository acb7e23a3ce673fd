//! End-to-end CPU-only inference timing (the paper's baseline system).

use crate::config::CpuConfig;
use crate::embedding::{EmbeddingEngine, EmbeddingResult};
use crate::gemm::{DenseEngine, DenseResult};
use centaur_dlrm::trace::InferenceTrace;
use centaur_memsim::{CacheHierarchy, DramModel, Throughput};
use serde::{Deserialize, Serialize};

/// End-to-end latency split of a CPU-only inference, matching the Figure 5
/// breakdown (EMB / MLP / Other).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Embedding gather + reduction time in nanoseconds.
    pub embedding_ns: f64,
    /// MLP + feature-interaction time in nanoseconds.
    pub mlp_ns: f64,
    /// Everything else (framework, staging, post-processing) in nanoseconds.
    pub other_ns: f64,
}

impl LatencyBreakdown {
    /// Total end-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.embedding_ns + self.mlp_ns + self.other_ns
    }

    /// Fraction of the total spent in embedding layers.
    pub fn embedding_fraction(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.embedding_ns / self.total_ns()
        }
    }

    /// Fraction of the total spent in MLP layers.
    pub fn mlp_fraction(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.mlp_ns / self.total_ns()
        }
    }

    /// Fraction of the total spent outside embedding and MLP layers.
    pub fn other_fraction(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.other_ns / self.total_ns()
        }
    }
}

/// Result of one simulated CPU-only batched inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuInferenceResult {
    /// Batch size of the request.
    pub batch: usize,
    /// EMB / MLP / Other latency split.
    pub breakdown: LatencyBreakdown,
    /// Details of the embedding stage.
    pub embedding: EmbeddingResult,
    /// Details of the dense stage.
    pub dense: DenseResult,
}

impl CpuInferenceResult {
    /// End-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }

    /// The paper's effective memory throughput for the embedding stage.
    pub fn effective_embedding_throughput(&self) -> Throughput {
        self.embedding.effective_throughput()
    }
}

/// The CPU-only system: a socket, its cache hierarchy and its DRAM.
///
/// Cache and DRAM state persist across [`CpuSystem::simulate`] calls so a
/// sequence of requests naturally warms the hierarchy, mirroring how the
/// paper measures after warm-up.
#[derive(Debug, Clone)]
pub struct CpuSystem {
    config: CpuConfig,
    hierarchy: CacheHierarchy,
    dram: DramModel,
}

impl CpuSystem {
    /// Creates a cold CPU system.
    pub fn new(config: CpuConfig) -> Self {
        let hierarchy = CacheHierarchy::new(&config.hierarchy);
        let dram = DramModel::new(config.dram);
        CpuSystem {
            config,
            hierarchy,
            dram,
        }
    }

    /// Creates the paper's baseline (Broadwell Xeon) system.
    pub fn broadwell() -> Self {
        CpuSystem::new(CpuConfig::broadwell_xeon())
    }

    /// The configuration in use.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Warms the cache hierarchy by replaying a request without recording a
    /// result.
    pub fn warm_up(&mut self, trace: &InferenceTrace) {
        let _ = EmbeddingEngine::execute(&self.config, trace, &mut self.hierarchy, &mut self.dram);
        self.dram.reset();
    }

    /// Simulates one batched inference and returns its latency breakdown.
    pub fn simulate(&mut self, trace: &InferenceTrace) -> CpuInferenceResult {
        let embedding =
            EmbeddingEngine::execute(&self.config, trace, &mut self.hierarchy, &mut self.dram);
        let batch = trace.batch_size();
        let dense = DenseEngine::execute(&self.config, &trace.config, batch);
        let other_ns =
            self.config.request_overhead_ns + self.config.per_sample_other_ns * batch as f64;
        let breakdown = LatencyBreakdown {
            embedding_ns: embedding.latency_ns,
            mlp_ns: dense.latency_ns,
            other_ns,
        };
        CpuInferenceResult {
            batch,
            breakdown,
            embedding,
            dense,
        }
    }

    /// Convenience: warm up with `warmup` then measure `trace`.
    pub fn simulate_warm(
        &mut self,
        warmup: &InferenceTrace,
        trace: &InferenceTrace,
    ) -> CpuInferenceResult {
        self.warm_up(warmup);
        self.simulate(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;
    use centaur_workload::{IndexDistribution, RequestGenerator};

    fn run(model: PaperModel, batch: usize) -> CpuInferenceResult {
        let config = model.config();
        let mut warm_gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 100);
        let mut gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 200);
        let mut system = CpuSystem::broadwell();
        system.simulate_warm(
            &warm_gen.inference_trace(batch),
            &gen.inference_trace(batch),
        )
    }

    #[test]
    fn breakdown_components_are_positive_and_sum() {
        let r = run(PaperModel::Dlrm1, 16);
        assert!(r.breakdown.embedding_ns > 0.0);
        assert!(r.breakdown.mlp_ns > 0.0);
        assert!(r.breakdown.other_ns > 0.0);
        let sum = r.breakdown.embedding_fraction()
            + r.breakdown.mlp_fraction()
            + r.breakdown.other_fraction();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.total_ns() > 0.0);
    }

    #[test]
    fn embedding_dominates_for_lookup_heavy_models() {
        // Figure 5: models with many tables/lookups are embedding-bound,
        // especially at larger batch sizes.
        let r = run(PaperModel::Dlrm4, 64);
        assert!(
            r.breakdown.embedding_fraction() > 0.5,
            "EMB fraction = {:.2}",
            r.breakdown.embedding_fraction()
        );
    }

    #[test]
    fn mlp_heavy_model_is_not_embedding_bound() {
        // DLRM(6) is configured with a tiny embedding stage and a heavyweight
        // MLP; its MLP share must exceed its embedding share.
        let r = run(PaperModel::Dlrm6, 16);
        assert!(
            r.breakdown.mlp_fraction() > r.breakdown.embedding_fraction(),
            "MLP {:.2} vs EMB {:.2}",
            r.breakdown.mlp_fraction(),
            r.breakdown.embedding_fraction()
        );
    }

    #[test]
    fn latency_increases_with_batch() {
        let small = run(PaperModel::Dlrm2, 1);
        let large = run(PaperModel::Dlrm2, 128);
        assert!(large.total_ns() > small.total_ns());
        // But sublinearly thanks to batching of overheads.
        assert!(large.total_ns() < 128.0 * small.total_ns());
    }

    #[test]
    fn embedding_fraction_grows_with_batch_for_emb_bound_models() {
        let small = run(PaperModel::Dlrm3, 1);
        let large = run(PaperModel::Dlrm3, 128);
        assert!(large.breakdown.embedding_fraction() >= small.breakdown.embedding_fraction());
    }

    #[test]
    fn repeated_simulation_with_same_state_is_deterministic() {
        let config = PaperModel::Dlrm1.config();
        let mut gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 7);
        let trace = gen.inference_trace(8);
        let mut a = CpuSystem::broadwell();
        let mut b = CpuSystem::broadwell();
        let ra = a.simulate(&trace);
        let rb = b.simulate(&trace);
        assert_eq!(ra, rb);
    }
}
