//! CPU dense-layer (GEMM) timing model.
//!
//! MLP weights in the studied models are far smaller than the LLC, so the
//! dense layers are compute-bound on the CPU (Figure 6 shows <20 % LLC miss
//! rates for MLP). The model therefore uses a batch-dependent roofline on
//! the socket's AVX2 FMA throughput plus per-operator framework dispatch
//! overhead.

use crate::config::CpuConfig;
use centaur_dlrm::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// Result of simulating the dense (MLP + feature interaction) stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DenseResult {
    /// Latency of the dense stage in nanoseconds.
    pub latency_ns: f64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Number of framework operators dispatched (layers + interaction +
    /// sigmoid).
    pub operators: usize,
    /// Achieved GFLOP/s (excluding dispatch overhead).
    pub achieved_gflops: f64,
}

/// CPU GEMM/MLP timing model.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseEngine;

impl DenseEngine {
    /// Number of framework operators the dense stage dispatches for one
    /// request: every MLP layer, the feature interaction and the sigmoid.
    pub fn operator_count(model: &ModelConfig) -> usize {
        let bottom_layers = model.bottom_mlp_dims().len() - 1;
        let top_layers = model.top_mlp_dims().len() - 1;
        bottom_layers + top_layers + 2
    }

    /// Time to execute a GEMM of `flops` floating-point operations at the
    /// batch-dependent effective throughput.
    pub fn gemm_time_ns(config: &CpuConfig, flops: u64, batch: usize) -> f64 {
        let gflops = config.effective_gemm_gflops(batch);
        flops as f64 / gflops
    }

    /// Simulates the dense stage (bottom MLP, feature interaction, top MLP,
    /// sigmoid) of one batched request.
    pub fn execute(config: &CpuConfig, model: &ModelConfig, batch: usize) -> DenseResult {
        let flops = model.dense_flops_per_sample() * batch.max(1) as u64;
        let compute_ns = Self::gemm_time_ns(config, flops, batch);
        let operators = Self::operator_count(model);
        let dispatch_ns = operators as f64 * config.per_layer_overhead_ns;
        let latency_ns = compute_ns + dispatch_ns;
        DenseResult {
            latency_ns,
            flops,
            operators,
            achieved_gflops: if compute_ns > 0.0 {
                flops as f64 / compute_ns
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;

    #[test]
    fn operator_count_matches_layer_structure() {
        let light = PaperModel::Dlrm1.config();
        // bottom: 13-128-64-32 = 3 layers; top: in-64-32-1 = 3 layers; +2.
        assert_eq!(DenseEngine::operator_count(&light), 8);
        let heavy = PaperModel::Dlrm6.config();
        assert!(DenseEngine::operator_count(&heavy) > DenseEngine::operator_count(&light));
    }

    #[test]
    fn latency_grows_with_batch_but_sublinearly() {
        let cfg = CpuConfig::broadwell_xeon();
        let model = PaperModel::Dlrm1.config();
        let b1 = DenseEngine::execute(&cfg, &model, 1);
        let b128 = DenseEngine::execute(&cfg, &model, 128);
        assert!(b128.latency_ns > b1.latency_ns);
        // Weight reuse across the batch means 128x the work takes far less
        // than 128x the time (the paper's Section III-A observation).
        assert!(b128.latency_ns < 64.0 * b1.latency_ns);
        assert_eq!(b128.flops, 128 * b1.flops);
    }

    #[test]
    fn heavy_mlp_model_is_slower() {
        let cfg = CpuConfig::broadwell_xeon();
        let light = DenseEngine::execute(&cfg, &PaperModel::Dlrm1.config(), 16);
        let heavy = DenseEngine::execute(&cfg, &PaperModel::Dlrm6.config(), 16);
        assert!(heavy.latency_ns > light.latency_ns);
        assert!(heavy.flops > light.flops);
    }

    #[test]
    fn achieved_gflops_below_configured_peak() {
        let cfg = CpuConfig::broadwell_xeon();
        for batch in [1, 16, 128] {
            let r = DenseEngine::execute(&cfg, &PaperModel::Dlrm6.config(), batch);
            assert!(r.achieved_gflops <= cfg.peak_gflops());
            assert!(r.achieved_gflops > 0.0);
        }
    }

    #[test]
    fn gemm_time_scales_inversely_with_batch_efficiency() {
        let cfg = CpuConfig::broadwell_xeon();
        let t1 = DenseEngine::gemm_time_ns(&cfg, 1_000_000, 1);
        let t128 = DenseEngine::gemm_time_ns(&cfg, 1_000_000, 128);
        assert!(t1 > t128);
    }
}
