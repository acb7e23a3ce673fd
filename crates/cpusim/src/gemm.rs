//! CPU dense-layer (GEMM) timing model.
//!
//! MLP weights in the studied models are far smaller than the LLC, so the
//! dense layers are compute-bound on the CPU (Figure 6 shows <20 % LLC miss
//! rates for MLP). The model therefore uses a batch-dependent roofline on
//! the socket's AVX2 FMA throughput plus per-operator framework dispatch
//! overhead.

use crate::config::CpuConfig;
use centaur_dlrm::config::ModelConfig;
use centaur_dlrm::kernel::{self, FusedAct, KernelBackend, PrepackedWeights};
use centaur_dlrm::tensor::gemm_flops;
use serde::{Deserialize, Serialize};
use std::time::Instant;

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

    /// Measures the GFLOP/s this host actually achieves on an `[m, k] ×
    /// [k, n]` `f32` GEMM with the given kernel backend, by running the
    /// kernel the runtime serves from `centaur-dlrm` — `B` packed into
    /// resident strips once, before the warm-up, then
    /// `kernel::gemm_bias_act_prepacked` — the hook that grounds the
    /// analytical roofline in measured numbers.
    ///
    /// Runs one warm-up iteration plus `reps` timed iterations and reports
    /// the mean. Deterministic inputs; `reps` is clamped to at least 1.
    pub fn measure_kernel_gflops(
        backend: KernelBackend,
        m: usize,
        k: usize,
        n: usize,
        reps: u32,
    ) -> f64 {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31) % 17) as f32 * 0.125 - 1.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 7) % 13) as f32 * 0.25 - 1.5)
            .collect();
        let mut out = vec![0.0f32; m * n];
        let packed = PrepackedWeights::pack(&b, k, n);
        let mut run = || {
            kernel::gemm_bias_act_prepacked(
                backend,
                &a,
                &packed,
                None,
                FusedAct::Identity,
                &mut out,
                m,
            )
        };
        run();
        let reps = reps.max(1);
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / reps as f64;
        // Keep the result observable so the kernel cannot be optimized out.
        assert!(out.iter().all(|v| v.is_finite()));
        if ns > 0.0 {
            (gemm_flops(m, n, k) as f64) / ns
        } else {
            0.0
        }
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
    fn measured_kernel_gflops_is_positive_and_finite() {
        for backend in KernelBackend::all() {
            let gflops = DenseEngine::measure_kernel_gflops(backend, 16, 64, 32, 2);
            assert!(gflops.is_finite() && gflops > 0.0, "{backend:?}: {gflops}");
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
