//! The assembled Centaur accelerator: timing model producing the IDX / EMB /
//! DNF / MLP / Other latency breakdown of Figure 14.

use crate::chiplet::ChipletLinkConfig;
use crate::dense::{DenseAccelerator, DenseStageTiming};
use crate::sparse::{EbStreamer, SparseStageTiming};
use centaur_dlrm::trace::InferenceTrace;
use centaur_memsim::Throughput;
use serde::{Deserialize, Serialize};

/// Top-level configuration of the Centaur system model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CentaurConfig {
    /// The CPU↔FPGA interconnect.
    pub link: ChipletLinkConfig,
    /// Host-side overhead per request: MMIO doorbell, request staging and
    /// result post-processing, in ns.
    pub host_overhead_ns: f64,
}

impl CentaurConfig {
    /// The paper's HARPv2 proof-of-concept configuration.
    pub fn harpv2() -> Self {
        CentaurConfig {
            link: ChipletLinkConfig::harpv2(),
            host_overhead_ns: 3_000.0,
        }
    }

    /// A forward-looking chiplet configuration with `bandwidth_gbs` of
    /// die-to-die bandwidth and a cache-bypassing gather path (Section VII).
    pub fn future_chiplet(bandwidth_gbs: f64) -> Self {
        CentaurConfig {
            link: ChipletLinkConfig::future_chiplet(bandwidth_gbs),
            host_overhead_ns: 3_000.0,
        }
    }
}

impl Default for CentaurConfig {
    fn default() -> Self {
        CentaurConfig::harpv2()
    }
}

/// Latency split of one Centaur inference, matching Figure 14's categories.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CentaurBreakdown {
    /// CPU→FPGA sparse-index fetch (IDX), in ns.
    pub index_fetch_ns: f64,
    /// Embedding gathers + reductions (EMB), in ns.
    pub embedding_ns: f64,
    /// CPU→FPGA dense-feature fetch (DNF), in ns.
    pub dense_feature_ns: f64,
    /// MLP + feature-interaction execution (MLP), in ns.
    pub mlp_ns: f64,
    /// Everything else: host overhead and result write-back (Other), in ns.
    pub other_ns: f64,
}

impl CentaurBreakdown {
    /// Total end-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.index_fetch_ns
            + self.embedding_ns
            + self.dense_feature_ns
            + self.mlp_ns
            + self.other_ns
    }

    /// Fraction of total time spent in the embedding stage.
    pub fn embedding_fraction(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.embedding_ns / self.total_ns()
        }
    }

    /// Fraction of total time spent in the MLP stage.
    pub fn mlp_fraction(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.mlp_ns / self.total_ns()
        }
    }
}

/// Result of one simulated Centaur batched inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentaurInferenceResult {
    /// Batch size of the request.
    pub batch: usize,
    /// IDX / EMB / DNF / MLP / Other latency split.
    pub breakdown: CentaurBreakdown,
    /// Sparse-stage detail.
    pub sparse: SparseStageTiming,
    /// Dense-stage detail.
    pub dense: DenseStageTiming,
}

impl CentaurInferenceResult {
    /// End-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }

    /// The paper's effective memory throughput for embedding gathers.
    pub fn effective_embedding_throughput(&self) -> Throughput {
        self.sparse.effective_throughput()
    }

    /// Speedup of this result over a baseline latency (e.g. CPU-only).
    pub fn speedup_over(&self, baseline_total_ns: f64) -> f64 {
        baseline_total_ns / self.total_ns()
    }
}

/// The Centaur system timing model.
#[derive(Debug, Clone)]
pub struct CentaurSystem {
    config: CentaurConfig,
    streamer: EbStreamer,
    dense: DenseAccelerator,
}

impl CentaurSystem {
    /// Creates a Centaur system with the given configuration.
    pub fn new(config: CentaurConfig) -> Self {
        CentaurSystem {
            config,
            streamer: EbStreamer::new(config.link),
            dense: DenseAccelerator::harpv2(),
        }
    }

    /// The paper's proof-of-concept prototype on Intel HARPv2.
    pub fn harpv2() -> Self {
        CentaurSystem::new(CentaurConfig::harpv2())
    }

    /// The configuration in use.
    pub fn config(&self) -> &CentaurConfig {
        &self.config
    }

    /// The sparse accelerator complex.
    pub fn streamer(&self) -> &EbStreamer {
        &self.streamer
    }

    /// Simulates one batched inference and returns its latency breakdown.
    pub fn simulate(&mut self, trace: &InferenceTrace) -> CentaurInferenceResult {
        let batch = trace.batch_size();

        // Sparse stage: index fetch + embedding gathers/reductions.
        let sparse = self.streamer.execute_timing(trace);

        // Dense-feature fetch (DNF): the bottom-MLP inputs for the batch.
        let dense_feature_ns = self.config.link.bulk_transfer_ns(trace.dense_bytes());

        // Dense stage: bottom MLP, interaction, top MLP, sigmoid.
        let dense = self.dense.execute_timing(&trace.config, batch);

        // Result write-back + host overhead.
        let writeback_ns = self.config.link.bulk_transfer_ns(4 * batch.max(1) as u64);
        let other_ns = self.config.host_overhead_ns + writeback_ns;

        CentaurInferenceResult {
            batch,
            breakdown: CentaurBreakdown {
                index_fetch_ns: sparse.index_fetch_ns,
                embedding_ns: sparse.gather_reduce_ns,
                dense_feature_ns,
                mlp_ns: dense.total_ns(),
                other_ns,
            },
            sparse,
            dense,
        }
    }
}

impl Default for CentaurSystem {
    fn default() -> Self {
        CentaurSystem::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_cpusim::CpuSystem;
    use centaur_dlrm::config::PaperModel;
    use centaur_workload::{IndexDistribution, RequestGenerator};

    fn simulate(model: PaperModel, batch: usize) -> CentaurInferenceResult {
        let config = model.config();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 21);
        let trace = generator.inference_trace(batch);
        CentaurSystem::harpv2().simulate(&trace)
    }

    fn cpu_total(model: PaperModel, batch: usize) -> f64 {
        let config = model.config();
        let mut warm = RequestGenerator::new(&config, IndexDistribution::Uniform, 99);
        let mut gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 21);
        let mut cpu = CpuSystem::broadwell();
        cpu.simulate_warm(&warm.inference_trace(batch), &gen.inference_trace(batch))
            .total_ns()
    }

    #[test]
    fn breakdown_components_positive_and_sum() {
        let r = simulate(PaperModel::Dlrm1, 16);
        assert!(r.breakdown.index_fetch_ns > 0.0);
        assert!(r.breakdown.embedding_ns > 0.0);
        assert!(r.breakdown.dense_feature_ns > 0.0);
        assert!(r.breakdown.mlp_ns > 0.0);
        assert!(r.breakdown.other_ns > 0.0);
        assert!((r.total_ns() - r.breakdown.total_ns()).abs() < 1e-9);
    }

    #[test]
    fn centaur_is_faster_than_cpu_only_at_small_and_medium_batch() {
        for model in [PaperModel::Dlrm1, PaperModel::Dlrm3, PaperModel::Dlrm6] {
            for batch in [1usize, 16] {
                let centaur = simulate(model, batch);
                let cpu = cpu_total(model, batch);
                let speedup = centaur.speedup_over(cpu);
                assert!(
                    speedup > 1.2,
                    "{model} batch {batch}: speedup {speedup:.2} should exceed 1.2"
                );
            }
        }
        // The lookup-heaviest models see their largest wins at batch 1.
        for model in [PaperModel::Dlrm2, PaperModel::Dlrm4, PaperModel::Dlrm5] {
            let centaur = simulate(model, 1);
            let cpu = cpu_total(model, 1);
            let speedup = centaur.speedup_over(cpu);
            assert!(
                speedup > 3.0,
                "{model} batch 1: speedup {speedup:.2} should exceed 3.0"
            );
        }
    }

    #[test]
    fn speedup_is_largest_at_small_batch_for_embedding_bound_models() {
        let s1 = simulate(PaperModel::Dlrm4, 1).speedup_over(cpu_total(PaperModel::Dlrm4, 1));
        let s128 = simulate(PaperModel::Dlrm4, 128).speedup_over(cpu_total(PaperModel::Dlrm4, 128));
        assert!(
            s1 > s128,
            "speedup should shrink with batch: {s1:.2} vs {s128:.2}"
        );
    }

    #[test]
    fn speedups_fall_in_paper_range() {
        // The paper reports 1.7–17.2x end-to-end. Our simulated substrate
        // reproduces the same order of magnitude; the known deviation
        // (ROADMAP.md, "The reproduction misses the paper's headline") is
        // that the lookup-heaviest models at large batches dip below 1x
        // because the paper's own measured EB-Streamer bandwidth
        // (11.9 GB/s) is below the CPU's large-batch gather bandwidth there.
        let mut speedups = Vec::new();
        for model in PaperModel::all() {
            for batch in [1usize, 16, 128] {
                let centaur = simulate(model, batch);
                let cpu = cpu_total(model, batch);
                speedups.push(centaur.speedup_over(cpu));
            }
        }
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        assert!(min > 0.55, "worst-case speedup {min:.2}");
        assert!(max < 40.0, "best-case speedup {max:.2}");
        assert!(
            max > 5.0,
            "best-case speedup {max:.2} should be substantial"
        );
        // The majority of the (model, batch) grid must favour Centaur.
        let wins = speedups.iter().filter(|&&s| s > 1.0).count();
        assert!(
            wins * 3 >= speedups.len() * 2,
            "{wins}/{} wins",
            speedups.len()
        );
    }

    #[test]
    fn embedding_dominates_centaur_time_for_lookup_heavy_models() {
        let r = simulate(PaperModel::Dlrm4, 64);
        assert!(r.breakdown.embedding_fraction() > 0.5);
        assert!(r.breakdown.mlp_fraction() < 0.4);
    }

    #[test]
    fn mlp_heavy_model_shifts_time_to_dense_stage() {
        let light = simulate(PaperModel::Dlrm1, 16);
        let heavy = simulate(PaperModel::Dlrm6, 16);
        assert!(heavy.breakdown.mlp_fraction() > light.breakdown.mlp_fraction());
    }

    #[test]
    fn future_chiplet_link_improves_embedding_time() {
        let config = PaperModel::Dlrm4.config();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 3);
        let trace = generator.inference_trace(64);
        let harp = CentaurSystem::harpv2().simulate(&trace);
        let future = CentaurSystem::new(CentaurConfig::future_chiplet(400.0)).simulate(&trace);
        // The wider link roughly halves the gather time; beyond that the
        // EB-RU's 25.6 GB/s reduction throughput becomes the next bottleneck
        // (the co-design point Section VII discusses).
        assert!(future.breakdown.embedding_ns < harp.breakdown.embedding_ns * 0.55);
        assert!(future.total_ns() < harp.total_ns());
    }

    #[test]
    fn effective_throughput_reported() {
        let r = simulate(PaperModel::Dlrm4, 128);
        let gbs = r.effective_embedding_throughput().gigabytes_per_second();
        assert!(gbs > 8.0 && gbs < 14.0, "{gbs:.1} GB/s");
    }
}
