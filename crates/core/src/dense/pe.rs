//! A single processing engine (PE): one instance of the FPGA floating-point
//! matrix-multiply IP core, configured for 32×32 tile GEMMs (Section IV-D).

use serde::{Deserialize, Serialize};

/// Static parameters of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeConfig {
    /// Square tile dimension the `FP_MATRIX_MULT` core is configured for.
    pub tile_dim: usize,
    /// Single-precision FLOPs the core retires per cycle.
    pub flops_per_cycle: f64,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Minimum cycles per tile operation (pipeline fill/drain), even when
    /// the operands are much smaller than a full tile.
    pub min_pipeline_cycles: f64,
}

impl PeConfig {
    /// The paper's configuration: 32×32 tiles; 20 PEs at 200 MHz jointly
    /// deliver 313 GFLOPS, i.e. ~78 FLOP/cycle per PE.
    pub fn harpv2() -> Self {
        PeConfig {
            tile_dim: 32,
            flops_per_cycle: 78.25,
            clock_mhz: 200.0,
            min_pipeline_cycles: 64.0,
        }
    }

    /// Peak throughput of one PE in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.flops_per_cycle * self.clock_mhz / 1000.0
    }

    /// Cycles for a (possibly partial) `m × n × k` tile GEMM on this PE.
    pub fn gemm_cycles(&self, m: usize, n: usize, k: usize) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        (flops / self.flops_per_cycle).max(self.min_pipeline_cycles)
    }

    /// Converts cycles at this PE's clock into nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles * 1000.0 / self.clock_mhz
    }
}

impl Default for PeConfig {
    fn default() -> Self {
        PeConfig::harpv2()
    }
}

/// One processing engine: the configuration its cycle accounting reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessingEngine {
    config: PeConfig,
}

impl ProcessingEngine {
    /// Creates a PE.
    pub fn new(config: PeConfig) -> Self {
        ProcessingEngine { config }
    }

    /// The PE configuration.
    pub fn config(&self) -> &PeConfig {
        &self.config
    }
}

impl Default for ProcessingEngine {
    fn default() -> Self {
        ProcessingEngine::new(PeConfig::harpv2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_peak_gflops_matches_paper_aggregate() {
        // 20 PEs (16 MLP + 4 feature interaction) must total ~313 GFLOPS.
        let pe = PeConfig::harpv2();
        let aggregate = 20.0 * pe.peak_gflops();
        assert!((aggregate - 313.0).abs() < 1.0, "aggregate = {aggregate}");
    }

    #[test]
    fn tile_gemm_cycles_positive_and_consistent() {
        let pe = PeConfig::harpv2();
        let cycles = pe.gemm_cycles(pe.tile_dim, pe.tile_dim, pe.tile_dim);
        assert!(cycles > 100.0 && cycles < 10_000.0);
        let ns = pe.cycles_to_ns(cycles);
        assert!((ns - cycles * 5.0).abs() < 1e-9, "200 MHz = 5 ns per cycle");
    }
}
