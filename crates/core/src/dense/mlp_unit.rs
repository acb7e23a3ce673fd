//! The MLP unit: a 4×4 spatial array of processing engines driven by an
//! output-stationary dataflow (Figures 11 and 12).
//!
//! The control unit tiles the input and weight matrices into 32×32 tiles,
//! broadcasts weight tiles along PE rows and input tiles along PE columns,
//! and each PE accumulates its output tile in a private SRAM buffer.

use crate::dense::pe::{PeConfig, ProcessingEngine};
use serde::{Deserialize, Serialize};

/// The spatial PE array executing GEMMs for the MLP layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpUnit {
    rows: usize,
    cols: usize,
    pe: ProcessingEngine,
    gemms_executed: u64,
}

impl MlpUnit {
    /// Creates an MLP unit with a `rows × cols` PE array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, pe_config: PeConfig) -> Self {
        assert!(rows > 0 && cols > 0, "PE array needs non-zero dimensions");
        MlpUnit {
            rows,
            cols,
            pe: ProcessingEngine::new(pe_config),
            gemms_executed: 0,
        }
    }

    /// The paper's configuration: a 4×4 array of 32×32-tile PEs at 200 MHz.
    pub fn harpv2() -> Self {
        MlpUnit::new(4, 4, PeConfig::harpv2())
    }

    /// Number of PEs in the array.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// The per-PE configuration.
    pub fn pe_config(&self) -> &PeConfig {
        self.pe.config()
    }

    /// Aggregate peak throughput of the array in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.num_pes() as f64 * self.pe.config().peak_gflops()
    }

    /// GEMMs executed so far.
    pub fn gemms_executed(&self) -> u64 {
        self.gemms_executed
    }

    /// Records `count` GEMMs dispatched to the array by the dense complex.
    /// The functional datapath runs the model's layer GEMMs on the kernel
    /// backend; they still occupy the array, so the utilization counter
    /// must advance.
    pub fn record_gemms(&mut self, count: u64) {
        self.gemms_executed += count;
    }

    /// Total PE cycles for a `[m, k] × [k, n]` GEMM, accounting for partial
    /// edge tiles (which take fewer cycles than full tiles, down to the
    /// pipeline-fill minimum).
    pub fn gemm_total_cycles(&self, m: usize, n: usize, k: usize) -> f64 {
        let t = self.pe.config().tile_dim;
        let mut cycles = 0.0;
        for mi in (0..m).step_by(t) {
            let mt = (m - mi).min(t);
            for ni in (0..n).step_by(t) {
                let nt = (n - ni).min(t);
                for ki in (0..k).step_by(t) {
                    let kt = (k - ki).min(t);
                    cycles += self.pe.config().gemm_cycles(mt, nt, kt);
                }
            }
        }
        cycles
    }

    /// Time in nanoseconds for a `[m, k] × [k, n]` GEMM on the PE array,
    /// with tiles spread across the PEs (a GEMM can never finish faster
    /// than its longest single k-reduction chain on one PE).
    pub fn gemm_time_ns(&self, m: usize, n: usize, k: usize) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let total_cycles = self.gemm_total_cycles(m, n, k);
        let t = self.pe.config().tile_dim;
        // One output tile's k-chain is serial on its PE.
        let chain_cycles =
            k.div_ceil(t) as f64 * self.pe.config().gemm_cycles(m.min(t), n.min(t), k.min(t));
        let parallel_cycles = (total_cycles / self.num_pes() as f64).max(chain_cycles);
        self.pe.config().cycles_to_ns(parallel_cycles)
    }

    /// Time for a full MLP forward pass described by `dims` (layer widths
    /// including input) on a batch of `batch` samples, in nanoseconds.
    /// `per_layer_overhead_ns` models the pipeline drain/configuration
    /// between layers.
    pub fn mlp_time_ns(&self, dims: &[usize], batch: usize, per_layer_overhead_ns: f64) -> f64 {
        dims.windows(2)
            .map(|w| self.gemm_time_ns(batch, w[1], w[0]) + per_layer_overhead_ns)
            .sum()
    }
}

impl Default for MlpUnit {
    fn default() -> Self {
        MlpUnit::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harpv2_array_is_4x4() {
        let unit = MlpUnit::harpv2();
        assert_eq!(unit.num_pes(), 16);
        // 16 of the 20 PEs → ~250 of the 313 GFLOPS.
        assert!((unit.peak_gflops() - 16.0 * 15.65).abs() < 1.0);
    }

    #[test]
    fn tile_count_rounds_up() {
        // A dimension one past a tile adds a partial edge tile, which costs
        // at least the pipeline-fill minimum.
        let unit = MlpUnit::harpv2();
        let pe = unit.pe_config();
        let tile = pe.gemm_cycles(32, 32, 32);
        assert_eq!(unit.gemm_total_cycles(32, 32, 32), tile);
        assert_eq!(
            unit.gemm_total_cycles(33, 32, 32),
            tile + pe.gemm_cycles(1, 32, 32)
        );
        assert_eq!(unit.gemm_total_cycles(64, 64, 64), 8.0 * tile);
        assert_eq!(unit.gemm_total_cycles(1, 1, 1), pe.min_pipeline_cycles);
    }

    #[test]
    fn gemm_time_scales_with_tiles() {
        let unit = MlpUnit::harpv2();
        let small = unit.gemm_time_ns(32, 32, 32);
        let large = unit.gemm_time_ns(128, 128, 128);
        assert!(large > small);
        // 128³ = 64 tiles over 16 PEs = 4 waves.
        let pe = unit.pe_config();
        let tile_ns = pe.cycles_to_ns(pe.gemm_cycles(pe.tile_dim, pe.tile_dim, pe.tile_dim));
        assert!((large / tile_ns - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mlp_time_sums_layers() {
        let unit = MlpUnit::harpv2();
        let dims = [13, 128, 64, 32];
        let t = unit.mlp_time_ns(&dims, 16, 100.0);
        let manual: f64 = dims
            .windows(2)
            .map(|w| unit.gemm_time_ns(16, w[1], w[0]) + 100.0)
            .sum();
        assert!((t - manual).abs() < 1e-9);
        assert!(t > 300.0);
    }

    #[test]
    fn array_throughput_beats_single_pe() {
        let unit = MlpUnit::harpv2();
        let single = MlpUnit::new(1, 1, PeConfig::harpv2());
        assert!(unit.gemm_time_ns(256, 256, 256) < single.gemm_time_ns(256, 256, 256));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_array_panics() {
        MlpUnit::new(0, 4, PeConfig::harpv2());
    }
}
