//! FPGA device and resource-utilization model (Tables II and III of the
//! paper): ALMs, block-memory bits, RAM blocks, DSPs and PLLs of the Altera
//! Arria 10 GX1150, and how the Centaur design's modules consume them.

use serde::{Deserialize, Serialize};

/// A bundle of FPGA resources (capacities or usages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FpgaResources {
    /// Adaptive logic modules (combinational logic + registers).
    pub alms: u64,
    /// Block-memory bits.
    pub block_mem_bits: u64,
    /// RAM blocks (M20K instances).
    pub ram_blocks: u64,
    /// DSP blocks (hardened floating-point/MAC units).
    pub dsps: u64,
    /// Phase-locked loops.
    pub plls: u64,
}

impl FpgaResources {
    /// The Altera Arria 10 GX1150 device capacity (Table II, "Max" row).
    pub fn arria10_gx1150() -> Self {
        FpgaResources {
            alms: 427_200,
            block_mem_bits: 55_500_000,
            ram_blocks: 2_713,
            dsps: 1_518,
            plls: 176,
        }
    }

    /// The Centaur design's total utilization on that device (Table II,
    /// "Centaur" row).
    pub fn centaur_total() -> Self {
        FpgaResources {
            alms: 127_719,
            block_mem_bits: 23_700_000,
            ram_blocks: 2_238,
            dsps: 784,
            plls: 48,
        }
    }

    /// Utilization of each resource as a fraction of `capacity`
    /// `(alm, block-mem, ram-blocks, dsp, pll)`.
    pub fn utilization(&self, capacity: &FpgaResources) -> ResourceUtilization {
        let frac = |used: u64, max: u64| {
            if max == 0 {
                0.0
            } else {
                used as f64 / max as f64
            }
        };
        ResourceUtilization {
            alms: frac(self.alms, capacity.alms),
            block_mem_bits: frac(self.block_mem_bits, capacity.block_mem_bits),
            ram_blocks: frac(self.ram_blocks, capacity.ram_blocks),
            dsps: frac(self.dsps, capacity.dsps),
            plls: frac(self.plls, capacity.plls),
        }
    }
}

/// Per-resource utilization fractions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUtilization {
    /// ALM utilization (0–1).
    pub alms: f64,
    /// Block-memory-bit utilization (0–1).
    pub block_mem_bits: f64,
    /// RAM-block utilization (0–1).
    pub ram_blocks: f64,
    /// DSP utilization (0–1).
    pub dsps: f64,
    /// PLL utilization (0–1).
    pub plls: f64,
}

/// Which half of the hybrid accelerator a module belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComplexKind {
    /// The sparse accelerator complex (EB-Streamer).
    Sparse,
    /// The dense accelerator complex (GEMM engines).
    Dense,
    /// Platform glue (link interfaces, control, clocking).
    Other,
}

/// Resource usage of one sub-module (one row of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ModuleUsage {
    /// Module name as used in Table III.
    pub name: &'static str,
    /// Which complex it belongs to.
    pub complex: ComplexKind,
    /// Combinational-logic cells used.
    pub lc_comb: u64,
    /// Logic-cell registers used.
    pub lc_reg: u64,
    /// Block-memory bits used.
    pub block_mem_bits: u64,
    /// DSP blocks used.
    pub dsps: u64,
}

/// The full Centaur design as a list of sub-modules (Table III).
pub fn centaur_modules() -> Vec<ModuleUsage> {
    use ComplexKind::*;
    vec![
        ModuleUsage {
            name: "Base ptr reg.",
            complex: Sparse,
            lc_comb: 98,
            lc_reg: 211,
            block_mem_bits: 0,
            dsps: 0,
        },
        ModuleUsage {
            name: "Gather unit",
            complex: Sparse,
            lc_comb: 295,
            lc_reg: 216,
            block_mem_bits: 0,
            dsps: 0,
        },
        ModuleUsage {
            name: "Reduction unit",
            complex: Sparse,
            lc_comb: 108,
            lc_reg: 8_260,
            block_mem_bits: 0,
            dsps: 96,
        },
        ModuleUsage {
            name: "Sparse SRAM arrays",
            complex: Sparse,
            lc_comb: 350,
            lc_reg: 98,
            block_mem_bits: 12_200_000,
            dsps: 0,
        },
        ModuleUsage {
            name: "MLP unit",
            complex: Dense,
            lc_comb: 40_000,
            lc_reg: 131_000,
            block_mem_bits: 2_300_000,
            dsps: 512,
        },
        ModuleUsage {
            name: "Feat. int. unit",
            complex: Dense,
            lc_comb: 10_000,
            lc_reg: 33_000,
            block_mem_bits: 593_000,
            dsps: 128,
        },
        ModuleUsage {
            name: "Dense SRAM arrays",
            complex: Dense,
            lc_comb: 1_000,
            lc_reg: 11_000,
            block_mem_bits: 1_600_000,
            dsps: 48,
        },
        ModuleUsage {
            name: "Weights",
            complex: Dense,
            lc_comb: 13,
            lc_reg: 77,
            block_mem_bits: 5_200_000,
            dsps: 0,
        },
        ModuleUsage {
            name: "Misc.",
            complex: Other,
            lc_comb: 587,
            lc_reg: 6_000,
            block_mem_bits: 608_000,
            dsps: 0,
        },
    ]
}

/// Aggregated view over [`centaur_modules`] used to regenerate Tables II
/// and III.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResourceReport {
    /// Per-module usages.
    pub modules: Vec<ModuleUsage>,
    /// Device capacity.
    pub capacity: FpgaResources,
    /// Total design usage (Table II).
    pub total: FpgaResources,
}

impl ResourceReport {
    /// Builds the report for the paper's design on the Arria 10.
    pub fn harpv2_centaur() -> Self {
        ResourceReport {
            modules: centaur_modules(),
            capacity: FpgaResources::arria10_gx1150(),
            total: FpgaResources::centaur_total(),
        }
    }

    /// Sum of per-module DSP usage for one complex.
    pub fn dsps_of(&self, complex: ComplexKind) -> u64 {
        self.modules
            .iter()
            .filter(|m| m.complex == complex)
            .map(|m| m.dsps)
            .sum()
    }

    /// Sum of per-module block-memory bits for one complex.
    pub fn block_mem_of(&self, complex: ComplexKind) -> u64 {
        self.modules
            .iter()
            .filter(|m| m.complex == complex)
            .map(|m| m.block_mem_bits)
            .sum()
    }

    /// Sum of per-module combinational logic for one complex.
    pub fn lc_comb_of(&self, complex: ComplexKind) -> u64 {
        self.modules
            .iter()
            .filter(|m| m.complex == complex)
            .map(|m| m.lc_comb)
            .sum()
    }

    /// Whole-design utilization fractions (the percentages of Table II).
    pub fn utilization(&self) -> ResourceUtilization {
        self.total.utilization(&self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centaur_fits_on_arria10() {
        let total = FpgaResources::centaur_total();
        let device = FpgaResources::arria10_gx1150();
        let fits = |u: ResourceUtilization| {
            [u.alms, u.block_mem_bits, u.ram_blocks, u.dsps, u.plls]
                .iter()
                .all(|&f| f <= 1.0)
        };
        assert!(fits(total.utilization(&device)));
        assert!(!fits(device.utilization(&total)));
    }

    #[test]
    fn table2_utilization_percentages() {
        let report = ResourceReport::harpv2_centaur();
        let u = report.utilization();
        assert!(
            (u.alms * 100.0 - 29.9).abs() < 0.2,
            "ALM {:.1}%",
            u.alms * 100.0
        );
        assert!((u.block_mem_bits * 100.0 - 42.7).abs() < 0.5);
        assert!((u.ram_blocks * 100.0 - 82.5).abs() < 0.5);
        assert!((u.dsps * 100.0 - 51.6).abs() < 0.5);
        assert!((u.plls * 100.0 - 27.3).abs() < 0.5);
    }

    #[test]
    fn sparse_complex_is_memory_heavy_and_logic_light() {
        // Table III's qualitative claim: the sparse complex is dominated by
        // the index SRAM (over half the design's block memory goes to
        // sparse) while using a small share of logic and DSPs.
        let report = ResourceReport::harpv2_centaur();
        let sparse_mem = report.block_mem_of(ComplexKind::Sparse);
        let dense_mem = report.block_mem_of(ComplexKind::Dense);
        assert!(sparse_mem > dense_mem);
        assert!(
            report.lc_comb_of(ComplexKind::Sparse) < report.lc_comb_of(ComplexKind::Dense) / 10
        );
        assert!(report.dsps_of(ComplexKind::Sparse) < report.dsps_of(ComplexKind::Dense) / 4);
    }

    #[test]
    fn dense_complex_uses_most_dsps() {
        let report = ResourceReport::harpv2_centaur();
        let dense = report.dsps_of(ComplexKind::Dense);
        let total: u64 = report.modules.iter().map(|m| m.dsps).sum();
        assert!(dense as f64 / total as f64 > 0.85);
    }

    #[test]
    fn plus_and_utilization_handle_zero_capacity() {
        let a = FpgaResources {
            alms: 1,
            block_mem_bits: 2,
            ram_blocks: 3,
            dsps: 4,
            plls: 5,
        };
        let zero = FpgaResources::default();
        let u = a.utilization(&zero);
        assert_eq!(u.alms, 0.0);
    }

    #[test]
    fn module_table_matches_table3_totals_approximately() {
        let report = ResourceReport::harpv2_centaur();
        let sparse_total_mem = report.block_mem_of(ComplexKind::Sparse);
        assert!((sparse_total_mem as f64 - 12.2e6).abs() / 12.2e6 < 0.05);
        let dense_total_mem = report.block_mem_of(ComplexKind::Dense);
        assert!((dense_total_mem as f64 - 9.7e6).abs() / 9.7e6 < 0.05);
        assert_eq!(report.dsps_of(ComplexKind::Sparse), 96);
        assert_eq!(report.dsps_of(ComplexKind::Dense), 688);
    }
}
