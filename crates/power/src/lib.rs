//! # centaur-power
//!
//! Power and energy-efficiency models for the three evaluated systems
//! (Table IV and Figure 15(b) of the Centaur paper).
//!
//! The paper measures average socket-level power with `pcm-power` (CPU and
//! CPU+FPGA) and `nvprof` (GPU) and multiplies it by end-to-end inference
//! latency to obtain energy. This crate encodes those measured averages as
//! device constants and provides the same energy arithmetic, so any latency
//! produced by the system simulators can be converted into energy and
//! energy-efficiency comparisons.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::{Deserialize, Serialize};

/// The three system design points the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SystemKind {
    /// The CPU-only baseline (Broadwell Xeon socket).
    CpuOnly,
    /// The CPU-GPU design (Xeon host + V100 over PCIe).
    CpuGpu,
    /// The Centaur CPU+FPGA design.
    Centaur,
}

impl SystemKind {
    /// All systems in the paper's presentation order.
    pub fn all() -> [SystemKind; 3] {
        [SystemKind::CpuGpu, SystemKind::CpuOnly, SystemKind::Centaur]
    }

    /// Display label used by the figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::CpuOnly => "CPU-only",
            SystemKind::CpuGpu => "CPU-GPU",
            SystemKind::Centaur => "Centaur",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Average power draw of one system while serving recommendation inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Which system this describes.
    pub system: SystemKind,
    /// Socket-level (host) power in watts, including memory DIMMs.
    pub host_watts: f64,
    /// Accelerator-device power in watts (zero for CPU-only; the FPGA's
    /// contribution is already included in the socket measurement for
    /// Centaur, matching the paper's methodology).
    pub device_watts: f64,
}

impl PowerModel {
    /// Table IV: the CPU-only baseline draws 80 W.
    pub fn cpu_only() -> Self {
        PowerModel {
            system: SystemKind::CpuOnly,
            host_watts: 80.0,
            device_watts: 0.0,
        }
    }

    /// Table IV: the CPU-GPU design draws 91 W (CPU) + 56 W (GPU).
    pub fn cpu_gpu() -> Self {
        PowerModel {
            system: SystemKind::CpuGpu,
            host_watts: 91.0,
            device_watts: 56.0,
        }
    }

    /// Table IV: the package-integrated CPU+FPGA draws 74 W.
    pub fn centaur() -> Self {
        PowerModel {
            system: SystemKind::Centaur,
            host_watts: 74.0,
            device_watts: 0.0,
        }
    }

    /// The power model for a given system kind.
    pub fn for_system(system: SystemKind) -> Self {
        match system {
            SystemKind::CpuOnly => PowerModel::cpu_only(),
            SystemKind::CpuGpu => PowerModel::cpu_gpu(),
            SystemKind::Centaur => PowerModel::centaur(),
        }
    }

    /// Total average power in watts.
    pub fn total_watts(&self) -> f64 {
        self.host_watts + self.device_watts
    }

    /// Energy in joules for an inference that takes `latency_ns`.
    pub fn energy_joules(&self, latency_ns: f64) -> f64 {
        self.total_watts() * latency_ns * 1e-9
    }
}

/// One system's measured latency combined with its power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Which system.
    pub system: SystemKind,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: f64,
    /// Energy per inference in joules.
    pub energy_joules: f64,
}

impl EnergyReport {
    /// Builds a report from a simulated latency.
    pub fn from_latency(system: SystemKind, latency_ns: f64) -> Self {
        EnergyReport {
            system,
            latency_ns,
            energy_joules: PowerModel::for_system(system).energy_joules(latency_ns),
        }
    }

    /// Performance (1/latency) of this system normalized to `baseline`.
    pub fn performance_vs(&self, baseline: &EnergyReport) -> f64 {
        baseline.latency_ns / self.latency_ns
    }

    /// Energy-efficiency (1/energy) of this system normalized to
    /// `baseline` — the quantity plotted in Figure 15(b).
    pub fn efficiency_vs(&self, baseline: &EnergyReport) -> f64 {
        baseline.energy_joules / self.energy_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_power_values() {
        assert_eq!(PowerModel::cpu_only().total_watts(), 80.0);
        assert_eq!(PowerModel::cpu_gpu().total_watts(), 147.0);
        assert_eq!(PowerModel::centaur().total_watts(), 74.0);
        // Centaur draws less power than either baseline.
        assert!(PowerModel::centaur().total_watts() < PowerModel::cpu_only().total_watts());
        assert!(PowerModel::centaur().total_watts() < PowerModel::cpu_gpu().total_watts());
    }

    #[test]
    fn for_system_round_trips() {
        for system in SystemKind::all() {
            assert_eq!(PowerModel::for_system(system).system, system);
        }
        assert_eq!(SystemKind::Centaur.to_string(), "Centaur");
    }

    #[test]
    fn energy_is_power_times_time() {
        let p = PowerModel::cpu_only();
        // 80 W for 1 ms = 80 mJ.
        let e = p.energy_joules(1_000_000.0);
        assert!((e - 0.08).abs() < 1e-12);
    }

    #[test]
    fn efficiency_combines_speedup_and_power_ratio() {
        // If Centaur is 10x faster and draws 74/80 of the power, its
        // energy-efficiency gain is 10 * 80/74 ≈ 10.8x.
        let cpu = EnergyReport::from_latency(SystemKind::CpuOnly, 1_000_000.0);
        let centaur = EnergyReport::from_latency(SystemKind::Centaur, 100_000.0);
        assert!((centaur.performance_vs(&cpu) - 10.0).abs() < 1e-9);
        let eff = centaur.efficiency_vs(&cpu);
        assert!((eff - 10.0 * 80.0 / 74.0).abs() < 1e-6);
        // Efficiency gain exceeds the speedup because Centaur also draws
        // less power — exactly why the paper's 19.5x efficiency ceiling is
        // above its 17.2x performance ceiling.
        assert!(eff > centaur.performance_vs(&cpu));
    }

    #[test]
    fn cpu_gpu_efficiency_penalised_by_power() {
        // Equal latency, but the CPU-GPU box burns 147 W vs 80 W.
        let cpu = EnergyReport::from_latency(SystemKind::CpuOnly, 500_000.0);
        let gpu = EnergyReport::from_latency(SystemKind::CpuGpu, 500_000.0);
        assert!((gpu.performance_vs(&cpu) - 1.0).abs() < 1e-9);
        assert!(gpu.efficiency_vs(&cpu) < 0.6);
    }
}
