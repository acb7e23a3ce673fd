//! Regenerates Figure 15: performance (a) and energy-efficiency (b) of
//! CPU-GPU, CPU-only and Centaur, normalized to CPU-GPU.

use centaur_bench::{ExperimentRunner, TextTable};
use centaur_dlrm::PaperModel;
use centaur_power::SystemKind;

fn main() {
    let runner = ExperimentRunner::new();
    let mut table = TextTable::new(
        "Figure 15: performance and energy-efficiency normalized to CPU-GPU",
        &[
            "Model",
            "Batch",
            "Perf CPU-GPU",
            "Perf CPU-only",
            "Perf Centaur",
            "Eff CPU-GPU",
            "Eff CPU-only",
            "Eff Centaur",
        ],
    );
    // The full model × batch grid is simulated in parallel across cores.
    let comparisons = runner.compare_matrix(&PaperModel::all(), &ExperimentRunner::batch_sizes());
    for cmp in &comparisons {
        table.add_row(vec![
            cmp.model.label().to_string(),
            cmp.batch.to_string(),
            format!("{:.2}", cmp.performance_vs_cpu_gpu(SystemKind::CpuGpu)),
            format!("{:.2}", cmp.performance_vs_cpu_gpu(SystemKind::CpuOnly)),
            format!("{:.2}", cmp.performance_vs_cpu_gpu(SystemKind::Centaur)),
            format!("{:.2}", cmp.efficiency_vs_cpu_gpu(SystemKind::CpuGpu)),
            format!("{:.2}", cmp.efficiency_vs_cpu_gpu(SystemKind::CpuOnly)),
            format!("{:.2}", cmp.efficiency_vs_cpu_gpu(SystemKind::Centaur)),
        ]);
    }
    table.print();

    // Summary line: the paper's headline range vs CPU-only.
    let mut speedups = Vec::new();
    let mut efficiencies = Vec::new();
    for cmp in &comparisons {
        speedups.push(cmp.centaur_speedup_vs_cpu());
        efficiencies.push(
            cmp.efficiency_vs_cpu_gpu(SystemKind::Centaur)
                / cmp.efficiency_vs_cpu_gpu(SystemKind::CpuOnly),
        );
    }
    let minmax = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::MAX, f64::min),
            v.iter().cloned().fold(0.0_f64, f64::max),
        )
    };
    let (smin, smax) = minmax(&speedups);
    let (emin, emax) = minmax(&efficiencies);
    println!("Centaur vs CPU-only: speedup {smin:.1}-{smax:.1}x (paper: 1.7-17.2x)");
    println!("Centaur vs CPU-only: energy-efficiency {emin:.1}-{emax:.1}x (paper: 1.7-19.5x)");

    // Measured on the functional datapath: the batch-major execution the
    // performance model assumes, vs the same samples one call each.
    let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
    if let Some(p) = runner.functional_batch_throughput(&config, &[64]).first() {
        println!(
            "Measured batch-major inference at batch 64: {:.0} samples/s, \
             {:.2}x over 64 batch-1 calls",
            p.batch_major_sps,
            p.speedup()
        );
    }
}
