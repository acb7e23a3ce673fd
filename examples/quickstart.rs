//! Quickstart: build a small DLRM model, run a functional inference on the
//! Centaur accelerator datapath, check it against the reference model, and
//! compare predicted latency against the CPU-only and CPU-GPU baselines.
//!
//! Run with: `cargo run --release --example quickstart`

use centaur::{CentaurRuntime, CentaurSystem};
use centaur_cpusim::CpuSystem;
use centaur_dlrm::{DlrmModel, PaperModel};
use centaur_gpusim::CpuGpuSystem;
use centaur_workload::{IndexDistribution, RequestGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A DLRM(1)-shaped model, scaled down to 4096 rows per table so the
    //    functional tables fit comfortably in memory.
    let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
    let model = DlrmModel::random(&config, 42)?;
    println!(
        "Model: {} tables x {} rows, {}-dim embeddings, {:.1} KB of MLP parameters",
        config.num_tables,
        config.rows_per_table,
        config.embedding_dim,
        config.mlp_bytes() as f64 / 1e3
    );

    // 2. Generate a batch of requests.
    let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 7);
    let batch = generator.functional_batch(8);

    // 3. Functional inference through the accelerator datapath.
    let mut runtime = CentaurRuntime::harpv2(model.clone())?;
    let mut accelerator_probs = vec![0.0f32; batch.sparse.len()];
    runtime.infer_batch_into(&batch.dense, &batch.sparse, &mut accelerator_probs)?;
    let reference_probs = model.forward_batch(&batch.dense, &batch.sparse)?;
    for (i, (a, r)) in accelerator_probs.iter().zip(&reference_probs).enumerate() {
        println!("sample {i}: centaur={a:.6} reference={r:.6}");
        assert_eq!(a, r, "accelerator result diverged");
    }

    // 4. Predicted latency of the three system design points on the full
    //    (Table I sized) DLRM(1) at batch 16.
    let full = PaperModel::Dlrm1.config();
    let mut gen = RequestGenerator::new(&full, IndexDistribution::Uniform, 11);
    let trace = gen.inference_trace(16);

    let cpu = CpuSystem::broadwell().simulate(&trace);
    let gpu = CpuGpuSystem::dgx1().simulate(&trace);
    let centaur = CentaurSystem::harpv2().simulate(&trace);

    println!("\nPredicted end-to-end latency, DLRM(1) batch 16:");
    println!("  CPU-only : {:8.1} us", cpu.total_ns() / 1e3);
    println!("  CPU-GPU  : {:8.1} us", gpu.total_ns() / 1e3);
    println!(
        "  Centaur  : {:8.1} us  ({:.1}x speedup over CPU-only)",
        centaur.total_ns() / 1e3,
        centaur.speedup_over(cpu.total_ns())
    );
    Ok(())
}
