//! Regenerates Figure 14: Centaur's inference-time breakdown (IDX / EMB /
//! DNF / MLP / Other) and its end-to-end speedup over CPU-only.

use centaur_bench::{ExperimentRunner, TextTable};
use centaur_dlrm::PaperModel;

fn main() {
    let runner = ExperimentRunner::new();
    let mut table = TextTable::new(
        "Figure 14: Centaur latency breakdown and speedup vs CPU-only",
        &[
            "Model",
            "Batch",
            "IDX %",
            "EMB %",
            "DNF %",
            "MLP %",
            "Other %",
            "Centaur (us)",
            "CPU-only (us)",
            "Speedup (x)",
        ],
    );
    // The full model × batch grid is simulated in parallel across cores.
    let comparisons = runner.compare_matrix(&PaperModel::all(), &ExperimentRunner::batch_sizes());
    for cmp in &comparisons {
        let b = &cmp.centaur.breakdown;
        let total = cmp.centaur.total_ns();
        let pct = |x: f64| format!("{:.1}", x / total * 100.0);
        table.add_row(vec![
            cmp.model.label().to_string(),
            cmp.batch.to_string(),
            pct(b.index_fetch_ns),
            pct(b.embedding_ns),
            pct(b.dense_feature_ns),
            pct(b.mlp_ns),
            pct(b.other_ns),
            format!("{:.1}", total / 1e3),
            format!("{:.1}", cmp.cpu.total_ns() / 1e3),
            format!("{:.2}", cmp.centaur_speedup_vs_cpu()),
        ]);
    }
    table.print();

    // The MLP share above assumes the dense complex amortizes weight reads
    // over the batch; cross-check with the measured functional datapath —
    // one batch-64 call vs 64 batch-1 calls.
    let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
    if let Some(p) = runner.functional_batch_throughput(&config, &[64]).first() {
        println!(
            "Figure 14 companion: measured batching speedup at batch 64 (DLRM(1)): \
             {:.0} samples/s in one call, {:.0} in 64 batch-1 calls, {:.2}x",
            p.batch_major_sps,
            p.per_sample_sps,
            p.speedup()
        );
    }
}
