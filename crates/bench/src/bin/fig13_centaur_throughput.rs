//! Regenerates Figure 13: Centaur's effective gather bandwidth and its
//! improvement over CPU-only — (a) per model/batch, (b) swept over total
//! lookups per table.

use centaur_bench::{ExperimentRunner, TextTable};
use centaur_dlrm::PaperModel;

fn main() {
    let runner = ExperimentRunner::new();

    let mut a = TextTable::new(
        "Figure 13(a): Centaur effective gather bandwidth and improvement vs CPU-only",
        &[
            "Model",
            "Batch",
            "Centaur GB/s",
            "CPU GB/s",
            "Improvement (x)",
        ],
    );
    for model in PaperModel::all() {
        for batch in ExperimentRunner::batch_sizes() {
            let cpu = runner.run_cpu(&model.config(), batch);
            let centaur = runner.run_centaur(&model.config(), batch);
            let cpu_gbs = cpu.effective_embedding_throughput().gigabytes_per_second();
            let cen_gbs = centaur
                .effective_embedding_throughput()
                .gigabytes_per_second();
            a.add_row(vec![
                model.label().to_string(),
                batch.to_string(),
                format!("{cen_gbs:.2}"),
                format!("{cpu_gbs:.2}"),
                format!("{:.2}", cen_gbs / cpu_gbs),
            ]);
        }
    }
    a.print();

    let mut b = TextTable::new(
        "Figure 13(b): Centaur effective throughput vs total lookups per table (single-table DLRM(4))",
        &["Batch", "Total lookups/table", "Centaur GB/s", "CPU GB/s"],
    );
    for batch in ExperimentRunner::batch_sizes() {
        for point in runner.lookup_sweep(batch, &[batch, batch * 5, batch * 25, 100, 200, 400, 800])
        {
            b.add_row(vec![
                point.batch.to_string(),
                point.total_lookups_per_table.to_string(),
                format!("{:.2}", point.centaur_gbs),
                format!("{:.2}", point.cpu_gbs),
            ]);
        }
    }
    b.print();

    // Companion measurement on the *functional* datapath: the throughput
    // the paper attributes to batching only materializes when the batch
    // rides through the MLP GEMMs as m — shown here as measured samples/s
    // of one batch-N call vs N batch-1 calls.
    let mut c = TextTable::new(
        "Figure 13(c): measured functional throughput, one batch-N call vs N batch-1 calls (DLRM(1))",
        &["Batch", "Batch-N samples/s", "Batch-1 samples/s", "Speedup (x)"],
    );
    let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
    for point in runner.functional_batch_throughput(&config, &ExperimentRunner::batch_sizes()) {
        c.add_row(vec![
            point.batch.to_string(),
            format!("{:.0}", point.batch_major_sps),
            format!("{:.0}", point.per_sample_sps),
            format!("{:.2}", point.speedup()),
        ]);
    }
    c.print();
}
