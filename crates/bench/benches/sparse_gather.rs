//! Criterion group `sparse_gather`: the embedding gather-reduce engine on
//! the oracle and the production backend across index distributions, at the
//! bag level (the kernel + table-major sweep, no accelerator bookkeeping).
//!
//! This is the evidence for the sparse-side overhaul: the vectorized
//! backend's register-tiled, prefetching, AVX2-dispatched inner loop must
//! beat the scalar per-row accumulate chain on both the paper's worst-case
//! uniform draw and a production-like Zipfian skew — while staying bitwise
//! identical (property-tested in `sparse_backend_properties`).

use centaur_dlrm::kernel::SparseBackend;
use centaur_dlrm::{DlrmModel, PaperModel};
use centaur_workload::{IndexDistribution, RequestGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_sparse_gather(c: &mut Criterion) {
    // Gather-heavy DLRM(1): 5 tables × 20 lookups/sample. Tables are scaled
    // down so the bench binary stays light; the index streams and reduction
    // shapes (what is being measured) are the paper's.
    let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
    let model = DlrmModel::random(&config, 3).expect("valid model");
    let bag = model.embeddings();
    let stride = bag.num_tables() * bag.dim();
    let batch = 64;

    for (dist_label, dist) in [
        ("uniform", IndexDistribution::Uniform),
        ("zipf", IndexDistribution::production_skew()),
    ] {
        let mut generator = RequestGenerator::new(&config, dist, 0x5EED);
        let request = generator.functional_batch(batch);
        let mut reduced = vec![0.0f32; batch * stride];
        for backend in SparseBackend::all() {
            c.bench_function(
                &format!("sparse_gather_{}_{}_b{batch}", backend.label(), dist_label),
                |b| {
                    b.iter(|| {
                        bag.reduce_batch_into_with(
                            black_box(&request.sparse),
                            &mut reduced,
                            stride,
                            0,
                            backend,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
}

criterion_group!(sparse_gather, bench_sparse_gather);
criterion_main!(sparse_gather);
