//! Criterion group `sparse_gather`: the embedding gather-reduce engine on
//! the oracle and the production backend across index distributions, at the
//! bag level (the kernel + table-major sweep, no accelerator bookkeeping).
//!
//! Two cases, and they see different things:
//!
//! - **`sparse_gather_{scalar,vectorized}_*`** — DLRM(1) on 4 096-row
//!   tables (512 KB each, L2-resident). Every row is a cache hit, so this
//!   compares instructions: the vectorized backend's register-tiled,
//!   AVX2-dispatched inner loop must beat the scalar per-row accumulate
//!   chain on both the paper's worst-case uniform draw and a
//!   production-like Zipfian skew — while staying bitwise identical
//!   (property-tested in `sparse_backend_properties`). It cannot tell a
//!   prefetch window from none.
//! - **`sparse_gather_paper_dlrm3_*`** — DLRM(3) on the paper's 200 000-row
//!   tables (25.6 MB each), production backend only. This is the case that
//!   exercises the **miss path**: most rows come from DRAM, the time is
//!   memory latency over misses in flight, and the rolling prefetch window
//!   of `kernel::gather_lists_sum` is what it measures — on every row of
//!   the uniform draw, on the cold tail of the Zipf one.

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
    let distributions = [
        ("uniform", IndexDistribution::Uniform),
        ("zipf", IndexDistribution::production_skew()),
    ];

    for (dist_label, dist) in distributions {
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

    let config = PaperModel::Dlrm3.config();
    let model = DlrmModel::random(&config, 3).expect("valid model");
    let bag = model.embeddings();
    let stride = bag.num_tables() * bag.dim();
    for (dist_label, dist) in distributions {
        // Several batches in rotation: one batch's 3.3 MB of gathered rows
        // would sit in the last-level cache from one iteration to the next.
        let mut generator = RequestGenerator::new(&config, dist, 0x5EED);
        let requests: Vec<_> = (0..8).map(|_| generator.functional_batch(batch)).collect();
        let mut next = 0;
        let mut reduced = vec![0.0f32; batch * stride];
        c.bench_function(
            &format!("sparse_gather_paper_dlrm3_{dist_label}_b{batch}"),
            |b| {
                b.iter(|| {
                    next = (next + 1) % requests.len();
                    bag.reduce_batch_into(
                        black_box(&requests[next].sparse),
                        &mut reduced,
                        stride,
                        0,
                    )
                    .unwrap()
                })
            },
        );
    }
}

criterion_group!(sparse_gather, bench_sparse_gather);
criterion_main!(sparse_gather);
