//! Criterion micro-benchmarks of the kernels underlying every experiment:
//! the `SparseLengthsSum` gather/reduce, the EB-Streamer's count tax over
//! the bag's gather, the GEMM backends (naive oracle vs production), the
//! dot-product feature interaction and the random embedding-table fill.

use centaur::sparse::EbStreamer;
use centaur_dlrm::kernel::{self, FusedAct, KernelBackend, PrepackedWeights};
use centaur_dlrm::{EmbeddingBag, EmbeddingTable, FeatureInteraction, Matrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_gather_reduce(c: &mut Criterion) {
    let bag = EmbeddingBag::random(8, 50_000, 32, 7);
    let indices: Vec<Vec<u32>> = (0..8)
        .map(|t| {
            (0..40u32)
                .map(|i| (t as u32 * 977 + i * 131) % 50_000)
                .collect()
        })
        .collect();

    // One request: a batch of one.
    let one = [&indices];
    let mut reduced = vec![0.0f32; 8 * 32];
    c.bench_function("sparse_lengths_sum_into_preallocated", |b| {
        b.iter(|| {
            bag.reduce_batch_into(black_box(&one), &mut reduced, 8 * 32, 0)
                .unwrap()
        })
    });

    let mut streamer = EbStreamer::default();
    c.bench_function("eb_streamer_gather_reduce_into", |b| {
        b.iter(|| {
            streamer
                .gather_reduce_batch_into(black_box(&bag), black_box(&one), &mut reduced, 8 * 32, 0)
                .unwrap()
        })
    });
}

fn bench_gemm_backends(c: &mut Criterion) {
    for &(m, k, n) in &[(64usize, 128usize, 64usize), (256, 512, 512)] {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 31) % 17) as f32 - 8.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 13) % 11) as f32 * 0.125).collect();
        let mut out = vec![0.0f32; m * n];
        let packed = PrepackedWeights::pack(&b, k, n);
        for backend in KernelBackend::all() {
            c.bench_function(&format!("gemm_{}_{m}x{k}x{n}", backend.label()), |bench| {
                bench.iter(|| {
                    kernel::gemm_bias_act_prepacked(
                        backend,
                        black_box(&a),
                        black_box(&packed),
                        None,
                        FusedAct::Identity,
                        &mut out,
                        m,
                    )
                })
            });
        }
    }
}

fn bench_gemm(c: &mut Criterion) {
    let a = Matrix::from_fn(64, 128, |r, col| ((r * 31 + col) % 17) as f32 - 8.0);
    let w = Matrix::from_fn(128, 64, |r, col| ((r + col * 13) % 11) as f32 * 0.125);

    c.bench_function("matrix_matmul_64x128x64", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&w)).unwrap())
    });
}

fn bench_interaction(c: &mut Criterion) {
    let features = Matrix::from_fn(51, 32, |r, col| ((r * 7 + col) % 9) as f32 - 4.0);
    let fi = FeatureInteraction::new(51, 32).unwrap();
    let mut out = vec![0.0f32; fi.output_dim()];
    c.bench_function("feature_interaction_into_51x32", |b| {
        b.iter(|| fi.interact_batch_into(black_box(features.as_slice()), 1, &mut out))
    });
}

fn bench_embedding_fill(c: &mut Criterion) {
    // One paper-size table (25.6 MB) built from scratch: the mapping, its
    // first touch and the fill — a fifth of a DLRM(1)/(3) cold start's
    // table work.
    c.bench_function("embedding_table_random_200000x32", |b| {
        b.iter(|| EmbeddingTable::random(200_000, 32, black_box(7)))
    });
}

criterion_group!(
    kernels,
    bench_gather_reduce,
    bench_gemm_backends,
    bench_gemm,
    bench_interaction,
    bench_embedding_fill
);
criterion_main!(kernels);
