//! Criterion group `batch_forward`: one batch-N call of
//! `DlrmModel::forward_batch_into` (one GEMM per layer for the whole batch)
//! against N batch-1 calls of the same function (one `m = 1` GEMM per layer
//! per sample), on the oracle and the production backend.
//!
//! This is the evidence for the paper's core batching claim: the dense
//! complex only amortizes MLP weight reads when the batch rides through the
//! GEMM as `m`. On the production backend the weights are already resident
//! strips, so what batching buys is one weight stream per batch instead of
//! one per sample (≈ 1.7× on the reference host); the oracle gains nothing.

use centaur_dlrm::config::PaperModel;
use centaur_dlrm::kernel::KernelBackend;
use centaur_dlrm::{BatchWorkspace, DlrmModel, Matrix};
use centaur_workload::{FunctionalBatch, IndexDistribution, RequestGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn request(model: &DlrmModel, batch: usize) -> FunctionalBatch {
    let mut generator = RequestGenerator::new(model.config(), IndexDistribution::Uniform, 0xBA7C4);
    generator.functional_batch(batch)
}

fn bench_batch_forward(c: &mut Criterion) {
    // DLRM(6) is the paper's MLP-heavy configuration (heavyweight MLP, two
    // lookups per table) — the workload whose dense compute batching is
    // supposed to amortize. Tables are scaled down (the MLP shapes, which
    // are what is being measured, stay the paper's).
    let config = PaperModel::Dlrm6.config().with_rows_per_table(4096);
    let model = DlrmModel::random(&config, 3).expect("valid model");

    for &batch in &[16usize, 64] {
        let req = request(&model, batch);
        let rows: Vec<Matrix> = (0..batch)
            .map(|i| Matrix::row_vector(req.dense.row(i)))
            .collect();
        for backend in KernelBackend::all() {
            let label = backend.label();
            let mut ws = BatchWorkspace::new();
            let mut out = vec![0.0f32; batch];

            c.bench_function(&format!("per_sample_{label}_b{batch}"), |b| {
                b.iter(|| {
                    for (i, row) in rows.iter().enumerate() {
                        model
                            .forward_batch_into(
                                backend,
                                black_box(row),
                                black_box(&req.sparse[i..=i]),
                                &mut out[i..=i],
                                &mut ws,
                            )
                            .unwrap();
                    }
                })
            });

            c.bench_function(&format!("batch_major_{label}_b{batch}"), |b| {
                b.iter(|| {
                    model
                        .forward_batch_into(
                            backend,
                            black_box(&req.dense),
                            black_box(&req.sparse),
                            &mut out,
                            &mut ws,
                        )
                        .unwrap()
                })
            });
        }
    }
}

criterion_group!(batch_forward, bench_batch_forward);
criterion_main!(batch_forward);
