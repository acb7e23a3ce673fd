//! Criterion comparison of the two GEMM backends (oracle and production)
//! over resident strips, including the acceptance shape: a 256×512 ×
//! 512×512 `f32` matmul, where the blocked kernel must beat `Naive` by
//! ≥ 5×.
//!
//! Also times the fused GEMM+bias+activation epilogue against the unfused
//! `Matrix` sequence, and the zero-allocation MLP workspace path.

use centaur_dlrm::kernel::{self, FusedAct, KernelBackend, PrepackedWeights, Workspace};
use centaur_dlrm::{Activation, Matrix, Mlp};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn inputs(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a = (0..m * k)
        .map(|i| ((i * 31) % 17) as f32 * 0.125 - 1.0)
        .collect();
    let b = (0..k * n)
        .map(|i| ((i * 7) % 13) as f32 * 0.25 - 1.5)
        .collect();
    (a, b, vec![0.0; m * n])
}

fn bench_gemm_shape(c: &mut Criterion, m: usize, k: usize, n: usize) {
    let (a, b, mut out) = inputs(m, k, n);
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

fn bench_backends_acceptance_shape(c: &mut Criterion) {
    // The acceptance-criteria shape: blocked must be ≥ 5× naive here.
    bench_gemm_shape(c, 256, 512, 512);
}

fn bench_backends_mlp_shape(c: &mut Criterion) {
    // A typical DLRM MLP layer shape: batch 64 through a 128→64 layer.
    bench_gemm_shape(c, 64, 128, 64);
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    let (m, k, n) = (64, 512, 256);
    let (a, b, mut out) = inputs(m, k, n);
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 1.0).collect();
    let packed = PrepackedWeights::pack(&b, k, n);

    c.bench_function("gemm_bias_relu_fused_64x512x256", |bench| {
        bench.iter(|| {
            kernel::gemm_bias_act_prepacked(
                KernelBackend::BlockedPrepacked,
                black_box(&a),
                black_box(&packed),
                Some(&bias),
                FusedAct::Relu,
                &mut out,
                m,
            )
        })
    });

    let am = Matrix::from_vec(m, k, a.clone()).unwrap();
    let bm = Matrix::from_vec(k, n, b.clone()).unwrap();
    let biasm = Matrix::row_vector(&bias);
    c.bench_function("gemm_bias_relu_unfused_64x512x256", |bench| {
        bench.iter(|| {
            black_box(&am)
                .matmul(black_box(&bm))
                .unwrap()
                .add_bias(&biasm)
                .unwrap()
                .relu()
        })
    });
}

fn bench_mlp_workspace(c: &mut Criterion) {
    let mlp = Mlp::random(&[512, 256, 128, 64], Activation::Relu, 7).unwrap();
    let x = Matrix::from_fn(32, 512, |r, col| ((r * 13 + col) % 9) as f32 * 0.1 - 0.4);
    let mut ws = Workspace::new();
    c.bench_function("mlp_forward_workspace_b32_512-256-128-64", |bench| {
        bench.iter(|| {
            mlp.forward_batch_ws(
                KernelBackend::BlockedPrepacked,
                black_box(x.as_slice()),
                32,
                512,
                &mut ws,
            )
            .unwrap()
            .1
        })
    });
}

criterion_group!(
    gemm_backends,
    bench_backends_acceptance_shape,
    bench_backends_mlp_shape,
    bench_fused_vs_unfused,
    bench_mlp_workspace,
);
criterion_main!(gemm_backends);
