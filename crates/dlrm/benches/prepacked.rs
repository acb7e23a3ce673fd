//! Criterion timings of the prepacked GEMM at the shapes serving runs:
//! `m = 1` single-sample serving, the small coalesced batches a dynamic
//! batcher dispatches under light load, and every DLRM(6) layer at the
//! ledger's batches. At `m = 1` an `O(k·n)` pack would be the same order
//! of work as the multiply itself, which is why weights are packed once,
//! at load, and never per call.

use centaur_dlrm::kernel::{self, FusedAct, KernelBackend, PrepackedWeights};
use centaur_dlrm::{Activation, DenseLayer, PaperModel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
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

fn bench_prepacked(c: &mut Criterion) {
    // m = 1 serving, m = 4/16 small dynamic batches and m = 256, on a
    // paper-sized 512×512 layer.
    for &(m, k, n) in &[
        (1usize, 512usize, 512usize),
        (4, 512, 512),
        (16, 512, 512),
        (256, 512, 512),
    ] {
        let (a, b, mut out) = inputs(m, k, n);
        let packed = PrepackedWeights::pack(&b, k, n);
        c.bench_function(&format!("gemm_prepacked_{m}x{k}x{n}"), |bench| {
            bench.iter(|| {
                kernel::gemm_bias_act_prepacked(
                    KernelBackend::BlockedPrepacked,
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

fn bench_prepacked_fused_layer(c: &mut Criterion) {
    // The fused bias+activation epilogue variants, through a real
    // DenseLayer at the batch-1 serving shape.
    let (m, k, n) = (1usize, 512usize, 256usize);
    let (a, b, mut out) = inputs(m, k, n);
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 1.0).collect();
    let packed = PrepackedWeights::pack(&b, k, n);
    c.bench_function("gemm_bias_relu_prepacked_1x512x256", |bench| {
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

    let layer = DenseLayer::random(k, n, Activation::Relu, 7);
    for backend in KernelBackend::all() {
        c.bench_function(
            &format!("dense_layer_{}_1x512x256", backend.label()),
            |bench| bench.iter(|| layer.forward_into(backend, black_box(&a), m, &mut out)),
        );
    }
}

fn bench_prepacked_dlrm6_layers(c: &mut Criterion) {
    // Every distinct dense-layer shape of DLRM(6) at the ledger's
    // `offline_mlp` batch, m = 16 (one 16-row tile under AVX-512, a
    // 6 + 6 + 4 split under AVX2), and at m = 64, the `serve_batched` /
    // `offline_embed` wave (four 16-row tiles, or 6·10 + 4). The 1-wide
    // output layer is a narrow strip on its own.
    let config = PaperModel::Dlrm6.config();
    let shapes: BTreeSet<(usize, usize)> = [config.bottom_mlp_dims(), config.top_mlp_dims()]
        .iter()
        .flat_map(|dims| dims.windows(2).map(|pair| (pair[0], pair[1])))
        .collect();
    for (m, (k, n)) in [16usize, 64]
        .into_iter()
        .flat_map(|m| shapes.iter().map(move |&shape| (m, shape)))
    {
        let (a, b, mut out) = inputs(m, k, n);
        let packed = PrepackedWeights::pack(&b, k, n);
        c.bench_function(&format!("gemm_prepacked_dlrm6_{m}x{k}x{n}"), |bench| {
            bench.iter(|| {
                kernel::gemm_bias_act_prepacked(
                    KernelBackend::BlockedPrepacked,
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

criterion_group!(
    prepacked,
    bench_prepacked,
    bench_prepacked_fused_layer,
    bench_prepacked_dlrm6_layers
);
criterion_main!(prepacked);
