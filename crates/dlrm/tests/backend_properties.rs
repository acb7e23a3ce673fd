//! Property tests pinning the GEMM on both backends to the row-major
//! oracle (`kernel::gemm_reference`) — bitwise — across random and
//! adversarial edge shapes.

use centaur_dlrm::kernel::{self, FusedAct, KernelBackend, PrepackedWeights, Workspace};
use centaur_dlrm::{Activation, Mlp};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix data for a given seed. The scale and
/// offset are not dyadic, so products and partial sums round and a change
/// of accumulation order shows up in the bits.
fn test_data(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) % 64) as f32 * 0.0613 - 1.9
        })
        .collect()
}

fn assert_production_matches_oracle(m: usize, k: usize, n: usize, seed: u64) {
    let a = test_data(m * k, seed);
    let b = test_data(k * n, seed.wrapping_add(1));
    let mut oracle = vec![0.0; m * n];
    kernel::gemm_reference(&a, &b, None, FusedAct::Identity, &mut oracle, m, k, n);
    let packed = PrepackedWeights::pack(&b, k, n);
    for backend in KernelBackend::all() {
        let mut out = vec![f32::NAN; m * n];
        kernel::gemm_bias_act_prepacked(
            backend,
            &a,
            &packed,
            None,
            FusedAct::Identity,
            &mut out,
            m,
        );
        // One fused multiply-add per `k`, `k` ascending, on all: bitwise.
        assert_eq!(
            oracle, out,
            "{backend:?} diverges at {m}x{k}x{n} (seed {seed})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes: the production backend agrees with the oracle.
    #[test]
    fn optimized_backends_match_oracle(
        m in 1usize..48,
        k in 1usize..96,
        n in 1usize..48,
        seed in 0u64..10_000,
    ) {
        assert_production_matches_oracle(m, k, n, seed);
    }

    /// The fused GEMM+bias+activation epilogue equals the unfused sequence
    /// on every backend.
    #[test]
    fn fused_epilogue_matches_unfused(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let a = test_data(m * k, seed);
        let b = test_data(k * n, seed.wrapping_add(1));
        let bias = test_data(n, seed.wrapping_add(2));
        let packed = PrepackedWeights::pack(&b, k, n);
        for backend in KernelBackend::all() {
            let mut plain = vec![0.0; m * n];
            kernel::gemm_bias_act_prepacked(backend, &a, &packed, None, FusedAct::Identity, &mut plain, m);
            let mut fused = vec![0.0; m * n];
            kernel::gemm_bias_act_prepacked(backend, &a, &packed, Some(&bias), FusedAct::Relu, &mut fused, m);
            for i in 0..m {
                for j in 0..n {
                    let expected = (plain[i * n + j] + bias[j]).max(0.0);
                    prop_assert_eq!(fused[i * n + j], expected);
                }
            }
        }
    }

    /// The zero-allocation workspace MLP path produces exactly the same
    /// values as the allocating path — each layer into a fresh buffer — on
    /// the oracle too.
    #[test]
    fn workspace_mlp_matches_allocating_path(
        batch in 1usize..10,
        hidden in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mlp = Mlp::random(&[11, hidden, 5], Activation::Relu, seed).unwrap();
        let x = test_data(batch * 11, seed);
        let reference = mlp.iter().fold(x.clone(), |input, layer| {
            let mut out = vec![0.0; batch * layer.out_dim()];
            layer.forward_into(KernelBackend::Naive, &input, batch, &mut out);
            out
        });
        for backend in KernelBackend::all() {
            let mut ws = Workspace::new();
            let (data, cols) = mlp.forward_batch_ws(backend, &x, batch, 11, &mut ws).unwrap();
            prop_assert_eq!(cols, 5);
            prop_assert_eq!(data, reference.as_slice());
        }
    }
}

#[test]
fn edge_shapes_match_oracle() {
    // Degenerate vectors, single elements, and sizes straddling the KC=256
    // and NC=512 blocking boundaries.
    for &(m, k, n) in &[
        (1, 1, 1),
        (1, 64, 1),
        (1, 300, 17),  // 1×N row vector through a k block boundary
        (33, 7, 1),    // N×1 column output
        (4, 256, 16),  // exactly one full k block
        (4, 257, 16),  // one element past the k block
        (3, 100, 512), // exactly one full n block
        (3, 100, 513), // one element past the n block
        (5, 511, 31),
        (7, 513, 33),
    ] {
        assert_production_matches_oracle(m, k, n, 42);
    }
}
