//! Property tests pinning the prepacked GEMM **bitwise** against the
//! row-major oracle (`gemm_reference` over the `B` the strips were packed
//! from): `PrepackedWeights` only changes where `B`'s elements sit, so on
//! either backend the resident strips must produce exactly the oracle's
//! bytes — across ragged shapes that hit the 16-, 8-, 6-, 4- and 1-row
//! tiles, the narrow last strip and the `KC = 256` / `NC = 512` block
//! boundaries, with and without fused bias/activation epilogues.

use centaur_dlrm::kernel::{self, FusedAct, KernelBackend, PrepackedWeights};
use centaur_dlrm::{Activation, DenseLayer, Matrix};
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

fn assert_prepacked_matches_packing(m: usize, k: usize, n: usize, seed: u64) {
    let a = test_data(m * k, seed);
    let b = test_data(k * n, seed.wrapping_add(1));
    let bias = test_data(n, seed.wrapping_add(2));
    let packed = PrepackedWeights::pack(&b, k, n);
    assert_eq!(packed.k(), k);
    assert_eq!(packed.n(), n);
    for (bias_opt, act) in [
        (None, FusedAct::Identity),
        (Some(bias.as_slice()), FusedAct::Relu),
        (Some(bias.as_slice()), FusedAct::Sigmoid),
    ] {
        let mut reference = vec![f32::NAN; m * n];
        kernel::gemm_reference(&a, &b, bias_opt, act, &mut reference, m, k, n);
        for backend in KernelBackend::all() {
            let mut prepacked = vec![f32::NAN; m * n];
            kernel::gemm_bias_act_prepacked(backend, &a, &packed, bias_opt, act, &mut prepacked, m);
            // Bitwise, not tolerance: assert_eq on the raw f32s.
            assert_eq!(
                reference, prepacked,
                "{backend:?}/{act:?} diverged at {m}x{k}x{n} (seed {seed})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random ragged shapes: `m` spans the 6/4/1-row tile splits, `k`/`n`
    /// stay small enough to iterate quickly.
    #[test]
    fn prepacked_matches_packing_on_random_shapes(
        m in 1usize..20,
        k in 1usize..96,
        n in 1usize..48,
        seed in 0u64..10_000,
    ) {
        assert_prepacked_matches_packing(m, k, n, seed);
    }

    /// A whole dense layer served from its resident strips equals the
    /// row-major oracle over the weights it was built from, bitwise, for
    /// both backends and every batch size.
    #[test]
    fn dense_layer_prepacked_forward_matches_packing(
        batch in 1usize..14,
        in_dim in 1usize..40,
        out_dim in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let weights = test_data(in_dim * out_dim, seed.wrapping_add(1));
        let bias = test_data(out_dim, seed.wrapping_add(2));
        let layer = DenseLayer::new(
            Matrix::from_vec(in_dim, out_dim, weights.clone()).unwrap(),
            Matrix::from_vec(1, bias.len(), bias.clone()).unwrap(),
            Activation::Relu,
        )
        .unwrap();
        let x = test_data(batch * in_dim, seed);
        let mut reference = vec![f32::NAN; batch * out_dim];
        let relu = FusedAct::Relu;
        kernel::gemm_reference(&x, &weights, Some(&bias), relu, &mut reference, batch, in_dim, out_dim);
        for backend in KernelBackend::all() {
            let mut served = vec![f32::NAN; batch * out_dim];
            layer.forward_into(backend, &x, batch, &mut served);
            prop_assert_eq!(&reference, &served);
        }
    }
}

#[test]
fn prepacked_matches_packing_on_block_boundary_shapes() {
    // Every row split of the 6/4/1 tiles (m = 13 is 6+6+1, 11 is 6+4+1,
    // 16 is 6+6+4) and of the AVX-512 build's 16/8/4/1 tiles (17 is 16+1,
    // 24 is 16+8, 28 is 16+8+4, 29 is 16+8+4+1, 31 ends on three single
    // rows, 32 and 48 are whole tiles, 71 is 16·4+4+1+1+1), against widths
    // with no, one and several full 16-column strips and a narrow last one,
    // and depths and widths one either side of KC = 256 and NC = 512 so
    // multi-block walks and their remainder blocks are covered.
    for m in (1..=13).chain([16, 17, 24, 28, 29, 31, 32, 48, 64, 71]) {
        for k in [1, 255, 256, 257, 513] {
            for n in [1, 15, 16, 17, 31, 33, 513] {
                assert_prepacked_matches_packing(m, k, n, 42);
            }
        }
    }
    // Exactly one full block, and a deep ragged one.
    assert_prepacked_matches_packing(1, 256, 512, 42);
    assert_prepacked_matches_packing(3, 700, 65, 42);
}
