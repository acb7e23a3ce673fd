//! Property-based tests for the reference DLRM implementation.

use centaur_dlrm::kernel::{self, FusedAct, PrepackedWeights};
use centaur_dlrm::{global_backend, Activation, DlrmModel, Matrix, Mlp, ModelConfig, Workspace};
use proptest::prelude::*;

/// `[m, k] a · b` on the one production GEMM, `b` packed first.
fn product(a: &[f32], b: &Matrix, m: usize) -> Vec<f32> {
    let mut out = vec![0.0; m * b.cols()];
    let packed = PrepackedWeights::pack(b.as_slice(), b.rows(), b.cols());
    let identity = FusedAct::Identity;
    kernel::gemm_bias_act_prepacked(global_backend(), a, &packed, None, identity, &mut out, m);
    out
}

fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The production GEMM distributes over addition:
    /// (A + B) * C == A*C + B*C (within float tolerance).
    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..100,
    ) {
        let gen = |s: u64, rows, cols| Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + s as usize) % 11) as f32 - 5.0) * 0.25
        });
        let a = gen(seed, m, k);
        let b = gen(seed + 1, m, k);
        let c = gen(seed + 2, k, n);
        let lhs = product(&add(a.as_slice(), b.as_slice()), &c, m);
        let rhs = add(&product(a.as_slice(), &c, m), &product(b.as_slice(), &c, m));
        prop_assert!(lhs.iter().zip(&rhs).all(|(x, y)| (x - y).abs() < 1e-4));
    }

    /// Every MLP forward pass preserves the batch dimension and produces
    /// finite outputs.
    #[test]
    fn mlp_forward_preserves_batch_and_is_finite(
        batch in 1usize..9,
        hidden in 1usize..64,
        seed in 0u64..500,
    ) {
        let mlp = Mlp::random(&[7, hidden, 3], Activation::Relu, seed).unwrap();
        let x = Matrix::from_fn(batch, 7, |r, c| ((r + c) as f32) * 0.1 - 0.3);
        let mut ws = Workspace::new();
        let (y, cols) = mlp.forward_batch_ws(global_backend(), x.as_slice(), batch, 7, &mut ws).unwrap();
        prop_assert_eq!((y.len() / cols, cols), (batch, 3));
        prop_assert!(y.iter().all(|v| v.is_finite()));
    }

    /// The full model always produces probabilities in [0, 1] and the
    /// batched path agrees with the single-sample path.
    #[test]
    fn model_probabilities_bounded_and_batch_consistent(
        seed in 0u64..200,
        lookups in 1usize..6,
    ) {
        let config = ModelConfig::builder()
            .name("prop")
            .num_tables(3)
            .rows_per_table(32)
            .embedding_dim(8)
            .lookups_per_table(lookups)
            .dense_features(5)
            .bottom_mlp(&[16, 8])
            .top_mlp(&[8])
            .build()
            .unwrap();
        let model = DlrmModel::random(&config, seed).unwrap();
        let dense = Matrix::from_fn(2, 5, |r, c| (r as f32 + c as f32 * 0.3) * 0.2 - 0.4);
        let sparse: Vec<Vec<Vec<u32>>> = (0..2)
            .map(|s| {
                (0..3)
                    .map(|t| (0..lookups).map(|i| ((s * 7 + t * 5 + i * 3) % 32) as u32).collect())
                    .collect()
            })
            .collect();
        let batched = model.forward_batch(&dense, &sparse).unwrap();
        prop_assert!(batched.iter().all(|p| (0.0..=1.0).contains(p)));
        for (i, sample) in sparse.iter().enumerate() {
            let single = model
                .forward_batch(&Matrix::from_vec(1, dense.cols(), dense.row(i).to_vec()).unwrap(), std::slice::from_ref(sample))
                .unwrap();
            prop_assert!((batched[i] - single[0]).abs() < 1e-6);
        }
    }

    /// Derived byte/FLOP accounting in the config is internally consistent.
    #[test]
    fn config_accounting_consistent(
        tables in 1usize..8,
        lookups in 1usize..20,
        dim_pow in 2u32..7,
    ) {
        let dim = 2usize.pow(dim_pow);
        let config = ModelConfig::builder()
            .num_tables(tables)
            .rows_per_table(1000)
            .embedding_dim(dim)
            .lookups_per_table(lookups)
            .bottom_mlp(&[64, dim])
            .top_mlp(&[32])
            .build()
            .unwrap();
        prop_assert_eq!(config.row_bytes(), dim * 4);
        prop_assert_eq!(
            config.gathered_bytes_per_sample(),
            (tables * lookups * dim * 4) as u64
        );
        prop_assert_eq!(config.embedding_bytes(), (tables * 1000 * dim * 4) as u64);
        prop_assert_eq!(config.mlp_params() * 4, config.mlp_bytes());
        prop_assert!(config.dense_flops_per_sample() > 0);
        prop_assert_eq!(config.top_mlp_input_dim(), dim + tables * (tables + 1) / 2);
    }
}
