//! Property tests for the one forward path: for random model shapes, batch
//! sizes and index patterns, a batch of N through
//! `DlrmModel::forward_batch_into` (one GEMM per MLP layer with `m = N`)
//! must be bitwise equal to N batches of one through the same function, on
//! the oracle and the production backend — and the same equivalence must
//! hold end to end through the accelerator's `CentaurRuntime`.

use centaur::CentaurRuntime;
use centaur_dlrm::kernel::KernelBackend;
use centaur_dlrm::{BatchWorkspace, DlrmModel, Matrix, ModelConfig};
use proptest::prelude::*;

/// Builds a small but shape-diverse model configuration from raw draws.
fn config_from(
    num_tables: usize,
    dim: usize,
    dense_features: usize,
    bottom_hidden: usize,
    top_hidden: usize,
) -> ModelConfig {
    ModelConfig::builder()
        .name("batch-equivalence")
        .num_tables(num_tables)
        .rows_per_table(96)
        .embedding_dim(dim)
        .lookups_per_table(3)
        .dense_features(dense_features)
        .bottom_mlp(&[bottom_hidden, dim])
        .top_mlp(&[top_hidden])
        .build()
        .expect("drawn configuration is valid")
}

/// Deterministic per-(sample, table) index lists with varying lengths,
/// including empty bags.
fn indices_for(config: &ModelConfig, batch: usize, seed: u64) -> Vec<Vec<Vec<u32>>> {
    (0..batch)
        .map(|s| {
            (0..config.num_tables)
                .map(|t| {
                    let len = (s + t + seed as usize) % 5; // 0..=4 lookups
                    (0..len as u32)
                        .map(|i| {
                            (seed as u32)
                                .wrapping_mul(2654435761)
                                .wrapping_add((s * 31 + t * 17 + i as usize * 7) as u32)
                                % 96
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// `forward_batch_into` on a fresh workspace.
fn forward(
    model: &DlrmModel,
    backend: KernelBackend,
    dense: &Matrix,
    batch_indices: &[Vec<Vec<u32>>],
) -> Vec<f32> {
    let mut out = vec![0.0f32; batch_indices.len()];
    model
        .forward_batch_into(
            backend,
            dense,
            batch_indices,
            &mut out,
            &mut BatchWorkspace::new(),
        )
        .expect("forward succeeds");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch of N equals N batches of one on both backends, on random
    /// shapes and batches — and the two backends equal each other.
    #[test]
    fn forward_batch_matches_per_sample_path(
        num_tables in 1usize..5,
        dim in 1usize..17,
        dense_features in 1usize..9,
        bottom_hidden in 1usize..24,
        top_hidden in 1usize..24,
        batch in 0usize..11,
        seed in 0u64..500,
    ) {
        let config = config_from(num_tables, dim, dense_features, bottom_hidden, top_hidden);
        let model = DlrmModel::random(&config, seed).expect("valid model");
        let dense = Matrix::from_fn(batch, dense_features, |r, c| {
            ((r * 13 + c * 7 + seed as usize) % 19) as f32 * 0.1 - 0.9
        });
        let batch_indices = indices_for(&config, batch, seed);

        let oracle = forward(&model, KernelBackend::Naive, &dense, &batch_indices);
        for backend in KernelBackend::all() {
            let batched = forward(&model, backend, &dense, &batch_indices);
            prop_assert_eq!(&batched, &oracle, "{:?} diverged from the oracle", backend);

            for i in 0..batch {
                let row = Matrix::from_vec(1, dense.cols(), dense.row(i).to_vec()).unwrap();
                let single = forward(&model, backend, &row, &batch_indices[i..=i]);
                // The kernels accumulate each output row in the same order
                // regardless of m, so the two agree bitwise.
                prop_assert_eq!(batched[i], single[0], "{:?} sample {}", backend, i);
            }
        }
    }

    /// The same equivalence holds through the accelerator datapath:
    /// `CentaurRuntime::infer_batch_into` (batch-major EB-Streamer gather +
    /// batched dense complex) equals both `infer_sample` per sample (a
    /// batch of one) and the reference model.
    #[test]
    fn runtime_infer_batch_matches_per_sample_and_reference(
        num_tables in 1usize..4,
        dim in 1usize..13,
        dense_features in 1usize..7,
        batch in 1usize..9,
        seed in 0u64..200,
    ) {
        let config = config_from(num_tables, dim, dense_features, 16, 8);
        let model = DlrmModel::random(&config, seed).expect("valid model");
        let dense = Matrix::from_fn(batch, dense_features, |r, c| {
            ((r * 11 + c * 5 + seed as usize) % 17) as f32 * 0.125 - 1.0
        });
        let batch_indices = indices_for(&config, batch, seed.wrapping_add(7));

        let mut runtime = CentaurRuntime::harpv2(model.clone()).expect("model fits on chip");
        for backend in KernelBackend::all() {
            runtime.set_backend(backend);
            let mut accelerated = vec![f32::NAN; batch];
            runtime
                .infer_batch_into(&dense, &batch_indices, &mut accelerated)
                .expect("batched accelerator inference succeeds");

            // One call per sample.
            for (i, indices) in batch_indices.iter().enumerate() {
                let single = runtime
                    .infer_sample(dense.row(i), indices)
                    .expect("per-sample accelerator inference succeeds");
                prop_assert_eq!(accelerated[i], single, "{:?} sample {}", backend, i);
            }

            // Reference model: the same kernels in the same order.
            let reference = forward(&model, backend, &dense, &batch_indices);
            prop_assert_eq!(&accelerated, &reference, "{:?}", backend);
        }
    }

    /// The runtime's remainder-wave path: batches that are **not** a
    /// multiple of `BATCH_WAVE_SAMPLES` leave a short final wave in
    /// `infer_batch_into`'s gather→dense pipeline, which must stay bitwise
    /// identical to one call per sample — the serving layer's dynamic
    /// batcher dispatches exactly such ragged batch sizes all the time.
    #[test]
    fn remainder_wave_batches_match_per_sample_path(
        waves in 1usize..3,
        remainder in 1usize..8,
        dim in 1usize..9,
        seed in 0u64..200,
    ) {
        let batch = waves * centaur::BATCH_WAVE_SAMPLES + remainder;
        prop_assert!(!batch.is_multiple_of(centaur::BATCH_WAVE_SAMPLES));
        let config = config_from(2, dim, 4, 8, 6);
        let model = DlrmModel::random(&config, seed).expect("valid model");
        let dense = Matrix::from_fn(batch, 4, |r, c| {
            ((r * 7 + c * 3 + seed as usize) % 23) as f32 * 0.08 - 0.8
        });
        let batch_indices = indices_for(&config, batch, seed);

        let mut runtime = CentaurRuntime::harpv2(model).expect("model fits on chip");
        for backend in KernelBackend::all() {
            runtime.set_backend(backend);
            let mut batched = vec![f32::NAN; batch];
            runtime
                .infer_batch_into(&dense, &batch_indices, &mut batched)
                .expect("ragged batched inference succeeds");
            for (i, indices) in batch_indices.iter().enumerate() {
                let single = runtime
                    .infer_sample(dense.row(i), indices)
                    .expect("per-sample inference succeeds");
                prop_assert_eq!(
                    batched[i],
                    single,
                    "{:?}: sample {} of ragged batch {} diverged",
                    backend,
                    i,
                    batch
                );
            }
        }
    }

    /// `forward_batch_into` reuses one warm `BatchWorkspace` across varying
    /// batch sizes without corrupting results (high-water-mark buffers must
    /// never leak stale tail data between differently-sized requests).
    #[test]
    fn warm_workspace_is_reusable_across_batch_sizes(
        seed in 0u64..100,
        first in 1usize..9,
        second in 1usize..9,
    ) {
        let config = config_from(3, 8, 5, 16, 8);
        let model = DlrmModel::random(&config, seed).expect("valid model");
        let mut ws = BatchWorkspace::new();
        for &batch in &[first, second, first.max(second), 1] {
            let dense = Matrix::from_fn(batch, 5, |r, c| (r as f32 - c as f32) * 0.2);
            let batch_indices = indices_for(&config, batch, seed);
            let mut out = vec![0.0f32; batch];
            let backend = KernelBackend::BlockedPrepacked;
            model
                .forward_batch_into(backend, &dense, &batch_indices, &mut out, &mut ws)
                .expect("batched forward succeeds");
            prop_assert_eq!(out, forward(&model, backend, &dense, &batch_indices));
        }
    }
}
