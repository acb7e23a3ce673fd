//! Integration tests: the Centaur accelerator's functional datapath must be
//! numerically equivalent to the reference DLRM model, end to end, across
//! model shapes and request patterns.

use centaur::CentaurRuntime;
use centaur_dlrm::{BatchWorkspace, DlrmModel, KernelBackend, ModelConfig, PaperModel};
use centaur_workload::{FunctionalBatch, IndexDistribution, RequestGenerator};

fn scaled(model: PaperModel, rows: u64) -> ModelConfig {
    model.config().with_rows_per_table(rows)
}

/// The reference model's forward pass on an explicit backend.
fn reference(model: &DlrmModel, backend: KernelBackend, batch: &FunctionalBatch) -> Vec<f32> {
    let mut out = vec![0.0f32; batch.sparse.len()];
    let mut ws = BatchWorkspace::new();
    model
        .forward_batch_into(backend, &batch.dense, &batch.sparse, &mut out, &mut ws)
        .expect("reference inference succeeds");
    out
}

#[test]
fn centaur_matches_reference_for_every_paper_model_on_every_backend() {
    for paper_model in PaperModel::all() {
        let config = scaled(paper_model, 512);
        let model = DlrmModel::random(&config, 7).expect("valid config");
        let mut runtime = CentaurRuntime::harpv2(model.clone()).expect("model fits on chip");
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 13);
        let batch = generator.functional_batch(4);

        let mut per_backend: Vec<Vec<f32>> = Vec::new();
        for backend in KernelBackend::all() {
            runtime.set_backend(backend);
            let accelerated = runtime
                .infer_batch(&batch.dense, &batch.sparse)
                .expect("accelerator inference succeeds");
            // Accelerator and model run the same kernels in the same order:
            // bitwise, not within a tolerance.
            assert_eq!(
                accelerated,
                reference(&model, backend, &batch),
                "{paper_model}/{backend:?}: accelerator vs reference"
            );
            for a in &accelerated {
                assert!((0.0..=1.0).contains(a), "probability out of range: {a}");
            }
            per_backend.push(accelerated);
        }
        // Oracle and production do one fused multiply-add per `k`, `k`
        // ascending: the final probabilities agree bitwise too.
        assert_eq!(
            per_backend[0], per_backend[1],
            "{paper_model}: backends disagree"
        );
    }
}

#[test]
fn centaur_matches_reference_under_skewed_traffic() {
    let config = scaled(PaperModel::Dlrm3, 1024);
    let model = DlrmModel::random(&config, 11).unwrap();
    let mut runtime = CentaurRuntime::harpv2(model.clone()).unwrap();
    for backend in KernelBackend::all() {
        runtime.set_backend(backend);
        for (seed, distribution) in [
            (1u64, IndexDistribution::Zipfian { exponent: 1.05 }),
            (
                2,
                IndexDistribution::HotSet {
                    hot_rows: 32,
                    hot_fraction: 0.95,
                },
            ),
        ] {
            let mut generator = RequestGenerator::new(&config, distribution, seed);
            let batch = generator.functional_batch(6);
            let accelerated = runtime.infer_batch(&batch.dense, &batch.sparse).unwrap();
            assert_eq!(
                accelerated,
                reference(&model, backend, &batch),
                "{backend:?}"
            );
        }
    }
}

#[test]
fn repeated_requests_are_deterministic_across_the_runtime() {
    let config = scaled(PaperModel::Dlrm1, 256);
    let model = DlrmModel::random(&config, 3).unwrap();
    let mut runtime = CentaurRuntime::harpv2(model).unwrap();
    let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 5);
    let batch = generator.functional_batch(3);
    let first = runtime.infer_batch(&batch.dense, &batch.sparse).unwrap();
    let second = runtime.infer_batch(&batch.dense, &batch.sparse).unwrap();
    assert_eq!(first, second);
}

#[test]
fn empty_lookup_lists_reduce_to_zero_and_still_infer() {
    // A sample with zero gathers for some table must still produce a valid
    // probability (SparseLengthsSum over an empty segment is the zero
    // vector).
    let config = ModelConfig::builder()
        .name("sparse-empty")
        .num_tables(3)
        .rows_per_table(64)
        .embedding_dim(16)
        .lookups_per_table(2)
        .dense_features(4)
        .bottom_mlp(&[32, 16])
        .top_mlp(&[16])
        .build()
        .unwrap();
    let model = DlrmModel::random(&config, 9).unwrap();
    let mut runtime = CentaurRuntime::harpv2(model.clone()).unwrap();
    let dense = centaur_dlrm::Matrix::filled(1, 4, 0.25);
    let sparse = vec![vec![vec![1, 2], vec![], vec![63]]];
    let ours = runtime.infer_batch(&dense, &sparse).unwrap();
    let reference = model.forward_batch(&dense, &sparse).unwrap();
    assert_eq!(ours, reference);
    assert!((0.0..=1.0).contains(&ours[0]));
}

/// FNV-1a over the little-endian bit patterns of `values`.
fn bit_hash(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn runtime_output_bits_are_pinned_across_commits() {
    // Re-recorded when the GEMM's inner step became one fused multiply-add
    // (`f32::mul_add`) on every unit. A fused step is rounded once, so it
    // has one correct result: these hashes no longer depend on the host,
    // its vector unit or the build's target features. A kernel change that
    // claims "same bits" must leave them alone; a change that alters the
    // arithmetic or accumulation order on purpose re-records them and says
    // so.
    for (paper_model, batch_size, expected) in [
        (PaperModel::Dlrm6, 16usize, 0x4866_c96c_56ae_0291u64),
        (PaperModel::Dlrm1, 1, 0x9d95_61a9_3ea0_e538),
        (PaperModel::Dlrm1, 64 + 7, 0x911e_a942_3012_3c8c),
    ] {
        let config = scaled(paper_model, 512);
        let model = DlrmModel::random(&config, 7).unwrap();
        let mut runtime = CentaurRuntime::harpv2(model).unwrap();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 13);
        let batch = generator.functional_batch(batch_size);
        let outputs = runtime.infer_batch(&batch.dense, &batch.sparse).unwrap();
        assert_eq!(outputs.len(), batch_size);
        assert_eq!(
            bit_hash(&outputs),
            expected,
            "{paper_model} batch {batch_size}: output bits moved ({:#018x})",
            bit_hash(&outputs)
        );
    }
}
