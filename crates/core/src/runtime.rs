//! The host-side software interface (Section IV-E): a thin runtime that
//! registers a model with the accelerator over MMIO ("pointer-is-a-pointer"
//! semantics), then drives functional inference through the sparse and
//! dense complexes and predicts latency through the timing model.

use crate::accelerator::{CentaurConfig, CentaurInferenceResult, CentaurSystem};
use crate::bpregs::{BasePointer, BasePointerRegs};
use crate::dense::DenseAccelerator;
use crate::error::CentaurError;
use crate::sparse::EbStreamer;
use centaur_dlrm::kernel::{KernelBackend, SparseBackend};
use centaur_dlrm::model::{check_batch_inputs, DlrmModel};
use centaur_dlrm::tensor::Matrix;
use centaur_dlrm::trace::{InferenceTrace, TableLayout};

/// Samples per batch wave on the runtime's batched path.
///
/// Large batches are carved into waves of this many samples, each wave
/// running EB-Streamer gather → dense complex back to back, so the reduced
/// embeddings are still cache-hot when the interaction consumes them and
/// the staged feature rows stay wave-sized instead of batch-sized. This is
/// what fixed the DLRM(1) batch-major throughput decline from batch 16 to
/// 128: at batch 128 the un-waved pipeline staged ~0.3 MB of intermediates
/// on top of a ~1.2 MB gathered-row working set and fell out of L2. Waves
/// of 64 keep the m = batch GEMM large enough that MLP weight reuse is
/// fully amortized (DLRM(6) throughput at m = 64 measures within 1% of
/// m = 128) while halving the staging footprint; smaller waves start
/// costing the MLP-heavy models real GEMM efficiency.
pub const BATCH_WAVE_SAMPLES: usize = 64;

// A replica shard must be movable onto a serving worker thread; the runtime
// owns every piece of its state (no shared-interior-mutability handles), so
// this holds by construction — enforced at compile time right here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<CentaurRuntime>();
};

/// A model registered with a Centaur device, ready to serve inferences.
///
/// Construction mirrors the paper's boot-time flow: the host writes the base
/// pointers of the sparse index array, every embedding table, the MLP
/// weights and the dense features into `BPregs` over MMIO, and uploads the
/// MLP weights into the dense complex's SRAM; afterwards each inference is
/// orchestrated entirely by the accelerator.
#[derive(Debug, Clone)]
pub struct CentaurRuntime {
    model: DlrmModel,
    bpregs: BasePointerRegs,
    streamer: EbStreamer,
    dense: DenseAccelerator,
    system: CentaurSystem,
}

impl CentaurRuntime {
    /// Registers `model` with a Centaur device using the given system
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::CapacityExceeded`] when the model's MLP does
    /// not fit in the on-chip weight SRAM or one sample's dense or
    /// interaction row does not fit its per-request buffer, or an MMIO
    /// error if the register file cannot describe the model.
    pub fn new(model: DlrmModel, config: CentaurConfig) -> Result<Self, CentaurError> {
        let layout = TableLayout::for_config(model.config());
        let mut bpregs = BasePointerRegs::new(model.config().num_tables);

        // Boot-time MMIO writes (virtual addresses in the shared space).
        bpregs.mmio_write(BasePointer::SparseIndexArray, 0x0800_0000)?;
        for table in 0..model.config().num_tables {
            let addr = layout.address_of(centaur_dlrm::trace::EmbeddingAccess { table, row: 0 });
            bpregs.mmio_write(BasePointer::EmbeddingTable(table), addr)?;
        }
        bpregs.mmio_write(BasePointer::MlpWeights, 0x0900_0000)?;
        bpregs.mmio_write(BasePointer::DenseFeatures, 0x0A00_0000)?;
        bpregs.mmio_write(BasePointer::Output, 0x0B00_0000)?;

        let mut dense = DenseAccelerator::harpv2();
        // Upload the MLP weights in the prepacked strip layout — the
        // resident form the GEMM serves from.
        dense.load_model_packed(&model)?;

        Ok(CentaurRuntime {
            model,
            bpregs,
            streamer: EbStreamer::new(config.link),
            dense,
            system: CentaurSystem::new(config),
        })
    }

    /// The kernel backend executing the functional datapath.
    pub fn backend(&self) -> KernelBackend {
        self.dense.backend()
    }

    /// Selects the kernel backend for subsequent functional inferences.
    pub fn set_backend(&mut self, backend: KernelBackend) {
        self.dense.set_backend(backend);
    }

    /// The sparse backend executing the EB-Streamer's gather-reduce path.
    pub fn sparse_backend(&self) -> SparseBackend {
        self.streamer.sparse_backend()
    }

    /// Selects the embedding bag's backend the EB-Streamer gathers on for
    /// subsequent functional inferences (`Scalar` is the oracle;
    /// `Vectorized` runs the register-tiled prefetching kernels). Outputs
    /// and counters are the same on both. Neither runs the hot-row cache
    /// model: [`CentaurRuntime::estimate_latency`] replays it on the timing
    /// model's own streamer, whatever backend this one runs.
    pub fn set_sparse_backend(&mut self, backend: SparseBackend) {
        self.streamer.set_sparse_backend(backend);
    }

    /// The functional EB-Streamer: its counters record the index-SRAM
    /// fills and EB-RU reductions of every gather this runtime ran, and
    /// [`EbStreamer::gather_lanes`] the lanes its large waves run on. A
    /// clone of the runtime gets lanes of its own, spawned at its first
    /// large wave; dropping the runtime stops and joins them.
    pub fn streamer(&self) -> &EbStreamer {
        &self.streamer
    }

    /// Registers `model` on the HARPv2 proof-of-concept configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CentaurRuntime::new`].
    pub fn harpv2(model: DlrmModel) -> Result<Self, CentaurError> {
        CentaurRuntime::new(model, CentaurConfig::harpv2())
    }

    /// Builds a pool of `replicas` independent runtime shards serving the
    /// same model: the boot-time registration (MMIO base-pointer writes,
    /// capacity checks, weight-SRAM upload) runs **once**, then each
    /// replica clones the registered state. Every shard is `Send` (enforced
    /// at compile time), so a serving layer can move one onto each worker
    /// thread and run them concurrently — replicas share nothing mutable.
    /// The replicas also share the CPUs their callers may use: each
    /// EB-Streamer splits its large waves over `cpus / replicas` gather
    /// lanes, so a pool as large as the CPU count gathers on one lane each.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CentaurRuntime::new`], plus
    /// [`CentaurError::NotInitialised`] for an empty pool request.
    pub fn replica_pool(
        model: DlrmModel,
        config: CentaurConfig,
        replicas: usize,
    ) -> Result<Vec<CentaurRuntime>, CentaurError> {
        if replicas == 0 {
            return Err(CentaurError::NotInitialised("replica pool of size zero"));
        }
        let mut first = CentaurRuntime::new(model, config)?;
        first.streamer.share_cpus_with(replicas);
        let mut pool = Vec::with_capacity(replicas);
        for _ in 1..replicas {
            pool.push(first.clone());
        }
        pool.push(first);
        Ok(pool)
    }

    /// The registered model.
    pub fn model(&self) -> &DlrmModel {
        &self.model
    }

    /// The base-pointer register file as initialised at boot.
    pub fn bpregs(&self) -> &BasePointerRegs {
        &self.bpregs
    }

    /// Runs one functional inference through the accelerator datapath
    /// (EB-Streamer gathers/reductions, then the dense complex) — a batch of
    /// one through [`CentaurRuntime::infer_batch_rows_into`].
    ///
    /// # Errors
    ///
    /// Propagates datapath errors (index out of bounds, shape mismatches).
    pub fn infer_sample(
        &mut self,
        dense_row: &[f32],
        indices_per_table: &[Vec<u32>],
    ) -> Result<f32, CentaurError> {
        let mut out = [0.0f32];
        self.infer_batch_rows_into(dense_row, dense_row.len(), &[indices_per_table], &mut out)?;
        Ok(out[0])
    }

    /// Runs a batched functional inference, writing one probability per
    /// sample into the caller-owned `out`.
    ///
    /// This is the **batch-major** accelerator path: the EB-Streamer gathers
    /// and reduces every sample's bags straight into the model's staged
    /// feature rows, then the dense complex runs one GEMM per MLP layer with
    /// `m = batch`, one batched interaction pass and one sigmoid sweep — no
    /// per-sample `m = 1` GEMMs. After the runtime's staging buffers have
    /// warmed up to the high-water batch size, repeated batched requests
    /// reuse them without reallocating.
    ///
    /// # Errors
    ///
    /// Returns a batch-mismatch error when the dense batch, the sparse batch
    /// and `out` disagree, plus any datapath error.
    pub fn infer_batch_into(
        &mut self,
        dense: &Matrix,
        batch_indices: &[Vec<Vec<u32>>],
        out: &mut [f32],
    ) -> Result<(), CentaurError> {
        check_batch_inputs(dense, batch_indices)?;
        self.infer_batch_rows_into(dense.as_slice(), dense.cols(), batch_indices, out)
    }

    /// [`CentaurRuntime::infer_batch_into`] over raw row-major dense
    /// features (`[batch * cols]`) instead of a [`Matrix`] — the entry
    /// point for serving layers that stage coalesced requests in their own
    /// reusable buffers and cannot afford to build a `Matrix` per batch.
    /// `batch_indices[s]` is sample `s`'s per-table index lists, so one
    /// request is `&[indices_per_table]`.
    ///
    /// # Errors
    ///
    /// Same as [`CentaurRuntime::infer_batch_into`]; the batch size is
    /// `batch_indices.len()` and `dense_rows` must hold exactly
    /// `batch * cols` values.
    pub fn infer_batch_rows_into<S: AsRef<[Vec<u32>]> + Sync>(
        &mut self,
        dense_rows: &[f32],
        cols: usize,
        batch_indices: &[S],
        out: &mut [f32],
    ) -> Result<(), CentaurError> {
        let batch = batch_indices.len();
        if dense_rows.len() != batch * cols {
            return Err(centaur_dlrm::DlrmError::BatchMismatch {
                what: "dense elements vs batch rows",
                left: dense_rows.len(),
                right: batch * cols,
            }
            .into());
        }
        if out.len() != batch {
            return Err(centaur_dlrm::DlrmError::BatchMismatch {
                what: "dense rows vs output slots",
                left: batch,
                right: out.len(),
            }
            .into());
        }
        let dim = self.model.config().embedding_dim;
        let stride = self.model.interaction().num_features() * dim;
        let wave = BATCH_WAVE_SAMPLES.min(batch.max(1));
        let CentaurRuntime {
            model,
            streamer,
            dense: dense_complex,
            ..
        } = self;
        // The batch streams through in bounded waves, each one the model's
        // own batch body: stage the wave's feature rows, gather its reduced
        // embeddings straight into them at column `dim`, then run bottom
        // MLP → interaction → top MLP → sigmoid while those rows are still
        // cache-hot. Bitwise identical to processing the whole batch at
        // once — GEMM output rows accumulate in the same order regardless
        // of m.
        for start in (0..batch).step_by(wave) {
            let end = (start + wave).min(batch);
            let n = end - start;
            streamer.gather_reduce_batch_into(
                model.embeddings(),
                &batch_indices[start..end],
                dense_complex.stage_features(model, n),
                stride,
                dim,
            )?;
            dense_complex.forward_staged_into(
                model,
                &dense_rows[start * cols..end * cols],
                n,
                cols,
                &mut out[start..end],
            )?;
        }
        Ok(())
    }

    /// Predicts the latency of a batched request on this device.
    pub fn estimate_latency(&mut self, trace: &InferenceTrace) -> CentaurInferenceResult {
        self.system.simulate(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::{ModelConfig, PaperModel};
    use centaur_workload::{FunctionalBatch, IndexDistribution, RequestGenerator};

    /// `batch` through `runtime`, one probability per sample.
    fn infer(runtime: &mut CentaurRuntime, batch: &FunctionalBatch) -> Vec<f32> {
        let mut out = vec![f32::NAN; batch.sparse.len()];
        runtime
            .infer_batch_into(&batch.dense, &batch.sparse, &mut out)
            .unwrap();
        out
    }

    fn small_model() -> DlrmModel {
        let config = PaperModel::Dlrm1.config().with_rows_per_table(512);
        DlrmModel::random(&config, 5).unwrap()
    }

    #[test]
    fn boot_initialises_all_base_pointers() {
        let runtime = CentaurRuntime::harpv2(small_model()).unwrap();
        assert!(runtime.bpregs().is_fully_initialised());
        assert_eq!(runtime.bpregs().num_tables(), 5);
    }

    #[test]
    fn functional_inference_matches_reference_model() {
        let model = small_model();
        let mut runtime = CentaurRuntime::harpv2(model.clone()).unwrap();
        let config = model.config().clone();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 17);
        let batch = generator.functional_batch(6);

        let ours = infer(&mut runtime, &batch);
        let reference = model.forward_batch(&batch.dense, &batch.sparse).unwrap();
        // Accelerator and model run the same kernels in the same order.
        assert_eq!(ours, reference);
    }

    #[test]
    fn batch_major_inference_matches_per_sample_loop() {
        let model = small_model();
        let config = model.config().clone();
        let mut batched = CentaurRuntime::harpv2(model.clone()).unwrap();
        let mut per_sample = CentaurRuntime::harpv2(model).unwrap();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 29);
        let batch = generator.functional_batch(8);

        let ours = infer(&mut batched, &batch);
        for (i, indices) in batch.sparse.iter().enumerate() {
            let single = per_sample
                .infer_sample(batch.dense.row(i), indices)
                .unwrap();
            assert_eq!(ours[i], single, "sample {i} diverged from its batch of one");
        }
    }

    #[test]
    fn replica_pool_registers_once_and_shards_agree() {
        let model = small_model();
        let config = model.config().clone();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 31);
        let batch = generator.functional_batch(4);

        let mut pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 3).unwrap();
        assert_eq!(pool.len(), 3);
        // Shards (and a plain model clone) read one physical copy of every
        // embedding table.
        let model_clone = pool[0].model().clone();
        for t in 0..config.num_tables {
            let rows = |m: &DlrmModel| m.embeddings().table(t).as_slice().as_ptr();
            let first = rows(pool[0].model());
            assert!(pool.iter().all(|shard| rows(shard.model()) == first));
            assert_eq!(rows(&model_clone), first);
        }
        // Every shard is fully booted and serves identical results.
        let reference = infer(&mut pool[0], &batch);
        for shard in &mut pool {
            assert!(shard.bpregs().is_fully_initialised());
            assert_eq!(infer(shard, &batch), reference);
        }
        // Shards really are independent: they can serve from worker threads.
        std::thread::scope(|scope| {
            let handles: Vec<_> = pool
                .iter_mut()
                .map(|shard| {
                    let batch = &batch;
                    scope.spawn(move || infer(shard, batch))
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), reference);
            }
        });
        assert!(CentaurRuntime::replica_pool(small_model(), CentaurConfig::harpv2(), 0).is_err());
    }

    #[test]
    fn a_runtime_clone_serves_from_its_own_lane_and_drop_returns() {
        let model = small_model();
        let config = model.config().clone();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 41);
        let batch = generator.functional_batch(6);
        let mut one_lane = CentaurRuntime::harpv2(model.clone()).unwrap();
        let reference = infer(&mut one_lane, &batch);
        // Six samples of 100 lookups stay on one lane unless forced.
        assert_eq!(one_lane.streamer().gather_lanes(), 1);

        let mut first = CentaurRuntime::harpv2(model).unwrap();
        first.streamer.force_lanes(2);
        let mut clone = first.clone();
        assert_eq!(infer(&mut first, &batch), reference);
        assert_eq!(first.streamer().gather_lanes(), 2);
        // The clone's lanes are its own, and not spawned until it serves.
        assert_eq!(clone.streamer().gather_lanes(), 1);
        assert_eq!(infer(&mut clone, &batch), reference);
        assert_eq!(clone.streamer().gather_lanes(), 2);
        let (ours, theirs) = (first.streamer.lane_threads(), clone.streamer.lane_threads());
        assert_eq!((ours.len(), theirs.len()), (1, 1));
        assert_ne!(ours, theirs);
        // Counters are the same as one lane's.
        for runtime in [&first, &clone] {
            assert_eq!(
                runtime.streamer().reduction_unit().vectors_reduced(),
                one_lane.streamer().reduction_unit().vectors_reduced()
            );
            assert_eq!(
                runtime.streamer().index_sram().loads(),
                one_lane.streamer().index_sram().loads()
            );
        }
        // Drop stops and joins the spawned helpers.
        drop(first);
        drop(clone);
    }

    #[test]
    fn a_pool_as_large_as_the_cpus_gathers_on_one_lane() {
        let model = small_model();
        let config = model.config().clone();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), cpus).unwrap();
        // 64 samples of 100 lookups: a wave past the split threshold.
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 43);
        let batch = generator.functional_batch(64);
        infer(&mut pool[0], &batch);
        assert_eq!(pool[0].streamer().gather_lanes(), 1);
    }

    #[test]
    fn infer_batch_rows_matches_matrix_path() {
        let model = small_model();
        let config = model.config().clone();
        let mut runtime = CentaurRuntime::harpv2(model).unwrap();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 37);
        let batch = generator.functional_batch(5);

        let via_matrix = infer(&mut runtime, &batch);
        let mut via_rows = vec![0.0f32; 5];
        runtime
            .infer_batch_rows_into(
                batch.dense.as_slice(),
                batch.dense.cols(),
                &batch.sparse,
                &mut via_rows,
            )
            .unwrap();
        assert_eq!(via_matrix, via_rows);
        // Mis-sized dense slab is rejected.
        assert!(runtime
            .infer_batch_rows_into(
                &batch.dense.as_slice()[1..],
                batch.dense.cols(),
                &batch.sparse,
                &mut via_rows,
            )
            .is_err());
    }

    #[test]
    fn batch_mismatch_is_rejected() {
        let mut runtime = CentaurRuntime::harpv2(small_model()).unwrap();
        let dense = Matrix::zeros(2, 13);
        assert!(runtime.infer_batch_into(&dense, &[], &mut []).is_err());
    }

    #[test]
    fn latency_estimate_available_from_runtime() {
        let model = small_model();
        let config = model.config().clone();
        let mut runtime = CentaurRuntime::harpv2(model).unwrap();
        let mut generator = RequestGenerator::new(&config, IndexDistribution::Uniform, 23);
        let trace = generator.inference_trace(8);
        let estimate = runtime.estimate_latency(&trace);
        assert!(estimate.total_ns() > 0.0);
        assert_eq!(estimate.batch, 8);
    }

    #[test]
    fn oversized_sample_rows_are_rejected_at_registration() {
        // One sample's row must fit its 100 KB per-request buffer: 30 000
        // dense features overflow SRAM_DenseFeature, and 230 tables make an
        // interaction row of 4 + 231·230/2 floats that overflows
        // SRAM_MLPinput. Both MLPs still fit the weight SRAM.
        let boot = |tables, dense_features| {
            let config = ModelConfig::builder()
                .name("wide-rows")
                .num_tables(tables)
                .rows_per_table(8)
                .embedding_dim(4)
                .lookups_per_table(1)
                .dense_features(dense_features)
                .bottom_mlp(&[4])
                .top_mlp(&[1])
                .build()
                .unwrap();
            CentaurRuntime::harpv2(DlrmModel::random(&config, 1).unwrap())
        };
        for (tables, dense_features, resource) in
            [(2, 30_000, "SRAM_DenseFeature"), (230, 13, "SRAM_MLPinput")]
        {
            match boot(tables, dense_features) {
                Err(CentaurError::CapacityExceeded { resource: r, .. }) => assert_eq!(r, resource),
                other => panic!("{resource}: booted with {other:?}"),
            }
        }
        assert!(boot(2, 13).is_ok());
    }

    #[test]
    fn oversized_mlp_is_rejected_at_registration() {
        // Construct a model whose MLP exceeds the 650 KB weight SRAM.
        let config = ModelConfig::builder()
            .name("huge-mlp")
            .num_tables(2)
            .rows_per_table(64)
            .embedding_dim(32)
            .lookups_per_table(2)
            .dense_features(13)
            .bottom_mlp(&[1024, 512, 32])
            .top_mlp(&[1024, 512])
            .build()
            .unwrap();
        assert!(config.mlp_bytes() > 650_000);
        let model = DlrmModel::random(&config, 1).unwrap();
        assert!(matches!(
            CentaurRuntime::harpv2(model),
            Err(CentaurError::CapacityExceeded { .. })
        ));
    }
}
