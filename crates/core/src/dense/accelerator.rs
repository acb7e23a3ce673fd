//! The dense accelerator complex assembled: MLP unit, feature-interaction
//! unit, sigmoid unit and SRAM buffers, with a timing model, the capacity
//! checks of its on-chip buffers and the counters of its units.
//!
//! The complex does no arithmetic of its own: its functional entry points
//! run the reference model's batch body ([`DlrmModel::stage_features`] and
//! [`DlrmModel::forward_staged_into`]) on the configured kernel backend,
//! so bottom MLP, interaction, top MLP and sigmoid each have one
//! implementation, and count what the units would have executed.

use crate::dense::interaction_unit::FeatureInteractionUnit;
use crate::dense::mlp_unit::MlpUnit;
use crate::dense::sigmoid_unit::SigmoidUnit;
use crate::dense::sram::SramBuffer;
use crate::error::CentaurError;
use centaur_dlrm::config::ModelConfig;
use centaur_dlrm::kernel::{global_backend, KernelBackend};
use centaur_dlrm::model::{BatchWorkspace, DlrmModel};
use serde::{Deserialize, Serialize};

/// Timing of the dense stage of one batched request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DenseStageTiming {
    /// Bottom-MLP execution time, in ns.
    pub bottom_mlp_ns: f64,
    /// Feature-interaction (batched GEMM) time, in ns.
    pub interaction_ns: f64,
    /// Top-MLP execution time, in ns.
    pub top_mlp_ns: f64,
    /// Sigmoid-unit time, in ns.
    pub sigmoid_ns: f64,
    /// Dense FLOPs executed.
    pub flops: u64,
}

impl DenseStageTiming {
    /// Total dense-stage latency (the `MLP` component of Figure 14), in ns.
    pub fn total_ns(&self) -> f64 {
        self.bottom_mlp_ns + self.interaction_ns + self.top_mlp_ns + self.sigmoid_ns
    }

    /// Achieved GFLOP/s over the dense stage.
    pub fn achieved_gflops(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.total_ns()
        }
    }
}

/// The dense accelerator complex.
#[derive(Debug, Clone)]
pub struct DenseAccelerator {
    mlp_unit: MlpUnit,
    interaction_unit: FeatureInteractionUnit,
    sigmoid_unit: SigmoidUnit,
    weight_sram: SramBuffer,
    dense_feature_sram: SramBuffer,
    mlp_input_sram: SramBuffer,
    /// Pipeline reconfiguration overhead between layers, in ns.
    per_layer_overhead_ns: f64,
    weights_loaded: bool,
    /// Kernel backend executing the functional datapath.
    backend: KernelBackend,
    /// The model's batch workspace — staged feature rows, interaction
    /// output and MLP ping/pong — standing in for the on-chip activation
    /// SRAMs: sized once and reused for every request.
    ws: BatchWorkspace,
}

impl DenseAccelerator {
    /// Creates the paper's dense accelerator: a 4×4 MLP PE array, 4
    /// interaction PEs and the Table III SRAM sizing.
    pub fn harpv2() -> Self {
        DenseAccelerator {
            mlp_unit: MlpUnit::harpv2(),
            interaction_unit: FeatureInteractionUnit::harpv2(),
            sigmoid_unit: SigmoidUnit::harpv2(),
            weight_sram: SramBuffer::mlp_weights_harpv2(),
            dense_feature_sram: SramBuffer::dense_features_harpv2(),
            mlp_input_sram: SramBuffer::mlp_inputs_harpv2(),
            per_layer_overhead_ns: 250.0,
            weights_loaded: false,
            backend: global_backend(),
            ws: BatchWorkspace::new(),
        }
    }

    /// The kernel backend executing the functional datapath.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Selects the kernel backend for subsequent functional inferences.
    pub fn set_backend(&mut self, backend: KernelBackend) {
        self.backend = backend;
    }

    /// The MLP PE array.
    pub fn mlp_unit(&self) -> &MlpUnit {
        &self.mlp_unit
    }

    /// The feature-interaction unit.
    pub fn interaction_unit(&self) -> &FeatureInteractionUnit {
        &self.interaction_unit
    }

    /// The weight SRAM.
    pub fn weight_sram(&self) -> &SramBuffer {
        &self.weight_sram
    }

    /// Aggregate peak throughput of the dense complex in GFLOP/s
    /// (MLP array + interaction PEs).
    pub fn peak_gflops(&self) -> f64 {
        self.mlp_unit.peak_gflops()
            + self.interaction_unit.num_pes() as f64 * self.mlp_unit.pe_config().peak_gflops()
    }

    /// Returns `true` once model weights have been uploaded.
    pub fn weights_loaded(&self) -> bool {
        self.weights_loaded
    }

    /// Uploads a model's MLP weights into `SRAM_MLPmodel` (done once at
    /// boot; the weights persist across requests) in their **prepacked
    /// strip layout** — the one resident form the GEMM serves from,
    /// measured from the actual [`PrepackedWeights`] stores. Packing is a
    /// permutation, so the accounted bytes equal [`ModelConfig::mlp_bytes`]
    /// exactly. Then checks that one sample's dense row fits
    /// `SRAM_DenseFeature` and one interaction row fits `SRAM_MLPinput`: a
    /// batch streams through those buffers in as-large-as-fit waves, so a
    /// single sample is all they must hold.
    ///
    /// [`PrepackedWeights`]: centaur_dlrm::kernel::PrepackedWeights
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::CapacityExceeded`] when the model's MLP
    /// parameters do not fit on chip, or one sample's dense row or
    /// interaction row does not fit its per-request buffer.
    pub fn load_model_packed(&mut self, model: &DlrmModel) -> Result<(), CentaurError> {
        let config = model.config();
        let resident = model.bottom_mlp().size_bytes() + model.top_mlp().size_bytes();
        self.weight_sram.clear();
        self.weight_sram.store(resident as u64)?;
        let f32_bytes = std::mem::size_of::<f32>() as u64;
        for (sram, cols) in [
            (&mut self.dense_feature_sram, config.dense_features),
            (&mut self.mlp_input_sram, config.top_mlp_input_dim()),
        ] {
            sram.clear();
            sram.store(cols as u64 * f32_bytes)?;
        }
        self.weights_loaded = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Functional path
    // ------------------------------------------------------------------

    /// The functional dense stage over reduced embeddings staged by the
    /// caller: `dense_rows` is `[batch, dense_cols]`, `reduced_batch` is the
    /// EB-Streamer's batch-major output — each sample's
    /// `[num_tables * dim]` reduced embeddings back to back — and `out`
    /// receives one probability per sample. A sample is a batch of one.
    ///
    /// The reduced rows are copied into the model's staged feature rows,
    /// then [`DenseAccelerator::forward_staged_into`] runs the model's batch
    /// body. The runtime skips the copy: its EB-Streamer gathers straight
    /// into [`DenseAccelerator::stage_features`].
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::NotInitialised`] when no weights have been
    /// loaded, a batch mismatch when the dense rows, the reduced batch and
    /// `out` disagree, and propagates shape errors from the datapath.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch_rows_into(
        &mut self,
        model: &DlrmModel,
        dense_rows: &[f32],
        batch: usize,
        dense_cols: usize,
        reduced_batch: &[f32],
        out: &mut [f32],
    ) -> Result<(), CentaurError> {
        self.check_request(dense_rows, batch, dense_cols, out)?;
        let dim = model.config().embedding_dim;
        let width = model.config().num_tables * dim;
        if reduced_batch.len() != batch * width {
            return Err(centaur_dlrm::DlrmError::BatchMismatch {
                what: "reduced embedding elements vs batch",
                left: reduced_batch.len(),
                right: batch * width,
            }
            .into());
        }
        let stride = width + dim;
        let features = self.stage_features(model, batch);
        for (src, dst) in reduced_batch
            .chunks_exact(width)
            .zip(features.chunks_exact_mut(stride))
        {
            dst[dim..].copy_from_slice(src);
        }
        self.forward_staged_into(model, dense_rows, batch, dense_cols, out)
    }

    /// Stages the model's batch-major `[batch, (num_tables + 1) * dim]`
    /// feature rows for `batch` samples (see [`DlrmModel::stage_features`]);
    /// the caller reduces each sample's embeddings into its row at column
    /// `dim`, then calls [`DenseAccelerator::forward_staged_into`].
    pub fn stage_features(&mut self, model: &DlrmModel, batch: usize) -> &mut [f32] {
        model.stage_features(batch, &mut self.ws)
    }

    /// Runs the model's batch body ([`DlrmModel::forward_staged_into`]) on
    /// the staged rows with the configured [`KernelBackend`] — one GEMM per
    /// MLP layer for the whole batch, one batched interaction pass, one
    /// sigmoid sweep — and counts them on the MLP array and the interaction
    /// PEs. Steady-state requests are allocation-free.
    ///
    /// # Errors
    ///
    /// Same as [`DenseAccelerator::forward_batch_rows_into`]; a failed
    /// request advances no counter.
    pub fn forward_staged_into(
        &mut self,
        model: &DlrmModel,
        dense_rows: &[f32],
        batch: usize,
        dense_cols: usize,
        out: &mut [f32],
    ) -> Result<(), CentaurError> {
        self.check_request(dense_rows, batch, dense_cols, out)?;
        model.forward_staged_into(self.backend, dense_rows, dense_cols, &mut self.ws, out)?;
        // One GEMM per layer for the whole batch, not one per sample, while
        // every sample occupies an interaction PE.
        let layers = model.bottom_mlp().num_layers() + model.top_mlp().num_layers();
        self.mlp_unit.record_gemms(layers as u64);
        self.interaction_unit.record_interactions(batch as u64);
        Ok(())
    }

    /// The request checks every functional entry point runs first.
    fn check_request(
        &self,
        dense_rows: &[f32],
        batch: usize,
        dense_cols: usize,
        out: &[f32],
    ) -> Result<(), CentaurError> {
        if !self.weights_loaded {
            return Err(CentaurError::NotInitialised("MLP weight SRAM"));
        }
        if dense_rows.len() != batch * dense_cols {
            return Err(centaur_dlrm::DlrmError::BatchMismatch {
                what: "dense elements vs batch rows",
                left: dense_rows.len(),
                right: batch * dense_cols,
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
        Ok(())
    }

    // ------------------------------------------------------------------
    // Timing path
    // ------------------------------------------------------------------

    /// Predicts the dense-stage timing for one batched request against
    /// `config` (the `MLP` component of Figure 14).
    pub fn execute_timing(&self, config: &ModelConfig, batch: usize) -> DenseStageTiming {
        let batch = batch.max(1);
        let bottom_mlp_ns =
            self.mlp_unit
                .mlp_time_ns(&config.bottom_mlp_dims(), batch, self.per_layer_overhead_ns);
        let top_mlp_ns =
            self.mlp_unit
                .mlp_time_ns(&config.top_mlp_dims(), batch, self.per_layer_overhead_ns);
        let interaction_ns = self.interaction_unit.batch_time_ns(
            config.interaction_features(),
            config.embedding_dim,
            batch,
        );
        let sigmoid_ns = self.sigmoid_unit.latency_ns(batch);
        DenseStageTiming {
            bottom_mlp_ns,
            interaction_ns,
            top_mlp_ns,
            sigmoid_ns,
            flops: config.dense_flops_per_sample() * batch as u64,
        }
    }
}

impl Default for DenseAccelerator {
    fn default() -> Self {
        DenseAccelerator::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;
    use centaur_dlrm::tensor::Matrix;

    fn tiny_model() -> DlrmModel {
        let config = ModelConfig::builder()
            .name("tiny")
            .num_tables(3)
            .rows_per_table(64)
            .embedding_dim(8)
            .lookups_per_table(4)
            .dense_features(5)
            .bottom_mlp(&[16, 8])
            .top_mlp(&[16, 8])
            .build()
            .unwrap();
        DlrmModel::random(&config, 11).unwrap()
    }

    /// One request's reduced embeddings, `[num_tables, dim]`.
    fn reduce_one(model: &DlrmModel, indices: &[Vec<u32>]) -> Matrix {
        let bag = model.embeddings();
        let mut out = Matrix::zeros(bag.num_tables(), bag.dim());
        let width = out.len();
        bag.reduce_batch_into(&[indices], out.as_mut_slice(), width, 0)
            .unwrap();
        out
    }

    /// One sample through the dense stage: a batch of one.
    fn forward_one(
        acc: &mut DenseAccelerator,
        model: &DlrmModel,
        dense_row: &[f32],
        reduced: &Matrix,
    ) -> Result<f32, CentaurError> {
        let mut out = [0.0f32];
        acc.forward_batch_rows_into(
            model,
            dense_row,
            1,
            dense_row.len(),
            reduced.as_slice(),
            &mut out,
        )?;
        Ok(out[0])
    }

    #[test]
    fn functional_forward_matches_reference_model() {
        let model = tiny_model();
        let mut acc = DenseAccelerator::harpv2();
        acc.load_model_packed(&model).unwrap();

        let dense = Matrix::from_fn(1, 5, |_, c| c as f32 * 0.3 - 0.7);
        let indices: Vec<Vec<u32>> = (0..3)
            .map(|t| vec![t as u32 * 5, t as u32 * 5 + 1])
            .collect();
        let reduced = reduce_one(&model, &indices);

        let ours = forward_one(&mut acc, &model, dense.as_slice(), &reduced).unwrap();
        let reference = model.forward_batch(&dense, &[indices]).unwrap()[0];
        // The same kernels in the same order on both sides: bitwise.
        assert_eq!(ours, reference);
    }

    #[test]
    fn batched_forward_matches_per_sample_loop() {
        let model = tiny_model();
        let mut per_sample = DenseAccelerator::harpv2();
        per_sample.load_model_packed(&model).unwrap();
        let mut batched = DenseAccelerator::harpv2();
        batched.load_model_packed(&model).unwrap();

        let batch = 5;
        let dense = Matrix::from_fn(batch, 5, |r, c| (r as f32 - c as f32) * 0.2);
        let reduced: Vec<Matrix> = (0..batch)
            .map(|s| {
                let indices: Vec<Vec<u32>> =
                    (0..3).map(|t| vec![(s * 7 + t) as u32 % 64]).collect();
                reduce_one(&model, &indices)
            })
            .collect();
        // Batch-major reduced staging buffer: [batch, num_tables * dim].
        let reduced_batch: Vec<f32> = reduced
            .iter()
            .flat_map(|m| m.as_slice().iter().copied())
            .collect();

        let mut batch_out = vec![0.0f32; batch];
        batched
            .forward_batch_rows_into(
                &model,
                dense.as_slice(),
                batch,
                5,
                &reduced_batch,
                &mut batch_out,
            )
            .unwrap();
        for (s, reduced) in reduced.iter().enumerate() {
            let single = forward_one(&mut per_sample, &model, dense.row(s), reduced).unwrap();
            assert_eq!(batch_out[s], single, "sample {s} diverged");
        }
    }

    #[test]
    fn batched_forward_records_one_gemm_per_layer() {
        let model = tiny_model();
        let mut acc = DenseAccelerator::harpv2();
        acc.load_model_packed(&model).unwrap();
        let batch = 6;
        let dense = vec![0.0f32; batch * 5];
        let reduced_batch = vec![0.0f32; batch * 3 * 8];
        let mut out = vec![0.0f32; batch];
        acc.forward_batch_rows_into(&model, &dense, batch, 5, &reduced_batch, &mut out)
            .unwrap();
        // One GEMM per MLP layer for the *whole* batch, not one per sample…
        let layers = (model.bottom_mlp().num_layers() + model.top_mlp().num_layers()) as u64;
        assert_eq!(acc.mlp_unit().gemms_executed(), layers);
        // …while every sample still occupies an interaction PE.
        assert_eq!(acc.interaction_unit().interactions_executed(), batch as u64);
    }

    #[test]
    fn functional_forward_advances_pe_counters() {
        let model = tiny_model();
        let mut acc = DenseAccelerator::harpv2();
        acc.load_model_packed(&model).unwrap();
        forward_one(&mut acc, &model, &[0.0; 5], &Matrix::zeros(3, 8)).unwrap();
        // Every MLP layer occupies the array once per request.
        let layers = (model.bottom_mlp().num_layers() + model.top_mlp().num_layers()) as u64;
        assert_eq!(acc.mlp_unit().gemms_executed(), layers);
        assert_eq!(acc.interaction_unit().interactions_executed(), 1);
    }

    #[test]
    fn failed_requests_do_not_advance_pe_counters() {
        let model = tiny_model();
        let mut acc = DenseAccelerator::harpv2();
        acc.load_model_packed(&model).unwrap();
        // Wrong dense width: the bottom MLP rejects the request.
        assert!(forward_one(&mut acc, &model, &[0.0; 3], &Matrix::zeros(3, 8)).is_err());
        assert_eq!(acc.mlp_unit().gemms_executed(), 0);
        assert_eq!(acc.interaction_unit().interactions_executed(), 0);
    }

    #[test]
    fn forward_requires_loaded_weights() {
        let model = tiny_model();
        let mut acc = DenseAccelerator::harpv2();
        assert!(matches!(
            forward_one(&mut acc, &model, &[0.0; 5], &Matrix::zeros(3, 8)),
            Err(CentaurError::NotInitialised(_))
        ));
    }

    #[test]
    fn packed_weight_load_accounts_resident_panels() {
        let model = tiny_model();
        let mut acc = DenseAccelerator::harpv2();
        acc.load_model_packed(&model).unwrap();
        assert!(acc.weights_loaded());
        // The strip-resident layout is a permutation of the row-major
        // weights: the SRAM accounting, measured from the actual
        // PrepackedWeights stores, must match the Table-I footprint bit for
        // bit.
        assert_eq!(
            acc.weight_sram().used_bytes(),
            model.config().mlp_bytes(),
            "prepacking must not inflate the on-chip weight footprint"
        );
    }

    #[test]
    fn every_paper_model_fits_on_chip() {
        let mut acc = DenseAccelerator::harpv2();
        for model in PaperModel::all() {
            let scaled = DlrmModel::random(&model.config().with_rows_per_table(8), 1).unwrap();
            assert!(acc.load_model_packed(&scaled).is_ok(), "{model}");
        }
        assert!(acc.weights_loaded());
    }

    #[test]
    fn peak_gflops_matches_paper() {
        let acc = DenseAccelerator::harpv2();
        assert!((acc.peak_gflops() - 313.0).abs() < 1.5);
    }

    #[test]
    fn timing_scales_with_batch_and_model_weight() {
        let acc = DenseAccelerator::harpv2();
        let light = PaperModel::Dlrm1.config();
        let heavy = PaperModel::Dlrm6.config();
        let light_b1 = acc.execute_timing(&light, 1);
        let light_b128 = acc.execute_timing(&light, 128);
        let heavy_b1 = acc.execute_timing(&heavy, 1);
        assert!(light_b128.total_ns() > light_b1.total_ns());
        assert!(heavy_b1.total_ns() > light_b1.total_ns());
        assert!(light_b1.flops > 0);
        assert!(light_b128.achieved_gflops() > light_b1.achieved_gflops());
    }

    #[test]
    fn fpga_dense_stage_is_faster_than_cpu_rooflines_suggest() {
        // At batch 128 the dense accelerator should sustain a large fraction
        // of its 313 GFLOPS on the heavyweight model.
        let acc = DenseAccelerator::harpv2();
        let t = acc.execute_timing(&PaperModel::Dlrm6.config(), 128);
        assert!(t.achieved_gflops() > 50.0, "{}", t.achieved_gflops());
    }
}
