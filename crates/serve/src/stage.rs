//! Per-replica batch staging: coalesced requests are copied into reusable
//! batch-major buffers and run through the accelerator's batched path.
//!
//! Mirrors the `BatchWorkspace` discipline of the model crate: every buffer
//! grows to a high-water mark on the first batches and is reused afterwards,
//! so the serving steady state performs **zero heap allocations** per batch
//! (asserted by the workspace-level `tests/zero_alloc.rs`).

use centaur::{CentaurError, CentaurRuntime};
use centaur_dlrm::config::ModelConfig;
use centaur_dlrm::{DlrmError, InferenceRequest};

/// Reusable staging buffers turning a slice of queued [`InferenceRequest`]s
/// into one batch-major accelerator call.
#[derive(Debug, Clone)]
pub struct ReplicaStage {
    cols: usize,
    max_batch: usize,
    /// Batch-major dense features (`[max_batch * cols]`).
    dense: Vec<f32>,
    /// Staged index lists (`[max_batch][num_tables]`, inner `Vec`s reused).
    sparse: Vec<Vec<Vec<u32>>>,
    /// One probability slot per staged sample.
    out: Vec<f32>,
}

impl ReplicaStage {
    /// Builds a stage for `config`-shaped requests coalescing at most
    /// `max_batch` samples.
    pub fn new(config: &ModelConfig, max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        ReplicaStage {
            cols: config.dense_features,
            max_batch,
            dense: vec![0.0; max_batch * config.dense_features],
            sparse: (0..max_batch)
                .map(|_| vec![Vec::new(); config.num_tables])
                .collect(),
            out: vec![0.0; max_batch],
        }
    }

    /// Largest batch this stage can hold.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Stages `requests` into the reusable buffers and runs one batched
    /// inference on `runtime`; returns one probability per request, in
    /// request order.
    ///
    /// # Errors
    ///
    /// Returns a batch/shape mismatch when more requests than `max_batch`
    /// are staged or a request does not match the stage's model shape, plus
    /// any accelerator datapath error.
    pub fn run_batch(
        &mut self,
        runtime: &mut CentaurRuntime,
        requests: &[&InferenceRequest],
    ) -> Result<&[f32], CentaurError> {
        let n = requests.len();
        if n > self.max_batch {
            return Err(DlrmError::BatchMismatch {
                what: "coalesced requests vs stage capacity",
                left: n,
                right: self.max_batch,
            }
            .into());
        }
        for (slot, request) in requests.iter().enumerate() {
            if request.dense.len() != self.cols {
                return Err(DlrmError::BatchMismatch {
                    what: "request dense features vs stage width",
                    left: request.dense.len(),
                    right: self.cols,
                }
                .into());
            }
            let tables = &mut self.sparse[slot];
            if request.sparse.len() != tables.len() {
                return Err(DlrmError::TableCountMismatch {
                    provided: request.sparse.len(),
                    expected: tables.len(),
                }
                .into());
            }
            self.dense[slot * self.cols..(slot + 1) * self.cols].copy_from_slice(&request.dense);
            for (staged, lists) in tables.iter_mut().zip(&request.sparse) {
                staged.clear();
                staged.extend_from_slice(lists);
            }
        }
        runtime.infer_batch_rows_into(
            &self.dense[..n * self.cols],
            self.cols,
            &self.sparse[..n],
            &mut self.out[..n],
        )?;
        Ok(&self.out[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::{DlrmModel, PaperModel};
    use centaur_workload::IndexDistribution;

    fn model() -> DlrmModel {
        let config = PaperModel::Dlrm1.config().with_rows_per_table(256);
        DlrmModel::random(&config, 3).unwrap()
    }

    fn requests(config: &ModelConfig, count: usize) -> Vec<InferenceRequest> {
        crate::generate_requests(config, IndexDistribution::Uniform, 7, count)
    }

    #[test]
    fn staged_batch_matches_direct_batch_inference() {
        let model = model();
        let config = model.config().clone();
        let mut runtime = CentaurRuntime::harpv2(model.clone()).unwrap();
        let mut stage = ReplicaStage::new(&config, 8);
        let requests = requests(&config, 6);
        let refs: Vec<&InferenceRequest> = requests.iter().collect();
        let staged = stage.run_batch(&mut runtime, &refs).unwrap().to_vec();

        // Reference: the same samples through the runtime's Matrix path.
        let dense = centaur_dlrm::Matrix::from_vec(
            6,
            config.dense_features,
            requests.iter().flat_map(|r| r.dense.clone()).collect(),
        )
        .unwrap();
        let sparse: Vec<Vec<Vec<u32>>> = requests.iter().map(|r| r.sparse.clone()).collect();
        let mut reference = CentaurRuntime::harpv2(model).unwrap();
        let mut expected = vec![f32::NAN; 6];
        reference
            .infer_batch_into(&dense, &sparse, &mut expected)
            .unwrap();
        assert_eq!(staged, expected);
    }

    #[test]
    fn stage_rejects_overflow_and_bad_shapes() {
        let model = model();
        let config = model.config().clone();
        let mut runtime = CentaurRuntime::harpv2(model).unwrap();
        let mut stage = ReplicaStage::new(&config, 2);
        let requests = requests(&config, 3);
        let refs: Vec<&InferenceRequest> = requests.iter().collect();
        assert!(stage.run_batch(&mut runtime, &refs).is_err(), "overflow");

        let mut bad = requests[0].clone();
        bad.dense.push(0.0);
        assert!(stage.run_batch(&mut runtime, &[&bad]).is_err());
        let mut bad = requests[0].clone();
        bad.sparse.pop();
        assert!(stage.run_batch(&mut runtime, &[&bad]).is_err());
        // A good batch still serves after rejected ones.
        assert_eq!(stage.run_batch(&mut runtime, &refs[..2]).unwrap().len(), 2);
    }
}
