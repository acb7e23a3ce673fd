//! Request/response types for serving a DLRM model: one user query in, one
//! click-probability out.
//!
//! These are the wire-level unit the serving layer queues, batches and
//! dispatches — deliberately plain owned data (`Vec`s, no `Matrix`) so a
//! request can be built by a load generator, moved across a channel into a
//! worker thread, and staged into a batch without touching the model crate's
//! tensor machinery.

use crate::config::ModelConfig;
use crate::error::DlrmError;

/// One inference query: a single sample's dense features plus its per-table
/// sparse index lists.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// Caller-assigned request id, echoed in the response.
    pub id: u64,
    /// Dense features (`[dense_features]`).
    pub dense: Vec<f32>,
    /// Sparse indices, one list per embedding table.
    pub sparse: Vec<Vec<u32>>,
}

impl InferenceRequest {
    /// Validates the request's shape against a model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DlrmError::BatchMismatch`] when the dense feature width is
    /// wrong and [`DlrmError::TableCountMismatch`] when the number of index
    /// lists does not match the model's table count.
    pub fn check_shape(&self, config: &ModelConfig) -> Result<(), DlrmError> {
        if self.dense.len() != config.dense_features {
            return Err(DlrmError::BatchMismatch {
                what: "request dense features vs model dense features",
                left: self.dense.len(),
                right: config.dense_features,
            });
        }
        if self.sparse.len() != config.num_tables {
            return Err(DlrmError::TableCountMismatch {
                provided: self.sparse.len(),
                expected: config.num_tables,
            });
        }
        Ok(())
    }

    /// Total embedding lookups the request will perform.
    pub fn lookups(&self) -> usize {
        self.sparse.iter().map(Vec::len).sum()
    }

    /// The same request re-stamped with a different caller-assigned id.
    ///
    /// Multi-tenant harnesses merge per-tenant request streams into one
    /// shared pool and need ids that are unique (and dense) across the merged
    /// stream, not just within each tenant's own stream.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }
}

/// Why a serving layer refused to answer a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Shed at admission: the arrival queue was already at its configured
    /// depth bound when the request arrived.
    QueueFull,
    /// Shed at dispatch: the request's deadline had already passed when a
    /// worker reached it, so serving it would waste accelerator time on an
    /// answer the caller no longer wants.
    DeadlineExpired,
    /// Failed after exhausting its retry budget: every serve attempt ended
    /// in a replica crash or datapath error, and the supervisor gave up
    /// rather than retry forever. Never silent — a failed request surfaces
    /// here exactly like a shed one.
    Failed,
}

impl RejectReason {
    /// Short label for report output (`queue_full`, `deadline_expired`,
    /// `failed`).
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineExpired => "deadline_expired",
            RejectReason::Failed => "failed",
        }
    }
}

/// The wire-level refusal of one [`InferenceRequest`] — what an
/// overload-protected deployment sends back instead of a prediction when it
/// sheds or fails the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectedRequest {
    /// The request id this refuses.
    pub id: u64,
    /// Why it was refused.
    pub reason: RejectReason,
    /// Retry metadata: how many times the request was re-served after a
    /// replica crash or datapath error before this refusal. Always `0` for
    /// admission/deadline sheds (those never reached a replica); for
    /// [`RejectReason::Failed`] it equals the exhausted retry budget.
    pub retries: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperModel;

    fn request_for(config: &ModelConfig) -> InferenceRequest {
        InferenceRequest {
            id: 7,
            dense: vec![0.0; config.dense_features],
            sparse: (0..config.num_tables).map(|t| vec![t as u32, 1]).collect(),
        }
    }

    #[test]
    fn well_shaped_request_passes() {
        let config = PaperModel::Dlrm1.config();
        let request = request_for(&config);
        assert!(request.check_shape(&config).is_ok());
        assert_eq!(request.lookups(), 2 * config.num_tables);
    }

    #[test]
    fn with_id_restamps_only_the_id() {
        let config = PaperModel::Dlrm1.config();
        let request = request_for(&config);
        let dense = request.dense.clone();
        let restamped = request.with_id(99);
        assert_eq!(restamped.id, 99);
        assert_eq!(restamped.dense, dense, "payload is untouched");
    }

    #[test]
    fn wrong_dense_width_is_rejected() {
        let config = PaperModel::Dlrm1.config();
        let mut request = request_for(&config);
        request.dense.push(0.0);
        assert!(matches!(
            request.check_shape(&config),
            Err(DlrmError::BatchMismatch { .. })
        ));
    }

    #[test]
    fn reject_reasons_label_distinctly() {
        assert_eq!(RejectReason::QueueFull.label(), "queue_full");
        assert_eq!(RejectReason::DeadlineExpired.label(), "deadline_expired");
        assert_eq!(RejectReason::Failed.label(), "failed");
        let rejected = RejectedRequest {
            id: 3,
            reason: RejectReason::DeadlineExpired,
            retries: 0,
        };
        assert_eq!(rejected.id, 3);
        assert_eq!(rejected.reason, RejectReason::DeadlineExpired);
        let failed = RejectedRequest {
            id: 4,
            reason: RejectReason::Failed,
            retries: 2,
        };
        assert_eq!(failed.retries, 2, "failed requests carry retry metadata");
    }

    #[test]
    fn wrong_table_count_is_rejected() {
        let config = PaperModel::Dlrm1.config();
        let mut request = request_for(&config);
        request.sparse.pop();
        assert!(matches!(
            request.check_shape(&config),
            Err(DlrmError::TableCountMismatch { .. })
        ));
    }
}
