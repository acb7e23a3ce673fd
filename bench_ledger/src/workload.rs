//! The four workloads, their inputs, and the reference answers the outputs
//! are checked against.
//!
//! Every workload's input is one seeded request list from the program's own
//! `generate_requests`, drawn with production-skewed (Zipf 0.99) indices over
//! paper-size tables (200 000 rows each, 128 MB of embeddings). An offline
//! batch is `batch` consecutive requests of that list, so the offline loop,
//! the serving replay and the per-layer timings all see the same inputs.

use centaur::{CentaurConfig, CentaurRuntime};
use centaur_dlrm::kernel::{KernelBackend, SparseBackend};
use centaur_dlrm::{DlrmModel, InferenceRequest, Matrix, ModelConfig, PaperModel};
use centaur_serve::{generate_requests, BatchPolicy};
use centaur_workload::IndexDistribution;

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One caller invoking `CentaurRuntime::infer_batch_into` back to back
    /// (closed loop) over a rotating pool of [`POOL_BATCHES`] batches.
    Offline,
    /// `serve_replay` with one generator thread and one replica (open loop):
    /// per trial a drain phase (every query due at once: capacity) and a
    /// paced phase (Poisson arrivals at a frozen rate: latency).
    Serve {
        /// Batching policy of the replica worker.
        policy: BatchPolicy,
        /// Queries in a drain phase.
        drain_queries: usize,
        /// Offered rate of the paced phase. Frozen: parent and change must
        /// see identical arrivals, so this is never calibrated per run.
        paced_qps: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Model shape (Table I of the paper).
    pub model: PaperModel,
    /// Samples per runtime call: the offline batch, or the policy's largest.
    pub batch: usize,
    /// Closed-loop calls or open-loop replay.
    pub drive: Drive,
}

/// Trials an offline run is cut into; each builds a fresh model and runtime.
/// The host's speed changes in stretches of seconds, so a trial reads fast or
/// slow as a whole and a run's figure is the median over its trials.
pub const OFFLINE_TRIALS: usize = 12;

/// Distinct batches in the rotation an offline loop, or a layer's timed
/// loop, walks over.
pub const POOL_BATCHES: usize = 256;

/// What a drain phase, the model build before it and the audit after it take
/// on the reference host: a serving run holds `--seconds` of these.
pub const DRAIN_TRIAL_S: f64 = 0.85;

/// Length of the paced phases of a traced run.
pub const PACED_PHASE_S: f64 = 1.0;

/// Every workload, in `BENCHMARK.json` order.
///
/// The paced rates were derived once on the reference host (2 vCPU Xeon
/// 2.1 GHz guest) as 0.36x and 0.20x of the measured drain rates (275 k and
/// 155 k queries/s), rounded to two digits: far enough under the knee that
/// latency is set by the batching policy and the hand-off, not by queueing.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "offline_embed",
        model: PaperModel::Dlrm3,
        batch: 64,
        drive: Drive::Offline,
    },
    Workload {
        name: "offline_mlp",
        model: PaperModel::Dlrm6,
        batch: 16,
        drive: Drive::Offline,
    },
    Workload {
        name: "serve_batched",
        model: PaperModel::Dlrm1,
        batch: centaur::BATCH_WAVE_SAMPLES,
        drive: Drive::Serve {
            // `BatchPolicy::dynamic_wave()`, spelled out because that is not
            // a `const fn`; a unit test holds the two equal.
            policy: BatchPolicy::Dynamic {
                max_batch: centaur::BATCH_WAVE_SAMPLES,
                max_wait: std::time::Duration::from_millis(1),
            },
            drain_queries: 200_000,
            paced_qps: 100_000.0,
        },
    },
    Workload {
        name: "serve_single",
        model: PaperModel::Dlrm1,
        batch: 1,
        drive: Drive::Serve {
            policy: BatchPolicy::Fifo,
            drain_queries: 100_000,
            paced_qps: 30_000.0,
        },
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|workload| workload.name == name)
    }

    /// Threads the benchmark itself keeps busy: the one caller, or the
    /// generator and the replica worker.
    pub fn driven_threads(&self) -> usize {
        match self.drive {
            Drive::Offline => 1,
            Drive::Serve { .. } => 2,
        }
    }

    /// Trials a run of `seconds` is cut into: [`OFFLINE_TRIALS`] (fewer when
    /// that would leave a trial under a second), or as many drain phases as
    /// fit.
    pub fn trials_for(&self, seconds: f64) -> usize {
        match self.drive {
            Drive::Offline => (seconds as usize).clamp(1, OFFLINE_TRIALS),
            Drive::Serve { .. } => ((seconds / DRAIN_TRIAL_S) as usize).max(1),
        }
    }

    /// Queries in a paced phase of `seconds`.
    pub fn paced_queries(&self, seconds: f64) -> usize {
        match self.drive {
            Drive::Offline => 0,
            Drive::Serve { paced_qps, .. } => (seconds * paced_qps) as usize,
        }
    }

    /// Requests the workload's input list must hold for paced phases of
    /// `paced_seconds`.
    pub fn requests_needed(&self, paced_seconds: f64) -> usize {
        match self.drive {
            Drive::Offline => POOL_BATCHES * self.batch,
            Drive::Serve { drain_queries, .. } => {
                drain_queries.max(self.paced_queries(paced_seconds))
            }
        }
    }
}

/// One batch in the form the compute layers take.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Dense features, one row per sample.
    pub dense: Matrix,
    /// Index lists per sample, per table.
    pub sparse: Vec<Vec<Vec<u32>>>,
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Full-size model configuration.
    pub config: ModelConfig,
    /// Seed of the model weights (the same in every trial, so every trial
    /// must produce the same answers).
    pub model_seed: u64,
    /// The request list.
    pub requests: Vec<InferenceRequest>,
}

impl Inputs {
    /// Generates `count` requests for `workload` from `seed`.
    pub fn generate(workload: &Workload, seed: u64, count: usize) -> Self {
        let config = workload.model.config();
        let requests = generate_requests(
            &config,
            IndexDistribution::production_skew(),
            seed ^ 0x1DE5,
            count,
        );
        Inputs {
            config,
            model_seed: seed,
            requests,
        }
    }

    /// The first `count` batches of `batch` consecutive requests.
    pub fn batches(&self, batch: usize, count: usize) -> Vec<Batch> {
        batches_of(&self.config, &self.requests, batch, count)
    }

    /// A freshly allocated model.
    pub fn fresh_model(&self) -> DlrmModel {
        DlrmModel::random(&self.config, self.model_seed).expect("paper configurations are valid")
    }

    /// A freshly built single-replica pool on the default backends — what
    /// one trial (or one serving phase) runs on.
    pub fn fresh_pool(&self) -> Vec<CentaurRuntime> {
        CentaurRuntime::replica_pool(self.fresh_model(), CentaurConfig::harpv2(), 1)
            .expect("paper MLPs fit the weight SRAM")
    }

    /// A runtime on the oracle kernels (`Naive` GEMM, `Scalar` gather), which
    /// the production backends must match bit for bit.
    pub fn oracle_runtime(&self) -> CentaurRuntime {
        let mut oracle = self.fresh_pool().pop().expect("pool of one");
        oracle.set_backend(KernelBackend::Naive);
        oracle.set_sparse_backend(SparseBackend::Scalar);
        oracle
    }
}

/// Groups `batch` consecutive requests into each of the first `count` batches.
pub fn batches_of(
    config: &ModelConfig,
    requests: &[InferenceRequest],
    batch: usize,
    count: usize,
) -> Vec<Batch> {
    requests
        .chunks_exact(batch)
        .take(count)
        .map(|chunk| {
            let dense: Vec<f32> = chunk.iter().flat_map(|r| r.dense.iter().copied()).collect();
            Batch {
                dense: Matrix::from_vec(batch, config.dense_features, dense)
                    .expect("requests carry one value per dense feature"),
                sparse: chunk.iter().map(|r| r.sparse.clone()).collect(),
            }
        })
        .collect()
}

/// Bit patterns of a slice of probabilities; outputs are compared exactly.
pub fn bits(probabilities: &[f32]) -> Vec<u32> {
    probabilities.iter().map(|p| p.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for workload in &ALL {
            assert_eq!(Workload::by_name(workload.name), Some(workload));
        }
        assert_eq!(Workload::by_name("offline"), None);
    }

    #[test]
    fn the_batched_policy_is_the_programs_wave_policy() {
        let Drive::Serve { policy, .. } = Workload::by_name("serve_batched").unwrap().drive else {
            panic!("serve_batched replays");
        };
        assert_eq!(policy, BatchPolicy::dynamic_wave());
    }

    #[test]
    fn paced_rates_stay_well_under_the_drain_rates() {
        // Drain rates measured on the reference host, queries per second.
        for (name, drain_rate) in [("serve_batched", 275_000.0), ("serve_single", 155_000.0)] {
            let Drive::Serve { paced_qps, .. } = Workload::by_name(name).unwrap().drive else {
                panic!("{name} replays");
            };
            assert!(paced_qps < 0.55 * drain_rate, "{name} sits on the knee");
        }
    }

    /// `BENCHMARK.json` has no key for the frozen paced rates, so each serving
    /// workload's `why` line states its rate: held equal to the constant here.
    #[test]
    fn benchmark_json_states_the_frozen_paced_rates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for workload in &ALL {
            let Drive::Serve { paced_qps, .. } = workload.drive else {
                continue;
            };
            let entry = text
                .split(&format!("\"name\": \"{}\"", workload.name))
                .nth(1)
                .and_then(|rest| rest.split('}').next())
                .expect("every workload is declared");
            assert!(
                entry.contains(&format!("frozen {paced_qps} qps")),
                "{}: {entry}",
                workload.name
            );
        }
    }

    #[test]
    fn trial_and_request_counts_follow_the_run_length() {
        let batched = Workload::by_name("serve_batched").unwrap();
        assert_eq!(batched.trials_for(17.0), 20);
        assert_eq!(batched.trials_for(0.1), 1);
        assert_eq!(batched.paced_queries(1.5), 150_000);
        assert_eq!(batched.requests_needed(3.0), 300_000);
        assert_eq!(
            batched.requests_needed(0.0),
            200_000,
            "the drain phase sets the floor"
        );
        let embed = Workload::by_name("offline_embed").unwrap();
        assert_eq!(embed.trials_for(20.0), OFFLINE_TRIALS);
        assert_eq!(embed.trials_for(2.5), 2);
        assert_eq!(embed.trials_for(0.1), 1);
        assert_eq!(embed.requests_needed(3.0), 256 * 64);
    }

    #[test]
    fn batches_are_consecutive_requests() {
        let workload = Workload::by_name("offline_mlp").unwrap();
        let inputs = Inputs::generate(workload, 3, 10);
        let batches = inputs.batches(4, 9);
        assert_eq!(batches.len(), 2, "only whole batches");
        assert_eq!(batches[1].dense.row(2), &inputs.requests[6].dense[..]);
        assert_eq!(batches[1].sparse[3], inputs.requests[7].sparse);
        assert_eq!(Inputs::generate(workload, 3, 10).requests, inputs.requests);
        assert_ne!(Inputs::generate(workload, 4, 10).requests, inputs.requests);
    }
}
