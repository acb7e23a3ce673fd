//! The serving harness: an open-loop load generator replays a seeded
//! [`QueryStream`] against a pool of replica workers behind the shared
//! [`ArrivalQueue`](crate::ArrivalQueue), and the recorded per-request
//! completions are digested into tail-latency and goodput-under-SLO
//! figures. The replay itself runs on the one serving engine.

use crate::engine;
use crate::fault::FaultPlan;
use crate::mix::MixServer;
use crate::policy::BatchPolicy;
use crate::queue::AdmissionConfig;
use crate::stage::ReplicaStage;
use crate::supervisor::Supervision;
use centaur::{CentaurConfig, CentaurError, CentaurRuntime};
use centaur_dlrm::config::ModelConfig;
use centaur_dlrm::{DlrmModel, InferenceRequest, InferenceResponse, RejectReason, RejectedRequest};
use centaur_workload::{IndexDistribution, LatencySummary, QueryStream, RequestGenerator};
use std::time::{Duration, Instant};

/// One served request's record: scheduled arrival, completion time and the
/// served probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The request id (the pre-generated request's index).
    pub id: u64,
    /// Scheduled arrival offset, seconds from experiment start.
    pub arrival_s: f64,
    /// Completion offset, seconds from experiment start.
    pub completed_s: f64,
    /// Served click probability.
    pub probability: f32,
}

impl Completion {
    /// End-to-end latency (queueing + batching + inference), in seconds.
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.arrival_s
    }

    /// The wire-level answer to the request — what a deployment would send
    /// back to the caller (the timing fields stay server-side).
    pub fn response(&self) -> InferenceResponse {
        InferenceResponse {
            id: self.id,
            probability: self.probability,
        }
    }
}

/// Health strikes before a struck replica is quarantined: one overdue batch
/// is noise, three in a row is a slow node.
const QUARANTINE_STRIKES: u32 = 3;

/// First quarantine backoff; each repeat offence doubles it.
const QUARANTINE_BACKOFF: Duration = Duration::from_millis(25);

/// The tail-tolerance layer's tuning: how stale an in-flight batch must be
/// before the watchdog hedges it to a sibling, and how the straggler's
/// health strikes convert into quarantine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Age past which a published batch is overdue: the watchdog strikes
    /// the replica's health and re-dispatches the riders to a sibling.
    pub timeout: Duration,
    /// Health strikes (overdue batches, transients, over-timeout services)
    /// before the replica is quarantined.
    pub quarantine_strikes: u32,
    /// First quarantine duration; doubled on each repeat offence.
    pub quarantine_backoff: Duration,
}

impl HedgeConfig {
    /// Shortest derived hedge timeout — below this the watchdog would hedge
    /// healthy dispatch jitter.
    pub const MIN_TIMEOUT: Duration = Duration::from_micros(500);

    /// Derived hedge timeout when neither an SLO nor a service estimate is
    /// available to anchor one.
    pub const FALLBACK_TIMEOUT: Duration = Duration::from_millis(5);

    /// A hedge config with an explicit timeout and the built-in quarantine
    /// tuning: 3 strikes, a 25 ms first backoff.
    pub fn new(timeout: Duration) -> Self {
        HedgeConfig {
            timeout,
            quarantine_strikes: QUARANTINE_STRIKES,
            quarantine_backoff: QUARANTINE_BACKOFF,
        }
    }

    /// The same config with explicit quarantine tuning.
    pub fn with_quarantine(mut self, strikes: u32, backoff: Duration) -> Self {
        self.quarantine_strikes = strikes;
        self.quarantine_backoff = backoff;
        self
    }

    /// The deployment-default config, with the quarantine tuning of
    /// [`new`](Self::new). The timeout is derived from the tenant SLO and
    /// the policy's calibrated service estimate — twice the estimate (a
    /// healthy batch at double its expected service is a straggler) capped
    /// at half the SLO (hedging later leaves the sibling no budget to
    /// answer in), floored at [`Self::MIN_TIMEOUT`], falling back to
    /// [`Self::FALLBACK_TIMEOUT`] when neither anchor exists.
    pub fn derived(slo: Option<Duration>, policy: BatchPolicy) -> Self {
        let from_estimate = policy.dispatch_slack().map(|estimate| estimate * 2);
        let from_slo = slo.map(|slo| slo / 2);
        let timeout = match (from_estimate, from_slo) {
            (Some(estimate), Some(slo)) => estimate.min(slo),
            (Some(estimate), None) => estimate,
            (None, Some(slo)) => slo,
            (None, None) => Self::FALLBACK_TIMEOUT,
        };
        HedgeConfig::new(timeout.max(Self::MIN_TIMEOUT))
    }
}

/// Per-run serving options: the latency SLO requests carry and the
/// overload-protection gates. The default is the pre-SLO behaviour — no
/// deadline, unbounded queue, nothing shed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeOptions {
    /// Per-request latency SLO: each request's deadline is its scheduled
    /// arrival plus this. `None` = no deadline (goodput equals throughput).
    pub slo: Option<Duration>,
    /// Admission-gate depth bound: arrivals are shed while the queue
    /// already holds this many requests. `None` = unbounded.
    pub admission_depth: Option<usize>,
    /// Shed already-dead requests at dequeue instead of serving them.
    pub shed_expired: bool,
    /// Fault-tolerance budgets. `None` preserves the fail-stop contract: a
    /// replica panic or datapath error aborts the whole run. `Some`
    /// supervises the pool — crashed workers' batches are recovered and
    /// requeued (original arrival stamps), replicas restart up to the
    /// budget, and only unrecoverable states abort.
    pub supervision: Option<Supervision>,
    /// Tail tolerance under supervision: `Some` arms the stall watchdog —
    /// overdue batches are hedged to a healthy sibling (first result wins,
    /// the straggler's duplicate is suppressed) and persistently slow
    /// replicas are quarantined with exponential-backoff re-admission.
    /// `None` (the default) leaves stalls visible in the tail. Requires
    /// [`supervision`](Self::supervision): a run with `Some` here and no
    /// supervision is rejected as [`CentaurError::InvalidConfig`] (the
    /// fail-stop path gets a stall abort instead, see
    /// [`serve_replay_with`]).
    pub hedge: Option<HedgeConfig>,
}

impl ServeOptions {
    /// Measure goodput against `slo` without shedding anything — the
    /// baseline that shows what overload does to an unprotected server.
    pub fn with_slo(slo: Duration) -> Self {
        ServeOptions {
            slo: Some(slo),
            ..ServeOptions::default()
        }
    }

    /// Full overload protection: requests carry `slo`-derived deadlines,
    /// the admission gate sheds beyond `admission_depth`, and dead requests
    /// are shed at dequeue.
    pub fn overload_protected(slo: Duration, admission_depth: usize) -> Self {
        ServeOptions {
            slo: Some(slo),
            admission_depth: Some(admission_depth),
            shed_expired: true,
            ..ServeOptions::default()
        }
    }

    /// The same options with a supervised, fault-tolerant replica pool.
    pub fn supervised(mut self, supervision: Supervision) -> Self {
        self.supervision = Some(supervision);
        self
    }

    /// The same options with the stall watchdog armed (supervised runs
    /// only): overdue batches hedge to a sibling and slow replicas are
    /// quarantined per `hedge`.
    pub fn hedged(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// The SLO in seconds, `f64::INFINITY` when none is set.
    pub fn slo_s(&self) -> f64 {
        self.slo.map_or(f64::INFINITY, |slo| slo.as_secs_f64())
    }

    pub(crate) fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            max_depth: self.admission_depth,
            shed_expired: self.shed_expired,
        }
    }
}

/// Everything recorded by one serving run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-request completion records (unordered across workers).
    pub completions: Vec<Completion>,
    /// Number of accelerator batches dispatched.
    pub batches: usize,
    /// The SLO the run was configured with, seconds (`INFINITY` = none).
    pub slo_s: f64,
    /// Requests shed at the admission gate.
    pub shed_admission: usize,
    /// Requests shed at dequeue because their deadline had passed.
    pub shed_expired: usize,
    /// Requests permanently failed after exhausting their retry budget.
    pub failed: usize,
    /// Total re-serve attempts (requeues after crashes/datapath errors).
    pub retries: usize,
    /// Replica restarts the supervisor performed.
    pub restarts: usize,
    /// Replicas that died beyond the restart budget and stayed dead.
    pub replicas_lost: usize,
    /// Overdue batches' riders hedged to a sibling replica.
    pub hedges: usize,
    /// Hedged requests whose *clone* answered first — rescues the watchdog
    /// actually delivered.
    pub hedge_wins: usize,
    /// Duplicate results discarded by first-result-wins suppression (the
    /// losing copy of each hedge race).
    pub duplicates_suppressed: usize,
    /// Replica quarantine entries the health board performed.
    pub quarantines: usize,
    /// Quarantined replicas re-admitted after their backoff probe.
    pub readmissions: usize,
    /// Per-request refusals for everything shed or failed (wire-level, in
    /// shed order).
    pub rejections: Vec<RejectedRequest>,
}

impl ServeOutcome {
    /// Tail-latency digest of the recorded completions.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        let latencies: Vec<f64> = self.completions.iter().map(Completion::latency_s).collect();
        LatencySummary::from_latencies(&latencies)
    }

    /// Wall-clock span from experiment start to the last completion.
    pub fn span_s(&self) -> f64 {
        self.completions
            .iter()
            .map(|c| c.completed_s)
            .fold(0.0, f64::max)
    }

    /// Sustained completions per second over the whole run.
    pub fn achieved_qps(&self) -> f64 {
        let span = self.span_s();
        if span <= 0.0 {
            0.0
        } else {
            self.completions.len() as f64 / span
        }
    }

    /// Completions that met the run's SLO — the answers a caller actually
    /// got in time.
    pub fn within_slo(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| c.latency_s() <= self.slo_s)
            .count()
    }

    /// Completions that arrived after their deadline — served, but too late
    /// for the caller to use.
    pub fn deadline_misses(&self) -> usize {
        self.completions.len() - self.within_slo()
    }

    /// Total requests shed (admission gate + dequeue expiry). Failures are
    /// counted separately ([`failed`](Self::failed)): a shed is flow
    /// control the server chose, a failure is work the server could not do.
    pub fn shed(&self) -> usize {
        self.shed_admission + self.shed_expired
    }

    /// Every request the run gave a terminal state: completed, shed or
    /// failed. Equals the generated request count when the run finished
    /// without aborting — the accounting invariant.
    pub fn accounted(&self) -> usize {
        self.completions.len() + self.shed() + self.failed
    }

    /// Availability under faults: of the requests the server *accepted*
    /// (not shed by flow control), the fraction it actually answered —
    /// `completed / (completed + failed)`. Sheds are deliberate load
    /// shedding, not availability loss, so they stay out of the ratio; a
    /// run with nothing accepted reports `1.0`.
    pub fn availability(&self) -> f64 {
        let accepted = self.completions.len() + self.failed;
        if accepted == 0 {
            1.0
        } else {
            self.completions.len() as f64 / accepted as f64
        }
    }

    /// Requests refused for `reason` (admission sheds, deadline sheds, or
    /// retry-budget failures).
    pub fn reject_count(&self, reason: RejectReason) -> usize {
        match reason {
            RejectReason::QueueFull => self.shed_admission,
            RejectReason::DeadlineExpired => self.shed_expired,
            RejectReason::Failed => self.failed,
        }
    }

    /// Goodput under the run's SLO: completions that met their deadline per
    /// second of span — the metric that matters past saturation, where raw
    /// qps keeps counting answers nobody can use.
    pub fn goodput_qps(&self) -> f64 {
        let span = self.span_s();
        if span <= 0.0 {
            0.0
        } else {
            self.within_slo() as f64 / span
        }
    }

    /// Mean coalesced batch size actually dispatched.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completions.len() as f64 / self.batches as f64
        }
    }
}

/// Pre-generates `count` single-sample inference requests for `config`,
/// deterministically seeded — the request set a serving run replays.
pub fn generate_requests(
    config: &ModelConfig,
    distribution: IndexDistribution,
    seed: u64,
    count: usize,
) -> Vec<InferenceRequest> {
    let mut generator = RequestGenerator::new(config, distribution, seed);
    (0..count)
        .map(|id| {
            let sparse = generator.sample_trace().as_u32_indices();
            let dense = generator.dense_features(1).into_vec();
            InferenceRequest {
                id: id as u64,
                dense,
                sparse,
            }
        })
        .collect()
}

/// Replays `stream` open-loop against a pool of replica shards with the
/// default (fully permissive) [`ServeOptions`] — see [`serve_replay_with`].
///
/// # Errors
///
/// See [`serve_replay_with`].
pub fn serve_replay(
    replicas: Vec<CentaurRuntime>,
    requests: &[InferenceRequest],
    stream: &QueryStream,
    policy: BatchPolicy,
) -> Result<ServeOutcome, CentaurError> {
    serve_replay_with(replicas, requests, stream, policy, ServeOptions::default())
}

/// Replays `stream` open-loop against a pool of replica shards: the calling
/// thread becomes the load generator (sleeping until each scheduled arrival
/// and enqueueing the matching request), while one worker thread per replica
/// coalesces queued requests into batches per `policy` and serves them
/// through the accelerator's batched path.
///
/// Latencies are measured against the *scheduled* arrival times, so a
/// generator running late inflates latency instead of thinning the offered
/// load — open-loop semantics, the methodology RecNMP/MicroRec-style
/// at-load studies require.
///
/// `options` adds the overload-protection layer: an SLO stamps each queued
/// request with a deadline, the admission gate bounds queue depth, and
/// dequeue shedding drops dead requests before they reach the accelerator.
/// Everything shed is counted and surfaced as per-request
/// [`RejectedRequest`]s in the outcome — never silently.
///
/// A worker that fails mid-run (datapath error or panic) aborts the whole
/// experiment promptly: the queue closes, the generator stops replaying the
/// remaining schedule, and the failure — a panic's original payload
/// included — is surfaced as soon as the workers unwind, not after the
/// full arrival schedule has played out. With an SLO set, a batch held past
/// twice the SLO (floored at 250 ms) aborts the run the same way. Set
/// [`ServeOptions::supervision`] to trade that fail-stop contract for
/// crash-tolerant supervision (see [`serve_replay_faulted`]).
///
/// # Errors
///
/// Returns an error when `requests` and `stream` disagree in length, the
/// replica pool is empty, a request's shape does not match the replicas'
/// model, [`ServeOptions::hedge`] is set without
/// [`ServeOptions::supervision`], a batch stalls past the abort deadline
/// ([`CentaurError::ReplicaStalled`]), or the accelerator datapath fails
/// mid-run.
///
/// # Panics
///
/// Re-raises a replica worker's panic with its original payload.
pub fn serve_replay_with(
    replicas: Vec<CentaurRuntime>,
    requests: &[InferenceRequest],
    stream: &QueryStream,
    policy: BatchPolicy,
    options: ServeOptions,
) -> Result<ServeOutcome, CentaurError> {
    serve_replay_faulted(
        replicas,
        requests,
        stream,
        policy,
        options,
        &FaultPlan::none(),
    )
}

/// [`serve_replay_with`] plus deterministic fault injection: each replica
/// worker polls its slice of `plan` once per coalesced batch — crash events
/// panic the worker mid-batch, stall events freeze it with its batch held,
/// transient events fail the batch's serve attempt.
///
/// Without [`ServeOptions::supervision`] the injected faults hit the
/// fail-stop path (a crash aborts the run) — the *unprotected* baseline.
/// With supervision, the pool degrades gracefully: in-flight batches are
/// recovered and requeued with their original arrival stamps against the
/// per-request retry budget, crashed replicas restart (fresh shard clone)
/// against the pool-wide restart budget, exhausted retries surface as
/// [`RejectReason::Failed`] rejections, and only unrecoverable states —
/// every replica dead — abort with the first crash's original panic
/// payload.
///
/// This is the serving engine with one tenant and one arrival stream; the
/// shared multi-tenant pool ([`crate::run_mix_cell`]) is the same engine
/// with one stream per tenant.
///
/// # Errors
///
/// See [`serve_replay_with`]; under supervision, datapath errors are
/// retried/failed per request instead of returned.
///
/// # Panics
///
/// Re-raises the first crash's payload when the run is unrecoverable.
pub fn serve_replay_faulted(
    replicas: Vec<CentaurRuntime>,
    requests: &[InferenceRequest],
    stream: &QueryStream,
    policy: BatchPolicy,
    options: ServeOptions,
    plan: &FaultPlan,
) -> Result<ServeOutcome, CentaurError> {
    if replicas.is_empty() {
        return Err(CentaurError::NotInitialised("serving replica pool"));
    }
    if requests.len() != stream.len() {
        return Err(centaur_dlrm::DlrmError::BatchMismatch {
            what: "pre-generated requests vs arrival stream",
            left: requests.len(),
            right: stream.len(),
        }
        .into());
    }
    let model_config = replicas[0].model().config().clone();
    for request in requests {
        request.check_shape(&model_config)?;
    }

    let servers = replicas
        .into_iter()
        .map(|runtime| MixServer::new(vec![runtime], requests, &[0], policy.max_batch()))
        .collect();
    engine::serve(servers, requests, &[(0, stream)], policy, options, plan)
}

/// Measures the single-sample service time of `model` on one runtime shard
/// and returns the implied batch-1 FIFO saturation capacity in queries per
/// second — the anchor a deployment sizes its pools and offered loads
/// from (see `examples/ads_ranking.rs`).
///
/// # Errors
///
/// Propagates registration/datapath errors.
pub fn calibrate_fifo_capacity_qps(
    model: &DlrmModel,
    accel_config: CentaurConfig,
    distribution: IndexDistribution,
    seed: u64,
) -> Result<f64, CentaurError> {
    let config = model.config().clone();
    // Enough distinct requests that rows are not warm in cache every probe.
    let requests = generate_requests(&config, distribution, seed, 256);
    let mut runtime = CentaurRuntime::new(model.clone(), accel_config)?;
    let mut stage = ReplicaStage::new(&config, 1);
    // Warm-up: grow every staging buffer.
    stage.run_batch(&mut runtime, &[&requests[0]])?;
    let started = Instant::now();
    let mut served = 0usize;
    while started.elapsed() < Duration::from_millis(50) {
        for request in &requests {
            stage.run_batch(&mut runtime, &[request])?;
        }
        served += requests.len();
    }
    let service_s = started.elapsed().as_secs_f64() / served.max(1) as f64;
    Ok(1.0 / service_s.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use centaur_dlrm::PaperModel;
    use centaur_workload::{ArrivalProcess, TrafficShape};

    /// A plan of one fault, `at_s` seconds into the replay.
    fn fault_at(replica: usize, at_s: f64, kind: FaultKind) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            replica,
            at_s,
            kind,
        }])
    }

    fn small_model() -> DlrmModel {
        let config = PaperModel::Dlrm1.config().with_rows_per_table(512);
        DlrmModel::random(&config, 5).unwrap()
    }

    #[test]
    fn serve_replay_completes_every_query_and_matches_reference() {
        let model = small_model();
        let config = model.config().clone();
        let requests = generate_requests(&config, IndexDistribution::Uniform, 11, 64);
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 20_000.0 }, 64, 3);
        let pool = CentaurRuntime::replica_pool(model.clone(), CentaurConfig::harpv2(), 2).unwrap();
        let outcome = serve_replay(
            pool,
            &requests,
            &stream,
            BatchPolicy::Dynamic {
                max_batch: 8,
                max_wait: Duration::from_micros(200),
            },
        )
        .unwrap();

        assert_eq!(outcome.completions.len(), 64, "every query is served");
        assert!(outcome.batches >= 8, "64 queries cap at batch 8");
        assert!(outcome.mean_batch() >= 1.0);
        assert_eq!(outcome.shed(), 0, "permissive options shed nothing");
        assert!(outcome.rejections.is_empty());
        assert_eq!(
            outcome.goodput_qps(),
            outcome.achieved_qps(),
            "with no SLO, goodput equals throughput"
        );
        // Every id served exactly once.
        let mut ids: Vec<u64> = outcome.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<u64>>());
        // Latency is never negative and the summary digests it.
        assert!(outcome.completions.iter().all(|c| c.latency_s() >= 0.0));
        let summary = outcome.latency_summary().unwrap();
        assert!(summary.p99_s >= summary.p50_s);

        // Served probabilities match a fresh runtime run per request, and
        // the wire-level response echoes the request id.
        let mut reference = CentaurRuntime::harpv2(model).unwrap();
        let mut out = [0.0f32];
        for completion in &outcome.completions {
            let response = completion.response();
            assert_eq!(response.id, completion.id);
            assert_eq!(response.probability, completion.probability);
            let request = &requests[completion.id as usize];
            reference
                .infer_batch_rows_into(
                    &request.dense,
                    request.dense.len(),
                    std::slice::from_ref(&request.sparse),
                    &mut out,
                )
                .unwrap();
            assert_eq!(completion.probability, out[0], "id {}", completion.id);
        }
    }

    #[test]
    fn serve_replay_rejects_mismatched_inputs() {
        let model = small_model();
        let config = model.config().clone();
        let requests = generate_requests(&config, IndexDistribution::Uniform, 1, 4);
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 100.0 }, 5, 1);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
        assert!(serve_replay(pool, &requests, &stream, BatchPolicy::Fifo).is_err());
        assert!(serve_replay(Vec::new(), &requests, &stream, BatchPolicy::Fifo).is_err());
    }

    #[test]
    fn admission_gate_sheds_are_counted_and_surfaced() {
        let model = small_model();
        let config = model.config().clone();
        let requests = generate_requests(&config, IndexDistribution::Uniform, 7, 256);
        // A burst far beyond one replica's service rate with a depth-1
        // queue: most arrivals shed at the door, every shed is surfaced.
        let stream = QueryStream::generate(
            ArrivalProcess::Poisson {
                rate_qps: 500_000.0,
            },
            256,
            2,
        );
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
        let options = ServeOptions {
            slo: Some(Duration::from_millis(250)),
            admission_depth: Some(1),
            shed_expired: true,
            ..ServeOptions::default()
        };
        let outcome =
            serve_replay_with(pool, &requests, &stream, BatchPolicy::Fifo, options).unwrap();
        assert_eq!(
            outcome.completions.len() + outcome.shed(),
            256,
            "every request either completes or is counted shed"
        );
        assert!(outcome.shed_admission > 0, "depth-1 gate must shed a burst");
        assert_eq!(outcome.rejections.len(), outcome.shed());
        assert!(outcome
            .rejections
            .iter()
            .any(|r| r.reason == RejectReason::QueueFull));
        // Rejected ids refer to real requests and never also completed.
        let completed: std::collections::HashSet<u64> =
            outcome.completions.iter().map(|c| c.id).collect();
        for rejection in &outcome.rejections {
            assert!((rejection.id as usize) < requests.len());
            assert!(!completed.contains(&rejection.id));
        }
    }

    #[test]
    fn worker_errors_abort_the_run_promptly() {
        let model = small_model();
        let config = model.config().clone();
        let mut requests = generate_requests(&config, IndexDistribution::Uniform, 3, 400);
        // Corrupt an early request so the datapath fails on it; the rest of
        // the 20 s arrival schedule must NOT play out after the failure.
        requests[0].sparse[0][0] = u32::MAX;
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 20.0 }, 400, 2);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
        let started = Instant::now();
        let result = serve_replay(pool, &requests, &stream, BatchPolicy::Fifo);
        let elapsed = started.elapsed();
        assert!(result.is_err(), "corrupted request must fail the run");
        assert!(
            elapsed < Duration::from_secs(5),
            "failure surfaced in {elapsed:?}, not after the 20 s schedule"
        );
    }

    /// Fail-stop, a replica's panic aborts the replay promptly (the
    /// generator stops, siblings unwind) and resurfaces with its original
    /// payload.
    #[test]
    fn guarded_worker_preserves_the_panic_payload_and_aborts() {
        let model = small_model();
        let requests = generate_requests(model.config(), IndexDistribution::Uniform, 3, 400);
        // A 20 s schedule the abort must cut short.
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 20.0 }, 400, 2);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
        let plan = fault_at(0, 0.040, FaultKind::Crash);
        let started = Instant::now();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_replay_faulted(
                pool,
                &requests,
                &stream,
                BatchPolicy::Fifo,
                ServeOptions::default(),
                &plan,
            )
        }))
        .expect_err("panic must be re-raised, not swallowed");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload survives for resume_unwind");
        assert!(
            message.contains("injected fault") && message.contains("replica 0"),
            "{message}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the abort stopped the generator"
        );
    }

    /// Fail-stop, an injected transient error ends the run as an error,
    /// promptly.
    #[test]
    fn guarded_worker_flags_errors_too() {
        let model = small_model();
        let requests = generate_requests(model.config(), IndexDistribution::Uniform, 3, 400);
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 20.0 }, 400, 2);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
        let plan = fault_at(0, 0.040, FaultKind::Transient);
        let started = Instant::now();
        let result = serve_replay_faulted(
            pool,
            &requests,
            &stream,
            BatchPolicy::Fifo,
            ServeOptions::default(),
            &plan,
        );
        assert!(
            matches!(result, Err(CentaurError::NotInitialised(_))),
            "{result:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// A hedge config needs a supervised pool to hedge within; without one
    /// the run is refused up front, before any arrival is replayed.
    #[test]
    fn hedging_without_supervision_is_a_config_error() {
        let model = small_model();
        let requests = generate_requests(model.config(), IndexDistribution::Uniform, 3, 400);
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 20.0 }, 400, 2);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
        let options = ServeOptions::default().hedged(HedgeConfig::new(Duration::from_millis(1)));
        let started = Instant::now();
        let result = serve_replay_with(pool, &requests, &stream, BatchPolicy::Fifo, options);
        assert!(
            matches!(result, Err(CentaurError::InvalidConfig(_))),
            "{result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "refused up front"
        );
    }

    #[test]
    fn overload_protection_accounts_a_bursty_overload() {
        let model = small_model();
        let requests = generate_requests(model.config(), IndexDistribution::Uniform, 13, 192);
        let stream = QueryStream::generate(TrafficShape::Bursty.process(400_000.0), 192, 13);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
        let outcome = serve_replay_with(
            pool,
            &requests,
            &stream,
            BatchPolicy::deadline_wave(Duration::from_micros(500)),
            ServeOptions::overload_protected(Duration::from_millis(2), 64),
        )
        .unwrap();
        assert_eq!(outcome.slo_s, 0.002);
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.completions.len() + outcome.shed(),
            192,
            "full accounting"
        );
        assert_eq!(outcome.rejections.len(), outcome.shed());
        assert_eq!(
            outcome.reject_count(RejectReason::QueueFull),
            outcome
                .rejections
                .iter()
                .filter(|r| r.reason == RejectReason::QueueFull)
                .count(),
            "admission sheds are the queue-full refusals"
        );
        assert_eq!(
            outcome.reject_count(RejectReason::DeadlineExpired),
            outcome
                .rejections
                .iter()
                .filter(|r| r.reason == RejectReason::DeadlineExpired)
                .count(),
            "expiry sheds are the deadline refusals"
        );
        assert!(
            outcome.goodput_qps() <= outcome.achieved_qps() + 1e-9,
            "goodput can never exceed throughput"
        );
    }

    #[test]
    fn supervised_fault_free_run_matches_the_unsupervised_contract() {
        let model = small_model();
        let config = model.config().clone();
        let requests = generate_requests(&config, IndexDistribution::Uniform, 17, 96);
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 30_000.0 }, 96, 5);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
        let options = ServeOptions::default().supervised(Supervision::default());
        let outcome = serve_replay_with(
            pool,
            &requests,
            &stream,
            BatchPolicy::dynamic_wave(),
            options,
        )
        .unwrap();
        assert_eq!(outcome.completions.len(), 96, "every query served");
        assert_eq!(outcome.accounted(), 96);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.restarts, 0);
        assert_eq!(outcome.replicas_lost, 0);
        assert_eq!(outcome.availability(), 1.0);
        assert_eq!(outcome.reject_count(RejectReason::Failed), 0);
        let mut ids: Vec<u64> = outcome.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..96).collect::<Vec<u64>>(), "each served once");
    }

    #[test]
    fn supervised_run_retries_poison_requests_and_fails_them_counted() {
        let model = small_model();
        let config = model.config().clone();
        let mut requests = generate_requests(&config, IndexDistribution::Uniform, 23, 64);
        // One poison request: its datapath error must burn only its own
        // retry budget — co-riders complete, the run survives.
        requests[10].sparse[0][0] = u32::MAX;
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 30_000.0 }, 64, 7);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
        let options = ServeOptions::default().supervised(Supervision::new(1, 2));
        let outcome = serve_replay_with(
            pool,
            &requests,
            &stream,
            BatchPolicy::dynamic_wave(),
            options,
        )
        .unwrap();
        assert_eq!(outcome.completions.len(), 63, "only the poison fails");
        assert_eq!(outcome.failed, 1);
        assert_eq!(outcome.accounted(), 64, "accounting invariant holds");
        assert!(
            outcome.retries >= 1,
            "the poison was retried before failing"
        );
        assert_eq!(outcome.restarts, 0, "datapath errors are not crashes");
        assert!(outcome.availability() < 1.0 && outcome.availability() > 0.98);
        let rejection = outcome
            .rejections
            .iter()
            .find(|r| r.reason == RejectReason::Failed)
            .expect("the failed request is surfaced");
        assert_eq!(rejection.id, requests[10].id);
        assert_eq!(rejection.retries, 1, "exhausted budget rides the refusal");
    }

    #[test]
    fn derived_hedge_timeouts_follow_the_slo_and_service_estimate() {
        assert_eq!(
            HedgeConfig::derived(None, BatchPolicy::Fifo).timeout,
            HedgeConfig::FALLBACK_TIMEOUT,
            "no anchors: the fallback"
        );
        assert_eq!(
            HedgeConfig::derived(Some(Duration::from_millis(10)), BatchPolicy::Fifo).timeout,
            Duration::from_millis(5),
            "SLO only: half the SLO"
        );
        let deadline = BatchPolicy::deadline_wave(Duration::from_micros(400));
        assert_eq!(
            HedgeConfig::derived(Some(Duration::from_millis(10)), deadline).timeout,
            Duration::from_micros(800),
            "estimate and SLO: twice the estimate, under the SLO cap"
        );
        assert_eq!(
            HedgeConfig::derived(Some(Duration::from_micros(100)), deadline).timeout,
            HedgeConfig::MIN_TIMEOUT,
            "the floor holds against a too-tight SLO"
        );
        let config = HedgeConfig::new(Duration::from_millis(2))
            .with_quarantine(5, Duration::from_millis(40));
        assert_eq!(config.quarantine_strikes, 5);
        assert_eq!(config.quarantine_backoff, Duration::from_millis(40));
    }

    #[test]
    fn hedged_run_rescues_a_stalled_batch_and_suppresses_the_duplicate() {
        let model = small_model();
        let config = model.config().clone();
        let requests = generate_requests(&config, IndexDistribution::Uniform, 29, 256);
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 4_000.0 }, 256, 3);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
        // Replica 0 stalls 200 ms mid-replay with a batch in flight; the
        // 2 ms watchdog hedges the riders to replica 1.
        let plan = fault_at(0, 0.030, FaultKind::Stall { millis: 200 });
        let options = ServeOptions::default()
            .supervised(Supervision::default())
            .hedged(HedgeConfig::new(Duration::from_millis(2)));
        let outcome = serve_replay_faulted(
            pool,
            &requests,
            &stream,
            BatchPolicy::dynamic_wave(),
            options,
            &plan,
        )
        .unwrap();
        assert_eq!(
            outcome.accounted(),
            256,
            "hedging must not double-count or lose a request"
        );
        assert_eq!(
            outcome.completions.len(),
            256,
            "nothing shed, nothing failed"
        );
        assert!(outcome.hedges >= 1, "the stalled batch was hedged");
        assert!(
            outcome.hedge_wins >= 1,
            "a healthy sibling answered first for at least one rider"
        );
        assert_eq!(
            outcome.duplicates_suppressed, outcome.hedges,
            "every hedge race resolves to exactly one kept result and one \
             suppressed copy"
        );
        let mut ids: Vec<u64> = outcome.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..256).collect::<Vec<u64>>(), "each served once");
        assert_eq!(outcome.restarts, 0, "a stall is not a crash");
    }

    #[test]
    fn unsupervised_stall_aborts_with_a_diagnostic_naming_the_replica() {
        let model = small_model();
        let config = model.config().clone();
        let requests = generate_requests(&config, IndexDistribution::Uniform, 31, 400);
        // A 20 s schedule; the stall must abort the replay long before it
        // plays out.
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 20.0 }, 400, 4);
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
        let plan = fault_at(1, 0.020, FaultKind::Stall { millis: 300 });
        let options = ServeOptions::with_slo(Duration::from_millis(10));
        let started = Instant::now();
        let result =
            serve_replay_faulted(pool, &requests, &stream, BatchPolicy::Fifo, options, &plan);
        let elapsed = started.elapsed();
        match result {
            Err(CentaurError::ReplicaStalled { replica, held_ms }) => {
                assert_eq!(replica, 1, "the diagnostic names the straggler");
                assert!(held_ms >= 20, "held past twice the 10 ms SLO: {held_ms} ms");
            }
            other => panic!("expected a stall abort, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "stall abort surfaced in {elapsed:?}, not after the 20 s schedule"
        );
    }

    #[test]
    fn calibration_reports_a_plausible_capacity() {
        let model = small_model();
        let qps = calibrate_fifo_capacity_qps(
            &model,
            CentaurConfig::harpv2(),
            IndexDistribution::Uniform,
            2,
        )
        .unwrap();
        // A small DLRM(1) on any host serves between 1k and 10M qps.
        assert!(qps > 1_000.0 && qps < 10_000_000.0, "capacity {qps}");
    }
}
