//! The serving harness: an open-loop load generator replays a seeded
//! [`QueryStream`] against a pool of replica workers behind the shared
//! [`ArrivalQueue`], and the recorded per-request completions are digested
//! into tail-latency and goodput-under-SLO reports.

use crate::fault::{FaultGuard, FaultPlan, FaultSpec};
use crate::policy::BatchPolicy;
use crate::queue::{AdmissionConfig, ArrivalQueue, DequeueOrder, QueuedRequest};
use crate::server::{BatchServer, SoloServer};
use crate::stage::ReplicaStage;
use crate::supervisor::{
    supervise_replica, watchdog_monitor, HealthBoard, InFlightSlot, Supervision, SupervisorShared,
};
use centaur::{CentaurConfig, CentaurError, CentaurRuntime};
use centaur_dlrm::config::ModelConfig;
use centaur_dlrm::{DlrmModel, InferenceRequest, InferenceResponse, RejectReason, RejectedRequest};
use centaur_workload::{
    IndexDistribution, LatencySummary, QueryStream, RequestGenerator, TrafficShape,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// defaults (see [`crate::env::DEFAULT_SERVE_QUARANTINE_STRIKES`]).
    pub fn new(timeout: Duration) -> Self {
        HedgeConfig {
            timeout,
            quarantine_strikes: crate::env::DEFAULT_SERVE_QUARANTINE_STRIKES,
            quarantine_backoff: Duration::from_secs_f64(
                crate::env::DEFAULT_SERVE_QUARANTINE_BACKOFF_MS / 1e3,
            ),
        }
    }

    /// The same config with explicit quarantine tuning.
    pub fn with_quarantine(mut self, strikes: u32, backoff: Duration) -> Self {
        self.quarantine_strikes = strikes;
        self.quarantine_backoff = backoff;
        self
    }

    /// The deployment-default config: the timeout comes from
    /// `CENTAUR_SERVE_HEDGE_MS` when set, else is derived from the tenant
    /// SLO and the policy's calibrated service estimate — twice the
    /// estimate (a healthy batch at double its expected service is a
    /// straggler) capped at half the SLO (hedging later leaves the sibling
    /// no budget to answer in), floored at [`Self::MIN_TIMEOUT`], falling
    /// back to [`Self::FALLBACK_TIMEOUT`] when neither anchor exists.
    /// Quarantine tuning comes from the `CENTAUR_SERVE_QUARANTINE_*` knobs.
    pub fn derived(slo: Option<Duration>, policy: BatchPolicy) -> Self {
        let timeout = match crate::env::serve_hedge_ms() {
            Some(ms) => Duration::from_secs_f64(ms / 1e3),
            None => {
                let from_estimate = policy.dispatch_slack().map(|estimate| estimate * 2);
                let from_slo = slo.map(|slo| slo / 2);
                match (from_estimate, from_slo) {
                    (Some(estimate), Some(slo)) => estimate.min(slo),
                    (Some(estimate), None) => estimate,
                    (None, Some(slo)) => slo,
                    (None, None) => Self::FALLBACK_TIMEOUT,
                }
                .max(Self::MIN_TIMEOUT)
            }
        };
        HedgeConfig {
            timeout,
            quarantine_strikes: crate::env::serve_quarantine_strikes(),
            quarantine_backoff: Duration::from_secs_f64(
                crate::env::serve_quarantine_backoff_ms() / 1e3,
            ),
        }
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
    /// Dequeue order for the backlog: FIFO (default) or
    /// earliest-deadline-first.
    pub order: DequeueOrder,
    /// Tail tolerance under supervision: `Some` arms the stall watchdog —
    /// overdue batches are hedged to a healthy sibling (first result wins,
    /// the straggler's duplicate is suppressed) and persistently slow
    /// replicas are quarantined with exponential-backoff re-admission.
    /// `None` (the default) leaves stalls visible in the tail, the PR 7
    /// behaviour. Ignored on the unsupervised path, which gets a fail-stop
    /// stall abort instead (see [`serve_replay_with`]).
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

    /// The same options under a different dequeue order.
    pub fn with_order(mut self, order: DequeueOrder) -> Self {
        self.order = order;
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
            order: self.order,
        }
    }
}

/// What one replica worker hands back: its completions and batch count, or
/// the datapath error that stopped it — wrapped in the panic-guard's result.
pub(crate) type WorkerResult = std::thread::Result<Result<(Vec<Completion>, usize), CentaurError>>;

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
/// full arrival schedule has played out. Set
/// [`ServeOptions::supervision`] to trade that fail-stop contract for
/// crash-tolerant supervision (see [`serve_replay_faulted`]).
///
/// # Errors
///
/// Returns an error when `requests` and `stream` disagree in length, the
/// replica pool is empty, a request's shape does not match the replicas'
/// model, or the accelerator datapath fails mid-run.
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

    let queue = ArrivalQueue::with_config(options.admission());
    // Worst case every request is shed: pre-grow the log so the shedding
    // path stays allocation-free in steady state.
    queue.reserve_shed(requests.len());
    let slo_s = options.slo_s();
    let abort = AtomicBool::new(false);
    let mut outcome = match options.supervision {
        None => serve_unsupervised(
            replicas, requests, stream, policy, &queue, slo_s, &abort, plan,
        )?,
        Some(supervision) => serve_supervised(
            replicas,
            requests,
            stream,
            policy,
            &queue,
            options,
            &abort,
            plan,
            supervision,
        ),
    };
    outcome.failed = queue.failed();
    outcome.retries = queue.retries();
    outcome.shed_admission = queue.shed_admission();
    outcome.shed_expired = queue.shed_expired();
    outcome.hedges = queue.hedges();
    outcome.hedge_wins = queue.hedge_wins();
    outcome.duplicates_suppressed = queue.duplicates_suppressed();
    outcome.rejections = queue
        .take_shed()
        .into_iter()
        .map(|(shed, reason)| RejectedRequest {
            id: requests[shed.index].id,
            reason,
            retries: shed.retries,
        })
        .collect();
    Ok(outcome)
}

/// The open-loop load generator: release each query at its scheduled offset
/// (bursts of overdue queries release back to back). Sleeps are sliced so a
/// failed worker's abort is observed within milliseconds, not at the end of
/// the schedule.
///
/// Several generators can feed one queue (a multi-tenant shared pool):
/// `index_offset` shifts this stream's indices into the merged request set,
/// and the queue closes only when the *last* generator finishes —
/// `generators_left` counts down across them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_arrivals(
    queue: &ArrivalQueue,
    stream: &QueryStream,
    slo_s: f64,
    abort: &AtomicBool,
    start: Instant,
    index_offset: usize,
    generators_left: &AtomicUsize,
) {
    'replay: for (index, arrival_s) in stream.replay() {
        let target = start + Duration::from_secs_f64(arrival_s);
        loop {
            if abort.load(Ordering::Relaxed) {
                break 'replay;
            }
            let now = Instant::now();
            if now >= target {
                break;
            }
            std::thread::sleep((target - now).min(Duration::from_millis(5)));
        }
        let queued = QueuedRequest {
            index: index + index_offset,
            arrival_s,
            deadline_s: arrival_s + slo_s,
            retries: 0,
            hedged: false,
        };
        if !queue.push(queued) && queue.is_closed() {
            // A worker failed and closed the queue mid-run.
            break 'replay;
        }
    }
    if generators_left.fetch_sub(1, Ordering::AcqRel) == 1 {
        queue.close();
    }
}

/// The fail-stop serving path (pre-supervision contract): one guarded
/// worker per replica; any panic or datapath error aborts the run. With a
/// finite SLO, a stall monitor watches every worker's in-flight slot and
/// aborts the replay once any batch has been held past twice the SLO — the
/// fail-stop answer to a stalled replica (a diagnostic naming the replica,
/// not a hang until generator close).
#[allow(clippy::too_many_arguments)]
fn serve_unsupervised(
    mut replicas: Vec<CentaurRuntime>,
    requests: &[InferenceRequest],
    stream: &QueryStream,
    policy: BatchPolicy,
    queue: &ArrivalQueue,
    slo_s: f64,
    abort: &AtomicBool,
    plan: &FaultPlan,
) -> Result<ServeOutcome, CentaurError> {
    let mut worker_results: Vec<WorkerResult> = Vec::new();
    let pool_size = replicas.len();
    let slots: Vec<InFlightSlot> = (0..pool_size)
        .map(|_| InFlightSlot::new(policy.max_batch()))
        .collect();
    let stalled: Mutex<Option<(usize, u64)>> = Mutex::new(None);
    // Align the deadline clock with the replay start (setup between queue
    // construction and here must not eat into the schedule).
    queue.restart_clock();
    std::thread::scope(|scope| {
        let start = queue.start();
        let slots = &slots;
        let stalled = &stalled;
        let handles: Vec<_> = replicas
            .drain(..)
            .enumerate()
            .map(|(index, runtime)| {
                let server = SoloServer::new(runtime, requests, policy.max_batch());
                let guard = plan.guard_for(index);
                scope.spawn(move || {
                    guard_worker(queue, abort, move || {
                        worker_loop(queue, server, policy, start, guard, &slots[index], index)
                    })
                })
            })
            .collect();
        if slo_s.is_finite() {
            let deadline_s = (slo_s * 2.0).max(STALL_ABORT_FLOOR_S);
            scope.spawn(move || {
                stall_abort_monitor(queue, slots, deadline_s, start, abort, stalled);
            });
        }

        let generators = AtomicUsize::new(1);
        replay_arrivals(queue, stream, slo_s, abort, start, 0, &generators);

        // The guard already catches panics inside the worker body, so the
        // thread result and the guard result collapse into one layer.
        worker_results = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(Err))
            .collect();
    });
    let mut outcome = ServeOutcome {
        completions: Vec::with_capacity(requests.len()),
        batches: 0,
        slo_s,
        shed_admission: 0,
        shed_expired: 0,
        failed: 0,
        retries: 0,
        restarts: 0,
        replicas_lost: 0,
        hedges: 0,
        hedge_wins: 0,
        duplicates_suppressed: 0,
        quarantines: 0,
        readmissions: 0,
        rejections: Vec::new(),
    };
    let mut failure: Option<CentaurError> = None;
    for result in worker_results {
        match result {
            // A panicking worker takes precedence: re-raise its payload.
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(Ok((completions, batches))) => {
                outcome.completions.extend(completions);
                outcome.batches += batches;
            }
            Ok(Err(error)) => failure = failure.or(Some(error)),
        }
    }
    // A stall abort outranks the secondary errors it caused downstream
    // (workers unwound by the abort-close), but never a real panic above.
    if let Some((replica, held_ms)) = *stalled.lock().expect("stall diagnostic poisoned") {
        return Err(CentaurError::ReplicaStalled { replica, held_ms });
    }
    if let Some(error) = failure {
        return Err(error);
    }
    Ok(outcome)
}

/// Floor for the fail-stop stall-abort deadline. A saturated host can
/// deschedule a worker for tens of milliseconds mid-batch (observed ~40 ms
/// in the overload sweep at 2× capacity), which is indistinguishable from a
/// short stall by hold time alone — so a tight-SLO replay only aborts when
/// the hold dwarfs any plausible preemption, not at a bare `2 × SLO`.
const STALL_ABORT_FLOOR_S: f64 = 0.25;

/// The fail-stop stall watchdog: polls every worker's in-flight slot and,
/// when any published batch has been held past `deadline_s` (twice the
/// SLO, floored at [`STALL_ABORT_FLOOR_S`]), records the straggler's
/// identity and abort-closes the queue so the generator and the healthy
/// siblings stop promptly. The stalled worker itself is left to wake and
/// observe the abort — the replay is over either way.
fn stall_abort_monitor(
    queue: &ArrivalQueue,
    slots: &[InFlightSlot],
    deadline_s: f64,
    start: Instant,
    abort: &AtomicBool,
    stalled: &Mutex<Option<(usize, u64)>>,
) {
    let tick = Duration::from_secs_f64((deadline_s / 4.0).clamp(100e-6, 50e-3));
    while !queue.is_aborted() && !queue.is_finished() {
        std::thread::sleep(tick);
        let now_s = start.elapsed().as_secs_f64();
        for (replica, slot) in slots.iter().enumerate() {
            let Some((dispatched_s, _)) = slot.probe() else {
                continue;
            };
            let held_s = now_s - dispatched_s;
            if held_s <= deadline_s {
                continue;
            }
            *stalled.lock().expect("stall diagnostic poisoned") =
                Some((replica, (held_s * 1e3) as u64));
            abort.store(true, Ordering::Relaxed);
            queue.close_abort();
            return;
        }
    }
}

/// The supervised serving path: one supervisor per replica recovers crashed
/// workers' in-flight batches, restarts replicas against the pool-wide
/// budget, and lets survivors absorb the load. With
/// [`ServeOptions::hedge`] set, a watchdog monitor additionally hedges
/// overdue batches to healthy siblings and quarantines persistent
/// stragglers. Panics only on the unrecoverable path, re-raising the first
/// crash's preserved payload.
#[allow(clippy::too_many_arguments)]
fn serve_supervised<'a>(
    mut replicas: Vec<CentaurRuntime>,
    requests: &'a [InferenceRequest],
    stream: &QueryStream,
    policy: BatchPolicy,
    queue: &ArrivalQueue,
    options: ServeOptions,
    abort: &AtomicBool,
    plan: &FaultPlan,
    supervision: Supervision,
) -> ServeOutcome {
    let slo_s = options.slo_s();
    let pool_size = replicas.len();
    let shared = SupervisorShared::new(pool_size, requests.len());
    let slots: Vec<InFlightSlot> = (0..pool_size)
        .map(|_| InFlightSlot::new(policy.max_batch()))
        .collect();
    // Without hedging the board is disabled — it never strikes, never
    // quarantines — so the hedge-free paths stay byte-for-byte the PR 7
    // behaviour.
    let health = match options.hedge {
        Some(hedge) => HealthBoard::new(
            pool_size,
            hedge.timeout.as_secs_f64(),
            hedge.quarantine_strikes,
            hedge.quarantine_backoff,
        ),
        None => HealthBoard::disabled(pool_size),
    };
    // Restarts boot from a fresh shard clone, never from state a panic
    // unwound through.
    let template = Mutex::new(replicas[0].clone());
    let max_batch = policy.max_batch();
    let respawn = {
        let template = &template;
        move || {
            SoloServer::new(
                template.lock().expect("template poisoned").clone(),
                requests,
                max_batch,
            )
        }
    };
    // The template clone above copies the MLPs and scratch only (the
    // embedding tables are shared handles), but it and the set-up before it
    // ran *after* the queue captured its construction-time clock; restart
    // the deadline clock here so the replay schedule is measured from when
    // the replay actually begins.
    queue.restart_clock();
    std::thread::scope(|scope| {
        let start = queue.start();
        let shared = &shared;
        let slots = &slots;
        let health = &health;
        let respawn: &(dyn Fn() -> SoloServer<'a> + Sync) = &respawn;
        for (index, runtime) in replicas.drain(..).enumerate() {
            let guard = plan.guard_for(index);
            let server = SoloServer::new(runtime, requests, max_batch);
            scope.spawn(move || {
                supervise_replica(
                    queue,
                    server,
                    respawn,
                    policy,
                    start,
                    supervision,
                    guard,
                    &slots[index],
                    health,
                    shared,
                    abort,
                    index,
                );
            });
        }
        if let Some(hedge) = options.hedge {
            scope.spawn(move || {
                watchdog_monitor(
                    queue,
                    slots,
                    health,
                    true,
                    hedge.timeout.as_secs_f64(),
                    max_batch,
                    start,
                );
            });
        }
        let generators = AtomicUsize::new(1);
        replay_arrivals(queue, stream, slo_s, abort, start, 0, &generators);
    });
    if queue.is_aborted() {
        // Unrecoverable: every replica died. Re-raise the first crash.
        let payload = shared
            .payload
            .lock()
            .expect("payload slot poisoned")
            .take()
            .unwrap_or_else(|| Box::new("supervised run aborted without a payload"));
        std::panic::resume_unwind(payload);
    }
    let live = shared.live.load(Ordering::Acquire);
    let completions =
        std::mem::take(&mut *shared.completions.lock().expect("completions poisoned"));
    ServeOutcome {
        completions,
        batches: shared.batches.load(Ordering::Relaxed),
        slo_s,
        shed_admission: 0,
        shed_expired: 0,
        failed: 0,
        retries: 0,
        restarts: shared.restarts.load(Ordering::Relaxed),
        replicas_lost: pool_size - live,
        hedges: 0,
        hedge_wins: 0,
        duplicates_suppressed: 0,
        quarantines: health.quarantines(),
        readmissions: health.readmissions(),
        rejections: Vec::new(),
    }
}

/// Runs one worker body under a panic/failure guard: when the body panics
/// or returns an error, the shared abort flag flips and the queue
/// abort-closes so the generator and sibling workers stop promptly instead
/// of playing out the rest of the schedule (a plain close would leave
/// siblings waiting on the dead worker's in-flight batch forever). The
/// panic payload (or error) is returned unaltered for the harness to
/// surface.
pub(crate) fn guard_worker<F>(queue: &ArrivalQueue, abort: &AtomicBool, body: F) -> WorkerResult
where
    F: FnOnce() -> Result<(Vec<Completion>, usize), CentaurError>,
{
    let result = catch_unwind(AssertUnwindSafe(body));
    if !matches!(result, Ok(Ok(_))) {
        abort.store(true, Ordering::Relaxed);
        queue.close_abort();
    }
    result
}

/// One replica's serving loop: pop a coalesced batch, publish it in-flight
/// (dispatch-stamped so the stall monitor can see it), serve it through the
/// replica's [`BatchServer`] backend, record completions. Runs until the
/// queue is closed and drained. The fault guard injects this replica's
/// scheduled faults with fail-stop consequences: a crash event's panic and
/// a transient event's error both abort the run (the unprotected baseline),
/// and a degraded event persistently stretches every later batch's service.
pub(crate) fn worker_loop<S: BatchServer>(
    queue: &ArrivalQueue,
    mut server: S,
    policy: BatchPolicy,
    start: Instant,
    mut guard: FaultGuard,
    inflight: &InFlightSlot,
    replica: usize,
) -> Result<(Vec<Completion>, usize), CentaurError> {
    let mut completions = Vec::new();
    let mut batches = 0usize;
    // Reused across iterations: the queue's pop buffer and the probability
    // scratch — the steady-state loop allocates nothing once these reach
    // their high-water marks.
    let mut batch: Vec<QueuedRequest> = Vec::with_capacity(policy.max_batch());
    let mut probabilities: Vec<f32> = Vec::with_capacity(policy.max_batch());
    while queue.pop_batch(policy, &mut batch) {
        let dispatched_s = start.elapsed().as_secs_f64();
        inflight.publish(&batch, dispatched_s);
        guard.intercept(replica, dispatched_s)?;
        server.serve_batch(&batch, &mut probabilities)?;
        let served_s = start.elapsed().as_secs_f64();
        guard.apply_degradation(Duration::from_secs_f64(served_s - dispatched_s));
        inflight.clear();
        let completed_s = start.elapsed().as_secs_f64();
        batches += 1;
        for (queued, &probability) in batch.iter().zip(&probabilities) {
            completions.push(Completion {
                id: server.request_id(queued.index),
                arrival_s: queued.arrival_s,
                completed_s,
                probability,
            });
        }
        queue.complete(batch.len());
    }
    Ok((completions, batches))
}

/// One cell of a serving sweep, digested for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Which tenant this row accounts for: `-` for single-model cells, the
    /// tenant's name for multi-tenant mix rows.
    pub tenant: String,
    /// Pool topology the row was measured under: `single` for single-model
    /// cells, `isolated` / `shared` for multi-tenant mix rows.
    pub pool: String,
    /// Offered load in queries per second.
    pub offered_qps: f64,
    /// Traffic-shape label (`poisson`, `bursty`, `onoff`).
    pub traffic: String,
    /// Batching policy label (`fifo`, `dynamic64w1ms`, …).
    pub policy: String,
    /// Replica shards serving the queue.
    pub replicas: usize,
    /// The SLO this cell measured goodput against, in milliseconds
    /// (`None` = no SLO; goodput equals throughput).
    pub slo_ms: Option<f64>,
    /// Requests completed (in time or not).
    pub completed: usize,
    /// Accelerator batches dispatched.
    pub batches: usize,
    /// Mean coalesced batch size.
    pub mean_batch: f64,
    /// Sustained completions per second.
    pub achieved_qps: f64,
    /// Completions that met the SLO, per second of span.
    pub goodput_qps: f64,
    /// Requests shed (admission + expiry).
    pub shed: usize,
    /// Requests shed at the admission gate.
    pub shed_admission: usize,
    /// Requests shed at dequeue (deadline already passed).
    pub shed_expired: usize,
    /// Completions that arrived after their deadline.
    pub deadline_misses: usize,
    /// Fault-plan label the cell ran under (`none`, `c1`, `c1s1t2`, …).
    pub faults: String,
    /// Requests permanently failed (retry budget exhausted).
    pub failed: usize,
    /// Availability: completed / (completed + failed).
    pub availability: f64,
    /// Replica restarts the supervisor performed.
    pub restarts: usize,
    /// Re-serve attempts after crashes/datapath errors.
    pub retries: usize,
    /// Replicas dead at the end of the run (beyond the restart budget).
    pub replicas_lost: usize,
    /// Overdue batches' riders hedged to a sibling replica.
    pub hedges: usize,
    /// Hedged requests whose clone answered first.
    pub hedge_wins: usize,
    /// Duplicate results discarded by first-result-wins suppression.
    pub duplicates_suppressed: usize,
    /// Replica quarantine entries the health board performed.
    pub quarantines: usize,
    /// Quarantined replicas re-admitted after their backoff probe.
    pub readmissions: usize,
    /// End-to-end latency digest.
    pub latency: LatencySummary,
}

/// One cell's specification for [`run_serve_cell`]: the offered load, the
/// traffic shape carrying it, how many queries to replay and how to serve
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCell {
    /// Offered load in queries per second (long-run mean of the shape).
    pub offered_qps: f64,
    /// Traffic shape modulating the arrivals.
    pub shape: TrafficShape,
    /// Number of queries replayed.
    pub queries: usize,
    /// Batching policy serving the queue.
    pub policy: BatchPolicy,
    /// Replica shards serving the queue.
    pub replicas: usize,
    /// SLO/overload-protection options for the run.
    pub options: ServeOptions,
    /// Seeded fault schedule injected into the run (none by default). The
    /// concrete [`FaultPlan`] is materialized by [`run_serve_cell`] once
    /// the replay window is known, unless `CENTAUR_SERVE_FAULT_PLAN`
    /// overrides it.
    pub faults: FaultSpec,
    /// Seed for the request set and the arrival schedule.
    pub seed: u64,
}

impl ServeCell {
    /// The pre-overload-sweep cell: stationary Poisson arrivals, no SLO, no
    /// shedding.
    pub fn poisson(
        offered_qps: f64,
        queries: usize,
        policy: BatchPolicy,
        replicas: usize,
        seed: u64,
    ) -> Self {
        ServeCell {
            offered_qps,
            shape: TrafficShape::Poisson,
            queries,
            policy,
            replicas,
            options: ServeOptions::default(),
            faults: FaultSpec::none(),
            seed,
        }
    }

    /// Same cell under a different traffic shape.
    pub fn with_shape(mut self, shape: TrafficShape) -> Self {
        self.shape = shape;
        self
    }

    /// Same cell under different SLO/overload-protection options.
    pub fn with_options(mut self, options: ServeOptions) -> Self {
        self.options = options;
        self
    }

    /// Same cell under a seeded fault schedule.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

/// Runs one serving cell end to end: pre-generates the request set and the
/// shaped arrival schedule, boots the cell's replica shards of `model`
/// (one registration, cloned), replays the stream and digests the result.
///
/// # Errors
///
/// Propagates registration and serving errors; fails when zero queries are
/// requested.
pub fn run_serve_cell(
    model: &DlrmModel,
    accel_config: CentaurConfig,
    distribution: IndexDistribution,
    cell: ServeCell,
) -> Result<ServeReport, CentaurError> {
    let config = model.config().clone();
    let requests = generate_requests(&config, distribution, cell.seed, cell.queries);
    let stream = QueryStream::generate(
        cell.shape.process(cell.offered_qps),
        cell.queries,
        cell.seed ^ 0xA11,
    );
    let pool = CentaurRuntime::replica_pool(model.clone(), accel_config, cell.replicas)?;
    // A faulted cell materializes its seeded schedule over the expected
    // replay window (mean arrival span at the offered load) unless the
    // CENTAUR_SERVE_FAULT_PLAN knob pins an explicit plan.
    let plan = if cell.faults.is_none() {
        FaultPlan::none()
    } else {
        let window_s = cell.queries as f64 / cell.offered_qps.max(1e-9);
        crate::env::serve_fault_plan()
            .unwrap_or_else(|| FaultPlan::seeded(cell.faults, cell.replicas, window_s))
    };
    let outcome = serve_replay_faulted(pool, &requests, &stream, cell.policy, cell.options, &plan)?;
    // An overload cell may legitimately shed *everything* (deep overload,
    // every deadline blown before the workers catch up): that is a valid
    // measurement — zero completions, zero goodput, an all-zero latency
    // digest — not an error.
    let latency = outcome.latency_summary().unwrap_or_default();
    Ok(ServeReport {
        tenant: "-".to_string(),
        pool: "single".to_string(),
        offered_qps: cell.offered_qps,
        traffic: cell.shape.label().to_string(),
        policy: cell.policy.label(),
        replicas: cell.replicas,
        slo_ms: cell.options.slo.map(|slo| slo.as_secs_f64() * 1e3),
        completed: outcome.completions.len(),
        batches: outcome.batches,
        mean_batch: outcome.mean_batch(),
        achieved_qps: outcome.achieved_qps(),
        goodput_qps: outcome.goodput_qps(),
        shed: outcome.shed(),
        shed_admission: outcome.shed_admission,
        shed_expired: outcome.shed_expired,
        deadline_misses: outcome.deadline_misses(),
        faults: plan.label(),
        failed: outcome.failed,
        availability: outcome.availability(),
        restarts: outcome.restarts,
        retries: outcome.retries,
        replicas_lost: outcome.replicas_lost,
        hedges: outcome.hedges,
        hedge_wins: outcome.hedge_wins,
        duplicates_suppressed: outcome.duplicates_suppressed,
        quarantines: outcome.quarantines,
        readmissions: outcome.readmissions,
        latency,
    })
}

/// Measures the single-sample service time of `model` on one runtime shard
/// and returns the implied batch-1 FIFO saturation capacity in queries per
/// second — the anchor serving sweeps use to place offered loads below and
/// above the un-batched knee.
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
    use centaur_dlrm::{PaperModel, RejectReason};
    use centaur_workload::ArrivalProcess;

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

    #[test]
    fn guarded_worker_preserves_the_panic_payload_and_aborts() {
        let queue = ArrivalQueue::new();
        let abort = AtomicBool::new(false);
        let result = guard_worker(&queue, &abort, || panic!("replica blew up"));
        let payload = result.expect_err("panic must be caught, not swallowed");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("replica blew up"),
            "payload survives for resume_unwind"
        );
        assert!(abort.load(Ordering::Relaxed), "abort flag flips");
        assert!(queue.is_closed(), "queue closes so the generator stops");
        assert!(
            queue.is_aborted(),
            "abort-close so siblings are not left waiting on the dead \
             worker's in-flight batch"
        );
    }

    #[test]
    fn guarded_worker_flags_errors_too() {
        let queue = ArrivalQueue::new();
        let abort = AtomicBool::new(false);
        let result = guard_worker(&queue, &abort, || {
            Err(CentaurError::NotInitialised("synthetic failure"))
        });
        assert!(matches!(result, Ok(Err(_))));
        assert!(abort.load(Ordering::Relaxed));
        assert!(queue.is_closed());
    }

    #[test]
    fn run_serve_cell_produces_a_digest() {
        let model = small_model();
        let report = run_serve_cell(
            &model,
            CentaurConfig::harpv2(),
            IndexDistribution::Uniform,
            ServeCell::poisson(5_000.0, 32, BatchPolicy::Fifo, 1, 9),
        )
        .unwrap();
        assert_eq!(report.completed, 32);
        assert_eq!(report.policy, "fifo");
        assert_eq!(report.traffic, "poisson");
        assert_eq!(report.replicas, 1);
        assert_eq!(report.slo_ms, None);
        assert_eq!(report.shed, 0);
        assert_eq!(report.deadline_misses, 0);
        assert!(report.achieved_qps > 0.0);
        assert!(
            (report.goodput_qps - report.achieved_qps).abs() < 1e-9,
            "no SLO: goodput equals throughput"
        );
        assert!(report.latency.p50_s > 0.0);
        assert!((report.mean_batch - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn run_serve_cell_reports_goodput_under_a_shaped_overload() {
        let model = small_model();
        let cell = ServeCell::poisson(
            400_000.0,
            192,
            BatchPolicy::deadline_wave(Duration::from_micros(500)),
            1,
            13,
        )
        .with_shape(TrafficShape::Bursty)
        .with_options(ServeOptions::overload_protected(
            Duration::from_millis(2),
            64,
        ));
        let report = run_serve_cell(
            &model,
            CentaurConfig::harpv2(),
            IndexDistribution::Uniform,
            cell,
        )
        .unwrap();
        assert_eq!(report.traffic, "bursty");
        assert_eq!(report.slo_ms, Some(2.0));
        assert_eq!(report.completed + report.shed, 192, "full accounting");
        assert_eq!(report.shed, report.shed_admission + report.shed_expired);
        assert!(
            report.goodput_qps <= report.achieved_qps + 1e-9,
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
    fn run_serve_cell_with_faults_reports_availability_columns() {
        let model = small_model();
        let cell = ServeCell::poisson(20_000.0, 128, BatchPolicy::dynamic_wave(), 2, 19)
            .with_options(ServeOptions::default().supervised(Supervision::default()))
            .with_faults(FaultSpec::none().with_transients(2).with_seed(3));
        let report = run_serve_cell(
            &model,
            CentaurConfig::harpv2(),
            IndexDistribution::Uniform,
            cell,
        )
        .unwrap();
        assert_eq!(report.faults, "t2");
        assert_eq!(
            report.completed + report.shed + report.failed,
            128,
            "accounting invariant in the report"
        );
        assert!(report.retries >= 1, "transients forced re-serves");
        assert_eq!(report.failed, 0, "default retry budget absorbs transients");
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.replicas_lost, 0);
    }

    #[test]
    fn derived_hedge_timeouts_follow_the_slo_and_service_estimate() {
        // Env knobs are unset in the test suite, so derivation anchors on
        // the arguments alone.
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
        let plan = FaultPlan::parse("stall:0:30:200").unwrap();
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
        let plan = FaultPlan::parse("stall:1:20:300").unwrap();
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
