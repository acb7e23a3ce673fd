//! Multi-tenant serving: per-tenant replica pools with their own SLO, fault
//! and retry budgets, versus a shared-everything baseline.
//!
//! A production recommendation fleet serves a *mix* — a heavy DLRM(6)
//! ranking query and a light DLRM(1) candidate query co-located on one
//! host. The robustness question (RecNMP / MicroRec leave it open) is
//! whether a crash or burst in one tenant's pool starves its neighbour's
//! SLO. This module answers it measurably with two topologies over the same
//! tenant specs:
//!
//! * **Isolated** ([`PoolMode::Isolated`]): each tenant gets its own
//!   [`ArrivalQueue`] (earliest-deadline-first order), its own supervised
//!   replica pool, its own SLO/retry/restart budgets, and its own fault
//!   plan. Nothing is shared, so a fault plan targeting the heavy pool
//!   cannot touch the light tenant's queue or replicas.
//! * **Shared** ([`PoolMode::Shared`]): the merged request stream feeds one
//!   FIFO queue with one deadline budget (the *loosest* tenant SLO), one
//!   over-holding service estimate (the *largest* tenant estimate), pooled
//!   replicas each able to serve every tenant ([`MixServer`]), pooled
//!   admission depth and merged supervision/fault budgets — the
//!   "one of everything" deployment the isolation sweep measures against.
//!
//! Per-tenant accounting holds in both: every generated request ends in
//! exactly one of completed / shed / failed *per tenant* (asserted), and
//! each tenant's row reports goodput, availability and per-reason
//! rejections judged against that tenant's **own** SLO — in shared mode the
//! pool only enforced the shared budget, which is exactly the violation the
//! sweep exposes.
//!
//! Availability on mix rows is *answered availability*: `completed /
//! generated`. The single-model rows report `completed / (completed +
//! failed)` (sheds excluded as deliberate flow control); for cross-tenant
//! isolation the question is "what fraction of this tenant's traffic got an
//! answer", and a light tenant shed behind a heavy backlog is exactly the
//! harm being measured, so sheds count against mix availability.

use crate::fault::{FaultPlan, FaultSpec};
use crate::harness::{
    generate_requests, guard_worker, replay_arrivals, worker_loop, ServeOptions, ServeOutcome,
    ServeReport, WorkerResult,
};
use crate::policy::BatchPolicy;
use crate::queue::{ArrivalQueue, DequeueOrder, QueuedRequest};
use crate::server::BatchServer;
use crate::stage::ReplicaStage;
use crate::supervisor::{
    supervise_replica, HealthBoard, InFlightSlot, Supervision, SupervisorShared,
};
use centaur::{CentaurConfig, CentaurError, CentaurRuntime};
use centaur_dlrm::{DlrmModel, InferenceRequest, RejectReason, RejectedRequest};
use centaur_workload::{IndexDistribution, ModelMix, QueryStream, TenantTraffic};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One tenant of a multi-tenant serving mix: its model, traffic slice, SLO
/// and fault-tolerance budgets, and the replica pool it gets when pools are
/// isolated.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, used in report rows and labels.
    pub name: String,
    /// The model this tenant serves.
    pub model: DlrmModel,
    /// Index distribution for this tenant's generated requests.
    pub distribution: IndexDistribution,
    /// This tenant's slice of the total offered load.
    pub traffic: TenantTraffic,
    /// This tenant's own latency SLO.
    pub slo: Duration,
    /// Replica shards in this tenant's pool (isolated mode); pooled into
    /// the shared total in shared mode.
    pub replicas: usize,
    /// This tenant's fault-tolerance budgets; `None` = fail-stop.
    pub supervision: Option<Supervision>,
    /// Seeded fault schedule injected into this tenant's pool (isolated) or
    /// merged into the shared pool's plan (shared).
    pub faults: FaultSpec,
    /// Calibrated batch service estimate for this tenant's model — see
    /// [`crate::policy::scaled_service_estimate`].
    pub service_estimate: Duration,
    /// Admission-gate depth for this tenant's queue; summed in shared mode.
    pub admission_depth: Option<usize>,
}

impl TenantSpec {
    /// A tenant with permissive defaults: uniform indices, one replica,
    /// fail-stop (no supervision), no faults, a 1 ms service estimate and
    /// an unbounded queue.
    pub fn new(name: &str, model: DlrmModel, traffic: TenantTraffic, slo: Duration) -> Self {
        TenantSpec {
            name: name.to_string(),
            model,
            distribution: IndexDistribution::Uniform,
            traffic,
            slo,
            replicas: 1,
            supervision: None,
            faults: FaultSpec::none(),
            service_estimate: Duration::from_millis(1),
            admission_depth: None,
        }
    }

    /// Same tenant with `replicas` shards in its pool.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Same tenant with supervised fault-tolerance budgets.
    pub fn supervised(mut self, supervision: Supervision) -> Self {
        self.supervision = Some(supervision);
        self
    }

    /// Same tenant with a seeded fault schedule targeting its pool.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Same tenant with a calibrated batch service estimate.
    pub fn with_service_estimate(mut self, estimate: Duration) -> Self {
        self.service_estimate = estimate;
        self
    }

    /// Same tenant with an admission-gate depth bound.
    pub fn with_admission_depth(mut self, depth: usize) -> Self {
        self.admission_depth = Some(depth);
        self
    }

    /// Same tenant with a different index distribution.
    pub fn with_distribution(mut self, distribution: IndexDistribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// This tenant's deadline-aware batching policy, calibrated to its own
    /// service estimate.
    pub fn policy(&self) -> BatchPolicy {
        BatchPolicy::deadline_wave(self.service_estimate)
    }
}

/// Pool topology for a multi-tenant run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Per-tenant queue + pool + budgets, EDF dispatch.
    Isolated,
    /// One FIFO queue, one pooled replica set, one shared budget of
    /// everything — the baseline.
    Shared,
}

impl PoolMode {
    /// Short label for report output (`isolated`, `shared`).
    pub fn label(&self) -> &'static str {
        match self {
            PoolMode::Isolated => "isolated",
            PoolMode::Shared => "shared",
        }
    }
}

/// The multi-tenant serving backend for a shared pool: each replica owns
/// one engine (runtime shard + staging buffers) per tenant and routes every
/// request in a popped batch to its tenant's engine, scattering the
/// probabilities back into batch order. Steady state allocates nothing once
/// the per-tenant scratch buffers reach their high-water marks.
pub struct MixServer<'a> {
    requests: &'a [InferenceRequest],
    tenant_of: &'a [usize],
    engines: Vec<TenantEngine>,
    /// Per-tenant scratch: positions in the current batch owned by each
    /// tenant.
    positions: Vec<Vec<usize>>,
    staged: Vec<&'a InferenceRequest>,
}

struct TenantEngine {
    runtime: CentaurRuntime,
    stage: ReplicaStage,
}

impl<'a> MixServer<'a> {
    /// A backend routing `requests` across one engine per tenant:
    /// `engines[t]` serves every request whose `tenant_of[index]` is `t`.
    ///
    /// # Panics
    ///
    /// Panics when `tenant_of` does not cover `requests`, maps a request to
    /// a missing engine, or `engines` is empty.
    pub fn new(
        engines: Vec<CentaurRuntime>,
        requests: &'a [InferenceRequest],
        tenant_of: &'a [usize],
        max_batch: usize,
    ) -> Self {
        assert!(
            !engines.is_empty(),
            "a mix server needs at least one engine"
        );
        assert_eq!(
            tenant_of.len(),
            requests.len(),
            "tenant map must cover the merged request set"
        );
        assert!(
            tenant_of.iter().all(|&t| t < engines.len()),
            "every request must map to an engine"
        );
        let engines: Vec<TenantEngine> = engines
            .into_iter()
            .map(|runtime| {
                let config = runtime.model().config().clone();
                TenantEngine {
                    stage: ReplicaStage::new(&config, max_batch),
                    runtime,
                }
            })
            .collect();
        let positions = engines
            .iter()
            .map(|_| Vec::with_capacity(max_batch))
            .collect();
        MixServer {
            requests,
            tenant_of,
            engines,
            positions,
            staged: Vec::with_capacity(max_batch),
        }
    }
}

impl BatchServer for MixServer<'_> {
    fn serve_batch(
        &mut self,
        batch: &[QueuedRequest],
        out: &mut Vec<f32>,
    ) -> Result<(), CentaurError> {
        out.clear();
        out.resize(batch.len(), 0.0);
        for positions in &mut self.positions {
            positions.clear();
        }
        for (position, queued) in batch.iter().enumerate() {
            self.positions[self.tenant_of[queued.index]].push(position);
        }
        for (tenant, engine) in self.engines.iter_mut().enumerate() {
            let positions = &self.positions[tenant];
            if positions.is_empty() {
                continue;
            }
            self.staged.clear();
            self.staged
                .extend(positions.iter().map(|&p| &self.requests[batch[p].index]));
            let probabilities = engine.stage.run_batch(&mut engine.runtime, &self.staged)?;
            for (&position, &probability) in positions.iter().zip(probabilities) {
                out[position] = probability;
            }
        }
        Ok(())
    }

    fn request_id(&self, index: usize) -> u64 {
        self.requests[index].id
    }
}

/// Deterministic per-tenant seed derivation so tenants draw independent
/// request sets and arrival schedules from one cell seed.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed ^ ((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one multi-tenant cell: every tenant's traffic slice replayed
/// against pools in `mode` topology, returning one per-tenant
/// [`ServeReport`] row per tenant (declaration order).
///
/// The tenant shares must form a complete mix (positive, summing to 1 —
/// validated through [`ModelMix`]). Each tenant replays
/// `traffic.queries(total_queries)` requests at `traffic.rate_qps(total_qps)`
/// mean offered load.
///
/// # Errors
///
/// Propagates registration and serving errors from any tenant's pool.
///
/// # Panics
///
/// Panics when the per-tenant accounting invariant breaks (a generated
/// request with no terminal state), or on an unrecoverable supervised run
/// (every replica dead — the first crash's payload is re-raised).
pub fn run_mix_cell(
    accel: CentaurConfig,
    tenants: &[TenantSpec],
    mode: PoolMode,
    total_qps: f64,
    total_queries: usize,
    seed: u64,
) -> Result<Vec<ServeReport>, CentaurError> {
    // Validates the shares: positive, summing to 1.
    let _mix = ModelMix::new(
        tenants
            .iter()
            .map(|t| (t.name.clone(), t.traffic))
            .collect(),
    );
    match mode {
        PoolMode::Isolated => run_isolated(accel, tenants, total_qps, total_queries, seed),
        PoolMode::Shared => run_shared(accel, tenants, total_qps, total_queries, seed),
    }
}

/// Isolated topology: one thread per tenant, each running the standard
/// single-model harness against its own queue (EDF order), pool, SLO and
/// fault plan. The tenants run concurrently — they still contend for the
/// host like co-located pools do — but share no serving state.
fn run_isolated(
    accel: CentaurConfig,
    tenants: &[TenantSpec],
    total_qps: f64,
    total_queries: usize,
    seed: u64,
) -> Result<Vec<ServeReport>, CentaurError> {
    let mut results: Vec<Option<Result<ServeReport, CentaurError>>> =
        tenants.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (tenant_index, (slot, tenant)) in results.iter_mut().zip(tenants).enumerate() {
            scope.spawn(move || {
                *slot = Some(run_tenant_pool(
                    accel,
                    tenant,
                    tenant_index,
                    total_qps,
                    total_queries,
                    seed,
                ));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("tenant thread always reports"))
        .collect()
}

/// One isolated tenant pool, end to end.
fn run_tenant_pool(
    accel: CentaurConfig,
    tenant: &TenantSpec,
    tenant_index: usize,
    total_qps: f64,
    total_queries: usize,
    seed: u64,
) -> Result<ServeReport, CentaurError> {
    let config = tenant.model.config().clone();
    let queries = tenant.traffic.queries(total_queries);
    let rate_qps = tenant.traffic.rate_qps(total_qps);
    let request_seed = tenant_seed(seed, tenant_index);
    let requests = generate_requests(&config, tenant.distribution, request_seed, queries);
    let stream = QueryStream::generate(
        tenant.traffic.process(total_qps),
        queries,
        request_seed ^ 0xA11,
    );
    let pool = CentaurRuntime::replica_pool(tenant.model.clone(), accel, tenant.replicas)?;
    let plan = if tenant.faults.is_none() {
        FaultPlan::none()
    } else {
        let window_s = queries as f64 / rate_qps.max(1e-9);
        FaultPlan::seeded(tenant.faults, tenant.replicas, window_s)
    };
    let options = ServeOptions {
        slo: Some(tenant.slo),
        admission_depth: tenant.admission_depth,
        shed_expired: true,
        supervision: tenant.supervision,
        order: DequeueOrder::Edf,
        hedge: None,
    };
    let outcome = crate::harness::serve_replay_faulted(
        pool,
        &requests,
        &stream,
        tenant.policy(),
        options,
        &plan,
    )?;
    Ok(tenant_report(
        tenant,
        PoolMode::Isolated,
        rate_qps,
        tenant.policy().label(),
        tenant.replicas,
        plan.label(),
        queries,
        &outcome,
    ))
}

/// Shared-everything topology: merged stream, one FIFO queue, pooled
/// replicas each serving every tenant, one shared budget of everything.
fn run_shared(
    accel: CentaurConfig,
    tenants: &[TenantSpec],
    total_qps: f64,
    total_queries: usize,
    seed: u64,
) -> Result<Vec<ServeReport>, CentaurError> {
    // Merge the per-tenant request sets, re-stamped with ids dense across
    // the merged stream so completions/rejections map back to tenants.
    let mut merged: Vec<InferenceRequest> = Vec::new();
    let mut tenant_of: Vec<usize> = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut generated: Vec<usize> = Vec::new();
    let mut streams: Vec<QueryStream> = Vec::new();
    for (tenant_index, tenant) in tenants.iter().enumerate() {
        let config = tenant.model.config().clone();
        let queries = tenant.traffic.queries(total_queries);
        let request_seed = tenant_seed(seed, tenant_index);
        let requests = generate_requests(&config, tenant.distribution, request_seed, queries);
        offsets.push(merged.len());
        for request in requests {
            let id = merged.len() as u64;
            tenant_of.push(tenant_index);
            merged.push(request.with_id(id));
        }
        generated.push(queries);
        streams.push(QueryStream::generate(
            tenant.traffic.process(total_qps),
            queries,
            request_seed ^ 0xA11,
        ));
    }

    // Shared-everything budgets: the loosest SLO, the largest (over-holding)
    // service estimate, pooled depth/replicas, merged supervision and fault
    // counts. This is the deployment that gives every tenant "one of
    // everything" — and therefore no tenant its own anything.
    let shared_slo = tenants.iter().map(|t| t.slo).max().expect("non-empty mix");
    let shared_estimate = tenants
        .iter()
        .map(|t| t.service_estimate)
        .max()
        .expect("non-empty mix");
    let shared_depth = tenants
        .iter()
        .map(|t| t.admission_depth)
        .try_fold(0usize, |sum, depth| depth.map(|d| sum + d));
    let replicas: usize = tenants.iter().map(|t| t.replicas).sum::<usize>().max(1);
    let supervision = merge_supervision(tenants);
    let faults = merge_faults(tenants);
    let policy = BatchPolicy::deadline_wave(shared_estimate);
    let options = ServeOptions {
        slo: Some(shared_slo),
        admission_depth: shared_depth,
        shed_expired: true,
        supervision,
        order: DequeueOrder::Fifo,
        hedge: None,
    };
    let plan = if faults.is_none() {
        FaultPlan::none()
    } else {
        let window_s = total_queries as f64 / total_qps.max(1e-9);
        FaultPlan::seeded(faults, replicas, window_s)
    };

    // Every pooled replica can serve every tenant: one engine per tenant
    // per replica (each tenant's model registered once, shards cloned).
    let mut per_tenant_pools: Vec<Vec<CentaurRuntime>> = Vec::with_capacity(tenants.len());
    for tenant in tenants {
        per_tenant_pools.push(CentaurRuntime::replica_pool(
            tenant.model.clone(),
            accel,
            replicas,
        )?);
    }
    let mut replica_engines: Vec<Vec<CentaurRuntime>> = (0..replicas)
        .map(|_| Vec::with_capacity(tenants.len()))
        .collect();
    for pool in per_tenant_pools {
        for (replica, runtime) in pool.into_iter().enumerate() {
            replica_engines[replica].push(runtime);
        }
    }

    let queue = ArrivalQueue::with_config(options.admission());
    queue.reserve_shed(merged.len());
    let slo_s = shared_slo.as_secs_f64();
    let abort = AtomicBool::new(false);
    let mut outcome = match supervision {
        None => shared_unsupervised(
            replica_engines,
            &merged,
            &tenant_of,
            &streams,
            &offsets,
            policy,
            &queue,
            slo_s,
            &abort,
            &plan,
        )?,
        Some(supervision) => shared_supervised(
            replica_engines,
            &merged,
            &tenant_of,
            &streams,
            &offsets,
            policy,
            &queue,
            slo_s,
            &abort,
            &plan,
            supervision,
        ),
    };
    outcome.failed = queue.failed();
    outcome.retries = queue.retries();
    outcome.shed_admission = queue.shed_admission();
    outcome.shed_expired = queue.shed_expired();
    outcome.rejections = queue
        .take_shed()
        .into_iter()
        .map(|(shed, reason)| RejectedRequest {
            id: merged[shed.index].id,
            reason,
            retries: shed.retries,
        })
        .collect();

    let split = split_by_tenant(&outcome, &tenant_of, tenants);
    Ok(tenants
        .iter()
        .zip(split.iter())
        .zip(generated)
        .map(|((tenant, tenant_outcome), generated)| {
            tenant_report(
                tenant,
                PoolMode::Shared,
                tenant.traffic.rate_qps(total_qps),
                policy.label(),
                replicas,
                plan.label(),
                generated,
                tenant_outcome,
            )
        })
        .collect())
}

/// Merged supervision for the shared pool: supervised if *any* tenant asked
/// for it, with the most generous per-request retry limit and the summed
/// restart budget — one shared budget every tenant's faults draw from.
fn merge_supervision(tenants: &[TenantSpec]) -> Option<Supervision> {
    let supervised: Vec<Supervision> = tenants.iter().filter_map(|t| t.supervision).collect();
    if supervised.is_empty() {
        return None;
    }
    Some(Supervision {
        retry_limit: supervised.iter().map(|s| s.retry_limit).max().unwrap_or(0),
        restart_budget: supervised.iter().map(|s| s.restart_budget).sum(),
    })
}

/// Merged fault schedule for the shared pool: the per-tenant event counts
/// summed into one spec. In a shared pool a fault "targeting" one tenant
/// hits a replica every tenant depends on — which is the point.
fn merge_faults(tenants: &[TenantSpec]) -> FaultSpec {
    let mut merged = FaultSpec::none();
    for tenant in tenants {
        if tenant.faults.is_none() {
            continue;
        }
        merged = merged.merge(tenant.faults);
    }
    merged
}

/// The shared pool's fail-stop path: mirrors the single-model harness but
/// with [`MixServer`] replicas and one generator thread per tenant stream.
#[allow(clippy::too_many_arguments)]
fn shared_unsupervised(
    mut replica_engines: Vec<Vec<CentaurRuntime>>,
    merged: &[InferenceRequest],
    tenant_of: &[usize],
    streams: &[QueryStream],
    offsets: &[usize],
    policy: BatchPolicy,
    queue: &ArrivalQueue,
    slo_s: f64,
    abort: &AtomicBool,
    plan: &FaultPlan,
) -> Result<ServeOutcome, CentaurError> {
    let mut worker_results: Vec<WorkerResult> = Vec::new();
    let generators = AtomicUsize::new(streams.len());
    let slots: Vec<InFlightSlot> = (0..replica_engines.len())
        .map(|_| InFlightSlot::new(policy.max_batch()))
        .collect();
    // Align the deadline clock with the replay start (setup between queue
    // construction and here must not eat into the schedule).
    queue.restart_clock();
    std::thread::scope(|scope| {
        let start = queue.start();
        let generators = &generators;
        let slots = &slots;
        let handles: Vec<_> = replica_engines
            .drain(..)
            .enumerate()
            .map(|(index, engines)| {
                let server = MixServer::new(engines, merged, tenant_of, policy.max_batch());
                let guard = plan.guard_for(index);
                scope.spawn(move || {
                    guard_worker(queue, abort, move || {
                        worker_loop(queue, server, policy, start, guard, &slots[index], index)
                    })
                })
            })
            .collect();
        for (stream, &offset) in streams.iter().zip(offsets) {
            scope.spawn(move || {
                replay_arrivals(queue, stream, slo_s, abort, start, offset, generators);
            });
        }
        worker_results = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(Err))
            .collect();
    });
    let mut outcome = empty_outcome(merged.len(), slo_s);
    let mut failure: Option<CentaurError> = None;
    for result in worker_results {
        match result {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(Ok((completions, batches))) => {
                outcome.completions.extend(completions);
                outcome.batches += batches;
            }
            Ok(Err(error)) => failure = failure.or(Some(error)),
        }
    }
    if let Some(error) = failure {
        return Err(error);
    }
    Ok(outcome)
}

/// The shared pool's supervised path: mirrors the single-model supervised
/// harness with [`MixServer`] replicas respawned from per-tenant template
/// shards, and one generator thread per tenant stream.
#[allow(clippy::too_many_arguments)]
fn shared_supervised<'a>(
    mut replica_engines: Vec<Vec<CentaurRuntime>>,
    merged: &'a [InferenceRequest],
    tenant_of: &'a [usize],
    streams: &[QueryStream],
    offsets: &[usize],
    policy: BatchPolicy,
    queue: &ArrivalQueue,
    slo_s: f64,
    abort: &AtomicBool,
    plan: &FaultPlan,
    supervision: Supervision,
) -> ServeOutcome {
    let pool_size = replica_engines.len();
    let shared = SupervisorShared::new(pool_size, merged.len());
    let slots: Vec<InFlightSlot> = (0..pool_size)
        .map(|_| InFlightSlot::new(policy.max_batch()))
        .collect();
    // The mix sweeps measure cross-tenant isolation, not tail tolerance: a
    // disabled board keeps every replica permanently healthy.
    let health = HealthBoard::disabled(pool_size);
    // Restarts boot from fresh shard clones, never from state a panic
    // unwound through.
    let template = Mutex::new(replica_engines[0].clone());
    let max_batch = policy.max_batch();
    let respawn = {
        let template = &template;
        move || {
            MixServer::new(
                template.lock().expect("template poisoned").clone(),
                merged,
                tenant_of,
                max_batch,
            )
        }
    };
    let generators = AtomicUsize::new(streams.len());
    // The MixServer template clone above copies each tenant's MLPs and
    // scratch only (embedding tables are shared handles), but it and the
    // set-up before it ran *after* the queue captured its construction-time
    // clock; restart the deadline clock so the replay schedule starts now,
    // not at queue construction.
    queue.restart_clock();
    std::thread::scope(|scope| {
        let start = queue.start();
        let shared = &shared;
        let generators = &generators;
        let slots = &slots;
        let health = &health;
        let respawn: &(dyn Fn() -> MixServer<'a> + Sync) = &respawn;
        for (index, engines) in replica_engines.drain(..).enumerate() {
            let guard = plan.guard_for(index);
            let server = MixServer::new(engines, merged, tenant_of, max_batch);
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
        for (stream, &offset) in streams.iter().zip(offsets) {
            scope.spawn(move || {
                replay_arrivals(queue, stream, slo_s, abort, start, offset, generators);
            });
        }
    });
    if queue.is_aborted() {
        // Unrecoverable: every replica died. Re-raise the first crash.
        let payload = shared
            .payload
            .lock()
            .expect("payload slot poisoned")
            .take()
            .unwrap_or_else(|| Box::new("shared mix run aborted without a payload"));
        std::panic::resume_unwind(payload);
    }
    let live = shared.live.load(Ordering::Acquire);
    let completions =
        std::mem::take(&mut *shared.completions.lock().expect("completions poisoned"));
    let mut outcome = empty_outcome(merged.len(), slo_s);
    outcome.completions = completions;
    outcome.batches = shared.batches.load(Ordering::Relaxed);
    outcome.restarts = shared.restarts.load(Ordering::Relaxed);
    outcome.replicas_lost = pool_size - live;
    outcome
}

fn empty_outcome(capacity: usize, slo_s: f64) -> ServeOutcome {
    ServeOutcome {
        completions: Vec::with_capacity(capacity),
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
    }
}

/// Splits a shared pool's outcome into per-tenant outcomes by mapping every
/// completion and rejection id back through `tenant_of`. Per-tenant rows
/// are judged against the tenant's **own** SLO (the pool only enforced the
/// shared one); pool-level counters that cannot be attributed to one tenant
/// (batches, retries, restarts, replicas lost) are carried on every row.
fn split_by_tenant(
    outcome: &ServeOutcome,
    tenant_of: &[usize],
    tenants: &[TenantSpec],
) -> Vec<ServeOutcome> {
    let mut split: Vec<ServeOutcome> = tenants
        .iter()
        .map(|tenant| {
            let mut empty = empty_outcome(0, tenant.slo.as_secs_f64());
            empty.batches = outcome.batches;
            empty.retries = outcome.retries;
            empty.restarts = outcome.restarts;
            empty.replicas_lost = outcome.replicas_lost;
            empty
        })
        .collect();
    for completion in &outcome.completions {
        split[tenant_of[completion.id as usize]]
            .completions
            .push(*completion);
    }
    for rejection in &outcome.rejections {
        let tenant = &mut split[tenant_of[rejection.id as usize]];
        tenant.rejections.push(*rejection);
        match rejection.reason {
            RejectReason::QueueFull => tenant.shed_admission += 1,
            RejectReason::DeadlineExpired => tenant.shed_expired += 1,
            RejectReason::Failed => tenant.failed += 1,
        }
    }
    split
}

/// One tenant's report row, with the per-tenant isolation invariant
/// asserted: every generated request ended in exactly one of
/// completed / shed / failed.
#[allow(clippy::too_many_arguments)]
fn tenant_report(
    tenant: &TenantSpec,
    mode: PoolMode,
    offered_qps: f64,
    policy_label: String,
    replicas: usize,
    faults_label: String,
    generated: usize,
    outcome: &ServeOutcome,
) -> ServeReport {
    assert_eq!(
        outcome.accounted(),
        generated,
        "isolation invariant violated for tenant {:?} ({} pool): every \
         generated request must end exactly one of completed/shed/failed",
        tenant.name,
        mode.label(),
    );
    // Answered availability: what fraction of this tenant's generated
    // traffic got an answer (see the module docs for why sheds count here).
    let availability = if generated == 0 {
        1.0
    } else {
        outcome.completions.len() as f64 / generated as f64
    };
    ServeReport {
        tenant: tenant.name.clone(),
        pool: mode.label().to_string(),
        offered_qps,
        traffic: tenant.traffic.shape.label().to_string(),
        policy: policy_label,
        replicas,
        slo_ms: Some(tenant.slo.as_secs_f64() * 1e3),
        completed: outcome.completions.len(),
        batches: outcome.batches,
        mean_batch: outcome.mean_batch(),
        achieved_qps: outcome.achieved_qps(),
        goodput_qps: outcome.goodput_qps(),
        shed: outcome.shed(),
        shed_admission: outcome.shed_admission,
        shed_expired: outcome.shed_expired,
        deadline_misses: outcome.deadline_misses(),
        faults: faults_label,
        failed: outcome.failed,
        availability,
        restarts: outcome.restarts,
        retries: outcome.retries,
        replicas_lost: outcome.replicas_lost,
        hedges: outcome.hedges,
        hedge_wins: outcome.hedge_wins,
        duplicates_suppressed: outcome.duplicates_suppressed,
        quarantines: outcome.quarantines,
        readmissions: outcome.readmissions,
        latency: outcome.latency_summary().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::PaperModel;
    use centaur_workload::TrafficShape;

    fn tiny_model(paper: PaperModel, seed: u64) -> DlrmModel {
        let config = paper.config().with_rows_per_table(256);
        DlrmModel::random(&config, seed).unwrap()
    }

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                "light",
                tiny_model(PaperModel::Dlrm1, 3),
                TenantTraffic::new(0.7, TrafficShape::Poisson),
                Duration::from_millis(5),
            )
            .with_service_estimate(Duration::from_micros(300))
            .with_admission_depth(64)
            .supervised(Supervision::default()),
            TenantSpec::new(
                "heavy",
                tiny_model(PaperModel::Dlrm6, 4),
                TenantTraffic::new(0.3, TrafficShape::HeavyTail),
                Duration::from_millis(20),
            )
            .with_service_estimate(Duration::from_millis(2))
            .with_admission_depth(64)
            .with_replicas(2)
            .supervised(Supervision::default()),
        ]
    }

    #[test]
    fn isolated_mix_accounts_every_tenant_request() {
        let reports = run_mix_cell(
            CentaurConfig::harpv2(),
            &two_tenants(),
            PoolMode::Isolated,
            4_000.0,
            120,
            11,
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].tenant, "light");
        assert_eq!(reports[0].pool, "isolated");
        assert_eq!(reports[0].traffic, "poisson");
        assert_eq!(reports[1].tenant, "heavy");
        assert_eq!(reports[1].traffic, "heavytail");
        // 70/30 split of 120 queries at 4k qps.
        assert_eq!(
            reports[0].completed + reports[0].shed + reports[0].failed,
            84
        );
        assert_eq!(
            reports[1].completed + reports[1].shed + reports[1].failed,
            36
        );
        assert!((reports[0].offered_qps - 2_800.0).abs() < 1e-9);
        assert_eq!(reports[0].slo_ms, Some(5.0));
        assert_eq!(reports[1].slo_ms, Some(20.0));
        // Per-tenant calibrated policies are distinguishable in the labels.
        assert_ne!(reports[0].policy, reports[1].policy);
        assert!(reports[0].policy.contains("e300us"));
        assert!(reports[1].policy.contains("e2ms"));
    }

    #[test]
    fn shared_mix_accounts_every_tenant_request_under_one_pool() {
        let reports = run_mix_cell(
            CentaurConfig::harpv2(),
            &two_tenants(),
            PoolMode::Shared,
            4_000.0,
            120,
            11,
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].pool, "shared");
        assert_eq!(reports[1].pool, "shared");
        assert_eq!(
            reports[0].completed + reports[0].shed + reports[0].failed,
            84
        );
        assert_eq!(
            reports[1].completed + reports[1].shed + reports[1].failed,
            36
        );
        // Shared pool: both rows report the pooled replica count and the
        // shared (over-holding) policy.
        assert_eq!(reports[0].replicas, 3);
        assert_eq!(reports[0].policy, reports[1].policy);
        // Per-tenant SLO columns keep each tenant's own budget.
        assert_eq!(reports[0].slo_ms, Some(5.0));
        assert_eq!(reports[1].slo_ms, Some(20.0));
    }

    #[test]
    fn mix_server_routes_each_request_to_its_tenant_engine() {
        let light = tiny_model(PaperModel::Dlrm1, 5);
        let heavy = tiny_model(PaperModel::Dlrm6, 6);
        let light_requests = generate_requests(light.config(), IndexDistribution::Uniform, 7, 3);
        let heavy_requests = generate_requests(heavy.config(), IndexDistribution::Uniform, 8, 3);
        let mut merged = Vec::new();
        let mut tenant_of = Vec::new();
        for request in light_requests {
            let id = merged.len() as u64;
            tenant_of.push(0);
            merged.push(request.with_id(id));
        }
        for request in heavy_requests {
            let id = merged.len() as u64;
            tenant_of.push(1);
            merged.push(request.with_id(id));
        }
        let engines = vec![
            CentaurRuntime::new(light.clone(), CentaurConfig::harpv2()).unwrap(),
            CentaurRuntime::new(heavy.clone(), CentaurConfig::harpv2()).unwrap(),
        ];
        let mut server = MixServer::new(engines, &merged, &tenant_of, 8);
        // An interleaved batch across both tenants.
        let batch: Vec<QueuedRequest> = [0usize, 3, 1, 4, 2, 5]
            .iter()
            .map(|&i| QueuedRequest::new(i, 0.0))
            .collect();
        let mut out = Vec::new();
        server.serve_batch(&batch, &mut out).unwrap();
        assert_eq!(out.len(), 6);
        // Each probability matches a solo reference run on the right model.
        let mut light_ref = CentaurRuntime::harpv2(light).unwrap();
        let mut heavy_ref = CentaurRuntime::harpv2(heavy).unwrap();
        let mut probe = [0.0f32];
        for (queued, &probability) in batch.iter().zip(&out) {
            let request = &merged[queued.index];
            let reference = if tenant_of[queued.index] == 0 {
                &mut light_ref
            } else {
                &mut heavy_ref
            };
            reference
                .infer_batch_rows_into(
                    &request.dense,
                    request.dense.len(),
                    std::slice::from_ref(&request.sparse),
                    &mut probe,
                )
                .unwrap();
            assert_eq!(probability, probe[0], "request {}", queued.index);
        }
        assert_eq!(server.request_id(4), 4);
    }

    #[test]
    #[should_panic(expected = "must sum to 1")]
    fn mix_cell_rejects_incomplete_shares() {
        let tenant = TenantSpec::new(
            "only",
            tiny_model(PaperModel::Dlrm1, 9),
            TenantTraffic::new(0.5, TrafficShape::Poisson),
            Duration::from_millis(5),
        );
        let _ = run_mix_cell(
            CentaurConfig::harpv2(),
            &[tenant],
            PoolMode::Isolated,
            1_000.0,
            16,
            1,
        );
    }
}
