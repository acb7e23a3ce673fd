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
//!   [`ArrivalQueue`](crate::ArrivalQueue), its own supervised replica
//!   pool, its own SLO/retry/restart budgets, and its own fault plan.
//!   Nothing is shared, so a fault plan targeting the heavy pool cannot
//!   touch the light tenant's queue or replicas.
//! * **Shared** ([`PoolMode::Shared`]): the merged request stream feeds one
//!   queue with one deadline budget (the *loosest* tenant SLO, so the
//!   queue's deadline order is arrival order across the tenants), one
//!   over-holding service estimate (the *largest* tenant estimate), pooled
//!   replicas each able to serve every tenant ([`MixServer`]), pooled
//!   admission depth and merged supervision/fault budgets — the
//!   "one of everything" deployment isolation is measured against.
//!
//! Both run on the one serving engine: isolated tenants each through
//! [`serve_replay_faulted`], the shared pool
//! as one engine run with one arrival stream per tenant.
//!
//! Per-tenant accounting holds in both: every generated request ends in
//! exactly one of completed / shed / failed *per tenant* (asserted), and
//! each tenant's row reports tail latency, availability and per-reason
//! rejections judged against that tenant's **own** SLO — in shared mode the
//! pool only enforced the shared budget, which is exactly the violation the
//! rows expose.
//!
//! Availability on mix rows is *answered availability*
//! ([`ServeReport::availability`]): `completed / generated`.
//! [`ServeOutcome::availability`] reports `completed / (completed +
//! failed)` (sheds excluded as deliberate flow control); for
//! cross-tenant isolation the question is "what fraction of this tenant's
//! traffic got an answer", and a light tenant shed behind a heavy backlog
//! is exactly the harm being measured, so sheds count against mix
//! availability.

use crate::engine;
use crate::fault::{FaultPlan, FaultSpec};
use crate::harness::{generate_requests, serve_replay_faulted, ServeOptions, ServeOutcome};
use crate::policy::BatchPolicy;
use crate::queue::QueuedRequest;
use crate::stage::ReplicaStage;
use crate::supervisor::Supervision;
use centaur::{CentaurConfig, CentaurError, CentaurRuntime};
use centaur_dlrm::{DlrmModel, InferenceRequest, RejectReason, RejectedRequest};
use centaur_workload::{IndexDistribution, ModelMix, QueryStream, TenantTraffic};
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
    /// Per-tenant queue + pool + budgets.
    Isolated,
    /// One queue under the loosest SLO, one pooled replica set, one shared
    /// budget of everything — the baseline.
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

/// A replica's serving backend: one engine (runtime shard + staging
/// buffers) per tenant. Tenant `t` owns the contiguous index range
/// `starts[t]..starts[t + 1]` of the request set (the last range runs to
/// its end); every request in a popped batch is routed to its tenant's
/// engine and the probabilities are scattered back into batch order. A
/// single model is a one-tenant server (`starts = [0]`). Steady state
/// allocates nothing once the scratch buffers reach their high-water
/// marks.
#[derive(Clone)]
pub struct MixServer<'a> {
    requests: &'a [InferenceRequest],
    starts: Vec<usize>,
    engines: Vec<TenantEngine>,
    /// Scratch: positions in the current batch owned by the tenant being
    /// served, and its staged requests.
    positions: Vec<usize>,
    staged: Vec<&'a InferenceRequest>,
}

#[derive(Clone)]
struct TenantEngine {
    runtime: CentaurRuntime,
    stage: ReplicaStage,
}

impl<'a> MixServer<'a> {
    /// A backend routing `requests` across one engine per tenant:
    /// `engines[t]` serves every request whose index lies in
    /// `starts[t]..starts[t + 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `engines` is empty, `starts` does not hold one
    /// ascending start per engine beginning at 0, or a start lies past the
    /// end of `requests`.
    pub fn new(
        engines: Vec<CentaurRuntime>,
        requests: &'a [InferenceRequest],
        starts: &[usize],
        max_batch: usize,
    ) -> Self {
        assert!(
            !engines.is_empty(),
            "a mix server needs at least one engine"
        );
        assert_eq!(starts.len(), engines.len(), "one start per engine");
        assert_eq!(starts[0], 0, "the first tenant starts at index 0");
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]) && starts[starts.len() - 1] <= requests.len(),
            "tenant starts must ascend within the request set"
        );
        let engines = engines
            .into_iter()
            .map(|runtime| TenantEngine {
                stage: ReplicaStage::new(runtime.model().config(), max_batch),
                runtime,
            })
            .collect();
        MixServer {
            requests,
            starts: starts.to_vec(),
            engines,
            positions: Vec::with_capacity(max_batch),
            staged: Vec::with_capacity(max_batch),
        }
    }

    /// Serves `batch`, writing one probability per entry into `out`
    /// (cleared first, same order as `batch`). An error fails the whole
    /// attempt — the supervised loop then re-serves request by request so
    /// a poison request cannot burn its co-riders' retry budgets.
    ///
    /// # Errors
    ///
    /// Returns the accelerator datapath error that failed the attempt.
    pub fn serve_batch(
        &mut self,
        batch: &[QueuedRequest],
        out: &mut Vec<f32>,
    ) -> Result<(), CentaurError> {
        out.clear();
        out.resize(batch.len(), 0.0);
        for (tenant, engine) in self.engines.iter_mut().enumerate() {
            let first = self.starts[tenant];
            let end = self
                .starts
                .get(tenant + 1)
                .copied()
                .unwrap_or(self.requests.len());
            self.positions.clear();
            self.staged.clear();
            for (position, queued) in batch.iter().enumerate() {
                if (first..end).contains(&queued.index) {
                    self.positions.push(position);
                    self.staged.push(&self.requests[queued.index]);
                }
            }
            if self.staged.is_empty() {
                continue;
            }
            let probabilities = engine.stage.run_batch(&mut engine.runtime, &self.staged)?;
            for (&position, &probability) in self.positions.iter().zip(probabilities) {
                out[position] = probability;
            }
        }
        Ok(())
    }

    /// The wire-level id of the request a [`QueuedRequest::index`] refers
    /// to.
    pub fn request_id(&self, index: usize) -> u64 {
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
/// single-model harness against its own queue, pool, SLO and
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
        hedge: None,
    };
    let outcome = serve_replay_faulted(pool, &requests, &stream, tenant.policy(), options, &plan)?;
    Ok(tenant_report(
        tenant,
        PoolMode::Isolated,
        rate_qps,
        tenant.policy().label(),
        tenant.replicas,
        plan.label(),
        queries,
        outcome,
    ))
}

/// Shared-everything topology: merged stream, one queue, pooled
/// replicas each serving every tenant, one shared budget of everything.
fn run_shared(
    accel: CentaurConfig,
    tenants: &[TenantSpec],
    total_qps: f64,
    total_queries: usize,
    seed: u64,
) -> Result<Vec<ServeReport>, CentaurError> {
    // Merge the per-tenant request sets, re-stamped with ids dense across
    // the merged stream: tenant `t` owns the ids from `starts[t]` up to the
    // next tenant's start, which is how completions and rejections map back.
    let mut merged: Vec<InferenceRequest> = Vec::new();
    let mut starts: Vec<usize> = Vec::with_capacity(tenants.len());
    let mut streams: Vec<QueryStream> = Vec::with_capacity(tenants.len());
    for (tenant_index, tenant) in tenants.iter().enumerate() {
        let config = tenant.model.config().clone();
        let queries = tenant.traffic.queries(total_queries);
        let request_seed = tenant_seed(seed, tenant_index);
        let requests = generate_requests(&config, tenant.distribution, request_seed, queries);
        starts.push(merged.len());
        for request in requests {
            let id = merged.len() as u64;
            merged.push(request.with_id(id));
        }
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
    let faults = merge_faults(tenants);
    let policy = BatchPolicy::deadline_wave(shared_estimate);
    let options = ServeOptions {
        slo: Some(shared_slo),
        admission_depth: shared_depth,
        shed_expired: true,
        supervision: merge_supervision(tenants),
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
    let mut replica_engines: Vec<Vec<CentaurRuntime>> = (0..replicas)
        .map(|_| Vec::with_capacity(tenants.len()))
        .collect();
    for tenant in tenants {
        let pool = CentaurRuntime::replica_pool(tenant.model.clone(), accel, replicas)?;
        for (engines, runtime) in replica_engines.iter_mut().zip(pool) {
            engines.push(runtime);
        }
    }
    let servers = replica_engines
        .into_iter()
        .map(|engines| MixServer::new(engines, &merged, &starts, policy.max_batch()))
        .collect();
    let arrivals: Vec<(usize, &QueryStream)> = starts.iter().copied().zip(&streams).collect();
    let outcome = engine::serve(servers, &merged, &arrivals, policy, options, &plan)?;

    let split = split_by_tenant(&outcome, &starts, tenants);
    Ok(tenants
        .iter()
        .zip(split)
        .zip(&streams)
        .map(|((tenant, tenant_outcome), stream)| {
            tenant_report(
                tenant,
                PoolMode::Shared,
                tenant.traffic.rate_qps(total_qps),
                policy.label(),
                replicas,
                plan.label(),
                stream.len(),
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
    tenants
        .iter()
        .map(|t| t.faults)
        .filter(|faults| !faults.is_none())
        .fold(FaultSpec::none(), FaultSpec::merge)
}

/// Splits a shared pool's outcome into per-tenant outcomes by mapping every
/// completion and rejection id back to the tenant whose range holds it.
/// Per-tenant rows are judged against the tenant's **own** SLO (the pool
/// only enforced the shared one); pool-level counters that cannot be
/// attributed to one tenant (batches, retries, restarts, replicas lost,
/// hedging and quarantine counts) are carried on every row.
fn split_by_tenant(
    outcome: &ServeOutcome,
    starts: &[usize],
    tenants: &[TenantSpec],
) -> Vec<ServeOutcome> {
    let tenant_of = |id: u64| starts.partition_point(|&start| start as u64 <= id) - 1;
    tenants
        .iter()
        .enumerate()
        .map(|(t, tenant)| {
            let rejections: Vec<RejectedRequest> = outcome
                .rejections
                .iter()
                .filter(|r| tenant_of(r.id) == t)
                .copied()
                .collect();
            let count = |reason| rejections.iter().filter(|r| r.reason == reason).count();
            ServeOutcome {
                completions: outcome
                    .completions
                    .iter()
                    .filter(|c| tenant_of(c.id) == t)
                    .copied()
                    .collect(),
                slo_s: tenant.slo.as_secs_f64(),
                shed_admission: count(RejectReason::QueueFull),
                shed_expired: count(RejectReason::DeadlineExpired),
                failed: count(RejectReason::Failed),
                rejections,
                ..*outcome
            }
        })
        .collect()
}

/// One tenant's row of a multi-tenant cell ([`run_mix_cell`]): the labels
/// it was measured under and the tenant's own [`ServeOutcome`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Which tenant this row accounts for.
    pub tenant: String,
    /// Pool topology the row was measured under: `isolated` or `shared`.
    pub pool: String,
    /// Offered load in queries per second.
    pub offered_qps: f64,
    /// Traffic-shape label (`poisson`, `bursty`, `onoff`).
    pub traffic: String,
    /// Batching policy label (`fifo`, `dynamic64w1ms`, …).
    pub policy: String,
    /// Replica shards serving the queue.
    pub replicas: usize,
    /// The tenant's own SLO, in milliseconds, that its deadlines are
    /// stamped from.
    pub slo_ms: f64,
    /// Fault-plan label the cell ran under (`none`, `c1`, `c1s1t2`, …).
    pub faults: String,
    /// Requests this tenant generated; every one is accounted in
    /// `outcome`.
    pub generated: usize,
    /// The tenant's outcome, judged against its own SLO. In a shared pool
    /// the counters no single tenant owns (batches, retries, restarts,
    /// replicas lost, hedging and quarantine counts) are the pool's.
    pub outcome: ServeOutcome,
}

impl ServeReport {
    /// Answered availability: completed / generated, `1.0` when the tenant
    /// generated nothing (see the module docs for why sheds count here).
    pub fn availability(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.outcome.completions.len() as f64 / self.generated as f64
        }
    }
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
    outcome: ServeOutcome,
) -> ServeReport {
    assert_eq!(
        outcome.accounted(),
        generated,
        "isolation invariant violated for tenant {:?} ({} pool): every \
         generated request must end exactly one of completed/shed/failed",
        tenant.name,
        mode.label(),
    );
    ServeReport {
        tenant: tenant.name.clone(),
        pool: mode.label().to_string(),
        offered_qps,
        traffic: tenant.traffic.shape.label().to_string(),
        policy: policy_label,
        replicas,
        slo_ms: tenant.slo.as_secs_f64() * 1e3,
        faults: faults_label,
        generated,
        outcome,
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
            .supervised(Supervision::default())
            .with_faults(FaultSpec::crashes(1).with_seed(42)),
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
        assert_eq!(reports[0].outcome.accounted(), 84);
        assert_eq!(reports[1].outcome.accounted(), 36);
        assert!((reports[0].offered_qps - 2_800.0).abs() < 1e-9);
        assert_eq!(reports[0].slo_ms, 5.0);
        assert_eq!(reports[1].slo_ms, 20.0);
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
        assert_eq!(reports[0].outcome.accounted(), 84);
        assert_eq!(reports[1].outcome.accounted(), 36);
        // Shared pool: both rows report the pooled replica count and the
        // shared (over-holding) policy.
        assert_eq!(reports[0].replicas, 3);
        assert_eq!(reports[0].policy, reports[1].policy);
        // Per-tenant SLO columns keep each tenant's own budget.
        assert_eq!(reports[0].slo_ms, 5.0);
        assert_eq!(reports[1].slo_ms, 20.0);
    }

    /// A crash plan on the heavy tenant stays in its own pool when pools
    /// are isolated, and taints every row when the pool is shared.
    #[test]
    fn isolation_confines_stress_to_the_heavy_tenant_pool() {
        let cell = |mode| {
            run_mix_cell(
                CentaurConfig::harpv2(),
                &two_tenants(),
                mode,
                4_000.0,
                120,
                11,
            )
            .unwrap()
        };
        let isolated = cell(PoolMode::Isolated);
        let (light, heavy) = (&isolated[0], &isolated[1]);
        assert_eq!(light.tenant, "light");
        assert_eq!(heavy.tenant, "heavy");
        assert_eq!(heavy.traffic, "heavytail");
        assert_eq!(heavy.faults, "c1", "the crash plan lands on the heavy pool");
        assert_eq!(
            light.faults, "none",
            "the isolated light pool never sees the heavy tenant's faults"
        );
        // Each tenant row is judged against its own SLO and runs its own
        // calibrated deadline policy; the heavy model's budgets are larger.
        assert!(heavy.slo_ms > light.slo_ms);
        assert_ne!(light.policy, heavy.policy);
        // The merged pool-level fault plan taints every shared row: there
        // is no per-tenant fault budget.
        let shared = cell(PoolMode::Shared);
        assert!(shared
            .iter()
            .all(|r| r.pool == "shared" && r.faults == "c1"));
    }

    /// The fail-stop stall abort holds for a shared pool too: a 2 s stall
    /// in one of two unsupervised tenants' pooled replicas aborts the run
    /// with a diagnostic long before the stall would end.
    #[test]
    fn shared_fail_stop_pool_aborts_a_stalled_replica() {
        let tenant = |name: &str, paper: PaperModel, share: f64| {
            TenantSpec::new(
                name,
                tiny_model(paper, 12),
                TenantTraffic::new(share, TrafficShape::Poisson),
                Duration::from_millis(10),
            )
        };
        let tenants = [
            tenant("light", PaperModel::Dlrm1, 0.5),
            tenant("heavy", PaperModel::Dlrm6, 0.5).with_faults(FaultSpec {
                stalls: 1,
                stall_ms: 2_000,
                ..FaultSpec::none()
            }),
        ];
        let started = std::time::Instant::now();
        let result = run_mix_cell(
            CentaurConfig::harpv2(),
            &tenants,
            PoolMode::Shared,
            1_000.0,
            400,
            5,
        );
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(CentaurError::ReplicaStalled { .. })),
            "expected a stall abort, got {result:?}"
        );
        assert!(
            elapsed < Duration::from_millis(1_500),
            "stall abort surfaced in {elapsed:?}, not after the 2 s stall"
        );
    }

    #[test]
    fn mix_server_routes_each_request_to_its_tenant_engine() {
        let light = tiny_model(PaperModel::Dlrm1, 5);
        let heavy = tiny_model(PaperModel::Dlrm6, 6);
        let light_requests = generate_requests(light.config(), IndexDistribution::Uniform, 7, 3);
        let heavy_requests = generate_requests(heavy.config(), IndexDistribution::Uniform, 8, 3);
        let merged: Vec<InferenceRequest> = light_requests
            .into_iter()
            .chain(heavy_requests)
            .enumerate()
            .map(|(id, request)| request.with_id(id as u64))
            .collect();
        let engines = vec![
            CentaurRuntime::new(light.clone(), CentaurConfig::harpv2()).unwrap(),
            CentaurRuntime::new(heavy.clone(), CentaurConfig::harpv2()).unwrap(),
        ];
        // Tenant 0 owns requests 0..3, tenant 1 owns 3..6.
        let mut server = MixServer::new(engines, &merged, &[0, 3], 8);
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
            let reference = if queued.index < 3 {
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

    /// A single model is a one-tenant server: it serves a batch, echoes
    /// ids, and reuses its buffers for a smaller batch.
    #[test]
    fn one_tenant_mix_server_serves_batches_and_echoes_ids() {
        let model = tiny_model(PaperModel::Dlrm1, 3);
        let requests = generate_requests(model.config(), IndexDistribution::Uniform, 4, 8);
        let runtime = CentaurRuntime::new(model, CentaurConfig::harpv2()).unwrap();
        let mut server = MixServer::new(vec![runtime], &requests, &[0], 4);
        let batch: Vec<QueuedRequest> = (0..4).map(|i| QueuedRequest::new(i, 0.0)).collect();
        let mut out = Vec::new();
        server.serve_batch(&batch, &mut out).unwrap();
        assert_eq!(out.len(), 4, "one probability per batch entry");
        assert!(out.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_eq!(server.request_id(3), requests[3].id);
        // A second serve reuses the buffers and can shrink the batch.
        server.serve_batch(&batch[..2], &mut out).unwrap();
        assert_eq!(out.len(), 2);
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
